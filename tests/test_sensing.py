import numpy as np
import pytest

from jcas.channel import composite_channel, random_binary_pattern, scatter_rows
from jcas.gamp import PriorParams
from jcas.mpa import ser
from jcas.sensing import (
    PacketRecord,
    SenseWindow,
    estimate_channel,
    scatter_component,
    sense,
)
from jcas.transceiver import noise_sigma, random_frame, transmit


def _packet(links, truth, cb, packet, sigma2, seed=5, n_slots=64):
    irs = random_binary_pattern(400, packet, seed)
    h = np.stack(
        [composite_channel(links, irs, truth.values, r) for r in range(cb.n_ores)]
    )
    frame = random_frame(n_slots, cb, packet, seed)
    rx = transmit(frame, h, cb, sigma2, np.random.SeedSequence((seed, packet)))
    return irs, h, frame, rx


def test_estimate_channel_noiseless_exact(links, truth, codebook):
    irs, h, frame, rx = _packet(links, truth, codebook, 1, sigma2=0.0)
    est = estimate_channel(rx.y, frame.symbol_indices, codebook)
    assert est.observed.sum() == codebook.d_v * codebook.n_users
    for r in range(codebook.n_ores):
        for u in range(codebook.n_users):
            if est.observed[r, u]:
                assert np.allclose(est.h[r, u], h[r, u], atol=1e-8)
            else:
                assert np.allclose(est.h[r, u], 0.0)
    assert est.noise_var < 1e-12


def test_estimate_channel_noise_variance_tracks_sigma2(links, truth, codebook):
    sigma2 = noise_sigma(10.0, codebook)
    errs, variances = [], []
    for k in range(1, 6):
        irs, h, frame, rx = _packet(links, truth, codebook, k, sigma2, n_slots=256)
        est = estimate_channel(rx.y, frame.symbol_indices, codebook)
        mask = est.observed
        errs.append(
            np.mean(np.abs(est.h[mask] - np.stack([h[r, u] for r, u in zip(*np.where(mask))])) ** 2)
        )
        variances.append(est.noise_var)
    # reported per-coefficient variance should match the realized error scale
    assert np.mean(variances) == pytest.approx(np.mean(errs), rel=0.5)


def test_estimate_channel_needs_enough_slots(codebook):
    y = np.zeros((2, 4, 2), dtype=complex)  # N_T=2 < d_f=3
    sym = np.zeros((2, 6), dtype=int)
    with pytest.raises(ValueError, match="identifiability"):
        estimate_channel(y, sym, codebook)


def test_scatter_component_inverts_composition(links, truth, codebook):
    irs = random_binary_pattern(400, 3, 5)
    for r in (0, 2):
        h = composite_channel(links, irs, truth.values, r)
        scat = scatter_component(h, links, irs, r)
        assert np.allclose(scat, scatter_rows(links, irs, truth.values, r), atol=1e-12)


def test_window_ring_buffer_and_update():
    win = SenseWindow(3)
    for k in range(5):
        win.push(PacketRecord(k, np.zeros((1, 1, 1), dtype=complex), np.zeros((1, 1), dtype=int), None))
    assert [r.packet for r in win.records] == [2, 3, 4]
    assert win.update_symbols(3, np.ones((1, 1), dtype=int))
    assert not win.update_symbols(0, np.ones((1, 1), dtype=int))
    assert win.records[1].symbol_indices[0, 0] == 1


def _assert_same_estimate(a, b):
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.observed, b.observed)
    assert a.noise_var == b.noise_var


def test_record_cache_follows_its_decode(links, truth, codebook):
    sigma2 = noise_sigma(5.0, codebook)
    irs, h, frame, rx = _packet(links, truth, codebook, 2, sigma2)
    rec = PacketRecord(2, rx.y, frame.symbol_indices, irs)
    win = SenseWindow(2)
    win.push(rec)
    est = rec.estimate(codebook)
    assert rec.estimate(codebook) is est
    assert rec.scatter(links, codebook, 1) is rec.scatter(links, codebook, 1)

    rng = np.random.default_rng(0)
    for replace_symbols in (
        lambda sym: win.update_symbols(2, sym),
        lambda sym: setattr(rec, "symbol_indices", sym),
    ):
        sym = rng.integers(0, codebook.m, frame.symbol_indices.shape)
        replace_symbols(sym)
        fresh = estimate_channel(rx.y, sym, codebook)
        _assert_same_estimate(rec.estimate(codebook), fresh)
        for r in range(codebook.n_ores):
            assert np.array_equal(
                rec.scatter(links, codebook, r),
                scatter_component(fresh.h[r], links, irs, r),
            )


def test_window_validation():
    with pytest.raises(ValueError):
        SenseWindow(0)
    with pytest.raises(ValueError):
        SenseWindow(3, mu=1.0)


def test_sense_recovers_truth_noiseless(links, truth, codebook, prior):
    win = SenseWindow(8)
    for k in range(1, 9):
        irs, h, frame, rx = _packet(links, truth, codebook, k, sigma2=0.0)
        win.push(PacketRecord(k, rx.y, frame.symbol_indices, irs))
    x_hat, result = sense(win, links, codebook, prior)
    assert np.mean((x_hat - truth.values) ** 2) < 1e-8


def test_sense_noisy_better_with_longer_window(links, truth, codebook, prior):
    sigma2 = noise_sigma(10.0, codebook)
    mses = []
    for n_f in (2, 10):
        win = SenseWindow(n_f)
        for k in range(1, 11):
            irs, h, frame, rx = _packet(links, truth, codebook, k, sigma2)
            win.push(PacketRecord(k, rx.y, frame.symbol_indices, irs))
        x_hat, _ = sense(win, links, codebook, prior)
        mses.append(np.mean((x_hat - truth.values) ** 2))
    assert mses[1] < mses[0]


def test_sense_momentum_blend(links, truth, codebook, prior):
    win = SenseWindow(4, mu=0.9)
    for k in range(1, 5):
        irs, h, frame, rx = _packet(links, truth, codebook, k, sigma2=0.0)
        win.push(PacketRecord(k, rx.y, frame.symbol_indices, irs))
    plain, _ = sense(win, links, codebook, prior, mu=0.0)
    win.x_prev = np.zeros_like(truth.values)
    blended, _ = sense(win, links, codebook, prior, mu=0.9)
    assert np.allclose(blended, np.clip(0.1 * plain, 0, 1), atol=1e-12)


def test_sense_all_ores_mode_uses_more_rows(links, truth, codebook, prior):
    win = SenseWindow(2)
    for k in range(1, 3):
        irs, h, frame, rx = _packet(links, truth, codebook, k, sigma2=0.0)
        win.push(PacketRecord(k, rx.y, frame.symbol_indices, irs))
    x_first, _ = sense(win, links, codebook, prior, ore_mode="user_first")
    x_all, _ = sense(win, links, codebook, prior, ore_mode="all_ores")
    # with only 2 packets the one-row-per-user stack is underdetermined;
    # stacking every occupied ORE doubles the rows and recovers the scene
    assert np.mean((x_all - truth.values) ** 2) < 1e-6
    assert np.mean((x_all - truth.values) ** 2) < np.mean((x_first - truth.values) ** 2)


def test_sense_validation(links, codebook, prior):
    with pytest.raises(ValueError, match="empty"):
        sense(SenseWindow(2), links, codebook, prior)
    win = SenseWindow(2)
    win.push(PacketRecord(0, np.zeros((4, 4, 2), dtype=complex), np.zeros((4, 6), dtype=int), None))
    with pytest.raises(ValueError, match="ore_mode"):
        sense(win, links, codebook, prior, ore_mode="bogus")

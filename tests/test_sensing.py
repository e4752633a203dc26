from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jcas.channel import PacketChannel, random_binary_pattern
from jcas.joint import JointConfig, JointRunner
from jcas.mpa import mpa_decode, ser
from jcas.sensing import (
    EstimatedChannel,
    PacketRecord,
    estimate_channel,
    sense,
)
from jcas.scma import Codebook, build_codebook, factor_graph
from jcas.transceiver import codeword_tensor, noise_sigma, random_frame, transmit
from oracles import lift_complex


def _packet(links, truth, cb, packet, sigma2, seed=5, n_slots=64):
    ch = PacketChannel(links, random_binary_pattern(400, packet, seed))
    h = ch.channel(truth.values)
    frame = random_frame(n_slots, cb, packet, seed)
    rx = transmit(frame, h, cb, sigma2, np.random.SeedSequence((seed, packet)))
    return ch, h, frame, rx


def test_estimate_channel_noiseless_exact(links, truth, codebook):
    ch, h, frame, rx = _packet(links, truth, codebook, 1, sigma2=0.0)
    est = estimate_channel(rx, frame, codebook)
    assert est.observed.sum() == codebook.d_v * codebook.n_users
    for r in range(codebook.n_ores):
        for u in range(codebook.n_users):
            if est.observed[r, u]:
                assert np.allclose(est.h[r, u], h[r, u], atol=1e-8)
            else:
                assert np.allclose(est.h[r, u], 0.0)
    assert est.noise_var < 1e-12


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(6, 4, 2), (3, 3, 2), (8, 4, 2), (2, 2, 1)]),
    m=st.sampled_from([2, 4]),
    n_ant=st.integers(1, 4),
    extra_slots=st.integers(0, 6),
)
def test_estimate_channel_noiseless_exact_on_observed_pairs(seed, shape, m, n_ant, extra_slots):
    """Noiseless: observed pairs are exact up to the ridge's bias, which is at
    most _RIDGE_REL * cond(S^H S) relative, and never more than 1e-2 relative,
    since a worse-conditioned ORE is flagged; unobserved pairs are zero."""
    n_users, n_ores, d_v = shape
    cb = build_codebook(n_users, n_ores, m=m, d_v=d_v)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n_ores, n_users, n_ant)) + 1j * rng.standard_normal(
        (n_ores, n_users, n_ant)
    )
    frame = random_frame(cb.max_d_f + extra_slots, cb, 0, seed)
    est = estimate_channel(transmit(frame, h, cb, 0.0), frame, cb)
    assert np.all(est.h[~est.observed] == 0)
    e = codeword_tensor(frame, cb)
    for r, users in enumerate(factor_graph(cb).lambda_r):
        users = list(users)
        assert np.all(est.observed[r, users]) or not np.any(est.observed[r, users])
        if est.observed[r, users[0]]:
            s = e[:, r, users]
            rel = min(1e-6 * np.linalg.cond(s.conj().T @ s), 1e-2)
            bound = (rel + 1e-12) * np.linalg.norm(h[r, users])
            assert np.linalg.norm(est.h[r, users] - h[r, users]) <= bound


def test_estimate_channel_flags_rank_deficient_symbols(links, truth, codebook):
    """Every user repeating one symbol leaves S^H S rank one on each ORE; the
    ridge must not pass that off as an observation."""
    ch = PacketChannel(links, random_binary_pattern(400, 1, 5))
    frame = np.zeros((codebook.max_d_f + 2, codebook.n_users), dtype=int)
    rx = transmit(frame, ch.channel(truth.values), codebook, 0.0)
    est = estimate_channel(rx, frame, codebook)
    assert not est.observed.any()
    assert np.all(est.h == 0)


@pytest.mark.parametrize("delta, observed", [(1e-1, True), (1e-3, False)])
def test_estimate_channel_flags_ill_conditioned_symbols(delta, observed):
    """Two users whose codewords differ by delta: cond(S^H S) is about
    1.8e3 at 1e-1 (ridge bias under 1e-2, observed) and 1.6e7 at 1e-3,
    where the ridge would bias the estimate past 100%, so it is flagged."""
    cb = Codebook([np.array([[1, 1]]), np.array([[1, 1 + delta]])])
    sym = np.array([[0, 0], [1, 1]])
    h = np.array([[[1 + 1j], [0.5 - 2j]]])
    est = estimate_channel(transmit(sym, h, cb, 0.0), sym, cb)
    assert np.all(est.observed == observed)
    if observed:
        assert np.linalg.norm(est.h - h) <= 1e-2 * np.linalg.norm(h)
    else:
        assert np.all(est.h == 0)


def test_estimate_channel_noise_variance_tracks_sigma2(links, truth, codebook):
    sigma2 = noise_sigma(10.0, codebook)
    errs, variances = [], []
    for k in range(1, 6):
        ch, h, frame, rx = _packet(links, truth, codebook, k, sigma2, n_slots=256)
        est = estimate_channel(rx, frame, codebook)
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


def test_scatter_component_inverts_composition(monkeypatch, links, truth, codebook, prior):
    """sense's stacked rows are the estimate minus the static channel part:
    for an estimate equal to the composite channel, the scatter part."""
    ch = PacketChannel(links, random_binary_pattern(400, 3, 5))
    # a record whose estimate is the exact composite channel
    exact = EstimatedChannel(
        ch.channel(truth.values), np.ones((links.n_ores, links.n_users), dtype=bool)
    )
    monkeypatch.setattr("jcas.sensing.estimate_channel", lambda y, symbols, cb: exact)
    rec = PacketRecord(None, np.zeros((3, links.n_users), dtype=int), ch)
    _, y = _stacked_system(monkeypatch, [rec], codebook, prior, "all_ores")
    ores, users = _stacking_pairs(codebook, "all_ores")
    scat = ch.scatter(truth.values)[ores, users].ravel()
    assert np.allclose(y, np.concatenate([scat.real, scat.imag]), atol=1e-12)


def _assert_same_estimate(a, b):
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.observed, b.observed)
    assert a.noise_var == b.noise_var


def test_record_cache_follows_its_decode(links, truth, codebook):
    sigma2 = noise_sigma(5.0, codebook)
    ch, h, frame, rx = _packet(links, truth, codebook, 2, sigma2)
    rec = PacketRecord(rx, frame, ch)
    est = rec.estimate(codebook)
    assert rec.estimate(codebook) is est

    rng = np.random.default_rng(0)
    for _ in range(2):
        sym = rng.integers(0, codebook.m, frame.shape)
        rec.symbol_indices = sym
        fresh = estimate_channel(rx, sym, codebook)
        _assert_same_estimate(rec.estimate(codebook), fresh)


def test_record_keeps_its_estimate_across_an_unchanged_redecode(links, truth, codebook):
    """A re-decode to the same symbols keeps the estimate object; one that
    changes a symbol drops it."""
    sigma2 = noise_sigma(5.0, codebook)
    ch, h, frame, rx = _packet(links, truth, codebook, 2, sigma2)
    rec = PacketRecord(rx, frame, ch)
    est = rec.estimate(codebook)
    rec.symbol_indices = frame.copy()
    assert rec.estimate(codebook) is est

    changed = frame.copy()
    changed[0, 0] = (changed[0, 0] + 1) % codebook.m
    rec.symbol_indices = changed
    fresh = rec.estimate(codebook)
    assert fresh is not est
    _assert_same_estimate(fresh, estimate_channel(rx, changed, codebook))


def test_estimate_follows_in_place_symbol_edits(links, truth, codebook):
    """An in-place edit of symbol_indices is a new decode: the next estimate
    is that of the edited symbols, and editing back gives the first one's."""
    sigma2 = noise_sigma(5.0, codebook)
    ch, h, frame, rx = _packet(links, truth, codebook, 2, sigma2)
    rec = PacketRecord(rx, frame.copy(), ch)
    first = rec.estimate(codebook)
    rec.symbol_indices[0, 0] = (frame[0, 0] + 1) % codebook.m
    edited = rec.estimate(codebook)
    _assert_same_estimate(edited, estimate_channel(rx, rec.symbol_indices, codebook))
    assert not np.array_equal(edited.h, first.h)
    rec.symbol_indices[0, 0] = frame[0, 0]
    _assert_same_estimate(rec.estimate(codebook), first)


def test_sense_recovers_truth_noiseless(links, truth, codebook, prior):
    records = []
    for k in range(1, 9):
        ch, h, frame, rx = _packet(links, truth, codebook, k, sigma2=0.0)
        records.append(PacketRecord(rx, frame, ch))
    x_hat = sense(records, codebook, prior).x
    assert np.mean((x_hat - truth.values) ** 2) < 1e-8


def test_sense_noisy_better_with_longer_window(links, truth, codebook, prior):
    sigma2 = noise_sigma(10.0, codebook)
    mses = []
    for n_f in (2, 10):
        window = deque(maxlen=n_f)  # keeps the last n_f of the 10 packets
        for k in range(1, 11):
            ch, h, frame, rx = _packet(links, truth, codebook, k, sigma2)
            window.append(PacketRecord(rx, frame, ch))
        x_hat = sense(window, codebook, prior).x
        mses.append(np.mean((x_hat - truth.values) ** 2))
    assert mses[1] < mses[0]


def test_sense_all_ores_mode_uses_more_rows(links, truth, codebook, prior):
    records = []
    for k in range(1, 3):
        ch, h, frame, rx = _packet(links, truth, codebook, k, sigma2=0.0)
        records.append(PacketRecord(rx, frame, ch))
    x_first = sense(records, codebook, prior, ore_mode="user_first").x
    x_all = sense(records, codebook, prior, ore_mode="all_ores").x
    # with only 2 packets the one-row-per-user stack is underdetermined;
    # stacking every occupied ORE doubles the rows and recovers the scene
    assert np.mean((x_all - truth.values) ** 2) < 1e-6
    assert np.mean((x_all - truth.values) ** 2) < np.mean((x_first - truth.values) ** 2)


def test_sense_validation(codebook, prior):
    with pytest.raises(ValueError, match="empty"):
        sense([], codebook, prior)
    records = [
        PacketRecord(np.zeros((4, 4, 2), dtype=complex), np.zeros((4, 6), dtype=int), None)
    ]
    with pytest.raises(ValueError, match="ore_mode"):
        sense(records, codebook, prior, ore_mode="bogus")


class _Stacked(Exception):
    """Raised by the gamp_solve stand-in with the system sense passed it."""


def _stacked_system(monkeypatch, records, cb, prior, ore_mode):
    """The (phi, y) that sense passes to gamp_solve."""

    def capture(phi, y, q, **kwargs):
        raise _Stacked(phi.copy(), y.copy())

    monkeypatch.setattr("jcas.sensing.gamp_solve", capture)
    with pytest.raises(_Stacked) as caught:
        sense(records, cb, prior, ore_mode=ore_mode)
    return caught.value.args


def _stacking_pairs(cb, ore_mode):
    return np.array(
        [
            (r, nu)
            for nu, ores in enumerate(factor_graph(cb).omega_u)
            for r in (ores[:1] if ore_mode == "user_first" else ores)
        ]
    ).T


def _lifted_from_scratch(records, cb, ore_mode):
    """lift_complex of the concatenated measurement matrices of every record's
    observed stacking pairs, with their scatter rows (estimate minus static
    part)."""
    ores_all, users_all = _stacking_pairs(cb, ore_mode)
    rows, mats = [], []
    for rec in records:
        keep = rec.estimate(cb).observed[ores_all, users_all]
        ores, users = ores_all[keep], users_all[keep]
        rows.append((rec.estimate(cb).h - rec.channel.static)[ores, users])
        mats.append(rec.channel.matrices(ores, users))
    h_tilde = np.concatenate(rows).ravel()
    return lift_complex(np.concatenate(mats).reshape(h_tilde.size, -1), h_tilde)


@pytest.mark.parametrize("ore_mode", ["user_first", "all_ores"])
def test_sense_stacks_kept_rows_bit_equal(monkeypatch, links, truth, codebook, prior, ore_mode):
    """sense's GAMP input equals the system built from scratch, bit for bit:
    on first stacking, on restacking the kept rows, and after re-decodes that
    change which OREs are observed. Three-slot frames flag some OREs; packet
    4's all-zero decode flags every ORE."""
    sigma2 = noise_sigma(10.0, codebook)
    records, sent = [], []
    for k in range(1, 7):
        ch, h, frame, rx = _packet(links, truth, codebook, k, sigma2, n_slots=3)
        sym = np.zeros_like(frame) if k == 4 else frame
        records.append(PacketRecord(rx, sym, ch))
        sent.append(frame)
    ores_all, _ = _stacking_pairs(codebook, ore_mode)
    n_r = links.n_antennas

    def check():
        phi, y = _stacked_system(monkeypatch, records, codebook, prior, ore_mode)
        ref_phi, ref_y = _lifted_from_scratch(records, codebook, ore_mode)
        assert np.array_equal(phi, ref_phi)
        assert np.array_equal(y, ref_y)
        return len(y) // (2 * n_r)  # stacked pairs

    assert not records[3].estimate(codebook).observed.any()
    # the mask drops pairs of records other than the all-zero one as well
    assert check() < len(ores_all) * (len(records) - 1)
    check()
    records[3].symbol_indices = sent[3]
    records[0].symbol_indices = np.zeros_like(sent[0])
    check()


def test_lifted_rows_built_once_per_packet(monkeypatch, truth, links, codebook, prior):
    """Over a run with self-iteration and feedback, each packet's measurement
    matrices are built once, although sense restacks every window record
    many times and re-decodes replace their symbols."""
    # no pilot: a pilot never re-decodes, so its self-iterations solve nothing new
    cfg = JointConfig(
        n_packets=10, n_slots=64, n_pilot=0, n_f=4, n_b=1, k_s=5, ebn0_db=6.0, seed=21
    )
    built, senses, decodes = [], [], []
    matrices = PacketChannel.matrices

    def counted_matrices(self, ores, users):
        built.append(self)
        return matrices(self, ores, users)

    def counting(fn, calls):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        return wrapper

    runner = JointRunner(truth, links, codebook, prior, cfg)
    monkeypatch.setattr(PacketChannel, "matrices", counted_matrices)
    monkeypatch.setattr("jcas.joint.sense", counting(sense, senses))
    monkeypatch.setattr("jcas.joint.mpa_decode", counting(mpa_decode, decodes))
    trace = runner.run()
    data_packets = sum(not p.pilot for p in trace.packets)
    assert len(senses) > cfg.n_packets  # self-iterations restack the window
    assert len(decodes) > data_packets  # and re-decodes happened
    assert len(built) == cfg.n_packets
    assert len({id(ch) for ch in built}) == cfg.n_packets


def test_record_keeps_lifted_rows_across_decodes(links, truth, codebook, prior):
    """A new decode keeps the rows (they depend on the channel only); each
    ore_mode has its own set."""
    sigma2 = noise_sigma(10.0, codebook)
    records = []
    for k in range(1, 4):
        ch, h, frame, rx = _packet(links, truth, codebook, k, sigma2)
        records.append(PacketRecord(rx, frame, ch))
    sense(records, codebook, prior)
    kept = [rec._rows["user_first"] for rec in records]
    records[1].symbol_indices = np.zeros_like(records[1].symbol_indices)
    sense(records, codebook, prior)
    assert all(rec._rows["user_first"] is k for rec, k in zip(records, kept))
    sense(records, codebook, prior, ore_mode="all_ores")
    for rec in records:
        assert set(rec._rows) == {"user_first", "all_ores"}
        ores, users = _stacking_pairs(codebook, "all_ores")
        a = rec.channel.matrices(ores, users)
        assert np.array_equal(rec._rows["all_ores"], np.stack([a.real, a.imag]))

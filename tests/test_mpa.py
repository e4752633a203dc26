import itertools

import numpy as np
import pytest

from jcas.mpa import ml_decode, mpa_decode, ser
from jcas.scma import build_codebook, default_codebook
from jcas.transceiver import noise_sigma, random_frame, transmit

from oracles import mpa_reference


def _rand_channel(cb, n_ant, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((cb.n_ores, cb.n_users, n_ant)) + 1j * rng.standard_normal(
        (cb.n_ores, cb.n_users, n_ant)
    )
    return scale * h / np.sqrt(2)


def _ml_bruteforce(y, h, cb):
    """Reference ML: explicit loop over every joint combination."""
    n_t = y.shape[0]
    out = np.zeros((n_t, cb.n_users), dtype=int)
    for t in range(n_t):
        best, best_d = None, np.inf
        for combo in itertools.product(range(cb.m), repeat=cb.n_users):
            mean = np.zeros((cb.n_ores, h.shape[2]), dtype=complex)
            for u, m in enumerate(combo):
                mean += h[:, u, :] * cb.matrices[u][:, m][:, None]
            d = np.sum(np.abs(y[t] - mean) ** 2)
            if d < best_d:
                best_d, best = d, combo
        out[t] = best
    return out


def test_ml_matches_bruteforce_oracle():
    cb = build_codebook(3, 3, m=2, d_v=2)
    h = _rand_channel(cb, 2, 0)
    frame = random_frame(20, cb, 0, 1)
    rx = transmit(frame, h, cb, noise_sigma(6.0, cb), seed=2)
    fast = ml_decode(rx.y, h, cb).indices
    slow = _ml_bruteforce(rx.y, h, cb)
    assert np.array_equal(fast, slow)


def test_ml_noiseless_is_exact():
    cb = default_codebook()
    h = _rand_channel(cb, 2, 3)
    frame = random_frame(50, cb, 0, 4)
    rx = transmit(frame, h, cb, 0.0)
    assert np.array_equal(ml_decode(rx.y, h, cb).indices, frame.symbol_indices)


def test_ml_guard_rejects_huge_books():
    cb = build_codebook(13, 6, m=4, d_v=2)  # 26 bits > guard
    h = _rand_channel(cb, 1, 0)
    with pytest.raises(ValueError, match="too large"):
        ml_decode(np.zeros((1, 6, 1), dtype=complex), h, cb)


def test_mpa_collision_free_posterior_oracle():
    """With d_v=1 each user occupies one ORE alone; the MPA posterior must
    equal the normalized single-user likelihood combined across antennas."""
    cb = build_codebook(2, 2, m=4, d_v=1)
    h = _rand_channel(cb, 3, 5)
    frame = random_frame(10, cb, 0, 6)
    sigma2 = noise_sigma(8.0, cb)
    rx = transmit(frame, h, cb, sigma2, seed=7)
    res = mpa_decode(rx.y, h, cb, sigma2)
    for u in range(2):
        r = cb.support(u)[0]
        for t in range(10):
            logp = np.zeros(cb.m)
            for m in range(cb.m):
                mean = h[r, u, :] * cb.matrices[u][r, m]
                logp[m] = -np.sum(np.abs(rx.y[t, r, :] - mean) ** 2) / sigma2
            p = np.exp(logp - logp.max())
            p /= p.sum()
            assert np.allclose(res.posteriors[t, u], p, atol=1e-8)


def test_mpa_posteriors_normalized():
    cb = default_codebook()
    h = _rand_channel(cb, 2, 8)
    frame = random_frame(16, cb, 0, 9)
    sigma2 = noise_sigma(10.0, cb)
    rx = transmit(frame, h, cb, sigma2, seed=10)
    res = mpa_decode(rx.y, h, cb, sigma2)
    assert np.allclose(res.posteriors.sum(axis=2), 1.0)
    assert np.array_equal(res.indices, np.argmax(res.posteriors, axis=2))


def test_mpa_agrees_with_ml_at_high_snr():
    cb = default_codebook()
    h = _rand_channel(cb, 4, 11)
    frame = random_frame(400, cb, 0, 12)
    sigma2 = noise_sigma(10.0, cb)
    rx = transmit(frame, h, cb, sigma2, seed=13)
    a = mpa_decode(rx.y, h, cb, sigma2).indices
    b = ml_decode(rx.y, h, cb).indices
    assert np.mean(a == b) >= 0.99


def test_mpa_noiseless_exact():
    cb = default_codebook()
    h = _rand_channel(cb, 2, 14)
    frame = random_frame(100, cb, 0, 15)
    rx = transmit(frame, h, cb, 0.0)
    res = mpa_decode(rx.y, h, cb, sigma2=0.0)
    assert np.array_equal(res.indices, frame.symbol_indices)


def test_mpa_ser_improves_with_snr():
    cb = default_codebook()
    h = _rand_channel(cb, 2, 16)
    frame = random_frame(600, cb, 0, 17)
    sers = []
    for db in (0.0, 6.0, 12.0):
        sigma2 = noise_sigma(db, cb)
        rx = transmit(frame, h, cb, sigma2, seed=18)
        sers.append(ser(mpa_decode(rx.y, h, cb, sigma2).indices, frame.symbol_indices))
    assert sers[0] > sers[2]
    assert sers[1] >= sers[2]


def test_mpa_input_validation():
    cb = default_codebook()
    h = _rand_channel(cb, 2, 0)
    with pytest.raises(ValueError):
        mpa_decode(np.zeros((2, 3, 2), dtype=complex), h, cb, 0.1)
    with pytest.raises(ValueError):
        mpa_decode(np.zeros((2, 4, 2), dtype=complex), h, cb, 0.1, k_it=0)


@pytest.mark.parametrize("sigma2", [-0.1, float("nan"), float("inf"), -float("inf")])
def test_mpa_rejects_bad_sigma2(sigma2):
    cb = default_codebook()
    h = _rand_channel(cb, 2, 0)
    with pytest.raises(ValueError, match="sigma2"):
        mpa_decode(np.zeros((2, 4, 2), dtype=complex), h, cb, sigma2)


@pytest.mark.parametrize("n_ant", [1, 4, 16])
@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("shape", [(6, 4), (20, 7)])
def test_mpa_matches_reference(shape, m, n_ant):
    """Same decisions as the einsum reference and posteriors equal to rounding,
    on regular (6 users, 4 OREs, d_f=3) and irregular (20 on 7, d_f 5-6) books.

    Cases: noiseless with sigma2 = 0, noisy at 4 dB with its sigma2, and the
    noisy frame decoded with sigma2 = 0, where only the per-slot rescale of
    the likelihood keeps every slot's table from underflowing."""
    cb = build_codebook(*shape, m=m, d_v=2)
    h = _rand_channel(cb, n_ant, 19)
    frame = random_frame(12, cb, 0, 20)
    noisy = transmit(frame, h, cb, noise_sigma(4.0, cb), seed=21)
    cases = [(transmit(frame, h, cb, 0.0).y, 0.0), (noisy.y, noisy.sigma2), (noisy.y, 0.0)]
    for y, sigma2 in cases:
        for k_it in (1, 10):
            fast = mpa_decode(y, h, cb, sigma2, k_it)
            ref = mpa_reference(y, h, cb, sigma2, k_it)
            assert np.array_equal(fast.indices, ref.indices)
            assert np.allclose(fast.posteriors, ref.posteriors, rtol=0, atol=1e-12)

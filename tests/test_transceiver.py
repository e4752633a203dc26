import numpy as np
import pytest

from jcas.mpa import ser
from jcas.scma import default_codebook
from jcas.transceiver import (
    codeword_tensor,
    noise_sigma,
    random_frame,
    transmit,
)


def test_noise_sigma_at_zero_db():
    """Unit-energy codebooks with M=4 give E_b = 1/2, so sigma2(0 dB) = 1/2."""
    cb = default_codebook()
    assert np.isclose(noise_sigma(0.0, cb), 0.5)


def test_noise_sigma_scaling():
    cb = default_codebook()
    s0 = noise_sigma(0.0, cb)
    assert np.isclose(noise_sigma(10.0, cb), s0 / 10.0)


def test_random_frame_keyed_by_seed_and_packet():
    cb = default_codebook()
    a = random_frame(16, cb, packet=2, seed=5)
    b = random_frame(16, cb, packet=2, seed=5)
    c = random_frame(16, cb, packet=3, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (16, 6)
    assert a.min() >= 0 and a.max() < 4


def test_codeword_tensor_oracle():
    """E[t, r, u] must equal C_u(m_{t,u}, r), checked entry by entry."""
    cb = default_codebook()
    frame = random_frame(5, cb, 0, 3)
    e = codeword_tensor(frame, cb)
    assert e.shape == (5, cb.n_ores, cb.n_users)
    for t in range(5):
        for u in range(cb.n_users):
            m = frame[t, u]
            assert np.array_equal(e[t, :, u], cb.matrices[u][:, m])


def test_codeword_tensor_rejects_bad_indices():
    cb = default_codebook()
    with pytest.raises(ValueError):
        codeword_tensor(np.full((2, 6), 4), cb)
    with pytest.raises(ValueError):
        codeword_tensor(np.zeros((2, 3), dtype=int), cb)


def test_transmit_noiseless_oracle():
    """y[t,r,n] = sum_u h[r,u,n] * C_u(m_tu, r) via an explicit loop."""
    cb = default_codebook()
    rng = np.random.default_rng(1)
    h = rng.standard_normal((4, 6, 3)) + 1j * rng.standard_normal((4, 6, 3))
    frame = random_frame(4, cb, 0, 2)
    rx = transmit(frame, h, cb, sigma2=0.0)
    for t in range(4):
        for r in range(4):
            for n in range(3):
                expect = sum(
                    h[r, u, n] * cb.matrices[u][r, frame[t, u]]
                    for u in range(6)
                )
                assert np.isclose(rx[t, r, n], expect)


def test_transmit_noise_statistics():
    """Empirical E|w|^2 must match sigma2 (total complex variance)."""
    cb = default_codebook()
    h = np.zeros((4, 6, 2), dtype=complex)
    frame = random_frame(4000, cb, 0, 2)
    sigma2 = 0.37
    rx = transmit(frame, h, cb, sigma2, seed=9)
    power = np.mean(np.abs(rx) ** 2)
    assert np.isclose(power, sigma2, rtol=0.05)


def test_transmit_rejects_negative_noise():
    cb = default_codebook()
    h = np.zeros((4, 6, 2), dtype=complex)
    with pytest.raises(ValueError):
        transmit(random_frame(2, cb, 0, 1), h, cb, -1.0)


def test_transmit_rejects_non_finite_received_frame():
    cb = default_codebook()
    h = np.full((4, 6, 2), np.inf, dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        transmit(random_frame(2, cb, 0, 1), h, cb, 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        transmit(random_frame(2, cb, 0, 1), np.zeros((4, 6, 2)), cb, np.inf, seed=3)


def test_ser_counts_positions():
    a = np.array([[0, 1], [2, 3]])
    b = np.array([[0, 0], [2, 3]])
    assert ser(a, b) == 0.25
    assert ser(a, a) == 0.0
    with pytest.raises(ValueError):
        ser(a, b[:1])

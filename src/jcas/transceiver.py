"""Frame formation, channel application and calibrated complex Gaussian noise.

A frame is a plain (N_T, N_u) array of symbol indices, one per (time slot,
user), and transmit returns the received tensor y (N_T, R, N_R) itself.

Noise convention used across the package: sigma2 is the total variance of the
circularly-symmetric complex noise sample, E|w|^2 = sigma2 (sigma2/2 per real
dimension). The MPA decoder likelihood reuses the same convention.
"""

import numpy as np

from .scma import Codebook

__all__ = ["noise_sigma", "random_frame", "codeword_tensor", "transmit"]


def noise_sigma(ebn0_db: float, cb: Codebook) -> float:
    """Noise variance (total, per complex sample) for a target Eb/N0 in dB.

    E_b is the average codeword energy over all users and symbols divided by
    log2(M) bits per symbol, taken at the transmitter (a unit-gain reference
    channel). sigma2 = E_b / 10^(ebn0/10).
    """
    energies = [np.mean(np.sum(np.abs(m) ** 2, axis=0)) for m in cb.matrices]
    eb = np.mean(energies) / np.log2(cb.m)
    return float(eb * 10.0 ** (-ebn0_db / 10.0))


def random_frame(n_slots: int, cb: Codebook, packet: int, seed) -> np.ndarray:
    """Uniform random symbol indices (N_T, N_u) in [0, M) for every (slot,
    user), keyed by (seed, packet)."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(packet))))
    return rng.integers(0, cb.m, size=(n_slots, cb.n_users))


def codeword_tensor(symbols, cb: Codebook):
    """Transmitted codeword entries E with E[t, r, u] = C_u(m_{t,u}, r).

    symbols holds the (N_T, N_u) symbol indices m_{t,u}.
    """
    symbols = np.atleast_2d(np.asarray(symbols, dtype=int))
    if symbols.ndim != 2:
        raise ValueError("symbol indices must be (N_T, N_u)")
    if symbols.shape[1] != cb.n_users:
        raise ValueError(
            f"frame has {symbols.shape[1]} users, codebook has {cb.n_users}"
        )
    if np.any(symbols < 0) or np.any(symbols >= cb.m):
        raise ValueError("symbol index out of range for this codebook")
    # fancy-index per user: E[t, r, u] = matrices[u, r, m[t, u]]
    return cb.matrices[np.arange(cb.n_users)[None, :], :, symbols].transpose(0, 2, 1)


def transmit(symbols, h, cb: Codebook, sigma2: float, seed=None) -> np.ndarray:
    """Apply the per-ORE channel and add noise.

    symbols holds the (N_T, N_u) symbol indices and h is the (R, N_u, N_R)
    composite channel. Returns the received tensor y (N_T, R, N_R) with
    y[t, r, n_R] = sum_u h[r, u, n_R] * C_u(m_{t,u}, r) + w.
    """
    h = np.asarray(h)
    if h.ndim != 3 or h.shape[0] != cb.n_ores or h.shape[1] != cb.n_users:
        raise ValueError(f"channel shape {h.shape} inconsistent with codebook")
    e = codeword_tensor(symbols, cb)  # (N_T, R, N_u)
    y = np.einsum("tru,run->trn", e, h)
    if sigma2 < 0:
        raise ValueError("noise variance must be nonnegative")
    if sigma2 > 0:
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        y = y + np.sqrt(sigma2 / 2.0) * w
    if not np.all(np.isfinite(y.view(float))):
        raise ValueError("received frame contains non-finite entries")
    return y

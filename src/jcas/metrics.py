"""Evaluation metrics and analytical bounds.

mse: per-voxel mean squared error of a scene estimate.
cs_bound: parametric compressed-sensing accuracy bound, decreasing in the
    measurement budget (users x antennas x window) for p < 2.
ser_union_bound: Monte Carlo union bound on the joint-ML decoding error,
    averaging the pairwise error probability over sampled channels.
operating_point: pick the user count minimizing a weighted MSE/SER cost.
"""

from dataclasses import dataclass

import numpy as np

from .scma import Codebook, _combo_digits

__all__ = [
    "mse",
    "BoundParams",
    "cs_bound",
    "ser_union_bound",
    "operating_point",
]

# ser_union_bound's pair budget: more pairs than this are subsampled, so the
# (P, R, N_u) difference array stays small
_MAX_PAIR_TERMS = 1_000_000


def mse(x_hat, x) -> float:
    """Per-element mean squared error (1/N)*||x_hat - x||^2."""
    a = np.asarray(x_hat, dtype=float).ravel()
    b = np.asarray(x, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("empty inputs")
    return float(np.mean((a - b) ** 2))


@dataclass(frozen=True)
class BoundParams:
    """Parameters of the compressed-sensing accuracy bound.

    The scene is assumed p-compressible: ||x||_p <= r_p with 0 < p < 2.
    c is a reported constant, never fitted.
    """

    c: float
    r_p: float
    p: float
    n_users: int
    n_antennas: int
    n_window: int
    n_voxels: int

    def __post_init__(self):
        if self.c <= 0 or self.r_p <= 0:
            raise ValueError("c and r_p must be positive")
        if not 0 < self.p < 2:
            raise ValueError(f"compressibility exponent must lie in (0, 2), got {self.p}")
        if min(self.n_users, self.n_antennas, self.n_window) < 1:
            raise ValueError("all counts must be >= 1")
        if self.n_voxels < 2:
            raise ValueError("need at least 2 voxels (log N_s > 0)")


def cs_bound(bp: BoundParams) -> float:
    """c * r_p * (N_u*N_R*n_f / log N_s)^(1/2 - 1/p).

    The exponent is negative for p < 2, so more users, antennas or window
    packets tighten the bound.
    """
    ratio = bp.n_users * bp.n_antennas * bp.n_window / np.log(bp.n_voxels)
    return float(bp.c * bp.r_p * ratio ** (0.5 - 1.0 / bp.p))


def _q(x):
    """Gaussian tail function Q(x) = P(N(0,1) > x)."""
    from scipy.special import ndtr  # slow to import; the loop never gets here

    return ndtr(-x)


def ser_union_bound(
    cb: Codebook,
    channel_sampler,
    sigma2: float,
    samples: int = 200,
    d_interference: float = 0.0,
    seed: int = 0,
) -> float:
    """Union bound on the joint-ML decoding error rate, Monte Carlo over channels.

    channel_sampler(rng) must return one channel draw H of shape
    (R, N_u, N_R). For each ordered pair of distinct joint codeword
    combinations (s_a, s_b) the pairwise error probability is
    Q(sqrt(||H(s_a - s_b)||^2 / (2*(sigma2 + d_interference)))), the exact
    ML pair error under E|w|^2 = sigma2 complex noise plus a Gaussian
    channel-mismatch interference of variance d_interference; the bound is
    the pair sum averaged over combinations and channel draws.

    The M^N_u combinations are those of each user picking among its own M
    codewords. When the pair count exceeds _MAX_PAIR_TERMS (a 6-user, M=4
    book has about 1.7e7 pairs), pairs are subsampled uniformly without
    replacement and the sum is rescaled.
    """
    if samples < 100:
        raise ValueError("sample budget too small (< 100)")
    if sigma2 + d_interference <= 0:
        return 0.0

    n_u, m, r = cb.n_users, cb.m, cb.n_ores
    n_combo = m**n_u
    n_pairs = n_combo * (n_combo - 1)
    if n_pairs > _MAX_PAIR_TERMS:
        rng_p = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        flat = rng_p.choice(n_pairs, size=_MAX_PAIR_TERMS, replace=False)
        a_idx, off = np.divmod(flat, n_combo - 1)
        b_idx = off + (off >= a_idx)  # skip the diagonal
        scale = n_pairs / _MAX_PAIR_TERMS
    else:
        a_idx, b_idx = np.divmod(np.arange(n_pairs), n_combo - 1)
        b_idx = b_idx + (b_idx >= a_idx)
        scale = 1.0

    da, db = _combo_digits(a_idx, m, n_u), _combo_digits(b_idx, m, n_u)
    # per-pair codeword difference, (P, R, N_u)
    diff = np.empty((len(a_idx), r, n_u), dtype=complex)
    for u, cm in enumerate(cb.matrices):
        diff[:, :, u] = cm[:, da[:, u]].T - cm[:, db[:, u]].T

    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    denom = 2.0 * (sigma2 + d_interference)
    total = 0.0
    for _ in range(samples):
        h = np.asarray(channel_sampler(rng))  # (R, N_u, N_R)
        if h.shape[:2] != (r, n_u):
            raise ValueError(f"channel sample shape {h.shape} inconsistent with codebook")
        # ||H (s_a - s_b)||^2 summed over OREs and antennas
        proj = np.einsum("pru,run->prn", diff, h)
        d2 = np.sum(np.abs(proj) ** 2, axis=(1, 2))
        total += np.sum(_q(np.sqrt(d2 / denom)))
    return float(scale * total / (samples * n_combo))


def operating_point(sweep, a1: float, a2: float) -> int:
    """User count minimizing a1*MSE + a2*SER over (n_users, mse, ser) triples.

    Ties break toward the smallest user count.
    """
    rows = list(sweep)
    if not rows:
        raise ValueError("empty sweep")
    if a1 < 0 or a2 < 0:
        raise ValueError("weights must be nonnegative")
    best = min(rows, key=lambda t: (a1 * t[1] + a2 * t[2], t[0]))
    return int(best[0])

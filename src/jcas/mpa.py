"""Multi-user SCMA decoding: iterative message passing plus the ML oracle.

Both decoders consume the received tensor y (N_T, R, N_R) and the per-ORE
channel h (R, N_u, N_R) and are vectorized over slots and antennas. AP
antennas decode independently; their final per-user beliefs are combined by
a product (log-domain sum) before the argmax.

MPA layout: the B = N_R*N_T (antenna, slot) pairs are independent copies of
the same message passing, so they form the last, contiguous axis of every
array, antenna-major (b = n*N_T + t). FN r's likelihood table is (M^L, B)
for its L users, the row index being their joint symbol in base M with the
first user of lambda_r most significant; every message is (M, B). Summing out one user is then one
einsum over a long contiguous axis, from the front ("mkb,mb->kb") or the
back ("kmb,mb->kb") of the table.

MPA schedule per round: for each FN, a prefix chain sums out the users from
the front and a suffix chain from the back, one table pass each; user i's
FN->VN message comes from the smaller of prefix[i] and suffix[i+1], with the
users still left in it summed out. Then every VN sends each of its FNs the
normalized product of its other FNs' messages. Messages start uniform.

sigma2 is the total complex noise variance (see transceiver) and must be
finite and >= 0. A sigma2 of zero is guarded by an absolute floor of 1e-300;
combined with the per-slot max-rescaling of the likelihood exponent this
degrades gracefully to hard nearest-combination decisions instead of
overflowing. Messages are floored at 1e-300 before each normalization.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .scma import Codebook, factor_graph

__all__ = ["DecodeResult", "ml_decode", "mpa_decode", "ser"]

_SIGMA_FLOOR = 1e-300
_TINY = 1e-300
_ML_GUARD_BITS = 24


@dataclass
class DecodeResult:
    """Per-slot decoded symbol indices and (for MPA) per-user posteriors."""

    indices: np.ndarray  # (N_T, N_u)
    posteriors: np.ndarray | None = field(default=None, repr=False)  # (N_T, N_u, M)


def _check_inputs(y, h, cb):
    y = np.asarray(y, dtype=complex)
    if y.ndim == 2:
        y = y[None, :, :]
    if y.ndim != 3 or y.shape[1] != cb.n_ores:
        raise ValueError(f"received tensor shape {y.shape} inconsistent with codebook")
    h = np.asarray(h, dtype=complex)
    if h.shape != (cb.n_ores, cb.n_users, y.shape[2]):
        raise ValueError(f"channel shape {h.shape} inconsistent with y {y.shape}")
    return y, h


def ml_decode(y, h, cb: Codebook) -> DecodeResult:
    """Exhaustive joint maximum-likelihood decoding over all M^N_u combinations.

    Ties break toward the smallest joint combination index (user 0 most
    significant digit, base M).
    """
    y, h = _check_inputs(y, h, cb)
    n_u, m = cb.n_users, cb.m
    if n_u * np.log2(m) > _ML_GUARD_BITS:
        raise ValueError(
            f"M^N_u = {m}^{n_u} too large to enumerate (guard: {_ML_GUARD_BITS} bits)"
        )
    n_combos = m**n_u
    cols = np.stack(cb.matrices)  # (N_u, R, M)
    n_t, r_n = y.shape[0], y.shape[1] * y.shape[2]
    y_flat = y.reshape(n_t, r_n)
    y_pow = np.sum(np.abs(y_flat) ** 2, axis=1)[:, None]

    best_d2 = np.full(n_t, np.inf)
    best_idx = np.zeros(n_t, dtype=np.int64)
    chunk = 1 << 16
    for start in range(0, n_combos, chunk):
        idx = np.arange(start, min(start + chunk, n_combos))
        # digits of the combo index, user 0 most significant
        digits = (idx[None, :] // (m ** np.arange(n_u - 1, -1, -1))[:, None]) % m
        # noiseless mean per (combo, r, n): sum_u h[r,u,n] * C_u(m_u, r)
        cw = cols[np.arange(n_u)[:, None], :, digits]  # (N_u, C, R)
        mean = np.einsum("ucr,run->crn", cw, h).reshape(len(idx), r_n)
        d2 = (
            y_pow
            - 2 * np.real(y_flat @ mean.conj().T)
            + np.sum(np.abs(mean) ** 2, axis=1)[None, :]
        )
        arg = np.argmin(d2, axis=1)
        val = d2[np.arange(n_t), arg]
        better = val < best_d2
        best_d2[better] = val[better]
        best_idx[better] = idx[arg[better]]

    digits = (
        best_idx[:, None] // (m ** np.arange(n_u - 1, -1, -1))[None, :]
    ) % m
    return DecodeResult(digits.astype(int))


def _contract_first(table, msg):
    """Sum the leading user axis of a (M^k, B) table against msg (M, B)."""
    m, b = msg.shape
    return np.einsum("mkb,mb->kb", table.reshape(m, -1, b), msg)


def _contract_last(table, msg):
    """Sum the trailing user axis of a (M^k, B) table against msg (M, B)."""
    m, b = msg.shape
    return np.einsum("kmb,mb->kb", table.reshape(-1, m, b), msg)


def _likelihood(y_r, mean, sigma_eff):
    """FN table exp(-(d2 - min d2) / sigma_eff) of shape (C, B), built in place.

    y_r is (N_R, N_T), mean (C, N_R); d2 = |y - mean|^2 per (combo, n, t) and
    the min runs over the combos of each (n, t), so the best row is exp(0) = 1.
    The in-place steps round exactly like the expression. mean must be
    C-ordered: numpy lays the difference out like its inputs, and a
    transposed mean would put B first in memory.
    """
    t = np.abs(y_r[None, :, :] - mean[:, :, None]).reshape(len(mean), -1)
    np.square(t, out=t)
    t -= t.min(axis=0)
    np.negative(t, out=t)
    np.divide(t, sigma_eff, out=t)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(t, out=t)
    return t


def _extrinsics(table, msgs):
    """Per-user sums of one FN's table weighted by the other users' messages.

    table is (M^L, B) with user 0 the most significant digit; msgs[i] is user
    i's (M, B) message. prefix[k] (users 0..k-1 summed out) and suffix[k]
    (users k..L-1 summed out) are built as two chains; user i reads the
    smaller of prefix[i] and suffix[i+1] and sums out the users left in it.
    """
    n = len(msgs)
    half = (n + 1) // 2  # users below half read the suffix chain
    ext = [None] * n
    t = table
    for k in range(n, 0, -1):  # t = suffix[k]
        if k < n:
            t = _contract_last(t, msgs[k])
        if k <= half:
            e = t
            for j in range(k - 1):
                e = _contract_first(e, msgs[j])
            ext[k - 1] = e
    t = table
    for k in range(1, n):  # t = prefix[k]
        t = _contract_first(t, msgs[k - 1])
        if k >= half:
            e = t
            for j in range(n - 1, k, -1):
                e = _contract_last(e, msgs[j])
            ext[k] = e
    return ext


def _normalized(p):
    """Floor p (M, B) at _TINY and normalize each column."""
    p = p + _TINY
    p /= p.sum(axis=0)
    return p


def mpa_decode(y, h, cb: Codebook, sigma2: float, k_it: int = 10) -> DecodeResult:
    """SCMA iterative message-passing decoding on the codeword-support factor graph.

    Messages start uniform at 1/M, then alternate FN->VN updates (likelihood
    marginalized over the other colliding users) and normalized extrinsic
    VN->FN updates for k_it rounds. Decisions are the per-user argmax of the
    product of incoming FN messages, combined across antennas.
    """
    if k_it < 1:
        raise ValueError("need at least one iteration")
    sigma2 = float(sigma2)
    if not np.isfinite(sigma2) or sigma2 < 0:
        raise ValueError(f"sigma2 must be finite and >= 0, got {sigma2}")
    y, h = _check_inputs(y, h, cb)
    graph = factor_graph(cb)
    n_t, _, n_r = y.shape
    b = n_t * n_r
    m = cb.m
    y_b = np.ascontiguousarray(y.transpose(1, 2, 0))  # (R, N_R, N_T)
    sigma_eff = max(sigma2, _SIGMA_FLOOR)

    # per-FN likelihood tables over the M^L joint symbol grid of its users
    lik = []
    for r, users in enumerate(graph.lambda_r):
        L = len(users)
        combos = m**L
        idx = np.arange(combos)
        digits = (idx[None, :] // (m ** np.arange(L - 1, -1, -1))[:, None]) % m
        cw = np.stack([cb.matrices[u][r, digits[i]] for i, u in enumerate(users)])
        mean = np.einsum("ic,in->cn", cw, h[r][list(users), :])
        lik.append(_likelihood(y_b[r], mean, sigma_eff))

    uniform = np.full((m, b), 1.0 / m)
    mu_vf = {(u, r): uniform for u in range(cb.n_users) for r in graph.omega_u[u]}
    mu_fv = {}
    for _ in range(k_it):
        # FN -> VN: marginalize the likelihood grid over the other users,
        # weighting by their incoming messages (prefix/suffix contractions)
        for r, users in enumerate(graph.lambda_r):
            ext = _extrinsics(lik[r], [mu_vf[(u, r)] for u in users])
            for u, e in zip(users, ext):
                mu_fv[(r, u)] = _normalized(e)
        # VN -> FN: extrinsic product over the user's other OREs, normalized
        for u in range(cb.n_users):
            ores = graph.omega_u[u]
            for r in ores:
                prod = np.ones((m, b))
                for j in ores:
                    if j != r:
                        prod = prod * mu_fv[(j, u)]
                mu_vf[(u, r)] = _normalized(prod)
    del lik, mu_vf

    # final beliefs: product over the user's OREs, antennas combined in log domain
    indices = np.zeros((n_t, cb.n_users), dtype=int)
    posts = np.zeros((n_t, cb.n_users, m))
    for u in range(cb.n_users):
        logb = np.zeros((m, b))
        for j in graph.omega_u[u]:
            logb += np.log(mu_fv[(j, u)] + _TINY)
        logb = logb.reshape(m, n_r, n_t).sum(axis=1).T
        logb -= logb.max(axis=1, keepdims=True)
        p = np.exp(logb)
        p /= p.sum(axis=1, keepdims=True)
        posts[:, u, :] = p
        indices[:, u] = np.argmax(p, axis=1)
    return DecodeResult(indices, posts)


def ser(decoded, truth) -> float:
    """Fraction of (slot, user) symbol positions that differ."""
    a = np.asarray(decoded)
    t = np.asarray(truth)
    if a.shape != t.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {t.shape}")
    if a.size == 0:
        raise ValueError("empty inputs")
    return float(np.mean(a != t))

"""Multi-user SCMA decoding: iterative message passing plus the ML oracle.

Both decoders consume the received tensor y (N_T, R, N_R) and the per-ORE
channel h (R, N_u, N_R) and are vectorized over slots and antennas. AP
antennas decode independently; their final per-user beliefs are combined by
a product (log-domain sum) before the argmax.

MPA layout: the B = N_R*N_T (antenna, slot) pairs are independent copies of
the same message passing, so they form the last, contiguous axis of every
array, antenna-major (b = n*N_T + t). FN r's likelihood table is (M^L, B)
for its L users, the row index being their joint symbol in base M with the
first user of lambda_r most significant; every message is (M, B). Viewed as
(M^k, M^(L-k), B), a table sums its back L-k users out against their joint
message, the Kronecker product of their messages, in one einsum over the
long contiguous axis ("acb,cb->ab"), and its front k users likewise
("acb,ab->cb").

MPA schedule per round: for each FN, the users split into a front k = L // 2
and a back; one pass over the table sums the back out and one the front,
and each half recurses on its smaller table until one user is left, whose
table is its FN->VN message. Then every VN sends each of its FNs the
normalized product of its other FNs' messages, except in the last round,
whose VN->FN messages nothing reads. Messages start uniform.

sigma2 is the total complex noise variance (see transceiver) and must be
finite and >= 0. A sigma2 of zero is guarded by an absolute floor of 1e-300;
combined with the per-slot max-rescaling of the likelihood exponent this
degrades gracefully to hard nearest-combination decisions instead of
overflowing. Messages are floored at 1e-300 before each normalization.
"""

from dataclasses import dataclass, field

import numpy as np

from .scma import Codebook, _combo_digits, factor_graph

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
        digits = _combo_digits(idx, m, n_u).T
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

    return DecodeResult(_combo_digits(best_idx, m, n_u).astype(int))


def _likelihood(y_r, mean, sigma_eff):
    """FN table exp(-(d2 - min d2) / sigma_eff) of shape (C, B), built in place.

    y_r is (N_R, N_T), mean (C, N_R); d2 = |y - mean|^2 per (combo, n, t) and
    the min runs over the combos of each (n, t), so the best row is exp(0) = 1.
    d2 = |mean|^2 - 2 Re(conj(mean) y) + |y|^2, and the min takes out |y|^2,
    the same for every combo of a column, so the rest is one real product
    a @ bm: a holds [Re mean | Im mean | |mean|^2] per combo, and bm holds,
    per antenna n, -2 Re y[n] and -2 Im y[n] in n's columns and an indicator
    of n's columns. The division comes after the min is taken out, so a
    floored sigma_eff scales exact differences, not raw distances.
    """
    n_r, n_t = y_r.shape
    a = np.concatenate([mean.real, mean.imag, np.abs(mean) ** 2], axis=1)
    bm = np.zeros((3, n_r, n_r, n_t))
    ant = np.arange(n_r)
    bm[0, ant, ant] = -2 * y_r.real
    bm[1, ant, ant] = -2 * y_r.imag
    bm[2, ant, ant] = 1.0
    t = a @ bm.reshape(3 * n_r, -1)
    np.subtract(t.min(axis=0), t, out=t)
    np.divide(t, sigma_eff, out=t)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(t, out=t)
    return t


def _joint(msgs):
    """Kronecker product (M^k, B) of k messages (M, B), the first most significant."""
    j = msgs[0]
    for msg in msgs[1:]:
        j = (j[:, None, :] * msg[None, :, :]).reshape(-1, j.shape[1])
    return j


def _extrinsics(table, msgs):
    """Per-user sums of one FN's table weighted by the other users' messages.

    table is (M^L, B) with user 0 the most significant digit; msgs[i] is user
    i's (M, B) message. The users split into a front k = L // 2 and a back:
    one pass sums the back out against their joint message, one the front,
    and each half recurses on its (M^k, B) or (M^(L-k), B) table.
    """
    n = len(msgs)
    if n == 1:
        return [table]
    k = n // 2
    m, b = msgs[0].shape
    t3 = table.reshape(m**k, -1, b)
    front = np.einsum("acb,cb->ab", t3, _joint(msgs[k:]))
    back = np.einsum("acb,ab->cb", t3, _joint(msgs[:k]))
    return _extrinsics(front, msgs[:k]) + _extrinsics(back, msgs[k:])


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
    for r, (users, cw) in enumerate(zip(graph.lambda_r, cb._fn_codewords)):
        mean = np.einsum("ic,in->cn", cw, h[r][list(users), :])
        lik.append(_likelihood(y_b[r], mean, sigma_eff))

    uniform = np.full((m, b), 1.0 / m)
    mu_vf = {(u, r): uniform for u in range(cb.n_users) for r in graph.omega_u[u]}
    mu_fv = {}
    for it in range(k_it):
        # FN -> VN: marginalize the likelihood grid over the other users,
        # weighting by their incoming messages (half splits, see _extrinsics)
        for r, users in enumerate(graph.lambda_r):
            ext = _extrinsics(lik[r], [mu_vf[(u, r)] for u in users])
            for u, e in zip(users, ext):
                mu_fv[(r, u)] = _normalized(e)
        if it + 1 == k_it:
            break  # the final beliefs read only the FN -> VN messages
        # VN -> FN: extrinsic product over the user's other OREs, normalized;
        # the product starts from the first other message (1.0 * x == x)
        for u in range(cb.n_users):
            ores = graph.omega_u[u]
            for r in ores:
                others = [mu_fv[(j, u)] for j in ores if j != r]
                prod = others[0] if others else np.ones((m, b))
                for msg in others[1:]:
                    prod = prod * msg
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

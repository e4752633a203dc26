"""Multi-user SCMA decoding: iterative message passing plus the ML oracle.

Both decoders consume the received tensor y (N_T, R, N_R) and the per-ORE
channel h (R, N_u, N_R) and are vectorized over slots and antennas. AP
antennas decode independently; their final per-user beliefs are combined by
a product (log-domain sum) before the argmax.

MPA layout: the B = N_R*N_T (antenna, slot) pairs are independent copies of
the same message passing, so they form the last, contiguous axis of every
array, antenna-major (b = n*N_T + t). Messages live on the factor graph's E
(FN, user) edges, numbered FN-major (FN r's users in lambda_r order): mu_vf
and mu_fv are (E, M, B) arrays, one (M, B) message per edge. The FNs are
grouped by degree L (a balanced book has at most two), and a group of G FNs
keeps its likelihood tables in one (G, M^L, B) array, the row index being
the FN's users' joint symbol in base M with the first user of lambda_r most
significant. The edge tables, degree groups and codeword grids are computed
once per book (Codebook._edges).

MPA schedule per round: the users of each FN split into a front k = L // 2
and a back. Viewed as (G, M^k, M^(L-k), B), a group's tables sum their back
users out against their joint message, the Kronecker product of their
messages, in one einsum batched over the group ("gacb,gcb->gab"), and their
front users FN by FN ("acb,ab->cb"). Each half recurses on its smaller
tables until one user is left, whose table is its FN->VN message; these are
scattered into mu_fv through the group's (G, L) edge table, and all of mu_fv
is floored and normalized at once. The second pass stays per FN because
batching it costs more than the calls it saves: on a (5, 64, 64, 128) group
(20 users on 7 OREs, M = 4) the batched einsum took 2.09 ms against 1.50 ms
for five per-FN calls, and batching every pass made such decodes 10-30%
slower; on small tables the two forms cost the same. Then every VN sends
each of its FNs the normalized product of its other FNs' messages, gathered
through an (E, d_v - 1) table of each edge's other edges and multiplied in
omega_u order, except in the last round, whose VN->FN messages nothing
reads. Messages start uniform. Each message is computed with the operations,
in the order, of a loop over single edges.

A decode whose largest degree group holds at least _THREAD_ENTRIES table
entries (G * M^L * B; the 20-user, 7-ORE book at 4 antennas x 32 slots holds
2,621,440) overlaps its big passes on one helper thread, opened and joined
within the call: the helper builds the first half of each group's tables
while the caller builds the rest, and in each round it runs the top level's
batched pass while the caller runs the per-FN passes. einsum and BLAS release
the interpreter lock, so the two run on two cores; a second BLAS thread is
not used. Every call keeps its operands and output buffer, and each thread
writes only its own arrays, so posteriors and decisions are byte-identical to
a single-thread decode. Smaller decodes run on the calling thread alone,
where the handoffs cost more than the overlap saves.

sigma2 is the total complex noise variance (see transceiver) and must be
finite and >= 0. A sigma2 of zero is guarded by an absolute floor of 1e-300;
combined with the per-slot max-rescaling of the likelihood exponent this
degrades gracefully to hard nearest-combination decisions instead of
overflowing. Messages are floored at 1e-300 before each normalization.
"""

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .scma import Codebook, _combo_digits

__all__ = ["DecodeResult", "ml_decode", "mpa_decode", "ser"]

_SIGMA_FLOOR = 1e-300
_TINY = 1e-300
_ML_GUARD_BITS = 24
# A decode whose largest degree group holds at least this many table entries
# (G * M^L * B, 4 MiB of float64) runs half of its table builds and each
# round's batched front pass on a helper thread. Measured crossover (one BLAS
# thread, 2-core VM, median ms per synthetic decode, one thread -> helper):
# 262,144 entries 10.3 -> 10.6 (6 users on 4 OREs, 16 antennas x 64 slots)
# and 11.1 -> 11.8 (15 users on 7 OREs, 4 x 32); 655,360 entries 28.3 -> 24.9,
# 1,310,720 entries 53.8 -> 31.4 and 2,621,440 entries 81.1 -> 56.2 (20 users
# on 7 OREs at 4 x 8, 2 x 32 and 4 x 32).
_THREAD_ENTRIES = 1 << 19


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
        cw = cb.matrices[np.arange(n_u)[:, None], :, digits]  # (N_u, C, R)
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


def _likelihood(y_r, mean, sigma_eff, out):
    """FN table exp(-(d2 - min d2) / sigma_eff) of shape (C, B), built in out.

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
    t = np.matmul(a, bm.reshape(3 * n_r, -1), out=out)
    np.subtract(t.min(axis=0), t, out=t)
    np.divide(t, sigma_eff, out=t)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(t, out=t)


def _joint(msgs):
    """Kronecker products (G, M^k, B) of messages (G, k, M, B), the first most significant."""
    j = msgs[:, 0]
    for i in range(1, msgs.shape[1]):
        j = (j[:, :, None, :] * msgs[:, i, None, :, :]).reshape(j.shape[0], -1, j.shape[2])
    return j


def _start(pool, fn, *args):
    """Start fn(*args) on pool's helper thread, or run it at once when pool is
    None; returns a function that waits for the result and returns it."""
    if pool is None:
        out = fn(*args)
        return lambda: out
    return pool.submit(fn, *args).result


def _extrinsics(tables, msgs, pool=None):
    """Per-user sums of a degree group's tables weighted by the other users' messages.

    tables is (G, M^L, B), one FN per row, with user 0 the most significant
    digit; msgs[:, i] is user i's (G, M, B) message. The users split into a
    front k = L // 2 and a back: one pass sums the back out against their
    joint message, batched over the group, one the front, FN by FN, and each
    half recurses on its (G, M^k, B) or (G, M^(L-k), B) tables. With a pool,
    the top level's batched pass runs on its helper thread while the caller
    runs the per-FN passes. Returns the L users' (G, M, B) sums.
    """
    g, n, m, b = msgs.shape
    if n == 1:
        return [tables]
    k = n // 2
    t3 = tables.reshape(g, m**k, -1, b)
    front = _start(pool, np.einsum, "gacb,gcb->gab", t3, _joint(msgs[:, k:]))
    ja = _joint(msgs[:, :k])
    back = np.empty((g, t3.shape[2], b))
    for i in range(g):
        np.einsum("acb,ab->cb", t3[i], ja[i], out=back[i])
    return _extrinsics(front(), msgs[:, :k]) + _extrinsics(back, msgs[:, k:])


def _normalize(p):
    """Floor messages p (E, M, B) at _TINY and normalize each column, in place."""
    p += _TINY
    p /= p.sum(axis=1, keepdims=True)
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
    edges = cb._edges
    lam = cb.graph.lambda_r
    n_t, _, n_r = y.shape
    n_e = edges.user_edges.size
    b = n_t * n_r
    m = cb.m
    y_b = np.ascontiguousarray(y.transpose(1, 2, 0))  # (R, N_R, N_T)
    sigma_eff = max(sigma2, _SIGMA_FLOOR)

    def build(t, fns, cw, rows):
        for i in rows:
            r = fns[i]
            mean = np.einsum("ic,in->cn", cw[i], h[r][list(lam[r]), :])
            _likelihood(y_b[r], mean, sigma_eff, t[i])

    threaded = b * max(len(fns) * cw.shape[2] for fns, _, cw in edges.groups) >= _THREAD_ENTRIES
    if threaded:
        # imported here: it adds about 5% to the import time of jcas
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1) if threaded else nullcontext() as pool:
        # per degree group, the FNs' likelihood tables over their users' M^L
        # joint symbol grids, built one FN at a time, the first half on the helper
        tables = []
        for fns, _, cw in edges.groups:
            t = np.empty((len(fns), cw.shape[2], b))
            half = len(fns) // 2
            first = _start(pool, build, t, fns, cw, range(half))
            build(t, fns, cw, range(half, len(fns)))
            first()
            tables.append(t)

        mu_vf = np.full((n_e, m, b), 1.0 / m)
        mu_fv = np.empty((n_e, m, b))
        for it in range(k_it):
            # FN -> VN: marginalize the likelihood grid over the other users,
            # weighting by their incoming messages (half splits, see _extrinsics)
            for t, (_, idx, _) in zip(tables, edges.groups):
                for i, ext in enumerate(_extrinsics(t, mu_vf[idx], pool)):
                    mu_fv[idx[:, i]] = ext
            _normalize(mu_fv)
            if it + 1 == k_it:
                break  # the final beliefs read only the FN -> VN messages
            # VN -> FN: extrinsic product over the user's other OREs in omega_u
            # order, normalized; at d_v = 1 the product is empty, all ones
            mu_vf = _normalize(mu_fv[edges.others].prod(axis=1))
    del tables, mu_vf

    # final beliefs: product over the user's OREs, antennas combined in log domain
    logb = np.log(mu_fv[edges.user_edges] + _TINY).sum(axis=1)  # (N_u, M, B)
    logb = logb.reshape(cb.n_users, m, n_r, n_t).sum(axis=2)  # (N_u, M, N_T)
    logb -= logb.max(axis=1, keepdims=True)
    p = np.exp(logb)
    p /= p.sum(axis=1, keepdims=True)
    posts = np.ascontiguousarray(p.transpose(2, 0, 1))  # (N_T, N_u, M)
    return DecodeResult(np.argmax(posts, axis=2), posts)


def ser(decoded, truth) -> float:
    """Fraction of (slot, user) symbol positions that differ."""
    a = np.asarray(decoded)
    t = np.asarray(truth)
    if a.shape != t.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {t.shape}")
    if a.size == 0:
        raise ValueError("empty inputs")
    return float(np.mean(a != t))

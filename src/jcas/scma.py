"""SCMA codebooks and the decoder factor graph.

Each user owns an R x M matrix of sparse codewords: all M columns share the
same d_v nonzero rows (the user's OREs). Codebook *design* is treated as
data: the default book is generated from phase-rotated QPSK symbols, and
arbitrary books can be loaded from file. A Codebook is checked when it is
built, and carries the factor graph of its supports from then on.
"""

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Codebook",
    "FactorGraph",
    "CodebookError",
    "build_codebook",
    "default_codebook",
    "factor_graph",
    "save_codebook",
    "load_codebook",
]


class CodebookError(ValueError):
    """A structural codebook invariant is violated."""


@dataclass(frozen=True)
class FactorGraph:
    """FN/VN adjacency: lambda_r[r] = users on ORE r, omega_u[u] = user u's OREs."""

    lambda_r: tuple
    omega_u: tuple


@dataclass(frozen=True)
class _EdgeTables:
    """Index tables of a book's factor-graph edges and its FNs' codeword grids.

    Edge e is one (FN r, user u) pair, numbered FN-major: FN r's users in
    lambda_r order, so there are E = sum_r L_r = d_v * N_u edges. groups holds
    one (fns, edges, codewords) per FN degree L, in order of first appearance:
    fns (G,) the FNs of degree L, edges (G, L) their edges, and codewords
    (G, L, M^L) what each FN's users send on it over their joint symbol grid
    (user 0 the most significant digit). others (E, d_v - 1) lists, for edge
    (r, u), u's edges to its other FNs in omega_u order; user_edges (N_u, d_v)
    lists all of u's edges in omega_u order. Every array is read-only.
    """

    groups: tuple
    others: np.ndarray
    user_edges: np.ndarray


@dataclass(frozen=True, eq=False)
class Codebook:
    """Per-user sparse codeword matrices.

    matrices is the (N_u, R, M) complex array of the book: matrices[u] is
    user u's (R, M) codeword matrix. max_d_f is the largest per-ORE user
    count (the common d_f of a regular book, where d_f * R = d_v * N_u).

    A book is immutable and valid from construction: matrices is a read-only
    copy of the inputs, and CodebookError is raised unless every entry and
    codeword energy is finite, M >= 2, each user's codewords are all nonzero
    on the same d_v >= 1 rows (its support), d_v is common to all users, and
    the ORE loads are balanced (all d_f, or within one of d_v * N_u / R).
    graph is the FactorGraph of the supports.
    """

    matrices: np.ndarray = field(repr=False)
    graph: FactorGraph = field(init=False, repr=False)

    def __post_init__(self):
        mats = [np.asarray(m, dtype=complex) for m in self.matrices]
        if not mats:
            raise CodebookError("codebook needs at least one user")
        shape = mats[0].shape
        if len(shape) != 2:
            raise CodebookError("codeword matrices must be 2-D (R x M)")
        for u, m in enumerate(mats):
            if m.shape != shape:
                raise CodebookError(f"user {u}: codeword matrix shape {m.shape} != {shape}")
        mats = np.stack(mats)
        bad = np.argwhere(~np.isfinite(mats))
        if bad.size:
            u, r, c = bad[0]
            raise CodebookError(f"user {u} codeword {c}: entry {mats[u, r, c]} is not finite")
        with np.errstate(over="ignore"):
            energy = np.sum(np.abs(mats) ** 2, axis=1)  # (N_u, M)
        bad = np.argwhere(~np.isfinite(energy))
        if bad.size:  # noise_sigma scales the noise by their mean
            u, c = bad[0]
            raise CodebookError(f"user {u} codeword {c}: energy {energy[u, c]} is not finite")
        mats.flags.writeable = False
        object.__setattr__(self, "matrices", mats)
        n_ores, n_cw = shape
        if n_cw < 2:
            raise CodebookError(f"need M >= 2 codewords per user, got {n_cw}")
        omega = []
        for u, mat in enumerate(mats):
            nz = mat != 0
            sup = tuple(np.flatnonzero(nz.any(axis=1)).tolist())
            d_v = len(omega[0]) if omega else len(sup)
            if d_v < 1:
                raise CodebookError("user 0: codewords have no nonzero rows")
            if len(sup) != d_v:
                raise CodebookError(f"user {u}: support size {len(sup)} != d_v {d_v}")
            short = np.flatnonzero(~nz[list(sup)].all(axis=0))  # codewords missing a row
            if short.size:
                m = int(short[0])
                rows = tuple(np.flatnonzero(nz[:, m]).tolist())
                raise CodebookError(
                    f"user {u} codeword {m}: nonzero rows {rows} "
                    f"do not match the user support {sup}"
                )
            omega.append(sup)
        lam = tuple(tuple(u for u, sup in enumerate(omega) if r in sup) for r in range(n_ores))
        lo, rem = divmod(d_v * len(mats), n_ores)
        for r, users in enumerate(lam):
            if not rem and len(users) != lo:
                raise CodebookError(f"ORE {r}: used by {len(users)} users, expected d_f = {lo}")
            if rem and len(users) not in (lo, lo + 1):
                raise CodebookError(
                    f"ORE {r}: load {len(users)} outside balanced range [{lo}, {lo + 1}]"
                )
        object.__setattr__(self, "graph", FactorGraph(lam, tuple(omega)))

    def __reduce__(self):
        # rebuilt through the constructor: an unpickled array is writeable
        return Codebook, (self.matrices,)

    @property
    def n_users(self):
        return len(self.matrices)

    @property
    def n_ores(self):
        return self.matrices.shape[1]

    @property
    def m(self):
        """Codewords per user."""
        return self.matrices.shape[2]

    @property
    def d_v(self):
        return len(self.graph.omega_u[0])

    @property
    def max_d_f(self):
        return max(len(users) for users in self.graph.lambda_r)

    @cached_property
    def _edges(self) -> _EdgeTables:
        """The MPA's index tables and codeword grids of this book (see _EdgeTables)."""
        lam, omega = self.graph.lambda_r, self.graph.omega_u
        edge = {}  # (r, u) -> edge index, FN-major
        for r, users in enumerate(lam):
            for u in users:
                edge[(r, u)] = len(edge)
        others = np.array(
            [[edge[(j, u)] for j in omega[u] if j != r] for r, u in edge], dtype=np.intp
        ).reshape(len(edge), self.d_v - 1)
        user_edges = np.array([[edge[(r, u)] for r in omega[u]] for u in range(self.n_users)])
        groups = []
        for deg in dict.fromkeys(len(users) for users in lam):
            fns = np.array([r for r, users in enumerate(lam) if len(users) == deg])
            digits = _combo_digits(np.arange(self.m**deg), self.m, deg)
            idx = np.array([[edge[(r, u)] for u in lam[r]] for r in fns])
            cw = np.array(
                [[self.matrices[u][r, digits[:, i]] for i, u in enumerate(lam[r])] for r in fns]
            )
            groups.append((fns, idx, cw))
        for arr in (others, user_edges, *(a for grp in groups for a in grp)):
            arr.flags.writeable = False
        return _EdgeTables(tuple(groups), others, user_edges)


def _combo_digits(idx, m, n):
    """Per-user symbols (..., n) of joint combination indices idx: their n
    base-m digits, user 0's the most significant."""
    return (np.asarray(idx)[..., None] // m ** np.arange(n - 1, -1, -1)) % m


def _balanced_supports(n_users, n_ores, d_v):
    """Pick one ORE subset of size d_v per user, keeping per-ORE loads balanced.

    Deterministic greedy: each user takes the support with the lowest
    resulting peak load, then the least used one, then the one on the least
    loaded OREs, then the first in lexicographic order. Each step is one
    pass over the (C, d_v) array of all supports.
    """
    combos = list(itertools.combinations(range(n_ores), d_v))
    members = np.array(combos, dtype=np.intp)
    index = np.arange(len(combos))
    loads = np.zeros(n_ores, dtype=np.int64)
    used = np.zeros(len(combos), dtype=np.int64)
    supports = []
    for _ in range(n_users):
        on = loads[members]
        top = loads.max()
        # adding a support raises the peak exactly when it holds a peak ORE
        peak = top + (on == top).any(axis=1)
        best = np.lexsort((index, on.sum(axis=1), used, peak))[0]
        supports.append(combos[best])
        used[best] += 1
        loads[members[best]] += 1
    return supports


def build_codebook(n_users, n_ores, m=4, d_v=2) -> Codebook:
    """Generate a phase-rotation codebook with balanced ORE loads.

    Codeword m of user u carries QPSK-like symbols exp(+-j*2*pi*m/M) on its
    d_v OREs (sign alternating per dimension for diversity), rotated per
    (user, ORE) so the users colliding on an ORE are distinguishable, and
    scaled to unit average codeword energy.
    """
    if d_v > n_ores:
        raise CodebookError("d_v cannot exceed the number of OREs")
    if m < 2:  # before the phases below divide by m
        raise CodebookError(f"need M >= 2 codewords per user, got {m}")
    supports = _balanced_supports(n_users, n_ores, d_v)
    lam = [[u for u, sup in enumerate(supports) if r in sup] for r in range(n_ores)]
    mats = np.zeros((n_users, n_ores, m), dtype=complex)
    amp = 1.0 / np.sqrt(d_v)
    ms = np.arange(m)
    for u, sup in enumerate(supports):
        for t, r in enumerate(sup):
            sign = 1 if t % 2 == 0 else -1
            # the user's rotation slot is its place among the users of ORE r
            rot = lam[r].index(u) * 2 * np.pi / (m * len(lam[r]))
            mats[u, r] = amp * np.exp(1j * (sign * 2 * np.pi * ms / m + rot))
    return Codebook(mats)


def default_codebook() -> Codebook:
    """The bundled 6-user, 4-ORE, M=4, d_v=2 book (overloading factor 150%)."""
    return build_codebook(6, 4, m=4, d_v=2)


def factor_graph(cb: Codebook) -> FactorGraph:
    """FN/VN adjacency induced by the codeword supports: the graph the book
    built when it was constructed."""
    return cb.graph


def _fmt_complex(z):
    return "%.17g%+.17gj" % (z.real, z.imag)


def save_codebook(path, cb: Codebook):
    with open(path, "w") as f:
        f.write(f"scma {cb.n_users} {cb.n_ores} {cb.m} {cb.d_v}\n")
        for u in range(cb.n_users):
            for m in range(cb.m):
                f.write(" ".join(_fmt_complex(z) for z in cb.matrices[u][:, m]))
                f.write("\n")


def load_codebook(path) -> Codebook:
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines:
        raise CodebookError(f"{path}: empty codebook file")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "scma":
        raise CodebookError(f"{path}: malformed header: {lines[0]!r}")
    try:
        n_u, r, m, d_v = (int(x) for x in head[1:])
    except ValueError:
        raise CodebookError(f"{path}: malformed header: {lines[0]!r}") from None
    if min(n_u, r, m, d_v) < 1:
        raise CodebookError(f"{path}: header counts must be >= 1: {lines[0]!r}")
    if len(lines) != 1 + n_u * m:
        raise CodebookError(
            f"{path}: expected {n_u * m} codeword lines, got {len(lines) - 1}"
        )
    mats = np.zeros((n_u, r, m), dtype=complex)
    for i, line in enumerate(lines[1:]):
        u, mi = divmod(i, m)
        parts = line.split()
        if len(parts) != r:
            raise CodebookError(f"{path}: user {u} codeword {mi}: expected {r} entries")
        try:
            mats[u, :, mi] = [complex(p) for p in parts]
        except ValueError:
            raise CodebookError(
                f"{path}: user {u} codeword {mi}: malformed entry in {line!r}"
            ) from None
    try:
        cb = Codebook(mats)
    except CodebookError as exc:
        raise CodebookError(f"{path}: {exc}") from None
    if cb.d_v != d_v:
        raise CodebookError(f"{path}: header d_v {d_v} != actual {cb.d_v}")
    return cb

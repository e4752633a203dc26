"""From received frames and decoded symbols to environment estimates.

Per packet: least-squares channel estimation over the time dimension, exact
subtraction of the known LOS and direct-IRS parts, then stacking the
windowed scatter rows into one compressed-sensing system solved by GAMP,
whose noise variance is the window's mean estimate variance; the prior is
passed through as given.
Momentum toward the previous image is the closed loop's policy and lives in
JointRunner.forward_step.

A PacketRecord carries its packet's PacketChannel, which holds the static
channel part and the scatter operator of the packet's IRS pattern. Each of
the record's two caches is keyed on what it depends on. The estimate is a
function of the frame, the symbols and the book: the record keeps it with
a copy of the symbols it was computed from and recomputes it when
symbol_indices differs from them in content, so a re-decode to the same
symbols (self-iteration, feedback) keeps it and an in-place edit cannot
serve a stale one. The lifted (Re, Im) measurement rows depend only on the
PacketChannel and the stacking pairs of an ore_mode, so the record keeps
one set per ore_mode, built on first use from that mode's pairs, for as
long as it stays in the window. A record is sensed against one codebook:
no cache is keyed on it. sense takes any sequence of records; the closed
loop keeps its window in a bounded deque.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import PacketChannel
from .gamp import PriorParams, gamp_solve
from .scma import Codebook, factor_graph
from .transceiver import codeword_tensor

__all__ = [
    "EstimatedChannel",
    "PacketRecord",
    "estimate_channel",
    "sense",
]

# relative ridge on ill-conditioned symbol matrices; it biases an estimate by
# up to _RIDGE_REL * cond(S^H S) relative, and an ORE whose bias bound
# exceeds _RIDGE_BIAS_LIMIT is flagged unobserved
_RIDGE_REL = 1e-6
_RIDGE_BIAS_LIMIT = 1e-2


@dataclass
class EstimatedChannel:
    """Per-ORE channel estimates with an observability mask.

    Only users transmitting on an ORE are identifiable there; h entries for
    unobserved (r, user) pairs are zero and masked out.
    """

    h: np.ndarray = field(repr=False)  # (R, N_u, N_R)
    observed: np.ndarray = field(repr=False)  # (R, N_u) bool
    noise_var: float = 0.0  # mean per-coefficient estimate variance (complex)


def estimate_channel(y, symbol_indices, cb: Codebook) -> EstimatedChannel:
    """Least-squares per (ORE, antenna) channel estimation from known/decoded symbols.

    For ORE r, solves min ||y_r - S_r h||^2 over the d_f users sharing r,
    with a small ridge (_RIDGE_REL * trace(S^H S)/d_f) for ill-conditioned
    symbol matrices. The ridge biases the estimate by up to
    _RIDGE_REL * cond(S^H S) relative; OREs where that bound exceeds 1e-2
    (rank-deficient or nearly so) are flagged unobserved. Needs N_T >= d_f
    slots per ORE.
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim != 3 or y.shape[1] != cb.n_ores:
        raise ValueError(f"received tensor shape {y.shape} inconsistent with codebook")
    n_t, _, n_r = y.shape
    graph = factor_graph(cb)
    e = codeword_tensor(symbol_indices, cb)  # (N_T, R, N_u)

    h = np.zeros((cb.n_ores, cb.n_users, n_r), dtype=complex)
    observed = np.zeros((cb.n_ores, cb.n_users), dtype=bool)
    var_terms = []
    for r, users in enumerate(graph.lambda_r):
        users = list(users)
        if n_t < len(users):
            raise ValueError(
                f"ORE {r}: need N_T >= d_f ({len(users)}) slots for identifiability"
            )
        s = e[:, r, users]  # (N_T, L)
        gram = s.conj().T @ s
        if _RIDGE_REL * np.linalg.cond(gram) > _RIDGE_BIAS_LIMIT:
            continue  # flagged: left unobserved, excluded from stacking
        tau = _RIDGE_REL * np.real(np.trace(gram)) / len(users)
        reg = gram + tau * np.eye(len(users))
        reg_inv = np.linalg.inv(reg)
        h_sub = reg_inv @ (s.conj().T @ y[:, r, :])  # (L, N_R)
        h[r, users, :] = h_sub
        observed[r, users] = True
        resid = y[:, r, :] - s @ h_sub
        dof = max(n_t - len(users), 1)
        noise_est = np.sum(np.abs(resid) ** 2) / (dof * n_r)
        var_terms.append(noise_est * np.real(np.trace(reg_inv)) / len(users))
    noise_var = float(np.mean(var_terms)) if var_terms else 0.0
    return EstimatedChannel(h, observed, noise_var)


def _stacking_pairs(cb: Codebook, ore_mode):
    """(ORE, user) index arrays of ore_mode's stacking pairs, user by user,
    each user's OREs in omega_u order."""
    if ore_mode not in ("user_first", "all_ores"):
        raise ValueError(f"unknown ore_mode {ore_mode!r}")
    pairs = [
        (r, nu)
        for nu, ores in enumerate(factor_graph(cb).omega_u)
        for r in (ores[:1] if ore_mode == "user_first" else ores)
    ]
    return np.array(pairs).T


@dataclass
class PacketRecord:
    """One packet's worth of sensing inputs kept in the sliding window, with
    the estimate of its current decode and its lifted measurement rows."""

    y: np.ndarray = field(repr=False)  # (N_T, R, N_R)
    symbol_indices: np.ndarray = field(repr=False)  # (N_T, N_u), current decode
    channel: PacketChannel = None
    # (copy of the symbols it was computed from, EstimatedChannel)
    _est: tuple | None = field(default=None, init=False, repr=False)
    # ore_mode -> lifted measurement rows of its pairs (see lifted_rows)
    _rows: dict = field(default_factory=dict, init=False, repr=False)

    def estimate(self, cb: Codebook) -> EstimatedChannel:
        """Channel estimate of the current decode, recomputed only when the
        symbols differ in content from those of the kept estimate."""
        if self._est is None or not np.array_equal(self._est[0], self.symbol_indices):
            symbols = np.array(self.symbol_indices)
            self._est = (symbols, estimate_channel(self.y, symbols, cb))
        return self._est[1]

    def lifted_rows(self, cb: Codebook, ore_mode):
        """Re and Im parts (2, pairs, N_R, N_s) of the measurement matrices
        of ore_mode's stacking pairs, built once per packet and mode."""
        if ore_mode not in self._rows:
            a = self.channel.matrices(*_stacking_pairs(cb, ore_mode))
            self._rows[ore_mode] = np.stack([a.real, a.imag])
        return self._rows[ore_mode]


def sense(records, cb: Codebook, prior: PriorParams, ore_mode: str = "user_first"):
    """Windowed GAMP imaging: the GampResult of the window's stacked system.

    Stacks the scatter rows of every PacketRecord in records. ore_mode
    "user_first" takes one row per (packet, user) at the user's first
    occupied ORE (users transmit nothing on other OREs, so their channels
    are unobservable there); "all_ores" stacks every occupied ORE.
    """
    if not records:
        raise ValueError("sense window is empty")
    ores_all, users_all = _stacking_pairs(cb, ore_mode)
    rows, lifted, noise_vars = [], [], []
    for rec in records:
        est = rec.estimate(cb)
        noise_vars.append(est.noise_var)
        keep = est.observed[ores_all, users_all]
        ores, users = ores_all[keep], users_all[keep]
        # scatter components: the estimate minus the static channel part
        rows.append(est.h[ores, users] - rec.channel.static[ores, users])
        # [Re; Im] of the pairs' matrices (x is real), copied only when masked
        rec_rows = rec.lifted_rows(cb, ore_mode)
        lifted.append(rec_rows if keep.all() else rec_rows[:, keep])
    h_tilde = np.concatenate(rows).ravel()
    if h_tilde.size == 0:
        raise ValueError("no observable channel rows in the window")
    phi = np.concatenate(lifted, axis=1).reshape(2 * h_tilde.size, -1)
    yv = np.concatenate([h_tilde.real, h_tilde.imag])
    # lifted real parts carry half the complex estimate variance each
    sigma_w = max(np.mean(noise_vars) / 2.0, 1e-15)
    return gamp_solve(phi, yv, prior, sigma_w)

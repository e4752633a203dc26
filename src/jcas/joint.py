"""Closed-loop joint communication and imaging over a packet stream.

Per packet k: draw a fresh binary IRS pattern, transmit a random frame over
the true composite channel, decode it against the channel *predicted* from
the current scene estimate (known LOS/IRS parts plus the estimated scatter),
then re-image from the sliding window of decoded packets. Optional
self-iteration repeats decode+image within a packet until the estimate
stops moving; optional feedback re-decodes the previous n_b packets with
the fresher image after every sensing step and refreshes the window.

Momentum is applied in JointRunner.forward_step: once the convergence gate
has held, each new GAMP image x is blended (1 - mu) * x + mu * x_old with
the image before the sensing step; every image is clipped to [0, 1].

Every decode (forward, self-iteration and feedback) is JointRunner._decode:
the record's received frame against its channel at the current image, or,
for the genie decoder, at the true scene.

The runner keeps three per-packet stores. The window is a bounded deque of
(PacketRecord, sent symbol indices, PacketTrace row, genie channel) entries
for the last n_f packets. The genie channel is the packet's true channel,
computed once to transmit and kept for the genie decoder's decodes; the
other decoders keep None there. _x_hist holds the images after the last
n_b + 1 packets, which feedback compares to skip a span whose image has
stopped moving. _channels holds the PacketChannels built ahead for packets
still to come (see below).

A packet's IRS pattern is keyed by (seed, packet), so the receiver knows
the patterns of the packets to come and may build their channels ahead:
forward_step builds the PacketChannels of a block of max(1, _BLOCK_COLUMNS
// N_R) packets together (PacketChannel.block, one GEMM per ORE for the
block) and keeps each until its packet comes. The channels are bit-equal
to those built one packet at a time, so the block length changes no
output.
"""

import numbers
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .channel import LinkSet, PacketChannel, random_binary_pattern
from .gamp import GampDivergence, PriorParams
from .metrics import mse
from .mpa import ml_decode, mpa_decode, ser
from .scma import Codebook
from .scene import ScattererField
from .sensing import PacketRecord, sense
from .transceiver import noise_sigma, random_frame, transmit

__all__ = ["JointConfig", "PacketTrace", "RunTrace", "JointRunner"]

# IRS GEMM columns per channel block: B = max(1, _BLOCK_COLUMNS // N_R)
# packets, where a 4-column GEMM runs at about half a 32-column one's speed
_BLOCK_COLUMNS = 32
# largest per-FN MPA likelihood table a runner accepts, in entries
# (M^max_d_f joint symbols x N_T slots x N_R antennas; 256 MiB of float64)
_MAX_TABLE_ENTRIES = 1 << 25


@dataclass(frozen=True)
class JointConfig:
    """Knobs of the closed loop. eps_k defaults to 0.05*sqrt(N_s*prior.lam)."""

    n_packets: int = 30  # packets in the run (K)
    n_slots: int = 64  # time slots per packet (N_T)
    n_pilot: int = 1  # leading packets with receiver-known symbols
    n_f: int = 10  # sliding imaging window length
    n_b: int = 0  # feedback depth (packets re-decoded at the end)
    k_s: int = 1  # decode+image self-iterations per packet
    k_it: int = 10  # MPA message-passing rounds
    mu: float = 0.0  # momentum blend toward the previous image
    eps_k: float | None = None  # convergence gate on ||x_k - x_{k-1}||
    ebn0_db: float = 10.0
    decoder: str = "mpa"  # "mpa" | "ml" | "genie" (mpa with the true channel)
    ore_mode: str = "user_first"
    seed: int = 0

    def __post_init__(self):
        for name in ("n_packets", "n_slots", "n_pilot", "n_f", "n_b", "k_s", "k_it"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_packets < 1 or self.n_slots < 1:
            raise ValueError("need at least one packet and one slot")
        if self.n_f < 1 or self.k_s < 1 or self.k_it < 1:
            raise ValueError("n_f, k_s and k_it must be >= 1")
        if self.n_b < 0 or self.n_b > self.n_packets:
            raise ValueError("feedback depth must lie in [0, n_packets]")
        if not 0 <= self.n_pilot <= self.n_packets:
            raise ValueError("pilot count must lie in [0, n_packets]")
        if self.decoder not in ("mpa", "ml", "genie"):
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if not 0 <= self.mu < 1:
            raise ValueError(f"momentum coefficient must lie in [0, 1), got {self.mu}")
        if self.ore_mode not in ("user_first", "all_ores"):
            raise ValueError(f"unknown ore_mode {self.ore_mode!r}")
        if not self.ebn0_db > -np.inf:  # +inf is a noiseless run
            raise ValueError(f"ebn0_db must be a number or +inf, got {self.ebn0_db}")
        if self.eps_k is not None and not self.eps_k >= 0:
            raise ValueError(f"eps_k must be >= 0, got {self.eps_k}")


@dataclass
class PacketTrace:
    """Per-packet outcomes of one closed-loop run."""

    packet: int
    mse: float
    ser: float
    ser_post_feedback: float | None = None  # filled by the feedback pass
    pilot: bool = False  # symbols were known a priori, not decoded
    gate: bool = False  # convergence gate held at this packet
    ks_used: int = 1  # self-iterations actually spent
    diverged: bool = False  # GAMP diverged; previous image retained
    wall_ms: float = 0.0


@dataclass
class RunTrace:
    packets: list = field(default_factory=list)
    x_final: np.ndarray | None = field(default=None, repr=False)

    def column(self, name):
        return np.array([getattr(p, name) for p in self.packets])


class JointRunner:
    """Stateful closed loop; run() drives it over config.n_packets packets."""

    def __init__(
        self,
        truth: ScattererField,
        links: LinkSet,
        cb: Codebook,
        prior: PriorParams,
        config: JointConfig,
    ):
        self.truth = truth
        self.links = links
        self.cb = cb
        self.prior = prior
        self.config = config
        for what, have, want in (
            ("codebook users", cb.n_users, links.n_users),
            ("codebook OREs", cb.n_ores, links.n_ores),
            ("scene voxels", truth.spec.n_voxels, links.n_voxels),
        ):
            if have != want:
                raise ValueError(f"{what} ({have}) != the links' ({want})")
        if config.n_slots < cb.max_d_f:
            raise ValueError(
                f"n_slots ({config.n_slots}) must be >= the codebook's largest "
                f"d_f (cb.max_d_f = {cb.max_d_f}) for channel estimation"
            )
        entries = cb.m**cb.max_d_f * config.n_slots * links.n_antennas
        if config.decoder != "ml" and entries > _MAX_TABLE_ENTRIES:
            raise ValueError(
                f"the codebook's MPA tables are too large: M^d_f = {cb.m}^{cb.max_d_f} "
                f"joint symbols x {config.n_slots} slots x {links.n_antennas} antennas "
                f"is {entries} entries per ORE, above {_MAX_TABLE_ENTRIES}"
            )
        n_s = truth.spec.n_voxels
        self.eps_k = (
            config.eps_k
            if config.eps_k is not None
            else 0.05 * np.sqrt(n_s * prior.lam)
        )
        self.sigma2 = noise_sigma(config.ebn0_db, cb)
        # (record, sent symbol indices, trace row, genie channel) of the last
        # n_f packets
        self.window = deque(maxlen=config.n_f)
        self.x_hat = np.zeros(n_s)
        self.gate_open = False  # once held, self-iteration collapses to 1
        # images after the last n_b + 1 packets (and before the first);
        # [0] is the image feedback after this packet compares against
        self._x_hist = deque([self.x_hat], maxlen=config.n_b + 2)
        self._channels = {}  # packet -> its PacketChannel, built with its block

    def _channel(self, packet: int) -> PacketChannel:
        """packet's PacketChannel; when it has none yet, builds those of the
        next B packets (capped at the run's end) and keeps the others."""
        if packet not in self._channels:
            cfg = self.config
            n = max(1, min(_BLOCK_COLUMNS // self.links.n_antennas, cfg.n_packets - packet + 1))
            packets = range(packet, packet + n)
            n_i = self.links.h_s1.shape[1]
            patterns = [random_binary_pattern(n_i, p, cfg.seed) for p in packets]
            self._channels.update(zip(packets, PacketChannel.block(self.links, patterns)))
        return self._channels.pop(packet)

    # -- decoding -----------------------------------------------------------

    def _decode(self, rec: PacketRecord, h_genie):
        """Decode rec's received frame against its channel at the current
        image, or against h_genie, its true channel, for the genie decoder;
        the decoded symbol indices replace rec's and are returned."""
        cfg = self.config
        h = h_genie if cfg.decoder == "genie" else rec.channel.channel(self.x_hat)
        if cfg.decoder == "ml":
            decoded = ml_decode(rec.y, h, self.cb)
        else:
            decoded = mpa_decode(rec.y, h, self.cb, self.sigma2, cfg.k_it)
        rec.symbol_indices = decoded.indices
        return decoded.indices

    # -- loop steps --------------------------------------------------------

    def forward_step(self, packet: int) -> PacketTrace:
        """Transmit, decode against the predicted channel, image, self-iterate."""
        cfg = self.config
        t0 = time.perf_counter()
        ch = self._channel(packet)
        sent = random_frame(cfg.n_slots, self.cb, packet, cfg.seed)
        h_true = ch.channel(self.truth.values)
        y = transmit(
            sent, h_true, self.cb, self.sigma2,
            np.random.SeedSequence((cfg.seed, 2, packet)),
        )
        rec = PacketRecord(y, sent, ch)
        # only the genie decoder decodes against the true channel
        h_genie = h_true if cfg.decoder == "genie" else None
        # pilot symbols are known a priori; nothing to decode
        is_pilot = packet <= cfg.n_pilot
        if not is_pilot:
            self._decode(rec, h_genie)
        trace = PacketTrace(
            packet,
            mse=np.inf,
            ser=ser(rec.symbol_indices, sent),
            pilot=is_pilot,
            gate=self.gate_open,
        )
        self.window.append((rec, sent, trace, h_genie))
        records = [r for r, _, _, _ in self.window]
        k_s = 1 if self.gate_open else cfg.k_s
        solved = None  # this packet's symbols at its last solve
        for it in range(k_s):
            trace.ks_used = it + 1
            x_old = self.x_hat
            if np.array_equal(rec.symbol_indices, solved):
                # the same window again: sense is deterministic, so the
                # solve would return the image it returned last time
                moved = 0.0
            else:
                solved = rec.symbol_indices
                try:
                    x = sense(records, self.cb, self.prior, cfg.ore_mode).x
                except GampDivergence:
                    trace.diverged = True
                    break
                # momentum only engages once the estimate has settled;
                # blending the coarse initial images would slow convergence
                if self.gate_open and cfg.mu > 0:
                    x = (1 - cfg.mu) * x + cfg.mu * x_old
                self.x_hat = np.clip(x, 0.0, 1.0)
                moved = float(np.linalg.norm(self.x_hat - x_old))
            if moved < self.eps_k:
                if not self.gate_open:
                    self.gate_open = True
                    trace.gate = True
                break
            if not is_pilot and it + 1 < k_s:
                # re-decode this packet with the fresher image
                trace.ser = ser(self._decode(rec, h_genie), sent)
        trace.mse = mse(self.x_hat, self.truth.values)
        trace.wall_ms = (time.perf_counter() - t0) * 1e3
        self._x_hist.append(self.x_hat)
        return trace

    def feedback(self, packet: int):
        """Re-decode the previous n_b packets with the packet-k image.

        Walks the window entries before the newest one, at most n_b of
        them; pilot packets are skipped (their symbols are exact). Each
        re-decode replaces the record's symbols, whose estimate the record
        recomputes if they changed, and sets its trace row's
        ser_post_feedback. Skipped entirely until packet n_b + 1, and once
        the image has stopped moving over the feedback span (nothing left
        to revise).
        """
        cfg = self.config
        if cfg.n_b == 0 or packet <= cfg.n_b:
            return
        if float(np.linalg.norm(self.x_hat - self._x_hist[0])) < self.eps_k:
            return
        for rec, sent, row, h_genie in list(self.window)[-cfg.n_b - 1 : -1]:
            if row.pilot:
                continue
            row.ser_post_feedback = ser(self._decode(rec, h_genie), sent)

    def run(self) -> RunTrace:
        trace = RunTrace()
        for packet in range(1, self.config.n_packets + 1):
            trace.packets.append(self.forward_step(packet))
            self.feedback(packet)
        trace.x_final = self.x_hat.copy()
        return trace


"""Geometric LOS sub-channels, IRS reflection, composite channel, measurement matrices.

The per-ORE channel from users to the AP is the sum of three parts: the
direct LOS path, the user->IRS->AP path, and the user->scatterer->IRS->AP
path. Every sub-link is a narrowband free-space gain alpha * exp(j*phi) with
alpha = c / (4*pi*d*f) and phi = -2*pi*f*d/c for endpoint distance d.

The scattered part is linear in the scatterer vector x, which is what turns
channel estimates into compressed-sensing measurements of the environment.
A PacketChannel holds the two products one IRS pattern fixes; a packet's
composite channel, scatter rows and measurement matrices all follow from it.
The products are built per block of patterns (PacketChannel.block): one
GEMM per ORE and product for the whole block, sliced into each pattern's
arrays, bit-equal to building each pattern alone.

The IRS-AP and voxel-IRS links depend only on the room (AP array, IRS panel,
voxel grid, carriers), not on the users: los_links computes them once per
room and hands every LinkSet of that room the same read-only arrays.
"""

from dataclasses import dataclass, field

import numpy as np

from .scene import RoomSpec, voxel_centers

__all__ = [
    "C_LIGHT",
    "Geometry",
    "OreGrid",
    "IrsPattern",
    "LinkSet",
    "los_links",
    "calibrate_links",
    "random_binary_pattern",
    "PacketChannel",
    "composite_channel",
    "measurement_matrix",
    "save_geometry",
    "load_geometry",
]

C_LIGHT = 299792458.0
_BAND = (28e9, 30e9)  # Hz, the edges of OreGrid.uniform_band's carriers


@dataclass
class Geometry:
    """Positions (meters) of users, AP antennas and IRS elements."""

    users: np.ndarray  # (N_u, 3)
    ap: np.ndarray  # (N_R, 3)
    irs: np.ndarray  # (N_I, 3)

    def __post_init__(self):
        for name in ("users", "ap", "irs"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < 1:
                raise ValueError(f"{name} must be an (n, 3) array with n >= 1")
            finite = np.isfinite(arr).all(axis=1)
            if not finite.all():
                bad = tuple(arr[np.argmin(finite)].tolist())
                raise ValueError(f"{name} position {bad} is not finite")
            setattr(self, name, arr)

    @property
    def n_users(self):
        return self.users.shape[0]

    @property
    def n_antennas(self):
        return self.ap.shape[0]

    def check_inside(self, room_dims):
        """Raise ValueError naming the first position outside [0, room_dims]."""
        room = np.asarray(room_dims, dtype=float)
        for name in ("users", "ap", "irs"):
            pts = getattr(self, name)
            outside = np.any((pts < -1e-9) | (pts > room + 1e-9), axis=1)
            if outside.any():
                raise ValueError(
                    f"{name} position {tuple(pts[np.argmax(outside)].tolist())} "
                    f"is not inside the room {tuple(room.tolist())}"
                )


@dataclass
class OreGrid:
    """Carrier frequencies of the R orthogonal resource elements (Hz)."""

    frequencies: np.ndarray

    def __post_init__(self):
        f = np.atleast_1d(np.asarray(self.frequencies, dtype=float))
        if f.size < 1 or np.any(f <= 0):
            raise ValueError("need at least one positive frequency")
        self.frequencies = f

    @classmethod
    def uniform_band(cls, r: int):
        """R carriers uniformly spaced across _BAND, 28-30 GHz (edges included)."""
        if r < 1:
            raise ValueError("need R >= 1")
        if r == 1:
            return cls(np.array([sum(_BAND) / 2]))
        return cls(np.linspace(*_BAND, r))


@dataclass
class IrsPattern:
    """Per-element reflection coefficients theta = rho * exp(j*phi) for one packet."""

    coefficients: np.ndarray  # (N_I,) complex

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        if np.any(np.abs(c) > 1 + 1e-9):
            raise ValueError("IRS amplitude reflection coefficients must be <= 1")
        self.coefficients = c

    @property
    def n_elements(self):
        return self.coefficients.size


def random_binary_pattern(n_elements: int, packet: int, seed) -> IrsPattern:
    """Per-packet IRS pattern with rho = 1 and phase 0 or pi per element.

    Drawn from a stream keyed by (seed, packet) so the receiver can replay it.
    """
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), int(packet))))
    signs = rng.integers(0, 2, size=n_elements) * 2 - 1
    return IrsPattern(signs.astype(complex))


@dataclass
class LinkSet:
    """The five geometric sub-channels per ORE (see module docstring)."""

    h_los: np.ndarray = field(repr=False)  # (R, N_u, N_R)
    h_irs1: np.ndarray = field(repr=False)  # (R, N_u, N_I)
    h_s1: np.ndarray = field(repr=False)  # (R, N_I, N_R)
    h_s2: np.ndarray = field(repr=False)  # (R, N_s, N_I)
    h_s3: np.ndarray = field(repr=False)  # (R, N_u, N_s)

    @property
    def n_ores(self):
        return self.h_los.shape[0]

    @property
    def n_users(self):
        return self.h_los.shape[1]

    @property
    def n_antennas(self):
        return self.h_los.shape[2]

    @property
    def n_voxels(self):
        return self.h_s2.shape[1]


def _gain(dist, freq):
    """Free-space gain matrix for a distance matrix at one carrier frequency."""
    amp = C_LIGHT / (4 * np.pi * dist * freq)
    phase = -2 * np.pi * freq * dist / C_LIGHT
    return amp * np.exp(1j * phase)


def _distances(a, b):
    """Euclidean distance between every row of a (P, D) and every row of b (Q, D).

    Adding the squared coordinate differences one coordinate at a time keeps
    the sums in cdist's order (bit-equal) and avoids a slow length-D reduction.
    """
    return np.sqrt(sum((a[:, None, k] - b[None, :, k]) ** 2 for k in range(a.shape[1])))


def _gains(dist, freqs):
    """(R, P, Q) gains of a (P, Q) distance matrix at every carrier, filled
    one carrier at a time so no second full-size copy is made."""
    out = np.empty((len(freqs),) + dist.shape, dtype=complex)
    for i, f in enumerate(freqs):
        out[i] = _gain(dist, f)
    return out


_IRS_LINKS = {}  # {key: _irs_links result} of the last room only


def _irs_links(ap, irs, vox, freqs):
    """(shortest IRS-AP distance, shortest voxel-IRS distance, IRS-AP gains
    h_s1 (R, N_I, N_R), voxel-IRS gains h_s2 (R, N_s, N_I)) of one room.

    Keyed on the exact bytes of everything they depend on; the arrays of the
    last room are kept, read-only, and shared by every caller in that room.
    """
    key = (ap.tobytes(), irs.tobytes(), vox.tobytes(), freqs.tobytes())
    if key not in _IRS_LINKS:
        d_ia = _distances(irs, ap)
        d_vi = _distances(vox, irs)
        h_s1 = _gains(d_ia, freqs)
        h_s2 = _gains(d_vi, freqs)
        h_s1.flags.writeable = False
        h_s2.flags.writeable = False
        _IRS_LINKS.clear()
        _IRS_LINKS[key] = (np.min(d_ia), np.min(d_vi), h_s1, h_s2)
    return _IRS_LINKS[key]


def los_links(geom: Geometry, spec: RoomSpec, grid: OreGrid) -> LinkSet:
    """Synthesize the five LOS sub-channels for every ORE.

    Device-to-device links (user-AP, user-IRS, IRS-AP) no longer than one
    voxel diagonal (d_min) are rejected as degenerate. Links touching voxel
    centers use a looser floor of a quarter of the smallest voxel edge,
    since no device can be a full voxel diagonal away from every voxel center.
    h_s1 and h_s2 are the room's shared read-only arrays (see _irs_links).
    """
    d_min = float(np.linalg.norm(spec.voxel_dims))
    d_min_vox = min(spec.voxel_dims) / 4.0
    geom.check_inside(spec.room_dims)

    vox = voxel_centers(spec)
    freqs = grid.frequencies
    d_ua = _distances(geom.users, geom.ap)
    d_ui = _distances(geom.users, geom.irs)
    d_uv = _distances(geom.users, vox)
    min_ia, min_vi, h_s1, h_s2 = _irs_links(geom.ap, geom.irs, vox, freqs)
    for d, name in ((np.min(d_ua), "user-AP"), (np.min(d_ui), "user-IRS"), (min_ia, "IRS-AP")):
        if d <= d_min:
            raise ValueError(
                f"degenerate geometry: {name} distance {d:.3g} m <= d_min {d_min:.3g} m"
            )
    for d, name in ((min_vi, "voxel-IRS"), (np.min(d_uv), "user-voxel")):
        if d <= d_min_vox:
            raise ValueError(f"degenerate geometry: {name} distance {d:.3g} m too small")

    h_los, h_irs1, h_s3 = (_gains(d, freqs) for d in (d_ua, d_ui, d_uv))
    return LinkSet(h_los, h_irs1, h_s1, h_s2, h_s3)


_TARGET_LOS = 1.0
_TARGET_IRS = 0.3
_TARGET_SCATTER = 0.3
_MEAN_COEFFICIENT = 0.5


def calibrate_links(links: LinkSet, reference: IrsPattern, expected_scatterers=8) -> LinkSet:
    """Rescale the sub-channels to workable relative magnitudes.

    Raw free-space products put the scattered path a hundred dB or more
    below the direct path, which makes both decoding calibration and sensing
    numerically vacuous. This keeps every distance/frequency ratio intact and
    applies one global scale per path, under the reference IRS pattern: the
    LOS part to RMS _TARGET_LOS (1.0), the direct IRS path to RMS _TARGET_IRS
    (0.3), and the scattered path so a typical scene (expected_scatterers
    voxels of coefficient _MEAN_COEFFICIENT, 0.5) gives entries of RMS
    _TARGET_SCATTER (0.3). h_s1 is shared by both IRS paths and is left
    alone; h_irs1 and h_s3 carry the path scales. The result shares links'
    h_s1 and h_s2 arrays (the room's read-only IRS links from los_links),
    uncopied.
    """
    g_los = np.sqrt(np.mean(np.abs(links.h_los) ** 2))
    ch = PacketChannel(links, reference)
    g_irs = np.sqrt(np.mean(np.abs(ch.static - links.h_los) ** 2))
    # RMS of a single voxel's contribution to a scatter-channel entry
    ores, users = np.divmod(np.arange(links.n_ores * links.n_users), links.n_users)
    g_vox = np.sqrt(np.mean(np.abs(ch.matrices(ores, users)) ** 2))
    g_scatter = _MEAN_COEFFICIENT * np.sqrt(expected_scatterers) * g_vox
    return LinkSet(
        links.h_los * (_TARGET_LOS / g_los),
        links.h_irs1 * (_TARGET_IRS / g_irs),
        links.h_s1,
        links.h_s2,
        links.h_s3 * (_TARGET_SCATTER / g_scatter),
    )


def _irs_products(links: LinkSet, patterns):
    """(static, g) of each IRS pattern, as PacketChannel holds them.

    The block's weighted IRS-AP links W = [theta_k * h_s1] sit side by side
    in one (R, N_I, B*N_R) array, so each ORE's h_irs1 @ W and h_s2 @ W is
    one GEMM B*N_R columns wide; each pattern's arrays are its N_R columns.
    """
    n_i = links.h_s1.shape[1]
    for irs in patterns:
        if irs.n_elements != n_i:
            raise ValueError(f"IRS pattern has {irs.n_elements} elements, links expect {n_i}")
    n_r = links.n_antennas
    theta = np.stack([irs.coefficients for irs in patterns], axis=1)  # (N_I, B)
    w = (theta[:, :, None] * links.h_s1[:, :, None, :]).reshape(links.n_ores, n_i, -1)
    irs1 = links.h_irs1 @ w  # (R, N_u, B*N_R)
    s2 = links.h_s2 @ w  # (R, N_s, B*N_R)
    cols = [slice(k * n_r, (k + 1) * n_r) for k in range(len(patterns))]
    return [
        (links.h_los + irs1[:, :, c], np.ascontiguousarray(s2[:, :, c].transpose(0, 2, 1)))
        for c in cols
    ]


class PacketChannel:
    """One packet's channel operator: every channel quantity under one IRS pattern.

    Holds the scene-independent part static[r] = H^LOS + H^IRS1 Theta H^s1
    (R, N_u, N_R) and the scatter operator g[r] = (h_s2[r] Theta h_s1[r])^T,
    stored (R, N_R, N_s) in the row order of the stacked measurement
    matrices. The scattered channel of image x is linear in x through g.
    PacketChannel(links, irs) is the one-pattern case of block, which builds
    the IRS products of several packets' patterns together.
    """

    def __init__(self, links: LinkSet, irs: IrsPattern):
        ((self.static, self.g),) = _irs_products(links, [irs])
        self.links = links

    @classmethod
    def block(cls, links: LinkSet, patterns):
        """The PacketChannels of a sequence of IRS patterns, in order; their
        arrays equal PacketChannel(links, irs)'s for each pattern bit for bit."""
        channels = []
        for static, g in _irs_products(links, patterns):
            ch = cls.__new__(cls)
            ch.links, ch.static, ch.g = links, static, g
            channels.append(ch)
        return channels

    def scatter(self, x):
        """Scattered rows H^s of every ORE: (R, N_u, N_R), row nu = x^T diag(h_s3) g^T."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.links.n_voxels,):
            raise ValueError(f"x must have length {self.links.n_voxels}")
        return (self.links.h_s3 * x) @ self.g.transpose(0, 2, 1)

    def channel(self, x):
        """Composite channel of every ORE for image x: (R, N_u, N_R)."""
        return self.static + self.scatter(x)

    def matrices(self, ores, users):
        """Stacked CS measurement matrices (len, N_R, N_s) of (ORE, user) pairs.

        matrices(ores, users)[i] @ x equals scatter(x)[ores[i], users[i]].
        """
        return self.g[ores] * self.links.h_s3[ores, users][:, None, :]


def composite_channel(links: LinkSet, irs: IrsPattern, x, r: int):
    """Composite per-ORE channel H_r = H^LOS + H^IRS1 Theta H^s1 + scatter part."""
    return PacketChannel(links, irs).channel(x)[r]


def measurement_matrix(links: LinkSet, irs: IrsPattern, nu: int, r: int):
    """CS measurement matrix A (N_R x N_s) with A @ x = (scatter row of user nu)^T."""
    if not 0 <= nu < links.n_users:
        raise IndexError(f"user index {nu} out of range")
    return PacketChannel(links, irs).matrices([r], [nu])[0]


def save_geometry(path, geom: Geometry):
    with open(path, "w") as f:
        for name, pts in (("users", geom.users), ("ap", geom.ap), ("irs", geom.irs)):
            f.write(f"{name}\n")
            for p in pts:
                f.write("%.17g %.17g %.17g\n" % tuple(p))


def load_geometry(path) -> Geometry:
    sections = {"users": [], "ap": [], "irs": []}
    current = None
    with open(path) as f:
        for ln in f:
            ln = ln.strip()
            if not ln:
                continue
            if ln in sections:
                current = ln
                continue
            if current is None:
                raise ValueError(f"{path}: position line before any section header")
            try:
                x, y, z = (float(p) for p in ln.split())
            except ValueError:  # a malformed number or not three fields
                raise ValueError(f"{path}: malformed position line: {ln!r}") from None
            sections[current].append([x, y, z])
    for name, pts in sections.items():
        if not pts:
            raise ValueError(f"{path}: missing or empty section {name!r}")
    try:
        return Geometry(
            np.array(sections["users"]), np.array(sections["ap"]), np.array(sections["irs"])
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

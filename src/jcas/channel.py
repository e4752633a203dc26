"""Geometric LOS sub-channels, IRS reflection, composite channel, measurement matrices.

The per-ORE channel from users to the AP is the sum of three parts: the
direct LOS path, the user->IRS->AP path, and the user->scatterer->IRS->AP
path. Every sub-link is a narrowband free-space gain alpha * exp(j*phi) with
alpha = c / (4*pi*d*f) and phi = -2*pi*f*d/c for endpoint distance d.

The scattered part is linear in the scatterer vector x, which is what turns
channel estimates into compressed-sensing measurements of the environment.
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
    "static_channel",
    "composite_channel",
    "scatter_rows",
    "measurement_matrix",
    "stack_measurements",
    "save_geometry",
    "load_geometry",
]

C_LIGHT = 299792458.0


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
            setattr(self, name, arr)

    @property
    def n_users(self):
        return self.users.shape[0]

    @property
    def n_antennas(self):
        return self.ap.shape[0]

    @property
    def n_irs(self):
        return self.irs.shape[0]


@dataclass
class OreGrid:
    """Carrier frequencies of the R orthogonal resource elements (Hz)."""

    frequencies: np.ndarray

    def __post_init__(self):
        f = np.atleast_1d(np.asarray(self.frequencies, dtype=float))
        if f.size < 1 or np.any(f <= 0):
            raise ValueError("need at least one positive frequency")
        self.frequencies = f

    @property
    def n_ores(self):
        return self.frequencies.size

    @classmethod
    def uniform_band(cls, r: int, f_lo=28e9, f_hi=30e9):
        """R carriers uniformly spaced across [f_lo, f_hi] (band edges included)."""
        if r < 1:
            raise ValueError("need R >= 1")
        if r == 1:
            return cls(np.array([(f_lo + f_hi) / 2]))
        return cls(np.linspace(f_lo, f_hi, r))


@dataclass
class IrsPattern:
    """Per-element reflection coefficients theta = rho * exp(j*phi) for one packet."""

    coefficients: np.ndarray  # (N_I,) complex
    packet: int = 0

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
    return IrsPattern(signs.astype(complex), packet)


@dataclass
class LinkSet:
    """The five geometric sub-channels per ORE (see module docstring)."""

    frequencies: np.ndarray = field(repr=False)  # (R,)
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


def _check_inside(points, room_dims, name):
    lo = np.min(points, axis=0)
    hi = np.max(points, axis=0)
    if np.any(lo < -1e-9) or np.any(hi > np.asarray(room_dims) + 1e-9):
        raise ValueError(f"{name} positions must lie inside the room")


def _distances(a, b):
    """Euclidean distance between every row of a (P, D) and every row of b (Q, D).

    Adding the squared coordinate differences one coordinate at a time keeps
    the sums in cdist's order (bit-equal) and avoids a slow length-D reduction.
    """
    return np.sqrt(sum((a[:, None, k] - b[None, :, k]) ** 2 for k in range(a.shape[1])))


def los_links(geom: Geometry, spec: RoomSpec, grid: OreGrid, d_min=None) -> LinkSet:
    """Synthesize the five LOS sub-channels for every ORE.

    Device-to-device links (user-AP, user-IRS, IRS-AP) shorter than d_min
    (default: one voxel diagonal) are rejected as degenerate. Links touching
    voxel centers use a looser floor of a quarter of the smallest voxel edge,
    since no device can be a full voxel diagonal away from every voxel center.
    """
    if d_min is None:
        d_min = float(np.linalg.norm(spec.voxel_dims))
    d_min_vox = min(spec.voxel_dims) / 4.0
    for pts, name in ((geom.users, "user"), (geom.ap, "AP"), (geom.irs, "IRS")):
        _check_inside(pts, spec.room_dims, name)

    vox = voxel_centers(spec)
    d_ua = _distances(geom.users, geom.ap)
    d_ui = _distances(geom.users, geom.irs)
    d_ia = _distances(geom.irs, geom.ap)
    d_vi = _distances(vox, geom.irs)
    d_uv = _distances(geom.users, vox)
    for d, name in ((d_ua, "user-AP"), (d_ui, "user-IRS"), (d_ia, "IRS-AP")):
        if np.min(d) <= d_min:
            raise ValueError(
                f"degenerate geometry: {name} distance {np.min(d):.3g} m <= d_min {d_min:.3g} m"
            )
    for d, name in ((d_vi, "voxel-IRS"), (d_uv, "user-voxel")):
        if np.min(d) <= d_min_vox:
            raise ValueError(
                f"degenerate geometry: {name} distance {np.min(d):.3g} m too small"
            )

    freqs = grid.frequencies
    h_los = np.stack([_gain(d_ua, f) for f in freqs])
    h_irs1 = np.stack([_gain(d_ui, f) for f in freqs])
    h_s1 = np.stack([_gain(d_ia, f) for f in freqs])
    h_s2 = np.stack([_gain(d_vi, f) for f in freqs])
    h_s3 = np.stack([_gain(d_uv, f) for f in freqs])
    return LinkSet(freqs, h_los, h_irs1, h_s1, h_s2, h_s3)


def calibrate_links(
    links: LinkSet,
    reference: IrsPattern,
    target_los=1.0,
    target_irs=0.3,
    target_scatter=0.3,
    expected_scatterers=8,
    mean_coefficient=0.5,
) -> LinkSet:
    """Rescale the sub-channels to workable relative magnitudes.

    Raw free-space products put the scattered path a hundred dB or more
    below the direct path, which makes both decoding calibration and sensing
    numerically vacuous. This keeps every distance/frequency ratio intact and
    applies one global scale per path: the LOS part to RMS target_los, the
    direct IRS path to RMS target_irs, and the scattered path so a typical
    scene (expected_scatterers voxels of mean coefficient) gives entries of
    RMS target_scatter. h_s1 is shared by both IRS paths and is left alone;
    h_irs1 and h_s3 carry the path scales.
    """
    g_los = np.sqrt(np.mean(np.abs(links.h_los) ** 2))
    theta = reference.coefficients
    prods = [_direct_irs(links, reference, r) for r in range(links.n_ores)]
    g_irs = np.sqrt(np.mean(np.abs(np.stack(prods)) ** 2))
    # RMS of a single voxel's contribution to a scatter-channel entry
    cols = []
    for r in range(links.n_ores):
        w = theta[:, None] * links.h_s1[r]
        for nu in range(links.n_users):
            b = (links.h_s3[r, nu][:, None] * links.h_s2[r]) @ w
            cols.append(np.mean(np.abs(b) ** 2))
    g_vox = np.sqrt(np.mean(cols))
    g_scatter = mean_coefficient * np.sqrt(expected_scatterers) * g_vox
    return LinkSet(
        links.frequencies,
        links.h_los * (target_los / g_los),
        links.h_irs1 * (target_irs / g_irs),
        links.h_s1.copy(),
        links.h_s2.copy(),
        links.h_s3 * (target_scatter / g_scatter),
    )


def _check_pattern(links: LinkSet, irs: IrsPattern):
    if irs.n_elements != links.h_s1.shape[1]:
        raise ValueError(
            f"IRS pattern has {irs.n_elements} elements, links expect {links.h_s1.shape[1]}"
        )


def scatter_rows(links: LinkSet, irs: IrsPattern, x, r: int):
    """Scattered channel rows H_r^s: (N_u, N_R), row nu = x^T diag(h_s3) h_s2 Theta h_s1."""
    _check_pattern(links, irs)
    x = np.asarray(x, dtype=float)
    if x.shape != (links.n_voxels,):
        raise ValueError(f"x must have length {links.n_voxels}")
    w = irs.coefficients[:, None] * links.h_s1[r]  # (N_I, N_R)
    # (x * h_s3) @ h_s2 gives each user's weighted field at the IRS
    excite = (links.h_s3[r] * x[None, :]) @ links.h_s2[r]  # (N_u, N_I)
    return excite @ w


def _direct_irs(links: LinkSet, irs: IrsPattern, r: int):
    """Direct IRS path H^IRS1 Theta H^s1 of ORE r: (N_u, N_R)."""
    return links.h_irs1[r] @ (irs.coefficients[:, None] * links.h_s1[r])


def static_channel(links: LinkSet, irs: IrsPattern):
    """Scene-independent part H^LOS + H^IRS1 Theta H^s1 of every ORE: (R, N_u, N_R).

    static_channel(links, irs)[r] + scatter_rows(links, irs, x, r) equals
    composite_channel(links, irs, x, r) bit for bit, so a packet's channel
    for any image x needs this part only once.
    """
    _check_pattern(links, irs)
    return np.stack(
        [links.h_los[r] + _direct_irs(links, irs, r) for r in range(links.n_ores)]
    )


def composite_channel(links: LinkSet, irs: IrsPattern, x, r: int):
    """Composite per-ORE channel H_r = H^LOS + H^IRS1 Theta H^s1 + scatter part."""
    _check_pattern(links, irs)
    return links.h_los[r] + _direct_irs(links, irs, r) + scatter_rows(links, irs, x, r)


def measurement_matrix(links: LinkSet, irs: IrsPattern, nu: int, r: int):
    """CS measurement matrix A (N_R x N_s) with A @ x = (scatter row of user nu)^T."""
    _check_pattern(links, irs)
    if not 0 <= nu < links.n_users:
        raise IndexError(f"user index {nu} out of range")
    w = irs.coefficients[:, None] * links.h_s1[r]  # (N_I, N_R)
    b = (links.h_s3[r, nu][:, None] * links.h_s2[r]) @ w  # (N_s, N_R)
    return b.T


def stack_measurements(rows, mats):
    """Stack per-(packet, user) scatter rows and matrices into one linear system.

    rows: list of (N_R,) vectors (transposed scatter rows), mats: list of
    matching (N_R, N_s) measurement matrices. Returns (h_tilde, a_tilde).
    """
    if len(rows) == 0 or len(rows) != len(mats):
        raise ValueError("rows and mats must be nonempty and aligned")
    for h, a in zip(rows, mats):
        if np.asarray(h).shape[0] != np.asarray(a).shape[0]:
            raise ValueError("row/matrix block shapes disagree")
    return np.concatenate(rows), np.vstack(mats)


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
            parts = ln.split()
            if len(parts) != 3:
                raise ValueError(f"{path}: malformed position line: {ln!r}")
            sections[current].append([float(p) for p in parts])
    for name, pts in sections.items():
        if not pts:
            raise ValueError(f"{path}: missing or empty section {name!r}")
    return Geometry(
        np.array(sections["users"]), np.array(sections["ap"]), np.array(sections["irs"])
    )

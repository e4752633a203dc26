"""Room voxelization and sparse scatterer fields.

The room is cut into identical cuboid voxels. The environment is a vector of
per-voxel scattering coefficients in [0, 1]; empty voxels are exactly 0.
Voxel indices run x fastest: numpy's Fortran order over (nx, ny, nz).
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RoomSpec",
    "ScattererField",
    "voxel_centers",
    "random_scene",
    "save_scene",
    "load_scene",
]

_DIV_TOL = 1e-9
# voxels in the largest grid whose float64 values one array can hold
_MAX_VOXELS = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class RoomSpec:
    """Room dimensions and voxel dimensions, all in meters.

    Each dimension must be positive and finite, each room dimension an
    exact integer multiple (at least one) of the matching voxel dimension,
    and one array must be able to hold the grid's values.
    """

    room_dims: tuple  # (Lx, Ly, Lz)
    voxel_dims: tuple  # (lx, ly, lz)
    grid_shape: tuple = field(init=False, repr=False, compare=False)  # (nx, ny, nz)

    def __post_init__(self):
        room = tuple(float(v) for v in self.room_dims)
        vox = tuple(float(v) for v in self.voxel_dims)
        if len(room) != 3 or len(vox) != 3:
            raise ValueError("room_dims and voxel_dims must have 3 entries")
        if not all(0 < v < math.inf for v in room + vox):
            raise ValueError("room and voxel dimensions must be positive and finite")
        shape = []
        for L, l in zip(room, vox):
            n = L / l
            if abs(n - round(n)) > _DIV_TOL * max(1.0, n):
                raise ValueError(
                    f"room dimension {L} is not an integer multiple of voxel dimension {l}"
                )
            if round(n) < 1:
                raise ValueError(f"room dimension {L} holds no voxel of dimension {l}")
            shape.append(round(n))
        object.__setattr__(self, "room_dims", room)
        object.__setattr__(self, "voxel_dims", vox)
        object.__setattr__(self, "grid_shape", tuple(shape))
        if self.n_voxels > _MAX_VOXELS:
            raise ValueError(f"grid {self.grid_shape} has more voxels than an array can hold")

    @property
    def n_voxels(self):
        return math.prod(self.grid_shape)


def voxel_centers(spec: RoomSpec):
    """All voxel centers as an (N_s, 3) array, in index order."""
    cells = np.unravel_index(np.arange(spec.n_voxels), spec.grid_shape, order="F")
    return np.stack([(i + 0.5) * l for i, l in zip(cells, spec.voxel_dims)], axis=1)


@dataclass
class ScattererField:
    """Per-voxel scattering coefficients x with 0 <= x <= 1."""

    spec: RoomSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.spec.n_voxels,):
            raise ValueError(
                f"expected {self.spec.n_voxels} values, got shape {v.shape}"
            )
        if np.any(v < 0) or np.any(v > 1):
            raise ValueError("scattering coefficients must lie in [0, 1]")
        self.values = v


def random_scene(spec: RoomSpec, sparsity: float, seed=None) -> ScattererField:
    """Random sparse scene: ceil(sparsity * N_s) voxels get values uniform in (0, 1].

    Deterministic given seed. Positions are drawn without replacement.
    """
    if not 0 < sparsity <= 1:
        raise ValueError(f"sparsity must lie in (0, 1], got {sparsity}")
    rng = np.random.default_rng(seed)
    n = spec.n_voxels
    k = math.ceil(sparsity * n)
    idx = rng.choice(n, size=k, replace=False)
    vals = np.zeros(n)
    # 1 - U[0,1) lies in (0, 1]
    vals[idx] = 1.0 - rng.random(k)
    return ScattererField(spec, vals)


def save_scene(path, fld: ScattererField):
    """Write a scene file: header line, then one line per nonzero voxel."""
    L = fld.spec.room_dims
    l = fld.spec.voxel_dims
    with open(path, "w") as f:
        f.write(
            "room %.17g %.17g %.17g voxel %.17g %.17g %.17g\n"
            % (L[0], L[1], L[2], l[0], l[1], l[2])
        )
        idx = np.flatnonzero(fld.values)
        for i, *cell in zip(idx, *np.unravel_index(idx, fld.spec.grid_shape, order="F")):
            f.write("%d %d %d %.17g\n" % (*cell, fld.values[i]))


def load_scene(path, spec: RoomSpec | None = None) -> ScattererField:
    """Read a scene file. If spec is given, the file header must match it."""
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty scene file")
    head = lines[0].split()
    if len(head) != 8 or head[0] != "room" or head[4] != "voxel":
        raise ValueError(f"{path}: malformed scene header: {lines[0]!r}")
    try:
        file_spec = RoomSpec(
            tuple(float(x) for x in head[1:4]), tuple(float(x) for x in head[5:8])
        )
    except ValueError as exc:
        raise ValueError(f"{path}: scene header {lines[0]!r}: {exc}") from None
    if spec is not None and file_spec != spec:
        raise ValueError(
            f"{path}: scene room {file_spec.room_dims} voxel {file_spec.voxel_dims} "
            f"does not match the expected room {spec.room_dims} voxel {spec.voxel_dims}"
        )
    spec = file_spec
    nx, ny, nz = spec.grid_shape
    vals = np.zeros(spec.n_voxels)
    seen = set()
    for ln in lines[1:]:
        try:
            *index, v = ln.split()
            ix, iy, iz = (int(p) for p in index)
            v = float(v)
        except ValueError:  # a malformed number or not four fields
            raise ValueError(f"{path}: malformed voxel line: {ln!r}") from None
        if not (0 <= ix < nx and 0 <= iy < ny and 0 <= iz < nz):
            raise ValueError(f"{path}: voxel index out of range: {ln!r}")
        if not 0 <= v <= 1:
            raise ValueError(f"{path}: scattering coefficient {v} outside [0, 1]")
        i = np.ravel_multi_index((ix, iy, iz), spec.grid_shape, order="F")
        if i in seen:
            raise ValueError(f"{path}: voxel listed twice: {ln!r}")
        seen.add(i)
        vals[i] = v
    return ScattererField(spec, vals)

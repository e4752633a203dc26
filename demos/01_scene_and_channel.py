"""Build a voxelized room, drop a sparse scatterer scene into it, and look
at the three-part uplink channel: the direct line-of-sight ray, the ray
bounced off the reflecting surface, and the part scattered by the scene.

The scattered part is linear in the scene vector x, which is what makes
compressed-sensing imaging of the room possible later on.
"""

import numpy as np

from jcas.channel import (
    OreGrid,
    PacketChannel,
    calibrate_links,
    composite_channel,
    los_links,
    random_binary_pattern,
)
from jcas.harness import default_geometry
from jcas.scene import RoomSpec, random_scene

# a 4 m x 4 m x 4 m room cut into 0.5 m voxels -> 512 scene unknowns
spec = RoomSpec((4.0, 4.0, 4.0), (0.5, 0.5, 0.5))
truth = random_scene(spec, sparsity=0.015, seed=0)
print(f"room: {spec.n_voxels} voxels, {int(np.count_nonzero(truth.values))} scatterers")

geom = default_geometry(n_users=6, n_antennas=8, room=spec.room_dims, seed=0)
grid = OreGrid.uniform_band(4)
irs = random_binary_pattern(geom.irs.shape[0], packet=0, seed=0)
links = calibrate_links(los_links(geom, spec, grid), irs, expected_scatterers=8)

# composite channel on ORE 0: direct + surface bounce + scene scatter
h = composite_channel(links, irs, truth.values, r=0)
h_empty = composite_channel(links, irs, np.zeros(spec.n_voxels), r=0)
scatter = h - h_empty
print(f"channel shape (users x antennas): {h.shape}")
print(f"|direct+surface| RMS: {np.sqrt(np.mean(abs(h_empty) ** 2)):.3f}")
print(f"|scattered|      RMS: {np.sqrt(np.mean(abs(scatter) ** 2)):.3f}")

# the scattered part is exactly linear in x: doubling the scene doubles it
ch = PacketChannel(links, irs)
s1 = ch.scatter(truth.values)[0]
s2 = ch.scatter(2.0 * truth.values)[0]
print(f"linearity |s(2x) - 2 s(x)|: {np.max(abs(s2 - 2 * s1)):.2e}")

# a different surface pattern gives a different scatter signature -- this
# per-packet diversity is what lets a stream of packets image the room
irs2 = random_binary_pattern(geom.irs.shape[0], packet=1, seed=0)
s_alt = PacketChannel(links, irs2).scatter(truth.values)[0]
corr = abs(np.vdot(s1.ravel(), s_alt.ravel())) / (
    np.linalg.norm(s1) * np.linalg.norm(s_alt)
)
print(f"pattern-to-pattern scatter correlation: {corr:.3f} (diverse when << 1)")

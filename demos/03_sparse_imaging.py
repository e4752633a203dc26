"""Image the room from communication signals alone. A few packets with
known (pilot) symbols are transmitted; per-ORE channels are estimated by
least squares, the known direct and surface parts are subtracted, and the
sparse scene is recovered from the stacked scattered components by
approximate message passing with a spike-and-slab prior.

The window sweep at the end shows the estimate sharpening as more packets
(each with a fresh surface pattern) are stacked.
"""

import numpy as np

from jcas.channel import OreGrid, PacketChannel, calibrate_links, los_links, random_binary_pattern
from jcas.gamp import PriorParams
from jcas.harness import default_geometry
from jcas.scene import RoomSpec, random_scene
from jcas.scma import default_codebook
from jcas.sensing import PacketRecord, sense
from jcas.transceiver import noise_sigma, random_frame, transmit

spec = RoomSpec((4.0, 4.0, 4.0), (0.5, 0.5, 0.5))
truth = random_scene(spec, sparsity=0.015, seed=3)
geom = default_geometry(n_users=6, n_antennas=8, room=spec.room_dims, seed=3)
grid = OreGrid.uniform_band(4)
links = calibrate_links(
    los_links(geom, spec, grid),
    random_binary_pattern(geom.irs.shape[0], 0, 3),
    expected_scatterers=8,
)
cb = default_codebook()
sigma2 = noise_sigma(10.0, cb)
prior = PriorParams(lam=8 / spec.n_voxels, theta=0.5, sigma_x=0.1)

def make_packet(k):
    ch = PacketChannel(links, random_binary_pattern(geom.irs.shape[0], k, 3))
    frame = random_frame(64, cb, k, 3)
    rx = transmit(frame, ch.channel(truth.values), cb, sigma2, seed=(5, k))
    return PacketRecord(rx, frame, ch)

print("window sweep (pilot symbols, 10 dB):")
records = []
for k in range(1, 11):
    records.append(make_packet(k))
    info = sense(records, cb, prior)
    x_hat = info.x
    err = float(np.mean((x_hat - truth.values) ** 2))
    print(f"  {k:2d} packet(s): MSE {err:.3e}  ({info.iterations} solver iterations)")

actual = np.flatnonzero(truth.values > 0)
found = np.sort(np.argsort(x_hat)[-len(actual) :])
print(f"\nstrongest {len(actual)} voxels: {found.tolist()}")
print(f"true scatterers:      {actual.tolist()}")

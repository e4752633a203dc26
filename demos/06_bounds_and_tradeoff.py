"""Analytical companions to the simulations: the parametric compressed-
sensing accuracy bound, a Monte-Carlo union bound on the symbol error
rate (checked against a measured error rate), and the combined-objective
selector that picks an operating user count from sweep results.
"""

import numpy as np

from jcas.metrics import BoundParams, cs_bound, mse, operating_point, ser_union_bound
from jcas.mpa import ml_decode, ser
from jcas.scma import build_codebook
from jcas.transceiver import noise_sigma, random_frame, transmit

# -- imaging accuracy bound: decays as the measurement budget grows --------
print("CS accuracy bound vs number of stacked packets (c=1, R_p=1, p=1):")
for n_f in (2, 5, 10, 20):
    bp = BoundParams(1.0, 1.0, 1.0, n_users=6, n_antennas=8, n_window=n_f, n_voxels=512)
    print(f"  n_f={n_f:3d}: {cs_bound(bp):.4f}")

# -- union bound on SER, validated against a measured rate -----------------
cb = build_codebook(2, 2, m=2, d_v=2)
h = np.ones((2, 2, 1), dtype=complex)
h[:, 1, 0] = [1j, -1j]
sigma2 = noise_sigma(6.0, cb)

bound = ser_union_bound(cb, lambda rng: h, sigma2, samples=200)
frame = random_frame(100_000, cb, 0, 1)
rx = transmit(frame, h, cb, sigma2, seed=2)
measured = ser(ml_decode(rx, h, cb).indices, frame)
print(f"\n2-user toy at 6 dB: union bound {bound:.5f} >= measured {measured:.5f}")

# residual channel-estimation error enters the bound as extra interference
loose = ser_union_bound(cb, lambda rng: h, sigma2, samples=200, d_interference=0.1)
print(f"with imaging-residual interference D=0.1: bound {loose:.5f}")

# -- picking the operating user count from (n_users, mse, ser) sweeps ------
sweep = [
    (4, 0.40, 0.010),
    (8, 0.22, 0.012),
    (12, 0.15, 0.020),
    (16, 0.16, 0.045),
    (20, 0.21, 0.090),
]
print("\ncombined objective a1*MSE + a2*SER over a user sweep:")
for a1, a2 in ((1.0, 1.0), (1.0, 10.0), (0.1, 1.0)):
    pick = operating_point(sweep, a1, a2)
    print(f"  a1={a1:4.1f} a2={a2:4.1f} -> operate at {pick} users")

print(f"\nmse plug-in check: mse([1,0,0,0],[0,0,0,0]) = {mse([1,0,0,0],[0,0,0,0])}")

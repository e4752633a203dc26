"""Sparse-code multiple access in isolation: six users share four orthogonal
resource elements, each spreading over two of them. The message-passing
decoder on the factor graph is compared against brute-force maximum
likelihood, then a small SNR sweep shows the usual error-rate waterfall.
"""

import numpy as np

from jcas.mpa import ml_decode, mpa_decode, ser
from jcas.scma import default_codebook, factor_graph
from jcas.transceiver import noise_sigma, random_frame, transmit

cb = default_codebook()
fg = factor_graph(cb)
print(f"codebook: {cb.n_users} users, {cb.n_ores} OREs, M={cb.m}, d_v={cb.d_v}")
print(f"per-ORE collision load: {[len(u) for u in fg.lambda_r]}")

rng = np.random.default_rng(1)
h = rng.normal(size=(cb.n_ores, cb.n_users, 2)).view(complex) / np.sqrt(2)
h = h.reshape(cb.n_ores, cb.n_users, 1)

frame = random_frame(2000, cb, packet=0, seed=2)
sigma2 = noise_sigma(10.0, cb)
rx = transmit(frame, h, cb, sigma2, seed=3)

mp = mpa_decode(rx, h, cb, sigma2, k_it=10)
ml = ml_decode(rx, h, cb)
agree = float(np.mean(mp.indices == ml.indices))
print(f"\n10 dB, 2000 slots: MPA vs exhaustive ML agreement {agree:.4f}")
print(f"  MPA SER {ser(mp.indices, frame):.4f}, "
      f"ML SER {ser(ml.indices, frame):.4f}")

print("\nSNR sweep (message passing):")
for db in (0.0, 4.0, 8.0, 12.0):
    s2 = noise_sigma(db, cb)
    r = transmit(frame, h, cb, s2, seed=4)
    d = mpa_decode(r, h, cb, s2, k_it=10)
    print(f"  {db:4.0f} dB  SER {ser(d.indices, frame):.4f}")

"""Time the IRS products of a packet's channel per packet, by block length.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/channel_timing.py [--rounds 5]

For the links of each benchmark corpus (see corpus.py; the first run of
each), it stacks the weighted IRS-AP links W = [theta_k * h_s1] of B binary
patterns into one (R, N_I, B*N_R) array and times, in interleaved rounds
over the workloads and B = 1, 2, 4, 8, 16:
- `h_s2 @ W`, the scatter operator's GEMM, alone;
- the whole build, `PacketChannel.block(links, patterns)`.
It prints, per workload, the link shape, the median over the rounds of the
milliseconds per packet of each at each B, and the block length the
closed loop's runner picks (max(1, joint._BLOCK_COLUMNS // N_R), capped at
the run's packets). It runs the jcas on PYTHONPATH, so this one script
times any two checkouts:

    PYTHONPATH=../parent/src python tools/channel_timing.py
    PYTHONPATH=src python tools/channel_timing.py

Set one BLAS thread, as loopbench does, for figures comparable with its
runs. Report only: nothing asserts.
"""

import argparse
import statistics
import time

import numpy as np

from corpus import WORKLOADS, corpus_systems

BLOCKS = (1, 2, 4, 8, 16)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rounds", type=int, default=5, help="interleaved timing rounds")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")

    from jcas import joint
    from jcas.channel import PacketChannel, random_binary_pattern

    systems = {w: next(corpus_systems(w)) for w in WORKLOADS}
    cases = {}  # (workload, B) -> (links, patterns, W)
    for w, (_, links, _, _, jc) in systems.items():
        n_i = links.h_s1.shape[1]
        for b in BLOCKS:
            patterns = [random_binary_pattern(n_i, p, jc.seed) for p in range(1, b + 1)]
            theta = np.stack([irs.coefficients for irs in patterns], axis=1)
            w_stack = (theta[:, :, None] * links.h_s1[:, :, None, :]).reshape(links.n_ores, n_i, -1)
            cases[w, b] = links, patterns, w_stack

    gemm_ms = {case: [] for case in cases}
    build_ms = {case: [] for case in cases}
    for _ in range(args.rounds):
        for case, (links, patterns, w_stack) in cases.items():
            b = case[1]
            t0 = time.perf_counter()
            links.h_s2 @ w_stack
            t1 = time.perf_counter()
            PacketChannel.block(links, patterns)
            t2 = time.perf_counter()
            gemm_ms[case].append((t1 - t0) * 1e3 / b)
            build_ms[case].append((t2 - t1) * 1e3 / b)

    print(f"ms per packet, median of {args.rounds} rounds, B = " + " / ".join(map(str, BLOCKS)))
    for w, (_, links, _, _, jc) in systems.items():
        n_r = links.n_antennas
        runner_b = max(1, min(joint._BLOCK_COLUMNS // n_r, jc.n_packets))
        print(
            f"{w} (R {links.n_ores}, N_u {links.n_users}, N_R {n_r}, N_I {links.h_s1.shape[1]}, "
            f"N_s {links.n_voxels}): runner block {runner_b} packets"
        )
        for name, ms in (("h_s2 @ W", gemm_ms), ("PacketChannel.block", build_ms)):
            cells = " / ".join(f"{statistics.median(ms[w, b]):.3f}" for b in BLOCKS)
            print(f"  {name}: {cells}")


if __name__ == "__main__":
    main()

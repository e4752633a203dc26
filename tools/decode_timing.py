"""Time mpa_decode per decode on the captured inputs of the benchmark corpora.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/decode_timing.py [--rounds 7]

Runs the closed loop once over each benchmark corpus (see corpus.py: each
trial of `converge` and `crowded`, trial 0 of each `sweep` point), recording
the arguments of every mpa_decode call the loop makes, self-iterations and
feedback included.
Then it replays the recorded inputs in interleaved rounds (converge, crowded,
sweep, converge, ...) and prints, per workload, the number of decodes, the
largest degree group's table entries (G * M^L * B) and whether they reach
the size at which a decode uses a helper thread, and the median over the
rounds of the mean milliseconds per decode, with the fastest and slowest
round. It runs the jcas on PYTHONPATH, so this one script times any two
checkouts:

    PYTHONPATH=../parent/src python tools/decode_timing.py
    PYTHONPATH=src python tools/decode_timing.py

Set one BLAS thread, as loopbench does, for figures comparable with its
runs. Report only: nothing asserts.
"""

import argparse
import statistics
import time

from corpus import WORKLOADS, corpus_runs


def capture(workload):
    """The (y, h, cb, sigma2, k_it) of every mpa_decode call of one pass over
    a workload's corpus, in call order; for `sweep`, trial 0 of each point."""
    from jcas import joint

    calls = []
    decode = joint.mpa_decode

    def record(y, h, cb, sigma2, k_it=10):
        calls.append((y.copy(), h.copy(), cb, sigma2, k_it))
        return decode(y, h, cb, sigma2, k_it)

    joint.mpa_decode = record
    try:
        for _ in corpus_runs(workload):
            pass
    finally:
        joint.mpa_decode = decode
    return calls


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rounds", type=int, default=7, help="interleaved replay rounds")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")

    from jcas import mpa

    calls = {w: capture(w) for w in WORKLOADS}
    ms = {w: [] for w in WORKLOADS}
    for _ in range(args.rounds):
        for w in WORKLOADS:
            t0 = time.perf_counter()
            for y, h, cb, sigma2, k_it in calls[w]:
                mpa.mpa_decode(y, h, cb, sigma2, k_it)
            ms[w].append((time.perf_counter() - t0) * 1e3 / len(calls[w]))
    threshold = getattr(mpa, "_THREAD_ENTRIES", None)  # None before the helper thread
    for w in WORKLOADS:
        # G * M^L * B of the largest degree group, as mpa_decode counts it
        entries = max(
            y.shape[0] * y.shape[2] * max(len(fns) * cw.shape[2] for fns, _, cw in cb._edges.groups)
            for y, _, cb, _, _ in calls[w]
        )
        helper = threshold is not None and entries >= threshold
        print(
            f"{w}: {len(calls[w])} decodes, {entries} table entries, "
            f"{'helper thread' if helper else 'one thread'}, "
            f"median {statistics.median(ms[w]):.3f} ms per decode over {args.rounds} rounds "
            f"[{min(ms[w]):.3f}, {max(ms[w]):.3f}]"
        )


if __name__ == "__main__":
    main()

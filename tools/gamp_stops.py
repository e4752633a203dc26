"""Count how the closed loop's GAMP solves stop on the benchmark corpora.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/gamp_stops.py

Runs the closed loop once over each benchmark corpus (see corpus.py) and
prints, per workload, how its GAMP solves ended: settled (the residual or
the x-change rule, `converged`), stalled (not converged before the
iteration cap: the image change went `gamp._STALL` updates without a new
low), capped (not converged at the cap) or diverged (GampDivergence, whose
updates count too); then the total GAMP updates and each run's final
MSE (each trial's; for `sweep`, each point's). It runs the jcas on
PYTHONPATH, so this one script reports on any two checkouts:

    PYTHONPATH=../parent/src python tools/gamp_stops.py
    PYTHONPATH=src python tools/gamp_stops.py

Report only: nothing asserts.
"""

import inspect

from corpus import WORKLOADS, corpus_runs


def stops(workload):
    """({stop: count}, GAMP updates, [final MSE per run]) of one corpus pass."""
    from jcas import sensing
    from jcas.gamp import GampDivergence

    solve = sensing.gamp_solve
    cap = inspect.signature(solve).parameters["max_iter"].default
    counts = dict.fromkeys(("settled", "stalled", "capped", "diverged"), 0)
    updates = 0

    def record(*args, **kwargs):
        nonlocal updates
        try:
            res = solve(*args, **kwargs)
        except GampDivergence as exc:
            counts["diverged"] += 1
            updates += exc.iteration
            raise
        updates += res.iterations
        if res.converged:
            counts["settled"] += 1
        else:
            counts["capped" if res.iterations >= kwargs.get("max_iter", cap) else "stalled"] += 1
        return res

    sensing.gamp_solve = record
    try:
        finals = [run.packets[-1].mse for run in corpus_runs(workload)]
    finally:
        sensing.gamp_solve = solve
    return counts, updates, finals


def main():
    for w in WORKLOADS:
        counts, updates, finals = stops(w)
        print(
            f"{w}: {sum(counts.values())} solves, "
            + ", ".join(f"{n} {stop}" for stop, n in counts.items())
            + f"; {updates} GAMP updates; final MSE per run "
            + " ".join(f"{mse:.12g}" for mse in finals)
        )


if __name__ == "__main__":
    main()

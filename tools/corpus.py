"""One closed-loop pass over a benchmark corpus, shared by the report scripts.

The corpora are those of loopbench/worker.py (its `configs`, `WORKLOADS` and
`SWEEP_VALUES`): every trial of the `converge` and `crowded` corpora, and
trial 0 of each `sweep` point. The pass runs the jcas on PYTHONPATH, so a
script built on it reports on any checkout. A script that wants to see the
calls the loop makes patches the module attribute the loop calls through
(`jcas.joint.mpa_decode`, `jcas.sensing.gamp_solve`) around the pass.
"""

import os
import sys

LOOPBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "loopbench")
WORKLOADS = ("converge", "crowded", "sweep")


def corpus_systems(workload):
    """Yield build_system's (truth, links, codebook, prior, joint config) of
    each run of a workload's corpus, building each when it is asked for."""
    from jcas import harness

    sys.path.insert(0, LOOPBENCH)
    try:
        from worker import SWEEP_VALUES, WORKLOADS as CORPORA, configs
    finally:
        sys.path.remove(LOOPBENCH)
    cfg, value = configs(workload)
    values = SWEEP_VALUES if value is None else (value,)
    for value in values:
        for trial in range(CORPORA[workload][1]):
            yield harness.build_system(cfg, value, trial)


def corpus_runs(workload):
    """Yield the RunTrace of each run of one pass over a workload's corpus,
    running each when it is asked for."""
    from jcas import joint

    for system in corpus_systems(workload):
        yield joint.JointRunner(*system).run()

"""The benchmark's tracer keeps working on the jcas it wraps.

loopbench/tracer.py wraps only the plain functions in a jcas module's
`__all__` (and the JointRunner methods it lists), and loopbench/worker.py
reports a metric whose span never ran as absent, so renaming or deleting
such a function silently drops benchmark metrics. The tracer's observers
read parameters, results and exception attributes of the functions they
wrap; if one of those reads raises, a traced run fails its trials. worker.py
and tracer.py import only the standard library and numpy at module level, so
loading them here runs no benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import jcas.gamp
from jcas.gamp import GampDivergence, PriorParams
from jcas.harness import ExperimentConfig, build_system
from jcas.joint import JointConfig, JointRunner

LOOPBENCH = Path(__file__).resolve().parents[1] / "loopbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"loopbench_{name}", LOOPBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layer_spans():
    worker = _load("worker")
    return sorted({span for span, _ in worker.LAYER_METRICS.values()})


def test_benchmark_spans_name_traceable_functions():
    spans = _layer_spans()
    assert spans
    missing = []
    for span in spans:
        mod, *path = span.split(".")
        module = importlib.import_module(f"jcas.{mod}")
        if len(path) == 1:
            ok = path[0] in module.__all__ and inspect.isfunction(getattr(module, path[0], None))
        else:
            cls_name, meth = path
            ok = inspect.isfunction(getattr(getattr(module, cls_name), meth, None))
        if not ok:
            missing.append(span)
    assert missing == [], f"benchmark spans with no traceable function: {missing}"


def test_tracer_observers_read_what_the_loop_gives_them():
    """A traced closed loop with self-iteration and feedback runs clean, and
    a traced GAMP divergence escapes as itself; every observed counter moves."""
    cfg = ExperimentConfig(
        sweep="packets", values=(6,), trials=1, seed=2, n_antennas=4,
        joint=JointConfig(n_f=4, n_b=1, k_s=2, ebn0_db=6.0),
    )
    tracer = _load("tracer").Tracer()
    try:
        tracer.install()
        JointRunner(*build_system(cfg, 6, 0)).run()
        # an identity system started next to its fit: the sparse prior pulls
        # the image to zero, so the residual stays above 10x its start (the
        # target sits below the start, where the noise floor would not)
        y = np.full(4, 1e-3)
        eps_t = 1e-12 * float(np.sum(y**2)) + 1e-30
        with pytest.raises(GampDivergence):
            jcas.gamp.gamp_solve(
                np.eye(4), y, PriorParams(0.05, 0.5, 0.1), 1e-2, eps_t=eps_t, x0=y + 1e-6
            )
    finally:
        tracer.uninstall()
    moved = (
        "gamp.iterations", "gamp.diverged", "mpa.table_entries",
        "joint.self_iterations", "joint.feedback_decodes",
    )
    assert {name: tracer.counts[name] > 0 for name in moved} == dict.fromkeys(moved, True)

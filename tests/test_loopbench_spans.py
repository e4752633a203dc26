"""Every per-layer span the benchmark reads names a function its tracer can wrap.

loopbench/tracer.py wraps only the plain functions in a jcas module's
`__all__` (and the JointRunner methods it lists), and loopbench/worker.py
reports a metric whose span never ran as absent, so renaming or deleting
such a function silently drops benchmark metrics. worker.py imports only the
standard library at module level, so loading it here runs no benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "loopbench" / "worker.py"


def _layer_spans():
    spec = importlib.util.spec_from_file_location("loopbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
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

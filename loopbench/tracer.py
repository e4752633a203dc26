"""Outside-in spans around the public functions of the jcas modules.

`Tracer.install()` replaces every public function of every jcas module (its
`__all__` entries that are plain functions) with a timing wrapper, in every
jcas module namespace that bound it (so `from .mpa import mpa_decode` inside
`jcas.joint` is wrapped too), plus the `JointRunner.forward_step` and
`JointRunner.feedback` methods. A function that does not exist is simply not
wrapped; its metrics are reported as absent.

Spans nest: a span's self time is its duration minus the time its child spans
cover. Stats are aggregated per span name in memory and read once at the end.
"""

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = (
    "scene", "channel", "scma", "transceiver", "mpa",
    "gamp", "sensing", "joint", "harness", "metrics",
)
METHODS = (("joint", "JointRunner", "forward_step"), ("joint", "JointRunner", "feedback"))


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> _Stat
        self.counts = {
            "gamp.rows": 0, "gamp.iterations": 0, "gamp.converged": 0,
            "gamp.diverged": 0, "mpa.table_entries": 0,
            "joint.feedback_decodes": 0, "joint.self_iterations": 0,
        }
        self._stack = []  # (span name, child seconds) of the open spans
        self._undo = []  # (owner, attribute, original)
        self._observers = {
            "gamp.gamp_solve": self._on_gamp,
            "mpa.mpa_decode": self._on_decode,
            "joint.JointRunner.forward_step": self._on_forward,
        }

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {}
        for short in MODULES:
            try:
                mods[short] = importlib.import_module(f"jcas.{short}")
            except ImportError:
                continue
        wrapped = {}  # id(original) -> wrapper
        for short, mod in mods.items():
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(f"{short}.{name}", fn)
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and inspect.isfunction(val):
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapped[id(val)])
        for short, cls_name, meth in METHODS:
            cls = getattr(mods.get(short), cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if inspect.isfunction(fn):
                self._undo.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))
        return self

    def uninstall(self):
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        observe = self._observers.get(name)
        sig = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append([name, 0.0])
            t0 = time.perf_counter()
            result, exc = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = time.perf_counter() - t0
                _, child = stack.pop()
                stat.calls += 1
                stat.total += dt
                stat.self += dt - child
                if stack:
                    stack[-1][1] += dt
                if observe is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(bound.arguments, result, exc)

        return span

    # -- counters observed at the span boundaries --------------------------

    def _inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def _on_gamp(self, args, result, exc):
        self.counts["gamp.rows"] += len(args["y"])
        if exc is not None:
            if type(exc).__name__ == "GampDivergence":
                self.counts["gamp.diverged"] += 1
                self.counts["gamp.iterations"] += int(exc.iteration)
            return
        self.counts["gamp.iterations"] += int(result.iterations)
        self.counts["gamp.converged"] += bool(result.converged)

    def _on_decode(self, args, result, exc):
        if exc is not None:
            return
        if self._inside("joint.JointRunner.feedback"):
            self.counts["joint.feedback_decodes"] += 1
        y, cb = args["y"], args["cb"]
        # sum over OREs of M^{L_r}, L_r = users with codewords on ORE r
        fn_entries = sum(
            cb.m ** sum(bool(np.any(m[r] != 0)) for m in cb.matrices)
            for r in range(cb.n_ores)
        )
        n_t = 1 if np.ndim(y) == 2 else np.shape(y)[0]
        self.counts["mpa.table_entries"] += args["k_it"] * n_t * np.shape(y)[-1] * fn_entries

    def _on_forward(self, args, result, exc):
        if exc is None:
            self.counts["joint.self_iterations"] += int(result.ks_used)

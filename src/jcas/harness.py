"""Experiment harness: seeded sweeps over SNR, user count, momentum or
packet budget, with deterministic CSV and point-cloud outputs.

Config files are INI-style (configparser) with [experiment], [scenario] and
[joint] sections; see ExperimentConfig.from_file. A ";" at the start of a
value or after whitespace starts a comment; "%" is literal. Child seeds are
a pure function of (master seed, sweep value, trial): the sweep value is
keyed as round(value * 1000) so float axes (dB, momentum) stay stable.
Sweep values must be finite, and user counts and packet budgets whole
numbers; every value is checked as its point's JointConfig when the config
is built, so a value no point can run is a config error.

The [scenario] fields are the one source of every scenario quantity. A
scene, codebook or geometry file that a config names is read once per
config, before any point runs (ExperimentConfig.files), and must agree with
those fields; every point then uses the file's object in place of a
generated one.

Outputs per run: trace.csv (one row per packet of every trial), summary.csv
(median / inter-quartile range over trials per sweep value),
scene_<axis>_<value>.txt (the final image of trial 0, scene file format;
none for a value whose trial 0 failed) and, only when a sweep point
failed, failures.csv (one row per failed point: axis, value, trial, error
type and message). Wall-time columns are omitted unless record_timing is
set, keeping repeated runs byte-identical.

The (value, trial) points run in a process pool with one worker per CPU the
process may use (limit them with taskset). Every output is written by the
calling process in (value, trial) order, so no output depends on the number
of workers.
"""

import configparser
import csv
import ctypes
import itertools
import os
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channel import (
    Geometry,
    OreGrid,
    calibrate_links,
    los_links,
    load_geometry,
    random_binary_pattern,
)
from .gamp import PriorParams
from .joint import JointConfig, JointRunner, RunTrace
from .scene import RoomSpec, ScattererField, load_scene, random_scene, save_scene
from .scma import build_codebook, load_codebook

__all__ = [
    "ExperimentConfig",
    "SweepError",
    "child_seed",
    "default_geometry",
    "build_system",
    "PointResult",
    "run_points",
    "run_experiment",
    "compare_traces",
]

TRACE_SCHEMA = "jcas-trace-v1"
SUMMARY_SCHEMA = "jcas-summary-v1"
FAILURES_SCHEMA = "jcas-failures-v1"

_SWEEP_AXES = ("ebn0_db", "n_users", "mu", "packets")
# ExperimentConfig fields read from [experiment]; the others but joint are
# [scenario] keys
_EXPERIMENT_KEYS = ("sweep", "values", "trials", "seed", "output", "record_timing")
_IRS_SIDE = 20  # side of default_geometry's square IRS panel, in elements
# largest user count, packet count and number of candidate codebook
# supports a config may ask for
_MAX_RUN_SIZE = 10**6
# the PacketTrace fields trace.csv writes after (axis, value, trial), in
# column order; wall_ms follows them under record_timing
_TRACE_FIELDS = (
    "packet", "mse", "ser", "ser_post_feedback", "gate", "ks_used", "diverged",
)
# summary.csv and failures.csv columns; run_experiment builds rows in this order
_SUMMARY_COLUMNS = (
    "axis", "value", "trials", "mse_median", "mse_iqr",
    "ser_median", "ser_iqr", "ser_post_median",
)
_FAILURE_COLUMNS = ("axis", "value", "trial", "error", "message")


class SweepError(RuntimeError):
    """Every point of a sweep failed (see run_experiment)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: a scenario, a joint-loop config and an axis with values."""

    sweep: str = "packets"
    values: tuple = (30,)
    trials: int = 20
    seed: int = 1
    output: str = "out"
    record_timing: bool = False
    # scenario; a named file replaces the generated part and must agree
    # with the fields below (see files)
    scene: str | None = None
    geometry: str | None = None
    codebook: str | None = None
    n_users: int = 6
    n_ores: int = 4
    d_v: int = 2
    m: int = 4
    n_antennas: int = 16
    sparsity: float = 0.015
    room: tuple = (4.0, 4.0, 4.0)
    voxel: tuple = (0.5, 0.5, 0.5)
    joint: JointConfig = field(default_factory=JointConfig)

    def __post_init__(self):
        if self.sweep not in _SWEEP_AXES:
            raise ValueError(f"sweep axis must be one of {_SWEEP_AXES}")
        if not self.values:
            raise ValueError("need at least one sweep value")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 < self.sparsity < 1:
            raise ValueError("sparsity must lie in (0, 1)")
        for name in ("n_users", "n_ores", "n_antennas"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name, value in (("n_users", self.n_users), ("joint.n_packets", self.joint.n_packets)):
            if value > _MAX_RUN_SIZE:
                raise ValueError(f"{name} = {value} exceeds the run-size bound {_MAX_RUN_SIZE}")
        if not 1 <= self.d_v <= self.n_ores:
            raise ValueError(f"d_v must lie in [1, n_ores={self.n_ores}], got {self.d_v}")
        if self.codebook is None:
            # C(n_ores, d_v) supports, counted up only until the count passes the bound
            count = 1
            for i in range(min(self.d_v, self.n_ores - self.d_v)):
                count = count * (self.n_ores - i) // (i + 1)
                if count > _MAX_RUN_SIZE:
                    raise ValueError(
                        f"a generated codebook of d_v = {self.d_v} on n_ores = {self.n_ores} "
                        f"has C({self.n_ores}, {self.d_v}) candidate supports, above the "
                        f"run-size bound {_MAX_RUN_SIZE}"
                    )
        if self.m < 2:
            raise ValueError(f"m must be >= 2 codewords per user, got {self.m}")
        try:
            RoomSpec(self.room, self.voxel)
        except ValueError as exc:
            raise ValueError(f"room {self.room} and voxel {self.voxel}: {exc}") from exc
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.joint.seed != JointConfig.seed:
            raise ValueError("joint.seed is set per point from the master seed, not here")
        for value in self.values:
            if not abs(value) <= 1e300:  # child_seed keys on round(value * 1000)
                raise ValueError(f"sweep values must be finite (|v| <= 1e300), got {self.values}")
            if self.sweep in ("n_users", "packets") and not float(value).is_integer():
                raise ValueError(
                    f"{self.sweep} sweep values must be whole numbers, got {self.values}"
                )
            if self.sweep == "n_users" and value < 1:
                raise ValueError(f"n_users sweep values must be >= 1, got {self.values}")
            if self.sweep in ("n_users", "packets") and value > _MAX_RUN_SIZE:
                raise ValueError(
                    f"{self.sweep} sweep value {value:.12g} exceeds the run-size bound "
                    f"{_MAX_RUN_SIZE}"
                )
            try:
                _sweep_point(self, value)
            except ValueError as exc:
                raise ValueError(f"sweep value {self.sweep} = {value}: {exc}") from None

    @cached_property
    def files(self):
        """(scene, codebook, geometry) read from the files this config names,
        None for each it does not name; read on first use, then cached (a
        pickled config carries them).

        Raises OSError for a file that cannot be read, and ValueError when a
        file disagrees with a [scenario] field, naming the file, the field and
        both values, or when the geometry file's links are degenerate in the
        config's room (see los_links). A codebook or geometry file fixes the
        user count, so neither can be swept over n_users.
        """
        for name in ("codebook", "geometry"):
            if getattr(self, name) and self.sweep == "n_users":
                raise ValueError(
                    f"{name} file {getattr(self, name)}: the file fixes n_users, "
                    "so sweep cannot be n_users"
                )
        scene = cb = geom = None
        counts = []  # (file kind, field, the file's value)
        if self.scene:
            scene = load_scene(self.scene, RoomSpec(self.room, self.voxel))
        if self.codebook:
            cb = load_codebook(self.codebook)
            counts += [("codebook", k, getattr(cb, k)) for k in ("n_users", "n_ores", "m", "d_v")]
        if self.geometry:
            geom = load_geometry(self.geometry)
            counts += [("geometry", "n_users", geom.n_users)]
            counts += [("geometry", "n_antennas", geom.n_antennas)]
        for kind, name, in_file in counts:
            if in_file != getattr(self, name):
                raise ValueError(
                    f"{kind} file {getattr(self, kind)}: {name} is {in_file} in the "
                    f"file, {getattr(self, name)} in the config"
                )
        if geom is not None:
            try:
                los_links(geom, RoomSpec(self.room, self.voxel), OreGrid.uniform_band(self.n_ores))
            except ValueError as exc:
                raise ValueError(f"geometry file {self.geometry}: {exc}") from None
        return scene, cb, geom

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Read a config file; every key is read as its field's type. An
        unknown section or key, or a value that is not of its field's type,
        raises ValueError naming the file (and the section, key and value)."""
        cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
        with open(path) as f:
            cp.read_file(f)
        types = {f.name: f.type for f in fields(cls) if f.name != "joint"}
        sections = {
            "experiment": {k: types[k] for k in _EXPERIMENT_KEYS},
            "scenario": {k: t for k, t in types.items() if k not in _EXPERIMENT_KEYS},
            # a point's seed is its child_seed, so [joint] has no seed key
            "joint": {f.name: f.type for f in fields(JointConfig) if f.name != "seed"},
        }
        kw = {name: {} for name in sections}
        for name in cp.sections():
            if name not in sections:
                raise ValueError(f"{path}: unknown section [{name}]")
            for key in cp[name]:
                if key not in sections[name]:
                    raise ValueError(f"{path}: unknown [{name}] key {key!r}")
                try:
                    kw[name][key] = _parse_value(cp[name], key, sections[name][key])
                except ValueError as exc:
                    raise ValueError(
                        f"{path}: [{name}] {key} = {cp[name][key]!r}: {exc}"
                    ) from None
        try:
            return cls(
                **kw["experiment"], **kw["scenario"], joint=JointConfig(**kw["joint"])
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _parse_value(section, key, typ):
    """One config file value, read as the type of its dataclass field."""
    raw = section[key]
    if typ is bool:
        return section.getboolean(key)
    if typ is int:
        return int(raw)
    if typ in (float, float | None):
        return float(raw)
    if typ is tuple:
        vals = tuple(float(v) for v in raw.split())
        if key == "values":  # integral sweep values (users, packets) as int
            return tuple(int(v) if v.is_integer() else v for v in vals)
        return vals
    return raw  # str or str | None


def child_seed(master: int, value, trial: int) -> int:
    """Deterministic per-(sweep value, trial) seed; stable across releases.

    A negative value key (a sweep value below zero, say a negative SNR)
    enters as its magnitude and a fourth entropy word, so the seeds of the
    non-negative keys stay as they were.
    """
    k = int(round(float(value) * 1000))
    key = (int(master), k, int(trial)) if k >= 0 else (int(master), -k, int(trial), 1)
    return int(np.random.SeedSequence(key).generate_state(1, np.uint64)[0])


def default_geometry(n_users, n_antennas, room, seed) -> Geometry:
    """AP line array near one wall, square IRS panel of _IRS_SIDE^2 elements
    on the opposite wall, users scattered uniformly over the central floor
    area at 1 m height."""
    lx, ly, lz = room
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 17)))
    users = np.column_stack(
        [
            rng.uniform(0.15 * lx, 0.7 * lx, n_users),
            rng.uniform(0.15 * ly, 0.85 * ly, n_users),
            np.full(n_users, min(1.0, lz / 2)),
        ]
    )
    ap = np.column_stack(
        [
            np.full(n_antennas, 0.0125 * lx),
            np.linspace(0.2 * ly, 0.8 * ly, n_antennas),
            np.full(n_antennas, 0.75 * lz),
        ]
    )
    ii, jj = np.meshgrid(np.arange(_IRS_SIDE), np.arange(_IRS_SIDE), indexing="ij")
    span = 0.5 * min(ly, lz)
    y0, z0 = (ly - span) / 2, (lz - span) / 2
    step = span / (_IRS_SIDE - 1)
    irs = np.column_stack(
        [
            np.full(_IRS_SIDE**2, 0.9875 * lx),
            y0 + ii.ravel() * step,
            z0 + jj.ravel() * step,
        ]
    )
    return Geometry(users, ap, irs)


def _sweep_point(cfg: ExperimentConfig, value):
    """(user count, JointConfig) of the sweep point at value, before its
    child seed is set; the JointConfig checks the value."""
    n_users, jc = cfg.n_users, cfg.joint
    if cfg.sweep == "ebn0_db":
        jc = replace(jc, ebn0_db=float(value))
    elif cfg.sweep == "n_users":
        n_users = int(value)
    elif cfg.sweep == "mu":
        jc = replace(jc, mu=float(value))
    elif cfg.sweep == "packets":
        jc = replace(jc, n_packets=int(value))
    return n_users, jc


def build_system(cfg: ExperimentConfig, value, trial: int):
    """Materialize (truth scene, links, codebook, prior, joint config) for
    one sweep point and trial. A part read from a file (cfg.files) is the
    same for every point; a generated part (user drop, scene draw) is drawn
    per point and trial."""
    seed = child_seed(cfg.seed, value, trial)
    n_users, jc = _sweep_point(cfg, value)
    jc = replace(jc, seed=seed)

    spec = RoomSpec(cfg.room, cfg.voxel)
    truth, cb, geom = cfg.files
    if truth is None:
        truth = random_scene(spec, cfg.sparsity, seed)
    if cb is None:
        cb = build_codebook(n_users, cfg.n_ores, m=cfg.m, d_v=cfg.d_v)
    if geom is None:
        geom = default_geometry(n_users, cfg.n_antennas, cfg.room, seed)

    grid = OreGrid.uniform_band(cfg.n_ores)
    links = calibrate_links(
        los_links(geom, spec, grid),
        random_binary_pattern(geom.irs.shape[0], 0, seed),
        expected_scatterers=max(int(np.ceil(cfg.sparsity * spec.n_voxels)), 1),
    )
    prior = PriorParams(
        lam=max(cfg.sparsity, 1.0 / spec.n_voxels), theta=0.5, sigma_x=0.1
    )
    return truth, links, cb, prior, jc


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


class PointResult(NamedTuple):
    """One sweep point's run, or the error that failed it."""

    run: RunTrace | None
    error: tuple | None  # (exception type name, message) of a failed point


# A point that fails on its inputs or numerics; anything else is a bug.
# (JointRunner handles a GAMP divergence itself: the packet's trace marks it.)
_POINT_ERRORS = (ValueError, np.linalg.LinAlgError)


def _run_point(cfg: ExperimentConfig, value, trial: int) -> PointResult:
    """Build and run one (value, trial) point.

    The point's own failures are caught here, inside the worker, and come
    back as (type name, message), so the rest of the sweep still runs.
    CodebookError is a ValueError.
    """
    try:
        truth, links, cb, prior, jc = build_system(cfg, value, trial)
        run = JointRunner(truth, links, cb, prior, jc).run()
    except _POINT_ERRORS as exc:
        return PointResult(None, (type(exc).__name__, str(exc)))
    return PointResult(run, None)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# OpenBLAS's thread-count setter under its plain, 64-bit-integer and
# scipy-openblas (numpy's wheels) symbol names
_BLAS_SET_THREADS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
)


def _one_blas_thread():
    """Pool-worker initializer: one thread in each OpenBLAS this worker has
    mapped (none where there is none).

    A forked worker keeps the caller's BLAS thread count; with a worker on
    every usable CPU, more BLAS threads only contend for the same cores.
    Results do not depend on the count.
    """
    try:
        with open("/proc/self/maps") as f:
            paths = {ln.split()[-1] for ln in f if "openblas" in ln}
    except OSError:
        return
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in _BLAS_SET_THREADS:
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def run_points(cfg: ExperimentConfig, points) -> list:
    """Run (value, trial) points of cfg; PointResults in the order of points.

    Every point runs in a worker process, one per usable CPU and at most one
    per point, with one BLAS thread; the calling process runs none, so its
    own state, its BLAS thread count included, is never touched. Workers are
    forked: they import nothing again and inherit the caller's state, and
    callers need no __main__ guard. Each point is a pure function of its
    child seed, so the results do not depend on the number of workers. A
    bug in a point propagates with its own type, after the pool has shut
    down and its pending points are cancelled.
    """
    points = list(points)
    if not points:
        return []
    # imported here: they add about 5% to the import time of jcas
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    values, trials = zip(*points)
    pool = ProcessPoolExecutor(
        min(len(points), _usable_cpus()),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_one_blas_thread,
    )
    try:
        return list(pool.map(_run_point, itertools.repeat(cfg), values, trials))
    finally:
        pool.shutdown(cancel_futures=True)


def run_experiment(cfg: ExperimentConfig, output_dir=None, log=None):
    """Run the sweep and write trace.csv / summary.csv / scene snapshots.

    The (value, trial) points run on the usable CPUs (see run_points); the
    outputs and log calls do not depend on how many there are. The files
    the config names are read and checked first (cfg.files), so a bad file
    raises before any output is written. A sweep point that fails on its
    inputs or numerics (ValueError, LinAlgError) is reported (via log,
    default print), written to failures.csv and skipped; the remaining
    points still run, and SweepError is raised after the outputs are
    written if every point failed. Any other exception is a bug and
    propagates. Returns the list of output paths.
    """
    cfg.files  # read and check the named files before writing anything
    log = log or print
    out = output_dir or os.environ.get("JCAS_OUTPUT_DIR") or cfg.output
    os.makedirs(out, exist_ok=True)
    spec = RoomSpec(cfg.room, cfg.voxel)
    tfields = _TRACE_FIELDS + (("wall_ms",) if cfg.record_timing else ())
    tcols = ("axis", "value", "trial", *tfields)
    trace_rows, summary_rows, failures, paths = [], [], [], []
    results = iter(
        run_points(cfg, [(v, t) for v in cfg.values for t in range(cfg.trials)])
    )

    for value in cfg.values:
        finals_mse, finals_ser, finals_post = [], [], []
        for trial in range(cfg.trials):
            run, error = next(results)
            if error is not None:
                # report and keep sweeping
                failures.append((cfg.sweep, value, trial, *error))
                log(f"sweep point {cfg.sweep}={value} trial {trial} failed: {error[1]}")
                continue
            for p in run.packets:
                trace_rows.append((cfg.sweep, value, trial, *(getattr(p, f) for f in tfields)))
            finals_mse.append(run.packets[-1].mse)
            finals_ser.append(float(np.mean(run.column("ser"))))
            post = [
                p.ser_post_feedback
                for p in run.packets
                if p.ser_post_feedback is not None
            ]
            if post:
                finals_post.append(float(np.mean(post)))
            if trial == 0:
                spath = os.path.join(out, f"scene_{cfg.sweep}_{value}.txt")
                save_scene(spath, ScattererField(spec, run.x_final))
                paths.append(spath)
        if not finals_mse:
            continue

        def med_iqr(a):
            q1, q2, q3 = np.percentile(a, [25, 50, 75])
            return float(q2), float(q3 - q1)

        post_med = med_iqr(finals_post)[0] if finals_post else None
        summary_rows.append((
            cfg.sweep, value, len(finals_mse),
            *med_iqr(finals_mse), *med_iqr(finals_ser), post_med,
        ))

    tables = [
        ("trace.csv", TRACE_SCHEMA, tcols, trace_rows),
        ("summary.csv", SUMMARY_SCHEMA, _SUMMARY_COLUMNS, summary_rows),
    ]
    if failures:
        tables.append(("failures.csv", FAILURES_SCHEMA, _FAILURE_COLUMNS, failures))
    for name, schema, cols, rows in tables:
        path = os.path.join(out, name)
        with open(path, "w", newline="") as f:
            f.write(f"# {schema}\n")
            w = csv.writer(f)
            w.writerow(cols)
            for row in rows:
                w.writerow([_fmt(c) for c in row])
        paths.append(path)
    if failures and not summary_rows:
        raise SweepError(f"all sweep points failed; first error: {failures[0][-1]}")
    return paths


def _read_trace(path):
    with open(path) as f:
        schema = f.readline().strip().lstrip("# ")
        reader = csv.reader(f)
        header = next(reader)
        rows = list(reader)
    return schema, header, rows


def load_tolerances(path):
    """Tolerance file: one 'column relative_tolerance' pair per line, the
    tolerance a number >= 0 (inf passes any difference)."""
    tols = {}
    with open(path) as f:
        for lineno, ln in enumerate(f, 1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            try:
                name, tol = ln.split()
                tols[name] = float(tol)
                if not tols[name] >= 0:  # NaN would pass every comparison
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'column relative_tolerance' "
                    f"with a tolerance >= 0, got {ln!r}"
                ) from None
    return tols


def compare_traces(path_a, path_b, tolerances=None):
    """Column-wise comparison of two trace/summary CSVs.

    Numeric cells compare by relative difference |a-b| / max(|a|,|b|,1e-30)
    against the column's tolerance (default 0: exact); other cells compare
    as strings. Returns (passed, report) where report maps column ->
    (max_relative_diff, tolerance, ok). Schema or shape mismatches raise.
    """
    tolerances = tolerances or {}
    sa, ha, ra = _read_trace(path_a)
    sb, hb, rb = _read_trace(path_b)
    if sa != sb or ha != hb:
        raise ValueError(f"schema mismatch: {sa}/{ha} vs {sb}/{hb}")
    if len(ra) != len(rb):
        raise ValueError(f"row count mismatch: {len(ra)} vs {len(rb)}")
    report = {}
    passed = True
    for j, col in enumerate(ha):
        tol = float(tolerances.get(col, 0.0))
        worst = 0.0
        ok = True
        for x, y in zip(ra, rb):
            a, b = x[j], y[j]
            if a == b:
                continue
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                ok = False
                worst = np.inf
                break
            rel = abs(fa - fb) / max(abs(fa), abs(fb), 1e-30)
            worst = max(worst, rel)
            if rel > tol:
                ok = False
        report[col] = (worst, tol, ok)
        passed = passed and ok
    return passed, report

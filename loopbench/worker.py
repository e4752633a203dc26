"""Run one benchmark workload in this (fresh) process and print one JSON line.

Started by run.py with one BLAS thread and `src/` of the checkout on the
path. A run repeats whole passes over the workload's fixed scenario corpus
until --seconds have passed (at least MIN_PASSES passes); --seed sets the
order in which each pass visits the corpus. The corpus is fixed because one
trial's final MSE varies 100x and its loop time 2x between scenarios, so a
run's few trials drawn afresh per seed could not give a steady median; every
pass does the same work, so the number of passes a machine fits in does not
change what is measured. With --trace 1 it makes one pass without spans,
then one pass with every jcas public function wrapped in a span (see
tracer.py), and reports per-layer figures of the traced pass.

The outputs of every pass are checked after the timed work: see check_loop
and check_sweep for the properties and README.md for the margins.
"""

import argparse
import csv
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_PASSES = 2
MSE_VS_ZERO = 0.2  # median final MSE <= this share of the all-zero image's MSE
CONVERGE_RATIO = 0.2  # converge: median final MSE <= this share of packet 1's
SER_VS_CHANCE = 0.5  # data-packet SER <= this share of chance, 1 - 1/M
REL_TOL = 1e-9  # recomputed vs written values (CSV cells carry 12 digits)

# workload -> (kind, corpus size, tail percentile of forward_step time)
WORKLOADS = {
    "converge": ("loop", 4, 95),
    "crowded": ("loop", 2, 80),
    "sweep": ("sweep", 1, 90),
}
SWEEP_VALUES = (0, 5, 10)


def configs(workload):
    """(ExperimentConfig, sweep value) of a workload; seeds are the corpus."""
    from jcas.harness import ExperimentConfig
    from jcas.joint import JointConfig

    n = WORKLOADS[workload][1]
    if workload == "converge":  # criterion-1 shape
        return ExperimentConfig(
            sweep="packets", values=(30,), trials=n, seed=11,
            n_users=6, n_ores=4, d_v=2, m=4, n_antennas=4, sparsity=0.015,
            joint=JointConfig(
                n_packets=30, n_slots=64, n_pilot=0, n_f=10, n_b=1, k_s=5,
                ebn0_db=10.0,
            ),
        ), 30
    if workload == "crowded":  # criterion-4 shape, heavy momentum
        return ExperimentConfig(
            sweep="n_users", values=(20,), trials=n, seed=5,
            n_users=20, n_ores=7, d_v=2, n_antennas=4, sparsity=0.03,
            joint=JointConfig(
                n_packets=15, n_slots=32, n_pilot=2, n_b=0, k_s=1, n_f=4,
                ebn0_db=8.0, mu=0.9, eps_k=1.5,
            ),
        ), 20
    # the README's `jcas run` job on the 16-antenna default scenario
    return ExperimentConfig(
        sweep="ebn0_db", values=SWEEP_VALUES, trials=n, seed=1,
        record_timing=True, joint=JointConfig(n_packets=30, n_f=10, n_b=1, k_s=5),
    ), None


# -- passes ----------------------------------------------------------------

def loop_trial(cfg, value, trial, out_dir, keep_image):
    """Build and run one corpus trial; time its set-up, loop and each packet."""
    from jcas import harness, joint
    from jcas.scene import ScattererField, save_scene

    t0 = time.perf_counter()
    truth, links, cb, prior, jc = harness.build_system(cfg, value, trial)
    runner = joint.JointRunner(truth, links, cb, prior, jc)
    t1 = time.perf_counter()
    fwd_ms = []
    inner = runner.forward_step

    def timed(packet):
        t = time.perf_counter()
        out = inner(packet)
        fwd_ms.append((time.perf_counter() - t) * 1e3)
        return out

    runner.forward_step = timed
    t2 = time.perf_counter()
    try:
        run = runner.run()
    finally:
        t3 = time.perf_counter()
        del runner.forward_step  # drop the runner <-> wrapper cycle now
    x = run.x_final
    path = out_dir / f"scene_trial{trial}.txt"
    if x.min() >= 0 and x.max() <= 1:
        save_scene(path, ScattererField(truth.spec, x))
    return t1 - t0, t3 - t2, fwd_ms, {
        "x_range": (float(x.min()), float(x.max())),
        "x": x if keep_image else None,
        "last_mse": run.packets[-1].mse,
        "first_mse": run.packets[0].mse,
        "data_ser": [p.ser for p in run.packets if not p.pilot],
        "m": cb.m,
        "snapshot": read_scene(path) if path.exists() else None,
    }


def loop_pass(cfg, value, order, out_dir, keep_images):
    """Run each corpus trial in `order`; an operation is a packet."""
    res = {"attempted": 0, "failed": 0, "setup_s": 0.0, "loop_s": 0.0,
           "packets": 0, "fwd_ms": [], "trials": {}, "trial_loop_s": {}}
    for trial in order:
        res["attempted"] += cfg.joint.n_packets
        try:
            setup_s, loop_s, fwd_ms, out = loop_trial(
                cfg, value, trial, out_dir, keep_images
            )
        except Exception:
            traceback.print_exc(file=sys.stderr)
            res["failed"] += cfg.joint.n_packets
            continue
        res["setup_s"] += setup_s
        res["loop_s"] += loop_s
        res["trial_loop_s"][trial] = loop_s
        res["packets"] += len(fwd_ms)
        res["fwd_ms"] += fwd_ms
        res["trials"][trial] = out
    return res


def sweep_pass(cfg, order, out_dir):
    """One `run_experiment` over the sweep values in `order`; parse its files."""
    from dataclasses import replace

    from jcas import harness

    cfg = replace(cfg, values=tuple(order), output=str(out_dir))
    logs = []
    for name in os.listdir(out_dir):
        os.remove(out_dir / name)
    t0 = time.perf_counter()
    try:
        harness.run_experiment(cfg, output_dir=str(out_dir), log=logs.append)
    except Exception:
        traceback.print_exc(file=sys.stderr)
    dt = time.perf_counter() - t0
    trace = read_csv(out_dir / "trace.csv")
    summary = read_csv(out_dir / "summary.csv")
    points = [(v, t) for v in cfg.values for t in range(cfg.trials)]
    rows = {}
    for r in trace:
        rows.setdefault((float(r["value"]), int(r["trial"])), []).append(r)
    failed = {
        p for p in points
        if (float(p[0]), p[1]) not in rows
        or any(f"={p[0]} trial {p[1]} failed" in msg for msg in logs)
    }
    snaps = {}
    for v in cfg.values:
        path = out_dir / f"scene_{cfg.sweep}_{v}.txt"
        snaps[float(v)] = read_scene(path) if path.exists() else None
    return {
        "attempted": len(points), "failed": len(failed), "setup_s": 0.0,
        "loop_s": dt, "packets": len(trace),
        "fwd_ms": [float(r["wall_ms"]) for r in trace],
        "trace": trace, "summary": summary, "rows": rows, "snaps": snaps,
    }


# -- file readers (independent of the program's own loaders) ---------------

def read_csv(path):
    if not path.exists():
        return []
    with open(path) as f:
        schema = f.readline()
        if not schema.startswith("#"):
            raise ValueError(f"{path}: missing schema line")
        return list(csv.DictReader(f))


def read_scene(path):
    """Dense voxel vector of a scene file, parsed here."""
    with open(path) as f:
        head = f.readline().split()
        room = [float(v) for v in head[1:4]]
        vox = [float(v) for v in head[5:8]]
        nx, ny, nz = (round(r / v) for r, v in zip(room, vox))
        x = [0.0] * (nx * ny * nz)
        for ln in f:
            ix, iy, iz, val = ln.split()
            x[int(ix) + nx * (int(iy) + ny * int(iz))] = float(val)
    return x


# -- checks ----------------------------------------------------------------

def _close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-30)


def _quantile(values, q):
    """Linear-interpolation quantile (numpy's default rule), computed here."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _mse(a, b):
    return sum((u - v) ** 2 for u, v in zip(a, b)) / len(b)


def check_loop(workload, cfg, value, passes):
    """Checks on the converge/crowded outputs; returns (failures, final_mse)."""
    from jcas import harness

    bad = []
    first = passes[0]["trials"]
    for res in passes[1:]:
        for trial, t in res["trials"].items():
            if trial in first and t["last_mse"] != first[trial]["last_mse"]:
                bad.append(f"trial {trial}: last-packet MSE differs between passes")
    finals, firsts, zeros, sers = [], [], [], []
    for trial, t in first.items():
        truth = harness.build_system(cfg, value, trial)[0].values.tolist()
        lo, hi = t["x_range"]
        if lo < 0 or hi > 1:
            bad.append(f"trial {trial}: image values outside [0, 1]: [{lo}, {hi}]")
            continue
        mse = _mse(t["x"].tolist(), truth)
        if not _close(mse, t["last_mse"]):
            bad.append(f"trial {trial}: reported MSE {t['last_mse']} != recomputed {mse}")
        if t["snapshot"] is None or not _close(_mse(t["snapshot"], truth), mse):
            bad.append(f"trial {trial}: scene snapshot does not hold the final image")
        finals.append(mse)
        firsts.append(t["first_mse"])
        zeros.append(_mse([0.0] * len(truth), truth))
        sers.append(sum(t["data_ser"]) / len(t["data_ser"]))
        chance = 1 - 1 / t["m"]
    if not finals:
        return bad + ["no trial completed"], None
    final = statistics.median(finals)
    if final > MSE_VS_ZERO * statistics.median(zeros):
        bad.append(f"median final MSE {final:.3g} not below {MSE_VS_ZERO}x all-zero MSE")
    if workload == "converge" and final > CONVERGE_RATIO * statistics.median(firsts):
        bad.append(f"median final MSE {final:.3g} > {CONVERGE_RATIO}x packet-1 MSE")
    if statistics.median(sers) > SER_VS_CHANCE * chance:
        bad.append(f"data-packet SER {statistics.median(sers):.3g} not well below chance")
    return bad, final


def check_sweep(cfg, passes):
    """Checks on trace.csv / summary.csv / snapshots; returns (failures, final_mse)."""
    from jcas import harness

    bad = []
    def rows_without_wall_ms(res):
        return sorted(tuple(v for k, v in r.items() if k != "wall_ms") for r in res["trace"])

    res = passes[-1]
    for other in passes[:-1]:
        if rows_without_wall_ms(other) != rows_without_wall_ms(res):
            bad.append("trace.csv differs between passes beyond wall_ms")
    n_pk = cfg.joint.n_packets
    finals, zeros, sers = [], [], []
    for (value, trial), rows in sorted(res["rows"].items()):
        if sorted(int(r["packet"]) for r in rows) != list(range(1, n_pk + 1)):
            bad.append(f"point {value}/{trial}: trace rows are not one per packet")
            continue
        finals.append(float(rows[-1]["mse"]))
        data = [float(r["ser"]) for r in rows if int(r["packet"]) > cfg.joint.n_pilot]
        sers.append(sum(data) / len(data))
    by_value = {}
    for (value, trial), rows in sorted(res["rows"].items()):
        by_value.setdefault(value, []).append(rows)
    summary = {float(r["value"]): r for r in res["summary"]}
    for value, trials in by_value.items():
        s = summary.get(value)
        if s is None:
            bad.append(f"summary.csv has no row for {value}")
            continue
        mse = [float(rows[-1]["mse"]) for rows in trials]
        ser = [sum(float(r["ser"]) for r in rows) / len(rows) for rows in trials]
        for col, vals in (("mse", mse), ("ser", ser)):
            med = _quantile(vals, 0.5)
            iqr = _quantile(vals, 0.75) - _quantile(vals, 0.25)
            # 12-digit cells: compare the IQR to the rounding of its inputs
            scale = 1e-11 * max(abs(v) for v in vals)
            if not _close(float(s[f"{col}_median"]), med) or (
                abs(float(s[f"{col}_iqr"]) - iqr) > scale
            ):
                bad.append(f"summary {col} median/IQR at {value} != recomputed")
        truth = harness.build_system(cfg, value, 0)[0].values.tolist()
        zeros.append(_mse([0.0] * len(truth), truth))
        snap = res["snaps"].get(value)
        if snap is None:
            bad.append(f"no scene snapshot for {value}")
            continue
        if min(snap) < 0 or max(snap) > 1:
            bad.append(f"snapshot {value}: image values outside [0, 1]")
        if not _close(_mse(snap, truth), float(trials[0][-1]["mse"])):
            bad.append(f"snapshot {value}: MSE against the true scene != trace mse")
    if not finals:
        return bad + ["no sweep point completed"], None
    final = statistics.median(finals)
    if final > MSE_VS_ZERO * statistics.median(zeros):
        bad.append(f"median final MSE {final:.3g} not below {MSE_VS_ZERO}x all-zero MSE")
    if statistics.median(sers) > SER_VS_CHANCE * (1 - 1 / cfg.m):
        bad.append(f"data-packet SER {statistics.median(sers):.3g} not well below chance")
    return bad, final


# -- per-layer figures -----------------------------------------------------

# metric -> (span name, what); what is a span field or a counter name
LAYER_METRICS = {
    "harness.build_system_ms": ("harness.build_system", "total"),
    "channel.los_links_ms": ("channel.los_links", "total"),
    "channel.calibrate_links_ms": ("channel.calibrate_links", "total"),
    "channel.composite_channel_calls": ("channel.composite_channel", "calls"),
    "channel.composite_channel_ms": ("channel.composite_channel", "total"),
    "channel.measurement_matrix_calls": ("channel.measurement_matrix", "calls"),
    "channel.measurement_matrix_ms": ("channel.measurement_matrix", "total"),
    "scma.factor_graph_calls": ("scma.factor_graph", "calls"),
    "scma.factor_graph_ms": ("scma.factor_graph", "total"),
    "transceiver.transmit_ms": ("transceiver.transmit", "total"),
    "mpa.decode_calls": ("mpa.mpa_decode", "calls"),
    "mpa.decode_ms": ("mpa.mpa_decode", "total"),
    "mpa.table_entries": ("mpa.mpa_decode", "mpa.table_entries"),
    "sensing.sense_calls": ("sensing.sense", "calls"),
    "sensing.sense_self_ms": ("sensing.sense", "self"),
    "sensing.estimate_channel_calls": ("sensing.estimate_channel", "calls"),
    "sensing.estimate_channel_ms": ("sensing.estimate_channel", "total"),
    "gamp.solve_calls": ("gamp.gamp_solve", "calls"),
    "gamp.solve_ms": ("gamp.gamp_solve", "total"),
    "gamp.g_in_ms": ("gamp.g_in", "total"),
    "gamp.rows": ("gamp.gamp_solve", "gamp.rows"),
    "gamp.iterations": ("gamp.gamp_solve", "gamp.iterations"),
    "gamp.converged_ratio": ("gamp.gamp_solve", "gamp.converged"),
    "gamp.diverged": ("gamp.gamp_solve", "gamp.diverged"),
    "joint.forward_step_ms": ("joint.JointRunner.forward_step", "total"),
    "joint.feedback_ms": ("joint.JointRunner.feedback", "total"),
    "joint.feedback_decodes": ("joint.JointRunner.feedback", "joint.feedback_decodes"),
    "joint.self_iterations": ("joint.JointRunner.forward_step", "joint.self_iterations"),
    "scene.save_scene_ms": ("scene.save_scene", "total"),
}


def layer_figures(tracer):
    out, absent = {}, []
    for metric, (span, what) in LAYER_METRICS.items():
        st = tracer.stats.get(span)
        if st is None:
            absent.append(metric)
            continue
        if what in ("total", "self"):
            out[metric] = getattr(st, what) * 1e3
        elif what == "calls":
            out[metric] = st.calls
        elif what == "gamp.converged":
            out[metric] = tracer.counts[what] / st.calls if st.calls else 0.0
        else:
            out[metric] = tracer.counts[what]
    spans = {
        name: {"calls": st.calls, "total_ms": st.total * 1e3, "self_ms": st.self * 1e3}
        for name, st in sorted(tracer.stats.items()) if st.calls
    }
    return out, absent, spans


# -- main ------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import numpy as np
    import jcas.harness
    import jcas.joint
    import_s = time.perf_counter() - t0
    if not str(Path(jcas.joint.__file__).resolve()).startswith(str(ROOT / "src")):
        raise SystemExit(f"jcas imported from {jcas.joint.__file__}, not {ROOT / 'src'}")

    kind, corpus, tail_pct = WORKLOADS[args.workload]
    cfg, value = configs(args.workload)
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    items = list(SWEEP_VALUES) if kind == "sweep" else list(range(corpus))

    def one_pass():
        order = items[:]
        rng.shuffle(order)
        if kind == "sweep":
            return sweep_pass(cfg, order, out_dir)
        return loop_pass(cfg, value, order, out_dir, keep_images=not passes)

    passes, layers = [], None
    t_start = time.perf_counter()
    if args.trace:
        from tracer import Tracer

        passes.append(one_pass())
        tracer = Tracer().install()
        try:
            passes.append(one_pass())
        finally:
            tracer.uninstall()
        layers = layer_figures(tracer)
    else:
        while (
            len(passes) < MIN_PASSES
            or time.perf_counter() - t_start < args.seconds
        ):
            passes.append(one_pass())
    elapsed = time.perf_counter() - t_start

    if kind == "sweep":
        bad, final_mse = check_sweep(cfg, passes)
    else:
        bad, final_mse = check_loop(args.workload, cfg, value, passes)
    fwd = [ms for p in passes[:1 if args.trace else None] for ms in p["fwd_ms"]]
    beyond = sum(1 for ms in fwd if ms > float(np.percentile(fwd, tail_pct)))
    if beyond < 10 and not args.trace:
        bad.append(f"only {beyond} samples beyond p{tail_pct}")
    ru_self = resource.getrusage(resource.RUSAGE_SELF)
    ru_kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "corpus": corpus,
        "elapsed_s": elapsed,
        "cpu_s": ru_self.ru_utime + ru_self.ru_stime,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "packets": sum(p["packets"] for p in passes),
        "loop_s": sum(p["loop_s"] for p in passes),
        "packet_samples": len(fwd),
        "packet_ms_p50": float(np.median(fwd)),
        "tail_pct": tail_pct,
        "packet_ms_tail": float(np.percentile(fwd, tail_pct)),
        "samples_beyond_tail": beyond,
        "import_s": import_s,
        "setup_pass_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": max(ru_self.ru_maxrss, ru_kids.ru_maxrss) / 1024.0,
        "final_mse": final_mse,
        "checks_failed": bad,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if args.trace:
        untraced, traced = passes
        report["trace_pps"] = traced["packets"] / traced["loop_s"]
        report["untraced_pps"] = untraced["packets"] / untraced["loop_s"]
        report["layers"], report["absent"], report["spans"] = layers
        report["layers"]["trace.overhead_pct"] = (
            report["untraced_pps"] / report["trace_pps"] - 1.0
        ) * 100.0
    report["pass_loop_s"] = [p.get("trial_loop_s", p["loop_s"]) for p in passes]
    print(json.dumps(report))


if __name__ == "__main__":
    main()

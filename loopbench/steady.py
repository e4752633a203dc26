"""Repeat the benchmark over seeds and check that it is steady.

    python3 loopbench/steady.py run --seeds 1-10 --save loopbench/out/set_a.json
    python3 loopbench/steady.py compare loopbench/out/set_a.json loopbench/out/set_b.json
    python3 loopbench/steady.py trace --seed 1

`run` calls run.py once per (workload, seed), one after another, and prints
for every end-to-end metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median next to the metric's bound.
`compare` checks that the second set's medians are not worse than the first
set's by more than the bound, and that the failed shares are equal.
`trace` makes two traced runs per workload with one seed and checks that the
counts repeat exactly; it prints the tracing overhead.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# per-layer figures that must repeat exactly between two traced runs
EXACT = (
    "_calls", "mpa.table_entries", "gamp.rows", "gamp.iterations",
    "gamp.converged_ratio", "gamp.diverged", "joint.feedback_decodes",
    "joint.self_iterations",
)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread_table(runs):
    """workload -> metric -> (median, q1, q3, spread) over the runs."""
    table = {}
    for w, rs in runs.items():
        table[w] = {}
        for name in BOUNDS:
            vals = [r["metrics"][name]["value"] for r in rs]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            table[w][name] = (q2, q1, q3, (q3 - q1) / q2)
    return table


def cmd_run(args):
    runs, details = {w: [] for w in args.workloads}, {w: [] for w in args.workloads}
    started = time.time()
    for w in args.workloads:
        for s in args.seeds:
            det, res = one_run(w, s, 0)
            runs[w].append(res)
            details[w].append({k: det[k] for k in ("seed", "passes", "elapsed_s", "wall_s")})
            print(f"{w} seed {s}: correct={res['correct']} failed={res['failed']}"
                  f"/{res['attempted']} passes={det['passes']}", flush=True)
    table = spread_table(runs)
    print(f"\n{'workload':9} {'metric':15} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for w, rows in table.items():
        for name, (med, q1, q3, spr) in rows.items():
            flag = "" if name == "setup_s" or spr < BOUNDS[name]["bound"] / 3 else "  > bound/3"
            print(f"{w:9} {name:15} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spr:7.2%} {BOUNDS[name]['bound']:6.2f}{flag}")
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps({
            "started": time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(started)),
            "seeds": args.seeds, "runs": runs, "details": details,
        }))
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


def cmd_compare(args):
    a, b = (json.loads(Path(p).read_text()) for p in (args.first, args.second))
    ta, tb = spread_table(a["runs"]), spread_table(b["runs"])
    ok = True
    for w in ta:
        fa = [r["failed"] / r["attempted"] for r in a["runs"][w]]
        fb = [r["failed"] / r["attempted"] for r in b["runs"][w]]
        if sorted(set(fa)) != sorted(set(fb)):
            ok = False
            print(f"{w}: failed shares differ: {sorted(set(fa))} vs {sorted(set(fb))}")
        for name, m in BOUNDS.items():
            ma, mb = ta[w][name][0], tb[w][name][0]
            worse = (ma - mb) / ma if m["better"] == "higher" else (mb - ma) / ma
            good = worse <= m["bound"]
            ok &= good
            print(f"{w:9} {name:15} {ma:12.6g} -> {mb:12.6g}  worse by {worse:+7.2%}"
                  f"  bound {m['bound']:.2f} {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


def cmd_trace(args):
    ok = True
    for w in args.workloads:
        (d1, r1), (d2, r2) = (one_run(w, args.seed, 1) for _ in range(2))
        for name, m in r1["metrics"].items():
            if name.endswith(EXACT) and m["value"] != r2["metrics"][name]["value"]:
                ok = False
                print(f"{w} {name}: {m['value']} != {r2['metrics'][name]['value']}")
        print(f"{w}: tracing overhead {r1['metrics']['trace.overhead_pct']['value']:+.1f}% "
              f"/ {r2['metrics']['trace.overhead_pct']['value']:+.1f}% "
              f"(traced pass vs untraced pass, packets/s); absent: {d1['absent']}")
        for name, m in r1["metrics"].items():
            print(f"  {name:34} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    r.add_argument("--workloads", nargs="+", default=WORKLOADS)
    r.add_argument("--save")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    t = sub.add_parser("trace")
    t.add_argument("--seed", type=int, default=1)
    t.add_argument("--workloads", nargs="+", default=WORKLOADS)
    args = ap.parse_args()
    return {"run": cmd_run, "compare": cmd_compare, "trace": cmd_trace}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())

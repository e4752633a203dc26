"""Closed-loop benchmark of jcas: one workload per call, one JSON result line.

    python3 loopbench/run.py --workload converge --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in a fresh worker process
(worker.py) with one BLAS thread and the checkout's `src/` on the path;
four more fresh interpreters time the import of jcas for `setup_s`. The last
line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end-to-end metrics with --trace 0 and the per-layer metrics of a
traced pass with --trace 1. The line before it holds the run's details
(nproc, BLAS build, sample counts, all spans when traced).
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_PROBES = 4  # fresh interpreters timing `import jcas...`, besides the worker
TIMEOUT_S = 170
IMPORT = "import jcas.harness, jcas.joint"


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # Pin glibc's malloc thresholds near the values its dynamic rule reaches
    # after the first large frees: left dynamic, whether freed arrays go back
    # to the system depends on the run's address layout, and the peak
    # resident set of identical work varied by 6%.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(64 << 20)
    return env


def probe_import(env):
    code = f"import time; t = time.perf_counter(); {IMPORT}; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.split()[-1])


def end_to_end(rep, import_samples):
    return {
        "packets_per_s": (rep["packets"] / rep["loop_s"], "1/s"),
        "packet_ms_p50": (rep["packet_ms_p50"], "ms"),
        "packet_ms_tail": (rep["packet_ms_tail"], "ms"),
        "setup_s": (statistics.median(import_samples) + rep["setup_pass_s"], "s"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
        "final_mse": (rep["final_mse"], "1"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "jcas").is_dir():
        print(f"no jcas sources under {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # byte-compile once, so no run pays (or times) a first-import compile
    compileall.compile_dir(str(SRC), quiet=1)
    env = child_env()
    imports = [probe_import(env) for _ in range(IMPORT_PROBES)]

    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"worker failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["wall_s"] = time.perf_counter() - t0
    rep["import_s_samples"] = imports + [rep["import_s"]]
    correct = not rep["checks_failed"] and rep["final_mse"] is not None
    for msg in rep["checks_failed"]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)

    if args.trace:
        names = [m["name"] for m in benchmark["per_layer"]]
        units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
        metrics = {
            n: {"value": rep["layers"][n], "unit": units[n]}
            for n in names if n in rep["layers"]
        }
    else:
        e2e = end_to_end(rep, rep["import_s_samples"]) if rep["final_mse"] else {}
        metrics = {n: {"value": v, "unit": u} for n, (v, u) in e2e.items()}
    print(json.dumps(rep))
    print(json.dumps({
        "correct": correct,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

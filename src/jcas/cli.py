"""Command-line front end.

    jcas run <config.ini>              run a sweep described by a config file
    jcas compare <a.csv> <b.csv>       compare two trace/summary CSVs
        [--tol-file tolerances.txt]
    jcas validate <file>               validate a codebook/scene/geometry file

Exit codes: 0 success, 1 validation failure (bad config or input file /
failed comparison), 2 runtime failure. JCAS_OUTPUT_DIR overrides the configured
output directory of `run`.
"""

import argparse
import sys

from .channel import load_geometry
from .harness import ExperimentConfig, compare_traces, load_tolerances, run_experiment
from .scene import load_scene
from .scma import load_codebook

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _cmd_run(args):
    try:
        cfg = ExperimentConfig.from_file(args.config)
        cfg.files  # a named file that is missing or disagrees is a config error
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        paths = run_experiment(cfg)
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for p in paths:
        print(p)
    return EXIT_OK


def _cmd_compare(args):
    try:
        tols = load_tolerances(args.tol_file) if args.tol_file else {}
        passed, report = compare_traces(args.a, args.b, tols)
    except (OSError, ValueError) as exc:
        print(f"compare error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    for col, (worst, tol, ok) in report.items():
        print(f"{col}: max_rel_diff={worst:.3g} tol={tol:.3g} {'pass' if ok else 'FAIL'}")
    print("PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_VALIDATION


def _sniff_kind(path):
    with open(path) as f:
        first = f.readline().split()
    if first and first[0] == "scma":
        return "codebook"
    if first and first[0] == "room":
        return "scene"
    if first and first[0] in ("users", "ap", "irs"):
        return "geometry"
    raise ValueError(f"{path}: unrecognized file format")


def _cmd_validate(args):
    loaders = {"codebook": load_codebook, "scene": load_scene, "geometry": load_geometry}
    try:
        kind = _sniff_kind(args.file)
        loaders[kind](args.file)
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:
        print(f"invalid file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"{args.file}: valid {kind}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jcas",
        description="Joint multi-user communication and environment imaging experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep from a config file")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two trace/summary CSVs")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_cmp.add_argument("--tol-file", default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    p_val = sub.add_parser("validate", help="validate a codebook/scene/geometry file")
    p_val.add_argument("file")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

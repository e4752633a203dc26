"""The fixed reference sweeps of tools/reference_outputs.py reproduce their
committed outputs under tests/data/reference exactly."""

import importlib.util
from pathlib import Path

import numpy as np

from jcas.harness import compare_traces

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "reference_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("reference_outputs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _toolchain():
    """numpy's version and BLAS, on which bit identity depends."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"numpy {np.__version__} with {blas['name']} {blas.get('version', '')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return f"numpy {np.__version__}"


def test_reference_outputs_unchanged(tmp_path):
    """Every point runs with one BLAS thread (run_points), so the outputs are
    compared at tolerance 0: the CSVs column by column, every other output
    file (scene snapshots, config I's input files, log.txt) by its SHA-256."""
    tool = _tool()
    tool.run_all(tmp_path)
    reference = Path(tool.REFERENCE)
    moved = []
    for name in tool.NAMES:
        for csv_name in tool.CSVS:
            passed, report = compare_traces(reference / name / csv_name, tmp_path / name / csv_name)
            if not passed:
                cols = [f"{c} ({worst:.3g})" for c, (worst, _, ok) in report.items() if not ok]
                moved.append(f"{name}/{csv_name}: {', '.join(cols)}")
        got = set(tool.digests(tmp_path / name).splitlines())
        want = set((reference / name / "sha256.txt").read_text().splitlines())
        if got != want:
            moved.append(f"{name}: " + ", ".join(sorted({ln.split()[1] for ln in got ^ want})))
    assert not moved, (
        f"reference outputs moved: {'; '.join(moved)}. They are bit-exact for the "
        f"toolchain that wrote them; this is {_toolchain()}. A change that moves "
        "them on purpose rewrites them with tools/reference_outputs.py --update."
    )

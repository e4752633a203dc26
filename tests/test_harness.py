import filecmp
import os
import subprocess
import sys

import numpy as np
import pytest

import jcas.harness
from jcas.cli import main
from jcas.harness import (
    ExperimentConfig,
    build_system,
    child_seed,
    compare_traces,
    default_geometry,
    run_experiment,
)
from jcas.joint import JointConfig
from jcas.scene import load_scene
from jcas.scma import default_codebook, save_codebook

SMALL_INI = """
[experiment]
sweep = ebn0_db
values = 0 10
trials = 2
seed = 3
output = {out}

[scenario]
n_users = 6
n_ores = 4
n_antennas = 8

[joint]
n_packets = 4
n_slots = 64
n_f = 4
n_b = 1
"""


@pytest.fixture()
def small_cfg(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(SMALL_INI.format(out=tmp_path / "out"))
    return ExperimentConfig.from_file(ini)


def test_config_parsing(small_cfg, tmp_path):
    assert small_cfg.sweep == "ebn0_db"
    assert small_cfg.values == (0, 10)
    assert small_cfg.trials == 2
    assert small_cfg.joint.n_packets == 4
    assert not small_cfg.record_timing


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(sweep="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(values=())
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    ini = tmp_path / "bad.ini"
    ini.write_text("[joint]\nnot_a_key = 1\n")
    with pytest.raises(ValueError, match="unknown"):
        ExperimentConfig.from_file(ini)


def test_child_seed_is_stable_and_distinct():
    assert child_seed(1, 10, 0) == child_seed(1, 10, 0)
    assert child_seed(1, 10, 0) != child_seed(1, 10, 1)
    assert child_seed(1, 10, 0) != child_seed(1, 5, 0)
    assert child_seed(2, 10, 0) != child_seed(1, 10, 0)
    # float axis values key on round(value * 1000)
    assert child_seed(1, 0.5, 0) == child_seed(1, 0.5000001, 0)


def test_default_geometry_shapes():
    g = default_geometry(6, 8, (4.0, 4.0, 4.0), seed=0)
    assert g.users.shape == (6, 3)
    assert g.ap.shape == (8, 3)
    assert g.irs.shape == (400, 3)
    g2 = default_geometry(6, 8, (4.0, 4.0, 4.0), seed=0)
    assert np.array_equal(g.users, g2.users)


def test_build_system_applies_sweep_value(small_cfg):
    truth, links, cb, prior, jc = build_system(small_cfg, 10, 0)
    assert jc.ebn0_db == 10.0
    assert cb.n_users == 6
    cfg_u = ExperimentConfig(sweep="n_users", values=(4,), trials=1, n_ores=4)
    _, _, cb4, _, _ = build_system(cfg_u, 4, 0)
    assert cb4.n_users == 4


def test_run_experiment_outputs_and_determinism(small_cfg, tmp_path):
    out_a = run_experiment(small_cfg, output_dir=str(tmp_path / "a"))
    out_b = run_experiment(small_cfg, output_dir=str(tmp_path / "b"))
    for name in ("trace.csv", "summary.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
    # scene snapshots load back as valid scenes
    snap = load_scene(tmp_path / "a" / "scene_ebn0_db_0.txt")
    assert snap.spec.n_voxels == 512
    with open(tmp_path / "a" / "trace.csv") as f:
        assert f.readline().startswith("# jcas-trace-v1")
        header = f.readline().strip().split(",")
    assert "wall_ms" not in header


def test_output_dir_env_override(small_cfg, tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("JCAS_OUTPUT_DIR", str(target))
    run_experiment(small_cfg)
    assert (target / "trace.csv").exists()


def test_compare_traces_tolerances(small_cfg, tmp_path):
    run_experiment(small_cfg, output_dir=str(tmp_path / "a"))
    a = tmp_path / "a" / "trace.csv"
    passed, report = compare_traces(a, a)
    assert passed
    # perturb one mse cell by a tiny relative amount
    lines = a.read_text().splitlines()
    cols = lines[1].split(",")
    j = cols.index("mse")
    parts = lines[2].split(",")
    parts[j] = repr(float(parts[j]) * (1 + 1e-9))
    b = tmp_path / "b.csv"
    b.write_text("\n".join([lines[0], lines[1], ",".join(parts)] + lines[3:]) + "\n")
    passed, _ = compare_traces(a, b)
    assert not passed  # default tolerance is exact
    passed, report = compare_traces(a, b, {"mse": 1e-6})
    assert passed
    assert report["mse"][0] <= 1e-6


def test_compare_traces_schema_mismatch(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("# jcas-trace-v1\nx,y\n1,2\n")
    b.write_text("# other-schema\nx,y\n1,2\n")
    with pytest.raises(ValueError, match="schema"):
        compare_traces(a, b)
    b.write_text("# jcas-trace-v1\nx,y\n1,2\n3,4\n")
    with pytest.raises(ValueError, match="row count"):
        compare_traces(a, b)


def test_failed_sweep_point_reported_not_fatal(tmp_path):
    cfg = ExperimentConfig(
        sweep="n_users",
        values=(6, 300),  # 300 users cannot be placed / built
        trials=1,
        n_ores=4,
        output=str(tmp_path / "out"),
        joint=JointConfig(n_packets=2, n_slots=64, n_f=2),
    )
    messages = []
    run_experiment(cfg, log=messages.append)
    assert any("failed" in m for m in messages)
    with open(tmp_path / "out" / "summary.csv") as f:
        body = f.read()
    assert "n_users,6" in body and "n_users,300" not in body


def test_cli_run_and_compare(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text(SMALL_INI.format(out=tmp_path / "out"))
    assert main(["run", str(ini)]) == 0
    trace = tmp_path / "out" / "trace.csv"
    assert trace.exists()
    assert main(["compare", str(trace), str(trace)]) == 0
    assert main(["run", str(tmp_path / "missing.ini")]) == 1


def test_cli_validate(tmp_path):
    cb_path = tmp_path / "cb.txt"
    save_codebook(cb_path, default_codebook())
    assert main(["validate", str(cb_path)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    assert main(["validate", str(bad)]) == 1
    assert main(["validate", str(tmp_path / "missing.txt")]) == 2


def test_import_leaves_heavy_scipy_modules_unloaded():
    """Importing the loop loads only scipy.special; stats, spatial and optimize
    are slow to import and the loop does not need them."""
    src = os.path.dirname(os.path.dirname(jcas.harness.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "import sys, jcas.harness, jcas.joint; "
        "print(' '.join(m for m in ('scipy.stats', 'scipy.spatial', 'scipy.optimize')"
        " if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""

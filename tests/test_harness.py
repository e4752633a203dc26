import csv
import filecmp
import importlib.util
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jcas.harness
from jcas.cli import main
from jcas.harness import (
    ExperimentConfig,
    SweepError,
    build_system,
    child_seed,
    compare_traces,
    default_geometry,
    run_experiment,
)
from jcas.channel import Geometry, load_geometry, save_geometry
from jcas.joint import JointConfig, JointRunner
from jcas.scene import RoomSpec, load_scene, random_scene, save_scene
from jcas.scma import build_codebook, default_codebook, save_codebook

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


def test_config_validation(tmp_path, capsys):
    with pytest.raises(ValueError):
        ExperimentConfig(sweep="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(values=())
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    # scenario values that would fail every point fail here, naming the field
    for kw, where in (
        ({"m": 0}, "^m must"),
        ({"m": 1}, "^m must"),
        ({"n_users": 0}, "^n_users must"),
        ({"n_ores": 0, "d_v": 0}, "^n_ores must"),
        ({"n_antennas": 0}, "^n_antennas must"),
        ({"d_v": 0}, "^d_v must"),
        ({"d_v": 5}, "^d_v must"),
        ({"room": (4.0, 4.0)}, r"^room \(4.0, 4.0\) and voxel"),
        ({"voxel": (0.3, 0.5, 0.5)}, r"^room .* and voxel \(0.3, 0.5, 0.5\)"),
        ({"sweep": "n_users", "values": (6, 0)}, "^n_users sweep values"),
    ):
        with pytest.raises(ValueError, match=where):
            ExperimentConfig(**kw)
    ini = tmp_path / "bad.ini"
    ini.write_text("[scenario]\nm = 0\n")
    assert main(["run", str(ini)]) == 1
    assert f"config error: {ini}: m must be >= 2" in capsys.readouterr().err
    for text, where in (
        ("[joint]\nnot_a_key = 1\n", r"\[joint\] key 'not_a_key'"),
        ("[experiment]\nvaluess = 0 5\n", r"\[experiment\] key 'valuess'"),
        ("[experiment]\nn_users = 20\n", r"\[experiment\] key 'n_users'"),
        ("[scenario]\nn_user = 20\n", r"\[scenario\] key 'n_user'"),
        ("[scenario]\nn_antenas = 4\n", r"\[scenario\] key 'n_antenas'"),
        ("[scenario]\njoint = 1\n", r"\[scenario\] key 'joint'"),
        ("[bogus]\nn_users = 20\n", r"section \[bogus\]"),
    ):
        ini.write_text(text)
        with pytest.raises(ValueError, match=rf"bad\.ini: unknown {where}"):
            ExperimentConfig.from_file(ini)


@pytest.mark.parametrize(
    "section, key, raw",
    [
        ("experiment", "trials", "abc"),
        ("experiment", "record_timing", "maybe"),
        ("experiment", "values", "0 five"),
        ("joint", "mu", "fast"),
    ],
)
def test_cli_run_names_a_malformed_config_value(tmp_path, capsys, section, key, raw):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[{section}]\n{key} = {raw}\n")
    assert main(["run", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {ini}: [{section}] {key} = {raw!r}: ")


def _write_ini(cfg: ExperimentConfig, path):
    """Write every field of cfg in the format ExperimentConfig.from_file reads."""

    def fmt(v):
        if isinstance(v, tuple):
            return " ".join(fmt(e) for e in v)
        return repr(v) if isinstance(v, float) else str(v)

    exp = ("sweep", "values", "trials", "seed", "output", "record_timing")
    scen = (
        "scene", "geometry", "codebook", "n_users", "n_ores", "d_v", "m",
        "n_antennas", "sparsity", "room", "voxel",
    )
    lines = []
    for section, obj, keys in (
        ("experiment", cfg, exp),
        ("scenario", cfg, scen),
        ("joint", cfg.joint, [f.name for f in fields(JointConfig) if f.name != "seed"]),
    ):
        lines.append(f"[{section}]")
        for key in keys:
            if getattr(obj, key) is not None:
                lines.append(f"{key} = {fmt(getattr(obj, key))}")
    path.write_text("\n".join(lines) + "\n")


# ";" after whitespace starts an inline comment, so no value can start with it
_paths = st.text("abcXYZ019_-./%$;", min_size=1, max_size=12).filter(
    lambda p: not p.startswith(";")
)
_counts = st.integers(1, 64)


@st.composite
def _joint_configs(draw):
    n_packets = draw(st.integers(1, 40))
    return JointConfig(
        n_packets=n_packets,
        n_slots=draw(_counts),
        n_pilot=draw(st.integers(0, n_packets)),
        n_f=draw(_counts),
        n_b=draw(st.integers(0, n_packets)),
        k_s=draw(_counts),
        k_it=draw(_counts),
        mu=draw(st.floats(0.0, 1.0, exclude_max=True)),
        eps_k=draw(st.none() | st.floats(0.0, 10.0)),
        ebn0_db=draw(st.floats(-30.0, 60.0)),
        decoder=draw(st.sampled_from(["mpa", "ml", "genie"])),
        ore_mode=draw(st.sampled_from(["user_first", "all_ores"])),
    )


def _non_integral(lo, hi):
    # from_file reads integral values as int, so floats are drawn non-integral
    return st.floats(lo, hi, exclude_max=True).filter(lambda v: not v.is_integer())


@st.composite
def _experiment_configs(draw):
    """Configs whose every sweep point can run: values each axis accepts."""
    sweep = draw(st.sampled_from(["ebn0_db", "n_users", "mu", "packets"]))
    joint = draw(_joint_configs())
    value = {
        "ebn0_db": st.integers(-100, 1000) | _non_integral(-100.0, 100.0),
        "n_users": st.integers(1, 1000),
        "mu": st.just(0) | _non_integral(0.0, 1.0),
        "packets": st.integers(max(joint.n_b, joint.n_pilot, 1), 1000),
    }[sweep]
    n_ores = draw(_counts)
    codebook = draw(st.none() | _paths)
    # a generated book may have at most _MAX_RUN_SIZE candidate supports
    bound = jcas.harness._MAX_RUN_SIZE
    d_vs = [d for d in range(1, n_ores + 1) if codebook or math.comb(n_ores, d) <= bound]
    voxel = draw(st.tuples(*[st.floats(0.01, 5.0)] * 3))
    cells = draw(st.tuples(*[st.integers(1, 10)] * 3))
    return ExperimentConfig(
        sweep=sweep,
        values=tuple(draw(st.lists(value, min_size=1, max_size=5))),
        trials=draw(st.integers(1, 100)),
        seed=draw(st.integers(0, 2**63)),
        output=draw(_paths),
        record_timing=draw(st.booleans()),
        scene=draw(st.none() | _paths),
        geometry=draw(st.none() | _paths),
        codebook=codebook,
        n_users=draw(_counts),
        n_ores=n_ores,
        d_v=draw(st.sampled_from(d_vs)),
        m=draw(st.integers(2, 64)),
        n_antennas=draw(_counts),
        sparsity=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        room=tuple(l * k for l, k in zip(voxel, cells)),
        voxel=voxel,
        joint=joint,
    )


@settings(derandomize=True, deadline=None, max_examples=50)
@given(cfg=_experiment_configs())
def test_config_file_round_trip(tmp_path_factory, cfg):
    path = tmp_path_factory.mktemp("ini") / "exp.ini"
    _write_ini(cfg, path)
    back = ExperimentConfig.from_file(path)
    assert back == cfg
    assert [type(v) for v in back.values] == [type(v) for v in cfg.values]


def test_config_inline_comments(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\nsweep = ebn0_db   ; one of: ebn0_db, n_users, mu, packets\n"
        "values = 0 5 10\n[joint]\nn_f = 10   ; imaging window (packets)\n"
    )
    cfg = ExperimentConfig.from_file(ini)
    assert cfg.sweep == "ebn0_db" and cfg.values == (0, 5, 10) and cfg.joint.n_f == 10


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


def _scenario_files(path, n_users=6, n_ores=4, n_antennas=4, room=(4.0, 4.0, 4.0)):
    """Write a generated scene, codebook and geometry into path; their names."""
    names = {k: str(path / f"{k}.txt") for k in ("scene", "codebook", "geometry")}
    save_scene(names["scene"], random_scene(RoomSpec(room, (0.5, 0.5, 0.5)), 0.015, seed=2))
    save_codebook(names["codebook"], build_codebook(n_users, n_ores))
    save_geometry(names["geometry"], default_geometry(n_users, n_antennas, room, seed=2))
    return names


_FILE_INI = """
[experiment]
sweep = {sweep}
values = 4 6
trials = 1
output = {out}

[scenario]
{name} = {path}
n_users = 6
n_ores = 4
n_antennas = 4

[joint]
n_packets = 2
n_slots = 16
n_f = 2
"""


@pytest.mark.parametrize(
    "name, written, sweep, message",
    [
        ("codebook", {"n_ores": 5}, "ebn0_db", "n_ores is 5 in the file, 4 in the config"),
        ("codebook", {"n_users": 8}, "ebn0_db", "n_users is 8 in the file, 6 in the config"),
        ("codebook", {}, "n_users", "the file fixes n_users, so sweep cannot be n_users"),
        ("geometry", {}, "n_users", "the file fixes n_users, so sweep cannot be n_users"),
        ("geometry", {"n_users": 8}, "ebn0_db", "n_users is 8 in the file, 6 in the config"),
        ("geometry", {"n_antennas": 8}, "ebn0_db", "n_antennas is 8 in the file, 4 in the config"),
        ("geometry", {"room": (6.0, 6.0, 6.0)}, "ebn0_db",
         r"users position \(4\.\d+, .*\) is not inside the room \(4.0, 4.0, 4.0\)"),
        ("scene", {"room": (6.0, 6.0, 6.0)}, "ebn0_db",
         r"scene room \(6.0, 6.0, 6.0\) voxel \(0.5, 0.5, 0.5\) does not match "
         r"the expected room \(4.0, 4.0, 4.0\) voxel \(0.5, 0.5, 0.5\)"),
    ],
)
def test_run_rejects_file_that_disagrees_with_config(
    tmp_path, capsys, name, written, sweep, message
):
    """A named file that disagrees with a [scenario] field is a config error:
    jcas run exits 1 before any point runs, naming the file, the field and
    both values."""
    path = _scenario_files(tmp_path, **written)[name]
    ini = tmp_path / "exp.ini"
    ini.write_text(_FILE_INI.format(sweep=sweep, out=tmp_path / "out", name=name, path=path))
    assert main(["run", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and path in err
    assert re.search(message, err), err
    assert not (tmp_path / "out").exists()
    cfg = ExperimentConfig.from_file(ini)  # the config itself opens no file
    with pytest.raises(ValueError, match=message):
        run_experiment(cfg, output_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, entry", [("codebook", "nan+0j"), ("codebook", "1e200+0j"), ("geometry", "nan")]
)
def test_validate_and_run_reject_a_non_finite_file_entry(tmp_path, capsys, name, entry):
    """A NaN codeword entry or coordinate, or a codeword of infinite energy,
    makes the file invalid: jcas validate exits 1 and jcas run exits 1
    before any point runs, both naming the file."""
    path = _scenario_files(tmp_path)[name]
    with open(path) as f:
        lines = f.read().splitlines()
    lines[1] = " ".join([entry] + lines[1].split()[1:])  # the first entry after the header
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: " in err and "not finite" in err, err
    ini = tmp_path / "exp.ini"
    ini.write_text(
        _FILE_INI.format(sweep="ebn0_db", out=tmp_path / "out", name=name, path=path)
    )
    assert main(["run", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and path in err and "not finite" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, raw", [("ebn0_db", "nan"), ("ebn0_db", "-inf"), ("eps_k", "nan"), ("eps_k", "-1")]
)
def test_cli_run_rejects_nan_snr_and_bad_gate(tmp_path, capsys, key, raw):
    """A NaN or -inf SNR would fail every point; a NaN or negative gate would
    never open. Both are config errors."""
    ini = tmp_path / "exp.ini"
    ini.write_text(
        f"[experiment]\nsweep = packets\nvalues = 2\ntrials = 1\noutput = {tmp_path / 'out'}\n"
        f"[scenario]\nn_antennas = 2\n[joint]\nn_slots = 16\nn_f = 2\n{key} = {raw}\n"
    )
    assert main(["run", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{key} must be" in err, err
    assert not (tmp_path / "out").exists()


_SWEEP_INI = """
[experiment]
sweep = {sweep}
values = {values}
trials = 1
seed = {seed}
output = {out}
[scenario]
n_antennas = 2
room = {room}
voxel = {voxel}
[joint]
n_packets = 2
n_slots = 16
n_f = 2
{joint}
"""


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"values": "nan"}, r"sweep values must be finite .*, got \(nan,\)"),
        ({"values": "0 nan"}, r"sweep values must be finite .*, got \(0, nan\)"),
        ({"values": "-inf"}, r"sweep values must be finite"),
        ({"sweep": "packets", "values": "inf"}, r"sweep values must be finite"),
        ({"sweep": "n_users", "values": "nan"}, r"sweep values must be finite"),
        ({"sweep": "mu", "values": "1.5"},
         r"sweep value mu = 1.5: momentum coefficient must lie in \[0, 1\), got 1.5"),
        ({"sweep": "packets", "values": "0"},
         r"sweep value packets = 0: need at least one packet"),
        ({"sweep": "packets", "values": "2.5"},
         r"packets sweep values must be whole numbers, got \(2.5,\)"),
        ({"sweep": "n_users", "values": "2.5"},
         r"n_users sweep values must be whole numbers, got \(2.5,\)"),
        ({"seed": "-3"}, r"seed must be >= 0, got -3"),
        ({"joint": "seed = 5"}, r"unknown \[joint\] key 'seed'"),
        ({"room": "inf 4 4"}, r"room \(inf, 4.0, 4.0\) .*: .*positive and finite"),
        ({"voxel": "1e200 0.5 0.5"}, r"room dimension 4.0 holds no voxel of dimension 1e\+200"),
    ],
    ids=["nan", "nan-among-values", "-inf-snr", "inf-packets", "nan-users", "mu-1.5",
         "no-packets", "half-packet", "half-user", "negative-seed", "joint-seed",
         "infinite-room", "empty-axis"],
)
def test_cli_run_rejects_values_and_seeds_no_point_can_run(tmp_path, capsys, edit, message):
    """A sweep value, seed or room that no point can run is a config error:
    jcas run exits 1 before any point runs, naming the config file."""
    fields = {"sweep": "ebn0_db", "values": "0", "seed": "1", "room": "4 4 4",
              "voxel": "0.5 0.5 0.5", "joint": "", **edit}
    ini = tmp_path / "exp.ini"
    ini.write_text(_SWEEP_INI.format(out=tmp_path / "out", **fields))
    assert main(["run", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {ini}: ") and re.search(message, err), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kw, message",
    [({"seed": -3}, "^seed must be >= 0"),
     ({"joint": JointConfig(seed=5)}, "^joint.seed is set per point from the master seed")],
)
def test_config_rejects_a_negative_or_joint_seed(kw, message):
    """Every point's seed is child_seed(seed, value, trial): a negative master
    seed cannot key it, and a joint seed would be silently replaced."""
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**kw)


def test_negative_sweep_values_run(tmp_path):
    """A negative SNR keys its own child seeds; the seeds of non-negative
    values do not move."""
    assert child_seed(1, 10, 0) == 17254082300398854598
    seeds = {child_seed(1, v, t) for v in (-5, 5, -0.5, 0.5) for t in (0, 1)}
    assert len(seeds) == 8
    cfg = ExperimentConfig(
        sweep="ebn0_db", values=(-5,), trials=1, n_antennas=2,
        joint=JointConfig(n_packets=2, n_slots=16, n_f=2),
    )
    messages = []
    paths = run_experiment(cfg, output_dir=str(tmp_path / "out"), log=messages.append)
    assert messages == [] and not (tmp_path / "out" / "failures.csv").exists()
    assert str(tmp_path / "out" / "scene_ebn0_db_-5.txt") in paths


@pytest.mark.parametrize(
    "name, header, message",
    [("scene", "room inf 4 4 voxel 0.5 0.5 0.5", "positive and finite"),
     ("codebook", "scma 6 -1 4 2", "header counts must be >= 1")],
)
def test_validate_and_run_reject_a_bad_file_header(tmp_path, capsys, name, header, message):
    """An infinite room or a negative codebook count in a file header makes
    the file invalid: jcas validate and jcas run exit 1, naming the file."""
    path = _scenario_files(tmp_path)[name]
    with open(path) as f:
        lines = f.read().splitlines()
    with open(path, "w") as f:
        f.write("\n".join([header] + lines[1:]) + "\n")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: " in err and message in err, err
    ini = tmp_path / "exp.ini"
    ini.write_text(
        _FILE_INI.format(sweep="ebn0_db", out=tmp_path / "out", name=name, path=path)
    )
    assert main(["run", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and path in err and message in err, err
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_degenerate_geometry_file(tmp_path, capsys):
    """A geometry file whose links are degenerate in the config's room would
    fail every point alike, so it is a config error naming the file."""
    path = _scenario_files(tmp_path)["geometry"]
    geom = load_geometry(path)
    irs = geom.irs.copy()
    irs[0] = geom.ap[0] + (0.1, 0.0, 0.0)  # 0.1 m from an antenna, inside the room
    save_geometry(path, Geometry(geom.users, geom.ap, irs))
    ini = tmp_path / "exp.ini"
    ini.write_text(
        _FILE_INI.format(sweep="ebn0_db", out=tmp_path / "out", name="geometry", path=path)
    )
    assert main(["run", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: geometry file {path}: degenerate geometry: IRS-AP"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["scene", "codebook", "geometry"])
def test_run_rejects_missing_file(tmp_path, capsys, name):
    path = tmp_path / "missing.txt"
    ini = tmp_path / "exp.ini"
    ini.write_text(
        _FILE_INI.format(sweep="ebn0_db", out=tmp_path / "out", name=name, path=path)
    )
    assert main(["run", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(path) in err
    assert not (tmp_path / "out").exists()


def test_scenario_files_are_read_once_in_the_parent(tmp_path, monkeypatch):
    """A config that names all three files reads each once, in the calling
    process, whether its points run on one pool worker or on two; the
    points use the files' objects, and the outputs do not depend on the
    worker count."""
    files = _scenario_files(tmp_path)
    cfg = ExperimentConfig(
        sweep="ebn0_db", values=(0, 10), trials=2, n_antennas=4, **files,
        joint=JointConfig(n_packets=3, n_slots=16, n_f=2, n_b=1),
    )
    reads = tmp_path / "reads.txt"

    def recording(load):
        def loader(path, *args):
            with open(reads, "a") as f:
                f.write(f"{os.getpid()} {os.path.basename(path)}\n")
            return load(path, *args)
        return loader

    for name in ("load_scene", "load_codebook", "load_geometry"):
        monkeypatch.setattr(jcas.harness, name, recording(getattr(jcas.harness, name)))
    for workers in (1, 2):
        monkeypatch.setattr(jcas.harness, "_usable_cpus", lambda: workers)
        reads.write_text("")
        run_experiment(replace(cfg), output_dir=str(tmp_path / str(workers)), log=None)
        assert sorted(reads.read_text().splitlines()) == [
            f"{os.getpid()} {name}.txt" for name in ("codebook", "geometry", "scene")
        ]
    for name in ("trace.csv", "summary.csv", "scene_ebn0_db_0.txt", "scene_ebn0_db_10.txt"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
    truth, _, cb, _, _ = build_system(cfg, 0, 0)
    scene, book, _ = cfg.files
    assert truth is scene and cb is book


def test_run_experiment_outputs_and_determinism(small_cfg, tmp_path):
    out_a = run_experiment(small_cfg, output_dir=str(tmp_path / "a"))
    out_b = run_experiment(small_cfg, output_dir=str(tmp_path / "b"))
    for name in ("trace.csv", "summary.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
    # scene snapshots load back as valid scenes
    snap = load_scene(tmp_path / "a" / "scene_ebn0_db_0.txt")
    assert snap.spec.n_voxels == 512
    columns = "axis,value,trial,packet,mse,ser,ser_post_feedback,gate,ks_used,diverged"
    with open(tmp_path / "a" / "trace.csv") as f:
        assert f.readline() == "# jcas-trace-v1\n"
        assert f.readline() == columns + "\n"
    # failures.csv is written only when a sweep point failed
    assert not (tmp_path / "a" / "failures.csv").exists()
    assert len(out_a) == 4
    # record_timing appends wall_ms to the same columns, in every row
    run_experiment(replace(small_cfg, record_timing=True), output_dir=str(tmp_path / "t"))
    with open(tmp_path / "t" / "trace.csv") as f:
        assert f.readline() == "# jcas-trace-v1\n"
        assert f.readline() == columns + ",wall_ms\n"
        rows = list(csv.reader(f))
    assert rows and all(len(row) == len(columns.split(",")) + 1 for row in rows)
    assert all(float(row[-1]) > 0 for row in rows)


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
    paths = run_experiment(cfg, log=messages.append)
    assert any("failed" in m for m in messages)
    with open(tmp_path / "out" / "summary.csv") as f:
        body = f.read()
    assert "n_users,6" in body and "n_users,300" not in body
    failures = tmp_path / "out" / "failures.csv"
    assert str(failures) in paths
    with open(failures, newline="") as f:
        assert f.readline() == "# jcas-failures-v1\n"
        rows = list(csv.reader(f))
    assert rows[0] == ["axis", "value", "trial", "error", "message"]
    assert len(rows) == 2
    axis, value, trial, error, message = rows[1]
    assert (axis, value, trial, error) == ("n_users", "300", "0", "ValueError")
    assert "max_d_f" in message and any(message in m for m in messages)


def test_oversized_mpa_tables_fail_their_point_only(tmp_path):
    """40 users on 9 OREs at d_v = 3 make an FN of degree 14, whose MPA
    table of 4^14 joint symbols per slot and antenna the runner rejects:
    that point gets a failures.csv row naming M^d_f and the sweep exits 0."""
    out = tmp_path / "out"
    ini = tmp_path / "exp.ini"
    ini.write_text(
        f"[experiment]\nsweep = n_users\nvalues = 6 40\ntrials = 1\noutput = {out}\n"
        "[scenario]\nn_ores = 9\nd_v = 3\nn_antennas = 2\n"
        "[joint]\nn_packets = 2\nn_slots = 16\nn_f = 2\n"
    )
    cfg = ExperimentConfig.from_file(ini)
    with pytest.raises(ValueError, match=r"M\^d_f = 4\^14"):
        JointRunner(*build_system(cfg, 40, 0))
    assert main(["run", str(ini)]) == 0
    with open(out / "failures.csv", newline="") as f:
        rows = list(csv.reader(f))[2:]
    assert len(rows) == 1
    assert rows[0][:4] == ["n_users", "40", "0", "ValueError"] and "4^14" in rows[0][4]


@pytest.mark.parametrize(
    "section, lines, named",
    [
        ("experiment", "sweep = n_users\nvalues = 6 1e200", "n_users sweep value 1e+200"),
        ("experiment", "sweep = packets\nvalues = 1000001", "packets sweep value 1000001"),
        ("scenario", "n_users = 1000001", "n_users = 1000001"),
        ("joint", "n_packets = 1000001", "joint.n_packets = 1000001"),
        ("scenario", "n_ores = 40\nd_v = 20", "C(40, 20) candidate supports"),
    ],
    ids=["n_users-sweep", "packets-sweep", "n_users", "n_packets", "supports"],
)
def test_config_bounds_the_run_size(tmp_path, capsys, section, lines, named):
    """A user count, packet count or count of candidate supports above the
    run-size bound is a config error naming the file and the value, found
    before any support is listed or any point runs."""
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[{section}]\n{lines}\n")
    with pytest.raises(ValueError, match="run-size bound") as caught:
        ExperimentConfig.from_file(ini)
    assert str(ini) in str(caught.value) and named in str(caught.value)
    assert main(["run", str(ini)]) == 1
    assert str(ini) in capsys.readouterr().err


def test_bug_in_sweep_point_propagates(small_cfg, tmp_path, monkeypatch):
    """A programming error is not reported as a failed sweep point."""

    def broken(*args, **kwargs):
        raise TypeError("bug in the loop")

    monkeypatch.setattr(jcas.harness, "JointRunner", broken)
    monkeypatch.setattr(jcas.harness, "_usable_cpus", lambda: 2)  # through the pool
    messages = []
    with pytest.raises(TypeError, match="bug in the loop"):
        run_experiment(small_cfg, output_dir=str(tmp_path / "out"), log=messages.append)
    assert messages == []
    assert multiprocessing.active_children() == []


def test_scene_snapshot_is_trial_zeros(small_cfg, tmp_path, monkeypatch):
    """A value whose trial 0 failed gets no snapshot, though its later
    trials still count in its summary row; the others get trial 0's image."""
    build = jcas.harness.build_system

    def trial_zero_of_10_fails(cfg, value, trial):
        if (value, trial) == (10, 0):
            raise ValueError("trial 0 of 10 fails")
        return build(cfg, value, trial)

    monkeypatch.setattr(jcas.harness, "build_system", trial_zero_of_10_fails)
    monkeypatch.setattr(jcas.harness, "_usable_cpus", lambda: 2)  # through the pool
    out = tmp_path / "out"
    run_experiment(small_cfg, output_dir=str(out), log=lambda msg: None)
    assert not (out / "scene_ebn0_db_10.txt").exists()
    with open(out / "summary.csv") as f:
        rows = list(csv.DictReader(f.readlines()[1:]))
    assert [(r["value"], r["trials"]) for r in rows] == [("0", "2"), ("10", "1")]
    monkeypatch.undo()
    first = jcas.harness._run_point(small_cfg, 0, 0).run.x_final
    assert np.array_equal(load_scene(out / "scene_ebn0_db_0.txt").values, first)


def test_outputs_identical_across_worker_counts(tmp_path, monkeypatch):
    """Every output file and the log order do not depend on the worker count,
    and no worker outlives the run."""
    cfg = ExperimentConfig(
        sweep="n_users",
        values=(6, 300, 4),  # 300 users fail: failures.csv is written
        trials=2,
        n_ores=4,
        n_antennas=8,
        joint=JointConfig(n_packets=3, n_slots=64, n_f=2, n_b=1),
    )
    logs = {}
    for workers in (1, 2):
        monkeypatch.setattr(jcas.harness, "_usable_cpus", lambda: workers)
        logs[workers] = []
        run_experiment(cfg, output_dir=str(tmp_path / str(workers)), log=logs[workers].append)
        assert multiprocessing.active_children() == []
    assert len(logs[1]) == 2 and logs[1] == logs[2]
    names = sorted(os.listdir(tmp_path / "1"))
    assert "failures.csv" in names and "scene_n_users_4.txt" in names
    assert names == sorted(os.listdir(tmp_path / "2"))
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_cli_run_and_compare(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text(SMALL_INI.format(out=tmp_path / "out"))
    assert main(["run", str(ini)]) == 0
    trace = tmp_path / "out" / "trace.csv"
    assert trace.exists()
    assert main(["compare", str(trace), str(trace)]) == 0
    assert main(["run", str(tmp_path / "missing.ini")]) == 1


@pytest.mark.parametrize(
    "entry",
    ["ser 0.1 extra", "ser", "ser abc", "ser nan", "ser -0.1"],
    ids=["too-many", "too-few", "not-a-number", "nan", "negative"],
)
def test_cli_compare_names_a_malformed_tolerance_line(tmp_path, capsys, entry):
    trace = tmp_path / "trace.csv"
    trace.write_text("# jcas-trace-v1\nser\n0.5\n")
    tols = tmp_path / "tols.txt"
    tols.write_text(f"# tolerances\nmse 0.01\n{entry}\n")
    assert main(["compare", str(trace), str(trace), "--tol-file", str(tols)]) == 1
    assert f"{tols}: line 3: " in capsys.readouterr().err


def test_all_failed_sweep_writes_outputs_then_raises(tmp_path):
    cfg = ExperimentConfig(
        sweep="n_users",
        values=(300,),  # 300 users cannot be placed / built
        trials=1,
        n_ores=4,
        output=str(tmp_path / "out"),
        joint=JointConfig(n_packets=2, n_slots=64, n_f=2),
    )
    with pytest.raises(SweepError, match="all sweep points failed"):
        run_experiment(cfg, log=lambda msg: None)
    out = tmp_path / "out"
    assert {"trace.csv", "summary.csv", "failures.csv"} <= set(os.listdir(out))
    with open(out / "summary.csv", newline="") as f:
        assert f.readline() == "# jcas-summary-v1\n"
        assert len(list(csv.reader(f))) == 1  # header only
    with open(out / "failures.csv", newline="") as f:
        assert len(list(csv.reader(f))) == 3  # schema, header, the one failure
    ini = tmp_path / "exp.ini"
    ini.write_text(
        f"[experiment]\nsweep = n_users\nvalues = 300\ntrials = 1\noutput = {out}\n"
        "[scenario]\nn_ores = 4\n[joint]\nn_packets = 2\nn_slots = 64\nn_f = 2\n"
    )
    assert main(["run", str(ini)]) == 2


def test_cli_validate(tmp_path, capsys):
    cb_path = tmp_path / "cb.txt"
    save_codebook(cb_path, default_codebook())
    assert main(["validate", str(cb_path)]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    assert main(["validate", str(bad)]) == 1
    one = tmp_path / "one_codeword.txt"
    one.write_text("scma 2 2 1 2\n0.7+0j 0.7+0j\n0.7+0j 0.7j\n")
    capsys.readouterr()
    assert main(["validate", str(one)]) == 1
    assert f"{one}: need M >= 2" in capsys.readouterr().err  # the book's own check
    assert main(["validate", str(tmp_path / "missing.txt")]) == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("scma 2 x 2 2\n", "scma 2 x 2 2"),
        ("scma 1 2 2 2\n0.7 0.7\n0.7 zz\n", "0.7 zz"),
        ("room 4 4 x voxel 0.5 0.5 0.5\n", "room 4 4 x voxel 0.5 0.5 0.5"),
        ("room 4 4 4 voxel 0.5 0.5 0.5\n1 2 x 0.5\n", "1 2 x 0.5"),
        ("users\n1 2 z\n", "1 2 z"),
    ],
    ids=["codebook-header", "codebook-entry", "scene-header", "scene-voxel", "geometry"],
)
def test_cli_validate_names_the_file_on_a_malformed_number(tmp_path, capsys, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}: " in err and repr(line) in err


def _subprocess_env(**extra):
    """Environment that imports this checkout's jcas in a child interpreter."""
    src = os.path.dirname(os.path.dirname(jcas.harness.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def test_outputs_identical_across_blas_thread_counts(tmp_path):
    """A run's trace and summary do not depend on the caller's BLAS thread
    count, on one pool worker or on two (each drops to one BLAS thread)."""
    code = (
        "import sys, jcas.harness; from jcas.harness import ExperimentConfig, run_experiment; "
        "from jcas.joint import JointConfig; "
        "jcas.harness._usable_cpus = lambda: int(sys.argv[2]); "
        "cfg = ExperimentConfig(sweep='ebn0_db', values=(5,), trials=2, seed=2, "
        "n_users=6, n_antennas=16, joint=JointConfig(n_packets=8, n_f=4, k_s=3, n_b=1)); "
        "run_experiment(cfg, output_dir=sys.argv[1], log=lambda m: None)"
    )
    runs = [(threads, workers) for threads in "12" for workers in "12"]
    for threads, workers in runs:
        env = _subprocess_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / (threads + workers)), workers],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
    for name in ("trace.csv", "summary.csv"):
        first = (tmp_path / "11" / name).read_bytes()
        for threads, workers in runs[1:]:
            assert (tmp_path / (threads + workers) / name).read_bytes() == first


# child-interpreter code binding `counts()` to the thread count of each
# OpenBLAS the process has mapped, read apart from jcas's own lookup
_BLAS_COUNTS = (
    "import ctypes, json; "
    "paths = {ln.split()[-1] for ln in open('/proc/self/maps') if 'openblas' in ln}; "
    "libs = [ctypes.CDLL(path) for path in paths]; "
    "get = [getattr(lib, n) for lib in libs for n in ('openblas_get_num_threads', "
    "'openblas_get_num_threads64_', 'scipy_openblas_get_num_threads64_') "
    "if hasattr(lib, n)]; "
    "counts = lambda: [g() for g in get]; "
)


def test_pool_worker_initializer_sets_one_blas_thread():
    """_one_blas_thread drops OpenBLAS to one thread where OpenBLAS is loaded."""
    code = (
        "from jcas.harness import _one_blas_thread; " + _BLAS_COUNTS +
        "before = counts(); _one_blas_thread(); "
        "print(json.dumps([before, counts()]))"
    )
    env = _subprocess_env(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    before, after = json.loads(out.stdout)
    if not before:
        pytest.skip("numpy is not linked against OpenBLAS")
    assert set(after) == {1}, (before, after)  # before: 2 threads on a multi-CPU machine


def test_points_run_in_workers_with_one_blas_thread():
    """Even with one usable CPU, every point runs in a worker process, not
    the caller's, with one OpenBLAS thread, and the caller's count is
    unchanged afterwards, also after a point raises."""
    code = "import os, jcas.harness; " + _BLAS_COUNTS + """
jcas.harness._usable_cpus = lambda: 1
def point(cfg, value, trial):
    if trial == 2:
        raise ZeroDivisionError
    return os.getpid(), counts()
jcas.harness._run_point = point
before = counts()
seen = jcas.harness.run_points(None, [(0, 0), (0, 1)])
after = counts()
try:
    jcas.harness.run_points(None, [(0, 2)])
except ZeroDivisionError:
    pass
print(json.dumps([os.getpid(), before, seen, after, counts()]))
"""
    env = _subprocess_env(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    caller, before, seen, after, after_error = json.loads(out.stdout)
    assert len(seen) == 2 and caller not in [pid for pid, _ in seen]
    if not before:
        pytest.skip("numpy is not linked against OpenBLAS")
    if set(before) != {2}:
        pytest.skip(f"OpenBLAS starts with {before} threads, not the 2 asked for")
    assert [c for _, c in seen] == [[1] * len(before)] * 2
    assert after == before and after_error == before


def test_run_points_of_no_points_is_empty(small_cfg):
    assert jcas.harness.run_points(small_cfg, []) == []


def test_import_leaves_heavy_scipy_modules_unloaded():
    """Importing the loop, and running a packet of it, loads no scipy module:
    scipy.special alone doubles jcas's import time, and only GAMP's restart
    mode and metrics.ser_union_bound need scipy."""
    env = _subprocess_env()
    code = (
        "import sys, jcas.harness, jcas.joint; "
        "scipy = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']; "
        "after_import = scipy(); "
        "cfg = jcas.harness.ExperimentConfig(n_antennas=4, "
        "joint=jcas.joint.JointConfig(n_packets=2, n_slots=16, n_pilot=0, n_f=2)); "
        "runner = jcas.joint.JointRunner(*jcas.harness.build_system(cfg, cfg.values[0], 0)); "
        "runner.forward_step(1); "
        "print(' '.join(after_import), '|', ' '.join(scipy()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["|"]


_TOOL = Path(__file__).resolve().parents[1] / "tools" / "reference_outputs.py"
_FUZZ_TOKENS = ("nan", "inf", "-inf", "-1", "0", "1e200", "x", "1e200+0j")
_PATH_KEYS = ("output", "scene", "geometry", "codebook")


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """(directory, {file name: lines}) of config I's three scenario files
    and a config that names them, trimmed to one value, one trial and 2
    packets, with its output in the directory."""
    spec = importlib.util.spec_from_file_location("reference_outputs", _TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    base = tmp_path_factory.mktemp("fuzz_base")
    cfg = tool.file_config(str(base))
    cfg = replace(
        cfg, values=cfg.values[:1], trials=1, output=str(base / "out"),
        joint=replace(cfg.joint, n_packets=2),
    )
    _write_ini(cfg, base / "exp.ini")
    return base, {p.name: p.read_text().splitlines() for p in sorted(base.iterdir())}


def _mutable_tokens(name, lines):
    """(line, token) positions a mutation may replace: the values of a
    config's keys but its paths, and every number of a scenario file (not
    its section headers or header keywords)."""
    spots = []
    for i, line in enumerate(lines):
        tokens = line.split()
        if name.endswith(".ini"):
            if "=" in tokens and tokens[0] not in _PATH_KEYS:
                spots += [(i, j) for j in range(tokens.index("=") + 1, len(tokens))]
            continue
        for j, token in enumerate(tokens):
            try:
                complex(token)
            except ValueError:
                continue
            spots.append((i, j))
    return spots


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_cli_boundary_fuzz(tmp_path_factory, fuzz_base, data):
    """One token of the config or of one scenario file replaced by a value
    at or beyond the boundary: jcas validate and jcas run exit 0 or 1, never
    2 and never with an exception, and an exit 1 names the mutated file."""
    base, texts = fuzz_base
    name = data.draw(st.sampled_from(sorted(texts)))
    i, j = data.draw(st.sampled_from(_mutable_tokens(name, texts[name])))
    token = data.draw(st.sampled_from(_FUZZ_TOKENS))
    work = tmp_path_factory.mktemp("fuzz")
    for fname, lines in texts.items():
        if fname == name:
            tokens = lines[i].split()
            tokens[j] = token
            lines = lines[:i] + [" ".join(tokens)] + lines[i + 1:]
        text = "\n".join(lines) + "\n"
        (work / fname).write_text(text.replace(str(base), str(work)))
    commands = [["run", str(work / "exp.ini")]]
    if name != "exp.ini":
        commands.append(["validate", str(work / name)])
    for argv in commands:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1), (argv, name, i, j, token, err.getvalue())
        if code == 1:
            assert str(work / name) in err.getvalue(), (argv, token, err.getvalue())

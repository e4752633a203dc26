"""Write the outputs of eight fixed reference sweeps, for byte comparison.

    PYTHONPATH=src python tools/reference_outputs.py OUT
    PYTHONPATH=src python tools/reference_outputs.py --update

The first form runs each config below through run_experiment into
OUT/<name>/: trace.csv, summary.csv, the scene files, failures.csv if a
point failed, and log.txt with the run's log lines. It runs the jcas on
PYTHONPATH, so this one script serves any two checkouts; compare the two
trees:

    PYTHONPATH=../parent/src python tools/reference_outputs.py ref_parent
    PYTHONPATH=src python tools/reference_outputs.py ref_change
    diff -r ref_parent ref_change                               # byte for byte
    jcas compare ref_parent/A/trace.csv ref_change/A/trace.csv  # per column

The second form reruns them and rewrites the committed reference that
tests/test_reference_outputs.py checks each run against: for each config,
tests/data/reference/<name>/ holds trace.csv, summary.csv and sha256.txt,
the SHA-256 of every other file of its output tree. Use it only for a
change that moves the outputs on purpose, and list what moved.

Together the configs cover the closed loop's paths: an SNR sweep on 16
antennas (A), a crowded book with heavy momentum (B), momentum with deep
feedback, self-iteration and every ORE stacked (D), a window shorter than
the feedback depth with two pilots and momentum (E), the genie decoder
(F), frames of only max d_f slots (G), where most estimates flag an ORE
unobserved and sense stacks a masked subset of the rows, the ML decoder
with self-iteration and feedback (H), and a scenario read from a scene, a
codebook and a geometry file that the tool first writes into OUT/I/ (I).
Nothing here asserts; the test does.
"""

import hashlib
import os
import shutil
import sys
import tempfile

from jcas.channel import save_geometry
from jcas.harness import ExperimentConfig, default_geometry, run_experiment
from jcas.joint import JointConfig
from jcas.scene import RoomSpec, random_scene, save_scene
from jcas.scma import build_codebook, save_codebook

REFERENCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests", "data", "reference"
)
# compared column by column; every other output file is compared by its hash
CSVS = ("trace.csv", "summary.csv")

CONFIGS = {
    "A": ExperimentConfig(
        sweep="ebn0_db", values=(0, 5, 10), trials=2, seed=1, n_antennas=16,
        joint=JointConfig(n_packets=12, n_f=10, n_b=1, k_s=5),
    ),
    "B": ExperimentConfig(
        sweep="n_users", values=(20,), trials=2, seed=5,
        n_users=20, n_ores=7, d_v=2, n_antennas=4, sparsity=0.03,
        joint=JointConfig(
            n_packets=15, n_slots=32, n_pilot=2, n_f=4, n_b=0, k_s=1,
            ebn0_db=8.0, mu=0.9, eps_k=1.5,
        ),
    ),
    "D": ExperimentConfig(
        sweep="packets", values=(12,), trials=2, seed=3, n_antennas=4,
        joint=JointConfig(
            n_f=6, n_b=3, k_s=3, mu=0.5, eps_k=0.5, ebn0_db=3.0,
            ore_mode="all_ores",
        ),
    ),
    "E": ExperimentConfig(
        sweep="mu", values=(0.6,), trials=2, seed=4, n_antennas=4,
        joint=JointConfig(
            n_packets=12, n_pilot=2, n_f=2, n_b=3, k_s=2, eps_k=0.5, ebn0_db=6.0,
        ),
    ),
    "F": ExperimentConfig(
        sweep="packets", values=(10,), trials=2, seed=6, n_antennas=4,
        joint=JointConfig(n_f=3, n_b=2, k_s=2, ebn0_db=4.0, decoder="genie"),
    ),
    "G": ExperimentConfig(
        sweep="packets", values=(10,), trials=2, seed=7, n_antennas=4,
        joint=JointConfig(n_slots=3, n_f=4, n_b=1, k_s=2, ebn0_db=6.0),
    ),
    "H": ExperimentConfig(
        sweep="packets", values=(8,), trials=2, seed=8, n_antennas=4,
        joint=JointConfig(n_f=4, n_b=1, k_s=2, ebn0_db=4.0, decoder="ml"),
    ),
}




def file_config(out) -> ExperimentConfig:
    """Config I: write a generated scene, codebook and geometry into out,
    and return a config that names those files and agrees with them."""
    room, n_users, n_antennas = (4.0, 4.0, 4.0), 6, 4
    files = {k: os.path.join(out, f"input_{k}.txt") for k in ("scene", "codebook", "geometry")}
    save_scene(files["scene"], random_scene(RoomSpec(room, (0.5, 0.5, 0.5)), 0.015, seed=9))
    save_codebook(files["codebook"], build_codebook(n_users, 4))
    save_geometry(files["geometry"], default_geometry(n_users, n_antennas, room, seed=9))
    return ExperimentConfig(
        sweep="ebn0_db", values=(2, 8), trials=2, seed=9, n_users=n_users,
        n_antennas=n_antennas, room=room, **files,
        joint=JointConfig(n_packets=8, n_f=4, n_b=1, k_s=2),
    )


NAMES = (*CONFIGS, "I")


def run_all(root):
    """Run every reference config into root/<name>/."""
    for name in NAMES:
        out = os.path.join(root, name)
        os.makedirs(out, exist_ok=True)
        cfg = CONFIGS[name] if name in CONFIGS else file_config(out)
        with open(os.path.join(out, "log.txt"), "w") as log:
            run_experiment(cfg, output_dir=out, log=lambda line: print(line, file=log))


def digests(tree) -> str:
    """sha256sum-style lines for every file of tree but the CSVS, by name."""
    lines = []
    for name in sorted(os.listdir(tree)):
        if name not in CSVS:
            with open(os.path.join(tree, name), "rb") as f:
                lines.append(f"{hashlib.sha256(f.read()).hexdigest()}  {name}\n")
    return "".join(lines)


def update_reference():
    """Rerun the configs and rewrite the committed reference files."""
    with tempfile.TemporaryDirectory() as root:
        run_all(root)
        for name in NAMES:
            ref = os.path.join(REFERENCE, name)
            os.makedirs(ref, exist_ok=True)
            for csv_name in CSVS:
                shutil.copyfile(os.path.join(root, name, csv_name), os.path.join(ref, csv_name))
            with open(os.path.join(ref, "sha256.txt"), "w") as f:
                f.write(digests(os.path.join(root, name)))
            print(f"{name}: {sorted(os.listdir(ref))}")


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: reference_outputs.py OUT | --update")
    print(f"jcas from {os.path.dirname(sys.modules['jcas.harness'].__file__)}")
    if argv[0] == "--update":
        update_reference()
        return
    run_all(argv[0])
    for name in NAMES:
        print(f"{name}: {sorted(os.listdir(os.path.join(argv[0], name)))}")


if __name__ == "__main__":
    main(sys.argv[1:])

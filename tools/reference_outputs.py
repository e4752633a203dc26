"""Write the outputs of seven fixed reference sweeps, for byte comparison.

    PYTHONPATH=src python tools/reference_outputs.py OUT

runs each config below through run_experiment into OUT/<name>/: trace.csv,
summary.csv, the scene files, failures.csv if a point failed, and log.txt
with the run's log lines. It runs the jcas on PYTHONPATH, so this one script
serves any two checkouts; compare the two trees:

    PYTHONPATH=../parent/src python tools/reference_outputs.py ref_parent
    PYTHONPATH=src python tools/reference_outputs.py ref_change
    diff -r ref_parent ref_change                               # byte for byte
    jcas compare ref_parent/A/trace.csv ref_change/A/trace.csv  # per column

Together the configs cover the closed loop's paths: an SNR sweep on 16
antennas (A), a crowded book with heavy momentum (B), momentum with deep
feedback, self-iteration and every ORE stacked (D), a window shorter than
the feedback depth with two pilots and momentum (E), the genie decoder
(F), frames of only max d_f slots (G), where most estimates flag an ORE
unobserved and sense stacks a masked subset of the rows, and the ML decoder
with self-iteration and feedback (H). Report only: nothing here asserts.
"""

import os
import sys

from jcas.harness import ExperimentConfig, run_experiment
from jcas.joint import JointConfig

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


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: reference_outputs.py OUT")
    print(f"jcas from {os.path.dirname(sys.modules['jcas.harness'].__file__)}")
    for name, cfg in CONFIGS.items():
        out = os.path.join(argv[0], name)
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "log.txt"), "w") as log:
            run_experiment(cfg, output_dir=out, log=lambda line: print(line, file=log))
        print(f"{name}: {sorted(os.listdir(out))}")


if __name__ == "__main__":
    main(sys.argv[1:])

"""``python tools/cli_battery.py OUT``: run a fixed list of onetr commands
through ``onetr.cli.main`` in OUT, with relative paths only, and exit 1 on
any unexpected exit code. Run it on two checkouts and ``diff -r`` the two
OUT directories to compare every artifact, manifests included.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from onetr.cli import main  # noqa: E402

BASE, NEAT = "base/checkpoint.json", "neat/neat_checkpoint.json"
IDEAL, STRESSED = ["--device-mode", "ideal_switch"], ["--device", "stressed"]
CELL = ["characterize", "--gm", "2e-5", "--vg", "0.8"]
# gate voltages on both sides of threshold, a non-default tm and supply
WIDE_CUTOFF = ["cutoff", "--vg", "0.0:1.3:0.01", "--tm", "0.005", "--vsupply",
               "1.0"]
# (expected exit code, output directory, argv without --out)
RUNS = [
    # the README's five commands
    (0, "base", ["train"]),
    (0, "sched", ["search-vg", "--checkpoint", BASE]),
    (0, "neat", ["neat", "--checkpoint", BASE]),
    (0, "eval", ["eval", "--checkpoint", NEAT, "--mode", "crossbar"]),
    (0, "report", ["report", "--checkpoint", BASE, "--baseline-vg", "1.0",
                   "--compare-vg", "0.8"]),
    (0, "cell", CELL),
    (0, "cell_ideal", CELL + IDEAL),
    (0, "cell_stressed", CELL + STRESSED),
    # deep subthreshold: currents many decades below g_m * v_in
    (0, "cell_stressed_subthreshold", ["characterize", "--gm", "2e-5", "--vg",
                                       "0.3", *STRESSED]),
    (4, "cell_stressed_ideal", CELL + STRESSED + IDEAL),  # no conductance
    (0, "cutoff", ["cutoff"]),
    (0, "cutoff_ideal", ["cutoff", *IDEAL]),
    (0, "cutoff_stressed", ["cutoff", *STRESSED]),
    (0, "cutoff_wide", WIDE_CUTOFF),
    (0, "cutoff_wide_stressed", WIDE_CUTOFF + STRESSED),
    (2, "cutoff_bad_spec", ["cutoff", "--vg", "abc"]),
    (0, "power", ["power-mc", "--samples", "20"]),
    (0, "power_stressed_ideal", ["power-mc", "--samples", "20", *STRESSED,
                                 *IDEAL]),
    # several memory-bounded sample slices, each solved at five voltages
    (0, "power_sliced", ["power-mc", "--vg", "0.5,0.8,0.9,1.0,1.2", "--rows",
                         "64", "--cols", "64", "--samples", "40"]),
    (0, "sched_step_down", ["search-vg", "--checkpoint", BASE, "--step-down"]),
    (0, "eval_software", ["eval", "--checkpoint", NEAT]),
    (0, "eval_ideal", ["eval", "--checkpoint", NEAT, "--mode", "crossbar",
                       *IDEAL]),
    (0, "eval_stressed", ["eval", "--checkpoint", NEAT, "--mode", "crossbar",
                          *STRESSED]),
    (0, "energy", ["energy", "--checkpoint", NEAT, "--max-samples", "20"]),
    (0, "energy_ideal", ["energy", "--checkpoint", NEAT, "--max-samples",
                         "20", *IDEAL]),
    (0, "energy_stressed", ["energy", "--checkpoint", NEAT, "--max-samples",
                            "20", *STRESSED]),
    (0, "report_ideal", ["report", "--checkpoint", BASE, "--max-samples",
                         "20", *IDEAL]),
    (0, "report_stressed", ["report", "--checkpoint", BASE, "--max-samples",
                            "20", *STRESSED]),
]

if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/cli_battery.py OUT")
    os.makedirs(sys.argv[1], exist_ok=True)
    os.chdir(sys.argv[1])
    failed = 0
    for want, out, argv in RUNS:
        if (got := main(argv + ["--out", out])) != want:
            print(f"exit {got}, expected {want}: {argv}", file=sys.stderr)
            failed = 1
    sys.exit(failed)

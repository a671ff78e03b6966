"""``python tools/cli_battery.py OUT``: run a fixed list of onetr commands
through ``onetr.cli.main`` in OUT, with relative paths only, and exit 1 on
any unexpected exit code. Run it on two checkouts and ``diff -r`` the two
OUT directories to compare every artifact, manifests included.
"""

import os
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from onetr import (default_device, make_blobs, save_device_file,  # noqa: E402
                   write_dataset_csv)
from onetr.cli import main  # noqa: E402

BASE, NEAT = "base/checkpoint.json", "neat/neat_checkpoint.json"
IDEAL, STRESSED = ["--device-mode", "ideal_switch"], ["--device", "stressed"]
# the default device with lambda = 3, written into OUT: above threshold,
# 2 * lambda * overdrive > 1 makes the cell equation non-convex; with a 1 V
# supply, cells there miss the plain Newton steps' residual test
LAMBDA3 = ["--device", "lambda3.json"]
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
    (2, "cutoff_nonfinite_spec", ["cutoff", "--vg", "0.7:1.0:nan"]),
    (0, "power", ["power-mc", "--samples", "20"]),
    (0, "power_stressed_ideal", ["power-mc", "--samples", "20", *STRESSED,
                                 *IDEAL]),
    # several memory-bounded sample slices, each solved at five voltages
    (0, "power_sliced", ["power-mc", "--vg", "0.5,0.8,0.9,1.0,1.2", "--rows",
                         "64", "--cols", "64", "--samples", "40"]),
    # each sample over the cell budget: two row blocks, its weights drawn
    # once more on a twin stream to reach its read voltages
    (0, "power_row_blocks", ["power-mc", "--rows", "300", "--cols", "300",
                             "--samples", "2", "--vg", "0.9"]),
    # a read power beyond float range: refused, only the manifest written
    (4, "power_overflow", ["power-mc", "--rows", "1", "--cols", "1",
                           "--samples", "1", "--vg", "1e200"]),
    (0, "cutoff_lambda3", ["cutoff", *LAMBDA3, "--vg", "0.0:1.3:0.05",
                           "--vsupply", "1.0"]),
    (0, "cell_lambda3", ["characterize", *LAMBDA3, "--gm", "2e-5", "--vg",
                         "1.2"]),
    (0, "power_lambda3", ["power-mc", *LAMBDA3, "--samples", "20", "--vg",
                          "0.8,1.2"]),
    (0, "sched_step_down", ["search-vg", "--checkpoint", BASE, "--step-down"]),
    # the homogeneous builder, stepped down, and NEAT at its schedule
    (0, "sched_homogeneous_step_down", ["search-vg", "--checkpoint", BASE,
                                        "--vg", "0.8", "--step-down"]),
    (0, "neat_homogeneous", ["neat", "--checkpoint", BASE, "--vg", "0.9",
                             "--iters", "2"]),
    # 2,000 training rows in batches of 48: 41 full batches and one of 32
    (0, "base_batch48", ["train", "--batch", "48", "--epochs", "2"]),
    (0, "neat_batch48", ["neat", "--checkpoint",
                         "base_batch48/checkpoint.json", "--batch", "48",
                         "--iters", "2"]),
    (0, "eval_software", ["eval", "--checkpoint", NEAT]),
    (0, "eval_ideal", ["eval", "--checkpoint", NEAT, "--mode", "crossbar",
                       *IDEAL]),
    (0, "eval_stressed", ["eval", "--checkpoint", NEAT, "--mode", "crossbar",
                          *STRESSED]),
    # the ideal switch below threshold: every column sums to zero
    (0, "eval_stressed_ideal", ["eval", "--checkpoint", NEAT, "--mode",
                                "crossbar", *STRESSED, *IDEAL]),
    (0, "energy", ["energy", "--checkpoint", NEAT, "--max-samples", "20"]),
    (0, "energy_ideal", ["energy", "--checkpoint", NEAT, "--max-samples",
                         "20", *IDEAL]),
    (0, "energy_stressed", ["energy", "--checkpoint", NEAT, "--max-samples",
                            "20", *STRESSED]),
    # the ideal switch below threshold: gate charge only
    (0, "energy_stressed_ideal", ["energy", "--checkpoint", NEAT,
                                  "--max-samples", "20", *STRESSED, *IDEAL]),
    # the resistive term alone: no gate charge, twice the pulse
    (0, "energy_resistive", ["energy", "--checkpoint", NEAT, "--max-samples",
                             "20", "--c-gate", "0", "--pulse-width", "2e-9"]),
    (0, "report_ideal", ["report", "--checkpoint", BASE, "--max-samples",
                         "20", *IDEAL]),
    (0, "report_stressed", ["report", "--checkpoint", BASE, "--max-samples",
                            "20", *STRESSED]),
    # read voltages calibrated on a 2-row training split, written into OUT:
    # each layer's 99.9th percentile is read among its 2 largest inputs
    (0, "eval_calib2", ["eval", "--checkpoint", BASE, "--schedule",
                        "sched/schedule.json", "--mode", "crossbar", "--data",
                        "calib2.csv"]),
]

if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/cli_battery.py OUT")
    os.makedirs(sys.argv[1], exist_ok=True)
    os.chdir(sys.argv[1])
    t, mem = default_device()
    save_device_file("lambda3.json", replace(t, lambda_=3.0), mem)
    blobs = make_blobs()
    write_dataset_csv("calib2.csv", blobs.x_train[:2], blobs.y_train[:2])
    failed = 0
    for want, out, argv in RUNS:
        if (got := main(argv + ["--out", out])) != want:
            print(f"exit {got}, expected {want}: {argv}", file=sys.stderr)
            failed = 1
    sys.exit(failed)

"""Command line entry point for reproducible characterization and training runs.

Every subcommand writes its artifacts plus a ``run_manifest.json`` (full
configuration echo, seed, toolkit version, exit code; written last) into the
chosen output directory, so a run is reproducible from the manifest alone.
Every option a subcommand declares is one it reads. Output directories are
guarded by a lock file; concurrent runs into the same directory are refused.

Exit codes: 0 success, 2 usage, 3 I/O, 4 domain (invalid values, degenerate
inputs). Errors print a single line ``error: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .characterize import (DEFAULT_TM_THRESHOLD, DEFAULT_V_SUPPLY,
                           cutoff_table, linear_vin_range, power_monte_carlo,
                           sweep_geff, tolerance_metric, write_cutoff_csv)
from .crossbar import DEFAULT_C_GATE, DEFAULT_PULSE_WIDTH
from .data import make_blobs, read_dataset_csv
from .device import (ANALYTICAL, IDEAL_SWITCH, default_device,
                     leakage_stressed_device, load_device_file)
from .errors import ToolkitError, atomic_write, read_json_object
from .network import Model, TrainConfig, accuracy, train
from .training import (evaluate, homogeneous_schedule, iterative_train,
                       linear_fraction, load_checkpoint, network_energy,
                       program_model, save_checkpoint, schedule_from_dict,
                       schedule_to_dict, search_heterogeneous_vg,
                       step_down_schedule)

_LOCK_NAME = ".onetr.lock"
MANIFEST_FILE_VERSION = 1
_DEVICE_MODES = {"analytical": ANALYTICAL, "ideal_switch": IDEAL_SWITCH}
DEFAULT_VG_GRID = "0.7:1.0:0.05"
MAX_VG_POINTS = 1024  # longest gate-voltage grid a spec may expand to


class CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


# ---------------------------------------------------------------------------
# argument helpers

def parse_vg_values(text: str):
    """``start:stop:step`` (endpoints inclusive within 1e-9) or a comma list."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = (float(p) for p in parts)
            if step <= 0:
                raise ValueError("step must be positive")
            if stop < start - 1e-9:
                raise ValueError("stop must be >= start")
            # Capped as built: a step below float spacing never ends.
            values = []
            while start + len(values) * step <= stop + 1e-9:
                if len(values) == MAX_VG_POINTS:
                    raise ValueError(f"more than {MAX_VG_POINTS} points")
                values.append(round(start + len(values) * step, 9))
            return values
        values = [float(p) for p in text.split(",") if p.strip()]
        if not values:
            raise ValueError("empty list")
        return values
    except ValueError as exc:
        raise CliError(2, f"invalid gate-voltage spec {text!r}: {exc}") from exc


def _load_device(spec: str):
    try:
        if spec == "default":
            return default_device()
        if spec == "stressed":
            return leakage_stressed_device()
        if not Path(spec).is_file():
            raise CliError(3, f"device file not found: {spec}")
        return load_device_file(spec)
    except OSError as exc:
        raise CliError(3, f"cannot read device file {spec}: {exc}") from exc


def _device(args):
    """``(t, mem)`` from --device; checks --vsupply."""
    t, mem = _load_device(args.device)
    if not np.isfinite(args.vsupply) or args.vsupply <= 0:
        raise CliError(4, f"vsupply must be positive, got {args.vsupply}")
    return t, mem


def _load_data(args, model=None, max_samples=0):
    """(x_train, y_train, x_test, y_test); bundled blobs unless --data given.

    Both splits must match ``model``'s input width (else the training
    split's); a positive ``max_samples`` cuts the test split.
    """
    if max_samples < 0:
        raise CliError(4, f"--max-samples must be >= 0, got {max_samples}")
    if args.data:
        x_tr, y_tr = read_dataset_csv(args.data)
        x_te, y_te = (read_dataset_csv(args.test_data) if args.test_data
                      else (x_tr, y_tr))
    else:
        ds = make_blobs()
        x_tr, y_tr, x_te, y_te = ds.x_train, ds.y_train, ds.x_test, ds.y_test
    width = x_tr.shape[1] if model is None else model.dims[0]
    for split, x in (("training", x_tr), ("test", x_te)):
        if x.shape[1] != width:
            raise CliError(4, f"the {split} split has {x.shape[1]} features, "
                              f"expected {width}")
    if max_samples:
        x_te, y_te = x_te[:max_samples], y_te[:max_samples]
    return x_tr, y_tr, x_te, y_te


def _require_file(path, what) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliError(3, f"{what} not found: {path}")
    return p


def _checkpoint(args):
    return load_checkpoint(_require_file(args.checkpoint, "checkpoint"))


def _read_schedule(path):
    path = _require_file(path, "schedule file")
    return schedule_from_dict(read_json_object(path))


def _load_schedule_for(args, checkpoint):
    if args.schedule:
        return _read_schedule(args.schedule)
    if checkpoint.schedule is not None:
        return checkpoint.schedule
    raise CliError(4, "no schedule: pass --schedule or use a checkpoint "
                      "that embeds one")


# ---------------------------------------------------------------------------
# output helpers

def _write_json(path, payload) -> None:
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".9g") if isinstance(v, float) else v
                             for v in row])


def _write_manifest(out: Path, args, exit_code: int) -> None:
    skip = {"func", "out"}
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in skip and not k.startswith("_")}
    _write_json(out / "run_manifest.json", {
        "format_version": MANIFEST_FILE_VERSION,
        "toolkit_version": __version__,
        "command": args.command,
        "seed": config.get("seed"),
        "config": config,
        "exit_code": exit_code,
    })


class _OutputDir:
    """Creates the output directory and holds its lock for the run."""

    def __init__(self, out):
        self.path = Path(out)
        self._fd = None

    def __enter__(self) -> Path:
        try:
            self.path.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(self.path / _LOCK_NAME,
                               os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError as exc:
            raise CliError(3, f"output directory {self.path} is locked by "
                              f"another run (stale? remove {_LOCK_NAME})") from exc
        except OSError as exc:
            raise CliError(3, f"cannot prepare output directory: {exc}") from exc
        return self.path

    def __exit__(self, *exc_info):
        if self._fd is not None:
            os.close(self._fd)
            (self.path / _LOCK_NAME).unlink(missing_ok=True)
        return False


# ---------------------------------------------------------------------------
# subcommands

def cmd_characterize(args, out: Path) -> int:
    t, _ = _device(args)
    curve = sweep_geff(args.gm, args.vg, t, v_supply=args.vsupply,
                       mode=_DEVICE_MODES[args.device_mode])
    _write_csv(out / "geff_curve.csv", ["v_in", "g_eff"],
               zip(curve.v_in.tolist(), curve.g_eff.tolist()))
    tm = tolerance_metric(curve)
    window = linear_vin_range(curve, tm_threshold=args.tm)
    _write_json(out / "linear_range.json", {
        "g_m": args.gm, "v_g": args.vg, "tm": tm.tm,
        "tm_threshold": args.tm,
        "v_lo": None if window is None else window[0],
        "v_hi": None if window is None else window[1],
    })
    print(f"tm={tm.tm:.6g} linear_range={window}")
    return 0


def cmd_cutoff(args, out: Path) -> int:
    t, mem = _device(args)
    table = cutoff_table(parse_vg_values(args.vg), t, mem,
                         tm_threshold=args.tm, v_supply=args.vsupply,
                         mode=_DEVICE_MODES[args.device_mode])
    write_cutoff_csv(table, out / "cutoff_table.csv")
    n_found = sum(c is not None for _, c in table.entries)
    print(f"wrote cutoff_table.csv ({len(table.entries)} rows, "
          f"{n_found} with a cutoff)")
    return 0


def cmd_power_mc(args, out: Path) -> int:
    t, mem = _device(args)
    mode = _DEVICE_MODES[args.device_mode]
    rows = []
    for vg in parse_vg_values(args.vg):
        report = power_monte_carlo(args.rows, args.cols, args.samples, vg,
                                   t, mem, v_supply=args.vsupply,
                                   seed=args.seed, mode=mode,
                                   c_gate=args.c_gate,
                                   pulse_width=args.pulse_width)
        rows.append((vg, report.mean_power))
    _write_csv(out / "power.csv", ["v_g", "mean_power_W"], rows)
    print(f"wrote power.csv ({len(rows)} rows)")
    return 0


def _train_baseline(args):
    x_tr, y_tr, x_te, y_te = _load_data(args)
    n_classes = int(max(y_tr.max(), y_te.max())) + 1
    hidden = [int(h) for h in str(args.hidden).split(",") if h.strip()]
    dims = [x_tr.shape[1]] + hidden + [n_classes]
    config = TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                         batch_size=args.batch, seed=args.seed)
    model = Model.new(dims, seed=args.seed)
    train(model, x_tr, y_tr, config)
    return model, config, (x_tr, y_tr, x_te, y_te)


def cmd_train(args, out: Path) -> int:
    model, config, (x_tr, y_tr, x_te, y_te) = _train_baseline(args)
    save_checkpoint(out / "checkpoint.json", model, config=config)
    metrics = {"train_accuracy": accuracy(model, x_tr, y_tr),
               "test_accuracy": accuracy(model, x_te, y_te)}
    _write_json(out / "metrics.json", metrics)
    print(f"train_accuracy={metrics['train_accuracy']:.4f} "
          f"test_accuracy={metrics['test_accuracy']:.4f}")
    return 0


def _build_schedule(args, model, t, mem):
    """``(table, schedule)``; a schedule file is read as is, with no table."""
    step_down = getattr(args, "step_down", False)  # a search-vg flag
    if args.schedule not in ("heterogeneous", "homogeneous"):
        if step_down:
            raise CliError(2, "--step-down cannot shift a schedule file")
        return None, _read_schedule(args.schedule)
    table = cutoff_table(parse_vg_values(args.vg_grid), t, mem,
                         tm_threshold=args.tm, v_supply=args.vsupply)
    if args.schedule == "heterogeneous":
        schedule = search_heterogeneous_vg(model, table, mem)
    elif args.vg is None:
        raise CliError(2, "--vg is required for a homogeneous schedule")
    else:
        schedule = homogeneous_schedule(model, args.vg, table, mem)
    if step_down:
        schedule = step_down_schedule(schedule, table, mem)
    return table, schedule


def cmd_search_vg(args, out: Path) -> int:
    t, mem = _device(args)
    checkpoint = _checkpoint(args)
    table, schedule = _build_schedule(args, checkpoint.model, t, mem)
    if table is not None:
        write_cutoff_csv(table, out / "cutoff_table.csv")
    _write_json(out / "schedule.json", schedule_to_dict(schedule))
    picks = ", ".join(f"layer{e.layer}={e.v_g:g}" for e in schedule.entries)
    print(f"schedule ({schedule.mode}): {picks}")
    return 0


def cmd_neat(args, out: Path) -> int:
    t, mem = _device(args)
    if args.checkpoint:
        model = _checkpoint(args).model
        x_tr, y_tr, x_te, y_te = _load_data(args, model)
    else:
        model, base_config, (x_tr, y_tr, x_te, y_te) = _train_baseline(args)
        save_checkpoint(out / "baseline_checkpoint.json", model,
                        config=base_config)
    _, schedule = _build_schedule(args, model, t, mem)
    _write_json(out / "schedule.json", schedule_to_dict(schedule))
    config = TrainConfig(learning_rate=args.retrain_lr, epochs=0,
                         batch_size=args.batch, seed=args.seed,
                         epochs_per_iteration=args.epochs_per_iter,
                         n_iterations=args.iters)
    model, history = iterative_train(model, schedule, x_tr, y_tr, config,
                                     eval_x=x_te, eval_y=y_te)
    save_checkpoint(out / "neat_checkpoint.json", model, schedule=schedule,
                    config=config, history=history)
    _write_csv(out / "history.csv",
               ["iteration", "accuracy", "linear_fraction"],
               [(h["iteration"], h["accuracy"], h["linear_fraction"])
                for h in history])
    _, overall = linear_fraction(model, schedule)
    final_acc = history[-1]["accuracy"] if history else None
    print(f"iterations={len(history)} final_accuracy={final_acc} "
          f"linear_fraction={overall:.4f}")
    return 0


def cmd_eval(args, out: Path) -> int:
    checkpoint = _checkpoint(args)
    x_tr, y_tr, x_te, y_te = _load_data(args, checkpoint.model)
    payload = {"mode": args.mode, "n_test": int(len(y_te))}
    if args.mode == "software":
        acc = accuracy(checkpoint.model, x_te, y_te)
    else:
        t, mem = _device(args)
        schedule = _load_schedule_for(args, checkpoint)
        acc = evaluate(checkpoint.model, x_te, y_te, schedule, t, mem, x_tr,
                       _DEVICE_MODES[args.device_mode], args.vsupply)
        payload.update(device_mode=args.device_mode,
                       gate_voltages=schedule.gate_voltages())
    _write_json(out / "eval.json", {**payload, "accuracy": acc})
    print(f"accuracy={acc:.4f} ({args.mode})")
    return 0


def _energy(args, t, mem, model, schedule, x_calib, x_eval):
    """Program ``model`` under ``schedule`` and read ``x_eval`` through it."""
    tilesets = program_model(model, schedule, mem, x_calib)
    biases = [l.b for l in model.dense_layers()]
    return network_energy(tilesets, biases, x_eval, t,
                          mode=_DEVICE_MODES[args.device_mode],
                          v_supply=args.vsupply, pulse_width=args.pulse_width,
                          c_gate=args.c_gate)


def cmd_energy(args, out: Path) -> int:
    checkpoint = _checkpoint(args)
    t, mem = _device(args)
    schedule = _load_schedule_for(args, checkpoint)
    x_tr, _, x_eval, _ = _load_data(args, checkpoint.model, args.max_samples)
    energy = _energy(args, t, mem, checkpoint.model, schedule, x_tr, x_eval)
    n = int(x_eval.shape[0])
    payload = {"n_samples": n,
               "per_layer_J": energy["per_layer"],
               "total_J": energy["total"],
               "per_sample_J": energy["total"] / n,
               "gate_voltages": schedule.gate_voltages()}
    _write_json(out / "energy.json", payload)
    print(f"total={energy['total']:.6g} J over {n} samples")
    return 0


def cmd_report(args, out: Path) -> int:
    checkpoint = _checkpoint(args)
    t, mem = _device(args)
    x_tr, _, x_eval, y_eval = _load_data(args, checkpoint.model,
                                         args.max_samples)
    table = cutoff_table(sorted({args.baseline_vg, args.compare_vg}), t, mem,
                         tm_threshold=args.tm, v_supply=args.vsupply)

    def leg(vg):
        schedule = homogeneous_schedule(checkpoint.model, vg, table, mem)
        energy = _energy(args, t, mem, checkpoint.model, schedule, x_tr,
                         x_eval)
        acc = float(np.mean(np.argmax(energy["logits"], axis=1) == y_eval))
        return {"v_g": vg, "accuracy": acc, "total_J": energy["total"],
                "per_sample_J": energy["total"] / int(x_eval.shape[0])}

    baseline = leg(args.baseline_vg)
    compare = leg(args.compare_vg)
    gain = 100.0 * (baseline["total_J"] - compare["total_J"]) / baseline["total_J"]
    payload = {"baseline": baseline, "compare": compare,
               "energy_gain_percent": gain,
               "n_samples": int(x_eval.shape[0])}
    _write_json(out / "report.json", payload)
    print(f"energy_gain={gain:.2f}% accuracy {baseline['accuracy']:.4f} -> "
          f"{compare['accuracy']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(p, device=True, device_mode=True):
    p.add_argument("--out", default="run_out",
                   help="output directory (default: %(default)s)")
    if device:
        p.add_argument("--device", default="default",
                       help="device parameter file, or 'default'/'stressed' "
                            "for the bundled sets")
        if device_mode:
            p.add_argument("--device-mode", default="analytical",
                           choices=list(_DEVICE_MODES))
        p.add_argument("--vsupply", type=float, default=DEFAULT_V_SUPPLY,
                       help="read supply voltage in V (default %(default)s)")


def _add_data(p):
    p.add_argument("--data", default=None,
                   help="training-split CSV (default: bundled blob task)")
    p.add_argument("--test-data", default=None,
                   help="test-split CSV (default: the training split)")


def _add_train_flags(p):
    p.add_argument("--hidden", default="32",
                   help="comma list of hidden layer sizes (default %(default)s)")
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=32)


def _add_schedule_flags(p):
    p.add_argument("--schedule", default="heterogeneous",
                   help="'heterogeneous', 'homogeneous', or a schedule.json "
                        "path (default %(default)s)")
    p.add_argument("--vg", type=float, default=None,
                   help="gate voltage for a homogeneous schedule")
    p.add_argument("--vg-grid", default=DEFAULT_VG_GRID,
                   help="search grid as start:stop:step (default %(default)s)")
    p.add_argument("--tm", type=float, default=DEFAULT_TM_THRESHOLD,
                   help="tolerance-metric threshold (default %(default)s)")


def _add_energy_flags(p):
    p.add_argument("--pulse-width", type=float, default=DEFAULT_PULSE_WIDTH)
    p.add_argument("--c-gate", type=float, default=DEFAULT_C_GATE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onetr",
        description="1T-1R crossbar characterization and training toolkit")
    parser.add_argument("--version", action="version",
                        version=f"onetr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize",
                       help="sweep g_eff vs read voltage for one cell")
    p.add_argument("--gm", type=float, required=True,
                   help="memristor conductance in S")
    p.add_argument("--vg", type=float, required=True)
    p.add_argument("--tm", type=float, default=DEFAULT_TM_THRESHOLD)
    _add_common(p)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("cutoff", help="conductance-cutoff table over a Vg grid")
    p.add_argument("--vg", default=DEFAULT_VG_GRID,
                   help="grid start:stop:step or comma list (default %(default)s)")
    p.add_argument("--tm", type=float, default=DEFAULT_TM_THRESHOLD)
    _add_common(p)
    p.set_defaults(func=cmd_cutoff)

    p = sub.add_parser("power-mc",
                       help="Monte Carlo mean per-synapse read power")
    p.add_argument("--vg", default="0.8,0.9,1.0")
    p.add_argument("--rows", type=int, default=16)
    p.add_argument("--cols", type=int, default=16)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    _add_energy_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_power_mc)

    p = sub.add_parser("train", help="train the software baseline network")
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0)
    _add_data(p)
    _add_common(p, device=False)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("search-vg",
                       help="derive a gate-voltage schedule for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    _add_schedule_flags(p)
    p.add_argument("--step-down", action="store_true",
                   help="shift the schedule one grid step down")
    _add_common(p, device_mode=False)
    p.set_defaults(func=cmd_search_vg)

    p = sub.add_parser("neat",
                       help="iterative clip-and-retrain against a schedule")
    p.add_argument("--checkpoint", default=None,
                   help="baseline checkpoint (default: train one first)")
    _add_schedule_flags(p)
    _add_train_flags(p)
    p.add_argument("--iters", type=int, default=30)
    p.add_argument("--epochs-per-iter", type=int, default=2)
    p.add_argument("--retrain-lr", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    _add_data(p)
    _add_common(p, device_mode=False)
    p.set_defaults(func=cmd_neat)

    p = sub.add_parser("eval", help="software or crossbar accuracy")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mode", default="software",
                   choices=["software", "crossbar"])
    p.add_argument("--schedule", default=None,
                   help="schedule.json (default: the checkpoint's schedule)")
    _add_data(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("energy", help="read energy of a programmed network")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--schedule", default=None)
    p.add_argument("--max-samples", type=int, default=0,
                   help="evaluate at most this many samples (0 = all)")
    _add_energy_flags(p)
    _add_data(p)
    _add_common(p)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("report",
                       help="energy/accuracy comparison of two homogeneous "
                            "gate voltages")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--baseline-vg", type=float, default=1.0)
    p.add_argument("--compare-vg", type=float, default=0.8)
    p.add_argument("--tm", type=float, default=DEFAULT_TM_THRESHOLD,
                   help="tolerance-metric threshold (default %(default)s)")
    p.add_argument("--max-samples", type=int, default=0)
    _add_energy_flags(p)
    _add_data(p)
    _add_common(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        with _OutputDir(args.out) as out:
            exit_code = _run(args, out)
            _write_manifest(out, args, exit_code)
            return exit_code
    except (CliError, OSError) as exc:
        return _fail(exc)


def _run(args, out: Path) -> int:
    """Run the subcommand; an expected failure is reported as its exit code."""
    try:
        return args.func(args, out)
    except (CliError, OSError, ToolkitError) as exc:
        return _fail(exc)


def _fail(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    if isinstance(exc, CliError):
        return exc.exit_code
    return 3 if isinstance(exc, OSError) else 4


if __name__ == "__main__":
    sys.exit(main())

"""Command line entry point for reproducible characterization and training runs.

Every subcommand writes its artifacts plus a ``run_manifest.json`` (full
configuration echo, seed, toolkit version, exit code; written last) into the
chosen output directory, so a run is reproducible from the manifest alone.
Every option a subcommand declares is one it reads. Output directories are
guarded by a lock file; concurrent runs into the same directory are refused.
``main`` parses with one parser per process, built on its first call.

Exit codes: 0 success, 2 usage, 3 I/O, 4 domain (invalid values, degenerate
inputs, too large for memory). One ``error: <message>`` line goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .characterize import (DEFAULT_TM_THRESHOLD, DEFAULT_V_SUPPLY,
                           cutoff_table, linear_vin_range, power_table,
                           sweep_geff, tolerance_metric, write_cutoff_csv)
from .crossbar import DEFAULT_C_GATE, DEFAULT_PULSE_WIDTH
from .data import make_blobs, read_dataset_csv
from .device import (ANALYTICAL, IDEAL_SWITCH, default_device,
                     leakage_stressed_device, load_device_file)
from .errors import (DomainError, ToolkitError, _write_csv, _write_json,
                     read_json_object)
from .mapping import GRID_ATOL
from .network import Model, TrainConfig, accuracy, train
from .training import (evaluate, homogeneous_schedule, iterative_train,
                       linear_fraction, load_checkpoint, network_energy,
                       save_checkpoint, schedule_from_dict, schedule_to_dict,
                       search_heterogeneous_vg, step_down_schedule)

_LOCK_NAME = ".onetr.lock"
MANIFEST_FILE_VERSION = 1
_DEVICE_MODES = {"analytical": ANALYTICAL, "ideal_switch": IDEAL_SWITCH}
DEFAULT_VG_GRID = "0.7:1.0:0.05"
MAX_VG_POINTS = 1024  # longest gate-voltage grid a spec may expand to
_parser = functools.cache(lambda: build_parser())  # main's, built once
# Declared defaults of the options that some argv forms never read.
_DEFAULTS = {"schedule": None, "vg": None, "vg_grid": DEFAULT_VG_GRID,
             "tm": DEFAULT_TM_THRESHOLD, "device": "default",
             "device_mode": "analytical", "vsupply": DEFAULT_V_SUPPLY,
             "test_data": None}


class CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


# ---------------------------------------------------------------------------
# argument helpers

def parse_vg_values(text: str):
    """``start:stop:step`` (ends inclusive within GRID_ATOL) or a comma list."""
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError("expected start:stop:step")
            start, stop, step = (float(p) for p in parts)
            if not np.isfinite([start, stop, step]).all():
                raise ValueError("start, stop and step must be finite")
            if step <= 0:
                raise ValueError("step must be positive")
            if stop < start - GRID_ATOL:
                raise ValueError("stop must be >= start")
            # Capped as built: a step below float spacing never ends.
            values = []
            while start + len(values) * step <= stop + GRID_ATOL:
                if len(values) == MAX_VG_POINTS:
                    raise ValueError(f"more than {MAX_VG_POINTS} points")
                values.append(round(start + len(values) * step, 9))
            return values
        values = [float(p) for p in text.split(",") if p.strip()]
        if not values:
            raise ValueError("empty list")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        return values
    except ValueError as exc:
        raise CliError(2, f"invalid gate-voltage spec {text!r}: {exc}") from exc


def _reject_unread(args) -> None:
    """Exit 2 if the argv form gives an option it never reads, that is, one
    set to anything but its declared default. No file is open yet."""
    forms = ((f"{args.command} without --data", "test_data",
              "test_data" in vars(args) and not args.data),
             ("neat --schedule", "vg vg_grid tm device vsupply",
              args.command == "neat" and args.schedule),
             ("eval --mode software", "schedule device device_mode vsupply",
              args.command == "eval" and args.mode == "software"))
    for form, names, applies in forms:
        given = applies and [n for n in names.split()
                             if getattr(args, n) != _DEFAULTS[n]]
        if given:
            raise CliError(2, f"{form} does not read " + ", ".join(
                "--" + n.replace("_", "-") for n in given))


def _device(args):
    """``(t, mem)`` from --device; checks --vsupply."""
    if not np.isfinite(args.vsupply) or args.vsupply <= 0:
        raise CliError(4, f"vsupply must be positive, got {args.vsupply}")
    if args.device == "default":
        return default_device()
    if args.device == "stressed":
        return leakage_stressed_device()
    return load_device_file(args.device)  # a missing file exits 3


def _load_data(args, model=None, max_samples=0):
    """(x_train, y_train, x_test, y_test); bundled blobs unless --data given.

    Both splits must match ``model``'s input width and hold only labels
    below its output width. Without a model, the training split sets both:
    every class from 0 to its largest label must occur in it. A positive
    ``max_samples`` cuts the test split.
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
    if model is None:
        width, n_classes = x_tr.shape[1], int(y_tr.max()) + 1
        if np.unique(y_tr).size != n_classes:
            raise CliError(4, f"the training split lacks some of the labels "
                              f"0..{n_classes - 1}")
    else:
        width, n_classes = model.dims[0], model.dims[-1]
    for split, x, y in (("training", x_tr, y_tr), ("test", x_te, y_te)):
        if x.shape[1] != width:
            raise CliError(4, f"the {split} split has {x.shape[1]} features, "
                              f"expected {width}")
        if y.max() >= n_classes:
            raise CliError(4, f"the {split} split has label {y.max()}, "
                              f"expected labels below {n_classes}")
    if max_samples:
        x_te, y_te = x_te[:max_samples], y_te[:max_samples]
    return x_tr, y_tr, x_te, y_te


def _read_schedule(path):
    raw = read_json_object(path)  # its errors name the file already
    try:
        return schedule_from_dict(raw)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


def _load_schedule_for(args, checkpoint):
    if args.schedule:
        return _read_schedule(args.schedule)
    if checkpoint.schedule is not None:
        return checkpoint.schedule
    raise CliError(4, "no schedule: pass --schedule or use a checkpoint "
                      "that embeds one")


# ---------------------------------------------------------------------------
# output helpers

def _write_manifest(out: Path, args, exit_code: int) -> None:
    skip = {"func", "out"}
    # JSON has no NaN or Infinity: a non-finite option is echoed as text.
    config = {k: v if not isinstance(v, float) or np.isfinite(v) else str(v)
              for k, v in sorted(vars(args).items())
              if k not in skip and not k.startswith("_")}
    _write_json(out / "run_manifest.json", {
        "format_version": MANIFEST_FILE_VERSION,
        "toolkit_version": __version__,
        "command": args.command,
        "seed": config.get("seed"),
        "config": config,
        "exit_code": exit_code,
    })


@contextlib.contextmanager
def _output_dir(out):
    """Create the output directory and hold its lock for the run."""
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(path / _LOCK_NAME,
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError as exc:
            raise CliError(3, f"output directory {path} is locked by another "
                              f"run (stale? remove {_LOCK_NAME})") from exc
    except OSError as exc:
        raise CliError(3, f"cannot prepare output directory: {exc}") from exc
    try:
        yield path
    finally:
        os.close(fd)
        (path / _LOCK_NAME).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# subcommands

def cmd_characterize(args, out: Path) -> int:
    t, _ = _device(args)
    curve = sweep_geff(args.gm, args.vg, t, v_supply=args.vsupply,
                       mode=_DEVICE_MODES[args.device_mode])
    tm = tolerance_metric(curve)
    window = linear_vin_range(curve, tm_threshold=args.tm)
    _write_csv(out / "geff_curve.csv", ["v_in", "g_eff"],
               zip(curve.v_in.tolist(), curve.g_eff.tolist()))
    v_lo, v_hi = window or (None, None)
    _write_json(out / "linear_range.json", {
        "g_m": args.gm, "v_g": args.vg, "tm": tm.tm, "tm_threshold": args.tm,
        "v_lo": v_lo, "v_hi": v_hi})
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
    reports = power_table(args.rows, args.cols, args.samples,
                          parse_vg_values(args.vg), t, mem,
                          v_supply=args.vsupply, seed=args.seed,
                          mode=_DEVICE_MODES[args.device_mode],
                          c_gate=args.c_gate, pulse_width=args.pulse_width)
    _write_csv(out / "power.csv", ["v_g", "mean_power_W"],
               [(r.v_g, r.mean_power) for r in reports])
    print(f"wrote power.csv ({len(reports)} rows)")
    return 0


def cmd_train(args, out: Path) -> int:
    try:
        hidden = [int(h) for h in args.hidden.split(",") if h.strip()]
    except ValueError as exc:
        raise CliError(2, f"invalid --hidden {args.hidden!r}: {exc}") from exc
    x_tr, y_tr, x_te, y_te = _load_data(args)
    n_classes = int(y_tr.max()) + 1
    config = TrainConfig(learning_rate=args.lr, epochs=args.epochs,
                         batch_size=args.batch, seed=args.seed)
    model = Model.new([x_tr.shape[1]] + hidden + [n_classes], seed=args.seed)
    train(model, x_tr, y_tr, config)
    save_checkpoint(out / "checkpoint.json", model, config=config)
    metrics = {"train_accuracy": accuracy(model, x_tr, y_tr),
               "test_accuracy": accuracy(model, x_te, y_te)}
    _write_json(out / "metrics.json", metrics)
    print(f"train_accuracy={metrics['train_accuracy']:.4f} "
          f"test_accuracy={metrics['test_accuracy']:.4f}")
    return 0


def _build_schedule(args, model, t, mem):
    """``(table, schedule)``: homogeneous at --vg, else searched per layer."""
    table = cutoff_table(parse_vg_values(args.vg_grid), t, mem,
                         tm_threshold=args.tm, v_supply=args.vsupply)
    if args.vg is None:
        return table, search_heterogeneous_vg(model, table, mem)
    return table, homogeneous_schedule(model, args.vg, table, mem)


def cmd_search_vg(args, out: Path) -> int:
    t, mem = _device(args)
    model = load_checkpoint(args.checkpoint).model
    table, schedule = _build_schedule(args, model, t, mem)
    if args.step_down:
        schedule = step_down_schedule(schedule, table, mem)
    write_cutoff_csv(table, out / "cutoff_table.csv")
    _write_json(out / "schedule.json", schedule_to_dict(schedule))
    picks = ", ".join(f"layer{e.layer}={e.v_g:g}" for e in schedule.entries)
    print(f"schedule ({schedule.mode}): {picks}")
    return 0


def cmd_neat(args, out: Path) -> int:
    model = load_checkpoint(args.checkpoint).model
    x_tr, y_tr, x_te, y_te = _load_data(args, model)
    schedule = (_read_schedule(args.schedule) if args.schedule
                else _build_schedule(args, model, *_device(args))[1])
    config = TrainConfig(learning_rate=args.retrain_lr, epochs=0,
                         batch_size=args.batch, seed=args.seed,
                         epochs_per_iteration=args.epochs_per_iter,
                         n_iterations=args.iters)
    model, history = iterative_train(model, schedule, x_tr, y_tr, config,
                                     eval_x=x_te, eval_y=y_te)
    _write_json(out / "schedule.json", schedule_to_dict(schedule))
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
    checkpoint = load_checkpoint(args.checkpoint)
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


def cmd_energy(args, out: Path) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    t, mem = _device(args)
    schedule = _load_schedule_for(args, checkpoint)
    x_tr, _, x_eval, _ = _load_data(args, checkpoint.model, args.max_samples)
    energy = network_energy(checkpoint.model, x_eval, schedule, t, mem, x_tr,
                            _DEVICE_MODES[args.device_mode], args.vsupply,
                            args.pulse_width, args.c_gate)
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
    checkpoint = load_checkpoint(args.checkpoint)
    t, mem = _device(args)
    x_tr, _, x_eval, y_eval = _load_data(args, checkpoint.model,
                                         args.max_samples)
    table = cutoff_table(sorted({args.baseline_vg, args.compare_vg}), t, mem,
                         tm_threshold=args.tm, v_supply=args.vsupply)

    def leg(vg):
        schedule = homogeneous_schedule(checkpoint.model, vg, table, mem)
        energy = network_energy(checkpoint.model, x_eval, schedule, t, mem,
                                x_tr, _DEVICE_MODES[args.device_mode],
                                args.vsupply, args.pulse_width, args.c_gate)
        acc = float(np.mean(np.argmax(energy["logits"], axis=1) == y_eval))
        return {"v_g": vg, "accuracy": acc, "total_J": energy["total"],
                "per_sample_J": energy["total"] / int(x_eval.shape[0])}

    baseline = leg(args.baseline_vg)
    if baseline["total_J"] == 0.0:  # e.g. every cell off, no gate charge
        raise CliError(4, f"the baseline at {args.baseline_vg} V reads zero "
                          "energy, so no energy gain is defined")
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
        p.add_argument("--device", default=_DEFAULTS["device"],
                       help="device parameter file, or 'default'/'stressed' "
                            "for the bundled sets")
        if device_mode:
            p.add_argument("--device-mode", default=_DEFAULTS["device_mode"],
                           choices=list(_DEVICE_MODES))
        p.add_argument("--vsupply", type=float, default=_DEFAULTS["vsupply"],
                       help="read supply voltage in V (default %(default)s)")


def _add_data(p):
    p.add_argument("--data", default=None,
                   help="training-split CSV (default: bundled blob task)")
    p.add_argument("--test-data", default=_DEFAULTS["test_data"],
                   help="test-split CSV; needs --data (default: the "
                        "training split)")


def _add_schedule_flags(p):
    p.add_argument("--vg", type=float, default=_DEFAULTS["vg"],
                   help="gate voltage of a homogeneous schedule (default: "
                        "search one per layer)")
    p.add_argument("--vg-grid", default=_DEFAULTS["vg_grid"],
                   help="search grid as start:stop:step (default %(default)s)")
    p.add_argument("--tm", type=float, default=_DEFAULTS["tm"],
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
    p.add_argument("--hidden", default="32",
                   help="comma list of hidden layer sizes (default %(default)s)")
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=32)
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
    p.add_argument("--checkpoint", required=True, help="baseline checkpoint")
    p.add_argument("--schedule", default=_DEFAULTS["schedule"],
                   help="schedule.json to retrain against (default: build "
                        "one from the schedule flags)")
    _add_schedule_flags(p)
    p.add_argument("--batch", type=int, default=32)
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
    p.add_argument("--schedule", default=_DEFAULTS["schedule"],
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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        with _output_dir(args.out) as out:
            exit_code = _run(args, out)
            _write_manifest(out, args, exit_code)
            return exit_code
    except (CliError, OSError) as exc:
        return _fail(exc)


def _run(args, out: Path) -> int:
    """Run the subcommand; an expected failure is reported as its exit code."""
    try:
        _reject_unread(args)
        for spec in (getattr(args, n, None) for n in ("vg", "vg_grid")):
            if isinstance(spec, str):  # a gate-voltage spec, not --vg V
                parse_vg_values(spec)  # exits 2 before any file is read
        return args.func(args, out)
    except (CliError, OSError, ToolkitError, MemoryError) as exc:
        return _fail(exc)


def _fail(exc: Exception) -> int:
    print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
    if isinstance(exc, CliError):
        return exc.exit_code
    return 3 if isinstance(exc, OSError) else 4


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark workloads: seeded inputs, CLI sequences and output checks.

Each workload is a closed loop with one caller: the child process runs the
sequence of CLI subcommands back to back through ``onetr.cli.main``, checks
every artifact, and starts the next round only when the previous one is
done.  The workload seed drives ``make_blobs``, the model-init seed and the
Monte Carlo seed; the program sees only the generated CSV files and flags.
The amount of work does not depend on the seed, only the values do.

* ``characterize`` -- device solver in many small cache-resident calls:
  fine-grid cutoff scans of the default and the leakage-stressed device
  (every stressed cell is subthreshold), Monte Carlo read power and three
  single-cell sweeps.  Crossbar and network do no work.
* ``neat`` -- the paper's clip-and-retrain procedure: train, search-vg,
  neat, then software and crossbar eval on a small test split.  Network,
  training and checkpoint I/O carry the work; the coarse gate grid and the
  small test split keep the solver to a minor share, so this is the bypass
  case for solver and crossbar changes.
* ``report-wide`` -- crossbar read path on a baseline twice the default
  hidden width: report (two homogeneous legs), energy and an ideal-switch
  eval.  Each analytical solve broadcasts ``batch x rows x 2*cols`` cells
  and the bisection keeps about a dozen such arrays live, several times the
  L2 cache; report solves every layer three times per leg.  The ideal-switch
  eval reads the whole test split in one batch; its solve of about a
  million cells sets the child's peak memory, which bounding the crossbar
  batch would lower.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (REL_TOL, CheckFailed, as_float, compare,
                    exact_clipped_accuracy, fraction, kcl_check, read_csv,
                    read_json, require, tileset_points)

VG_FINE = "0.70:1.00:0.02"
POWER_VG = "0.8,0.9,1.0"
N_SINGLE_CELL = 3
VIN_POINTS = 64
GM_POINTS = 256

NEAT_TEST_ROWS = 30
NEAT_VG_GRID = "0.8:1.0:0.1"

WIDE_HIDDEN = 64
WIDE_MAX_SAMPLES = 40
WIDE_TEST_ROWS = 500  # the whole test split; the ideal-switch eval reads it all
KCL_SAMPLE_ROWS = 4
CSV_TOL = 1e-9  # CSV artifacts hold 9 significant digits


@dataclass
class Op:
    """One CLI subcommand invocation and the check of its artifacts.

    ``check(ctx, out)`` returns ``[(key, value, abs_tol, rel_tol), ...]``,
    the outputs compared against the reference, or raises CheckFailed.
    """

    name: str
    argv: list
    check: Callable


@dataclass
class Context:
    workload: str
    seed: int
    onetr: object
    # Reference outputs by operation.  Complete for a seed the reference
    # file covers; otherwise only the seed-independent operations.
    reference: dict = field(default_factory=dict)
    reference_complete: bool = False
    data: dict = field(default_factory=dict)

    def out(self, name):
        return Path("ops") / name


def _write_split(onetr, path, x, y):
    onetr.write_dataset_csv(path, x, y)
    return onetr.read_dataset_csv(path)  # the values the CLI will see


def _grid_values(spec):
    start, stop, step = (float(p) for p in spec.split(":"))
    n = int(round((stop - start) / step)) + 1
    return [round(start + k * step, 9) for k in range(n)]


# ---------------------------------------------------------------------------
# characterize

def _setup_characterize(ctx):
    onetr = ctx.onetr
    t, mem = onetr.default_device()
    rng = np.random.default_rng([ctx.seed, 1])
    ctx.data["cells"] = [
        (float(mem.g_off + u * (mem.g_on - mem.g_off)), round(float(vg), 2))
        for u, vg in zip(rng.uniform(0.05, 1.0, N_SINGLE_CELL),
                         rng.uniform(0.70, 1.00, N_SINGLE_CELL))]


def _check_cutoff(device, expect_cutoffs):
    def check(ctx, out):
        onetr = ctx.onetr
        t, mem = (onetr.default_device() if device == "default"
                  else onetr.leakage_stressed_device())
        read_json(out / "run_manifest.json")
        rows = read_csv(out / "cutoff_table.csv", ["v_g", "g_m_cutoff"])
        vgs = [as_float(r[0], "v_g") for r in rows]
        require(np.allclose(vgs, _grid_values(VG_FINE), atol=1e-9),
                f"cutoff rows {vgs} do not cover the grid {VG_FINE}")
        cutoffs = [as_float(r[1], "g_m_cutoff") if r[1] else None
                   for r in rows]
        grid = onetr.default_vin_grid(0.5, VIN_POINTS)
        step = (mem.g_on - mem.g_off) / (GM_POINTS - 1)
        if expect_cutoffs:
            require(all(c is not None for c in cutoffs),
                    "default cutoff table has a missing cutoff")
            require(all(a <= b for a, b in zip(cutoffs, cutoffs[1:])),
                    "default cutoff table is not non-decreasing")
            require(all(mem.g_off <= c <= mem.g_on * (1 + 1e-9)
                        for c in cutoffs), "cutoff outside [g_off, g_on]")
            kcl_check(onetr, np.array(cutoffs)[:, None], grid[None, :],
                      np.array(vgs)[:, None], t)
        else:
            require(all(c is None for c in cutoffs),
                    "stressed cutoff table has a cutoff")
            gms = np.linspace(mem.g_off, mem.g_on, GM_POINTS)[::51]
            kcl_check(onetr, gms[:, None, None], grid[None, :, None],
                      np.array(vgs)[None, None, :], t)
        return [("g_m_cutoff", cutoffs, step * (1 + 1e-9), 0.0)]
    return check


def _check_power(ctx, out):
    onetr = ctx.onetr
    t, mem = onetr.default_device()
    read_json(out / "run_manifest.json")
    rows = read_csv(out / "power.csv", ["v_g", "mean_power_W"])
    vgs = [as_float(r[0], "v_g") for r in rows]
    powers = [as_float(r[1], "mean_power_W") for r in rows]
    require(vgs == [float(v) for v in POWER_VG.split(",")],
            f"power rows {vgs} do not match {POWER_VG}")
    require(all(p > 0 for p in powers), "non-positive read power")
    require(all(a < b for a, b in zip(powers, powers[1:])),
            "read power does not rise with the gate voltage")
    rng = np.random.default_rng([ctx.seed, 2])
    g = rng.uniform(mem.g_off, mem.g_on, 256)
    v = rng.uniform(0.0, 0.5, 256)
    kcl_check(onetr, g[:, None], v[:, None], np.array(vgs)[None, :], t)
    return [("mean_power_W", powers, 0.0, REL_TOL)]


def _check_single_cell(gm, vg):
    def check(ctx, out):
        onetr = ctx.onetr
        t, _ = onetr.default_device()
        read_json(out / "run_manifest.json")
        rows = read_csv(out / "geff_curve.csv", ["v_in", "g_eff"])
        require(len(rows) == VIN_POINTS, f"{len(rows)} curve points")
        g_eff = np.array([as_float(r[1], "g_eff") for r in rows])
        require(np.all(g_eff > 0) and np.all(g_eff <= gm * (1 + 1e-9)),
                "g_eff outside (0, g_m]")
        window = read_json(out / "linear_range.json")
        tm = as_float(window.get("tm"), "tm")
        spread = (g_eff.max() - g_eff.min()) / g_eff.max()
        require(abs(tm - spread) <= 10 * CSV_TOL,
                f"tm {tm} does not match the written curve ({spread})")
        v_step = 0.5 / VIN_POINTS
        edges = [window.get("v_lo"), window.get("v_hi")]
        grid = onetr.default_vin_grid(0.5, VIN_POINTS)
        kcl_check(onetr, gm, grid, vg, t)
        return [("tm", tm, 0.0, REL_TOL),
                ("window", edges, v_step * (1 + 1e-9), 0.0)]
    return check


def _ops_characterize(ctx):
    ops = [
        Op("cutoff_default", ["cutoff", "--device", "default", "--vg",
                              VG_FINE], _check_cutoff("default", True)),
        Op("cutoff_stressed", ["cutoff", "--device", "stressed", "--vg",
                               VG_FINE], _check_cutoff("stressed", False)),
        Op("power", ["power-mc", "--vg", POWER_VG, "--seed", str(ctx.seed)],
           _check_power),
    ]
    for i, (gm, vg) in enumerate(ctx.data["cells"]):
        ops.append(Op(f"cell{i}", ["characterize", "--gm", repr(gm),
                                   "--vg", repr(vg)],
                      _check_single_cell(gm, vg)))
    return ops


# ---------------------------------------------------------------------------
# neat

def _setup_data(ctx, n_test):
    onetr = ctx.onetr
    ds = onetr.make_blobs(seed=ctx.seed)
    ctx.data["train"] = _write_split(onetr, "train.csv", ds.x_train,
                                     ds.y_train)
    ctx.data["test"] = _write_split(onetr, "test.csv", ds.x_test[:n_test],
                                    ds.y_test[:n_test])
    ctx.data["t"], ctx.data["mem"] = onetr.default_device()


def _data_flags():
    return ["--data", "train.csv", "--test-data", "test.csv"]


def _load_model(ctx, path):
    try:
        return ctx.onetr.load_checkpoint(path)
    except Exception as exc:  # any loader failure is a failed check
        raise CheckFailed(f"{path.name}: {exc}") from exc


def _check_train(ctx, out):
    read_json(out / "run_manifest.json")
    metrics = read_json(out / "metrics.json")
    ckpt = _load_model(ctx, out / "checkpoint.json")
    (x_tr, y_tr), (x_te, y_te) = ctx.data["train"], ctx.data["test"]
    train_acc = fraction(metrics.get("train_accuracy"), "train_accuracy")
    test_acc = fraction(metrics.get("test_accuracy"), "test_accuracy")
    require(ctx.onetr.accuracy(ckpt.model, x_te, y_te) == test_acc,
            "test_accuracy does not match the written checkpoint")
    return [("train_accuracy", train_acc, 1.0 / len(y_tr), 0.0),
            ("test_accuracy", test_acc, 1.0 / len(y_te), 0.0)]


def _schedule_summary(ctx, raw, grid):
    schedule = ctx.onetr.schedule_from_dict(raw)
    vgs = schedule.gate_voltages()
    require(all(any(abs(v - g) < 1e-9 for g in grid) for v in vgs),
            f"gate voltages {vgs} are not on the grid")
    require(all(0.0 <= e.w_cut <= e.w_r * (1 + 1e-9)
                for e in schedule.entries), "w_cut outside [0, w_r]")
    return schedule, [("gate_voltages", vgs, 1e-9, 0.0)]


def _check_search(ctx, out):
    read_json(out / "run_manifest.json")
    read_csv(out / "cutoff_table.csv", ["v_g", "g_m_cutoff"])
    _, summary = _schedule_summary(ctx, read_json(out / "schedule.json"),
                                   _grid_values(NEAT_VG_GRID))
    return summary


def _check_neat(ctx, out):
    read_json(out / "run_manifest.json")
    raw = read_json(out / "schedule.json")
    require(raw == read_json(ctx.out("search") / "schedule.json"),
            "neat schedule differs from the search-vg schedule")
    schedule, summary = _schedule_summary(ctx, raw,
                                          _grid_values(NEAT_VG_GRID))
    rows = read_csv(out / "history.csv",
                    ["iteration", "accuracy", "linear_fraction"])
    require(len(rows) == 30, f"{len(rows)} history rows, expected 30")
    ckpt = _load_model(ctx, out / "neat_checkpoint.json")
    x_te, y_te = ctx.data["test"]
    final_acc = as_float(rows[-1][1], "accuracy")
    require(abs(ctx.onetr.accuracy(ckpt.model, x_te, y_te) - final_acc)
            <= CSV_TOL, "final history accuracy does not match the checkpoint")
    _, overall = ctx.onetr.linear_fraction(ckpt.model, schedule)
    require(abs(overall - as_float(rows[-1][2], "linear_fraction"))
            <= CSV_TOL, "final linear fraction does not match the checkpoint")
    n_weights = sum(l.w.size for l in ckpt.model.dense_layers())
    return summary + [("final_accuracy", final_acc, 1.0 / len(y_te), 0.0),
                      ("linear_fraction", overall, 1.0 / n_weights, 0.0)]


def _check_eval_software(ctx, out):
    read_json(out / "run_manifest.json")
    result = read_json(out / "eval.json")
    x_te, y_te = ctx.data["test"]
    require(result.get("mode") == "software" and
            result.get("n_test") == len(y_te), "eval.json header mismatch")
    acc = fraction(result.get("accuracy"), "accuracy")
    rows = read_csv(ctx.out("neat") / "history.csv",
                    ["iteration", "accuracy", "linear_fraction"])
    require(abs(acc - as_float(rows[-1][1], "accuracy")) <= CSV_TOL,
            "software eval disagrees with the final neat accuracy")
    return [("accuracy", acc, 1.0 / len(y_te), 0.0)]


def _crossbar_kcl(ctx, model, schedule, x_eval):
    onetr = ctx.onetr
    t, mem = ctx.data["t"], ctx.data["mem"]
    x_tr, _ = ctx.data["train"]
    ts = onetr.program_model(model, schedule, mem, x_tr)[0]
    kcl_check(onetr, *tileset_points(ts, x_eval[:KCL_SAMPLE_ROWS]), t)


def _check_eval_crossbar(ctx, out):
    read_json(out / "run_manifest.json")
    result = read_json(out / "eval.json")
    x_te, y_te = ctx.data["test"]
    require(result.get("mode") == "crossbar" and
            result.get("n_test") == len(y_te), "eval.json header mismatch")
    acc = fraction(result.get("accuracy"), "accuracy")
    ckpt = _load_model(ctx, ctx.out("neat") / "neat_checkpoint.json")
    require(result.get("gate_voltages") == ckpt.schedule.gate_voltages(),
            "eval used another schedule than the checkpoint's")
    _crossbar_kcl(ctx, ckpt.model, ckpt.schedule, x_te)
    return [("accuracy", acc, 1.0 / len(y_te), 0.0)]


def _setup_neat(ctx):
    _setup_data(ctx, NEAT_TEST_ROWS)


def _ops_neat(ctx):
    train_ckpt = str(ctx.out("train") / "checkpoint.json")
    neat_ckpt = str(ctx.out("neat") / "neat_checkpoint.json")
    grid = ["--vg-grid", NEAT_VG_GRID]
    return [
        Op("train", ["train", "--seed", str(ctx.seed)] + _data_flags(),
           _check_train),
        Op("search", ["search-vg", "--checkpoint", train_ckpt] + grid,
           _check_search),
        Op("neat", ["neat", "--checkpoint", train_ckpt, "--seed",
                    str(ctx.seed)] + grid + _data_flags(), _check_neat),
        Op("eval_software", ["eval", "--checkpoint", neat_ckpt, "--mode",
                             "software"] + _data_flags(),
           _check_eval_software),
        Op("eval_crossbar", ["eval", "--checkpoint", neat_ckpt, "--mode",
                             "crossbar"] + _data_flags(),
           _check_eval_crossbar),
    ]


# ---------------------------------------------------------------------------
# report-wide

BASE_CKPT = "base/checkpoint.json"
BASE_SCHEDULE = "base_schedule/schedule.json"


def _setup_report_wide(ctx):
    _setup_data(ctx, WIDE_TEST_ROWS)
    cli = ctx.onetr.cli
    argv = ["train", "--hidden", str(WIDE_HIDDEN), "--seed", str(ctx.seed),
            "--out", "base"] + _data_flags()
    if cli.main(argv) != 0:
        raise RuntimeError("setup: training the wide baseline failed")
    if cli.main(["search-vg", "--checkpoint", BASE_CKPT,
                 "--out", "base_schedule"]) != 0:
        raise RuntimeError("setup: searching the baseline schedule failed")
    ctx.data["base"] = ctx.onetr.load_checkpoint(BASE_CKPT)
    with open(BASE_SCHEDULE, encoding="utf-8") as fh:
        ctx.data["schedule"] = ctx.onetr.schedule_from_dict(json.load(fh))


def _check_report(ctx, out):
    read_json(out / "run_manifest.json")
    report = read_json(out / "report.json")
    n = WIDE_MAX_SAMPLES
    require(report.get("n_samples") == n, "report n_samples mismatch")
    summary = []
    legs = {}
    for leg, vg in (("baseline", 1.0), ("compare", 0.8)):
        entry = report.get(leg) or {}
        require(entry.get("v_g") == vg, f"{leg} leg is not at {vg} V")
        acc = fraction(entry.get("accuracy"), f"{leg}.accuracy")
        total = as_float(entry.get("total_J"), f"{leg}.total_J")
        require(total > 0, f"{leg} energy is not positive")
        require(abs(as_float(entry.get("per_sample_J"), "per_sample_J")
                    - total / n) <= 1e-12 * total, "per-sample energy")
        legs[leg] = total
        summary += [(f"{leg}.accuracy", acc, 1.0 / n, 0.0),
                    (f"{leg}.total_J", total, 0.0, REL_TOL)]
    gain = 100.0 * (legs["baseline"] - legs["compare"]) / legs["baseline"]
    require(abs(as_float(report.get("energy_gain_percent"), "gain") - gain)
            <= 1e-9 * max(1.0, abs(gain)), "energy gain is inconsistent")
    require(gain > 0, "lower gate voltage did not save energy")
    onetr = ctx.onetr
    t, mem = ctx.data["t"], ctx.data["mem"]
    model = ctx.data["base"].model
    table = onetr.cutoff_table([1.0, 0.8], t, mem)
    x_te, _ = ctx.data["test"]
    for vg in (1.0, 0.8):
        schedule = onetr.homogeneous_schedule(model, vg, table, mem)
        _crossbar_kcl(ctx, model, schedule, x_te)
    return summary


def _check_energy(ctx, out):
    read_json(out / "run_manifest.json")
    energy = read_json(out / "energy.json")
    require(energy.get("n_samples") == WIDE_MAX_SAMPLES,
            "energy n_samples mismatch")
    per_layer = [as_float(v, "per_layer_J") for v in energy.get("per_layer_J")
                 or []]
    require(len(per_layer) == 2 and all(e > 0 for e in per_layer),
            f"per-layer energies {per_layer}")
    total = as_float(energy.get("total_J"), "total_J")
    require(abs(sum(per_layer) - total) <= 1e-12 * total,
            "per-layer energies do not sum to the total")
    schedule = ctx.data["schedule"]
    require(energy.get("gate_voltages") == schedule.gate_voltages(),
            "energy used another schedule")
    x_te, _ = ctx.data["test"]
    _crossbar_kcl(ctx, ctx.data["base"].model, schedule, x_te)
    return [("per_layer_J", per_layer, 0.0, REL_TOL),
            ("total_J", total, 0.0, REL_TOL)]


def _check_eval_ideal(ctx, out):
    read_json(out / "run_manifest.json")
    result = read_json(out / "eval.json")
    x_tr, _ = ctx.data["train"]
    x_te, y_te = ctx.data["test"]
    require(result.get("device_mode") == "ideal_switch" and
            result.get("n_test") == len(y_te), "eval.json header mismatch")
    acc = fraction(result.get("accuracy"), "accuracy")
    exact = exact_clipped_accuracy(ctx.data["base"].model,
                                   ctx.data["schedule"], x_tr, x_te, y_te)
    require(acc == exact, f"ideal-switch accuracy {acc} is not the exact "
                          f"clipped product's {exact}")
    return [("accuracy", acc, 1.0 / len(y_te), 0.0)]


def _ops_report_wide(ctx):
    samples = ["--max-samples", str(WIDE_MAX_SAMPLES)]
    sched = ["--schedule", BASE_SCHEDULE]
    return [
        Op("report", ["report", "--checkpoint", BASE_CKPT] + samples
           + _data_flags(), _check_report),
        Op("energy", ["energy", "--checkpoint", BASE_CKPT] + sched + samples
           + _data_flags(), _check_energy),
        Op("eval_ideal", ["eval", "--checkpoint", BASE_CKPT] + sched
           + ["--mode", "crossbar", "--device-mode", "ideal_switch"]
           + _data_flags(), _check_eval_ideal),
    ]


REFERENCE_FILE = Path(__file__).with_name("reference.json")


def load_reference(workload):
    """``{"any": {op: outputs}, "seeds": {seed: {op: outputs}}}``."""
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


WORKLOADS = {
    "characterize": (_setup_characterize, _ops_characterize),
    "neat": (_setup_neat, _ops_neat),
    "report-wide": (_setup_report_wide, _ops_report_wide),
}


# ---------------------------------------------------------------------------
# running and checking one round

def setup(ctx):
    WORKLOADS[ctx.workload][0](ctx)


def operations(ctx):
    ops = WORKLOADS[ctx.workload][1](ctx)
    for op in ops:
        op.argv = op.argv + ["--out", str(ctx.out(op.name))]
    return ops


def clean():
    """Remove the previous round's artifacts."""
    shutil.rmtree("ops", ignore_errors=True)


def run_ops(ops, call):
    """Run every operation once; returns the exit code of each.

    ``call(op)`` invokes the CLI; an exception counts as a failed exit.
    """
    codes = []
    for op in ops:
        try:
            codes.append(call(op))
        except Exception as exc:  # a crash is a failed operation
            codes.append(f"{type(exc).__name__}: {exc}")
    return codes


def artifact_digest(out):
    h = hashlib.blake2b(digest_size=16)
    if out.is_dir():
        for path in sorted(out.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_ops(ctx, ops, codes, first=None):
    """Check one round; returns ``(failures, first)``.

    The first round is checked in full and against the reference outputs;
    ``first`` then records each operation's verdict and artifact digest.
    Later rounds must reproduce the first round's artifacts byte for byte.
    """
    failures = []
    record = {} if first is None else first
    for op, code in zip(ops, codes):
        out = ctx.out(op.name)
        if code != 0:
            failures.append(f"{op.name}: exit {code}")
            record.setdefault(op.name, (False, None))
            continue
        digest = artifact_digest(out)
        if first is not None:
            ok, want = first[op.name]
            if not ok:
                failures.append(f"{op.name}: failed its first-round check")
            elif digest != want:
                failures.append(f"{op.name}: artifacts differ from the "
                                "first round")
            continue
        try:
            summary = op.check(ctx, out)
            want = ctx.reference.get(op.name)
            require(want is not None or not ctx.reference_complete,
                    "no reference outputs")
            if want is not None:
                for key, value, abs_tol, rel_tol in summary:
                    require(key in want, f"reference lacks {key}")
                    compare(key, value, want[key], abs_tol, rel_tol)
            record[op.name] = (True, digest)
            ctx.data.setdefault("summaries", {})[op.name] = {
                k: v for k, v, _, _ in summary}
        except Exception as exc:  # a malformed artifact can crash a check
            detail = (exc if isinstance(exc, CheckFailed)
                      else f"{type(exc).__name__}: {exc}")
            failures.append(f"{op.name}: {detail}")
            record[op.name] = (False, digest)
    return failures, record

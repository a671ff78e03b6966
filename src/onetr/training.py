"""Gate-voltage schedules and crossbar-aware training procedures.

Two procedures connect the device tables to a trained network:

* a per-layer search that picks, for each layer, the lowest gate voltage
  whose clip level still covers the layer's weight range, then steps back
  one grid point so the layer sits inside the linear window with margin;
* an iterative clip-and-retrain loop that alternates hard weight clipping
  at a fixed schedule with short retraining rounds, pushing weights into
  the linear window while recovering accuracy.

Programming a model onto crossbar tiles and evaluating it through the
non-ideal array live here too, so the command line tool and the tests share
one code path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .crossbar import (DEFAULT_C_GATE, DEFAULT_PULSE_WIDTH,
                       mvm_nonideal_batch, program)
from .device import ANALYTICAL, DeviceMode, MemristorParams, TransistorParams
from .errors import DomainError, atomic_write, read_json_object, real
from .mapping import layer_scale, scale_from_range, wcut_from_vg
from .network import Model, TrainConfig, accuracy, train

CHECKPOINT_FILE_VERSION = 1
DEFAULT_PERCENTILE = 99.9  # calibration percentile for read-voltage scaling

# search outcome flags
FLAG_NONE = ""
FLAG_FIRST_COVERS = "first_covers"  # even the lowest grid point covers w_r
FLAG_NO_COVERAGE = "no_coverage"  # no grid point covers w_r


@dataclass(frozen=True)
class ScheduleEntry:
    layer: int
    v_g: float  # V
    w_cut: float  # weight units
    w_r: float  # weight range anchor the conductance map was built from
    g_m_cutoff: Optional[float]  # S, None when the gate never passes
    flag: str = FLAG_NONE


@dataclass(frozen=True)
class VgSchedule:
    mode: str  # "heterogeneous" | "homogeneous"
    grid: tuple
    entries: tuple

    def __post_init__(self):
        if self.mode not in ("heterogeneous", "homogeneous"):
            raise DomainError(f"unknown schedule mode {self.mode!r}")

    def gate_voltages(self):
        return [e.v_g for e in self.entries]


def schedule_to_dict(schedule: VgSchedule) -> dict:
    return {
        "mode": schedule.mode,
        "grid": list(schedule.grid),
        "entries": [asdict(e) for e in schedule.entries],
    }


def _entry_from_dict(position: int, raw: dict) -> ScheduleEntry:
    e = ScheduleEntry(**raw)
    if type(e.layer) is not int or e.layer != position:  # not a bool
        raise ValueError(f"entry {position} has layer {e.layer!r}")
    if e.flag not in (FLAG_NONE, FLAG_FIRST_COVERS, FLAG_NO_COVERAGE):
        raise ValueError(f"unknown flag {e.flag!r}")
    v_g, w_cut, w_r = (real(getattr(e, k), k)
                       for k in ("v_g", "w_cut", "w_r"))
    if e.g_m_cutoff is not None:
        real(e.g_m_cutoff, "g_m_cutoff")
    if v_g < 0 or w_r <= 0 or not 0 <= w_cut <= w_r * (1 + 1e-9):
        raise ValueError("needs v_g >= 0, w_r > 0 and 0 <= w_cut <= w_r")
    return e


def schedule_from_dict(raw: dict) -> VgSchedule:
    try:
        entries = tuple(_entry_from_dict(i, e)
                        for i, e in enumerate(raw["entries"]))
        grid = tuple(real(v, "grid") for v in raw["grid"])
        return VgSchedule(raw["mode"], grid, entries)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed schedule payload: {exc}") from exc


def _sorted_grid(table, grid):
    if grid is None:
        grid = table.gate_voltages()
    grid = [float(v) for v in grid]
    if not grid:
        raise DomainError("empty gate-voltage grid")
    out = sorted(grid)
    if any(b - a <= 0 for a, b in zip(out, out[1:])):
        raise DomainError("gate-voltage grid has duplicate points")
    for v in out:
        table.lookup(v)  # raises CutoffLookupError when absent
    return out


def _grid_index(grid, v_g: float) -> int:
    for i, v in enumerate(grid):
        if abs(v - v_g) < 1e-9:
            return i
    raise DomainError(f"v_g={v_g} is not on the schedule grid")


def search_heterogeneous_vg(model: Model, table, mem: MemristorParams,
                            grid=None, wcut_provider=None) -> VgSchedule:
    """Per-layer gate-voltage search.

    Scans the grid upward until the clip level first covers the layer's
    weight range, then assigns the previous grid point. When the lowest
    grid point already covers, it is assigned and flagged; when none
    covers, the highest is assigned and flagged.

    ``wcut_provider(v_g, scale)`` overrides the table-driven clip-level
    computation; with it, ``table`` may be None but ``grid`` is required.
    """
    if wcut_provider is None:
        grid = _sorted_grid(table, grid)
        wcut_provider = lambda v, scale: wcut_from_vg(v, scale, table)
    elif grid is None:
        raise DomainError("an explicit grid is required with a wcut_provider")
    else:
        grid = sorted(float(v) for v in grid)
    entries = []
    for i, layer in enumerate(model.dense_layers()):
        scale = layer_scale(layer.w, mem)
        specs = [wcut_provider(v, scale) for v in grid]
        first = next((k for k, s in enumerate(specs)
                      if s.w_cut >= scale.w_r), None)
        if first is None:
            pick, flag = len(grid) - 1, FLAG_NO_COVERAGE
        elif first == 0:
            pick, flag = 0, FLAG_FIRST_COVERS
        else:
            pick, flag = first - 1, FLAG_NONE
        spec = specs[pick]
        entries.append(ScheduleEntry(i, spec.v_g, spec.w_cut, scale.w_r,
                                     spec.g_m_cutoff, flag))
    return VgSchedule("heterogeneous", tuple(grid), tuple(entries))


def homogeneous_schedule(model: Model, v_g: float, table,
                         mem: MemristorParams) -> VgSchedule:
    """Same gate voltage for every layer, clip levels still per layer."""
    grid = _sorted_grid(table, None)
    _grid_index(grid, v_g)
    entries = []
    for i, layer in enumerate(model.dense_layers()):
        scale = layer_scale(layer.w, mem)
        spec = wcut_from_vg(v_g, scale, table)
        entries.append(ScheduleEntry(i, spec.v_g, spec.w_cut, scale.w_r,
                                     spec.g_m_cutoff))
    return VgSchedule("homogeneous", tuple(grid), tuple(entries))


def step_down_schedule(schedule: VgSchedule, table,
                       mem: MemristorParams) -> VgSchedule:
    """One grid step below each entry, clamped at the lowest grid point.

    Clip levels are recomputed at the lower gate voltage against each
    entry's original weight-range anchor.
    """
    entries = []
    for e in schedule.entries:
        idx = max(_grid_index(schedule.grid, e.v_g) - 1, 0)
        scale = scale_from_range(e.w_r, mem)
        spec = wcut_from_vg(schedule.grid[idx], scale, table)
        entries.append(ScheduleEntry(e.layer, spec.v_g, spec.w_cut, e.w_r,
                                     spec.g_m_cutoff, e.flag))
    return VgSchedule(schedule.mode, schedule.grid, tuple(entries))


def _check_alignment(model: Model, schedule: VgSchedule):
    dense = model.dense_layers()
    if len(dense) != len(schedule.entries):
        raise DomainError(
            f"schedule has {len(schedule.entries)} entries for "
            f"{len(dense)} dense layers")
    return dense


def clip_model(model: Model, schedule: VgSchedule) -> Model:
    """Hard-clips every dense weight to its layer's clip level, in place."""
    for layer, e in zip(_check_alignment(model, schedule), schedule.entries):
        np.clip(layer.w, -e.w_cut, e.w_cut, out=layer.w)
    return model


def linear_fraction(model: Model, schedule: VgSchedule):
    """Fraction of weights inside the clip window, per layer and overall."""
    per_layer, inside, total = [], 0, 0
    for layer, e in zip(_check_alignment(model, schedule), schedule.entries):
        n_in = int(np.count_nonzero(np.abs(layer.w) <= e.w_cut))
        per_layer.append(n_in / layer.w.size)
        inside += n_in
        total += layer.w.size
    return per_layer, inside / total


def iterative_train(model: Model, schedule: VgSchedule, x, y,
                    config: TrainConfig, eval_x=None, eval_y=None):
    """Alternate hard clipping with short retraining rounds.

    Clip levels stay fixed at the schedule for every iteration. Returns the
    trained model and one history row per iteration with the accuracy and
    the overall in-window weight fraction measured after that round's
    training step.
    """
    _check_alignment(model, schedule)
    if eval_x is None:
        eval_x, eval_y = x, y
    rng = np.random.default_rng(config.seed)
    history = []
    for it in range(1, config.n_iterations + 1):
        clip_model(model, schedule)
        train(model, x, y, config, rng=rng,
              epochs=config.epochs_per_iteration)
        _, overall = linear_fraction(model, schedule)
        history.append({
            "iteration": it,
            "accuracy": accuracy(model, eval_x, eval_y),
            "linear_fraction": overall,
        })
    return model, history


def program_model(model: Model, schedule: VgSchedule, mem: MemristorParams,
                  calib_x):
    """Programs every dense layer onto crossbar tiles.

    Read-voltage scaling uses the ``DEFAULT_PERCENTILE`` percentile of each
    layer's input activations over the calibration batch, so stray large
    activations do not crush the useful voltage range.
    """
    dense = _check_alignment(model, schedule)
    calib_x = np.asarray(calib_x, dtype=float)
    if calib_x.ndim != 2 or calib_x.shape[0] < 1:
        raise DomainError("calibration batch must be (samples, features)")
    model.forward(calib_x)  # each layer keeps its input as ``layer.x``
    tilesets = []
    for layer, e in zip(dense, schedule.entries):
        a_max = float(np.percentile(layer.x, DEFAULT_PERCENTILE))
        if a_max <= 0 or not np.isfinite(a_max):
            raise DomainError(
                f"layer {e.layer}: calibration activations give "
                f"a_max={a_max}")
        scale = scale_from_range(e.w_r, mem)
        tilesets.append(program(layer.w, e, scale, a_max=a_max))
    return tilesets


def crossbar_forward(tilesets, biases, x, t: TransistorParams,
                     mode: DeviceMode = ANALYTICAL, v_supply: float = 0.5,
                     pulse_width: Optional[float] = None,
                     c_gate: float = DEFAULT_C_GATE):
    """Forward pass through programmed arrays; biases and ReLU are digital.

    One crossbar solve per layer gives ``(logits, per-layer read energy over
    the batch)``; the energy is None without ``pulse_width``.
    """
    if len(tilesets) != len(biases):
        raise DomainError("one bias vector per programmed layer required")
    acts = np.asarray(x, dtype=float)
    per_layer = None if pulse_width is None else []
    last = len(tilesets) - 1
    for i, (ts, b) in enumerate(zip(tilesets, biases)):
        r = mvm_nonideal_batch(ts, acts, t, mode=mode, v_supply=v_supply,
                               pulse_width=pulse_width, c_gate=c_gate)
        if per_layer is not None:
            per_layer.append(float(np.sum(r.energy)))
        acts = r.outputs + np.asarray(b)
        if i < last:
            acts = np.maximum(acts, 0.0)
    return acts, per_layer


def evaluate(model: Model, x, y, schedule: VgSchedule, t: TransistorParams,
             mem: MemristorParams, calib_x, mode: DeviceMode = ANALYTICAL,
             v_supply: float = 0.5) -> float:
    """Accuracy of ``model`` programmed under ``schedule`` (calibrated on
    ``calib_x``) and read through the crossbar."""
    tilesets = program_model(model, schedule, mem, calib_x)
    biases = [l.b for l in model.dense_layers()]
    logits = crossbar_forward(tilesets, biases, x, t, mode, v_supply)[0]
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))


def network_energy(tilesets, biases, x, t: TransistorParams,
                   mode: DeviceMode = ANALYTICAL, v_supply: float = 0.5,
                   pulse_width: float = DEFAULT_PULSE_WIDTH,
                   c_gate: float = DEFAULT_C_GATE):
    """Read energy of one forward pass over a batch, per layer and total,
    plus the pass's logits.  Each layer is billed for the activations the
    crossbar chain hands it."""
    logits, per_layer = crossbar_forward(tilesets, biases, x, t, mode,
                                         v_supply, pulse_width, c_gate)
    return {"per_layer": per_layer, "total": float(sum(per_layer)),
            "logits": logits}


@dataclass(frozen=True)
class Checkpoint:
    model: Model
    schedule: Optional[VgSchedule] = None
    config: Optional[TrainConfig] = None
    history: Optional[list] = None


def save_checkpoint(path, model: Model, schedule: Optional[VgSchedule] = None,
                    config: Optional[TrainConfig] = None,
                    history=None) -> None:
    payload = {
        "format_version": CHECKPOINT_FILE_VERSION,
        "model": model.to_dict(),
        "schedule": schedule_to_dict(schedule) if schedule else None,
        "train_config": asdict(config) if config else None,
        "history": history,
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    raw = read_json_object(path)
    if raw.get("format_version") != CHECKPOINT_FILE_VERSION:
        raise DomainError(f"{path}: unsupported checkpoint version")
    try:
        model = Model.from_dict(raw["model"])
        schedule = (schedule_from_dict(raw["schedule"])
                    if raw.get("schedule") else None)
        config = (TrainConfig(**raw["train_config"])
                  if raw.get("train_config") else None)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"{path}: malformed checkpoint: {exc}") from exc
    return Checkpoint(model, schedule, config, raw.get("history"))

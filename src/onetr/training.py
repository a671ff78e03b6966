"""Gate-voltage schedules and crossbar-aware training procedures.

Two procedures connect the device tables to a trained network:

* a per-layer search that picks, for each layer, the lowest gate voltage
  whose clip level still covers the layer's weight range, then steps back
  one grid point so the layer sits inside the linear window with margin;
* an iterative clip-and-retrain loop that alternates hard weight clipping
  at a fixed schedule with short retraining rounds, pushing weights into
  the linear window while recovering accuracy.

``crossbar_forward`` is the one network read: it programs a (model, schedule)
pair onto crossbar arrays and gives logits and per-layer read energy from one
pass.  ``evaluate`` and ``network_energy`` reduce that pass.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .crossbar import (DEFAULT_C_GATE, DEFAULT_PULSE_WIDTH,
                       mvm_nonideal_batch, program)
from .device import ANALYTICAL, DeviceMode, MemristorParams, TransistorParams
from .errors import DomainError, _write_json, read_json_object, real
from .mapping import (GRID_ATOL, RANGE_RTOL, layer_scale, scale_from_range,
                      wcut_from_vg)
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
    """Per-layer gate voltages; constructing one is the one validity check."""

    mode: str  # "heterogeneous" | "homogeneous"
    grid: tuple
    entries: tuple

    def __post_init__(self):
        if self.mode not in ("heterogeneous", "homogeneous"):
            raise DomainError(f"unknown schedule mode {self.mode!r}")
        grid = [real(v, "grid") for v in self.grid]
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("grid must be non-empty and strictly increasing")
        for i, e in enumerate(self.entries):
            if type(e.layer) is not int or e.layer != i:  # not a bool
                raise DomainError(f"entry {i} has layer {e.layer!r}")
            if e.flag not in (FLAG_NONE, FLAG_FIRST_COVERS, FLAG_NO_COVERAGE):
                raise DomainError(f"entry {i} has unknown flag {e.flag!r}")
            if e.g_m_cutoff is not None:
                real(e.g_m_cutoff, "g_m_cutoff")
            v_g, w_cut, w_r = (real(getattr(e, k), k)
                               for k in ("v_g", "w_cut", "w_r"))
            if v_g < 0 or w_r <= 0 or not 0 <= w_cut <= w_r * (1 + RANGE_RTOL):
                raise DomainError(f"entry {i} needs v_g >= 0, w_r > 0 and "
                                  "0 <= w_cut <= w_r")
            _grid_index(grid, v_g)

    def gate_voltages(self):
        return [e.v_g for e in self.entries]


def schedule_to_dict(schedule: VgSchedule) -> dict:
    return {
        "mode": schedule.mode,
        "grid": list(schedule.grid),
        "entries": [asdict(e) for e in schedule.entries],
    }


def schedule_from_dict(raw: dict) -> VgSchedule:
    try:
        return VgSchedule(raw["mode"], tuple(raw["grid"]),
                          tuple(ScheduleEntry(**e) for e in raw["entries"]))
    except (KeyError, TypeError, ValueError) as exc:  # DomainError included
        raise DomainError(f"malformed schedule payload: {exc}") from exc


def _sorted_grid(table, grid):
    out = sorted(float(v) for v in
                 (table.gate_voltages() if grid is None else grid))
    if not out:  # the search indexes the grid before it builds a schedule
        raise DomainError("empty gate-voltage grid")
    for v in out if table is not None else ():  # None: no table to check
        table.lookup(v)  # raises CutoffLookupError when absent
    return out


def _grid_index(grid, v_g: float) -> int:
    for i, v in enumerate(grid):
        if abs(v - v_g) <= GRID_ATOL:
            return i
    raise DomainError(f"v_g={v_g} is not on the schedule grid")


def layer_scales(model: Model, mem: MemristorParams):
    """Every dense layer's LayerScale, whose ``w_r`` anchors its mapping."""
    return [layer_scale(layer.w, mem) for layer in model.layers]


def _entry(layer: int, spec, w_r: float, flag: str = FLAG_NONE):
    """The schedule entry for a clip level ``spec`` (a WcutSpec), clamped to
    the range as ``wcut_from_vg`` clamps a cutoff table's."""
    return ScheduleEntry(layer, spec.v_g, min(spec.w_cut, w_r), w_r,
                         spec.g_m_cutoff, flag)


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
    if wcut_provider is not None and grid is None:
        raise DomainError("an explicit grid is required with a wcut_provider")
    grid = _sorted_grid(table if wcut_provider is None else None, grid)
    if wcut_provider is None:
        wcut_provider = lambda v, scale: wcut_from_vg(v, scale, table)
    entries = []
    for i, scale in enumerate(layer_scales(model, mem)):
        specs = [wcut_provider(v, scale) for v in grid]
        first = next((k for k, s in enumerate(specs)
                      if s.w_cut >= scale.w_r), None)
        if first is None:
            pick, flag = len(grid) - 1, FLAG_NO_COVERAGE
        elif first == 0:
            pick, flag = 0, FLAG_FIRST_COVERS
        else:
            pick, flag = first - 1, FLAG_NONE
        entries.append(_entry(i, specs[pick], scale.w_r, flag))
    return VgSchedule("heterogeneous", tuple(grid), tuple(entries))


def homogeneous_schedule(model: Model, v_g: float, table,
                         mem: MemristorParams) -> VgSchedule:
    """Same gate voltage for every layer, clip levels still per layer."""
    grid = _sorted_grid(table, None)
    entries = [_entry(i, wcut_from_vg(v_g, scale, table), scale.w_r)
               for i, scale in enumerate(layer_scales(model, mem))]
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
        entries.append(_entry(e.layer, spec, e.w_r, e.flag))
    return VgSchedule(schedule.mode, schedule.grid, tuple(entries))


def _check_alignment(model: Model, schedule: VgSchedule):
    dense = model.layers
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
    if (eval_x is None) != (eval_y is None):
        raise DomainError("give both eval_x and eval_y, or neither")
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


def _activation_ceiling(inputs) -> float:
    """``np.percentile(inputs, DEFAULT_PERCENTILE)``, partitioning only the
    values at or above ``floor``, the least maximum of ``n - k`` blocks: at
    least ``n - k`` values reach it, so ranks ``k`` and ``k + 1`` do."""
    flat = np.ravel(inputs)
    n = flat.size
    if np.isnan(flat).any():  # NaN sorts last, where np.percentile reads it
        return float("nan")
    at = (n - 1) * (DEFAULT_PERCENTILE / 100)
    k = int(at)
    width = n // (n - k)  # the blocks leave a tail of under ``width`` values
    floor = flat[:(n - k) * width].reshape(-1, width).max(axis=1).min()
    top = flat[flat >= floor]
    i, j = k - (n - top.size), min(k + 1, n - 1) - (n - top.size)
    lo, hi = np.partition(top, (i, j))[[i, j]]
    g = at - k if k + 1 < n else 1.0  # at n = 1, numpy's gamma is 1
    return float(lo + (hi - lo) * g if g < 0.5 else hi - (hi - lo) * (1 - g))


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
    tilesets = []
    for layer, e, inputs in zip(dense, schedule.entries,
                                model.activations(calib_x)):
        a_max = _activation_ceiling(inputs)
        if a_max <= 0 or not np.isfinite(a_max):
            raise DomainError(
                f"layer {e.layer}: calibration activations give "
                f"a_max={a_max}")
        scale = scale_from_range(e.w_r, mem)
        tilesets.append(program(layer.w, e, scale, a_max=a_max))
    return tilesets


def crossbar_forward(model: Model, x, schedule: VgSchedule,
                     t: TransistorParams, mem: MemristorParams, calib_x,
                     mode: DeviceMode = ANALYTICAL, v_supply: float = 0.5,
                     pulse_width: Optional[float] = None,
                     c_gate: float = DEFAULT_C_GATE):
    """Program ``model`` under ``schedule`` (calibrated on ``calib_x``) and
    read the batch ``x`` through its arrays; biases and ReLU are digital.

    One crossbar solve per layer gives ``(logits, per-layer read energy over
    the batch)``; the energy is None without ``pulse_width``.
    """
    tilesets = program_model(model, schedule, mem, calib_x)
    acts = np.asarray(x, dtype=float)
    per_layer = None if pulse_width is None else []
    for i, (ts, layer) in enumerate(zip(tilesets, model.layers)):
        r = mvm_nonideal_batch(ts, acts, t, mode, v_supply, pulse_width, c_gate)
        if per_layer is not None:
            per_layer.append(float(np.sum(r.energy)))
        acts = r.outputs + layer.b
        if i < len(tilesets) - 1:
            acts = np.maximum(acts, 0.0)
    return acts, per_layer


def evaluate(model: Model, x, y, schedule: VgSchedule, t: TransistorParams,
             mem: MemristorParams, calib_x, mode: DeviceMode = ANALYTICAL,
             v_supply: float = 0.5) -> float:
    """Accuracy of ``model`` programmed under ``schedule`` (calibrated on
    ``calib_x``) and read through the crossbar."""
    logits = crossbar_forward(model, x, schedule, t, mem, calib_x, mode,
                              v_supply)[0]
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))


def network_energy(model: Model, x, schedule: VgSchedule,
                   t: TransistorParams, mem: MemristorParams, calib_x,
                   mode: DeviceMode = ANALYTICAL, v_supply: float = 0.5,
                   pulse_width: float = DEFAULT_PULSE_WIDTH,
                   c_gate: float = DEFAULT_C_GATE):
    """Read energy of one forward pass over a batch, per layer and total,
    plus the pass's logits.  Each layer is billed for the activations the
    crossbar chain hands it."""
    if pulse_width is None:
        raise DomainError("network_energy needs a pulse width")
    logits, per_layer = crossbar_forward(model, x, schedule, t, mem, calib_x,
                                         mode, v_supply, pulse_width, c_gate)
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
    _write_json(path, {
        "format_version": CHECKPOINT_FILE_VERSION,
        "model": model.to_dict(),
        "schedule": schedule_to_dict(schedule) if schedule else None,
        "train_config": asdict(config) if config else None,
        "history": history,
    })


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

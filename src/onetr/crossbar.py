"""Tiled differential crossbar execution of dense layers.

A programmed layer is stored as its two whole conductance matrices; each
logical column is a pair of physical columns whose currents are subtracted
after sensing.  Tiles (64x64 by default, row-major) are geometry only: no
sum depends on them, and they set the gate charge, paid once per active row
in each column of tiles.  Activations enter as read voltages scaled by the
layer's activation ceiling ``a_max``, and column currents are scaled back to
weight-times-activation units through the layer readout factor.

The readout includes a gain calibrated at programming conditions: the secant
of the effective-conductance transfer between ``g_off`` and the clip-level
conductance, measured at full read voltage.  This removes the systematic
series attenuation of the access transistor (an ideal switch calibrates to
exactly one); the data-dependent residue is what the tolerance metric bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .device import ANALYTICAL, DeviceMode, TransistorParams, solve_synapse_grid
from .errors import DomainError
from .mapping import LayerScale, clip_weights, weight_to_conductance

DEFAULT_TILE_ROWS = 64
DEFAULT_TILE_COLS = 64
DEFAULT_PULSE_WIDTH = 1e-9  # s
DEFAULT_C_GATE = 1e-15  # F per row gate line
_MVM_BLOCK_CELLS = 1 << 16  # cells per batch slice of the crossbar solve


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality
class Tile:
    row0: int
    col0: int
    g_plus: np.ndarray
    g_minus: np.ndarray


@dataclass(frozen=True, eq=False)
class CrossbarTileSet:
    """A dense layer as whole differential conductance matrices, with the
    tile geometry ``tile_rows``/``tile_cols``; ``tiles`` views them."""

    shape: tuple  # logical (rows, cols)
    g_plus: np.ndarray  # (rows, cols) S
    g_minus: np.ndarray  # (rows, cols) S
    v_g: float
    w_cut: float
    scale: LayerScale
    a_max: float
    tile_rows: int
    tile_cols: int
    clipped_count: int
    clipped_fraction: float

    @property
    def tiles(self) -> tuple:
        """Row-major ``Tile`` views of the conductance matrices; no sum
        reads them, only the benchmark (``perfbench/``) does."""
        rows, cols = self.shape
        return tuple(
            Tile(r0, c0,
                 self.g_plus[r0:r0 + self.tile_rows, c0:c0 + self.tile_cols],
                 self.g_minus[r0:r0 + self.tile_rows, c0:c0 + self.tile_cols])
            for r0 in range(0, rows, self.tile_rows)
            for c0 in range(0, cols, self.tile_cols))


@dataclass(frozen=True, eq=False)
class MvmResult:  # batched fields lead with a batch axis
    outputs: np.ndarray  # ([batch,] cols) weight * activation units
    column_currents: np.ndarray  # ([batch,] cols, 2): plus / minus currents, A
    energy: float | np.ndarray | None = None  # J per operation, if asked


def program(weights, entry, scale: LayerScale,
            a_max: float = 1.0,
            tile_rows: int = DEFAULT_TILE_ROWS,
            tile_cols: int = DEFAULT_TILE_COLS) -> CrossbarTileSet:
    """Clip a weight matrix to the schedule entry and map it onto tiles.

    ``entry`` provides ``v_g`` and ``w_cut`` (a WcutSpec or schedule entry).
    Weights beyond the clip level are clipped defensively and counted.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.size == 0:
        raise DomainError("weights must be a non-empty 2-D matrix")
    if not np.all(np.isfinite(w)):
        raise DomainError("weights must be finite")
    if tile_rows < 1 or tile_cols < 1:
        raise DomainError("tile dimensions must be at least 1")
    if not np.isfinite(a_max) or a_max <= 0.0:
        raise DomainError("a_max must be positive")
    w_cut = float(entry.w_cut)
    if w_cut < 0.0 or w_cut > scale.w_r * (1.0 + 1e-9):
        raise DomainError("w_cut must lie in [0, w_r] for the given scale")
    clipped_count = int(np.count_nonzero(np.abs(w) > w_cut))
    pair = weight_to_conductance(clip_weights(w, w_cut), scale)
    return CrossbarTileSet(w.shape, pair.g_plus, pair.g_minus,
                           float(entry.v_g), w_cut, scale, float(a_max),
                           tile_rows, tile_cols,
                           clipped_count, clipped_count / w.size)


def _read_voltages(ts: CrossbarTileSet, activations, v_supply: float,
                   ndim: int):
    x = np.asarray(activations, dtype=float)
    if x.ndim != ndim:
        raise DomainError(f"expected {ndim}-D activations, got shape {x.shape}")
    if x.shape[-1] != ts.shape[0]:
        raise DomainError(f"activation length {x.shape[-1]} does not match "
                          f"{ts.shape[0]} crossbar rows")
    if not np.all(np.isfinite(x)):
        raise DomainError("activations must be finite")
    if v_supply <= 0:
        raise DomainError("v_supply must be positive")
    return np.clip(x / ts.a_max, 0.0, 1.0) * v_supply


def readout_gain(ts: CrossbarTileSet, t: TransistorParams,
                 mode: DeviceMode = ANALYTICAL,
                 v_supply: float = 0.5) -> float:
    """Sense gain cancelling the series attenuation at the clip level.

    Secant of the effective-conductance transfer between ``g_off`` and the
    clip-level conductance, taken at full read voltage; an ideal switch
    calibrates to exactly one.
    """
    scale = ts.scale
    g_cut = min(scale.g_off + ts.w_cut * scale.s, scale.g_on)
    if g_cut <= scale.g_off * (1.0 + 1e-12):
        return 1.0
    pair = np.array([g_cut, scale.g_off])
    _, _, g_eff = solve_synapse_grid(pair, v_supply, ts.v_g, t, mode)
    span = g_eff[0] - g_eff[1]
    if span <= 0.0:
        return 1.0
    return float((g_cut - scale.g_off) / span)


def _rescale(ts: CrossbarTileSet, i_plus, i_minus, gain, v_supply):
    return (i_plus - i_minus) * (ts.scale.k_readout * gain * ts.a_max / v_supply)


def mvm_ideal(ts: CrossbarTileSet, activations, v_supply: float = 0.5) -> MvmResult:
    """Matrix-vector product with ideal devices (g_eff equals g_m).

    Runs the same voltage and current scaling as the non-ideal path, so the
    outputs reproduce the mathematical product of the clipped weights with
    the activations up to float rounding.
    """
    v = _read_voltages(ts, activations, v_supply, 1)
    i_plus = v @ ts.g_plus
    i_minus = v @ ts.g_minus
    outputs = _rescale(ts, i_plus, i_minus, 1.0, v_supply)
    return MvmResult(outputs, np.stack([i_plus, i_minus], axis=1))


def _slice_samples(rows: int, cols: int) -> int:
    """Samples per batch slice: at most _MVM_BLOCK_CELLS cells, or one sample."""
    return max(1, _MVM_BLOCK_CELLS // (2 * rows * cols))


def _nonideal_batch(ts, v, t, mode, v_supply, pulse_width, c_gate):
    """One cell solve of (batch, rows) read voltages, in batch slices.

    Every sum runs per sample, so results do not depend on the slicing.
    """
    if pulse_width is not None and not (0 < pulse_width < np.inf
                                        and 0 <= c_gate < np.inf):  # NaN too
        raise DomainError("pulse_width must be > 0 and c_gate >= 0, finite")
    g_all = np.concatenate((ts.g_plus, ts.g_minus), axis=1)
    rows, cols = ts.shape
    gain = readout_gain(ts, t, mode, v_supply)
    step = _slice_samples(rows, cols)
    col_current, energy = [], []
    for s in range(0, max(v.shape[0], 1), step):  # an empty batch: 1 slice
        vs = v[s:s + step]
        current = solve_synapse_grid(g_all, vs[:, :, None], ts.v_g, t, mode)[0]
        col_current.append(current.sum(axis=1))  # fixed global row order
        if pulse_width is not None:
            energy.append(_energy_from_currents(ts, vs, current,
                                                pulse_width, c_gate))
    col_current = np.concatenate(col_current)
    i_plus, i_minus = col_current[:, :cols], col_current[:, cols:]
    return MvmResult(_rescale(ts, i_plus, i_minus, gain, v_supply),
                     np.stack([i_plus, i_minus], axis=-1),
                     np.concatenate(energy) if energy else None)


def _energy_from_currents(ts, v, current, pulse_width, c_gate):
    """Per-sample resistive read energy plus one gate charge per active row
    in each column of tiles."""
    cols = ts.shape[1]
    gates = (v > 0.0).sum(axis=1) * -(-cols // ts.tile_cols)
    try:
        with np.errstate(over="raise"):
            power = v[:, :, None] * current  # (batch, rows, 2*cols)
            resistive = (power[:, :, :cols].sum(axis=(1, 2))
                         + power[:, :, cols:].sum(axis=(1, 2)))
            return resistive * pulse_width + gates * c_gate * ts.v_g ** 2
    except FloatingPointError as exc:  # a read beyond float range
        raise DomainError(f"read energy failed: {exc}") from exc


def mvm_nonideal(ts: CrossbarTileSet, activations, t: TransistorParams,
                 mode: DeviceMode = ANALYTICAL, v_supply: float = 0.5,
                 pulse_width: Optional[float] = None,
                 c_gate: float = DEFAULT_C_GATE) -> MvmResult:
    """Matrix-vector product through the device solver.

    Column currents are accumulated over the whole layer in global row
    order, so results are bit-identical for any tile split.  Passing
    ``pulse_width`` also fills the per-operation energy.
    """
    v = _read_voltages(ts, activations, v_supply, 1)
    r = _nonideal_batch(ts, v[None, :], t, mode, v_supply, pulse_width, c_gate)
    return MvmResult(r.outputs[0], r.column_currents[0],
                     None if r.energy is None else float(r.energy[0]))


def mvm_nonideal_batch(ts: CrossbarTileSet, activations, t: TransistorParams,
                       mode: DeviceMode = ANALYTICAL, v_supply: float = 0.5,
                       pulse_width: Optional[float] = None,
                       c_gate: float = DEFAULT_C_GATE) -> MvmResult:
    """``mvm_nonideal`` over (batch, rows) activations, solved in bounded
    batch slices; every result field gains a leading batch axis."""
    v = _read_voltages(ts, activations, v_supply, 2)
    return _nonideal_batch(ts, v, t, mode, v_supply, pulse_width, c_gate)


def mvm_energy(ts: CrossbarTileSet, activations, t: TransistorParams,
               mode: DeviceMode = ANALYTICAL, v_supply: float = 0.5,
               pulse_width: float = DEFAULT_PULSE_WIDTH,
               c_gate: float = DEFAULT_C_GATE) -> float:
    """Energy of one matrix-vector operation, in joules.

    Resistive read energy ``v_in * current * pulse_width`` summed over every
    cell, plus a gate charging term ``c_gate * v_g**2`` per active row in
    each column of tiles.  All-zero activations with a zero gate capacitance
    cost exactly zero.
    """
    return mvm_nonideal(ts, activations, t, mode, v_supply, pulse_width,
                        c_gate).energy


def mvm_energy_batch(ts: CrossbarTileSet, activations, t: TransistorParams,
                     mode: DeviceMode = ANALYTICAL, v_supply: float = 0.5,
                     pulse_width: float = DEFAULT_PULSE_WIDTH,
                     c_gate: float = DEFAULT_C_GATE) -> np.ndarray:
    """Per-sample energies for a batch of activation vectors."""
    return mvm_nonideal_batch(ts, activations, t, mode, v_supply,
                              pulse_width, c_gate).energy

"""Tiled differential crossbar execution of dense layers.

A logical weight matrix is split row-major into tiles (64x64 by default);
each logical column is a pair of physical columns whose currents are
subtracted after sensing.  Activations enter as read voltages scaled by the
layer's activation ceiling ``a_max``, and column currents are scaled back to
weight-times-activation units through the layer readout factor.

The readout includes a gain calibrated at programming conditions: the secant
of the effective-conductance transfer between ``g_off`` and the clip-level
conductance, measured at full read voltage.  This removes the systematic
series attenuation of the access transistor (an ideal switch calibrates to
exactly one); the data-dependent residue is what the tolerance metric bounds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .device import ANALYTICAL, DeviceMode, TransistorParams, solve_synapse_grid
from .errors import DomainError, read_json_object
from .mapping import LayerScale, clip_weights, weight_to_conductance

DEFAULT_TILE_ROWS = 64
DEFAULT_TILE_COLS = 64
DEFAULT_PULSE_WIDTH = 1e-9  # s
DEFAULT_C_GATE = 1e-15  # F per row gate line

TILESET_FILE_VERSION = 1


@dataclass(frozen=True)
class Tile:
    row0: int
    col0: int
    g_plus: np.ndarray
    g_minus: np.ndarray


@dataclass(frozen=True)
class CrossbarTileSet:
    """A dense layer programmed onto differential crossbar tiles."""

    shape: tuple  # logical (rows, cols)
    tiles: tuple
    v_g: float
    w_cut: float
    scale: LayerScale
    a_max: float
    tile_rows: int
    tile_cols: int
    clipped_count: int
    clipped_fraction: float


@dataclass(frozen=True)
class MvmResult:
    outputs: np.ndarray  # weight * activation units, per logical column
    column_currents: np.ndarray  # (cols, 2): summed plus / minus currents, A
    energy: Optional[float] = None  # J per operation, when requested


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
    rows, cols = w.shape
    tiles = []
    for r0 in range(0, rows, tile_rows):
        r1 = min(r0 + tile_rows, rows)
        for c0 in range(0, cols, tile_cols):
            c1 = min(c0 + tile_cols, cols)
            tiles.append(Tile(r0, c0,
                              pair.g_plus[r0:r1, c0:c1].copy(),
                              pair.g_minus[r0:r1, c0:c1].copy()))
    return CrossbarTileSet((rows, cols), tuple(tiles), float(entry.v_g),
                           w_cut, scale, float(a_max), tile_rows, tile_cols,
                           clipped_count, clipped_count / w.size)


def _assemble(ts: CrossbarTileSet):
    """Global conductance matrices; summation always runs over these, so
    results cannot depend on the tile split."""
    rows, cols = ts.shape
    g_plus = np.empty((rows, cols))
    g_minus = np.empty((rows, cols))
    for tile in ts.tiles:
        r1 = tile.row0 + tile.g_plus.shape[0]
        c1 = tile.col0 + tile.g_plus.shape[1]
        g_plus[tile.row0:r1, tile.col0:c1] = tile.g_plus
        g_minus[tile.row0:r1, tile.col0:c1] = tile.g_minus
    return g_plus, g_minus


def _read_voltages(ts: CrossbarTileSet, activations, v_supply: float):
    x = np.asarray(activations, dtype=float)
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
    v = _read_voltages(ts, activations, v_supply)
    if v.ndim != 1:
        raise DomainError("mvm_ideal expects a single activation vector")
    g_plus, g_minus = _assemble(ts)
    i_plus = v @ g_plus
    i_minus = v @ g_minus
    outputs = _rescale(ts, i_plus, i_minus, 1.0, v_supply)
    return MvmResult(outputs, np.stack([i_plus, i_minus], axis=1))


def _solve_currents(ts, v, t, mode):
    """Per-cell currents for (..., rows) read voltages; returns (..., rows, 2*cols)."""
    g_plus, g_minus = _assemble(ts)
    g_all = np.concatenate([g_plus, g_minus], axis=1)
    current, _, _ = solve_synapse_grid(g_all, v[..., :, None], ts.v_g, t, mode)
    return current


def _nonideal_batch(ts, activations, t, mode, v_supply, pulse_width, c_gate):
    v = _read_voltages(ts, activations, v_supply)
    single = v.ndim == 1
    v2 = v[None, :] if single else v
    current = _solve_currents(ts, v2, t, mode)
    cols = ts.shape[1]
    col_current = current.sum(axis=1)  # fixed global row order
    i_plus = col_current[:, :cols]
    i_minus = col_current[:, cols:]
    gain = readout_gain(ts, t, mode, v_supply)
    outputs = _rescale(ts, i_plus, i_minus, gain, v_supply)
    energy = None
    if pulse_width is not None:
        energy = _energy_from_currents(ts, v2, current, pulse_width, c_gate)
    return v2, i_plus, i_minus, outputs, energy, single


def _energy_from_currents(ts, v, current, pulse_width, c_gate):
    """Per-sample energy as the sum of per-tile contributions."""
    if pulse_width <= 0 or c_gate < 0:
        raise DomainError("pulse_width must be > 0 and c_gate >= 0")
    cols = ts.shape[1]
    power = v[:, :, None] * current  # (batch, rows, 2*cols)
    energy = np.zeros(v.shape[0])
    for tile in ts.tiles:
        r1 = tile.row0 + tile.g_plus.shape[0]
        c1 = tile.col0 + tile.g_plus.shape[1]
        resistive = power[:, tile.row0:r1, tile.col0:c1].sum(axis=(1, 2))
        resistive += power[:, tile.row0:r1, cols + tile.col0:cols + c1].sum(axis=(1, 2))
        rows_active = (v[:, tile.row0:r1] > 0.0).sum(axis=1)
        energy += resistive * pulse_width + rows_active * c_gate * ts.v_g ** 2
    return energy


def mvm_nonideal(ts: CrossbarTileSet, activations, t: TransistorParams,
                 mode: DeviceMode = ANALYTICAL, v_supply: float = 0.5,
                 pulse_width: Optional[float] = None,
                 c_gate: float = DEFAULT_C_GATE) -> MvmResult:
    """Matrix-vector product through the device solver.

    Column currents are accumulated over the assembled matrix in global row
    order, so results are bit-identical for any tile split.  Passing
    ``pulse_width`` also fills the per-operation energy.
    """
    _, i_plus, i_minus, outputs, energy, single = _nonideal_batch(
        ts, activations, t, mode, v_supply, pulse_width, c_gate)
    if not single:
        raise DomainError("mvm_nonideal expects a single activation vector")
    return MvmResult(outputs[0], np.stack([i_plus[0], i_minus[0]], axis=1),
                     None if energy is None else float(energy[0]))


def mvm_nonideal_batch(ts: CrossbarTileSet, activations, t: TransistorParams,
                       mode: DeviceMode = ANALYTICAL,
                       v_supply: float = 0.5) -> np.ndarray:
    """Outputs for a batch of activation vectors, shape (batch, cols)."""
    _, _, _, outputs, _, single = _nonideal_batch(
        ts, activations, t, mode, v_supply, None, 0.0)
    if single:
        raise DomainError("mvm_nonideal_batch expects a 2-D activation batch")
    return outputs


def mvm_energy(ts: CrossbarTileSet, activations, t: TransistorParams,
               mode: DeviceMode = ANALYTICAL, v_supply: float = 0.5,
               pulse_width: float = DEFAULT_PULSE_WIDTH,
               c_gate: float = DEFAULT_C_GATE) -> float:
    """Energy of one matrix-vector operation, in joules.

    Resistive read energy ``v_in * current * pulse_width`` summed over every
    cell of every tile, plus a gate charging term ``c_gate * v_g**2`` per
    active row per tile.  All-zero activations with a zero gate capacitance
    cost exactly zero.
    """
    v = _read_voltages(ts, activations, v_supply)
    if v.ndim != 1:
        raise DomainError("mvm_energy expects a single activation vector")
    v2 = v[None, :]
    current = _solve_currents(ts, v2, t, mode)
    return float(_energy_from_currents(ts, v2, current, pulse_width, c_gate)[0])


def mvm_energy_batch(ts: CrossbarTileSet, activations, t: TransistorParams,
                     mode: DeviceMode = ANALYTICAL, v_supply: float = 0.5,
                     pulse_width: float = DEFAULT_PULSE_WIDTH,
                     c_gate: float = DEFAULT_C_GATE) -> np.ndarray:
    """Per-sample energies for a batch of activation vectors."""
    v = _read_voltages(ts, activations, v_supply)
    if v.ndim != 2:
        raise DomainError("mvm_energy_batch expects a 2-D activation batch")
    current = _solve_currents(ts, v, t, mode)
    return _energy_from_currents(ts, v, current, pulse_width, c_gate)


# ---------------------------------------------------------------------------
# Dump format

def tileset_to_dict(ts: CrossbarTileSet) -> dict:
    return {
        "format_version": TILESET_FILE_VERSION,
        "shape": list(ts.shape),
        "v_g": ts.v_g,
        "w_cut": ts.w_cut,
        "a_max": ts.a_max,
        "tile_rows": ts.tile_rows,
        "tile_cols": ts.tile_cols,
        "clipped_count": ts.clipped_count,
        "clipped_fraction": ts.clipped_fraction,
        "scale": {"w_r": ts.scale.w_r, "s": ts.scale.s,
                  "k_readout": ts.scale.k_readout,
                  "g_on": ts.scale.g_on, "g_off": ts.scale.g_off},
        "tiles": [{"row0": tile.row0, "col0": tile.col0,
                   "g_plus": tile.g_plus.tolist(),
                   "g_minus": tile.g_minus.tolist()} for tile in ts.tiles],
    }


def tileset_from_dict(raw: dict) -> CrossbarTileSet:
    if raw.get("format_version") != TILESET_FILE_VERSION:
        raise DomainError("unsupported crossbar dump version "
                          f"{raw.get('format_version')!r}")
    try:
        scale = LayerScale(**raw["scale"])
        tiles = tuple(Tile(t["row0"], t["col0"],
                           np.asarray(t["g_plus"], dtype=float),
                           np.asarray(t["g_minus"], dtype=float))
                      for t in raw["tiles"])
        return CrossbarTileSet(tuple(raw["shape"]), tiles, raw["v_g"],
                               raw["w_cut"], scale, raw["a_max"],
                               raw["tile_rows"], raw["tile_cols"],
                               raw["clipped_count"], raw["clipped_fraction"])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed crossbar dump: {exc}") from exc


def save_tileset(path, ts: CrossbarTileSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tileset_to_dict(ts), fh, indent=2)
        fh.write("\n")


def load_tileset(path) -> CrossbarTileSet:
    return tileset_from_dict(read_json_object(path))

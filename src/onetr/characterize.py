"""Linearity characterisation of 1T-1R cells.

A cell is usable as an analog weight when its effective conductance barely
depends on the read voltage.  The tolerance metric ``tm`` captures that
dependence as the relative spread of ``g_eff`` over a read-voltage grid; the
cutoff scan turns it into the largest memristor conductance that still behaves
linearly at a given gate voltage.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import mapping
from .crossbar import _MVM_BLOCK_CELLS, DEFAULT_C_GATE, DEFAULT_PULSE_WIDTH
from .device import (ANALYTICAL, DeviceMode, MemristorParams,
                     TransistorParams, solve_synapse_grid)
from .errors import CutoffLookupError, DomainError, atomic_write

DEFAULT_V_SUPPLY = 0.5
DEFAULT_TM_THRESHOLD = 0.025
DEFAULT_VIN_POINTS = 64
DEFAULT_GM_POINTS = 256

# Default weight range for Monte Carlo draws: standard normal clipped to
# three standard deviations.
_MC_WEIGHT_RANGE = 3.0


def default_vin_grid(v_supply: float = DEFAULT_V_SUPPLY,
                     n_points: int = DEFAULT_VIN_POINTS) -> np.ndarray:
    """Uniform read-voltage grid over (0, v_supply]."""
    if v_supply <= 0 or not np.isfinite(v_supply):
        raise DomainError("v_supply must be positive and finite")
    if n_points < 2:
        raise DomainError("the read-voltage grid needs at least two points")
    return v_supply * np.arange(1, n_points + 1) / n_points


@dataclass(frozen=True)
class GeffCurve:
    """Effective conductance versus read voltage for one (g_m, v_g)."""

    g_m: float
    v_g: float
    v_in: np.ndarray
    g_eff: np.ndarray


@dataclass(frozen=True)
class ToleranceResult:
    tm: float
    g_eff_max: float
    g_eff_min: float


@dataclass(frozen=True)
class CutoffTable:
    """Per-gate-voltage conductance cutoffs.

    ``entries`` maps each gate voltage to the largest memristor conductance
    whose full-range tolerance metric stays within the threshold, or ``None``
    when no conductance qualifies.
    """

    entries: tuple

    def lookup(self, v_g: float):
        for vg_i, cutoff in self.entries:
            if abs(vg_i - v_g) <= 1e-9:
                return cutoff
        raise CutoffLookupError(f"v_g = {v_g} is not in the cutoff table")

    def gate_voltages(self) -> list:
        return [vg for vg, _ in self.entries]


@dataclass(frozen=True)
class PowerReport:
    """Monte Carlo per-synapse read power estimate."""

    v_g: float
    mean_power: float  # W per synapse
    n_samples: int
    seed: int
    rows: int
    cols: int
    sample_powers: np.ndarray = None  # per-sample means, index == sample id


def sweep_geff(g_m: float, v_g: float, t: TransistorParams,
               v_supply: float = DEFAULT_V_SUPPLY,
               mode: DeviceMode = ANALYTICAL) -> GeffCurve:
    """Sweep g_eff over the default read-voltage grid."""
    grid = default_vin_grid(v_supply)
    _, _, g_eff = solve_synapse_grid(g_m, grid, v_g, t, mode)
    return GeffCurve(float(g_m), float(v_g), grid, g_eff)


def tolerance_metric(curve: GeffCurve) -> ToleranceResult:
    """Relative spread (max - min) / max of g_eff over the curve."""
    if curve.g_eff.size == 0:
        raise DomainError("cannot compute a tolerance metric on an empty curve")
    g_max = float(np.max(curve.g_eff))
    g_min = float(np.min(curve.g_eff))
    if g_max <= 0.0:
        raise DomainError("curve carries no conductance")
    return ToleranceResult((g_max - g_min) / g_max, g_max, g_min)


def _check_threshold(tm_threshold: float) -> None:
    if not (0.0 < tm_threshold < 1.0):
        raise DomainError("tm_threshold must lie in (0, 1)")


def linear_vin_range(curve: GeffCurve,
                     tm_threshold: float = DEFAULT_TM_THRESHOLD):
    """Widest contiguous read-voltage window of ``curve`` with tm <= threshold.

    Returns ``(v_lo, v_hi)`` grid values, or ``None`` when no window of at
    least two points qualifies.  Ties go to the lowest window.  The windowed
    metric is non-decreasing as a window grows, so each start index can stop
    extending at the first violation.
    """
    _check_threshold(tm_threshold)
    grid, g = curve.v_in, curve.g_eff
    n = g.size
    best = None  # (start, stop) inclusive
    for i in range(n - 1):
        g_max = g_min = g[i]
        for j in range(i + 1, n):
            g_max = max(g_max, g[j])
            g_min = min(g_min, g[j])
            if g_max <= 0.0 or (g_max - g_min) / g_max > tm_threshold:
                break
            if best is None or j - i > best[1] - best[0]:
                best = (i, j)
    if best is None:
        return None
    return float(grid[best[0]]), float(grid[best[1]])


def _tm_rows(g_eff_rows: np.ndarray) -> np.ndarray:
    """Tolerance metric per row; rows without conductance fail as inf."""
    g_max = g_eff_rows.max(axis=1)
    g_min = g_eff_rows.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tm = (g_max - g_min) / g_max
    return np.where(g_max > 0.0, tm, np.inf)


def find_gm_cutoff(v_g: float, t: TransistorParams, mem: MemristorParams,
                   tm_threshold: float = DEFAULT_TM_THRESHOLD,
                   v_supply: float = DEFAULT_V_SUPPLY,
                   mode: DeviceMode = ANALYTICAL):
    """Largest grid conductance in [g_off, g_on] with full-range tm <= threshold.

    The search grid is ``DEFAULT_GM_POINTS`` uniform values including both
    range ends, so a fully linear device returns exactly ``g_on``.  Returns
    ``None`` when no grid point passes.
    """
    _check_threshold(tm_threshold)
    gms = np.linspace(mem.g_off, mem.g_on, DEFAULT_GM_POINTS)
    grid = default_vin_grid(v_supply)
    _, _, g_eff = solve_synapse_grid(gms[:, None], grid[None, :], v_g, t, mode)
    passing = _tm_rows(g_eff) <= tm_threshold
    if not passing.any():
        return None
    return float(gms[np.flatnonzero(passing)[-1]])


def cutoff_table(v_g_values, t: TransistorParams, mem: MemristorParams,
                 tm_threshold: float = DEFAULT_TM_THRESHOLD,
                 v_supply: float = DEFAULT_V_SUPPLY,
                 mode: DeviceMode = ANALYTICAL) -> CutoffTable:
    """Cutoff scan over a list of gate voltages."""
    v_g_values = [float(v) for v in v_g_values]
    if not v_g_values:
        raise DomainError("cutoff_table needs at least one gate voltage")
    entries = tuple(
        (vg, find_gm_cutoff(vg, t, mem, tm_threshold, v_supply, mode))
        for vg in v_g_values
    )
    return CutoffTable(entries)


def write_cutoff_csv(table: CutoffTable, path) -> None:
    """Write a cutoff table as CSV; missing cutoffs become empty fields."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["v_g", "g_m_cutoff"])
        for vg, cutoff in table.entries:
            writer.writerow([format(vg, ".9g"),
                             "" if cutoff is None else format(cutoff, ".9g")])


def power_monte_carlo(rows: int, cols: int, n_samples: int, v_g: float,
                      t: TransistorParams, mem: MemristorParams,
                      v_supply: float = DEFAULT_V_SUPPLY,
                      seed: int = 0,
                      mode: DeviceMode = ANALYTICAL,
                      c_gate: float = DEFAULT_C_GATE,
                      pulse_width: float = DEFAULT_PULSE_WIDTH) -> PowerReport:
    """Monte Carlo estimate of the mean per-synapse read power.

    Each sample programs the array from standard-normal weights clipped to
    [-3, 3] through the usual weight-to-conductance map and drives every row
    with an independent read voltage uniform on (0, v_supply).  Per-synapse
    power is the cell's ``v_in * current`` plus the per-row gate charging
    share ``c_gate * v_g**2 / pulse_width`` spread over the row.

    Samples are drawn and solved in slices of at most ``_MVM_BLOCK_CELLS``
    cells (or one sample), which bounds memory.  Every sample draws from its
    own seed-and-index random stream and is reduced on its own, so the
    estimate does not depend on the slicing.
    """
    if rows < 1 or cols < 1 or n_samples < 1:
        raise DomainError("rows, cols and n_samples must be at least 1")
    if v_supply <= 0:
        raise DomainError("v_supply must be positive")
    if not (0 <= c_gate < np.inf and 0 < pulse_width < np.inf):  # NaN too
        raise DomainError("c_gate must be >= 0 and pulse_width > 0, finite")
    scale = mapping.scale_from_range(_MC_WEIGHT_RANGE, mem)
    step = max(1, _MVM_BLOCK_CELLS // (rows * cols))
    per_sample = np.empty(n_samples)
    for s in range(0, n_samples, step):
        ids = range(s, min(s + step, n_samples))
        weights = np.empty((len(ids), rows, cols))
        v_read = np.empty((len(ids), rows))
        for k, i in enumerate(ids):
            rng = np.random.default_rng([seed, i])
            weights[k] = rng.standard_normal((rows, cols))
            v_read[k] = rng.uniform(0.0, v_supply, rows)
        clipped = mapping.clip_weights(weights, _MC_WEIGHT_RANGE)
        pair = mapping.weight_to_conductance(clipped, scale)
        g_m = np.maximum(pair.g_plus, pair.g_minus)  # the side carrying |w|
        current, _, _ = solve_synapse_grid(g_m, v_read[:, :, None], v_g, t,
                                           mode)
        resistive = (v_read[:, :, None] * current).sum(axis=(1, 2))
        active_rows = (v_read > 0.0).sum(axis=1)
        gate = active_rows * c_gate * v_g * v_g / pulse_width
        per_sample[ids.start:ids.stop] = (resistive + gate) / (rows * cols)
    return PowerReport(float(v_g), float(np.mean(per_sample)),
                       n_samples, seed, rows, cols, per_sample)

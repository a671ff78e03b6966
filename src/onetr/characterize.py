"""Linearity characterisation of 1T-1R cells.

A cell is usable as an analog weight when its effective conductance barely
depends on the read voltage.  The tolerance metric ``tm`` captures that
dependence as the relative spread of ``g_eff`` over a read-voltage grid; the
cutoff scan turns it into the largest memristor conductance that still behaves
linearly at a given gate voltage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mapping
from .crossbar import DEFAULT_C_GATE, DEFAULT_PULSE_WIDTH, _block_plan
from .device import (ANALYTICAL, DeviceMode, MemristorParams,
                     TransistorParams, solve_synapse_grid)
from .errors import CutoffLookupError, DomainError, _write_csv

DEFAULT_V_SUPPLY = 0.5
DEFAULT_TM_THRESHOLD = 0.025
DEFAULT_VIN_POINTS = 64
DEFAULT_GM_POINTS = 256

# The cutoff scan solves every conductance at these read-voltage indices (the
# ends and the middle), then the surviving rows _SCAN_CHUNK at a time.
_PROBE_POINTS = (0, DEFAULT_VIN_POINTS // 2, DEFAULT_VIN_POINTS - 1)
_SCAN_CHUNK = 16

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
    """``entries``: (gate voltage, conductance cutoff) pairs, the cutoff
    ``None`` when no conductance qualifies (see :func:`cutoff_table`)."""

    entries: tuple

    def lookup(self, v_g: float):
        for vg_i, cutoff in self.entries:
            if abs(vg_i - v_g) <= mapping.GRID_ATOL:
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
    least two points qualifies; ties go to the lowest window.  The windowed
    metric never falls as a window grows, so each start extends to its first
    violation.
    """
    _check_threshold(tm_threshold)
    grid, g = curve.v_in, np.asarray(curve.g_eff, dtype=float)
    n = g.size
    if n < 2:
        return None
    # Row i holds g[i:] then padding; the window i..i+k fails past the end.
    w = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((g, np.zeros(n))), n + 1)[:n]
    g_max, g_min = (f.accumulate(w, axis=1) for f in (np.maximum, np.minimum))
    with np.errstate(all="ignore"):
        fails = ((np.arange(n + 1) >= np.arange(n, 0, -1)[:, None])
                 | (g_max <= 0.0) | ((g_max - g_min) / g_max > tm_threshold))
    span = np.argmax(fails[:, 1:], axis=1)  # points past the start that pass
    if span.max() < 1:
        return None
    start = int(np.argmax(span))
    return float(grid[start]), float(grid[start + span[start]])


def _tm_rows(g_eff_rows: np.ndarray) -> np.ndarray:
    """Tolerance metric per row; rows without conductance fail as inf."""
    g_max, g_min = g_eff_rows.max(axis=1), g_eff_rows.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(g_max > 0.0, (g_max - g_min) / g_max, np.inf)


def find_gm_cutoff(v_g: float, t: TransistorParams, mem: MemristorParams,
                   tm_threshold: float = DEFAULT_TM_THRESHOLD,
                   v_supply: float = DEFAULT_V_SUPPLY,
                   mode: DeviceMode = ANALYTICAL):
    """Cutoff at one gate voltage: :func:`cutoff_table` of ``[v_g]``."""
    return cutoff_table([v_g], t, mem, tm_threshold, v_supply, mode).lookup(v_g)


def _solve_rows(g_m, v_g, v_in, t, mode):
    """``g_eff`` per (g_m, v_g) row and v_in, in ``_MVM_BLOCK_CELLS`` calls."""
    return np.concatenate([
        solve_synapse_grid(g_m[b, None], v_in, v_g[b, None], t, mode)[2]
        for b in _block_plan(g_m.size, v_in.size)])


def cutoff_table(v_g_values, t: TransistorParams, mem: MemristorParams,
                 tm_threshold: float = DEFAULT_TM_THRESHOLD,
                 v_supply: float = DEFAULT_V_SUPPLY,
                 mode: DeviceMode = ANALYTICAL) -> CutoffTable:
    """Per gate voltage, the largest of ``DEFAULT_GM_POINTS`` uniform grid
    conductances in [g_off, g_on] (so a fully linear device gives ``g_on``)
    whose full-range tm stays within the threshold, else ``None``.

    All gate voltages share each solve call (of at most ``_MVM_BLOCK_CELLS``
    cells).  Every row is solved at a few probe read voltages; a row whose
    probe spread, never above its full spread, exceeds the threshold fails.
    Each round then solves the next ``_SCAN_CHUNK`` surviving rows, from
    ``g_on`` down, of every gate voltage still without a cutoff.  Each cell
    stops on its own, so this matches solving every cell.
    """
    v_gs = np.array([float(v) for v in v_g_values])
    if not v_gs.size:
        raise DomainError("cutoff_table needs at least one gate voltage")
    _check_threshold(tm_threshold)
    gms = np.linspace(mem.g_off, mem.g_on, DEFAULT_GM_POINTS)
    grid = default_vin_grid(v_supply)
    probe = np.isin(np.arange(grid.size), _PROBE_POINTS)
    g_probe = _solve_rows(np.tile(gms, v_gs.size), v_gs.repeat(gms.size),
                          grid[probe], t, mode).reshape(v_gs.size, gms.size, -1)
    # The margin covers the rounding of the probe's and the row's ratios.
    queues = [np.flatnonzero(_tm_rows(g) <= tm_threshold * (1 + 1e-12))[::-1]
              for g in g_probe]
    cutoffs = [None] * v_gs.size
    while any(q.size for q in queues):
        chunks = [q[:_SCAN_CHUNK] for q in queues]
        k = np.repeat(np.arange(v_gs.size), [c.size for c in chunks])
        rows = np.concatenate(chunks)
        g_rest = _solve_rows(gms[rows], v_gs[k], grid[~probe], t, mode)
        hits = np.flatnonzero(_tm_rows(np.hstack((g_probe[k, rows], g_rest)))
                              <= tm_threshold)
        for i, j in zip(*np.unique(k[hits], return_index=True)):
            cutoffs[i] = float(gms[rows[hits[j]]])  # its first passing row
        queues = [q[:0] if c is not None else q[_SCAN_CHUNK:]
                  for q, c in zip(queues, cutoffs)]
    return CutoffTable(tuple(zip(v_gs.tolist(), cutoffs)))


def write_cutoff_csv(table: CutoffTable, path) -> None:
    """Write a cutoff table as CSV; missing cutoffs become empty fields."""
    _write_csv(path, ["v_g", "g_m_cutoff"],
               [(vg, "" if c is None else c) for vg, c in table.entries])


def power_monte_carlo(rows: int, cols: int, n_samples: int, v_g: float,
                      t: TransistorParams, mem: MemristorParams,
                      v_supply: float = DEFAULT_V_SUPPLY, seed: int = 0,
                      mode: DeviceMode = ANALYTICAL,
                      c_gate: float = DEFAULT_C_GATE,
                      pulse_width: float = DEFAULT_PULSE_WIDTH) -> PowerReport:
    """Monte Carlo read power at one gate voltage (see :func:`power_table`)."""
    return power_table(rows, cols, n_samples, [v_g], t, mem, v_supply, seed,
                       mode, c_gate, pulse_width)[0]


def power_table(rows: int, cols: int, n_samples: int, v_g_values,
                t: TransistorParams, mem: MemristorParams,
                v_supply: float = DEFAULT_V_SUPPLY, seed: int = 0,
                mode: DeviceMode = ANALYTICAL, c_gate: float = DEFAULT_C_GATE,
                pulse_width: float = DEFAULT_PULSE_WIDTH) -> tuple:
    """Monte Carlo estimate of the mean per-synapse read power, one
    :class:`PowerReport` per gate voltage.

    Each sample programs the array from standard-normal weights clipped to
    [-3, 3] through the usual weight-to-conductance map and drives every row
    with an independent read voltage uniform on (0, v_supply).  Each row
    driver is billed its read voltage times the current it delivers,
    ``v_r * sum_c I_rc``, plus the gate charging power
    ``c_gate * v_g**2 / pulse_width``; per-synapse power spreads each
    sample's total over its ``rows * cols`` cells.

    One block plan holds at most ``_MVM_BLOCK_CELLS`` cells per block: whole
    samples, or row blocks of one larger sample, each drawn, mapped and
    solved at every gate voltage.  Every sample draws from its own
    seed-and-index random stream, each row is summed on its own and each
    sample sums its rows in order, so no estimate depends on the plan.
    """
    v_gs = [float(v) for v in v_g_values]
    if rows < 1 or cols < 1 or n_samples < 1:
        raise DomainError("rows, cols and n_samples must be at least 1")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    if not v_gs:
        raise DomainError("power_table needs at least one gate voltage")
    if not 0 < v_supply < np.inf:  # NaN too
        raise DomainError("v_supply must be positive and finite")
    if not (0 <= c_gate < np.inf and 0 < pulse_width < np.inf):  # NaN too
        raise DomainError("c_gate must be >= 0 and pulse_width > 0, finite")
    scale = mapping.scale_from_range(_MC_WEIGHT_RANGE, mem)
    per_sample = np.empty((len(v_gs), n_samples))
    with np.errstate(over="ignore"):  # checked once, below
        for s in _block_plan(n_samples, rows * cols):
            v_read = np.empty((s.stop - s.start, rows, 1))  # a column each
            row_power = np.empty((len(v_gs), len(v_read), rows))
            for r in _block_plan(rows, len(v_read) * cols):
                weights = np.empty((len(v_read), r.stop - r.start, cols))
                for k, i in enumerate(range(n_samples)[s]):
                    if r.start == 0:  # only a lone sample has later blocks
                        g = np.random.default_rng([seed, i])
                    g.standard_normal(out=weights[k])
                    if r.start == 0:  # read voltages follow all weights
                        ahead = g
                        if r.stop < rows:  # reach them on a twin of its stream
                            ahead = np.random.default_rng([seed, i])
                            for q in _block_plan(rows, cols):
                                ahead.standard_normal((q.stop - q.start, cols))
                        v_read[k, :, 0] = ahead.uniform(0.0, v_supply, rows)
                g_m = np.maximum(*mapping.weight_to_conductance(  # |w| side
                    mapping.clip_weights(weights, _MC_WEIGHT_RANGE), scale))
                for v_g, out in zip(v_gs, row_power):  # no solve is kept
                    current = solve_synapse_grid(g_m, v_read[:, r], v_g, t,
                                                 mode)[0]
                    out[:, r] = v_read[:, r, 0] * current.sum(axis=2)
            active_rows = (v_read > 0.0).sum(axis=(1, 2))
            for v_g, p, out in zip(v_gs, row_power, per_sample):
                out[s] = (p.sum(axis=1) + active_rows * c_gate * v_g * v_g
                          / pulse_width) / (rows * cols)
    if not np.all(np.isfinite(per_sample.sum(axis=1))):  # and each mean
        raise DomainError("read power failed: beyond float range")
    return tuple(PowerReport(v_g, float(np.mean(p)), n_samples, seed, rows,
                             cols, p) for v_g, p in zip(v_gs, per_sample))

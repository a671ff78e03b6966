"""Output checks shared by the workloads.

A check reads an operation's artifacts, verifies the physics invariants the
toolkit promises (KCL residual, exact ideal-switch limit, cutoff-table
shape) and returns the numbers that are compared against the seed commit's
reference outputs.  Any failure raises ``CheckFailed``.

Reference tolerances follow the solver contract: each cell meets a relative
KCL residual of 1e-9, so aggregated energies and powers are compared at a
relative 1e-6, accuracies may differ by one test sample, and a cutoff or a
linear-window edge may move by one step of its scan grid.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

KCL_BOUND = 1e-9
REL_TOL = 1e-6


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: unreadable artifact ({exc})") from exc


def read_csv(path, header):
    """Rows of a CSV artifact whose header must equal ``header``."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path.name}: unreadable artifact ({exc})") from exc
    require(rows and rows[0] == header,
            f"{path.name}: header {rows[:1]} is not {header}")
    return rows[1:]


def as_float(text, what):
    try:
        value = float(text)
    except (TypeError, ValueError) as exc:
        raise CheckFailed(f"{what}: {text!r} is not a number") from exc
    require(math.isfinite(value), f"{what}: {value} is not finite")
    return value


def fraction(value, what):
    require(isinstance(value, (int, float)) and 0.0 <= value <= 1.0,
            f"{what}: {value!r} is not a fraction")
    return float(value)


def kcl_check(onetr, g_m, v_in, v_g, t):
    """Solve the operating points and verify KCL with ``transistor_current``.

    The residual ``(v_in - x) * g_m - i_T(v_g, x)`` is taken relative to
    the larger of the cell current and ``g_m * v_in``, as in the toolkit's
    own solver acceptance check.
    """
    g_m, v_in, v_g = np.broadcast_arrays(np.asarray(g_m, dtype=float),
                                         np.asarray(v_in, dtype=float),
                                         np.asarray(v_g, dtype=float))
    keep = v_in > 0.0
    g_m, v_in, v_g = g_m[keep], v_in[keep], v_g[keep]
    require(g_m.size > 0, "no operating points to check")
    current, x, _ = onetr.solve_synapse_grid(g_m, v_in, v_g, t)
    residual = (v_in - x) * g_m - onetr.transistor_current(v_g, x, t)
    scale = np.maximum(np.abs(current), g_m * v_in)
    worst = float(np.max(np.abs(residual) / scale))
    require(worst < KCL_BOUND, f"KCL residual {worst:.3g} >= {KCL_BOUND}")
    return g_m.size


def tileset_points(ts, x, v_supply=0.5):
    """Operating points of a programmed layer for activation rows ``x``."""
    rows, cols = ts.shape
    g = np.empty((rows, 2 * cols))
    for tile in ts.tiles:
        r1 = tile.row0 + tile.g_plus.shape[0]
        c1 = tile.col0 + tile.g_plus.shape[1]
        g[tile.row0:r1, tile.col0:c1] = tile.g_plus
        g[tile.row0:r1, cols + tile.col0:cols + c1] = tile.g_minus
    v = np.clip(np.asarray(x, dtype=float) / ts.a_max, 0.0, 1.0) * v_supply
    return g[None, :, :], v[:, :, None], ts.v_g


def exact_clipped_accuracy(model, schedule, calib_x, x, y, percentile=99.9):
    """Accuracy of the exact product the ideal-switch crossbar must equal.

    Each layer's input activations are clipped at its ``a_max`` (the given
    percentile of that layer's inputs on the calibration batch) and multiply
    the weights clipped at the schedule's ``w_cut``; biases and ReLU are
    digital.
    """
    dense = model.dense_layers()
    calib = np.asarray(calib_x, dtype=float)
    acts = np.asarray(x, dtype=float)
    for i, (layer, entry) in enumerate(zip(dense, schedule.entries)):
        a_max = float(np.percentile(calib, percentile))
        w = np.clip(layer.w, -entry.w_cut, entry.w_cut)
        acts = np.clip(acts, 0.0, a_max) @ w + layer.b
        calib = calib @ layer.w + layer.b
        if i < len(dense) - 1:
            acts = np.maximum(acts, 0.0)
            calib = np.maximum(calib, 0.0)
    return float(np.mean(np.argmax(acts, axis=1) == np.asarray(y)))


def compare(name, got, want, abs_tol=0.0, rel_tol=0.0):
    """Compare nested numbers (lists, None) within the given tolerance."""
    if isinstance(want, list):
        require(isinstance(got, list) and len(got) == len(want),
                f"{name}: {got!r} does not match reference {want!r}")
        for i, (g, w) in enumerate(zip(got, want)):
            compare(f"{name}[{i}]", g, w, abs_tol, rel_tol)
        return
    if want is None or got is None:
        require(got is want, f"{name}: {got!r} != reference {want!r}")
        return
    tol = abs_tol + rel_tol * abs(want)
    require(abs(got - want) <= tol,
            f"{name}: {got!r} differs from reference {want!r} by more "
            f"than {tol:.3g}")

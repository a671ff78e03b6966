"""Analytical model of a 1T-1R synapse cell.

A cell is a memristor (conductance ``g_m``) in series with an NMOS access
transistor: the read voltage ``v_in`` drives the memristor, the internal node
between the two devices sits on the transistor drain, the source is held at
virtual ground and the gate at ``v_g``.  The effective conductance seen by the
read circuit is ``g_eff = current / v_in`` and is generally below ``g_m``
because part of ``v_in`` drops across the transistor channel.

The transistor model is piecewise: an exponential subthreshold current below
``vth`` and a square-law channel current (triode / saturation, with channel
length modulation) above it.  The subthreshold term is kept, clamped at its
``vgs = vth`` value, above threshold as well; this makes the current
continuous and strictly increasing in ``vgs`` and preserves the small
leakage-like bump in ``g_eff`` at low read voltages.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .errors import DomainError, atomic_write, read_json_object, real

# Read voltage used for the secant slope that defines g_eff at v_in = 0.
V_EPSILON = 1e-6

# Each cell stops once |KCL residual| <= _SOLVE_RTOL * u * g_m, or after
# _SOLVE_MAX_ITERS steps at its last iterate.  Cells are solved in blocks of
# _SOLVE_BLOCK, which keeps temporaries in cache and bounds solver memory.
_SOLVE_RTOL = 1e-13
_SOLVE_MAX_ITERS = 64
_SOLVE_BLOCK = 4096
# Plain Newton steps before the residual test; 3 pass 99.5% of power-mc cells,
# 99.9%/99.96% of report/energy reads, 88.4%/100% of default/stressed scans.
_PLAIN_STEPS = 3


@dataclass(frozen=True)
class TransistorParams:
    """NMOS access transistor parameters (SI units)."""

    vth: float  # threshold voltage, V
    kp: float  # transconductance factor, A/V^2
    lambda_: float = 0.05  # channel length modulation, 1/V
    n_sub: float = 1.5  # subthreshold slope factor
    i0_sub: float = 0.0  # subthreshold current prefactor, A
    v_thermal: float = 0.0258  # thermal voltage, V

    def __post_init__(self):
        if not all(np.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise DomainError("transistor parameters must be finite")
        if self.vth <= 0 or self.kp <= 0:
            raise DomainError("vth and kp must be positive")
        if self.lambda_ < 0 or self.i0_sub < 0:
            raise DomainError("lambda_ and i0_sub must be non-negative")
        if self.n_sub <= 0 or self.v_thermal <= 0:
            raise DomainError("n_sub and v_thermal must be positive")


@dataclass(frozen=True)
class MemristorParams:
    """Memristor conductance range (SI units)."""

    g_on: float = 1.0 / 30e3  # low-resistance state, S
    g_off: float = 1.0 / 300e3  # high-resistance state, S

    def __post_init__(self):
        if not (np.isfinite(self.g_on) and np.isfinite(self.g_off)):
            raise DomainError("memristor parameters must be finite")
        if not 0 < self.g_off < self.g_on:
            raise DomainError("memristor range requires 0 < g_off < g_on")


@dataclass(frozen=True)
class DeviceMode:
    """Transistor treatment: full analytical model or an ideal switch."""

    variant: str

    def __post_init__(self):
        if self.variant not in ("analytical", "ideal_switch"):
            raise DomainError(f"unknown device mode {self.variant!r}")


ANALYTICAL = DeviceMode("analytical")
IDEAL_SWITCH = DeviceMode("ideal_switch")


def _gate_terms(vgs, p: TransistorParams):
    """Gate-only factors of the drain current: leak prefactor and overdrive."""
    ov = vgs - p.vth
    # Subthreshold exponential, clamped at its vgs = vth value above threshold
    # so the total current stays continuous across the threshold boundary.
    leak0 = p.i0_sub * np.exp(np.minimum(ov, 0.0) / (p.n_sub * p.v_thermal))
    return leak0, np.maximum(ov, 0.0)


def _drain_current(leak0, ov_pos, vds, p: TransistorParams, slope=True):
    """Drain current and, if ``slope``, its ``vds`` slope from one ``expm1``,
    unvalidated; clamping ``vc`` at the overdrive unifies both regions."""
    e = np.expm1(vds * (-1.0 / p.v_thermal))
    vc = np.minimum(vds, ov_pos)
    q, clm = vc * (ov_pos - 0.5 * vc), 1.0 + p.lambda_ * vds
    leak = leak0 * e  # minus the leak current
    i = p.kp * q * clm - leak
    return (i, p.kp * ((ov_pos - vc) * clm + p.lambda_ * q)
            + (leak0 + leak) * (1.0 / p.v_thermal)) if slope else i


def transistor_current(vgs, vds, p: TransistorParams):
    """Drain current of the access transistor.

    Piecewise model: subthreshold for ``vgs < vth``, square-law triode for
    ``vds < vgs - vth`` and saturation beyond, both scaled by the channel
    length modulation factor ``1 + lambda_ * vds``.  Continuous at the region
    boundaries, non-decreasing in ``vds`` and strictly increasing in ``vgs``
    for ``vds > 0``.  Accepts scalars or broadcastable arrays.
    """
    scalar = np.isscalar(vgs) and np.isscalar(vds)
    vgs = np.asarray(vgs, dtype=float)
    vds = np.asarray(vds, dtype=float)
    if not (np.all(np.isfinite(vgs)) and np.all(np.isfinite(vds))):
        raise DomainError("vgs and vds must be finite")
    if np.any(vgs < 0.0) or np.any(vds < 0.0):
        raise DomainError("vgs and vds must be non-negative")
    i = _drain_current(*_gate_terms(vgs, p), vds, p, False)
    return float(i) if scalar else i


def _bracketed_newton(g_m, v_in, leak0, ov_pos, p: TransistorParams):
    """Drop ``u`` on 1-D arrays by Newton from the small-signal drop, bisecting
    the bracket where a step would leave it; see :func:`_solve_drop`."""
    u_out, idx = np.empty_like(v_in), np.arange(v_in.size)
    g0 = p.kp * ov_pos + leak0 * (1.0 / p.v_thermal)
    u, lo, hi = v_in * g0 / (g_m + g0), np.zeros_like(v_in), v_in
    for _ in range(_SOLVE_MAX_ITERS):
        i, di = _drain_current(leak0, ov_pos, v_in - u, p)
        current = u * g_m
        f = current - i
        u_out[idx] = u  # converged cells then leave the active arrays
        lo, hi = np.where(f < 0.0, u, lo), np.where(f > 0.0, u, hi)
        newton = u - f / (g_m + di)
        active = np.abs(f) > _SOLVE_RTOL * current
        stray = active & ((newton <= lo) | (newton >= hi))
        if stray.any():  # bisect, unless u cannot move or lo, hi meet
            mid = 0.5 * (lo + hi)
            active &= ~stray | ((newton != u) & (lo < mid) & (mid < hi))
            newton = np.where(stray, mid, newton)
        u = newton
        if not active.all():
            keep = np.flatnonzero(active)
            if not keep.size:
                break
            idx, g_m, v_in, leak0, ov_pos, u, lo, hi = (a.take(keep) for a in (
                idx, g_m, v_in, leak0, ov_pos, u, lo, hi))
    return u_out


def _solve_drop(g_m, v_in, v_g, p: TransistorParams):
    """Memristor drop ``u`` on broadcast arrays, in two phases.

    ``f(u) = u * g_m - i_transistor(v_g, v_in - u)`` rises from ``f(0) <= 0``
    to ``f(v_in) > 0``.  Each cell takes ``_PLAIN_STEPS`` Newton steps from
    the small-signal drop (``G0 = kp * ov + leak0 / v_thermal``), kept if then
    ``|f| <= _SOLVE_RTOL * u * g_m``.  If ``2 * lambda_ * ov < 1``, ``f`` is
    convex and the start lies above the root, so the steps fall monotonically
    inside ``(0, v_in]``.  Misses, pooled over the call, restart in
    :func:`_bracketed_newton`, which stops each at its last ``u``: on that
    test, a step that cannot move ``u`` or a closed bracket.  A block whose
    plain phase raises (the caller's ``errstate``) restarts whole, to raise
    there if beyond float range; so a cell's result depends only on its
    inputs, unless a neighbour raised.
    """
    it = np.nditer([g_m, v_in, *_gate_terms(np.asarray(v_g, dtype=float), p),
                    None], flags=["external_loop", "buffered", "zerosize_ok"],
                   op_flags=[["readonly"]] * 4 + [["writeonly", "allocate"]],
                   order="C", buffersize=_SOLVE_BLOCK)
    missed = []  # C-order positions, then the inputs, of cells to solve again
    with it:
        for g_m, v_in, leak0, ov_pos, u_out in it:
            try:
                g0 = p.kp * ov_pos + leak0 * (1.0 / p.v_thermal)
                u = v_in * g0 / (g_m + g0)
                for _ in range(_PLAIN_STEPS):
                    i, di = _drain_current(leak0, ov_pos, v_in - u, p)
                    u = u - (u * g_m - i) / (g_m + di)
                f = u * g_m - _drain_current(leak0, ov_pos, v_in - u, p, False)
                miss = np.flatnonzero(np.abs(f) > _SOLVE_RTOL * (u * g_m))
                u_out[...] = u
            except FloatingPointError:
                miss = np.arange(v_in.size)
            if miss.size:
                missed.append([it.iterindex + miss] + [
                    a.take(miss) for a in (g_m, v_in, leak0, ov_pos)])
        if missed:
            pooled = [np.concatenate(a) for a in zip(*missed)]
            for b in range(0, pooled[0].size, _SOLVE_BLOCK):
                at, *cells = (a[b:b + _SOLVE_BLOCK] for a in pooled)
                np.put(it.operands[4], at, _bracketed_newton(*cells, p))
        return it.operands[4]


def solve_synapse_grid(g_m, v_in, v_g, p: TransistorParams,
                       mode: DeviceMode = ANALYTICAL):
    """Vectorised cell solve over broadcastable arrays.

    Returns ``(current, v_internal, g_eff)`` arrays.  Entries with
    ``v_in == 0`` carry zero current and the secant-slope ``g_eff`` taken at
    ``V_EPSILON``.  The analytical current is ``u * g_m``, ``u`` the drop.
    """
    g_m, v_in, v_g = (np.asarray(a, dtype=float) for a in (g_m, v_in, v_g))
    for name, a in (("g_m", g_m), ("v_in", v_in), ("v_g", v_g)):
        if not np.all(np.isfinite(a)):
            raise DomainError(f"{name} must be finite")
    if np.any(g_m <= 0.0):
        raise DomainError("g_m must be positive")
    if np.any(v_in < 0.0) or np.any(v_g < 0.0):
        raise DomainError("v_in and v_g must be non-negative")
    if mode.variant == "ideal_switch":
        g_m, v_in, v_g = np.broadcast_arrays(g_m, v_in, v_g)
        on = v_g > p.vth
        g_eff = np.where(on, g_m, 0.0)
        return g_eff * v_in, np.where(on, 0.0, v_in), g_eff
    zero = None if v_in.all() else v_in == 0.0  # no zero: no passes to undo
    v_solve = v_in if zero is None else np.where(zero, V_EPSILON, v_in)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            u = _solve_drop(g_m, v_solve, v_g, p)
    except FloatingPointError as exc:  # an operating point beyond float range
        raise DomainError(f"cell solve failed: {exc}") from exc
    current = u * np.broadcast_to(g_m, u.shape)
    g_eff = current / v_solve
    restore = np.asarray if zero is None else lambda a: np.where(zero, 0.0, a)
    return restore(current), restore(v_solve - u), g_eff  # arrays either way


# ---------------------------------------------------------------------------
# Parameter files

_TRANSISTOR_KEYS = {
    "vth": "vth", "kp": "kp", "lambda": "lambda_", "n_sub": "n_sub",
    "i0_sub": "i0_sub", "v_thermal": "v_thermal",
}
_MEMRISTOR_KEYS = {"g_on": "g_on", "g_off": "g_off"}

DEVICE_FILE_VERSION = 1


def load_device_file(path) -> tuple[TransistorParams, MemristorParams]:
    """Read a flat JSON parameter file with transistor and memristor fields."""
    raw = read_json_object(path)
    try:
        t_kwargs = {attr: real(raw[key], key) for key, attr in _TRANSISTOR_KEYS.items()}
        m_kwargs = {attr: real(raw[key], key) for key, attr in _MEMRISTOR_KEYS.items()}
    except KeyError as exc:
        raise DomainError(f"device file {path}: missing field {exc.args[0]!r}") from exc
    return TransistorParams(**t_kwargs), MemristorParams(**m_kwargs)


def _decimal(x: float) -> str:
    """Shortest round-tripping decimal (positional) rendering of a float."""
    return np.format_float_positional(float(x), unique=True, trim="-")


def save_device_file(path, t: TransistorParams, mem: MemristorParams) -> None:
    """Write a parameter file; numbers are in plain decimal notation."""
    entries = [("format_version", str(DEVICE_FILE_VERSION))]
    entries += [(key, _decimal(getattr(t, attr))) for key, attr in _TRANSISTOR_KEYS.items()]
    entries += [(key, _decimal(getattr(mem, attr))) for key, attr in _MEMRISTOR_KEYS.items()]
    body = ",\n".join(f'  "{key}": {value}' for key, value in entries)
    with atomic_write(path) as fh:
        fh.write("{\n" + body + "\n}\n")


def _bundled(name: str) -> tuple[TransistorParams, MemristorParams]:
    with resources.as_file(resources.files("onetr").joinpath("params", name)) as p:
        return load_device_file(p)


def default_device() -> tuple[TransistorParams, MemristorParams]:
    """The bundled calibration produced by ``tools/calibrate.py``."""
    return _bundled("device_default.json")


def leakage_stressed_device() -> tuple[TransistorParams, MemristorParams]:
    """Parameter set whose cells run on subthreshold leakage at high v_g.

    With the threshold above the whole gate-voltage range the cell current is
    capped by the leakage prefactor, which distorts g_eff so strongly that no
    conductance passes the tolerance check at any gate voltage.
    """
    return _bundled("device_leakage_stressed.json")

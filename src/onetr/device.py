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

# Each cell stops once |KCL residual| <= _SOLVE_RTOL * g_m * v_in, or after
# _SOLVE_MAX_ITERS steps at its last iterate.  Cells are solved in blocks of
# _SOLVE_BLOCK, which keeps temporaries in cache and bounds solver memory.
_SOLVE_RTOL = 1e-13
_SOLVE_MAX_ITERS = 64
_SOLVE_BLOCK = 4096


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


def _drain_current(leak0, ov_pos, vds, p: TransistorParams):
    """Drain current without argument validation."""
    leak = leak0 * -np.expm1(-vds / p.v_thermal)
    clm = 1.0 + p.lambda_ * vds
    triode = p.kp * (ov_pos * vds - 0.5 * vds * vds) * clm
    sat = 0.5 * p.kp * ov_pos * ov_pos * clm
    return leak + np.where(vds < ov_pos, triode, sat)


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
    i = _drain_current(*_gate_terms(vgs, p), vds, p)
    return float(i) if scalar else i


def _solve_v_internal(g_m, v_in, v_g, p: TransistorParams):
    """Internal node voltage on broadcast arrays, solved block by block.

    The KCL residual ``(v_in - x) * g_m - i_transistor(v_g, x)`` is positive
    at ``x = 0``, non-positive at ``x = v_in`` and strictly decreasing, so the
    root is bracketed.  Each cell iterates and stops on its own, so its result
    does not depend on the other cells of its call or block.
    """
    it = np.nditer([g_m, v_in, *_gate_terms(np.asarray(v_g, dtype=float), p),
                    None], flags=["external_loop", "buffered", "zerosize_ok"],
                   op_flags=[["readonly"]] * 4 + [["writeonly", "allocate"]],
                   buffersize=_SOLVE_BLOCK)
    with it:
        for g, v, leak0, ov_pos, x in it:
            x[...] = _illinois(g, v, leak0, ov_pos, p)
        return it.operands[4]


def _illinois(g_m, v_in, leak0, ov_pos, p: TransistorParams):
    """Illinois (modified regula falsi, Dowell & Jarratt 1972) solve of a block.

    A bracket end kept twice in a row has its stored residual halved, so the
    stored residuals are not true ones: each cell returns its last iterate.
    """
    x_out = np.empty_like(v_in)
    idx = np.arange(v_in.size)
    lo, hi = np.zeros_like(v_in), v_in
    f_lo, f_hi = v_in * g_m, -_drain_current(leak0, ov_pos, v_in, p)
    tol = _SOLVE_RTOL * f_lo
    kept_lo = kept_hi = np.zeros(v_in.size, dtype=bool)
    for _ in range(_SOLVE_MAX_ITERS):
        # Clip, never bisect: a rounding overshoot stays at the bracket end.
        x = np.minimum(np.maximum(hi - f_hi * (hi - lo) / (f_hi - f_lo), lo), hi)
        f = (v_in - x) * g_m - _drain_current(leak0, ov_pos, x, p)
        x_out[idx] = x  # converged cells then leave the active arrays
        up = f > 0.0  # the root lies above x, which becomes the new lo
        f_lo = np.where(up, f, np.where(kept_lo, 0.5 * f_lo, f_lo))
        f_hi = np.where(up, np.where(kept_hi, 0.5 * f_hi, f_hi), f)
        lo, hi = np.where(up, x, lo), np.where(up, hi, x)
        kept_lo, kept_hi = ~up, up
        active = np.abs(f) > tol
        if not active.all():
            (idx, g_m, v_in, leak0, ov_pos, tol, lo, hi, f_lo, f_hi, kept_lo,
             kept_hi) = (a[active] for a in (idx, g_m, v_in, leak0, ov_pos, tol,
                                             lo, hi, f_lo, f_hi, kept_lo, kept_hi))
            if not idx.size:
                break
    return x_out


def _validate_operating_point(g_m, v_in, v_g):
    g_m = np.asarray(g_m, dtype=float)
    v_in = np.asarray(v_in, dtype=float)
    v_g = np.asarray(v_g, dtype=float)
    for name, a in (("g_m", g_m), ("v_in", v_in), ("v_g", v_g)):
        if not np.all(np.isfinite(a)):
            raise DomainError(f"{name} must be finite")
    if np.any(g_m <= 0.0):
        raise DomainError("g_m must be positive")
    if np.any(v_in < 0.0) or np.any(v_g < 0.0):
        raise DomainError("v_in and v_g must be non-negative")
    return g_m, v_in, v_g


def solve_synapse_grid(g_m, v_in, v_g, p: TransistorParams,
                       mode: DeviceMode = ANALYTICAL):
    """Vectorised cell solve over broadcastable arrays.

    Returns ``(current, v_internal, g_eff)`` arrays.  Entries with
    ``v_in == 0`` carry zero current and the secant-slope ``g_eff`` taken at
    ``V_EPSILON``.
    """
    g_m, v_in, v_g = _validate_operating_point(g_m, v_in, v_g)
    if mode.variant == "ideal_switch":
        shape = np.broadcast_shapes(g_m.shape, v_in.shape, v_g.shape)
        g_m = np.broadcast_to(g_m, shape)
        v_in = np.broadcast_to(v_in, shape)
        on = np.broadcast_to(v_g, shape) > p.vth
        g_eff = np.where(on, g_m, 0.0)
        return g_eff * v_in, np.where(on, 0.0, v_in), g_eff
    at_zero = v_in == 0.0
    v_solve = np.where(at_zero, V_EPSILON, v_in)
    x = _solve_v_internal(g_m, v_solve, v_g, p)
    current = (v_solve - x) * np.broadcast_to(g_m, x.shape)
    g_eff = current / v_solve
    return (np.where(at_zero, 0.0, current),
            np.where(at_zero, 0.0, x),
            g_eff)


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
    """The bundled calibration produced by :mod:`onetr.calibrate`."""
    return _bundled("device_default.json")


def leakage_stressed_device() -> tuple[TransistorParams, MemristorParams]:
    """Parameter set whose cells run on subthreshold leakage at high v_g.

    With the threshold above the whole gate-voltage range the cell current is
    capped by the leakage prefactor, which distorts g_eff so strongly that no
    conductance passes the tolerance check at any gate voltage.
    """
    return _bundled("device_leakage_stressed.json")

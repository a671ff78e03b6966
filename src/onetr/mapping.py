"""Weight to conductance mapping for differential 1T-1R pairs.

Each layer is scaled independently: its largest absolute weight lands on the
memristor on-conductance, so the whole conductance range is always in use.
A weight is carried by one side of a differential pair while the other side
rests at the off-conductance.  The clip level ``w_cut`` is the weight that
maps onto the conductance cutoff of a given gate voltage; clipping to it
keeps every programmed device inside the linear regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .device import MemristorParams
from .errors import DegenerateLayerError, DomainError

# Relative slack of a weight or clip level over its layer's range ``w_r``.
RANGE_RTOL = 1e-9
GRID_ATOL = 1e-9  # V: a gate voltage this close to a grid point is on it


@dataclass(frozen=True)
class LayerScale:
    """Per-layer weight/conductance conversion factors."""

    w_r: float  # largest absolute weight of the layer
    s: float  # conductance per weight unit, (g_on - g_off) / w_r
    k_readout: float  # weight units per siemens, 1 / s
    g_on: float
    g_off: float


@dataclass(frozen=True)
class WcutSpec:
    """Clip level in weight units for one gate voltage."""

    v_g: float
    w_cut: float
    g_m_cutoff: Optional[float]  # None when no conductance qualifies


def scale_from_range(w_r: float, mem: MemristorParams) -> LayerScale:
    """Build a LayerScale for a known weight range."""
    w_r = float(w_r)
    if not np.isfinite(w_r) or w_r <= 0.0:
        raise DegenerateLayerError("weight range must be positive and finite")
    s = (mem.g_on - mem.g_off) / w_r
    return LayerScale(w_r, s, 1.0 / s, mem.g_on, mem.g_off)


def layer_scale(weights, mem: MemristorParams) -> LayerScale:
    """Scale derived from a layer's weights; rejects all-zero layers."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise DegenerateLayerError("cannot scale an empty weight matrix")
    if not np.all(np.isfinite(w)):
        raise DomainError("weights must be finite")
    return scale_from_range(float(np.max(np.abs(w))), mem)


def clip_weights(weights, w_cut: float):
    """Symmetric hard clip of weights into [-w_cut, w_cut]."""
    if not np.isfinite(w_cut) or w_cut < 0.0:
        raise DomainError("w_cut must be non-negative and finite")
    scalar = np.isscalar(weights)
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise DomainError("weights must be finite")
    out = np.clip(w, -w_cut, w_cut)
    return float(out) if scalar else out


def wcut_from_vg(v_g: float, scale: LayerScale, table) -> WcutSpec:
    """Clip level corresponding to the conductance cutoff at ``v_g``.

    The cutoff is taken from ``table`` (see characterize.CutoffTable); a
    missing cutoff means nothing is linear at that gate voltage and the clip
    level collapses to zero.
    """
    cutoff = table.lookup(v_g)
    if cutoff is None:
        return WcutSpec(float(v_g), 0.0, None)
    frac = (cutoff - scale.g_off) / (scale.g_on - scale.g_off)
    w_cut = min(max(scale.w_r * frac, 0.0), scale.w_r)
    return WcutSpec(float(v_g), float(w_cut), float(cutoff))


def weight_to_conductance(weights, scale: LayerScale):
    """Encode weights onto differential pairs, one active side per sign:
    ``(g_plus, g_minus)``, the inactive side resting at ``g_off``."""
    scalar = np.isscalar(weights)
    w = np.asarray(weights, dtype=float)
    if not np.all(np.isfinite(w)):
        raise DomainError("weights must be finite")
    if np.any(np.abs(w) > scale.w_r * (1.0 + RANGE_RTOL)):
        raise DomainError("weight magnitude exceeds the layer range")
    magnitude = np.minimum(np.abs(w), scale.w_r)
    # Cap at g_on so float rounding cannot push the active side past the range.
    active = np.minimum(scale.g_off + magnitude * scale.s, scale.g_on)
    g_plus = np.where(w > 0.0, active, scale.g_off)
    g_minus = np.where(w < 0.0, active, scale.g_off)
    return (float(g_plus), float(g_minus)) if scalar else (g_plus, g_minus)

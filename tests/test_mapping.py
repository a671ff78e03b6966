"""Weight/conductance mapping and clip levels."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from onetr import (CutoffLookupError, DegenerateLayerError, DomainError,
                   clip_weights, cutoff_table, layer_scale, program,
                   scale_from_range, schedule_from_dict, WcutSpec,
                   wcut_from_vg, weight_to_conductance)
from onetr.mapping import RANGE_RTOL


def test_scale_pins_weight_range_to_g_on(device):
    _, mem = device
    scale = scale_from_range(2.0, mem)
    assert scale.s == pytest.approx((mem.g_on - mem.g_off) / 2.0)
    assert scale.k_readout * scale.s == pytest.approx(1.0)
    g_plus, g_minus = weight_to_conductance(2.0, scale)
    assert g_plus == mem.g_on
    assert g_minus == mem.g_off


def test_layer_scale_uses_largest_magnitude(device):
    _, mem = device
    scale = layer_scale([[0.2, -1.5], [0.7, 0.1]], mem)
    assert scale.w_r == 1.5


def test_degenerate_layers_are_rejected(device):
    _, mem = device
    with pytest.raises(DegenerateLayerError):
        layer_scale(np.zeros((3, 3)), mem)
    with pytest.raises(DegenerateLayerError):
        layer_scale(np.empty((0, 3)), mem)
    with pytest.raises(DegenerateLayerError):
        scale_from_range(0.0, mem)


def test_clip_worked_values():
    assert clip_weights(0.5, 0.3) == 0.3
    assert clip_weights(-0.5, 0.3) == -0.3
    assert clip_weights(0.1, 0.3) == 0.1


@given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2),
                  elements=st.floats(-50, 50)),
       st.floats(0.0, 10.0))
def test_clip_idempotent_and_bounded(w, w_cut):
    once = clip_weights(w, w_cut)
    assert np.array_equal(clip_weights(once, w_cut), once)
    assert np.all(np.abs(once) <= w_cut)
    # Values already inside the window never move.
    inside = np.abs(w) <= w_cut
    assert np.array_equal(once[inside], w[inside])


def test_clip_rejects_bad_arguments():
    with pytest.raises(DomainError):
        clip_weights(0.5, -0.1)
    with pytest.raises(DomainError):
        clip_weights(np.nan, 0.3)


def test_differential_encoding_routes_by_sign(device):
    _, mem = device
    scale = scale_from_range(1.0, mem)
    g_plus, g_minus = weight_to_conductance(np.array([0.5, -0.5, 0.0]), scale)
    assert g_plus[0] > mem.g_off and g_minus[0] == mem.g_off
    assert g_minus[1] > mem.g_off and g_plus[1] == mem.g_off
    assert g_plus[2] == mem.g_off and g_minus[2] == mem.g_off
    assert np.all(g_plus <= mem.g_on) and np.all(g_minus <= mem.g_on)


@given(w=hnp.arrays(np.float64, st.integers(1, 40),
                    elements=st.floats(-1.0, 1.0)))
def test_encoding_round_trips_to_weights(w, device):
    _, mem = device
    scale = scale_from_range(1.0, mem)
    g_plus, g_minus = weight_to_conductance(w, scale)
    back = (g_plus - g_minus) / scale.s
    assert np.allclose(back, w, atol=1e-12)


def test_encoding_rejects_out_of_range_weights(device):
    _, mem = device
    scale = scale_from_range(1.0, mem)
    with pytest.raises(DomainError):
        weight_to_conductance(1.5, scale)


def test_one_range_tolerance_from_schedule_to_conductances(device):
    # A clip level the schedule loader accepts also programs; just past the
    # shared tolerance, all three checks reject it.
    _, mem = device
    scale = scale_from_range(1.0, mem)
    w = np.array([[2.0, -2.0], [0.5, 0.0]])

    def loaded(w_cut):
        return schedule_from_dict({"mode": "homogeneous", "grid": [0.8],
                                   "entries": [{"layer": 0, "v_g": 0.8,
                                                "w_cut": w_cut, "w_r": 1.0,
                                                "g_m_cutoff": None,
                                                "flag": ""}]}).entries[0]

    inside, outside = 1.0 + RANGE_RTOL / 10, 1.0 + RANGE_RTOL * 10
    ts = program(w, loaded(inside), scale)
    assert ts.g_plus[0, 0] == pytest.approx(mem.g_on)
    assert ts.g_minus[0, 1] == pytest.approx(mem.g_on)
    assert weight_to_conductance(inside, scale)[0] == pytest.approx(mem.g_on)
    with pytest.raises(DomainError):
        loaded(outside)
    with pytest.raises(DomainError):
        program(w, WcutSpec(0.8, outside, None), scale)
    with pytest.raises(DomainError):
        weight_to_conductance(outside, scale)


def test_wcut_tracks_cutoff_position(device, table):
    _, mem = device
    scale = scale_from_range(2.0, mem)
    spec = wcut_from_vg(0.8, scale, table)
    cutoff = table.lookup(0.8)
    frac = (cutoff - mem.g_off) / (mem.g_on - mem.g_off)
    assert spec.w_cut == pytest.approx(2.0 * frac)
    assert spec.g_m_cutoff == pytest.approx(cutoff)
    assert 0.0 < spec.w_cut < 2.0

    saturated = wcut_from_vg(1.0, scale, table)
    assert saturated.w_cut == pytest.approx(2.0)  # cutoff reaches g_on


def test_wcut_collapses_when_nothing_is_linear(stressed):
    t, mem = stressed
    table = cutoff_table([1.3], t, mem)
    spec = wcut_from_vg(1.3, scale_from_range(1.0, mem), table)
    assert spec.w_cut == 0.0
    assert spec.g_m_cutoff is None


def test_wcut_missing_voltage(table, device):
    _, mem = device
    with pytest.raises(CutoffLookupError):
        wcut_from_vg(0.62, scale_from_range(1.0, mem), table)

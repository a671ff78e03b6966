"""Cell model: transistor currents, the series solve, parameter files."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onetr import (ANALYTICAL, IDEAL_SWITCH, DeviceMode, DomainError,
                   MemristorParams, TransistorParams, default_device,
                   leakage_stressed_device, load_device_file, save_device_file,
                   solve_synapse_grid, transistor_current)
from onetr import device as device_module
from onetr.device import _SOLVE_BLOCK, _SOLVE_MAX_ITERS, V_EPSILON

# Square-law reference device used by the frozen current values below.
SQUARE_LAW = TransistorParams(vth=0.4, kp=5e-4, lambda_=0.0, i0_sub=0.0)


def test_triode_current_frozen_value():
    # vds = 0.1 < vgs - vth = 0.6: kp((0.6)(0.1) - 0.005) = 2.75e-5 A
    i = transistor_current(1.0, 0.1, SQUARE_LAW)
    assert i == pytest.approx(2.75e-5, rel=1e-12)


def test_saturation_current_frozen_value():
    # vds = 0.8 > vgs - vth = 0.6: 0.5 kp (0.6)^2 = 9.0e-5 A
    i = transistor_current(1.0, 0.8, SQUARE_LAW)
    assert i == pytest.approx(9.0e-5, rel=1e-12)


def test_current_continuous_at_pinch_off():
    p = TransistorParams(vth=0.5, kp=7e-4, lambda_=0.08, i0_sub=1e-8)
    ov = 0.35
    below = transistor_current(0.5 + ov, ov - 1e-9, p)
    above = transistor_current(0.5 + ov, ov + 1e-9, p)
    assert below == pytest.approx(above, rel=1e-6)


def test_current_continuous_at_threshold():
    p = TransistorParams(vth=0.6, kp=9e-4, i0_sub=2e-8)
    below = transistor_current(0.6 - 1e-9, 0.3, p)
    above = transistor_current(0.6 + 1e-9, 0.3, p)
    assert below == pytest.approx(above, rel=1e-6)
    # Below threshold only the exponential leak term remains.
    leak = transistor_current(0.3, 0.3, p)
    expected = 2e-8 * np.exp(-0.3 / (1.5 * 0.0258)) * -np.expm1(-0.3 / 0.0258)
    assert leak == pytest.approx(expected, rel=1e-12)


@given(vgs=st.floats(0.0, 1.5), lo=st.floats(0.0, 1.0), dv=st.floats(1e-6, 0.5))
def test_current_non_decreasing_in_vds(vgs, lo, dv):
    p = TransistorParams(vth=0.6, kp=9e-4, lambda_=0.05, i0_sub=2e-8)
    assert transistor_current(vgs, lo + dv, p) >= transistor_current(vgs, lo, p)


@given(lo=st.floats(0.0, 1.4), dv=st.floats(1e-6, 0.5), vds=st.floats(0.01, 1.0))
def test_current_increasing_in_vgs(lo, dv, vds):
    p = TransistorParams(vth=0.6, kp=9e-4, lambda_=0.05, i0_sub=2e-8)
    assert transistor_current(lo + dv, vds, p) > transistor_current(lo, vds, p)


def test_current_rejects_bad_arguments():
    with pytest.raises(DomainError):
        transistor_current(-0.1, 0.2, SQUARE_LAW)
    with pytest.raises(DomainError):
        transistor_current(0.5, -0.2, SQUARE_LAW)
    with pytest.raises(DomainError):
        transistor_current(np.nan, 0.2, SQUARE_LAW)


def test_parameter_validation():
    with pytest.raises(DomainError):
        TransistorParams(vth=-0.1, kp=5e-4)
    with pytest.raises(DomainError):
        TransistorParams(vth=0.4, kp=0.0)
    with pytest.raises(DomainError):
        TransistorParams(vth=0.4, kp=5e-4, i0_sub=-1e-9)
    with pytest.raises(DomainError):
        MemristorParams(g_on=1e-5, g_off=2e-5)
    with pytest.raises(DomainError):
        DeviceMode("magic")


def test_solve_satisfies_current_balance(device, stressed):
    # The transistor current at the solved internal node balances the cell
    # current to 1e-12 of the cell current itself, even where that current is
    # many decades below g_m * v_in (the stressed device runs every cell below
    # threshold), and every cell conducts.
    for t, mem in (device, stressed):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g_m = rng.uniform(mem.g_off, mem.g_on)
            v_in = rng.uniform(1e-3, 0.5)
            v_g = rng.uniform(0.0, 1.2)
            current, x, g_eff = solve_synapse_grid(g_m, v_in, v_g, t)
            residual = current - transistor_current(v_g, x, t)
            assert abs(residual) <= 1e-12 * current
            assert 0.0 <= x <= v_in
            assert 0.0 < g_eff <= g_m * (1.0 + 1e-12)
        # Edge points: the smallest solved read voltage, the gate fully off
        # and at the top of the sampled range, both ends of the window.
        g_m, v_in, v_g = np.meshgrid([mem.g_off, mem.g_on], [V_EPSILON, 0.5],
                                     [0.0, 1.2], indexing="ij")
        current, x, g_eff = solve_synapse_grid(g_m, v_in, v_g, t)
        residual = current - transistor_current(v_g, x, t)
        assert np.all(np.abs(residual) <= 1e-12 * current)
        assert np.all((0.0 <= x) & (x <= v_in))
        assert np.all((0.0 < g_eff) & (g_eff <= g_m * (1.0 + 1e-12)))


def _bisect_current(g_m, v_in, v_g, t):
    """Reference cell current: float bisection on the memristor drop ``u``.

    ``u * g_m - i_transistor(v_g, v_in - u)`` increases in ``u``; the bracket
    ``[0, v_in]`` is halved until no float lies strictly inside it, and the
    current is taken at its upper end.
    """
    g_m, v_in, v_g = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                           for a in (g_m, v_in, v_g)))
    lo, hi = np.zeros(g_m.shape), v_in.copy()
    while True:
        mid = lo + 0.5 * (hi - lo)
        split = (lo < mid) & (mid < hi)
        if not split.any():
            return hi * g_m
        above = mid * g_m >= transistor_current(v_g, v_in - mid, t)
        lo = np.where(split & ~above, mid, lo)
        hi = np.where(split & above, mid, hi)


def test_solve_matches_bisection_reference(device, stressed):
    # Gate voltages far below and above threshold (0.3 V leaves the stressed
    # device deep in subthreshold), g_off..g_on, read voltages down to
    # V_EPSILON, and a transistor without subthreshold current.  With no
    # plain Newton steps every cell that misses the test at its start takes
    # the bracketed loop.
    t_default, mem = device
    t_stressed, _ = stressed
    plain = device_module._PLAIN_STEPS
    for t, steps in ((t_default, plain), (t_stressed, plain),
                     (replace(t_default, i0_sub=0.0), plain), (t_default, 0)):
        g_m = np.geomspace(mem.g_off, mem.g_on, 5)[:, None, None]
        v_in = np.array([V_EPSILON, 1e-4, 1e-2, 0.1, 0.5])[None, :, None]
        v_g = np.array([0.0, 0.3, t.vth - 0.3, t.vth - 0.05, t.vth,
                        t.vth + 0.05, t.vth + 0.6, 1.2])[None, None, :]
        with mock.patch.object(device_module, "_PLAIN_STEPS", steps):
            current, _, _ = solve_synapse_grid(g_m, v_in, v_g, t)
        reference = _bisect_current(g_m, v_in, v_g, t)
        assert np.all(np.abs(current - reference) <= 1e-12 * reference)


@settings(max_examples=40)
@given(vth=st.floats(0.05, 1.5), kp=st.floats(1e-6, 1e-2),
       lambda_=st.floats(0.5, 10.0), n_sub=st.floats(1.0, 2.0),
       i0_sub=st.one_of(st.just(0.0), st.floats(1e-12, 1e-6)),
       v_thermal=st.floats(0.02, 0.03), extra=st.floats(0.0, 3.0))
def test_solve_matches_bisection_on_random_devices(vth, kp, lambda_, n_sub,
                                                   i0_sub, v_thermal, extra):
    # The last gate voltage gives 2 * lambda_ * ov > 1, where the current is
    # no longer concave in vds and the Newton step needs its bracket guard.
    t = TransistorParams(vth=vth, kp=kp, lambda_=lambda_, n_sub=n_sub,
                         i0_sub=i0_sub, v_thermal=v_thermal)
    g_m = np.geomspace(1e-7, 1e-3, 4)[:, None, None]
    v_in = np.array([V_EPSILON, 1e-3, 0.1, 1.0, 2.0])[None, :, None]
    v_g = np.array([0.0, 0.5 * vth, vth + 0.5 / lambda_,
                    vth + 1.0 / lambda_ + extra])[None, None, :]
    steps = []  # one model evaluation per step of the one 80-cell block
    real = device_module._drain_current

    def counted(*args):
        steps.append(1)
        return real(*args)

    with mock.patch.object(device_module, "_drain_current", counted):
        current, _, _ = solve_synapse_grid(g_m, v_in, v_g, t)
    reference = _bisect_current(g_m, v_in, v_g, t)
    assert np.all(np.abs(current - reference) <= 1e-12 * reference)
    assert len(steps) < _SOLVE_MAX_ITERS


def test_solve_is_independent_of_block_neighbours(device, stressed):
    # Every cell takes the same plain Newton steps and a cell that misses the
    # residual test stops on its own in the bracketed loop, so a cell's
    # operating point must not depend on the cells that share its call or its
    # solver block.  The crowd's gate voltages span the range, straddle the
    # threshold, sit 50-200 mV above it (16-34% of the crowd takes the
    # bracketed loop) or lie at 0.8-1.0 V (at most 1%); lambda_ = 3 makes f
    # non-convex above threshold.
    t_default, mem_default = device
    lambda3 = (replace(t_default, lambda_=3.0), mem_default)
    for t, mem in (device, stressed, lambda3):
        for v_g_range in ((0.0, 1.2), (t.vth - 0.02, t.vth + 0.02),
                          (t.vth + 0.05, t.vth + 0.2), (0.8, 1.0)):
            rng = np.random.default_rng(5)
            ranges = ((mem.g_off, mem.g_on), (1e-3, 0.5), (0.0, 1.2))
            cells = [rng.uniform(lo, hi, 4) for lo, hi in ranges]
            alone = solve_synapse_grid(*cells, t)
            crowd = [rng.uniform(lo, hi, 3 * _SOLVE_BLOCK)
                     for lo, hi in ranges[:2] + (v_g_range,)]
            at = _SOLVE_BLOCK + np.array([-2, -1, 0, 1])  # a block boundary
            for big, small in zip(crowd, cells):
                big[at] = small
            together = solve_synapse_grid(*crowd, t)
            for a, b in zip(alone, together):
                assert np.array_equal(a, b[at])


def test_geff_at_zero_input_is_secant_limit(device):
    t, _ = device
    current, x, g_eff = solve_synapse_grid(2e-5, 0.0, 0.9, t)
    assert current == 0.0
    assert x == 0.0
    _, _, ref_g_eff = solve_synapse_grid(2e-5, V_EPSILON, 0.9, t)
    assert g_eff == pytest.approx(ref_g_eff, rel=1e-12)
    assert g_eff > 0.0
    # Zeros mixed into a grid: the nonzero reads keep the bits of the grid
    # solved without the zeros, each zero the exact V_EPSILON secant.
    g = np.array([5e-6, 1e-5, 3e-5])
    v = np.array([[0.0], [0.3], [0.0], [0.5]])
    mixed = solve_synapse_grid(g, v, 0.85, t)
    alone = solve_synapse_grid(g, v[[1, 3]], 0.85, t)
    for got, want in zip(mixed, alone):
        assert np.array_equal(got[[1, 3]], want)
    assert not np.any(mixed[0][[0, 2]]) and not np.any(mixed[1][[0, 2]])
    secant = solve_synapse_grid(g, V_EPSILON, 0.85, t)[2]
    assert np.array_equal(mixed[2][[0, 2]], [secant, secant])
    # Types and shapes do not depend on whether an input is zero.
    for g_m, v_in in [(2e-5, 0.3), (g, 0.3), (2e-5, v[1:2]), (g, v[[1, 3]])]:
        some = solve_synapse_grid(g_m, v_in, 0.85, t)
        zero = solve_synapse_grid(g_m, np.zeros_like(v_in), 0.85, t)
        assert ([(type(a), np.shape(a), a.dtype) for a in some]
                == [(type(a), np.shape(a), a.dtype) for a in zero])
    assert all(isinstance(a, np.ndarray) for a in
               solve_synapse_grid(2e-5, 0.3, 0.85, t)[:2])


def test_ideal_switch_limits(device):
    t, _ = device
    on_current, _, on_g_eff = solve_synapse_grid(2e-5, 0.3, t.vth + 0.2, t,
                                                 mode=IDEAL_SWITCH)
    assert on_g_eff == 2e-5
    assert on_current == pytest.approx(2e-5 * 0.3, rel=1e-15)
    off_current, _, off_g_eff = solve_synapse_grid(2e-5, 0.3, t.vth - 0.2, t,
                                                   mode=IDEAL_SWITCH)
    assert off_g_eff == 0.0
    assert off_current == 0.0


def test_grid_solve_matches_scalar_solve(device):
    t, _ = device
    g = np.array([5e-6, 1e-5, 3e-5])
    v = np.array([[0.1], [0.3], [0.5]])
    current, x, g_eff = solve_synapse_grid(g, v, 0.85, t)
    assert current.shape == (3, 3)
    for i in range(3):
        for j in range(3):
            one_current, _, one_g_eff = solve_synapse_grid(g[j], v[i, 0],
                                                           0.85, t)
            assert current[i, j] == pytest.approx(one_current, rel=1e-12)
            assert g_eff[i, j] == pytest.approx(one_g_eff, rel=1e-12)


def test_solve_rejects_bad_operating_points(device):
    t, _ = device
    with pytest.raises(DomainError):
        solve_synapse_grid(0.0, 0.3, 0.9, t)
    with pytest.raises(DomainError):
        solve_synapse_grid(1e-5, -0.1, 0.9, t)
    with pytest.raises(DomainError):
        solve_synapse_grid(1e-5, 0.3, np.inf, t)
    # finite, but beyond float range inside the solve
    with pytest.raises(DomainError, match="^cell solve failed"):
        solve_synapse_grid(2e-5, 1e308, 0.8, t)


def test_attenuation_grows_with_conductance(device):
    # The series transistor eats a larger share of the read voltage the more
    # current the memristor pushes, so g_eff / g_m falls as g_m rises.
    t, mem = device
    ratios = []
    for g_m in np.linspace(mem.g_off, mem.g_on, 8):
        ratios.append(solve_synapse_grid(g_m, 0.5, 0.8, t)[2] / g_m)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_device_file_round_trip(tmp_path):
    t = TransistorParams(vth=0.62, kp=8.5e-4, lambda_=0.04, n_sub=1.4,
                         i0_sub=3e-8, v_thermal=0.026)
    mem = MemristorParams(g_on=2.9e-5, g_off=3.1e-6)
    path = tmp_path / "device.json"
    save_device_file(path, t, mem)
    t2, mem2 = load_device_file(path)
    assert t2 == t
    assert mem2 == mem


def test_device_file_missing_field(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"vth": 0.6}')
    with pytest.raises(DomainError):
        load_device_file(path)
    path.write_text('[1, 2]')
    with pytest.raises(DomainError):
        load_device_file(path)


def test_bundled_devices_load():
    t, mem = default_device()
    assert 0 < mem.g_off < mem.g_on
    assert t.vth < 0.7  # usable within the 0.7..1.0 V gate range
    ts, _ = leakage_stressed_device()
    assert ts.vth > 1.3  # every grid voltage sits below threshold

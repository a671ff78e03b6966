"""Conductance sweeps, the tolerance metric, cutoffs and Monte Carlo power."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onetr import characterize, crossbar
from onetr import (ANALYTICAL, IDEAL_SWITCH, CutoffLookupError, CutoffTable,
                   DomainError, GeffCurve, TransistorParams, cutoff_table,
                   default_vin_grid, find_gm_cutoff, linear_vin_range,
                   power_monte_carlo, power_table, sweep_geff,
                   tolerance_metric, write_cutoff_csv)


def test_default_grid_spans_supply():
    grid = default_vin_grid(0.5)
    assert grid.shape == (64,)
    assert grid[0] == pytest.approx(0.5 / 64)
    assert grid[-1] == 0.5
    assert np.all(np.diff(grid) > 0)


def test_tolerance_metric_hand_curve():
    curve = GeffCurve(1e-5, 0.8, np.array([0.1, 0.2, 0.3]),
                      np.array([1.0, 0.98, 0.99]))
    res = tolerance_metric(curve)
    assert res.tm == pytest.approx(0.02)
    assert res.g_eff_max == 1.0
    assert res.g_eff_min == 0.98


def test_tolerance_metric_constant_curve_is_zero():
    curve = GeffCurve(1e-5, 0.8, np.array([0.1, 0.2]), np.array([2.0, 2.0]))
    assert tolerance_metric(curve).tm == 0.0


def test_ideal_switch_has_zero_spread(device):
    t, mem = device
    curve = sweep_geff(mem.g_on, 0.9, t, mode=IDEAL_SWITCH)
    assert tolerance_metric(curve).tm == 0.0
    window = linear_vin_range(curve)
    assert window == (pytest.approx(0.5 / 64), pytest.approx(0.5))


def _bruteforce_window(v_in, g_eff, thr):
    """Widest window with spread <= thr, leftmost on ties, >= 2 points."""
    best = None
    n = len(v_in)
    for i in range(n):
        for j in range(i + 1, n):
            seg = g_eff[i:j + 1]
            tm = (seg.max() - seg.min()) / seg.max()
            if tm <= thr:
                key = (j - i, -i)
                if best is None or key > best[0]:
                    best = (key, (v_in[i], v_in[j]))
    return None if best is None else best[1]


def test_linear_range_matches_bruteforce(device, stressed):
    cases = [
        (device, 1.0 / 30e3, 0.80, 0.025),
        (device, 1e-5, 0.90, 0.025),
        (device, 3e-5, 0.70, 0.025),
        (stressed, 1e-5, 1.30, 0.025),
        (stressed, 3e-5, 0.90, 0.025),
    ]
    for (t, _), g_m, v_g, thr in cases:
        curve = sweep_geff(g_m, v_g, t)
        expected = _bruteforce_window(curve.v_in, curve.g_eff, thr)
        got = linear_vin_range(curve, tm_threshold=thr)
        if expected is None:
            assert got is None
        else:
            assert got == (pytest.approx(expected[0]), pytest.approx(expected[1]))


def test_linear_range_none_when_threshold_unreachable(device):
    t, mem = device
    assert linear_vin_range(sweep_geff(mem.g_on, 0.8, t),
                            tm_threshold=1e-9) is None


def _loop_window(v_in, g, thr):
    """The quadratic scan linear_vin_range used to run, kept as its oracle:
    each start extends until its running spread first exceeds thr."""
    best = None
    for i in range(len(g) - 1):
        g_max = g_min = g[i]
        for j in range(i + 1, len(g)):
            g_max, g_min = max(g_max, g[j]), min(g_min, g[j])
            if g_max <= 0.0 or (g_max - g_min) / g_max > thr:
                break
            if best is None or j - i > best[1] - best[0]:
                best = (i, j)
    return None if best is None else (float(v_in[best[0]]),
                                      float(v_in[best[1]]))


@settings(max_examples=200)
@given(g=st.lists(st.one_of(st.sampled_from([0.0, -1.0, 1.0, 0.99, 0.975,
                                               1.025, 2.0, np.inf, -np.inf]),
                            st.floats(-1e3, 1e3)), max_size=40),
       thr=st.one_of(st.sampled_from([0.01, 0.025, 0.5]),
                     st.floats(1e-9, 0.999)))
def test_linear_range_matches_quadratic_scan(g, thr):
    g = np.array(g, dtype=float)
    v_in = 0.5 * np.arange(1, g.size + 1) / max(g.size, 1)
    with np.errstate(all="ignore"):  # spreads may overflow to inf
        want = _loop_window(v_in, g, thr)
    assert linear_vin_range(GeffCurve(1e-5, 0.8, v_in, g), thr) == want


def test_stressed_window_sits_at_high_read_voltages(stressed):
    # Leakage-limited cells behave like current sources: g_eff ~ 1/v_in, so
    # the only flat stretch is at the top of the read range.
    t, _ = stressed
    window = linear_vin_range(sweep_geff(1e-5, 1.3, t))
    assert window is not None
    lo, hi = window
    assert lo > 0.5 / 64 + 1e-12
    assert lo > 0.25


def test_cutoff_is_largest_passing_grid_point(device):
    t, mem = device
    thr = 0.025
    cutoff = find_gm_cutoff(0.8, t, mem, tm_threshold=thr)
    grid = np.linspace(mem.g_off, mem.g_on, 256)
    idx = int(np.argmin(np.abs(grid - cutoff)))
    assert cutoff == pytest.approx(grid[idx], rel=1e-12)
    assert tolerance_metric(sweep_geff(cutoff, 0.8, t)).tm <= thr
    for g in grid[idx + 1:idx + 6]:
        assert tolerance_metric(sweep_geff(g, 0.8, t)).tm > thr


def _exhaustive_cutoff(v_g, t, mem, thr, v_supply, mode=ANALYTICAL):
    # Solve every (g_m, v_in) cell of the search grid; keep the largest row
    # whose spread over all read voltages passes.
    gms = np.linspace(mem.g_off, mem.g_on, characterize.DEFAULT_GM_POINTS)
    grid = default_vin_grid(v_supply)
    _, _, g_eff = characterize.solve_synapse_grid(gms[:, None], grid[None, :],
                                                  v_g, t, mode)
    g_max, g_min = g_eff.max(axis=1), g_eff.min(axis=1)
    passing = [hi > 0.0 and (hi - lo) / hi <= thr
               for hi, lo in zip(g_max, g_min)]
    return float(gms[np.flatnonzero(passing)[-1]]) if any(passing) else None


@pytest.mark.parametrize("which, v_g, thr, v_supply, mode", [
    ("default", 0.8, 0.025, 0.5, ANALYTICAL),
    ("default", 0.75, 1e-4, 0.5, ANALYTICAL),
    ("default", 0.9, 1e-3, 2.0, ANALYTICAL),
    ("default", 0.7, 0.005, 0.5, ANALYTICAL),
    ("default", 0.95, 0.999, 0.5, ANALYTICAL),
    ("default", 0.3, 0.9, 0.5, ANALYTICAL),
    ("default", 0.9, 0.005, 1.0, ANALYTICAL),
    ("default", 1.2, 0.05, 2.0, ANALYTICAL),
    ("default", 0.62, 0.025, 0.1, ANALYTICAL),
    ("default", 0.8, 0.025, 0.5, IDEAL_SWITCH),
    ("default", 0.2, 0.025, 0.5, IDEAL_SWITCH),
    ("stressed", 0.3, 0.025, 0.5, ANALYTICAL),  # currents underflow to zero
    ("stressed", 0.3, 0.999, 0.5, ANALYTICAL),
    ("stressed", 0.5, 0.999, 2.0, ANALYTICAL),
    ("stressed", 0.7, 0.999, 0.5, ANALYTICAL),
    ("stressed", 1.3, 0.9, 1.0, ANALYTICAL),
    ("stressed", 1.3, 0.5, 0.5, IDEAL_SWITCH),
])
@pytest.mark.parametrize("weak_probe", [False, True])
def test_cutoff_scan_matches_exhaustive_solve(request, monkeypatch, which, v_g,
                                              thr, v_supply, mode, weak_probe):
    t, mem = request.getfixturevalue("device" if which == "default"
                                     else "stressed")
    if weak_probe:  # one probe point rejects nothing: scan chunk by chunk
        monkeypatch.setattr(characterize, "_PROBE_POINTS", (0,))
        monkeypatch.setattr(characterize, "_SCAN_CHUNK", 5)
    assert (find_gm_cutoff(v_g, t, mem, thr, v_supply, mode)
            == _exhaustive_cutoff(v_g, t, mem, thr, v_supply, mode))


@settings(max_examples=25)
@given(vth=st.floats(0.1, 1.0), kp=st.floats(-6.0, -2.0),
       lambda_=st.floats(0.0, 0.2), n_sub=st.floats(1.0, 2.0),
       i0_sub=st.floats(-12.0, -6.0), v_g=st.floats(0.0, 1.5),
       thr=st.sampled_from([1e-4, 0.002, 0.025, 0.2, 0.95]),
       v_supply=st.sampled_from([0.1, 0.5, 1.0, 2.0]))
def test_cutoff_scan_matches_exhaustive_solve_on_random_devices(
        device, vth, kp, lambda_, n_sub, i0_sub, v_g, thr, v_supply):
    t = TransistorParams(vth=vth, kp=10.0 ** kp, lambda_=lambda_, n_sub=n_sub,
                         i0_sub=10.0 ** i0_sub)
    _, mem = device
    assert (find_gm_cutoff(v_g, t, mem, thr, v_supply)
            == _exhaustive_cutoff(v_g, t, mem, thr, v_supply))


def _recorded_solves(monkeypatch):
    """Cell count of every solve call that characterize makes."""
    cells = []
    solve = characterize.solve_synapse_grid

    def recording(g_m, v_in, v_g, *args):
        cells.append(np.broadcast(g_m, v_in, v_g).size)
        return solve(g_m, v_in, v_g, *args)

    monkeypatch.setattr(characterize, "solve_synapse_grid", recording)
    return cells


def test_cutoff_scan_solves_few_cells(device, stressed, monkeypatch):
    # A fine-grid scan solves every conductance at a few read voltages and
    # only the rows near the cutoff at all of them.
    cells = _recorded_solves(monkeypatch)
    v_gs = np.round(0.70 + 0.02 * np.arange(16), 2)
    full = 16 * characterize.DEFAULT_GM_POINTS * characterize.DEFAULT_VIN_POINTS
    for (t, mem), share in ((device, 1 / 4), (stressed, 1 / 8)):
        cells.clear()
        cutoff_table(v_gs, t, mem)
        assert 0 < sum(cells) <= share * full
        assert len(cells) <= 4  # all gate voltages share each solve call


@pytest.mark.parametrize("which, mode, thr", [
    ("default", ANALYTICAL, 0.025),
    ("stressed", ANALYTICAL, 0.999),
    ("default", IDEAL_SWITCH, 0.025),
])
def test_cutoff_table_matches_per_voltage_scan(request, monkeypatch, which,
                                               mode, thr):
    # 90 gate voltages of 768 probe cells each need two probe calls.
    t, mem = request.getfixturevalue("device" if which == "default"
                                     else "stressed")
    v_gs = np.linspace(0.0, 1.3, 90)
    cells = _recorded_solves(monkeypatch)
    table = cutoff_table(v_gs, t, mem, thr, 0.5, mode)
    rows = crossbar._MVM_BLOCK_CELLS // 3
    assert cells[:2] == [3 * rows, 3 * (90 * 256 - rows)]  # the probe
    assert 0 < max(cells) <= crossbar._MVM_BLOCK_CELLS
    assert table.gate_voltages() == v_gs.tolist()
    assert [c for _, c in table.entries] == [
        find_gm_cutoff(v_g, t, mem, thr, 0.5, mode) for v_g in v_gs]
    assert [c for _, c in table.entries] == [
        _exhaustive_cutoff(v_g, t, mem, thr, 0.5, mode) for v_g in v_gs]


@pytest.mark.parametrize("block, chunk", [(1000, 16), (61, 3), (1, 1)])
def test_cutoff_table_does_not_depend_on_the_solve_blocks(
        device, stressed, monkeypatch, block, chunk):
    v_gs = [0.3, 0.72, 0.8, 0.85, 1.0]
    for t, mem in (device, stressed):
        want = cutoff_table(v_gs, t, mem, 0.01)
        monkeypatch.setattr(crossbar, "_MVM_BLOCK_CELLS", block)
        monkeypatch.setattr(characterize, "_SCAN_CHUNK", chunk)
        cells = _recorded_solves(monkeypatch)
        assert cutoff_table(v_gs, t, mem, 0.01) == want
        assert max(cells) <= max(block, 61)
        monkeypatch.undo()


def test_cutoff_none_when_nothing_passes(stressed):
    t, mem = stressed
    assert find_gm_cutoff(1.3, t, mem) is None


def test_cutoff_table_lookup_and_csv_bytes(tmp_path, device, stressed):
    t, mem = device
    table = cutoff_table([0.7, 0.8], t, mem)
    assert table.gate_voltages() == [0.7, 0.8]
    assert table.lookup(0.8) == pytest.approx(find_gm_cutoff(0.8, t, mem))
    with pytest.raises(CutoffLookupError):
        table.lookup(0.95)

    ts, mems = stressed
    table_none = cutoff_table([1.3], ts, mems)
    assert table_none.lookup(1.3) is None

    # A missing cutoff is an empty field; values are written as ".9g".
    path = tmp_path / "cutoffs.csv"
    write_cutoff_csv(CutoffTable(((0.7, None), (0.8, 1.0 / 30e3))), path)
    assert path.read_bytes() == (b"v_g,g_m_cutoff\r\n0.7,\r\n"
                                 b"0.8,3.33333333e-05\r\n")


def test_power_sample_streams_are_batch_invariant(device):
    t, mem = device
    short = power_monte_carlo(4, 3, 3, 0.9, t, mem, seed=5)
    full = power_monte_carlo(4, 3, 8, 0.9, t, mem, seed=5)
    assert np.array_equal(short.sample_powers, full.sample_powers[:3])
    assert full.mean_power == pytest.approx(np.mean(full.sample_powers))
    assert full.n_samples == 8 and full.sample_powers.shape == (8,)


def test_power_mc_solves_in_bounded_slices(device, monkeypatch):
    t, mem = device
    cells = _recorded_solves(monkeypatch)
    sliced = power_monte_carlo(64, 64, 400, 0.9, t, mem, seed=3)
    assert sum(cells) == 400 * 64 * 64
    assert max(cells) <= crossbar._MVM_BLOCK_CELLS
    monkeypatch.setattr(crossbar, "_MVM_BLOCK_CELLS", 400 * 64 * 64)
    whole = power_monte_carlo(64, 64, 400, 0.9, t, mem, seed=3)
    assert cells[-1] == 400 * 64 * 64  # the reference is one unsliced solve
    assert np.array_equal(sliced.sample_powers, whole.sample_powers)
    assert sliced.mean_power == whole.mean_power


def test_power_mc_splits_a_sample_over_the_cell_budget(device, monkeypatch):
    # One 512x512 sample is four times the budget: it solves by row blocks.
    t, mem = device
    cells = _recorded_solves(monkeypatch)
    power_table(512, 512, 1, [0.9], t, mem, seed=1)
    assert sum(cells) == 512 * 512
    assert max(cells) <= crossbar._MVM_BLOCK_CELLS


def test_power_mc_memory_does_not_grow_with_the_array(device, monkeypatch):
    # A 512x512 sample streams 64 row blocks of the budget; a 64x64 sample
    # fills one block.  Both peak at about one block's arrays.
    t, mem = device
    monkeypatch.setattr(crossbar, "_MVM_BLOCK_CELLS", 4096)
    peaks = []
    for n in (64, 512):
        tracemalloc.start()
        try:
            power_table(n, n, 1, [0.9], t, mem, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


@pytest.mark.parametrize("block, largest", [(1, 5), (12, 10), (35, 35),
                                            (80, 70)])
def test_power_row_blocks_do_not_change_the_reports(device, monkeypatch,
                                                    block, largest):
    # 7x5 samples: 1-row and 2-row blocks, one sample, two samples per call.
    t, mem = device
    want = power_table(7, 5, 3, [0.8, 1.0], t, mem, seed=2)
    monkeypatch.setattr(crossbar, "_MVM_BLOCK_CELLS", block)
    cells = _recorded_solves(monkeypatch)
    got = power_table(7, 5, 3, [0.8, 1.0], t, mem, seed=2)
    assert max(cells) == largest
    for a, b in zip(got, want):
        assert np.array_equal(a.sample_powers, b.sample_powers)
        assert (a.v_g, a.mean_power) == (b.v_g, b.mean_power)


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6),
       n_samples=st.integers(1, 9), block=st.integers(1, 200),
       v_gs=st.lists(st.sampled_from([0.0, 0.3, 0.8, 0.9, 1.3]), min_size=1,
                     max_size=4),
       mode=st.sampled_from([ANALYTICAL, IDEAL_SWITCH]))
def test_power_table_matches_per_voltage_runs(device, rows, cols, n_samples,
                                              block, v_gs, mode):
    # One draw per slice at every voltage equals one run per voltage, bit
    # for bit, whatever the slicing; no solve exceeds the cell budget.
    t, mem = device
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crossbar, "_MVM_BLOCK_CELLS", block)
        cells = _recorded_solves(mp)
        reports = power_table(rows, cols, n_samples, v_gs, t, mem, seed=4,
                              mode=mode, c_gate=1e-15)
    assert max(cells) <= max(block, cols)
    assert [r.v_g for r in reports] == v_gs
    for v_g, report in zip(v_gs, reports):
        alone = power_monte_carlo(rows, cols, n_samples, v_g, t, mem, seed=4,
                                  mode=mode, c_gate=1e-15)
        assert np.array_equal(report.sample_powers, alone.sample_powers)
        assert report.mean_power == alone.mean_power


def test_power_matches_closed_form_in_ideal_limit(device):
    # With an ideal switch the cell current is g * v, so the mean resistive
    # power per synapse is E[v^2] E[g] = v_supply^2 / 3 * (g_off + s E|w|)
    # with E|w| of a +-3 clipped standard normal.
    t, mem = device
    report = power_monte_carlo(16, 8, 400, 0.9, t, mem, seed=2,
                               mode=IDEAL_SWITCH, c_gate=0.0)
    e_abs_w = (2.0 * (np.exp(-0.0) - np.exp(-4.5)) / np.sqrt(2 * np.pi)
               + 6.0 * 0.5 * math.erfc(3.0 / np.sqrt(2.0)))
    s = (mem.g_on - mem.g_off) / 3.0
    expected = 0.5 ** 2 / 3.0 * (mem.g_off + s * e_abs_w)
    assert report.mean_power == pytest.approx(expected, rel=0.05)


def test_power_gate_term_adds_exact_constant(device):
    t, mem = device
    base = power_monte_carlo(6, 5, 4, 0.8, t, mem, seed=3, c_gate=0.0)
    gated = power_monte_carlo(6, 5, 4, 0.8, t, mem, seed=3, c_gate=1e-15)
    share = 1e-15 * 0.8 ** 2 / 1e-9 / 5  # per synapse, rows cancel
    assert gated.mean_power - base.mean_power == pytest.approx(share, rel=1e-9)


@pytest.mark.parametrize("v_supply", [math.inf, math.nan])
def test_power_table_refuses_a_non_finite_supply(device, v_supply):
    t, mem = device
    with pytest.raises(DomainError, match="v_supply"):
        power_table(2, 2, 1, [0.9], t, mem, v_supply=v_supply)


@pytest.mark.parametrize("mode", [ANALYTICAL, IDEAL_SWITCH])
@pytest.mark.parametrize("v_supply, v_g", [(1e300, 0.8), (0.5, 1e200)])
def test_power_table_refuses_power_beyond_float_range(device, mode, v_supply,
                                                      v_g):
    # RuntimeWarnings are errors in the suite: the overflow stays silent.
    t, mem = device
    with pytest.raises(DomainError, match="read power failed"):
        power_table(1, 1, 1, [v_g], t, mem, v_supply=v_supply, mode=mode)


def test_power_table_refuses_no_gate_voltages(device):
    t, mem = device
    with pytest.raises(DomainError, match="gate voltage"):
        power_table(2, 2, 1, [], t, mem)


def test_power_validates_arguments(device):
    t, mem = device
    with pytest.raises(DomainError):
        power_monte_carlo(0, 4, 2, 0.9, t, mem)
    with pytest.raises(DomainError):
        power_monte_carlo(4, 4, 2, 0.9, t, mem, v_supply=0.0)
    with pytest.raises(DomainError):
        power_monte_carlo(4, 4, 2, 0.9, t, mem, pulse_width=0.0)
    with pytest.raises(DomainError):  # a seed stream needs entropy >= 0
        power_monte_carlo(4, 4, 2, 0.9, t, mem, seed=-1)

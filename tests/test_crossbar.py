"""Tiled differential crossbar engine: programming, MVM, energy, fidelity."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from onetr import (ANALYTICAL, IDEAL_SWITCH, DomainError, WcutSpec,
                   default_device, leakage_stressed_device, mvm_energy,
                   mvm_ideal, mvm_nonideal, mvm_nonideal_batch, program,
                   readout_gain, scale_from_range, solve_synapse_grid,
                   sweep_geff, tolerance_metric)
from onetr import crossbar

TM_THRESHOLD = 0.025


def _tileset(weights, device, table, v_g=0.8, a_max=1.0, unclipped=False,
             **kw):
    _, mem = device
    w = np.asarray(weights, dtype=float)
    scale = scale_from_range(float(np.max(np.abs(w))), mem)
    if unclipped:
        entry = WcutSpec(v_g, scale.w_r, None)
    else:
        cutoff = table.lookup(v_g)
        frac = (cutoff - mem.g_off) / (mem.g_on - mem.g_off)
        entry = WcutSpec(v_g, scale.w_r * frac, cutoff)
    return program(w, entry, scale, a_max=a_max, **kw), scale


def test_program_tile_geometry(device, table):
    rng = np.random.default_rng(0)
    w = rng.normal(size=(70, 37))
    ts, _ = _tileset(w, device, table, tile_rows=32, tile_cols=20)
    assert ts.shape == (70, 37)
    assert len(ts.tiles) == 3 * 2
    covered = np.zeros((70, 37), dtype=int)
    for tile in ts.tiles:
        r, c = tile.g_plus.shape
        assert tile.g_minus.shape == (r, c)
        covered[tile.row0:tile.row0 + r, tile.col0:tile.col0 + c] += 1
    assert np.all(covered == 1)


def test_program_counts_clipped_weights(device, table):
    w = np.array([[0.1, 2.0], [-2.0, 0.2]])
    ts, _ = _tileset(w, device, table, v_g=0.8)
    assert ts.clipped_count == 2
    assert ts.clipped_fraction == 0.5


def test_program_validates_inputs(device, table):
    _, mem = device
    scale = scale_from_range(1.0, mem)
    w = np.ones((2, 2))
    with pytest.raises(DomainError):
        program(w, WcutSpec(0.8, 1.5, None), scale)  # w_cut beyond range
    with pytest.raises(DomainError):
        program(w, WcutSpec(0.8, 1.0, None), scale, a_max=0.0)
    for v_g in (-0.1, float("nan")):  # the ideal-switch read relies on it
        with pytest.raises(DomainError):
            program(w, WcutSpec(v_g, 0.0, None), scale)
    with pytest.raises(DomainError):
        program(w, WcutSpec(0.8, 1.0, None), scale, tile_rows=0)
    with pytest.raises(DomainError):
        program(np.ones(4), WcutSpec(0.8, 1.0, None), scale)


def test_outputs_identical_for_any_tile_split(device, table):
    t, _ = device
    rng = np.random.default_rng(1)
    w = rng.normal(size=(70, 37))
    x = rng.uniform(0, 1.2, 70)
    reference = None
    for tile_rows, tile_cols in [(64, 64), (70, 37), (7, 5), (13, 40), (1, 1)]:
        ts, _ = _tileset(w, device, table, a_max=1.2,
                         tile_rows=tile_rows, tile_cols=tile_cols)
        out = mvm_nonideal(ts, x, t).outputs
        ideal = mvm_ideal(ts, x).outputs
        if reference is None:
            reference = (out, ideal)
        else:
            assert np.array_equal(out, reference[0])
            assert np.array_equal(ideal, reference[1])


def test_energy_consistent_across_tile_splits(device, table):
    # Resistive energy ignores the split; gate charge is paid once per
    # active row in each column of tiles.
    t, _ = device
    rng = np.random.default_rng(2)
    w = rng.normal(size=(33, 9))
    x = rng.uniform(0, 1.0, 33)
    x[[4, 17]] = 0.0
    active = np.count_nonzero(x > 0.0)
    resistive = []
    for tile_rows, tile_cols in [(64, 64), (8, 3), (33, 9), (5, 9)]:
        ts, _ = _tileset(w, device, table,
                         tile_rows=tile_rows, tile_cols=tile_cols)
        resistive.append(mvm_energy(ts, x, t, c_gate=0.0))
        gates = (active * math.ceil(9 / tile_cols)
                 * crossbar.DEFAULT_C_GATE * ts.v_g ** 2)
        assert mvm_energy(ts, x, t) - resistive[-1] == pytest.approx(
            gates, rel=1e-12, abs=0.0)
    assert resistive[0] > 0.0
    assert resistive == [resistive[0]] * len(resistive)


def test_ideal_path_reproduces_exact_product(device, table):
    rng = np.random.default_rng(3)
    for _ in range(10):
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 20))
        w = rng.normal(size=(rows, cols))
        a_max = float(rng.uniform(0.5, 3.0))
        ts, _ = _tileset(w, device, table, a_max=a_max, unclipped=True)
        x = rng.uniform(-0.5, a_max * 1.5, rows)
        exact = np.clip(x, 0.0, a_max) @ w
        got = mvm_ideal(ts, x).outputs
        assert np.allclose(got, exact, rtol=1e-12,
                           atol=1e-12 * max(1.0, np.max(np.abs(exact))))


def test_ideal_switch_equals_ideal_path(device, table):
    t, _ = device
    rng = np.random.default_rng(4)
    w = rng.normal(size=(25, 7))
    ts, _ = _tileset(w, device, table, unclipped=True)
    x = rng.uniform(0, 1.0, 25)
    ideal = mvm_ideal(ts, x).outputs
    switch = mvm_nonideal(ts, x, t, mode=IDEAL_SWITCH).outputs
    assert np.allclose(switch, ideal, rtol=1e-9,
                       atol=1e-9 * np.max(np.abs(ideal)))


def test_batch_matches_single_vectors(device, table):
    t, _ = device
    rng = np.random.default_rng(5)
    w = rng.normal(size=(12, 6))
    ts, _ = _tileset(w, device, table)
    batch = rng.uniform(0, 1.0, (5, 12))
    out = mvm_nonideal_batch(ts, batch, t).outputs
    assert out.shape == (5, 6)
    for i in range(5):
        single = mvm_nonideal(ts, batch[i], t).outputs
        assert np.array_equal(out[i], single)


@pytest.mark.parametrize("mode", [ANALYTICAL, IDEAL_SWITCH])
def test_batch_slicing_is_bit_identical(monkeypatch, device, table, mode):
    t, _ = device
    rng = np.random.default_rng(9)
    w = rng.normal(size=(12, 6))
    ts, _ = _tileset(w, device, table, tile_rows=5, tile_cols=4)
    batch = rng.uniform(0, 1.0, (7, 12))
    whole = mvm_nonideal_batch(ts, batch, t, mode=mode, pulse_width=1e-9)
    per_sample = 2 * 12 * 6
    monkeypatch.setattr(crossbar, "_MVM_BLOCK_CELLS", 3 * per_sample + 10)
    plans = []
    plan = crossbar._block_plan  # one plan per read: its batch slices

    def recording(n, cells):
        plans.append(list(plan(n, cells)))
        return iter(plans[-1])

    monkeypatch.setattr(crossbar, "_block_plan", recording)
    sliced = mvm_nonideal_batch(ts, batch, t, mode=mode, pulse_width=1e-9)
    assert [[b.stop - b.start for b in p] for p in plans] == [[3, 3, 1]]
    assert np.array_equal(sliced.outputs, whole.outputs)
    assert np.array_equal(sliced.column_currents, whole.column_currents)
    assert np.array_equal(sliced.energy, whole.energy)
    assert whole.energy.shape == (7,)


def _every_cell_solved(ts, x, t, mode, v_supply, pulse_width, c_gate):
    """The forward with every cell solved in one broadcast: column sums in
    global row order and each row driver billed ``v_r * sum_c I_rc``."""
    v = np.clip(x / ts.a_max, 0.0, 1.0) * v_supply
    cols = ts.shape[1]
    g_all = np.concatenate((ts.g_plus, ts.g_minus), axis=1)
    current = solve_synapse_grid(g_all, v[:, :, None], ts.v_g, t, mode)[0]
    col = current.sum(axis=1)
    i_plus, i_minus = col[:, :cols], col[:, cols:]
    gain = readout_gain(ts, t, mode, v_supply)
    outputs = (i_plus - i_minus) * (ts.scale.k_readout * gain * ts.a_max
                                    / v_supply)
    resistive = (v * current.sum(axis=2)).sum(axis=1)
    gates = (v > 0.0).sum(axis=1) * -(-cols // ts.tile_cols)
    energy = resistive * pulse_width + gates * c_gate * ts.v_g ** 2
    return outputs, np.stack([i_plus, i_minus], axis=-1), energy


@pytest.mark.parametrize("mode", [ANALYTICAL, IDEAL_SWITCH])
@pytest.mark.parametrize("which", ["device", "stressed"])
def test_forward_equals_every_cell_solved(monkeypatch, request, mode, which):
    # The analytical forward solves no zero-input cell and one g_off cell
    # per (sample, row), in one solve per slice, the first with the readout
    # gain's pair; its results must equal solving every cell.
    t, mem = request.getfixturevalue(which)
    rng = np.random.default_rng(12)
    w = rng.normal(size=(23, 11))
    w[:, [2, 7]] = 0.0  # both sides of these pairs rest at g_off
    w[4] = 0.0  # a row with no live cell: empty in the ragged index
    scale = scale_from_range(float(np.max(np.abs(w))), mem)
    ts = program(w, WcutSpec(0.8, 0.6 * scale.w_r, None), scale, a_max=1.5,
                 tile_rows=5, tile_cols=3)
    assert 0.0 < ts.clipped_fraction < 0.5
    x = rng.uniform(-0.5, 2.0, (9, 23))  # negatives read as zero
    x[[1, 6]] = 0.0  # all-zero samples
    x[rng.random(x.shape) < 0.3] = 0.0  # scattered zero inputs
    # Three samples per slice, the last slice partial.
    monkeypatch.setattr(crossbar, "_MVM_BLOCK_CELLS", 3 * 2 * 23 * 11 + 10)
    cells = []
    solve = crossbar.solve_synapse_grid

    def counting(g_m, v_in, *args):
        cells.append(np.broadcast(g_m, v_in).size)
        return solve(g_m, v_in, *args)

    monkeypatch.setattr(crossbar, "solve_synapse_grid", counting)
    got = mvm_nonideal_batch(ts, x, t, mode=mode, v_supply=0.4,
                             pulse_width=2e-9, c_gate=3e-15)
    solved = cells[:]  # before the reference's own readout_gain solve
    want = _every_cell_solved(ts, x, t, mode, 0.4, 2e-9, 3e-15)
    assert np.array_equal(got.outputs, want[0])
    assert np.array_equal(got.column_currents, want[1])
    assert np.array_equal(got.energy, want[2])
    if mode is ANALYTICAL:
        g_all = np.concatenate((ts.g_plus, ts.g_minus), axis=1)
        distinct = np.count_nonzero(g_all != mem.g_off, axis=1) + 1
        assert len(solved) == 3
        assert sum(solved) == int(((x > 0.0) @ distinct).sum()) + 2
    else:  # the ideal switch solves nothing, its gain is exactly one
        assert solved == []


def test_batch_slice_plan_bounds_cells():
    # The one block plan: in-order slices covering range(n), each of at
    # most _MVM_BLOCK_CELLS cells or one item; an empty range is one slice.
    for n, cells in [(10_000, 2 * 512 * 512), (10_000, 2 * 64 * 32), (9, 7),
                     (3, 1), (1, 1 << 40)]:
        plan = list(crossbar._block_plan(n, cells))
        assert [i for b in plan for i in range(n)[b]] == list(range(n))
        assert all(b.stop - b.start >= 1 for b in plan)
        assert all((b.stop - b.start) * cells
                   <= max(crossbar._MVM_BLOCK_CELLS, cells) for b in plan)
    assert len(list(crossbar._block_plan(10_000, 2 * 512 * 512))) == 10_000
    assert list(crossbar._block_plan(0, 5)) == [slice(0, 0)]
    # Lazy: a plan too long to list yields its first slices at once.
    plan = crossbar._block_plan(10 ** 13, crossbar._MVM_BLOCK_CELLS)
    assert list(itertools.islice(plan, 2)) == [slice(0, 1), slice(1, 2)]


def test_inputs_saturate_at_read_scale(device, table):
    t, _ = device
    w = np.array([[0.7], [-0.4]])
    ts, _ = _tileset(w, device, table, a_max=1.0)
    at_max = mvm_nonideal(ts, np.array([1.0, 1.0]), t).outputs
    beyond = mvm_nonideal(ts, np.array([4.0, 9.0]), t).outputs
    assert np.array_equal(at_max, beyond)


def test_mvm_validates_activations(device, table):
    t, _ = device
    ts, _ = _tileset(np.ones((3, 2)), device, table)
    with pytest.raises(DomainError):
        mvm_nonideal(ts, np.ones(4), t)
    with pytest.raises(DomainError):
        mvm_nonideal(ts, np.array([0.1, np.nan, 0.2]), t)
    for v_supply in (0.0, np.inf, np.nan):
        for mode in (ANALYTICAL, IDEAL_SWITCH):
            with pytest.raises(DomainError):
                mvm_nonideal(ts, np.ones(3), t, mode=mode, v_supply=v_supply)


def test_readout_gain_calibration(device, table):
    t, _ = device
    ts, _ = _tileset(np.ones((2, 2)), device, table, v_g=0.8)
    gain = readout_gain(ts, t)
    assert gain > 1.0  # compensates the series attenuation
    assert readout_gain(ts, t, mode=IDEAL_SWITCH) == 1.0

    _, mem = device
    scale = scale_from_range(1.0, mem)
    zero = program(np.ones((2, 2)), WcutSpec(0.8, 0.0, None), scale)
    assert readout_gain(zero, t) == 1.0


def test_cell_at_clip_level_is_exact_at_full_read(device, table):
    # The calibration anchor: one cell programmed at the clip level and read
    # at the full supply reproduces the ideal product.
    t, _ = device
    for vg in (0.7, 0.75, 0.8):
        ts, scale = _tileset(np.array([[1.0]]), device, table, v_g=vg)
        x = np.array([1.0])
        ideal = mvm_ideal(ts, x).outputs[0]
        non = mvm_nonideal(ts, x, t).outputs[0]
        assert non == pytest.approx(ideal, rel=1e-9)


def test_spread_below_cutoff_stays_within_threshold(device, table):
    # What the cutoff certifies: at any programmed conductance up to the
    # cutoff, the effective conductance varies by at most the tolerance
    # threshold across the read range.
    t, mem = device
    cutoff = table.lookup(0.8)
    for g in np.linspace(mem.g_off, cutoff, 7):
        tm = tolerance_metric(sweep_geff(g, 0.8, t)).tm
        assert tm <= TM_THRESHOLD + 1e-3


def test_pair_readout_spread_bounded_by_component_spreads(device, table):
    # A differential output divides by the small conductance difference, so
    # its input-dependence is bounded by the sum of the two cells' absolute
    # spreads over that difference, not by the threshold alone.
    t, mem = device
    for vg, frac in [(0.7, 1.0), (0.75, 1.0), (0.8, 1.0), (0.8, 0.5)]:
        # Column 0 holds the pair under test; column 1 pins the layer range.
        ts, scale = _tileset(np.array([[frac, 1.0]]), device, table, v_g=vg)
        w_prog = min(frac, ts.w_cut)
        g_active = mem.g_off + w_prog * scale.s
        curve_a = sweep_geff(g_active, vg, t)
        curve_o = sweep_geff(mem.g_off, vg, t)
        active = tolerance_metric(curve_a)
        rest = tolerance_metric(curve_o)
        d_full = curve_a.g_eff[-1] - curve_o.g_eff[-1]
        bound = (active.tm * active.g_eff_max
                 + rest.tm * rest.g_eff_max) / d_full + 1e-3

        grid = np.linspace(1.0 / 64, 1.0, 32)
        reads = np.array([mvm_nonideal(ts, np.array([a]), t).outputs[0] / a
                          for a in grid])
        anchor = reads[-1]
        assert anchor > 0.0
        assert np.max(np.abs(reads - anchor)) / anchor <= bound


def test_column_deviation_bounded_by_gain_excess(device, table):
    # One multiplicative gain per layer cannot flatten the conductance axis;
    # the residual per physical column is bounded by the gain excess plus
    # the read-range spread.
    t, _ = device
    rng = np.random.default_rng(6)
    w = rng.uniform(-1.0, 1.0, (24, 8))
    ts, _ = _tileset(w, device, table, v_g=0.8)
    gain = readout_gain(ts, t)
    bound = (gain - 1.0) + TM_THRESHOLD + 1e-3
    for _ in range(5):
        x = rng.uniform(0, 1.0, 24)
        ic = mvm_ideal(ts, x).column_currents
        nc = mvm_nonideal(ts, x, t).column_currents
        assert np.max(np.abs(nc * gain - ic) / ic) <= bound


def test_energy_scales_with_pulse_width(device, table):
    t, _ = device
    rng = np.random.default_rng(7)
    w = rng.normal(size=(10, 4))
    ts, _ = _tileset(w, device, table)
    x = rng.uniform(0, 1.0, 10)
    short = mvm_energy(ts, x, t, pulse_width=1e-9, c_gate=0.0)
    long = mvm_energy(ts, x, t, pulse_width=2e-9, c_gate=0.0)
    assert long == pytest.approx(2.0 * short, rel=1e-12)
    assert mvm_energy(ts, np.zeros(10), t) == 0.0


@st.composite
def crossbar_reads(draw):
    """A small layer programmed at two tile splits, (batch, rows) activations
    with zero and negative inputs, a sample order, the clipped weights, a
    device and mode, and a sample count per batch slice."""
    t, mem = draw(st.sampled_from([default_device(),
                                   leakage_stressed_device()]))
    rows, cols, batch = (draw(st.integers(1, 6)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    w = rng.normal(size=(rows, cols))
    w[rng.random(w.shape) < 0.25] = 0.0  # pairs resting at g_off
    scale = scale_from_range(max(float(np.max(np.abs(w))), 1e-3), mem)
    entry = WcutSpec(draw(st.sampled_from([0.5, 0.8, 1.0, 1.8])),
                     draw(st.floats(0.1, 1.0)) * scale.w_r, None)
    a_max = draw(st.floats(0.5, 2.0))
    ts, resplit = (program(w, entry, scale, a_max=a_max,
                           tile_rows=draw(st.integers(1, 7)),
                           tile_cols=draw(st.integers(1, 7)))
                   for _ in range(2))
    x = rng.uniform(-0.5, 2.5, (batch, rows))  # negatives read as zero
    x[rng.random(x.shape) < 0.3] = 0.0
    return (ts, resplit, x, draw(st.permutations(range(batch))),
            np.clip(w, -entry.w_cut, entry.w_cut), t,
            draw(st.sampled_from([ANALYTICAL, IDEAL_SWITCH])),
            draw(st.integers(1, 3)))


@st.composite
def energy_reads(draw):
    """A read of ``crossbar_reads`` with a pulse width and a gate charge."""
    ts, _, x, _, _, t, mode, per_slice = draw(crossbar_reads())
    return (ts, x, t, mode, draw(st.floats(1e-10, 1e-8)),
            draw(st.floats(1e-16, 1e-13)), per_slice)


@settings(max_examples=60)
@given(crossbar_reads())
def test_read_properties(read):
    # Outputs and column currents are bit-identical under a second tile
    # split, any sample order and any batch slicing.
    ts, resplit, x, order, _, t, mode, per_slice = read
    rows, cols = ts.shape

    def fields(ts, x):
        r = mvm_nonideal_batch(ts, x, t, mode=mode)
        return r.outputs, r.column_currents

    want = fields(ts, x)
    assert all(map(np.array_equal, fields(resplit, x), want))
    assert all(map(np.array_equal, fields(ts, x[order]),
                   (f[order] for f in want)))
    with mock.patch.object(crossbar, "_MVM_BLOCK_CELLS",
                           per_slice * 2 * rows * cols):
        assert all(map(np.array_equal, fields(ts, x), want))


@settings(max_examples=60)
@given(crossbar_reads())
def test_ideal_switch_reads_the_exact_clipped_product(read):
    # The bound scales with the sums of |terms|: where the terms cancel, the
    # reference product is itself rounding noise.
    ts, _, x, _, w_clip, t, _, _ = read
    assume(ts.v_g > t.vth)
    a = np.clip(x, 0.0, ts.a_max)
    got = mvm_nonideal_batch(ts, x, t, mode=IDEAL_SWITCH).outputs
    np.testing.assert_allclose(got, a @ w_clip, rtol=1e-12,
                               atol=1e-12 * np.max(a @ np.abs(w_clip)))


@settings(max_examples=60)
@given(energy_reads())
def test_energy_properties(read):
    # Each row driver is billed v_r * sum_c I_rc for the pulse, plus one
    # gate charge per active row in each column of tiles.
    ts, x, t, mode, pulse_width, c_gate, per_slice = read
    rows, cols = ts.shape

    def energy(x, pulse_width=pulse_width, c_gate=c_gate):
        return mvm_nonideal_batch(ts, x, t, mode=mode, v_supply=0.5,
                                  pulse_width=pulse_width,
                                  c_gate=c_gate).energy

    e, e0 = energy(x), energy(x, c_gate=0.0)
    assert np.all(e0 >= 0.0) and np.all(e >= e0)
    assert np.array_equal(energy(x, 2 * pulse_width, 0.0), 2 * e0)
    active = np.count_nonzero(x > 0.0, axis=1)
    gates = active * -(-cols // ts.tile_cols) * c_gate * ts.v_g ** 2
    assert np.all(np.abs(e - e0 - gates) <= 1e-12 * e)
    v = np.clip(x / ts.a_max, 0.0, 1.0) * 0.5
    g_all = np.concatenate((ts.g_plus, ts.g_minus), axis=1)
    current = solve_synapse_grid(g_all, v[:, :, None], ts.v_g, t, mode)[0]
    every_cell = pulse_width * (v[:, :, None] * current).sum(axis=(1, 2))
    assert np.all(np.abs(e0 - every_cell) <= 1e-12 * every_cell)
    order = np.random.default_rng(rows * cols).permutation(len(x))
    assert np.array_equal(energy(x[order]), e[order])
    with mock.patch.object(crossbar, "_MVM_BLOCK_CELLS",
                           per_slice * 2 * rows * cols):
        assert np.array_equal(energy(x), e)


@pytest.mark.parametrize("mode", [ANALYTICAL, IDEAL_SWITCH])
@pytest.mark.parametrize("v_supply, v_g", [(1e300, 0.8), (0.5, 1e200)])
def test_read_energy_beyond_float_range_is_refused(device, mode, v_supply,
                                                   v_g):
    t, mem = device
    scale = scale_from_range(1.0, mem)
    ts = program(np.array([[0.7, -0.2], [0.4, 0.9]]),
                 WcutSpec(v_g, scale.w_r, None), scale)
    with pytest.raises(DomainError, match="read energy failed"):
        mvm_nonideal_batch(ts, np.ones((2, 2)), t, mode=mode,
                           v_supply=v_supply, pulse_width=1e-9)


def test_programmed_layers_compare_by_identity(device, table):
    w = np.random.default_rng(11).normal(size=(2, 2))
    a, _ = _tileset(w, device, table)
    b, _ = _tileset(w, device, table)
    assert (a == b) is False
    assert (a == a) is True
    assert (a.tiles[0] == b.tiles[0]) is False
    x = np.array([0.3, 0.7])
    assert (mvm_ideal(a, x) == mvm_ideal(a, x)) is False

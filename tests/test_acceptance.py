"""End-to-end acceptance checks.

Each test covers one release criterion and reports a PASS/FAIL line in the
terminal summary. Runtime ceilings are asserted alongside the functional
claims so the suite stays usable on a laptop.
"""

import filecmp
import time

import numpy as np
import pytest
from conftest import acceptance

from onetr import (IDEAL_SWITCH, Model, TrainConfig, WcutSpec, accuracy,
                   clip_model, clip_weights, cutoff_table, evaluate,
                   find_gm_cutoff, homogeneous_schedule, iterative_train,
                   linear_fraction, mvm_nonideal, network_energy,
                   power_monte_carlo, program, program_model,
                   scale_from_range, search_heterogeneous_vg, solve_synapse_grid,
                   train, transistor_current)
from onetr.calibrate import VG_GRID
from onetr.cli import main as cli_main
from onetr.mapping import layer_scale
from onetr.training import FLAG_FIRST_COVERS, FLAG_NO_COVERAGE, FLAG_NONE


def test_01_solver_residual(device):
    with acceptance("01 solver-residual"):
        t, mem = device
        start = time.monotonic()
        rng = np.random.default_rng(42)
        n = 10_000
        g_m = rng.uniform(mem.g_off, mem.g_on, n)
        v_in = rng.uniform(1e-9, 0.5, n)
        v_g = rng.uniform(0.0, 1.2, n)
        current, x, _ = solve_synapse_grid(g_m, v_in, v_g, t)
        residual = (v_in - x) * g_m - transistor_current(v_g, x, t)
        scale = np.maximum(np.abs(current), g_m * v_in)
        assert np.max(np.abs(residual) / scale) < 1e-9
        assert time.monotonic() - start < 5.0


def test_02_ideal_switch_matches_exact_product(device):
    with acceptance("02 ideal-limit equivalence"):
        t, mem = device
        rng = np.random.default_rng(7)
        for _ in range(100):
            rows = int(rng.integers(1, 129))
            cols = int(rng.integers(1, 129))
            w = rng.normal(size=(rows, cols))
            scale = scale_from_range(float(np.max(np.abs(w))), mem)
            w_cut = float(rng.uniform(0.3, 1.0)) * scale.w_r
            a_max = float(rng.uniform(0.5, 2.0))
            ts = program(w, WcutSpec(0.9, w_cut, None), scale, a_max=a_max)
            x = rng.uniform(-0.2, a_max * 1.2, rows)
            exact = np.clip(x, 0.0, a_max) @ clip_weights(w, w_cut)
            got = mvm_nonideal(ts, x, t, mode=IDEAL_SWITCH).outputs
            tol = 1e-9 * max(1.0, float(np.max(np.abs(exact))))
            assert np.allclose(got, exact, rtol=1e-9, atol=tol)


def test_03_cutoff_table_shape(device, stressed):
    with acceptance("03 cutoff-table shape"):
        start = time.monotonic()
        t, mem = device
        table = cutoff_table(VG_GRID, t, mem)
        mid = table.lookup(0.8)
        assert mid is not None and mem.g_off < mid < mem.g_on
        top = table.lookup(1.0)
        assert top is not None and top >= 0.9 * mem.g_on
        cutoffs = [table.lookup(vg) for vg in table.gate_voltages()]
        assert all(c is not None for c in cutoffs)
        assert all(a <= b + 1e-18 for a, b in zip(cutoffs, cutoffs[1:]))
        ts, mems = stressed
        assert find_gm_cutoff(1.3, ts, mems) is None
        assert time.monotonic() - start < 30.0


def test_04_weight_clipping():
    with acceptance("04 weight clipping"):
        assert clip_weights(0.5, 0.3) == 0.3
        assert clip_weights(-0.5, 0.3) == -0.3
        assert clip_weights(0.1, 0.3) == 0.1
        rng = np.random.default_rng(3)
        w = rng.uniform(-2.0, 2.0, 1_000_000)
        w_cut = 0.7
        once = clip_weights(w, w_cut)
        assert np.array_equal(clip_weights(once, w_cut), once)
        assert np.all(np.abs(once) <= w_cut)
        inside = np.abs(w) <= w_cut
        assert np.array_equal(once[inside], w[inside])


def _oracle_pick(specs, w_r, grid):
    first = next((k for k, s in enumerate(specs) if s.w_cut >= w_r), None)
    if first is None:
        return len(grid) - 1, FLAG_NO_COVERAGE
    if first == 0:
        return 0, FLAG_FIRST_COVERS
    return first - 1, FLAG_NONE


def test_05_vg_search_matches_bruteforce(device, table):
    with acceptance("05 vg-search oracle"):
        _, mem = device
        rng = np.random.default_rng(11)
        for trial in range(50):
            n_layers = int(rng.integers(1, 4))
            dims = [int(rng.integers(2, 9)) for _ in range(n_layers + 1)]
            model = Model.new(dims, seed=trial)
            grid = sorted(set(np.round(rng.uniform(0.5, 1.2, int(rng.integers(2, 8))), 3)))
            multipliers = {v: float(rng.uniform(0.2, 1.8)) for v in grid}

            def provider(v_g, scale, m=multipliers):
                frac = m[v_g] + 0.25 * np.sin(37.0 * scale.w_r)
                return WcutSpec(v_g, max(frac, 0.0) * scale.w_r, None)

            schedule = search_heterogeneous_vg(model, None, mem, grid=grid,
                                               wcut_provider=provider)
            for i, layer in enumerate(model.dense_layers()):
                scale = layer_scale(layer.w, mem)
                specs = [provider(v, scale) for v in grid]
                pick, flag = _oracle_pick(specs, scale.w_r, grid)
                entry = schedule.entries[i]
                assert entry.v_g == grid[pick]
                assert entry.flag == flag
                assert entry.w_cut == specs[pick].w_cut

        # Stub edge tables with pinned outcomes on a layer with w_r = 0.15.
        model = Model.new([4, 3], seed=0)
        layer = model.dense_layers()[0]
        layer.w[:] = 0.01
        layer.w[0, 0] = 0.15
        grid = [0.70, 0.75, 0.80]

        def from_table(values):
            return lambda v, scale: WcutSpec(v, values[v], None)

        sched = search_heterogeneous_vg(
            model, None, mem, grid=grid,
            wcut_provider=from_table({0.70: 0.1, 0.75: 0.2, 0.80: 0.3}))
        # Coverage first happens at 0.75, so the search steps down to 0.70.
        assert sched.entries[0].w_r == 0.15
        assert sched.entries[0].v_g == 0.70
        assert sched.entries[0].flag == FLAG_NONE

        sched = search_heterogeneous_vg(
            model, None, mem, grid=grid,
            wcut_provider=from_table({0.70: 10.0, 0.75: 10.0, 0.80: 10.0}))
        assert sched.entries[0].v_g == 0.70
        assert sched.entries[0].flag == FLAG_FIRST_COVERS

        sched = search_heterogeneous_vg(
            model, None, mem, grid=grid,
            wcut_provider=from_table({0.70: 0.0, 0.75: 0.0, 0.80: 0.0}))
        assert sched.entries[0].v_g == 0.80
        assert sched.entries[0].flag == FLAG_NO_COVERAGE


def test_06_retrain_recovers_clipped_network(device, table, blobs,
                                             baseline_model, het_schedule):
    with acceptance("06 clip-and-retrain recovery"):
        start = time.monotonic()
        t, mem = device

        # (a) searched schedule: most weights end up inside the window
        model, _ = iterative_train(baseline_model.copy(), het_schedule,
                                   blobs.x_train, blobs.y_train,
                                   TrainConfig(learning_rate=1e-5, epochs=0,
                                               seed=0))
        _, overall = linear_fraction(model, het_schedule)
        assert overall >= 0.95

        # (b) aggressive low-voltage schedule: retraining must beat clipping
        clip_accs, neat_accs = [], []
        for seed in range(5):
            base = Model.new([blobs.n_features, 32, blobs.n_classes],
                             seed=seed)
            train(base, blobs.x_train, blobs.y_train, TrainConfig(seed=seed))
            low = homogeneous_schedule(base, 0.70, table, mem)
            clip_accs.append(evaluate(base, blobs.x_test, blobs.y_test,
                                      low, t, mem, blobs.x_train))
            retrained, _ = iterative_train(base.copy(), low, blobs.x_train,
                                           blobs.y_train,
                                           TrainConfig(learning_rate=1e-5,
                                                       epochs=0, seed=seed))
            neat_accs.append(evaluate(retrained, blobs.x_test, blobs.y_test,
                                      low, t, mem, blobs.x_train))
        assert np.mean(neat_accs) > np.mean(clip_accs)
        assert time.monotonic() - start < 300.0


def test_07_clip_only_drop_is_small(blobs, baseline_model, het_schedule):
    with acceptance("07 clip-only drop at searched voltages"):
        start = time.monotonic()
        base_acc = accuracy(baseline_model, blobs.x_test, blobs.y_test)
        clipped = clip_model(baseline_model.copy(), het_schedule)
        clip_acc = accuracy(clipped, blobs.x_test, blobs.y_test)
        assert base_acc - clip_acc <= 0.02 + 1e-12
        assert time.monotonic() - start < 60.0


def test_08_energy_trends(device, table, blobs, baseline_model):
    with acceptance("08 power and energy trends"):
        start = time.monotonic()
        t, mem = device
        powers = [power_monte_carlo(16, 16, 200, vg, t, mem, seed=0).mean_power
                  for vg in (0.8, 0.9, 1.0)]
        assert powers[0] < powers[1] < powers[2]

        biases = [l.b for l in baseline_model.dense_layers()]
        energies = {}
        for vg in (0.8, 1.0):
            sched = homogeneous_schedule(baseline_model, vg, table, mem)
            tilesets = program_model(baseline_model, sched, mem,
                                     blobs.x_train)
            energies[vg] = network_energy(tilesets, biases,
                                          blobs.x_test[:100], t)["total"]
        gain = 100.0 * (energies[1.0] - energies[0.8]) / energies[1.0]
        assert gain > 0.0
        assert time.monotonic() - start < 60.0


def test_09_gradient_check():
    with acceptance("09 gradient check"):
        rng = np.random.default_rng(5)
        for trial in range(20):
            dims = [int(rng.integers(2, 6)) for _ in range(3)]
            model = Model.new(dims, seed=trial)
            x = rng.normal(size=(4, dims[0]))
            y = rng.integers(0, dims[-1], 4)
            model.loss_and_gradients(x, y)
            # Each layer's w and b with a copy of its analytic gradient.
            analytic = [(p, g.copy()) for l in model.dense_layers()
                        for p, g in ((l.w, l.dw), (l.b, l.db))]
            h = 1e-6
            for p, g in analytic:
                flat = p.reshape(-1)
                for idx in rng.choice(flat.size, size=min(5, flat.size),
                                      replace=False):
                    keep = flat[idx]
                    flat[idx] = keep + h
                    loss_up = model.loss_and_gradients(x, y)
                    flat[idx] = keep - h
                    loss_down = model.loss_and_gradients(x, y)
                    flat[idx] = keep
                    numeric = (loss_up - loss_down) / (2 * h)
                    ana = g.reshape(-1)[idx]
                    denom = max(abs(numeric), abs(ana), 1e-8)
                    assert abs(numeric - ana) / denom < 1e-4


def test_10_cli_reruns_are_byte_identical(tmp_path, monkeypatch):
    with acceptance("10 deterministic CLI artifacts"):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            out.mkdir()
            monkeypatch.chdir(out)  # same relative paths in both manifests
            assert cli_main(["train", "--out", "train", "--epochs", "6",
                             "--hidden", "8"]) == 0
            assert cli_main(["neat", "--out", "neat", "--checkpoint",
                             "train/checkpoint.json", "--iters", "3",
                             "--epochs-per-iter", "1"]) == 0
            outs.append(out)
        names = sorted(str(p.relative_to(outs[0]))
                       for p in outs[0].rglob("*") if p.is_file())
        assert names == sorted(str(p.relative_to(outs[1]))
                               for p in outs[1].rglob("*") if p.is_file())
        assert "train/checkpoint.json" in names
        assert "neat/neat_checkpoint.json" in names
        assert "neat/history.csv" in names
        for name in names:
            assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name

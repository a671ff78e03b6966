"""Gate-voltage schedules, clip-and-retrain, programming and evaluation."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onetr import (ANALYTICAL, IDEAL_SWITCH, DomainError, Model, TrainConfig,
                   WcutSpec, clip_model, crossbar_forward, cutoff_table,
                   evaluate, homogeneous_schedule, iterative_train,
                   linear_fraction, load_checkpoint, mvm_energy_batch,
                   mvm_nonideal_batch, network_energy, program_model,
                   save_checkpoint, schedule_from_dict, schedule_to_dict,
                   search_heterogeneous_vg, step_down_schedule)
from onetr.training import (DEFAULT_PERCENTILE, FLAG_FIRST_COVERS,
                            FLAG_NO_COVERAGE, VgSchedule, _activation_ceiling)


def test_search_assigns_one_step_below_coverage(baseline_model, table,
                                                device, het_schedule):
    _, mem = device
    assert het_schedule.mode == "heterogeneous"
    assert len(het_schedule.entries) == len(baseline_model.dense_layers())
    for e in het_schedule.entries:
        assert e.flag == ""
        assert e.w_cut < e.w_r  # the assigned voltage does not cover
        # The next grid point up is the first that covers the layer range.
        nxt = het_schedule.grid[het_schedule.grid.index(e.v_g) + 1]
        up = homogeneous_schedule(baseline_model, nxt, table, mem)
        assert up.entries[e.layer].w_cut >= e.w_r


def test_search_flags_edge_cases(device):
    _, mem = device
    model = Model.new([3, 4, 2], seed=0)
    grid = [0.7, 0.8, 0.9]

    def always_covers(v_g, scale):
        return WcutSpec(v_g, scale.w_r * 2.0, None)

    def never_covers(v_g, scale):
        return WcutSpec(v_g, scale.w_r * 0.1, None)

    first = search_heterogeneous_vg(model, None, mem, grid=grid,
                                    wcut_provider=always_covers)
    assert all(e.v_g == 0.7 and e.flag == FLAG_FIRST_COVERS
               for e in first.entries)

    last = search_heterogeneous_vg(model, None, mem, grid=grid,
                                   wcut_provider=never_covers)
    assert all(e.v_g == 0.9 and e.flag == FLAG_NO_COVERAGE
               for e in last.entries)

    def covers_from_mid(v_g, scale):
        return WcutSpec(v_g, scale.w_r * (2.0 if v_g >= 0.8 else 0.5), None)

    mid = search_heterogeneous_vg(model, None, mem, grid=grid,
                                  wcut_provider=covers_from_mid)
    assert all(e.v_g == 0.7 and e.flag == "" for e in mid.entries)


def test_search_requires_grid_with_provider(device, table):
    _, mem = device
    model = Model.new([3, 2], seed=0)
    provider = lambda v, s: WcutSpec(v, 1, None)  # noqa: E731
    with pytest.raises(DomainError):
        search_heterogeneous_vg(model, None, mem, wcut_provider=provider)
    # An empty grid, or one with a repeated point, is refused as well.
    for grid in ([], [0.8, 0.8]):
        with pytest.raises(DomainError):
            search_heterogeneous_vg(model, None, mem, grid=grid,
                                    wcut_provider=provider)
        with pytest.raises(DomainError):
            search_heterogeneous_vg(model, table, mem, grid=grid)


def test_homogeneous_schedule_checks_grid(baseline_model, table, device):
    _, mem = device
    sched = homogeneous_schedule(baseline_model, 0.9, table, mem)
    assert sched.mode == "homogeneous"
    assert all(e.v_g == 0.9 for e in sched.entries)
    with pytest.raises(DomainError):
        homogeneous_schedule(baseline_model, 0.62, table, mem)


def test_step_down_recomputes_clip_levels(baseline_model, table, device):
    _, mem = device
    sched = homogeneous_schedule(baseline_model, 0.75, table, mem)
    down = step_down_schedule(sched, table, mem)
    assert all(e.v_g == 0.7 for e in down.entries)
    ref = homogeneous_schedule(baseline_model, 0.7, table, mem)
    for a, b in zip(down.entries, ref.entries):
        assert a.w_cut == pytest.approx(b.w_cut)
    # Already at the bottom of the grid: stays put.
    again = step_down_schedule(down, table, mem)
    assert all(e.v_g == 0.7 for e in again.entries)


def test_schedule_serialization_round_trip(het_schedule):
    raw = schedule_to_dict(het_schedule)
    json.dumps(raw)  # must be plain JSON types
    back = schedule_from_dict(raw)
    assert back == het_schedule
    with pytest.raises(DomainError):
        VgSchedule("sideways", (0.7,), ())


def test_schedule_grid_must_increase(het_schedule):
    # Step-down walks the grid by position, so an unsorted grid would raise
    # voltages: grid [1.0, 0.9, 0.8] steps an entry at 0.9 "down" to 1.0.
    raw = schedule_to_dict(het_schedule)
    for grid in ([1.0, 0.9, 0.8], [0.9, 0.9], []):
        with pytest.raises(DomainError, match="strictly increasing"):
            schedule_from_dict({**raw, "grid": grid})


def test_loader_rejects_an_entry_off_its_grid():
    # The loader used to take this entry, and step_down_schedule then raised.
    raw = {"mode": "heterogeneous", "grid": [0.7, 0.8],
           "entries": [{"layer": 0, "v_g": 0.75, "w_cut": 0.5, "w_r": 1.0,
                        "g_m_cutoff": None, "flag": ""}]}
    with pytest.raises(DomainError, match="malformed schedule payload: "
                                          "v_g=0.75 is not on"):
        schedule_from_dict(raw)


def test_clip_model_enforces_schedule(baseline_model, het_schedule):
    model = Model.from_dict(baseline_model.to_dict())
    clip_model(model, het_schedule)
    for layer, e in zip(model.dense_layers(), het_schedule.entries):
        assert np.max(np.abs(layer.w)) <= e.w_cut
    per_layer, overall = linear_fraction(model, het_schedule)
    assert overall == 1.0
    assert all(f == 1.0 for f in per_layer)


def test_schedule_alignment_is_checked(het_schedule):
    wrong = Model.new([16, 8, 8, 3], seed=0)
    with pytest.raises(DomainError):
        clip_model(wrong, het_schedule)


def test_iterative_train_history_and_determinism(baseline_model, het_schedule,
                                                 blobs):
    cfg = TrainConfig(learning_rate=1e-5, epochs=0, seed=0, n_iterations=3)
    runs = []
    for _ in range(2):
        model, history = iterative_train(
            Model.from_dict(baseline_model.to_dict()), het_schedule,
            blobs.x_train, blobs.y_train, cfg, eval_x=blobs.x_test,
            eval_y=blobs.y_test)
        assert [h["iteration"] for h in history] == [1, 2, 3]
        assert all(0.0 <= h["accuracy"] <= 1.0 for h in history)
        assert all(0.0 <= h["linear_fraction"] <= 1.0 for h in history)
        runs.append(model)
    for a, b in zip(runs[0].dense_layers(), runs[1].dense_layers()):
        assert np.array_equal(a.w, b.w)


def test_iterative_train_refuses_a_one_sided_eval_split(baseline_model,
                                                        het_schedule, blobs):
    # eval_x alone would score every round against None (accuracy 0.0),
    # and eval_y alone would score the training split.
    cfg = TrainConfig(learning_rate=1e-5, epochs=0, seed=0, n_iterations=1)
    for one_sided in ({"eval_x": blobs.x_test}, {"eval_y": blobs.y_test}):
        model = Model.from_dict(baseline_model.to_dict())
        with pytest.raises(DomainError, match="both eval_x and eval_y"):
            iterative_train(model, het_schedule, blobs.x_train,
                            blobs.y_train, cfg, **one_sided)
        assert np.array_equal(model.flat_params, baseline_model.flat_params)


def test_program_model_builds_one_tileset_per_layer(baseline_model,
                                                    het_schedule, blobs,
                                                    device):
    _, mem = device
    tilesets = program_model(baseline_model, het_schedule, mem,
                             blobs.x_train[:256])
    dense = baseline_model.dense_layers()
    assert len(tilesets) == len(dense)
    for ts, layer in zip(tilesets, dense):
        assert ts.shape == layer.w.shape
        assert ts.a_max > 0.0
    with pytest.raises(DomainError):
        program_model(baseline_model, het_schedule, mem, blobs.x_train[0])


@st.composite
def calibration_inputs(draw):
    """Activation-like arrays: heavy ties, zeros of both signs, ReLU zeros,
    negatives, infinities, at most one NaN, in drawn or sorted order."""
    n = draw(st.integers(1, 5000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(draw(st.floats(-2.0, 2.0)), 1.0, n)
    if draw(st.booleans()):
        a = np.round(a, draw(st.integers(0, 2)))  # heavy ties
    if draw(st.booleans()):
        a *= a > 0.0  # ReLU: negatives become -0.0
    for pair, shares in (((0.0, -0.0), [0.0, 0.001, 0.3, 0.9]),
                         ((np.inf, -np.inf), [0.0, 0.0, 0.0, 0.0005, 0.002])):
        for value in pair:
            a[rng.random(n) < draw(st.sampled_from(shares))] = value
    if draw(st.integers(0, 3)) == 0:
        a[rng.integers(n)] = np.nan
    order = draw(st.sampled_from(["drawn", "sorted", "reversed"]))
    return {"drawn": a, "sorted": np.sort(a),
            "reversed": np.sort(a)[::-1]}[order]


@settings(max_examples=300)
@given(calibration_inputs())
def test_activation_ceiling_is_the_percentile(a):
    # Equal as floats, so bit for bit, but for the sign of a zero ceiling:
    # it follows where a partition leaves zeros of both signs, and
    # program_model refuses a zero ceiling of either sign.
    with np.errstate(invalid="ignore"):  # inf - inf at the ranks is NaN
        got = _activation_ceiling(a)
        want = np.percentile(a, DEFAULT_PERCENTILE)
    assert got == want or (np.isnan(got) and np.isnan(want))


def test_program_model_ceilings_are_the_calibration_percentile(
        baseline_model, het_schedule, blobs, device):
    _, mem = device
    for calib in (blobs.x_train, blobs.x_train[:2], blobs.x_train[1:300]):
        tilesets = program_model(baseline_model, het_schedule, mem, calib)
        inputs = baseline_model.activations(calib)
        for ts, layer_inputs in zip(tilesets, inputs):
            want = np.percentile(layer_inputs, DEFAULT_PERCENTILE)
            assert np.float64(ts.a_max).tobytes() == want.tobytes()
    dead = Model.from_dict(baseline_model.to_dict())
    dead.layers[0].b[:] = -1e6  # every hidden input is a ReLU zero
    with pytest.raises(DomainError, match="layer 1: calibration activations"):
        program_model(dead, het_schedule, mem, blobs.x_train)


def test_evaluate_is_argmax_of_crossbar_logits(baseline_model, het_schedule,
                                               blobs, device):
    t, mem = device
    calib, x, y = blobs.x_train[:256], blobs.x_test[:100], blobs.y_test[:100]
    for mode in (ANALYTICAL, IDEAL_SWITCH):
        logits = crossbar_forward(baseline_model, x, het_schedule, t, mem,
                                  calib, mode)[0]
        want = float(np.mean(np.argmax(logits, axis=1) == y))
        assert evaluate(baseline_model, x, y, het_schedule, t, mem, calib,
                        mode) == want


def test_network_energy_totals(baseline_model, het_schedule, blobs, device):
    t, mem = device
    energy = network_energy(baseline_model, blobs.x_test[:50], het_schedule,
                            t, mem, blobs.x_train[:256])
    assert len(energy["per_layer"]) == len(baseline_model.dense_layers())
    assert all(e > 0.0 for e in energy["per_layer"])
    assert energy["total"] == sum(energy["per_layer"])


def test_network_energy_needs_a_pulse_width(baseline_model, het_schedule,
                                            blobs, device):
    t, mem = device
    for pulse_width in (None, float("nan"), 0.0):
        with pytest.raises(DomainError, match="pulse"):
            network_energy(baseline_model, blobs.x_test[:5], het_schedule, t,
                           mem, blobs.x_train[:64], pulse_width=pulse_width)


def test_network_energy_is_one_forward_pass(baseline_model, het_schedule,
                                            blobs, device):
    t, mem = device
    calib, x, y = blobs.x_train[:256], blobs.x_test[:60], blobs.y_test[:60]
    energy = network_energy(baseline_model, x, het_schedule, t, mem, calib)
    logits, per_layer = crossbar_forward(baseline_model, x, het_schedule, t,
                                         mem, calib)
    assert np.array_equal(energy["logits"], logits)
    assert per_layer is None  # no pulse width, no energy

    # Each layer is billed for the activations the chain hands it.
    tilesets = program_model(baseline_model, het_schedule, mem, calib)
    biases = [l.b for l in baseline_model.dense_layers()]
    acts, billed = x, []
    for i, (ts, b) in enumerate(zip(tilesets, biases)):
        billed.append(float(np.sum(mvm_energy_batch(ts, acts, t))))
        acts = mvm_nonideal_batch(ts, acts, t).outputs + b
        acts = np.maximum(acts, 0.0) if i < len(tilesets) - 1 else acts
    assert energy["per_layer"] == billed
    assert np.array_equal(acts, logits)

    # The accuracy report reads off these logits is evaluate's.
    acc = float(np.mean(np.argmax(energy["logits"], axis=1) == y))
    assert acc == evaluate(baseline_model, x, y, het_schedule, t, mem, calib)


def test_checkpoint_round_trip(tmp_path, baseline_model, het_schedule):
    path = tmp_path / "checkpoint.json"
    cfg = TrainConfig(learning_rate=1e-5, epochs=0, seed=3)
    history = [{"iteration": 1, "accuracy": 0.9, "linear_fraction": 0.8}]
    save_checkpoint(path, baseline_model, schedule=het_schedule, config=cfg,
                    history=history)
    back = load_checkpoint(path)
    assert back.model.dims == baseline_model.dims
    for a, b in zip(back.model.dense_layers(),
                    baseline_model.dense_layers()):
        assert np.array_equal(a.w, b.w)
    assert back.schedule == het_schedule
    assert back.config == cfg
    assert back.history == history


def test_checkpoint_rejects_bad_files(tmp_path, baseline_model):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, baseline_model)
    raw = json.loads(path.read_text())
    raw["format_version"] = 12
    path.write_text(json.dumps(raw))
    with pytest.raises(DomainError):
        load_checkpoint(path)
    path.write_text("{not json")
    with pytest.raises(DomainError):
        load_checkpoint(path)

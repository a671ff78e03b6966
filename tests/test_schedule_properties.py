"""Properties of the schedule chain: build, clip, step down, save and load."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from onetr import (CutoffTable, DomainError, Model, clip_model,
                   default_device, homogeneous_schedule, schedule_from_dict,
                   schedule_to_dict, search_heterogeneous_vg,
                   step_down_schedule)

_, MEM = default_device()
VOLTAGES = (0.6, 0.7, 0.75, 0.8, 0.9, 1.0)
EXAMPLES = settings(max_examples=40)

# A cutoff anywhere from below g_off (clip level 0) to above g_on (covers),
# or at g_on, where the bundled device's cutoff saturates.
cutoffs = st.one_of(st.none(), st.just(MEM.g_on),
                    st.floats(0.5 * MEM.g_off, 1.2 * MEM.g_on))


@st.composite
def tables(draw):
    """A cutoff table on distinct voltages, its rows in any order."""
    grid = draw(st.lists(st.sampled_from(VOLTAGES), min_size=1,
                         max_size=len(VOLTAGES), unique=True))
    return CutoffTable(tuple((v, draw(cutoffs)) for v in grid))


@st.composite
def models(draw):
    """A small network whose layers span different weight ranges."""
    dims = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    model = Model.new(dims, seed=draw(st.integers(0, 2 ** 16)))
    for layer in model.dense_layers():
        layer.w *= draw(st.floats(0.1, 10.0))
    return model


@st.composite
def built(draw):
    """(model, table, schedule) from one builder, maybe stepped down."""
    model, table = draw(models()), draw(tables())
    if draw(st.booleans()):
        schedule = search_heterogeneous_vg(model, table, MEM)
    else:
        v_g = draw(st.sampled_from(table.gate_voltages()))
        schedule = homogeneous_schedule(model, v_g, table, MEM)
    if draw(st.booleans()):
        schedule = step_down_schedule(schedule, table, MEM)
    return model, table, schedule


@EXAMPLES
@given(built())
def test_clip_model_keeps_every_weight_within_its_clip_level(case):
    model, _, schedule = case
    clip_model(model, schedule)
    for layer, e in zip(model.dense_layers(), schedule.entries):
        assert np.all(np.abs(layer.w) <= e.w_cut)


@EXAMPLES
@given(built())
def test_step_down_never_raises_a_built_schedule(case):
    _, table, schedule = case
    down = step_down_schedule(schedule, table, MEM)
    for before, after in zip(schedule.entries, down.entries):
        assert after.v_g <= before.v_g


@EXAMPLES
@given(st.data())
def test_step_down_never_raises_a_loaded_schedule(data):
    # Any grid at all, sorted or not; the loader takes only increasing ones.
    grid = data.draw(st.lists(st.sampled_from(VOLTAGES), min_size=1,
                              max_size=4))
    entries = [{"layer": i, "v_g": data.draw(st.sampled_from(grid)),
                "w_cut": 0.5, "w_r": 1.0, "g_m_cutoff": None, "flag": ""}
               for i in range(data.draw(st.integers(1, 3)))]
    try:
        schedule = schedule_from_dict({"mode": "heterogeneous", "grid": grid,
                                       "entries": entries})
    except DomainError:
        assert grid != sorted(set(grid))
        return
    table = CutoffTable(tuple((v, MEM.g_on) for v in grid))
    down = step_down_schedule(schedule, table, MEM)
    for before, after in zip(schedule.entries, down.entries):
        assert after.v_g <= before.v_g


@EXAMPLES
@given(built())
def test_every_built_schedule_survives_save_and_load(case):
    _, _, schedule = case
    text = json.dumps(schedule_to_dict(schedule))
    assert schedule_from_dict(json.loads(text)) == schedule

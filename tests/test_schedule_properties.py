"""Properties of the schedule chain: build, clip, step down, save and load."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from onetr import (CutoffTable, DomainError, Model, ScheduleEntry, VgSchedule,
                   clip_model, default_device, homogeneous_schedule,
                   schedule_from_dict, schedule_to_dict,
                   search_heterogeneous_vg, step_down_schedule)
from onetr.mapping import GRID_ATOL, RANGE_RTOL
from onetr.training import FLAG_FIRST_COVERS, FLAG_NO_COVERAGE, FLAG_NONE

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


MODES = ("heterogeneous", "homogeneous")
FLAGS = (FLAG_NONE, FLAG_FIRST_COVERS, FLAG_NO_COVERAGE)
ODD_NUMBERS = st.one_of(st.floats(), st.integers(-2, 2), st.booleans())


@st.composite
def raw_schedules(draw):
    """A schedule payload from raw parts, all valid or one spoiled: an
    unknown mode, a grid out of order, with repeats or non-finite, or an
    entry that is misnumbered, off its grid, with a clip level or range out
    of bounds, an unknown flag or a value that is not a finite number."""
    spoil = draw(st.sampled_from([None, "mode", "grid", "layer", "v_g",
                                  "w_cut", "w_r", "g_m_cutoff", "flag"]))
    mode = draw(st.sampled_from(MODES if spoil != "mode"
                                else ("sideways", "", None)))
    grid = draw(st.lists(st.sampled_from(VOLTAGES), min_size=1, max_size=4,
                         unique=True).map(sorted) if spoil != "grid" else
                st.lists(st.sampled_from(VOLTAGES) | ODD_NUMBERS, max_size=4))
    on_grid = st.sampled_from(grid) if grid else ODD_NUMBERS
    off_grid = st.sampled_from([(a + b) / 2 for a, b in zip(grid, grid[1:])]
                               + [v + 10 * GRID_ATOL for v in grid[:1]])
    in_entry = spoil not in (None, "mode", "grid")
    n = draw(st.integers(1 if in_entry else 0, 3))
    target = draw(st.integers(0, n - 1)) if in_entry else None
    entries = []
    for i in range(n):
        w_r, v_g = draw(st.floats(0.1, 10.0)), draw(on_grid)
        if type(v_g) is float:  # a grid point, or within GRID_ATOL of one
            v_g += draw(st.sampled_from([0.0, GRID_ATOL / 2]))
        e = {"layer": i, "v_g": v_g,
             "w_cut": w_r * draw(st.sampled_from([0.0, 0.5, 1.0,
                                                  1.0 + RANGE_RTOL / 10])),
             "w_r": w_r,
             "g_m_cutoff": draw(st.none() | st.floats(0.0, 1e-4)),
             "flag": draw(st.sampled_from(FLAGS))}
        if i == target:
            e[spoil] = draw({
                "layer": st.sampled_from([i - 1, i + 1, float(i), bool(i)]),
                "v_g": off_grid | st.just(-0.1) | ODD_NUMBERS,
                "w_cut": st.sampled_from([1.0 + RANGE_RTOL * 10, 1.5, 2.0,
                                          -0.1]).map(lambda k: k * w_r)
                | ODD_NUMBERS,
                "w_r": st.sampled_from([0.0, -1.0]) | ODD_NUMBERS,
                "g_m_cutoff": ODD_NUMBERS | st.just("x"),
                "flag": st.sampled_from(["bogus", None, 1]),
            }[spoil])
        entries.append(e)
    return {"mode": mode, "grid": grid, "entries": entries}


def _finite(v):
    return type(v) in (int, float) and math.isfinite(v)


def _meets_conditions(raw):
    """The README's conditions for a valid schedule, restated as an oracle."""
    grid = raw["grid"]
    return (raw["mode"] in MODES and len(grid) > 0
            and all(_finite(v) for v in grid)
            and all(a < b for a, b in zip(grid, grid[1:]))
            and all(type(e["layer"]) is int and e["layer"] == i
                    and _finite(e["v_g"]) and e["v_g"] >= 0
                    and min(abs(e["v_g"] - v) for v in grid) <= GRID_ATOL
                    and _finite(e["w_r"]) and e["w_r"] > 0
                    and _finite(e["w_cut"])
                    and 0 <= e["w_cut"] <= e["w_r"] * (1 + RANGE_RTOL)
                    and e["flag"] in FLAGS
                    and (e["g_m_cutoff"] is None or _finite(e["g_m_cutoff"]))
                    for i, e in enumerate(raw["entries"])))


@settings(max_examples=300)
@given(raw_schedules())
def test_constructor_and_loader_share_one_definition(raw):
    # A schedule constructs exactly when it meets the conditions; one that
    # constructs survives save and load, and the loader refuses the rest.
    try:
        schedule = VgSchedule(raw["mode"], tuple(raw["grid"]),
                              tuple(ScheduleEntry(**e) for e in raw["entries"]))
    except DomainError:
        assert not _meets_conditions(raw)
        with pytest.raises(DomainError, match="malformed schedule payload"):
            schedule_from_dict(raw)
        return
    assert _meets_conditions(raw)
    text = json.dumps(schedule_to_dict(schedule))
    assert schedule_from_dict(json.loads(text)) == schedule

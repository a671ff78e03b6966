"""Every file loader, fuzzed: any input loads or raises DomainError.

JSON loaders get random JSON values and single edits (a replaced or deleted
field) of a valid payload; the dataset CSV reader gets arbitrary bytes.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from onetr import (DomainError, Model, ScheduleEntry, TrainConfig,
                   VgSchedule, default_device, load_checkpoint,
                   load_device_file, read_dataset_csv, save_checkpoint,
                   save_device_file, schedule_from_dict, schedule_to_dict)

DELETE = object()  # an edit that removes the field

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children,
                                        max_size=4)),
    max_leaves=12)


def _payload(save, *args):
    """The JSON object ``save(path, *args)`` writes."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "payload.json"
        save(path, *args)
        return json.loads(path.read_text())


def _field_paths(value, prefix=()):
    """Key paths of every field nested in ``value``, the root excluded."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def _edited(payload, path, value):
    raw = copy.deepcopy(payload)
    parent = raw
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return raw


SCHEDULE = schedule_to_dict(VgSchedule("heterogeneous", (0.7, 0.8), (
    ScheduleEntry(0, 0.8, 0.5, 1.0, 2e-5),
    ScheduleEntry(1, 0.7, 1.0, 1.0, None, "no_coverage"))))
CHECKPOINT = _payload(save_checkpoint, Model.new([2, 3, 2], seed=0),
                      schedule_from_dict(SCHEDULE), TrainConfig(),
                      [{"iteration": 1, "accuracy": 0.5}])
DEVICE = _payload(save_device_file, *default_device())


def _edits(payload):
    paths = list(_field_paths(payload))
    return st.tuples(st.sampled_from(paths),
                     JSON_VALUES | st.just(DELETE)).filter(
        # a list element is replaced, never deleted: indices stay valid
        lambda e: e[1] is not DELETE or isinstance(e[0][-1], str))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders") / "input"


def _write_json(path, raw):
    path.write_text(json.dumps(raw))  # NaN and Infinity as JS literals
    return path


def _load_or_domain_error(load, source):
    """``load(source)``, or None where it raises DomainError."""
    try:
        return load(source)
    except DomainError:
        return None


def _check_checkpoint(path):
    checkpoint = _load_or_domain_error(load_checkpoint, path)
    for layer in checkpoint.model.dense_layers() if checkpoint else ():
        assert np.isfinite(layer.w).all() and np.isfinite(layer.b).all()


def test_valid_payloads_load(scratch):
    assert schedule_to_dict(schedule_from_dict(SCHEDULE)) == SCHEDULE
    ckpt = load_checkpoint(_write_json(scratch, CHECKPOINT))
    assert ckpt.model.dims == [2, 3, 2] and ckpt.schedule is not None
    assert load_device_file(_write_json(scratch, DEVICE)) == default_device()


@given(JSON_VALUES)
def test_schedule_from_any_json(raw):
    _load_or_domain_error(schedule_from_dict, raw)


@given(_edits(SCHEDULE))
@example((("entries", 0, "w_cut"), -1))
@example((("entries", 0, "v_g"), "x"))
@example((("entries", 1, "w_r"), 10 ** 400))  # beyond float range
@example((("grid", 0), math.nan))
def test_schedule_from_edited_payload(edit):
    _load_or_domain_error(schedule_from_dict, _edited(SCHEDULE, *edit))


@given(JSON_VALUES)
def test_checkpoint_from_any_json(scratch, raw):
    _check_checkpoint(_write_json(scratch, raw))


@given(_edits(CHECKPOINT))
@example((("model", "layers", 0, "weights", 0), math.inf))  # Infinity
@example((("model", "layers", 1, "biases", 1), math.nan))  # NaN
@example((("model", "layers", 0, "weights", 0), 10 ** 400))
@example((("model", "layers", 0, "weights", 0), "nan"))
@example((("train_config", "learning_rate"), 10 ** 400))
@example((("model", "dims"), [2, 3]))  # fewer dims than layers
def test_checkpoint_from_edited_payload(scratch, edit):
    _check_checkpoint(_write_json(scratch, _edited(CHECKPOINT, *edit)))


def test_checkpoint_number_overflowing_to_infinity(scratch):
    # 1e999 is valid JSON, which Python reads as inf.
    raw = _edited(CHECKPOINT, ("model", "layers", 0, "weights", 0), 1.5e300)
    scratch.write_text(json.dumps(raw).replace("1.5e+300", "1e999"))
    with pytest.raises(DomainError):
        load_checkpoint(scratch)


@given(JSON_VALUES)
def test_device_file_from_any_json(scratch, raw):
    _load_or_domain_error(load_device_file, _write_json(scratch, raw))


@given(_edits(DEVICE))
@example((("vth",), 10 ** 400))  # beyond float range
@example((("kp",), math.inf))
@example((("g_off",), "abc"))
def test_device_file_from_edited_payload(scratch, edit):
    _load_or_domain_error(load_device_file,
                          _write_json(scratch, _edited(DEVICE, *edit)))


VALID_CSV = b"f0,f1,label\n0.5,1.5,0\n2,3,1\n"


@given(st.binary(max_size=64) | st.builds(
    lambda at, data: VALID_CSV[:at] + data + VALID_CSV[at:],
    st.integers(0, len(VALID_CSV)), st.binary(min_size=1, max_size=8)))
@example(b"f0,label\n1.0,99999999999999999999999\n")  # label beyond int64
@example(b"f0,label\n1.0,\xff\n")  # not UTF-8
@example(b"f0,label\n1e999,0\n")  # overflows to inf
@example(b"f0,label\n1_0,0\n")  # Python-only spelling of 10
@example(b"f0,label\n#1,0\n")  # '#' starts no comment
@example(b"f0,label\n1,0\n\n")  # trailing blank line
@example(b"f0,label\n")  # header only
@example(VALID_CSV)
def test_dataset_csv_from_any_bytes(scratch, data):
    scratch.write_bytes(data)
    loaded = _load_or_domain_error(read_dataset_csv, scratch)
    if loaded is not None:
        x, y = loaded
        assert (x.dtype, y.dtype) == (np.float64, np.int64)
        assert x.flags.c_contiguous and y.flags.c_contiguous
        assert x.ndim == 2 and x.shape[0] == y.shape[0] >= 1
        assert np.isfinite(x).all() and (y >= 0).all()

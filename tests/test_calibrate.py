"""Calibration: the bundled parameter files are reproducible."""

import importlib.util
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from conftest import VG_GRID

from onetr import MemristorParams, TransistorParams, save_device_file

CALIBRATE = Path(__file__).resolve().parents[1] / "tools" / "calibrate.py"


@pytest.fixture(scope="module")
def calibrate():
    spec = importlib.util.spec_from_file_location("tools_calibrate",
                                                  CALIBRATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibration_reproduces_bundled_files(calibrate, tmp_path):
    # The same steps as ``python tools/calibrate.py``, written to tmp_path.
    mem = MemristorParams()
    t_default, _ = calibrate.calibrate_default(mem)
    t_stressed = TransistorParams(kp=t_default.kp, **calibrate._STRESSED)
    calibrate.check_stressed(t_stressed, mem)
    bundled = resources.files("onetr").joinpath("params")
    for name, t in (("device_default.json", t_default),
                    ("device_leakage_stressed.json", t_stressed)):
        save_device_file(tmp_path / name, t, mem)
        assert (tmp_path / name).read_bytes() == \
            bundled.joinpath(name).read_bytes()


def test_standard_grid_is_defined_once(calibrate):
    # The script, the tests and the CLI default all read one grid: 0.70 V to
    # 1.00 V in 50 mV steps, as the bundled calibration was baked on.
    want = np.round(np.arange(0.70, 1.0001, 0.05), 2)
    assert len(VG_GRID) == len(want)
    assert all(a == b for a, b in zip(VG_GRID, want))
    assert calibrate.VG_GRID == VG_GRID

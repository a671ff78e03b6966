"""Calibration: the bundled parameter files are reproducible."""

from importlib import resources

from onetr import MemristorParams, TransistorParams, save_device_file
from onetr.calibrate import _STRESSED, calibrate_default, check_stressed


def test_calibration_reproduces_bundled_files(tmp_path):
    # The same steps as ``python -m onetr.calibrate``, written to tmp_path.
    mem = MemristorParams()
    t_default = calibrate_default(mem)
    t_stressed = TransistorParams(kp=t_default.kp, **_STRESSED)
    check_stressed(t_stressed, mem)
    bundled = resources.files("onetr").joinpath("params")
    for name, t in (("device_default.json", t_default),
                    ("device_leakage_stressed.json", t_stressed)):
        save_device_file(tmp_path / name, t, mem)
        assert (tmp_path / name).read_bytes() == \
            bundled.joinpath(name).read_bytes()

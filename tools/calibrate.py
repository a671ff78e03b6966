"""Bakes the bundled device parameter files.

Run ``python tools/calibrate.py`` from a checkout to regenerate the two JSON
files under ``src/onetr/params/``. The default transistor is chosen by
scanning a small transconductance range until the conductance-cutoff table
over the standard gate-voltage grid (the CLI's ``DEFAULT_VG_GRID``) has the
documented shape:

* every grid voltage has a cutoff;
* cutoffs are non-decreasing in the gate voltage;
* the 0.70 V cutoff sits low in the conductance window (aggressive
  clipping regime) while 1.00 V releases the full window;
* at 0.80 V a fully-on memristor loses linearity before the supply rail
  (saturation exclusion), so its linear read window is upper-limited.

The leakage-stressed set keeps the transistor below threshold at 1.3 V so
the cell current is a subthreshold leak: no conductance passes the
tolerance threshold there, and the linear window that survives sits away
from low read voltages.
"""

import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))
from onetr.characterize import (  # noqa: E402
    DEFAULT_TM_THRESHOLD, DEFAULT_V_SUPPLY, cutoff_table, default_vin_grid,
    linear_vin_range, sweep_geff)
from onetr.cli import DEFAULT_VG_GRID, parse_vg_values  # noqa: E402
from onetr.device import (IDEAL_SWITCH, MemristorParams,  # noqa: E402
                          TransistorParams, save_device_file)

VG_GRID = tuple(parse_vg_values(DEFAULT_VG_GRID))

_VTH = 0.60  # V
_KP_CANDIDATES = np.linspace(3.0e-4, 9.0e-4, 25)  # A/V^2
_STRESSED = dict(vth=1.60, lambda_=0.05, n_sub=1.5, i0_sub=5e-9)


def _shape_report(t: TransistorParams, mem: MemristorParams) -> dict:
    table = cutoff_table(VG_GRID, t, mem)
    cuts = [c for _, c in table.entries]
    grid = default_vin_grid()
    window = linear_vin_range(sweep_geff(mem.g_on, 0.80, t))
    return {
        "cutoffs": cuts,
        "all_present": all(c is not None for c in cuts),
        "non_decreasing": all(c is not None for c in cuts)
        and all(b >= a for a, b in zip(cuts, cuts[1:])),
        "low_end_fraction": None if cuts[0] is None else
        (cuts[0] - mem.g_off) / (mem.g_on - mem.g_off),
        "top_is_g_on": cuts[-1] == mem.g_on,
        "mid_inside": cuts[2] is not None
        and mem.g_off < cuts[2] < mem.g_on,
        "window_08_gon": window,
        "window_low_anchored": window is not None
        and window[0] == grid[0] and window[1] < DEFAULT_V_SUPPLY,
    }


def _default_ok(rep: dict) -> bool:
    return (rep["all_present"] and rep["non_decreasing"]
            and rep["top_is_g_on"] and rep["mid_inside"]
            and rep["low_end_fraction"] is not None
            and 0.005 < rep["low_end_fraction"] < 0.30
            and rep["window_low_anchored"])


def calibrate_default(mem: MemristorParams):
    """``(transistor, shape report)`` of the chosen candidate."""
    best = None
    for kp in _KP_CANDIDATES:
        t = TransistorParams(vth=_VTH, kp=float(kp), lambda_=0.05,
                             n_sub=1.5, i0_sub=2e-8)
        rep = _shape_report(t, mem)
        if not _default_ok(rep):
            continue
        # prefer a low-voltage cutoff around 15% of the window
        miss = abs(rep["low_end_fraction"] - 0.15)
        if best is None or miss < best[0]:
            best = (miss, t, rep)
    if best is None:
        raise RuntimeError("no transconductance candidate satisfies the "
                           "cutoff-table shape constraints")
    return best[1:]


def check_stressed(t: TransistorParams, mem: MemristorParams) -> None:
    if cutoff_table([1.3], t, mem).lookup(1.3) is not None:
        raise RuntimeError("stressed set unexpectedly has a cutoff at 1.3 V")
    window = linear_vin_range(sweep_geff(1e-5, 1.3, t))
    grid = default_vin_grid()
    if window is None or window[0] <= grid[0] * (1 + 1e-12):
        raise RuntimeError("stressed set should push the linear window away "
                           f"from low read voltages, got {window}")


def main() -> int:
    mem = MemristorParams()
    t_default, rep = calibrate_default(mem)
    t_stressed = TransistorParams(kp=t_default.kp, **_STRESSED)
    check_stressed(t_stressed, mem)

    grid = default_vin_grid()
    ideal = linear_vin_range(sweep_geff(mem.g_on, 0.80, t_default,
                                        mode=IDEAL_SWITCH))
    if ideal != (grid[0], grid[-1]):
        raise RuntimeError(f"ideal switch should span the full grid: {ideal}")

    params_dir = SRC / "onetr" / "params"
    params_dir.mkdir(exist_ok=True)
    save_device_file(params_dir / "device_default.json", t_default, mem)
    save_device_file(params_dir / "device_leakage_stressed.json",
                     t_stressed, mem)

    print(f"default: vth={t_default.vth} kp={t_default.kp:.6g}")
    for vg, cut in zip(VG_GRID, rep["cutoffs"]):
        frac = "-" if cut is None else f"{(cut - mem.g_off) / (mem.g_on - mem.g_off):.3f}"
        print(f"  v_g={vg:.2f}  cutoff={cut if cut is None else format(cut, '.6g')}"
              f"  window_fraction={frac}")
    print(f"  linearity window at (g_on, 0.80 V): {rep['window_08_gon']}")
    print(f"  tm threshold {DEFAULT_TM_THRESHOLD}, v_supply {DEFAULT_V_SUPPLY}")
    print(f"stressed: vth={t_stressed.vth} (no cutoff at 1.3 V verified)")
    print(f"wrote {params_dir / 'device_default.json'}")
    print(f"wrote {params_dir / 'device_leakage_stressed.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

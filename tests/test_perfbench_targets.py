"""The benchmark reads package internals by name; keep them working."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from onetr import WcutSpec, default_device, program, scale_from_range

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_defined():
    tracing = _load("tracing")
    assert tracing.TARGETS
    missing = [f"{mod}.{func}" for mod, func, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(mod), func,
                                       None))]
    assert missing == []


def test_tile_views_cover_the_layer():
    # The benchmark rebuilds each layer's conductances from ``ts.tiles``.
    _, mem = default_device()
    rng = np.random.default_rng(0)
    w = rng.normal(size=(70, 37))
    scale = scale_from_range(float(np.max(np.abs(w))), mem)
    ts = program(w, WcutSpec(0.8, scale.w_r, None), scale,
                 tile_rows=32, tile_cols=20)
    x = rng.uniform(0.0, 1.0, (3, 70))
    g = _load("checks").tileset_points(ts, x)[0]
    assert np.array_equal(g, np.concatenate((ts.g_plus, ts.g_minus),
                                            axis=1)[None])
    covered = np.zeros((70, 37), dtype=int)
    for tile in ts.tiles:
        r, c = tile.g_plus.shape
        assert tile.g_minus.shape == (r, c)
        covered[tile.row0:tile.row0 + r, tile.col0:tile.col0 + c] += 1
    assert np.all(covered == 1)

"""The benchmark tracer wraps package functions by name; keep them defined."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_is_defined():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{mod}.{func}" for mod, func, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(mod), func,
                                       None))]
    assert missing == []

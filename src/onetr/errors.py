"""Exception types shared across the toolkit, and the artifact file helpers."""

import contextlib
import csv
import json
import math
import os
import sys
from pathlib import Path


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ToolkitError, ValueError):
    """An argument is outside the physical or numerical domain of an operation."""


class DegenerateLayerError(DomainError):
    """A layer cannot be mapped, e.g. every weight is zero."""


class CutoffLookupError(DomainError):
    """A gate voltage is missing from a cutoff table."""


class TrainingDivergedError(ToolkitError):
    """Training produced a non-finite loss."""


def real(value, name: str = "value") -> float:
    """A finite JSON number as a float; else DomainError naming ``name``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):  # NaN, inf, huge int
        raise DomainError(f"{name}: expected a finite number, got {value!r}")
    return float(value)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def read_json_object(path) -> dict:
    """Load a JSON artifact; invalid JSON (``NaN``, ``Infinity`` and numbers
    that overflow to infinity included) or a non-object raises DomainError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh, parse_float=_finite_float,
                            parse_constant=_finite_float)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise DomainError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DomainError(f"{path}: expected a JSON object")
    return raw


@contextlib.contextmanager
def atomic_write(path, newline=None):
    """Text handle on a temp file beside ``path`` that replaces ``path`` only
    once the block completes; a failed write leaves the old file intact."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _write_json(path, payload) -> None:
    """Sorted-key JSON artifact; a NaN or infinite value raises DomainError."""
    with atomic_write(path) as fh:
        try:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:  # a NaN or infinite value
            raise DomainError(f"{Path(path).name}: {exc}") from exc
        fh.write("\n")


def _write_csv(path, header, rows) -> None:
    """CSV artifact with floats as ``.9g``; a non-finite float raises
    DomainError. ``rows`` may be any iterable; it is read once."""
    name = Path(path).name
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:  # real() only builds the error for a non-finite v
            writer.writerow([format(v if math.isfinite(v) else real(v, name),
                                    ".9g")
                             if isinstance(v, float) else v for v in row])

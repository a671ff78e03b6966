"""Exception types shared across the toolkit, and the artifact file helpers."""

import contextlib
import json
import math
import os


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
            or not math.isfinite(value)):
        raise DomainError(f"{name}: expected a finite number, got {value!r}")
    return float(value)


def read_json_object(path) -> dict:
    """Load a JSON artifact; invalid JSON or a non-object raises DomainError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
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

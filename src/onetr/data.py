"""Deterministic desk-scale classification data.

The built-in task is a 3-class Gaussian blob problem with 16 non-negative
features. Feature scales are spread over two decades so trained first-layer
weights span a wide magnitude range; clipping those weights at a low level
visibly costs accuracy, which is the regime the conductance-window tooling
is meant to exercise. Inputs are shifted to be non-negative because crossbar
rows only accept non-negative read voltages.
"""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _write_csv, atomic_write

N_FEATURES = 16
N_CLASSES = 3
N_TRAIN = 2000
N_TEST = 500
_NOISE_STD = 0.9  # relative to unit-scale class centers
_DATA_SEED = 7


@dataclass(frozen=True)
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    @property
    def n_features(self) -> int:
        return self.x_train.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.y_train.max()) + 1


def make_blobs(seed: int = _DATA_SEED) -> Dataset:
    """Gaussian blobs with per-feature scales spanning two decades."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, (N_CLASSES, N_FEATURES))
    scales = np.logspace(-1.0, 1.0, N_FEATURES)
    rng.shuffle(scales)

    n = N_TRAIN + N_TEST
    y = np.arange(n) % N_CLASSES
    x = centers[y] + rng.normal(0.0, _NOISE_STD, (n, N_FEATURES))
    x *= scales
    x -= x.min(axis=0)  # crossbar rows need non-negative inputs
    return Dataset(x[:N_TRAIN], y[:N_TRAIN], x[N_TRAIN:], y[N_TRAIN:])


def write_dataset_csv(path, x, y) -> None:
    """Feature columns f0..fk then an integer ``label`` column."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DomainError("x must be (samples, features) aligned with y")
    labels = y.astype(float)  # NaN fails every test below
    if not np.all((labels >= 0) & (labels < 2.0 ** 63)
                  & (np.floor(labels) == labels)):
        raise DomainError("labels must be non-negative integers")
    if not np.all(np.isfinite(x)):  # _write_csv rejects it, writing nothing
        _write_csv(path, [], x.tolist())
    line = ",".join(["%.9g"] * x.shape[1] + ["%d"]) + "\r\n"  # as _write_csv
    with atomic_write(path, newline="") as fh:
        fh.write("".join(f"f{i}," for i in range(x.shape[1])) + "label\r\n")
        fh.writelines(line % (*r.tolist(), i) for r, i in zip(x, y.tolist()))


def _loadtxt(lines, dtype):
    with warnings.catch_warnings():  # no data rows: the caller checks
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", quotechar='"',
                          comments=None, ndmin=1)


def _bad_line(path, dtype):
    """``path:line: reason`` of the first line numpy rejects (its rows skip
    the header), else None.  Only the error path reads the file twice."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line_no, line in enumerate(fh, reader.line_num + 1):
            try:
                _loadtxt([line], dtype)
            except ValueError as exc:
                reason = re.sub(r" at row \d+", "", str(exc)).split(";")[0]
                return f"{path}:{line_no}: {reason}"


def read_dataset_csv(path):
    """Inverse of write_dataset_csv: C-contiguous float64 ``x``, int64 ``y``.

    Below a header ending in ``label``, each non-blank line holds ASCII
    decimal numbers, optionally double-quoted: the features, then an integer
    label; ``#`` starts no comment. Bad input raises one DomainError (naming
    the file line of a bad number or row, the header being line 1).
    """
    dtype = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), [])
            if len(header) < 2 or header[-1] != "label":
                raise ValueError("expected a header of features and 'label'")
            dtype = [("x", float, (len(header) - 1,)), ("y", np.int64)]
            rows = _loadtxt(fh, dtype)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DomainError(f"{path}: not a UTF-8 CSV file: {exc}") from exc
    except ValueError as exc:  # the header, a column count or a number
        raise DomainError(dtype and _bad_line(path, dtype) or f"{path}: {exc}"
                          ) from exc
    if not rows.size:
        raise DomainError(f"{path}: no data rows")
    x, y = np.ascontiguousarray(rows["x"]), np.ascontiguousarray(rows["y"])
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{path}: non-finite feature values")
    if y.min() < 0:
        raise DomainError(f"{path}: labels must be non-negative integers")
    return x, y

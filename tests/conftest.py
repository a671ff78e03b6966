"""Shared fixtures and the acceptance summary hook.

Heavy artifacts (trained baseline, cutoff table, dataset) are session scoped;
tests that mutate a model must work on a copy.
"""

import contextlib

import pytest
from hypothesis import settings

from onetr import (Model, TrainConfig, cutoff_table, default_device,
                   leakage_stressed_device, make_blobs,
                   search_heterogeneous_vg, train)
from onetr.cli import DEFAULT_VG_GRID, parse_vg_values
from onetr.data import N_CLASSES, N_FEATURES

VG_GRID = tuple(parse_vg_values(DEFAULT_VG_GRID))

settings.register_profile("toolkit", deadline=None, max_examples=30)
settings.load_profile("toolkit")

ACCEPTANCE_RESULTS = []


@contextlib.contextmanager
def acceptance(label):
    """Record one PASS/FAIL line for the end-of-run summary."""
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append((label, False))
        raise
    ACCEPTANCE_RESULTS.append((label, True))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for label, ok in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(
            f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="session")
def device():
    return default_device()


@pytest.fixture(scope="session")
def stressed():
    return leakage_stressed_device()


@pytest.fixture(scope="session")
def blobs():
    return make_blobs()


@pytest.fixture(scope="session")
def table(device):
    t, mem = device
    return cutoff_table(VG_GRID, t, mem)


@pytest.fixture(scope="session")
def baseline_model(blobs):
    model = Model.new([N_FEATURES, 32, N_CLASSES], seed=0)
    train(model, blobs.x_train, blobs.y_train, TrainConfig(seed=0))
    return model


@pytest.fixture(scope="session")
def het_schedule(baseline_model, table, device):
    _, mem = device
    return search_heterogeneous_vg(baseline_model, table, mem)

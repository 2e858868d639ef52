import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from linfeas.instance import ingest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process of the test run alive; reap any that ended."""
    yield
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child at all
            return
        assert pid != 0, "a child process of the test run is still alive after the test"


@pytest.fixture
def axes():
    "Two orthonormal columns: strictly feasible with margin 1/sqrt(2)."
    return ingest([[1.0, 0.0], [0.0, 1.0]], normalize=False, name="axes")


@pytest.fixture
def segment():
    "Antipodal unit pair: rank one, margin -1, classical margin 0 in the plane."
    return ingest([[1.0, 0.0], [-1.0, 0.0]], normalize=False, name="segment")


@pytest.fixture
def triangle():
    "Unit vectors at 90, 210, 330 degrees: inradius 1/2, margin -1/2."
    angles = np.deg2rad([90.0, 210.0, 330.0])
    cols = np.column_stack([np.cos(angles), np.sin(angles)])
    return ingest(cols.tolist(), normalize=True, name="triangle")

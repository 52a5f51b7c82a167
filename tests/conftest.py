"""Shared fixtures for the test suite, and the session's leak gate."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.metric.euclidean import EuclideanSpace
from repro.metric.precomputed import PrecomputedSpace


_SHM_DIR = Path("/dev/shm")

#: Entries present when the session started, and those it left behind.
_at_start: set[Path] | None = None
_leaked: list[str] = []


def _shm_entries() -> set[Path]:
    """Shared-memory segments and shm-transport spill files present now.

    Only ``psm_*`` entries count: that is the name Python's
    ``SharedMemory`` gives the unnamed segments the transport creates,
    so other programs' segments do not read as this suite's leaks.
    """
    found = set(Path(tempfile.gettempdir()).glob("repro-shm-spill-*.npy"))
    if _SHM_DIR.is_dir():
        found.update(_SHM_DIR.glob("psm_*"))
    return found


def pytest_sessionstart(session):
    global _at_start
    _at_start = _shm_entries()


def pytest_sessionfinish(session, exitstatus):
    """Fail the session if a segment or spill file it created outlives it."""
    if _at_start is None:
        return
    _leaked[:] = sorted(str(p) for p in _shm_entries() - _at_start)
    if _leaked and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _leaked:
        terminalreporter.write_sep("=", "shared-memory leak", red=True)
        for path in _leaked:
            terminalreporter.write_line(f"left behind by this session: {path}")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_points(rng) -> np.ndarray:
    """60 points in 3 well-separated planar clusters."""
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [5.0, 8.0]])
    pts = np.concatenate(
        [c + rng.normal(0, 0.4, size=(20, 2)) for c in centers]
    )
    return pts


@pytest.fixture
def small_space(small_points) -> EuclideanSpace:
    return EuclideanSpace(small_points)


@pytest.fixture
def tiny_space(rng) -> EuclideanSpace:
    """12 random points — small enough for the exact oracle at k <= 4."""
    return EuclideanSpace(rng.normal(size=(12, 2)))


@pytest.fixture
def line_space() -> PrecomputedSpace:
    """5 points on a line at positions 0, 1, 2, 4, 8 (easy to reason about)."""
    pos = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
    return PrecomputedSpace(np.abs(pos[:, None] - pos[None, :]))

import dataclasses
import time

import numpy as np
import pytest

from hermite_needlets import build_frame, verification
# the test modules import the generators from here
from hermite_needlets.verification import random_expansion_1d, random_expansion_2d  # noqa: F401


@pytest.fixture(scope="session")
def frame_j3():
    return build_frame(d=1, delta=0.025, j_max=3, cutoff="quadratic")


@pytest.fixture(scope="session")
def frame_j4():
    return build_frame(d=1, delta=0.025, j_max=4, cutoff="quadratic")


@pytest.fixture(scope="session")
def frame_j4_dual():
    return build_frame(d=1, delta=0.025, j_max=4, cutoff="dual")


@pytest.fixture(scope="session")
def frame_d2_j3():
    return build_frame(d=2, delta=0.025, j_max=3, cutoff="quadratic")


def tile_box(level, flat_index):
    """Axis-aligned tile (lo, hi) of a flat index; (d, len) for an array."""
    idx = np.asarray(level.axes(flat_index))
    return level.interval_bounds[idx], level.interval_bounds[idx + 1]


def stored_sizes(obj):
    """(field, number of values) for every field of a dataclass, recursively."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from stored_sizes(value)
        else:
            yield f.name, np.size(value)


@pytest.fixture(scope="session")
def test_set_v64():
    """The fixed ten-function band-limited test set (degrees up to 64)."""
    return verification.norm_test_set()


@dataclasses.dataclass(frozen=True)
class Catalogue:
    """Every ``verify`` check, in run order, and each suite's wall seconds."""

    results: list
    seconds: dict

    def __getitem__(self, key: str) -> verification.CheckResult:
        """The check named ``suite/name``."""
        return {f"{r.suite}/{r.name}": r for r in self.results}[key]


@pytest.fixture(scope="session")
def catalogue():
    """The ``verify`` catalogue, computed once for the session."""
    results, seconds = [], {}
    for suite in verification.SUITES:
        t0 = time.monotonic()
        results += verification.run_suites([suite])
        seconds[suite] = time.monotonic() - t0
    return Catalogue(results, seconds)

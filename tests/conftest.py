import dataclasses

import numpy as np
import pytest

from hermite_needlets import HermiteExpansion, build_frame


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


def random_expansion_1d(degree: int, rng) -> HermiteExpansion:
    c = rng.standard_normal(degree + 1)
    return HermiteExpansion(1, degree, {(k,): c[k] for k in range(degree + 1)})


def random_expansion_2d(degree: int, rng) -> HermiteExpansion:
    coeffs = {}
    for a1 in range(degree + 1):
        for a2 in range(degree + 1 - a1):
            coeffs[(a1, a2)] = rng.standard_normal()
    return HermiteExpansion(2, degree, coeffs)


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


TEST_SET_DEGREES = [1, 3, 7, 12, 16, 24, 32, 48, 57, 64]


@pytest.fixture(scope="session")
def test_set_v64():
    """The fixed ten-function band-limited test set (degrees up to 64)."""
    rng = np.random.default_rng(20260809)
    return [random_expansion_1d(d, rng) for d in TEST_SET_DEGREES]

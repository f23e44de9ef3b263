"""Smooth compactly supported cutoff functions and the two shipped pairs.

Everything is built from the classical mollifier ramp

    s(x) = sigma(x) / (sigma(x) + sigma(1-x)),   sigma(x) = exp(-beta/x),

which is identically 0 for x <= 0, identically 1 for x >= 1, and exactly
C-infinity.  ``beta = 0.3`` keeps the quadratic cutoff comfortably above the
required lower bound on [1/3, 3]; with beta = 1 the ramp hugs zero too long
near the support edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError

RAMP_BETA = 0.3

_SUPPORT_LO = 0.25
_SUPPORT_HI = 4.0


def _sigma(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0.0
    with np.errstate(over="ignore"):  # beta/x -> inf gives exp(-inf) = 0
        out[pos] = np.exp(-RAMP_BETA / x[pos])
    return out


def ramp(x) -> np.ndarray:
    """C-infinity ramp: 0 on (-inf, 0], 1 on [1, inf), increasing between."""
    x = np.asarray(x, dtype=float)
    a = _sigma(x)
    b = _sigma(1.0 - x)
    with np.errstate(invalid="ignore"):
        out = np.where(a + b > 0.0, a / (a + b), 0.0)
    out = np.where(x >= 1.0, 1.0, out)
    out = np.where(x <= 0.0, 0.0, out)
    return out


@dataclass(frozen=True)
class SmoothCutoff:
    """A smooth cutoff on [0, inf), callable on scalars and arrays."""

    func: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        vals = self.func(np.atleast_1d(arr))
        return float(vals[0]) if arr.ndim == 0 else vals


def make_type_a(v: float) -> SmoothCutoff:
    """Cutoff equal to 1 on [0, 1], supported in [0, 1+v], monotone between."""
    if not 0.0 < v <= 1.0:
        raise ParameterError(f"overhang v must lie in (0, 1], got {v}")

    def func(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        out[t <= 1.0] = 1.0
        mid = (t > 1.0) & (t < 1.0 + v)
        out[mid] = 1.0 - ramp((t[mid] - 1.0) / v)
        return out

    return SmoothCutoff(func)


def make_type_b() -> SmoothCutoff:
    """Bump cutoff supported in [1/4, 4], equal to 1 on [1/3, 3]."""
    u, lo, hi = _SUPPORT_LO, 1.0 / 3.0, 3.0

    def func(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        rise = (t > u) & (t < lo)
        out[rise] = ramp((t[rise] - u) / (lo - u))
        out[(t >= lo) & (t <= hi)] = 1.0
        fall = (t > hi) & (t < _SUPPORT_HI)
        out[fall] = 1.0 - ramp((t[fall] - hi) / (_SUPPORT_HI - hi))
        return out

    return SmoothCutoff(func)


def make_quadratic_cutoff() -> SmoothCutoff:
    """Nonnegative cutoff on [1/4, 4] with a^2(t) + a^2(4t) = 1 on [1/4, 1].

    Built as sin((pi/2)*theta(t)) on [1/4, 1] and cos((pi/2)*theta(t/4)) on
    [1, 4], where theta is the ramp carried affinely onto [1/4, 1]; the
    partition identity is then exact through sin^2 + cos^2.
    """

    def theta(t):
        return ramp((t - _SUPPORT_LO) / (1.0 - _SUPPORT_LO))

    def func(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        lower = (t > _SUPPORT_LO) & (t <= 1.0)
        out[lower] = np.sin(0.5 * math.pi * theta(t[lower]))
        upper = (t > 1.0) & (t < _SUPPORT_HI)
        out[upper] = np.cos(0.5 * math.pi * theta(t[upper] / 4.0))
        return out

    return SmoothCutoff(func)


@dataclass(frozen=True)
class CutoffPair:
    """Dual cutoffs with a_hat(t)b_hat(t) + a_hat(4t)b_hat(4t) = 1 on [1/4, 1]."""

    a_hat: SmoothCutoff
    b_hat: SmoothCutoff


def _dual_pair(a_hat: SmoothCutoff) -> CutoffPair:
    """Companion b_hat(t) = a_hat(t) / sum_nu a_hat(4^nu t)^2.

    The normalizer needs a_hat supported in [1/4, 4] and bounded away from
    zero on [1/3, 3]; the type-b bump, its only input, is both.
    """

    def b_func(t):
        t = np.asarray(t, dtype=float)
        av = a_hat(t)
        out = np.zeros_like(t)
        live = av != 0.0
        # supp a_hat in [1/4, 4] means at most two of these terms are nonzero
        denom = sum(a_hat(4.0**nu * t[live]) ** 2 for nu in range(-2, 3))
        out[live] = av[live] / denom
        return out

    return CutoffPair(a_hat=a_hat, b_hat=SmoothCutoff(b_func))


_QUADRATIC = make_quadratic_cutoff()
_SHIPPED = {
    "quadratic": CutoffPair(a_hat=_QUADRATIC, b_hat=_QUADRATIC),
    "dual": _dual_pair(make_type_b()),
}


def make_pair(kind: str = "quadratic") -> CutoffPair:
    """Shipped constructions: 'quadratic' (self-dual) or 'dual' (bump + mate).

    Each kind is one shared pair, so frames of one kind share coefficients.
    """
    if not isinstance(kind, str) or kind not in _SHIPPED:
        raise ParameterError(f"unknown cutoff kind {kind!r}")
    return _SHIPPED[kind]


def partition_residual(pair: CutoffPair, j_levels: int) -> float:
    """Max deviation of the telescoped partition from 1 on [1, 4^J]."""
    if j_levels < 1:
        raise ParameterError(f"J must be >= 1, got {j_levels}")
    t = np.geomspace(1.0, 4.0**j_levels, 1000)
    total = np.zeros_like(t)
    for nu in range(j_levels + 2):
        scaled = t / 4.0**nu
        total += pair.a_hat(scaled) * pair.b_hat(scaled)
    return float(np.max(np.abs(total - 1.0)))

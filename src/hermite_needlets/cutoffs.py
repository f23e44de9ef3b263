"""Smooth compactly supported cutoff functions and dual pairs.

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

from .errors import InvalidCutoffError, ParameterError

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
    """A smooth cutoff on [0, inf) with known support.

    kind: 'type_a' (plateau at the origin), 'type_b' (bump away from 0),
    'quadratic' (tight-frame bump with a^2(t) + a^2(4t) = 1 on [1/4, 1]),
    or 'dual' (companion produced by ``make_dual_pair``).
    """

    kind: str
    u: float | None
    v: float
    func: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        vals = self.func(np.atleast_1d(arr))
        return float(vals[0]) if arr.ndim == 0 else vals

    @property
    def support(self) -> tuple[float, float]:
        lo = 0.0 if self.kind == "type_a" else (self.u if self.u is not None else 0.0)
        return (lo, 1.0 + self.v)


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

    return SmoothCutoff(kind="type_a", u=None, v=v, func=func)


def make_type_b(
    u: float = _SUPPORT_LO,
    plateau: tuple[float, float] = (1.0 / 3.0, 3.0),
) -> SmoothCutoff:
    """Bump cutoff supported in [u, 4], equal to 1 on the plateau."""
    lo, hi = plateau
    if not (0.0 < u < lo < hi < _SUPPORT_HI):
        raise ParameterError(f"need 0 < u < plateau < 4, got u={u}, plateau={plateau}")

    def func(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        rise = (t > u) & (t < lo)
        out[rise] = ramp((t[rise] - u) / (lo - u))
        out[(t >= lo) & (t <= hi)] = 1.0
        fall = (t > hi) & (t < _SUPPORT_HI)
        out[fall] = 1.0 - ramp((t[fall] - hi) / (_SUPPORT_HI - hi))
        return out

    return SmoothCutoff(kind="type_b", u=u, v=_SUPPORT_HI - 1.0, func=func)


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

    return SmoothCutoff(kind="quadratic", u=_SUPPORT_LO, v=_SUPPORT_HI - 1.0, func=func)


@dataclass(frozen=True)
class CutoffPair:
    """Dual cutoffs with a_hat(t)b_hat(t) + a_hat(4t)b_hat(4t) = 1 on [1/4, 1]."""

    a_hat: SmoothCutoff
    b_hat: SmoothCutoff

    def __str__(self) -> str:
        return f"{self.a_hat.kind}/{self.b_hat.kind} at {id(self):#x}"


def _dilation_sum_of_squares(a_hat: SmoothCutoff, t: np.ndarray) -> np.ndarray:
    # supp a_hat in [1/4, 4] means at most two of these terms are nonzero
    total = np.zeros_like(t)
    for nu in range(-2, 3):
        total += a_hat(4.0**nu * t) ** 2
    return total


def make_dual_pair(a_hat: SmoothCutoff) -> CutoffPair:
    """Companion b_hat(t) = a_hat(t) / sum_nu a_hat(4^nu t)^2.

    The input must be supported in [1/4, 4] and bounded away from zero on
    [1/3, 3]; otherwise the normalizer degenerates and the construction is
    rejected.
    """
    lo, hi = a_hat.support
    if lo < _SUPPORT_LO - 1e-12 or hi > _SUPPORT_HI + 1e-12:
        raise InvalidCutoffError(
            f"dual construction needs support within [1/4, 4], got [{lo}, {hi}]"
        )
    probe = np.linspace(_SUPPORT_LO, _SUPPORT_HI, 4001)
    if np.min(_dilation_sum_of_squares(a_hat, probe)) < 1e-8:
        raise InvalidCutoffError(
            "sum of squared dilates vanishes on [1/4, 4]; cutoff is not "
            "bounded below on [1/3, 3]"
        )

    def b_func(t):
        t = np.asarray(t, dtype=float)
        av = a_hat(t)
        out = np.zeros_like(t)
        live = av != 0.0
        if np.any(live):
            denom = _dilation_sum_of_squares(a_hat, t[live])
            out[live] = av[live] / denom
        return out

    b_hat = SmoothCutoff(kind="dual", u=a_hat.u, v=a_hat.v, func=b_func)
    return CutoffPair(a_hat=a_hat, b_hat=b_hat)


_QUADRATIC = make_quadratic_cutoff()
_SHIPPED = {
    "quadratic": CutoffPair(a_hat=_QUADRATIC, b_hat=_QUADRATIC),
    "dual": make_dual_pair(make_type_b()),
}


def make_pair(kind: str = "quadratic") -> CutoffPair:
    """Shipped constructions: 'quadratic' (self-dual) or 'dual' (bump + mate).

    Each kind is one shared pair, so frames of one kind share coefficients.
    """
    if kind not in _SHIPPED:
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

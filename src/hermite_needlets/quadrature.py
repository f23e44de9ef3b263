"""Hermite zeros, Gauss-Hermite rules, and tensor-product cubature.

The zeros of H_n are symmetric, so only the floor(n/2) positive ones are
computed.  Their initial guesses come from asymptotics: Tricomi's formula in
the bulk and Gatteschi's Airy-type formula near the largest zeros (Townsend,
Trogdon & Olver, IMA J. Numer. Anal. 2016, Lemmas 3.1 and 3.2), at every
order.  Newton iteration on the normalized recurrence polishes them,
and the negative zeros are their mirror image.  Weights are computed through
the Christoffel function 1/K_n at the nodes, which is overflow-free at any
order the degree cap allows and even in t, so it too is evaluated on one
half only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import hermite_core
from .errors import (
    InvalidDegreeError,
    NumericFailureError,
    ResourceError,
)

DEFAULT_NODE_BUDGET = 10**7

_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-14

# Airy zeros a_1..a_6 (DLMF Table 9.9.1).  The asymptotic series is accurate
# to 1e-12 from a_7 on but only to 3e-3 at a_1; with exact values here the
# edge guesses need one Newton sweep fewer.
_AIRY_ZEROS = (
    -2.338107410459767,
    -4.08794944413097,
    -5.520559828095551,
    -6.786708090071759,
    -7.944133587120853,
    -9.02265085334098,
)


@dataclass(frozen=True)
class QuadratureRule1D:
    """Gauss-Hermite rule: zeros of H_n with both weight normalizations.

    ``gauss_weights`` integrate p(t)*exp(-t^2); ``christoffel_weights`` are
    1/K_n at the nodes and integrate products of normalized Hermite
    functions directly (the exp(-t^2) factor is already inside them).
    All weights are strictly positive in exact arithmetic; edge gauss
    weights underflow the double range for n beyond roughly 330.
    """

    n: int
    nodes: np.ndarray
    gauss_weights: np.ndarray
    christoffel_weights: np.ndarray


@dataclass(frozen=True)
class CubatureRule:
    """Tensor-product rule exact for f*g with f in V_l, g in V_m, l+m <= 2n-1.

    Only the 1-d rule is stored: row r is the row-major multi-index
    ``axes(r)`` into its nodes, weighted by their Christoffel weights' product.
    """

    d: int
    base: QuadratureRule1D

    @property
    def node_count(self) -> int:
        return self.base.n**self.d

    @property
    def shape(self) -> tuple[int, ...]:  # (n,)*d: the rows as a d-axis array
        return (self.base.n,) * self.d

    def axes(self, rows):
        """Per-axis base indices of the given flat rows, row-major."""
        return np.unravel_index(rows, self.shape)

    def nodes_at(self, rows) -> np.ndarray:
        """Nodes of the given rows: shape (len(rows), d), or (d,) for one row."""
        return np.stack([self.base.nodes[i] for i in self.axes(rows)], axis=-1)

    def weights_at(self, rows):
        """Weights of the given rows: the products of their axes' weights."""
        return math.prod(self.base.christoffel_weights[i] for i in self.axes(rows))

    @property
    def nodes(self) -> np.ndarray:  # (n**d, d), formed when read
        return self.nodes_at(np.arange(self.node_count))

    def axis_product(self, per_axis: np.ndarray) -> np.ndarray:
        """Each row's product of ``per_axis`` over its axes, in a fresh array."""
        return math.prod(np.ix_(*(per_axis,) * self.d)).ravel()

    @property
    def weights(self) -> np.ndarray:  # (n**d,), a fresh array at each read
        return self.axis_product(self.base.christoffel_weights)


def _newton_polish(n: int, t: np.ndarray) -> np.ndarray:
    """Newton-polish approximate zeros of H_n; ratio h_n/h_n' is scale-free."""
    t = t.copy()
    for _ in range(_NEWTON_MAX_ITER):
        p_n, deriv, _ = hermite_core._scaled_derivative(n, t)
        step = p_n / deriv
        t -= step
        if np.all(np.abs(step) <= _NEWTON_TOL * (1.0 + np.abs(t))):
            break
    else:
        raise NumericFailureError(
            f"Newton polish for Hermite zeros (n={n}) did not converge "
            f"in {_NEWTON_MAX_ITER} iterations"
        )
    return t


def _airy_zeros(count: int) -> np.ndarray:
    """The first ``count`` zeros a_1 > a_2 > ... of Ai (DLMF 9.9.6, 9.9.18)."""
    t = 0.375 * math.pi * (4.0 * np.arange(1, count + 1) - 1.0)
    s = t**-2.0
    series = 1.0 + s * (
        5.0 / 48.0
        + s * (
            -5.0 / 36.0
            + s * (
                77125.0 / 82944.0
                + s * (-108056875.0 / 6967296.0 + s * 162375596875.0 / 334430208.0)
            )
        )
    )
    zeros = -(t ** (2.0 / 3.0)) * series
    exact = min(count, len(_AIRY_ZEROS))
    zeros[:exact] = _AIRY_ZEROS[:exact]
    return zeros


def _asymptotic_positive_zeros(n: int) -> np.ndarray:
    """Asymptotic approximations to the positive zeros of H_n, ascending.

    H_n(x) is x^(n mod 2) L_m^(alpha)(x^2) up to a constant, m = floor(n/2),
    alpha = -1/2 or 1/2, so alpha^2 = 1/4 and nu = 4m + 2 alpha + 2 = 2n + 1
    for either parity.  Gatteschi's formula serves the largest zeros and
    Tricomi's the rest; their errors cross near the 0.5 n^0.46-th largest
    zero (measured for n = 150..20000).
    """
    m = n // 2
    nu = 2.0 * n + 1.0
    edge = min(m, math.ceil(0.5 * n**0.46))
    a = _airy_zeros(edge)
    gatteschi = np.sqrt(
        nu
        + 2.0 ** (2.0 / 3.0) * a * nu ** (1.0 / 3.0)
        + 0.2 * 2.0 ** (4.0 / 3.0) * a**2 * nu ** (-1.0 / 3.0)
        + (9.0 / 140.0 - 12.0 / 175.0 * a**3) / nu
        + (16.0 / 1575.0 * a + 92.0 / 7875.0 * a**4)
        * 2.0 ** (2.0 / 3.0)
        * nu ** (-5.0 / 3.0)
        - (15152.0 / 3031875.0 * a**5 + 1088.0 / 121275.0 * a**2)
        * 2.0 ** (1.0 / 3.0)
        * nu ** (-7.0 / 3.0)
    )
    # Tricomi: T - sin T = (4r + 3) pi / nu, r = 0 for the largest zero.
    # Ten Newton steps from pi/2 solve it to roundoff for every r used up to
    # the degree cap; the smallest right-hand side, at n = 20000, needs eight.
    rhs = (4.0 * np.arange(edge, m) + 3.0) * math.pi / nu
    theta = np.full(rhs.shape, 0.5 * math.pi)
    for _ in range(10):
        theta -= (theta - np.sin(theta) - rhs) / (1.0 - np.cos(theta))
    c = np.cos(0.5 * theta) ** 2
    tricomi = np.sqrt(
        nu * c - (1.25 / (1.0 - c) ** 2 - 1.0 / (1.0 - c) - 0.25) / (3.0 * nu)
    )
    return np.concatenate((gatteschi, tricomi))[::-1]


@lru_cache(maxsize=128)
def _zeros_cached(n: int) -> np.ndarray:
    positive = _newton_polish(n, _asymptotic_positive_zeros(n))
    # Newton could send two guesses to one zero, or one to a negative zero;
    # either would leave a wrong rule that nothing downstream detects.
    if positive.size and not (positive[0] > 0 and np.all(np.diff(positive) > 0)):
        raise NumericFailureError(
            f"Newton polish for Hermite zeros (n={n}) lost a positive zero"
        )
    centre = [0.0] if n % 2 == 1 else []
    zeros = np.concatenate((-positive[::-1], centre, positive))
    zeros.setflags(write=False)
    return zeros


def hermite_zeros(n: int) -> np.ndarray:
    """Ascending zeros of the Hermite polynomial H_n."""
    if n < 1 or n > hermite_core.DEGREE_CAP:
        raise InvalidDegreeError(f"order {n} outside [1, {hermite_core.DEGREE_CAP}]")
    return _zeros_cached(n)


@lru_cache(maxsize=64)
def _rule_cached(n: int) -> QuadratureRule1D:
    nodes = _zeros_cached(n)
    # The recurrence at -t flips only signs, so K_n on the nonnegative half
    # mirrored is bitwise what the full node set would give.
    half = 1.0 / hermite_core.kernel_diag(n, nodes[n // 2 :])
    lam = np.concatenate((half[::-1][: n // 2], half))
    gauss = lam * np.exp(-nodes * nodes)
    lam.setflags(write=False)
    gauss.setflags(write=False)
    return QuadratureRule1D(
        n=n, nodes=nodes, gauss_weights=gauss, christoffel_weights=lam
    )


def gauss_hermite_rule(n: int) -> QuadratureRule1D:
    """n-point Gauss-Hermite rule, exact for polynomials of degree 2n-1."""
    if n < 1 or n > hermite_core.DEGREE_CAP:
        raise InvalidDegreeError(f"order {n} outside [1, {hermite_core.DEGREE_CAP}]")
    return _rule_cached(n)


def product_cubature(
    n: int, d: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> CubatureRule:
    """d-dimensional product rule with Christoffel weights at Hermite zeros."""
    hermite_core._check_dim(d)
    if n**d > node_budget:
        raise ResourceError(f"{n}**{d} nodes exceed the budget {node_budget}")
    return CubatureRule(d=d, base=gauss_hermite_rule(n))

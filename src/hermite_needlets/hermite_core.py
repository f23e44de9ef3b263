"""Stable evaluation of Hermite functions, kernels, and Christoffel functions.

All evaluation goes through the normalized three-term recurrence

    h_{k+1}(t) = t*sqrt(2/(k+1))*h_k(t) - sqrt(k/(k+1))*h_{k-1}(t),
    h_0(t) = pi**(-1/4) * exp(-t**2/2),

run on the polynomial part with a per-point log-scale ledger, so degrees up
to ``DEGREE_CAP`` and arguments far outside the oscillatory region neither
overflow nor silently flush to zero where the true value is appreciable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsufficientQuadratureError,
    InvalidDegreeError,
    ParameterError,
)

DEGREE_CAP = 20000

_H0 = math.pi ** -0.25

# Rescale polynomial-part magnitudes at 2**960 to keep headroom; the ledger
# carries the factored-out exponent.
_RESCALE_THRESHOLD = 2.0 ** 960
_RESCALE_DOWN = 2.0 ** -960
_RESCALE_LOG = 960.0 * math.log(2.0)

# Squared accumulators need rescaling well before their base values would.
_RESCALE_SQ_THRESHOLD = 2.0 ** 480
_RESCALE_SQ_DOWN = 2.0 ** -480
_RESCALE_SQ_LOG = 480.0 * math.log(2.0)

# Plain (unscaled) recurrence is safe when exp(-t^2/2) stays normal, or when
# every requested degree is evanescent wherever it is not (at the boundary
# pair, degree 300 and t^2 = 1400, true magnitudes are below 1e-100).
_PLAIN_TSQ_LIMIT = 1400.0
_PLAIN_DEGREE_LIMIT = 300


def _check_degree(n: int) -> None:
    if n < 0 or n > DEGREE_CAP:
        raise InvalidDegreeError(f"degree {n} outside [0, {DEGREE_CAP}]")


def _scaled_state(n: int, t: np.ndarray):
    """Run the recurrence on the polynomial part up to degree ``n``.

    Returns ``(p_prev, p, logscale)`` with ``h_{n-1} = p_prev*exp(logscale)``
    and ``h_n = p*exp(logscale)``; ``p_prev`` is zero for ``n = 0``.
    """
    t = np.asarray(t, dtype=float)
    logscale = -0.5 * t * t
    p_prev = np.zeros_like(t)
    p = np.full_like(t, _H0)
    p_next = np.empty_like(t)
    mag = np.empty_like(t)
    for k in range(n):
        _recurrence_step(k, t, p, p_prev, p_next)
        p_prev, p, p_next = p, p_next, p_prev
        if np.abs(p, out=mag).max(initial=0.0) > _RESCALE_THRESHOLD:
            big = mag > _RESCALE_THRESHOLD
            p[big] *= _RESCALE_DOWN
            p_prev[big] *= _RESCALE_DOWN
            logscale[big] += _RESCALE_LOG
    return p_prev, p, logscale


def _recurrence_step(k: int, t, p, p_prev, out) -> None:
    """out = t*sqrt(2/(k+1))*p - sqrt(k/(k+1))*p_prev, without temporaries.

    The operations and their order are those of the plain expression, so
    the result is bitwise the same; ``p_prev`` is overwritten.
    """
    np.multiply(t, math.sqrt(2.0 / (k + 1)), out=out)
    out *= p
    p_prev *= math.sqrt(k / (k + 1.0))
    out -= p_prev


def hermite_function(n: int, t: float) -> float:
    """Value of the L2-normalized Hermite function h_n at t."""
    _check_degree(n)
    _, p, ls = _scaled_state(n, np.asarray([float(t)]))
    return float(p[0] * np.exp(ls[0]))


def hermite_function_derivative(n: int, t: float) -> float:
    """h_n'(t) = -sqrt((n+1)/2) h_{n+1}(t) + sqrt(n/2) h_{n-1}(t)."""
    _check_degree(n)
    arr = np.asarray([float(t)])
    p_nm1, p_n, ls = _scaled_state(n, arr)
    # one more step for h_{n+1} under the same ledger
    p_np1 = arr * math.sqrt(2.0 / (n + 1)) * p_n - math.sqrt(n / (n + 1.0)) * p_nm1
    val = -math.sqrt((n + 1) / 2.0) * p_np1 + math.sqrt(n / 2.0) * p_nm1
    return float(val[0] * np.exp(ls[0]))


def hermite_values(max_degree: int, points: np.ndarray) -> np.ndarray:
    """Matrix of h_k(points) for k = 0..max_degree, shape (max_degree+1, npts).

    Uses the plain recurrence when safe, otherwise the scaled one;
    entries whose true magnitude is below roughly 1e-290 may flush to zero.
    """
    _check_degree(max_degree)
    t = np.asarray(points, dtype=float).ravel()
    out = np.empty((max_degree + 1, t.size))
    tsq_max = float(np.max(t * t)) if t.size else 0.0
    if tsq_max <= _PLAIN_TSQ_LIMIT or max_degree <= _PLAIN_DEGREE_LIMIT:
        h_prev = np.zeros_like(t)
        h = _H0 * np.exp(-0.5 * t * t)
        out[0] = h
        for k in range(max_degree):
            h_next = t * math.sqrt(2.0 / (k + 1)) * h - math.sqrt(k / (k + 1.0)) * h_prev
            h_prev, h = h, h_next
            out[k + 1] = h
        return out
    logscale = -0.5 * t * t
    p_prev = np.zeros_like(t)
    p = np.full_like(t, _H0)
    out[0] = p * np.exp(logscale)
    for k in range(max_degree):
        p_next = t * math.sqrt(2.0 / (k + 1)) * p - math.sqrt(k / (k + 1.0)) * p_prev
        p_prev, p = p, p_next
        big = np.abs(p) > _RESCALE_THRESHOLD
        if big.any():
            p[big] *= _RESCALE_DOWN
            p_prev[big] *= _RESCALE_DOWN
            logscale[big] += _RESCALE_LOG
        out[k + 1] = p * np.exp(logscale)
    return out


def hermite_derivative_values(max_degree: int, points: np.ndarray) -> np.ndarray:
    """Matrix of h_k'(points) for k = 0..max_degree via the ladder identity."""
    _check_degree(max_degree + 1)
    vals = hermite_values(max_degree + 1, points)
    out = np.empty((max_degree + 1, vals.shape[1]))
    for k in range(max_degree + 1):
        out[k] = -math.sqrt((k + 1) / 2.0) * vals[k + 1]
        if k >= 1:
            out[k] += math.sqrt(k / 2.0) * vals[k - 1]
    return out


def weighted_hermite_moments(
    max_degree: int, points: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Moments sum_i w_i h_k(t_i) for k = 0..max_degree in O(npts) memory.

    The weights are folded together with the running exp ledger, so only
    rescale events cost an exponential.
    """
    _check_degree(max_degree)
    t = np.asarray(points, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if t.size != w.size:
        raise DimensionMismatchError("points and weights differ in length")
    logscale = -0.5 * t * t
    p_prev = np.zeros_like(t)
    p = np.full_like(t, _H0)
    w_eff = w * np.exp(logscale)
    out = np.empty(max_degree + 1)
    out[0] = float(np.dot(w_eff, p))
    for k in range(max_degree):
        p_next = t * math.sqrt(2.0 / (k + 1)) * p - math.sqrt(k / (k + 1.0)) * p_prev
        p_prev, p = p, p_next
        big = np.abs(p) > _RESCALE_THRESHOLD
        if big.any():
            p[big] *= _RESCALE_DOWN
            p_prev[big] *= _RESCALE_DOWN
            logscale[big] += _RESCALE_LOG
            w_eff[big] = w[big] * np.exp(logscale[big])
        out[k + 1] = float(np.dot(w_eff, p))
    return out


def kernel_diag(n: int, points: np.ndarray) -> np.ndarray:
    """Diagonal K_n(t,t) = sum_{k<=n} h_k(t)^2 for d = 1, vectorized in t.

    The running sum shares the recurrence's scale ledger, so it is exact up
    to roundoff even where individual low-degree terms underflow.
    """
    _check_degree(n)
    t = np.asarray(points, dtype=float).ravel()
    logscale = -t * t  # ledger for squared quantities
    p_prev = np.zeros_like(t)
    p = np.full_like(t, _H0)
    acc = p * p
    p_next = np.empty_like(t)
    sq = np.empty_like(t)
    for k in range(n):
        _recurrence_step(k, t, p, p_prev, p_next)
        p_prev, p, p_next = p, p_next, p_prev
        np.multiply(p, p, out=sq)
        acc += sq
        # |p| > 2**480 exactly when the rounded p*p > 2**960
        if sq.max(initial=0.0) > _RESCALE_SQ_THRESHOLD**2:
            big = sq > _RESCALE_SQ_THRESHOLD**2
            p[big] *= _RESCALE_SQ_DOWN
            p_prev[big] *= _RESCALE_SQ_DOWN
            acc[big] *= _RESCALE_SQ_DOWN * _RESCALE_SQ_DOWN
            logscale[big] += 2.0 * _RESCALE_SQ_LOG
    return acc * np.exp(logscale)


def _as_point(x, dim: int | None = None) -> np.ndarray:
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.ndim != 1:
        raise DimensionMismatchError(f"expected a single point, got shape {pt.shape}")
    if dim is not None and pt.size != dim:
        raise DimensionMismatchError(f"point has {pt.size} components, expected {dim}")
    return pt


def hermite_tensor(alpha: Iterable[int], x) -> float:
    """Tensor-product Hermite function: prod_i h_{alpha_i}(x_i)."""
    idx = tuple(int(a) for a in alpha)
    pt = _as_point(x)
    if len(idx) != pt.size:
        raise DimensionMismatchError(
            f"multi-index has {len(idx)} components, point has {pt.size}"
        )
    val = 1.0
    for a, coord in zip(idx, pt):
        _check_degree(a)
        val *= hermite_function(a, coord)
    return val


def projector_kernel(n: int, x, y) -> float:
    """Kernel of the projector onto the span of total degree exactly n.

    d = 1: h_n(x) h_n(y); d = 2: sum over alpha = (k, n-k) of the products.
    """
    _check_degree(n)
    px, py = _as_point(x), _as_point(y)
    if px.size != py.size:
        raise DimensionMismatchError("x and y have different dimensions")
    d = px.size
    if d == 1:
        vals = hermite_values(n, np.array([px[0], py[0]]))
        return float(vals[n, 0] * vals[n, 1])
    if d == 2:
        vals = hermite_values(n, np.array([px[0], py[0], px[1], py[1]]))
        u = vals[:, 0] * vals[:, 1]
        v = vals[:, 2] * vals[:, 3]
        return float(np.dot(u, v[::-1]))
    raise DimensionMismatchError(f"unsupported dimension {d}, expected 1 or 2")


def partial_sum_kernel(n: int, x, y, method: str = "direct") -> float:
    """Kernel K_n(x,y) of the projector onto total degree <= n.

    ``method='cd'`` uses the Christoffel-Darboux form (d = 1, x != y only);
    the direct sum is the reference path.
    """
    _check_degree(n)
    px, py = _as_point(x), _as_point(y)
    if px.size != py.size:
        raise DimensionMismatchError("x and y have different dimensions")
    d = px.size
    if method not in ("direct", "cd"):
        raise ParameterError(f"unknown method {method!r}")
    if d == 1:
        xv, yv = float(px[0]), float(py[0])
        if method == "cd":
            if xv == yv:
                raise ParameterError("Christoffel-Darboux form needs x != y")
            vals = hermite_values(n + 1, np.array([xv, yv]))
            num = vals[n + 1, 0] * vals[n, 1] - vals[n, 0] * vals[n + 1, 1]
            return float(math.sqrt((n + 1) / 2.0) * num / (xv - yv))
        vals = hermite_values(n, np.array([xv, yv]))
        return float(np.dot(vals[:, 0], vals[:, 1]))
    if d == 2:
        if method != "direct":
            raise ParameterError("only the direct sum is available for d = 2")
        vals = hermite_values(n, np.array([px[0], py[0], px[1], py[1]]))
        u = vals[:, 0] * vals[:, 1]
        v = vals[:, 2] * vals[:, 3]
        # cumulative convolution: sum_{k+l <= n} u_k v_l
        total = 0.0
        for m in range(n + 1):
            total += float(np.dot(u[: m + 1], v[m::-1]))
        return total
    raise DimensionMismatchError(f"unsupported dimension {d}, expected 1 or 2")


def projector_diag(max_degree: int, points: np.ndarray, dim: int = 1) -> np.ndarray:
    """Diagonal values H_m(x,x) for m = 0..max_degree at d-dim points.

    ``points``: shape (npts,) for d = 1 or (npts, d) for d = 2.
    Returns shape (max_degree+1, npts).
    """
    _check_degree(max_degree)
    if dim == 1:
        t = np.asarray(points, dtype=float).ravel()
        return hermite_values(max_degree, t) ** 2
    if dim == 2:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        u = hermite_values(max_degree, pts[:, 0]) ** 2
        v = hermite_values(max_degree, pts[:, 1]) ** 2
        out = np.empty((max_degree + 1, pts.shape[0]))
        for m in range(max_degree + 1):
            out[m] = np.einsum("kp,kp->p", u[: m + 1], v[m::-1])
        return out
    raise DimensionMismatchError(f"unsupported dimension {dim}, expected 1 or 2")


def christoffel(n: int, t: float) -> float:
    """Christoffel function 1 / K_n(t,t) on the real line."""
    _check_degree(n)
    return float(1.0 / kernel_diag(n, np.asarray([float(t)]))[0])


@dataclass
class KernelDiagonalReport:
    """Sampled diagonal K_n(x,x) values used by the decay diagnostics."""

    n: int
    samples: list = field(default_factory=list)  # (point, value) pairs

    def __post_init__(self):
        for pt, val in self.samples:
            if not val > 0.0:
                raise DimensionMismatchError(
                    f"diagonal value {val} at {pt} is not strictly positive"
                )


def kernel_diagonal_report(n: int, points, dim: int = 1) -> KernelDiagonalReport:
    """Evaluate K_n on the diagonal at the given points."""
    _check_degree(n)
    if dim == 1:
        pts = np.asarray(points, dtype=float).ravel()
        vals = kernel_diag(n, pts)
        samples = [((float(p),), float(v)) for p, v in zip(pts, vals)]
    else:
        pts = np.asarray(points, dtype=float).reshape(-1, dim)
        diag = projector_diag(n, pts, dim=dim)
        vals = diag.sum(axis=0)
        samples = [(tuple(map(float, p)), float(v)) for p, v in zip(pts, vals)]
    return KernelDiagonalReport(n=n, samples=samples)


class HermiteExpansion:
    """A function in the degree-n band represented by Hermite coefficients.

    ``coeffs`` maps multi-indices (length ``dim`` tuples) to real values;
    zero entries may be omitted.  The L2 norm is the Euclidean norm of the
    coefficients.
    """

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim: int, degree: int, coeffs: dict):
        if dim < 1:
            raise DimensionMismatchError(f"dimension must be >= 1, got {dim}")
        if degree < 0:
            raise InvalidDegreeError(f"degree must be >= 0, got {degree}")
        clean = {}
        for alpha, c in coeffs.items():
            idx = tuple(int(a) for a in alpha)
            if len(idx) != dim:
                raise DimensionMismatchError(
                    f"index {idx} has {len(idx)} components, expected {dim}"
                )
            if any(a < 0 for a in idx):
                raise InvalidDegreeError(f"index {idx} has a negative component")
            if sum(idx) > degree:
                raise InvalidDegreeError(
                    f"index {idx} exceeds declared degree {degree}"
                )
            clean[idx] = float(c)
        self.dim = int(dim)
        self.degree = int(degree)
        self.coeffs = clean

    def l2_norm(self) -> float:
        return math.sqrt(sum(c * c for c in self.coeffs.values()))

    def coeff_array(self) -> np.ndarray:
        """Dense coefficient array: (degree+1,) for d=1, (degree+1,)*2 for d=2."""
        shape = (self.degree + 1,) * self.dim
        arr = np.zeros(shape)
        for idx, c in self.coeffs.items():
            arr[idx] = c
        return arr

    @classmethod
    def from_array(cls, arr: np.ndarray, tol: float = 0.0) -> "HermiteExpansion":
        arr = np.asarray(arr, dtype=float)
        dim = arr.ndim
        coeffs = {}
        max_total = 0
        for idx in np.argwhere(np.abs(arr) > tol):
            key = tuple(int(i) for i in idx)
            coeffs[key] = float(arr[key])
            max_total = max(max_total, sum(key))
        return cls(dim=dim, degree=max_total, coeffs=coeffs)

    def scaled(self, factor: float) -> "HermiteExpansion":
        return HermiteExpansion(
            self.dim, self.degree, {a: factor * c for a, c in self.coeffs.items()}
        )

    def __repr__(self):
        return (
            f"HermiteExpansion(dim={self.dim}, degree={self.degree}, "
            f"nnz={len(self.coeffs)})"
        )


def evaluate_expansion(f: HermiteExpansion, x) -> float:
    """Pointwise value sum_alpha c_alpha H_alpha(x)."""
    pt = _as_point(x, f.dim)
    if not f.coeffs:
        return 0.0
    max_per_axis = [max(a[i] for a in f.coeffs) for i in range(f.dim)]
    mats = [hermite_values(max_per_axis[i], np.asarray([pt[i]])) for i in range(f.dim)]
    total = 0.0
    for alpha, c in f.coeffs.items():
        term = c
        for i, a in enumerate(alpha):
            term *= mats[i][a, 0]
        total += term
    return float(total)


def evaluate_expansion_grid(f: HermiteExpansion, axes: list[np.ndarray]) -> np.ndarray:
    """Evaluate on a tensor grid given per-axis coordinate arrays."""
    if len(axes) != f.dim:
        raise DimensionMismatchError(f"need {f.dim} axes, got {len(axes)}")
    arr = f.coeff_array()
    if f.dim == 1:
        return hermite_values(f.degree, axes[0]).T @ arr
    if f.dim == 2:
        h1 = hermite_values(f.degree, axes[0])
        h2 = hermite_values(f.degree, axes[1])
        return h1.T @ arr @ h2
    raise DimensionMismatchError(f"unsupported dimension {f.dim}")


class ProjectionResult:
    """Expansion produced by numeric projection plus its tail indicator."""

    __slots__ = ("expansion", "tail")

    def __init__(self, expansion: HermiteExpansion, tail: float):
        self.expansion = expansion
        self.tail = tail

    def __iter__(self):
        return iter((self.expansion, self.tail))


def project_function(
    f: Callable, degree: int, quad_order: int, dim: int = 1
) -> ProjectionResult:
    """Degree-n truncation of f's Hermite expansion by Gauss-Hermite cubature.

    ``f`` receives a (npts,) array for d = 1 or a (npts, d) array otherwise.
    Requires ``quad_order >= 2*degree + 16`` so coefficients up to ``degree``
    are trustworthy for smooth, Gaussian-decaying inputs.  The tail indicator
    is max |c_alpha| over |alpha| in {degree-1, degree}.
    """
    _check_degree(degree)
    if quad_order < 2 * degree + 16:
        raise InsufficientQuadratureError(
            f"quad_order {quad_order} < 2*{degree} + 16 required for degree {degree}"
        )
    from . import quadrature  # local import; quadrature builds on this module

    rule = quadrature.gauss_hermite_rule(quad_order)
    if dim == 1:
        fvals = np.asarray(f(rule.nodes), dtype=float)
        coeff = weighted_hermite_moments(
            degree, rule.nodes, rule.christoffel_weights * fvals
        )
    elif dim == 2:
        pts = np.stack(
            np.meshgrid(rule.nodes, rule.nodes, indexing="ij"), axis=-1
        ).reshape(-1, 2)
        fvals = np.asarray(f(pts), dtype=float).reshape(quad_order, quad_order)
        w = rule.christoffel_weights
        hmat = hermite_values(degree, rule.nodes)
        weighted = (w[:, None] * w[None, :]) * fvals
        full = hmat @ weighted @ hmat.T
        coeff = np.zeros_like(full)
        for a1 in range(degree + 1):
            coeff[a1, : degree + 1 - a1] = full[a1, : degree + 1 - a1]
    else:
        raise DimensionMismatchError(f"unsupported dimension {dim}, expected 1 or 2")

    if dim == 1:
        tail = float(np.max(np.abs(coeff[max(degree - 1, 0) :])))
        coeffs = {
            (k,): float(c) for k, c in enumerate(coeff) if c != 0.0
        }
    else:
        tail = 0.0
        coeffs = {}
        for a1 in range(degree + 1):
            for a2 in range(degree + 1 - a1):
                c = float(coeff[a1, a2])
                if a1 + a2 >= degree - 1:
                    tail = max(tail, abs(c))
                if c != 0.0:
                    coeffs[(a1, a2)] = c
    return ProjectionResult(HermiteExpansion(dim, degree, coeffs), tail)

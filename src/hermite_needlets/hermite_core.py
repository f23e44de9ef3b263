"""Stable evaluation of Hermite functions, their kernels and kernel diagonals.

All evaluation goes through the normalized three-term recurrence

    h_{k+1}(t) = t*sqrt(2/(k+1))*h_k(t) - sqrt(k/(k+1))*h_{k-1}(t),
    h_0(t) = pi**(-1/4) * exp(-t**2/2),

run on the polynomial part with a per-point log-scale ledger, so degrees up
to ``DEGREE_CAP`` and arguments far outside the oscillatory region do not
overflow.  One generator, ``_ledger_steps``, owns the recurrence step, the
rescale test and the ledger; every evaluation here consumes it, and values
and moments share one finish of it, ``_finished_steps``.  Synthesis and
projection are the weighted moments of ``product_moments``.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    InsufficientQuadratureError,
    InvalidDegreeError,
    NumericFailureError,
    ParameterError,
)

DEGREE_CAP = 20000

_H0 = math.pi ** -0.25

# Rescale polynomial-part magnitudes at 2**960 to keep headroom; the ledger
# carries the factored-out exponent.
_RESCALE_THRESHOLD = 2.0 ** 960
_RESCALE_DOWN = 2.0 ** -960
_RESCALE_LOG = 960.0 * math.log(2.0)
# Bits a tested magnitude may grow by before the next test (see _ledger_steps).
_RESCALE_ROOM = 48


def _check_degree(n: int) -> None:
    if n < 0 or n > DEGREE_CAP:
        raise InvalidDegreeError(f"degree {n} outside [0, {DEGREE_CAP}]")


def _check_dim(dim: int) -> None:
    if dim not in (1, 2):
        raise DimensionMismatchError(f"unsupported dimension {dim}, expected 1 or 2")


def _test_gap(tmax: float, k: int, power: int) -> int:
    """Steps after loop step ``k`` (-1 before the first) without a test.

    The next step grows max(|p|, |p_prev|) by at most the rate
    tmax*sqrt(2/(k+2)) + 1, and later steps by less, so ``power`` (2 for
    squares) times log2 of that rate bounds the growth of each step's
    measure in bits; the gap spends at most ``_RESCALE_ROOM`` of them.
    """
    rate = tmax * math.sqrt(2.0 / (k + 2)) + 1.0
    if not rate > 1.0:  # no points, t = 0 or a NaN t: test every step
        return 1
    return max(1, int(_RESCALE_ROOM / (power * math.log2(rate))))


def _ledger_steps(n: int, t: np.ndarray, squares: bool = False):
    """Run the recurrence on the polynomial part for degrees k = 0..n, in place.

    Yields ``(p_prev, p, mag, logscale, rescaled)`` once per degree, with
    ``h_k = p*exp(logscale)`` and ``h_{k-1} = p_prev*exp(logscale)``, or with
    ``h_k**2 = p*p*exp(logscale)`` when ``squares`` is set.  ``rescaled`` is
    None or the mask of points whose p, p_prev and ledger were rescaled
    after a test of the measure ``mag``.  With ``squares`` set, ``mag`` is
    p*p before that rescale at every degree; otherwise it is |p| before the
    rescale, meaningful only at the degrees that were tested.  The arrays
    are reused from one degree to the next.

    A test rescales the points whose measure exceeds 2**960.  Tests come in
    pairs at consecutive degrees, so after one both p and p_prev measure at
    most 2**960, and the next pair comes ``_test_gap`` steps later, when the
    measure may have grown by 2**48 at most: it stays below 2**1008, and
    ``kernel_diag``'s sum of at most DEGREE_CAP + 1 squares below 2**1023.
    Where a single step may grow it by more (|t| above about 1e7 with
    ``squares``), every degree is tested.  The last two degrees are always
    tested, so one further step cannot overflow.  A rescale is an exact
    power of two, so when it happens moves only the split of the exponent
    between p and the ledger: h_n/h_n' is bitwise the same, and so is
    ``kernel_diag`` wherever the number of rescales is.
    """
    logscale = -t * t if squares else -0.5 * t * t
    p_prev = np.zeros_like(t)
    p = np.full_like(t, _H0)
    p_next = np.empty_like(t)
    tmax = float(np.abs(t, out=p_next).max(initial=0.0))
    # a square crosses 2**960 exactly when |p| crosses 2**480
    measure, down, power = (
        (np.square, 2.0**-480, 2) if squares else (np.abs, _RESCALE_DOWN, 1)
    )
    mag = measure(p)
    yield p_prev, p, mag, logscale, None
    due = _test_gap(tmax, -1, power) - 1  # the second step of the next test pair
    for k in range(n):
        # t*sqrt(2/(k+1))*p - sqrt(k/(k+1))*p_prev without temporaries; the
        # operations and their order are the expression's, so bitwise equal
        np.multiply(t, math.sqrt(2.0 / (k + 1)), out=p_next)
        p_next *= p
        p_prev *= math.sqrt(k / (k + 1.0))
        p_next -= p_prev
        p_prev, p, p_next = p, p_next, p_prev
        rescaled = None
        if k + 1 >= due or k + 2 >= n:
            if measure(p, out=mag).max(initial=0.0) > _RESCALE_THRESHOLD:
                rescaled = mag > _RESCALE_THRESHOLD
                p[rescaled] *= down
                p_prev[rescaled] *= down
                logscale[rescaled] += _RESCALE_LOG
            if k >= due:
                due = k + _test_gap(tmax, k, power)
        elif squares:
            np.square(p, out=mag)
        yield p_prev, p, mag, logscale, rescaled


def _scaled_state(n: int, t: np.ndarray):
    """``(p_prev, p, logscale)`` at degree n: h_{n-1}, h_n = p_prev, p times
    exp(logscale), with p_prev = 0 at n = 0."""
    for p_prev, p, _, logscale, _ in _ledger_steps(n, np.asarray(t, dtype=float)):
        pass
    return p_prev, p, logscale


def _scaled_derivative(n: int, t: np.ndarray):
    """``(p, dp, logscale)`` with h_n = p*exp(logscale), h_n' = dp*exp(logscale).

    One more step gives h_{n+1} under the same ledger, then the ladder
    h_n' = -sqrt((n+1)/2) h_{n+1} + sqrt(n/2) h_{n-1}.
    """
    p_nm1, p_n, logscale = _scaled_state(n, t)
    p_np1 = t * math.sqrt(2.0 / (n + 1)) * p_n - math.sqrt(n / (n + 1.0)) * p_nm1
    deriv = -math.sqrt((n + 1) / 2.0) * p_np1 + math.sqrt(n / 2.0) * p_nm1
    return p_n, deriv, logscale


def decay_radius(n: int, log_tau: float) -> float:
    """Root t > a = sqrt(2n+1) of phi(t) = log_tau < 0, phi the decay of h_n.

    phi(t) = -(t s - a^2 asinh(s/a))/2, s = sqrt(t^2 - a^2), is the
    Plancherel-Rotach exponent of log|h_n| beyond the turning point a
    (Szego, Orthogonal Polynomials, 8.22), where |h_n| falls and bounds
    every |h_k| with k <= n.  It is asymptotic, not a bound: TestDecayRadius
    checks the recurrence's log|h_n| at the root and 0.25 inside it.
    phi' = -s, phi is concave and phi(a + sqrt(-2 log_tau)) <= log_tau, so
    Newton from there falls monotonically onto the root, using no arrays.
    """
    _check_degree(n)
    a = math.sqrt(2.0 * n + 1.0)
    t = a + math.sqrt(-2.0 * log_tau)
    while True:
        s = math.sqrt((t - a) * (t + a))
        nxt = t + (-0.5 * (t * s - a * a * math.asinh(s / a)) - log_tau) / s
        if not nxt < t:
            return t
        t = nxt


def _finished_steps(n: int, t: np.ndarray, weights: np.ndarray):
    """Yield reused ``(p, scale)`` arrays for k = 0..n, with w*h_k(t) = p*scale.

    scale = w*exp(logscale), for weights w of shape (npts,) or (npts, s), is
    recomputed only where the ledger rescaled: the weights take no pass.
    """
    col = (slice(None),) + (None,) * (weights.ndim - 1)  # a point's scale on its row
    scale = np.exp(-0.5 * t * t)[col]
    # in place for one column: a second array would move the heap's peak
    scale = np.multiply(scale, weights, out=scale if weights.ndim == 1 else None)
    for _, p, _, logscale, rescaled in _ledger_steps(n, t):
        if rescaled is not None:
            scale[rescaled] = weights[rescaled] * np.exp(logscale[rescaled])[col]
        yield p, scale


def hermite_function(n: int, t: float) -> float:
    """Value of the L2-normalized Hermite function h_n at t."""
    return float(hermite_values(n, np.asarray([float(t)]))[n, 0])


def hermite_values(max_degree: int, points: np.ndarray, weights=None) -> np.ndarray:
    """Matrix of w_i*h_k(t_i) for k = 0..max_degree, shape (max_degree+1, npts).

    Entries whose true magnitude is below roughly 1e-290 may flush to zero,
    and so may larger ones, up to about 1e-20, where the ledger's
    exp(logscale) underflows: beyond |t| of about 37.6, below the degree
    where the polynomial part first rescales and in the few degrees before
    each later rescale is tested.
    """
    _check_degree(max_degree)
    t = np.asarray(points, dtype=float).ravel()
    w = np.ones(t.size) if weights is None else np.asarray(weights, dtype=float)
    out = np.empty((max_degree + 1, t.size))
    for k, (p, scale) in enumerate(_finished_steps(max_degree, t, w)):
        np.multiply(p, scale, out=out[k])
    return out


def hermite_derivative_values(max_degree: int, points: np.ndarray) -> np.ndarray:
    """Matrix of h_k'(points) for k = 0..max_degree via the ladder identity."""
    vals = hermite_values(max_degree + 1, points)
    k = np.arange(max_degree + 1)[:, None]
    out = -np.sqrt((k + 1) / 2.0) * vals[1:]
    out[1:] += np.sqrt(k[1:] / 2.0) * vals[:-2]
    return out


def weighted_hermite_moments(
    max_degree: int, points: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Moments sum_i w_i h_k(t_i) for k = 0..max_degree in O(npts) memory.

    ``weights`` of shape (npts,) give shape (max_degree+1,); of shape
    (npts, s), s columns of moments from one recurrence pass.
    """
    _check_degree(max_degree)
    t = np.asarray(points, dtype=float).ravel()
    w = np.asarray(weights, dtype=float)
    if w.ndim not in (1, 2) or w.shape[0] != t.size:
        raise DimensionMismatchError(f"weights of shape {w.shape} do not match {t.size} points")
    out = np.empty((max_degree + 1,) + w.shape[1:])
    for k, (p, scale) in enumerate(_finished_steps(max_degree, t, w)):
        out[k] = np.dot(p, scale)
    return out


def kernel_diag(n: int, points: np.ndarray) -> np.ndarray:
    """Diagonal K_n(t,t) = sum_{k<=n} h_k(t)^2 for d = 1, vectorized in t.

    The running sum shares the recurrence's scale ledger and is finished in
    logs where exp(logscale) is subnormal, so no term or sum flushes to zero.
    """
    _check_degree(n)
    t = np.asarray(points, dtype=float).ravel()
    acc = np.zeros_like(t)
    for _, _, sq, logscale, rescaled in _ledger_steps(n, t, squares=True):
        acc += sq
        if rescaled is not None:
            acc[rescaled] *= _RESCALE_DOWN
    return np.where(logscale < -708.0, np.exp(np.log(acc) + logscale), acc * np.exp(logscale))


def total_degree_weights(w: np.ndarray, dim: int) -> np.ndarray:
    """Spread a weight per total degree over a dense coefficient array.

    ``w[nu]`` for nu = 0..n becomes the weight of every multi-index alpha
    with |alpha| = nu: W[alpha] = w[|alpha|], zero where |alpha| > n (the
    Hankel matrix W[k, l] = w[k + l] for d = 2).
    """
    _check_dim(dim)
    w = np.asarray(w, dtype=float)
    padded = np.concatenate((w, np.zeros((dim - 1) * (w.size - 1))))
    # one element's stride on every axis, so W[alpha] = padded[sum(alpha)]
    shape, strides = (w.size,) * dim, padded.strides * dim
    return np.lib.stride_tricks.as_strided(padded, shape, strides).copy()


def contract_axes(arr: np.ndarray, mats) -> np.ndarray:
    """Contract axis i of ``arr`` with the rows of ``mats[i]``; axes stay in order."""
    for m in mats:
        arr = np.tensordot(arr, m, axes=(0, 0))
    return arr


def _degree_sums(factors) -> np.ndarray:
    """Rows sum_{|alpha| = nu} prod_i factors[i][alpha_i] for nu = 0..m.

    Each factor has shape (m+1, npts); the axes fold in one at a time, so
    the work is O(d m^2 npts) and the memory O(m npts).
    """
    acc = factors[0]
    for f in factors[1:]:
        out = np.empty_like(acc)
        for nu in range(acc.shape[0]):
            out[nu] = np.einsum("kp,kp->p", acc[: nu + 1], f[nu::-1])
        acc = out
    return acc


def _as_points(dim: int, *arrays) -> list[np.ndarray]:
    """The arrays, of one shape (npts, d) or (npts,) at d = 1 only, as (npts, d)."""
    pts = [np.asarray(a, dtype=float) for a in arrays]
    shape = pts[0].shape
    cols = shape[1] if len(shape) == 2 else 1  # (npts,) holds npts 1-d points
    if any(p.shape != shape for p in pts) or len(shape) not in (1, 2) or cols != dim:
        got = " and ".join(str(p.shape) for p in pts)
        raise DimensionMismatchError(
            f"points must share shape (npts, {dim}), or (npts,) at d = 1; got {got}"
        )
    return [p.reshape(-1, dim) for p in pts]


def filtered_kernel(
    w: np.ndarray, x, y, dim: int = 1, dx_order: int = 0
) -> np.ndarray:
    """sum_nu w_nu H_nu(x, y), or its derivative in x_1, at paired points.

    H_nu is the kernel of the projector onto total degree exactly nu;
    ``x`` and ``y`` share one shape, (npts, d) or, at d = 1 only, (npts,).
    """
    _check_dim(dim)
    if dx_order not in (0, 1):
        raise ParameterError(f"dx_order must be 0 or 1, got {dx_order}")
    m = w.size - 1
    xp, yp = _as_points(dim, x, y)
    x1_values = hermite_values if dx_order == 0 else hermite_derivative_values
    factors = [
        (x1_values if i == 0 else hermite_values)(m, xp[:, i])
        * hermite_values(m, yp[:, i])
        for i in range(dim)
    ]
    return w @ _degree_sums(factors)


def projector_diag(max_degree: int, points: np.ndarray, dim: int = 1) -> np.ndarray:
    """Diagonal values H_m(x,x) for m = 0..max_degree at d-dim points.

    ``points``: shape (npts, d) or, at d = 1 only, (npts,).
    Returns shape (max_degree+1, npts).
    """
    _check_degree(max_degree)
    _check_dim(dim)
    (pts,) = _as_points(dim, points)
    return _degree_sums([hermite_values(max_degree, pts[:, i]) ** 2 for i in range(dim)])


class HermiteExpansion:
    """A function in the degree-n band represented by Hermite coefficients.

    ``array`` is the read-only dense coefficient array of shape
    (n+1,)*dim, zero above total degree n; the constructor takes a map from
    multi-indices (length ``dim`` tuples) to finite values, zero entries
    omitted.  The L2 norm is the Euclidean norm of the coefficients.
    """

    __slots__ = ("dim", "degree", "array")

    def __init__(self, dim: int, degree: int, coeffs: dict):
        _check_dim(dim)
        if degree < 0:
            raise InvalidDegreeError(f"degree must be >= 0, got {degree}")
        # the storage is dense, so the degree sets its size
        _check_degree(degree)
        arr = np.zeros((int(degree) + 1,) * int(dim))
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
            value = float(c)
            if not math.isfinite(value):
                raise ParameterError(
                    f"coefficient {value} at index {idx} is not finite"
                )
            arr[idx] = value
        self._store(degree, arr)

    def _store(self, degree: int, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        self.dim = arr.ndim
        self.degree = int(degree)
        self.array = arr

    @classmethod
    def _dense(cls, degree: int, arr: np.ndarray) -> "HermiteExpansion":
        """Wrap an owned array of shape (degree+1,)*dim, zero above ``degree``."""
        if not np.isfinite(arr).all():
            raise NumericFailureError("a Hermite coefficient is not finite")
        f = cls.__new__(cls)
        f._store(degree, arr)
        return f

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only map from the multi-indices of nonzero coefficients to them."""
        idx = np.nonzero(self.array)
        keys = zip(*(i.tolist() for i in idx))
        return MappingProxyType(dict(zip(keys, self.array[idx].tolist())))

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.array))

    def coeff_array(self) -> np.ndarray:
        """Dense coefficient array: (degree+1,) for d=1, (degree+1,)*2 for d=2."""
        return self.array.copy()

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "HermiteExpansion":
        """Expansion of a dense array, its degree trimmed to the last nonzero term.

        Raises NumericFailureError if an entry is not finite.
        """
        arr = np.asarray(arr, dtype=float)
        _check_dim(arr.ndim)
        nonzero = np.nonzero(arr)  # NaN and inf count, so _dense sees them
        degree = int(sum(nonzero).max()) if nonzero[0].size else 0
        out = np.zeros((degree + 1,) * arr.ndim)
        kept = tuple(slice(0, min(size, degree + 1)) for size in arr.shape)
        out[kept] = arr[kept]
        return cls._dense(degree, out)

    def scaled(self, factor: float) -> "HermiteExpansion":
        return HermiteExpansion._dense(self.degree, factor * self.array)

    def __repr__(self):
        return (
            f"HermiteExpansion(dim={self.dim}, degree={self.degree}, "
            f"nnz={np.count_nonzero(self.array)})"
        )


class ProjectionResult(NamedTuple):
    """Expansion produced by numeric projection plus its tail indicator."""

    expansion: HermiteExpansion
    tail: float


def product_moments(values: np.ndarray, degree: int, axes) -> np.ndarray:
    """sum_i values * prod_i w h_{alpha_i}(t_i) on a product of 1-d point sets.

    ``axes`` holds one (points, weights) pair per axis; ``values`` has shape
    (n_1, ..., n_d) plus column axes, which lead the result's (degree+1,)*d.
    One axis streams through ``weighted_hermite_moments`` (no matrix); more
    contract with one weighted Hermite matrix per distinct pair.
    """
    if len(axes) == 1:
        ((t, w),) = axes
        col = (slice(None),) + (None,) * (values.ndim - 1)  # a point's weight on its row
        return np.moveaxis(weighted_hermite_moments(degree, t, w[col] * values), 0, -1)
    mats = {id(a): hermite_values(degree, *a).T for a in {id(a): a for a in axes}.values()}
    return contract_axes(values, [mats[id(a)] for a in axes])


def project_columns(f: Callable, degree: int, axes) -> list[ProjectionResult]:
    """Degree-n projections of s functions sampled on a product of 1-d rules.

    ``axes`` holds one (nodes, Christoffel weights) pair per dimension, the
    whole rule or the part of it where the functions do not vanish.  ``f``
    receives the product's points, shape (npts, d), and returns one column
    of values per function, shape (npts, s), or (npts,) for one.  The tail
    indicator is max |c_alpha| over |alpha| in {degree-1, degree}.
    """
    dim = len(axes)
    _check_dim(dim)
    grid = np.meshgrid(*(nodes for nodes, _ in axes), indexing="ij")
    fvals = np.asarray(f(np.stack(grid, axis=-1).reshape(-1, dim)), dtype=float)
    fvals = fvals.reshape(grid[0].shape + (-1,))  # the columns last
    coeffs = product_moments(fvals, degree, axes)
    coeffs *= total_degree_weights(np.ones(degree + 1), dim)
    top = total_degree_weights(np.arange(degree + 1) >= degree - 1, dim) != 0
    return [
        ProjectionResult(HermiteExpansion._dense(degree, c), float(np.max(np.abs(c[top]))))
        for c in np.ascontiguousarray(coeffs)
    ]


def project_function(
    f: Callable, degree: int, quad_order: int, dim: int = 1
) -> ProjectionResult:
    """Degree-n truncation of f's Hermite expansion by Gauss-Hermite cubature.

    ``f`` receives points of shape (npts, d).  Requires ``quad_order >=
    2*degree + 16`` so coefficients up to ``degree`` are trustworthy for
    smooth, Gaussian-decaying inputs; the tail indicator is max |c_alpha|
    over |alpha| in {degree-1, degree}.
    """
    _check_degree(degree)
    _check_dim(dim)
    if quad_order < 2 * degree + 16:
        raise InsufficientQuadratureError(
            f"quad_order {quad_order} < 2*{degree} + 16 required for degree {degree}"
        )
    from . import quadrature  # local import; quadrature builds on this module

    rule = quadrature.gauss_hermite_rule(quad_order)
    return project_columns(f, degree, [(rule.nodes, rule.christoffel_weights)] * dim)[0]

"""Continuous and sequence norms for the Hermite-smoothness scales.

Two families are computed from the same multilevel filters: mixed
space-then-scale norms (the F family) and scale-then-space norms (the B
family), each with a sequence-space twin evaluated on the frame's tiles.
L2-based cases use exact Parseval identities on filtered coefficients; all
other integrals are truncated to [-R, R]^d and evaluated by the composite
midpoint rule on a tensor grid, accumulated one block of grid rows at a
time, so no level's full grid is held in memory.  Expansions are evaluated
only on the grid's band window, the cells where some Hermite function of
their band can matter (``_band_window``).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import hermite_core, quadrature
from .errors import (
    DimensionMismatchError,
    IngestionAccuracyError,
    ParameterError,
    ResolutionError,
    ResourceError,
)
from .hermite_core import HermiteExpansion
from .needlet_frame import (
    WINDOW_TAU,
    NeedletCoefficients,
    NeedletFrame,
    _check_frame,
    _filtered_coeffs,
    _trimmed,
    _window_power,
    coefficient_window,
    level_band,
)

INF = math.inf

INGESTION_TAIL_TOL = 1e-6

# Values of one level held at a time on a block of grid rows (and the size of
# a block's d = 1 Hermite matrix).  glibc returns a freed block to the system
# only if it came from mmap, above a dynamic threshold capped at 32 MiB; the
# extra 2**17 values put every full block of rows of up to 2**17 values over
# that cap, so no freed block stays in the heap, where the placement of the
# next blocks would move the peak RSS by a block's size.
GRID_BLOCK = (1 << 22) + (1 << 17)


@dataclass(frozen=True)
class SpaceParams:
    """Smoothness/integrability indices (alpha, p, q)."""

    alpha: float
    p: float
    q: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ParameterError(f"alpha must be finite, got {self.alpha}")
        if not self.p > 0:
            raise ParameterError(f"p must be positive, got {self.p}")
        if not self.q > 0:
            raise ParameterError(f"q must be positive, got {self.q}")


# most cells on one grid axis; the largest default axis (d = 1, j_max = 6) holds 94,582
MAX_AXIS_CELLS = 2**24


@dataclass(frozen=True)
class GridSpec:
    """Tensor midpoint grid on [-radius, radius]^d."""

    radius: float
    points_per_unit: int

    def __post_init__(self):
        # a finite radius with at least one cell; NaN fails every comparison
        cells = 2.0 * self.radius * self.points_per_unit
        if not (self.points_per_unit >= 1 and 0.5 < cells < math.inf):
            raise ParameterError(
                f"invalid grid: radius={self.radius}, ppu={self.points_per_unit}"
            )

    @property
    def step(self) -> float:
        return 1.0 / self.points_per_unit

    def axis(self) -> np.ndarray:
        """The cell midpoints of one axis; ResourceError above MAX_AXIS_CELLS."""
        n_cells = round(2.0 * self.radius * self.points_per_unit)
        if n_cells > MAX_AXIS_CELLS:
            raise ResourceError(f"a grid axis of {n_cells:.3g} cells exceeds {MAX_AXIS_CELLS}")
        return -self.radius + (np.arange(n_cells) + 0.5) * self.step


def default_grid(frame: NeedletFrame) -> GridSpec:
    """Smallest grid meeting the coverage and resolution requirements."""
    return GridSpec(
        radius=frame.max_node + 1.0, points_per_unit=4 * 2**frame.j_max
    )


def _validate_grid(grid: GridSpec, frame: NeedletFrame) -> None:
    if grid is None:
        raise ResolutionError("this computation needs an evaluation grid")
    need = default_grid(frame)
    if grid.radius < need.radius - 1e-9 or grid.points_per_unit < need.points_per_unit:
        raise ResolutionError(
            f"grid of radius {grid.radius} at {grid.points_per_unit} points per unit "
            f"misses the frame: it needs radius >= {need.radius:.2f} and, for "
            f"level {frame.j_max} tiles, >= {need.points_per_unit} points per unit"
        )


def levels_for_degree(degree: int) -> int:
    """Deepest level whose filter is nonzero somewhere on 0..degree."""
    j = 0
    while level_band(j + 1)[0] <= max(degree, 0):
        j += 1
    return j


def _row_slices(n_rows: int, row_size: int):
    """Consecutive slices of grid rows, GRID_BLOCK values each or one row."""
    step = max(1, GRID_BLOCK // row_size)
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


def _band_window(axis: np.ndarray, degree: int, p: float) -> slice:
    """The run of ``axis`` cells with |x| <= R, outside which every |h_k| <= tau_p.

    k runs over 0..degree, tau_p = WINDOW_TAU**max(1, 1/p) (WINDOW_TAU at
    p = inf, ``_window_power``), and R is ``hermite_core.decay_radius`` over
    the positive cells.  On a dropped cell of a d-dim grid a band-limited
    g = sum_alpha c_alpha H_alpha has |g| <= tau_p pi^(-(d-1)/4) ||c||_1
    (|h_k| <= pi^(-1/4) on the other axes), so the sum of |g|^p over a grid
    moves by at most N_dropped * cell volume * (that bound)^p.
    """
    log_tau = math.log(WINDOW_TAU) * _window_power(p)
    radius = hermite_core.decay_radius(degree, axis[axis > 0.0], log_tau)
    kept = np.flatnonzero(np.abs(axis) <= radius)
    return slice(int(kept[0]), int(kept[-1]) + 1)


def _expansion_blocks(
    filtered: dict[int, np.ndarray], degree: int, axis: np.ndarray, p: float
):
    """Yield every level's values on the next block of the band window's rows.

    ``filtered`` maps levels to nonzero arrays of one shape.  Only the
    ``_band_window(axis, degree, p)`` cells of every axis are evaluated:
    the same cells and cell volume, less the ones where no value reaches
    the window's bound.  A block is an iterator of ``(j, values)`` pairs,
    computed as it is read, so read each block before asking for the next.
    The first axis contracts with the block's row Hermite matrix, the
    others with the whole window's, each level only over the rows up to
    its last nonzero index (``_trimmed``): a level's band ends below the
    degree.
    """
    axis = axis[_band_window(axis, degree, p)]
    dim = next(iter(filtered.values())).ndim
    cols = [hermite_core.hermite_values(degree, axis) for _ in range(dim - 1)]
    trimmed = {j: _trimmed(c) for j, c in filtered.items()}
    for rows in _row_slices(axis.size, max(axis.size ** (dim - 1), degree + 1)):
        mats = [hermite_core.hermite_values(degree, axis[rows]), *cols]
        yield (
            (j, hermite_core.contract_axes(c, [m[: c.shape[0]] for m in mats]))
            for j, c in trimmed.items()
        )


def _scaled_tiles(values: np.ndarray, level, win: slice = slice(None)) -> np.ndarray:
    """|s_I| / sqrt(|I|) over the tiles of the box ``win`` on every axis, flat.

    The tile measures come from per-axis lengths.
    """
    scaled = level.axis_product(level.tile_lengths_1d()[win] ** -0.5)
    scaled *= np.abs(values.reshape(level.shape)[(win,) * level.d]).ravel()
    return scaled


def _tile_blocks(s: NeedletCoefficients, frame: NeedletFrame, axis: np.ndarray):
    """Yield every level's |s| / sqrt(tile measure) on the next block of rows.

    Blocks are read like those of ``_expansion_blocks``.  Each level's table
    is padded with zeros, which index -1 (outside the level's cube) selects.
    """
    tables = {}
    for j, values in sorted(s.level_values.items()):
        level = frame.levels[j]
        idx = np.searchsorted(level.interval_bounds, axis, side="right") - 1
        idx[idx == level.rule.n] = -1
        tables[j] = np.pad(_scaled_tiles(values, level).reshape(level.shape), (0, 1)), idx
    for rows in _row_slices(axis.size, axis.size ** (frame.d - 1)):
        yield (
            (j, table[np.ix_(idx[rows], *(idx,) * (frame.d - 1))])
            for j, (table, idx) in tables.items()
        )


def _pow(base: float, exponent: float) -> float:
    with np.errstate(over="ignore"):  # inf past the double range, with no warning
        return float(np.float64(base) ** exponent)


def _scale_combine(pairs, alpha: float, q: float):
    """(sum_j (2^(alpha j) |g_j|)^q)^(1/q) over (j, g_j) pairs, sup for q = inf.

    Pointwise for arrays; 0.0 when there are no pairs.  An array g_j is
    overwritten by its term, so at most two arrays are held: the sum and
    one term.  Past the double range a value is inf (nan for 0 * inf).
    """
    acc = None
    with np.errstate(over="ignore", invalid="ignore"):
        for j, g in pairs:
            out = g if isinstance(g, np.ndarray) else None  # a fresh array: overwrite it
            term = np.abs(g, out=out)
            term *= np.float64(2.0) ** (alpha * j)
            if q != INF:
                term **= q
            if acc is None:
                acc = term
            elif q == INF:
                acc = np.maximum(acc, term, out=out)
            else:
                acc += term
            del g, term, out
        if acc is None:
            return 0.0
        return acc if q == INF else acc ** (1.0 / q)


def _power_sum(values: np.ndarray, p: float, axis_weights=None) -> float:
    """Sum of |v|^p over ``values``, each term times its axes' weights.

    ``axis_weights`` holds one 1-d array per axis (None: weights 1).  The
    sum is top^p * sum (|v|/top)^p, top the largest |v|, where every
    |v|/top below 2^(-1000/p) counts as 2^(-1000/p): no power is then
    below 2^-1000 (none is subnormal, which is slow), and the mass this
    adds is below N 2^-1000 (largest weight / smallest weight) of the sum
    for N entries.  For p < 1 no power of a normal double is subnormal and
    |v|/top could be, so |v| is not divided; the cut is the same, and
    moves nothing once 2^(-1000/p) underflows (p < 0.93).
    """
    mags = np.abs(values)
    top = float(mags.max())
    if top == 0.0 or top == INF:
        return top
    scale = top if p >= 1.0 else 1.0
    mags /= scale
    np.maximum(mags, (top / scale) * 2.0 ** (-1000.0 / p), out=mags)
    mags **= p
    if axis_weights is None:
        total = mags.sum()
    else:
        total = hermite_core.contract_axes(mags, axis_weights)
    return _pow(scale, p) * float(total)  # inf, not OverflowError, past the range


def _lp_norms(blocks, p: float, cell_volume: float) -> dict[int, float]:
    """Grid L^p norm of each level in a stream of blocks of (j, values) pairs.

    Each level's sum of |values|^p is added across blocks (the max of
    |values| for p = inf), so no level's full grid is ever held.  Each
    block's sum is a ``_power_sum``: values below 2^(-1000/p) of the
    block's largest |value| count as that cut, which adds less than
    N 2^-1000 of the sum for a block of N values.
    """
    acc: dict[int, float] = defaultdict(float)
    for block in blocks:
        for j, values in block:
            if p == INF:
                acc[j] = float(np.maximum(acc[j], np.max(np.abs(values))))
            else:
                acc[j] += _power_sum(values, p)
    return {j: t if p == INF else _pow(t * cell_volume, 1.0 / p) for j, t in acc.items()}


def _combined_lp(blocks, params: SpaceParams, cell_volume: float) -> float:
    """L^p norm of the pointwise scale combine, reduced block by block."""
    combined = (((0, _scale_combine(b, params.alpha, params.q)),) for b in blocks)
    return _lp_norms(combined, params.p, cell_volume)[0]


def _level_lp_norms(arrays: dict, degree: int, p: float, grid: GridSpec | None) -> dict:
    """L^p norms of the expansions of same-shape coefficient arrays, by key.

    Parseval at p = 2, else one ``_expansion_blocks`` pass for all arrays;
    an all-zero array has norm 0 and is not evaluated.
    """
    if p == 2.0:
        return {k: math.sqrt(float(np.sum(c * c))) for k, c in arrays.items()}
    live = {k: c for k, c in arrays.items() if np.any(c)}
    norms = {}
    if live:
        if grid is None:
            raise ResolutionError("L^p evaluation with p != 2 needs a grid")
        dim = next(iter(live.values())).ndim
        blocks = _expansion_blocks(live, degree, grid.axis(), p)
        norms = _lp_norms(blocks, p, grid.step**dim)
    return {k: norms.get(k, 0.0) for k in arrays}


def _check_f_scale_p(p: float) -> None:
    """Refuse p = inf, where the F-scale is not defined."""
    if p == INF:
        raise ParameterError("the F-scale is defined for p < infinity only")


def f_continuous_norm(
    f: HermiteExpansion,
    params: SpaceParams,
    frame: NeedletFrame,
    grid: GridSpec | None = None,
) -> float:
    """Mixed space-then-scale norm of a band-limited function.

    At p = q it is the B norm (Fubini), exact at p = 2; other indices use
    the tensor grid.
    """
    return _f_norm(_filtered_coeffs(f, frame, None), f.degree, params, frame, grid)


def _f_norm(filtered, degree, params, frame, grid) -> float:
    """``f_continuous_norm`` of the levels ``_filtered_coeffs`` returned."""
    _check_f_scale_p(params.p)
    if params.p == params.q:
        return _b_norm(filtered, degree, params, frame, grid)
    if not filtered:
        return 0.0
    _validate_grid(grid, frame)
    blocks = _expansion_blocks(filtered, degree, grid.axis(), params.p)
    return _combined_lp(blocks, params, grid.step**frame.d)


def b_continuous_norm(
    f: HermiteExpansion,
    params: SpaceParams,
    frame: NeedletFrame,
    grid: GridSpec | None = None,
) -> float:
    """Scale-then-space norm: l^q over levels of 2^(alpha j) ||g_j||_p."""
    return _b_norm(_filtered_coeffs(f, frame, None), f.degree, params, frame, grid)


def _b_norm(filtered, degree, params, frame, grid) -> float:
    """``b_continuous_norm`` of the levels ``_filtered_coeffs`` returned."""
    if filtered and params.p != 2.0:
        _validate_grid(grid, frame)
    level_norms = _level_lp_norms(filtered, degree, params.p, grid)
    return float(_scale_combine(level_norms.items(), params.alpha, params.q))


def f_sequence_norm(
    s: NeedletCoefficients,
    params: SpaceParams,
    frame: NeedletFrame,
    grid: GridSpec | None = None,
    method: str = "auto",
) -> float:
    """Sequence-space twin of the mixed norm, over the frame's tiles.

    For p = q it is the closed form ``b_sequence_norm`` (Fubini), which
    reads each level's coefficient window only (see its bound); otherwise
    the piecewise-constant integrand is evaluated on the tensor grid
    (``method='grid'`` forces this path, ``method='closed'`` requires p = q).
    """
    _check_f_scale_p(params.p)
    if method not in ("auto", "closed", "grid"):
        raise ParameterError(f"unknown method {method!r}")
    if method == "closed" and params.p != params.q:
        raise ParameterError("closed form requires finite p = q")
    if method != "grid" and params.p == params.q:
        return b_sequence_norm(s, params, frame)
    _check_frame(s, frame)
    _validate_grid(grid, frame)
    return _combined_lp(_tile_blocks(s, frame, grid.axis()), params, grid.step**frame.d)


def b_sequence_norm(
    s: NeedletCoefficients, params: SpaceParams, frame: NeedletFrame
) -> float:
    """Sequence-space twin of the scale-then-space norm, on no grid.

    Each level reads only its coefficient window at p
    (``coefficient_window(values, p)``): the box outside which
    |s| <= tau_p max|s|, tau_p = WINDOW_TAU**max(1, 1/p).  For finite p the
    level's sum over its tiles I of |I|^(1 - p/2) |s_I|^p then moves by at
    most N_out tau_p^p (largest / smallest tile weight |I|^(1 - p/2)) of
    itself, for N_out tiles outside the box; tau_p^p is WINDOW_TAU**max(1, p).
    The p = inf sup moves only if the weights |I|^(-1/2) differ by more than
    1/WINDOW_TAU.  The kept sum is a ``_power_sum``: coefficients below
    2^(-1000/p) of the level's largest count as that cut, which adds less
    than N 2^-1000 (largest tile weight / smallest tile weight) of the
    level's sum for N tiles.  Raises NumericFailureError if a coefficient is
    not finite.
    """
    _check_frame(s, frame)
    p, q, alpha = params.p, params.q, params.alpha
    level_terms = {}
    for j, values in s.level_values.items():
        level = frame.levels[j]
        win = coefficient_window(values.reshape(level.shape), p)
        if win.start == win.stop:  # an all-zero level
            level_terms[j] = 0.0
        elif p == INF:
            level_terms[j] = float(np.max(_scaled_tiles(values, level, win)))
        else:
            box = values.reshape(level.shape)[(win,) * level.d]
            weights = [level.tile_lengths_1d()[win] ** (1.0 - p / 2.0)] * level.d
            level_terms[j] = _pow(_power_sum(box, p, weights), 1.0 / p)
    return float(_scale_combine(level_terms.items(), alpha, q))


def _tail(f: HermiteExpansion, n: int) -> np.ndarray:
    """The coefficient array of f with every term of total degree <= n zeroed."""
    above = np.arange(f.degree + 1) > n
    return hermite_core.total_degree_weights(above, f.dim) * f.array


def best_approx_error(
    f: HermiteExpansion, n: int, p: float, grid: GridSpec | None = None
) -> float:
    """L^p norm of f's tail above degree n: its distance to the degree-<= n band.

    The value is exact at p = 2, where the orthogonal projection is
    optimal, and an upper bound on the distance at every other p.
    """
    if n < 0:
        raise ParameterError(f"approximation degree must be >= 0, got {n}")
    return _level_lp_norms({0: _tail(f, n)}, f.degree, p, grid)[0]


def approximation_norm(
    f: HermiteExpansion,
    alpha: float,
    q: float,
    p: float = 2.0,
    grid: GridSpec | None = None,
) -> float:
    """||f||_p plus the l^q sum of 2^(alpha j) E_{2^j}(f)_p.

    The series is finite: terms vanish once 2^j reaches the degree, so its
    cap truncates nothing.  f and its tails share one grid pass.
    """
    SpaceParams(alpha, p, q)  # rejects a non-finite alpha and p or q <= 0
    j_cap = max(1, math.ceil(math.log2(max(f.degree, 1)))) + 1
    tails = {j: _tail(f, 2**j) for j in range(j_cap + 1)}
    norms = _level_lp_norms({**tails, "f": f.array}, f.degree, p, grid)
    series = _scale_combine(((j, norms[j]) for j in tails), alpha, q)
    return norms["f"] + float(series)


def nikolskii_ratio(
    g: HermiteExpansion, p: float, q: float, grid: GridSpec | None = None
) -> float:
    """||g||_p divided by n^((d/2)|1/q - 1/p|) ||g||_q for band-limited g."""
    if not np.any(g.array):
        raise ParameterError("the zero function has no norm ratio")
    num = _level_lp_norms({0: g.array}, g.degree, p, grid)[0]
    den = _level_lp_norms({0: g.array}, g.degree, q, grid)[0]
    n = max(g.degree, 1)
    inv_p = 0.0 if p == INF else 1.0 / p
    inv_q = 0.0 if q == INF else 1.0 / q
    power = (g.dim / 2.0) * abs(inv_q - inv_p)
    return num / (n**power * den)


def smooth_bump(width: float = 1.0, center=0.0, dim: int = 1) -> Callable:
    """C-infinity bump supported in the ball of the given width, peak 1."""
    if width <= 0:
        raise ParameterError(f"bump width must be positive, got {width}")
    ctr = np.atleast_1d(np.asarray(center, dtype=float))
    if ctr.size == 1 and dim > 1:
        ctr = np.full(dim, float(ctr[0]))
    if ctr.size != dim:
        raise DimensionMismatchError(
            f"bump center has {ctr.size} components, expected {dim}"
        )

    def f(x):
        x = np.asarray(x, dtype=float).reshape(-1, dim)
        rsq = np.sum(((x - ctr) / width) ** 2, axis=-1)
        out = np.zeros_like(rsq)
        m = rsq < 1.0
        out[m] = np.exp(1.0 - 1.0 / (1.0 - rsq[m]))
        return out

    return f


# Fewest rule nodes a bump's support must hold on each axis.  Against a
# 400-point Gauss-Legendre oracle on the support (3000 bumps, degrees 0-64),
# the coefficients' relative l2 error reached 12 with 1 node inside, 0.96
# with 2, 0.24 with 3 and 0.026 with 6 or more.
MIN_BUMP_NODES = 3


def project_bumps(
    width: float, centers, dim: int, degree: int
) -> list[hermite_core.ProjectionResult]:
    """``project_function`` of ``smooth_bump(width, c, dim)`` for each c in ``centers``.

    The bumps vanish outside their supports, so each axis evaluates only
    the nodes of the order-(2*degree + 16) rule inside the union of the
    supports' extents on it (``windowed_rule``), and all bumps share one
    pass over them.  A support that holds fewer than ``MIN_BUMP_NODES``
    nodes on an axis raises IngestionAccuracyError.
    """
    bumps = [smooth_bump(width, c, dim) for c in centers]  # checks width and centres
    hermite_core._check_degree(degree)
    quad_order = 2 * degree + 16
    ctrs = [np.broadcast_to(np.asarray(c, dtype=float).ravel(), (dim,)) for c in centers]
    axes = []
    for i in range(dim):
        nodes, lam = quadrature.windowed_rule(
            quad_order, [(c[i] - width, c[i] + width) for c in ctrs]
        )
        for c, center in zip(ctrs, centers):
            inside = int(np.count_nonzero(np.abs(nodes - c[i]) < width))
            if inside < MIN_BUMP_NODES:
                raise IngestionAccuracyError(
                    f"bump of width {width} at {center} holds {inside} node(s) of "
                    f"the order-{quad_order} rule on axis {i + 1}, fewer than "
                    f"{MIN_BUMP_NODES}: too narrow to project"
                )
        axes.append((nodes, lam))
    return hermite_core.project_columns(
        lambda x: np.stack([b(x) for b in bumps], axis=-1), degree, axes
    )


class ShiftRow(NamedTuple):
    y: float
    l2: float
    b_norm: float
    f_norm: float
    tail: float


# Projection degree at unit bump width; scaled by 1/width^2 so the spectral
# tail of h(x/w) sits at the same height.  The bump's Hermite tail decays
# like exp(-c n**(1/4)), so the tail gate needs a few thousand modes.
SHIFT_STUDY_DEGREE = 6144


def shift_study(
    bump_width: float,
    shifts: list,
    params: SpaceParams,
    frame: NeedletFrame,
    grid: GridSpec | None = None,
    degree: int | None = None,
) -> list[ShiftRow]:
    """Norms of a shifted bump: rows (y, L2, B-norm, F-norm, tail).

    Every shift is ingested by numeric projection, all in one pass over the
    rule nodes inside the supports (``project_bumps``); the shifted copies
    keep their L2 norm while both Hermite-scale norms grow, which is
    what separates these spaces from shift-invariant ones.  The scale series
    is truncated at the first level whose filter clears the projection
    degree, which may exceed the frame's built depth (filter-only levels).
    """
    if frame.d != 1:
        raise DimensionMismatchError("the shift study is a d = 1 experiment")
    if not bump_width > 0:
        raise ParameterError(f"bump width must be positive, got {bump_width}")
    _check_f_scale_p(params.p)  # every row has an F norm
    dpos = frame.d * max(0.0, 1.0 / params.p - 1.0)
    if not params.alpha > dpos:
        raise ParameterError(
            f"alpha must exceed d(1/p - 1)_+ = {dpos}, got {params.alpha}"
        )
    if degree is None:
        cap = hermite_core.DEGREE_CAP // 3
        # bumps narrower than sqrt(SHIFT_STUDY_DEGREE / cap) all get the cap; the
        # floor keeps a tiny width**2 from underflowing to 0
        need = SHIFT_STUDY_DEGREE / max(bump_width**2, SHIFT_STUDY_DEGREE / cap)
        degree = min(cap, max(256, int(math.ceil(need))))
    if grid is not None:
        for y in shifts:
            if abs(y) + bump_width > grid.radius:
                raise ParameterError(
                    f"shift {y} pushes the bump outside the grid radius "
                    f"{grid.radius}"
                )
    j_top = max(frame.j_max, levels_for_degree(degree))
    results = project_bumps(bump_width, shifts, 1, degree) if shifts else []
    rows = []
    for y, result in zip(shifts, results):
        if result.tail > INGESTION_TAIL_TOL:
            raise IngestionAccuracyError(
                f"projection tail {result.tail:.2e} at shift {y} exceeds "
                f"{INGESTION_TAIL_TOL}; shift too large for degree {degree}"
            )
        fy = result.expansion
        filtered = _filtered_coeffs(fy, frame, j_top)
        # at p = q the F norm is the B norm (Fubini), so it is computed once
        f_norm = _f_norm(filtered, fy.degree, params, frame, grid)
        b_norm = f_norm if params.p == params.q else _b_norm(
            filtered, fy.degree, params, frame, grid
        )
        rows.append(ShiftRow(float(y), fy.l2_norm(), b_norm, f_norm, result.tail))
    return rows

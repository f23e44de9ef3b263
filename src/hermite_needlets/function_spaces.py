"""Continuous and sequence norms for the Hermite-smoothness scales.

Two families are computed from the same multilevel filters: mixed
space-then-scale norms (the F family) and scale-then-space norms (the B
family), each with a sequence-space twin evaluated on the frame's tiles.
L2-based cases use exact Parseval identities on filtered coefficients; all
other integrals are truncated to [-R, R]^d and evaluated by the composite
midpoint rule on a tensor grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import hermite_core
from .errors import (
    DimensionMismatchError,
    FrameDepthError,
    IngestionAccuracyError,
    ParameterError,
    ResolutionError,
)
from .hermite_core import HermiteExpansion
from .needlet_frame import (
    NeedletCoefficients,
    NeedletFrame,
    level_band,
    level_filter,
)

INF = math.inf

INGESTION_TAIL_TOL = 1e-6


@dataclass(frozen=True)
class SpaceParams:
    """Smoothness/integrability indices (alpha, p, q)."""

    alpha: float
    p: float
    q: float

    def __post_init__(self):
        if not self.p > 0:
            raise ParameterError(f"p must be positive, got {self.p}")
        if not self.q > 0:
            raise ParameterError(f"q must be positive, got {self.q}")


@dataclass(frozen=True)
class GridSpec:
    """Tensor midpoint grid on [-radius, radius]^d."""

    radius: float
    points_per_unit: int

    def __post_init__(self):
        if self.radius <= 0 or self.points_per_unit < 1:
            raise ParameterError(
                f"invalid grid: radius={self.radius}, ppu={self.points_per_unit}"
            )

    @property
    def step(self) -> float:
        return 1.0 / self.points_per_unit

    def axis(self) -> np.ndarray:
        n_cells = int(round(2.0 * self.radius * self.points_per_unit))
        return -self.radius + (np.arange(n_cells) + 0.5) * self.step


def default_grid(frame: NeedletFrame) -> GridSpec:
    """Smallest grid meeting the coverage and resolution requirements."""
    return GridSpec(
        radius=frame.max_node + 1.0, points_per_unit=4 * 2**frame.j_max
    )


def _validate_grid(grid: GridSpec, frame: NeedletFrame) -> None:
    if grid is None:
        raise ResolutionError("this computation needs an evaluation grid")
    if grid.radius < frame.max_node + 1.0 - 1e-9:
        raise ResolutionError(
            f"grid radius {grid.radius} does not cover the frame "
            f"(need >= {frame.max_node + 1.0:.2f})"
        )
    if grid.points_per_unit < 4 * 2**frame.j_max:
        raise ResolutionError(
            f"points_per_unit {grid.points_per_unit} too coarse for level "
            f"{frame.j_max} tiles (need >= {4 * 2 ** frame.j_max})"
        )


def levels_for_degree(degree: int) -> int:
    """Deepest level whose filter is nonzero somewhere on 0..degree."""
    j = 0
    while level_band(j + 1)[0] <= max(degree, 0):
        j += 1
    return j


def _level_depth(
    f: HermiteExpansion, frame: NeedletFrame, j_levels: int | None
) -> int:
    """Deepest level of a norm's scale series; checks that f fits the frame.

    ``j_levels`` may deepen the series beyond the frame's built levels (the
    extra levels are filter-only).
    """
    if f.dim != frame.d:
        raise DimensionMismatchError("expansion and frame dimensions differ")
    j_top = frame.j_max if j_levels is None else j_levels
    if f.degree > 4**max(j_top, frame.j_max):
        raise FrameDepthError(
            f"degree {f.degree} exceeds 4**{max(j_top, frame.j_max)}"
        )
    return j_top


def _filtered_coeffs(
    f: HermiteExpansion, frame: NeedletFrame, side: str, j_levels: int
) -> dict[int, np.ndarray]:
    """Per-level filtered dense coefficient arrays (levels with content only)."""
    cutoff = frame.pair.a_hat if side == "a" else frame.pair.b_hat
    out = {}
    for j in range(j_levels + 1):
        filtered = level_filter(cutoff, j, f.degree, f.dim) * f.array
        if np.any(filtered):
            out[j] = filtered
    return out


def _grid_values(
    filtered: dict[int, np.ndarray],
    dim: int,
    degree: int,
    axis: np.ndarray,
) -> dict[int, np.ndarray]:
    """Evaluate each filtered expansion on the tensor grid."""
    if dim == 1:
        # chunk over grid points so the value matrix stays ~32 MB
        chunk = max(256, (1 << 22) // (degree + 1))
        out = {j: np.empty(axis.size) for j in filtered}
        for start in range(0, axis.size, chunk):
            block = axis[start : start + chunk]
            hmat = hermite_core.hermite_values(degree, block)
            for j, c in filtered.items():
                out[j][start : start + chunk] = c @ hmat
        return out
    hmat = hermite_core.hermite_values(degree, axis)
    return {j: hmat.T @ c @ hmat for j, c in filtered.items()}


def _scale_combine(level_grids: dict[int, np.ndarray], alpha: float, q: float):
    """Pointwise (sum_j (2^(alpha j) |g_j|)^q)^(1/q), sup for q = inf."""
    acc = None
    if q == INF:
        for j, g in level_grids.items():
            term = 2.0 ** (alpha * j) * np.abs(g)
            acc = term if acc is None else np.maximum(acc, term)
    else:
        for j, g in level_grids.items():
            term = (2.0 ** (alpha * j) * np.abs(g)) ** q
            acc = term if acc is None else acc + term
        if acc is not None:
            acc = acc ** (1.0 / q)
    return acc


def _lp_of_grid(values: np.ndarray, p: float, cell_volume: float) -> float:
    if p == INF:
        return float(np.max(np.abs(values)))
    return float(np.sum(np.abs(values) ** p) * cell_volume) ** (1.0 / p)


def f_continuous_norm(
    f: HermiteExpansion,
    params: SpaceParams,
    frame: NeedletFrame,
    grid: GridSpec | None = None,
    j_levels: int | None = None,
) -> float:
    """Mixed space-then-scale norm of a band-limited function.

    ``p = 2, q = 2`` is computed exactly from filtered coefficients; other
    indices use the tensor grid.  ``j_levels`` may deepen the scale series
    beyond the frame's built levels (the extra levels are filter-only).
    """
    if params.p == INF:
        raise ParameterError("the F-scale is defined for p < infinity only")
    filtered = _filtered_coeffs(f, frame, "a", _level_depth(f, frame, j_levels))
    if not filtered:
        return 0.0
    if params.p == 2.0 and params.q == 2.0:
        total = 0.0
        for j, c in filtered.items():
            total += 4.0 ** (params.alpha * j) * float(np.sum(c * c))
        return math.sqrt(total)
    _validate_grid(grid, frame)
    axis = grid.axis()
    grids = _grid_values(filtered, f.dim, f.degree, axis)
    combined = _scale_combine(grids, params.alpha, params.q)
    return _lp_of_grid(combined, params.p, grid.step**f.dim)


def b_continuous_norm(
    f: HermiteExpansion,
    params: SpaceParams,
    frame: NeedletFrame,
    grid: GridSpec | None = None,
    j_levels: int | None = None,
) -> float:
    """Scale-then-space norm: l^q over levels of 2^(alpha j) ||g_j||_p."""
    filtered = _filtered_coeffs(f, frame, "a", _level_depth(f, frame, j_levels))
    if not filtered:
        return 0.0
    if params.p == 2.0:
        level_norms = {
            j: math.sqrt(float(np.sum(c * c))) for j, c in filtered.items()
        }
    else:
        _validate_grid(grid, frame)
        axis = grid.axis()
        grids = _grid_values(filtered, f.dim, f.degree, axis)
        level_norms = {
            j: _lp_of_grid(g, params.p, grid.step**f.dim) for j, g in grids.items()
        }
    return float(_scale_combine(level_norms, params.alpha, params.q))


def _level_tile_indices(level, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map grid coordinates to 1-d tile indices; -1 marks points outside."""
    bounds = level.interval_bounds
    idx = np.searchsorted(bounds, axis, side="right") - 1
    valid = (idx >= 0) & (idx < bounds.size - 1)
    idx[~valid] = -1
    return idx, valid


def f_sequence_norm(
    s: NeedletCoefficients,
    params: SpaceParams,
    frame: NeedletFrame,
    grid: GridSpec | None = None,
    method: str = "auto",
) -> float:
    """Sequence-space twin of the mixed norm, over the frame's tiles.

    For p = q the exact closed form is used; otherwise the piecewise-constant
    integrand is evaluated on the tensor grid (``method='grid'`` forces this
    path, ``method='closed'`` requires p = q).
    """
    if params.p == INF:
        raise ParameterError("the F-scale is defined for p < infinity only")
    if method not in ("auto", "closed", "grid"):
        raise ParameterError(f"unknown method {method!r}")
    p, q, alpha = params.p, params.q, params.alpha
    closed_ok = p == q and q != INF
    if method == "closed" and not closed_ok:
        raise ParameterError("closed form requires finite p = q")
    if (method in ("auto", "closed")) and closed_ok:
        total = 0.0
        for j, values in s.level_values.items():
            measures = frame.levels[j].tile_measures()
            total += 2.0 ** (j * alpha * q) * float(
                np.sum(np.abs(values) ** q * measures ** (1.0 - q / 2.0))
            )
        return total ** (1.0 / q)
    _validate_grid(grid, frame)
    axis = grid.axis()
    acc = None
    for j, values in sorted(s.level_values.items()):
        level = frame.levels[j]
        lengths = level.tile_lengths_1d()
        idx, valid = _level_tile_indices(level, axis)
        if frame.d == 1:
            base = np.abs(values) / np.sqrt(lengths)
            t = np.zeros(axis.size)
            t[valid] = base[idx[valid]]
        else:
            n = 2 * level.half_nodes
            inv_sqrt = 1.0 / np.sqrt(np.multiply.outer(lengths, lengths))
            table = np.abs(values).reshape(n, n) * inv_sqrt
            t = np.zeros((axis.size, axis.size))
            m = np.outer(valid, valid)
            ii = np.broadcast_to(idx[:, None], m.shape)
            jj = np.broadcast_to(idx[None, :], m.shape)
            t[m] = table[ii[m], jj[m]]
        if q == INF:
            term = 2.0 ** (alpha * j) * t
            acc = term if acc is None else np.maximum(acc, term)
        else:
            term = (2.0 ** (alpha * j) * t) ** q
            acc = term if acc is None else acc + term
    if acc is None:
        return 0.0
    combined = acc if q == INF else acc ** (1.0 / q)
    return _lp_of_grid(combined, p, grid.step**frame.d)


def b_sequence_norm(
    s: NeedletCoefficients, params: SpaceParams, frame: NeedletFrame
) -> float:
    """Sequence-space twin of the scale-then-space norm (always exact)."""
    p, q, alpha = params.p, params.q, params.alpha
    level_terms = {}
    for j, values in s.level_values.items():
        measures = frame.levels[j].tile_measures()
        if p == INF:
            term = float(np.max(np.abs(values) / np.sqrt(measures)))
        else:
            term = float(
                np.sum(measures ** (1.0 - p / 2.0) * np.abs(values) ** p)
            ) ** (1.0 / p)
        level_terms[j] = term
    if not level_terms:
        return 0.0
    return float(_scale_combine(level_terms, alpha, q))


def _lp_norm_expansion(
    f: HermiteExpansion, p: float, grid: GridSpec | None
) -> float:
    if p == 2.0:
        return f.l2_norm()
    if grid is None:
        raise ResolutionError("L^p evaluation with p != 2 needs a grid")
    axis = grid.axis()
    vals = hermite_core.evaluate_expansion_grid(f, [axis] * f.dim)
    return _lp_of_grid(vals, p, grid.step**f.dim)


class BestApprox(NamedTuple):
    """Best-approximation error; ``exact`` is False for the p != 2 bound."""

    value: float
    exact: bool


def best_approx_error(
    f: HermiteExpansion, n: int, p: float, grid: GridSpec | None = None
) -> BestApprox:
    """Distance from f to the band of degree <= n in L^p.

    For p = 2 the orthogonal projection is optimal and the tail norm is
    exact; for other p the projection error is only an upper bound.
    """
    if n < 0:
        raise ParameterError(f"approximation degree must be >= 0, got {n}")
    above = np.arange(f.degree + 1) > n
    tail = hermite_core.total_degree_weights(above, f.dim) * f.array
    if not np.any(tail):
        return BestApprox(0.0, True)
    if p == 2.0:
        return BestApprox(float(np.linalg.norm(tail)), True)
    tail_f = HermiteExpansion.from_array(tail)
    return BestApprox(_lp_norm_expansion(tail_f, p, grid), False)


def approximation_norm(
    f: HermiteExpansion,
    alpha: float,
    q: float,
    p: float = 2.0,
    grid: GridSpec | None = None,
    j_cap: int | None = None,
) -> float:
    """||f||_p plus the l^q sum of 2^(alpha j) E_{2^j}(f)_p.

    The series is finite: terms vanish once 2^j reaches the degree, so the
    default cap truncates nothing.
    """
    if j_cap is None:
        j_cap = max(1, math.ceil(math.log2(max(f.degree, 1)))) + 1
    errors = [best_approx_error(f, 2**j, p, grid).value for j in range(j_cap + 1)]
    base = _lp_norm_expansion(f, p, grid)
    if q == INF:
        series = max(2.0 ** (alpha * j) * e for j, e in enumerate(errors))
    else:
        series = sum((2.0 ** (alpha * j) * e) ** q for j, e in enumerate(errors)) ** (
            1.0 / q
        )
    return base + series


def nikolskii_ratio(
    g: HermiteExpansion, p: float, q: float, grid: GridSpec | None = None
) -> float:
    """||g||_p divided by n^((d/2)|1/q - 1/p|) ||g||_q for band-limited g."""
    if not np.any(g.array):
        raise ParameterError("the zero function has no norm ratio")
    num = _lp_norm_expansion(g, p, grid)
    den = _lp_norm_expansion(g, q, grid)
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
        x = np.asarray(x, dtype=float)
        if dim == 1:
            rsq = ((x - ctr[0]) / width) ** 2
        else:
            rsq = np.sum(((x - ctr) / width) ** 2, axis=-1)
        out = np.zeros_like(rsq)
        m = rsq < 1.0
        out[m] = np.exp(1.0 - 1.0 / (1.0 - rsq[m]))
        return out

    return f


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
    quad_order: int | None = None,
) -> list[ShiftRow]:
    """Norms of a shifted bump: rows (y, L2, B-norm, F-norm, tail).

    The bump is ingested by numeric projection at each shift; the shifted
    copies keep their L2 norm while both Hermite-scale norms grow, which is
    what separates these spaces from shift-invariant ones.  The scale series
    is truncated at the first level whose filter clears the projection
    degree, which may exceed the frame's built depth (filter-only levels).
    """
    if frame.d != 1:
        raise DimensionMismatchError("the shift study is a d = 1 experiment")
    dpos = frame.d * max(0.0, 1.0 / params.p - 1.0) if params.p != INF else 0.0
    if not params.alpha > dpos:
        raise ParameterError(
            f"alpha must exceed d(1/p - 1)_+ = {dpos}, got {params.alpha}"
        )
    if degree is None:
        degree = min(
            hermite_core.DEGREE_CAP // 3,
            max(256, int(math.ceil(SHIFT_STUDY_DEGREE / bump_width**2))),
        )
    if quad_order is None:
        quad_order = 2 * degree + 16
    if grid is not None:
        for y in shifts:
            if abs(y) + bump_width > grid.radius:
                raise ParameterError(
                    f"shift {y} pushes the bump outside the grid radius "
                    f"{grid.radius}"
                )
    j_top = max(frame.j_max, levels_for_degree(degree))
    rows = []
    for y in shifts:
        result = hermite_core.project_function(
            smooth_bump(bump_width, y, dim=1), degree, quad_order, dim=1
        )
        if result.tail > INGESTION_TAIL_TOL:
            raise IngestionAccuracyError(
                f"projection tail {result.tail:.2e} at shift {y} exceeds "
                f"{INGESTION_TAIL_TOL}; shift too large for degree {degree}"
            )
        fy = result.expansion
        rows.append(
            ShiftRow(
                y=float(y),
                l2=fy.l2_norm(),
                b_norm=b_continuous_norm(fy, params, frame, grid, j_levels=j_top),
                f_norm=f_continuous_norm(fy, params, frame, grid, j_levels=j_top),
                tail=result.tail,
            )
        )
    return rows

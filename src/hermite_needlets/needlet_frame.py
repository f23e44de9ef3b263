"""Multilevel needlet frames: node sets, tiles, kernels, and transforms.

Level j uses the zeros of the Hermite polynomial of degree 2*N_j, where

    N_j = floor((1 + 11*delta) * (4/pi)**2 * 4**j) + 3,   0 < delta < 1/37,

together with the Christoffel weights of that rule.  Band-limited functions
are carried as Hermite coefficient arrays, so analysis and synthesis reduce
to coefficient filtering plus exact cubature and the frame identities hold
at machine precision.  Coefficients are per-axis contractions with the
level's Hermite matrix scaled by the square roots of the Christoffel weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from . import hermite_core, quadrature
from .cutoffs import CutoffPair, make_pair
from .errors import (
    DimensionMismatchError,
    FrameDepthError,
    FrameMismatchError,
    NumericFailureError,
    ParameterError,
)
from .hermite_core import HermiteExpansion

DELTA_DEFAULT = 0.025
DELTA_MAX = 1.0 / 37.0


def half_node_count(j: int, delta: float = DELTA_DEFAULT) -> int:
    """Number of level-j nodes per half axis (the rule has twice as many)."""
    if not 0.0 < delta < DELTA_MAX:
        raise ParameterError(f"delta must lie in (0, 1/37), got {delta}")
    if j < 0:
        raise ParameterError(f"level must be >= 0, got {j}")
    return int(math.floor((1.0 + 11.0 * delta) * (4.0 / math.pi) ** 2 * 4.0**j)) + 3


@dataclass(frozen=True)
class FrameLevel(quadrature.CubatureRule):
    """One frame level: its product rule plus the 1-d tile boundaries."""

    j: int
    interval_bounds: np.ndarray  # (2N+1,) 1-d tile boundaries

    @property
    def rule(self) -> quadrature.QuadratureRule1D:
        return self.base

    @property
    def half_nodes(self) -> int:
        return self.base.n // 2

    def tile_lengths_1d(self) -> np.ndarray:
        return np.diff(self.interval_bounds)

    def tile_measures(self) -> np.ndarray:
        return self.axis_product(self.tile_lengths_1d())


def build_level(
    j: int,
    d: int,
    delta: float = DELTA_DEFAULT,
    node_budget: int = quadrature.DEFAULT_NODE_BUDGET,
) -> FrameLevel:
    """Construct the level-j rule and tile boundaries."""
    n_half = half_node_count(j, delta)
    order = 2 * n_half
    base = quadrature.product_cubature(order, d, node_budget).base
    zeros = base.nodes

    # 1-d tile boundaries: midpoints between zeros, the origin splitting the
    # two central tiles, and an edge overhang of 2**(-j/6) beyond the last zero.
    overhang = 2.0 ** (-j / 6.0)
    mids = 0.5 * (zeros[:-1] + zeros[1:])
    bounds = np.empty(order + 1)
    bounds[0] = zeros[0] - overhang
    bounds[1:order] = mids
    bounds[n_half] = 0.0
    bounds[order] = zeros[-1] + overhang

    bounds.setflags(write=False)
    return FrameLevel(d=d, base=base, j=j, interval_bounds=bounds)


@dataclass(frozen=True)
class NeedletFrame:
    """A full multilevel frame with its cutoff pair."""

    d: int
    delta: float
    j_max: int
    levels: tuple[FrameLevel, ...]
    cutoff_kind: str = "quadratic"

    @property
    def pair(self) -> CutoffPair:
        return make_pair(self.cutoff_kind)

    @property
    def max_node(self) -> float:
        return float(self.levels[-1].rule.nodes[-1])

    @property
    def frame_id(self) -> str:
        return f"d{self.d}-delta{self.delta:g}-J{self.j_max}-{self.cutoff_kind}"

    def manifest(self) -> dict:
        return {
            "d": self.d,
            "delta": self.delta,
            "j_max": self.j_max,
            "cutoff_kind": self.cutoff_kind,
            "levels": [
                {
                    "j": lev.j,
                    "half_nodes": lev.half_nodes,
                    "node_count": lev.node_count,
                }
                for lev in self.levels
            ],
        }


def build_frame(
    d: int = 1,
    delta: float = DELTA_DEFAULT,
    j_max: int = 3,
    cutoff: str = "quadratic",
    node_budget: int = quadrature.DEFAULT_NODE_BUDGET,
) -> NeedletFrame:
    """Build levels 0..j_max with the shipped cutoff pair named ``cutoff``."""
    if j_max < 0:
        raise ParameterError(f"j_max must be >= 0, got {j_max}")
    make_pair(cutoff)  # rejects an unknown name before any level is built
    levels = tuple(build_level(j, d, delta, node_budget) for j in range(j_max + 1))
    return NeedletFrame(d=d, delta=delta, j_max=j_max, levels=levels, cutoff_kind=cutoff)


@lru_cache(maxsize=64)
def _filter_table(cutoff: Callable, j: int) -> np.ndarray:
    """Read-only a(nu / 4**(j-1)) for nu = 0..level_band(j)[1]; [1.0] at level 0.

    Evaluated once per cutoff and level: above the band a vanishes (its
    support is (1/4, 4)).
    """
    if j == 0:
        table = np.ones(1)
    else:
        nu = np.arange(level_band(j)[1] + 1)
        table = np.array(cutoff(nu / 4.0 ** (j - 1)), dtype=float)
    table.setflags(write=False)
    return table


def filter_weights(cutoff: Callable, j: int, max_degree: int) -> np.ndarray:
    """Coefficient filter a(nu / 4**(j-1)) for nu = 0..max_degree, a fresh array.

    A slice of the level's table, which holds the cutoff's values over
    ``level_band(j)`` and is computed once per cutoff and level; degrees
    above the band get 0.  Level 0 keeps only total degree 0 (its kernel is
    the rank-one projector).
    """
    table = _filter_table(cutoff, j)
    w = np.zeros(max_degree + 1)
    n = min(table.size, w.size)
    w[:n] = table[:n]
    return w


def level_filter(cutoff: Callable, j: int, degree: int, d: int) -> np.ndarray:
    """The level-j filter a(|alpha| / 4**(j-1)) on a dense coefficient array.

    Shape (degree+1,)*d, zero above total degree ``degree``.
    """
    return hermite_core.total_degree_weights(filter_weights(cutoff, j, degree), d)


def level_band(j: int) -> tuple[int, int]:
    """Degrees that can survive the level-j filter (support (1/4, 4))."""
    if j == 0:
        return (0, 0)
    lo = int(math.floor(4.0 ** (j - 2))) + 1
    hi = int(math.ceil(4.0**j)) - 1
    return lo, hi


def _frame_level(frame: NeedletFrame, j: int) -> FrameLevel:
    if not 0 <= j <= frame.j_max:
        raise ParameterError(f"level {j} outside 0..{frame.j_max}")
    return frame.levels[j]


def level_kernel(frame, j, x, y, cutoff, dx_order=0) -> np.ndarray:
    """Level-j kernel sum_nu cutoff(nu / 4**(j-1)) H_nu(x, y) at paired points.

    Pass ``frame.pair.a_hat`` for the analysis kernel and ``frame.pair.b_hat``
    for the synthesis kernel; the needlet at node xi_i is then
    sqrt(level.weights_at(i)) * level_kernel(frame, j, x, xi_i, cutoff).
    Points have shape (npts, d), or (npts,) at d = 1; ``dx_order`` 1 gives
    the derivative in x_1.
    """
    _frame_level(frame, j)
    w = filter_weights(cutoff, j, level_band(j)[1])
    return hermite_core.filtered_kernel(w, x, y, frame.d, dx_order)


@dataclass
class NeedletCoefficients:
    """Multilevel coefficient map (level, flat node index) -> value.

    Levels whose filter misses the input band entirely are omitted.
    ``degree`` is the total degree of the band the coefficients describe:
    ``analyze`` sets it to its input's degree, and ``synthesize`` computes
    no degree above it.  Left out, it is the frame's full band, 4**j_max.
    """

    frame: NeedletFrame
    level_values: dict = field(default_factory=dict)  # j -> (node_count,) array
    degree: int | None = None

    def __post_init__(self):
        if self.degree is None:
            self.degree = 4**self.frame.j_max

    def sum_squares(self) -> float:
        return float(sum(np.dot(a, a) for a in self.level_values.values()))


def _check_frame(coeffs: NeedletCoefficients, frame: NeedletFrame) -> None:
    """Raise FrameMismatchError unless ``coeffs`` were taken on ``frame``."""
    if coeffs.frame.frame_id != frame.frame_id:
        raise FrameMismatchError(
            f"coefficients belong to {coeffs.frame.frame_id}, not {frame.frame_id}"
        )


def _filtered_coeffs(
    f: HermiteExpansion, frame: NeedletFrame, j_levels: int | None
) -> dict[int, np.ndarray]:
    """Per-level a-filtered dense coefficient arrays (levels with content only).

    Checks that f fits the frame.  ``j_levels`` may deepen the scale series
    beyond the frame's built levels (the extra levels are filter-only).
    """
    if f.dim != frame.d:
        raise DimensionMismatchError(
            f"expansion dimension {f.dim} does not match frame dimension {frame.d}"
        )
    j_top = frame.j_max if j_levels is None else j_levels
    depth = max(j_top, frame.j_max)
    if f.degree > 4**depth:
        raise FrameDepthError(f"degree {f.degree} exceeds 4**{depth}; deepen the frame")
    out = {}
    for j in range(j_top + 1):
        filtered = level_filter(frame.pair.a_hat, j, f.degree, f.dim) * f.array
        if np.any(filtered):
            out[j] = filtered
    return out


def _trimmed(c: np.ndarray) -> np.ndarray:
    """``c``, not all zero, cut after its last nonzero index on every axis."""
    top = max(int(i.max()) for i in np.nonzero(c)) + 1
    return c[(slice(top),) * c.ndim]


def analyze(f: HermiteExpansion, frame: NeedletFrame) -> NeedletCoefficients:
    """Needlet coefficients lambda**(1/2) * (Phi_j * f)(xi) for all levels.

    Exact for band-limited input: the convolution is coefficient filtering,
    contracted on every axis with the lambda**(1/2)-scaled Hermite matrix.
    Each level's matrix and contraction stop at the level's last nonzero
    filtered degree, at most min(f.degree, 4**j - 1) (``_trimmed``).  The
    result carries ``degree = f.degree``, and its level arrays are read-only.
    Degrees in (4**(j_max-1), 4**j_max] are accepted but do not round-trip
    through ``synthesize``: only a level j_max + 1 would complete the sum of
    a_hat * b_hat there, so at j_max = 3 h_40 comes back as 0.5 h_40.
    """
    out: dict[int, np.ndarray] = {}
    for j, filtered in _filtered_coeffs(f, frame, None).items():
        filtered = _trimmed(filtered)
        rule = frame.levels[j].rule
        root_weights = np.sqrt(rule.christoffel_weights)
        hmat = hermite_core.hermite_values(filtered.shape[0] - 1, rule.nodes, root_weights)
        out[j] = hermite_core.contract_axes(filtered, [hmat] * f.dim).ravel()
        out[j].setflags(write=False)
    return NeedletCoefficients(frame=frame, level_values=out, degree=f.degree)


# Coefficients at most this fraction of their level's largest |s| are left out
# of the synthesis contraction; raised to max(1, 1/p), it bounds every Hermite
# function of the band on the grid cells the L^p norms leave out, and the
# coefficients the sequence norms leave out.
WINDOW_TAU = 2.0**-70


def _window_power(p: float) -> float:
    """The power max(1, 1/p) (1 at p = inf): tau_p = WINDOW_TAU**_window_power(p).

    Below p = 1 a value v <= tau_p max|v| weighs |v|^p <= WINDOW_TAU max|v|^p.
    """
    return max(1.0, 1.0 / p)


def coefficient_window(values: np.ndarray, p: float = math.inf) -> slice:
    """Smallest index range, shared by every axis, outside which |s| <= tau_p*max|s|.

    tau_p = WINDOW_TAU**_window_power(p): WINDOW_TAU at the default p = inf,
    which synthesis uses, and at every p >= 1.  The window comes from
    per-axis max/min reductions, so no |s| array over the level is formed.
    It is empty for an all-zero level.  Raises NumericFailureError if a
    value is not finite.
    """
    rest = tuple(range(1, values.ndim))
    top, bottom = values.max(axis=rest), values.min(axis=rest)
    peak, trough = top.max(), bottom.min()
    if not (math.isfinite(peak) and math.isfinite(trough)):
        raise NumericFailureError("a needlet coefficient is not finite")
    cut = WINDOW_TAU ** _window_power(p) * max(peak, -trough)
    rows = np.flatnonzero((top > cut) | (bottom < -cut))
    if not rows.size:
        return slice(0, 0)
    lo, hi = int(rows[0]), int(rows[-1]) + 1
    # every kept value lies in rows lo:hi, so the other axes look only there
    band = values[lo:hi]
    for axis in rest:
        others = tuple(b for b in range(values.ndim) if b != axis)
        top, bottom = band.max(axis=others), band.min(axis=others)
        kept = np.flatnonzero((top > cut) | (bottom < -cut))
        lo, hi = min(lo, int(kept[0])), max(hi, int(kept[-1]) + 1)
    return slice(lo, hi)


def synthesize(coeffs: NeedletCoefficients, frame: NeedletFrame) -> HermiteExpansion:
    """Sum of s_xi * psi_xi, returned as a Hermite expansion.

    Every level stops at top = min(4**j_max, coeffs.degree): the synthesis
    filters vanish above 4**j_max, and for coefficients that ``analyze``
    took of a degree-n input, the degrees above n hold only roundoff (the
    level's rule integrates h_m h_k exactly for m + k below twice its
    order).  The output has degree at most top.  Each level is contracted
    only over its coefficient window (see ``coefficient_window``): the nodes
    outside it, whose |s| are at most WINDOW_TAU = 2**-70 of the level's
    largest, are skipped.  The lambda**(1/2)-scaled Hermite rows of degree
    <= hi are orthonormal under the level's rule (2*hi < 2*order), so this
    moves the level's output by at most
    max|b_hat| * WINDOW_TAU * max|s_j| * sqrt(node_count_j) in l2.
    A level is its window's ``product_moments`` (no matrix at d = 1).
    Raises NumericFailureError if a coefficient is not finite.
    """
    _check_frame(coeffs, frame)
    top = min(4**frame.j_max, coeffs.degree)
    acc = np.zeros((top + 1,) * frame.d)
    for j, values in sorted(coeffs.level_values.items()):
        level = frame.levels[j]
        values = values.reshape(level.shape)
        win = coefficient_window(values)
        if win.start == win.stop:
            continue
        hi = min(level_band(j)[1], top)
        axis = (level.rule.nodes[win], np.sqrt(level.rule.christoffel_weights[win]))
        block = hermite_core.product_moments(values[(win,) * frame.d], hi, [axis] * frame.d)
        band = (slice(0, hi + 1),) * frame.d
        acc[band] += level_filter(frame.pair.b_hat, j, hi, frame.d) * block
    return HermiteExpansion.from_array(acc)


@dataclass(frozen=True)
class LocalizationReport:
    """Decay profile of one needlet kernel along rays through its node."""

    inner_max: float  # max of |kernel| * (1 + 2^j |x-xi|)^k / 2^(j d)
    tail_max: float  # raw |kernel| beyond the evanescent radius
    samples: tuple  # (offset, kernel value, weighted value) triples

# Scaled half-width of the window used for the inner decay constant; fixing
# it makes the measured constant comparable across levels and orders.
LOCALIZATION_WINDOW = 40.0


def localization_profile(
    frame: NeedletFrame,
    j: int,
    node_index: int,
    k: int,
    dx_order: int = 0,
) -> LocalizationReport:
    """Sample the level-j kernel decay away from one node.

    The inner maximum normalizes |kernel| * (1 + 2^j |x-xi|)^k by 2**(j d)
    at 321 points of the scaled window 2^j |x-xi| <= LOCALIZATION_WINDOW;
    the tail maximum is the raw kernel magnitude where every constituent
    degree is evanescent, namely |x|_inf >= R = 1.2 * sqrt(4 * 4**j + 2),
    sampled at 40 points of the ray whose |x|_inf spans [R, 1.5 R].
    """
    if k > 10 or k < 0:
        raise ParameterError(f"decay exponent k must lie in 0..10, got {k}")
    level = _frame_level(frame, j)
    if not 0 <= node_index < level.node_count:
        raise ParameterError(f"node index {node_index} outside level {j}")
    xi = level.nodes_at(node_index)
    offsets = np.linspace(-LOCALIZATION_WINDOW, LOCALIZATION_WINDOW, 321) / 2.0**j
    tail_radius = 1.2 * math.sqrt(4.0 * 4.0**j + 2.0)
    tail_offsets = math.sqrt(frame.d) * (
        np.linspace(tail_radius, 1.5 * tail_radius, 40) - xi.max()
    )
    all_offsets = np.concatenate([offsets, tail_offsets])
    direction = np.full(frame.d, 1.0 / math.sqrt(frame.d))
    pts_x = xi + all_offsets[:, None] * direction
    xinf = np.max(np.abs(pts_x), axis=1)
    pts_y = np.broadcast_to(xi, pts_x.shape)
    vals = level_kernel(frame, j, pts_x, pts_y, frame.pair.a_hat, dx_order)
    dist = np.abs(all_offsets)
    weighted = np.abs(vals) * (1.0 + 2.0**j * dist) ** k
    # the 40 constructed samples are tail even where x rounds an ulp inside R
    tail = xinf >= tail_radius
    tail[offsets.size :] = True
    inner = (dist <= LOCALIZATION_WINDOW / 2.0**j + 1e-12) & ~tail
    # nodes beyond the evanescent radius have no inner window at all
    inner_max = (
        float(np.max(weighted[inner]) / 2.0 ** (j * frame.d)) if np.any(inner) else 0.0
    )
    tail_max = float(np.max(np.abs(vals)[tail])) if np.any(tail) else 0.0
    samples = tuple(
        (float(o), float(v), float(wv))
        for o, v, wv in zip(all_offsets, vals, weighted)
    )
    return LocalizationReport(inner_max=inner_max, tail_max=tail_max, samples=samples)


def decay_statistics(
    a_hat: Callable,
    n: int,
    k: int,
    dx_order: int = 0,
) -> tuple[float, float]:
    """Measured decay constant and tail level of the smoothed kernel (d = 1).

    Returns ``(bulk_sup, tail_sup)`` where the bulk value is
    sup |D^a Lambda_n(x,y)| (1 + sqrt(n)|x-y|)^k / n^((a+1)/2) over bulk x
    and scaled offsets up to LOCALIZATION_WINDOW, and the tail value is the
    same weighted quantity for |x| >= 1.2*sqrt(4n+2) against bulk y.
    """
    # a(nu/n) for nu <= 6n, trimmed after its last nonzero value
    filt = np.asarray(a_hat(np.arange(0, 6 * n + 1) / n), dtype=float)
    nz = np.nonzero(filt)[0]
    filt = filt[: nz[-1] + 1 if nz.size else 1]
    u = np.linspace(-0.8, 0.8, 33)
    w = np.linspace(0.0, LOCALIZATION_WINDOW, 161)
    xs, ws = np.meshgrid(u * math.sqrt(2.0 * n), w, indexing="ij")
    x_flat = xs.ravel()
    y_flat = (xs - ws / math.sqrt(n)).ravel()
    vals = hermite_core.filtered_kernel(filt, x_flat, y_flat, 1, dx_order)
    weight = (1.0 + math.sqrt(n) * np.abs(x_flat - y_flat)) ** k
    expo = (dx_order + 1) / 2.0
    bulk = float(np.max(np.abs(vals) * weight) / n**expo)

    xt = np.linspace(1.2 * math.sqrt(4.0 * n + 2.0), 1.5 * math.sqrt(4.0 * n + 2.0), 25)
    yt = np.linspace(-0.9 * math.sqrt(2.0 * n), 0.9 * math.sqrt(2.0 * n), 41)
    xg, yg = np.meshgrid(xt, yt, indexing="ij")
    tvals = hermite_core.filtered_kernel(filt, xg.ravel(), yg.ravel(), 1, dx_order)
    tweight = (1.0 + math.sqrt(n) * np.abs(xg.ravel() - yg.ravel())) ** k
    tail = float(np.max(np.abs(tvals) * tweight) / n**expo)
    return bulk, tail

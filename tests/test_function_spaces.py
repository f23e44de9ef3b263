import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hermite_needlets import (
    FrameMismatchError,
    GridSpec,
    HermiteExpansion,
    IngestionAccuracyError,
    NumericFailureError,
    ParameterError,
    ResolutionError,
    ResourceError,
    SpaceParams,
    analyze,
    approximation_norm,
    b_continuous_norm,
    b_sequence_norm,
    best_approx_error,
    default_grid,
    f_continuous_norm,
    f_sequence_norm,
    nikolskii_ratio,
    shift_study,
    smooth_bump,
)
from hermite_needlets import function_spaces as fs
from hermite_needlets import hermite_core as hc
from hermite_needlets import needlet_frame as nf
from hermite_needlets import quadrature as quad
from hermite_needlets import verification

from conftest import random_expansion_1d

INF = math.inf


@pytest.fixture(scope="module")
def grid_j3(frame_j3):
    return default_grid(frame_j3)


class TestParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SpaceParams(0.0, 0.0, 2.0)
        with pytest.raises(ParameterError):
            SpaceParams(0.0, 2.0, -1.0)
        SpaceParams(0.0, INF, INF)  # accepted where definitions allow

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            GridSpec(-1.0, 64)

    def test_huge_grid_axis_is_a_resource_error(self):
        # raised before the axis is allocated
        with pytest.raises(ResourceError):
            GridSpec(1e300, 1).axis()

    @pytest.mark.parametrize("alpha", [math.nan, INF, -INF])
    def test_non_finite_alpha_rejected(self, alpha):
        # every norm would otherwise return nan, inf or 0.0 without a word
        with pytest.raises(ParameterError):
            SpaceParams(alpha, 2.0, 2.0)
        with pytest.raises(ParameterError):
            approximation_norm(HermiteExpansion(1, 2, {(2,): 1.0}), alpha, 2.0)


class TestSequenceNorms:
    def test_b_norm_past_the_double_range_is_inf(self, frame_j3):
        # 2**(2000 j) overflows from level 1 on: inf, with no OverflowError
        # and no RuntimeWarning
        s = analyze(HermiteExpansion(1, 4, {(0,): 1.0, (4,): 0.5}), frame_j3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert b_sequence_norm(s, SpaceParams(2000.0, 2.0, 2.0), frame_j3) == INF

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("p", [0.5, 3.0, INF])
    def test_non_finite_coefficient_raises(self, frame_j3, p, bad):
        # the coefficient window reads every level's max and min first
        s = analyze(random_expansion_1d(12, np.random.default_rng(4)), frame_j3)
        values = {j: v.copy() for j, v in s.level_values.items()}
        values[2][5] = bad
        s = nf.NeedletCoefficients(frame=frame_j3, level_values=values)
        with pytest.raises(NumericFailureError):
            b_sequence_norm(s, SpaceParams(0.5, p, 2.0), frame_j3)
        if p != INF:
            with pytest.raises(NumericFailureError):
                f_sequence_norm(s, SpaceParams(0.5, p, p), frame_j3, method="closed")

    def test_single_coefficient_telescopes(self, frame_j3, grid_j3):
        s = nf.NeedletCoefficients(
            frame=frame_j3,
            level_values={2: np.zeros(frame_j3.levels[2].node_count)},
        )
        s.level_values[2][11] = 1.0
        params = SpaceParams(0.0, 2.0, 2.0)
        assert f_sequence_norm(s, params, frame_j3, grid_j3) == pytest.approx(1.0)

    def test_positive_homogeneity(self, frame_j3, grid_j3, test_set_v64):
        f = test_set_v64[4]
        s = analyze(f, frame_j3)
        params = SpaceParams(0.5, 3.0, 2.0)
        base = f_sequence_norm(s, params, frame_j3, grid_j3)
        s_scaled = nf.NeedletCoefficients(
            frame=frame_j3, level_values={j: 2.5 * a for j, a in s.level_values.items()}
        )
        scaled = f_sequence_norm(s_scaled, params, frame_j3, grid_j3)
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_closed_form_matches_parseval(self, frame_j3, test_set_v64):
        f = test_set_v64[4]
        s = analyze(f, frame_j3)
        params = SpaceParams(0.0, 2.0, 2.0)
        got = f_sequence_norm(s, params, frame_j3, None)
        assert got == pytest.approx(f.l2_norm(), rel=1e-12)

    def test_closed_vs_grid(self, catalogue):
        check = catalogue["spaces/closed-vs-grid"]
        assert check.passed, check.detail

    def test_b_single_level_weight(self, frame_j3):
        s = nf.NeedletCoefficients(
            frame=frame_j3,
            level_values={2: np.zeros(frame_j3.levels[2].node_count)},
        )
        s.level_values[2][11] = 1.0
        # p = 2 kills the tile factor, alpha = 1 leaves the level weight 2^j
        assert b_sequence_norm(
            s, SpaceParams(1.0, 2.0, 1.0), frame_j3
        ) == pytest.approx(4.0)

    def test_b_p_infinity_is_scaled_sup(self, frame_j3):
        s = nf.NeedletCoefficients(
            frame=frame_j3,
            level_values={1: np.zeros(frame_j3.levels[1].node_count)},
        )
        s.level_values[1][5] = 3.0
        measures = frame_j3.levels[1].tile_measures()
        want = 2.0**0.5 * 3.0 / math.sqrt(measures[5])
        got = b_sequence_norm(s, SpaceParams(0.5, INF, 1.0), frame_j3)
        assert got == pytest.approx(want, rel=1e-13)

    def test_b_q_infinity_is_sup(self, frame_j3, test_set_v64):
        s = analyze(test_set_v64[5], frame_j3)
        params = SpaceParams(0.5, 2.0, INF)
        sup = b_sequence_norm(s, params, frame_j3)
        terms = []
        for j, values in s.level_values.items():
            only = nf.NeedletCoefficients(frame=frame_j3, level_values={j: values})
            terms.append(b_sequence_norm(only, params, frame_j3))
        assert sup == pytest.approx(max(terms), rel=1e-13)

    def test_b_permutation_invariance_within_level(self, frame_j3):
        rng = np.random.default_rng(3)
        level = frame_j3.levels[1]
        values = rng.standard_normal(level.node_count)
        n = level.node_count
        # mirror nodes share the same tile measure
        perm = np.arange(n)[::-1]
        s1 = nf.NeedletCoefficients(frame=frame_j3, level_values={1: values})
        s2 = nf.NeedletCoefficients(frame=frame_j3, level_values={1: values[perm]})
        params = SpaceParams(0.7, 1.5, 2.0)
        assert b_sequence_norm(s1, params, frame_j3) == pytest.approx(
            b_sequence_norm(s2, params, frame_j3), rel=1e-13
        )

    def test_grid_resolution_guard(self, frame_j3, test_set_v64):
        s = analyze(test_set_v64[0], frame_j3)
        bad = GridSpec(frame_j3.max_node + 1.0, 8)
        with pytest.raises(ResolutionError):
            f_sequence_norm(s, SpaceParams(0.0, 3.0, 2.0), frame_j3, bad)
        small = GridSpec(2.0, 64)
        with pytest.raises(ResolutionError):
            f_sequence_norm(s, SpaceParams(0.0, 3.0, 2.0), frame_j3, small)

    def test_p_infinity_rejected(self, frame_j3, grid_j3, test_set_v64):
        s = analyze(test_set_v64[0], frame_j3)
        with pytest.raises(ParameterError):
            f_sequence_norm(s, SpaceParams(0.0, INF, 2.0), frame_j3, grid_j3)

    def test_grid_path_matches_breakpoint_oracle(self, frame_j3):
        # exact integration of the piecewise-constant integrand over the
        # common tile refinement, compared to the midpoint-grid evaluation
        rng = np.random.default_rng(77)
        f = HermiteExpansion(
            1, 10, {(k,): rng.standard_normal() for k in range(11)}
        )
        s = analyze(f, frame_j3)
        alpha, p, q = 0.7, 3.0, 1.5
        bps = sorted(
            set(b for lev in frame_j3.levels for b in lev.interval_bounds)
        )
        total = 0.0
        for lo, hi in zip(bps[:-1], bps[1:]):
            mid = 0.5 * (lo + hi)
            inner = 0.0
            for j, vals in s.level_values.items():
                lev = frame_j3.levels[j]
                idx = np.searchsorted(lev.interval_bounds, mid, side="right") - 1
                if 0 <= idx < lev.interval_bounds.size - 1:
                    r = lev.tile_lengths_1d()[idx]
                    inner += (
                        2.0 ** (alpha * j) * abs(vals[idx]) / math.sqrt(r)
                    ) ** q
            total += inner ** (p / q) * (hi - lo)
        oracle = total ** (1.0 / p)
        grid = GridSpec(frame_j3.max_node + 1.0, 256)
        got = f_sequence_norm(
            s, SpaceParams(alpha, p, q), frame_j3, grid, method="grid"
        )
        assert got == pytest.approx(oracle, rel=2e-3)

    def test_d2_sequence_norm_grid(self, frame_d2_j3):
        # cross-check the 2-d grid path against the closed form at p = q
        from conftest import random_expansion_2d

        rng = np.random.default_rng(23)
        f = random_expansion_2d(6, rng)
        s = analyze(f, frame_d2_j3)
        params = SpaceParams(0.3, 2.0, 2.0)
        closed = f_sequence_norm(s, params, frame_d2_j3, None)
        grid = GridSpec(frame_d2_j3.max_node + 1.0, 32)
        got = f_sequence_norm(s, params, frame_d2_j3, grid, method="grid")
        assert got == pytest.approx(closed, rel=2e-3)


class TestContinuousNorms:
    def test_ground_state_f_norm(self, frame_j3, grid_j3):
        f = HermiteExpansion(1, 0, {(0,): 1.0})
        for params in (SpaceParams(0.0, 2.0, 2.0), SpaceParams(1.0, 2.0, INF)):
            assert f_continuous_norm(f, params, frame_j3, grid_j3) == pytest.approx(
                1.0, abs=1e-6
            )

    def test_ground_state_b_norm_exact(self, frame_j3):
        f = HermiteExpansion(1, 0, {(0,): 1.0})
        assert b_continuous_norm(f, SpaceParams(0.7, 2.0, 1.0), frame_j3) == 1.0

    def test_homogeneity(self, frame_j3, grid_j3, test_set_v64):
        f = test_set_v64[3]
        params = SpaceParams(0.5, 3.0, 2.0)
        base = f_continuous_norm(f, params, frame_j3, grid_j3)
        assert f_continuous_norm(
            f.scaled(1.7), params, frame_j3, grid_j3
        ) == pytest.approx(1.7 * base, rel=1e-12)

    def test_single_band_two_levels(self, frame_j3):
        # degree 4 content meets the filter only at levels 2 and 3
        f = HermiteExpansion(1, 4, {(4,): 1.0})
        a = frame_j3.pair.a_hat
        params = SpaceParams(1.0, 2.0, INF)
        want = max(
            2.0**j * abs(float(a(4.0 / 4.0 ** (j - 1)))) for j in (2, 3)
        )
        got = b_continuous_norm(f, params, frame_j3)
        assert got == pytest.approx(want, rel=1e-12)

    def test_alpha_monotone_at_q_infinity(self, frame_j3, test_set_v64):
        f = test_set_v64[2]
        v1 = b_continuous_norm(f, SpaceParams(0.5, 2.0, INF), frame_j3)
        v2 = b_continuous_norm(f, SpaceParams(1.5, 2.0, INF), frame_j3)
        assert v2 >= v1

    def test_f_norm_rejects_p_infinity(self, frame_j3, grid_j3, test_set_v64):
        with pytest.raises(ParameterError):
            f_continuous_norm(
                test_set_v64[0], SpaceParams(0.0, INF, 2.0), frame_j3, grid_j3
            )

    def test_depth_guard(self, frame_j3, grid_j3):
        f = HermiteExpansion(1, 100, {(100,): 1.0})
        with pytest.raises(Exception):
            f_continuous_norm(f, SpaceParams(0.0, 2.0, 2.0), frame_j3, grid_j3)

    def test_deepened_series(self, frame_j3):
        # filter-only levels past the built depth carry the content above it
        f = HermiteExpansion(1, 100, {(100,): 1.0})
        filtered = fs._filtered_coeffs(f, frame_j3, 5)
        v = fs._b_norm(filtered, f.degree, SpaceParams(0.0, 2.0, 2.0), frame_j3, None)
        assert v == pytest.approx(1.0, rel=1e-12)

    def test_d2_grid_path_matches_exact(self, frame_d2_j3):
        from conftest import random_expansion_2d

        rng = np.random.default_rng(3)
        f = random_expansion_2d(6, rng)
        params = SpaceParams(0.4, 2.0, 2.0)
        exact = f_continuous_norm(f, params, frame_d2_j3, None)
        grid = GridSpec(frame_d2_j3.max_node + 1.0, 32)
        filtered = fs._filtered_coeffs(f, frame_d2_j3, frame_d2_j3.j_max)
        blocks = fs._expansion_blocks(filtered, f.degree, grid.axis(), params.p)
        got = fs._combined_lp(blocks, params, grid.step**2)
        assert got == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("d", [1, 2])
    def test_streamed_blocks_match_full_grid(self, d, frame_j3, monkeypatch):
        """Row-block norms against every level's full grid built at once."""
        from conftest import random_expansion_2d

        rng = np.random.default_rng(29)
        if d == 1:
            frame, f = frame_j3, random_expansion_1d(40, rng)
        else:
            frame = nf.build_frame(d=2, j_max=2)
            f = random_expansion_2d(14, rng)
        s = analyze(f, frame)
        grid = default_grid(frame)
        axis, vol, alpha = grid.axis(), grid.step**d, 0.7
        h = hc.hermite_values(f.degree, axis)
        levels = {}
        for j in range(frame.j_max + 1):
            c = nf.level_filter(frame.pair.a_hat, j, f.degree, d) * f.array
            if np.any(c):
                levels[j] = h.T @ c if d == 1 else h.T @ c @ h
        tiles = {}
        for j, values in s.level_values.items():
            level = frame.levels[j]
            n = 2 * level.half_nodes
            idx = np.searchsorted(level.interval_bounds, axis, side="right") - 1
            inside = (idx >= 0) & (idx < n)
            idx = np.clip(idx, 0, n - 1)
            table = np.abs(values) / np.sqrt(level.tile_measures())
            table = table.reshape((n,) * d)
            if d == 1:
                tiles[j] = np.where(inside, table[idx], 0.0)
            else:
                mask = np.outer(inside, inside)
                tiles[j] = np.where(mask, table[np.ix_(idx, idx)], 0.0)

        def lp(g, p):
            if p == INF:
                return np.max(np.abs(g))
            return (np.sum(np.abs(g) ** p) * vol) ** (1.0 / p)

        def combine(grids, q):
            scaled = np.stack([2.0 ** (alpha * j) * np.abs(g) for j, g in grids.items()])
            if q == INF:
                return scaled.max(axis=0)
            return np.sum(scaled**q, axis=0) ** (1.0 / q)

        def level_lp(p):
            return {j: lp(g, p) for j, g in levels.items()}

        block = 500 if d == 1 else 37 * axis.size
        monkeypatch.setattr(fs, "GRID_BLOCK", block)
        calls = []

        def recording(blocks):
            def wrapped(*args):
                calls.append([])
                for pairs in map(list, blocks(*args)):
                    assert all(v.size <= block for _, v in pairs)
                    calls[-1].append(pairs[0][1].shape[0])
                    yield pairs

            return wrapped

        monkeypatch.setattr(fs, "_expansion_blocks", recording(fs._expansion_blocks))
        monkeypatch.setattr(fs, "_tile_blocks", recording(fs._tile_blocks))
        cases = [
            (f_continuous_norm, f, 3.0, 2.0, lp(combine(levels, 2.0), 3.0)),
            (f_continuous_norm, f, 3.0, INF, lp(combine(levels, INF), 3.0)),
            (b_continuous_norm, f, 3.0, 1.5, combine(level_lp(3.0), 1.5)),
            (b_continuous_norm, f, INF, 2.0, combine(level_lp(INF), 2.0)),
            (f_sequence_norm, s, 3.0, 2.0, lp(combine(tiles, 2.0), 3.0)),
            (f_sequence_norm, s, 2.5, INF, lp(combine(tiles, INF), 2.5)),
        ]
        for norm, arg, p, q, want in cases:
            got = norm(arg, SpaceParams(alpha, p, q), frame, grid)
            assert got == pytest.approx(float(want), rel=1e-12)
        assert len(calls) == len(cases)
        for rows in calls:
            assert len(rows) > 2 and rows[-1] < rows[0]


class TestBestApproximation:
    def test_orthogonal_tail(self):
        f = HermiteExpansion(1, 5, {(0,): 1.0, (5,): 1.0})
        assert best_approx_error(f, 4, 2.0) == pytest.approx(1.0)
        assert best_approx_error(f, 5, 2.0) == 0.0

    def test_monotone_in_degree(self, test_set_v64):
        f = test_set_v64[6]
        vals = [best_approx_error(f, n, 2.0) for n in range(0, 40, 4)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_vanishes_beyond_degree(self, test_set_v64):
        f = test_set_v64[2]
        assert best_approx_error(f, f.degree, 2.0) == 0.0

    def test_p_not_2_is_flagged_bound(self, frame_j3, grid_j3):
        f = HermiteExpansion(1, 5, {(0,): 1.0, (5,): 1.0})
        # a nonzero value at p != 2 is an upper bound, not the distance
        assert best_approx_error(f, 4, 4.0, grid_j3) > 0.0

    def test_approximation_norm_ground_state(self, grid_j3):
        f = HermiteExpansion(1, 0, {(0,): 1.0})
        assert approximation_norm(f, 1.0, 2.0, 2.0, grid_j3) == pytest.approx(1.0)

    def test_approximation_norm_of_zero_is_zero(self, grid_j3):
        # f and every tail are all-zero arrays, whose norms are 0 with no grid pass
        assert approximation_norm(HermiteExpansion(1, 0, {}), 0.5, 2.0, 3.0, grid_j3) == 0.0

    def test_approximation_norm_is_one_grid_pass(self, grid_j3, monkeypatch):
        # f and every nonzero tail are evaluated on the same blocks
        f = random_expansion_1d(40, np.random.default_rng(8))
        calls = []
        blocks = fs._expansion_blocks
        monkeypatch.setattr(
            fs, "_expansion_blocks", lambda *a: calls.append(list(a[0])) or blocks(*a)
        )
        approximation_norm(f, 0.5, 2.0, 3.0, grid_j3)
        assert calls == [[0, 1, 2, 3, 4, 5, "f"]]

    def test_approximation_norm_homogeneous(self, grid_j3, test_set_v64):
        f = test_set_v64[4]
        base = approximation_norm(f, 0.5, 1.0, 2.0, grid_j3)
        scaled = approximation_norm(f.scaled(3.0), 0.5, 1.0, 2.0, grid_j3)
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)


class TestNikolskii:
    def test_p_equals_q(self, test_set_v64, grid_j3):
        assert nikolskii_ratio(test_set_v64[3], 2.0, 2.0, grid_j3) == 1.0

    def test_sup_vs_l2_single_mode(self, frame_j4):
        grid = default_grid(frame_j4)
        for n in (16, 64, 256):
            g = HermiteExpansion(1, n, {(n,): 1.0})
            assert nikolskii_ratio(g, INF, 2.0, grid) < 1.0  # frozen

    def test_random_band_limited(self, test_set_v64, frame_j4):
        grid = default_grid(frame_j4)
        rng = np.random.default_rng(41)
        f = random_expansion_1d(64, rng)
        for p, q, cap in ((INF, 2.0, 1.0), (4.0, 2.0, 1.0), (2.0, 1.0, 2.0)):
            assert nikolskii_ratio(f, p, q, grid) < cap  # frozen

    def test_zero_function_rejected(self, grid_j3):
        f = HermiteExpansion(1, 3, {})
        with pytest.raises(ParameterError):
            nikolskii_ratio(f, 2.0, 2.0, grid_j3)


class TestShiftStudy:
    def test_bump_shape(self):
        h = smooth_bump(1.0, 0.0, dim=1)
        assert h(np.array([0.0]))[0] == 1.0
        assert h(np.array([0.999]))[0] > 0.0
        assert h(np.array([1.0]))[0] == 0.0

    def test_bump_2d(self):
        h = smooth_bump(2.0, (1.0, -1.0), dim=2)
        pts = np.array([[1.0, -1.0], [5.0, 5.0]])
        vals = h(pts)
        assert vals[0] == 1.0 and vals[1] == 0.0

    def test_alpha_hypothesis_enforced(self, frame_j3):
        with pytest.raises(ParameterError):
            shift_study(1.0, [0.0], SpaceParams(0.0, 2.0, 2.0), frame_j3)

    def test_requires_1d_frame(self, frame_d2_j3):
        from hermite_needlets import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            shift_study(1.0, [0.0], SpaceParams(1.0, 2.0, 2.0), frame_d2_j3)

    def test_p_infinity_refused_before_projection(self, frame_j3, monkeypatch):
        # the F column is undefined at p = inf, so no shift is projected
        def refuse(*args):
            raise AssertionError("project_bumps called")

        monkeypatch.setattr(fs, "project_bumps", refuse)
        with pytest.raises(ParameterError, match="F-scale is defined for p < infinity"):
            shift_study(1.0, [0.0, 2.0], SpaceParams(1.0, INF, 2.0), frame_j3)

    def test_shift_outside_grid_rejected(self, frame_j3):
        grid = GridSpec(5.0, 64)
        with pytest.raises(ParameterError):
            shift_study(
                1.0, [8.0], SpaceParams(1.0, 2.0, 2.0), frame_j3, grid=grid,
                degree=256,
            )

    def test_tail_gate(self, frame_j3):
        # a clearly under-resolved degree must be refused, not silently used
        with pytest.raises(IngestionAccuracyError):
            shift_study(
                1.0, [8.0], SpaceParams(1.0, 2.0, 2.0), frame_j3, degree=256
            )

    def test_builds_no_full_rule(self, frame_j3, monkeypatch):
        # the bumps are projected on the nodes inside their supports only
        orders = []
        for name in ("_rule_cached", "_zeros_cached"):
            cached = getattr(quad, name)
            monkeypatch.setattr(
                quad, name, lambda n, cached=cached: orders.append(n) or cached(n)
            )
        rows = shift_study(1.0, [0.0, 2.0], SpaceParams(1.0, 2.0, 2.0), frame_j3)
        assert len(rows) == 2 and 12304 not in orders

    def test_filters_each_shift_once(self, frame_j3, monkeypatch):
        # B and F are read from one filtering of each shift
        calls = []
        filtered = fs._filtered_coeffs
        monkeypatch.setattr(
            fs, "_filtered_coeffs", lambda *a: calls.append(a) or filtered(*a)
        )
        params = SpaceParams(1.0, 2.0, 2.0)
        rows = shift_study(3.0, [0.0, 1.5], params, frame_j3)
        assert len(rows) == 2 and len(calls) == 2

    def test_p_equals_q_reads_b_once_per_shift(self, monkeypatch):
        # at p = q the F norm is the B norm, so one B pass serves both
        frame = nf.build_frame(d=1, j_max=2)
        args = (1.0, [0.0, 2.0], SpaceParams(1.0, 3.0, 3.0), frame, default_grid(frame))
        want = shift_study(*args)
        calls = []
        b_norm = fs._b_norm
        monkeypatch.setattr(fs, "_b_norm", lambda *a: calls.append(a) or b_norm(*a))
        assert shift_study(*args) == want
        assert len(calls) == 2

    def test_batched_shifts_match_single_projections(self):
        results = fs.project_bumps(1.3, [-0.5, 0.0, 3.0], 1, 2048)
        for y, got in zip([-0.5, 0.0, 3.0], results):
            (want,) = fs.project_bumps(1.3, [y], 1, 2048)
            top = np.max(np.abs(want.expansion.array))
            assert np.max(np.abs(got.expansion.array - want.expansion.array)) <= 1e-15 * top
            assert abs(got.tail - want.tail) <= 1e-15 * top

    @pytest.mark.parametrize(
        "width, center, dim, degree",
        [(1.0, 0.3, 1, 4), (0.8, -0.6, 1, 300), (1.0, (0.5, -0.2), 2, 40)],
    )
    def test_support_projection_matches_the_whole_rule(self, width, center, dim, degree):
        (got,) = fs.project_bumps(width, [center], dim, degree)
        want = hc.project_function(smooth_bump(width, center, dim), degree,
                                   2 * degree + 16, dim)
        top = np.max(np.abs(want.expansion.array))
        assert np.max(np.abs(got.expansion.array - want.expansion.array)) <= 1e-14 * top
        assert abs(got.tail - want.tail) <= 1e-14 * top

    @pytest.mark.parametrize(
        "width, center, dim, inside",
        # nodes of the order-24 rule (degree 4) near 0: +-0.2244, 0.6742, 1.1268
        [(0.2, 0.31, 1, 1), (0.3, 0.45, 1, 2), (0.3, (0.45, 0.0), 2, 2)],
    )
    def test_bump_reached_by_too_few_nodes_refused(self, width, center, dim, inside):
        with pytest.raises(IngestionAccuracyError, match=f"width {width} .* {inside} node"):
            fs.project_bumps(width, [center], dim, 4)

    def test_bump_reached_by_three_nodes_projects(self):
        f = fs.project_bumps(0.5, [0.674], 1, 4)[0].expansion
        assert np.all(np.isfinite(f.array)) and f.array[0] > 0.0

    def test_small_width_study_monotone(self, frame_j4):
        # width-2 bump needs a quarter of the unit-width degree
        rows = shift_study(
            2.0, [0.0, 2.0, 4.0], SpaceParams(1.0, 2.0, 2.0), frame_j4
        )
        l2 = [r.l2 for r in rows]
        assert (max(l2) - min(l2)) / min(l2) < 1e-4
        bs = [r.b_norm for r in rows]
        fsn = [r.f_norm for r in rows]
        assert all(a < b for a, b in zip(bs, bs[1:]))
        assert all(a < b for a, b in zip(fsn, fsn[1:]))


@pytest.mark.parametrize("width", [0.0, -1.0, math.nan])
def test_shift_study_rejects_non_positive_width(frame_j3, width):
    # checked before the default degree divides by the width squared
    with pytest.raises(ParameterError, match="width"):
        shift_study(width, [0.0], SpaceParams(1.0, 2.0, 2.0), frame_j3)


@pytest.mark.parametrize("width", [1e-160, 1e-200])
def test_shift_study_default_degree_for_narrow_width(frame_j3, width):
    # width**2 is subnormal or 0; the default degree is still the cap
    assert shift_study(width, [], SpaceParams(1.0, 2.0, 2.0), frame_j3) == []


@pytest.mark.parametrize("row_size", [1, 6016, 1 << 17])
def test_full_grid_blocks_exceed_the_mmap_threshold_cap(row_size):
    # glibc's dynamic mmap threshold stops at 32 MiB: a freed block above it
    # goes back to the system, one below it can stay in the heap and move
    # the next blocks (6016 points: the d = 2, j_max = 4 F-norm's axis)
    rows = next(fs._row_slices(10**6, row_size))
    assert (rows.stop - rows.start) * row_size * 8 > 2**25


@pytest.mark.parametrize("q", [2.0, 3.0, math.inf])
def test_scale_combine_holds_three_arrays(q):
    # each level's values are dropped before the next level is drawn, and
    # the term is added in place: acc, one level's values and its term
    size = 1 << 20
    levels = {j: np.linspace(0.5, 2.0 + j, size) for j in range(5)}
    pairs = ((j, v.copy()) for j, v in levels.items())  # one fresh array per level
    tracemalloc.start()
    try:
        got = fs._scale_combine(pairs, 0.5, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * size) <= 3.01
    # the same arithmetic as a plain sum of powers (a running max for q = inf)
    want = 0.0
    for j, v in levels.items():
        term = 2.0 ** (0.5 * j) * np.abs(v)
        want = np.maximum(want, term) if q == math.inf else want + term**q
    want = want if q == math.inf else want ** (1.0 / q)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q", [2.0, math.inf])
def test_scale_combine_overwrites_fresh_arrays(q):
    # each g_j becomes its own term in place: only the sum and one term are held
    size = 1 << 20  # 8 MB of doubles
    pairs = ((j, np.linspace(0.5, 2.0 + j, size)) for j in range(3))
    tracemalloc.start()
    try:
        fs._scale_combine(pairs, 0.5, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * size) < 2.5


@pytest.mark.parametrize(
    "other", [{"d": 2}, {"delta": 0.02}, {"cutoff": "dual"}], ids=["d2", "delta", "dual"]
)
@pytest.mark.parametrize("kind", ["b", "f"])
def test_sequence_norms_check_the_frame(frame_j3, other, kind):
    # coefficients of one frame are refused on any other, before any indexing
    s = analyze(random_expansion_1d(8, np.random.default_rng(3)), frame_j3)
    frame = nf.build_frame(**{"d": 1, "j_max": 3, **other})
    params = SpaceParams(0.5, 3.0, 2.0)
    with pytest.raises(FrameMismatchError, match="belong to d1-delta0.025-J3-quadratic"):
        if kind == "b":
            b_sequence_norm(s, params, frame)
        else:
            f_sequence_norm(s, params, frame, default_grid(frame))


def _wide_range_values(rng, shape, top):
    """Magnitudes from 1e-300 top to ``top``, with exact zeros, subnormals and 1e-300."""
    v = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-300.0, 0.0, size=shape)
    v *= top
    flat = v.reshape(-1)
    flat[:4] = [0.0, -0.0, 5e-324, -2.5e-320]
    flat[4:7] = [1e-310, 1e-300, -1e-300]
    flat[7] = top
    return v


class TestPowerSum:
    @pytest.mark.parametrize("p", [0.01, 0.5, 1.5, 3.0, 4.0, 40.0])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("big", [False, True])
    def test_matches_fsum(self, p, d, weighted, big):
        # big: the top at 1e300, or as high as keeps top^p below 1e250
        rng = np.random.default_rng([int(100 * p), d, weighted, big])
        shape = (300,) if d == 1 else (21, 17)
        top = 10.0 ** min(300.0, 250.0 / p) if big else 1.0
        values = _wide_range_values(rng, shape, top)
        weights = [10.0 ** rng.uniform(-2.0, 2.0, size=n) for n in shape]
        got = fs._power_sum(values, p, weights if weighted else None)
        terms = []
        for index in np.ndindex(*shape):
            w = math.prod(weights[i][k] for i, k in enumerate(index)) if weighted else 1.0
            terms.append(abs(float(values[index])) ** p * w)
        assert got == pytest.approx(math.fsum(terms), rel=1e-14)

    @pytest.mark.parametrize("p, top", [(0.01, 1.0), (0.01, 1e300), (0.5, 1e-300)])
    def test_small_p_clips_nothing(self, p, top):
        # pairs where the subnormal's power is a representable share of the sum
        got = fs._power_sum(np.array([top, 5e-324]), p)
        assert got > fs._power_sum(np.array([top]), p)
        assert got == pytest.approx(top**p + 5e-324**p, rel=1e-15, abs=0.0)

    def test_all_zero_is_zero(self):
        assert fs._power_sum(np.zeros(5), 3.0) == 0.0
        assert fs._power_sum(np.zeros((4, 3)), 0.5, [np.ones(4), np.ones(3)]) == 0.0

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [3.0, 1.5])
    def test_f_equals_b_at_p_equals_q(self, d, p, frame_j3, frame_d2_j3):
        # Fubini: at p = q the pointwise scale combine of the F norm and the
        # per-level norms of the B norm give one value on the same grid
        from conftest import random_expansion_2d

        rng = np.random.default_rng([d, 11])
        frame = frame_j3 if d == 1 else frame_d2_j3
        f = random_expansion_1d(30, rng) if d == 1 else random_expansion_2d(10, rng)
        params, grid = SpaceParams(0.5, p, p), default_grid(frame)
        b = b_continuous_norm(f, params, frame, grid)
        assert f_continuous_norm(f, params, frame, grid) == pytest.approx(b, rel=1e-13)
        filtered = fs._filtered_coeffs(f, frame, None)
        blocks = fs._expansion_blocks(filtered, f.degree, grid.axis(), params.p)
        assert fs._combined_lp(blocks, params, grid.step**d) == pytest.approx(b, rel=1e-13)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize(
        "p, q", [(0.5, 1.0), (0.75, 2.0), (1.5, 1.0), (3.0, 2.0), (4.0, 3.0), (INF, 2.0)]
    )
    def test_sequence_norms_match_full_array_formula(self, d, p, q, frame_j3, frame_d2_j3):
        from conftest import random_expansion_2d

        rng = np.random.default_rng([d, 7])
        frame = frame_j3 if d == 1 else frame_d2_j3
        f = random_expansion_1d(40, rng) if d == 1 else random_expansion_2d(20, rng)
        s = analyze(f, frame)
        alpha = 0.5
        b_terms, f_total = [], 0.0
        for j, values in s.level_values.items():
            measures = frame.levels[j].tile_measures()
            if p == INF:
                b_terms.append(2.0 ** (alpha * j) * np.max(np.abs(values) / np.sqrt(measures)))
                continue
            level_sum = np.sum(measures ** (1.0 - p / 2.0) * np.abs(values) ** p)
            b_terms.append(2.0 ** (alpha * j) * level_sum ** (1.0 / p))
            f_total += 2.0 ** (j * alpha * p) * level_sum
        want_b = np.sum(np.array(b_terms) ** q) ** (1.0 / q)
        got_b = b_sequence_norm(s, SpaceParams(alpha, p, q), frame)
        assert got_b == pytest.approx(want_b, rel=1e-14)
        if p != INF:
            got_f = f_sequence_norm(s, SpaceParams(alpha, p, p), frame, method="closed")
            assert got_f == pytest.approx(f_total ** (1.0 / p), rel=1e-14)

    def test_sequence_norms_form_no_tile_measure_array(self, frame_d2_j3):
        # n2 is the bytes of one array over the top level's nodes; the tile
        # weights are per-axis, so each norm forms just one |s| array
        from conftest import random_expansion_2d

        s = analyze(random_expansion_2d(16, np.random.default_rng(29)), frame_d2_j3)
        assert frame_d2_j3.j_max in s.level_values
        n2 = frame_d2_j3.levels[-1].node_count * 8
        params = SpaceParams(0.5, 3.0, 3.0)
        for norm in (b_sequence_norm, lambda *a: f_sequence_norm(*a, method="closed")):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                norm(s, params, frame_d2_j3)
                extra = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert extra / n2 < 1.5

    def test_sequence_norms_read_the_coefficient_window(self, monkeypatch):
        # the d = 2, j_max = 4 level holds 1064**2 coefficients, of which a
        # dense degree-64 input leaves about a fifth above WINDOW_TAU
        from conftest import random_expansion_2d

        frame = nf.build_frame(d=2, j_max=4)
        s = analyze(random_expansion_2d(64, np.random.default_rng(5)), frame)
        sizes = []
        power_sum = fs._power_sum

        def recording(values, *rest):
            sizes.append(values.size)
            return power_sum(values, *rest)

        monkeypatch.setattr(fs, "_power_sum", recording)
        params = SpaceParams(0.5, 3.0, 3.0)
        b_sequence_norm(s, params, frame)
        f_sequence_norm(s, params, frame, method="closed")
        top = frame.levels[-1].node_count
        assert len(sizes) == 2 * len(s.level_values)
        assert max(sizes) <= 0.3 * top


class TestBandWindow:
    """Grid norms over the band window against the same norms on the whole grid."""

    ALPHA = 0.5

    @pytest.fixture(scope="class")
    def cases(self, frame_j4):
        from conftest import random_expansion_2d

        rng = np.random.default_rng(2107)
        frame_d2 = nf.build_frame(d=2, j_max=2)
        # a grid wider than the default, so that the window bites at p < 1 too
        return {
            1: (frame_j4, default_grid(frame_j4), random_expansion_1d(40, rng)),
            2: (frame_d2, GridSpec(20.0, 16), random_expansion_2d(8, rng)),
        }

    @staticmethod
    def slack(p, d, n_dropped, vol, weight, terms, full):
        """Bound on |windowed - full| for ``terms`` grid norms of a combine.

        On a dropped cell every term's function is at most
        bound = tau_p pi^(-(d-1)/4) ``weight`` (``weight`` sums the terms'
        l1 coefficient norms times their scale factors), so each term's p-th
        power sum moves by at most n_dropped * vol * bound^p; each term is at
        most ``full``.
        """
        bound = nf.WINDOW_TAU ** max(1.0, 1.0 / p) * math.pi ** (-(d - 1) / 4) * weight
        if p == INF:
            return terms * bound
        moved = n_dropped * vol * bound**p
        if p >= 1.0:
            return terms * moved ** (1.0 / p)
        return terms * moved * full ** (1.0 - p) / p

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("p", [0.5, 0.75, 1.5, 3.0, INF])
    def test_matches_the_whole_grid(self, d, p, cases, monkeypatch):
        frame, grid, f = cases[d]
        alpha = self.ALPHA
        axis = grid.axis()
        window = fs._band_window(axis, f.degree, p)
        kept = window.stop - window.start
        assert kept < axis.size
        n_dropped, vol = axis.size**d - kept**d, grid.step**d
        l1 = float(np.sum(np.abs(f.array)))
        filtered = fs._filtered_coeffs(f, frame, None)
        levels = sum(2.0 ** (alpha * j) * np.sum(np.abs(c)) for j, c in filtered.items())
        j_cap = max(1, math.ceil(math.log2(max(f.degree, 1)))) + 1
        # ||f||_p plus the series of best-approximation errors, each tail's l1 <= l1
        series = l1 * (1.0 + sum(2.0 ** (alpha * j) for j in range(j_cap + 1)))
        # (name, norm of the grid given, weight, terms)
        norms = [
            ("E", lambda g: best_approx_error(f, f.degree // 2, p, g), l1, 1),
        ]
        for q in (1.0, 2.0, INF):
            params = SpaceParams(alpha, p, q)
            norms += [
                (f"B q={q}", lambda g, s=params: b_continuous_norm(f, s, frame, g),
                 levels, len(filtered)),
                (f"A q={q}", lambda g, q=q: approximation_norm(f, alpha, q, p, g),
                 series, j_cap + 2),
            ]
            if p != INF:
                norms.append(
                    (f"F q={q}", lambda g, s=params: f_continuous_norm(f, s, frame, g),
                     levels, 1)
                )
        windowed = [norm(grid) for _, norm, _, _ in norms]
        monkeypatch.setattr(hc, "decay_radius", lambda *args: math.inf)
        for (name, norm, weight, terms), got in zip(norms, windowed):
            full = norm(grid)
            allowed = self.slack(p, d, n_dropped, vol, weight, terms, full)
            assert abs(got - full) <= allowed + 1e-14 * full, (name, got, full, allowed)

    def test_d2_j4_f_norm_evaluates_the_window_only(self, monkeypatch):
        # the d = 2, j_max = 4 F-norm of `norms ... --function bump:1.0,0.5
        # --degree 64 --p 3 --q 2 --kind F`; its whole grid has 5968 cells a side
        frame = nf.build_frame(d=2, j_max=4)
        f = fs.project_bumps(1.0, [0.5], 2, 64)[0].expansion
        grid = default_grid(frame)
        sizes = []
        values = hc.hermite_values

        def recording(n, points, *rest):
            sizes.append(np.size(points))
            return values(n, points, *rest)

        monkeypatch.setattr(hc, "hermite_values", recording)
        got = f_continuous_norm(f, SpaceParams(0.5, 3.0, 2.0), frame, grid)
        assert max(sizes) <= 2700 < grid.axis().size
        assert got == pytest.approx(1.1314020004939283, rel=1e-13)


# the rows of verify's norm table that criterion 8 does not read: p < 1,
# p = inf or q = inf
@pytest.mark.parametrize(
    "case",
    [r for r in verification.NORM_WINDOWS if not (1 <= r[2] < INF and r[3] < INF)],
    ids=str,
)
def test_continuous_sequence_ratio(case, catalogue):
    check = catalogue["spaces/" + verification.norm_check_name(*case)]
    assert check.passed, check.detail

import math
import tracemalloc

import numpy as np
import pytest

from hermite_needlets import (
    FrameDepthError,
    FrameMismatchError,
    HermiteExpansion,
    NumericFailureError,
    ParameterError,
    ResourceError,
    analyze,
    build_level,
    half_node_count,
    hermite_function,
    level_kernel,
    localization_profile,
    make_pair,
    synthesize,
)
from hermite_needlets import hermite_core as hc
from hermite_needlets import needlet_frame as nf

from conftest import random_expansion_1d, random_expansion_2d
from conftest import stored_sizes, tile_box


class TestLevelConstruction:
    @pytest.mark.parametrize(
        "j,expected", [(0, 5), (1, 11), (2, 36), (3, 135), (4, 532)]
    )
    def test_level_sizes(self, j, expected):
        assert half_node_count(j, 0.025) == expected

    def test_delta_range(self):
        with pytest.raises(ParameterError):
            half_node_count(1, 0.05)
        with pytest.raises(ParameterError):
            half_node_count(1, 0.0)

    def test_node_counts(self, frame_j3):
        for level in frame_j3.levels:
            assert level.node_count == (2 * level.half_nodes) ** level.d

    def test_d2_level_stores_only_the_1d_rule_and_bounds(self):
        level = build_level(2, 2)
        sizes = dict(stored_sizes(level))
        assert max(sizes.values()) <= level.base.n + 1, sizes
        assert level.node_count == level.base.n**2 == level.nodes.shape[0]

    def test_tile_box_of_rows(self, frame_d2_j3):
        level = frame_d2_j3.levels[1]
        rows = np.arange(level.node_count)
        lo, hi = tile_box(level, rows)
        for i in (0, 5, level.node_count - 1):
            one_lo, one_hi = tile_box(level, i)
            assert lo[:, i].tolist() == one_lo.tolist()
            assert hi[:, i].tolist() == one_hi.tolist()

    def test_level_normalization(self, frame_j3):
        # cubature exactness at degree (0, 0)
        for level in frame_j3.levels:
            h0 = hc.hermite_values(0, level.rule.nodes)[0]
            val = float(np.dot(level.rule.christoffel_weights, h0 * h0))
            assert val == pytest.approx(1.0, abs=1e-13)

    def test_budget_guard(self):
        with pytest.raises(ResourceError):
            build_level(3, 2, node_budget=1000)

    def test_tiles_partition_cube(self, frame_j4):
        for level in frame_j4.levels:
            q0, q1 = level.interval_bounds[0], level.interval_bounds[-1]
            total = level.tile_measures().sum()
            assert total == pytest.approx((q1 - q0) ** level.d, rel=1e-10)
            assert np.all(np.diff(level.interval_bounds) > 0)

    def test_edge_overhang(self, frame_j3):
        for level in frame_j3.levels:
            z_max = level.rule.nodes[-1]
            assert level.interval_bounds[-1] == pytest.approx(
                z_max + 2.0 ** (-level.j / 6.0), rel=1e-14
            )

    def test_node_inside_its_tile(self, frame_j3):
        level = frame_j3.levels[2]
        for i in (0, 3, 35, 36, 70, 71):
            lo, hi = tile_box(level, i)
            assert np.all(lo <= level.nodes[i]) and np.all(level.nodes[i] <= hi)

    def test_weight_tile_comparability(self, frame_j4):
        # frozen level-independent window for inner nodes
        for level in frame_j4.levels:
            lim = (1.0 + 4.0 * frame_j4.delta) * 2.0 ** (level.j + 1)
            inner = np.abs(level.nodes[:, 0]) <= lim
            ratio = level.weights[inner] / level.tile_measures()[inner]
            assert 0.5 < ratio.min() and ratio.max() < 2.0

    def test_inner_tile_scale(self, frame_j4):
        # |R| * 2^(j d) bounded for nodes within the (1+4 delta) 2^(j+1) cube
        for level in frame_j4.levels:
            lim = (1.0 + 4.0 * frame_j4.delta) * 2.0 ** (level.j + 1)
            inner = np.abs(level.nodes[:, 0]) <= lim
            scaled = level.tile_measures()[inner] * 2.0 ** (level.j * level.d)
            assert 0.4 < scaled.min() and scaled.max() < 7.0  # frozen

    def test_manifest(self, frame_j3):
        m = frame_j3.manifest()
        assert m["d"] == 1 and m["j_max"] == 3
        assert [lev["half_nodes"] for lev in m["levels"]] == [5, 11, 36, 135]


def _kernel(frame, j, x, y, side="a_hat"):
    """The level-j kernel at one pair of points, smoothed by a_hat or b_hat."""
    x, y = (np.reshape(p, (1, frame.d)) for p in (x, y))
    return float(level_kernel(frame, j, x, y, getattr(frame.pair, side))[0])


class TestKernels:
    def test_level0_is_ground_state(self, frame_j3):
        x, y = 0.3, -1.1
        want = hermite_function(0, x) * hermite_function(0, y)
        assert _kernel(frame_j3, 0, x, y) == pytest.approx(want, rel=1e-14)

    def test_level1_band(self, frame_j3):
        # level 1 samples the cutoff at integers, so only degrees 1..3 enter
        x, y = 0.7, -0.2
        a = frame_j3.pair.a_hat
        # at d = 1 the degree-nu projector kernel is h_nu(x) h_nu(y)
        want = sum(
            float(a(nu)) * hermite_function(nu, x) * hermite_function(nu, y)
            for nu in range(1, 4)
        )
        assert _kernel(frame_j3, 1, x, y) == pytest.approx(want, rel=1e-12)

    def test_symmetry(self, frame_j3):
        assert _kernel(frame_j3, 2, 0.3, -1.1) == _kernel(frame_j3, 2, -1.1, 0.3)

    def test_d2_symmetry(self, frame_d2_j3):
        x, y = (0.3, -1.1), (0.8, 0.45)
        assert _kernel(frame_d2_j3, 2, x, y) == _kernel(frame_d2_j3, 2, y, x)

    def test_quadratic_pair_kernels_match(self, frame_j3):
        b_val = _kernel(frame_j3, 2, 0.4, 1.0, "b_hat")
        assert b_val == _kernel(frame_j3, 2, 0.4, 1.0)

    def test_dual_pair_synthesis_kernel_against_brute_force(self, frame_j4_dual):
        # the dual pair is not tight, so the b_hat kernel is its own sum
        b = frame_j4_dual.pair.b_hat
        x, y = 0.4, 1.0
        brute = sum(
            float(b(nu / 4)) * hermite_function(nu, x) * hermite_function(nu, y)
            for nu in range(16)
        )
        got = _kernel(frame_j4_dual, 2, x, y, "b_hat")
        assert got == pytest.approx(brute, rel=1e-12)
        assert abs(got - _kernel(frame_j4_dual, 2, x, y)) > 0.1

    def test_needlet_eval_level0(self, frame_j3):
        level = frame_j3.levels[0]
        i = 4
        xi = level.nodes[i, 0]
        x = 0.55
        want = (
            math.sqrt(level.weights[i])
            * hermite_function(0, x)
            * hermite_function(0, xi)
        )
        got = math.sqrt(level.weights_at(i)) * _kernel(frame_j3, 0, x, xi)
        assert got == pytest.approx(want, rel=1e-13)

    def test_analysis_equals_synthesis_for_tight_frame(self, frame_j3):
        level = frame_j3.levels[2]
        xi, scale = level.nodes_at(30), math.sqrt(level.weights_at(30))
        v1 = scale * _kernel(frame_j3, 2, 1.3, xi)
        v2 = scale * _kernel(frame_j3, 2, 1.3, xi, "b_hat")
        assert v1 == v2

    def test_needlet_decay_window(self, frame_j4):
        # frozen bound on |phi_xi(x)| (1 + 2^j |x - xi|)^5 / 2^(j/2) for
        # inner nodes, stable across levels
        for j in (2, 3):
            level = frame_j4.levels[j]
            lim = (1.0 + frame_j4.delta) * 2.0 ** (j + 1)
            idxs = [i for i in range(level.node_count) if abs(level.nodes[i, 0]) <= lim]
            i = idxs[len(idxs) // 2]
            xi = level.nodes[i, 0]
            xs = xi + np.linspace(-20.0, 20.0, 101) / 2.0**j
            vals = math.sqrt(level.weights_at(i)) * level_kernel(
                frame_j4, j, xs, np.full_like(xs, xi), frame_j4.pair.a_hat
            )
            weighted = (
                np.abs(vals)
                * (1.0 + 2.0**j * np.abs(xs - xi)) ** 5
                / 2.0 ** (j / 2.0)
            )
            assert np.max(weighted) < 2e5  # frozen

    def test_d2_kernel_against_brute_force(self, frame_d2_j3):
        a = frame_d2_j3.pair.a_hat
        j, n = 2, 4
        x, y = np.array([0.4, -0.9]), np.array([1.2, 0.3])
        brute = 0.0
        for nu in range(4**j):
            w = float(a(nu / n))
            if w != 0.0:
                # the degree-nu projector kernel: a sum over |alpha| = nu
                brute += w * sum(
                    hermite_function(k, x[0]) * hermite_function(nu - k, x[1])
                    * hermite_function(k, y[0]) * hermite_function(nu - k, y[1])
                    for k in range(nu + 1)
                )
        assert _kernel(frame_d2_j3, j, x, y) == pytest.approx(brute, rel=1e-13)

    def test_d2_derivative_kernel_matches_fd(self, frame_d2_j3):
        a = frame_d2_j3.pair.a_hat
        x, y = np.array([0.4, -0.9]), np.array([1.2, 0.3])
        val = level_kernel(
            frame_d2_j3, 2, x.reshape(1, 2), y.reshape(1, 2), a, dx_order=1
        )[0]
        eps = 1e-6
        xp, xm = x.copy(), x.copy()
        xp[0] += eps
        xm[0] -= eps
        fd = (
            level_kernel(frame_d2_j3, 2, xp.reshape(1, 2), y.reshape(1, 2), a)[0]
            - level_kernel(frame_d2_j3, 2, xm.reshape(1, 2), y.reshape(1, 2), a)[0]
        ) / (2 * eps)
        assert val == pytest.approx(fd, rel=1e-6)

    def test_d2_needlet_eval(self, frame_d2_j3):
        # the row accessors pick the same node and weight as the dense arrays
        lev = frame_d2_j3.levels[1]
        i = 17
        x = (0.2, 0.8)
        got = math.sqrt(lev.weights_at(i)) * _kernel(frame_d2_j3, 1, x, lev.nodes_at(i))
        want = math.sqrt(lev.weights[i]) * _kernel(frame_d2_j3, 1, x, lev.nodes[i])
        assert got == want

    def test_d2_localization_inner_node(self, frame_d2_j3):
        # pick a node near the origin (flat middle index is an edge node
        # in the second coordinate under row-major ordering)
        n = 2 * frame_d2_j3.levels[2].half_nodes
        center = (n // 2) * n + n // 2
        rep = localization_profile(frame_d2_j3, 2, center, 6)
        assert rep.inner_max > 1.0  # genuinely inner
        assert rep.tail_max < 1e-8

    def test_invalid_node(self, frame_j3):
        with pytest.raises(ParameterError):
            localization_profile(frame_j3, 0, 10**6, 0)

    @pytest.mark.parametrize("j", [-1, 4])
    def test_needlet_eval_level_outside_frame(self, frame_j3, j):
        with pytest.raises(ParameterError):
            _kernel(frame_j3, j, 0.0, 0.0)


class TestTransforms:
    def test_ground_state_only_level_zero(self, frame_j3):
        f = HermiteExpansion(1, 0, {(0,): 2.0})
        s = analyze(f, frame_j3)
        assert sorted(s.level_values) == [0]
        level = frame_j3.levels[0]
        h0 = hc.hermite_values(0, level.rule.nodes)[0]
        want = np.sqrt(level.weights) * 2.0 * h0
        np.testing.assert_allclose(s.level_values[0], want, rtol=1e-13)

    def test_level_selectivity(self, frame_j3):
        f = HermiteExpansion(1, 2, {(2,): 1.0})
        assert sorted(analyze(f, frame_j3).level_values) == [1, 2]

    def test_depth_guard(self, frame_j3):
        f = HermiteExpansion(1, 65, {(65,): 1.0})
        with pytest.raises(FrameDepthError):
            analyze(f, frame_j3)

    def test_parseval_tight_frame(self, frame_j4):
        rng = np.random.default_rng(31)
        for _ in range(5):
            f = random_expansion_1d(16, rng)
            s = analyze(f, frame_j4)
            assert s.sum_squares() == pytest.approx(
                f.l2_norm() ** 2, rel=1e-12
            )

    def test_roundtrip_1d(self, frame_j4):
        rng = np.random.default_rng(7)
        f = random_expansion_1d(64, rng)
        g = synthesize(analyze(f, frame_j4), frame_j4)
        want = f.coeff_array()
        got = np.zeros_like(want)
        for (k,), v in g.coeffs.items():
            if k <= 64:
                got[k] = v
            else:
                assert abs(v) < 1e-12
        assert np.max(np.abs(got - want)) < 1e-10

    def test_roundtrip_2d(self, frame_d2_j3):
        rng = np.random.default_rng(11)
        f = random_expansion_2d(16, rng)
        g = synthesize(analyze(f, frame_d2_j3), frame_d2_j3)
        want = f.coeff_array()
        got = np.zeros_like(want)
        for (a1, a2), v in g.coeffs.items():
            if a1 <= 16 and a2 <= 16:
                got[a1, a2] = v
            else:
                assert abs(v) < 1e-12
        assert np.max(np.abs(got - want)) < 1e-10

    def test_roundtrip_deep_level(self):
        # level 5 runs the scale-ledger matrix path: nodes near |t| = 92
        # with degrees near 1024, where the plain recurrence underflows
        from hermite_needlets import build_frame

        frame = build_frame(d=1, delta=0.025, j_max=5, cutoff="quadratic")
        rng = np.random.default_rng(55)
        f = random_expansion_1d(256, rng)
        g = synthesize(analyze(f, frame), frame)
        want = f.coeff_array()
        got = np.zeros_like(want)
        for (k,), v in g.coeffs.items():
            if k <= 256:
                got[k] = v
            else:
                assert abs(v) < 1e-11
        assert np.max(np.abs(got - want)) < 1e-10

    def test_delta_boundaries(self):
        assert half_node_count(0, 1.0 / 37.0 - 1e-9) >= 5
        with pytest.raises(ParameterError):
            half_node_count(0, 1.0 / 37.0)

    def test_zero_coefficients_synthesize_to_zero(self, frame_j3):
        s = nf.NeedletCoefficients(frame=frame_j3)
        g = synthesize(s, frame_j3)
        assert g.coeffs == {}

    def test_single_coefficient_synthesis(self, frame_j3):
        j, i = 1, 7
        level = frame_j3.levels[j]
        s = nf.NeedletCoefficients(
            frame=frame_j3, level_values={j: np.zeros(level.node_count)}
        )
        s.level_values[j][i] = 1.0
        g = synthesize(s, frame_j3)
        xi = level.nodes[i, 0]
        lam = level.weights[i]
        b = frame_j3.pair.b_hat
        for (k,), v in g.coeffs.items():
            want = (
                math.sqrt(lam) * float(b(k / 1.0)) * hermite_function(k, xi)
            )
            assert v == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_frame_mismatch(self, frame_j3, frame_j4):
        f = HermiteExpansion(1, 0, {(0,): 1.0})
        s = analyze(f, frame_j3)
        with pytest.raises(FrameMismatchError):
            synthesize(s, frame_j4)

    @pytest.mark.parametrize("kind", ["quadratic", "dual"])
    def test_shipped_pair_frames_match(self, kind):
        f = random_expansion_1d(16, np.random.default_rng(6))
        a, b = (nf.build_frame(1, j_max=3, cutoff=kind) for _ in range(2))
        g = synthesize(analyze(f, a), b)
        assert g.array[: f.degree + 1] == pytest.approx(f.array, abs=1e-12)

    def test_frame_mismatch_names_both_frames(self, frame_j3, frame_j4_dual):
        s = analyze(HermiteExpansion(1, 0, {(0,): 1.0}), frame_j3)
        want = "^coefficients belong to d1-delta0.025-J3-quadratic, not d1-delta0.025-J4-dual$"
        with pytest.raises(FrameMismatchError, match=want):
            synthesize(s, frame_j4_dual)

    def test_cutoff_is_a_name(self):
        # frames come from the shipped pairs only, asked for by name
        with pytest.raises(ParameterError, match="unknown cutoff kind"):
            nf.build_frame(1, j_max=1, cutoff=make_pair("dual"))

    def test_dimension_mismatch(self, frame_d2_j3):
        f = HermiteExpansion(1, 0, {(0,): 1.0})
        with pytest.raises(Exception):
            analyze(f, frame_d2_j3)

    def test_parseval_2d(self, frame_d2_j3):
        rng = np.random.default_rng(13)
        f = random_expansion_2d(8, rng)
        s = analyze(f, frame_d2_j3)
        assert s.sum_squares() == pytest.approx(f.l2_norm() ** 2, rel=1e-12)

    def test_d2_transforms_form_no_weight_array(self, frame_d2_j3):
        # n2 is the bytes of one array over the top level's nodes; the weights
        # live in the per-axis Hermite matrices, so neither transform forms
        # such an array beyond analyze's output
        f = random_expansion_2d(16, np.random.default_rng(17))
        n2 = frame_d2_j3.levels[-1].node_count * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            s = analyze(f, frame_d2_j3)
            analyze_extra = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            synthesize(s, frame_d2_j3)
            synthesize_extra = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        output = sum(v.nbytes for v in s.level_values.values())
        assert (analyze_extra - output) / n2 < 0.5
        assert synthesize_extra / n2 < 1.0

    def test_d2_synthesize_forms_one_hermite_matrix_per_level(self, frame_d2_j3, monkeypatch):
        # both axes of a level share its (nodes, root weights) pair, so the
        # level's Hermite matrix is evaluated once, not once per axis
        s = analyze(random_expansion_2d(12, np.random.default_rng(23)), frame_d2_j3)
        calls = []
        values = hc.hermite_values

        def counting(*args):
            calls.append(args[0])
            return values(*args)

        monkeypatch.setattr(hc, "hermite_values", counting)
        synthesize(s, frame_d2_j3)
        assert len(calls) == len(s.level_values)

    def test_d1_synthesize_forms_no_hermite_matrix(self, frame_j4):
        # a d = 1 level is streamed as weighted moments over its window, so
        # synthesize never holds the (hi+1) x window Hermite matrix, whose
        # size, and with it the heap's layout, would follow the input
        f = random_expansion_1d(64, np.random.default_rng(19))
        s = analyze(f, frame_j4)
        top = frame_j4.levels[-1]
        win = nf.coefficient_window(s.level_values[top.j])
        matrix = (nf.level_band(top.j)[1] + 1) * (win.stop - win.start) * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            synthesize(s, frame_j4)
            extra = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert extra / matrix < 0.1

    @pytest.mark.parametrize("d", [1, 2])
    def test_analyze_stops_each_level_at_its_band(self, frame_j4, frame_d2_j3, d, monkeypatch):
        # level j's filtered array is zero above degree 4**j - 1, so its
        # Hermite matrix stops there, below the input's degree
        frame = frame_j4 if d == 1 else frame_d2_j3
        make = random_expansion_1d if d == 1 else random_expansion_2d
        f = make(4 ** (frame.j_max - 1), np.random.default_rng(41))
        degrees = {}
        values = hc.hermite_values

        def recording(n, points, *rest):
            degrees[np.size(points)] = n
            return values(n, points, *rest)

        monkeypatch.setattr(hc, "hermite_values", recording)
        s = analyze(f, frame)
        assert len(degrees) == len(s.level_values) == frame.j_max + 1
        for j in s.level_values:
            assert degrees[frame.levels[j].rule.n] <= min(f.degree, 4**j - 1)

    @pytest.mark.parametrize("kind", ["quadratic", "dual"])
    def test_cutoffs_evaluated_once_per_level(self, kind, monkeypatch):
        # each level's filter comes from one table over degrees 0..4**j - 1,
        # evaluated at its first read; the quadratic pair is one cutoff
        from hermite_needlets import cutoffs

        calls, counted = [], {}

        def counting(cutoff):
            if cutoff not in counted:
                tag = len(counted)

                def func(t):
                    calls.append((tag, t.size))
                    return cutoff.func(t)

                counted[cutoff] = cutoffs.SmoothCutoff(func)
            return counted[cutoff]

        pair = cutoffs.make_pair(kind)
        counting_pair = cutoffs.CutoffPair(counting(pair.a_hat), counting(pair.b_hat))
        monkeypatch.setitem(cutoffs._SHIPPED, kind, counting_pair)
        frame = nf.build_frame(d=1, j_max=3, cutoff=kind)
        for seed in (1, 2):
            f = random_expansion_1d(16, np.random.default_rng(seed))
            synthesize(analyze(f, frame), frame)
        levels = range(1, frame.j_max + 1)
        assert sorted(calls) == [(tag, 4**j) for tag in range(len(counted)) for j in levels]


def full_synthesis(s, frame) -> np.ndarray:
    """Dense synthesis with every level contracted over all of its nodes."""
    cap = 4**frame.j_max
    acc = np.zeros((cap + 1,) * frame.d)
    for j, values in s.level_values.items():
        level = frame.levels[j]
        hi = min(nf.level_band(j)[1], cap)
        root_weights = np.sqrt(level.rule.christoffel_weights)
        hmat = hc.hermite_values(hi, level.rule.nodes, root_weights)
        block = hc.contract_axes(values.reshape(level.shape), [hmat.T] * frame.d)
        acc[(slice(0, hi + 1),) * frame.d] += (
            nf.level_filter(frame.pair.b_hat, j, hi, frame.d) * block
        )
    return acc


def window_bound(s, frame) -> float:
    """The synthesize docstring's l2 bound on what the windows leave out."""
    total = 0.0
    for j, values in s.level_values.items():
        hi = min(nf.level_band(j)[1], 4**frame.j_max)
        b_max = np.max(np.abs(nf.filter_weights(frame.pair.b_hat, j, hi)))
        top = np.max(np.abs(values))
        total += b_max * nf.WINDOW_TAU * top * math.sqrt(values.size)
    return total


def dense_output(g, frame) -> np.ndarray:
    out = np.zeros((4**frame.j_max + 1,) * frame.d)
    out[tuple(slice(0, n) for n in g.array.shape)] = g.array
    return out


@pytest.fixture(scope="module")
def frame_d2_j3_dual():
    return nf.build_frame(2, j_max=3, cutoff="dual")


class TestSynthesisWindow:
    def test_window_of_values(self):
        tau = nf.WINDOW_TAU
        s = np.array([0.0, 0.5 * tau, 0.0, 1.0, -tau, -2.0 * tau, 0.0, tau])
        assert nf.coefficient_window(s) == slice(3, 6)
        s2 = np.zeros((7, 7))
        s2[2, 5], s2[4, 1], s2[6, 6] = -3.0, 1e-3, 2.0 * tau
        assert nf.coefficient_window(s2) == slice(1, 6)
        for zeros in (np.zeros(5), np.zeros((4, 4))):
            win = nf.coefficient_window(zeros)
            assert win.start == win.stop

    @pytest.mark.parametrize(
        "d,row,col", [(1, 0, None), (1, -1, None), (2, 0, 0), (2, 0, "mid"), (2, "mid", -1)]
    )
    def test_single_edge_coefficient(self, frame_j3, frame_d2_j3, d, row, col):
        # outermost, corner and edge-centre nodes of the top level
        frame = frame_j3 if d == 1 else frame_d2_j3
        level = frame.levels[-1]
        n = level.shape[0]
        pos = tuple(n // 2 if i == "mid" else i % n for i in (row, col)[:d])
        values = np.zeros(level.shape)
        values[pos] = 1.0
        s = nf.NeedletCoefficients(frame=frame, level_values={level.j: values.ravel()})
        ref = full_synthesis(s, frame)
        assert np.max(np.abs(ref)) > 0.0
        got = dense_output(synthesize(s, frame), frame)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "fixture,degree",
        [
            ("frame_j4", 64),
            ("frame_j4", 200),
            ("frame_j4_dual", 64),
            ("frame_d2_j3", 20),
            ("frame_d2_j3_dual", 20),
        ],
    )
    def test_analyzed_input_within_bound(self, request, fixture, degree):
        frame = request.getfixturevalue(fixture)
        rng = np.random.default_rng(degree)
        make = random_expansion_1d if frame.d == 1 else random_expansion_2d
        s = analyze(make(degree, rng), frame)
        top = s.level_values[frame.j_max].reshape(frame.levels[-1].shape)
        win = nf.coefficient_window(top)
        assert win.stop - win.start < top.shape[0]  # the top level drops nodes
        ref = full_synthesis(s, frame)
        got = dense_output(synthesize(s, frame), frame)
        roundoff = 1e-14 * np.linalg.norm(ref)
        assert np.linalg.norm(got - ref) <= window_bound(s, frame) + roundoff

    def test_zero_level_equals_omitted_level(self, frame_j3):
        s = analyze(random_expansion_1d(40, np.random.default_rng(3)), frame_j3)
        values = dict(s.level_values)
        omitted = nf.NeedletCoefficients(frame=frame_j3, level_values=dict(values))
        del omitted.level_values[2]
        values[2] = np.zeros_like(values[2])
        zeroed = nf.NeedletCoefficients(frame=frame_j3, level_values=values)
        g_zeroed, g_omitted = synthesize(zeroed, frame_j3), synthesize(omitted, frame_j3)
        assert np.array_equal(g_zeroed.array, g_omitted.array)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["edge", "centre"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_non_finite_coefficient_raises(self, frame_j3, frame_d2_j3, d, where, bad):
        frame = frame_j3 if d == 1 else frame_d2_j3
        f = (random_expansion_1d if d == 1 else random_expansion_2d)(
            24, np.random.default_rng(8)
        )
        s = analyze(f, frame)
        level = frame.levels[-1]
        centre = np.ravel_multi_index(tuple(n // 2 for n in level.shape), level.shape)
        s.level_values[level.j][0 if where == "edge" else centre] = bad
        with pytest.raises(NumericFailureError):
            synthesize(s, frame)


class TestLocalization:
    def test_tail_is_evanescent(self, frame_j4):
        rep = localization_profile(frame_j4, 3, frame_j4.levels[3].node_count // 2, 6)
        assert rep.tail_max < 1e-8

    def test_k0_is_raw_kernel(self, frame_j4):
        rep = localization_profile(frame_j4, 2, 30, 0)
        max_abs = max(abs(v) for _, v, _ in rep.samples)
        assert rep.inner_max * 2.0**2 <= max_abs + 1e-15

    def test_inner_constant_stable_across_levels(self, frame_j4):
        # frozen: level constants for k = 6 vary by well under a factor 4
        consts = []
        for j in (2, 3, 4):
            level = frame_j4.levels[j]
            lim = (1.0 + frame_j4.delta) * 2.0 ** (j + 1)
            idxs = [
                i
                for i in range(level.node_count)
                if abs(level.nodes[i, 0]) <= lim
            ]
            sample = idxs[:: max(1, len(idxs) // 12)]
            consts.append(
                max(
                    localization_profile(frame_j4, j, i, 6).inner_max
                    for i in sample
                )
            )
        assert max(consts) / min(consts) < 4.0

    @pytest.mark.parametrize("j_max", [2, 3])
    def test_d2_tail_samples_span_tail_radius(self, frame_d2_j3, j_max):
        # the last 40 samples lie on the ray xi + o * (1, 1) / sqrt(2)
        frame = frame_d2_j3 if j_max == 3 else nf.build_frame(2, j_max=2)
        level = frame.levels[j_max]
        radius = 1.2 * math.sqrt(4.0 * 4.0**j_max + 2.0)
        central = int(np.ravel_multi_index(tuple(s // 2 for s in level.shape), level.shape))
        for node in (central, 3):
            rep = localization_profile(frame, j_max, node, 6)
            offsets = np.array([o for o, _, _ in rep.samples[-40:]])
            pts = level.nodes_at(node) + offsets[:, None] / math.sqrt(2.0)
            xinf = np.max(np.abs(pts), axis=1)
            # the first sample may land an ulp inside the radius
            assert np.all(xinf >= radius - 1e-12)
            assert np.all(xinf <= 1.5 * radius + 1e-12)

    @pytest.mark.parametrize("d,j,node", [(1, 0, 1), (1, 1, 12), (2, 2, 3)])
    def test_constructed_tail_samples_count_as_tail(self, d, j, node):
        # on these nodes the first constructed sample rounds an ulp inside R
        frame = nf.build_frame(d, j_max=2)
        rep = localization_profile(frame, j, node, 6)
        constructed = np.array([abs(v) for _, v, _ in rep.samples[-40:]])
        assert rep.tail_max >= constructed.max() > 0.0

    def test_k_bound(self, frame_j3):
        with pytest.raises(ParameterError):
            localization_profile(frame_j3, 1, 0, 11)

    @pytest.mark.parametrize("j", [-1, 4])
    def test_level_outside_frame(self, frame_j3, j):
        with pytest.raises(ParameterError):
            localization_profile(frame_j3, j, 0, 6)

    def test_derivative_variant_runs(self, frame_j3):
        rep = localization_profile(frame_j3, 2, 30, 6, dx_order=1)
        assert rep.inner_max > 0.0
        assert rep.tail_max < 1e-6

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_needlets import (
    DimensionMismatchError,
    HermiteExpansion,
    InsufficientQuadratureError,
    InvalidDegreeError,
    NumericFailureError,
    hermite_function,
    project_function,
    smooth_bump,
)
from hermite_needlets import function_spaces as fs
from hermite_needlets import hermite_core as hc
from hermite_needlets import quadrature as quad

PI14 = math.pi ** -0.25


def hermite_poly_direct(n, t):
    """Oracle: physicists' Hermite polynomial by the raw recurrence."""
    h0, h1 = 1.0, 2.0 * t
    if n == 0:
        return h0
    for k in range(1, n):
        h0, h1 = h1, 2.0 * t * h1 - 2.0 * k * h0
    return h1


def hermite_fn_direct(n, t):
    norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return hermite_poly_direct(n, t) * math.exp(-t * t / 2.0) / norm


class TestHermiteFunction:
    def test_h0_at_zero(self):
        assert hermite_function(0, 0.0) == pytest.approx(PI14, rel=1e-15)

    def test_h1_odd(self):
        assert hermite_function(1, 0.0) == 0.0

    def test_evanescent_value(self):
        # far outside the oscillatory region of degree 5
        assert abs(hermite_function(5, 10.0)) < 1e-15

    def test_against_direct_formula(self):
        for n in range(0, 12):
            for t in (-2.3, 0.0, 0.7, 3.1):
                assert hermite_function(n, t) == pytest.approx(
                    hermite_fn_direct(n, t), rel=1e-12, abs=1e-15
                )

    def test_degree_cap(self):
        with pytest.raises(InvalidDegreeError):
            hermite_function(-1, 0.0)
        with pytest.raises(InvalidDegreeError):
            hermite_function(hc.DEGREE_CAP + 1, 0.0)

    def test_orthonormality(self):
        # order-128 rule integrates h_n h_m exactly for n, m <= 60
        rule = quad.gauss_hermite_rule(128)
        hmat = hc.hermite_values(60, rule.nodes)
        gram = (hmat * rule.christoffel_weights) @ hmat.T
        assert np.max(np.abs(gram - np.eye(61))) < 1e-9

    def test_three_term_recurrence_residual(self):
        ts = np.linspace(-6.0, 6.0, 121)
        for n in (1, 5, 17, 64):
            vals = hc.hermite_values(n + 1, ts)
            resid = np.abs(
                ts * vals[n]
                - math.sqrt((n + 1) / 2.0) * vals[n + 1]
                - math.sqrt(n / 2.0) * vals[n - 1]
            )
            assert np.max(resid / np.maximum(1.0, np.abs(vals[n]))) < 1e-10

    def test_ode_residual(self):
        # h_n'' = (t^2 - (2n+1)) h_n, checked by central differences
        step = 1e-4
        for n in (0, 3, 11, 32):
            for t in np.linspace(-5.0, 5.0, 21):
                second = (
                    hermite_function(n, t + step)
                    - 2.0 * hermite_function(n, t)
                    + hermite_function(n, t - step)
                ) / step**2
                target = (t * t - (2 * n + 1)) * hermite_function(n, t)
                assert abs(second - target) < 1e-4


class TestDerivative:
    def test_h0_derivative_at_zero(self):
        assert hc.hermite_derivative_values(0, np.array([0.0]))[0, 0] == 0.0

    def test_h1_derivative_at_zero(self):
        assert hc.hermite_derivative_values(1, np.array([0.0]))[1, 0] == pytest.approx(
            math.sqrt(2.0) * PI14, rel=1e-14
        )

    @pytest.mark.parametrize("n,t", [(4, 0.7), (16, 2.3)])
    def test_matches_finite_difference(self, n, t):
        step = 1e-6
        fd = (hermite_function(n, t + step) - hermite_function(n, t - step)) / (
            2.0 * step
        )
        got = hc.hermite_derivative_values(n, np.array([t]))[n, 0]
        assert got == pytest.approx(fd, rel=1e-6)


class TestTensorAndKernels:
    """Projector kernels H_n (one-hot weights) and partial sums K_n (weights
    1) through ``filtered_kernel``, at one pair of points."""

    def test_projector_d1(self):
        v = hermite_function(3, 2.0)
        got = hc.filtered_kernel(np.eye(4)[3], np.array([2.0]), np.array([2.0]))[0]
        assert got == pytest.approx(v * v, rel=1e-14)

    def test_projector_d2_gaussian(self):
        x = (0.4, -1.2)
        want = math.exp(-(x[0] ** 2 + x[1] ** 2)) / math.pi
        pt = np.array([x])
        assert hc.filtered_kernel(np.ones(1), pt, pt, 2)[0] == pytest.approx(want, rel=1e-13)

    def test_projector_symmetry(self):
        e1, e2 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        a = hc.filtered_kernel(np.eye(5)[4], e1, e2, 2)[0]
        b = hc.filtered_kernel(np.eye(5)[4], e2, e1, 2)[0]
        assert a == b

    def test_projector_d2_against_sum(self):
        x, y = (0.3, -0.8), (1.1, 0.2)
        want = sum(
            hermite_fn_direct(k, x[0]) * hermite_fn_direct(4 - k, x[1])
            * hermite_fn_direct(k, y[0]) * hermite_fn_direct(4 - k, y[1])
            for k in range(5)
        )
        got = hc.filtered_kernel(np.eye(5)[4], np.array([x]), np.array([y]), 2)[0]
        assert got == pytest.approx(want, rel=1e-12)

    def test_partial_sum_origin(self):
        zero = np.array([0.0])
        assert hc.filtered_kernel(np.ones(1), zero, zero)[0] == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-14
        )

    def test_partial_sum_diagonal_positive(self):
        for n in (1, 8, 64):
            t = np.array([-3.0, 0.0, 1.5])
            assert np.all(hc.filtered_kernel(np.ones(n + 1), t, t) > 0.0)

    def test_partial_sum_even_terms_at_origin(self):
        want = sum(hermite_fn_direct(j, 0.0) ** 2 for j in range(0, 65, 2))
        zero = np.array([0.0])
        assert hc.filtered_kernel(np.ones(65), zero, zero)[0] == pytest.approx(
            want, rel=1e-12
        )

    def test_christoffel_darboux_agrees(self):
        for n in (4, 32, 100):
            for x, y in ((0.1, -0.4), (2.0, 2.2), (-5.0, 0.5)):
                direct = hc.filtered_kernel(np.ones(n + 1), np.array([x]), np.array([y]))[0]
                h = hc.hermite_values(n + 1, np.array([x, y]))
                num = h[n + 1, 0] * h[n, 1] - h[n, 0] * h[n + 1, 1]
                cd = math.sqrt((n + 1) / 2.0) * num / (x - y)
                assert cd == pytest.approx(direct, rel=1e-10, abs=1e-25)

    def test_partial_sum_d2_cumulative(self):
        # K_5 = sum over |alpha| <= 5 of h_alpha(x) h_alpha(y), term by term
        x, y = (0.3, -0.8), (1.1, 0.2)
        want = sum(
            hermite_fn_direct(k, x[0]) * hermite_fn_direct(m - k, x[1])
            * hermite_fn_direct(k, y[0]) * hermite_fn_direct(m - k, y[1])
            for m in range(6)
            for k in range(m + 1)
        )
        got = hc.filtered_kernel(np.ones(6), np.array([x]), np.array([y]), 2)[0]
        assert got == pytest.approx(want, rel=1e-12)


class TestKernelDiagonal:
    def test_reciprocal_identity(self):
        # the Christoffel function 1 / K_n(t, t) from kernel_diag
        for n in (2, 16, 100):
            t = np.array([0.0, 0.9, -2.4])
            lam = 1.0 / hc.kernel_diag(n, t)
            for got in lam * hc.filtered_kernel(np.ones(n + 1), t, t):
                assert got == pytest.approx(1.0, rel=1e-12)

    def test_christoffel_closed_form(self):
        # at a zero of the degree-2 polynomial only h_0, h_1 contribute
        want = (math.sqrt(math.pi) / 2.0) * math.exp(0.5)
        lam = 1.0 / hc.kernel_diag(2, np.array([1.0 / math.sqrt(2.0)]))[0]
        assert lam == pytest.approx(want, rel=1e-13)

    def test_asymptotic_ratio_window(self):
        # frozen window; see also the acceptance suite
        for n in (16, 64, 256):
            xs = np.linspace(0.0, 0.9 * math.sqrt(2.0 * n), 50)
            lam = 1.0 / hc.kernel_diag(n, xs)
            model = n**-0.5 * np.maximum(
                n ** (-2.0 / 3.0), 1.0 - np.abs(xs) / math.sqrt(2.0 * n)
            ) ** (-0.5)
            ratios = lam / model
            assert 1.0 / 3.0 < ratios.min() and ratios.max() < 3.0

    def test_diagonal_upper_bound_bulk(self):
        for dim in (1, 2):
            for n in (16, 64, 256):
                if dim == 1:
                    pts = np.linspace(0.0, 0.9 * math.sqrt(2.0 * n), 30)
                else:
                    t = np.linspace(0.0, 0.9 * math.sqrt(2.0 * n), 20)
                    pts = np.stack([t / math.sqrt(2.0), t / math.sqrt(2.0)], axis=1)
                diag = hc.projector_diag(n, pts, dim=dim).sum(axis=0)
                assert np.max(diag) / n ** (dim / 2.0) < 0.7  # frozen

    def test_sub_gaussian_tail(self):
        for dim in (1, 2):
            for n in (16, 64, 256):
                edge = 1.2 * math.sqrt(4.0 * n + 2.0)
                if dim == 1:
                    pts = np.linspace(edge, 1.4 * edge, 9)
                    vals = hc.kernel_diag(n, pts)
                else:
                    t = np.linspace(edge, 1.4 * edge, 9)
                    pts = np.stack([t, np.zeros_like(t)], axis=1)
                    vals = hc.projector_diag(n, pts, dim=2).sum(axis=0)
                assert np.max(vals) < 1e-8

    def test_top_band_dominates_half_degree_kernel(self):
        # sum of top-half projector diagonals dominates the half-degree kernel
        frozen = {1: 0.2, 2: 0.12}
        for dim in (1, 2):
            for n in (32, 128):
                lim = 2.0 * math.sqrt(2.0 * n + 1.0)
                if dim == 1:
                    ts = np.linspace(0.0, lim, 40)
                    diag = hc.projector_diag(n, ts, dim=1)
                else:
                    t = np.linspace(0.0, lim, 25)
                    pts = np.stack([t, t], axis=1) / math.sqrt(2.0)
                    diag = hc.projector_diag(n, pts, dim=2)
                    ts = t
                lhs = diag[n // 2 :].sum(axis=0)
                rhs = n ** ((dim - 1) / 2.0) * hc.kernel_diag(n // 2, ts)
                live = rhs > 1e-200
                assert np.min(lhs[live] / rhs[live]) > frozen[dim]


class TestExpansion:
    def test_single_term(self):
        f = HermiteExpansion(1, 0, {(0,): 1.0})
        ((_, v),) = next(fs._expansion_blocks({0: f.array}, f.degree, np.array([0.0])))
        assert v[0] == pytest.approx(PI14, rel=1e-14)

    def test_zero_expansion(self):
        # the norms never evaluate an all-zero array: its norm is 0 on no grid
        f = HermiteExpansion(1, 4, {})
        assert fs._level_lp_norms({0: f.array}, f.degree, np.inf, None)[0] == 0.0

    def test_linearity(self):
        f = HermiteExpansion(1, 5, {(2,): 3.0, (5,): -1.0})
        want = 3.0 * hermite_fn_direct(2, 1.1) - hermite_fn_direct(5, 1.1)
        ((_, v),) = next(fs._expansion_blocks({0: f.array}, f.degree, np.array([1.1])))
        assert v[0] == pytest.approx(want, rel=1e-12)

    def test_l2_norm_parseval(self):
        f = HermiteExpansion(1, 3, {(0,): 3.0, (3,): 4.0})
        assert f.l2_norm() == 5.0

    def test_invariant_validation(self):
        with pytest.raises(InvalidDegreeError):
            HermiteExpansion(1, 2, {(3,): 1.0})
        with pytest.raises(DimensionMismatchError):
            HermiteExpansion(2, 2, {(1,): 1.0})
        with pytest.raises(InvalidDegreeError):
            HermiteExpansion(1, 2, {(-1,): 1.0})

    def test_evaluation_2d(self):
        f = HermiteExpansion(2, 4, {(0, 0): 1.0, (1, 3): -2.0})
        x = (0.3, -0.7)
        want = hermite_fn_direct(0, x[0]) * hermite_fn_direct(0, x[1]) - 2.0 * (
            hermite_fn_direct(1, x[0]) * hermite_fn_direct(3, x[1])
        )
        axis = np.array([-0.7, 0.3])  # the grid point (axis[1], axis[0]) is x
        ((_, v),) = next(fs._expansion_blocks({0: f.array}, f.degree, axis))
        assert v[1, 0] == pytest.approx(want, rel=1e-12)

    def test_grid_evaluation_matches_pointwise(self):
        f = HermiteExpansion(2, 3, {(0, 2): 1.5, (3, 0): -0.5})
        xs = np.linspace(-2, 2, 5)
        ((_, grid),) = next(fs._expansion_blocks({0: f.array}, f.degree, xs))
        for i, x in enumerate(xs):
            for j, y in enumerate(xs):
                want = sum(
                    c * hermite_fn_direct(a, x) * hermite_fn_direct(b, y)
                    for (a, b), c in f.coeffs.items()
                )
                assert grid[i, j] == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_from_array_rejects_non_finite(self, bad):
        with pytest.raises(NumericFailureError):
            HermiteExpansion.from_array(np.array([1.0, bad, 0.0]))

    @given(
        scale=st.floats(min_value=-10, max_value=10, allow_nan=False),
        t=st.floats(min_value=-4, max_value=4, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_evaluation_homogeneous(self, scale, t):
        f = HermiteExpansion(1, 3, {(1,): 0.5, (3,): -2.0})
        g = f.scaled(scale)  # all zero at scale 0: _expansion_blocks takes nonzero arrays
        got = sum(c * hermite_fn_direct(k, t) for (k,), c in g.coeffs.items())
        ((_, v),) = next(fs._expansion_blocks({0: f.array}, f.degree, np.array([t])))
        assert got == pytest.approx(scale * v[0], rel=1e-10, abs=1e-12)


class TestWeightedValues:
    def test_weights_scale_the_columns(self):
        # past |t| of about 30 the ledger rescales before degree 1023, and
        # the weights must survive each rescale
        t = np.array([-40.0, -31.5, -3.0, 0.5, 12.25, 33.0, 40.0])
        w = np.array([0.5, 2.0, 1.0, 3.0, 0.25, 1e-3, 7.0])
        assert any(r is not None for *_, r in hc._ledger_steps(1023, t.copy()))
        want = hc.hermite_values(1023, t) * w
        np.testing.assert_allclose(hc.hermite_values(1023, t, w), want, rtol=1e-15, atol=0)


def _per_step_ledger(n, t, squares=False):
    """The ledger with a rescale test at every degree: the oracle for
    ``hc._ledger_steps``, which tests only where a rescale can be due."""
    logscale = -t * t if squares else -0.5 * t * t
    p_prev = np.zeros_like(t)
    p = np.full_like(t, hc._H0)
    p_next = np.empty_like(t)
    measure, down = (np.square, 2.0**-480) if squares else (np.abs, 2.0**-960)
    mag = measure(p)
    yield p_prev, p, mag, logscale, None
    for k in range(n):
        np.multiply(t, math.sqrt(2.0 / (k + 1)), out=p_next)
        p_next *= p
        p_prev *= math.sqrt(k / (k + 1.0))
        p_next -= p_prev
        p_prev, p, p_next = p, p_next, p_prev
        rescaled = None
        if measure(p, out=mag).max(initial=0.0) > 2.0**960:
            rescaled = mag > 2.0**960
            p[rescaled] *= down
            p_prev[rescaled] *= down
            logscale[rescaled] += 960.0 * math.log(2.0)
        yield p_prev, p, mag, logscale, rescaled


class TestLedgerSchedule:
    """Rescale tests only where one can be due, against a test at every degree.

    Where the two schedules rescale a point at different degrees, the
    product p*exp(logscale) is rounded through a different ledger entry:
    one add of 960 log 2 at |logscale| up to about 1450 moves it by at most
    1.2e-13 of itself.  Values whose ledger underflows before a due rescale
    is tested flush to zero; they are below 2**1008 times the smallest
    subnormal, 2**-66.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 72, 1064, 4238, 16938])
    def test_zeros_bitwise_equal_to_newton_on_per_step_ledger(self, n, monkeypatch):
        got = quad.hermite_zeros(n)[(n + 1) // 2 :]
        monkeypatch.setattr(hc, "_ledger_steps", _per_step_ledger)
        want = quad._newton_polish(n, quad._asymptotic_positive_zeros(n))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("n", [300, 1024, 4238, hc.DEGREE_CAP])
    def test_kernel_diag_matches_per_step_ledger(self, n, monkeypatch):
        # |t| up to 200, the largest zero at DEGREE_CAP
        t = np.linspace(-200.0, 200.0, 801)
        got = hc.kernel_diag(n, t)
        monkeypatch.setattr(hc, "_ledger_steps", _per_step_ledger)
        want = hc.kernel_diag(n, t)
        assert np.all(np.abs(got - want) <= 1.2e-13 * want.max())

    @pytest.mark.parametrize("n, top, count", [(1024, 45.0, 721), (4000, 100.0, 401),
                                               (hc.DEGREE_CAP, 200.0, 41)])
    def test_values_match_per_step_ledger(self, n, top, count, monkeypatch):
        t = np.linspace(-top, top, count)
        got = hc.hermite_values(n, t)
        monkeypatch.setattr(hc, "_ledger_steps", _per_step_ledger)
        want = hc.hermite_values(n, t)
        colmax = np.abs(want).max(axis=0)
        assert np.all(np.abs(got - want) <= 1.2e-13 * colmax + 2.0**-66)

    @pytest.mark.parametrize("t", [0.0, 1e3, 1e6, -1e6])
    def test_finite_for_adversarial_points(self, t):
        pts = np.array([t, 0.0])
        assert np.isfinite(hc.kernel_diag(hc.DEGREE_CAP, pts)).all()
        assert np.isfinite(hc.hermite_values(2000, pts)).all()
        assert all(np.isfinite(a).all() for a in hc._scaled_derivative(2000, pts))

    def test_empty_points(self):
        assert hc.kernel_diag(100, np.empty(0)).shape == (0,)
        assert hc.hermite_values(100, np.empty(0)).shape == (101, 0)
        assert quad.hermite_zeros(1).tolist() == [0.0]

    def test_gap_falls_to_one(self):
        # no points or t = 0: the rate is 1, which would divide by log2(1) = 0
        assert hc._test_gap(0.0, -1, 1) == hc._test_gap(0.0, 500, 2) == 1
        # one squared step at |t| = 1e6 may grow by 2**41, most of the room
        assert hc._test_gap(1e6, -1, 2) == 1
        assert hc._test_gap(math.nan, 10, 1) == hc._test_gap(math.inf, 10, 1) == 1
        # at the largest zero of the largest rule the tests are sparse
        assert hc._test_gap(200.0, -1, 1) >= 5 and hc._test_gap(200.0, 10000, 2) >= 10
        # and sparser where a step grows |p| by less than 2 (points near 0
        # at high degree, as a bump's window of a large rule holds)
        assert hc._test_gap(5.0, 12000, 1) >= 48 and hc._test_gap(5.0, 12000, 2) >= 24


class TestContractAxes:
    """Axis i of the array contracts with the rows of matrix i, for d = 1, 2."""

    def test_d1_matches_einsum(self):
        rng = np.random.default_rng(11)
        arr, m = rng.standard_normal(5), rng.standard_normal((5, 7))
        got = hc.contract_axes(arr, [m])
        assert got.shape == (7,)
        np.testing.assert_allclose(got, np.einsum("a,ai->i", arr, m), rtol=1e-13)

    def test_d2_matches_einsum_with_one_matrix_per_axis(self):
        # non-square and different on each axis, so swapped axes would show
        rng = np.random.default_rng(12)
        arr = rng.standard_normal((4, 6))
        m0, m1 = rng.standard_normal((4, 3)), rng.standard_normal((6, 9))
        got = hc.contract_axes(arr, [m0, m1])
        assert got.shape == (3, 9)
        want = np.einsum("ab,ai,bj->ij", arr, m0, m1)
        np.testing.assert_allclose(got, want, rtol=1e-13)


class TestTotalDegreeSums:
    """One strided weight array and one axis fold serve every dimension."""

    def test_weights_spread_by_total_degree(self):
        w = np.random.default_rng(13).standard_normal(7)
        assert np.array_equal(hc.total_degree_weights(w, 1), w)
        want = np.array(
            [[w[k + l] if k + l < w.size else 0.0 for l in range(7)] for k in range(7)]
        )
        assert np.array_equal(hc.total_degree_weights(w, 2), want)

    def test_projector_diag_d2_is_the_antidiagonal_sum(self):
        pts = np.random.default_rng(14).uniform(-6.0, 6.0, (9, 2))
        u, v = (hc.hermite_values(40, pts[:, i]) ** 2 for i in range(2))
        want = np.array([np.einsum("kp,kp->p", u[: m + 1], v[m::-1]) for m in range(41)])
        assert np.array_equal(hc.projector_diag(40, pts, dim=2), want)

    def test_filtered_kernel_d1_is_one_product(self):
        rng = np.random.default_rng(15)
        w, x, y = rng.standard_normal(256), rng.normal(0, 9, 30), rng.normal(0, 9, 30)
        want = w @ (hc.hermite_derivative_values(255, x) * hc.hermite_values(255, y))
        assert np.array_equal(hc.filtered_kernel(w, x, y, 1, dx_order=1), want)

    @pytest.mark.parametrize("dx_order", [0, 1])
    def test_filtered_kernel_d2_matches_hankel_contraction(self, dx_order):
        rng = np.random.default_rng(16 + dx_order)
        w = rng.uniform(0.0, 1.0, 256)
        x, y = rng.uniform(-15.0, 15.0, (2, 361, 2))
        x_values = hc.hermite_values if dx_order == 0 else hc.hermite_derivative_values
        u = x_values(255, x[:, 0]) * hc.hermite_values(255, y[:, 0])
        v = hc.hermite_values(255, x[:, 1]) * hc.hermite_values(255, y[:, 1])
        want = np.einsum("kp,kp->p", u, hc.total_degree_weights(w, 2) @ v)
        got = hc.filtered_kernel(w, x, y, 2, dx_order)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "dim,x_shape,y_shape",
        [
            (2, (2, 3), (2, 3)),  # three coordinates are not a d = 2 point
            (1, (2, 2), (2, 2)),
            (2, (4,), (4,)),  # the flat form is for d = 1 only
            (1, (3,), (2,)),
            (2, (3, 2), (2, 2)),
            (1, (3,), (3, 1)),
            (1, (), ()),
        ],
    )
    def test_filtered_kernel_point_shapes_checked(self, dim, x_shape, y_shape):
        with pytest.raises(DimensionMismatchError, match="must share shape"):
            hc.filtered_kernel(np.ones(5), np.zeros(x_shape), np.zeros(y_shape), dim)

    @pytest.mark.parametrize("dim,shape", [(2, (6,)), (2, (2, 3)), (1, (4, 2))])
    def test_projector_diag_point_shapes_checked(self, dim, shape):
        # read as whole points of dimension dim, these would be 3, 3 and 8 points
        with pytest.raises(DimensionMismatchError, match="must share shape"):
            hc.projector_diag(2, np.zeros(shape), dim=dim)

    def test_d2_partial_sum_kernel_memory_is_linear_in_degree(self):
        # the (n+1)^2 Hankel weight matrix alone would take 32 MB here
        n = 2000
        tracemalloc.start()
        try:
            hc.filtered_kernel(np.ones(n + 1), np.array([[0.3, -0.2]]),
                               np.array([[0.1, 0.4]]), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (n + 1) ** 2 * 8 / 10

    @pytest.mark.parametrize(
        "call",
        [
            lambda: hc.total_degree_weights(np.ones(3), 3),
            lambda: hc.filtered_kernel(np.ones(3), np.zeros((2, 3)), np.zeros((2, 3)), 3),
            lambda: hc.projector_diag(2, np.zeros((2, 3)), dim=3),
            lambda: project_function(lambda x: x[:, 0], 2, 20, dim=3),
            lambda: HermiteExpansion(3, 2, {}),
            lambda: HermiteExpansion.from_array(np.zeros((2, 2, 2))),
        ],
        ids=[
            "weights", "filtered_kernel", "projector_diag", "project",
            "expansion", "from_array",
        ],
    )
    def test_dimension_three_rejected(self, call):
        with pytest.raises(DimensionMismatchError, match="unsupported dimension 3"):
            call()


class TestProjection:
    def test_projects_basis_function(self):
        target = HermiteExpansion(1, 3, {(3,): 1.0})
        res = project_function(
            lambda x: hc.hermite_values(3, x)[3], 8, 64, dim=1
        )
        arr = res.expansion.coeff_array()
        assert arr[3] == pytest.approx(1.0, rel=1e-12)
        arr[3] = 0.0
        assert np.max(np.abs(arr)) < 1e-10
        assert res.expansion.dim == target.dim

    def test_projects_zero(self):
        res = project_function(lambda x: np.zeros_like(x), 4, 64, dim=1)
        assert res.expansion.coeffs == {}
        assert res.tail == 0.0

    def test_projects_gaussian(self):
        res = project_function(
            lambda x: PI14 * np.exp(-(x**2) / 2.0), 6, 64, dim=1
        )
        arr = res.expansion.coeff_array()
        assert arr[0] == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(arr[1:])) < 1e-10

    def test_margin_enforced(self):
        with pytest.raises(InsufficientQuadratureError):
            project_function(lambda x: np.zeros_like(x), 10, 35, dim=1)

    def test_projects_2d_tensor(self):
        def f(pts):
            return hc.hermite_values(2, pts[:, 0])[1] * hc.hermite_values(
                2, pts[:, 1]
            )[2]

        res = project_function(f, 5, 32, dim=2)
        arr = res.expansion.coeff_array()
        assert arr[1, 2] == pytest.approx(1.0, rel=1e-12)
        arr[1, 2] = 0.0
        assert np.max(np.abs(arr)) < 1e-10

    def test_streaming_moments_match_dense(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-4, 4, 300)
        w = rng.standard_normal(300)
        dense = hc.hermite_values(40, pts) @ w
        stream = hc.weighted_hermite_moments(40, pts, w)
        assert np.max(np.abs(dense - stream)) < 1e-12

    @pytest.mark.parametrize("degree, n", [(40, 96), (6144, 12304)])
    def test_moment_columns_match_single_passes(self, degree, n):
        # weights of shape (npts, s): one column of moments per weight column,
        # as the shift study's bumps on the nodes of [-1, 9] take them
        nodes, lam = quad.windowed_rule(n, [(-1.0, 9.0)])
        centres = [0.0, 2.0, 4.0, 8.0]
        w = lam[:, None] * np.stack([smooth_bump(1.0, c)(nodes) for c in centres], -1)
        w[:, 0] += np.random.default_rng(7).standard_normal(nodes.size)
        both = hc.weighted_hermite_moments(degree, nodes, w)
        assert both.shape == (degree + 1, len(centres))
        for k in range(len(centres)):
            one = hc.weighted_hermite_moments(degree, nodes, w[:, k])
            assert np.max(np.abs(both[:, k] - one)) <= 1e-15 * np.max(np.abs(one))

    def test_d1_function_receives_points_of_shape_npts_by_1(self):
        # the projected function gets (npts, d) points at every d
        shapes = []

        def f(x):
            shapes.append(x.shape)
            return np.zeros(len(x))

        project_function(f, 4, 32, dim=1)
        assert shapes == [(32, 1)]

    @pytest.mark.parametrize("degree", [40, 1024])
    def test_one_axis_stream_matches_the_matrix_contraction(self, degree):
        # product_moments streams one axis through weighted_hermite_moments;
        # the weighted Hermite matrix contraction is the same sum
        rng = np.random.default_rng(degree)
        nodes, lam = quad.windowed_rule(2 * degree + 16, [(-3.0, 5.0)])
        values = rng.standard_normal((nodes.size, 3))
        stream = hc.product_moments(values, degree, [(nodes, lam)])
        matrix = hc.contract_axes(values, [hc.hermite_values(degree, nodes, lam).T])
        assert stream.shape == (3, degree + 1)
        assert np.max(np.abs(stream - matrix)) <= 1e-15 * np.max(np.abs(matrix))

    def test_moment_weights_must_match_the_points(self):
        pts = np.linspace(-1.0, 1.0, 5)
        for shape in [(4,), (4, 2), (5, 2, 1)]:
            with pytest.raises(DimensionMismatchError):
                hc.weighted_hermite_moments(3, pts, np.ones(shape))


def mp_hermite(n, t):
    """h_n(t) from mpmath's Hermite polynomial, at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        t = mpmath.mpf(t)
        norm = mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
        return mpmath.hermite(n, t) * mpmath.exp(-t * t / 2) / norm


def relative_error(got, want):
    return float(abs(got - want) / abs(want))


# The ledger finishes as p*exp(logscale), so h_n underflows where
# exp(-t**2/2) does even though h_n itself is far above the double range's
# floor; near that point h_0 is subnormal and loses digits.
UNDERFLOW = pytest.mark.xfail(
    strict=True, reason="the ledger's final exp(logscale) underflows"
)


class TestHermiteValuesOracle:
    """h_n against mpmath on both sides of degree 300 and of t**2 = 1400."""

    @pytest.mark.parametrize("n", [0, 1, 2, 50, 299, 300, 301, 1023])
    def test_relative_error(self, n):
        pytest.importorskip("mpmath")
        turning = math.sqrt(2 * n + 1)
        ts = [0.0, 0.7, -5.3, 12.25, 20.0, 30.0, 37.4, -37.5, turning, -turning]
        got = hc.hermite_values(n, np.array(ts))[n]
        for t, value in zip(ts, got):
            want = mp_hermite(n, t)
            if abs(want) > 1e-280:
                assert relative_error(value, want) <= 1e-12, (n, t)

    @pytest.mark.parametrize(
        "n,t",
        [
            pytest.param(300, 39.0, marks=UNDERFLOW),
            pytest.param(299, 45.0, marks=UNDERFLOW),
            pytest.param(300, 38.5, marks=UNDERFLOW),
        ],
    )
    def test_underflow_beyond_contract(self, n, t):
        pytest.importorskip("mpmath")
        got = hc.hermite_values(n, np.array([t]))[n, 0]
        assert relative_error(got, mp_hermite(n, t)) <= 1e-12

    def test_kernel_diag_underflow(self):
        pytest.importorskip("mpmath")
        want = sum(mp_hermite(k, 38.0) ** 2 for k in range(301))
        got = hc.kernel_diag(300, np.array([38.0]))[0]
        assert relative_error(got, want) <= 1e-12


def mp_hermite_row(n, t):
    """h_0(t)..h_n(t) by the normalized recurrence in 40-digit mpmath."""
    import mpmath

    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        row = [mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-t * t / 2)]
        prev = mpmath.mpf(0)
        for k in range(n):
            nxt = t * mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * row[-1]
            nxt -= mpmath.sqrt(mpmath.mpf(k) / (k + 1)) * prev
            prev = row[-1]
            row.append(nxt)
        return row


class TestDecayRadius:
    """The grid norms' band window: where every |h_k|, k <= n, is below tau."""

    # a frozen sweep: degrees in [0, DEGREE_CAP], log_tau = power * log(2**-70)
    DEGREES = (0, 1, 2, 5, 13, 40, 121, 364, 1093, 3280, 9841, 20000)
    POWERS = (1.0, 2.0, 10.0 / 3.0, 20.0, 1000.0)

    def test_safe_and_tight_against_the_ledger(self):
        # the closed form is asymptotic, so the recurrence is its oracle: at
        # the root log|h_n| is at most log_tau, and a quarter inside it (where
        # that is still beyond the turning point) above log_tau
        log_taus = -70.0 * math.log(2.0) * np.array(self.POWERS)
        for n in self.DEGREES:
            radii = np.array([hc.decay_radius(n, log_tau) for log_tau in log_taus])
            _, p, logscale = hc._scaled_state(n, np.concatenate([radii, radii - 0.25]))
            at, inside = np.split(np.log(np.abs(p)) + logscale, 2)
            assert np.all(at <= log_taus), (n, radii)
            beyond = radii - 0.25 > math.sqrt(2 * n + 1)
            assert np.all((inside > log_taus)[beyond]), (n, radii)

    def test_runs_no_recurrence(self, monkeypatch):
        def no_recurrence(*args):
            raise AssertionError("decay_radius ran the recurrence")

        monkeypatch.setattr(hc, "_ledger_steps", no_recurrence)
        radius = hc.decay_radius(hc.DEGREE_CAP, -70.0 * math.log(2.0))
        assert math.sqrt(2 * hc.DEGREE_CAP + 1) < radius < math.inf

    @pytest.mark.parametrize("n", [0, 1, 16, 64, 244, 1024])
    @pytest.mark.parametrize("bits", [70, 140])
    def test_edge_against_mpmath(self, n, bits):
        mpmath = pytest.importorskip("mpmath")
        log_tau = -bits * math.log(2.0)
        radius = hc.decay_radius(n, log_tau)
        # the ledger's log|h_n| at the edge, as the sweep reads it
        _, p, logscale = hc._scaled_state(n, np.array([radius]))
        got = math.log(abs(p[0])) + logscale[0]
        want = float(mpmath.log(abs(mp_hermite(n, radius))))
        assert abs(got - want) <= 1e-12 * abs(want)
        assert want <= log_tau
        # a quarter inside the edge is still above tau, or not beyond the turning point
        inside = radius - 0.25
        if inside > math.sqrt(2 * n + 1):
            assert float(mpmath.log(abs(mp_hermite(n, inside)))) > log_tau

    @pytest.mark.parametrize("n", [1, 2, 16, 64, 244])
    def test_dominance_beyond_turning_point(self, n):
        # |h_n| >= |h_k| for k <= n beyond sqrt(2n+1), and |h_n| falls there
        pytest.importorskip("mpmath")
        turning = math.sqrt(2 * n + 1)
        last = None
        for t in turning + np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]):
            row = [abs(h) for h in mp_hermite_row(n, t)]
            assert max(row[:-1]) <= row[-1], (n, t)
            assert last is None or row[-1] < last, (n, t)
            last = row[-1]


class TestMehlerOracle:
    """filtered_kernel with weights r^nu against Mehler's closed form."""

    @staticmethod
    def mehler(r, x, y):
        # sum_k r^k h_k(x) h_k(y), one axis
        s = 1.0 - r * r
        return np.exp(-((1 + r * r) * (x * x + y * y) - 4 * r * x * y) / (2 * s)) / np.sqrt(
            math.pi * s
        )

    @pytest.mark.parametrize("dim, npairs", [(1, 50), (2, 30)])
    @pytest.mark.parametrize("r, degree", [(0.5, 120), (0.9, 400)])
    def test_closed_form(self, dim, npairs, r, degree):
        rng = np.random.default_rng([dim, degree])
        x = rng.uniform(-4.0, 4.0, (npairs, dim))
        y = rng.uniform(-4.0, 4.0, (npairs, dim))
        got = hc.filtered_kernel(r ** np.arange(degree + 1.0), x, y, dim)
        want = np.prod(self.mehler(r, x, y), axis=1)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

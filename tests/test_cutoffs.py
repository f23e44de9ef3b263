import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermite_needlets import (
    CutoffPair,
    ParameterError,
    SmoothCutoff,
    build_frame,
    make_pair,
    make_quadratic_cutoff,
    make_type_a,
    make_type_b,
    partition_residual,
)
from hermite_needlets.cutoffs import ramp


class TestTypeA:
    def test_plateau(self):
        a = make_type_a(0.5)
        assert a(0.5) == 1.0
        assert a(1.0) == 1.0

    def test_support(self):
        a = make_type_a(0.5)
        assert a(1.6) == 0.0
        assert a(100.0) == 0.0

    def test_strictly_decreasing_transition(self):
        a = make_type_a(0.4)
        ts = np.linspace(1.0, 1.4, 100)
        vals = a(ts)
        assert 0.0 < a(1.2) < 1.0
        assert np.all(np.diff(vals) < 0.0)

    def test_range_check(self):
        with pytest.raises(ParameterError):
            make_type_a(0.0)
        with pytest.raises(ParameterError):
            make_type_a(1.5)

    @given(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_values_in_unit_interval(self, t):
        a = make_type_a(0.3)
        assert 0.0 <= a(t) <= 1.0


class TestQuadratic:
    def test_support(self):
        q = make_quadratic_cutoff()
        assert q(0.125) == 0.0
        assert q(4.0) == 0.0
        assert q(5.0) == 0.0

    def test_peak(self):
        q = make_quadratic_cutoff()
        assert q(1.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("t", [0.3, 0.5, 0.9])
    def test_quadratic_partition_points(self, t):
        q = make_quadratic_cutoff()
        assert q(t) ** 2 + q(4.0 * t) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_partition_dense(self):
        q = make_quadratic_cutoff()
        ts = np.linspace(0.25, 1.0, 2001)
        assert np.max(np.abs(q(ts) ** 2 + q(4 * ts) ** 2 - 1.0)) < 1e-12

    def test_nonnegative(self):
        q = make_quadratic_cutoff()
        assert np.all(q(np.linspace(0.0, 4.5, 1001)) >= 0.0)


class TestTypeB:
    def test_shape(self):
        b = make_type_b()
        assert b(0.2) == 0.0
        assert b(1.0) == 1.0
        assert b(2.9) == 1.0
        assert b(4.01) == 0.0


class TestDualPair:
    @pytest.mark.parametrize("t", [0.26, 0.5, 0.99])
    def test_partition_identity(self, t):
        pair = make_pair("dual")
        val = pair.a_hat(t) * pair.b_hat(t) + pair.a_hat(4 * t) * pair.b_hat(4 * t)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_support_containment(self):
        pair = make_pair("dual")
        assert pair.b_hat(5.0) == 0.0
        assert pair.b_hat(0.2) == 0.0

    def test_lower_bound_on_core(self):
        for kind in ("quadratic", "dual"):
            pair = make_pair(kind)
            band = np.linspace(1.0 / 3.0, 3.0, 3001)
            assert np.min(np.abs(pair.a_hat(band))) > 0.05
            assert np.min(np.abs(pair.b_hat(band))) > 0.05


@pytest.mark.parametrize("kind", [["dual"], {"dual": 1}])
def test_unhashable_kind_raises_parameter_error(kind):
    with pytest.raises(ParameterError):
        make_pair(kind)
    with pytest.raises(ParameterError):
        build_frame(1, j_max=1, cutoff=kind)


class TestPartitionResidual:
    @pytest.mark.parametrize("kind,j", [("quadratic", 3), ("quadratic", 5), ("dual", 3)])
    def test_shipped_pairs(self, kind, j):
        assert partition_residual(make_pair(kind), j) < 1e-11

    def test_zero_b_hat(self):
        zero = SmoothCutoff(np.zeros_like)
        pair = CutoffPair(a_hat=make_quadratic_cutoff(), b_hat=zero)
        assert partition_residual(pair, 2) == pytest.approx(1.0)

    def test_requires_positive_levels(self):
        with pytest.raises(ParameterError):
            partition_residual(make_pair(), 0)


class TestSmoothness:
    def test_ramp_endpoints(self):
        assert ramp(-1.0) == 0.0 and ramp(0.0) == 0.0
        assert ramp(1.0) == 1.0 and ramp(2.0) == 1.0

    @given(st.floats(min_value=-1.0, max_value=2.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_ramp_monotone(self, x):
        assert ramp(x) <= ramp(x + 1e-3) + 1e-15

    def test_divided_differences_saturate(self):
        # C-infinity proxy: once the step resolves the narrowest derivative
        # spike, the scaled k-th differences stop growing under refinement
        cuts = [make_quadratic_cutoff(), make_type_b(), make_type_a(0.5)]
        for cut in cuts:
            for k in range(1, 7):
                maxima = []
                for h in (1e-3, 5e-4, 2.5e-4):
                    t0 = np.arange(0.005, 4.2, h)
                    d = np.diff(cut(t0), n=k) / h**k / math.factorial(k)
                    maxima.append(float(np.max(np.abs(d))))
                assert maxima[-1] / maxima[-2] < 1.6  # frozen

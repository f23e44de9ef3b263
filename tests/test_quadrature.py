import math

import numpy as np
import pytest

from hermite_needlets import (
    DimensionMismatchError,
    InvalidDegreeError,
    NumericFailureError,
    ResourceError,
    build_level,
    gauss_hermite_rule,
    hermite_zeros,
    product_cubature,
)
from hermite_needlets import hermite_core as hc
from hermite_needlets import quadrature as quad

from conftest import stored_sizes

SQRT_PI = math.sqrt(math.pi)


def gaussian_moment(k: int) -> float:
    """Oracle: integral of t^k e^{-t^2} over the line."""
    if k % 2 == 1:
        return 0.0
    return math.gamma((k + 1) / 2.0)


class TestZeros:
    def test_closed_forms(self):
        assert hermite_zeros(1).tolist() == [0.0]
        np.testing.assert_allclose(
            hermite_zeros(2), [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], atol=1e-15
        )
        np.testing.assert_allclose(
            hermite_zeros(3), [-math.sqrt(1.5), 0.0, math.sqrt(1.5)], atol=1e-15
        )

    def test_symmetry_exact(self):
        for n in (10, 33, 128):
            z = hermite_zeros(n)
            np.testing.assert_array_equal(z, -z[::-1])

    def test_szego_bracket(self):
        for n in (16, 64, 512):
            z = hermite_zeros(n)
            pos = z[z > 0]
            nu = np.arange(1, pos.size + 1)
            lo = math.pi * (nu - 0.5) / math.sqrt(2 * n + 1)
            hi = (4 * nu + 3) / math.sqrt(2 * n + 1)
            assert np.all(pos > lo) and np.all(pos < hi)

    def test_they_are_zeros(self):
        for n in (7, 50, 301):
            z = hermite_zeros(n)
            vals = hc.hermite_values(n, z)[n]
            # scale against neighboring extremum size
            assert np.max(np.abs(vals)) < 1e-12

    def test_largest_zero_bound(self):
        for n in (16, 256, 1024):
            z = hermite_zeros(n)
            assert z[-1] <= math.sqrt(2.0 * n + 1.0) - n ** (-1.0 / 6.0)

    def test_interlacing(self):
        for n in (1, 2, 17, 255):
            a, b = hermite_zeros(n), hermite_zeros(n + 1)
            assert np.all(a > b[:-1]) and np.all(a < b[1:])

    def test_invalid_order(self):
        with pytest.raises(InvalidDegreeError):
            hermite_zeros(0)

    def test_newton_failure_reported(self, monkeypatch):
        monkeypatch.setattr(quad, "_NEWTON_MAX_ITER", 0)
        quad._zeros_cached.cache_clear()
        try:
            with pytest.raises(NumericFailureError):
                quad._zeros_cached(12)
        finally:
            quad._zeros_cached.cache_clear()

    @pytest.mark.parametrize("fault", ["duplicate", "negative"])
    def test_lost_zero_reported(self, monkeypatch, fault):
        # guesses that Newton sends to one zero twice, or to a negative zero,
        # must not yield a rule
        guesses = quad._asymptotic_positive_zeros(12).copy()
        if fault == "duplicate":
            guesses[-1] = guesses[-2]
        else:
            guesses[0] = -guesses[0]
        monkeypatch.setattr(quad, "_asymptotic_positive_zeros", lambda n: guesses)
        quad._zeros_cached.cache_clear()
        try:
            with pytest.raises(NumericFailureError):
                quad._zeros_cached(12)
        finally:
            quad._zeros_cached.cache_clear()

    def test_asymptotic_guesses_need_two_sweeps(self, monkeypatch):
        # two Newton sweeps over n/2 points are the cost of a large rule;
        # coarser edge guesses (no exact Airy zeros) would need a third
        monkeypatch.setattr(quad, "_NEWTON_MAX_ITER", 2)
        quad._zeros_cached.cache_clear()
        try:
            for n in (150, 151, 777, 4238):
                hermite_zeros(n)
        finally:
            quad._zeros_cached.cache_clear()

    def test_ordered_symmetric_centred_every_order(self):
        # low orders, where the asymptotic guesses are coarsest, included
        for n in range(1, 401):
            z = hermite_zeros(n)
            assert z.size == n
            assert np.all(np.diff(z) > 0), n
            np.testing.assert_array_equal(z, -z[::-1])
            if n % 2 == 1:
                assert z[n // 2] == 0.0


def _mp_recurrence(n, xs):
    """h_{n-1}, h_n and K_n = sum_{k<=n} h_k^2 at each of ``xs``, in mpmath."""
    import mpmath

    mp = mpmath.mp
    prev = [mp.zero] * len(xs)
    cur = [mp.pi ** -0.25 * mp.exp(-x * x / 2) for x in xs]
    acc = [c * c for c in cur]
    for k in range(n):
        a, b = mp.sqrt(mp.mpf(2) / (k + 1)), mp.sqrt(mp.mpf(k) / (k + 1))
        prev, cur = cur, [x * a * c - b * p for x, c, p in zip(xs, cur, prev)]
        acc = [s + c * c for s, c in zip(acc, cur)]
    return prev, cur, acc


class TestRuleOracle:
    """Nodes and weights against 30-digit mpmath values."""

    @pytest.mark.parametrize("n", [149, 150, 151, 1062, 4238])
    def test_nodes_and_weights(self, n):
        mpmath = pytest.importorskip("mpmath")
        r = gauss_hermite_rule(n)
        first, last = (n + 1) // 2, n - 1
        idx = [first, (first + last) // 2, last]
        with mpmath.workdps(30):
            roots = [mpmath.mpf(float(r.nodes[i])) for i in idx]
            # two Newton steps, h_n' = sqrt(2n) h_{n-1} - x h_n, from double
            # precision reach ~1e-30
            for sweep in range(2):
                prev, cur, acc = _mp_recurrence(n, roots)
                if sweep == 0:
                    kernel = acc  # K_n at the computed nodes themselves
                roots = [
                    x - c / (mpmath.sqrt(2 * n) * p - x * c)
                    for x, c, p in zip(roots, cur, prev)
                ]
            for i, root, k in zip(idx, roots, kernel):
                x = r.nodes[i]
                assert abs(float(root) - x) <= 1e-14 * (1.0 + abs(x)), (n, i)
                lam = mpmath.mpf(float(r.christoffel_weights[i]))
                assert abs(lam * k - 1) <= 1e-10, (n, i)

    def test_airy_zeros(self):
        mpmath = pytest.importorskip("mpmath")
        got = quad._airy_zeros(12)
        want = [float(mpmath.airyaizero(k)) for k in range(1, 13)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestRule:
    def test_one_point(self):
        r = gauss_hermite_rule(1)
        assert r.nodes.tolist() == [0.0]
        assert r.gauss_weights[0] == pytest.approx(SQRT_PI, rel=1e-15)

    def test_two_point_closed_form(self):
        r = gauss_hermite_rule(2)
        np.testing.assert_allclose(r.gauss_weights, [SQRT_PI / 2] * 2, rtol=1e-14)
        want = (SQRT_PI / 2.0) * math.exp(0.5)
        np.testing.assert_allclose(r.christoffel_weights, [want] * 2, rtol=1e-13)

    def test_moment_by_two_point_rule(self):
        r = gauss_hermite_rule(2)
        got = float(np.dot(r.gauss_weights, r.nodes**2))
        assert got == pytest.approx(SQRT_PI / 2.0, rel=1e-14)

    def test_polynomial_exactness(self):
        rng = np.random.default_rng(17)
        for n in (4, 20, 51):
            r = gauss_hermite_rule(n)
            for _ in range(10):
                deg = int(rng.integers(0, 2 * n))
                c = rng.standard_normal(deg + 1)
                approx = float(np.dot(r.gauss_weights, np.polyval(c, r.nodes)))
                exact = sum(
                    c[deg - k] * gaussian_moment(k) for k in range(deg + 1)
                )
                assert approx == pytest.approx(exact, rel=1e-10, abs=1e-12)

    def test_weight_identities(self):
        for n in (3, 40, 500):
            r = gauss_hermite_rule(n)
            assert r.gauss_weights.sum() == pytest.approx(SQRT_PI, rel=1e-12)
            np.testing.assert_allclose(
                r.gauss_weights,
                r.christoffel_weights * np.exp(-r.nodes**2),
                rtol=1e-12,
            )
            # Christoffel weights are O(n^-1/2); edge gauss weights underflow
            # the double range beyond n ~ 330 (their true size ~ e^{-2n})
            assert np.all(r.christoffel_weights > 0)
            if n <= 300:
                assert np.all(r.gauss_weights > 0)
            else:
                assert np.all(r.gauss_weights >= 0)

    def test_matches_reference_implementation(self):
        # numpy's hermgauss is an independent construction of the same rule
        from numpy.polynomial.hermite import hermgauss

        for n in (5, 16, 64, 250):
            r = gauss_hermite_rule(n)
            nodes, weights = hermgauss(n)
            np.testing.assert_allclose(r.nodes, nodes, atol=1e-14)
            np.testing.assert_allclose(r.gauss_weights, weights, rtol=1e-12)

    def test_bulk_spacing_frozen(self):
        stats = []
        for n in (64, 256, 1024):
            z = hermite_zeros(n)
            centers = np.arange(1, n - 1)
            signed = centers - (n - 1) / 2.0
            gaps = (z[2:] - z[:-2])[np.abs(signed) <= 0.4 * n] * math.sqrt(n)
            stats.append((gaps.min(), gaps.max()))
        lo = min(s[0] for s in stats)
        hi = max(s[1] for s in stats)
        assert 4.0 < lo and hi < 6.6  # frozen

    def test_edge_spacing_frozen(self):
        for n in (64, 256, 1024):
            z = hermite_zeros(n)
            gaps = np.diff(z)
            edge = gaps[int(0.9 * n) :]
            assert np.all(edge * math.sqrt(n) > 2.0)  # frozen c1
            assert np.all(edge * n ** (1.0 / 6.0) < 1.5)  # frozen c2

    def test_gap_comparability(self):
        for n in (64, 512):
            z = hermite_zeros(n)
            wide = z[2:] - z[:-2]
            ratio = wide[1:] / wide[:-1]
            assert 0.7 < ratio.min() and ratio.max() < 1.43  # frozen


class TestCubature:
    def test_d2_four_nodes(self):
        rule = product_cubature(2, 2)
        assert rule.nodes.shape == (4, 2)
        want = ((SQRT_PI / 2.0) * math.exp(0.5)) ** 2
        np.testing.assert_allclose(rule.weights, [want] * 4, rtol=1e-13)

    @pytest.mark.parametrize("d", [1, 2])
    def test_normalization(self, d):
        rule = product_cubature(2, d)
        h0 = hc.hermite_values(0, rule.nodes[:, 0])[0]
        vals = h0.copy()
        if d == 2:
            vals = vals * hc.hermite_values(0, rule.nodes[:, 1])[0]
        assert float(np.dot(rule.weights, vals**2)) == pytest.approx(1.0, rel=1e-13)

    def test_orthonormality_all_pairs(self):
        rule = product_cubature(8, 1)
        hmat = hc.hermite_values(5, rule.base.nodes)
        gram = (hmat * rule.weights) @ hmat.T
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-12)

    def test_node_budget(self):
        with pytest.raises(ResourceError):
            product_cubature(4000, 2, node_budget=10**6)

    def test_bad_dimension(self):
        with pytest.raises(DimensionMismatchError, match="unsupported dimension 3"):
            product_cubature(4, 3)


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestProductLayout:
    """One row-major layout: rows of the product rule from its 1-d rule."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_rows_match_meshgrid_construction(self, n, d):
        rule = product_cubature(n, d)
        base = rule.base
        if d == 1:
            nodes = base.nodes.reshape(-1, 1)
            weights = base.christoffel_weights.copy()
        else:
            nodes = np.stack(
                np.meshgrid(base.nodes, base.nodes, indexing="ij"), axis=-1
            ).reshape(-1, 2)
            weights = np.multiply.outer(
                base.christoffel_weights, base.christoffel_weights
            ).ravel()
        rows = np.arange(n**d)
        assert rule.node_count == n**d
        assert bitwise_equal(rule.nodes, nodes)
        assert bitwise_equal(rule.weights, weights)
        assert bitwise_equal(rule.nodes_at(rows), nodes)
        assert bitwise_equal(rule.weights_at(rows), weights)
        for r in rows:
            assert bitwise_equal(rule.nodes_at(r), nodes[r])
            assert bitwise_equal(rule.weights_at(r), weights[r])

    @pytest.mark.parametrize("d", [1, 2])
    def test_tile_measures_are_the_outer_product(self, d):
        level = build_level(2, d)
        lengths = level.tile_lengths_1d()
        want = lengths.copy() if d == 1 else np.multiply.outer(lengths, lengths).ravel()
        assert bitwise_equal(level.tile_measures(), want)

    def test_d2_stores_only_the_1d_rule(self):
        rule = product_cubature(40, 2)
        sizes = dict(stored_sizes(rule))
        assert max(sizes.values()) <= rule.base.n + 1, sizes


def _edge_count(n: int) -> int:
    """How many of the largest positive zeros take Gatteschi's guesses."""
    return min(n // 2, math.ceil(0.5 * n**0.46))


class TestWindowedRule:
    """The rule's nodes and weights in a union of intervals, polished there only."""

    @staticmethod
    def windows(n):
        z = gauss_hermite_rule(n).nodes
        edge = z[-_edge_count(n) - 2]  # two zeros below the Gatteschi zone
        gap = 0.5 * (z[n // 2] + z[n // 2 + 1])  # between two adjacent zeros
        return {
            "straddling 0": [(-1.3, 0.7)],
            "one-sided": [(0.5, 2.5)],
            "negative": [(-4.0, -1.0)],
            "edge": [(edge, z[-1] + 1.0)],
            "negative edge": [(-z[-1] - 1.0, -edge)],
            "empty": [(gap - 1e-9, gap + 1e-9)],
            "union": [(-3.3, -2.9), (-1.0, 1.0), (0.5, 2.0), (edge, math.inf)],
        }

    @pytest.mark.parametrize("n", [24, 41, 504, 6286, 11992, 12304])
    def test_matches_the_full_rule(self, n):
        rule = gauss_hermite_rule(n)
        cases = self.windows(n)
        if n > 6000:  # each call costs O(n) steps: one for all nonempty windows
            union = [iv for name, ivs in cases.items() if name != "empty" for iv in ivs]
            cases = {"all": union, "empty": cases["empty"]}
        for name, intervals in cases.items():
            nodes, weights = quad.windowed_rule(n, intervals)
            inside = np.zeros(n, dtype=bool)
            for lo, hi in intervals:
                inside |= (lo <= rule.nodes) & (rule.nodes <= hi)
            assert nodes.size == np.count_nonzero(inside), name
            if name == "empty":
                assert nodes.size == 0
            want = rule.nodes[inside]
            assert np.all(np.abs(nodes - want) <= 1e-14 * np.abs(want)), name
            want = rule.christoffel_weights[inside]
            assert np.all(np.abs(weights - want) <= 1e-13 * want), name

    def test_whole_line_is_the_rule(self):
        rule = gauss_hermite_rule(101)
        nodes, weights = quad.windowed_rule(101, [(-math.inf, math.inf)])
        assert bitwise_equal(nodes, rule.nodes)
        assert bitwise_equal(weights, rule.christoffel_weights)

    def test_polishes_the_window_only(self, monkeypatch):
        sizes = []
        polish = quad._newton_polish

        def recording(n, t):
            sizes.append(t.size)
            return polish(n, t)

        monkeypatch.setattr(quad, "_newton_polish", recording)
        nodes, _ = quad.windowed_rule(12304, [(-1.0, 1.0), (7.0, 9.0)])
        # a zero of margin at each end of each run: above 1 (none below 0)
        # and at both ends of [7, 9]
        assert sizes == [np.count_nonzero(nodes > 0) + 3]

    def test_lost_zero_reported(self, monkeypatch):
        guesses = quad._asymptotic_positive_zeros(40).copy()
        guesses[3] = guesses[2]
        monkeypatch.setattr(quad, "_asymptotic_positive_zeros", lambda n: guesses)
        with pytest.raises(NumericFailureError):
            quad.windowed_rule(40, [(0.5, 2.0)])

    def test_invalid_order(self):
        with pytest.raises(InvalidDegreeError):
            quad.windowed_rule(0, [(-1.0, 1.0)])


@pytest.mark.parametrize(
    "n",
    # the frame orders of levels 0-5 and rule orders across [1000, 20000]
    [10, 22, 72, 270, 1064, 4238, 1469, 6284, 13264],
)
def test_full_rules_bitwise_equal_to_the_whole_line_construction(n):
    # Newton on every guess, then 1/K_n on the nonnegative half, mirrored:
    # the construction the windowed builder generalises
    positive = quad._newton_polish(n, quad._asymptotic_positive_zeros(n))
    nodes = np.concatenate((-positive[::-1], [0.0] * (n % 2), positive))
    half = 1.0 / hc.kernel_diag(n, nodes[n // 2 :])
    weights = np.concatenate((half[::-1][: n // 2], half))
    rule = gauss_hermite_rule(n)
    assert bitwise_equal(rule.nodes, nodes)
    assert bitwise_equal(rule.christoffel_weights, weights)
    assert bitwise_equal(rule.gauss_weights, weights * np.exp(-nodes * nodes))

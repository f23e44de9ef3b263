"""Desk-scale property suite behind the ``verify`` CLI command.

Each check re-derives one of the library's structural properties and
reports a measured quantity next to its frozen tolerance.  Constants
marked "frozen" were measured once on the shipped construction and are
asserted for stability, not for agreement with any theoretical value.
This is the one place each of the paper's claims is computed: the
acceptance criteria and the norm-ratio tests assert on these results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import cutoffs, function_spaces as fs, hermite_core as hc
from . import needlet_frame as nf
from . import quadrature as quad


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _check(suite: str, name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(suite=suite, name=name, passed=bool(passed), detail=detail)


def random_expansion_1d(degree: int, rng) -> hc.HermiteExpansion:
    """Standard normal coefficients for degrees 0..degree."""
    c = rng.standard_normal(degree + 1)
    return hc.HermiteExpansion(1, degree, {(k,): c[k] for k in range(degree + 1)})


def random_expansion_2d(degree: int, rng) -> hc.HermiteExpansion:
    """Standard normal coefficients for every total degree up to degree."""
    idx = [(a1, a2) for a1 in range(degree + 1) for a2 in range(degree + 1 - a1)]
    return hc.HermiteExpansion(2, degree, {a: rng.standard_normal() for a in idx})


TEST_SET_DEGREES = (1, 3, 7, 12, 16, 24, 32, 48, 57, 64)


def norm_test_set() -> list[hc.HermiteExpansion]:
    """The fixed ten-function band-limited test set (degrees up to 64)."""
    rng = np.random.default_rng(20260809)
    return [random_expansion_1d(d, rng) for d in TEST_SET_DEGREES]


def _test_functions():
    rng = np.random.default_rng(4057)
    return [random_expansion_1d(16 - 3 * i, rng) for i in range(5)]


def _coeff_error(f: hc.HermiteExpansion, g: hc.HermiteExpansion) -> float:
    """Largest |coefficient| of g - f, each zero above its degree."""
    n = max(f.degree, g.degree) + 1
    dense = [np.pad(h.array, [(0, n - 1 - h.degree)] * h.dim) for h in (f, g)]
    return float(np.max(np.abs(dense[1] - dense[0])))


# ---------------------------------------------------------------- quadrature


def interlacing(n_max: int) -> CheckResult:
    """The zeros of h_n and h_{n+1} strictly interlace for every n <= n_max."""
    ok = True
    for n in range(1, n_max + 1):
        a, b = quad.hermite_zeros(n), quad.hermite_zeros(n + 1)
        if not np.all((a > b[:-1]) & (a < b[1:])):
            ok = False
            break
    return _check("quadrature", f"interlacing-n<={n_max}", ok, "strict interlacing")


def suite_quadrature() -> list[CheckResult]:
    res = []
    rng = np.random.default_rng(1905)
    rule = quad.gauss_hermite_rule(20)
    worst = 0.0
    for _ in range(50):
        deg = rng.integers(0, 40)
        c = rng.standard_normal(deg + 1)
        approx = float(np.dot(rule.gauss_weights, np.polyval(c, rule.nodes)))
        exact = sum(
            c[deg - k] * math.gamma((k + 1) / 2.0)
            for k in range(0, deg + 1, 2)
        )
        worst = max(worst, abs(approx - exact) / max(1.0, abs(exact)))
    res.append(
        _check("quadrature", "gauss-exactness-n20", worst < 1e-10, f"max rel err {worst:.2e}")
    )

    z2 = quad.hermite_zeros(2)
    z3 = quad.hermite_zeros(3)
    ok = (
        abs(z2[1] - 1.0 / math.sqrt(2.0)) < 1e-14
        and abs(z3[2] - math.sqrt(1.5)) < 1e-14
        and z3[1] == 0.0
    )
    res.append(_check("quadrature", "zeros-closed-form", ok, "n=2, n=3 zeros"))

    worst = 0.0
    for n in (5, 20, 64, 256):
        r = quad.gauss_hermite_rule(n)
        worst = max(
            worst, abs(r.gauss_weights.sum() - math.sqrt(math.pi)) / math.sqrt(math.pi)
        )
        rel = np.max(
            np.abs(
                r.gauss_weights
                - r.christoffel_weights * np.exp(-r.nodes**2)
            )
        )
        worst = max(worst, rel)
    res.append(
        _check("quadrature", "weights-identities", worst < 1e-12, f"max dev {worst:.2e}")
    )

    res.append(interlacing(64))

    stats = []
    for n in (64, 256, 1024):
        z = quad.hermite_zeros(n)
        centers = np.arange(1, n - 1)
        signed = centers - (n - 1) / 2.0
        gaps = (z[2:] - z[:-2])[np.abs(signed) <= 0.4 * n] * math.sqrt(n)
        stats.append((gaps.min(), gaps.max()))
    lo = min(s[0] for s in stats)
    hi = max(s[1] for s in stats)
    res.append(
        _check(
            "quadrature",
            "bulk-spacing",
            4.0 < lo and hi < 6.6,  # frozen
            f"sqrt(n)-scaled gaps in [{lo:.3f}, {hi:.3f}], frozen (4.0, 6.6)",
        )
    )

    ok = True
    for n in (64, 256):
        z = quad.hermite_zeros(n)
        if z[-1] > math.sqrt(2.0 * n + 1.0) - n ** (-1.0 / 6.0):
            ok = False
    res.append(_check("quadrature", "largest-zero-bound", ok, "below sqrt(2n+1) - n^(-1/6)"))
    return res


# ------------------------------------------------------------------ cutoffs


def suite_cutoffs() -> list[CheckResult]:
    res = []
    a = cutoffs.make_type_a(0.5)
    t = np.linspace(0.0, 3.0, 1201)
    vals = a(t)
    ok = (
        np.all(vals[t <= 1.0] == 1.0)
        and np.all(vals[t >= 1.5] == 0.0)
        and np.all(np.diff(vals[(t >= 1.0) & (t <= 1.5)]) <= 1e-15)
    )
    res.append(_check("cutoffs", "type-a-shape", ok, "plateau, support, monotone"))

    q = cutoffs.make_quadratic_cutoff()
    tt = np.linspace(0.25, 1.0, 1001)
    resid = float(np.max(np.abs(q(tt) ** 2 + q(4 * tt) ** 2 - 1.0)))
    res.append(
        _check("cutoffs", "quadratic-partition", resid < 1e-12, f"residual {resid:.2e}")
    )

    for kind in ("quadratic", "dual"):
        pair = cutoffs.make_pair(kind)
        r = cutoffs.partition_residual(pair, 3)
        res.append(
            _check("cutoffs", f"telescoping-{kind}", r < 1e-11, f"residual {r:.2e}")
        )
        band = np.linspace(1.0 / 3.0, 3.0, 2001)
        low = min(
            float(np.min(np.abs(pair.a_hat(band)))),
            float(np.min(np.abs(pair.b_hat(band)))),
        )
        res.append(
            _check(
                "cutoffs",
                f"lower-bound-{kind}",
                low > 0.05,
                f"min on [1/3,3] = {low:.4f}",
            )
        )

    # smoothness proxy: scaled k-th differences saturate under refinement once
    # the steps resolve the narrowest derivative spike (the two finest steps
    # are in that regime for every shipped cutoff)
    worst = 0.0
    for cut in (q, cutoffs.make_type_b(), cutoffs.make_type_a(0.5)):
        for k in range(1, 7):
            maxima = []
            for h in (1e-3, 5e-4, 2.5e-4):
                t0 = np.arange(0.005, 4.2, h)
                diffs = np.diff(cut(t0), n=k) / h**k / math.factorial(k)
                maxima.append(float(np.max(np.abs(diffs))))
            worst = max(worst, maxima[-1] / maxima[-2])
    res.append(
        _check(
            "cutoffs",
            "smoothness-proxy",
            worst < 1.6,  # frozen: C-infinity gives ratios tending to 1
            f"max growth per halving {worst:.3f}, frozen 1.6",
        )
    )
    return res


# ------------------------------------------------------------------ kernels


def suite_kernels() -> list[CheckResult]:
    res = []
    rule = quad.gauss_hermite_rule(128)
    hmat = hc.hermite_values(60, rule.nodes)
    gram = (hmat * rule.christoffel_weights) @ hmat.T
    dev = float(np.max(np.abs(gram - np.eye(61))))
    res.append(
        _check("kernels", "orthonormality-n<=60", dev < 1e-9, f"max |gram - I| {dev:.2e}")
    )

    ts = np.linspace(-5.0, 5.0, 41)
    worst = 0.0
    for n in (1, 4, 16, 33):
        vals = hc.hermite_values(n + 1, ts)
        resid = np.abs(
            ts * vals[n]
            - math.sqrt((n + 1) / 2.0) * vals[n + 1]
            - math.sqrt(n / 2.0) * vals[n - 1]
        )
        worst = max(worst, float(np.max(resid / np.maximum(1.0, np.abs(vals[n])))))
    res.append(
        _check("kernels", "three-term-recurrence", worst < 1e-10, f"residual {worst:.2e}")
    )

    worst = 0.0
    step = 1e-4
    for n in (2, 8, 32):
        for t in np.linspace(-4.5, 4.5, 19):
            second = (
                hc.hermite_function(n, t + step)
                - 2.0 * hc.hermite_function(n, t)
                + hc.hermite_function(n, t - step)
            ) / step**2
            worst = max(
                worst,
                abs(second - (t * t - (2 * n + 1)) * hc.hermite_function(n, t)),
            )
    res.append(
        _check("kernels", "hermite-ode", worst < 1e-4, f"max residual {worst:.2e}")
    )

    hi = 0.0
    for n in (16, 64, 256):
        xs = np.linspace(0.0, 0.9 * math.sqrt(2.0 * n), 40)
        hi = max(hi, float(np.max(hc.kernel_diag(n, xs) / math.sqrt(n))))
    res.append(
        _check("kernels", "diagonal-upper-bound", hi < 0.65, f"max K_n/sqrt(n) {hi:.4f}, frozen 0.65")
    )

    tail = 0.0
    for n in (16, 64, 256):
        edge = 1.2 * math.sqrt(4.0 * n + 2.0)
        xs = np.linspace(edge, 1.4 * edge, 12)
        tail = max(tail, float(np.max(hc.kernel_diag(n, xs))))
    res.append(
        _check("kernels", "sub-gaussian-tail", tail < 1e-8, f"max tail {tail:.2e}")
    )

    ratios = []
    for n in (16, 64, 256):
        xs = np.linspace(0.0, 0.9 * math.sqrt(2.0 * n), 80)
        lam = 1.0 / hc.kernel_diag(n, xs)
        model = n**-0.5 * np.maximum(
            n ** (-2.0 / 3.0), 1.0 - np.abs(xs) / math.sqrt(2.0 * n)
        ) ** (-0.5)
        r = lam / model
        ratios.extend([float(r.min()), float(r.max())])
    lo, hi = min(ratios), max(ratios)
    res.append(
        _check(
            "kernels",
            "christoffel-asymptotic",
            1.0 / 3.0 < lo and hi < 3.0,  # frozen
            f"ratio in [{lo:.3f}, {hi:.3f}], frozen (1/3, 3)",
        )
    )

    worst = 0.0
    for n in (8, 64):
        for x, y in ((0.3, -1.2), (2.0, 2.5), (-4.0, 1.0)):
            direct = hc.filtered_kernel(np.ones(n + 1), np.array([x]), np.array([y]))[0]
            # Christoffel-Darboux form of the same kernel, valid for x != y
            h = hc.hermite_values(n + 1, np.array([x, y]))
            num = h[n + 1, 0] * h[n, 1] - h[n, 0] * h[n + 1, 1]
            cd = math.sqrt((n + 1) / 2.0) * num / (x - y)
            worst = max(worst, abs(direct - cd) / max(1e-30, abs(direct)))
    res.append(
        _check("kernels", "christoffel-darboux", worst < 1e-10, f"rel dev {worst:.2e}")
    )

    # top-half projector diagonals dominate the half-degree kernel, sampled on
    # the diagonal ray t/sqrt(d) on every axis; rows are (d, points, frozen c)
    floor = math.inf
    for d, count, scale in ((1, 40, 0.2), (2, 25, 0.12)):
        for n in (32, 128):
            t = np.linspace(0.0, 2.0 * math.sqrt(2.0 * n + 1.0), count)
            pts = np.stack([t / math.sqrt(d)] * d, axis=1)
            lhs = hc.projector_diag(n, pts, dim=d)[n // 2 :].sum(axis=0)
            rhs = n ** ((d - 1) / 2.0) * hc.kernel_diag(n // 2, t)
            live = rhs > 1e-200
            floor = min(floor, float(np.min(lhs[live] / rhs[live])) / scale)
    res.append(
        _check(
            "kernels",
            "kernel-range-lower-bound",
            floor > 1.0,
            f"min ratio / frozen floor = {floor:.3f}",
        )
    )
    return res


# -------------------------------------------------------------------- frame


def suite_frame() -> list[CheckResult]:
    res = []
    got = [nf.half_node_count(j, 0.025) for j in range(4)]
    res.append(
        _check("frame", "level-sizes", got == [5, 11, 36, 135], f"N_j = {got}")
    )

    frame = nf.build_frame(d=1, delta=0.025, j_max=4, cutoff="quadratic")
    frame2 = nf.build_frame(d=2, delta=0.025, j_max=3, cutoff="quadratic")
    lev = frame.levels[1]
    hmat = hc.hermite_values(10, lev.rule.nodes)
    gram = (hmat * lev.rule.christoffel_weights) @ hmat.T
    dev = float(np.max(np.abs(gram - np.eye(11))))
    # d = 2: level 0 is exact for total degree <= 4; the basis is raveled
    # row-major, matching the level's node order
    h = hc.hermite_values(4, frame2.levels[0].rule.nodes)
    basis = np.stack(
        [np.outer(h[a1], h[a2]).ravel() for a1 in range(5) for a2 in range(5 - a1)]
    )
    gram = (basis * frame2.levels[0].weights) @ basis.T
    dev2 = float(np.max(np.abs(gram - np.eye(len(basis)))))
    detail = f"d=1 level 1 dev {dev:.2e}, d=2 level 0 dev {dev2:.2e}"
    res.append(_check("frame", "cubature-exactness", dev < 1e-9 and dev2 < 1e-9, detail))

    worst = 0.0
    comp = []
    for level in frame.levels:
        q0, q1 = level.interval_bounds[[0, -1]]  # the cube the tiles cover, one axis
        worst = max(
            worst,
            abs(level.tile_measures().sum() - (q1 - q0) ** level.d)
            / (q1 - q0) ** level.d,
        )
        lim = (1.0 + 4.0 * frame.delta) * 2.0 ** (level.j + 1)
        inner = np.abs(level.nodes[:, 0]) <= lim
        ratio = level.weights[inner] / level.tile_measures()[inner]
        comp.extend([float(ratio.min()), float(ratio.max())])
    res.append(
        _check("frame", "tile-partition", worst < 1e-10, f"measure dev {worst:.2e}")
    )
    res.append(
        _check(
            "frame",
            "weight-tile-comparability",
            0.5 < min(comp) and max(comp) < 2.0,  # frozen
            f"weight/measure in [{min(comp):.3f}, {max(comp):.3f}], frozen (0.5, 2)",
        )
    )

    rng = np.random.default_rng(33)
    worst = 0.0
    pworst = 0.0
    for _ in range(20):
        f = random_expansion_1d(16, rng)
        s = nf.analyze(f, frame)
        worst = max(worst, _coeff_error(f, nf.synthesize(s, frame)))
        pworst = max(
            pworst, abs(s.sum_squares() - f.l2_norm() ** 2) / f.l2_norm() ** 2
        )
    rng = np.random.default_rng(44)
    f = random_expansion_1d(64, rng)
    worst = max(worst, _coeff_error(f, nf.synthesize(nf.analyze(f, frame), frame)))
    f = random_expansion_2d(16, rng)
    dev2 = _coeff_error(f, nf.synthesize(nf.analyze(f, frame2), frame2))
    detail = f"max coeff err d=1 V16 x20 and V64 {worst:.2e}, d=2 V16 {dev2:.2e}"
    res.append(_check("frame", "reconstruction", worst < 1e-10 and dev2 < 1e-10, detail))
    res.append(
        _check("frame", "tight-frame-parseval", pworst < 1e-9, f"rel dev {pworst:.2e}")
    )

    mono = hc.HermiteExpansion(1, 2, {(2,): 1.0})
    s = nf.analyze(mono, frame)
    res.append(
        _check(
            "frame",
            "level-selectivity",
            sorted(s.level_values) == [1, 2],
            f"levels {sorted(s.level_values)} for degree 2",
        )
    )

    rep = nf.localization_profile(frame, 3, frame.levels[3].node_count // 2, 6)
    res.append(
        _check("frame", "localization-tail-j3", rep.tail_max < 1e-8, f"tail {rep.tail_max:.2e}")
    )
    return res


# -------------------------------------------------------------------- spaces


# frozen continuous/sequence ratio windows, (kind, alpha, p, q): (lo, hi),
# measured on the test set and the d = 1, j_max = 4 quadratic frame (the
# p = q = 2 rows are exact identities up to roundoff)
NORM_WINDOWS = {
    ("F", 0.0, 2.0, 2.0): (0.95, 1.05),
    ("F", 1.0, 2.0, 2.0): (0.95, 1.05),
    ("F", 0.5, 3.0, 2.0): (0.80, 1.25),
    ("F", 0.5, 0.5, 2.0): (0.98, 1.02),
    ("F", 0.5, 0.75, 0.75): (0.98, 1.02),
    ("F", 1.0, 3.0, math.inf): (0.98, 1.02),
    ("B", 0.0, 2.0, 2.0): (0.95, 1.05),
    ("B", 1.0, 2.0, 1.0): (0.95, 1.05),
    ("B", 0.5, 1.0, 1.0): (0.80, 1.25),
    ("B", 0.5, 0.5, 1.0): (0.96, 1.04),
    ("B", 0.5, 0.75, math.inf): (0.96, 1.04),
    ("B", 0.5, math.inf, 2.0): (0.98, 1.07),
}


def norm_check_name(kind: str, alpha: float, p: float, q: float) -> str:
    """The ``spaces`` check of one row of NORM_WINDOWS."""
    return f"{kind}-equivalence-a{alpha:g}-p{p:g}-q{q:g}"


def suite_spaces() -> list[CheckResult]:
    res = []
    frame = nf.build_frame(d=1, delta=0.025, j_max=4, cutoff="quadratic")
    grid = fs.default_grid(frame)
    fset = norm_test_set()
    coeffs = [nf.analyze(f, frame) for f in fset]
    for (kind, alpha, p, q), (lo, hi) in NORM_WINDOWS.items():
        pr = fs.SpaceParams(alpha, p, q)
        rs = [
            fs.f_continuous_norm(f, pr, frame, grid) / fs.f_sequence_norm(s, pr, frame, grid)
            if kind == "F"
            else fs.b_continuous_norm(f, pr, frame, grid) / fs.b_sequence_norm(s, pr, frame)
            for f, s in zip(fset, coeffs)
        ]
        detail = f"ratios in [{min(rs):.3f}, {max(rs):.3f}], frozen ({lo:g}, {hi:g})"
        res.append(_check("spaces", norm_check_name(kind, alpha, p, q),
                          lo < min(rs) and max(rs) < hi, detail))

    fine = fs.GridSpec(grid.radius, 512)
    worst = 0.0
    for s in coeffs:
        for alpha in (0.0, 0.5, 1.0):
            pr = fs.SpaceParams(alpha, 2.0, 2.0)
            a = fs.f_sequence_norm(s, pr, frame, fine, method="closed")
            b = fs.f_sequence_norm(s, pr, frame, fine, method="grid")
            worst = max(worst, abs(a - b) / a)
    res.append(
        _check("spaces", "closed-vs-grid", worst < 1e-3, f"max rel dev {worst:.2e}")
    )

    frames = {
        kind: nf.build_frame(d=1, delta=0.025, j_max=3, cutoff=kind)
        for kind in ("quadratic", "dual")
    }
    grid = fs.default_grid(frames["quadratic"])
    fset = _test_functions()
    coeffs = {
        kind: [nf.analyze(f, fr) for f in fset] for kind, fr in frames.items()
    }
    pr = fs.SpaceParams(0.5, 2.0, 2.0)
    rs = [
        fs.f_sequence_norm(sq, pr, frames["quadratic"], grid)
        / fs.f_sequence_norm(sd, pr, frames["dual"], grid)
        for sq, sd in zip(coeffs["quadratic"], coeffs["dual"])
    ]
    lo, hi = min(rs), max(rs)
    res.append(
        _check(
            "spaces",
            "cutoff-independence",
            0.5 < lo and hi < 2.0,  # frozen
            f"cross-cutoff ratios in [{lo:.4f}, {hi:.4f}], frozen (0.5, 2)",
        )
    )

    f = fset[0]
    pr = fs.SpaceParams(0.5, 3.0, 2.0)
    base = fs.f_continuous_norm(f, pr, frames["quadratic"], grid)
    scaled = fs.f_continuous_norm(f.scaled(3.5), pr, frames["quadratic"], grid)
    dev = abs(scaled - 3.5 * base) / (3.5 * base)
    zero = fs.b_sequence_norm(
        nf.NeedletCoefficients(frame=frames["quadratic"]), pr, frames["quadratic"]
    )
    res.append(
        _check(
            "spaces",
            "homogeneity-and-zero",
            dev < 1e-12 and zero == 0.0,
            f"scaling dev {dev:.2e}, zero-norm {zero}",
        )
    )
    return res


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "quadrature": suite_quadrature,
    "cutoffs": suite_cutoffs,
    "kernels": suite_kernels,
    "frame": suite_frame,
    "spaces": suite_spaces,
}


def run_suites(names: Iterable[str]) -> list[CheckResult]:
    out = []
    for name in names:
        out.extend(SUITES[name]())
    return out

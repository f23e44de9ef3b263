"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
constants.  Frozen tolerances were calibrated once on the shipped
construction; stability, not magnitude, is the assertion for the
empirical ones.  A criterion with a ``verify`` twin asserts on the
session's catalogue of that check (the ``catalogue`` fixture) and does
not compute it again.
"""

import math

import numpy as np

from hermite_needlets import (
    SpaceParams,
    approximation_norm,
    b_continuous_norm,
    default_grid,
    f_continuous_norm,
    make_type_a,
    shift_study,
    verification,
)
from hermite_needlets import hermite_core as hc
from hermite_needlets import needlet_frame as nf

# criterion 8 reads the rows of verify's norm table with 1 <= p < inf and
# q < inf; test_continuous_sequence_ratio reads the others
CRITERION_8_ROWS = [
    r for r in verification.NORM_WINDOWS if 1 <= r[2] < math.inf and r[3] < math.inf
]

# the verify checks each criterion reads, as suite/name
CHECKS = {
    1: ["quadrature/gauss-exactness-n20"],
    2: ["frame/cubature-exactness"],
    3: ["frame/tight-frame-parseval"],
    4: ["frame/reconstruction"],
    7: ["kernels/christoffel-asymptotic"],
    8: ["spaces/" + verification.norm_check_name(*row) for row in CRITERION_8_ROWS]
    + ["spaces/closed-vs-grid"],
    12: ["quadrature/bulk-spacing", "frame/tile-partition", "frame/weight-tile-comparability"],
}


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {number:2d} [{name}]: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def report_checks(number: int, name: str, catalogue, *extra) -> None:
    """Report criterion ``number`` from its checks and extra (passed, detail) pairs."""
    checks = [catalogue[key] for key in CHECKS[number]]
    parts = [(c.passed, f"{c.name} {c.detail}") for c in checks] + list(extra)
    report(number, name, all(ok for ok, _ in parts), "; ".join(d for _, d in parts))


def test_catalogue_names_are_unique_and_read(catalogue):
    names = [f"{r.suite}/{r.name}" for r in catalogue.results]
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    read = {key for keys in CHECKS.values() for key in keys}
    read |= {"spaces/" + verification.norm_check_name(*row) for row in verification.NORM_WINDOWS}
    assert read <= set(names), sorted(read - set(names))


def test_criterion_01_quadrature_exactness(catalogue):
    elapsed = catalogue.seconds["quadrature"]
    report_checks(1, "quadrature-exactness", catalogue,
                  (elapsed < 1.0, f"quadrature suite {elapsed:.2f}s"))


def test_criterion_02_cubature_exactness(catalogue):
    report_checks(2, "cubature-exactness", catalogue)


def test_criterion_03_tight_frame(catalogue):
    elapsed = catalogue.seconds["frame"]
    report_checks(3, "tight-frame", catalogue, (elapsed < 30.0, f"frame suite {elapsed:.1f}s"))


def test_criterion_04_reconstruction(catalogue):
    report_checks(4, "reconstruction", catalogue)


def test_criterion_05_kernel_localization():
    a_hat = make_type_a(0.2)
    stats = {}
    for dx in (0, 1):
        bulk, tail = {}, {}
        for n in (64, 256):
            b, t = nf.decay_statistics(a_hat, n, 6, dx_order=dx)
            bulk[n], tail[n] = b, t
        ratio = max(bulk.values()) / min(bulk.values())
        stats[dx] = (ratio, max(tail.values()))
    ok = all(r < 4.0 and t < 1e-8 for r, t in stats.values())
    report(
        5,
        "kernel-localization",
        ok,
        f"bulk ratio dx0 {stats[0][0]:.2f}, dx1 {stats[1][0]:.2f}; "
        f"tails {stats[0][1]:.1e}, {stats[1][1]:.1e}",
    )


def test_criterion_06_lower_bound(frame_j4):
    a_hat = frame_j4.pair.a_hat  # |a| > 0.8 on [1, 2], so tau = 1
    tau = 1.0
    floor = math.inf
    for d in (1, 2):
        for n in (64, 256):
            w = np.asarray(a_hat(np.arange(4 * n + 1) / n)) ** 2
            lim = 0.8 * math.sqrt(2.0 * (1.0 + tau) * n)
            if d == 1:
                pts = np.linspace(0.0, lim, 50)
                diag = hc.projector_diag(4 * n, pts, dim=1)
            else:
                t = np.linspace(0.0, lim, 30)
                pts = np.stack([t, t], axis=1) / math.sqrt(2.0)
                diag = hc.projector_diag(4 * n, pts, dim=2)
            vals = (w[:, None] * diag).sum(axis=0) / n ** (d / 2.0)
            floor = min(floor, float(np.min(vals)))
    report(
        6,
        "lower-bound",
        floor > 0.15,  # frozen c
        f"min normalized diagonal {floor:.4f}, frozen floor 0.15",
    )


def test_criterion_07_christoffel_asymptotic(catalogue):
    report_checks(7, "christoffel-asymptotic", catalogue)


def test_criterion_08_norm_equivalences(catalogue):
    report_checks(8, "norm-equivalences", catalogue)


def test_criterion_09_f022_is_l2(frame_j4, frame_j4_dual, test_set_v64):
    grid = default_grid(frame_j4)
    params = SpaceParams(0.0, 2.0, 2.0)
    rs = [
        f_continuous_norm(f, params, frame_j4, grid) / f.l2_norm()
        for f in test_set_v64
    ]
    grid_dual = default_grid(frame_j4_dual)
    rs_dual = [
        f_continuous_norm(f, params, frame_j4_dual, grid_dual) / f.l2_norm()
        for f in test_set_v64
    ]
    ok = 0.95 < min(rs) and max(rs) < 1.05  # frozen (exact identity here)
    ok &= 0.5 < min(rs_dual) and max(rs_dual) < 2.0  # frozen for the dual pair
    report(
        9,
        "f022-equals-l2",
        ok,
        f"quadratic [{min(rs):.4f}, {max(rs):.4f}], "
        f"dual [{min(rs_dual):.4f}, {max(rs_dual):.4f}]",
    )


# frozen per-(alpha, q) windows for the approximation/B identification
AB_WINDOWS = {
    (1.0, 1.0): (0.30, 1.40),
    (1.0, 2.0): (0.40, 1.15),
    (2.0, 1.0): (0.12, 0.40),
    (2.0, 2.0): (0.11, 0.47),
}


def test_criterion_10_besov_approximation(frame_j4, test_set_v64):
    grid = default_grid(frame_j4)
    ok = True
    windows = []
    for (alpha, q), (lo, hi) in AB_WINDOWS.items():
        rs = [
            approximation_norm(f, alpha / 2.0, q, 2.0, grid)
            / b_continuous_norm(f, SpaceParams(alpha, 2.0, q), frame_j4, grid)
            for f in test_set_v64
        ]
        ok &= lo < min(rs) and max(rs) < hi
        windows.append(f"a{alpha:g}q{q:g}:[{min(rs):.3f},{max(rs):.3f}]")
    report(10, "besov-approximation", ok, "; ".join(windows))


def test_criterion_11_shift_separation(frame_j4):
    rows = shift_study(
        1.0, [0.0, 2.0, 4.0, 8.0], SpaceParams(1.0, 2.0, 2.0), frame_j4
    )
    l2 = [r.l2 for r in rows]
    b = [r.b_norm for r in rows]
    fvals = [r.f_norm for r in rows]
    l2_spread = (max(l2) - min(l2)) / min(l2)
    increasing = all(x < y for x, y in zip(b, b[1:])) and all(
        x < y for x, y in zip(fvals, fvals[1:])
    )
    growth = b[-1] / b[0]
    report(
        11,
        "shift-separation",
        l2_spread < 1e-4 and increasing and growth > 2.0,
        f"l2 spread {l2_spread:.1e}, B growth x{growth:.2f}, "
        f"monotone={increasing}",
    )


def test_criterion_12_zero_tile_geometry(catalogue):
    # interlacing up to order 512 is the one size verify does not run:
    # its 513 zero sets would add about 0.7 s to every verify
    check = verification.interlacing(512)
    report_checks(
        12, "zero-tile-geometry", catalogue, (check.passed, f"{check.name} {check.detail}")
    )

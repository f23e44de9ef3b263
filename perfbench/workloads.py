"""Seeded op lists for the CLI workloads (``build`` and ``study``).

An op is a dict:

- ``kind``: which output check applies (see ``checks.CHECKS``);
- ``dir``: name of the op's output directory inside the round directory;
- ``args``: CLI arguments, where ``{dir}`` stands for that directory;
- ``outputs``: glob patterns, relative to the directory, of the files the
  op writes;
- ``key``: the op's identity for the reference outputs (``None`` for the
  repeat op, which is compared byte for byte with the op it repeats);
- ``input``: for ``reconstruct``, the bump the matching ``decompose`` took.

Parameters are drawn in fixed strata so that every seed gives the same mix
of op costs; the seed moves each parameter within its stratum.
"""

from __future__ import annotations

import numpy as np

RULE_N_RANGE = (1000, 20000)
RULE_STRATA = 4


def _op(kind, name, args, outputs, key=True, **extra):
    args = [str(a) for a in args]
    op = {"kind": kind, "dir": name, "args": args, "outputs": outputs}
    op["key"] = " ".join(args) if key else None
    op.update(extra)
    return op


def _repeat(op, k=0):
    """Another run of ``op`` into its own directory, for the byte check."""
    return dict(op, dir=f"repeat{k}", key=None, repeat_of=op["dir"])


def build_ops(seed: int) -> list[dict]:
    """Cold construction: Gauss-Hermite rules and frames, one process each.

    Rule orders are log-uniform strata of [1000, 20000] (stratum centres
    jittered by +-5 % of a stratum); frames are d = 1 at j_max 4, 5, 6 and
    d = 2 at j_max 2, 3.  The d = 2, j_max = 2 frame runs twice.
    """
    rng = np.random.default_rng(seed)
    lo, hi = RULE_N_RANGE
    ops = []
    for k in range(RULE_STRATA):
        pos = (k + 0.5 + 0.1 * (rng.random() - 0.5)) / RULE_STRATA
        n = int(round(lo * (hi / lo) ** pos))
        ops.append(_op("rule", f"rule{k}", ["rule", "--n", n, "--out", "{dir}/rule.csv"],
                       ["rule.csv"]))
    for d, j_max in ((1, 4), (1, 5), (1, 6), (2, 2), (2, 3)):
        ops.append(_op(
            "frame", f"frame_d{d}_j{j_max}",
            ["frame", "--dimension", d, "--j-max", j_max, "--output-dir", "{dir}"],
            ["frame_level_*.csv"],
        ))
    ops += [_repeat(ops[5], k) for k in range(3)]
    # the j_max = 5 frame runs spread over the list, so that a slow spell of
    # the machine does not hit all of them
    order = [0, 5, 4, 1, 9, 6, 2, 10, 3, 7, 11, 8]
    return [ops[i] for i in order]


def _bump(rng):
    width = round(0.8 + 0.4 * rng.random(), 3)
    center = round(2.0 * rng.random() - 1.0, 3)
    return width, center


def study_ops(seed: int) -> list[dict]:
    """The paper's experiments through the CLI, one process each.

    Two shift studies (bump widths near 1 and near 1.4, projection degrees
    near 6144 and 3100), grid norms with p != 2 at d = 1, j_max = 5 and
    d = 2, j_max = 3, one fixed d = 2, j_max = 4 F-norm, and two
    decompose -> reconstruct pairs.  Every bump degree is passed explicitly
    and lies in the band 4**(j_max - 1) where the round trip is exact.  The
    d = 1 decompose runs twice.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for k, w_lo in enumerate((1.0, 1.4)):
        width = round(w_lo + 0.02 * rng.random(), 3)
        shifts = [round(2.0 * rng.random(), 2), round(4.0 + 2.0 * rng.random(), 2)]
        ops.append(_op(
            "shift", f"shift{k}",
            ["shift-study", "--shifts", ",".join(map(str, shifts)), "--width", width,
             "--out", "{dir}/shift.csv"],
            ["shift.csv"],
        ))
    # (d, j_max, kind, p, q): fixed indices, so every seed costs the same
    norm_cases = [(1, 5, "F", 3.0, 2.0), (1, 5, "B", 3.0, 1.0), (1, 5, "f", 4.0, 3.0),
                  (2, 3, "F", 3.0, 2.0), (2, 3, "B", 1.5, 2.0)]
    for k, (d, j_max, kind, p, q) in enumerate(norm_cases):
        width, center = _bump(rng)
        top = 4 ** (j_max - 1)
        degree = int(rng.integers(7 * top // 8, top + 1))
        ops.append(_op(
            "norms", f"norm{k}",
            ["norms", "--dimension", d, "--j-max", j_max,
             "--function", f"bump:{width},{center}", "--degree", degree,
             "--alpha", 0.5, "--p", p, "--q", q, "--kind", kind,
             "--out", "{dir}/norm.csv"],
            ["norm.csv"],
        ))
    ops.append(_op(
        "norms", "norm_d2_j4",
        ["norms", "--dimension", 2, "--j-max", 4, "--function", "bump:1.0,0.5",
         "--degree", 64, "--alpha", 0.5, "--p", 3.0, "--q", 2.0, "--kind", "F",
         "--out", "{dir}/norm.csv"],
        ["norm.csv"],
    ))
    for k, (d, j_max) in enumerate(((1, 5), (2, 3))):
        width, center = _bump(rng)
        top = 4 ** (j_max - 1)
        degree = int(rng.integers(top // 2, top + 1))
        common = ["--dimension", d, "--j-max", j_max]
        ops.append(_op(
            "decompose", f"pair{k}",
            ["decompose", *common, "--function", f"bump:{width},{center}",
             "--degree", degree, "--out", "{dir}/coefficients.csv"],
            ["coefficients.csv"],
        ))
        ops.append(_op(
            "reconstruct", f"pair{k}",
            ["reconstruct", *common, "--coeffs", "{dir}/coefficients.csv",
             "--out", "{dir}/reconstruction.json"],
            ["reconstruction.json"],
            input={"dim": d, "width": width, "center": center, "degree": degree},
        ))
    ops.append(_repeat(ops[8]))
    # the d = 1 ops near the median latency spread over the list
    order = [2, 0, 5, 8, 7, 3, 10, 11, 9, 1, 4, 6, 12]
    return [ops[i] for i in order]


CLI_WORKLOADS = {"build": build_ops, "study": study_ops}

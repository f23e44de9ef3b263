"""Output checks for the CLI ops and the comparison with reference outputs.

Every op is checked for its own invariants (``CHECKS``) and, when the
reference file holds its key, against the outputs recorded at the
benchmark's baseline, column by column, at the tolerances in ``TOLERANCE``
(relative to the largest magnitude of the recorded column).
"""

from __future__ import annotations

import glob
import json
import math
import os

import numpy as np

# Relative tolerances of the reference comparison, by output column.
TOLERANCE = {
    "node": 1e-14, "xi_1": 1e-14, "xi_2": 1e-14,
    "tile_lo_1": 1e-14, "tile_hi_1": 1e-14, "tile_lo_2": 1e-14, "tile_hi_2": 1e-14,
    "gauss_weight": 1e-13, "christoffel_weight": 1e-13, "weight": 1e-13,
    "y": 1e-12, "l2": 1e-12, "bH": 1e-12, "fH": 1e-12,
    "s_value": 1e-12, "coeff": 1e-12,
    # grid norms: composite midpoint sums over up to ~4e7 points
    "value": 1e-10,
}
DEFAULT_TOLERANCE = 1e-12
SAMPLES = 33

IDENTITY_TOL = 1e-12  # sum of cubature weights against the Gaussian
L2_CONSTANT_TOL = 1e-10  # shift-study l2 column
ROUND_TRIP_TOL = 1e-12  # reconstruct against the decompose input


def read_csv(path: str) -> dict[str, np.ndarray]:
    """Numeric columns of a CSV with a header row, by column name.

    The file is parsed straight from disk, not through one big string, so
    the runner's own resident set stays below the ops' (a child started
    later inherits the runner's peak through exec).
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError:  # text columns such as function_id; small files only
        with open(path, encoding="utf-8") as fh:
            data = np.array([line.strip().split(",") for line in fh][1:])
    out = {}
    for i, name in enumerate(header):
        try:
            out[name] = data[:, i].astype(float)
        except ValueError:
            continue
    return out


def read_outputs(op: dict, op_dir: str) -> tuple[dict, int, int]:
    """Parse the op's output files: (tables, csv bytes, csv data rows)."""
    tables, nbytes, nrows = {}, 0, 0
    for pattern in op["outputs"]:
        for path in sorted(glob.glob(os.path.join(op_dir, pattern))):
            name = os.path.basename(path)
            if name.endswith(".csv"):
                nbytes += os.path.getsize(path)
                tables[name] = read_csv(path)
                nrows += len(next(iter(tables[name].values()), ()))
            else:
                with open(path, encoding="utf-8") as fh:
                    tables[name] = {"coeff": dense_coeffs(json.load(fh))}
    return tables, nbytes, nrows


def dense_coeffs(payload: dict) -> np.ndarray:
    """Dense coefficient array of a ``reconstruct`` JSON payload."""
    size = payload["degree"] + 1
    arr = np.zeros((size,) * payload["dim"])
    for idx, c in payload["coeffs"]:
        arr[tuple(idx)] = c
    return arr


def _gaussian_identity(nodes: np.ndarray, weights: np.ndarray) -> float:
    """|sum w pi^(-d/2) exp(-|x|^2) - 1|: the rule integrates h_0^2 = 1."""
    d = nodes.shape[1]
    total = np.sum(weights * np.exp(-np.sum(nodes * nodes, axis=1))) / math.pi ** (d / 2)
    return abs(total - 1.0)


def _check_axis(t: np.ndarray, what: str) -> list[str]:
    errors = []
    if not np.all(np.diff(t) > 0):
        errors.append(f"{what}: nodes not strictly increasing")
    if np.max(np.abs(t + t[::-1])) > 1e-15 * np.max(np.abs(t)):
        errors.append(f"{what}: nodes not symmetric")
    return errors


def check_rule(op, tables, _ctx) -> list[str]:
    tab = tables["rule.csv"]
    n = int(op["args"][op["args"].index("--n") + 1])
    if tab["node"].size != n:
        return [f"rule has {tab['node'].size} nodes, expected {n}"]
    errors = _check_axis(tab["node"], "rule")
    dev = _gaussian_identity(tab["node"][:, None], tab["christoffel_weight"])
    if dev > IDENTITY_TOL:
        errors.append(f"rule: sum of weights times Gaussian off by {dev:.3e}")
    return errors


def check_frame(op, tables, _ctx) -> list[str]:
    j_max = int(op["args"][op["args"].index("--j-max") + 1])
    if len(tables) != j_max + 1:
        return [f"frame wrote {len(tables)} level files, expected {j_max + 1}"]
    errors = []
    for name, tab in tables.items():
        cols = [c for c in ("xi_1", "xi_2") if c in tab]
        nodes = np.stack([tab[c] for c in cols], axis=1)
        errors += _check_axis(np.unique(nodes[:, 0]), name)
        if not np.all(tab["weight"] > 0):
            errors.append(f"{name}: nonpositive weight")
        dev = _gaussian_identity(nodes, tab["weight"])
        if dev > IDENTITY_TOL:
            errors.append(f"{name}: sum of weights times Gaussian off by {dev:.3e}")
    return errors


def check_shift(_op, tables, _ctx) -> list[str]:
    tab = tables["shift.csv"]
    errors = []
    if not all(np.all(np.isfinite(v)) for v in tab.values()):
        errors.append("shift-study: non-finite value")
    l2 = tab["l2"]
    spread = (np.max(l2) - np.min(l2)) / np.mean(l2)
    if spread > L2_CONSTANT_TOL:
        errors.append(f"shift-study: l2 column varies by {spread:.3e}")
    return errors


def check_norms(_op, tables, _ctx) -> list[str]:
    value = tables["norm.csv"]["value"]
    if value.size != 1 or not (np.isfinite(value[0]) and value[0] > 0):
        return [f"norms: bad value {value}"]
    return []


def check_decompose(_op, tables, _ctx) -> list[str]:
    s = tables["coefficients.csv"]["s_value"]
    if s.size == 0 or not np.all(np.isfinite(s)):
        return ["decompose: empty or non-finite coefficients"]
    return []


def check_reconstruct(op, tables, ctx) -> list[str]:
    """The reconstruction must return the decompose input (its projection)."""
    spec = op["input"]
    want = ctx["project"](spec)
    got = tables["reconstruction.json"]["coeff"]
    n = max(got.shape[0], want.shape[0])
    diff = np.pad(got, (0, n - got.shape[0])) - np.pad(want, (0, n - want.shape[0]))
    err = np.linalg.norm(diff) / np.linalg.norm(want)
    if err > ROUND_TRIP_TOL:
        return [f"reconstruct: relative error {err:.3e} against the decompose input"]
    return []


CHECKS = {
    "rule": check_rule,
    "frame": check_frame,
    "shift": check_shift,
    "norms": check_norms,
    "decompose": check_decompose,
    "reconstruct": check_reconstruct,
}


def sample_tables(tables: dict) -> dict:
    """Evenly spaced rows of every CSV column, for the reference file."""
    out = {}
    for name, tab in tables.items():
        if not name.endswith(".csv"):
            continue
        nrows = len(next(iter(tab.values())))
        rows = np.unique(np.linspace(0, nrows - 1, min(SAMPLES, nrows)).round().astype(int))
        out[name] = {
            "rows": rows.tolist(),
            "cols": {c: v[rows].tolist() for c, v in tab.items()},
        }
    return out


def compare(reference: dict, tables: dict) -> list[str]:
    """Differences between outputs and a recorded sample, beyond tolerance."""
    errors = []
    for name, ref in reference.items():
        tab = tables.get(name)
        if tab is None:
            errors.append(f"{name}: missing output")
            continue
        rows = np.asarray(ref["rows"])
        for col, values in ref["cols"].items():
            want = np.asarray(values)
            if col not in tab or tab[col].size <= rows[-1]:
                errors.append(f"{name}: column {col} missing or short")
                continue
            scale = np.max(np.abs(want)) or 1.0
            dev = np.max(np.abs(tab[col][rows] - want)) / scale
            tol = TOLERANCE.get(col, DEFAULT_TOLERANCE)
            if dev > tol:
                errors.append(f"{name}: {col} drifts {dev:.3e} from reference (tol {tol:g})")
    return errors

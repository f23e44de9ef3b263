"""The ``transform`` workload: warm library use inside one process.

Usage: python3 perfbench/transform_worker.py --mode setup|run --seed N
       --seconds S --trace 0|1 --reference PATH --out RESULT_JSON [--record]

Set-up imports the package and builds three frames (d = 1, j_max = 5
quadratic; d = 1, j_max = 5 dual; d = 2, j_max = 4 quadratic).  Each op
then takes one seeded expansion through ``analyze``, ``synthesize`` and the
``b`` and closed-form ``f`` sequence norms.  Outputs are checked after the
op's timed region: exact reconstruction, and Parseval on the tight frames.
With ``--trace 1`` each op runs twice, untraced and then traced, for half
the time.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402
from hermite_needlets import function_spaces as fs  # noqa: E402
from hermite_needlets import hermite_core as hc  # noqa: E402
from hermite_needlets import needlet_frame as nf  # noqa: E402

import tracer as tr  # noqa: E402

FRAMES = (("d1_quadratic", 1, 5, "quadratic"), ("d1_dual", 1, 5, "dual"),
          ("d2_quadratic", 2, 4, "quadratic"))
# op i uses OP_KINDS[i % 6]: (frame name, dense coefficients?)
OP_KINDS = tuple((name, dense) for name, *_ in FRAMES for dense in (True, False))
DEGREE_STRATA = 4
# every op kind in every degree stratum once; a run ends on a whole cycle,
# so each run has the same mix of op costs
CYCLE = len(OP_KINDS) * DEGREE_STRATA
REFERENCE_OPS = 24  # ops of the default seed kept in the reference file
TOL = 1e-12  # reconstruction, Parseval and reference norms (relative)
FRAME_TOL = {"nodes": 1e-14, "weights": 1e-13}
SAMPLES = 33


def build_frames() -> dict:
    return {name: nf.build_frame(d=d, j_max=j, cutoff=cut) for name, d, j, cut in FRAMES}


def make_input(seed: int, i: int, frames: dict):
    """Op i's expansion and norm indices; the same (seed, i) gives the same op.

    Degrees are drawn in strata of (0, 4**(j_max - 1)], the band where
    analysis followed by synthesis is exact.
    """
    name, dense = OP_KINDS[i % len(OP_KINDS)]
    frame = frames[name]
    rng = np.random.default_rng([seed, i])
    top = 4 ** (frame.j_max - 1)
    stratum = (i // len(OP_KINDS)) % DEGREE_STRATA
    degree = int(rng.integers(stratum * top // DEGREE_STRATA + 1,
                              (stratum + 1) * top // DEGREE_STRATA + 1))
    if frame.d == 1:
        indices = [(k,) for k in range(degree + 1)]
    else:
        indices = [(a, b) for a in range(degree + 1) for b in range(degree + 1 - a)]
    if not dense:
        pick = rng.choice(len(indices), size=min(len(indices), int(rng.integers(3, 9))),
                          replace=False)
        top_index = (degree,) + (0,) * (frame.d - 1)
        indices = sorted({indices[k] for k in pick} | {top_index})
    values = rng.standard_normal(len(indices))
    f = hc.HermiteExpansion(frame.d, degree, dict(zip(indices, values)))
    alpha = float(rng.choice([0.5, 1.0]))
    p = float(rng.choice([1.5, 3.0, 4.0]))
    q = float(rng.choice([1.0, 2.0, 3.0]))
    return name, f, fs.SpaceParams(alpha, p, q), fs.SpaceParams(alpha, p, p)


def run_op(f, frame, b_params, f_params):
    coeffs = nf.analyze(f, frame)
    g = nf.synthesize(coeffs, frame)
    b_norm = fs.b_sequence_norm(coeffs, b_params, frame)
    f_norm = fs.f_sequence_norm(coeffs, f_params, frame, method="closed")
    return coeffs, g, b_norm, f_norm


def op_summary(coeffs, b_norm, f_norm) -> list[float]:
    """Norms then per-level sums of squares: what the reference records."""
    levels = [float(np.dot(v, v)) for _, v in sorted(coeffs.level_values.items())]
    return [b_norm, f_norm] + levels


def check_op(name, f, coeffs, g, b_norm, f_norm, frame) -> list[str]:
    errors = []
    want = f.coeff_array()
    got = g.coeff_array()
    n = max(want.shape[0], got.shape[0])
    diff = np.pad(got, (0, n - got.shape[0])) - np.pad(want, (0, n - want.shape[0]))
    f_l2 = float(np.linalg.norm(want))
    err = float(np.linalg.norm(diff)) / f_l2
    if not err <= TOL:
        errors.append(f"{name}: reconstruction error {err:.3e}")
    if frame.cutoff_kind == "quadratic":
        parseval = abs(coeffs.sum_squares() - f_l2**2) / f_l2**2
        if not parseval <= TOL:
            errors.append(f"{name}: Parseval residual {parseval:.3e}")
    if not (math.isfinite(b_norm) and b_norm > 0 and math.isfinite(f_norm) and f_norm > 0):
        errors.append(f"{name}: bad sequence norms {b_norm}, {f_norm}")
    return errors


def frame_samples(frames: dict) -> dict:
    out = {}
    for name, frame in frames.items():
        for level in frame.levels:
            rule = level.rule
            rows = np.unique(np.linspace(0, rule.n - 1, min(SAMPLES, rule.n)).round().astype(int))
            out[f"{name}/level{level.j}"] = {
                "rows": rows.tolist(),
                "nodes": rule.nodes[rows].tolist(),
                "weights": rule.christoffel_weights[rows].tolist(),
            }
    return out


def compare_frames(frames: dict, reference: dict) -> list[str]:
    errors = []
    current = frame_samples(frames)
    for key, ref in reference.items():
        got = current.get(key)
        if got is None or got["rows"] != ref["rows"]:
            errors.append(f"{key}: level missing or of another order")
            continue
        for col, tol in FRAME_TOL.items():
            want = np.asarray(ref[col])
            dev = np.max(np.abs(np.asarray(got[col]) - want)) / np.max(np.abs(want))
            if dev > tol:
                errors.append(f"{key}: {col} drifts {dev:.3e} from reference (tol {tol:g})")
    return errors


def compare_op(summary: list[float], want: list[float]) -> list[str]:
    if len(summary) != len(want):
        return [f"{len(summary)} summary values, reference has {len(want)}"]
    dev = max(abs(a - b) / abs(b) for a, b in zip(summary, want))
    return [] if dev <= TOL else [f"norms drift {dev:.3e} from reference (tol {TOL:g})"]


def run_pass(seed, frames, deadline, reference, record, tracer=None):
    """Run ops 0, 1, ... until ``deadline`` has passed and a cycle is whole.

    With a tracer each op runs twice, untraced and then traced, so both see
    the same warm state.
    """
    plain, traced, failures, messages = [], [], 0, []
    i = 0
    while i % CYCLE or time.perf_counter() < deadline:
        name, f, b_params, f_params = make_input(seed, i, frames)
        frame = frames[name]
        for t, latencies in ((None, plain), (tracer, traced))[: 2 if tracer else 1]:
            if t:
                t.install()
                t.begin_op(i)
            t0 = time.perf_counter()
            coeffs, g, b_norm, f_norm = run_op(f, frame, b_params, f_params)
            latencies.append(time.perf_counter() - t0)
            if t:
                t.end_op()
                t.uninstall()
            errors = check_op(name, f, coeffs, g, b_norm, f_norm, frame)
            summary = op_summary(coeffs, b_norm, f_norm)
            if record is not None and i < REFERENCE_OPS and not t:
                record.append(summary)
            elif reference is not None and i < len(reference):
                errors += compare_op(summary, reference[i])
            if errors:
                failures += 1
                messages.append(f"op {i}: " + "; ".join(errors))
        i += 1
    return plain, traced, failures, messages


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--default-seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tracer.install()
        tracer.begin_op("setup")
    frames = build_frames()
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s}
    if tracer:
        tracer.end_op()
        tracer.uninstall()
        result["setup_layers"] = tr.layer_metrics(tracer.spans)
        tracer.spans = []

    if args.mode == "run":
        reference = {}
        if args.reference and not args.record:
            with open(args.reference, encoding="utf-8") as fh:
                reference = json.load(fh)
        messages = compare_frames(frames, reference.get("frames", {}))
        ops_ref = reference.get("ops") if args.seed == args.default_seed else None
        record = [] if args.record else None
        start = time.perf_counter()
        # traced runs repeat every op, so they measure half as long
        deadline = start + (args.seconds / 2 if tracer else args.seconds)
        plain, traced, failed, msgs = run_pass(args.seed, frames, deadline, ops_ref, record,
                                               tracer)
        result.update(latencies=plain, failed=failed + bool(messages), messages=messages + msgs)
        if tracer:
            result.update(traced_latencies=traced, layers=tr.layer_metrics(tracer.spans))
        if args.record:
            result["record"] = {"frames": frame_samples(frames), "ops": record}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

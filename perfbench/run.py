"""Benchmark of hermite-needlets: seeded workloads, timed end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload build|transform|study --seed N \
        --seconds S --trace 0|1

Workloads (closed loop, one client, one op at a time):

- ``build``: cold ``rule`` and ``frame`` runs, one CLI process per op;
- ``transform``: analysis, synthesis and sequence norms inside one process
  after the frames are built;
- ``study``: ``shift-study``, grid ``norms`` and ``decompose`` ->
  ``reconstruct`` pairs, one CLI process per op.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same ops untraced and then traced, and reports
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  ``--record`` (default seed only)
rewrites the workload's reference outputs instead of comparing with them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fnmatch import fnmatch

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("build", "transform", "study")
DEFAULT_SEED = 0
SETUP_REPEATS = 5  # set-up samples per run; setup_s is their median
RUN_LIMIT_S = 150.0  # no new round or op starts after this much run time
OP_TIMEOUT_S = 120.0

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
         "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: str) -> dict:
    """Environment for every process the benchmark starts: the checkout's
    ``src`` on the path and BLAS threads capped at the core count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


def machine_facts() -> dict:
    return {
        "nproc": nproc(),
        "blas_threads": nproc(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def tail_latency(values: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond) at the highest whole percentile
    with at least ten samples beyond it; the median when none above it has."""
    import numpy as np

    for q in range(99, 50, -1):
        v = float(np.percentile(values, q))
        beyond = sum(x > v for x in values)
        if beyond >= 10:
            return q, v, beyond
    v = statistics.median(values)
    return 50, v, sum(x > v for x in values)


def reference_path(workload: str) -> str:
    return os.path.join(HERE, "reference", f"{workload}.json")


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def write_reference(workload: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(reference_path(workload)), exist_ok=True)
    with open(reference_path(workload), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_child(cmd: list[str], env: dict, cwd: str, log: str) -> tuple[float, int, str]:
    """Run one process to completion: (seconds, exit code, stderr text).

    ``os.wait4`` blocks until the child exits, so the time is exact; the
    polling wait behind ``subprocess.run(timeout=...)`` would round it up
    by up to 50 ms.  A timer kills the child after ``OP_TIMEOUT_S``.
    """
    with open(log + ".out", "w") as out, open(log + ".err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log + ".err", encoding="utf-8", errors="replace") as fh:
        return elapsed, proc.returncode, fh.read()


class CliRunner:
    """Runs the op list of a CLI workload and checks every op's outputs."""

    def __init__(self, root, work, workload, seed, record):
        # imported here: they import numpy, which must see the thread caps
        import checks
        import workloads

        self.checks = checks
        self.root, self.work, self.env = root, work, child_env(root)
        self.ops = workloads.CLI_WORKLOADS[workload](seed)
        self.record = {} if record else None
        self.reference = {} if record else load_reference(workload)
        self.hashes: dict[tuple, str] = {}
        self._projections: dict[tuple, object] = {}
        self.ctx = {"project": self.project}

    def project(self, spec: dict):
        """Dense Hermite coefficients of a ``bump:`` input, as the CLI projects it."""
        import numpy as np
        from hermite_needlets import function_spaces as fs
        from hermite_needlets import hermite_core as hc

        key = tuple(sorted(spec.items()))
        if key not in self._projections:
            d, degree = spec["dim"], spec["degree"]
            bump = fs.smooth_bump(spec["width"], np.full(d, spec["center"]), dim=d)
            expansion = hc.project_function(bump, degree, 2 * degree + 16, dim=d).expansion
            self._projections[key] = expansion.coeff_array()
        return self._projections[key]

    def help_call(self, log: str, spans: str | None = None) -> float:
        cmd = self.command(["--help"], spans)
        elapsed, rc, err = run_child(cmd, self.env, self.root, log)
        if rc != 0 or "Traceback" in err:
            raise RuntimeError(f"--help failed with exit code {rc}: {err.strip()[-300:]}")
        return elapsed

    def command(self, args, spans=None):
        if spans:
            return [sys.executable, os.path.join(HERE, "shim.py"), spans, "--", *args]
        return [sys.executable, "-m", "hermite_needlets", *args]

    def run_op(self, op: dict, round_dir: str, traced: bool = False) -> dict:
        op_dir = os.path.join(round_dir, op["dir"])
        os.makedirs(op_dir, exist_ok=True)
        args = [a.replace("{dir}", op_dir) for a in op["args"]]
        log = os.path.join(op_dir, op["kind"])
        spans = log + "-spans.json" if traced else None
        elapsed, rc, err = run_child(self.command(args, spans), self.env, self.root, log)
        errors = []
        if rc != 0:
            errors.append(f"exit code {rc}")
        if "Traceback" in err:
            errors.append("traceback on stderr")
        tables, csv_bytes, csv_rows = {}, 0, 0
        if not errors:
            tables, csv_bytes, csv_rows = self.checks.read_outputs(op, op_dir)
            errors += self.checks.CHECKS[op["kind"]](op, tables, self.ctx)
            if self.record is not None and op["key"]:
                self.record[op["key"]] = self.checks.sample_tables(tables)
            elif op["key"] in self.reference:
                errors += self.checks.compare(self.reference[op["key"]], tables)
            errors += self.check_bytes(op, op_dir)
        label = f"{os.path.basename(round_dir)} {' '.join(op['args'])}"
        return {"latency": elapsed, "errors": errors, "csv_bytes": csv_bytes,
                "csv_rows": csv_rows, "spans": spans, "label": label}

    def check_bytes(self, op: dict, op_dir: str) -> list[str]:
        """CSV outputs of a repeated op must be byte-identical to the first."""
        errors = []
        for name in sorted(os.listdir(op_dir)):
            if not name.endswith(".csv") or not any(fnmatch(name, p) for p in op["outputs"]):
                continue
            with open(os.path.join(op_dir, name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            key = (op.get("repeat_of", op["dir"]), op["kind"], name)
            first = self.hashes.setdefault(key, digest)
            if first != digest:
                errors.append(f"{name} differs from the first run of the same op")
        return errors

    def run_round(self, r: int) -> list[dict]:
        round_dir = os.path.join(self.work, f"round{r}")
        return [self.run_op(op, round_dir) for op in self.ops]

    def run_traced(self) -> tuple[list[dict], list[dict]]:
        """Each op untraced (round0) and then traced (round1)."""
        plain, traced = [], []
        for op in self.ops:
            plain.append(self.run_op(op, os.path.join(self.work, "round0")))
            traced.append(self.run_op(op, os.path.join(self.work, "round1"), traced=True))
        return plain, traced


def run_cli(args, root, work) -> dict:
    runner = CliRunner(root, work, args.workload, args.seed, args.record)
    out = {}
    if args.trace:
        setup_spans = os.path.join(work, "setup-spans.json")
        runner.help_call(os.path.join(work, "setup"), setup_spans)
        with open(setup_spans, encoding="utf-8") as fh:
            out["setup_layers"] = tracer.layer_metrics(json.load(fh))
        plain, traced = runner.run_traced()
        layers = tracer.empty_metrics()
        outside = 0.0
        for res in traced:
            if not os.path.exists(res["spans"]):
                continue
            with open(res["spans"], encoding="utf-8") as fh:
                spans = json.load(fh)
            main_s = sum(s[2] - s[1] for s in spans if s[0] == "cli.main")
            outside += res["latency"] - main_s
            tracer.layer_metrics(spans, layers)
        layers["cli.outside_main_s"] = outside
        layers["cli.csv_bytes"] = sum(r["csv_bytes"] for r in traced)
        layers["cli.csv_rows"] = sum(r["csv_rows"] for r in traced)
        out.update(results=plain + traced, plain=plain, traced=traced, layers=layers)
        return out

    setup = [runner.help_call(os.path.join(work, f"setup{k}")) for k in range(SETUP_REPEATS)]
    start = time.perf_counter()
    results = []
    rounds = 0
    while True:
        results += runner.run_round(rounds)
        rounds += 1
        elapsed = time.perf_counter() - start
        per_round = elapsed / rounds
        if args.record or elapsed + per_round > min(args.seconds, RUN_LIMIT_S):
            break
    out.update(results=results, setup=setup, setup_note=f"median of {len(setup)} '--help' runs")
    if args.record:
        write_reference(args.workload, runner.record)
    return out


def run_transform(args, root, work) -> dict:
    env = child_env(root)
    worker = os.path.join(HERE, "transform_worker.py")

    seconds = min(args.seconds, RUN_LIMIT_S - 30.0)  # leaves room for set-up

    def call(mode: str, tag: str, extra=()) -> dict:
        result_path = os.path.join(work, f"{tag}.json")
        cmd = [sys.executable, worker, "--mode", mode, "--seed", str(args.seed),
               "--default-seed", str(DEFAULT_SEED), "--seconds", str(seconds),
               "--trace", str(args.trace), "--reference", reference_path("transform"),
               "--out", result_path, *extra]
        _, rc, err = run_child(cmd, env, root, os.path.join(work, tag))
        if rc != 0 or not os.path.exists(result_path):
            raise RuntimeError(f"transform worker ({mode}) failed with exit code {rc}: "
                               f"{err.strip()[-500:]}")
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)

    out = {}
    if args.trace:
        res = call("run", "traced")
        plain = [{"latency": t, "errors": []} for t in res["latencies"]]
        traced = [{"latency": t, "errors": []} for t in res["traced_latencies"]]
        layers = res["layers"]
        layers.update({"cli.outside_main_s": 0.0, "cli.csv_bytes": 0, "cli.csv_rows": 0})
        out.update(plain=plain, traced=traced, layers=layers, setup_layers=res["setup_layers"],
                   results=plain + traced)
    else:
        setup = [call("setup", f"setup{k}")["setup_s"] for k in range(SETUP_REPEATS - 1)]
        res = call("run", "run", ["--record"] if args.record else [])
        setup.append(res["setup_s"])
        out.update(setup=setup, setup_note=f"median of {len(setup)} worker start-ups "
                   "(import and frame building)",
                   results=[{"latency": t, "errors": []} for t in res["latencies"]])
        if args.record:
            write_reference("transform", res["record"])
    # the worker checks every op itself and reports failures as a count
    out["failed"] = min(res["failed"], len(out["results"]))
    out["messages"] = res["messages"]
    return out


def end_to_end(out: dict) -> tuple[dict, list[str]]:
    lat = [r["latency"] for r in out["results"]]
    busy = sum(lat)
    q, tail, beyond = tail_latency(lat)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(out["setup"]),
        "ops_per_s": len(lat) / busy,
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "peak_rss_mb": peak_mb,
    }
    notes = {
        "setup_s": out["setup_note"],
        "ops_per_s": f"{len(lat)} ops / {busy:.3f} s spent in ops",
        "latency_p50_s": f"median of {len(lat)} ops",
        "latency_tail_s": f"p{q} of {len(lat)} ops, {beyond} beyond it",
        "peak_rss_mb": "largest resident set of any process the run started",
    }
    lines = [f"{name:<16} {values[name]:>12.6g} {UNITS[name]:<4} ({notes[name]})"
             for name in UNITS]
    return values, lines


def load_layer_map() -> dict:
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        return json.load(fh)["metrics"]


def per_layer(out: dict, layer_map: dict) -> tuple[dict, list[str]]:
    layers = dict(out["layers"])
    plain_s = sum(r["latency"] for r in out["plain"])
    traced_s = sum(r["latency"] for r in out["traced"])
    layers["hermite_core.values_bytes_computed"] = 8 * layers["hermite_core.values_point_steps"]
    values_s = layers["hermite_core.values_s"]
    layers["hermite_core.values_steps_per_s"] = (
        layers["hermite_core.values_point_steps"] / values_s if values_s > 0 else 0.0)
    for key in ("quadrature.rule_self_s", "quadrature.rules_built",
                "hermite_core.kernel_diag_s", "needlet_frame.build_self_s"):
        layers[f"setup.{key}"] = out["setup_layers"][key]
    root_s = layers.pop("trace.root_s")
    self_total = sum(layers[k] for k in tracer.TIME_METRICS)
    layers.update({
        "trace.overhead_ratio": traced_s / plain_s,
        "trace.traced_wall_s": traced_s,
        "trace.untraced_wall_s": plain_s,
        "trace.ops": len(out["traced"]),
        "trace.accounted_ratio": self_total / root_s if root_s > 0 else 0.0,
        "trace.root_s": root_s,
    })
    lines = []
    for name, spec in layer_map.items():
        label = " (computed)" if spec.get("computed") else ""
        base = f"  = {spec['base']}" if "base" in spec else ""
        lines.append(f"{name:<42} {layers[name]:>14.6g} {spec['unit']:<6}{label}{base}")
    return {name: layers[name] for name in layer_map}, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the reference outputs (default seed, --trace 0)")
    args = ap.parse_args()
    if args.record and (args.seed != DEFAULT_SEED or args.trace):
        ap.error("--record needs the default seed and --trace 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hermite_needlets", "cli.py")):
        print("run.py: no src/hermite_needlets here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # the checks import numpy and the package in this process, under the same caps
    for var, value in child_env(root).items():
        os.environ[var] = value
    sys.path.insert(0, os.path.join(root, "src"))

    work = os.path.join(root, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = run_transform if args.workload == "transform" else run_cli
        out = runner(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    if "failed" not in out:
        failed = [r for r in out["results"] if r["errors"]]
        out["failed"] = len(failed)
        out["messages"] = [f"{r['label']}: " + "; ".join(r["errors"]) for r in failed]
    attempted = len(out["results"])
    facts = machine_facts()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("machine  " + ", ".join(f"{k} {v}" for k, v in facts.items()))
    if args.trace:
        layer_map = load_layer_map()
        metrics, lines = per_layer(out, layer_map)
        units = {name: spec["unit"] for name, spec in layer_map.items()}
    else:
        metrics, lines = end_to_end(out)
        units = UNITS
    for res in out["results"]:
        if "label" in res:
            print(f"op {res['latency']:9.3f} s  {res['label']}")
    for line in lines:
        print(line)
    print(f"{'failed_ratio':<16} {out['failed'] / attempted:>12.6g} {'':<4} "
          f"({out['failed']} failed / {attempted} attempted)")
    for msg in out["messages"][:20]:
        print(f"FAILED {msg}")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": attempted,
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

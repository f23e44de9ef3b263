"""Command-line surface: construction, decomposition, norms, verification.

Commands: rule, frame, decompose, reconstruct, norms, decay, shift-study,
verify.  Configuration comes from an optional JSON file plus flags (flags
win); NEEDLET_NODE_BUDGET overrides the node budget.  All CSV output uses
a header row, comma separators, and 17-significant-digit floats, so equal
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import typing
from dataclasses import dataclass, fields

import numpy as np

from . import function_spaces as fs
from . import hermite_core as hc
from . import needlet_frame as nf
from . import quadrature as quad
from . import verification
from .errors import NeedletError, NumericFailureError, ParameterError, ResourceError

_CSV_CHUNK = 4096  # rows formatted at a time by _table_rows


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_column(values: np.ndarray) -> list[str]:
    """``_fmt`` of every entry, in one pass over a list of Python floats."""
    return [f"{x:.17g}" for x in np.asarray(values, dtype=float).tolist()]


def _axis_text(values: np.ndarray) -> np.ndarray:
    """``_fmt_column`` of a 1-d array as an object array, to index by axis.

    A d = 2 table repeats each axis value on many rows; indexing the text
    formats each value once.
    """
    return np.array(_fmt_column(values), dtype=object)


def _table_rows(count: int, columns):
    """CSV rows of an index column followed by float or text columns.

    ``columns(rows)`` gives the columns at the index array ``rows``: float
    arrays, formatted here, or object arrays of text from ``_axis_text``.
    Rows are formatted a chunk at a time, so a large table is never held
    in memory as text.
    """
    for lo in range(0, count, _CSV_CHUNK):
        rows = np.arange(lo, min(lo + _CSV_CHUNK, count))
        cols = (c if c.dtype == object else _fmt_column(c) for c in columns(rows))
        yield from zip(map(str, rows.tolist()), *cols)


def _check_config_value(key: str, value, hint) -> None:
    """Reject a JSON config ``value`` that does not fit the annotation ``hint``.

    An integer is accepted for a float field; a boolean for no field.
    """
    allowed = typing.get_args(hint) or (hint,)
    if not isinstance(value, bool) and (
        isinstance(value, allowed) or (float in allowed and isinstance(value, int))
    ):
        return
    names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
    raise ParameterError(f"config key {key!r} must be {names}, got {value!r}")


@dataclass
class RunConfig:
    dimension: int = 1
    delta: float = 0.025
    j_max: int = 3
    cutoff: str = "quadratic"
    grid_radius: float | None = None
    points_per_unit: int | None = None
    node_budget: int = quad.DEFAULT_NODE_BUDGET
    output_dir: str = "."

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        cfg = cls()
        if path:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ParameterError(f"config file {path} must hold a JSON object")
            known = {f.name for f in fields(cls)}
            unknown = set(data) - known
            if unknown:
                raise ParameterError(f"unknown config keys: {sorted(unknown)}")
            for key, value in data.items():
                _check_config_value(key, value, _FIELD_TYPES[key])
                setattr(cfg, key, value)
        env_budget = os.environ.get("NEEDLET_NODE_BUDGET")
        if env_budget:
            try:
                cfg.node_budget = int(env_budget)
            except ValueError as exc:
                raise ParameterError(
                    f"NEEDLET_NODE_BUDGET must be an integer, got {env_budget!r}"
                ) from exc
        return cfg

    def apply_flags(self, args: argparse.Namespace) -> "RunConfig":
        # every field name is its flag's dest
        for f in fields(self):
            val = getattr(args, f.name, None)
            if val is not None:
                setattr(self, f.name, val)
        return self

    def build_frame(self) -> nf.NeedletFrame:
        return nf.build_frame(
            d=self.dimension,
            delta=self.delta,
            j_max=self.j_max,
            cutoff=self.cutoff,
            node_budget=self.node_budget,
        )

    def grid_for(self, frame: nf.NeedletFrame) -> fs.GridSpec:
        need = fs.default_grid(frame)
        radius, ppu = self.grid_radius, self.points_per_unit
        return fs.GridSpec(
            radius=need.radius if radius is None else radius,
            points_per_unit=need.points_per_unit if ppu is None else ppu,
        )


_FIELD_TYPES = typing.get_type_hints(RunConfig)  # field name -> annotation


def _out_path(cfg: RunConfig, arg_out: str | None, default_name: str) -> str:
    if arg_out:
        return arg_out
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, default_name)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _parse_number(flag: str, text: str, allow_inf: bool = False) -> float:
    """``text`` as a finite number, or as +inf where ``allow_inf``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isfinite(value) or (allow_inf and value == math.inf):
        return value
    allowed = "a finite number or inf" if allow_inf else "a finite number"
    raise ParameterError(f"{flag} must be {allowed}, got {text!r}")


def _parse_function(
    spec: str, cfg: RunConfig, degree: int | None, quad_order: int | None
) -> hc.HermiteExpansion:
    """Parse ``hermite:<json>`` or ``bump:width,center...`` function specs."""
    if spec.startswith("hermite:"):
        try:
            data = json.loads(spec[len("hermite:") :])
            dim = int(data.get("dim", cfg.dimension))
            coeffs = {tuple(int(a) for a in alpha): float(c) for alpha, c in data["coeffs"]}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"malformed hermite spec: {exc}") from exc
        if dim != cfg.dimension:  # checked before the (degree+1)**dim array is built
            raise ParameterError(f"hermite dim {dim} is not --dimension {cfg.dimension}")
        degree = max((sum(a) for a in coeffs), default=0)
        return hc.HermiteExpansion(dim, degree, coeffs)
    if spec.startswith("bump:"):
        try:
            parts = [float(v) for v in spec[len("bump:") :].split(",")]
        except ValueError as exc:
            raise ParameterError(f"malformed bump spec: {exc}") from exc
        if not all(math.isfinite(v) for v in parts):
            raise ParameterError(f"bump spec has a non-finite value: {spec!r}")
        width = parts[0]
        center = parts[1:] or [0.0]  # smooth_bump repeats one value on every axis
        if degree is None:  # the most that analyze -> synthesize returns unchanged
            degree = min(4 ** (cfg.j_max - 1), 256) if cfg.j_max else 0
        return fs.project_bump(width, center, cfg.dimension, degree, quad_order).expansion
    raise ParameterError(f"function spec must start with 'hermite:' or 'bump:', got {spec!r}")


def cmd_rule(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.n < 1:
        raise ParameterError(f"rule order must be >= 1, got {args.n}")
    rule = quad.product_cubature(args.n, args.d, node_budget=cfg.node_budget)
    path = _out_path(cfg, args.out, f"rule_n{args.n}_d{args.d}.csv")
    if args.d == 1:
        base = rule.base
        rows = _table_rows(
            base.n,
            lambda r: (base.nodes[r], base.gauss_weights[r], base.christoffel_weights[r]),
        )
        _write_csv(path, ["index", "node", "gauss_weight", "christoffel_weight"], rows)
    else:
        text = _axis_text(rule.base.nodes)
        rows = _table_rows(
            rule.node_count,
            lambda r: (*(text[i] for i in rule.axes(r)), rule.weights_at(r)),
        )
        _write_csv(path, ["index", "node_1", "node_2", "weight"], rows)
    print(path)
    return 0


def cmd_frame(args: argparse.Namespace, cfg: RunConfig) -> int:
    frame = cfg.build_frame()
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(
        os.path.join(cfg.output_dir, "run_config.json"), "w", encoding="utf-8"
    ) as fh:
        fh.write(cfg.to_json())
    manifest_path = os.path.join(cfg.output_dir, "frame_manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(frame.manifest(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.cutoff_table:
        ts = np.linspace(0.0, 4.5, 1001)
        for name, cut in (("a", frame.pair.a_hat), ("b", frame.pair.b_hat)):
            vals = cut(ts)
            _write_csv(
                os.path.join(cfg.output_dir, f"cutoff_{name}.csv"),
                ["t", "value"],
                ([_fmt(t), _fmt(v)] for t, v in zip(ts, vals)),
            )
    coord_cols = [f"xi_{i+1}" for i in range(frame.d)]
    tile_cols = [
        name
        for i in range(frame.d)
        for name in (f"tile_lo_{i+1}", f"tile_hi_{i+1}")
    ]
    for level in frame.levels:
        path = os.path.join(cfg.output_dir, f"frame_level_{level.j}.csv")
        nodes, bounds = _axis_text(level.base.nodes), _axis_text(level.interval_bounds)

        def columns(rows, lev=level, nodes=nodes, bounds=bounds):
            axes = lev.axes(rows)
            tiles = (b for i in axes for b in (bounds[i], bounds[i + 1]))
            return [*(nodes[i] for i in axes), lev.weights_at(rows), *tiles]

        _write_csv(
            path,
            ["index"] + coord_cols + ["weight"] + tile_cols,
            _table_rows(level.node_count, columns),
        )
    print(manifest_path)
    return 0


def cmd_decompose(args: argparse.Namespace, cfg: RunConfig) -> int:
    frame = cfg.build_frame()
    f = _parse_function(args.function, cfg, args.degree, args.quad_order)
    coeffs = nf.analyze(f, frame)
    path = _out_path(cfg, args.out, "coefficients.csv")
    coord_cols = [f"xi_{i+1}" for i in range(frame.d)]

    def rows():
        for j in sorted(coeffs.level_values):
            values = coeffs.level_values[j]
            level = frame.levels[j]
            text = _axis_text(level.base.nodes)

            def columns(r):
                return [*(text[i] for i in level.axes(r)), values[r]]

            for row in _table_rows(len(values), columns):
                yield (str(j),) + row

    _write_csv(path, ["level", "node_index"] + coord_cols + ["s_value"], rows())
    print(path)
    return 0


def _read_coefficients(path: str):
    """A coefficient CSV's nonblank rows and its level, node_index, s_value columns."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        lines = [line for line in fh.read().splitlines() if line.strip()]
    try:
        cols = [header.index(name) for name in ("level", "node_index", "s_value")]
    except ValueError as exc:
        raise ParameterError(f"coefficient CSV missing column: {exc}") from exc

    dtype = [("j", np.int64), ("i", np.int64), ("v", float)]

    def parse(rows):
        return np.loadtxt(rows, dtype, delimiter=",", usecols=cols, comments=None, ndmin=1)

    try:  # loadtxt warns on [], so it is not called on it
        table = parse(lines) if lines else np.empty(0, dtype)
    except ValueError:
        for line in lines:  # rows parse independently: name the first that fails
            try:
                parse([line])
            except ValueError:
                raise ParameterError(f"malformed coefficient row {line!r}") from None
    return lines, table["j"], table["i"], table["v"]


def cmd_reconstruct(args: argparse.Namespace, cfg: RunConfig) -> int:
    frame = cfg.build_frame()
    lines, j, i, v = _read_coefficients(args.coeffs)
    counts = np.array([level.node_count for level in frame.levels])
    clipped = np.clip(j, 0, frame.j_max)
    key = (np.cumsum(counts) - counts)[clipped] + i  # one flat index per (level, node)
    repeat = np.ones(len(j), dtype=bool)
    repeat[np.unique(key, return_index=True)[1]] = False
    # checked in this order, so a later check sees only rows that passed the earlier
    for bad, problem in ((~np.isfinite(v), "s_value is not finite"),
                         (clipped != j, f"level outside 0..{frame.j_max}"),
                         ((i < 0) | (i >= counts[clipped]), "node index outside its level"),
                         (repeat, "(level, node_index) appears twice")):
        if bad.any():
            r = int(np.argmax(bad))
            raise ParameterError(
                f"coefficient row {lines[r]!r}, level {j[r]} node {i[r]}: {problem}")
    level_values = {lev: np.zeros(counts[lev]) for lev in np.unique(j).tolist()}
    for lev, values in level_values.items():
        values[i[j == lev]] = v[j == lev]
    coeffs = nf.NeedletCoefficients(frame=frame, level_values=level_values)
    g = nf.synthesize(coeffs, frame)
    path = _out_path(cfg, args.out, "reconstruction.json")
    payload = {
        "dim": g.dim,
        "degree": g.degree,
        "coeffs": [[list(a), c] for a, c in g.coeffs.items()],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")
    print(path)
    return 0


def cmd_norms(args: argparse.Namespace, cfg: RunConfig) -> int:
    alpha = _parse_number("--alpha", args.alpha)
    p = _parse_number("--p", args.p, allow_inf=True)
    q = _parse_number("--q", args.q, allow_inf=True)
    params = fs.SpaceParams(alpha, p, q)
    frame = cfg.build_frame()
    grid = cfg.grid_for(frame)
    f = _parse_function(args.function, cfg, args.degree, args.quad_order)
    kind = args.kind
    if kind == "F":
        value = fs.f_continuous_norm(f, params, frame, grid)
    elif kind == "B":
        value = fs.b_continuous_norm(f, params, frame, grid)
    elif kind == "f":
        value = fs.f_sequence_norm(nf.analyze(f, frame), params, frame, grid)
    elif kind == "b":
        value = fs.b_sequence_norm(nf.analyze(f, frame), params, frame)
    elif kind == "E":
        value = fs.best_approx_error(f, args.approx_n, p, grid).value
    else:  # "A", the last of the --kind choices
        value = fs.approximation_norm(f, alpha, q, p, grid)
    if not math.isfinite(value):
        raise NumericFailureError(f"the {kind} norm is not finite: it is past the double range")
    row = [args.id, _fmt(alpha), args.p, args.q, kind, _fmt(value)]
    line = ",".join(row)
    if args.out:
        _write_csv(args.out, ["function_id", "alpha", "p", "q", "norm_kind", "value"], [row])
    print(line)
    return 0


def cmd_decay(args: argparse.Namespace, cfg: RunConfig) -> int:
    if not 0 <= args.level <= cfg.j_max:
        raise ParameterError(f"level {args.level} outside 0..{cfg.j_max}")
    frame = cfg.build_frame()
    level = frame.levels[args.level]
    node = args.node
    if node is None:  # the central node, (n/2, ..., n/2) on the level's n^d grid
        node = int(np.ravel_multi_index(tuple(s // 2 for s in level.shape), level.shape))
    report = nf.localization_profile(
        frame, args.level, node, args.k, dx_order=args.deriv
    )
    path = _out_path(cfg, args.out, f"decay_j{args.level}_k{args.k}.csv")
    rows = ([_fmt(o), _fmt(v), _fmt(w)] for o, v, w in report.samples)
    _write_csv(path, ["offset", "kernel", "weighted"], rows)
    print(
        f"level={args.level} node={node} k={args.k} deriv={args.deriv} "
        f"inner_max={_fmt(report.inner_max)} tail_max={_fmt(report.tail_max)}"
    )
    return 0


def cmd_shift_study(args: argparse.Namespace, cfg: RunConfig) -> int:
    shifts = [_parse_number("--shifts", s) for s in args.shifts.split(",") if s]
    width = _parse_number("--width", args.width)
    p = _parse_number("--p", args.p, allow_inf=True)
    q = _parse_number("--q", args.q, allow_inf=True)
    params = fs.SpaceParams(_parse_number("--alpha", args.alpha), p, q)
    frame = cfg.build_frame()
    # at p = q = 2 the norms are Parseval sums and need no grid
    grid = None if params.p == params.q == 2.0 else cfg.grid_for(frame)
    rows = fs.shift_study(
        width, shifts, params, frame, grid=grid, degree=args.degree
    )
    if not np.isfinite(rows).all():
        raise NumericFailureError("a norm is not finite: it is past the double range")
    path = _out_path(cfg, args.out, "shift_study.csv")
    _write_csv(
        path,
        ["y", "l2", "bH", "fH"],
        ([_fmt(r.y), _fmt(r.l2), _fmt(r.b_norm), _fmt(r.f_norm)] for r in rows),
    )
    print(path)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(verification.SUITES) if args.suite == "all" else [args.suite]
    results = verification.run_suites(names)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{status} {r.suite}/{r.name}: {r.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


_FLAG_CHOICES = {"dimension": (1, 2), "cutoff": ("quadratic", "dual")}
# the frame fields apart from the dimension, which the d = 1 shift study lacks
_FRAME_FIELDS = ("delta", "j_max", "cutoff", "node_budget")
_GRID_FIELDS = ("grid_radius", "points_per_unit")


def _add_config_flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """``--config`` and a flag for each named field, of the field's type."""
    sub.add_argument("--config", help="JSON config file")
    for name in names:
        kind = typing.get_args(_FIELD_TYPES[name]) or (_FIELD_TYPES[name],)  # X of X | None
        sub.add_argument("--" + name.replace("_", "-"), dest=name, type=kind[0],
                         choices=_FLAG_CHOICES.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermite-needlets",
        description="Hermite needlet frames: rules, decompositions, norms, checks.",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # no prefix matching: --out must not stand for --output-dir
    add_parser = functools.partial(subs.add_parser, allow_abbrev=False)

    sub = add_parser("rule", help="dump a Gauss-Hermite product rule as CSV")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--d", type=int, default=1, choices=(1, 2))
    sub.add_argument("--out")
    _add_config_flags(sub, "node_budget", "output_dir")
    sub.set_defaults(func=cmd_rule)

    sub = add_parser("frame", help="build a frame; write manifest and levels")
    sub.add_argument(
        "--cutoff-table",
        dest="cutoff_table",
        action="store_true",
        help="also tabulate the cutoff pair as t,value CSV files",
    )
    _add_config_flags(sub, "dimension", *_FRAME_FIELDS, "output_dir")
    sub.set_defaults(func=cmd_frame)

    for name, handler in (("decompose", cmd_decompose), ("norms", cmd_norms)):
        sub = add_parser(name)
        sub.add_argument("--function", required=True, help="hermite:<json> or bump:w,c")
        sub.add_argument("--degree", type=int, help="projection degree for bump specs")
        sub.add_argument("--quad-order", dest="quad_order", type=int)
        sub.add_argument("--out")
        extra = _GRID_FIELDS if name == "norms" else ("output_dir",)
        _add_config_flags(sub, "dimension", *_FRAME_FIELDS, *extra)
        if name == "norms":
            sub.add_argument("--alpha", required=True)
            sub.add_argument("--p", required=True)
            sub.add_argument("--q", required=True)
            sub.add_argument(
                "--kind", required=True, choices=("F", "B", "f", "b", "E", "A")
            )
            sub.add_argument("--approx-n", dest="approx_n", type=int, default=0)
            sub.add_argument("--id", default="f0", help="function id for the CSV row")
        sub.set_defaults(func=handler)

    sub = add_parser("reconstruct", help="synthesize from a coefficient CSV")
    sub.add_argument("--coeffs", required=True)
    sub.add_argument("--out")
    _add_config_flags(sub, "dimension", *_FRAME_FIELDS, "output_dir")
    sub.set_defaults(func=cmd_reconstruct)

    sub = add_parser("decay", help="kernel localization profile")
    sub.add_argument("--level", type=int, required=True)
    sub.add_argument("--node", type=int)
    sub.add_argument("--k", type=int, default=6)
    sub.add_argument("--deriv", type=int, default=0, choices=(0, 1))
    sub.add_argument("--out")
    _add_config_flags(sub, "dimension", *_FRAME_FIELDS, "output_dir")
    sub.set_defaults(func=cmd_decay)

    sub = add_parser("shift-study", help="norms of a shifted bump")
    sub.add_argument("--shifts", required=True, help="comma-separated shifts")
    sub.add_argument("--width", default="1.0")
    sub.add_argument("--alpha", default="1.0")
    sub.add_argument("--p", default="2")
    sub.add_argument("--q", default="2")
    sub.add_argument("--degree", type=int)
    sub.add_argument("--out")
    _add_config_flags(sub, *_FRAME_FIELDS, *_GRID_FIELDS, "output_dir")
    sub.set_defaults(func=cmd_shift_study)

    sub = add_parser("verify", help="run the property suite")
    sub.add_argument(
        "--suite",
        default="all",
        choices=tuple(verification.SUITES) + ("all",),
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":  # builds its own frames
            return cmd_verify(args)
        return args.func(args, RunConfig.load(args.config).apply_flags(args))
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except NeedletError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:  # a file missing, unwritable or not text
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:  # json.load reads only the --config file
        print(f"file error: --config {args.config} is not JSON: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

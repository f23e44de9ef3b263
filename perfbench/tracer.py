"""Span tracing from outside the library, by module-attribute wrappers.

``install`` replaces the public functions listed in ``TARGETS`` with
wrappers that record a span (name, start, end, parent, op id) plus a few
work counts while an op is open.  Calls the library makes through module
attributes or module globals are seen; calls between private helpers (for
example ``_rule_cached`` calling ``_zeros_cached``) are not.

``layer_metrics`` turns recorded spans into the per-layer metrics: self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import time

PACKAGE = "hermite_needlets"

# (module, attribute path, span name).  The span name picks the metric
# its self time is added to (see SELF_TIME).
TARGETS = (
    ("quadrature", "gauss_hermite_rule", "gauss_hermite_rule"),
    ("hermite_core", "kernel_diag", "kernel_diag"),
    ("hermite_core", "hermite_values", "hermite_values"),
    ("hermite_core", "weighted_hermite_moments", "weighted_hermite_moments"),
    ("hermite_core", "project_function", "project_function"),
    ("hermite_core", "HermiteExpansion.coeff_array", "coeff_array"),
    ("hermite_core", "HermiteExpansion.from_array", "from_array"),
    ("needlet_frame", "build_frame", "build_frame"),
    ("needlet_frame", "build_level", "build_level"),
    ("needlet_frame", "analyze", "analyze"),
    ("needlet_frame", "synthesize", "synthesize"),
    ("function_spaces", "f_continuous_norm", "f_continuous_norm"),
    ("function_spaces", "b_continuous_norm", "b_continuous_norm"),
    ("function_spaces", "f_sequence_norm", "f_sequence_norm"),
    ("function_spaces", "b_sequence_norm", "b_sequence_norm"),
    ("function_spaces", "shift_study", "shift_study"),
    ("cli", "main", "cli.main"),
)

SELF_TIME = {
    "gauss_hermite_rule": "quadrature.rule_self_s",
    "kernel_diag": "hermite_core.kernel_diag_s",
    "hermite_values": "hermite_core.values_s",
    "weighted_hermite_moments": "hermite_core.moments_s",
    "project_function": "hermite_core.project_self_s",
    "coeff_array": "hermite_core.expansion_convert_s",
    "from_array": "hermite_core.expansion_convert_s",
    "build_frame": "needlet_frame.build_self_s",
    "build_level": "needlet_frame.build_self_s",
    "analyze": "needlet_frame.analyze_self_s",
    "synthesize": "needlet_frame.synthesize_self_s",
    "f_continuous_norm": "function_spaces.continuous_norm_self_s",
    "b_continuous_norm": "function_spaces.continuous_norm_self_s",
    "f_sequence_norm": "function_spaces.sequence_norm_s",
    "b_sequence_norm": "function_spaces.sequence_norm_s",
    "shift_study": "function_spaces.shift_study_self_s",
    "cli.main": "cli.self_s",
}


def _size(points) -> int:
    return int(getattr(points, "size", None) or len(points))


def _node_total(coeffs) -> int:
    return sum(int(v.size) for v in coeffs.level_values.values())


def _grid_points(kind: str):
    """Computed grid size of a continuous norm: axis size**d times levels."""

    def count(a, result) -> int:
        params, grid, f = a["params"], a["grid"], a["f"]
        on_grid = params.p != 2.0 or (kind == "F" and params.q != 2.0)
        if not on_grid or grid is None or result == 0.0:
            return 0
        fs = importlib.import_module(f"{PACKAGE}.function_spaces")
        j_top = a["frame"].j_max if a.get("j_levels") is None else a["j_levels"]
        levels = min(j_top, fs.levels_for_degree(f.degree)) + 1
        return int(grid.axis().size) ** f.dim * levels

    return count


# span name -> (count metric, function of (bound arguments, result))
COUNTS = {
    "hermite_values": (
        "hermite_core.values_point_steps",
        lambda a, r: (a["max_degree"] + 1) * _size(a["points"]),
    ),
    "weighted_hermite_moments": (
        "hermite_core.moments_point_steps",
        lambda a, r: (a["max_degree"] + 1) * _size(a["points"]),
    ),
    "kernel_diag": (
        "hermite_core.kernel_diag_point_steps",
        lambda a, r: (a["n"] + 1) * _size(a["points"]),
    ),
    # added only for rules that were built (see layer_metrics)
    "gauss_hermite_rule": ("quadrature.rule_order_built_sum", lambda a, r: a["n"]),
    "analyze": ("needlet_frame.nodes_evaluated", lambda a, r: _node_total(r)),
    "synthesize": ("needlet_frame.nodes_evaluated", lambda a, r: _node_total(a["coeffs"])),
    "f_continuous_norm": ("function_spaces.grid_points", _grid_points("F")),
    "b_continuous_norm": ("function_spaces.grid_points", _grid_points("B")),
}


class Tracer:
    """Keeps spans in memory; records only while an op is open."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, counts]
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple] = []

    def begin_op(self, op_id) -> None:
        self._op = op_id
        self._stack = [self._open("op")]

    def end_op(self) -> None:
        self.spans[self._stack[0]][2] = time.perf_counter()
        self._stack = []
        self._op = None

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op, {}])
        return len(self.spans) - 1

    def _wrap(self, name, func):
        count = COUNTS.get(name)
        sig = inspect.signature(func) if count else None
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return func(*args, **kwargs)
            idx = tracer._open(name)
            tracer._stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                tracer._stack.pop()
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.spans[idx][5][count[0]] = count[1](bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every target by its wrapper (undone by ``uninstall``)."""
        for mod_name, path, name in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                setattr(owner, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def layer_metrics(spans: list[list], metrics: dict | None = None) -> dict:
    """Accumulate per-layer self times and work counts from spans.

    ``spans`` are the rows kept by ``Tracer``; parents refer to indices in
    the same list.  Rows named ``op`` are roots and contribute no self time.
    """
    m = metrics if metrics is not None else empty_metrics()
    child_time = [0.0] * len(spans)
    has_kernel_child = [False] * len(spans)
    for name, start, end, parent, _op, _c in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "kernel_diag":
                has_kernel_child[parent] = True
    for i, (name, start, end, _parent, _op, counts) in enumerate(spans):
        if name == "op":
            m["trace.root_s"] += end - start
            continue
        m[SELF_TIME[name]] += (end - start) - child_time[i]
        if name == "gauss_hermite_rule":
            m["quadrature.rule_calls"] += 1
            m["quadrature.rules_built"] += int(has_kernel_child[i])
            if not has_kernel_child[i]:
                continue
        for metric, value in counts.items():
            m[metric] += value
    return m


TIME_METRICS = sorted(set(SELF_TIME.values()))
COUNT_METRICS = ("quadrature.rule_calls", "quadrature.rules_built") + tuple(
    sorted({metric for metric, _ in COUNTS.values()}))


def empty_metrics() -> dict:
    m = {name: 0.0 for name in TIME_METRICS}
    m.update({name: 0 for name in COUNT_METRICS})
    m["trace.root_s"] = 0.0
    return m

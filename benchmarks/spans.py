"""Spans around aircomp's public functions, recorded from outside the package.

A :class:`Tracer` replaces each function listed in :data:`TRACED` in every
aircomp module namespace that holds it by name (so calls between modules
are seen too), and puts the originals back when the traced block ends.  A
wrapper records a span only while an op's root span is open; calls the
benchmark makes for its own checks stay unrecorded.  Spans are kept in
memory and reduced to per-op sums when each op ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# defining module -> public functions that get a span
TRACED = {
    "evaluation": ("estimate_mse", "compare_policies", "sweep", "run_trial", "grid_oracle"),
    "rng": ("make_rng",),
    "estimator": (
        "gain_statistics",
        "beta_grid_oracle",
        "beta_heuristic",
        "beta_heuristic_equal",
        "beta_equal_optimal",
        "beta_benchmark",
    ),
    "geometry": ("deploy_sensors", "plan_diameter_trajectory"),
    "channel": ("effective_gain_matrix",),
    "protocol": ("sampling_phase", "computation_phase", "draw_sensor_data", "estimate"),
    "nomographic": ("target_value", "target_sum_cross_moment", "target_second_moment"),
    "cli": ("main",),
}
ROOT = "bench.op"
LAYERS = ("bench", *TRACED)
OBJECTIVE_CALLS = "estimator.beta_grid_oracle.objective_calls"
KEEP_OPS = 200  # ops whose raw spans are kept for the spans file; every op is summarized


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``spans`` is a sequence of ``(name, start, end, parent)`` with
    ``parent`` the index of the enclosing span or ``None``.  One thread
    runs the op, so children never overlap and their durations add up.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def nesting_errors(spans) -> list[str]:
    """Spans that do not lie inside their parent's interval."""
    errors = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            errors.append(f"span {i} {name} ends before it starts")
        if parent is not None:
            _, p_start, p_end, _ = spans[parent]
            if not (parent < i and p_start <= start and end <= p_end):
                errors.append(f"span {i} {name} escapes its parent {parent}")
    return errors


def summarize(spans, counts) -> tuple[dict[str, float], list[str]]:
    """Per-op sums: calls and inclusive time per function, self time per layer.

    Returns the sums and a list of errors: bad nesting, or a root span
    that differs from the sum of the self times beneath it.
    """
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name in span_names():
        out[f"{name}.calls"] = 0
        out[f"{name}.time_s"] = 0.0
    out[OBJECTIVE_CALLS] = 0
    out.update(counts)
    own = self_times(spans)
    for (name, start, end, _), self_s in zip(spans, own):
        out[f"{name.split('.')[0]}.self_s"] += self_s
        if name != ROOT:
            out[f"{name}.calls"] += 1
            out[f"{name}.time_s"] += end - start
    errors = nesting_errors(spans)
    roots = [i for i, span in enumerate(spans) if span[3] is None]
    if len(roots) != 1:
        errors.append(f"{len(roots)} root spans in one op")
    else:
        _, start, end, _ = spans[roots[0]]
        total = sum(own)
        if abs((end - start) - total) > 1e-9 * max(1.0, end - start):
            errors.append(f"root span {end - start!r} s differs from summed self times {total!r} s")
    return out, errors


class Tracer:
    """Records spans of the calls each op makes into aircomp, summed into :attr:`totals`."""

    def __init__(self):
        self.ops = 0
        self.totals: dict[str, float] = {}
        self.errors: list[str] = []
        self.kept: list[tuple] = []
        self._spans: list[list] = []
        self._counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str) -> None:
        if self._stack:
            self._counts[name] = self._counts.get(name, 0) + 1

    @contextmanager
    def op(self, op_id: int):
        """Open the root span of one op; summarize its spans when it closes."""
        self._spans, self._counts = [], {}
        with self._span(ROOT):
            yield
        summary, errors = summarize([tuple(s) for s in self._spans], self._counts)
        for key, value in summary.items():
            self.totals[key] = self.totals.get(key, 0) + value
        self.ops += 1
        self.errors.extend(f"op {op_id}: {e}" for e in errors)
        if self.ops <= KEEP_OPS:
            self.kept.extend((op_id, *s) for s in self._spans)

    @contextmanager
    def _span(self, name: str):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
        self._spans.append(span)
        self._stack.append(len(self._spans) - 1)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            if name == "estimator.beta_grid_oracle":
                args = (self._counting(args[0]), *args[1:])
            with self._span(name):
                return fn(*args, **kwargs)

        return traced

    def _counting(self, objective):
        def counted(b):
            self.count(OBJECTIVE_CALLS)
            return objective(b)

        return counted

    @contextmanager
    def installed(self):
        """Replace the traced functions in every loaded aircomp module, then restore them."""
        homes = {module: importlib.import_module(f"aircomp.{module}") for module in TRACED}
        modules = [m for key, m in list(sys.modules.items()) if key == "aircomp" or key.startswith("aircomp.")]
        replaced = []
        try:
            for module, fns in TRACED.items():
                home = homes[module]
                for fn_name in fns:
                    original = getattr(home, fn_name)
                    wrapper = self._wrap(f"{module}.{fn_name}", original)
                    for m in modules:
                        if m.__dict__.get(fn_name) is original:
                            setattr(m, fn_name, wrapper)
                            replaced.append((m, fn_name, original))
            yield
        finally:
            for m, fn_name, original in reversed(replaced):
                setattr(m, fn_name, original)

"""Spans around the calls into each sliphop layer, recorded from outside.

A ``Tracer`` replaces module attributes (``harness.return_map_numeric``,
``simulate.integrate_stance``, ...) with wrappers that record one span
per call: name, start, end, parent span and group. All spans of one
grid cell or one hop share a group. Spans stay in memory; ``__exit__``
puts every original attribute back, so code run outside the ``with``
block is untraced. ``src/`` is not modified.

``layer_metrics`` turns the spans of one workload repeat into the
per-layer counts and self times the benchmark reports. A span's self
time is its duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field, fields
from types import ModuleType
from typing import Any, Callable

import numpy as np

from sliphop import analytic, fixedpoint, harness, simulate

SIM = "sim"
ANALYTIC = "analytic"
PIPELINE_KEY = {fixedpoint.SIMULATOR_NUMERIC: SIM,
                fixedpoint.ANALYTIC_NUMERIC: ANALYTIC}
MAP_SPANS = ("simulate.return_map_numeric", "analytic.return_map_analytic")
FAILURE_PHASES = ("aoa", "descent", "touchdown", "stance", "ascent")
# Newton solves needed before a tail percentile has ten samples beyond it.
TAIL_BEYOND = 10


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    group: tuple | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- what gets wrapped -------------------------------------------------------

def _cell_of_closed_form(args, kwargs):
    return ("cell", args[0], args[1])


def _cell_of_newton(args, kwargs):
    inputs = args[2]
    return ("cell", inputs.p_bar, inputs.k_theta)


def _hop_of_map(args, kwargs):
    return ("hop", kwargs.get("t0", 0.0))


def _stance_info(args, kwargs, result):
    td = args[0]
    info = {"numpy_scalar": any(isinstance(getattr(td, f.name), np.generic)
                                for f in fields(td))}
    if result is not None:
        dt = kwargs.get("dt", simulate.DEFAULT_DT)
        info["steps"] = math.ceil(result[1].t_liftoff / dt)
    return info


def _newton_info(args, kwargs, result):
    info = {"pipeline": PIPELINE_KEY.get(kwargs.get("provenance"), ANALYTIC)}
    if result is not None:
        info["newton_steps"] = result.newton_steps
    return info


@dataclass(frozen=True)
class Target:
    module: ModuleType
    attr: str
    name: str
    # (args, kwargs) -> group, for spans without a grouped parent
    group_of: Callable[[tuple, dict], tuple] | None = None
    # (args, kwargs, result or None) -> span info
    info_of: Callable[[tuple, dict, Any], dict] | None = None


TARGETS = (
    Target(harness, "run_sweep", "harness.run_sweep"),
    Target(harness, "run_single", "harness.run_single"),
    Target(harness, "write_sweep_outputs", "harness.write_sweep_outputs"),
    Target(harness, "write_trajectory_csv", "simulate.write_trajectory_csv"),
    Target(harness, "return_map_numeric", "simulate.return_map_numeric",
           group_of=_hop_of_map),
    Target(simulate, "integrate_stance", "simulate.integrate_stance",
           info_of=_stance_info),
    Target(simulate, "solve_aoa_implicit", "control.solve_aoa_implicit"),
    Target(analytic, "solve_aoa_approx", "control.solve_aoa_approx"),
    Target(fixedpoint, "return_map_analytic", "analytic.return_map_analytic"),
    Target(fixedpoint, "simplified_map_constants",
           "analytic.simplified_map_constants"),
    Target(fixedpoint, "closed_form_fixed_point",
           "fixedpoint.closed_form_fixed_point",
           group_of=_cell_of_closed_form),
    Target(fixedpoint, "numeric_fixed_point",
           "fixedpoint.numeric_fixed_point", group_of=_cell_of_newton,
           info_of=_newton_info),
)


class Tracer:
    """Context manager that wraps every target while the block runs."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[ModuleType, str, Callable]] = []

    def __enter__(self) -> "Tracer":
        for t in TARGETS:
            original = getattr(t.module, t.attr)
            self._saved.append((t.module, t.attr, original))
            setattr(t.module, t.attr, self._wrap(original, t))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, target: Target):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent.group is not None:
                group = parent.group
            elif target.group_of is not None:
                group = target.group_of(args, kwargs)
            else:
                group = None
            span = Span(len(spans), target.name,
                        None if parent is None else parent.id, group)
            spans.append(span)
            stack.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if target.info_of is not None:
                    span.info = target.info_of(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced


# --- arithmetic on spans -----------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum (100) when there are too
    few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    i = n - TAIL_BEYOND - 1
    return xs[i], 100.0 * (i + 1) / n


def failure_counts(statuses: list[str]) -> dict[str, int]:
    """Failed operations by phase; "untagged" holds Newton failures that
    carry no phase, "no_seed" cells without a seed."""
    counts = {"total": 0, **{p: 0 for p in FAILURE_PHASES},
              "untagged": 0, "no_seed": 0}
    for status in statuses:
        if status == "converged":
            continue
        counts["total"] += 1
        if status == "NoSeed":
            counts["no_seed"] += 1
        elif "@" in status and status.split("@", 1)[1] in FAILURE_PHASES:
            counts[status.split("@", 1)[1]] += 1
        else:
            counts["untagged"] += 1
    return counts


def layer_metrics(spans: list[Span], numeric_cells: int) -> dict[str, float]:
    """Per-layer counts and self times of one workload repeat.

    Newton solve durations are returned separately by ``solve_ms`` so
    that the percentiles can pool every traced repeat.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for s, st in zip(spans, selfs):
        calls[s.name] += 1
        self_s[s.name] += st
    m: dict[str, float] = {}
    for name in ("simulate.integrate_stance", "simulate.return_map_numeric",
                 "control.solve_aoa_implicit", "control.solve_aoa_approx",
                 "analytic.return_map_analytic",
                 "analytic.simplified_map_constants",
                 "fixedpoint.closed_form_fixed_point"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in ("simulate.write_trajectory_csv",
                 "fixedpoint.numeric_fixed_point", "harness.run_sweep",
                 "harness.write_sweep_outputs", "harness.run_single"):
        m[f"{name}.self_s"] = self_s[name]

    stance = [s for s in spans if s.name == "simulate.integrate_stance"]
    steps = sum(s.info.get("steps", 0) for s in stance)
    m["simulate.stance_steps"] = steps
    m["simulate.ns_per_stance_step"] = (
        1e9 * self_s["simulate.integrate_stance"] / steps if steps else 0.0)
    m["simulate.stance_numpy_scalar_frac"] = (
        sum(s.info["numpy_scalar"] for s in stance) / len(stance)
        if stance else 0.0)

    solves = [s for s in spans if s.name == "fixedpoint.numeric_fixed_point"]
    evals: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.name in MAP_SPANS and s.parent is not None:
            evals[s.parent] += 1
    for key in (SIM, ANALYTIC):
        mine = [s for s in solves if s.info["pipeline"] == key]
        done = [s.info["newton_steps"] for s in mine
                if "newton_steps" in s.info]
        m[f"fixedpoint.map_evals_per_solve.{key}"] = (
            sum(evals[s.id] for s in mine) / len(mine) if mine else 0.0)
        m[f"fixedpoint.newton_steps_per_solve.{key}"] = (
            sum(done) / len(done) if done else 0.0)
    m["harness.solves_per_cell"] = (
        len(solves) / numeric_cells if numeric_cells else 0.0)
    return m


def solve_ms(spans: list[Span]) -> dict[str, list[float]]:
    """Newton solve durations in ms, by pipeline."""
    out: dict[str, list[float]] = {SIM: [], ANALYTIC: []}
    for s in spans:
        if s.name == "fixedpoint.numeric_fixed_point":
            out[s.info["pipeline"]].append(1e3 * s.duration)
    return out


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready dicts, times relative to the first span."""
    t0 = min((s.start for s in spans), default=0.0)
    return [{"id": s.id, "name": s.name, "parent": s.parent,
             "group": list(s.group) if s.group else None,
             "start_s": s.start - t0, "end_s": s.end - t0, **s.info}
            for s in spans]

"""In-memory span recorder and the per-layer metrics computed from its spans.

The traced run wraps public gridstash functions from the outside: every
``gridstash.*`` module attribute bound to the original function object is
replaced, so the wrapper is hit whichever name a caller resolves (``cli``
imports ``fit_estimator`` by name, ``gmm.fit_candidates`` looks ``em_fit`` up
in its own globals, ``heuristics`` calls ``gmm.select_model``). Nothing under
``src/`` is edited. A function that no longer exists is not wrapped, and
every metric derived from it is reported absent rather than as 0.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    """One call of a wrapped function. ``parent`` is the enclosing span's id."""

    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that direct children cover.

    Children are clipped to the parent's interval and merged first, so
    overlapping or out-of-range children are never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(span.id, ())):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result


class Tracer:
    """Records a span per call of each wrapped function; undo restores them."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.wrapped: set[str] = set()
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, module: str, attr: str, name: str, counts=None) -> bool:
        """Wrap ``module.attr`` at every gridstash module attribute bound to it.

        ``counts(result)`` runs after the span closes and returns counters to
        attach to it. Returns False when the function does not exist.
        """
        original = getattr(sys.modules.get(module), attr, None)
        if not callable(original):
            return False
        traced = self._traced(original, name, counts)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gridstash" and not mod_name.startswith("gridstash."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._patches.append((mod, key, original))
        self.wrapped.add(name)
        return True

    def _traced(self, original, name: str, counts):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, parent)
            self.spans.append(span)
            self._stack.append(span)
            span.start = self.clock()
            try:
                result = original(*args, **kwargs)
            except Exception:
                span.error = True
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            if counts is not None:
                # a return value reshaped by a refactor leaves its counts absent
                with contextlib.suppress(AttributeError, TypeError):
                    span.counts = counts(result)
            return result

        return traced

    def undo(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()


def _em_counts(report) -> dict:
    k = report.model.n_components
    return {
        "passes": report.iterations,
        "converged": int(report.converged),
        "cells": report.n_samples * k * report.iterations,
    }


def _run_policy_counts(result) -> dict:
    records = result.records
    return {"pieces": len(records), "forced": sum(1 for r in records if r.forced)}


# span names
_EM = "gmm.em_fit"
_RUN = "policy.run_policy"
_THRESH = "policy.compute_thresholds"
_DECOMP = "decomposition.decompose"
_OFFLINE = "evaluation.offline_optimal_general"
_CURVE = "sizing.min_cost_curve"
_FIT = "heuristics.fit_estimator"
_PARSE = ("data_io.load_price_trace", "data_io.load_load_trace")

# (defining module, function, span name, counters read from the return value)
TARGETS = (
    ("gridstash.cli", "main", "cli.main", None),
    ("gridstash.data_io", "load_price_trace", _PARSE[0], lambda t: {"rows": len(t)}),
    ("gridstash.data_io", "load_load_trace", _PARSE[1], lambda t: {"rows": len(t)}),
    ("gridstash.heuristics", "fit_estimator", _FIT, lambda e: {"submodels": len(e.models)}),
    ("gridstash.gmm", "select_model", "gmm.select_model", None),
    ("gridstash.gmm", "em_fit", _EM, _em_counts),
    ("gridstash.evaluation", "daily_cost_ratios", "evaluation.daily_cost_ratios", None),
    ("gridstash.policy", "run_policy", _RUN, _run_policy_counts),
    ("gridstash.policy", "compute_thresholds_timevarying", _THRESH, None),
    ("gridstash.decomposition", "decompose", _DECOMP, lambda p: {"pieces": len(p)}),
    ("gridstash.decomposition", "schedule_from_assignments", "decomposition.assign", None),
    ("gridstash.decomposition", "verify_feasible", "decomposition.verify", None),
    ("gridstash.evaluation", "offline_optimal_general", _OFFLINE, None),
    ("gridstash.sizing", "min_cost_curve", _CURVE, lambda c: {"grid_points": len(c.capacities)}),
)


class _Spans:
    """Sums over the recorded spans by span name; KeyError for a name never wrapped."""

    def __init__(self, spans: list[Span], wrapped: set[str]) -> None:
        self.spans = spans
        self.wrapped = wrapped
        self.self_s = self_times(spans)

    def of(self, name: str) -> list[Span]:
        if name not in self.wrapped:
            raise KeyError(name)
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.of(name))

    def self_total(self, name: str) -> float:
        return sum(self.self_s[s.id] for s in self.of(name))

    def calls(self, name: str) -> int:
        return len(self.of(name))

    def failed(self, name: str) -> int:
        return sum(1 for s in self.of(name) if s.error)

    def count(self, name: str, key: str) -> int:
        """Sum of one counter over the calls that returned; KeyError if one lacks it."""
        return sum(s.counts[key] for s in self.of(name) if not s.error)


def _ratio(num: float, den: float) -> float:
    # a layer that did no work in this workload reads 0, not NaN
    return num / den if den else 0.0


# metric name -> (unit, function of _Spans)
LAYER_METRICS = {
    "gmm.em_s": ("s", lambda sp: sp.total(_EM)),
    "gmm.em_fits": ("count", lambda sp: sp.calls(_EM)),
    "gmm.em_passes": ("count", lambda sp: sp.count(_EM, "passes")),
    "gmm.em_capped": ("count",
                      lambda sp: sp.calls(_EM) - sp.failed(_EM) - sp.count(_EM, "converged")),
    "gmm.em_failed": ("count", lambda sp: sp.failed(_EM)),
    "gmm.converged_frac": ("fraction", lambda sp: _ratio(sp.count(_EM, "converged"),
                                                         sp.calls(_EM) - sp.failed(_EM))),
    "gmm.us_per_pass": ("us", lambda sp: 1e6 * _ratio(sp.total(_EM), sp.count(_EM, "passes"))),
    "gmm.ns_per_cell": ("ns", lambda sp: 1e9 * _ratio(sp.total(_EM), sp.count(_EM, "cells"))),
    "gmm.select_self_s": ("s", lambda sp: sp.self_total("gmm.select_model")),
    "heuristics.fit_estimator_s": ("s", lambda sp: sp.total(_FIT)),
    "heuristics.self_s": ("s", lambda sp: sp.self_total(_FIT)),
    "heuristics.submodels": ("count", lambda sp: sp.count(_FIT, "submodels")),
    "policy.run_policy_self_s": ("s", lambda sp: sp.self_total(_RUN)),
    "policy.thresholds_s": ("s", lambda sp: sp.total(_THRESH)),
    "policy.schedules": ("count", lambda sp: sp.calls(_THRESH)),
    "policy.pieces_served": ("count", lambda sp: sp.count(_RUN, "pieces")),
    "policy.forced_frac": ("fraction",
                           lambda sp: _ratio(sp.count(_RUN, "forced"), sp.count(_RUN, "pieces"))),
    "decomposition.decompose_s": ("s", lambda sp: sp.total(_DECOMP)),
    "decomposition.calls": ("count", lambda sp: sp.calls(_DECOMP)),
    "decomposition.pieces": ("count", lambda sp: sp.count(_DECOMP, "pieces")),
    "decomposition.assign_s": ("s", lambda sp: sp.total("decomposition.assign")),
    "decomposition.verify_s": ("s", lambda sp: sp.total("decomposition.verify")),
    "evaluation.daily_ratios_self_s": ("s", lambda sp: sp.self_total("evaluation.daily_cost_ratios")),
    "evaluation.offline_s": ("s", lambda sp: sp.total(_OFFLINE)),
    "evaluation.offline_self_s": ("s", lambda sp: sp.self_total(_OFFLINE)),
    "evaluation.offline_calls": ("count", lambda sp: sp.calls(_OFFLINE)),
    "sizing.curve_s": ("s", lambda sp: sp.total(_CURVE)),
    "sizing.self_s": ("s", lambda sp: sp.self_total(_CURVE)),
    "sizing.grid_points": ("count", lambda sp: sp.count(_CURVE, "grid_points")),
    "data_io.parse_s": ("s", lambda sp: sum(sp.total(n) for n in _PARSE)),
    "data_io.rows": ("count", lambda sp: sum(sp.count(n, "rows") for n in _PARSE)),
    "cli.self_s": ("s", lambda sp: sp.self_total("cli.main")),
}


def layer_metrics(spans: list[Span], wrapped: set[str]) -> dict[str, float]:
    """Every LAYER_METRICS value whose spans and counters could all be recorded."""
    sp = _Spans(spans, wrapped)
    values = {}
    for name, (_unit, fn) in LAYER_METRICS.items():
        with contextlib.suppress(KeyError):
            values[name] = fn(sp)
    return values


def check_nesting(spans: list[Span]) -> list[str]:
    """Problems with the span tree: a child's self time above its parent's duration."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    problems = []
    for span in spans:
        if span.parent is not None and selfs[span.id] > by_id[span.parent].duration:
            problems.append(f"span {span.id} {span.name} self time exceeds its parent's duration")
        if selfs[span.id] < 0:
            problems.append(f"span {span.id} {span.name} has negative self time")
    return problems


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]

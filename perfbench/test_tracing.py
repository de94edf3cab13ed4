"""Unit tests of the span arithmetic; run with ``python3 -m pytest perfbench``
or as part of ``python3 perfbench/run.py --smoke``."""

from __future__ import annotations

import sys
import types

from run import _importtime_tree
from tracing import Span, Tracer, check_nesting, layer_metrics, self_times


def _span(id_, parent, start, end, name="x"):
    return Span(id_, name, parent, start, end)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),  # grandchild: already inside span 1
        _span(3, 0, 6.0, 7.5),
    ]
    got = self_times(spans)
    assert got == {0: 10.0 - 3.0 - 1.5, 1: 3.0 - 1.0, 2: 1.0, 3: 1.5}
    assert check_nesting(spans) == []


def test_self_time_merges_overlapping_and_clips_outside_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 2.0, 5.0),
        _span(2, 0, 4.0, 6.0),  # overlaps span 1 by one unit
        _span(3, 0, 9.0, 12.0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == 10.0 - 4.0 - 1.0


def test_tracer_wraps_every_binding_and_records_nesting():
    ticks = iter(range(100))
    mod = types.ModuleType("gridstash._bench_probe")
    user = types.ModuleType("gridstash._bench_user")

    def inner(n):
        return list(range(n))

    def outer():
        return mod.inner(3)

    mod.inner, mod.outer = inner, outer
    user.inner = inner  # a caller that imported the name directly
    sys.modules[mod.__name__], sys.modules[user.__name__] = mod, user
    try:
        tracer = Tracer(clock=lambda: float(next(ticks)))
        assert tracer.wrap(mod.__name__, "outer", "probe.outer")
        assert tracer.wrap(mod.__name__, "inner", "probe.inner", lambda r: {"n": len(r)})
        assert not tracer.wrap(mod.__name__, "gone", "probe.gone")
        assert mod.outer() == [0, 1, 2]
        assert user.inner(2) == [0, 1]
        tracer.undo()
        assert mod.inner is inner and user.inner is inner
    finally:
        del sys.modules[mod.__name__], sys.modules[user.__name__]
    outer_span, nested, direct = tracer.spans
    assert (outer_span.parent, nested.parent, direct.parent) == (None, 0, None)
    assert (nested.counts, direct.counts) == ({"n": 3}, {"n": 2})
    assert self_times(tracer.spans)[0] == outer_span.duration - nested.duration
    assert tracer.wrapped == {"probe.outer", "probe.inner"}


def test_metrics_of_a_missing_function_or_counter_are_absent_not_zero():
    spans = [Span(0, "cli.main", None, 0.0, 2.0), Span(1, "policy.run_policy", 0, 0.5, 1.5)]
    got = layer_metrics(spans, {"cli.main", "policy.run_policy"})
    # run_policy returned nothing countable, so its piece counts are absent too
    assert got == {"cli.self_s": 1.0, "policy.run_policy_self_s": 1.0}


def test_importtime_counts_outermost_package_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |     numpy",
        "import time:       400 |        750 |   gridstash.gmm",
        "import time:        10 |        760 | gridstash",
        "import time:        40 |         40 | gridstash.cli",
        "import time:        70 |         70 | scipy.special",
    ])
    assert _importtime_tree(stderr) == (800e-6, 370e-6)

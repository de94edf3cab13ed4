"""Every function the benchmark tracer wraps still exists.

perfbench/tracing.py wraps gridstash functions by (module, attribute); a
deleted or renamed one is silently skipped there and its per-layer metrics
go absent. This reads the TARGETS table and checks each entry resolves.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module}.{attr}"
        for module, attr, _name, _counts in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []

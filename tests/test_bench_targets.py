"""Every function the benchmark tracer wraps still exists, and is loaded.

perfbench/tracing.py wraps gridstash functions by (module, attribute); a
deleted or renamed one is silently skipped there and its per-layer metrics
go absent. This reads the TARGETS table and checks each entry resolves.

The tracer also wraps only modules that are already in ``sys.modules`` once
``import gridstash.cli`` has run, so a module that ``cli`` imports inside a
command function drops its metrics from a traced run's result line, while
the run still exits 0. The fresh-interpreter test below guards that. It goes
when the benchmark reads the run's own stage timings instead of wrapping
module attributes (ROADMAP, "Let the benchmark read --timings").
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    return tracing


def test_every_traced_target_resolves_to_a_callable(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    missing = [
        f"{module}.{attr}"
        for module, attr, _name, _counts in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_importing_the_cli_loads_every_traced_module(monkeypatch):
    # a fresh interpreter: this test process has imported every module already
    targets = {module for module, _attr, _name, _counts in _load_tracing(monkeypatch).TARGETS}
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys, gridstash.cli; print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert sorted(targets - set(json.loads(done.stdout))) == []

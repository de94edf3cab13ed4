"""Seeded end-to-end and per-layer benchmark of the gridstash CLI.

Run from the repository root:

    python3 perfbench/run.py --workload size-year --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55
    python3 perfbench/run.py --smoke

``--trace 0`` is a closed loop of fresh ``gridstash`` CLI processes, one at a
time, for ``--seconds`` seconds (at least two runs) and reports the end-to-end
metrics as medians over the run. Each CLI run is preceded by one fresh
``import gridstash.cli`` for ``setup_s``, so both sample the same stretch of
machine time. ``--trace 1`` runs the same command in-process, alternating
untraced and traced calls of ``gridstash.cli.main``, and reports the per-layer
metrics from the spans (see tracing.py). ``--smoke`` runs every workload on
tiny inputs, checks every metric named in BENCHMARK.json is emitted with its
unit, and runs the span unit tests.

BENCHMARK.json lists two of the four workloads in workloads.py; the other two
(backtest-single-fit, backtest-serve) still run by name, for a look at the EM
and serving trades they load.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Exit code 0 when every output check passed, 1 when one
failed, 2 when the benchmark cannot run (no ``src/gridstash`` here).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from tracing import LAYER_METRICS, TARGETS, Tracer, check_nesting, layer_metrics, spans_to_json
from workloads import WORKLOADS, beta_mean, check_outputs, cli_args, sha256_files, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 7
# two CLI runs at least, so even the slowest workload repeats its outputs once
MIN_RUNS = 2
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
# no run starts once it could carry the whole benchmark process past this
RUN_BUDGET_S = 160.0
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def timed_child(argv: list[str], log: Path, timeout: float = CHILD_TIMEOUT_S):
    """(seconds from spawn to exit, exit code, peak RSS in MB) of one fresh process.

    A child that outlives ``timeout`` is killed and reads as a failed run.
    """
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=sink, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def setup_times(work: Path, samples: int) -> list[float]:
    """Spawn-to-exit seconds of a fresh interpreter importing gridstash.cli."""
    argv = [sys.executable, "-c", "import gridstash.cli"]
    times = []
    for _ in range(samples):
        elapsed, code, _ = timed_child(argv, work / "setup.log")
        if code != 0:
            raise RuntimeError(f"import gridstash.cli failed: {(work / 'setup.log').read_text()}")
        times.append(elapsed)
    return times


def _importtime_tree(stderr: str) -> tuple[float, float]:
    """(gridstash, scipy) cumulative import seconds from ``-X importtime`` output.

    The output is post-order, so reading it backwards visits each parent
    before its children; only the outermost entry of each package counts.
    """
    rows = []
    for line in stderr.splitlines():
        match = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)", line)
        if match:
            rows.append((len(match.group(3)) // 2, int(match.group(2)), match.group(4)))
    totals = {"gridstash": 0, "scipy": 0}
    stack: list[tuple[int, str | None]] = []
    for depth, cumulative_us, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = stack[-1][1] if stack else None
        package = name.split(".")[0]
        if package in totals and inside != package:
            totals[package] += cumulative_us
        stack.append((depth, package if package in totals else inside))
    return totals["gridstash"] / 1e6, totals["scipy"] / 1e6


def import_times(samples: int) -> tuple[float, float]:
    runs = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import gridstash.cli"],
            env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import gridstash.cli failed: {proc.stderr}")
        runs.append(_importtime_tree(proc.stderr))
    return (statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs))


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
    modules = sorted((SRC / "gridstash").glob("*.py"))
    lines = {p.stem: len(p.read_text(encoding="utf-8").splitlines()) for p in modules}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "src_sha256": source_digest(),
        "src_lines": {"total": sum(lines.values()), **lines},
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridstash").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


class OutputLedger:
    """Hashes of the reproducible outputs, which must repeat byte for byte.

    The reference is kept per workload and seed in the work directory, so it
    also spans separate benchmark runs of the same source and inputs.
    """

    def __init__(self, path: Path, args: list[str], inputs: dict[str, str]) -> None:
        self.path = path
        self.key = {"src": source_digest(), "args": args, "inputs": inputs}
        self.reference = None
        with contextlib.suppress(OSError, ValueError, KeyError):
            doc = json.loads(path.read_text(encoding="utf-8"))
            if doc["key"] == self.key:
                self.reference = doc["outputs"]

    def check(self, hashes: dict[str, str]) -> list[str]:
        if self.reference is None:
            self.reference = hashes
            self.path.write_text(json.dumps({"key": self.key, "outputs": hashes}, indent=1))
            return []
        if hashes != self.reference:
            moved = sorted(k for k in hashes.keys() | self.reference.keys()
                           if hashes.get(k) != self.reference.get(k))
            return [f"reproducible outputs differ from an earlier run: {', '.join(moved)}"]
        return []


def prepare(workload, seed: int, smoke: bool):
    work = WORK / ("smoke" if smoke else "full") / workload.name / f"seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    inputs = write_inputs(workload, seed, smoke, work)
    input_hashes = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in inputs.items()}
    ledger = OutputLedger(work / "outputs.json", workload.arguments(smoke), input_hashes)
    return work, inputs, input_hashes, ledger


def run_end_to_end(workload, seed: int, seconds: float, smoke: bool) -> dict:
    t_begin = time.perf_counter()
    work, inputs, input_hashes, ledger = prepare(workload, seed, smoke)
    # warm-up: byte-compile and page in the modules before anything is timed
    setup_times(work, 1)
    out = work / "out-cli"
    argv = [sys.executable, "-m", "gridstash.cli", *cli_args(workload, inputs, out, smoke)]
    setup, walls, rss, runs, problems = [], [], [], [], []
    beta = None
    deadline = time.perf_counter() + seconds
    while True:
        # one setup sample next to each CLI run, so both see the same machine state
        setup += setup_times(work, 1)
        shutil.rmtree(out, ignore_errors=True)
        elapsed, code, peak = timed_child(argv, work / "cli.log")
        if code != 0:
            found = [f"exit code {code}: {(work / 'cli.log').read_text(errors='replace')[-400:]}"]
            hashes = {}
        else:
            found = check_outputs(workload, out)
            hashes = sha256_files(out)
            found += ledger.check(hashes)
            if not found and beta is None:
                beta = beta_mean(workload, out)
        shutil.rmtree(out, ignore_errors=True)
        walls.append(elapsed)
        rss.append(peak)
        runs.append({"wall_s": elapsed, "peak_rss_mb": peak, "exit": code, "problems": found,
                     "outputs_sha256": hashes})
        problems += found
        # stop before a run that would end past the deadline
        now = time.perf_counter()
        if now - t_begin + max(walls) + max(setup) > RUN_BUDGET_S:
            break
        if len(walls) >= MIN_RUNS and now + statistics.median(walls) + statistics.median(setup) > deadline:
            break
    if not smoke and len(setup) < SETUP_SAMPLES:
        setup += setup_times(work, SETUP_SAMPLES - len(setup))
    failed = sum(1 for r in runs if r["problems"])
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_frac": (1.0 - failed / len(runs), "fraction"),
    }
    if beta is not None:
        metrics["beta_mean"] = (beta, "ratio")
    details = {
        "wall_s": summarize(walls),
        "setup_s": summarize(setup),
        "peak_rss_mb": summarize(rss),
        "runs": runs,
        "inputs_sha256": input_hashes,
    }
    return finish(workload, seed, 0, work, metrics, len(runs), failed, problems, details)


def run_traced(workload, seed: int, seconds: float, smoke: bool) -> dict:
    t_begin = time.perf_counter()
    work, inputs, input_hashes, ledger = prepare(workload, seed, smoke)
    import gridstash.cli as cli

    problems: list[str] = []
    plain, traced, layers = [], [], []
    attempted = failed = 0
    spans = []
    deadline = min(time.perf_counter() + seconds, t_begin + RUN_BUDGET_S)
    # stop before a pair of calls that would end past the deadline
    while not traced or time.perf_counter() + max(plain) + max(traced) < deadline:
        # alternate which side runs first so warm-up cost does not favour one
        for mode in ("plain", "traced")[:: 1 if len(traced) % 2 == 0 else -1]:
            out = work / f"out-{mode}"
            shutil.rmtree(out, ignore_errors=True)
            tracer = Tracer()
            if mode == "traced":
                for target in TARGETS:
                    tracer.wrap(*target)
            gc.collect()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(cli_args(workload, inputs, out, smoke))
            except Exception:  # an escaped error fails this run, not the benchmark
                code = traceback.format_exc(limit=-3)
            finally:
                tracer.undo()
            elapsed = time.perf_counter() - t0
            attempted += 1
            found = [f"run failed: {code}"] if code != 0 else check_outputs(workload, out)
            if code == 0:
                found += ledger.check(sha256_files(out))
                output_bytes = sum(p.stat().st_size for p in out.iterdir())
            shutil.rmtree(out, ignore_errors=True)
            if mode == "plain":
                plain.append(elapsed)
            else:
                traced.append(elapsed)
                spans = tracer.spans
                found += check_nesting(spans)
                values = layer_metrics(spans, tracer.wrapped)
                if code == 0:
                    values["cli.output_bytes"] = output_bytes
                layers.append(values)
            failed += bool(found)
            problems += found
    import_gridstash, import_scipy = import_times(1 if smoke else IMPORTTIME_SAMPLES)
    units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    units["cli.output_bytes"] = "bytes"
    metrics = {
        name: (statistics.median(run[name] for run in layers), units[name])
        for name in layers[0]
        if all(name in run for run in layers)
    }
    metrics["setup.import_gridstash_s"] = (import_gridstash, "s")
    metrics["setup.import_scipy_s"] = (import_scipy, "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "fraction")
    absent = sorted(set(units) - set(metrics))
    (work / "spans.json").write_text(json.dumps(spans_to_json(spans)), encoding="utf-8")
    details = {
        "untraced_s": summarize(plain),
        "traced_s": summarize(traced),
        "absent": absent,
        "spans": str(work / "spans.json"),
        "inputs_sha256": input_hashes,
    }
    return finish(workload, seed, 1, work, metrics, attempted, failed, problems, details)


def finish(workload, seed, trace, work, metrics, attempted, failed, problems, details) -> dict:
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment()
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        **result,
        "problems": problems,
        "details": details,
        "environment": env,
    }
    path = work / f"result-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"{workload.name} seed={seed} trace={trace}: {attempted} runs, {failed} failed -> {path}")
    print(f"  on {env['nproc']} x {env['cpu_model']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, commit {env['git_commit']}, src {env['src_lines']['total']} lines")
    for name, (value, unit) in metrics.items():
        spread = details.get(name)
        extra = f"  (q1 {spread['q1']:.6g}, q3 {spread['q3']:.6g}, n={spread['n']})" if spread else ""
        print(f"  {name:32s} {value:>14.6g} {unit}{extra}")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    return result


def run_one(name: str, seed: int, seconds: float, trace: int, smoke: bool = False) -> dict:
    workload = WORKLOADS[name]
    runner = run_traced if trace else run_end_to_end
    return runner(workload, seed, seconds, smoke)


def smoke(seed: int) -> bool:
    """Tiny inputs on every workload; every BENCHMARK.json metric with its unit."""
    import test_tracing

    for test in (getattr(test_tracing, n) for n in dir(test_tracing) if n.startswith("test_")):
        test()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    if not ok:
        print("smoke: BENCHMARK.json names a workload that workloads.py lacks")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            result = run_one(name, seed, 0, trace, smoke=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want or not result["correct"]:
                ok = False
                print(f"smoke: {name} trace={trace} missing {sorted(want.keys() - got.keys())}, "
                      f"unexpected {sorted(got.keys() - want.keys())}, "
                      f"unit mismatch {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}, "
                      f"correct={result['correct']}")
    print(f"smoke: {'ok' if ok else 'FAILED'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, metric and unit check")
    args = parser.parse_args(argv)
    if not (SRC / "gridstash" / "cli.py").is_file():
        print(f"error: no gridstash sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return 0 if smoke(args.seed) else 1
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = {name: run_one(name, args.seed, args.seconds, args.trace) for name in WORKLOADS}
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

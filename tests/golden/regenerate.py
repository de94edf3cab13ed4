"""Golden ``--reproducible`` outputs of every CLI command on seeded 60-day traces.

For each seed in SEEDS, ``run_seed`` writes a price trace (seed 2s, shifted
by PEAK_SHIFT in the peak hours) and a load trace (seed 2s+1), the shape the
benchmark uses, then runs every command in-process through ``cli.main``. It
returns each command's argv, exit code, stdout and stderr, and the files the
command wrote: JSON files parsed, CSV files as their lines. The work directory
is masked as ``<tmp>`` everywhere.

``tests/test_golden.py`` compares a fresh run against ``seed<N>.json`` beside
this file. A change that moves behaviour on purpose rewrites those files with

    PYTHONPATH=src python tests/golden/regenerate.py

and says which fields moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import gridstash.cli as cli
from gridstash.data_io import save_load_trace, save_price_trace
from gridstash.synth import DEFAULT_PRICE_MODEL, shift_model, synth_load, synth_prices

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2, 3)
DAYS = 60
PEAK_SHIFT = 12.0
MASK = "<tmp>"


def golden_path(seed: int) -> Path:
    return HERE / f"seed{seed}.json"


def _commands(seed: int, work: Path) -> dict[str, list[str]]:
    """name -> argv of every command run on one seed's traces."""
    prices, loads = str(work / "prices.csv"), str(work / "loads.csv")
    both = ["--prices", prices, "--loads", loads]
    backtest = ["backtest", *both, "--train-days", "50", "--capacity-fraction", "0.5"]
    size = ["size", *both, "--grid-points", "11"]
    synth = ["synth", "--hours", "48"]
    argvs = {
        "fit": ["fit", "--prices", prices, "--k-max", "6"],
        "backtest-single": [*backtest, "--variant", "single"],
        "backtest-hourly": [*backtest, "--variant", "hourly"],
        "backtest-peak-offpeak": [*backtest, "--variant", "peak-offpeak"],
        "backtest-peak-offpeak-q0.8": [*backtest, "--variant", "peak-offpeak", "--quantile", "0.8"],
        "size": size,
        "size-amortized": [*size, "--amortized-price", "2000"],
        # the built-in price law: a fitted one may put mass below 0, which
        # the shape bound rejects
        "montecarlo-one-shot": ["montecarlo", "--mode", "one-shot", "--horizons", "2,4,8",
                                "--runs", "500", "--bound"],
        "montecarlo-general": ["montecarlo", "--mode", "general", "--days", "7", "--capacity", "1"],
        "synth-price": [*synth, "--kind", "price", "--peak-shift", str(PEAK_SHIFT)],
        "synth-load": [*synth, "--kind", "load"],
    }
    for name, argv in argvs.items():
        out = work / (f"{name}.csv" if name.startswith("synth") else name)
        argv += ["--seed", str(seed), "--reproducible", "--out", str(out)]
    return argvs


def _read_outputs(out: Path) -> dict:
    """file name -> parsed JSON or list of CSV lines, for a file or a directory."""
    files = sorted(out.iterdir()) if out.is_dir() else [out] if out.exists() else []
    return {
        path.name: json.loads(text) if path.suffix == ".json" else text.splitlines()
        for path in files
        for text in [path.read_text(encoding="utf-8")]
    }


def run_seed(seed: int, work: Path) -> dict:
    """Every command's record on one seed's traces, written and run under work."""
    peak = shift_model(DEFAULT_PRICE_MODEL, PEAK_SHIFT)
    hours = DAYS * 24
    save_price_trace(synth_prices(hours, 2 * seed, peak_model=peak), work / "prices.csv")
    save_load_trace(synth_load(hours, 2 * seed + 1), work / "loads.csv")
    mask = str(work)
    records = {}
    for name, argv in _commands(seed, work).items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        records[name] = {
            "argv": [arg.replace(mask, MASK) for arg in argv],
            "exit": code,
            "stdout": stdout.getvalue().replace(mask, MASK),
            "stderr": stderr.getvalue().replace(mask, MASK),
            "files": _read_outputs(Path(argv[-1])),
        }
    return records


def main() -> int:
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as work:
            records = run_seed(seed, Path(work))
        text = json.dumps(records, indent=1, allow_nan=False)
        golden_path(seed).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {golden_path(seed)} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

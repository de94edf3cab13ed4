"""Benchmark workloads: seeded input traces, CLI arguments and output checks.

Each workload is one ``gridstash`` CLI command on synthetic hourly traces
made by ``synth_prices``/``synth_load`` from the workload seed. The program
sees only the generated CSV files. The four workloads load different cost
centres, so a trade between them shows instead of averaging out:
backtest-hourly-fit (overhead-bound EM), backtest-single-fit (element-bound
EM), backtest-serve (decompose, per-piece serving, scoring) and size-year (the
hindsight oracle at many capacities). BENCHMARK.json lists hourly-fit and
size-year, which between them call every layer.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

HOURS_PER_YEAR = 8760
SMOKE_HOURS = 30 * 24
PEAK_SHIFT = 12.0
# relative float slack for sums of many products of prices and quantities
SLACK = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    hours: int
    args: tuple[str, ...]
    smoke_args: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.args[0]

    def arguments(self, smoke: bool) -> list[str]:
        return list(self.smoke_args if smoke else self.args)


_BACKTEST = ("backtest", "--capacity-fraction", "0.5")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "backtest-hourly-fit",
            HOURS_PER_YEAR,
            _BACKTEST + ("--variant", "hourly", "--train-days", "273"),
            _BACKTEST + ("--variant", "hourly", "--train-days", "21"),
        ),
        Workload(
            "backtest-single-fit",
            HOURS_PER_YEAR,
            _BACKTEST + ("--variant", "single", "--train-days", "273"),
            _BACKTEST + ("--variant", "single", "--train-days", "21"),
        ),
        # the two short commands get longer inputs than a year at the default
        # grid, so that one run is long enough to measure steadily
        Workload(
            "backtest-serve",
            2 * HOURS_PER_YEAR,
            _BACKTEST + ("--variant", "hourly", "--train-days", "28"),
            _BACKTEST + ("--variant", "hourly", "--train-days", "7"),
        ),
        Workload(
            "size-year",
            HOURS_PER_YEAR,
            # a price whose chosen capacity lands inside the grid
            ("size", "--grid-points", "21", "--amortized-price", "2000"),
            ("size", "--grid-points", "5", "--amortized-price", "2000"),
        ),
    )
}


def write_inputs(workload: Workload, seed: int, smoke: bool, dest: Path) -> dict[str, Path]:
    """Write the seeded price and load CSVs; same seed, same bytes."""
    from gridstash.data_io import save_load_trace, save_price_trace
    from gridstash.synth import DEFAULT_PRICE_MODEL, shift_model, synth_load, synth_prices

    hours = SMOKE_HOURS if smoke else workload.hours
    dest.mkdir(parents=True, exist_ok=True)
    paths = {"prices": dest / "prices.csv", "loads": dest / "loads.csv"}
    peak = shift_model(DEFAULT_PRICE_MODEL, PEAK_SHIFT)
    save_price_trace(synth_prices(hours, 2 * seed, peak_model=peak), paths["prices"])
    save_load_trace(synth_load(hours, 2 * seed + 1), paths["loads"])
    return paths


def cli_args(workload: Workload, inputs: dict[str, Path], out: Path, smoke: bool) -> list[str]:
    return workload.arguments(smoke) + [
        "--prices", str(inputs["prices"]),
        "--loads", str(inputs["loads"]),
        "--reproducible",
        "--out", str(out),
    ]


def sha256_files(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def _close_enough_or_above(low: float, high: float) -> bool:
    """high >= low up to float slack scaled to the magnitudes."""
    return high >= low - SLACK * max(1.0, abs(low), abs(high))


def check_backtest(out: Path) -> list[str]:
    problems = []
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    below = [d for d in report["beta"]
             if not _close_enough_or_above(d["offline_cost"], d["online_cost"])]
    if below:
        problems.append(f"{len(below)} days with online cost below offline, first day "
                        f"{below[0]['day']}: {below[0]['online_cost']!r} < {below[0]['offline_cost']!r}")
    summary = report["summary"]
    if not _close_enough_or_above(summary["total_offline"], summary["total_online"]):
        problems.append("total_online below total_offline")
    with open(out / "decisions.csv", newline="", encoding="utf-8") as handle:
        rows = 0
        for row in csv.DictReader(handle):
            rows += 1
            if not int(row["t_start"]) <= int(row["buy_slot"]) <= int(row["t_end"]):
                problems.append(f"piece {row['piece_id']}: buy_slot outside its window")
                break
    if rows == 0:
        problems.append("decisions.csv has no pieces")
    return problems


def check_size(out: Path) -> list[str]:
    problems = []
    doc = json.loads((out / "result.json").read_text(encoding="utf-8"))
    costs, marginal = doc["min_cost"], doc["marginal_saving"]
    for name, seq in (("min_cost", costs), ("marginal_saving", marginal)):
        if any(not _close_enough_or_above(b, a) for a, b in zip(seq, seq[1:])):
            problems.append(f"{name} increases along the grid")
    if doc["chosen"]["capacity"] not in doc["grid"]:
        problems.append("chosen capacity is not a grid point")
    return problems


def check_outputs(workload: Workload, out: Path) -> list[str]:
    """Problems found in one run's output directory; empty when it passes."""
    check = check_backtest if workload.command == "backtest" else check_size
    try:
        return check(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def beta_mean(workload: Workload, out: Path) -> float:
    """The backtest's mean daily online/offline cost ratio.

    ``size`` runs no online policy, only the hindsight oracle, so its ratio to
    hindsight is exactly 1; it is reported so every workload carries every
    end-to-end metric.
    """
    if workload.command != "backtest":
        return 1.0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return float(report["summary"]["beta_mean"])

"""A seeded corpus of hostile but realistic inputs for every subcommand.

Each trace runs ``fit``, ``backtest`` for the three variants (one training
day), ``size``, and both ``montecarlo`` modes on the model the fit wrote, all
in-process. Every exit code is pinned, so a change of behaviour is a visible
edit of the table. Whatever the code, it is one of 0, 2, 3 and 4, no
traceback and no RuntimeWarning escapes, and an exit-2 message names the file
or option at fault.
"""

from __future__ import annotations

import json
import os
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

import gridstash.cli as cli
import gridstash.policy

HOURS = 4 * 24
START = datetime(2024, 3, 29)
# Europe/Paris springs forward at 2024-03-31T01:00Z, from +01:00 to +02:00
SPRING_FORWARD = datetime(2024, 3, 31, 1)


def _stamps(n: int, aware: bool) -> list[str]:
    if not aware:
        return [(START + timedelta(hours=i)).isoformat(timespec="minutes") for i in range(n)]
    # local midnight at +01:00, then one UTC hour per row
    first = START - timedelta(hours=1)
    stamps = []
    for i in range(n):
        utc = first + timedelta(hours=i)
        offset = timedelta(hours=2 if utc >= SPRING_FORWARD else 1)
        stamps.append((utc + offset).replace(tzinfo=timezone(offset)).isoformat(timespec="minutes"))
    return stamps


def _write(path, column: str, values, aware: bool = False):
    rows = [f"{stamp},{value!r}" for stamp, value in zip(_stamps(len(values), aware), values)]
    path.write_text(f"timestamp,{column}\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def _corpus(rng: np.random.Generator) -> dict:
    """name -> (prices, demands, aware timestamps)."""
    hours = np.arange(HOURS)
    prices = 40.0 + 20.0 * np.sin(hours * 2.0 * np.pi / 24.0) + rng.normal(0.0, 3.0, HOURS)
    demand = np.round(1.0 + rng.uniform(0.0, 2.0, HOURS), 3)
    quiet = np.where((hours >= 24) & (hours < 72), 0.0, demand)
    return {
        "constant": ([42.0] * HOURS, demand, False),
        "all-negative": (-prices, demand, False),
        "two-valued": (rng.choice([10.0, 90.0], HOURS), demand, False),
        "zero-demand-span": (prices, quiet, False),
        "huge": (1e150 * (1.0 + rng.random(HOURS)), demand, False),
        "tiny": (1e-300 * (1.0 + rng.random(HOURS)), demand, False),
        "one-day": (prices[:24], demand[:24], False),
        "dst-aware": (prices, demand, True),
    }


# exit codes of fit, backtest single / hourly / peak-offpeak, size,
# montecarlo one-shot --bound, montecarlo general
EXPECTED = {
    # a constant or two-valued law has no density floor, so no shape bound
    "constant": (0, 0, 0, 0, 0, 4, 0),
    # no day has a positive hindsight cost to score against
    "all-negative": (0, 4, 4, 4, 0, 4, 4),
    "two-valued": (0, 0, 0, 0, 0, 4, 0),
    # the fitted law puts mass below 0, which the shape bound rejects
    "zero-demand-span": (0, 0, 0, 0, 0, 4, 0),
    "huge": (0, 0, 0, 0, 0, 0, 0),
    "tiny": (0, 0, 0, 0, 0, 0, 0),
    # one training day leaves no test span
    "one-day": (0, 4, 4, 4, 0, 4, 0),
    "dst-aware": (0, 0, 0, 0, 0, 4, 0),
    # a broken price file: every command names it, then montecarlo names the
    # model the fit never wrote
    "gap": (2, 2, 2, 2, 2, 2, 2),
    "not-utf8": (2, 2, 2, 2, 2, 2, 2),
}


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    files = {}
    for name, (prices, demand, aware) in _corpus(np.random.default_rng(6)).items():
        files[name] = (
            _write(root / f"{name}.prices.csv", "price", np.asarray(prices, dtype=float).tolist(), aware),
            _write(root / f"{name}.loads.csv", "demand", np.asarray(demand, dtype=float).tolist(), aware),
        )
    good_prices, good_loads = files["zero-demand-span"]
    rows = good_prices.read_text(encoding="utf-8").splitlines(keepends=True)
    (root / "gap.prices.csv").write_text("".join(rows[:10] + rows[11:]), encoding="utf-8")
    (root / "not-utf8.prices.csv").write_bytes("".join(rows[:5]).encode() + "2024-03-29T04:00,caf\xe9\n".encode("latin-1"))
    for name in ("gap", "not-utf8"):
        files[name] = (root / f"{name}.prices.csv", good_loads)
    return files


def run_checked(argv: list[str], capsys) -> int:
    """main's exit code, after the checks every corpus command must pass."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == [], argv
    if code == 2:
        # the message itself, not argparse's usage lines above it
        message = err.strip().splitlines()[-1]
        named = [token for token in argv if token.startswith("--") or os.sep in token]
        assert any(token in message for token in named), (argv, err)
    return code


@pytest.mark.parametrize("name", EXPECTED)
def test_every_subcommand_on_a_hostile_trace(traces, tmp_path, capsys, name):
    prices, loads = map(str, traces[name])
    model = str(tmp_path / "fit" / "model.json")
    both = ["--prices", prices, "--loads", loads]
    commands = [
        ["fit", "--prices", prices, "--k-max", "3", "--out", str(tmp_path / "fit")],
        *(
            ["backtest", *both, "--variant", variant, "--train-days", "1",
             "--capacity-fraction", "0.5", "--k-max", "3", "--out", str(tmp_path / variant)]
            for variant in ("single", "hourly", "peak-offpeak")
        ),
        ["size", *both, "--grid-points", "3", "--amortized-price", "2000", "--out", str(tmp_path / "size")],
        ["montecarlo", "--model", model, "--horizons", "2,4", "--runs", "100", "--bound",
         "--out", str(tmp_path / "mc")],
        ["montecarlo", "--mode", "general", "--model", model, "--days", "2", "--out", str(tmp_path / "mcg")],
    ]
    assert tuple(run_checked(argv, capsys) for argv in commands) == EXPECTED[name]


# one out-of-range value per range-checked option, on a trace every command accepts
OPTION_ROWS = {
    "k-max": ["fit", "--k-max", "0"],
    "max-iter": ["fit", "--max-iter", "0"],
    "train-days": ["backtest", "--train-days", "0", "--capacity-fraction", "0.5"],
    "capacity-fraction": ["backtest", "--train-days", "1", "--capacity-fraction", "-0.5"],
    "capacity": ["backtest", "--train-days", "1", "--capacity", "nan"],
    "grid-points": ["size", "--grid-points", "1"],
    "runs": ["montecarlo", "--runs", "1"],
    "horizons": ["montecarlo", "--horizons", "2,0"],
    "days": ["montecarlo", "--mode", "general", "--days", "-2"],
    "hours": ["synth", "--kind", "price", "--hours", "0"],
    "amortized-price": ["size", "--amortized-price", "-2"],
    "grid-one-point": ["size", "--grid", "5"],
    "grid-empty": ["size", "--grid", ""],
    "grid-decreasing": ["size", "--grid", "2,1"],
    "grid-nan": ["size", "--grid", "0,nan"],
    "horizons-empty": ["montecarlo", "--horizons", ","],
    "base": ["synth", "--kind", "load", "--base", "-1"],
    "amplitude": ["synth", "--kind", "load", "--amplitude", "inf"],
    "noise-inf": ["synth", "--kind", "load", "--noise", "inf"],
    "noise-nan": ["synth", "--kind", "load", "--noise", "nan"],
    "peak-shift": ["synth", "--kind", "price", "--peak-shift", "nan"],
    "quantile-nan": ["backtest", "--variant", "peak-offpeak", "--train-days", "1",
                     "--capacity-fraction", "0.5", "--quantile", "nan"],
    "quantile-zero": ["backtest", "--variant", "peak-offpeak", "--train-days", "1",
                      "--capacity-fraction", "0.5", "--quantile", "0"],
    "tol-zero": ["fit", "--tol", "0"],
    "tol-nan": ["fit", "--tol", "nan"],
    "peak-hour-99": ["synth", "--kind", "load", "--peak-hour", "99"],
    "peak-hour-negative": ["synth", "--kind", "load", "--peak-hour", "-1"],
}


@pytest.mark.parametrize("row", OPTION_ROWS)
def test_out_of_range_option_exits_2_naming_it(traces, tmp_path, capsys, row):
    command, *options = OPTION_ROWS[row]
    prices, loads = map(str, traces["zero-demand-span"])
    inputs = {
        "fit": ["--prices", prices],
        "backtest": ["--prices", prices, "--loads", loads],
        "size": ["--prices", prices, "--loads", loads],
    }.get(command, [])
    out = str(tmp_path / "out")
    assert run_checked([command, *inputs, *options, "--out", out], capsys) == 2


@pytest.mark.parametrize("text", ['{"components": [', '{"components": [{"weight": 1.0, "mean": 1.0}]}'])
def test_montecarlo_names_a_broken_model_file(tmp_path, capsys, text):
    model = tmp_path / "model.json"
    model.write_text(text, encoding="utf-8")
    assert run_checked(["montecarlo", "--model", str(model), "--out", str(tmp_path / "mc")], capsys) == 2


def test_large_storage_single_backtest_serves_from_one_schedule(tmp_path, capsys, monkeypatch):
    # storage for days of demand: every window reaches back to the test start,
    # and 24 copies of one law share a single schedule that long
    rng = np.random.default_rng(7)
    hours = 30 * 24
    prices = _write(tmp_path / "prices.csv", "price", (40.0 + rng.normal(0.0, 8.0, hours)).tolist())
    loads = _write(tmp_path / "loads.csv", "demand", np.round(rng.uniform(0.5, 2.0, hours), 3).tolist())
    widths = []

    def counting(dists):
        widths.append(len(dists))
        return compute(dists)

    compute = gridstash.policy.compute_thresholds_timevarying
    monkeypatch.setattr(gridstash.policy, "compute_thresholds_timevarying", counting)
    argv = ["backtest", "--prices", str(prices), "--loads", str(loads), "--variant", "single",
            "--train-days", "7", "--capacity-fraction", "50000", "--out", str(tmp_path / "bt")]
    assert run_checked(argv, capsys) == 0
    assert widths == [23 * 24]
    report = json.loads((tmp_path / "bt" / "report.json").read_text(encoding="utf-8"))
    assert len(report["beta"]) == 23

"""Command-line interface: artifacts, config precedence, and exit codes."""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridstash.cli as cli
import gridstash.gmm
import gridstash.policy
from gridstash.data_io import (
    load_load_trace,
    load_price_trace,
    load_trace_from_values,
    price_trace_from_values,
    save_load_trace,
    save_price_trace,
)
from gridstash.decomposition import FeasibilityReport
from gridstash.errors import DegenerateFitError
from gridstash.gmm import load_model
from gridstash.synth import DEFAULT_PRICE_MODEL
from oracles import STARVE_TOL


def run(*argv) -> int:
    return cli.main(list(argv))


def exit_code(*argv) -> int:
    """main's return value, or the code argparse exits with."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def price_csv(tmp_path):
    path = tmp_path / "prices.csv"
    assert run("synth", "--kind", "price", "--hours", str(24 * 28), "--seed", "1",
               "--out", str(path)) == 0
    return path


@pytest.fixture
def load_csv(tmp_path):
    path = tmp_path / "loads.csv"
    assert run("synth", "--kind", "load", "--hours", str(24 * 28), "--seed", "2",
               "--out", str(path)) == 0
    return path


_NO_SCIPY_SCRIPT = """
import sys
from pathlib import Path
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import gridstash.cli as cli
out = Path(sys.argv[1])
traces = ["--prices", str(out / "price.csv"), "--loads", str(out / "load.csv")]
commands = [
    ["synth", "--kind", "price", "--hours", "336", "--seed", "1", "--out", str(out / "price.csv")],
    ["synth", "--kind", "load", "--hours", "336", "--seed", "2", "--out", str(out / "load.csv")],
    ["fit", "--prices", str(out / "price.csv"), "--k-max", "2", "--out", str(out / "fit")],
    ["backtest", *traces, "--variant", "hourly", "--train-days", "7",
     "--capacity-fraction", "0.5", "--k-max", "2", "--out", str(out / "bt")],
    ["size", *traces, "--grid-points", "3", "--amortized-price", "2000", "--out", str(out / "size")],
    ["montecarlo", "--horizons", "2,4", "--runs", "200", "--bound", "--out", str(out / "mc")],
    ["montecarlo", "--mode", "general", "--days", "3", "--out", str(out / "mcg")],
]
for argv in commands:
    assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_every_subcommand_runs_with_scipy_blocked(tmp_path):
    # a fresh interpreter: this test process has scipy loaded by the oracles.
    # numpy.ma is checked too: np.unique imports it lazily, ~15 ms per process
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


def test_synth_writes_parseable_traces(price_csv, load_csv):
    prices = load_price_trace(price_csv)
    loads = load_load_trace(load_csv)
    assert len(prices) == 24 * 28
    assert len(loads) == 24 * 28
    assert np.all(loads.values >= 0.0)


def test_synth_is_seed_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("synth", "--kind", "price", "--hours", "48", "--seed", "7", "--out", str(a)) == 0
    assert run("synth", "--kind", "price", "--hours", "48", "--seed", "7", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_peak_shift_raises_peak_prices(tmp_path):
    path = tmp_path / "peaky.csv"
    assert run("synth", "--kind", "price", "--hours", str(24 * 60), "--seed", "3",
               "--peak-shift", "40", "--peak-hours", "17-20", "--out", str(path)) == 0
    trace = load_price_trace(path)
    hod = trace.hours_of_day()
    peak = trace.values[(hod >= 17) & (hod <= 20)]
    off = trace.values[(hod < 17) | (hod > 20)]
    assert peak.mean() > off.mean() + 20.0


def test_synth_rejects_bad_kind(tmp_path):
    assert run("synth", "--kind", "price", "--hours", "0",
               "--out", str(tmp_path / "x.csv")) == 2


def test_fit_outputs_and_reproducibility(price_csv, tmp_path):
    out = tmp_path / "fit"
    argv = ("fit", "--prices", str(price_csv), "--k-max", "4", "--seed", "0",
            "--out", str(out), "--reproducible")
    assert run(*argv) == 0
    model = load_model(out / "model.json")
    assert 1 <= model.n_components <= 4
    report = json.loads((out / "fit_report.json").read_text())
    assert report["selected_components"] == model.n_components
    assert "created_at" not in report
    lines = (out / "bic.csv").read_text().strip().splitlines()
    assert lines[0].startswith("K,")
    assert len(lines) == 5  # header + K=1..4
    assert sum(int(line.split(",")[-1]) for line in lines[1:]) == 1  # one selected

    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run(*argv) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second  # byte-identical rerun


def test_fit_bic_csv_rows_match_candidates(price_csv, tmp_path):
    two_atoms = tmp_path / "two_atoms.csv"
    save_price_trace(price_trace_from_values(np.tile([0.0, 1.0], 45)), two_atoms)
    for prices, tol in ((price_csv, 1e-6), (two_atoms, STARVE_TOL)):
        out = tmp_path / f"fit_{prices.stem}"
        assert run("fit", "--prices", str(prices), "--k-max", "4", "--seed", "3",
                   "--tol", str(tol), "--out", str(out), "--reproducible") == 0
        with open(out / "bic.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        candidates = gridstash.gmm.fit_candidates(
            load_price_trace(prices).values, 4, gridstash.gmm.EmConfig(tol=tol, init_seed=3)
        )
        assert [int(row["K"]) for row in rows] == [c.n_components for c in candidates] == [1, 2, 3, 4]
        for row, cand in zip(rows, candidates):
            assert row["error"] == (cand.error or "")
            if cand.report is None:
                assert [row[key] for key in ("n_params", "bic", "iterations")] == ["", "", ""]
                continue
            assert int(row["n_params"]) == 3 * cand.n_components - 1
            assert float(row["log_likelihood"]) == cand.report.log_likelihood
            assert float(row["bic"]) == cand.report.bic
            assert int(row["iterations"]) == cand.report.iterations
            assert int(row["converged"]) == int(cand.report.converged)
        bics = [float(row["bic"]) if row["bic"] else math.inf for row in rows]
        lowest = bics.index(min(bics))
        assert [int(row["selected"]) for row in rows] == [int(i == lowest) for i in range(4)]
    assert any(c.error is not None for c in candidates)  # the two-atom sweep has failed rows


def test_fit_without_reproducible_stamps_timestamp(price_csv, tmp_path):
    out = tmp_path / "fit"
    assert run("fit", "--prices", str(price_csv), "--k-max", "2", "--out", str(out)) == 0
    report = json.loads((out / "fit_report.json").read_text())
    assert "created_at" in report


def test_fit_missing_file_exits_2(tmp_path):
    assert run("fit", "--prices", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "out")) == 2


def test_fit_non_finite_tol_exits_2(price_csv, tmp_path, capsys):
    for tol in ("-1", "nan", "inf"):
        assert run("fit", "--prices", str(price_csv), "--tol", tol,
                   "--out", str(tmp_path / "out")) == 2
        assert "error: tol must be finite and positive" in capsys.readouterr().err


def test_fit_gap_trace_exits_2(tmp_path):
    bad = tmp_path / "gap.csv"
    bad.write_text("timestamp,price\n2020-01-01T00:00,1.0\n2020-01-01T02:00,2.0\n")
    assert run("fit", "--prices", str(bad), "--out", str(tmp_path / "out")) == 2


def test_fit_non_utf8_trace_names_the_file(tmp_path, capsys):
    latin = tmp_path / "latin.csv"
    latin.write_bytes("timestamp,price\n2020-01-01T00:00,1.0 café\n".encode("latin-1"))
    assert run("fit", "--prices", str(latin), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: {latin}: file is not UTF-8 text\n"


def test_fit_huge_magnitudes_exit_2_naming_the_magnitude(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    save_price_trace(price_trace_from_values(np.tile([0.0, 1e200], 12)), path)
    assert run("fit", "--prices", str(path), "--k-max", "3", "--out", str(tmp_path / "o")) == 2
    assert "error: sample magnitude 1e+200 is too large" in capsys.readouterr().err


def test_backtest_load_gap_names_the_load_file(price_csv, tmp_path, capsys):
    loads = tmp_path / "gappy_loads.csv"
    loads.write_text("timestamp,demand\n2020-01-01T00:00,1.0\n2020-01-01T02:00,2.0\n")
    assert run("backtest", "--prices", str(price_csv), "--loads", str(loads),
               "--train-days", "21", "--capacity", "2.0", "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {loads}: gap between 2020-01-01T00:00:00")
    assert str(price_csv) not in err


def test_synth_load_peak_hour_outside_the_day_exits_2(tmp_path, capsys):
    out = tmp_path / "load.csv"
    assert run("synth", "--kind", "load", "--hours", "24", "--peak-hour", "99",
               "--out", str(out)) == 2
    assert "peak_hour must lie in 0..23, got 99" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "backtest", "montecarlo", "size", "synth"])
def test_negative_seed_exits_2_naming_the_option(tmp_path, capsys, command):
    assert exit_code(command, "--seed", "-1", "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "argument --seed: expected a non-negative integer, got '-1'" in err
    assert "Traceback" not in err


def test_fit_degenerate_exits_3(price_csv, tmp_path, monkeypatch):
    def always_degenerate(x, n_components, configs):
        return [DegenerateFitError("forced by test") for _ in configs]

    monkeypatch.setattr(gridstash.gmm, "_em_lanes", always_degenerate)
    assert run("fit", "--prices", str(price_csv), "--k-max", "3",
               "--out", str(tmp_path / "out")) == 3


def test_backtest_end_to_end(price_csv, load_csv, tmp_path):
    out = tmp_path / "bt"
    assert run("backtest", "--prices", str(price_csv), "--loads", str(load_csv),
               "--train-days", "21", "--variant", "single", "--capacity-fraction", "0.5",
               "--k-max", "3", "--out", str(out), "--reproducible") == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["train_days"] == 21
    assert report["config"]["test_slots"] == 7 * 24
    assert report["summary"]["beta_mean"] >= 1.0 - 1e-12
    assert all(row["beta"] >= 1.0 - 1e-12 for row in report["beta"])
    assert (out / "estimator.json").exists()
    assert (out / "decisions.csv").read_text().startswith("piece_id,")
    beta_lines = (out / "beta.csv").read_text().strip().splitlines()
    assert beta_lines[0] == "day,beta"
    assert len(beta_lines) == 1 + len(report["beta"])


def test_backtest_variants_all_run(price_csv, load_csv, tmp_path):
    for variant in ("single", "hourly", "peak-offpeak"):
        out = tmp_path / variant
        assert run("backtest", "--prices", str(price_csv), "--loads", str(load_csv),
                   "--train-days", "21", "--variant", variant, "--capacity", "2.0",
                   "--k-max", "2", "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["variant"] == variant
        assert report["estimator"]["variant"] == variant


def test_backtest_requires_exactly_one_capacity_flag(price_csv, load_csv, tmp_path):
    base = ("backtest", "--prices", str(price_csv), "--loads", str(load_csv),
            "--train-days", "21", "--out", str(tmp_path / "o"))
    assert run(*base) == 2  # neither
    assert run(*base, "--capacity", "1.0", "--capacity-fraction", "0.1") == 2  # both


def test_backtest_nonpositive_k_max_exits_2(price_csv, load_csv, tmp_path, capsys):
    for k_max in ("0", "-3"):
        assert run("backtest", "--prices", str(price_csv), "--loads", str(load_csv),
                   "--train-days", "21", "--capacity", "2.0", "--k-max", k_max,
                   "--out", str(tmp_path / "o")) == 2
        assert f"error: max_components must be >= 1, got {k_max}" in capsys.readouterr().err


def test_backtest_quantile_needs_peak_offpeak(price_csv, load_csv, tmp_path, capsys):
    for variant in ("single", "hourly"):
        assert run("backtest", "--prices", str(price_csv), "--loads", str(load_csv),
                   "--train-days", "21", "--capacity", "2.0", "--variant", variant,
                   "--quantile", "0.5", "--k-max", "2", "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: quantile applies only to peak-offpeak")
        assert variant in err


def test_backtest_misaligned_traces_exit_2(price_csv, tmp_path):
    short = tmp_path / "short.csv"
    assert run("synth", "--kind", "load", "--hours", "240", "--seed", "0",
               "--out", str(short)) == 0
    assert run("backtest", "--prices", str(price_csv), "--loads", str(short),
               "--train-days", "5", "--capacity", "1.0",
               "--out", str(tmp_path / "o")) == 2


def test_backtest_short_trace_exits_4(tmp_path):
    prices = tmp_path / "p.csv"
    loads = tmp_path / "l.csv"
    assert run("synth", "--kind", "price", "--hours", "48", "--seed", "0",
               "--out", str(prices)) == 0
    assert run("synth", "--kind", "load", "--hours", "48", "--seed", "0",
               "--out", str(loads)) == 0
    # 5 training days cannot come out of a 2-day trace
    assert run("backtest", "--prices", str(prices), "--loads", str(loads),
               "--train-days", "5", "--capacity", "1.0",
               "--out", str(tmp_path / "o")) == 4


def test_backtest_infeasible_dispatch_exits_4(price_csv, load_csv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        gridstash.policy,
        "verify_feasible",
        lambda *args: FeasibilityReport(False, "storage above capacity", 7),
    )
    assert run("backtest", "--prices", str(price_csv), "--loads", str(load_csv),
               "--train-days", "21", "--variant", "single", "--capacity", "2.0",
               "--k-max", "2", "--out", str(tmp_path / "o")) == 4
    err = capsys.readouterr().err
    assert err.startswith("experiment failed: ")
    assert "storage above capacity at slot 7" in err


def test_backtest_negative_price_day_has_null_beta(price_csv, load_csv, tmp_path):
    prices = load_price_trace(price_csv)
    values = prices.values.copy()
    values[23 * 24 : 24 * 24] = -5.0  # day 2 of the 7 test days
    negative_csv = tmp_path / "negative.csv"
    save_price_trace(price_trace_from_values(values, prices.start), negative_csv)
    out = tmp_path / "bt"
    assert run("backtest", "--prices", str(negative_csv), "--loads", str(load_csv),
               "--train-days", "21", "--variant", "single", "--capacity", "2.0",
               "--k-max", "2", "--out", str(out), "--reproducible") == 0
    report = json.loads((out / "report.json").read_text())
    assert [row["day"] for row in report["beta"]] == list(range(7))
    unscored = [row for row in report["beta"] if row["beta"] is None]
    assert 2 in [row["day"] for row in unscored]
    assert all(row["offline_cost"] <= 0 for row in unscored)
    summary = report["summary"]
    assert summary["days_without_beta"] == len(unscored)
    betas = [row["beta"] for row in report["beta"] if row["beta"] is not None]
    assert summary["beta_mean"] == float(np.mean(betas))
    assert summary["beta_max"] == max(betas)
    rows = (out / "beta.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == [
        row["day"] for row in report["beta"] if row["beta"] is not None
    ]


def test_backtest_test_span_without_demand_exits_4(price_csv, load_csv, tmp_path, capsys):
    loads = load_load_trace(load_csv)
    values = loads.values.copy()
    values[21 * 24 :] = 0.0  # nothing to serve after the training span
    idle_csv = tmp_path / "idle.csv"
    save_load_trace(load_trace_from_values(values, loads.start), idle_csv)
    assert run("backtest", "--prices", str(price_csv), "--loads", str(idle_csv),
               "--train-days", "21", "--variant", "single", "--capacity", "2.0",
               "--k-max", "2", "--out", str(tmp_path / "o")) == 4
    err = capsys.readouterr().err
    assert err.startswith("experiment failed: no day has a positive hindsight cost")


def test_backtest_report_carries_fit_diagnostics(price_csv, load_csv, tmp_path):
    out = tmp_path / "bt"
    assert run("backtest", "--prices", str(price_csv), "--loads", str(load_csv),
               "--train-days", "21", "--variant", "hourly", "--capacity", "2.0",
               "--k-max", "3", "--max-iter", "40", "--out", str(out), "--reproducible") == 0
    report = json.loads((out / "report.json").read_text())
    fits = report["fits"]
    assert len(fits) == 24
    for fit, model in zip(fits, report["estimator"]["models"]):
        assert fit["selected_components"] == len(model["components"])
        assert set(fit) == {"selected_components", "iterations", "converged",
                            "swept_components", "failed_components", "capped_components"}
        assert fit["selected_components"] <= fit["swept_components"] <= 3
        assert 1 <= fit["iterations"] <= 40
        assert fit["converged"] == (fit["selected_components"] not in fit["capped_components"])
        assert set(fit["capped_components"]) <= {1, 2}
    # 21 samples per hour allow at most two components at ten samples each
    assert all(fit["failed_components"] == [] for fit in fits)
    assert any(fit["capped_components"] for fit in fits)


def test_config_file_supplies_defaults_and_flags_win(price_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "prices": str(price_csv),
        "k_max": 1,
        "out": str(tmp_path / "from_config"),
    }))
    assert run("fit", "--config", str(cfg), "--reproducible") == 0
    model = load_model(tmp_path / "from_config" / "model.json")
    assert model.n_components == 1  # k_max came from the config

    assert run("fit", "--config", str(cfg), "--out", str(tmp_path / "flag_out"),
               "--k-max", "2", "--reproducible") == 0
    assert (tmp_path / "flag_out" / "model.json").exists()
    lines = (tmp_path / "flag_out" / "bic.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + K=1,2: flag overrode config's k_max=1


def test_config_must_be_json_object(price_csv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    assert run("fit", "--config", str(cfg), "--prices", str(price_csv),
               "--out", str(tmp_path / "o")) == 2
    cfg.write_text("{not json")
    assert run("fit", "--config", str(cfg), "--prices", str(price_csv),
               "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("command, config, message", [
    ("fit", {"k_max": [3]}, "argument --k-max: invalid int value: '[3]'"),
    ("fit", {"k_max": 2.7}, "argument --k-max: invalid int value: '2.7'"),
    ("fit", {"prices": 5}, "error: [Errno 2] No such file or directory: '5'"),
    ("backtest", {"variant": "weekly"}, "argument --variant: invalid choice: 'weekly'"),
    ("montecarlo", {"bound": "yes"}, "bound must be true, false or null, got 'yes'"),
], ids=["k_max-list", "k_max-float", "prices-number", "variant-unknown", "bound-string"])
def test_bad_config_value_exits_2(price_csv, load_csv, tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    flags = {
        "fit": ["--prices", str(price_csv)],
        "backtest": ["--prices", str(price_csv), "--loads", str(load_csv),
                     "--train-days", "21", "--capacity", "2.0", "--k-max", "2"],
        "montecarlo": ["--runs", "100"],
    }[command]
    if "prices" in config:
        flags = []
    assert exit_code(command, "--config", str(cfg), *flags, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    # a value its option rejects names the config file; a prices path is
    # only opened later, and that error names the path itself
    if "prices" not in config:
        assert err.startswith(f"error: {cfg}: ")


def test_config_switches_bound_and_reproducible(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bound": True, "reproducible": True, "runs": 100}))
    out = tmp_path / "mc"
    assert run("montecarlo", "--config", str(cfg), "--horizons", "2,4", "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert "created_at" not in report
    assert all(row["bound"] is not None for row in report["gamma"])


def _outputs(out: Path) -> dict[str, bytes]:
    if out.is_file():
        return {"": out.read_bytes()}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", ["fit", "backtest", "size", "montecarlo", "synth"])
def test_config_file_and_flags_write_identical_bytes(price_csv, load_csv, tmp_path, capsys,
                                                     command):
    options = {
        "fit": {"prices": str(price_csv), "k_max": 3, "tol": 1e-5, "max_iter": 80, "seed": 3},
        "backtest": {"prices": str(price_csv), "loads": str(load_csv), "variant": "peak-offpeak",
                     "train_days": 21, "capacity_fraction": 0.5, "k_max": 2, "quantile": 0.5,
                     "seed": 1},
        "size": {"prices": str(price_csv), "loads": str(load_csv), "grid": "0,1,2.5",
                 "amortized_price": 3.0},
        "montecarlo": {"mode": "one-shot", "horizons": "2,4", "runs": 200, "bound": True,
                       "seed": 5},
        "synth": {"kind": "load", "hours": 48, "base": 0.5, "amplitude": 2.0, "peak_hour": 7,
                  "noise": 0.2, "seed": 3},
    }[command]
    options["reproducible"] = True
    flags = []
    for key, value in options.items():
        flags += [f"--{key.replace('_', '-')}"] + ([] if value is True else [str(value)])
    cfg = tmp_path / "cfg.json"
    # null means "not given" and keys that name no option are skipped
    cfg.write_text(json.dumps({**options, "capacity": None, "note": ["not an option"]}))
    suffix = ".csv" if command == "synth" else ""
    by_flags, by_config = tmp_path / f"flags{suffix}", tmp_path / f"config{suffix}"
    capsys.readouterr()
    assert run(command, *flags, "--out", str(by_flags)) == 0
    printed_flags = capsys.readouterr().out.replace(str(by_flags), "OUT")
    assert run(command, "--config", str(cfg), "--out", str(by_config)) == 0
    printed_config = capsys.readouterr().out.replace(str(by_config), "OUT")
    assert printed_flags == printed_config
    assert _outputs(by_flags) == _outputs(by_config)


def test_montecarlo_one_shot(tmp_path):
    out = tmp_path / "mc"
    assert run("montecarlo", "--mode", "one-shot", "--horizons", "2,4",
               "--runs", "500", "--seed", "9", "--bound", "--out", str(out),
               "--reproducible") == 0
    report = json.loads((out / "report.json").read_text())
    assert [row["T"] for row in report["gamma"]] == [2, 4]
    assert all(row["bound"] is not None for row in report["gamma"])
    lines = (out / "gamma.csv").read_text().strip().splitlines()
    assert lines[0] == "T,gamma_mean,gamma_ci_lo,gamma_ci_hi"
    assert len(lines) == 3


def test_montecarlo_bound_on_builtin_model_is_vacuous(tmp_path):
    # the built-in mixture has almost no density near 0, so 2 / sum(betas) is
    # ~1e14: far above the mean price, which already caps the regret
    out = tmp_path / "mc"
    assert run("montecarlo", "--bound", "--runs", "200", "--seed", "3", "--out", str(out),
               "--reproducible") == 0
    rows = json.loads((out / "report.json").read_text())["gamma"]
    assert [row["T"] for row in rows] == [2, 4, 8, 16, 32]
    assert all(row["bound"] >= DEFAULT_PRICE_MODEL.mean() for row in rows)
    assert all(row["bound_vacuous"] is True for row in rows)


def test_montecarlo_general(tmp_path):
    out = tmp_path / "mcg"
    assert run("montecarlo", "--mode", "general", "--days", "5", "--seed", "4",
               "--capacity-fraction", "0.2", "--out", str(out), "--reproducible") == 0
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "general_serving"
    assert all(row["beta"] >= 1.0 - 1e-12 for row in report["beta"])
    lines = (out / "beta.csv").read_text().strip().splitlines()
    assert lines[0] == "day,beta"
    assert len(lines) == 1 + len(report["beta"])


def test_montecarlo_accepts_fitted_model(price_csv, tmp_path):
    fit_out = tmp_path / "fit"
    assert run("fit", "--prices", str(price_csv), "--k-max", "3",
               "--out", str(fit_out)) == 0
    out = tmp_path / "mc"
    assert run("montecarlo", "--mode", "one-shot", "--horizons", "3",
               "--runs", "200", "--model", str(fit_out / "model.json"),
               "--out", str(out)) == 0


def test_size_with_explicit_grid(price_csv, load_csv, tmp_path):
    out = tmp_path / "size"
    assert run("size", "--prices", str(price_csv), "--loads", str(load_csv),
               "--grid", "0,1,2,4", "--amortized-price", "3.0",
               "--out", str(out), "--reproducible") == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["grid"] == [0.0, 1.0, 2.0, 4.0]
    assert len(doc["min_cost"]) == 4
    assert len(doc["marginal_saving"]) == 3
    assert doc["chosen"]["capacity"] in doc["grid"]
    lines = (out / "curve.csv").read_text().strip().splitlines()
    assert lines[0] == "B,min_cost,marginal_saving"
    assert len(lines) == 5


def test_size_auto_grid(price_csv, load_csv, tmp_path):
    out = tmp_path / "size"
    assert run("size", "--prices", str(price_csv), "--loads", str(load_csv),
               "--grid-points", "6", "--out", str(out)) == 0
    doc = json.loads((out / "result.json").read_text())
    assert len(doc["grid"]) == 6
    assert doc["grid"][0] == 0.0
    assert "chosen" not in doc
    costs = doc["min_cost"]
    assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


def test_missing_required_option_exits_2(tmp_path):
    assert run("fit", "--out", str(tmp_path / "o")) == 2  # no --prices anywhere


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 2

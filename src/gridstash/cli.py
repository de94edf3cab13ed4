"""Command-line front end.

Subcommands: fit (EM+BIC sweep on a price trace), backtest (train/test policy
evaluation), montecarlo (one-shot regret or general serving studies), size
(capacity curve and economic capacity), synth (seeded synthetic traces).

Options may come from a JSON config file (--config) with flags taking
precedence; --reproducible drops timestamps from outputs so identical inputs
give identical bytes.

Exit codes: 0 success, 2 bad input, 3 fit failure, 4 experiment failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime
from pathlib import Path

import numpy as np

from . import gmm
from .data_io import (
    HOURS_PER_DAY,
    ensure_aligned,
    load_load_trace,
    load_price_trace,
    save_load_trace,
    save_price_trace,
    split_train_test,
)
from .distributions import GmmDistribution
from .errors import (
    AlignmentError,
    DegenerateFitError,
    GridstashError,
    InsufficientSamplesError,
    TraceGapError,
    TraceParseError,
    TraceValidationError,
)
from .evaluation import (
    beta_rows,
    beta_summary,
    beta_to_csv,
    daily_cost_ratios,
    gamma_to_csv,
    general_serving_study,
    one_shot_regret_study,
    report_to_json_dict,
)
from .heuristics import Variant, estimator_to_json_dict, fit_estimator, save_estimator
from .policy import decisions_to_csv
from .sizing import curve_to_csv, min_cost_curve, optimal_capacity
from .synth import DEFAULT_PRICE_MODEL, shift_model, synth_load, synth_prices


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return doc


def _resolve(args, config: dict, key: str, default=None, required: bool = False):
    """A flag wins over the config file, which wins over the default."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    if required and value is None:
        raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return value


def _out_dir(args, config) -> Path:
    out = Path(_resolve(args, config, "out", required=True))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc: dict, reproducible: bool) -> None:
    if not reproducible:
        doc = {**doc, "created_at": datetime.now().isoformat(timespec="seconds")}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in str(text).split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_hours(text: str) -> frozenset[int]:
    """Hour sets come as '17-20' ranges or '17,18,19' lists (or a mix)."""
    hours: set[int] = set()
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            lo_text, hi_text = part.split("-", 1)
            lo, hi = int(lo_text), int(hi_text)
            if lo > hi:
                raise ValueError(f"bad hour range {part!r}")
            hours.update(range(lo, hi + 1))
        else:
            hours.add(int(part))
    if not hours or any(not 0 <= h < HOURS_PER_DAY for h in hours):
        raise ValueError(f"hours must lie in 0..23, got {text!r}")
    return frozenset(hours)


def _em_config(args, config) -> gmm.EmConfig:
    return gmm.EmConfig(
        tol=float(_resolve(args, config, "tol", 1e-6)),
        max_iter=int(_resolve(args, config, "max_iter", 500)),
        init_seed=int(_resolve(args, config, "seed", 0)),
    )


def _resolve_capacity(args, config, load) -> float:
    capacity = _resolve(args, config, "capacity")
    fraction = _resolve(args, config, "capacity_fraction")
    if (capacity is None) == (fraction is None):
        raise ValueError("give exactly one of --capacity / --capacity-fraction")
    if capacity is not None:
        return float(capacity)
    # fraction of the trace's peak hourly demand, full trace so the value
    # does not move when the train/test split does
    return float(fraction) * float(load.values.max())


def cmd_fit(args) -> int:
    config = _load_config(args.config)
    prices = load_price_trace(_resolve(args, config, "prices", required=True))
    k_max = int(_resolve(args, config, "k_max", 8))
    out = _out_dir(args, config)
    (sel,) = gmm.select_models([prices.values], [k_max], [_em_config(args, config)])
    best = sel.best
    gmm.save_model(best.model, out / "model.json")
    with open(out / "bic.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ("K", "n_params", "log_likelihood", "bic", "iterations", "converged", "error", "selected")
        )
        for row in sel.candidates:
            if row.report is None:
                writer.writerow((row.n_components, "", "", "", "", "", row.error, 0))
            else:
                rep = row.report
                writer.writerow(
                    (
                        row.n_components,
                        gmm.n_free_params(row.n_components),
                        repr(rep.log_likelihood),
                        repr(rep.bic),
                        rep.iterations,
                        int(rep.converged),
                        "",
                        int(rep is best),
                    )
                )
    _write_json(
        out / "fit_report.json",
        {
            "selected_components": best.model.n_components,
            "bic": best.bic,
            "log_likelihood": best.log_likelihood,
            "iterations": best.iterations,
            "converged": best.converged,
            "n_samples": best.n_samples,
            "config": {"k_max": k_max, "seed": int(_resolve(args, config, "seed", 0))},
        },
        args.reproducible,
    )
    print(f"selected {best.model.n_components} components (bic {best.bic:.4f}) -> {out}")
    return 0


def cmd_backtest(args) -> int:
    config = _load_config(args.config)
    prices = load_price_trace(_resolve(args, config, "prices", required=True))
    load = load_load_trace(_resolve(args, config, "loads", required=True))
    ensure_aligned(prices, load)
    train_days = int(_resolve(args, config, "train_days", required=True))
    variant = Variant(_resolve(args, config, "variant", "single"))
    quantile = _resolve(args, config, "quantile")
    capacity = _resolve_capacity(args, config, load)
    out = _out_dir(args, config)

    price_split = split_train_test(prices, train_days)
    load_split = split_train_test(load, train_days)
    estimator = fit_estimator(
        price_split.train,
        variant,
        max_components=int(_resolve(args, config, "k_max", 8)),
        config=_em_config(args, config),
        quantile=None if quantile is None else float(quantile),
    )
    points, summary = daily_cost_ratios(price_split.test, load_split.test, capacity, estimator)
    scored = beta_summary(points)
    doc = {
        "config": {
            "variant": variant.value,
            "train_days": train_days,
            "capacity": capacity,
            "train_slots": len(price_split.train),
            "test_slots": len(price_split.test),
        },
        "estimator": estimator_to_json_dict(estimator),
        "fits": list(estimator.fit_diagnostics),
        "beta": beta_rows(points),
        "summary": {
            **scored,
            "total_online": summary.total_online,
            "total_offline": summary.total_offline,
        },
    }
    _write_json(out / "report.json", doc, args.reproducible)
    save_estimator(estimator, out / "estimator.json")
    decisions_to_csv(summary.result, out / "decisions.csv")
    beta_to_csv(points, out / "beta.csv")
    print(
        f"backtest: {len(points)} days, mean beta {scored['beta_mean']:.4f}, "
        f"online {summary.total_online:.2f} vs offline {summary.total_offline:.2f} -> {out}"
    )
    return 0


def cmd_montecarlo(args) -> int:
    config = _load_config(args.config)
    mode = _resolve(args, config, "mode", "one-shot")
    seed = int(_resolve(args, config, "seed", 0))
    model_path = _resolve(args, config, "model")
    model = DEFAULT_PRICE_MODEL if model_path is None else gmm.load_model(model_path)
    dist = GmmDistribution(model)
    out = _out_dir(args, config)
    if mode == "one-shot":
        horizons = _parse_ints(_resolve(args, config, "horizons", "2,4,8,16,32"))
        runs = int(_resolve(args, config, "runs", 10000))
        report = one_shot_regret_study(
            dist, horizons, runs, seed, include_bound=bool(args.bound)
        )
        gamma_to_csv(report, out / "gamma.csv")
    elif mode == "general":
        days = int(_resolve(args, config, "days", 30))
        load = synth_load(days * HOURS_PER_DAY, seed=seed + 1)
        if (
            _resolve(args, config, "capacity") is None
            and _resolve(args, config, "capacity_fraction") is None
        ):
            capacity = 0.1 * float(load.values.max())
        else:
            capacity = _resolve_capacity(args, config, load)
        report = general_serving_study(dist, load, capacity, seed)
        beta_to_csv(report.beta_points, out / "beta.csv")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    _write_json(out / "report.json", report_to_json_dict(report), args.reproducible)
    print(f"montecarlo {mode}: {report.summary} -> {out}")
    return 0


def cmd_size(args) -> int:
    config = _load_config(args.config)
    prices = load_price_trace(_resolve(args, config, "prices", required=True))
    load = load_load_trace(_resolve(args, config, "loads", required=True))
    ensure_aligned(prices, load)
    grid_text = _resolve(args, config, "grid")
    if grid_text is not None:
        grid = _parse_floats(grid_text)
    else:
        points = int(_resolve(args, config, "grid_points", 11))
        if points < 2:
            raise ValueError(f"grid needs at least 2 points, got {points}")
        # saturate around the biggest single day's demand: beyond that,
        # extra capacity cannot move any purchase window further
        days = (len(load) + HOURS_PER_DAY - 1) // HOURS_PER_DAY
        daily = [
            float(load.values[d * HOURS_PER_DAY : (d + 1) * HOURS_PER_DAY].sum())
            for d in range(days)
        ]
        grid = list(np.linspace(0.0, max(max(daily), 1.0), points))
    curve = min_cost_curve(prices, load, grid)
    out = _out_dir(args, config)
    curve_to_csv(curve, out / "curve.csv")
    doc: dict = {
        "grid": list(curve.capacities),
        "min_cost": list(curve.costs),
        "marginal_saving": list(curve.marginal_savings()),
    }
    price = _resolve(args, config, "amortized_price")
    if price is not None:
        result = optimal_capacity(curve, float(price))
        doc["chosen"] = {
            "capacity": result.capacity,
            "amortized_price": result.amortized_price,
            "cost_at_capacity": result.cost_at_capacity,
        }
        print(f"size: B*={result.capacity} at amortized price {result.amortized_price} -> {out}")
    else:
        print(f"size: curve over {len(curve.capacities)} capacities -> {out}")
    _write_json(out / "result.json", doc, args.reproducible)
    return 0


def cmd_synth(args) -> int:
    config = _load_config(args.config)
    kind = _resolve(args, config, "kind", required=True)
    hours = int(_resolve(args, config, "hours", 24 * 28))
    seed = int(_resolve(args, config, "seed", 0))
    out = Path(_resolve(args, config, "out", required=True))
    out.parent.mkdir(parents=True, exist_ok=True)
    if kind == "price":
        model_path = _resolve(args, config, "model")
        model = DEFAULT_PRICE_MODEL if model_path is None else gmm.load_model(model_path)
        shiftext = _resolve(args, config, "peak_shift")
        peak_model = None
        peak_hours = _parse_hours(_resolve(args, config, "peak_hours", "17-20"))
        if shiftext is not None and float(shiftext) != 0.0:
            peak_model = shift_model(model, float(shiftext))
        trace = synth_prices(hours, seed, model=model, peak_model=peak_model, peak_hours=peak_hours)
        save_price_trace(trace, out)
    elif kind == "load":
        trace = synth_load(
            hours,
            seed,
            base=float(_resolve(args, config, "base", 1.0)),
            amplitude=float(_resolve(args, config, "amplitude", 1.0)),
            peak_hour=int(_resolve(args, config, "peak_hour", 18)),
            noise=float(_resolve(args, config, "noise", 0.1)),
        )
        save_load_trace(trace, out)
    else:
        raise ValueError(f"unknown synth kind {kind!r}")
    print(f"wrote {hours} hours of {kind} to {out}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file of option defaults")
    parser.add_argument("--seed", type=int, help="seed for every random draw")
    parser.add_argument(
        "--reproducible",
        action="store_true",
        help="omit timestamps so identical inputs give identical outputs",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridstash",
        description="Storage-backed purchase policies: fitting, backtests, studies, sizing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="EM+BIC mixture sweep over a price trace")
    _add_common(p)
    p.add_argument("--prices", help="price trace CSV")
    p.add_argument("--k-max", dest="k_max", type=int, help="largest component count to try")
    p.add_argument("--tol", type=float, help="EM convergence tolerance: mean log-likelihood gain per sample")
    p.add_argument("--max-iter", dest="max_iter", type=int, help="EM iteration cap")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("backtest", help="train an estimator, run the policy on the test span")
    _add_common(p)
    p.add_argument("--prices", help="price trace CSV")
    p.add_argument("--loads", help="load trace CSV")
    p.add_argument(
        "--variant", choices=[v.value for v in Variant], help="estimator granularity"
    )
    p.add_argument("--train-days", dest="train_days", type=int, help="whole days of training data")
    p.add_argument("--capacity", type=float, help="storage capacity (energy units)")
    p.add_argument(
        "--capacity-fraction",
        dest="capacity_fraction",
        type=float,
        help="capacity as a fraction of peak hourly demand",
    )
    p.add_argument("--k-max", dest="k_max", type=int, help="largest component count per fit")
    p.add_argument("--quantile", type=float, help="peak threshold quantile for peak-offpeak")
    p.add_argument("--tol", type=float, help="EM convergence tolerance: mean log-likelihood gain per sample")
    p.add_argument("--max-iter", dest="max_iter", type=int, help="EM iteration cap")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("montecarlo", help="seeded policy-vs-hindsight studies")
    _add_common(p)
    p.add_argument("--mode", choices=["one-shot", "general"], help="study family")
    p.add_argument("--model", help="mixture JSON for the price law (default: built-in)")
    p.add_argument("--horizons", help="comma-separated window lengths (one-shot mode)")
    p.add_argument("--runs", type=int, help="simulated windows per horizon (one-shot mode)")
    p.add_argument(
        "--bound", action="store_true", help="also compute the shape bound (one-shot mode)"
    )
    p.add_argument("--days", type=int, help="days of synthetic load (general mode)")
    p.add_argument("--capacity", type=float, help="storage capacity (general mode)")
    p.add_argument(
        "--capacity-fraction",
        dest="capacity_fraction",
        type=float,
        help="capacity as a fraction of peak hourly demand (general mode)",
    )
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("size", help="capacity/cost curve and economic capacity")
    _add_common(p)
    p.add_argument("--prices", help="price trace CSV")
    p.add_argument("--loads", help="load trace CSV")
    p.add_argument("--grid", help="comma-separated capacities")
    p.add_argument("--grid-points", dest="grid_points", type=int, help="auto grid size")
    p.add_argument(
        "--amortized-price",
        dest="amortized_price",
        type=float,
        help="per-unit capacity price to select against",
    )
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_size)

    p = sub.add_parser("synth", help="write a seeded synthetic trace CSV")
    _add_common(p)
    p.add_argument("--kind", choices=["price", "load"], help="what to generate")
    p.add_argument("--hours", type=int, help="trace length in hours")
    p.add_argument("--out", help="output CSV file")
    p.add_argument("--model", help="mixture JSON for prices (default: built-in)")
    p.add_argument(
        "--peak-shift",
        dest="peak_shift",
        type=float,
        help="mean shift applied during peak hours (price kind)",
    )
    p.add_argument("--peak-hours", dest="peak_hours", help="peak hours, e.g. 17-20")
    p.add_argument("--base", type=float, help="baseline demand (load kind)")
    p.add_argument("--amplitude", type=float, help="daily bump height (load kind)")
    p.add_argument("--peak-hour", dest="peak_hour", type=int, help="bump center (load kind)")
    p.add_argument("--noise", type=float, help="uniform noise width (load kind)")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        TraceParseError,
        TraceGapError,
        TraceValidationError,
        AlignmentError,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateFitError, InsufficientSamplesError) as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 3
    except GridstashError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

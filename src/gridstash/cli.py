"""Command-line front end.

Subcommands: fit (EM+BIC sweep on a price trace), backtest (train/test policy
evaluation), montecarlo (one-shot regret or general serving studies), size
(capacity curve and economic capacity), synth (seeded synthetic traces).

Options may come from a JSON config file (--config): its values become
command-line tokens placed before the real flags, so one parser checks both
and a flag wins. --reproducible drops timestamps from outputs so identical
inputs give identical bytes. Each command lays out its own artifacts from the
values the library returns; only the trace and model formats, which are also
inputs, live beside their readers in data_io and distributions.

Exit codes: 0 success, 2 bad input, 3 fit failure, 4 experiment failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
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
    write_csv,
)
from .distributions import GmmDistribution, GmmModel, load_model, model_to_json_dict, save_model
from .errors import FitError, GridstashError, InputError
from .evaluation import daily_cost_ratios, general_serving_study, one_shot_regret_study
from .heuristics import Variant, fit_estimator
from .sizing import min_cost_curve, optimal_capacity
from .synth import DEFAULT_PEAK_HOURS, DEFAULT_PRICE_MODEL, shift_model, synth_load, synth_prices


def _config_tokens(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The options of a JSON config file as command-line tokens for ``parser``.

    A key is an option's name with underscores (``k_max`` for ``--k-max``).
    null means "not given", and true/false turn a switch such as --bound on or
    off. Keys that name no option of the subcommand are skipped, so one file
    can serve several subcommands. Each value is checked with its option's own
    type and choices, and a bad one is reported under the config file's name.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    tokens = []
    for action in parser._actions:
        value = doc.get(action.dest)
        if value is None or action.dest in ("help", "config"):
            continue
        flag = action.option_strings[-1]
        if action.nargs != 0:
            try:
                parser._get_values(action, [str(value)])
            except argparse.ArgumentError as exc:
                raise ValueError(f"{path}: {exc}") from None
            tokens.append(f"{flag}={value}")
        elif not isinstance(value, bool):
            raise ValueError(f"{path}: {action.dest} must be true, false or null, got {value!r}")
        elif value:
            tokens.append(flag)
    return tokens


def _require(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _out_dir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc: dict, reproducible: bool, sort_keys: bool = True) -> None:
    """Write ``doc`` as indented JSON, stamped with the time unless ``reproducible``.

    NaN and infinities raise ValueError: no JSON parser is obliged to read them.
    """
    if not reproducible:
        doc = {**doc, "created_at": datetime.now().isoformat(timespec="seconds")}
    text = json.dumps(doc, indent=2, sort_keys=sort_keys, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _beta_rows(days: np.recarray) -> list[dict]:
    """report.json rows of a ``DailyScores.days`` table; a day without a ratio
    has ``"beta": null``."""
    # .tolist() gives Python numbers, which json writes without numpy types
    return [
        {"day": day, "online_cost": on, "offline_cost": off, "beta": None if math.isnan(b) else b}
        for day, on, off, b in days.tolist()
    ]


def _fit_rows(selections: tuple[gmm.Selection, ...]) -> list[dict]:
    """report.json ``fits`` rows: one per sub-model, from its BIC sweep."""
    return [
        {
            "selected_components": sel.best.model.n_components,
            "iterations": sel.best.iterations,
            "converged": sel.best.converged,
            "swept_components": sel.candidates[-1].n_components,
            "failed_components": [c.n_components for c in sel.candidates if c.report is None],
            "capped_components": [
                c.n_components
                for c in sel.candidates
                if c.report is not None and not c.report.converged
            ],
        }
        for sel in selections
    ]


def _write_beta_csv(days: np.recarray, path: Path) -> None:
    """beta.csv: the days that have a ratio, as (day, beta) rows."""
    scored = days[~np.isnan(days.beta)]
    write_csv(path, ("day", "beta"), zip(scored.day.tolist(), scored.beta.tolist()))


def _comma_list(cast, what: str, min_count: int):
    """An argparse type for at least ``min_count`` comma-separated values,
    each read by ``cast``."""

    def parse(text: str) -> list:
        try:
            values = [cast(part) for part in text.split(",") if part.strip()]
        except ValueError:
            message = f"expected comma-separated {what}, got {text!r}"
            raise argparse.ArgumentTypeError(message) from None
        if len(values) < min_count:
            raise argparse.ArgumentTypeError(f"expected {min_count} or more {what}, got {text!r}")
        return values

    return parse


def _number(cast, low=-math.inf, high=math.inf, strict=False):
    """An argparse type for a finite number read by ``cast``, at least ``low``
    (above it when ``strict``) and at most ``high``."""
    limits = [f"{'>' if strict else '>='} {low}"] if low > -math.inf else []
    limits += [f"<= {high}"] if high < math.inf else []
    expected = f"a finite number {' and '.join(limits)}".rstrip()

    def parse(text: str):
        value = cast(text)
        above = value > low if strict else value >= low
        if not (math.isfinite(value) and above and value <= high):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    parse.__name__ = cast.__name__  # argparse's "invalid int value" message names it
    return parse


def _grid(text: str) -> list[float]:
    """An argparse type for --grid: strictly increasing capacities."""
    grid = _comma_list(_number(float, 0), "capacities", 2)(text)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise argparse.ArgumentTypeError(f"expected strictly increasing capacities, got {text!r}")
    return grid


def _parse_hours(text: str) -> frozenset[int]:
    """Hour sets come as '17-20' ranges or '17,18,19' lists (or a mix)."""
    hours: set[int] = set()
    for part in filter(None, map(str.strip, text.split(","))):
        lo_text, _, hi_text = part.partition("-")
        try:
            lo, hi = int(lo_text), int(hi_text or lo_text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad hour {part!r}") from None
        if lo > hi:
            raise argparse.ArgumentTypeError(f"bad hour range {part!r}")
        hours.update(range(lo, hi + 1))
    if not hours or any(not 0 <= h < HOURS_PER_DAY for h in hours):
        raise argparse.ArgumentTypeError(f"hours must lie in 0..23, got {text!r}")
    return frozenset(hours)


def _em_config(args) -> gmm.EmConfig:
    return gmm.EmConfig(tol=args.tol, max_iter=args.max_iter, init_seed=args.seed)


def _price_model(path: str | None) -> GmmModel:
    return DEFAULT_PRICE_MODEL if path is None else load_model(path)


def _capacity(args, load) -> float:
    if (args.capacity is None) == (args.capacity_fraction is None):
        raise ValueError("give exactly one of --capacity / --capacity-fraction")
    if args.capacity is not None:
        return args.capacity
    # fraction of the trace's peak hourly demand, full trace so the value
    # does not move when the train/test split does
    return args.capacity_fraction * float(load.values.max())


def cmd_fit(args) -> int:
    _require(args, "prices", "out")
    prices = load_price_trace(args.prices)
    out = _out_dir(args.out)
    (sel,) = gmm.select_models([prices.values], [args.k_max], _em_config(args))
    best = sel.best
    save_model(best.model, out / "model.json")
    write_csv(
        out / "bic.csv",
        ("K", "n_params", "log_likelihood", "bic", "iterations", "converged", "error", "selected"),
        (
            (row.n_components, "", "", "", "", "", row.error, 0)
            if row.report is None
            else (
                row.n_components,
                gmm.n_free_params(row.n_components),
                row.report.log_likelihood,
                row.report.bic,
                row.report.iterations,
                int(row.report.converged),
                "",
                int(row.report is best),
            )
            for row in sel.candidates
        ),
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
            "config": {"k_max": args.k_max, "seed": args.seed},
        },
        args.reproducible,
    )
    print(f"selected {best.model.n_components} components (bic {best.bic:.4f}) -> {out}")
    return 0


def cmd_backtest(args) -> int:
    _require(args, "prices", "loads", "train_days", "out")
    prices = load_price_trace(args.prices)
    load = load_load_trace(args.loads)
    ensure_aligned(prices, load)
    capacity = _capacity(args, load)
    out = _out_dir(args.out)

    train_prices, test_prices = split_train_test(prices, args.train_days)
    _, test_load = split_train_test(load, args.train_days)
    estimator = fit_estimator(
        train_prices,
        args.variant,
        max_components=args.k_max,
        config=_em_config(args),
        quantile=args.quantile,
    )
    scores = daily_cost_ratios(test_prices, test_load, capacity, estimator.laws)
    summary = scores.summary
    estimator_doc = {
        "variant": args.variant,
        "models": [model_to_json_dict(m) for m in estimator.models],
        "hour_index": list(estimator.hour_index),
    }
    if estimator.labeling is not None:
        estimator_doc["peak_hours"] = sorted(estimator.labeling.peak)
    if args.quantile is not None:
        estimator_doc["quantile"] = args.quantile
    doc = {
        "config": {
            "variant": args.variant,
            "train_days": args.train_days,
            "capacity": capacity,
            "train_slots": len(train_prices),
            "test_slots": len(test_prices),
        },
        "estimator": estimator_doc,
        "fits": _fit_rows(estimator.selections),
        "beta": _beta_rows(scores.days),
        "summary": summary,
    }
    _write_json(out / "report.json", doc, args.reproducible)
    _write_json(out / "estimator.json", estimator_doc, reproducible=True, sort_keys=False)
    rec = scores.result.records
    names = ("quantity", "t_start", "t_end", "buy_slot", "price", "threshold")
    columns = [rec[name].tolist() for name in names] + [rec.forced.astype(int).tolist()]
    # the bytes write_csv would write (floats as repr, \r\n line ends), one
    # line per piece streamed through the handle, not joined into one string
    with open(out / "decisions.csv", "w", newline="", encoding="utf-8") as handle:
        handle.write(",".join(("piece_id", *names, "forced")) + "\r\n")
        rows = zip(range(len(rec)), *columns)
        handle.writelines("%d,%r,%d,%d,%d,%r,%r,%d\r\n" % row for row in rows)
    _write_beta_csv(scores.days, out / "beta.csv")
    print(
        f"backtest: {len(scores.days)} days, mean beta {summary['beta_mean']:.4f}, "
        f"online {summary['total_online']:.2f} vs offline {summary['total_offline']:.2f} -> {out}"
    )
    return 0


def cmd_montecarlo(args) -> int:
    _require(args, "out")
    dist = GmmDistribution(_price_model(args.model))
    out = _out_dir(args.out)
    if args.mode == "one-shot":
        report = one_shot_regret_study(
            dist, args.horizons, args.runs, args.seed, include_bound=args.bound
        )
        rows = []
        for point in report.gamma_points:
            row = asdict(point)
            row["T"] = row.pop("horizon")
            # a density infimum near the smallest float overflows 2 / sum(betas);
            # such a bound is vacuous, and JSON has no infinity
            if row["bound"] is not None and not math.isfinite(row["bound"]):
                row["bound"] = None
            rows.append(row)
        doc = {
            "kind": "one_shot_regret",
            "config": {"horizons": args.horizons, "n_runs": args.runs, "include_bound": args.bound},
            "gamma": rows,
        }
        write_csv(
            out / "gamma.csv",
            ("T", "gamma_mean", "gamma_ci_lo", "gamma_ci_hi"),
            ((pt.horizon, pt.gamma, pt.gamma_ci_lo, pt.gamma_ci_hi) for pt in report.gamma_points),
        )
    else:
        load = synth_load(args.days * HOURS_PER_DAY, seed=args.seed + 1)
        if args.capacity is None and args.capacity_fraction is None:
            capacity = 0.1 * float(load.values.max())
        else:
            capacity = _capacity(args, load)
        report = general_serving_study(dist, load, capacity, args.seed)
        doc = {
            "kind": "general_serving",
            "config": {"capacity": capacity, "n_slots": len(load)},
            "beta": _beta_rows(report.beta_points),
        }
        _write_beta_csv(report.beta_points, out / "beta.csv")
    doc.update(seed=args.seed, summary=report.summary)
    _write_json(out / "report.json", doc, args.reproducible)
    print(f"montecarlo {args.mode}: {report.summary} -> {out}")
    return 0


def cmd_size(args) -> int:
    _require(args, "prices", "loads", "out")
    prices = load_price_trace(args.prices)
    load = load_load_trace(args.loads)
    ensure_aligned(prices, load)
    grid = args.grid
    if grid is None:
        # span 0 to the biggest day's demand, a partial last day too. The stop
        # is a chosen range, not saturation: more capacity can still cut cost.
        # A trace with no demand gets 0 to 1.
        whole = len(load) // HOURS_PER_DAY * HOURS_PER_DAY
        daily = load.values[:whole].reshape(-1, HOURS_PER_DAY).sum(axis=1)
        peak = max(daily.max(initial=0.0), load.values[whole:].sum()) or 1.0
        grid = list(np.linspace(0.0, peak, args.grid_points))
    curve = min_cost_curve(prices, load, grid)
    out = _out_dir(args.out)
    savings = curve.marginal_savings()
    # a row's saving is that of the segment starting at B, so the last is empty
    rows = zip(curve.capacities, curve.costs, (*savings, ""))
    write_csv(out / "curve.csv", ("B", "min_cost", "marginal_saving"), rows)
    doc: dict = {
        "grid": list(curve.capacities),
        "min_cost": list(curve.costs),
        "marginal_saving": list(savings),
    }
    if args.amortized_price is not None:
        result = optimal_capacity(curve, args.amortized_price)
        doc["chosen"] = asdict(result)
    _write_json(out / "result.json", doc, args.reproducible)
    if args.amortized_price is not None:
        print(f"size: B*={result.capacity} at amortized price {result.amortized_price} -> {out}")
    else:
        print(f"size: curve over {len(curve.capacities)} capacities -> {out}")
    return 0


def cmd_synth(args) -> int:
    _require(args, "kind", "out")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "price":
        model = _price_model(args.model)
        peak_model = shift_model(model, args.peak_shift) if args.peak_shift else None
        trace = synth_prices(
            args.hours, args.seed, model=model, peak_model=peak_model, peak_hours=args.peak_hours
        )
        save_price_trace(trace, out)
    else:
        # options left out keep synth_load's own defaults
        names = ("base", "amplitude", "peak_hour", "noise")
        shape = {k: v for k in names if (v := getattr(args, k)) is not None}
        save_load_trace(synth_load(args.hours, args.seed, **shape), out)
    print(f"wrote {args.hours} hours of {args.kind} to {out}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file of option defaults")
    parser.add_argument("--seed", type=_number(int, 0), default=0, help="seed for every random draw")
    parser.add_argument(
        "--reproducible",
        action="store_true",
        help="omit timestamps so identical inputs give identical outputs",
    )
    parser.set_defaults(parser=parser)


def _add_em(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--k-max", type=_number(int, 1), default=8, help="largest component count per fit"
    )
    parser.add_argument(
        "--tol", type=_number(float, 0, strict=True), default=gmm.EmConfig.tol,
        help="EM convergence tolerance: mean log-likelihood gain per sample",
    )
    parser.add_argument(
        "--max-iter", type=_number(int, 1), default=gmm.EmConfig.max_iter, help="EM iteration cap"
    )


def _add_capacity(parser: argparse.ArgumentParser, scope: str = "") -> None:
    parser.add_argument(
        "--capacity", type=_number(float, 0), help=f"storage capacity (energy units){scope}"
    )
    parser.add_argument(
        "--capacity-fraction",
        type=_number(float, 0),
        help=f"capacity as a fraction of peak hourly demand{scope}",
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
    _add_em(p)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("backtest", help="train an estimator, run the policy on the test span")
    _add_common(p)
    p.add_argument("--prices", help="price trace CSV")
    p.add_argument("--loads", help="load trace CSV")
    p.add_argument(
        "--variant",
        choices=[v.value for v in Variant],
        default=Variant.SINGLE.value,
        help="estimator granularity",
    )
    p.add_argument("--train-days", type=_number(int, 1), help="whole days of training data")
    _add_capacity(p)
    _add_em(p)
    p.add_argument(
        "--quantile", type=_number(float, 0, 1, strict=True),
        help="peak threshold quantile for peak-offpeak",
    )
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("montecarlo", help="seeded policy-vs-hindsight studies")
    _add_common(p)
    p.add_argument(
        "--mode", choices=["one-shot", "general"], default="one-shot", help="study family"
    )
    p.add_argument("--model", help="mixture JSON for the price law (default: built-in)")
    p.add_argument(
        "--horizons",
        type=_comma_list(_number(int, 1), "integers", 1),
        default="2,4,8,16,32",
        help="comma-separated window lengths (one-shot mode)",
    )
    p.add_argument(
        "--runs", type=_number(int, 2), default=10000,
        help="simulated windows per horizon (one-shot mode)",
    )
    p.add_argument(
        "--bound", action="store_true", help="also compute the shape bound (one-shot mode)"
    )
    p.add_argument(
        "--days", type=_number(int, 1), default=30, help="days of synthetic load (general mode)"
    )
    _add_capacity(p, " (general mode)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("size", help="capacity/cost curve and economic capacity")
    _add_common(p)
    p.add_argument("--prices", help="price trace CSV")
    p.add_argument("--loads", help="load trace CSV")
    p.add_argument("--grid", type=_grid, help="comma-separated increasing capacities")
    p.add_argument("--grid-points", type=_number(int, 2), default=11, help="auto grid size")
    p.add_argument(
        "--amortized-price",
        type=_number(float, 0),
        help="per-unit capacity price to select against",
    )
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_size)

    p = sub.add_parser("synth", help="write a seeded synthetic trace CSV")
    _add_common(p)
    p.add_argument("--kind", choices=["price", "load"], help="what to generate")
    p.add_argument("--hours", type=_number(int, 1), default=24 * 28, help="trace length in hours")
    p.add_argument("--out", help="output CSV file")
    p.add_argument("--model", help="mixture JSON for prices (default: built-in)")
    p.add_argument(
        "--peak-shift",
        type=_number(float),
        help="mean shift applied during peak hours (price kind)",
    )
    p.add_argument(
        "--peak-hours",
        type=_parse_hours,
        default=DEFAULT_PEAK_HOURS,
        help="peak hours, e.g. 17-20",
    )
    p.add_argument("--base", type=_number(float, 0), help="baseline demand (load kind)")
    p.add_argument("--amplitude", type=_number(float, 0), help="daily bump height (load kind)")
    p.add_argument("--peak-hour", type=_number(int, 0, 23), help="bump center (load kind)")
    p.add_argument("--noise", type=_number(float, 0), help="uniform noise width (load kind)")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # the config's tokens go before the real flags, which argparse
            # lets win because it keeps the last value of an option
            at = argv.index(args.command) + 1
            tokens = _config_tokens(args.parser, args.config)
            args = parser.parse_args([*argv[:at], *tokens, *argv[at:]])
        return args.func(args)
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 3
    except GridstashError as exc:
        print(f"experiment failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

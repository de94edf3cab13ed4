"""Offline oracles, performance ratios, worst-case bounds, Monte-Carlo studies.

The offline oracle knows every realized price: a one-shot job pays the window
minimum, and a full trace pays the sum of window minima over the decomposed
pieces. Every window minimum comes from one sparse table over the price array
(``WindowMinima``): log2(n) + 1 levels of running minima, two lookups per
window, so a year of pieces costs a few vector operations. Against those, the
online policy's quality is summarized by additive regret and by cost ratios;
two closed-form bounds dominate the expected one-shot regret (a
distribution-shape bound and a mean/std specialization for uniform laws).
The shape bound's density infimum is a numpy grid search that zooms twice
into the cells beside the grid minimum, so the bound needs no scipy. A bound
at or above the mean price is flagged vacuous: the regret never exceeds it.
Exhaustive oracles over small discrete supports pin the exact expectations the
simulations must reproduce.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .data_io import HOURS_PER_DAY, LoadTrace, PriceTrace, ensure_aligned, write_csv
from .decomposition import Pieces, decompose
from .distributions import DiscreteDistribution, GmmDistribution, PriceDistribution
from .errors import (
    BoundDomainError,
    InsufficientDataError,
    NegativeSupportError,
    NonpositiveOptimumError,
    ZeroBetaSumError,
)
from .policy import (
    SimulationResult,
    ThresholdSchedule,
    compute_thresholds_iid,
    run_policy,
    simulate_one_shot_matrix,
)


class WindowMinima:
    """Minimum price over any window [t_start, t_end] of a fixed price array.

    A sparse table: row k holds the minimum of every 2**k consecutive prices
    (row 0 is the array itself), so a window is the minimum of two row-k
    entries that together cover it, with 2**k the largest power of two not
    longer than the window. Building costs log2(n) vector minima; a query
    answers every window at once with two lookups each.
    """

    def __init__(self, values) -> None:
        row = np.asarray(values, dtype=float)
        if row.ndim != 1 or row.size == 0:
            raise ValueError("window minima need a nonempty 1-D price array")
        n = row.size
        table = np.full((n.bit_length(), n), math.inf)
        table[0] = row
        for k in range(1, table.shape[0]):
            half = 1 << (k - 1)
            stop = n - 2 * half + 1
            np.minimum(table[k - 1, :stop], table[k - 1, half : half + stop], out=table[k, :stop])
        self._table = table

    def __call__(self, t_start, t_end) -> np.ndarray:
        lo = np.asarray(t_start, dtype=np.int64)
        hi = np.asarray(t_end, dtype=np.int64)
        # floor(log2(window length)), exact for integers via the float exponent
        k = np.frexp(hi - lo + 1)[1] - 1
        return np.minimum(self._table[k, lo], self._table[k, hi + 1 - (1 << k)])


def offline_cost(minima: WindowMinima, pieces: Pieces) -> float:
    """Hindsight cost of a piece set: each piece pays its window minimum."""
    return math.fsum((pieces.quantity * minima(pieces.t_start, pieces.t_end)).tolist())


def offline_optimal_general(prices: PriceTrace, load: LoadTrace, capacity: float) -> float:
    """Hindsight-optimal cost of serving the whole trace with capacity B.

    Each decomposed piece independently buys at its window minimum; summed,
    that is the full-information optimum for the coupled storage problem.
    """
    ensure_aligned(prices, load)
    return offline_cost(WindowMinima(prices.values), decompose(load, capacity))


@dataclass(frozen=True)
class RegretParams:
    """Shape constants of a price law relative to a threshold schedule.

    alpha is E[min of two draws] / (2 E[price]); betas[i] is the density
    infimum over [0, threshold] for the slot with i+2 slots remaining
    (atom-mass infimum for discrete laws).
    """

    alpha: float
    betas: tuple[float, ...]


def _density_infimum(dist: PriceDistribution, theta: float) -> float:
    """Smallest density on [0, theta]: a 1025-point grid (plus the interior
    mixture means), then two 1025-point grids over the two cells beside the
    current minimum."""
    hi = max(float(theta), 0.0)
    if isinstance(dist, DiscreteDistribution):
        return dist.min_atom_mass_in(0.0, hi)
    grid = np.linspace(0.0, hi, 1025)
    if isinstance(dist, GmmDistribution):
        interior = dist.model.means[(dist.model.means > 0.0) & (dist.model.means < hi)]
        # drop repeats (one beside the minimum would halve the zoom bracket)
        # by hand: np.unique would import numpy.ma
        grid = np.sort(np.concatenate((grid, interior)))
        grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    best = math.inf
    for _ in range(3):
        dens = np.asarray(dist.pdf(grid), dtype=float)
        at = int(np.argmin(dens))
        best = min(best, float(dens[at]))
        lo_edge = grid[max(at - 1, 0)]
        hi_edge = grid[min(at + 1, grid.size - 1)]
        if not hi_edge > lo_edge:
            break
        grid = np.linspace(lo_edge, hi_edge, 1025)
    return max(best, 0.0)


def regret_params(dist: PriceDistribution, schedule: ThresholdSchedule) -> RegretParams:
    """Extract (alpha, betas) for the regret bound; rejects mass below zero."""
    if dist.prob_below(0.0) >= 1e-9:
        raise NegativeSupportError(
            f"distribution has P(X < 0) = {dist.prob_below(0.0)!r}; bound needs nonnegative support"
        )
    mean = float(dist.mean())
    if mean <= 0:
        raise NegativeSupportError("bound needs a strictly positive mean price")
    alpha = dist.expected_min_of_two() / (2.0 * mean)
    finite = schedule.thresholds[:-1]
    # finite[j] guards the slot with horizon - j slots remaining, so reversing
    # lists betas by remaining horizon 2, 3, ..., horizon
    betas = tuple(_density_infimum(dist, theta) for theta in reversed(finite))
    return RegretParams(alpha=alpha, betas=betas)


def shape_bound(params: RegretParams, horizon: int, mean_price: float) -> float:
    """Distribution-shape upper bound on expected one-shot regret at this horizon.

    2 / sum(betas) - T * alpha^(T-1) * mean_price. May come out negative for
    shapes where it is vacuous; raising is reserved for a zero beta sum,
    where the bound does not exist at all.
    """
    if horizon < 2:
        raise ValueError(f"bound needs horizon >= 2, got {horizon}")
    need = horizon - 1
    if len(params.betas) < need:
        raise ValueError(
            f"schedule provided {len(params.betas)} betas; horizon {horizon} needs {need}"
        )
    beta_sum = math.fsum(params.betas[:need])
    if beta_sum <= 0:
        raise ZeroBetaSumError(
            "density infimum is zero on every guarded interval; bound undefined"
        )
    return 2.0 / beta_sum - horizon * params.alpha ** (horizon - 1) * mean_price


def uniform_bound(mean: float, std: float, horizon: int) -> float:
    """Mean/std form of the regret bound for uniform price laws.

    4*sqrt(3)*std/(T-1) - T*mean*(1 - (mean^2+std^2)/(2*sqrt(3)*mean*std))^(T-1),
    valid when the implied support [mean - sqrt(3)std, mean + sqrt(3)std]
    stays nonnegative.
    """
    if horizon < 2:
        raise ValueError(f"bound needs horizon >= 2, got {horizon}")
    if std <= 0:
        raise BoundDomainError(f"std must be positive, got {std!r}")
    if mean <= 0:
        raise BoundDomainError(f"mean must be positive, got {mean!r}")
    low = mean - math.sqrt(3.0) * std
    if low < -1e-9:
        raise BoundDomainError(
            f"implied support lower endpoint {low!r} is negative; bound domain excludes it"
        )
    first = 4.0 * math.sqrt(3.0) * std / (horizon - 1)
    bracket = 1.0 - (mean * mean + std * std) / (2.0 * math.sqrt(3.0) * mean * std)
    return first - horizon * mean * bracket ** (horizon - 1)


def _check_support(values: np.ndarray, probs: np.ndarray, horizon: int) -> None:
    if values.size != probs.size or values.size == 0:
        raise ValueError("values and probs must be nonempty and equal-length")
    if np.any(probs < -1e-12):
        raise ValueError("probabilities must be nonnegative")
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {float(probs.sum())!r}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")


def brute_force_expected_cost(values, probs, horizon: int) -> float:
    """Exact expected cost of optimal stopping over iid discrete prices.

    Backward induction: with one slot left pay the mean; earlier, pay
    min(price, continuation) in expectation.
    """
    v = np.asarray(values, dtype=float)
    q = np.asarray(probs, dtype=float)
    _check_support(v, q, horizon)
    expected = float(np.dot(v, q))
    for _ in range(horizon - 1):
        expected = float(np.dot(np.minimum(v, expected), q))
    return expected


@dataclass(frozen=True)
class GammaPoint:
    """Monte-Carlo estimate of relative regret at one horizon."""

    horizon: int
    gamma: float
    gamma_ci_lo: float
    gamma_ci_hi: float
    regret_mean: float
    regret_ucl95: float
    mean_cost: float
    mean_offline: float
    bound: float | None = None
    bound_vacuous: bool | None = None


@dataclass(frozen=True)
class ExperimentReport:
    """Everything a study produced, ready for JSON/CSV serialization.

    ``beta_points`` is the ``DailyScores.days`` table of a serving study.
    """

    kind: str
    seed: int
    config: dict
    gamma_points: tuple[GammaPoint, ...] = ()
    beta_points: np.recarray | None = None
    summary: dict = field(default_factory=dict)


def one_shot_regret_study(
    dist: PriceDistribution,
    horizons: Sequence[int],
    n_runs: int,
    seed: int,
    include_bound: bool = False,
) -> ExperimentReport:
    """Simulate the one-shot policy against hindsight across horizons.

    gamma is reported as ratio of means, (mean cost - mean OPT) / mean OPT:
    per-run ratios have unbounded variance for laws with mass near zero, so
    the expectation-ratio form is the stable estimand. The 95% interval moves
    the regret interval over the fixed mean optimum.
    """
    if n_runs < 2:
        raise ValueError(f"n_runs must be >= 2, got {n_runs}")
    if not horizons:
        raise ValueError("need at least one horizon")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    points = []
    for horizon in horizons:
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        schedule = compute_thresholds_iid(dist, horizon)
        prices = dist.sample(n_runs * horizon, rng).reshape(n_runs, horizon)
        paid, _ = simulate_one_shot_matrix(prices, schedule)
        best = prices.min(axis=1)
        regrets = paid - best
        mean_regret = float(regrets.mean())
        se = float(regrets.std(ddof=1)) / math.sqrt(n_runs)
        mean_offline = float(best.mean())
        if mean_offline <= 0:
            raise NonpositiveOptimumError(
                f"mean offline optimum {mean_offline!r} at horizon {horizon} is not positive"
            )
        bound = None
        vacuous = None
        if include_bound and horizon >= 2:
            params = regret_params(dist, schedule)
            bound = shape_bound(params, horizon, float(dist.mean()))
            # regret_params rejects mass below 0, so buying in the first slot
            # costs E[p] and the regret is at most E[p] - E[min] <= E[p]: a
            # bound at or above the mean says nothing
            vacuous = bound <= 0 or bound >= dist.mean()
        points.append(
            GammaPoint(
                horizon=int(horizon),
                gamma=mean_regret / mean_offline,
                gamma_ci_lo=(mean_regret - 1.96 * se) / mean_offline,
                gamma_ci_hi=(mean_regret + 1.96 * se) / mean_offline,
                regret_mean=mean_regret,
                regret_ucl95=mean_regret + 1.96 * se,
                mean_cost=float(paid.mean()),
                mean_offline=mean_offline,
                bound=bound,
                bound_vacuous=vacuous,
            )
        )
    gammas = [pt.gamma for pt in points]
    return ExperimentReport(
        kind="one_shot_regret",
        seed=seed,
        config={
            "horizons": [int(h) for h in horizons],
            "n_runs": int(n_runs),
            "include_bound": include_bound,
        },
        gamma_points=tuple(points),
        summary={"gamma_max": max(gammas), "gamma_min": min(gammas)},
    )


@dataclass(frozen=True, eq=False)
class DailyScores:
    """A realized policy run scored day by day against hindsight.

    ``days`` is a read-only record array with one row per day that has
    costs and the fields day, online_cost, offline_cost and beta; beta is
    NaN on a day whose hindsight cost is not positive. ``summary`` holds
    beta_mean, beta_max, days_without_beta, total_online and total_offline.
    """

    days: np.recarray
    summary: dict
    result: SimulationResult


def daily_cost_ratios(
    prices: PriceTrace,
    load: LoadTrace,
    capacity: float,
    laws: Sequence[PriceDistribution],
) -> DailyScores:
    """Serve a realized trace from 24 hourly ``laws`` and compare per-day against hindsight.

    Costs attribute to the calendar day of each piece's deadline, so online
    and offline aggregate the same piece set and every daily ratio is >= 1
    by construction. Days without demand are skipped. A day whose hindsight
    cost is zero or negative (negative prices) keeps its costs but has no
    ratio. The summary's mean and max cover the days with a ratio.

    Raises InsufficientDataError when no day has a ratio (no demand, or only
    days whose hindsight cost is not positive): there is nothing to score.
    """
    result = run_policy(prices, load, capacity, laws)
    rec = result.records
    minima = WindowMinima(prices.values)(rec.t_start, rec.t_end)
    n_days = (load.start.hour + len(load) + HOURS_PER_DAY - 1) // HOURS_PER_DAY
    day_of = (load.start.hour + rec.t_end) // HOURS_PER_DAY
    # bincount adds in piece order, the same sums as a per-piece loop
    online = np.bincount(day_of, weights=rec.quantity * rec.price, minlength=n_days)
    offline = np.bincount(day_of, weights=rec.quantity * minima, minlength=n_days)
    day = np.flatnonzero((online != 0.0) | (offline != 0.0))
    scored = offline[day] > 0
    beta = np.divide(online[day], offline[day], out=np.full(day.size, math.nan), where=scored)
    if not scored.any():
        raise InsufficientDataError(
            f"no day has a positive hindsight cost to score against "
            f"({day.size} days with costs, none with a beta)"
        )
    days = np.rec.fromarrays(
        (day, online[day], offline[day], beta),
        names=("day", "online_cost", "offline_cost", "beta"),
    )
    days.setflags(write=False)
    summary = {
        "beta_mean": float(np.mean(beta[scored])),
        "beta_max": float(np.max(beta[scored])),
        "days_without_beta": int(day.size - np.count_nonzero(scored)),
        "total_online": result.total_cost,
        "total_offline": float(offline.sum()),
    }
    return DailyScores(days=days, summary=summary, result=result)


def general_serving_study(
    dist: PriceDistribution,
    load: LoadTrace,
    capacity: float,
    seed: int,
) -> ExperimentReport:
    """Draw one price realization per slot from ``dist``, serve the load with
    the policy that knows ``dist``, and report daily online/offline ratios."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    prices = PriceTrace(load.start, dist.sample(len(load), rng))
    scores = daily_cost_ratios(prices, load, capacity, (dist,) * HOURS_PER_DAY)
    return ExperimentReport(
        kind="general_serving",
        seed=seed,
        config={"capacity": float(capacity), "n_slots": len(load)},
        beta_points=scores.days,
        summary=scores.summary,
    )


def report_to_json_dict(report: ExperimentReport) -> dict:
    doc = {
        "kind": report.kind,
        "seed": report.seed,
        "config": report.config,
        "summary": report.summary,
    }
    if report.gamma_points:
        rows = [asdict(pt) for pt in report.gamma_points]
        for row in rows:
            row["T"] = row.pop("horizon")
        doc["gamma"] = rows
    if report.beta_points is not None:
        doc["beta"] = beta_rows(report.beta_points)
    return doc


def beta_rows(days: np.recarray) -> list[dict]:
    """JSON rows of daily costs; a day without a ratio has ``"beta": null``."""
    # .tolist() gives Python numbers, which json writes without numpy types
    return [
        {
            "day": day,
            "online_cost": online,
            "offline_cost": offline,
            "beta": None if math.isnan(beta) else beta,
        }
        for day, online, offline, beta in days.tolist()
    ]


def gamma_to_csv(report: ExperimentReport, path) -> None:
    write_csv(
        path,
        ("T", "gamma_mean", "gamma_ci_lo", "gamma_ci_hi"),
        (
            (pt.horizon, repr(pt.gamma), repr(pt.gamma_ci_lo), repr(pt.gamma_ci_hi))
            for pt in report.gamma_points
        ),
    )


def beta_to_csv(days: np.recarray, path) -> None:
    """Write the days that have a ratio as (day, beta) rows."""
    scored = days[~np.isnan(days.beta)]
    write_csv(path, ("day", "beta"), zip(scored.day.tolist(), map(repr, scored.beta.tolist())))

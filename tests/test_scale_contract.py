"""Scale contract: a power of two in the units moves no decision.

Scaling loads and capacity by 2**k keeps every piece window, buy slot,
forced flag, beta and chosen grid index, and scales every quantity, cost and
chosen capacity by exactly 2**k. Scaling prices by 2**k scales thresholds,
costs, fitted means and stds and the regret bound by exactly 2**k, and keeps
buy slots, betas and gamma. A power of two changes only the float exponent,
so every comparison here is bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from gridstash import gmm
from gridstash.data_io import split_train_test
from gridstash.decomposition import decompose
from gridstash.distributions import GmmDistribution, make_model
from gridstash.evaluation import (
    daily_cost_ratios,
    general_serving_study,
    one_shot_regret_study,
    uniform_bound,
)
from gridstash.heuristics import fit_estimator
from gridstash.sizing import min_cost_curve, optimal_capacity
from gridstash.synth import DEFAULT_PRICE_MODEL, shift_model, synth_load, synth_prices

KS = (-60, -40, -20, 20, 40, 60)
DAYS, TRAIN_DAYS = 20, 14
VARIANTS = ("single", "hourly", "peak-offpeak")
K_MAX = 3


@pytest.fixture(scope="module")
def traces():
    """The benchmark's trace shape (peak hours shifted up) at seed 1, 20 days."""
    peak = shift_model(DEFAULT_PRICE_MODEL, 12.0)
    prices = synth_prices(24 * DAYS, 2, peak_model=peak)
    return prices, synth_load(24 * DAYS, 3)


def _scaled(trace, k: int):
    return type(trace)(trace.start, np.ldexp(trace.values, k))


def _assert_scores_scaled(base, got, k: int, fields: tuple[str, ...]) -> None:
    """got is base with ``fields`` and every cost times 2**k, all else equal."""
    for name in base.result.records.dtype.names:
        want = base.result.records[name]
        if name in fields:
            want = np.ldexp(want, k)
        assert np.array_equal(got.result.records[name], want), name
    assert np.array_equal(got.days.day, base.days.day)
    assert np.array_equal(got.days.beta, base.days.beta, equal_nan=True)
    for name in ("online_cost", "offline_cost"):
        assert np.array_equal(got.days[name], np.ldexp(base.days[name], k)), name
    for name, value in base.summary.items():
        want = math.ldexp(value, k) if name.startswith("total_") else value
        assert got.summary[name] == want, name


@pytest.fixture(scope="module")
def estimators(traces):
    train, _ = split_train_test(traces[0], TRAIN_DAYS)
    return {v: fit_estimator(train, v, max_components=K_MAX) for v in VARIANTS}


@pytest.mark.parametrize("k", KS)
def test_scaling_loads_and_capacity_scales_only_quantities_and_costs(traces, estimators, k):
    prices, load = traces
    capacity = 0.5 * float(load.values.max())
    scaled_load = _scaled(load, k)
    base_pieces = decompose(load, capacity)
    pieces = decompose(scaled_load, math.ldexp(capacity, k))
    assert np.array_equal(pieces.quantity, np.ldexp(base_pieces.quantity, k))
    assert np.array_equal(pieces.t_start, base_pieces.t_start)
    assert np.array_equal(pieces.t_end, base_pieces.t_end)

    _, test_prices = split_train_test(prices, TRAIN_DAYS)
    _, test_load = split_train_test(load, TRAIN_DAYS)
    _, scaled_test_load = split_train_test(scaled_load, TRAIN_DAYS)
    for variant, estimator in estimators.items():
        base = daily_cost_ratios(test_prices, test_load, capacity, estimator.laws)
        got = daily_cost_ratios(
            test_prices, scaled_test_load, math.ldexp(capacity, k), estimator.laws
        )
        assert base.result.records.forced.any() and not base.result.records.forced.all()
        _assert_scores_scaled(base, got, k, ("quantity",))

    grid = np.linspace(0.0, 2.0 * float(load.values.max()), 9)
    base_curve = min_cost_curve(prices, load, grid)
    curve = min_cost_curve(prices, scaled_load, np.ldexp(grid, k))
    assert curve.capacities == tuple(np.ldexp(grid, k).tolist())
    assert curve.costs == tuple(math.ldexp(c, k) for c in base_curve.costs)
    assert curve.marginal_savings() == base_curve.marginal_savings()
    # an amortized price between the first and last saving picks an inner point
    price = float(np.median(base_curve.marginal_savings()))
    base_pick = optimal_capacity(base_curve, price)
    pick = optimal_capacity(curve, price)
    assert 0.0 < base_pick.capacity < grid[-1]
    assert pick.capacity == math.ldexp(base_pick.capacity, k)
    assert pick.cost_at_capacity == math.ldexp(base_pick.cost_at_capacity, k)


@pytest.mark.parametrize("k", KS)
def test_scaling_prices_scales_thresholds_costs_fits_and_bounds(traces, estimators, k):
    prices, load = traces
    scaled_prices = _scaled(prices, k)
    capacity = 0.5 * float(load.values.max())
    train, test_prices = split_train_test(prices, TRAIN_DAYS)
    scaled_train, scaled_test_prices = split_train_test(scaled_prices, TRAIN_DAYS)
    _, test_load = split_train_test(load, TRAIN_DAYS)

    # fit's sweep, then every backtest variant on the scaled prices
    config = gmm.EmConfig()
    (base_sel,) = gmm.select_models([train.values], [K_MAX], config)
    (sel,) = gmm.select_models([scaled_train.values], [K_MAX], config)
    assert np.array_equal(sel.best.model.weights, base_sel.best.model.weights)
    assert np.array_equal(sel.best.model.means, np.ldexp(base_sel.best.model.means, k))
    assert np.array_equal(sel.best.model.stds, np.ldexp(base_sel.best.model.stds, k))
    for variant, estimator in estimators.items():
        scaled_estimator = fit_estimator(scaled_train, variant, max_components=K_MAX)
        base = daily_cost_ratios(test_prices, test_load, capacity, estimator.laws)
        got = daily_cost_ratios(scaled_test_prices, test_load, capacity, scaled_estimator.laws)
        _assert_scores_scaled(base, got, k, ("price", "threshold"))

    model = DEFAULT_PRICE_MODEL
    scaled_model = make_model(model.weights, np.ldexp(model.means, k), np.ldexp(model.stds, k))
    dist, scaled_dist = GmmDistribution(model), GmmDistribution(scaled_model)
    base_study = one_shot_regret_study(dist, (2, 4, 8), 200, 0, include_bound=True)
    study = one_shot_regret_study(scaled_dist, (2, 4, 8), 200, 0, include_bound=True)
    for base_point, point in zip(base_study.gamma_points, study.gamma_points):
        for name in ("gamma", "gamma_ci_lo", "gamma_ci_hi", "bound_vacuous"):
            assert getattr(point, name) == getattr(base_point, name), name
        for name in ("regret_mean", "regret_ucl95", "mean_cost", "mean_offline", "bound"):
            assert getattr(point, name) == math.ldexp(getattr(base_point, name), k), name

    serve_load = synth_load(24 * 3, 4)
    base_serve = general_serving_study(dist, serve_load, 1.0, 0)
    serve = general_serving_study(scaled_dist, serve_load, 1.0, 0)
    assert np.array_equal(serve.beta_points.beta, base_serve.beta_points.beta, equal_nan=True)
    assert serve.summary["beta_mean"] == base_serve.summary["beta_mean"]

    # one ulp of std puts the implied support's low end a rounding below 0
    std = math.nextafter(1.9 / math.sqrt(3.0), math.inf)
    want = math.ldexp(uniform_bound(1.9, std, 3), k)
    assert uniform_bound(math.ldexp(1.9, k), math.ldexp(std, k), 3) == want

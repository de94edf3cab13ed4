"""Offline oracles, regret ratios, worst-case bounds, and study plumbing."""

from __future__ import annotations

import math
from datetime import datetime

import numpy as np
import pytest

import oracles
from gridstash.data_io import load_trace_from_values, price_trace_from_values
from gridstash.decomposition import WindowMinima
from gridstash.distributions import (
    DiscreteDistribution,
    GmmDistribution,
    UniformDistribution,
    make_model,
)
from gridstash.errors import (
    BoundDomainError,
    InsufficientDataError,
    NegativeSupportError,
    ZeroBetaSumError,
)
from gridstash.evaluation import (
    RegretParams,
    _density_infimum,
    brute_force_expected_cost,
    daily_cost_ratios,
    general_serving_study,
    offline_optimal_general,
    one_shot_regret_study,
    regret_params,
    shape_bound,
    uniform_bound,
)
from gridstash.policy import compute_thresholds_iid
from gridstash.synth import DEFAULT_PRICE_MODEL

U01 = UniformDistribution(0.0, 1.0)
COIN = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
THREE_ATOM = DiscreteDistribution([0.0, 1.0, 3.0], [0.3, 0.4, 0.3])


def test_window_minima_match_brute_force_slices():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 7, 8, 9, 64, 100):
        # few distinct values, so minima tie across the two covering halves
        values = rng.integers(-3, 4, size=n).astype(float)
        minima = WindowMinima(values)
        lo, hi = np.triu_indices(n)  # every window, length 1 through n
        expected = [values[a : b + 1].min() for a, b in zip(lo, hi)]
        assert minima(lo, hi).tolist() == expected
        assert minima(np.arange(n), np.arange(n)).tolist() == values.tolist()
        assert minima([0], [n - 1]).tolist() == [values.min()]
    assert WindowMinima([5.0, 2.0])([], []).size == 0
    with pytest.raises(ValueError):
        WindowMinima([])


def test_offline_optimal_general_known_instance():
    prices = price_trace_from_values([1.0, 5.0, 9.0])
    load = load_trace_from_values([0.0, 0.0, 3.0])
    # with capacity 3 all demand buys at slot 0
    assert offline_optimal_general(prices, load, 3.0) == pytest.approx(3.0)
    # with capacity 0 it must pay the deadline price
    assert offline_optimal_general(prices, load, 0.0) == pytest.approx(27.0)
    # with capacity 1 one unit escapes to slot 0
    assert offline_optimal_general(prices, load, 1.0) == pytest.approx(1.0 + 18.0)


def test_offline_optimal_matches_storage_dp_on_integer_instances():
    rng = np.random.default_rng(14)
    for trial in range(40):
        n = int(rng.integers(2, 9))
        prices_v = rng.integers(1, 10, size=n).astype(float)
        demand_v = rng.integers(0, 4, size=n).astype(float)
        capacity = int(rng.integers(0, 5))
        prices = price_trace_from_values(prices_v)
        load = load_trace_from_values(demand_v)
        ours = offline_optimal_general(prices, load, float(capacity))
        dp = oracles.dp_storage_optimum(prices_v, demand_v, capacity)
        assert ours == pytest.approx(dp, abs=1e-9)


def test_regret_params_uniform_three_slots():
    schedule = compute_thresholds_iid(U01, 3)
    params = regret_params(U01, schedule)
    # E[min of two] = 1/3, so alpha = (1/3) / (2 * 1/2) = 1/3
    assert params.alpha == pytest.approx(1.0 / 3.0, abs=1e-9)
    # uniform density is 1 everywhere on [0, theta]
    assert params.betas == pytest.approx((1.0, 1.0))


def test_density_infimum_matches_bounded_search_on_mixture_valleys():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 40:
        m1, s1, s2 = rng.uniform(5.0, 20.0), rng.uniform(1.0, 4.0), rng.uniform(1.0, 6.0)
        m2 = m1 + rng.uniform(4.0, 10.0) * max(s1, s2)
        w = rng.uniform(0.2, 0.8)
        dist = GmmDistribution(make_model((w, 1.0 - w), (m1, m2), (s1, s2)))
        theta = m2 + rng.uniform(0.0, 2.0) * s2
        dense = dist.pdf(np.linspace(0.0, theta, 20_001))
        if np.argmin(dense) in (0, dense.size - 1):
            continue  # keep only minima strictly inside [0, theta]
        checked += 1
        ours = _density_infimum(dist, theta)
        reference = oracles.reference_density_infimum(dist, theta)
        assert ours == pytest.approx(reference, rel=1e-9, abs=0)


def test_density_infimum_equals_bounded_search_on_model_thresholds():
    cases = (
        (GmmDistribution(DEFAULT_PRICE_MODEL), (2, 4, 8, 16, 32)),
        (U01, (3, 5, 8, 12)),
    )
    for dist, horizons in cases:
        thetas = [-1.0, 0.0]
        for horizon in horizons:
            thetas += compute_thresholds_iid(dist, horizon).thresholds[:-1]
        for theta in thetas:
            assert _density_infimum(dist, theta) == oracles.reference_density_infimum(dist, theta)


def test_regret_params_discrete_atom_infimum():
    schedule = compute_thresholds_iid(THREE_ATOM, 3)
    params = regret_params(THREE_ATOM, schedule)
    # thresholds (0.79, 1.3): atoms inside [0, 0.79] -> {0}: mass 0.3;
    # atoms inside [0, 1.3] -> {0, 1}: min mass 0.3
    assert params.betas == pytest.approx((0.3, 0.3))
    alpha = THREE_ATOM.expected_min_of_two() / (2.0 * THREE_ATOM.mean())
    assert params.alpha == pytest.approx(alpha, abs=1e-12)


def test_regret_params_rejects_negative_support():
    neg = UniformDistribution(-1.0, 1.0)
    schedule = compute_thresholds_iid(neg, 3)
    with pytest.raises(NegativeSupportError):
        regret_params(neg, schedule)


def test_shape_bound_uniform_values():
    schedule = compute_thresholds_iid(U01, 3)
    params = regret_params(U01, schedule)
    # 2 / (1+1) - 3 * (1/3)^2 * 0.5 = 1 - 1/6 = 5/6
    assert shape_bound(params, 3, U01.mean()) == pytest.approx(
        0.8333333333333334, abs=1e-9
    )
    # horizon 2 uses one beta: 2/1 - 2 * (1/3) * 0.5 = 5/3
    assert shape_bound(params, 2, U01.mean()) == pytest.approx(5.0 / 3.0, abs=1e-12)


def test_shape_bound_coin_flip_value():
    schedule = compute_thresholds_iid(COIN, 3)
    params = regret_params(COIN, schedule)
    # thresholds (0.25, 0.5): only the 0-atom sits inside each -> betas (0.5, 0.5)
    # alpha = E[min2]/(2 mean) = 0.25/1 = 0.25
    assert shape_bound(params, 3, COIN.mean()) == pytest.approx(1.90625, abs=1e-12)


def test_shape_bound_three_atom_value():
    schedule = compute_thresholds_iid(THREE_ATOM, 3)
    params = regret_params(THREE_ATOM, schedule)
    assert shape_bound(params, 3, THREE_ATOM.mean()) == pytest.approx(
        3.0743525641025644, abs=1e-12
    )


def test_shape_bound_validation():
    params = RegretParams(alpha=0.3, betas=(0.0, 0.0))
    with pytest.raises(ZeroBetaSumError):
        shape_bound(params, 3, 1.0)
    with pytest.raises(ValueError):
        shape_bound(RegretParams(0.3, (1.0,)), 3, 1.0)  # not enough betas
    with pytest.raises(ValueError):
        shape_bound(RegretParams(0.3, (1.0,)), 1, 1.0)


def test_uniform_bound_specializes_shape_bound():
    # U(0,1) has mean 1/2 and std 1/(2 sqrt 3); both forms must agree exactly
    mean, std = 0.5, 1.0 / (2.0 * math.sqrt(3.0))
    for horizon in (2, 3, 5, 8):
        schedule = compute_thresholds_iid(U01, horizon)
        params = regret_params(U01, schedule)
        general = shape_bound(params, horizon, U01.mean())
        special = uniform_bound(mean, std, horizon)
        assert special == pytest.approx(general, abs=1e-9)
    assert uniform_bound(mean, std, 3) == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_uniform_bound_domain_errors():
    with pytest.raises(BoundDomainError):
        uniform_bound(0.5, 0.0, 3)
    with pytest.raises(BoundDomainError):
        uniform_bound(-1.0, 0.1, 3)
    with pytest.raises(BoundDomainError):
        uniform_bound(0.1, 1.0, 3)  # implied support dips below zero
    with pytest.raises(ValueError):
        uniform_bound(0.5, 0.1, 1)


def test_brute_force_expected_cost_coin_flip():
    # T=2: pay 0 if first flip is 0 (p=.5), else second flip mean .5 -> 0.25
    assert brute_force_expected_cost([0.0, 1.0], [0.5, 0.5], 2) == pytest.approx(0.25)
    assert brute_force_expected_cost([0.0, 1.0], [0.5, 0.5], 1) == pytest.approx(0.5)


def test_brute_force_matches_path_enumeration():
    rng = np.random.default_rng(18)
    for trial in range(25):
        k = int(rng.integers(2, 5))
        values = np.sort(rng.uniform(0.0, 5.0, size=k))
        values += np.arange(k) * 1e-9
        probs = rng.dirichlet(np.ones(k))
        horizon = int(rng.integers(1, 6))
        dist = DiscreteDistribution(values, probs)
        schedule = compute_thresholds_iid(dist, horizon)
        by_paths = oracles.enumerate_policy_expected_cost(values, probs, schedule)
        assert brute_force_expected_cost(values, probs, horizon) == pytest.approx(
            by_paths, abs=1e-9
        )


def test_enumerate_offline_expected_min_agrees_with_oracle_and_closed_form():
    # the path-enumeration oracle the tests trust for E[min of T draws]
    assert oracles.enumerate_offline_expected_min([0.0, 1.0], [0.5, 0.5], 2) == pytest.approx(
        0.25
    )
    rng = np.random.default_rng(19)
    for trial in range(10):
        k = int(rng.integers(2, 4))
        values = np.sort(rng.uniform(0.0, 3.0, size=k)) + np.arange(k) * 1e-9
        probs = rng.dirichlet(np.ones(k))
        horizon = int(rng.integers(1, 5))
        ref = oracles.enumerate_offline_expected_min(values, probs, horizon)
        # survival closed form: E[min] = sum_k v_k (S_k^T - S_{k+1}^T)
        cum = np.concatenate(([0.0], np.cumsum(probs)))
        survival = 1.0 - cum[:-1]
        shifted = np.concatenate((survival[1:], [0.0]))
        closed = float(np.dot(values, survival**horizon - shifted**horizon))
        assert ref == pytest.approx(closed, abs=1e-9)


def test_backward_induction_needs_no_path_enumeration():
    # 10^8 price paths, but backward induction takes horizon x atoms steps
    values = np.arange(10, dtype=float)
    probs = np.full(10, 0.1)
    theta0 = compute_thresholds_iid(DiscreteDistribution(values, probs), 8).thresholds[0]
    expected = float(np.dot(np.minimum(values, theta0), probs))
    assert brute_force_expected_cost(values, probs, 8) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.144864, abs=5e-7)


def test_one_shot_regret_study_structure_and_determinism():
    report = one_shot_regret_study(U01, [2, 3, 5], 2000, seed=11)
    assert [pt.horizon for pt in report.gamma_points] == [2, 3, 5]
    again = one_shot_regret_study(U01, [2, 3, 5], 2000, seed=11)
    assert [pt.gamma for pt in report.gamma_points] == [
        pt.gamma for pt in again.gamma_points
    ]
    for pt in report.gamma_points:
        assert pt.gamma_ci_lo <= pt.gamma <= pt.gamma_ci_hi
        assert pt.regret_mean >= 0.0
        assert pt.mean_cost > pt.mean_offline > 0.0
        assert pt.bound is None
    assert report.summary["gamma_max"] >= report.summary["gamma_min"]


def test_one_shot_regret_study_bound_dominates_estimate():
    report = one_shot_regret_study(U01, [3, 5], 20_000, seed=2, include_bound=True)
    t3, t5 = report.gamma_points
    # 5/6 at T = 3 is above the mean price 1/2, which already caps the regret
    assert t3.bound == pytest.approx(5.0 / 6.0) and t3.bound_vacuous
    assert 0.0 < t5.bound < U01.mean() and not t5.bound_vacuous
    assert t5.regret_ucl95 <= t5.bound


def test_one_shot_regret_study_validation():
    with pytest.raises(ValueError):
        one_shot_regret_study(U01, [], 100, seed=0)
    with pytest.raises(ValueError):
        one_shot_regret_study(U01, [2], 1, seed=0)
    with pytest.raises(ValueError):
        one_shot_regret_study(U01, [0], 100, seed=0)


def test_daily_cost_ratios_known_two_day_instance():
    # day 0: window [0,2] min is slot 1; day 1: flat prices
    prices = price_trace_from_values(
        [4.0, 1.0, 2.0] + [0.0] * 21 + [3.0] * 24
    )
    load_values = np.zeros(48)
    load_values[2] = 1.0  # deadline inside day 0
    load_values[30] = 2.0  # deadline inside day 1
    load = load_trace_from_values(load_values)
    dist = UniformDistribution(0.5, 5.0)
    scores = daily_cost_ratios(prices, load, 0.0, (dist,) * 24)
    points = scores.days
    assert [pt.day for pt in points] == [0, 1]
    # zero capacity: online and offline both pay the deadline price
    assert points[0].beta == pytest.approx(1.0)
    assert points[1].beta == pytest.approx(1.0)
    assert scores.summary["total_online"] == pytest.approx(2.0 * 1 + 3.0 * 2)


def test_daily_cost_ratios_beta_at_least_one():
    rng = np.random.default_rng(23)
    dist = UniformDistribution(5.0, 20.0)
    for trial in range(10):
        n = 24 * int(rng.integers(2, 5))
        prices = price_trace_from_values(rng.uniform(5.0, 20.0, size=n))
        load = load_trace_from_values(
            np.round(rng.uniform(0.0, 2.0, size=n) * (rng.random(n) < 0.5), 3)
        )
        if float(load.values.sum()) == 0.0:
            continue
        scores = daily_cost_ratios(prices, load, 4.0, (dist,) * 24)
        for pt in scores.days:
            assert pt.beta >= 1.0 - 1e-12
        assert scores.summary["total_online"] >= scores.summary["total_offline"] - 1e-9


def test_daily_cost_ratios_skips_empty_days():
    prices = price_trace_from_values(np.full(72, 2.0))
    load_values = np.zeros(72)
    load_values[50] = 1.0  # only day 2 has demand
    load = load_trace_from_values(load_values)
    scores = daily_cost_ratios(
        prices, load, 0.0, (UniformDistribution(1.0, 3.0),) * 24
    )
    assert [pt.day for pt in scores.days] == [2]


def test_daily_attribution_follows_deadline_day():
    # piece starts on day 0 but its deadline sits on day 1
    prices = price_trace_from_values(np.concatenate([np.full(24, 9.0), np.full(24, 1.0)]))
    load_values = np.zeros(48)
    load_values[25] = 1.0
    load = load_trace_from_values(load_values)
    points = daily_cost_ratios(
        prices, load, 10.0, (UniformDistribution(0.5, 10.0),) * 24
    ).days
    assert len(points) == 1 and points[0].day == 1


def test_daily_cost_ratios_keeps_nonpositive_day_without_beta():
    # day 0: negative price at its only deadline; day 1: an ordinary day
    values = np.full(48, 3.0)
    values[5] = -2.0
    prices = price_trace_from_values(values)
    load_values = np.zeros(48)
    load_values[5] = 1.0
    load_values[30] = 2.0
    load = load_trace_from_values(load_values)
    scores = daily_cost_ratios(
        prices, load, 0.0, (UniformDistribution(0.1, 1.0),) * 24
    )
    points = scores.days
    assert [pt.day for pt in points] == [0, 1]
    assert math.isnan(points[0].beta)
    assert points[0].offline_cost == -2.0 and points[0].online_cost == -2.0
    assert points[1].beta == 1.0
    assert scores.summary == {
        "beta_mean": 1.0,
        "beta_max": 1.0,
        "days_without_beta": 1,
        "total_online": -2.0 + 6.0,
        "total_offline": -2.0 + 6.0,
    }


def test_nothing_to_score_raises_instead_of_nan():
    values = np.full(24, 3.0)
    values[5] = -1.0
    load_values = np.zeros(24)
    load_values[5] = 1.0
    with pytest.raises(InsufficientDataError, match="1 days with costs, none with a beta"):
        daily_cost_ratios(
            price_trace_from_values(values),
            load_trace_from_values(load_values),
            0.0,
            (UniformDistribution(0.1, 1.0),) * 24,
        )
    # a serving study whose every price is negative has no day to score
    load = load_trace_from_values(np.tile([0.0, 1.0, 2.0], 16))
    with pytest.raises(InsufficientDataError, match="no day has a positive hindsight cost"):
        general_serving_study(UniformDistribution(-9.0, -1.0), load, 1.0, seed=2)


def test_general_serving_study_reproducible():
    load = load_trace_from_values(np.tile([0, 0, 1, 0, 2, 0, 0, 1.0], 9))
    dist = UniformDistribution(10.0, 30.0)
    a = general_serving_study(dist, load, 2.0, seed=6)
    b = general_serving_study(dist, load, 2.0, seed=6)
    assert a.summary == b.summary
    assert all(pt.beta >= 1.0 - 1e-12 for pt in a.beta_points)
    assert a.summary["beta_mean"] >= 1.0 - 1e-12


def test_gmm_distribution_works_through_bound_machinery():
    # all-positive mixture passes the support gate and yields a usable bound
    model = make_model((0.6, 0.4), (30.0, 60.0), (3.0, 5.0))
    dist = GmmDistribution(model)
    schedule = compute_thresholds_iid(dist, 4)
    params = regret_params(dist, schedule)
    assert params.alpha < 1.0
    assert all(b >= 0.0 for b in params.betas)
    value = shape_bound(params, 4, dist.mean())
    assert math.isfinite(value)

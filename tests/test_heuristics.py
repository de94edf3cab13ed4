"""Peak detection and data-driven estimator fitting."""

from __future__ import annotations

import math
from dataclasses import replace
from datetime import datetime

import numpy as np
import pytest

from gridstash import gmm
from gridstash.data_io import price_trace_from_values, split_train_test
from gridstash.errors import InsufficientDataError
from gridstash.evaluation import daily_cost_ratios
from gridstash.gmm import EmConfig
from gridstash.heuristics import (
    Variant,
    _component_cap,
    detect_periods,
    fit_estimator,
)
from gridstash.synth import DEFAULT_PRICE_MODEL, shift_model, synth_load, synth_prices


def evening_peak_day():
    values = np.full(24, 1.0)
    values[17:21] = 10.0
    return price_trace_from_values(np.tile(values, 3))


def test_detect_periods_spec_example():
    labeling = detect_periods(evening_peak_day())
    assert labeling.peak == frozenset({17, 18, 19, 20})
    assert labeling.offpeak == frozenset(range(24)) - {17, 18, 19, 20}
    assert 18 in labeling.peak
    assert 3 not in labeling.peak


def test_detect_periods_global_mean_threshold_value():
    # 20 hours at 1 and 4 hours at 10: global mean = 2.5, strictly above
    trace = evening_peak_day()
    assert float(trace.values.mean()) == pytest.approx(2.5)
    labeling = detect_periods(trace)
    assert len(labeling.peak) == 4


def test_detect_periods_quantile_mode():
    values = np.arange(24.0)  # hourly means 0..23
    trace = price_trace_from_values(np.tile(values, 2))
    labeling = detect_periods(trace, quantile=0.4)
    threshold = float(np.quantile(np.arange(24.0), 0.4))
    expected = frozenset(h for h in range(24) if h > threshold)
    assert labeling.peak == expected
    with pytest.raises(ValueError):
        detect_periods(trace, quantile=0.0)
    with pytest.raises(ValueError):
        detect_periods(trace, quantile=1.5)


def test_detect_periods_flat_trace_has_no_peak():
    trace = price_trace_from_values(np.full(48, 7.0))
    labeling = detect_periods(trace)
    assert labeling.peak == frozenset()
    assert labeling.offpeak == frozenset(range(24))


def test_detect_periods_needs_a_full_day():
    with pytest.raises(InsufficientDataError):
        detect_periods(price_trace_from_values(np.ones(23)))


def test_detect_periods_respects_trace_start_hour():
    # same daily shape, but the trace starts at 17:00
    values = np.full(24, 1.0)
    values[17:21] = 10.0
    rolled = np.roll(values, -17)
    trace = price_trace_from_values(np.tile(rolled, 2), start=datetime(2020, 1, 1, 17))
    labeling = detect_periods(trace)
    assert labeling.peak == frozenset({17, 18, 19, 20})


def test_detect_periods_matches_pure_python_recomputation():
    rng = np.random.default_rng(31)
    for trial in range(50):
        days = int(rng.integers(1, 5))
        start_hour = int(rng.integers(0, 24))
        values = rng.uniform(10.0, 90.0, size=days * 24 + int(rng.integers(0, 24)))
        if values.size < 24:
            continue
        trace = price_trace_from_values(values, start=datetime(2020, 3, 1, start_hour))
        labeling = detect_periods(trace)
        sums = [0.0] * 24
        counts = [0] * 24
        for i, v in enumerate(values):
            h = (start_hour + i) % 24
            sums[h] += float(v)
            counts[h] += 1
        global_mean = sum(float(v) for v in values) / values.size
        expected = frozenset(
            h for h in range(24) if counts[h] and sums[h] / counts[h] > global_mean
        )
        assert labeling.peak == expected


def synthetic_training_trace(days=10, seed=0):
    return synth_prices(days * 24, seed=seed)


def test_fit_single_variant():
    trace = synthetic_training_trace()
    est = fit_estimator(trace, "single", max_components=4)
    assert len(est.models) == 1
    assert est.hour_index == (0,) * 24
    d0 = est.laws[0]
    assert d0 is est.laws[13]
    assert d0.mean() == pytest.approx(float(trace.values.mean()), rel=0.1)


def test_fit_hourly_variant():
    trace = synthetic_training_trace(days=15)
    est = fit_estimator(trace, Variant.HOURLY, max_components=2)
    assert len(est.models) == 24
    assert est.hour_index == tuple(range(24))
    hours = trace.hours_of_day()
    for h in (0, 7, 19):
        samples = trace.values[hours == h]
        assert est.laws[h].mean() == pytest.approx(float(samples.mean()), abs=1e-6)


def test_fit_hourly_needs_full_day():
    with pytest.raises(InsufficientDataError):
        fit_estimator(price_trace_from_values(np.ones(10)), "hourly")


def test_fit_peak_offpeak_variant():
    trace = synth_prices(24 * 12, seed=3, peak_model=shift_model(DEFAULT_PRICE_MODEL, 30.0))
    est = fit_estimator(trace, "peak-offpeak", max_components=4)
    assert len(est.models) == 2
    assert est.labeling is not None and est.labeling.peak
    peak_hour = next(iter(est.labeling.peak))
    offpeak_hour = next(iter(est.labeling.offpeak))
    assert est.laws[peak_hour].mean() > est.laws[offpeak_hour].mean()
    assert est.hour_index[peak_hour] == 1
    assert est.hour_index[offpeak_hour] == 0


def test_fit_peak_offpeak_degenerate_collapses_to_pooled():
    trace = price_trace_from_values(np.full(72, 5.0))
    est = fit_estimator(trace, "peak-offpeak")
    assert len(est.models) == 1
    assert est.labeling is not None and not est.labeling.peak
    assert est.laws[0] is est.laws[18]


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("seed, peak_model", [
    (3, shift_model(DEFAULT_PRICE_MODEL, 30.0)),
    (4, None),
], ids=["peak-shifted", "plain"])
def test_fitted_estimator_shape(variant, seed, peak_model):
    trace = synth_prices(24 * 12, seed, peak_model=peak_model)
    est = fit_estimator(trace, variant, max_components=3)
    assert len(est.hour_index) == 24
    assert all(i in range(len(est.models)) for i in est.hour_index)
    if variant is Variant.PEAK_OFFPEAK:
        peak, offpeak = est.labeling.peak, est.labeling.offpeak
        assert peak | offpeak == frozenset(range(24)) and not peak & offpeak
        assert len(est.models) == (2 if peak and offpeak else 1)
    else:
        assert est.labeling is None
        assert len(est.models) == {Variant.SINGLE: 1, Variant.HOURLY: 24}[variant]
    for h in range(24):
        for g in range(24):
            same_model = est.hour_index[h] == est.hour_index[g]
            assert (est.laws[h] is est.laws[g]) == same_model, (h, g)


def test_fit_is_deterministic_for_a_seed():
    trace = synthetic_training_trace(days=6, seed=9)
    a = fit_estimator(trace, "single", max_components=3, config=EmConfig(init_seed=7))
    b = fit_estimator(trace, "single", max_components=3, config=EmConfig(init_seed=7))
    assert a.models == b.models


def test_component_cap_scales_with_samples():
    # 30 samples cap the sweep at 3 components even when asked for 8
    rng = np.random.default_rng(2)
    trace = price_trace_from_values(rng.uniform(20.0, 30.0, size=30))
    est = fit_estimator(trace, "single", max_components=8)
    assert est.models[0].n_components <= 3


def test_submodel_seed_keys():
    # each variant fits its groups with fixed seed keys: single (0,), hourly
    # (1, h), peak-offpeak (4,) off-peak and (3,) peak, collapsed (2,); each
    # group alone, seeded from init_seed and its key, gives the same model
    config = EmConfig(init_seed=5)
    trace = synth_prices(24 * 21, seed=4, peak_model=shift_model(DEFAULT_PRICE_MODEL, 30.0))
    values, hours = trace.values, trace.hours_of_day()
    peak = np.isin(hours, sorted(detect_periods(trace).peak))
    assert peak.any() and not peak.all()
    cases = [
        ("single", None, [values], [(0,)]),
        ("hourly", None, [values[hours == h] for h in range(24)], [(1, h) for h in range(24)]),
        ("peak-offpeak", None, [values[~peak], values[peak]], [(4,), (3,)]),
        ("peak-offpeak", 1.0, [values], [(2,)]),
    ]
    for variant, quantile, groups, keys in cases:
        est = fit_estimator(trace, variant, max_components=3, config=config, quantile=quantile)
        seeds = [gmm.derive_seed(config.init_seed, *key) for key in keys]
        want = tuple(
            gmm.select_model(g, _component_cap(g.size, 3), replace(config, init_seed=seed)).model
            for g, seed in zip(groups, seeds)
        )
        assert est.models == want, (variant, quantile)


def _hourly_backtest(scale: float = 1.0, shift: float = 0.0):
    """Hourly estimator on 30 days of transformed prices, served on the next 10."""
    prices = synth_prices(24 * 40, seed=1)
    prices = price_trace_from_values(prices.values * scale + shift, start=prices.start)
    load = synth_load(24 * 40, seed=2)
    train_prices, test_prices = split_train_test(prices, 30)
    _, test_load = split_train_test(load, 30)
    est = fit_estimator(train_prices, "hourly")
    capacity = 0.5 * float(load.values.max())
    scores = daily_cost_ratios(test_prices, test_load, capacity, est.laws)
    ks = [m.n_components for m in est.models]
    return ks, scores.summary["beta_mean"], scores.result.records.buy_slot


def test_hourly_fit_is_scale_invariant():
    ks, beta_mean, _ = _hourly_backtest()
    assert len(set(ks)) > 1 or ks[0] > 1  # the picks are not all forced by the cap
    for scale in (1e7, 1e-7):
        scaled_ks, scaled_beta, _ = _hourly_backtest(scale=scale)
        assert scaled_ks == ks, scale
        assert abs(scaled_beta - beta_mean) <= math.ulp(beta_mean), scale


def test_hourly_serve_is_shift_invariant():
    ks, _, buy_slots = _hourly_backtest()
    shifted_ks, _, shifted_slots = _hourly_backtest(shift=1e3)
    assert shifted_ks == ks
    assert np.array_equal(shifted_slots, buy_slots)

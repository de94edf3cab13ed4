"""Synthetic trace generators: determinism, shape, and peak behavior."""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from gridstash.data_io import HOURS_PER_DAY
from gridstash.synth import (
    DEFAULT_PEAK_HOURS,
    DEFAULT_PRICE_MODEL,
    shift_model,
    synth_load,
    synth_prices,
)


def test_prices_deterministic_per_seed():
    a = synth_prices(240, seed=5)
    b = synth_prices(240, seed=5)
    c = synth_prices(240, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.start == b.start


def test_prices_match_model_moments():
    trace = synth_prices(24 * 2000, seed=0)
    assert float(trace.values.mean()) == pytest.approx(
        DEFAULT_PRICE_MODEL.mean(), rel=0.01
    )
    assert float(trace.values.var()) == pytest.approx(
        DEFAULT_PRICE_MODEL.variance(), rel=0.05
    )


def test_default_model_effectively_positive():
    # the default mixture leaves no visible mass below zero, which the
    # regret-bound machinery requires of price laws
    from gridstash.gmm import cdf

    assert cdf(DEFAULT_PRICE_MODEL, 0.0) < 1e-9


def test_peak_model_shifts_only_peak_hours():
    peak_model = shift_model(DEFAULT_PRICE_MODEL, 50.0)
    plain = synth_prices(24 * 200, seed=9)
    shifted = synth_prices(24 * 200, seed=9, peak_model=peak_model)
    hod = plain.hours_of_day()
    peak_mask = np.isin(hod, sorted(DEFAULT_PEAK_HOURS))
    # off-peak hours draw from the same base stream: identical values
    assert np.array_equal(plain.values[~peak_mask], shifted.values[~peak_mask])
    assert float(shifted.values[peak_mask].mean()) == pytest.approx(
        DEFAULT_PRICE_MODEL.mean() + 50.0, rel=0.02
    )


def test_shift_model_moves_means_only():
    shifted = shift_model(DEFAULT_PRICE_MODEL, -3.5)
    assert np.allclose(shifted.means, DEFAULT_PRICE_MODEL.means - 3.5)
    assert np.array_equal(shifted.stds, DEFAULT_PRICE_MODEL.stds)
    assert np.array_equal(shifted.weights, DEFAULT_PRICE_MODEL.weights)


def test_custom_peak_hours_respected():
    peak_model = shift_model(DEFAULT_PRICE_MODEL, 100.0)
    trace = synth_prices(
        24 * 50, seed=2, peak_model=peak_model, peak_hours=frozenset({3})
    )
    hod = trace.hours_of_day()
    hot = trace.values[hod == 3]
    cold = trace.values[hod != 3]
    assert hot.mean() > cold.mean() + 50.0


def test_prices_validation():
    with pytest.raises(ValueError):
        synth_prices(0, seed=1)


def test_load_deterministic_and_nonnegative():
    a = synth_load(24 * 30, seed=3)
    b = synth_load(24 * 30, seed=3)
    assert np.array_equal(a.values, b.values)
    assert np.all(a.values >= 0.0)


def test_load_peaks_at_requested_hour():
    trace = synth_load(24 * 60, seed=7, base=0.5, amplitude=2.0, peak_hour=18, noise=0.0)
    hod = trace.hours_of_day()
    means = np.array([trace.values[hod == h].mean() for h in range(HOURS_PER_DAY)])
    assert int(np.argmax(means)) == 18
    assert means[18] == pytest.approx(2.5)
    assert means[6] == pytest.approx(0.5, abs=0.01)  # 12 hours away, bump gone


def test_load_bump_wraps_midnight():
    trace = synth_load(24 * 10, seed=1, peak_hour=0, noise=0.0)
    hod = trace.hours_of_day()
    means = np.array([trace.values[hod == h].mean() for h in range(HOURS_PER_DAY)])
    assert means[23] == pytest.approx(means[1], abs=1e-12)  # symmetric around 0


def test_load_zero_noise_is_pure_shape():
    trace = synth_load(48, seed=11, noise=0.0)
    other = synth_load(48, seed=99, noise=0.0)
    assert np.array_equal(trace.values, other.values)  # seed only drives noise


def test_load_validation():
    with pytest.raises(ValueError):
        synth_load(0, seed=0)
    with pytest.raises(ValueError):
        synth_load(24, seed=0, base=-1.0)
    with pytest.raises(ValueError):
        synth_load(24, seed=0, noise=-0.1)
    for peak_hour in (-1, 24):
        with pytest.raises(ValueError, match=f"peak_hour must lie in 0..23, got {peak_hour}"):
            synth_load(24, seed=0, peak_hour=peak_hour)


def test_start_carries_through():
    start = datetime(2022, 7, 1, 5)
    p = synth_prices(30, seed=0, start=start)
    l = synth_load(30, seed=0, start=start)
    assert p.start == start and l.start == start
    assert p.hours_of_day()[0] == 5

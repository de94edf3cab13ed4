"""Capacity sizing curves and the amortized-price capacity rule."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from gridstash.data_io import load_trace_from_values, price_trace_from_values
from gridstash.sizing import (
    SizingCurve,
    min_cost_curve,
    optimal_capacity,
)
from gridstash.synth import synth_load, synth_prices


def test_worked_example_curve():
    prices = price_trace_from_values([1.0, 9.0, 10.0])
    load = load_trace_from_values([0.0, 1.0, 1.0])
    curve = min_cost_curve(prices, load, [0.0, 1.0, 2.0])
    assert curve.costs == pytest.approx((19.0, 10.0, 2.0))
    assert curve.marginal_savings() == pytest.approx((9.0, 8.0))


def test_curve_validation():
    SizingCurve((0.0, 1.0), (5.0, 5.0))  # flat is fine
    with pytest.raises(ValueError):
        SizingCurve((0.0, 1.0), (5.0, 6.0))  # cost rises
    with pytest.raises(ValueError):
        SizingCurve((1.0, 0.0), (5.0, 4.0))  # grid not increasing
    with pytest.raises(ValueError):
        SizingCurve((0.0,), (5.0,))  # one point is not a curve
    with pytest.raises(ValueError):
        SizingCurve((0.0, 1.0, 2.0), (10.0, 9.5, 8.0))  # saving rises 0.5 -> 1.5
    with pytest.raises(ValueError):
        SizingCurve((0.0, 1.0), (5.0,))


@pytest.mark.parametrize("k", [-40, -20, 0, 20, 40, 60])
def test_curve_validation_scales_with_capacity_and_cost(k):
    # a marginal saving is a cost per unit of capacity, so its slack follows
    # both scales: a doubling saving fails at every magnitude
    scale = 2.0**k
    caps = (0.0, scale, 2.0 * scale)
    with pytest.raises(ValueError, match="marginal saving rises"):
        SizingCurve(caps, (10.0 * scale, 9.0 * scale, 7.0 * scale))
    SizingCurve(caps, (10.0 * scale, 8.0 * scale, 7.0 * scale))


def test_random_instances_have_valid_shape():
    rng = np.random.default_rng(20)
    for trial in range(20):
        n = int(rng.integers(3, 40))
        prices = price_trace_from_values(rng.uniform(1.0, 10.0, size=n))
        load = load_trace_from_values(rng.integers(0, 4, size=n).astype(float))
        grid = np.linspace(0.0, float(load.values.sum()) + 1.0, 8)
        # the constructor itself asserts non-increasing costs and
        # diminishing marginal savings; building it is the test
        curve = min_cost_curve(prices, load, grid)
        assert len(curve.capacities) == 8


def test_optimal_capacity_prefix_rule():
    curve = SizingCurve((0.0, 1.0, 2.0, 3.0), (19.0, 10.0, 2.0, 1.0))
    # savings per segment: 9, 8, 1
    assert optimal_capacity(curve, 8.5).capacity == 1.0
    assert optimal_capacity(curve, 8.0).capacity == 2.0
    assert optimal_capacity(curve, 1.0).capacity == 3.0
    assert optimal_capacity(curve, 100.0).capacity == 0.0
    free = optimal_capacity(curve, 0.0)
    assert free.capacity == 3.0  # free storage takes the whole grid
    assert free.cost_at_capacity == 1.0
    with pytest.raises(ValueError):
        optimal_capacity(curve, -1.0)


def test_optimal_capacity_non_increasing_in_price():
    rng = np.random.default_rng(21)
    prices = price_trace_from_values(rng.uniform(1.0, 30.0, size=72))
    load = load_trace_from_values(rng.integers(0, 3, size=72).astype(float))
    curve = min_cost_curve(prices, load, np.linspace(0.0, 10.0, 9))
    price_grid = np.linspace(0.0, 12.0, 10)
    caps = [optimal_capacity(curve, float(p)).capacity for p in price_grid]
    assert all(b2 <= b1 for b1, b2 in zip(caps, caps[1:]))


def test_zero_capacity_cost_is_deadline_cost():
    prices = price_trace_from_values([3.0, 7.0, 2.0])
    load = load_trace_from_values([1.0, 2.0, 4.0])
    curve = min_cost_curve(prices, load, [0.0, 1.0])
    assert curve.costs[0] == pytest.approx(3.0 + 14.0 + 8.0)


def _reference_cost(price_values, demand, capacity) -> float:
    return math.fsum(
        quantity * float(price_values[t_start : t_end + 1].min())
        for quantity, t_start, t_end in oracles.reference_decompose(demand, capacity)
    )


def test_curve_equals_reference_pieces_with_slice_minima():
    hours = 24 * 14
    prices = synth_prices(hours, 5)
    load = synth_load(hours, 6)
    grid = np.linspace(0.0, 30.0, 7)
    curve = min_cost_curve(prices, load, grid)
    expected = tuple(_reference_cost(prices.values, load.values, float(b)) for b in grid)
    assert curve.costs == expected  # exact, not approximate

"""Threshold recursion, one-shot serving, and full-trace simulation."""

from __future__ import annotations

import math
from datetime import datetime

import numpy as np
import pytest

import gridstash.policy
import oracles
from gridstash.data_io import load_trace_from_values, price_trace_from_values
from gridstash.decomposition import decompose, schedule_from_assignments, verify_feasible
from gridstash.distributions import (
    DiscreteDistribution,
    UniformDistribution,
)
from gridstash.errors import LengthMismatchError
from gridstash.policy import (
    ThresholdSchedule,
    compute_thresholds_iid,
    compute_thresholds_timevarying,
    run_policy,
    simulate_one_shot_matrix,
)
from gridstash.synth import synth_load, synth_prices

U01 = UniformDistribution(0.0, 1.0)
COIN = DiscreteDistribution([0.0, 1.0], [0.5, 0.5])
THREE_ATOM = DiscreteDistribution([0.0, 1.0, 3.0], [0.3, 0.4, 0.3])


def test_uniform_three_slot_thresholds():
    sched = compute_thresholds_iid(U01, 3)
    assert sched.thresholds[0] == pytest.approx(0.375, abs=1e-15)
    assert sched.thresholds[1] == pytest.approx(0.5, abs=1e-15)
    assert sched.thresholds[2] == math.inf


def test_coin_flip_thresholds():
    sched = compute_thresholds_iid(COIN, 3)
    assert sched.thresholds[0] == pytest.approx(0.25, abs=1e-15)
    assert sched.thresholds[1] == pytest.approx(0.5, abs=1e-15)
    assert sched.thresholds[2] == math.inf


def test_three_atom_thresholds():
    sched = compute_thresholds_iid(THREE_ATOM, 3)
    # mean = 1.3; one step: E[p; p <= 1.3] + 1.3 * P(p > 1.3) = 0.4 + 0.39
    assert sched.thresholds[1] == pytest.approx(1.3, abs=1e-15)
    assert sched.thresholds[0] == pytest.approx(0.79, abs=1e-15)


def test_horizon_one_is_forced_buy_only():
    sched = compute_thresholds_iid(U01, 1)
    assert sched.thresholds == (math.inf,)
    paid, offsets = simulate_one_shot_matrix([[0.97]], sched)
    # offset 0 is the last slot, so the buy is forced
    assert offsets.tolist() == [0] and paid.tolist() == [0.97]


def test_thresholds_monotone_nondecreasing():
    for dist in (U01, COIN, THREE_ATOM, UniformDistribution(10.0, 30.0)):
        for horizon in (2, 3, 5, 9):
            arr = compute_thresholds_iid(dist, horizon).as_array()
            assert np.all(np.diff(arr[:-1]) >= -1e-12)
            assert arr[-1] == math.inf


def test_iid_delegates_to_timevarying_bit_identical():
    for horizon in (1, 2, 4, 7):
        a = compute_thresholds_iid(THREE_ATOM, horizon)
        b = compute_thresholds_timevarying([THREE_ATOM] * horizon)
        assert a.thresholds == b.thresholds


def test_timevarying_uses_the_following_slots_law():
    cheap_late = [UniformDistribution(10.0, 12.0), UniformDistribution(0.0, 1.0)]
    sched = compute_thresholds_timevarying(cheap_late)
    # slot 0 threshold is the mean of slot 1's law, not slot 0's
    assert sched.thresholds[0] == pytest.approx(0.5)
    dear_late = [UniformDistribution(0.0, 1.0), UniformDistribution(10.0, 12.0)]
    sched = compute_thresholds_timevarying(dear_late)
    assert sched.thresholds[0] == pytest.approx(11.0)


def expected_policy_cost(dist, horizon: int) -> float:
    # slot 0's threshold in a window of horizon + 1 slots is the expected
    # price of continuing optimally, i.e. of the policy over horizon slots
    return compute_thresholds_iid(dist, horizon + 1).thresholds[0]


def test_expected_policy_cost_uniform_three_slots():
    assert expected_policy_cost(U01, 3) == pytest.approx(0.3046875, abs=1e-15)
    assert expected_policy_cost(U01, 1) == pytest.approx(0.5)
    # one more slot never hurts
    costs = [expected_policy_cost(U01, t) for t in range(1, 9)]
    assert all(b <= a + 1e-15 for a, b in zip(costs, costs[1:]))


def test_expected_policy_cost_matches_path_enumeration():
    for dist in (COIN, THREE_ATOM):
        for horizon in (1, 2, 3, 4):
            sched = compute_thresholds_iid(dist, horizon)
            enumerated = oracles.enumerate_policy_expected_cost(
                dist.values, dist.probs, sched
            )
            assert expected_policy_cost(dist, horizon) == pytest.approx(
                enumerated, abs=1e-12
            )


def test_threshold_schedule_validation():
    with pytest.raises(ValueError):
        ThresholdSchedule(())
    with pytest.raises(ValueError):
        ThresholdSchedule((0.5, 1.0))  # missing sentinel
    with pytest.raises(ValueError):
        ThresholdSchedule((math.inf, math.inf))  # early slot must be finite
    sched = ThresholdSchedule((0.25, math.inf))
    assert sched.horizon == 2
    # converted once, and read-only so no serve can edit the schedule
    assert sched.as_array() is sched.as_array() and not sched.as_array().flags.writeable
    assert sched == ThresholdSchedule((0.25, math.inf))


def test_serve_one_shot_buy_rules():
    sched = ThresholdSchedule((0.5, 0.75, math.inf))
    windows = [
        [0.5, 0.1, 0.1],  # tie buys
        [0.9, 0.9, 0.9],  # waits past high prices, forced at the deadline
        [0.6, 0.7, 0.01],  # buys the first qualifying slot, not the cheapest
    ]
    paid, offsets = simulate_one_shot_matrix(windows, sched)
    assert offsets.tolist() == [0, 2, 1]
    assert paid.tolist() == [0.5, 0.9, 0.7]
    assert sched.as_array()[offsets].tolist() == [0.5, math.inf, 0.75]
    with pytest.raises(LengthMismatchError):
        simulate_one_shot_matrix([[0.1, 0.2]], sched)


def test_matrix_simulation_matches_scalar_serve():
    rng = np.random.default_rng(12)
    sched = compute_thresholds_iid(U01, 5)
    matrix = rng.uniform(0.0, 1.0, size=(400, 5))
    paid, offsets = simulate_one_shot_matrix(matrix, sched)
    for i in range(400):
        offset, price, _, _ = oracles.serve_one_shot(sched, matrix[i])
        assert offset == offsets[i]
        assert price == paid[i]
    with pytest.raises(LengthMismatchError):
        simulate_one_shot_matrix(matrix[:, :3], sched)


def test_point_mass_prices_buy_immediately():
    sched = compute_thresholds_iid(DiscreteDistribution([4.0], [1.0]), 6)
    # threshold equals the price itself, so the first slot always triggers
    _, offsets = simulate_one_shot_matrix([[4.0] * 6], sched)
    assert offsets.tolist() == [0]


def test_run_policy_zero_capacity_buys_everything_at_deadline():
    prices = price_trace_from_values([3.0, 1.0, 2.0, 5.0])
    load = load_trace_from_values([1.0, 0.0, 2.0, 1.0])
    result = run_policy(prices, load, 0.0, (U01,) * 24)
    dispatch = schedule_from_assignments(load, decompose(load, 0.0), result.records.buy_slot)
    assert np.all(dispatch.charge == 0.0)
    assert result.total_cost == pytest.approx(3.0 * 1 + 2.0 * 2 + 5.0 * 1)
    assert all(r.forced for r in result.records)


def test_run_policy_dispatch_is_feasible_and_costs_agree():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(2, 60))
        prices = price_trace_from_values(rng.uniform(0.0, 1.0, size=n))
        load = load_trace_from_values(
            np.round(rng.uniform(0.0, 3.0, size=n) * (rng.random(n) < 0.6), 3)
        )
        capacity = float(rng.uniform(0.0, 5.0))
        result = run_policy(prices, load, capacity, (U01,) * 24)
        pieces = decompose(load, capacity)
        dispatch = schedule_from_assignments(load, pieces, result.records.buy_slot)
        verify_feasible(dispatch, load, capacity)
        assert result.total_cost == pytest.approx(
            float(np.dot(dispatch.direct + dispatch.charge, prices.values)), abs=1e-9
        )


def test_run_policy_feasible_at_large_demand_magnitude():
    # prefix sums near 1e7 carry rounding far above an absolute 1e-9; the
    # feasibility check must scale with the cumulative demand level
    load = load_trace_from_values(synth_load(24 * 7, 3).values * 1e5)
    prices = synth_prices(24 * 7, 2)
    capacity = 0.5 * float(load.values.max())
    result = run_policy(prices, load, capacity, (U01,) * 24)
    pieces = decompose(load, capacity)
    verify_feasible(schedule_from_assignments(load, pieces, result.records.buy_slot), load, capacity)
    assert math.fsum(r.quantity for r in result.records) == pytest.approx(
        float(load.values.sum()), rel=1e-12
    )


def test_run_policy_with_storage_beats_or_ties_deadline_buying():
    # thresholds can only help when prices are i.i.d. from the modeled law
    rng = np.random.default_rng(6)
    totals_with, totals_without = 0.0, 0.0
    for trial in range(40):
        n = 48
        prices = price_trace_from_values(rng.uniform(0.0, 1.0, size=n))
        load = load_trace_from_values((rng.random(n) < 0.4).astype(float))
        with_storage = run_policy(prices, load, 3.0, (U01,) * 24)
        without = run_policy(prices, load, 0.0, (U01,) * 24)
        totals_with += with_storage.total_cost
        totals_without += without.total_cost
    assert totals_with < totals_without


def test_run_policy_uses_hour_of_day_distributions():
    # expects hour 1 cheap
    laws = tuple(UniformDistribution(0.0, 0.2) if h == 1 else UniformDistribution(0.8, 1.0)
                 for h in range(24))
    prices = price_trace_from_values(
        [0.9, 0.15, 0.9], start=datetime(2020, 1, 1, 0)
    )
    load = load_trace_from_values([0.0, 0.0, 1.0])
    result = run_policy(prices, load, 1.0, laws)
    # the single piece has window [0, 2]; the policy should wait for hour 1
    assert result.records[0].buy_slot == 1
    assert result.total_cost == pytest.approx(0.15)


def test_run_policy_matches_per_piece_reference():
    # a different law for every hour of day
    hourly = tuple(UniformDistribution(0.5 * h, 0.5 * h + 10.0) for h in range(24))
    rng = np.random.default_rng(21)
    crossed_midnight, longest = 0, 0
    for trial in range(36):
        n = int(rng.integers(24, 24 * 5))
        start = datetime(2021, 3, 1, int(rng.integers(0, 24)))
        prices = price_trace_from_values(rng.uniform(0.0, 22.0, size=n), start=start)
        demand = np.round(rng.uniform(0.0, 3.0, size=n) * (rng.random(n) < 0.5), 2)
        if trial % 12 == 0:
            demand[:] = 0.0
        load = load_trace_from_values(demand, start=start)
        # no storage, a few hours of storage, and storage for the whole demand
        capacity = (0.0, float(rng.uniform(0.5, 4.0)), float(demand.sum()))[trial % 3]
        laws = hourly if trial % 2 else (UniformDistribution(0.0, 22.0),) * 24
        rows, total = oracles.reference_run_policy(prices, load, capacity, laws)
        result = run_policy(prices, load, capacity, laws)
        assert result.records.tolist() == rows, trial
        assert result.total_cost == total, trial
        rec = result.records
        crossed_midnight += int(np.sum((start.hour + rec.t_start) // 24 != (start.hour + rec.t_end) // 24))
        longest = max(longest, int(np.max(rec.t_end - rec.t_start + 1, initial=0)))
    assert crossed_midnight > 0 and longest > 24


def _schedule_widths(monkeypatch, laws):
    """Serve five days with storage for all of the demand, so every window
    starts at slot 0 (120 window lengths); check the records against the
    per-piece reference and return the width of each schedule computed."""
    widths = []

    def counting(dists):
        widths.append(len(dists))
        return compute_thresholds_timevarying(dists)

    rng = np.random.default_rng(3)
    start = datetime(2021, 3, 1, 5)
    prices = price_trace_from_values(rng.uniform(0.0, 22.0, size=24 * 5), start=start)
    load = load_trace_from_values(rng.uniform(0.5, 3.0, size=24 * 5), start=start)
    capacity = float(load.values.sum())
    with monkeypatch.context() as patch:
        patch.setattr(gridstash.policy, "compute_thresholds_timevarying", counting)
        result = run_policy(prices, load, capacity, laws)
    assert np.all(result.records.t_start == 0)
    rows, total = oracles.reference_run_policy(prices, load, capacity, laws)
    assert result.records.tolist() == rows
    assert result.total_cost == total
    return widths


def test_run_policy_computes_one_schedule_per_deadline_hour(monkeypatch):
    laws = tuple(UniformDistribution(0.5 * h, 0.5 * h + 10.0) for h in range(24))
    assert len(_schedule_widths(monkeypatch, laws)) == 24


@pytest.mark.parametrize("period, schedules", [(1, 1), (12, 12)])
def test_hours_with_the_same_backward_day_of_laws_share_one_schedule(monkeypatch, period, schedules):
    # law objects repeat every `period` hours; equal but distinct objects do not count as one
    cycle = [UniformDistribution(0.5 * h, 0.5 * h + 10.0) for h in range(period)]
    laws = tuple(cycle[h % period] for h in range(24))
    widths = _schedule_widths(monkeypatch, laws)
    assert len(widths) == schedules
    # the first piece ends at slot 0 and the last at slot 119: each lead hour
    # serves the longest window among its deadline hours
    assert max(widths) == 24 * 5
    twins = tuple(UniformDistribution(0.5 * (h % period), 0.5 * (h % period) + 10.0) for h in range(24))
    assert len(_schedule_widths(monkeypatch, twins)) == 24


def test_run_policy_in_one_row_chunks_gives_the_same_records(monkeypatch):
    laws = tuple(UniformDistribution(0.5 * h, 0.5 * h + 10.0) for h in range(24))
    rng = np.random.default_rng(8)
    start = datetime(2021, 3, 1, 17)
    prices = price_trace_from_values(rng.uniform(0.0, 22.0, size=24 * 4), start=start)
    demand = np.round(rng.uniform(0.0, 3.0, size=24 * 4) * (rng.random(24 * 4) < 0.7), 2)
    load = load_trace_from_values(demand, start=start)
    for capacity in (0.0, 2.5, float(demand.sum())):
        whole = run_policy(prices, load, capacity, laws)
        with monkeypatch.context() as patch:
            patch.setattr(gridstash.policy, "_SERVE_CHUNK_CELLS", 1)
            chunked = run_policy(prices, load, capacity, laws)
        assert chunked.records.tobytes() == whole.records.tobytes()
        assert chunked.total_cost == whole.total_cost
    # storage for all of the demand: windows of days, many pieces per deadline hour
    assert len(whole.records) > 24 and int(np.max(whole.records.t_end - whole.records.t_start)) > 24


def test_run_policy_rejects_misaligned_traces():
    from gridstash.errors import AlignmentError

    prices = price_trace_from_values([1.0, 2.0])
    load = load_trace_from_values([1.0, 2.0], start=datetime(2021, 6, 1))
    with pytest.raises(AlignmentError):
        run_policy(prices, load, 1.0, (U01,) * 24)


def test_expected_cost_below_single_slot_mean():
    for dist in (U01, THREE_ATOM):
        for horizon in (2, 5, 10):
            assert expected_policy_cost(dist, horizon) < dist.mean() + 1e-15

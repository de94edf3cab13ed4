"""Demand slicing into one-shot jobs and dispatch reconstruction."""

from __future__ import annotations

from collections import namedtuple

import numpy as np
import pytest

import oracles
from gridstash.data_io import load_trace_from_values
from gridstash.decomposition import (
    DispatchSchedule,
    Pieces,
    decompose,
    schedule_from_assignments,
    verify_feasible,
)
from gridstash.errors import (
    AssignmentWindowError,
    InfeasibleDispatchError,
    LengthMismatchError,
)


Piece = namedtuple("Piece", "quantity t_start t_end")


def as_tuples(pieces):
    columns = (pieces.quantity.tolist(), pieces.t_start.tolist(), pieces.t_end.tolist())
    return [Piece(*row) for row in zip(*columns)]


def test_worked_example_capacity_two():
    # demand of 1 at slot 3 and 4 at slot 6, storage capacity 2
    load = load_trace_from_values([0, 0, 0, 1, 0, 0, 4])
    pieces = decompose(load, 2.0)
    assert as_tuples(pieces) == [
        (1.0, 0, 3),
        (1.0, 0, 6),
        (1.0, 3, 6),
        (2.0, 6, 6),
    ]


def test_worked_example_capacity_three():
    load = load_trace_from_values([0.0, 2.0, 5.0])
    pieces = decompose(load, 3.0)
    assert as_tuples(pieces) == [
        (2.0, 0, 1),
        (1.0, 0, 2),
        (2.0, 1, 2),
        (2.0, 2, 2),
    ]


def test_zero_capacity_is_identity():
    load = load_trace_from_values([0.0, 1.5, 0.0, 2.25])
    pieces = decompose(load, 0.0)
    assert as_tuples(pieces) == [(1.5, 1, 1), (2.25, 3, 3)]


def test_zero_demand_gives_no_pieces():
    load = load_trace_from_values([0.0, 0.0, 0.0])
    assert len(decompose(load, 5.0)) == 0


def test_huge_capacity_opens_every_window_fully():
    load = load_trace_from_values([0.0, 3.0, 0.0, 2.0])
    pieces = decompose(load, 100.0)
    assert as_tuples(pieces) == [(3.0, 0, 1), (2.0, 0, 3)]


def test_piece_mass_conserved_per_deadline():
    rng = np.random.default_rng(8)
    for trial in range(30):
        n = int(rng.integers(1, 40))
        demand = np.round(rng.uniform(0.0, 4.0, size=n) * (rng.random(n) < 0.7), 3)
        capacity = float(np.round(rng.uniform(0.0, 6.0), 3))
        load = load_trace_from_values(demand)
        pieces = decompose(load, capacity)
        by_deadline = {}
        for p in as_tuples(pieces):
            by_deadline[p.t_end] = by_deadline.get(p.t_end, 0.0) + p.quantity
        for t in range(n):
            assert by_deadline.get(t, 0.0) == pytest.approx(demand[t], abs=1e-9)


def test_windows_nested_and_quantities_positive():
    rng = np.random.default_rng(9)
    for trial in range(30):
        n = int(rng.integers(2, 50))
        demand = rng.integers(0, 5, size=n).astype(float)
        load = load_trace_from_values(demand)
        pieces = decompose(load, float(rng.integers(0, 8)))
        cumulative = np.cumsum(demand)
        for p in as_tuples(pieces):
            assert p.quantity > 0
            assert 0 <= p.t_start <= p.t_end < n
            if p.t_start > 0:
                # the piece could not have been bought one slot earlier:
                # its level interval must start at or above A[t_start - 1]
                assert cumulative[p.t_start - 1] + 0.0 <= cumulative[p.t_end]


def test_integer_demand_pieces_are_exact():
    load = load_trace_from_values([2.0, 0.0, 3.0, 1.0])
    for capacity in (0.0, 1.0, 2.0, 3.0, 10.0):
        pieces = decompose(load, capacity)
        total = sum(p.quantity for p in as_tuples(pieces))
        assert total == 6.0  # exact float equality on small integers


def test_decompose_rejects_bad_capacity():
    load = load_trace_from_values([1.0])
    with pytest.raises(ValueError):
        decompose(load, -1.0)
    with pytest.raises(ValueError):
        decompose(load, float("nan"))


def test_schedule_reconstruction_direct_vs_storage():
    load = load_trace_from_values([0, 0, 0, 1, 0, 0, 4])
    pieces = decompose(load, 2.0)
    # buy everything as late as possible: all direct
    late = schedule_from_assignments(load, pieces, pieces.t_end)
    assert np.all(late.charge == 0.0)
    assert np.all(late.discharge == 0.0)
    assert late.direct[3] == 1.0 and late.direct[6] == 4.0
    verify_feasible(late, load, 2.0)
    # buy everything as early as possible: storage fills to capacity
    early = schedule_from_assignments(load, pieces, pieces.t_start)
    verify_feasible(early, load, 2.0)
    assert float(early.storage_level().max()) == pytest.approx(2.0)
    # same plan, smaller battery
    with pytest.raises(InfeasibleDispatchError, match="storage above capacity at slot 0"):
        verify_feasible(early, load, 1.0)


def test_schedule_cost_depends_on_buy_slots():
    load = load_trace_from_values([0.0, 0.0, 3.0])
    prices = np.array([1.0, 5.0, 9.0])
    pieces = decompose(load, 3.0)
    cheap = schedule_from_assignments(load, pieces, pieces.t_start)
    dear = schedule_from_assignments(load, pieces, pieces.t_end)
    assert np.dot(cheap.direct + cheap.charge, prices) == pytest.approx(3.0)
    assert np.dot(dear.direct + dear.charge, prices) == pytest.approx(27.0)


def test_assignment_window_enforced():
    load = load_trace_from_values([0.0, 2.0])
    pieces = decompose(load, 0.0)
    with pytest.raises(AssignmentWindowError):
        schedule_from_assignments(load, pieces, [0])
    with pytest.raises(LengthMismatchError):
        schedule_from_assignments(load, pieces, [1, 1])


def test_verify_feasible_names_first_violation():
    load = load_trace_from_values([1.0, 1.0])
    bad_balance = DispatchSchedule([1.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(InfeasibleDispatchError, match="^infeasible dispatch: balance at slot 1$"):
        verify_feasible(bad_balance, load, 5.0)

    negative = DispatchSchedule([1.0, 2.0], [0.0, -1.0], [0.0, 0.0])
    with pytest.raises(InfeasibleDispatchError, match="negative charge at slot 1"):
        verify_feasible(negative, load, 5.0)

    # discharging before anything was stored
    underflow = DispatchSchedule([0.0, 1.0], [0.0, 1.0], [1.0, 0.0])
    with pytest.raises(InfeasibleDispatchError, match="storage below empty at slot 0"):
        verify_feasible(underflow, load, 5.0)

    overflow = DispatchSchedule([1.0, 1.0], [9.0, 0.0], [0.0, 0.0])
    with pytest.raises(InfeasibleDispatchError, match="storage above capacity at slot 0"):
        verify_feasible(overflow, load, 5.0)

    with pytest.raises(LengthMismatchError):
        verify_feasible(DispatchSchedule([1.0], [0.0], [0.0]), load, 5.0)


def test_verify_feasible_tolerance_scales_with_cumulative_level():
    # rounding of order 1e-16 * level passes; a real shortfall still fails
    load = load_trace_from_values([4e6, 3e6, 5e6])
    exact = DispatchSchedule([4e6, 3e6, 5e6], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    verify_feasible(exact, load, 1e6)
    dust = DispatchSchedule([4e6, 3e6, 5e6 + 2e-8], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    verify_feasible(dust, load, 1e6)
    short = DispatchSchedule([4e6, 3e6 - 1.0, 5e6], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(InfeasibleDispatchError, match="balance at slot 1"):
        verify_feasible(short, load, 1e6)


@pytest.mark.parametrize("k", [-60, -40, 0, 40])
def test_verify_feasible_rejects_buying_nothing_at_any_scale(k):
    # the slack is relative to the demand level with no absolute floor, so a
    # dispatch that serves none of a tiny demand still breaks the balance
    load = load_trace_from_values(np.array([1.0, 2.0, 3.0]) * 2.0**k)
    nothing = DispatchSchedule([0.0] * 3, [0.0] * 3, [0.0] * 3)
    with pytest.raises(InfeasibleDispatchError, match="balance at slot 0"):
        verify_feasible(nothing, load, 0.0)
    served = DispatchSchedule(load.values, [0.0] * 3, [0.0] * 3)
    verify_feasible(served, load, 0.0)


def test_storage_level():
    s = DispatchSchedule([1.0, 0.0, 2.0], [3.0, 0.0, 0.0], [0.0, 2.0, 1.0])
    assert list(s.storage_level()) == [3.0, 1.0, 0.0]


def _tie_heavy_instance(rng):
    """A random (demand, capacity) from one of the classes that stress cut ties."""
    n = int(rng.integers(1, 60))
    kind = int(rng.integers(0, 5))
    if kind == 0:  # integer loads and capacities: many equal levels
        demand = rng.integers(0, 5, size=n).astype(float)
        capacity = float(rng.integers(0, 8))
    elif kind == 1:  # mostly zero-demand slots
        demand = rng.integers(0, 3, size=n) * (rng.random(n) < 0.3)
        capacity = float(rng.integers(0, 4))
    elif kind == 2:  # dust next to whole units
        demand = rng.integers(0, 3, size=n) + 1e-13 * rng.integers(0, 3, size=n)
        capacity = float(rng.integers(0, 4)) + 1e-13 * float(rng.integers(0, 2))
    elif kind == 3:  # capacity 0: every piece is its own slot
        demand = np.round(rng.uniform(0.0, 3.0, size=n) * (rng.random(n) < 0.7), 3)
        capacity = 0.0
    else:  # large magnitudes with non-representable fractions
        scale = 10.0 ** float(rng.integers(0, 6))
        demand = rng.uniform(0.0, 1.0, size=n) * scale * (rng.random(n) < 0.8)
        capacity = float(rng.uniform(0.0, 3.0)) * scale
    return np.asarray(demand, dtype=float), capacity


def test_decompose_matches_reference_on_random_instances():
    rng = np.random.default_rng(31)
    for trial in range(600):
        demand, capacity = _tie_heavy_instance(rng)
        pieces = decompose(load_trace_from_values(demand), capacity)
        # exact float equality, piece by piece and in the same order
        assert as_tuples(pieces) == oracles.reference_decompose(demand, capacity), trial
        assert pieces.t_start.dtype == np.int64 and pieces.t_end.dtype == np.int64


def test_decompose_matches_both_references_bit_for_bit_on_integer_ties():
    # integer loads with runs of zero demand put many cuts on the same level;
    # the capacities hit 0, a half level, a level the loads reach, the total
    # demand and one past it
    rng = np.random.default_rng(29)
    for trial in range(400):
        n = int(rng.integers(1, 80))
        demand = rng.integers(0, 4, size=n) * (rng.random(n) < rng.uniform(0.2, 0.9))
        demand[rng.integers(0, n) : rng.integers(0, n + 1)] = 0
        demand = demand.astype(float)
        total = float(demand.sum())
        partial = float(demand[: rng.integers(0, n + 1)].sum())
        for capacity in (0.0, 0.5, partial, total, total + 1.0):
            pieces = decompose(load_trace_from_values(demand), capacity)
            quantity, t_start, t_end = oracles.sorted_cut_decompose(demand, capacity)
            assert pieces.quantity.tobytes() == quantity.tobytes(), (trial, capacity)
            assert pieces.t_start.tolist() == t_start.tolist(), (trial, capacity)
            assert pieces.t_end.tolist() == t_end.tolist(), (trial, capacity)
            expected = oracles.reference_decompose(demand, capacity)
            assert [(q.hex(), s, e) for q, s, e in as_tuples(pieces)] == [
                (q.hex(), s, e) for q, s, e in expected
            ], (trial, capacity)


def test_pieces_are_read_only_and_sorted():
    load = load_trace_from_values([0, 2, 0, 1, 3, 0, 4.0])
    pieces = decompose(load, 2.5)
    for arr in (pieces.quantity, pieces.t_start, pieces.t_end):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert np.all(np.diff(pieces.t_start) >= 0)
    assert np.all(np.diff(pieces.t_end) >= 0)
    with pytest.raises(LengthMismatchError):
        Pieces([1.0], [0, 1], [1, 1])


def test_assignment_names_first_bad_piece():
    load = load_trace_from_values([0.0, 2.0, 3.0])
    pieces = decompose(load, 0.0)  # (2, 1, 1), (3, 2, 2)
    with pytest.raises(AssignmentWindowError, match=r"buy slot 0 outside window \[1, 1\]"):
        schedule_from_assignments(load, pieces, [0, 0])
    with pytest.raises(AssignmentWindowError, match=r"buy slot 1 outside window \[2, 2\]"):
        schedule_from_assignments(load, pieces, [1, 1])
    short = load_trace_from_values([0.0, 2.0])
    with pytest.raises(AssignmentWindowError, match="piece deadline 2 beyond trace of 2 slots"):
        schedule_from_assignments(short, pieces, [1, 2])


def test_assignment_adds_pieces_in_order():
    # three pieces land on the same slot; the sum is the left-to-right sum
    pieces = Pieces([0.1, 0.2, 0.3], [0, 0, 0], [2, 2, 2])
    load = load_trace_from_values([0.0, 0.0, 0.6000000000000001])
    schedule = schedule_from_assignments(load, pieces, [0, 0, 2])
    assert schedule.charge[0] == 0.1 + 0.2
    assert schedule.discharge[2] == 0.1 + 0.2
    assert schedule.direct[2] == 0.3


def test_verify_feasible_reports_earliest_of_two_violating_slots():
    load = load_trace_from_values([1.0, 1.0, 1.0])
    # balance breaks at slot 2, the storage overflows at slot 1
    schedule = DispatchSchedule([1.0, 1.0, 0.0], [0.0, 9.0, 0.0], [0.0, 0.0, 0.0])
    with pytest.raises(InfeasibleDispatchError, match="storage above capacity at slot 1"):
        verify_feasible(schedule, load, 5.0)


def test_verify_feasible_orders_checks_within_one_slot():
    load = load_trace_from_values([1.0, 1.0])
    # slot 1: negative discharge, broken balance and overflow all at once
    schedule = DispatchSchedule([1.0, 3.0], [0.0, 9.0], [0.0, -1.0])
    with pytest.raises(InfeasibleDispatchError, match="negative discharge at slot 1"):
        verify_feasible(schedule, load, 5.0)
    # slot 0: broken balance and storage below empty at once
    schedule = DispatchSchedule([0.0, 1.0], [0.0, 1.0], [2.0, 0.0])
    with pytest.raises(InfeasibleDispatchError, match="balance at slot 0"):
        verify_feasible(schedule, load, 5.0)

"""Demand slicing into one-shot jobs and dispatch reconstruction."""

from __future__ import annotations

import numpy as np
import pytest

from gridstash.data_io import load_trace_from_values
from gridstash.decomposition import (
    CumulativeDemand,
    DispatchSchedule,
    OneShotLoad,
    ShiftedDemand,
    accumulate,
    decompose,
    pieces_to_csv,
    schedule_from_assignments,
    shift,
    verify_feasible,
)
from gridstash.errors import AssignmentWindowError, LengthMismatchError


def as_tuples(pieces):
    return [(p.quantity, p.t_start, p.t_end) for p in pieces]


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
    assert decompose(load, 5.0) == ()


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
        for p in pieces:
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
        for p in pieces:
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
        total = sum(p.quantity for p in pieces)
        assert total == 6.0  # exact float equality on small integers


def test_decompose_rejects_bad_capacity():
    load = load_trace_from_values([1.0])
    with pytest.raises(ValueError):
        decompose(load, -1.0)
    with pytest.raises(ValueError):
        decompose(load, float("nan"))


def test_cumulative_and_shift_helpers():
    load = load_trace_from_values([1.0, 0.0, 2.0])
    cum = accumulate(load)
    assert list(cum.levels) == [1.0, 1.0, 3.0]
    assert len(cum) == 3
    lifted = shift(cum, 2.5)
    assert list(lifted.levels) == [3.5, 3.5, 5.5]
    with pytest.raises(ValueError):
        CumulativeDemand(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        ShiftedDemand(cum, -0.5)


def test_one_shot_load_validation():
    with pytest.raises(ValueError):
        OneShotLoad(0.0, 0, 1)
    with pytest.raises(ValueError):
        OneShotLoad(1.0, 3, 2)
    with pytest.raises(ValueError):
        OneShotLoad(1.0, -1, 2)
    assert OneShotLoad(1.0, 2, 5).window_length == 4


def test_schedule_reconstruction_direct_vs_storage():
    load = load_trace_from_values([0, 0, 0, 1, 0, 0, 4])
    pieces = decompose(load, 2.0)
    # buy everything as late as possible: all direct
    late = schedule_from_assignments(load, pieces, [p.t_end for p in pieces])
    assert np.all(late.charge == 0.0)
    assert np.all(late.discharge == 0.0)
    assert late.direct[3] == 1.0 and late.direct[6] == 4.0
    assert verify_feasible(late, load, 2.0)
    # buy everything as early as possible: storage fills to capacity
    early = schedule_from_assignments(load, pieces, [p.t_start for p in pieces])
    assert verify_feasible(early, load, 2.0)
    assert float(early.storage_level().max()) == pytest.approx(2.0)
    assert not verify_feasible(early, load, 1.0)  # same plan, smaller battery


def test_schedule_cost_depends_on_buy_slots():
    load = load_trace_from_values([0.0, 0.0, 3.0])
    prices = np.array([1.0, 5.0, 9.0])
    pieces = decompose(load, 3.0)
    cheap = schedule_from_assignments(load, pieces, [p.t_start for p in pieces])
    dear = schedule_from_assignments(load, pieces, [p.t_end for p in pieces])
    assert cheap.cost(prices) == pytest.approx(3.0)
    assert dear.cost(prices) == pytest.approx(27.0)
    with pytest.raises(LengthMismatchError):
        cheap.cost(np.array([1.0, 2.0]))


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
    report = verify_feasible(bad_balance, load, 5.0)
    assert not report
    assert report.violation == "balance" and report.slot == 1

    negative = DispatchSchedule([1.0, 2.0], [0.0, -1.0], [0.0, 0.0])
    report = verify_feasible(negative, load, 5.0)
    assert report.violation == "negative charge" and report.slot == 1

    # discharging before anything was stored
    underflow = DispatchSchedule([0.0, 1.0], [0.0, 1.0], [1.0, 0.0])
    report = verify_feasible(underflow, load, 5.0)
    assert report.violation == "storage below empty" and report.slot == 0

    overflow = DispatchSchedule([1.0, 1.0], [9.0, 0.0], [0.0, 0.0])
    report = verify_feasible(overflow, load, 5.0)
    assert report.violation == "storage above capacity" and report.slot == 0

    with pytest.raises(LengthMismatchError):
        verify_feasible(DispatchSchedule([1.0], [0.0], [0.0]), load, 5.0)


def test_verify_feasible_tolerance_scales_with_cumulative_level():
    # rounding of order 1e-16 * level passes; a real shortfall still fails
    load = load_trace_from_values([4e6, 3e6, 5e6])
    exact = DispatchSchedule([4e6, 3e6, 5e6], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert verify_feasible(exact, load, 1e6)
    dust = DispatchSchedule([4e6, 3e6, 5e6 + 2e-8], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    assert verify_feasible(dust, load, 1e6)
    short = DispatchSchedule([4e6, 3e6 - 1.0, 5e6], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    report = verify_feasible(short, load, 1e6)
    assert report.violation == "balance" and report.slot == 1


def test_storage_level_and_total_purchase():
    s = DispatchSchedule([1.0, 0.0, 2.0], [3.0, 0.0, 0.0], [0.0, 2.0, 1.0])
    assert list(s.storage_level()) == [3.0, 1.0, 0.0]
    assert list(s.total_purchase()) == [4.0, 0.0, 2.0]


def test_pieces_csv_round_trips_quantities_exactly(tmp_path):
    load = load_trace_from_values([0.1, 0.0, 0.30000000000000004])
    pieces = decompose(load, 0.25)
    path = tmp_path / "pieces.csv"
    pieces_to_csv(pieces, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "quantity,t_start,t_end"
    parsed = [line.split(",") for line in lines[1:]]
    assert len(parsed) == len(pieces)
    for row, piece in zip(parsed, pieces):
        assert float(row[0]) == piece.quantity
        assert int(row[1]) == piece.t_start
        assert int(row[2]) == piece.t_end

"""Online threshold purchase policy for one-shot jobs and full traces.

With T slots left and next-slot price law f, the largest price worth paying
now is the expected cost of continuing optimally, which obeys the backward
recursion th[j] = E[min(p_{j+1}, th[j+1])] expanded through the truncated
first moment. The final slot carries an infinite sentinel: the job is forced
there regardless of price. A buy happens at the first slot whose price is at
or below its threshold.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .data_io import LoadTrace, PriceTrace, ensure_aligned
from .decomposition import (
    DispatchSchedule,
    decompose,
    schedule_from_assignments,
    verify_feasible,
)
from .distributions import PriceDistribution
from .errors import InfeasibleDispatchError, LengthMismatchError


@runtime_checkable
class DistributionSource(Protocol):
    """Anything that can supply a price law per hour-of-day."""

    def distribution_for_hour(self, hour: int) -> PriceDistribution: ...


@dataclass(frozen=True)
class ConstantSource:
    """The same price law for every hour (the known-distribution policy)."""

    dist: PriceDistribution

    def distribution_for_hour(self, hour: int) -> PriceDistribution:
        return self.dist


@dataclass(frozen=True)
class ThresholdSchedule:
    """Per-slot buy thresholds for one purchase window; the last is infinite."""

    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.thresholds:
            raise ValueError("empty threshold schedule")
        if self.thresholds[-1] != math.inf:
            raise ValueError("final slot must carry the forced-buy sentinel")
        for j, th in enumerate(self.thresholds[:-1]):
            if not math.isfinite(th):
                raise ValueError(f"threshold {j} is {th!r}; only the last may be infinite")

    @property
    def horizon(self) -> int:
        return len(self.thresholds)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.thresholds, dtype=float)


def _one_step(dist: PriceDistribution, theta: float) -> float:
    """Expected cost of one more slot: E[p; p <= theta] + theta * P(p > theta)."""
    return dist.partial_expectation(-math.inf, theta) + theta * (1.0 - float(dist.cdf(theta)))


def compute_thresholds_timevarying(dists: Sequence[PriceDistribution]) -> ThresholdSchedule:
    """Thresholds when each slot in the window has its own price law.

    Slot j's threshold depends only on the laws of slots j+1..T-1; slot T-2
    gets the last slot's mean and earlier slots apply the one-step recursion
    with the following slot's law.
    """
    horizon = len(dists)
    if horizon < 1:
        raise ValueError("need at least one slot")
    thresholds = [math.inf] * horizon
    if horizon >= 2:
        thresholds[horizon - 2] = float(dists[horizon - 1].mean())
        for j in range(horizon - 3, -1, -1):
            thresholds[j] = _one_step(dists[j + 1], thresholds[j + 1])
    return ThresholdSchedule(tuple(thresholds))


def compute_thresholds_iid(dist: PriceDistribution, horizon: int) -> ThresholdSchedule:
    """Thresholds when every slot shares one law; same code path as time-varying."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return compute_thresholds_timevarying([dist] * horizon)


def expected_policy_cost_iid(dist: PriceDistribution, horizon: int) -> float:
    """Expected purchase price of the threshold policy itself: one more
    recursion step applied to the full window."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    value = float(dist.mean())
    for _ in range(horizon - 1):
        value = _one_step(dist, value)
    return value


@dataclass(frozen=True)
class OneShotResult:
    """Where one job bought: offset inside its window, price paid, the
    threshold that triggered, and whether the deadline forced it."""

    buy_offset: int
    price: float
    threshold: float
    forced: bool


def serve_one_shot(
    schedule: ThresholdSchedule, window_prices: Sequence[float] | np.ndarray
) -> OneShotResult:
    """Run the policy over one window: buy at the first price at or below its
    threshold (ties buy); the final sentinel guarantees termination."""
    prices = np.asarray(window_prices, dtype=float)
    if prices.size != schedule.horizon:
        raise LengthMismatchError(
            f"{prices.size} prices vs horizon {schedule.horizon}"
        )
    for j, threshold in enumerate(schedule.thresholds):
        if prices[j] <= threshold:
            return OneShotResult(
                buy_offset=j,
                price=float(prices[j]),
                threshold=threshold,
                forced=(j == schedule.horizon - 1),
            )
    raise AssertionError("unreachable: sentinel threshold always triggers")


def simulate_one_shot_matrix(
    price_matrix: np.ndarray, schedule: ThresholdSchedule
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized serve over many windows at once.

    price_matrix has one window per row; returns (price paid, buy offset)
    per row. Used by the Monte-Carlo studies and the exhaustive oracles.
    """
    prices = np.asarray(price_matrix, dtype=float)
    if prices.ndim != 2 or prices.shape[1] != schedule.horizon:
        raise LengthMismatchError(
            f"matrix shape {prices.shape} vs horizon {schedule.horizon}"
        )
    mask = prices <= schedule.as_array()[None, :]
    offsets = mask.argmax(axis=1)
    paid = prices[np.arange(prices.shape[0]), offsets]
    return paid, offsets


@dataclass(frozen=True)
class PieceRecord:
    """One job's outcome inside a full-trace run."""

    piece_id: int
    quantity: float
    t_start: int
    t_end: int
    buy_slot: int
    price: float
    threshold: float
    forced: bool


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """A full-trace policy run: dispatch, per-piece records, and costs."""

    schedule: DispatchSchedule
    records: tuple[PieceRecord, ...]
    total_cost: float
    per_slot_cost: np.ndarray


def run_policy(
    prices: PriceTrace,
    load: LoadTrace,
    capacity: float,
    source: DistributionSource,
) -> SimulationResult:
    """Serve a whole demand trace with the threshold policy.

    Decomposes the load under the given capacity, computes one threshold
    schedule per distinct (start hour-of-day, window length) pair, serves
    every piece independently, and reassembles a feasible dispatch.
    """
    ensure_aligned(prices, load)
    pieces = decompose(load, capacity)
    cache: dict[tuple[int, int], ThresholdSchedule] = {}
    records = []
    buy_slots = []
    # plain Python numbers, so records print and serialize as floats and ints
    columns = (pieces.quantity.tolist(), pieces.t_start.tolist(), pieces.t_end.tolist())
    for piece_id, (quantity, t_start, t_end) in enumerate(zip(*columns)):
        length = t_end - t_start + 1
        key = (prices.hour_of_day(t_start), length)
        schedule = cache.get(key)
        if schedule is None:
            dists = [
                source.distribution_for_hour(prices.hour_of_day(t_start + j))
                for j in range(length)
            ]
            schedule = compute_thresholds_timevarying(dists)
            cache[key] = schedule
        window = prices.values[t_start : t_end + 1]
        outcome = serve_one_shot(schedule, window)
        buy_slot = t_start + outcome.buy_offset
        buy_slots.append(buy_slot)
        records.append(
            PieceRecord(
                piece_id=piece_id,
                quantity=quantity,
                t_start=t_start,
                t_end=t_end,
                buy_slot=buy_slot,
                price=outcome.price,
                threshold=outcome.threshold,
                forced=outcome.forced,
            )
        )
    dispatch = schedule_from_assignments(load, pieces, buy_slots)
    report = verify_feasible(dispatch, load, capacity)
    if not report.ok:
        raise InfeasibleDispatchError(
            f"policy produced an infeasible dispatch: {report.violation} at slot {report.slot}"
        )
    total = math.fsum(r.quantity * r.price for r in records)
    per_slot = dispatch.total_purchase() * prices.values
    return SimulationResult(
        schedule=dispatch,
        records=tuple(records),
        total_cost=total,
        per_slot_cost=per_slot,
    )


def decisions_to_csv(result: SimulationResult, path) -> None:
    """Per-piece decision log; thresholds serialize as repr so 'inf' survives."""
    with open(Path(path), "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ("piece_id", "quantity", "t_start", "t_end", "buy_slot", "price", "threshold", "forced")
        )
        for r in result.records:
            writer.writerow(
                (
                    r.piece_id,
                    repr(r.quantity),
                    r.t_start,
                    r.t_end,
                    r.buy_slot,
                    repr(r.price),
                    repr(r.threshold),
                    int(r.forced),
                )
            )

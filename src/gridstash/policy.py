"""Online threshold purchase policy for one-shot jobs and full traces.

With T slots left and next-slot price law f, the largest price worth paying
now is the expected cost of continuing optimally, which obeys the backward
recursion th[j] = E[min(p_{j+1}, th[j+1])] expanded through the truncated
first moment. The final slot carries an infinite sentinel: the job is forced
there regardless of price. A buy happens at the first slot whose price is at
or below its threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data_io import HOURS_PER_DAY, LoadTrace, PriceTrace, ensure_aligned, write_csv
from .decomposition import (
    DispatchSchedule,
    decompose,
    schedule_from_assignments,
    verify_feasible,
)
from .distributions import PriceDistribution
from .errors import InfeasibleDispatchError, LengthMismatchError


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


def simulate_one_shot_matrix(
    price_matrix: np.ndarray, schedule: ThresholdSchedule
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized serve over many windows at once.

    price_matrix has one window per row; returns (price paid, buy offset)
    per row: the first slot whose price is at or below its threshold (ties
    buy; the final sentinel forces a buy at the deadline).
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


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """A full-trace policy run: the dispatch, one record per piece, and the cost.

    ``records`` is a read-only record array in piece order with the fields
    quantity, t_start, t_end, buy_slot, price, threshold and forced.
    """

    schedule: DispatchSchedule
    records: np.recarray
    total_cost: float


def run_policy(
    prices: PriceTrace,
    load: LoadTrace,
    capacity: float,
    laws: Sequence[PriceDistribution],
) -> SimulationResult:
    """Serve a whole demand trace with the threshold policy.

    ``laws[h]`` is the price law of hour-of-day h. The load is decomposed
    under the given capacity. A piece's thresholds run backward from its
    deadline, so a piece of length L uses the last L entries of any schedule
    over a longer window with the same deadline hour. So one schedule per
    deadline hour, computed over the longest piece that ends at that hour,
    serves all of that hour's pieces as one matrix: each row is the window
    ending at the piece's deadline, with the slots before its start set to
    +inf so they never buy. The buy slots are reassembled into a dispatch that must pass
    the feasibility check.
    """
    ensure_aligned(prices, load)
    pieces = decompose(load, capacity)
    t_start, t_end = pieces.t_start, pieces.t_end
    lengths = t_end - t_start + 1
    end_hours = prices.hours_of_day()[t_end]
    offsets = np.empty(len(pieces), dtype=np.int64)
    paid = np.empty(len(pieces))
    threshold = np.empty(len(pieces))
    for hour in np.flatnonzero(np.bincount(end_hours, minlength=HOURS_PER_DAY)).tolist():
        group = np.flatnonzero(end_hours == hour)
        width = int(lengths[group].max())
        schedule = compute_thresholds_timevarying(
            [laws[(hour - j) % HOURS_PER_DAY] for j in range(width - 1, -1, -1)]
        )
        padded = np.concatenate((np.full(width - 1, np.inf), prices.values))
        windows = sliding_window_view(padded, width)[t_end[group]]
        lead = width - lengths[group]
        windows = np.where(np.arange(width) < lead[:, None], np.inf, windows)
        paid[group], window_offsets = simulate_one_shot_matrix(windows, schedule)
        offsets[group] = window_offsets - lead
        threshold[group] = schedule.as_array()[window_offsets]
    buy_slot = t_start + offsets
    dispatch = schedule_from_assignments(load, pieces, buy_slot)
    report = verify_feasible(dispatch, load, capacity)
    if not report.ok:
        raise InfeasibleDispatchError(
            f"policy produced an infeasible dispatch: {report.violation} at slot {report.slot}"
        )
    records = np.rec.fromarrays(
        (pieces.quantity, t_start, t_end, buy_slot, paid, threshold, buy_slot == t_end),
        names=("quantity", "t_start", "t_end", "buy_slot", "price", "threshold", "forced"),
    )
    records.setflags(write=False)
    return SimulationResult(
        schedule=dispatch,
        records=records,
        total_cost=math.fsum((pieces.quantity * paid).tolist()),
    )


def decisions_to_csv(result: SimulationResult, path) -> None:
    """Per-piece decision log; floats serialize as repr so 'inf' survives."""
    rec = result.records
    # .tolist() gives Python numbers, whose repr has no numpy type wrapper
    rows = zip(
        range(len(rec)),
        map(repr, rec.quantity.tolist()),
        rec.t_start.tolist(),
        rec.t_end.tolist(),
        rec.buy_slot.tolist(),
        map(repr, rec.price.tolist()),
        map(repr, rec.threshold.tolist()),
        rec.forced.astype(int).tolist(),
    )
    write_csv(
        path,
        ("piece_id", "quantity", "t_start", "t_end", "buy_slot", "price", "threshold", "forced"),
        rows,
    )

"""Online threshold purchase policy for one-shot jobs and full traces.

With T slots left and next-slot price law f, the largest price worth paying
now is the expected cost of continuing optimally, which obeys the backward
recursion th[j] = E[min(p_{j+1}, th[j+1])], one ``expected_min`` query of the
following slot's law. The final slot carries an infinite sentinel: the job is
forced there regardless of price. A buy happens at the first slot whose price
is at or below its threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data_io import HOURS_PER_DAY, LoadTrace, PriceTrace, ensure_aligned
from .decomposition import decompose, schedule_from_assignments, verify_feasible
from .distributions import PriceDistribution
from .errors import LengthMismatchError

# A deadline hour's pieces are served in chunks of rows whose windows hold at
# most this many cells (at least one row), so a storage that holds days of
# demand never holds a (pieces x span) price matrix at once.
_SERVE_CHUNK_CELLS = 1 << 18


@dataclass(frozen=True)
class ThresholdSchedule:
    """Per-slot buy thresholds for one purchase window; the last is infinite."""

    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        array = np.asarray(self.thresholds, dtype=float)
        if not array.size or array[-1] != math.inf:
            raise ValueError("the final slot must carry the forced-buy sentinel +inf")
        if not np.isfinite(array[:-1]).all():
            raise ValueError("every threshold before the final one must be finite")
        array.setflags(write=False)
        object.__setattr__(self, "_array", array)

    @property
    def horizon(self) -> int:
        return len(self.thresholds)

    def as_array(self) -> np.ndarray:
        """The thresholds as a read-only float array, converted once per schedule."""
        return self._array


def compute_thresholds_timevarying(dists: Sequence[PriceDistribution]) -> ThresholdSchedule:
    """Thresholds when each slot in the window has its own price law.

    Slot j's threshold depends only on the laws of slots j+1..T-1; slot T-2
    gets the last slot's mean and each earlier slot the expected minimum of
    the following slot's price and threshold.
    """
    horizon = len(dists)
    if horizon < 1:
        raise ValueError("need at least one slot")
    thresholds = [math.inf] * horizon
    if horizon >= 2:
        thresholds[horizon - 2] = float(dists[horizon - 1].mean())
        for j in range(horizon - 3, -1, -1):
            thresholds[j] = dists[j + 1].expected_min(thresholds[j + 1])
    return ThresholdSchedule(tuple(thresholds))


def compute_thresholds_iid(dist: PriceDistribution, horizon: int) -> ThresholdSchedule:
    """Thresholds when every slot shares one law; same code path as time-varying."""
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
    """A full-trace policy run: one record per piece, and the cost.

    ``records`` is a read-only record array in piece order with the fields
    quantity, t_start, t_end, buy_slot, price, threshold and forced.
    """

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
    over a longer window whose deadline hour has the same backward day of law
    objects. So each deadline hour maps to the first hour with its backward
    day, and one schedule per such lead hour, over the longest piece it
    serves, serves all of its pieces (one for 24 copies of one law), in row
    chunks of bounded size: each row is the window ending at the piece's
    deadline, with the slots before its start set to +inf so they never buy.
    The buy slots are reassembled into a dispatch that must pass the
    feasibility check, which raises InfeasibleDispatchError otherwise.
    """
    ensure_aligned(prices, load)
    pieces = decompose(load, capacity)
    t_start, t_end = pieces.t_start, pieces.t_end
    lengths = t_end - t_start + 1
    days = [tuple(id(laws[(hour - j) % HOURS_PER_DAY]) for j in range(HOURS_PER_DAY))
            for hour in range(HOURS_PER_DAY)]
    lead_hours = np.array([days.index(day) for day in days])[prices.hours_of_day()[t_end]]
    offsets = np.empty(len(pieces), dtype=np.int64)
    paid = np.empty(len(pieces))
    threshold = np.empty(len(pieces))
    for hour in np.flatnonzero(np.bincount(lead_hours, minlength=HOURS_PER_DAY)).tolist():
        group = np.flatnonzero(lead_hours == hour)
        width = int(lengths[group].max())
        schedule = compute_thresholds_timevarying(
            [laws[(hour - j) % HOURS_PER_DAY] for j in range(width - 1, -1, -1)]
        )
        all_windows = sliding_window_view(
            np.concatenate((np.full(width - 1, np.inf), prices.values)), width
        )
        rows = max(1, _SERVE_CHUNK_CELLS // width)
        for first in range(0, group.size, rows):
            part = group[first : first + rows]
            lead = width - lengths[part]
            windows = np.where(np.arange(width) < lead[:, None], np.inf, all_windows[t_end[part]])
            paid[part], window_offsets = simulate_one_shot_matrix(windows, schedule)
            offsets[part] = window_offsets - lead
            threshold[part] = schedule.as_array()[window_offsets]
    buy_slot = t_start + offsets
    verify_feasible(schedule_from_assignments(load, pieces, buy_slot), load, capacity)
    records = np.rec.fromarrays(
        (pieces.quantity, t_start, t_end, buy_slot, paid, threshold, buy_slot == t_end),
        names=("quantity", "t_start", "t_end", "buy_slot", "price", "threshold", "forced"),
    )
    records.setflags(write=False)
    return SimulationResult(records, math.fsum((pieces.quantity * paid).tolist()))

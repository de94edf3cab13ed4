"""Decompose a demand trace plus storage capacity into one-shot purchase jobs.

A storage of capacity B lets any unit of demand due at slot t_e be bought at
any slot t with cumulative-demand level inside (D[t_e - 1], D[t_e]] that fits
under the shifted curve D + B. Slicing demand along those levels yields
independent unit jobs ("pieces"), each with a feasible purchase window
[t_start, t_end]. Every slice of positive width is kept, however thin, so
scaling loads and capacity by a power of two scales each quantity exactly and
moves no window. A dispatch schedule is recoverable from one purchase slot per
piece, and ``verify_feasible`` raises on the first constraint it breaks. The
pieces are held as three parallel arrays (``Pieces``), never as one object
per piece: a year of hourly demand gives ~17k pieces per capacity.

The hindsight oracle lives here too: knowing every realized price, a piece
pays its window minimum (``WindowMinima``, a sparse table over the prices),
and a trace pays the sum over its pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import LoadTrace, PriceTrace, ensure_aligned
from .errors import AssignmentWindowError, InfeasibleDispatchError, LengthMismatchError


def _freeze_columns(record, columns: dict, name: str) -> None:
    """Store each column of a frozen record as a read-only 1-D copy of its dtype;
    the columns must share one length."""
    for column, dtype in columns.items():
        arr = np.array(getattr(record, column), dtype=dtype, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"{column} must be 1-D")
        arr.setflags(write=False)
        object.__setattr__(record, column, arr)
    if len({getattr(record, column).size for column in columns}) > 1:
        raise LengthMismatchError(f"{name} arrays differ in length")


@dataclass(frozen=True, eq=False)
class Pieces:
    """One-shot jobs as parallel read-only arrays: piece i buys ``quantity[i]``
    once in slots [t_start[i], t_end[i]].

    Pieces are sorted by (t_end, level), so both t_start and t_end are
    non-decreasing in piece order.
    """

    quantity: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray

    def __post_init__(self) -> None:
        _freeze_columns(self, {"quantity": float, "t_start": np.int64, "t_end": np.int64}, "piece")

    def __len__(self) -> int:
        return int(self.quantity.size)


@dataclass(frozen=True, eq=False)
class DispatchSchedule:
    """Slot-wise dispatch: direct purchases, charges into and discharges out of storage.

    Power balance per slot is direct + discharge = demand; everything bought
    is direct + charge.
    """

    direct: np.ndarray
    charge: np.ndarray
    discharge: np.ndarray

    def __post_init__(self) -> None:
        _freeze_columns(self, dict.fromkeys(("direct", "charge", "discharge"), float), "schedule")

    def __len__(self) -> int:
        return int(self.direct.size)

    def storage_level(self) -> np.ndarray:
        """Stored energy after each slot."""
        return np.cumsum(self.charge - self.discharge)


def decompose(load: LoadTrace, capacity: float) -> Pieces:
    """Slice the demand trace into one-shot jobs under a capacity-B storage.

    The level axis (0, D[-1]] is cut at every cumulative level D[t] and every
    shifted level A[t] = D[t] + B below D[-1]; each gap (lower, upper] between
    consecutive cuts is one piece. Its deadline is the first slot whose D
    reaches upper, and it can first be bought at the earliest slot whose A
    exceeds lower. Pieces come out sorted by (t_end, level). With capacity 0
    every piece is (demand, t, t); total piece quantity per deadline equals
    that slot's demand (exactly, when demands are exactly representable; see
    tests for the float caveat). Only the zero-width gaps between repeated
    cuts are dropped.
    """
    if not math.isfinite(capacity) or capacity < 0:
        raise ValueError(f"capacity must be finite and >= 0, got {capacity!r}")
    cumulative = np.cumsum(load.values)
    shifted = cumulative + capacity
    levels = np.concatenate(([0.0], cumulative[cumulative > 0]))
    cuts = np.concatenate((levels, shifted[shifted < cumulative[-1]]))
    # a stable sort merges the two sorted runs, and its order tells each cut's
    # run; a repeated cut leaves a zero-width gap, the only gap dropped
    order = np.argsort(cuts, kind="stable")
    quantity = np.diff(cuts[order])
    kept = np.flatnonzero(quantity > 0)
    # the cuts at positions <= i are exactly those <= gap i's lower level, so
    # t_start counts the shifted ones there; t_end counts the D[t] < upper:
    # the other cuts there but the 0 cut, and the slots where D is still 0
    t_start = np.cumsum(order >= levels.size)[kept]
    return Pieces(quantity[kept], t_start, kept - t_start + (cumulative.size + 1 - levels.size))


class WindowMinima:
    """Minimum price over any window [t_start, t_end] of a fixed price array.

    A sparse table: row k holds the minimum of every 2**k consecutive prices
    (row 0 is the array itself), so a window is the minimum of two row-k
    entries that together cover it, with 2**k the largest power of two not
    longer than the window. Building costs log2(n) vector minima; a query
    answers every window at once with two lookups each.
    """

    def __init__(self, values) -> None:
        row = np.asarray(values, dtype=float)
        if row.ndim != 1 or row.size == 0:
            raise ValueError("window minima need a nonempty 1-D price array")
        n = row.size
        table = np.full((n.bit_length(), n), math.inf)
        table[0] = row
        for k in range(1, table.shape[0]):
            half = 1 << (k - 1)
            stop = n - 2 * half + 1
            np.minimum(table[k - 1, :stop], table[k - 1, half : half + stop], out=table[k, :stop])
        # row-major flat: two takes cost less than 2-D fancy indexing
        self._flat, self._width = table.ravel(), n

    def __call__(self, t_start, t_end) -> np.ndarray:
        lo = np.asarray(t_start, dtype=np.int64)
        length = np.asarray(t_end, dtype=np.int64) - lo + 1
        # floor(log2(window length)), exact for integers via the float exponent
        k = np.frexp(length)[1] - 1
        first = k.astype(np.int64) * self._width + lo
        return np.minimum(self._flat.take(first), self._flat.take(first + length - (1 << k)))


def offline_cost(minima: WindowMinima, pieces: Pieces) -> float:
    """Hindsight cost of a piece set: each piece pays its window minimum."""
    return math.fsum(memoryview(pieces.quantity * minima(pieces.t_start, pieces.t_end)))


def offline_optimal_general(prices: PriceTrace, load: LoadTrace, capacity: float) -> float:
    """Hindsight-optimal cost of serving the whole trace with capacity B.

    Each decomposed piece independently buys at its window minimum; summed,
    that is the full-information optimum for the coupled storage problem.
    """
    ensure_aligned(prices, load)
    return offline_cost(WindowMinima(prices.values), decompose(load, capacity))


def schedule_from_assignments(load: LoadTrace, pieces: Pieces, buy_slots) -> DispatchSchedule:
    """Turn one purchase slot per piece back into a slot-wise dispatch.

    A piece bought at its deadline is served directly; bought earlier, it is
    charged at the purchase slot and discharged at the deadline. Slot totals
    add the pieces in piece order.
    """
    slots = np.asarray(buy_slots).astype(np.int64)
    if len(pieces) != slots.size:
        raise LengthMismatchError(f"{len(pieces)} pieces vs {slots.size} buy slots")
    n = len(load)
    outside = (slots < pieces.t_start) | (slots > pieces.t_end)
    beyond = pieces.t_end >= n
    bad = np.flatnonzero(outside | beyond)
    if bad.size:
        i = bad[0]
        if outside[i]:
            raise AssignmentWindowError(
                f"buy slot {slots[i]} outside window [{pieces.t_start[i]}, {pieces.t_end[i]}]"
            )
        raise AssignmentWindowError(f"piece deadline {pieces.t_end[i]} beyond trace of {n} slots")
    stored = slots != pieces.t_end
    direct = np.bincount(slots[~stored], weights=pieces.quantity[~stored], minlength=n)
    charge = np.bincount(slots[stored], weights=pieces.quantity[stored], minlength=n)
    discharge = np.bincount(pieces.t_end[stored], weights=pieces.quantity[stored], minlength=n)
    return DispatchSchedule(direct, charge, discharge)


# constraint names in the order a single slot is checked
_CHECKS = (
    "negative direct",
    "negative charge",
    "negative discharge",
    "balance",
    "storage below empty",
    "storage above capacity",
)


def verify_feasible(schedule: DispatchSchedule, load: LoadTrace, capacity: float) -> None:
    """Check nonnegativity, power balance, and storage bounds at every slot.

    The slack is 1e-9 relative: at slot t it is scaled by the cumulative
    demand level D[t] + capacity, the magnitude of the prefix sums that piece
    quantities are cut from, so float rounding passes at any demand scale.
    Where that level is 0, every quantity must be exactly 0.
    Raises InfeasibleDispatchError naming the first violated constraint: the
    earliest failing slot, and at that slot the first failing check in the
    order of ``_CHECKS``.
    """
    if len(schedule) != len(load):
        raise LengthMismatchError(f"{len(schedule)} schedule slots vs {len(load)} demand slots")
    slack = 1e-9 * (np.cumsum(load.values) + capacity)
    direct, charge, discharge = schedule.direct, schedule.charge, schedule.discharge
    level = schedule.storage_level()
    failed = np.stack(
        (
            direct < -slack,
            charge < -slack,
            discharge < -slack,
            np.abs(direct + discharge - load.values) > slack,
            level < -slack,
            level > capacity + slack,
        )
    )
    slots = np.flatnonzero(failed.any(axis=0))
    if slots.size:
        t = int(slots[0])
        check = _CHECKS[int(np.argmax(failed[:, t]))]
        raise InfeasibleDispatchError(f"infeasible dispatch: {check} at slot {t}")

"""Decompose a demand trace plus storage capacity into one-shot purchase jobs.

A storage of capacity B lets any unit of demand due at slot t_e be bought at
any slot t with cumulative-demand level inside (D[t_e - 1], D[t_e]] that fits
under the shifted curve D + B. Slicing demand along those levels yields
independent unit jobs ("pieces"), each with a feasible purchase window
[t_start, t_end]; a dispatch schedule is recoverable from one purchase slot
per piece. The pieces are held as three parallel arrays (``Pieces``), never
as one object per piece: a year of hourly demand gives ~17k pieces per
capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import LoadTrace
from .errors import AssignmentWindowError, LengthMismatchError

# sub-pieces thinner than this are float dust from prefix-sum arithmetic
_PIECE_EPS = 1e-12


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
        for name, dtype in (("quantity", float), ("t_start", np.int64), ("t_end", np.int64)):
            arr = np.array(getattr(self, name), dtype=dtype, copy=True)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not self.quantity.size == self.t_start.size == self.t_end.size:
            raise LengthMismatchError("piece arrays differ in length")

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
        arrs = []
        for name in ("direct", "charge", "discharge"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D")
            arr.setflags(write=False)
            arrs.append(arr)
        if not arrs[0].size == arrs[1].size == arrs[2].size:
            raise LengthMismatchError("schedule arrays differ in length")
        object.__setattr__(self, "direct", arrs[0])
        object.__setattr__(self, "charge", arrs[1])
        object.__setattr__(self, "discharge", arrs[2])

    def __len__(self) -> int:
        return int(self.direct.size)

    def storage_level(self) -> np.ndarray:
        """Stored energy after each slot."""
        return np.cumsum(self.charge - self.discharge)


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violation: str | None = None
    slot: int | None = None


def decompose(load: LoadTrace, capacity: float) -> Pieces:
    """Slice the demand trace into one-shot jobs under a capacity-B storage.

    The level axis (0, D[-1]] is cut at every cumulative level D[t] and every
    shifted level A[t] = D[t] + B below D[-1]; each gap (lower, upper] between
    consecutive cuts is one piece. Its deadline is the first slot whose D
    reaches upper, and it can first be bought at the earliest slot whose A
    exceeds lower. Pieces come out sorted by (t_end, level). With capacity 0
    every piece is (demand, t, t); total piece quantity per deadline equals
    that slot's demand (exactly, when demands are exactly representable; see
    tests for the float caveat). Gaps no wider than float dust are dropped.
    """
    if not math.isfinite(capacity) or capacity < 0:
        raise ValueError(f"capacity must be finite and >= 0, got {capacity!r}")
    cumulative = np.cumsum(load.values)
    shifted = cumulative + capacity
    # sorted, not deduplicated: a repeated cut leaves a zero-width gap, which
    # the dust filter below drops (np.unique would import numpy.ma)
    cuts = np.sort(
        np.concatenate(([0.0], cumulative[cumulative > 0], shifted[shifted < cumulative[-1]]))
    )
    lower = cuts[:-1]
    upper = cuts[1:]
    quantity = upper - lower
    keep = quantity > _PIECE_EPS
    lower, upper = lower[keep], upper[keep]
    return Pieces(
        quantity[keep],
        np.searchsorted(shifted, lower, side="right"),
        np.searchsorted(cumulative, upper, side="left"),
    )


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


def verify_feasible(
    schedule: DispatchSchedule,
    load: LoadTrace,
    capacity: float,
) -> FeasibilityReport:
    """Check nonnegativity, power balance, and storage bounds at every slot.

    The slack is 1e-9 relative: at slot t it is scaled by the cumulative
    demand level D[t] + capacity (at least 1), the magnitude of the prefix
    sums that piece quantities are cut from, so float rounding passes at any
    demand scale.
    Returns the first violated constraint rather than raising, so callers can
    report exactly where a schedule breaks: the earliest failing slot, and at
    that slot the first failing check in the order of ``_CHECKS``.
    """
    if len(schedule) != len(load):
        raise LengthMismatchError(f"{len(schedule)} schedule slots vs {len(load)} demand slots")
    slack = 1e-9 * np.maximum(1.0, np.cumsum(load.values) + capacity)
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
    if slots.size == 0:
        return FeasibilityReport(True)
    t = int(slots[0])
    return FeasibilityReport(False, _CHECKS[int(np.argmax(failed[:, t]))], t)

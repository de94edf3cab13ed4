"""Decompose a demand trace plus storage capacity into one-shot purchase jobs.

A storage of capacity B lets any unit of demand due at slot t_e be bought at
any slot t with cumulative-demand level inside (D[t_e - 1], D[t_e]] that fits
under the shifted curve D + B. Slicing demand along those levels yields
independent unit jobs ("pieces"), each with a feasible purchase window
[t_start, t_end]; a dispatch schedule is recoverable from one purchase slot
per piece.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data_io import LoadTrace
from .errors import AssignmentWindowError, LengthMismatchError

# sub-pieces thinner than this are float dust from prefix-sum arithmetic
_PIECE_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class CumulativeDemand:
    """Prefix sums D[t] = d[0] + ... + d[t] of a demand trace."""

    levels: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.levels, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("levels must be a nonempty 1-D array")
        if np.any(np.diff(arr) < 0) or arr[0] < 0:
            raise ValueError("cumulative demand must be nonnegative and non-decreasing")
        arr.setflags(write=False)
        object.__setattr__(self, "levels", arr)

    def __len__(self) -> int:
        return int(self.levels.size)


@dataclass(frozen=True)
class ShiftedDemand:
    """The cumulative curve lifted by the storage capacity: A[t] = D[t] + B."""

    base: CumulativeDemand
    capacity: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.capacity) or self.capacity < 0:
            raise ValueError(f"capacity must be finite and >= 0, got {self.capacity!r}")

    @property
    def levels(self) -> np.ndarray:
        return self.base.levels + self.capacity


@dataclass(frozen=True)
class OneShotLoad:
    """One unit job: buy ``quantity`` once in slots [t_start, t_end]."""

    quantity: float
    t_start: int
    t_end: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.quantity) or self.quantity <= 0:
            raise ValueError(f"quantity must be positive, got {self.quantity!r}")
        if not 0 <= self.t_start <= self.t_end:
            raise ValueError(f"bad window [{self.t_start}, {self.t_end}]")

    @property
    def window_length(self) -> int:
        return self.t_end - self.t_start + 1


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

    def total_purchase(self) -> np.ndarray:
        return self.direct + self.charge

    def cost(self, prices: np.ndarray) -> float:
        p = np.asarray(prices, dtype=float)
        if p.size != len(self):
            raise LengthMismatchError(f"{p.size} prices vs {len(self)} schedule slots")
        return float(np.dot(self.total_purchase(), p))


@dataclass(frozen=True)
class FeasibilityReport:
    ok: bool
    violation: str | None = None
    slot: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def accumulate(load: LoadTrace) -> CumulativeDemand:
    return CumulativeDemand(np.cumsum(load.values))


def shift(cumulative: CumulativeDemand, capacity: float) -> ShiftedDemand:
    return ShiftedDemand(cumulative, capacity)


def decompose(load: LoadTrace, capacity: float) -> tuple[OneShotLoad, ...]:
    """Slice the demand trace into one-shot jobs under a capacity-B storage.

    For each slot t_e with demand, its level interval (D[t_e-1], D[t_e]] is cut
    at the shifted-curve breakpoints A[t] = D[t] + B; the sub-interval between
    consecutive cuts can first be bought at the earliest slot whose shifted
    level exceeds its lower cut. Pieces come out sorted by (t_end, level).
    With capacity 0 every piece is (demand, t, t); total piece quantity per
    deadline equals that slot's demand (exactly, when demands are exactly
    representable; see tests for the float caveat).
    """
    if not math.isfinite(capacity) or capacity < 0:
        raise ValueError(f"capacity must be finite and >= 0, got {capacity!r}")
    cumulative = accumulate(load).levels
    shifted = cumulative + capacity
    pieces: list[OneShotLoad] = []
    for t_end in (int(t) for t in np.nonzero(load.values > 0)[0]):
        lower = float(cumulative[t_end - 1]) if t_end > 0 else 0.0
        upper = float(cumulative[t_end])
        current = lower
        while current < upper:
            # earliest slot whose shifted curve strictly exceeds this level;
            # never past t_end because shifted[t_end] = upper + B > current
            t_start = int(np.searchsorted(shifted, current, side="right"))
            cut = min(upper, float(shifted[t_start])) if t_start < t_end else upper
            quantity = cut - current
            if quantity > _PIECE_EPS:
                pieces.append(OneShotLoad(quantity, t_start, t_end))
            current = cut
    return tuple(pieces)


def schedule_from_assignments(
    load: LoadTrace,
    pieces: tuple[OneShotLoad, ...] | list[OneShotLoad],
    buy_slots,
) -> DispatchSchedule:
    """Turn one purchase slot per piece back into a slot-wise dispatch.

    A piece bought at its deadline is served directly; bought earlier, it is
    charged at the purchase slot and discharged at the deadline.
    """
    if len(pieces) != len(buy_slots):
        raise LengthMismatchError(f"{len(pieces)} pieces vs {len(buy_slots)} buy slots")
    n = len(load)
    direct = np.zeros(n)
    charge = np.zeros(n)
    discharge = np.zeros(n)
    for piece, slot in zip(pieces, buy_slots):
        slot = int(slot)
        if not piece.t_start <= slot <= piece.t_end:
            raise AssignmentWindowError(
                f"buy slot {slot} outside window [{piece.t_start}, {piece.t_end}]"
            )
        if piece.t_end >= n:
            raise AssignmentWindowError(
                f"piece deadline {piece.t_end} beyond trace of {n} slots"
            )
        if slot == piece.t_end:
            direct[slot] += piece.quantity
        else:
            charge[slot] += piece.quantity
            discharge[piece.t_end] += piece.quantity
    return DispatchSchedule(direct, charge, discharge)


def verify_feasible(
    schedule: DispatchSchedule,
    load: LoadTrace,
    capacity: float,
    tol: float = 1e-9,
) -> FeasibilityReport:
    """Check nonnegativity, power balance, and storage bounds slot by slot.

    tol is relative: at slot t it is scaled by the cumulative demand level
    D[t] + capacity (at least 1), the magnitude of the prefix sums that piece
    quantities are cut from, so float rounding passes at any demand scale.
    Returns the first violated constraint rather than raising, so callers can
    report exactly where a schedule breaks.
    """
    if len(schedule) != len(load):
        raise LengthMismatchError(f"{len(schedule)} schedule slots vs {len(load)} demand slots")
    slack = tol * np.maximum(1.0, np.cumsum(load.values) + capacity)
    level = 0.0
    for t in range(len(schedule)):
        g = schedule.direct[t]
        b = schedule.charge[t]
        c = schedule.discharge[t]
        eps = slack[t]
        for name, value in (("direct", g), ("charge", b), ("discharge", c)):
            if value < -eps:
                return FeasibilityReport(False, f"negative {name}", t)
        if abs(g + c - load.values[t]) > eps:
            return FeasibilityReport(False, "balance", t)
        level += b - c
        if level < -eps:
            return FeasibilityReport(False, "storage below empty", t)
        if level > capacity + eps:
            return FeasibilityReport(False, "storage above capacity", t)
    return FeasibilityReport(True)


def pieces_to_csv(pieces, path) -> None:
    with open(Path(path), "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("quantity", "t_start", "t_end"))
        for piece in pieces:
            writer.writerow((repr(piece.quantity), piece.t_start, piece.t_end))

"""Hourly trace ingestion, validation, serialization, and train/test splitting.

Traces are two-column CSV files (``timestamp,price`` or ``timestamp,demand``)
with ISO-8601 timestamps on exact hour boundaries. Internally a trace is a
wall-clock start plus a dense float array, one value per hour; missing or
duplicated hours are hard errors, never silently interpolated.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AlignmentError,
    EmptyTraceError,
    InsufficientDataError,
    TraceGapError,
    TraceParseError,
    TraceValidationError,
)

HOURS_PER_DAY = 24
DEFAULT_START = datetime(2020, 1, 1, 0, 0)

_PRICE_HEADER = ("timestamp", "price")
_LOAD_HEADER = ("timestamp", "demand")


def hours_of_day(start: datetime, n: int) -> np.ndarray:
    """Hour-of-day of each of n hourly slots from start, shape (n,)."""
    return (start.hour + np.arange(n)) % HOURS_PER_DAY


@dataclass(frozen=True, eq=False)
class HourlyTrace:
    """A contiguous hourly series anchored at a wall-clock start time.

    Attributes:
        start: timestamp of slot 0; must lie on an exact hour boundary.
        values: one float per hour, stored read-only.
    """

    start: datetime
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.start.minute or self.start.second or self.start.microsecond:
            raise TraceValidationError(
                f"trace start {self.start.isoformat()} is not on an hour boundary"
            )
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 1:
            raise TraceValidationError("trace values must be one-dimensional")
        if arr.size == 0:
            raise EmptyTraceError("trace has no values")
        if not np.all(np.isfinite(arr)):
            raise TraceValidationError("trace values must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def hours_of_day(self) -> np.ndarray:
        """Hour-of-day of every slot, shape (n,)."""
        return hours_of_day(self.start, len(self))

    def window(self, lo: int, hi: int) -> "HourlyTrace":
        """Sub-trace covering slots [lo, hi), keeping wall-clock anchoring."""
        if not 0 <= lo < hi <= len(self):
            raise ValueError(f"window [{lo}, {hi}) out of range for {len(self)} slots")
        return type(self)(self.start + timedelta(hours=lo), self.values[lo:hi])


class PriceTrace(HourlyTrace):
    """Hourly unit prices. Negative prices are legal market outcomes."""


class LoadTrace(HourlyTrace):
    """Hourly energy demand; every value must be nonnegative."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if np.any(self.values < 0):
            bad = int(np.argmax(self.values < 0))
            raise TraceValidationError(
                f"negative demand {float(self.values[bad])!r} at slot {bad}"
            )


@dataclass(frozen=True)
class TraceSplit:
    """A chronological train/test partition of one trace."""

    train: HourlyTrace
    test: HourlyTrace


def price_trace_from_values(values, start: datetime = DEFAULT_START) -> PriceTrace:
    return PriceTrace(start, np.asarray(values, dtype=float))


def load_trace_from_values(values, start: datetime = DEFAULT_START) -> LoadTrace:
    return LoadTrace(start, np.asarray(values, dtype=float))


def _parse_timestamp(text: str, lineno: int) -> datetime:
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise TraceParseError(f"line {lineno}: bad timestamp {text!r}: {exc}") from None
    if ts.minute or ts.second or ts.microsecond:
        raise TraceParseError(
            f"line {lineno}: timestamp {text!r} is not on an hour boundary"
        )
    return ts


def _parse_value(text: str, name: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise TraceParseError(f"line {lineno}: bad {name} {text!r}") from None
    if not math.isfinite(value):
        raise TraceParseError(f"line {lineno}: {name} {text!r} is not finite")
    return value


def _read_rows(path, header: tuple[str, str]) -> list[tuple[datetime, float]]:
    # utf-8-sig drops the byte-order mark that spreadsheet exports often lead with
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        if first is None:
            raise EmptyTraceError("file is empty")
        got = tuple(cell.strip().lower() for cell in first)
        if got != header:
            raise TraceParseError(
                f"expected header {','.join(header)!r}, got {','.join(first)!r}"
            )
        rows = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != 2:
                raise TraceParseError(f"line {lineno}: expected 2 fields, got {len(cells)}")
            ts = _parse_timestamp(cells[0], lineno)
            rows.append((ts, _parse_value(cells[1], header[1], lineno)))
    if not rows:
        raise EmptyTraceError("no data rows")
    return rows


def _rows_to_trace(rows: list[tuple[datetime, float]], cls):
    try:
        rows.sort(key=lambda row: row[0])
    except TypeError:
        raise TraceParseError(
            "cannot mix timezone-aware and naive timestamps in one trace"
        ) from None
    hour = timedelta(hours=1)
    for (prev_ts, _), (ts, _) in zip(rows, rows[1:]):
        delta = ts - prev_ts
        if delta == timedelta(0):
            raise TraceGapError(f"duplicate timestamp {ts.isoformat()}")
        if delta != hour:
            raise TraceGapError(
                f"gap between {prev_ts.isoformat()} and {ts.isoformat()}: "
                f"expected 1 hour, got {delta}"
            )
    values = np.array([value for _, value in rows], dtype=float)
    return cls(rows[0][0], values)


def _load_trace(path, header: tuple[str, str], cls):
    """Read and check one trace file; every trace error it raises names the file."""
    try:
        return _rows_to_trace(_read_rows(path, header), cls)
    except (TraceParseError, TraceGapError, TraceValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except UnicodeDecodeError:
        # no line number: the decoder reads ahead in chunks
        raise TraceParseError(f"{path}: file is not UTF-8 text") from None


def load_price_trace(path) -> PriceTrace:
    """Read an hourly price CSV; sorts rows, rejects gaps and duplicates."""
    return _load_trace(path, _PRICE_HEADER, PriceTrace)


def load_load_trace(path) -> LoadTrace:
    """Read an hourly demand CSV; sorts rows, rejects gaps, duplicates, negatives."""
    return _load_trace(path, _LOAD_HEADER, LoadTrace)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header row, then every row in one ``writerows`` call."""
    with open(Path(path), "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_trace(trace: HourlyTrace, path, header: tuple[str, str]) -> None:
    hour = timedelta(hours=1)
    # repr() keeps the shortest round-trip form so load(save(x)) == x.
    rows = (
        ((trace.start + i * hour).isoformat(timespec="minutes"), repr(float(value)))
        for i, value in enumerate(trace.values)
    )
    write_csv(path, header, rows)


def save_price_trace(trace: PriceTrace, path) -> None:
    _write_trace(trace, path, _PRICE_HEADER)


def save_load_trace(trace: LoadTrace, path) -> None:
    _write_trace(trace, path, _LOAD_HEADER)


def split_train_test(trace: HourlyTrace, train_days: int) -> TraceSplit:
    """Split chronologically: first ``train_days`` whole days train, rest test.

    Raises InsufficientDataError unless both sides end up nonempty.
    """
    if train_days < 1:
        raise ValueError(f"train_days must be >= 1, got {train_days}")
    cut = HOURS_PER_DAY * train_days
    if len(trace) <= cut:
        raise InsufficientDataError(
            f"trace has {len(trace)} slots; need more than {cut} "
            f"for {train_days} training days plus a nonempty test span"
        )
    return TraceSplit(train=trace.window(0, cut), test=trace.window(cut, len(trace)))


def ensure_aligned(prices: HourlyTrace, load: HourlyTrace) -> None:
    """Require identical start timestamps and lengths for paired traces."""
    if prices.start != load.start:
        raise AlignmentError(
            f"traces start at {prices.start.isoformat()} vs {load.start.isoformat()}"
        )
    if len(prices) != len(load):
        raise AlignmentError(f"traces have {len(prices)} vs {len(load)} slots")

"""Hourly trace ingestion, validation, serialization, and train/test splitting.

A trace file is a two-column UTF-8 CSV (``timestamp,price`` or
``timestamp,demand``) as the csv module reads it: a leading byte-order mark,
quoted or padded cells, CRLF ends and blank lines are fine, and the header's
case is not checked. Stamps are ISO 8601 on exact hour boundaries, all naive
or all aware (``Z`` is UTC); values are finite; rows may come in any order.
Errors come per row in file order, then for a naive/aware mix, then for the
first duplicate or gap in time order (never silently interpolated), then from
the trace's own value checks. Internally a trace is a wall-clock start plus a
dense float array, one value per hour.
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
    InputError,
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


def price_trace_from_values(values, start: datetime = DEFAULT_START) -> PriceTrace:
    return PriceTrace(start, np.asarray(values, dtype=float))


def load_trace_from_values(values, start: datetime = DEFAULT_START) -> LoadTrace:
    return LoadTrace(start, np.asarray(values, dtype=float))


def _load_trace(path, header: tuple[str, str], cls):
    """Read and check one trace file; every trace error it raises names the file.

    The first bad row in file order raises with its line number (csv syntax,
    field count, stamp, hour boundary, finite value); then a naive/aware mix;
    then the first duplicate or gap in time order; last ``cls``'s value checks.
    """
    stamps, values = [], []
    end = 0  # the line the last record read ends on; a quoted cell may span lines
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports often lead with
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            first = next(reader, None)
            if first is None:
                raise EmptyTraceError("file is empty")
            if tuple(cell.strip().lower() for cell in first) != header:
                raise TraceParseError(
                    f"expected header {','.join(header)!r}, got {','.join(first)!r}"
                )
            end = reader.line_num
            for cells in reader:
                lineno, end = end + 1, reader.line_num
                if not cells:
                    continue
                if len(cells) != 2:
                    raise TraceParseError(f"line {lineno}: expected 2 fields, got {len(cells)}")
                text, cell = cells
                raw = text.strip()
                if raw.endswith("Z"):  # Python 3.10's fromisoformat rejects Z
                    raw = raw[:-1] + "+00:00"
                try:
                    ts = datetime.fromisoformat(raw)
                except ValueError as exc:
                    raise TraceParseError(
                        f"line {lineno}: bad timestamp {text!r}: {exc}"
                    ) from None
                if ts.minute or ts.second or ts.microsecond:
                    raise TraceParseError(
                        f"line {lineno}: timestamp {text!r} is not on an hour boundary"
                    )
                try:
                    value = float(cell)
                except ValueError:
                    raise TraceParseError(f"line {lineno}: bad {header[1]} {cell!r}") from None
                if not math.isfinite(value):
                    raise TraceParseError(f"line {lineno}: {header[1]} {cell!r} is not finite")
                stamps.append(ts)
                values.append(value)
        if not stamps:
            raise EmptyTraceError("no data rows")
        if len({ts.tzinfo is None for ts in stamps}) > 1:
            raise TraceParseError("cannot mix timezone-aware and naive timestamps in one trace")
        # seconds from the first row: aware stamps subtract in UTC, naive ones on the wall clock
        seconds = np.array([(ts - stamps[0]).total_seconds() for ts in stamps])
        order = np.argsort(seconds, kind="stable")
        steps = np.flatnonzero(np.diff(seconds[order]) != 3600.0)
        if steps.size:
            prev_ts, ts = stamps[order[steps[0]]], stamps[order[steps[0] + 1]]
            if ts == prev_ts:
                raise TraceGapError(f"duplicate timestamp {ts.isoformat()}")
            raise TraceGapError(
                f"gap between {prev_ts.isoformat()} and {ts.isoformat()}: "
                f"expected 1 hour, got {ts - prev_ts}"
            )
        return cls(stamps[order[0]], np.array(values)[order])
    except InputError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except csv.Error as exc:  # an unclosed quote runs into the field size limit
        raise TraceParseError(f"{path}: line {end + 1}: bad CSV row: {exc}") from None
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
    """Write a header row, then every row in one ``writerows`` call.

    The csv module writes a float as str(), its shortest round-trip form
    (``inf`` too), so a float cell needs no formatting.
    """
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


def split_train_test(trace: HourlyTrace, train_days: int) -> tuple[HourlyTrace, HourlyTrace]:
    """Split chronologically into (train, test): the first ``train_days``
    whole days train, the rest test.

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
    return trace.window(0, cut), trace.window(cut, len(trace))


def ensure_aligned(prices: HourlyTrace, load: HourlyTrace) -> None:
    """Require identical start timestamps and lengths for paired traces."""
    if prices.start != load.start:
        raise AlignmentError(
            f"traces start at {prices.start.isoformat()} vs {load.start.isoformat()}"
        )
    if len(prices) != len(load):
        raise AlignmentError(f"traces have {len(prices)} vs {len(load)} slots")

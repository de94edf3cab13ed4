"""Trace ingestion, validation, serialization, and splitting."""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from gridstash.data_io import (
    LoadTrace,
    PriceTrace,
    ensure_aligned,
    load_load_trace,
    load_price_trace,
    load_trace_from_values,
    price_trace_from_values,
    save_load_trace,
    save_price_trace,
    split_train_test,
)
from gridstash.errors import (
    AlignmentError,
    EmptyTraceError,
    InsufficientDataError,
    TraceGapError,
    TraceParseError,
    TraceValidationError,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_price_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.normal(40.0, 25.0, size=100)  # negatives included on purpose
    trace = PriceTrace(datetime(2021, 3, 5, 7), values)
    path = tmp_path / "p.csv"
    save_price_trace(trace, path)
    back = load_price_trace(path)
    assert back.start == trace.start
    assert np.array_equal(back.values, trace.values)


def test_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    trace = LoadTrace(datetime(2021, 1, 1), rng.uniform(0.0, 3.0, size=50))
    path = tmp_path / "l.csv"
    save_load_trace(trace, path)
    back = load_load_trace(path)
    assert back.start == trace.start
    assert np.array_equal(back.values, trace.values)


def test_rows_are_sorted_before_validation(tmp_path):
    path = write(
        tmp_path / "p.csv",
        "timestamp,price\n"
        "2020-01-01T02:00,3.0\n"
        "2020-01-01T00:00,1.0\n"
        "2020-01-01T01:00,2.0\n",
    )
    trace = load_price_trace(path)
    assert list(trace.values) == [1.0, 2.0, 3.0]
    assert trace.start == datetime(2020, 1, 1, 0)


def test_gap_is_a_hard_error(tmp_path):
    path = write(
        tmp_path / "p.csv",
        "timestamp,price\n2020-01-01T00:00,1.0\n2020-01-01T02:00,2.0\n",
    )
    with pytest.raises(TraceGapError):
        load_price_trace(path)


def test_duplicate_timestamp_rejected(tmp_path):
    path = write(
        tmp_path / "p.csv",
        "timestamp,price\n2020-01-01T00:00,1.0\n2020-01-01T00:00,2.0\n",
    )
    with pytest.raises(TraceGapError, match="duplicate"):
        load_price_trace(path)


def test_bad_header_rejected(tmp_path):
    path = write(tmp_path / "p.csv", "time,price\n2020-01-01T00:00,1.0\n")
    with pytest.raises(TraceParseError, match="header"):
        load_price_trace(path)


def test_load_header_differs_from_price_header(tmp_path):
    path = write(tmp_path / "l.csv", "timestamp,price\n2020-01-01T00:00,1.0\n")
    with pytest.raises(TraceParseError):
        load_load_trace(path)


def test_sub_hour_timestamp_rejected(tmp_path):
    path = write(tmp_path / "p.csv", "timestamp,price\n2020-01-01T00:30,1.0\n")
    with pytest.raises(TraceParseError, match="hour boundary"):
        load_price_trace(path)


def test_bad_value_and_nan_rejected(tmp_path):
    path = write(tmp_path / "p.csv", "timestamp,price\n2020-01-01T00:00,abc\n")
    with pytest.raises(TraceParseError):
        load_price_trace(path)
    path = write(tmp_path / "q.csv", "timestamp,price\n2020-01-01T00:00,nan\n")
    with pytest.raises(TraceParseError, match="finite"):
        load_price_trace(path)


def test_negative_demand_rejected(tmp_path):
    path = write(
        tmp_path / "l.csv",
        "timestamp,demand\n2020-01-01T00:00,1.0\n2020-01-01T01:00,-0.5\n",
    )
    with pytest.raises(TraceValidationError, match="negative demand"):
        load_load_trace(path)
    with pytest.raises(TraceValidationError):
        load_trace_from_values([1.0, -2.0])


@pytest.mark.parametrize("body, error, message", [
    ("2020-01-01T00:00,1.0\n2020-01-01T02:00,2.0\n", TraceGapError, "gap between"),
    ("2020-01-01T00:00,1.0\n2020-01-01T00:00,2.0\n", TraceGapError, "duplicate timestamp"),
    ("2020-01-01T00:00Z,1.0\n2020-01-01T01:00,2.0\n", TraceParseError, "cannot mix"),
    ("yesterday,1.0\n", TraceParseError, "line 2: bad timestamp"),
    ("2020-01-01T00:30,1.0\n", TraceParseError, "not on an hour boundary"),
    ("2020-01-01T00:00,abc\n", TraceParseError, "line 2: bad demand"),
    ("2020-01-01T00:00,inf\n", TraceParseError, "is not finite"),
    ("2020-01-01T00:00,1.0\n2020-01-01T01:00,-2.0\n", TraceValidationError,
     "negative demand -2.0 at slot 1"),
], ids=["gap", "duplicate", "mixed-tz", "bad-timestamp", "off-hour", "bad-value", "non-finite",
        "negative"])
def test_trace_errors_name_the_file_once(tmp_path, body, error, message):
    path = write(tmp_path / "demand.csv", "timestamp,demand\n" + body)
    with pytest.raises(error) as caught:
        load_load_trace(path)
    text = str(caught.value)
    assert text.startswith(f"{path}: ") and text.count(str(path)) == 1
    assert message in text


def test_byte_order_mark_is_ignored(tmp_path):
    body = "timestamp,price\n2020-01-01T00:00,1.5\n2020-01-01T01:00,-2.0\n"
    plain = load_price_trace(write(tmp_path / "plain.csv", body))
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
    trace = load_price_trace(marked)
    assert trace.start == plain.start
    assert trace.values.tolist() == plain.values.tolist()


def test_empty_file_and_header_only(tmp_path):
    with pytest.raises(EmptyTraceError):
        load_price_trace(write(tmp_path / "a.csv", ""))
    with pytest.raises(EmptyTraceError):
        load_price_trace(write(tmp_path / "b.csv", "timestamp,price\n"))


def test_utc_suffix_accepted(tmp_path):
    path = write(
        tmp_path / "p.csv",
        "timestamp,price\n2020-01-01T00:00:00Z,1.0\n2020-01-01T01:00:00Z,2.0\n",
    )
    trace = load_price_trace(path)
    assert len(trace) == 2


def test_mixed_aware_and_naive_rejected(tmp_path):
    path = write(
        tmp_path / "p.csv",
        "timestamp,price\n2020-01-01T00:00:00Z,1.0\n2020-01-01T01:00,2.0\n",
    )
    with pytest.raises(TraceParseError, match="timezone"):
        load_price_trace(path)


@pytest.mark.parametrize("stamps, hours, saved", [
    # spring forward: 03:00+02:00 is one UTC hour after 01:00+01:00
    (["2024-03-31T00:00+01:00", "2024-03-31T01:00+01:00",
      "2024-03-31T03:00+02:00", "2024-03-31T04:00+02:00"],
     [0, 1, 2, 3],
     ["2024-03-31T00:00+01:00", "2024-03-31T01:00+01:00",
      "2024-03-31T02:00+01:00", "2024-03-31T03:00+01:00"]),
    # fall back: 02:00 occurs twice, once per offset
    (["2024-10-27T01:00+02:00", "2024-10-27T02:00+02:00",
      "2024-10-27T02:00+01:00", "2024-10-27T03:00+01:00"],
     [1, 2, 3, 4],
     ["2024-10-27T01:00+02:00", "2024-10-27T02:00+02:00",
      "2024-10-27T03:00+02:00", "2024-10-27T04:00+02:00"]),
], ids=["spring-forward", "fall-back"])
def test_dst_trace_counts_hours_in_first_row_offset(tmp_path, stamps, hours, saved):
    # a trace is a UTC-contiguous hourly grid; its hours of day are counted,
    # and it is written back, in the UTC offset of its first row
    body = "".join(f"{stamp},{i}.0\n" for i, stamp in enumerate(stamps))
    trace = load_price_trace(write(tmp_path / "in.csv", "timestamp,price\n" + body))
    assert trace.hours_of_day().tolist() == hours
    save_price_trace(trace, tmp_path / "out.csv")
    rows = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == saved


def test_split_sizes_match_day_boundaries():
    trace = price_trace_from_values(np.arange(744.0))
    train, test = split_train_test(trace, 21)
    assert len(train) == 504
    assert len(test) == 240
    assert test.start == trace.start + timedelta(hours=504)
    assert np.array_equal(np.concatenate([train.values, test.values]), trace.values)


def test_split_rejects_bad_train_days():
    trace = price_trace_from_values(np.arange(48.0))
    with pytest.raises(ValueError):
        split_train_test(trace, 0)
    with pytest.raises(InsufficientDataError):
        split_train_test(trace, 2)  # would leave no test data
    with pytest.raises(InsufficientDataError):
        split_train_test(trace, 99)


def test_alignment_checks():
    a = price_trace_from_values([1.0, 2.0], start=datetime(2020, 1, 1))
    b = load_trace_from_values([1.0, 2.0], start=datetime(2020, 1, 1))
    ensure_aligned(a, b)
    with pytest.raises(AlignmentError):
        ensure_aligned(a, load_trace_from_values([1.0, 2.0], start=datetime(2020, 1, 2)))
    with pytest.raises(AlignmentError):
        ensure_aligned(a, load_trace_from_values([1.0, 2.0, 3.0], start=datetime(2020, 1, 1)))


def test_hour_of_day_wraps_midnight():
    trace = price_trace_from_values([1.0, 2.0, 3.0], start=datetime(2020, 1, 1, 23))
    assert trace.hours_of_day().tolist() == [23, 0, 1]


def test_window_keeps_wall_clock():
    trace = price_trace_from_values(np.arange(10.0), start=datetime(2020, 1, 1, 5))
    sub = trace.window(3, 7)
    assert sub.start == datetime(2020, 1, 1, 8)
    assert list(sub.values) == [3.0, 4.0, 5.0, 6.0]
    with pytest.raises(ValueError):
        trace.window(7, 3)


def test_values_are_read_only():
    trace = price_trace_from_values([1.0, 2.0])
    with pytest.raises(ValueError):
        trace.values[0] = 9.0


def test_trace_start_must_be_on_hour():
    with pytest.raises(TraceValidationError):
        PriceTrace(datetime(2020, 1, 1, 0, 30), np.array([1.0]))

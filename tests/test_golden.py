"""The ``--reproducible`` contract: every command's outputs against golden files.

``tests/golden/regenerate.py`` runs the commands and writes the golden files;
this test reruns them and compares the parsed outputs. Discrete fields must
match exactly: JSON keys in order, list lengths, ints, bools, strings, null,
exit codes, and every CSV cell that reads as an integer (buy slots, windows,
forced flags, K rows, picks, iterations). Floats, and the numbers inside
strings such as stdout and error messages, match to a relative REL, which
allows last-digit moves of EM arithmetic and numpy's exp/log across CPUs;
inf and nan must match exactly.
"""

from __future__ import annotations

import csv
import json
import math
import re

import pytest

from golden.regenerate import SEEDS, golden_path, run_seed

REL = 1e-9
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")
_INT = re.compile(r"[-+]?\d+")


def _cell(text: str):
    """A CSV cell as int, float or str."""
    if _INT.fullmatch(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _same_float(a: float, b: float) -> bool:
    if math.isfinite(a) and math.isfinite(b):
        return abs(a - b) <= REL * max(abs(a), abs(b))
    return a == b or (math.isnan(a) and math.isnan(b))


def _same_text(got: str, want: str) -> bool:
    """Equal text around the numbers, and the numbers equal to within REL."""
    if got == want:
        return True
    if _NUMBER.split(got) != _NUMBER.split(want):
        return False
    return all(
        _same_float(float(a), float(b)) for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want))
    )


def mismatches(got, want, where: str = "") -> list[str]:
    """Where got differs from want, by the rules in the module docstring."""
    if type(got) is not type(want):
        return [f"{where}: {type(got).__name__} {got!r} vs {type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{where}: keys {list(got)} vs {list(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{where}/{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} vs {len(want)}"]
        return [m for i, (a, b) in enumerate(zip(got, want)) for m in mismatches(a, b, f"{where}[{i}]")]
    if isinstance(want, float):
        same = _same_float(got, want)
    elif isinstance(want, str):
        same = _same_text(got, want)
    else:
        same = got == want
    return [] if same else [f"{where}: {got!r} vs {want!r}"]


def _typed(records: dict) -> dict:
    """records with each CSV file's lines split into typed cells."""
    for record in records.values():
        for name, content in record["files"].items():
            if name.endswith(".csv"):
                record["files"][name] = [[_cell(c) for c in row] for row in csv.reader(content)]
    return records


@pytest.mark.parametrize("seed", SEEDS)
def test_reproducible_outputs_match_the_golden_files(tmp_path, seed):
    want = json.loads(golden_path(seed).read_text(encoding="utf-8"))
    got = run_seed(seed, tmp_path)
    problems = mismatches(_typed(got), _typed(want))
    assert not problems, f"{len(problems)} fields moved, first: " + "; ".join(problems[:5])


def test_the_comparison_is_exact_on_discrete_fields_and_relative_on_floats():
    assert mismatches({"a": [1, 2.0, "x 3.5"]}, {"a": [1, 2.0 * (1 + 1e-12), "x 3.5000000000001"]}) == []
    for got, want in [
        ({"a": 1, "b": 2}, {"b": 2, "a": 1}),  # key order
        ([1, 2], [1, 2, 3]),
        (3, 4),
        (1, 1.0),
        (True, 1),
        (None, 0.0),
        (1.0, 1.0 + 1e-8),
        (math.inf, 1e308),
        ("selected 3 components", "selected 4 components"),
        ("fit failed: K=2", "fit failed: K=2!"),
    ]:
        assert mismatches(got, want), (got, want)
    assert [_cell(c) for c in ("12", "-3", "1.5", "inf", "", "no")] == [12, -3, 1.5, math.inf, "", "no"]

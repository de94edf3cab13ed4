"""The batched EM core against the one-fit-at-a-time reference in oracles."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

import gridstash.gmm
import oracles
from gridstash.errors import DegenerateFitError, InsufficientSamplesError
from gridstash.gmm import (
    EmConfig,
    FitReport,
    _em_lanes,
    _exp_shifted,
    _log_of_sums,
    derive_config,
    em_fit,
    fit_candidates,
    make_model,
    sample_with_rng,
    select_models,
)

REL = 1e-9
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)")


def _assert_same_error(got: str | None, want: str | None) -> None:
    """Same message, with the numbers in it equal to within REL."""
    if got is None or want is None:
        assert got == want
        return
    assert _NUMBER.split(got) == _NUMBER.split(want)
    for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        assert float(a) == pytest.approx(float(b), rel=REL, abs=0)


def _assert_same_fit(got, want) -> None:
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert len(got.ll_trace) == len(want.ll_trace)
    np.testing.assert_allclose(got.ll_trace, want.ll_trace, rtol=REL, atol=0)
    for attr in ("weights", "means", "stds"):
        np.testing.assert_allclose(
            getattr(got.model, attr), getattr(want.model, attr), rtol=REL, atol=0
        )


def _random_group(rng, n: int) -> np.ndarray:
    k = int(rng.integers(1, 4))
    weights = rng.dirichlet(np.ones(k))
    model = make_model(weights, rng.uniform(0.0, 40.0, k), rng.uniform(0.5, 4.0, k))
    return sample_with_rng(model, n, rng)


def _assert_same_rows(rows, ref_rows) -> None:
    """CandidateFit rows against _reference_rows: K order, error text, iterations, traces."""
    assert [row.n_components for row in rows] == [k for k, _, _ in ref_rows]
    for row, (_, want, error) in zip(rows, ref_rows):
        _assert_same_error(row.error, error)
        assert (row.report is None) == (want is None)
        if want is not None:
            _assert_same_fit(row.report, want)


def _assert_same_selection(sel, ref_rows, ref_best) -> None:
    assert sel.best.model.n_components == ref_best.model.n_components
    _assert_same_fit(sel.best, ref_best)
    _assert_same_rows(sel.candidates, ref_rows)
    diagnostics = sel.diagnostics()
    assert diagnostics["failed_components"] == [k for k, _, error in ref_rows if error is not None]
    assert diagnostics["capped_components"] == [
        k for k, report, _ in ref_rows if report is not None and not report.converged
    ]


def _lane_groups():
    """Random groups: one bucket of five equal-size lanes in which one lane
    starves at K=3 and one stops at a 5-pass cap, then unequal sizes."""
    rng = np.random.default_rng(20240601)
    groups, caps, configs = [], [], []
    for lane in range(5):
        if lane == 2:
            x = np.concatenate([np.zeros(60), np.ones(60)])
        else:
            x = _random_group(rng, 120)
        groups.append(x)
        caps.append(4)
        configs.append(
            EmConfig(
                tol=oracles.STARVE_TOL if lane == 2 else 1e-6,
                init_seed=lane,
                max_iter=5 if lane == 3 else 500,
            )
        )
    for n, cap in ((80, 3), (80, 3), (50, 5), (120, 2)):
        groups.append(_random_group(rng, n))
        caps.append(cap)
        configs.append(EmConfig(init_seed=int(rng.integers(1000))))
    return groups, caps, configs


def test_select_models_matches_reference_on_random_groups():
    groups, caps, configs = _lane_groups()
    selections = select_models(groups, caps, configs)
    assert len(selections) == len(groups)
    for x, cap, config, sel in zip(groups, caps, configs, selections):
        _assert_same_selection(sel, *oracles.reference_sweep(x, cap, config))
    failed = [row for row in selections[2].candidates if row.error is not None]
    assert [row.n_components for row in failed] == [3, 4]
    assert "lost all responsibility" in failed[0].error
    assert selections[3].diagnostics()["capped_components"] != []


def test_em_lanes_match_reference_for_every_candidate():
    groups, caps, configs = _lane_groups()
    stacked = np.stack(groups[:5])
    for k in range(1, caps[0] + 1):
        lane_configs = [derive_config(c, k) for c in configs[:5]]
        for x, config, got in zip(groups, lane_configs, _em_lanes(stacked, k, lane_configs)):
            try:
                want = oracles.reference_em_fit(x, k, config)
            except DegenerateFitError as exc:
                assert isinstance(got, DegenerateFitError)
                _assert_same_error(str(got), str(exc))
                continue
            _assert_same_fit(got, want)
            assert got.log_likelihood == pytest.approx(want.log_likelihood, rel=REL, abs=0)
            assert got.bic == pytest.approx(want.bic, rel=REL, abs=0)


def test_em_fit_matches_reference_single_lane():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(0.0, 1.0, 400), rng.normal(6.0, 2.0, 300)])
    for k in (1, 2, 3, 5):
        config = EmConfig(init_seed=k)
        _assert_same_fit(em_fit(x, k, config), oracles.reference_em_fit(x, k, config))
    two_atoms = np.concatenate([np.zeros(30), np.ones(30)])
    # at the default tol the starving pass also converges; starvation wins
    for config in (EmConfig(tol=oracles.STARVE_TOL), EmConfig()):
        with pytest.raises(DegenerateFitError) as got:
            em_fit(two_atoms, 3, config)
        with pytest.raises(DegenerateFitError) as want:
            oracles.reference_em_fit(two_atoms, 3, config)
        _assert_same_error(str(got.value), str(want.value))


def test_fit_candidates_match_reference_rows_and_sweep_reraises():
    rng = np.random.default_rng(8)
    groups = [_random_group(rng, 90) for _ in range(3)]
    groups.append(np.concatenate([np.zeros(45), np.ones(45)]))  # K=3 starves
    configs = [EmConfig(init_seed=s) for s in (4, 5, 6)] + [EmConfig(tol=oracles.STARVE_TOL, init_seed=7)]
    for x, config in zip(groups, configs):
        _assert_same_rows(fit_candidates(x, 3, config), oracles.reference_sweep(x, 3, config)[0])
    assert fit_candidates(groups[3], 3, configs[3])[2].error is not None
    # every candidate of the empty group fails, so the sweep re-raises
    with pytest.raises(InsufficientSamplesError):
        select_models([groups[0], np.empty(0)], [2, 1], configs[:2])


def _assert_identical_rows(rows, want) -> None:
    """Two sweeps' rows equal bit for bit."""
    assert [row.n_components for row in rows] == [row.n_components for row in want]
    for row, ref in zip(rows, want):
        assert row.error == ref.error
        if ref.report is None:
            assert row.report is None
            continue
        got, exp = row.report, ref.report
        assert (got.iterations, got.converged, got.log_likelihood, got.bic) == (
            exp.iterations, exp.converged, exp.log_likelihood, exp.bic
        )
        assert np.array_equal(got.ll_trace, exp.ll_trace)
        assert got.model == exp.model


def test_lanes_leaving_at_different_k_match_solo_fits_bit_for_bit():
    # 24 equal-size groups, one bucket, as the hourly estimator fits them
    rng = np.random.default_rng(99)
    groups = [_random_group(rng, 100) for _ in range(24)]
    configs = [derive_config(EmConfig(), 1, h) for h in range(24)]
    together = select_models(groups, [6] * 24, configs)
    swept = set()
    for x, config, sel in zip(groups, configs, together):
        (alone,) = select_models([x], [6], [config])
        _assert_identical_rows(sel.candidates, alone.candidates)
        assert sel.best is not alone.best and sel.best.model == alone.best.model
        swept.add(sel.diagnostics()["swept_components"])
    assert len(swept) > 2 and min(swept) < 6  # lanes left the bucket at different K


def test_gaussian_sweep_stops_after_three_non_improving_k():
    rng = np.random.default_rng(9)
    x = rng.normal(0.0, 1.0, 600)
    (sel,) = select_models([x], [8], [EmConfig()])
    assert [row.n_components for row in sel.candidates] == [1, 2, 3, 4]
    assert sel.best.model.n_components == 1
    assert sel.diagnostics()["swept_components"] == 4
    _assert_same_rows(sel.candidates, oracles.reference_sweep(x, 8, EmConfig())[0])


# BIC per K (None: the fit fails) for lanes whose samples all equal the key
_SCRIPTED_BICS = {
    0.0: [10, 11, 12, 13, 5, 5, 5, 5],          # three misses after K=1: stop at 4
    1.0: [10, 11, 12, 9, 13, 14, 15, 1],        # better on the third K after K=1
    2.0: [None, None, None, 10, 11, 12, 13, 9],  # failures before the first fit
    3.0: [10, None, None, None, 5, 5, 5, 5],     # failures after it are misses
    4.0: [10, 10, 10, 10, 5, 5, 5, 5],           # a tie does not beat the best
}


def _scripted_lanes(x, n_components, configs):
    results = []
    for row in x:
        value = _SCRIPTED_BICS[float(row[0])][n_components - 1]
        if value is None:
            results.append(DegenerateFitError(f"scripted failure at K={n_components}"))
            continue
        k = n_components
        model = make_model(np.full(k, 1.0 / k), np.arange(k, dtype=float), np.ones(k))
        results.append(
            FitReport(model, -value / 2.0, float(value), 1, True, row.size, np.array([0.0]))
        )
    return results


def test_sweep_early_stop_follows_the_scripted_bics(monkeypatch):
    monkeypatch.setattr(gridstash.gmm, "_em_lanes", _scripted_lanes)
    keys = sorted(_SCRIPTED_BICS)
    sels = select_models([np.full(40, key) for key in keys], [8] * len(keys), [EmConfig()] * len(keys))
    swept = {key: [row.n_components for row in sel.candidates] for key, sel in zip(keys, sels)}
    assert swept == {
        0.0: [1, 2, 3, 4],
        1.0: [1, 2, 3, 4, 5, 6, 7],  # a patience of 2 stops at 3 and picks K=1
        2.0: [1, 2, 3, 4, 5, 6, 7],
        3.0: [1, 2, 3, 4],
        4.0: [1, 2, 3, 4],
    }
    assert [sel.best.model.n_components for sel in sels] == [1, 4, 4, 1, 1]
    assert [sel.diagnostics()["swept_components"] for sel in sels] == [4, 7, 7, 4, 4]
    assert sels[2].diagnostics()["failed_components"] == [1, 2, 3]


def test_logsumexp_matches_scipy_with_tied_maxima():
    def logsumexp(a, axis):
        # the max-shifted log-sum-exp that the EM core builds from these helpers
        work = np.array(a, dtype=float)
        return np.squeeze(_log_of_sums(*_exp_shifted(work, axis)), axis=axis)

    a = np.array(
        [
            [1.0, 1.0, 0.0],
            [5.0, 5.0, 5.0],
            [1000.0, 1000.0, -1000.0],
            [-math.inf, -math.inf, -math.inf],
            [-math.inf, 2.0, 2.0],
            [-745.0, -745.0, -800.0],
        ]
    )
    for axis in (0, 1, -1):
        np.testing.assert_allclose(
            logsumexp(a, axis=axis), scipy_logsumexp(a, axis=axis), rtol=1e-15, atol=0
        )
    assert logsumexp(a, axis=1)[1] == pytest.approx(5.0 + math.log(3.0), rel=1e-15)
    assert logsumexp(a, axis=1)[3] == -math.inf
    # the input is left as it was
    assert a[0, 0] == 1.0 and a[2, 2] == -1000.0

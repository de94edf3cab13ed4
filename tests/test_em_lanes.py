"""The batched EM core against the one-fit-at-a-time reference in oracles."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

import gridstash.gmm
import oracles
from gridstash.distributions import make_model, sample_with_rng
from gridstash.errors import DegenerateFitError, InsufficientSamplesError
from gridstash.gmm import (
    EmConfig,
    FitReport,
    _em_lanes,
    _exp_shifted,
    _initial_params,
    _standardize,
    derive_seed,
    em_fit,
    fit_candidates,
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
    assert _failed_k(sel) == [k for k, _, error in ref_rows if error is not None]
    assert _capped_k(sel) == [
        k for k, report, _ in ref_rows if report is not None and not report.converged
    ]


def _failed_k(sel) -> list[int]:
    return [row.n_components for row in sel.candidates if row.report is None]


def _capped_k(sel) -> list[int]:
    return [
        row.n_components
        for row in sel.candidates
        if row.report is not None and not row.report.converged
    ]


def _lane_groups():
    """Random groups in two sweeps of (groups, caps, config, keys): five
    equal-size lanes under a tight tol and a 40-pass cap, in which one lane
    starves at K=3 and others stop at the cap while the rest converge; then
    unequal sizes under the default config."""
    rng = np.random.default_rng(20240601)
    groups = [
        np.concatenate([np.zeros(60), np.ones(60)]) if lane == 2 else _random_group(rng, 120)
        for lane in range(5)
    ]
    tight_config = EmConfig(tol=oracles.STARVE_TOL, max_iter=40, init_seed=3)
    tight = (groups, [4] * 5, tight_config, [(lane,) for lane in range(5)])
    sizes = ((80, 3), (80, 3), (50, 5), (120, 2))
    groups = [_random_group(rng, n) for n, _ in sizes]
    keys = [(int(rng.integers(1000)),) for _ in sizes]
    return [tight, (groups, [cap for _, cap in sizes], EmConfig(), keys)]


def _group_seeds(config, keys) -> list[int]:
    return [derive_seed(config.init_seed, *key) for key in keys]


def test_select_models_matches_reference_on_random_groups():
    sweeps = [(sweep, select_models(*sweep)) for sweep in _lane_groups()]
    for (groups, caps, config, keys), selections in sweeps:
        assert len(selections) == len(groups)
        for x, cap, seed, sel in zip(groups, caps, _group_seeds(config, keys), selections):
            _assert_same_selection(sel, *oracles.reference_sweep(x, cap, replace(config, init_seed=seed)))
    selections = sweeps[0][1]
    failed = [row for row in selections[2].candidates if row.error is not None]
    assert [row.n_components for row in failed] == [3, 4]
    assert "lost all responsibility" in failed[0].error
    assert _capped_k(selections[3]) != []
    assert any(row.report.converged for row in selections[3].candidates[1:])


def test_em_lanes_match_reference_for_every_candidate():
    groups, caps, config, keys = _lane_groups()[0]
    seeds = _group_seeds(config, keys)
    prepared = [_standardize(x) for x in groups]
    stacked, frames = (np.stack(parts) for parts in zip(*prepared))
    for k in range(1, caps[0] + 1):
        lane_seeds = [derive_seed(seed, k) for seed in seeds]
        lanes = _em_lanes(stacked, k, lane_seeds, frames, config)
        for x, seed, got in zip(groups, lane_seeds, lanes):
            try:
                want = oracles.reference_squarem_fit(x, k, replace(config, init_seed=seed))
            except DegenerateFitError as exc:
                assert isinstance(got, DegenerateFitError)
                _assert_same_error(str(got), str(exc))
                continue
            _assert_same_fit(got, want)
            assert got.log_likelihood == pytest.approx(want.log_likelihood, rel=REL, abs=0)
            assert got.bic == pytest.approx(want.bic, rel=REL, abs=0)


def _seeding_samples() -> dict[str, np.ndarray]:
    # a constant sample draws the same centre k times, and two atoms or three
    # values give K above 2 or 3 duplicate centres too
    rng = np.random.default_rng(31)
    return {
        "normal": rng.normal(0.0, 1.0, 90),
        "constant": np.full(90, 3.5),
        "two atoms": np.tile([0.0, 1.0], 45),
        "three values": rng.choice([-1.0, 0.5, 2.0], 90),
    }


def test_initial_params_match_the_per_component_reference():
    for name, x in _seeding_samples().items():
        z, frame = _standardize(x)
        for k in range(1, 7):
            got = _initial_params(
                z[None], k, [np.random.default_rng(k)], frame[None, 2], np.empty((2, 1, k, z.size))
            )
            want = oracles.reference_initial_params(z, k, np.random.default_rng(k), frame[2])
            for attr, mine, ref in zip(("weights", "means", "stds"), got, want):
                np.testing.assert_allclose(
                    mine[0], ref, rtol=1e-12, atol=0, err_msg=f"{name}, K={k}, {attr}"
                )


def test_a_lane_seeded_alone_equals_it_seeded_among_24():
    rng = np.random.default_rng(12)
    samples = [_random_group(rng, 90) for _ in range(20)] + list(_seeding_samples().values())
    z, frames = (np.stack(parts) for parts in zip(*map(_standardize, samples)))
    seeds = [derive_seed(0, 1, h) for h in range(24)]
    for k in range(1, 7):
        rngs = [np.random.default_rng(s) for s in seeds]
        buffers = np.empty((2, len(seeds), k, z.shape[1]))
        together = _initial_params(z, k, rngs, frames[:, 2], buffers)
        for g, seed in enumerate(seeds):
            alone = _initial_params(
                z[g : g + 1],
                k,
                [np.random.default_rng(seed)],
                frames[g : g + 1, 2],
                np.empty((2, 1, k, z.shape[1])),
            )
            for mine, theirs in zip(alone, together):
                assert np.array_equal(mine[0], theirs[g]), (g, k)


def test_em_fit_matches_reference_single_lane():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(0.0, 1.0, 400), rng.normal(6.0, 2.0, 300)])
    for k in (1, 2, 3, 5):
        config = EmConfig(init_seed=k)
        _assert_same_fit(em_fit(x, k, config), oracles.reference_squarem_fit(x, k, config))
    two_atoms = np.concatenate([np.zeros(30), np.ones(30)])
    # the starving E-step runs no convergence test, so the default tol fails too
    for config in (EmConfig(tol=oracles.STARVE_TOL), EmConfig()):
        with pytest.raises(DegenerateFitError) as got:
            em_fit(two_atoms, 3, config)
        with pytest.raises(DegenerateFitError) as want:
            oracles.reference_squarem_fit(two_atoms, 3, config)
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
        select_models([groups[0], np.empty(0)], [2, 1], EmConfig(), [(4,), (5,)])


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
    keys = [(1, h) for h in range(24)]
    together = select_models(groups, [6] * 24, EmConfig(), keys)
    swept = set()
    for x, key, sel in zip(groups, keys, together):
        (alone,) = select_models([x], [6], EmConfig(), [key])
        _assert_identical_rows(sel.candidates, alone.candidates)
        assert sel.best is not alone.best and sel.best.model == alone.best.model
        swept.add(sel.candidates[-1].n_components)
    assert len(swept) > 2 and min(swept) < 6  # lanes left the bucket at different K


def test_a_sweep_is_seeded_from_its_config_and_keys():
    # two sweeps that differ only in init_seed fit K >= 2 from other starts
    x = np.random.default_rng(14).normal(0.0, 1.0, 200)
    (zero,) = select_models([x], [3], EmConfig())
    (five,) = select_models([x], [3], EmConfig(init_seed=5))
    for a, b in zip(zero.candidates[1:], five.candidates[1:]):
        assert a.report.ll_trace.tolist() != b.report.ll_trace.tolist(), a.n_components
    for k in (1, 2, 3):
        for config in (EmConfig(), EmConfig(init_seed=5)):
            (sel,) = select_models([x], [k], config)
            _assert_identical_rows(sel.candidates, fit_candidates(x, k, config))
    # a keyed group is seeded as a one-group sweep from the seed its key derives
    (keyed,) = select_models([x], [3], EmConfig(init_seed=5), [(7,)])
    _assert_identical_rows(keyed.candidates, fit_candidates(x, 3, EmConfig(init_seed=derive_seed(5, 7))))
    assert derive_seed(5) == 5


def test_em_work_on_an_hourly_shaped_bucket_is_pinned():
    # the hourly estimator's shape: 24 groups of 273 samples, K <= 6. Plain EM
    # spent 12,267 iterations on these 117 candidates; a change that brings
    # those passes back has to edit this number
    rng = np.random.default_rng(2718)
    groups = [_random_group(rng, 273) for _ in range(24)]
    keys = [(1, h) for h in range(24)]
    rows = [row for sel in select_models(groups, [6] * 24, EmConfig(), keys) for row in sel.candidates]
    assert len(rows) == 117 and all(row.report is not None for row in rows)
    assert sum(row.report.iterations for row in rows) == 3636


def test_gaussian_sweep_stops_after_three_non_improving_k():
    rng = np.random.default_rng(9)
    x = rng.normal(0.0, 1.0, 600)
    (sel,) = select_models([x], [8], EmConfig())
    assert [row.n_components for row in sel.candidates] == [1, 2, 3, 4]
    assert sel.best.model.n_components == 1
    assert sel.candidates[-1].n_components == 4
    _assert_same_rows(sel.candidates, oracles.reference_sweep(x, 8, EmConfig())[0])


# BIC per K (None: the fit fails) for lanes whose samples all equal the key
_SCRIPTED_BICS = {
    0.0: [10, 11, 12, 13, 5, 5, 5, 5],          # three misses after K=1: stop at 4
    1.0: [10, 11, 12, 9, 13, 14, 15, 1],        # better on the third K after K=1
    2.0: [None, None, None, 10, 11, 12, 13, 9],  # failures before the first fit
    3.0: [10, None, None, None, 5, 5, 5, 5],     # failures after it are misses
    4.0: [10, 10, 10, 10, 5, 5, 5, 5],           # a tie does not beat the best
}


def _scripted_lanes(z, n_components, seeds, frames, config):
    results = []
    for row, (centre, _, _) in zip(z, frames):
        value = _SCRIPTED_BICS[float(centre)][n_components - 1]
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
    sels = select_models([np.full(40, key) for key in keys], [8] * len(keys), EmConfig())
    swept = {key: [row.n_components for row in sel.candidates] for key, sel in zip(keys, sels)}
    assert swept == {
        0.0: [1, 2, 3, 4],
        1.0: [1, 2, 3, 4, 5, 6, 7],  # a patience of 2 stops at 3 and picks K=1
        2.0: [1, 2, 3, 4, 5, 6, 7],
        3.0: [1, 2, 3, 4],
        4.0: [1, 2, 3, 4],
    }
    assert [sel.best.model.n_components for sel in sels] == [1, 4, 4, 1, 1]
    assert [sel.candidates[-1].n_components for sel in sels] == [4, 7, 7, 4, 4]
    assert _failed_k(sels[2]) == [1, 2, 3]


def test_logsumexp_matches_scipy_with_tied_maxima():
    def logsumexp(a, axis):
        # the max-shifted log-sum-exp that the EM core builds from these helpers
        work = np.array(a, dtype=float)
        return np.squeeze(_exp_shifted(work, axis)[1], axis=axis)

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

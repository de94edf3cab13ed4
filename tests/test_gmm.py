"""Mixture parameters and sampling, and mixture fitting and selection."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gridstash.distributions import make_model, sample_with_rng
from gridstash.errors import DegenerateFitError, InsufficientSamplesError
from gridstash.gmm import (
    EmConfig,
    bic,
    em_fit,
    fit_candidates,
    n_free_params,
    select_model,
)
from oracles import STARVE_TOL


def test_model_components_sorted_and_weights_checked():
    m = make_model((0.2, 0.8), (5.0, 1.0), (1.0, 2.0))
    assert list(m.means) == [1.0, 5.0]
    assert list(m.weights) == [0.8, 0.2]
    assert list(m.stds) == [2.0, 1.0]


def test_model_mean_and_variance_closed_form():
    m = make_model((0.3, 0.7), (0.0, 10.0), (1.0, 2.0))
    assert m.mean() == pytest.approx(7.0)
    # var = sum w (sigma^2 + mu^2) - mean^2
    expected = 0.3 * (1.0 + 0.0) + 0.7 * (4.0 + 100.0) - 49.0
    assert m.variance() == pytest.approx(expected)


def test_model_validation():
    with pytest.raises(ValueError):
        make_model((1.0,), (0.0,), (0.0,))  # zero std
    with pytest.raises(ValueError):
        make_model((0.5, 0.6), (0.0, 1.0), (1.0, 1.0))  # weights sum != 1
    with pytest.raises(ValueError):
        make_model((), (), ())
    with pytest.raises(ValueError):
        make_model((0.5, 0.5), (0.0,), (1.0, 1.0))  # length mismatch


def test_free_parameter_count_and_bic_value():
    assert n_free_params(1) == 2
    assert n_free_params(3) == 8
    # k*ln(n) - 2*ll with ll=-100, n=500, k=2
    assert bic(-100.0, 500, 2) == pytest.approx(212.42921619684438, abs=1e-12)
    with pytest.raises(ValueError):
        bic(-1.0, 0, 2)


def test_single_component_fit_recovers_moments_exactly():
    rng = np.random.default_rng(7)
    x = rng.normal(3.0, 2.0, size=400)
    report = em_fit(x, 1)
    assert report.model.means[0] == pytest.approx(float(np.mean(x)), abs=1e-12)
    assert report.model.stds[0] == pytest.approx(float(np.std(x)), abs=1e-12)
    assert report.converged
    assert report.iterations == 1
    assert report.n_samples == 400


def test_em_mixture_mean_matches_sample_mean_exactly():
    # Every maximization pass makes the weighted mixture mean equal the
    # sample mean by construction; check that it survives to convergence.
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.normal(0, 1, 300), rng.normal(8, 1, 200)])
    report = em_fit(x, 2, EmConfig(init_seed=4))
    assert report.model.mean() == pytest.approx(float(np.mean(x)), abs=1e-9)


def test_em_log_likelihood_trace_is_monotone():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(-2, 0.7, 250), rng.normal(5, 1.5, 250)])
    for k in (1, 2, 3):
        report = em_fit(x, k, EmConfig(init_seed=k))
        trace = report.ll_trace
        assert len(trace) >= 1
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
        assert report.log_likelihood == trace[-1]


def test_em_separated_mixture_recovered():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(0.0, 1.0, 3000), rng.normal(20.0, 1.0, 1000)])
    report = em_fit(x, 2)
    assert report.converged
    assert report.model.means[0] == pytest.approx(0.0, abs=0.15)
    assert report.model.means[1] == pytest.approx(20.0, abs=0.15)
    assert report.model.weights[0] == pytest.approx(0.75, abs=0.03)


def test_em_bic_consistent_with_report_fields():
    rng = np.random.default_rng(17)
    x = rng.normal(1.0, 2.0, 321)
    report = em_fit(x, 2, EmConfig(init_seed=1))
    assert report.bic == pytest.approx(
        bic(report.log_likelihood, report.n_samples, n_free_params(2)), abs=1e-12
    )


def test_em_config_rejects_non_finite_or_non_positive_tol():
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            EmConfig(tol=tol)


def test_em_rejects_bad_inputs():
    with pytest.raises(InsufficientSamplesError):
        em_fit([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        em_fit([1.0, np.nan, 2.0], 1)
    with pytest.raises(ValueError):
        em_fit([1.0, 2.0], 0)


def test_em_starved_component_raises():
    # three components cannot all hold mass on two-atom data
    x = np.concatenate([np.zeros(30), np.ones(30)])
    with pytest.raises(DegenerateFitError, match="responsibility"):
        em_fit(x, 3, EmConfig(tol=STARVE_TOL))
    # the default tol fails the fit too, so no ~1e-14 weight is reported
    with pytest.raises(DegenerateFitError, match="responsibility"):
        em_fit(x, 3)


def test_em_constant_data_survives_via_sigma_floor():
    x = np.full(50, 2.5)
    report = em_fit(x, 1)
    assert report.converged
    assert report.model.means[0] == 2.5
    assert report.model.stds[0] == pytest.approx(1e-9)


def test_em_fit_keeps_the_spread_of_tiny_samples():
    # x.std() of these samples underflows to 0, but the fit runs on the
    # standardized samples, so the std is the data's, not an absolute floor
    rng = np.random.default_rng(31)
    x = rng.normal(5.0, 1.0, 300) * 1e-300
    report = em_fit(x, 1)
    assert report.converged
    assert report.model.stds[0] == pytest.approx(float(np.std(x * 1e300)) * 1e-300, rel=1e-9)
    assert report.model.means[0] == pytest.approx(float(np.mean(x * 1e300)) * 1e-300, rel=1e-9)


def test_em_fit_scales_exactly_with_a_power_of_two():
    rng = np.random.default_rng(12)
    x = np.concatenate([rng.normal(0.0, 1.0, 200), rng.normal(5.0, 1.5, 100)])
    config = EmConfig(init_seed=2)
    base = em_fit(x, 2, config)
    for j in (-40, 9, 300):
        scaled = em_fit(x * 2.0**j, 2, config)
        assert scaled.iterations == base.iterations
        assert np.array_equal(scaled.model.weights, base.model.weights)
        assert np.array_equal(scaled.model.means, base.model.means * 2.0**j)
        assert np.array_equal(scaled.model.stds, base.model.stds * 2.0**j)
        # the density of x * 2**j is that of x divided by 2**j at every sample
        shift = x.size * j * math.log(2.0)
        assert scaled.log_likelihood == pytest.approx(base.log_likelihood - shift, rel=1e-13)
        np.testing.assert_allclose(scaled.ll_trace, base.ll_trace - shift, rtol=1e-13, atol=0)


def test_fit_candidates_records_failures_per_row():
    x = np.concatenate([np.zeros(30), np.ones(30)])  # only two distinct values
    rows = fit_candidates(x, 3, EmConfig(tol=STARVE_TOL))
    assert [row.n_components for row in rows] == [1, 2, 3]
    assert rows[0].error is None
    assert rows[1].error is None
    assert rows[2].error is not None and rows[2].report is None


def test_fit_candidates_all_failures_reraise():
    with pytest.raises(InsufficientSamplesError):
        fit_candidates(np.empty(0), 3)


def test_select_model_prefers_single_gaussian_on_gaussian_data():
    rng = np.random.default_rng(9)
    x = rng.normal(0.0, 1.0, 600)
    best = select_model(x, 3)
    assert best.model.n_components == 1


def test_select_model_finds_two_well_separated_components():
    rng = np.random.default_rng(23)
    x = np.concatenate([rng.normal(0.0, 1.0, 800), rng.normal(30.0, 1.0, 800)])
    best = select_model(x, 4)
    assert best.model.n_components == 2


def test_sampling_moments_and_determinism():
    m = make_model((0.5, 0.5), (0.0, 10.0), (1.0, 1.0))
    x = sample_with_rng(m, 200_000, np.random.default_rng(21))
    assert float(np.mean(x)) == pytest.approx(m.mean(), abs=0.05)
    assert float(np.var(x)) == pytest.approx(m.variance(), rel=0.02)
    a = sample_with_rng(m, 100, np.random.default_rng(5))
    b = sample_with_rng(m, 100, np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert sample_with_rng(m, 0, np.random.default_rng(0)).size == 0
    with pytest.raises(ValueError):
        sample_with_rng(m, -1, np.random.default_rng(0))

"""Mixture model fitting, selection, queries, and serialization."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy import integrate, stats

from gridstash.errors import DegenerateFitError, InsufficientSamplesError
from gridstash.gmm import (
    EmConfig,
    bic,
    cdf,
    em_fit,
    fit_candidates,
    load_model,
    make_model,
    model_from_json_dict,
    model_to_json_dict,
    n_free_params,
    partial_expectation,
    pdf,
    sample_with_rng,
    save_model,
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
    # at the default tol the fit also converges on the starving pass, and the
    # starvation wins, so no ~1e-14 weight is reported
    with pytest.raises(DegenerateFitError, match="responsibility"):
        em_fit(x, 3)


def test_em_constant_data_survives_via_sigma_floor():
    x = np.full(50, 2.5)
    report = em_fit(x, 1)
    assert report.converged
    assert report.model.means[0] == 2.5
    assert report.model.stds[0] == pytest.approx(1e-9)


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


def test_pdf_cdf_scalar_and_array():
    m = make_model((0.5, 0.5), (0.0, 4.0), (1.0, 1.0))
    x = np.array([-1.0, 0.0, 2.0, 4.0])
    dens = pdf(m, x)
    probs = cdf(m, x)
    assert isinstance(dens, np.ndarray) and dens.shape == (4,)
    assert np.all(np.diff(probs) > 0)
    assert cdf(m, 2.0) == pytest.approx(0.5, abs=1e-12)
    expected = 0.5 * stats.norm.pdf(2.0) + 0.5 * stats.norm.pdf(2.0, 4.0)
    assert pdf(m, 2.0) == pytest.approx(expected, rel=1e-12)
    assert isinstance(pdf(m, 2.0), float)


def test_partial_expectation_matches_quadrature():
    m = make_model((0.35, 0.65), (1.0, 6.0), (0.8, 2.5))
    for a, b in ((-math.inf, 3.0), (0.0, 5.0), (2.0, math.inf)):
        lo = a if math.isfinite(a) else -40.0
        hi = b if math.isfinite(b) else 60.0
        ref, _ = integrate.quad(lambda t: t * pdf(m, t), lo, hi, limit=200)
        assert partial_expectation(m, a, b) == pytest.approx(ref, abs=1e-9)


def test_partial_expectation_full_line_is_mean():
    m = make_model((0.2, 0.8), (-3.0, 7.0), (1.0, 1.0))
    assert partial_expectation(m, -math.inf, math.inf) == pytest.approx(m.mean(), abs=1e-12)


def test_partial_expectation_rejects_bad_interval():
    m = make_model((1.0,), (0.0,), (1.0,))
    with pytest.raises(ValueError):
        partial_expectation(m, 2.0, 1.0)
    with pytest.raises(ValueError):
        partial_expectation(m, math.nan, 1.0)
    assert partial_expectation(m, 1.0, 1.0) == 0.0


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


def test_json_round_trip(tmp_path):
    m = make_model((0.25, 0.75), (1.5, -2.5), (0.3, 4.0))
    d = model_to_json_dict(m)
    assert model_from_json_dict(d) == m
    assert model_from_json_dict(json.loads(json.dumps(d))) == m
    path = tmp_path / "model.json"
    save_model(m, path)
    assert load_model(path) == m
    with pytest.raises(ValueError):
        model_from_json_dict({"wrong": []})

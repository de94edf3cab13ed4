"""Closed-form distribution functionals checked against each other and quadrature,
and the mixture law's JSON form."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy import integrate, stats

import oracles
from gridstash.distributions import (
    DiscreteDistribution,
    GmmDistribution,
    UniformDistribution,
    load_model,
    make_model,
    model_from_json_dict,
    model_to_json_dict,
    save_model,
)


def test_uniform_basics():
    u = UniformDistribution(2.0, 6.0)
    assert u.mean() == 4.0
    assert u.cdf(2.0) == 0.0
    assert u.cdf(6.0) == 1.0
    assert u.cdf(3.0) == pytest.approx(0.25)
    assert u.pdf(4.0) == pytest.approx(0.25)
    assert u.pdf(1.0) == 0.0
    with pytest.raises(ValueError):
        UniformDistribution(3.0, 3.0)


def test_uniform_expected_min_closed_form():
    # E[min(X, t)] = t - t^2/2 on U(0,1)
    for t in (0.0, 0.25, 0.5, 1.0):
        assert UniformDistribution(0.0, 1.0).expected_min(t) == pytest.approx(t - t * t / 2.0, abs=1e-15)
    u = UniformDistribution(2.0, 6.0)
    # the midpoint rule over many equal cells: exact on each linear piece of min(x, theta)
    x = 2.0 + 4.0 * (np.arange(400_000) + 0.5) / 400_000
    for theta in (-1.0, 2.0, 2.5, 4.0, 5.999, 6.0, 9.0):
        assert u.expected_min(theta) == pytest.approx(float(np.minimum(x, theta).mean()), abs=1e-9)
    assert u.expected_min(1.5) == 1.5
    assert u.expected_min(math.inf) == u.mean()
    assert u.expected_min(-math.inf) == -math.inf


def test_uniform_expected_min_of_two_closed_form_vs_quadrature():
    u = UniformDistribution(0.0, 1.0)
    assert u.expected_min_of_two() == pytest.approx(1.0 / 3.0, abs=1e-12)
    v = UniformDistribution(5.0, 11.0)
    assert v.expected_min_of_two() == pytest.approx(7.0, abs=1e-12)
    # closed form agrees with quadrature over the support
    quadrature = oracles.reference_expected_min_of_two(v, 5.0, 11.0)
    assert v.expected_min_of_two() == pytest.approx(quadrature, abs=1e-9)


def test_uniform_expected_min_monte_carlo():
    u = UniformDistribution(1.0, 3.0)
    rng = np.random.default_rng(0)
    a = u.sample(200_000, rng)
    b = u.sample(200_000, rng)
    assert float(np.minimum(a, b).mean()) == pytest.approx(u.expected_min_of_two(), abs=0.01)


def test_discrete_sorted_and_validated():
    d = DiscreteDistribution([3.0, 1.0, 2.0], [0.2, 0.5, 0.3])
    assert list(d.values) == [1.0, 2.0, 3.0]
    assert list(d.probs) == [0.5, 0.3, 0.2]
    with pytest.raises(ValueError):
        DiscreteDistribution([1.0, 1.0], [0.5, 0.5])  # duplicate atoms
    with pytest.raises(ValueError):
        DiscreteDistribution([1.0], [0.9])  # mass != 1
    with pytest.raises(ValueError):
        DiscreteDistribution([], [])


def test_discrete_cdf_right_continuous_and_prob_below_strict():
    d = DiscreteDistribution([0.0, 1.0, 3.0], [0.3, 0.4, 0.3])
    assert d.cdf(0.0) == pytest.approx(0.3)
    assert d.cdf(0.5) == pytest.approx(0.3)
    assert d.cdf(1.0) == pytest.approx(0.7)
    assert d.cdf(3.0) == 1.0
    assert d.cdf(-1.0) == 0.0
    assert d.prob_below(0.0) == 0.0
    assert d.prob_below(1.0) == pytest.approx(0.3)
    assert d.prob_below(3.0) == pytest.approx(0.7)
    assert d.prob_below(4.0) == 1.0


def test_discrete_expected_min_closed_form():
    d = DiscreteDistribution([0.0, 1.0, 3.0], [0.3, 0.4, 0.3])
    for theta in (-2.0, 0.0, 0.5, 1.0, 1.3, 2.0, 3.0, 7.0):
        brute = math.fsum(p * min(v, theta) for v, p in zip(d.values.tolist(), d.probs.tolist()))
        assert d.expected_min(theta) == pytest.approx(brute, abs=1e-15)
    # 0.3 * 0 + 0.4 * 1 + 0.3 * 1.3
    assert d.expected_min(1.3) == pytest.approx(0.79, abs=1e-15)
    assert d.expected_min(math.inf) == d.mean()
    assert d.expected_min(-math.inf) == -math.inf


def test_discrete_expected_min_of_two_vs_enumeration():
    d = DiscreteDistribution([0.0, 1.0, 3.0], [0.3, 0.4, 0.3])
    brute = sum(
        pi * pj * min(vi, vj)
        for vi, pi in zip(d.values, d.probs)
        for vj, pj in zip(d.values, d.probs)
    )
    assert d.expected_min_of_two() == pytest.approx(brute, abs=1e-12)


def test_discrete_expected_min_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(25):
        k = int(rng.integers(1, 6))
        vals = np.sort(rng.uniform(-2.0, 9.0, size=k))
        vals += np.arange(k) * 1e-6  # force distinct
        probs = rng.dirichlet(np.ones(k))
        d = DiscreteDistribution(vals, probs)
        brute = sum(
            pi * pj * min(vi, vj)
            for vi, pi in zip(vals, probs)
            for vj, pj in zip(vals, probs)
        )
        assert d.expected_min_of_two() == pytest.approx(brute, abs=1e-10)


def test_discrete_min_atom_mass_in():
    d = DiscreteDistribution([0.0, 1.0, 3.0], [0.3, 0.4, 0.3])
    assert d.min_atom_mass_in(0.0, 3.0) == pytest.approx(0.3)
    assert d.min_atom_mass_in(0.5, 2.0) == pytest.approx(0.4)
    assert d.min_atom_mass_in(1.5, 2.5) == 0.0


def test_discrete_sampling_matches_probs():
    d = DiscreteDistribution([0.0, 1.0, 3.0], [0.3, 0.4, 0.3])
    x = d.sample(100_000, np.random.default_rng(1))
    assert float(np.mean(x == 1.0)) == pytest.approx(0.4, abs=0.01)
    assert float(np.mean(x)) == pytest.approx(d.mean(), abs=0.02)


def test_point_mass():
    p = DiscreteDistribution([7.5], [1.0])
    assert p.mean() == 7.5
    assert p.cdf(7.5) == 1.0
    assert p.prob_below(7.5) == 0.0
    assert p.expected_min_of_two() == 7.5
    assert np.all(p.sample(10, np.random.default_rng(0)) == 7.5)


def test_gmm_distribution_delegates_consistently():
    model = make_model((0.4, 0.6), (10.0, 30.0), (2.0, 5.0))
    g = GmmDistribution(model)
    assert g.mean() == pytest.approx(model.mean())
    assert g.cdf(20.0) == pytest.approx(
        0.4 * _norm_cdf(20.0, 10.0, 2.0) + 0.6 * _norm_cdf(20.0, 30.0, 5.0), abs=1e-12
    )
    assert g.expected_min(math.inf) == pytest.approx(g.mean(), abs=1e-9)
    assert g.expected_min(20.0) == oracles.reference_expected_min(model, 20.0)


def test_gmm_expected_min_of_two_vs_monte_carlo():
    model = make_model((0.5, 0.5), (20.0, 60.0), (4.0, 6.0))
    g = GmmDistribution(model)
    rng = np.random.default_rng(3)
    a = g.sample(400_000, rng)
    b = g.sample(400_000, rng)
    mc = float(np.minimum(a, b).mean())
    assert g.expected_min_of_two() == pytest.approx(mc, abs=0.05)


def test_expected_min_never_exceeds_mean():
    dists = [
        UniformDistribution(0.0, 1.0),
        DiscreteDistribution([0.0, 1.0, 3.0], [0.3, 0.4, 0.3]),
        GmmDistribution(make_model((1.0,), (5.0,), (1.0,))),
        DiscreteDistribution([2.0], [1.0]),
    ]
    for d in dists:
        assert d.expected_min_of_two() <= d.mean() + 1e-12


def test_pdf_cdf_scalar_and_array():
    g = GmmDistribution(make_model((0.5, 0.5), (0.0, 4.0), (1.0, 1.0)))
    x = np.array([-1.0, 0.0, 2.0, 4.0])
    dens = g.pdf(x)
    probs = g.cdf(x)
    assert isinstance(dens, np.ndarray) and dens.shape == (4,)
    assert np.all(np.diff(probs) > 0)
    assert g.cdf(2.0) == pytest.approx(0.5, abs=1e-12)
    expected = 0.5 * stats.norm.pdf(2.0) + 0.5 * stats.norm.pdf(2.0, 4.0)
    assert g.pdf(2.0) == pytest.approx(expected, rel=1e-12)
    assert isinstance(g.pdf(2.0), float)


def test_expected_min_matches_quadrature():
    g = GmmDistribution(make_model((0.35, 0.65), (1.0, 6.0), (0.8, 2.5)))
    for theta in (-3.0, 0.0, 3.0, 5.0, 12.0):
        ref, _ = integrate.quad(lambda t: min(t, theta) * g.pdf(t), -40.0, 60.0, points=[theta], limit=200)
        assert g.expected_min(theta) == pytest.approx(ref, abs=1e-9)


def test_expected_min_at_infinite_theta():
    g = GmmDistribution(make_model((0.2, 0.8), (-3.0, 7.0), (1.0, 1.0)))
    assert g.expected_min(math.inf) == pytest.approx(g.mean(), abs=1e-12)
    assert g.expected_min(-math.inf) == -math.inf


def test_expected_min_where_z_overflows_is_exact_and_silent():
    # z = theta / 1e-300 overflows; RuntimeWarnings are errors under pytest here
    g = GmmDistribution(make_model((0.5, 0.5), (0.0, 1.0), (1e-300, 1.0)))
    assert g.expected_min(1e10) == 0.5
    assert g.expected_min(-1e10) == -1e10


def test_expected_min_never_exceeds_theta_or_mean():
    g = GmmDistribution(make_model((0.3, 0.7), (2.0, 9.0), (0.5, 3.0)))
    thetas = np.linspace(-10.0, 30.0, 81)
    values = np.array([g.expected_min(t) for t in thetas.tolist()])
    assert np.all(values <= np.minimum(thetas, g.mean()) + 1e-12)
    # nondecreasing with slope at most one: d/dtheta E[min(X, theta)] = P(X > theta)
    steps = np.diff(values)
    assert np.all(steps >= -1e-12) and np.all(steps <= np.diff(thetas) + 1e-12)


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


def _norm_cdf(x: float, mu: float, sigma: float) -> float:
    return 0.5 * (1.0 + math.erf((x - mu) / (sigma * math.sqrt(2.0))))

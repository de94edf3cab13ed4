"""Closed-form distribution functionals checked against each other and quadrature."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from gridstash.distributions import (
    DiscreteDistribution,
    GmmDistribution,
    UniformDistribution,
)
from gridstash.gmm import expected_min, make_model


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
    assert g.expected_min(20.0) == expected_min(model, 20.0)


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


def _norm_cdf(x: float, mu: float, sigma: float) -> float:
    return 0.5 * (1.0 + math.erf((x - mu) / (sigma * math.sqrt(2.0))))

"""The scalar normal CDF and the closed forms built on it.

``distributions._ndtr`` is the standard library's ``math.erfc``; scipy's ``ndtr``
is the reference it must stay within 2 ulp at 1.0 of, in absolute terms, and
within a few ulp in relative terms away from the tails.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import ndtr

from gridstash import distributions
from gridstash.distributions import GmmDistribution, make_model

from oracles import reference_cdf, reference_expected_min, reference_expected_min_of_two

# scipy's branch edges: |a| = 1: erf vs erfc; sqrt(2): erfc via 1 - erf vs P/Q;
# 8 sqrt(2): P/Q vs R/S; about 37.7: exp(-a^2 / 2) would pass MAXLOG, and
# scipy's tail is exactly 0 beyond it
_EDGES = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.5, 37.7, 38.0, 38.5)
# 2 ulp at 1.0; the largest gap measured on these points is 1 ulp
_ATOL = 4.44e-16
# relative gap for |a| < 8, where Phi(a) >= 6e-16; the largest measured is 2.3e-15
_RTOL = 1e-14


def _assert_close(points) -> None:
    points = np.asarray(points, dtype=float)
    mine = np.array([distributions._ndtr(v) for v in points.tolist()])
    theirs = ndtr(points)
    np.testing.assert_allclose(mine, theirs, rtol=0, atol=_ATOL)
    inner = np.abs(points) < 8.0
    np.testing.assert_allclose(mine[inner], theirs[inner], rtol=_RTOL, atol=0)


def test_ndtr_agrees_with_scipy_on_a_seeded_dense_grid():
    rng = np.random.default_rng(20)
    _assert_close(
        np.concatenate(
            (
                np.linspace(-40.0, 40.0, 40_001),
                rng.normal(0.0, 3.0, 20_000),
                rng.uniform(-40.0, 40.0, 20_000),
            )
        )
    )


def test_ndtr_agrees_with_scipy_on_both_sides_of_every_branch_edge():
    points = []
    for edge in _EDGES:
        for v in (edge, -edge):
            below = above = v
            for _ in range(4):
                below = np.nextafter(below, -np.inf)
                above = np.nextafter(above, np.inf)
                points += [below, above]
            points.append(v)
    _assert_close(points)


def test_ndtr_agrees_with_scipy_in_the_underflow_tail():
    points = np.concatenate((np.linspace(-38.5, -37.0, 3001), -np.logspace(1.5, 300, 200)))
    _assert_close(points)
    # scipy cuts the tail to exactly 0 near -37.7; erfc goes on in subnormals
    assert 0.0 <= distributions._ndtr(-38.5) < 1e-300 and distributions._ndtr(38.5) == 1.0


def test_ndtr_special_values():
    _assert_close([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324])
    assert distributions._ndtr(math.inf) == 1.0 and distributions._ndtr(-math.inf) == 0.0
    assert distributions._ndtr(0.0) == 0.5 and distributions._ndtr(-0.0) == 0.5
    assert math.isnan(distributions._ndtr(math.nan))


def _seeded_models(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 6))
        weights = rng.dirichlet(np.ones(k))
        means = rng.uniform(-20.0, 80.0, k)
        stds = rng.uniform(0.2, 15.0, k)
        yield make_model(weights, means, stds)


def test_cdf_and_expected_min_equal_the_scipy_expressions():
    rng = np.random.default_rng(21)
    for model in _seeded_models(40, seed=22):
        dist = GmmDistribution(model)
        p = rng.uniform(-60.0, 140.0, 50)
        np.testing.assert_allclose(dist.cdf(p), reference_cdf(model, p), rtol=0, atol=_ATOL)
        for v in p[:10].tolist():
            assert abs(dist.cdf(v) - reference_cdf(model, v)) <= _ATOL
        for v in (-math.inf, math.inf):
            assert dist.cdf(v) == reference_cdf(model, v)
        # theta far outside every component puts every z in an ndtr tail
        lowest = float(np.min(model.means - 40.0 * model.stds))
        highest = float(np.max(model.means + 40.0 * model.stds))
        for theta in (*p[10:30].tolist(), lowest, lowest - 1e6, highest, highest + 1e6):
            ref = reference_expected_min(model, theta)
            # the largest gap measured is 8.9e-16 of max(1, |ref|)
            assert abs(dist.expected_min(theta) - ref) <= 2e-15 * max(1.0, abs(ref))
        assert dist.expected_min(math.inf) == reference_expected_min(model, math.inf)
        assert dist.expected_min(-math.inf) == -math.inf == reference_expected_min(model, -math.inf)


def test_expected_min_of_two_closed_form_matches_quadrature():
    for model in _seeded_models(30, seed=23):
        dist = GmmDistribution(model)
        closed = dist.expected_min_of_two()
        lo = float(np.min(model.means - 12.0 * model.stds))
        hi = float(np.max(model.means + 12.0 * model.stds))
        assert closed == pytest.approx(reference_expected_min_of_two(dist, lo, hi), rel=0, abs=1e-8)
        assert closed <= dist.mean()

"""Price distribution interface used by the threshold policy and the bounds.

Every distribution exposes the handful of functionals the policy recursion
and the regret machinery need: mean, cdf/pdf, the expected minimum with a
fixed price, the expected minimum of two independent draws, and seeded
sampling. Mixtures delegate to the fitting module; uniform and discrete laws
and mixtures each carry closed forms, so nothing here integrates numerically.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from . import gmm


class PriceDistribution(abc.ABC):
    """A one-dimensional price law."""

    @abc.abstractmethod
    def mean(self) -> float: ...

    @abc.abstractmethod
    def pdf(self, p): ...

    @abc.abstractmethod
    def cdf(self, p):
        """P(X <= p)."""

    @abc.abstractmethod
    def expected_min(self, theta: float) -> float:
        """E[min(X, theta)]: the expected cost of one more slot when passing
        it up is worth theta; theta may be infinite."""

    @abc.abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray: ...

    @abc.abstractmethod
    def expected_min_of_two(self) -> float:
        """E[min(X1, X2)] for two independent copies."""

    def prob_below(self, p: float) -> float:
        """P(X < p); equals the cdf except at atoms."""
        return float(self.cdf(p))


@dataclass(frozen=True)
class UniformDistribution(PriceDistribution):
    low: float
    high: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError("endpoints must be finite")
        if self.high <= self.low:
            raise ValueError(f"need low < high, got [{self.low}, {self.high}]")

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def pdf(self, p):
        x = np.asarray(p, dtype=float)
        dens = np.where((x >= self.low) & (x <= self.high), 1.0 / (self.high - self.low), 0.0)
        return float(dens) if x.ndim == 0 else dens

    def cdf(self, p):
        x = np.asarray(p, dtype=float)
        vals = np.clip((x - self.low) / (self.high - self.low), 0.0, 1.0)
        return float(vals) if x.ndim == 0 else vals

    def expected_min(self, theta: float) -> float:
        if theta <= self.low:
            return theta
        if theta >= self.high:
            return self.mean()
        # (theta^2 - low^2) / 2 below theta, theta (high - theta) above it
        low, high = self.low, self.high
        return (theta * theta - low * low + 2.0 * theta * (high - theta)) / (2.0 * (high - low))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def expected_min_of_two(self) -> float:
        return self.low + (self.high - self.low) / 3.0


@dataclass(frozen=True, eq=False)
class DiscreteDistribution(PriceDistribution):
    """Finite support with exact closed forms; atoms are kept sorted."""

    values: np.ndarray
    probs: np.ndarray

    def __init__(self, values, probs) -> None:
        v = np.asarray(values, dtype=float).ravel()
        q = np.asarray(probs, dtype=float).ravel()
        if v.size == 0:
            raise ValueError("need at least one atom")
        if v.size != q.size:
            raise ValueError(f"{v.size} values vs {q.size} probs")
        if not np.all(np.isfinite(v)):
            raise ValueError("atom values must be finite")
        if np.any(q < -1e-12):
            raise ValueError("probabilities must be nonnegative")
        total = float(q.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        order = np.argsort(v, kind="stable")
        v = v[order]
        q = np.maximum(q[order], 0.0)
        if np.any(np.diff(v) == 0):
            raise ValueError("atom values must be distinct")
        v.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", q)
        object.__setattr__(self, "_cum", np.concatenate(([0.0], np.cumsum(q))))

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def pdf(self, p):
        # Lebesgue density of an atomic law is zero off the atoms; callers
        # that need per-atom mass use .probs directly.
        x = np.asarray(p, dtype=float)
        zeros = np.zeros_like(x)
        return float(zeros) if x.ndim == 0 else zeros

    def cdf(self, p):
        x = np.asarray(p, dtype=float)
        idx = np.searchsorted(self.values, x, side="right")
        vals = self._cum[idx]
        return float(vals) if x.ndim == 0 else vals

    def prob_below(self, p: float) -> float:
        idx = int(np.searchsorted(self.values, p, side="left"))
        return float(self._cum[idx])

    def expected_min(self, theta: float) -> float:
        return float(np.dot(np.minimum(self.values, theta), self.probs))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self.values, size=n, p=self.probs)

    def expected_min_of_two(self) -> float:
        # P(min = v_k) = P(X >= v_k)^2 - P(X >= v_{k+1})^2
        survival = 1.0 - self._cum[:-1]
        shifted = np.concatenate((survival[1:], [0.0]))
        return float(np.dot(self.values, survival**2 - shifted**2))

    def min_atom_mass_in(self, lo: float, hi: float) -> float:
        """Smallest atom probability inside [lo, hi]; 0.0 when no atom lies there."""
        mask = (self.values >= lo) & (self.values <= hi)
        if not np.any(mask):
            return 0.0
        return float(self.probs[mask].min())


@dataclass(frozen=True)
class GmmDistribution(PriceDistribution):
    """A fitted Gaussian mixture viewed as a price law."""

    model: gmm.GmmModel

    def mean(self) -> float:
        return self.model.mean()

    def pdf(self, p):
        return gmm.pdf(self.model, p)

    def cdf(self, p):
        return gmm.cdf(self.model, p)

    def expected_min(self, theta: float) -> float:
        return gmm.expected_min(self.model, theta)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return gmm.sample_with_rng(self.model, n, rng)

    def expected_min_of_two(self) -> float:
        return gmm.expected_min_of_two(self.model)

"""Price laws: the questions the threshold policy and the bounds ask of a law.

Every law answers mean, cdf/pdf, the expected minimum with a fixed price, the
expected minimum of two independent draws, and seeded sampling, each in
closed form, so nothing here integrates numerically. The Gaussian-mixture law
lives here whole: its parameters (``GmmModel``), closed forms, sampling and
JSON form. Its normal CDF is the standard library's ``math.erfc``.
"""

from __future__ import annotations

import abc
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


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


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)


def _ndtr(a: float) -> float:
    """Standard normal CDF at a float."""
    return 0.5 * math.erfc(-a * _SQRT_HALF)


def _ndtr_each(z: np.ndarray) -> np.ndarray:
    """_ndtr of every element; meant for the few (..., K) arrays of one query."""
    return np.array([_ndtr(v) for v in z.ravel().tolist()]).reshape(z.shape)


@dataclass(frozen=True, eq=False)
class GmmModel:
    """An immutable mixture: three read-only parameter arrays, sorted by mean,
    then std, then weight."""

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self) -> None:
        w, m, s = (np.asarray(a, dtype=float) for a in (self.weights, self.means, self.stds))
        if w.ndim != 1 or not w.shape == m.shape == s.shape:
            raise ValueError("weights, means, stds must have equal length")
        if w.size == 0:
            raise ValueError("mixture needs at least one component")
        if not (np.isfinite(w).all() and np.isfinite(m).all() and np.isfinite(s).all()):
            raise ValueError("component parameters must be finite")
        if not np.all((w >= -1e-12) & (w <= 1.0 + 1e-12)):
            raise ValueError(f"component weights {w.tolist()} outside [0, 1]")
        if not np.all(s > 0):
            raise ValueError(f"component stds {s.tolist()} must be positive")
        total = math.fsum(w)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component weights sum to {total!r}, expected 1")
        order = np.lexsort((w, s, m))
        for name, values in (("weights", w), ("means", m), ("stds", s)):
            values = values[order]
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @property
    def n_components(self) -> int:
        return self.weights.size

    def mean(self) -> float:
        return float(np.dot(self.weights, self.means))

    def variance(self) -> float:
        second_moment = float(np.dot(self.weights, self.stds**2 + self.means**2))
        return second_moment - self.mean() ** 2

    def _key(self) -> tuple:
        return tuple(tuple(a.tolist()) for a in (self.weights, self.means, self.stds))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GmmModel):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


# the name mixtures are built by across the package, its tests and criteria
make_model = GmmModel


@dataclass(frozen=True)
class GmmDistribution(PriceDistribution):
    """A Gaussian mixture viewed as a price law."""

    model: GmmModel

    def mean(self) -> float:
        return self.model.mean()

    def pdf(self, p):
        m = self.model
        x = np.asarray(p, dtype=float)
        z = (x[..., None] - m.means) / m.stds
        dens = np.sum(m.weights / m.stds * _INV_SQRT_2PI * np.exp(-0.5 * z * z), axis=-1)
        return float(dens) if x.ndim == 0 else dens

    def cdf(self, p):
        x = np.asarray(p, dtype=float)
        z = (x[..., None] - self.model.means) / self.model.stds
        vals = np.sum(self.model.weights * _ndtr_each(z), axis=-1)
        return float(vals) if x.ndim == 0 else vals

    def expected_min(self, theta: float) -> float:
        """Per component, mu Phi(z) - sigma phi(z) below theta plus theta times
        the mass above it, with z = (theta - mu) / sigma; no mass lies above
        theta = +inf, and theta = -inf gives -inf."""
        m = self.model
        with np.errstate(over="ignore"):
            # z or z * z overflows to inf for theta many stds away, or infinite;
            # exp(-0.5 * inf) is then 0, the right density
            z = (theta - m.means) / m.stds
            phi = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
        mass = _ndtr_each(z)
        below = float(np.sum(m.weights * (m.means * mass - m.stds * phi)))
        above = theta * (1.0 - float(np.sum(m.weights * mass))) if theta != math.inf else 0.0
        return below + above

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return sample_with_rng(self.model, n, rng)

    def expected_min_of_two(self) -> float:
        """min(X, Y) = (X + Y - |X - Y|) / 2, and for components i and j,
        X_i - Y_j is normal with mean m = mu_i - mu_j and std s = hypot(s_i, s_j),
        so its folded mean is E|X_i - Y_j| = 2 s phi(m / s) + m (1 - 2 Phi(-m / s))."""
        model = self.model
        m = model.means[:, None] - model.means[None, :]
        s = np.hypot(model.stds[:, None], model.stds[None, :])
        z = m / s
        folded = 2.0 * s * _INV_SQRT_2PI * np.exp(-0.5 * z * z) + m * (1.0 - 2.0 * _ndtr_each(-z))
        return model.mean() - 0.5 * float(model.weights @ folded @ model.weights)


def sample_with_rng(model: GmmModel, n: int, rng: np.random.Generator) -> np.ndarray:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return np.empty(0)
    picks = rng.choice(model.n_components, size=n, p=model.weights)
    return rng.normal(model.means[picks], model.stds[picks])


def model_to_json_dict(model: GmmModel) -> dict:
    return {
        "components": [
            {"weight": w, "mean": m, "std": s}
            for w, m, s in zip(model.weights.tolist(), model.means.tolist(), model.stds.tolist())
        ]
    }


def model_from_json_dict(doc: dict) -> GmmModel:
    try:
        comps = doc["components"]
        return GmmModel(*([float(c[key]) for c in comps] for key in ("weight", "mean", "std")))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed mixture document: {exc}") from None


def save_model(model: GmmModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_json_dict(model), indent=2) + "\n", encoding="utf-8")


def load_model(path) -> GmmModel:
    try:
        return model_from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:  # bad JSON, bad UTF-8, or a malformed document
        raise ValueError(f"{path}: {exc}") from None

"""One-dimensional Gaussian mixture fitting via EM with BIC model selection.

The fitting loop is written out by hand (log-domain E-step with a
max-shifted numpy log-sum-exp, closed-form M-step, k-means++-style seeding)
so its convergence accounting and failure modes are fully under our control.
The normal CDF is a scalar port of cephes ``ndtr`` (the routine behind
``scipy.special.ndtr``, bit for bit), so fitting and evaluating a mixture
loads no scipy module. One EM core fits many equal-size sample
groups ("lanes") with the same component count at once: ``em_fit`` is its
one-lane case, and ``select_models`` is the one BIC sweep over the component
count, for one sample group or many.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DegenerateFitError, GridstashError, InsufficientSamplesError

_LOG_2PI = math.log(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)

# A component whose total responsibility falls below this is starved.
_RESP_EPS = 1e-12

# A group's BIC sweep stops once this many consecutive K fail to beat its
# best BIC so far.
_BIC_PATIENCE = 3

# Each component's std is floored at this fraction of its sample's std, or at
# an absolute 1e-9 when the sample is constant.
_SIGMA_FLOOR = 1e-6

# cephes ndtr.c: erf on |x| < 1 is x T(x^2) / U(x^2); erfc is exp(-x^2) P(x) / Q(x)
# below 8 and exp(-x^2) R(x) / S(x) above. Q, S and U carry the leading 1 that
# cephes leaves implicit (its p1evl); 1 * x is exact, so the sums are the same.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # log(2**1024): exp(-x^2) underflows past it


def _polevl(x: float, coef) -> float:
    """Horner evaluation, highest power first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    # |x| < 1 at every call
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x: float) -> float:
    # x >= 1/sqrt(2) at every call, so cephes' branches for a < 0 never run
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    # math.exp is the C library's exp, as in cephes; np.exp rounds differently
    z = math.exp(z)
    if x < 8.0:
        return (z * _polevl(x, _ERFC_P)) / _polevl(x, _ERFC_Q)
    return (z * _polevl(x, _ERFC_R)) / _polevl(x, _ERFC_S)


def _ndtr(a: float) -> float:
    """Standard normal CDF at a float; equals scipy.special.ndtr bit for bit."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT_HALF
    z = abs(x)
    if z < _SQRT_HALF:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


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


def make_model(weights, means, stds) -> GmmModel:
    """Build a model from parallel parameter sequences."""
    return GmmModel(weights, means, stds)


@dataclass(frozen=True)
class EmConfig:
    """Knobs for one EM run.

    A fit converges once a pass changes the total log-likelihood by less than
    tol per sample (tol * n), the mean-gain rule of scikit-learn's
    GaussianMixture; max_iter caps the passes.
    """

    tol: float = 1e-6
    max_iter: int = 500
    init_seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True, eq=False)
class FitReport:
    """Outcome of one EM fit; ll_trace is a read-only array of the
    log-likelihood after each pass."""

    model: GmmModel
    log_likelihood: float
    bic: float
    iterations: int
    converged: bool
    n_samples: int
    ll_trace: np.ndarray


def bic(log_likelihood: float, n_samples: int, n_params: int) -> float:
    """Bayesian information criterion: n_params*ln(n_samples) - 2*log_likelihood."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if n_params < 0:
        raise ValueError("n_params must be >= 0")
    return n_params * math.log(n_samples) - 2.0 * log_likelihood


def n_free_params(n_components: int) -> int:
    """Free parameters of a K-component univariate mixture: K-1 + K + K."""
    return 3 * n_components - 1


def _log_densities(x: np.ndarray, weights, means, stds, out: np.ndarray) -> np.ndarray:
    """Fill out (lanes, K, n) with log(w_k * N(x_i | mu_k, s_k)) for each lane's samples.

    x is (lanes, n); the parameters are (lanes, K).
    """
    np.subtract(x[:, None, :], means[:, :, None], out=out)
    out *= (_SQRT_HALF / stds)[:, :, None]
    np.square(out, out=out)
    log_scale = np.log(np.maximum(weights, 1e-300)) - np.log(stds) - 0.5 * _LOG_2PI
    return np.subtract(log_scale[:, :, None], out, out=out)


def _exp_shifted(a: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite a with exp(a - max) along axis; return (sums, maxima), axis kept.

    A non-finite maximum shifts by 0 instead, as scipy.special's log-sum-exp does, so a
    slice that is all -inf sums to 0 and logs to -inf rather than NaN.
    """
    peak = a.max(axis=axis, keepdims=True)
    finite = np.isfinite(peak)
    if not finite.all():
        peak[~finite] = 0.0
    a -= peak
    np.exp(a, out=a)
    return a.sum(axis=axis, keepdims=True), peak


def _log_of_sums(total: np.ndarray, peak: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(total) + peak


def _kmeans_pp_centers(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.size
    centers = np.empty(k)
    centers[0] = x[rng.integers(n)]
    if k == 1:
        return centers
    d2 = (x - centers[0]) ** 2
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = x[idx]
        d2 = np.minimum(d2, (x - centers[j]) ** 2)
    return centers


def _initial_params(x: np.ndarray, k: int, rng: np.random.Generator, floor: float):
    centers = _kmeans_pp_centers(x, k, rng)
    labels = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
    pop_std = float(x.std())
    weights = np.empty(k)
    means = np.empty(k)
    stds = np.empty(k)
    for j in range(k):
        members = x[labels == j]
        if members.size == 0:
            # duplicate centers (fewer distinct values than k); keep the
            # component alive with a token weight so EM can reassign mass
            weights[j] = 1.0
            means[j] = centers[j]
            stds[j] = max(pop_std, floor)
        else:
            weights[j] = float(members.size)
            means[j] = float(members.mean())
            stds[j] = max(float(members.std()), floor)
    weights /= weights.sum()
    return weights, means, stds


def _finite_samples(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    # EM sums n squares of differences between samples, each up to 2 max|x|;
    # compared through a square root, so the check itself cannot overflow
    largest = float(np.abs(x).max(initial=0.0))
    if 2.0 * largest > math.sqrt(np.finfo(float).max / max(x.size, 1)):
        raise ValueError(
            f"sample magnitude {largest:g} is too large: squares of {x.size} samples overflow"
        )
    return x


def _em_lanes(x: np.ndarray, n_components: int, configs) -> list[FitReport | GridstashError]:
    """Run em_fit on every row of x (lanes, n) at once, one config per lane.

    Each lane keeps its own seed, sigma floor, trace, iteration count and
    failure; a lane that converges, reaches its max_iter, degenerates or
    starves leaves the active set while the others carry on. Returns, per
    lane, its report or the error em_fit would raise: InsufficientSamplesError
    for every lane when n < n_components, else DegenerateFitError.
    """
    lanes, n = x.shape
    k = n_components
    if n < k:
        return [InsufficientSamplesError(f"{n} samples cannot support {k} components")] * lanes
    weights, means, stds = (np.empty((lanes, k)) for _ in range(3))
    floors = np.empty(lanes)
    for g, config in enumerate(configs):
        floor = _SIGMA_FLOOR * float(x[g].std())
        floors[g] = floor if floor > 0 else 1e-9
        rng = np.random.default_rng(config.init_seed)
        weights[g], means[g], stds[g] = _initial_params(x[g], k, rng, floors[g])
    tol = np.array([c.tol for c in configs]) * n
    max_iter = np.array([c.max_iter for c in configs])
    # log-likelihood per lane and pass; widened on demand, so a large
    # max_iter costs nothing until passes actually run
    trace = np.empty((lanes, 64))
    results: list = [None] * lanes
    live = np.arange(lanes)
    prev = np.full(lanes, -math.inf)
    # the E-step and M-step work in place in these two (lanes, K, n) buffers;
    # leaving lanes shrink the prefix in use
    comp_buf = np.empty((lanes, k, n))
    work_buf = np.empty_like(comp_buf)
    passes = 0
    while live.size:
        comp = _log_densities(x, weights, means, stds, comp_buf[: live.size])
        total, peak = _exp_shifted(comp, axis=1)
        ll = _log_of_sums(total, peak).sum(axis=2)[:, 0]
        if passes == trace.shape[1]:
            trace = np.concatenate([trace, np.empty_like(trace)], axis=1)
        trace[live, passes] = ll
        # responsibilities; a lane with a non-finite log-likelihood leaves below
        with np.errstate(divide="ignore", invalid="ignore"):
            comp /= total
        resp_totals = comp.sum(axis=2)
        capped = max_iter == passes
        nonfinite = ~np.isfinite(ll)
        decreased = ll < prev - 1e-9
        converged = np.abs(ll - prev) < tol
        starved = resp_totals.min(axis=1) < _RESP_EPS
        done = capped | nonfinite | decreased | converged | starved
        # the first exit that applies wins: capped (reported, not converged),
        # then non-finite, decreased, starved, converged
        reported = capped | (converged & ~nonfinite & ~decreased & ~starved)
        if done.any():
            for i in np.flatnonzero(done):
                log_lik = float(ll[i])
                if reported[i]:
                    ll_trace = trace[live[i], : passes + 1].copy()
                    ll_trace.setflags(write=False)
                    results[live[i]] = FitReport(
                        make_model(weights[i], means[i], stds[i]), log_lik,
                        bic(log_lik, n, n_free_params(k)), iterations=passes,
                        converged=not capped[i], n_samples=n, ll_trace=ll_trace,
                    )
                elif nonfinite[i]:
                    results[live[i]] = DegenerateFitError(f"log-likelihood became {log_lik!r}")
                elif decreased[i]:
                    results[live[i]] = DegenerateFitError(
                        f"log-likelihood decreased from {float(prev[i])!r} to {log_lik!r}"
                    )
                else:
                    j = int(np.argmin(resp_totals[i]))
                    results[live[i]] = DegenerateFitError(
                        f"component {j} lost all responsibility (total {resp_totals[i, j]!r})"
                    )
            keep = ~done
            live, x, floors, tol, max_iter, ll, resp_totals = (
                a[keep] for a in (live, x, floors, tol, max_iter, ll, resp_totals)
            )
            comp_buf[: live.size] = comp[keep]
            comp = comp_buf[: live.size]
        work = work_buf[: live.size]
        np.multiply(comp, x[:, None, :], out=work)
        means = work.sum(axis=2) / resp_totals
        np.subtract(x[:, None, :], means[:, :, None], out=work)
        np.square(work, out=work)
        work *= comp
        stds = np.maximum(np.sqrt(work.sum(axis=2) / resp_totals), floors[:, None])
        weights = resp_totals / n
        prev = ll
        passes += 1
    return results


def em_fit(samples, n_components: int, config: EmConfig = EmConfig()) -> FitReport:
    """Fit a mixture by expectation-maximization.

    Each pass computes responsibilities in the log domain, stops the fit once
    the total log-likelihood moved by less than config.tol per sample since
    the previous pass, and otherwise applies one M-step (weighted mean,
    weighted variance around the new mean, weight = responsibility share).
    Raises InsufficientSamplesError for fewer samples than components, and
    DegenerateFitError if a component starves, the likelihood stops being
    finite, or it decreases beyond 1e-9.
    """
    if n_components < 1:
        raise ValueError(f"n_components must be >= 1, got {n_components}")
    result = _em_lanes(_finite_samples(samples)[None, :], n_components, [config])[0]
    if isinstance(result, GridstashError):
        raise result
    return result


def derive_config(config: EmConfig, *keys: int) -> EmConfig:
    """config with a seed derived from its own and keys, so fits are order-independent."""
    derived = int(np.random.SeedSequence([config.init_seed, *keys]).generate_state(1)[0])
    return replace(config, init_seed=derived)


@dataclass(frozen=True)
class CandidateFit:
    """One row of a model-selection sweep; error is None on success."""

    n_components: int
    report: FitReport | None
    error: str | None


def fit_candidates(samples, max_components: int, config: EmConfig = EmConfig()) -> list[CandidateFit]:
    """The rows of one group's BIC sweep over 1..max_components, per-K failures
    included; the sweep may stop early (see select_models)."""
    return list(select_models([samples], [max_components], [config])[0].candidates)


def select_model(samples, max_components: int, config: EmConfig = EmConfig()) -> FitReport:
    """Pick the candidate with the lowest BIC; ties go to fewer components."""
    return select_models([samples], [max_components], [config])[0].best


@dataclass(frozen=True)
class Selection:
    """Every candidate of one group's BIC sweep, in K order, and the pick: the
    lowest BIC, ties going to fewer components."""

    candidates: tuple[CandidateFit, ...]
    best: FitReport

    def diagnostics(self) -> dict:
        """Deterministic facts about the sweep, safe for reproducible outputs."""
        return {
            "selected_components": self.best.model.n_components,
            "iterations": self.best.iterations,
            "converged": self.best.converged,
            "swept_components": self.candidates[-1].n_components,
            "failed_components": [c.n_components for c in self.candidates if c.report is None],
            "capped_components": [
                c.n_components
                for c in self.candidates
                if c.report is not None and not c.report.converged
            ],
        }


def select_models(groups, max_components, configs) -> list[Selection]:
    """The BIC sweep over many sample groups, each with its own cap and config.

    Group i fits K = 1, 2, ... up to max_components[i] with
    derive_config(configs[i], K); a K that fails is kept as a row with its
    error, and a group whose every K fails re-raises its last error. A group
    stops early once _BIC_PATIENCE consecutive K, counted from its first
    successful fit, fail to beat its best BIC, so its candidates end at the
    stopping K. Groups sharing a sample count are fitted together: each K runs
    once for the bucket, with one EM lane per group still sweeping; lanes are
    independent, so a group's rows do not depend on the others.
    """
    xs = [_finite_samples(g) for g in groups]
    rows: list[list[CandidateFit]] = [[] for _ in xs]
    last_error: list[Exception | None] = [None] * len(xs)
    best: list[FitReport | None] = [None] * len(xs)
    misses = [0] * len(xs)
    buckets: dict[int, list[int]] = {}
    for i, (x, cap) in enumerate(zip(xs, max_components)):
        if cap < 1:
            raise ValueError(f"max_components must be >= 1, got {cap}")
        buckets.setdefault(x.size, []).append(i)
    for members in buckets.values():
        stacked = np.stack([xs[i] for i in members])
        k = 0
        while members:
            k += 1
            lane_results = _em_lanes(stacked, k, [derive_config(configs[i], k) for i in members])
            for i, result in zip(members, lane_results):
                if isinstance(result, FitReport):
                    rows[i].append(CandidateFit(k, result, None))
                    # strict, so of equal BICs the fit with fewer components stays
                    if best[i] is None or result.bic < best[i].bic:
                        best[i], misses[i] = result, 0
                        continue
                else:
                    rows[i].append(CandidateFit(k, None, str(result)))
                    last_error[i] = result
                if best[i] is not None:  # misses count from the first fit
                    misses[i] += 1
            sweeping = [
                j for j, i in enumerate(members) if misses[i] < _BIC_PATIENCE and k < max_components[i]
            ]
            if len(sweeping) < len(members):
                members = [members[j] for j in sweeping]
                stacked = stacked[sweeping]
    for pick, error in zip(best, last_error):
        if pick is None:
            raise error
    return [Selection(tuple(group_rows), pick) for group_rows, pick in zip(rows, best)]


def pdf(model: GmmModel, p) -> float | np.ndarray:
    """Mixture density at p (scalar or array)."""
    x = np.asarray(p, dtype=float)
    z = (x[..., None] - model.means) / model.stds
    dens = np.sum(model.weights / model.stds * _INV_SQRT_2PI * np.exp(-0.5 * z * z), axis=-1)
    return float(dens) if x.ndim == 0 else dens


def cdf(model: GmmModel, p) -> float | np.ndarray:
    """Mixture distribution function at p (scalar or array)."""
    x = np.asarray(p, dtype=float)
    z = (x[..., None] - model.means) / model.stds
    vals = np.sum(model.weights * _ndtr_each(z), axis=-1)
    return float(vals) if x.ndim == 0 else vals


def partial_expectation(model: GmmModel, a: float, b: float) -> float:
    """E[X * 1{a < X <= b}] for the mixture, integrating over full support.

    Accepts -inf/+inf endpoints; requires a <= b.
    """
    if math.isnan(a) or math.isnan(b):
        raise ValueError("endpoints must not be NaN")
    if a > b:
        raise ValueError(f"need a <= b, got a={a!r} > b={b!r}")
    za = (a - model.means) / model.stds
    zb = (b - model.means) / model.stds
    # exp(-0.5*inf**2) underflows cleanly to 0, covering infinite endpoints
    phi_a = _INV_SQRT_2PI * np.exp(-0.5 * za * za)
    phi_b = _INV_SQRT_2PI * np.exp(-0.5 * zb * zb)
    terms = model.weights * (model.means * (_ndtr_each(zb) - _ndtr_each(za)) + model.stds * (phi_a - phi_b))
    return float(terms.sum())


def expected_min_of_two(model: GmmModel) -> float:
    """E[min(X, Y)] for two independent draws from the mixture, in closed form.

    min(X, Y) = (X + Y - |X - Y|) / 2. For components i and j, X_i - Y_j is
    normal with mean m = mu_i - mu_j and std s = hypot(s_i, s_j), and its
    folded mean is E|X_i - Y_j| = 2 s phi(m / s) + m (1 - 2 Phi(-m / s)).
    """
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
    return model_from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))

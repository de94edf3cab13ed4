"""One-dimensional Gaussian mixture fitting via EM with BIC model selection.

The fitting loop is written out by hand (log-domain E-step with a
max-shifted numpy log-sum-exp, closed-form M-step, k-means++-style seeding,
SQUAREM extrapolation on standardized samples) so its convergence accounting
and failure modes are fully under our control.
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

    A fit converges once a plain EM step changes the total log-likelihood by
    less than tol per sample (tol * n), the mean-gain rule of scikit-learn's
    GaussianMixture; max_iter caps the E-steps after the first.
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
    log-likelihoods along the accepted path, and iterations counts the
    E-steps after the first."""

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


def _standardize(samples) -> tuple[np.ndarray, np.ndarray]:
    """(z, frame) of one sample group: z = (x - centre) / scale, and the frame
    (centre, scale, sigma floor) that maps a fit on z back to x.

    The centre is the midrange and the scale the power of two at or just above
    the half-range, or 1 for constant samples, so z lies in [-1, 1]. Neither
    squares a sample, so every finite magnitude fits, and scaling x by a power
    of two leaves z bit for bit as it was. The floor is _SIGMA_FLOOR times the
    std of z, or 1e-9 when z is constant.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    # halves first, so neither the centre nor the half-range can overflow
    lo, hi = (0.5 * x.min(), 0.5 * x.max()) if x.size else (0.0, 0.0)
    centre = lo + hi
    scale = math.ldexp(1.0, math.frexp(hi - lo)[1])
    z = (x - centre) / scale
    floor = _SIGMA_FLOOR * float(z.std()) if x.size else 0.0
    return z, np.array([centre, scale, floor if floor > 0 else 1e-9])


def _m_step(comp: np.ndarray, resp_totals: np.ndarray, z: np.ndarray, floors, work: np.ndarray):
    """(weights, means, stds) from the responsibilities comp (lanes, K, n)."""
    n = z.shape[1]
    np.multiply(comp, z[:, None, :], out=work)
    means = work.sum(axis=2) / resp_totals
    np.subtract(z[:, None, :], means[:, :, None], out=work)
    np.square(work, out=work)
    work *= comp
    stds = np.maximum(np.sqrt(work.sum(axis=2) / resp_totals), floors[:, None])
    return resp_totals / n, means, stds


def _s3_point(theta, p1, p2, step_max, floors):
    """(p', a) per lane: the S3 extrapolation of p -> p1 -> p2, theta being p
    in (log weight, mean, log std).

    With r = p1 - p and v = p2 - 2 p1 + p in those coordinates and
    a = max(1, |r| / |v|) capped at step_max, p' = p2 + (a - 1)(2 r + (a + 1) v),
    which is p2 itself at a = 1. Its weights are renormalized and its stds
    floored, so p' is a mixture wherever it is finite.
    """
    theta1 = (np.log(p1[0]), p1[1], np.log(p1[2]))
    theta2 = (np.log(p2[0]), p2[1], np.log(p2[2]))
    r = [b - a for a, b in zip(theta, theta1)]
    v = [c - b - d for b, c, d in zip(theta1, theta2, r)]
    ratio = np.sqrt(sum((d * d).sum(axis=1) for d in r) / sum((d * d).sum(axis=1) for d in v))
    alpha = np.fmin(step_max, np.fmax(1.0, ratio))
    a = alpha[:, None]
    log_w, means, log_s = (
        t + (a - 1.0) * (2.0 * dr + (a + 1.0) * dv) for t, dr, dv in zip(theta2, r, v)
    )
    weights = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    return (weights, means, np.maximum(np.exp(log_s), floors[:, None])), alpha


def _em_lanes(
    z: np.ndarray, n_components: int, configs, frames
) -> list[FitReport | GridstashError]:
    """Run em_fit on every row of z (lanes, n) at once, one config per lane.

    z holds each lane's standardized samples and frames (lanes, 3) its
    (centre, scale, sigma floor), as _standardize returns them; the reports
    are in the samples' own units. Each lane keeps its own seed, trace,
    iteration count, step bound and failure; a lane that converges, reaches
    its max_iter, degenerates or starves leaves the active set while the
    others carry on. Returns, per lane, its report or the error em_fit would
    raise: InsufficientSamplesError for every lane when n < n_components,
    else DegenerateFitError.

    Every lane runs SQUAREM-1 cycles of three E-steps in step: plain EM steps
    p -> p1 -> p2, then one at the S3 extrapolation p' of the three in
    (log weight, mean, log std), whose M-step continues the path when p' is
    finite, starves no component and is at least as likely as p1; otherwise
    the path continues from p2. The lane stops on the plain step p -> p1.
    """
    lanes, n = z.shape
    k = n_components
    if n < k:
        return [InsufficientSamplesError(f"{n} samples cannot support {k} components")] * lanes
    weights, means, stds = (np.empty((lanes, k)) for _ in range(3))
    floors = frames[:, 2]
    for g, config in enumerate(configs):
        rng = np.random.default_rng(config.init_seed)
        weights[g], means[g], stds[g] = _initial_params(z[g], k, rng, floors[g])
    tol = np.array([c.tol for c in configs]) * n
    max_iter = np.array([c.max_iter for c in configs])
    # the accepted path's log-likelihoods per lane, kept[g] of them; widened
    # on demand, so a large max_iter costs nothing until passes actually run
    trace = np.empty((lanes, 64))
    kept = np.zeros(lanes, dtype=np.intp)
    results: list = [None] * lanes
    live = np.arange(lanes)
    prev = np.full(lanes, -math.inf)
    step_max = np.ones(lanes)
    saved: list = []
    # the E-step and M-step work in place in these two (lanes, K, n) buffers;
    # leaving lanes shrink the prefix in use
    comp_buf = np.empty((lanes, k, n))
    work_buf = np.empty_like(comp_buf)
    passes = 0
    # an extrapolated point may overflow, and a lane whose log-likelihood is
    # not finite divides by zero; the checks below catch both
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while live.size:
            phase = passes % 3
            comp = _log_densities(z, weights, means, stds, comp_buf[: live.size])
            total, peak = _exp_shifted(comp, axis=1)
            ll = _log_of_sums(total, peak).sum(axis=2)[:, 0]
            comp /= total
            resp_totals = comp.sum(axis=2)
            finite = np.isfinite(ll)
            starved = resp_totals.min(axis=1) < _RESP_EPS
            # an extrapolated point fails nothing: a poor one falls back to p2
            plain = phase != 2
            on_path = plain | (finite & ~starved & (ll >= prev))
            if passes == trace.shape[1]:
                trace = np.concatenate([trace, np.empty_like(trace)], axis=1)
            trace[live, kept[live]] = ll
            kept[live] += on_path
            capped = max_iter == passes
            nonfinite = ~finite & plain
            decreased = (ll < prev - 1e-9) & plain
            starved &= plain
            converged = (np.abs(ll - prev) < tol) & (phase == 1)
            done = capped | nonfinite | decreased | converged | starved
            # the first exit that applies wins: capped (reported, not converged),
            # then non-finite, decreased, starved, converged
            reported = capped | (converged & ~nonfinite & ~decreased & ~starved)
            if done.any():
                for i in np.flatnonzero(done):
                    g = live[i]
                    centre, scale, _ = frames[i]
                    shift = n * math.log(scale)
                    if reported[i]:
                        ll_trace = trace[g, : kept[g]] - shift
                        ll_trace.setflags(write=False)
                        log_lik = float(ll_trace[-1])
                        # a capped lane whose last point was rejected reports p1
                        w, m, s = (weights, means, stds) if on_path[i] else saved[:3]
                        results[g] = FitReport(
                            make_model(w[i], centre + scale * m[i], scale * s[i]), log_lik,
                            bic(log_lik, n, n_free_params(k)), iterations=passes,
                            converged=not capped[i], n_samples=n, ll_trace=ll_trace,
                        )
                    elif nonfinite[i]:
                        results[g] = DegenerateFitError(
                            f"log-likelihood became {float(ll[i]) - shift!r}"
                        )
                    elif decreased[i]:
                        results[g] = DegenerateFitError(
                            f"log-likelihood decreased from {float(prev[i]) - shift!r} "
                            f"to {float(ll[i]) - shift!r}"
                        )
                    else:
                        j = int(np.argmin(resp_totals[i]))
                        total_j = float(resp_totals[i, j])
                        results[g] = DegenerateFitError(
                            f"component {j} lost all responsibility (total {total_j!r})"
                        )
                keep = ~done
                lane_state = (live, z, frames, tol, max_iter, ll, prev, step_max, on_path,
                              resp_totals, weights, means, stds, *saved)
                (live, z, frames, tol, max_iter, ll, prev, step_max, on_path,
                 resp_totals, weights, means, stds, *saved) = (a[keep] for a in lane_state)
                floors = frames[:, 2]
                comp_buf[: live.size] = comp[keep]
                comp = comp_buf[: live.size]
            step = _m_step(comp, resp_totals, z, floors, work_buf[: live.size])
            if phase == 0:
                saved = [np.log(weights), means, np.log(stds)]
                weights, means, stds = step
            elif phase == 1:
                point, alpha = _s3_point(saved, (weights, means, stds), step, step_max, floors)
                saved = [weights, means, stds, *step, alpha]
                weights, means, stds = point
            else:
                alpha, take = saved[6], on_path[:, None]
                weights, means, stds = (np.where(take, a, b) for a, b in zip(step, saved[3:6]))
                grown = np.where(alpha == step_max, 4.0 * step_max, step_max)
                step_max = np.where(on_path, grown, np.maximum(1.0, step_max / 4.0))
            prev = np.where(on_path, ll, prev)
            passes += 1
    return results


def em_fit(samples, n_components: int, config: EmConfig = EmConfig()) -> FitReport:
    """Fit a mixture by expectation-maximization, accelerated by SQUAREM.

    Fits on the standardized samples (see _standardize) and maps the model
    back. Each E-step computes responsibilities in the log domain; each M-step
    sets weighted means, weighted variances around them and weights equal to
    the responsibility shares. The fit converges once a plain EM step moves
    the total log-likelihood by less than config.tol per sample, and reports
    that step's M-step output; config.max_iter caps the E-steps after the
    first. Raises InsufficientSamplesError for fewer samples than components,
    and DegenerateFitError if a component starves, the likelihood stops being
    finite, or it decreases beyond 1e-9 along the accepted path.
    """
    if n_components < 1:
        raise ValueError(f"n_components must be >= 1, got {n_components}")
    z, frame = _standardize(samples)
    result = _em_lanes(z[None, :], n_components, [config], frame[None, :])[0]
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
    independent, so a group's rows do not depend on the others. Each group is
    standardized once (see _standardize), and its reports are in its own units.
    """
    prepared = [_standardize(g) for g in groups]
    rows: list[list[CandidateFit]] = [[] for _ in prepared]
    last_error: list[Exception | None] = [None] * len(prepared)
    best: list[FitReport | None] = [None] * len(prepared)
    misses = [0] * len(prepared)
    buckets: dict[int, list[int]] = {}
    for i, ((z, _), cap) in enumerate(zip(prepared, max_components)):
        if cap < 1:
            raise ValueError(f"max_components must be >= 1, got {cap}")
        buckets.setdefault(z.size, []).append(i)
    for members in buckets.values():
        stacked = np.stack([prepared[i][0] for i in members])
        frames = np.stack([prepared[i][1] for i in members])
        k = 0
        while members:
            k += 1
            lane_results = _em_lanes(
                stacked, k, [derive_config(configs[i], k) for i in members], frames
            )
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
                stacked, frames = stacked[sweeping], frames[sweeping]
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


def expected_min(model: GmmModel, theta: float) -> float:
    """E[min(X, theta)] for the mixture: per component, mu Phi(z) - sigma phi(z)
    below theta plus theta times the mass above it, with z = (theta - mu) / sigma;
    no mass lies above theta = +inf, and theta = -inf gives -inf."""
    with np.errstate(over="ignore"):
        # z or z * z overflows to inf for theta many stds away, or infinite;
        # exp(-0.5 * inf) is then 0, the right density
        z = (theta - model.means) / model.stds
        phi = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    mass = _ndtr_each(z)
    below = float(np.sum(model.weights * (model.means * mass - model.stds * phi)))
    return below + (theta * (1.0 - float(np.sum(model.weights * mass))) if theta != math.inf else 0.0)


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
    try:
        return model_from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except ValueError as exc:  # bad JSON, bad UTF-8, or a malformed document
        raise ValueError(f"{path}: {exc}") from None

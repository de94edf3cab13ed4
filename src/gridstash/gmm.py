"""Fitting a one-dimensional Gaussian mixture to samples: EM with BIC model selection.

The fitting loop is written out by hand (log-domain E-step with a
max-shifted numpy log-sum-exp, closed-form M-step, k-means++-style seeding,
SQUAREM extrapolation on standardized samples) so its convergence accounting
and failure modes are fully under our control. One EM core fits many
equal-size sample groups ("lanes") with the same component count at once,
each from its own seed and all under one ``EmConfig``; every lane's k-means++
start is the M-step of its nearest-centre assignment. ``em_fit`` is its
one-lane case, and ``select_models`` is the one BIC sweep over the component
count, for one sample group or many. The fitted law
(``GmmModel``) lives in ``distributions``; ``make_model`` and
``sample_with_rng`` are re-exported for callers that import them from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import GmmModel, make_model, sample_with_rng
from .errors import DegenerateFitError, GridstashError, InsufficientSamplesError

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)

# A component whose total responsibility falls below this is starved.
_RESP_EPS = 1e-12

# A group's BIC sweep stops once this many consecutive K fail to beat its
# best BIC so far.
_BIC_PATIENCE = 3

# Each component's std is floored at this fraction of its sample's std, or at
# an absolute 1e-9 when the sample is constant.
_SIGMA_FLOOR = 1e-6

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
    """Overwrite a with exp(a - max) along axis; return (sums, log-sums), axis kept,
    where the log-sums are log(sum(exp(a))) of the original a.

    A non-finite maximum shifts by 0 instead, as scipy.special's log-sum-exp does, so a
    slice that is all -inf sums to 0 and logs to -inf rather than NaN.
    """
    peak = a.max(axis=axis, keepdims=True)
    finite = np.isfinite(peak)
    if not finite.all():
        peak[~finite] = 0.0
    a -= peak
    np.exp(a, out=a)
    total = a.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        return total, np.log(total) + peak


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


def _initial_params(z: np.ndarray, k: int, rngs, floors, buffers):
    """(weights, means, stds), each (lanes, K): every lane's k-means++ start.

    Lane g draws its centres from rngs[g]; each sample joins its nearest
    centre, and the M-step of those one-hot responsibilities gives each
    component its members' share, mean and std. A centre that wins no sample
    (fewer distinct values than k) keeps a token weight of one sample, the
    centre itself and the lane's std, so EM can reassign mass to it. buffers
    is a (2, lanes, K, n) scratch array.
    """
    lanes, n = z.shape
    comp, work = buffers
    centres = np.stack([_kmeans_pp_centers(row, k, rng) for row, rng in zip(z, rngs)])
    np.subtract(z[:, None, :], centres[:, :, None], out=work)
    nearest = np.abs(work, out=work).argmin(axis=1)
    comp[...] = nearest[:, None, :] == np.arange(k)[:, None]
    counts = comp.sum(axis=2)
    empty = counts == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        _, means, stds = _m_step(comp, counts, z, floors, work)
    weights = np.where(empty, 1.0, counts)
    weights /= weights.sum(axis=1, keepdims=True)
    means = np.where(empty, centres, means)
    stds = np.where(empty, np.maximum(z.std(axis=1), floors)[:, None], stds)
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
    """(weights, means, stds) from the responsibilities comp (lanes, K, n) and
    their totals (lanes, K)."""
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
    z: np.ndarray, n_components: int, seeds, frames, config: EmConfig
) -> list[FitReport | GridstashError]:
    """Run em_fit on every row of z (lanes, n) at once, under one config.

    z holds each lane's standardized samples and frames (lanes, 3) its
    (centre, scale, sigma floor), as _standardize returns them; lane g is
    seeded with seeds[g], and config's tol and max_iter govern every lane
    (its init_seed is not read). The reports are in the samples' own units.
    Each lane keeps its own trace, iteration count, step bound and failure;
    a lane that converges, degenerates or starves leaves the active set while
    the others carry on, and at config.max_iter every lane left is capped.
    Returns, per lane, its report or the error em_fit would raise:
    InsufficientSamplesError for every lane when n < n_components, else
    DegenerateFitError.

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
    # the seeding, E-step and M-step work in place in these two (lanes, K, n)
    # buffers; leaving lanes shrink the prefix in use
    buffers = np.empty((2, lanes, k, n))
    comp_buf, work_buf = buffers
    floors = frames[:, 2]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    weights, means, stds = _initial_params(z, k, rngs, floors, buffers)
    tol = config.tol * n
    # the accepted path's log-likelihoods per lane, kept[g] of them; widened
    # on demand, so a large max_iter costs nothing until passes actually run
    trace = np.empty((lanes, 64))
    kept = np.zeros(lanes, dtype=np.intp)
    results: list = [None] * lanes
    live = np.arange(lanes)
    prev = np.full(lanes, -math.inf)
    step_max = np.ones(lanes)
    saved: list = []
    passes = 0
    # an extrapolated point may overflow, and a lane whose log-likelihood is
    # not finite divides by zero; the checks below catch both
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while live.size:
            phase = passes % 3
            comp = _log_densities(z, weights, means, stds, comp_buf[: live.size])
            total, log_total = _exp_shifted(comp, axis=1)
            ll = log_total.sum(axis=2)[:, 0]
            comp /= total
            resp_totals = comp.sum(axis=2)
            step = _m_step(comp, resp_totals, z, floors, work_buf[: live.size])
            finite = np.isfinite(ll)
            starved = resp_totals.min(axis=1) < _RESP_EPS
            # an extrapolated point fails nothing: a poor one falls back to p2
            plain = phase != 2
            on_path = plain | (finite & ~starved & (ll >= prev))
            if passes == trace.shape[1]:
                trace = np.concatenate([trace, np.empty_like(trace)], axis=1)
            trace[live, kept[live]] = ll
            kept[live] += on_path
            capped = passes == config.max_iter
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
                            converged=not capped, n_samples=n, ll_trace=ll_trace,
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
                lane_state = (live, z, frames, ll, prev, step_max, on_path,
                              weights, means, stds, *step, *saved)
                (live, z, frames, ll, prev, step_max, on_path,
                 weights, means, stds, *rest) = (a[keep] for a in lane_state)
                step, saved = rest[:3], rest[3:]
                floors = frames[:, 2]
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
    result = _em_lanes(z[None, :], n_components, [config.init_seed], frame[None, :], config)[0]
    if isinstance(result, GridstashError):
        raise result
    return result


def derive_seed(seed: int, *keys: int) -> int:
    """The seed itself without keys, else one derived from both, so fits are order-independent."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0]) if keys else seed


@dataclass(frozen=True)
class CandidateFit:
    """One row of a model-selection sweep; error is None on success."""

    n_components: int
    report: FitReport | None
    error: str | None


def fit_candidates(samples, max_components: int, config: EmConfig = EmConfig()) -> list[CandidateFit]:
    """The rows of one group's BIC sweep over 1..max_components, per-K failures
    included; the sweep may stop early (see select_models)."""
    return list(select_models([samples], [max_components], config)[0].candidates)


def select_model(samples, max_components: int, config: EmConfig = EmConfig()) -> FitReport:
    """Pick the candidate with the lowest BIC; ties go to fewer components."""
    return select_models([samples], [max_components], config)[0].best


@dataclass(frozen=True)
class Selection:
    """Every candidate of one group's BIC sweep, in K order, and the pick: the
    lowest BIC, ties going to fewer components."""

    candidates: tuple[CandidateFit, ...]
    best: FitReport


def select_models(groups, max_components, config: EmConfig, keys=None) -> list[Selection]:
    """The BIC sweep over many sample groups, each with its own cap and seed
    key, all under one config.

    Group i, seeded with derive_seed(config.init_seed, *keys[i]) (each key is
    empty by default), fits K = 1, 2, ... up to max_components[i], each K
    seeded with derive_seed(group seed, K); a K that fails is kept as a row
    with its error, and a group whose every K fails re-raises its last error.
    A group stops early once _BIC_PATIENCE consecutive K, counted from its
    first successful fit, fail to beat its best BIC, so its candidates end at
    the stopping K. Groups sharing a sample count are fitted together: each K
    runs once for the bucket, with one EM lane per group still sweeping; lanes
    are independent, so a group's rows do not depend on the others. Each group
    is standardized once (see _standardize); its reports are in its own units.
    """
    prepared = [_standardize(g) for g in groups]
    seeds = [derive_seed(config.init_seed, *key) for key in keys or [()] * len(prepared)]
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
                stacked, k, [derive_seed(seeds[i], k) for i in members], frames, config
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

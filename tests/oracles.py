"""Independent reference implementations the tests trust.

Deliberately dumb and exhaustive: a storage-lattice dynamic program over
integer instances, and full price-path enumeration for expected policy cost.
Neither shares code with the package's decomposition or recursion paths.
The serve reference runs the policy one piece and one slot at a time; it
shares only the threshold recursion with the package's grouped array serve.
The decomposition reference walks each deadline's level interval cut by cut,
one piece at a time, as the package's whole-array sweep must reproduce.
The EM reference is the plain one-fit-at-a-time loop with scipy's logsumexp;
it shares only the seeded initialisation with the package's batched core. The
BIC sweep reference fits one K at a time for one group and stops after three
consecutive K that fail to beat the best BIC, counted from the first fit.
The mixture CDF and truncated first moment are the vectorised expressions over
scipy's ``ndtr`` that the package's scalar normal CDF must reproduce exactly.
The expected minimum of two draws integrates p * pdf * survival with scipy's
quadrature; the density infimum refines the grid minimum with scipy's bounded
scalar search, where the package zooms with finer numpy grids.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize
from scipy.special import logsumexp, ndtr

from gridstash.data_io import hours_of_day
from gridstash.distributions import DiscreteDistribution, GmmDistribution, PriceDistribution
from gridstash.errors import DegenerateFitError, InsufficientSamplesError, LengthMismatchError
from gridstash.gmm import (
    _SIGMA_FLOOR,
    EmConfig,
    FitReport,
    GmmModel,
    _initial_params,
    bic,
    derive_config,
    make_model,
    n_free_params,
)
from gridstash.policy import (
    ThresholdSchedule,
    compute_thresholds_timevarying,
    simulate_one_shot_matrix,
)


def dp_storage_optimum(prices, demands, capacity: int) -> float:
    """Exact hindsight optimum by enumerating integer storage levels.

    State: stored units after each slot. Transition: discharge any amount of
    the slot's demand from storage, buy the rest plus any refill that fits.
    """
    states = {0: 0.0}
    for t in range(len(demands)):
        demand = int(demands[t])
        price = float(prices[t])
        new: dict[int, float] = {}
        for level, cost in states.items():
            for discharge in range(0, min(level, demand) + 1):
                direct = demand - discharge
                room = capacity - (level - discharge)
                for buy in range(0, room + 1):
                    nxt = level - discharge + buy
                    total = cost + (direct + buy) * price
                    if nxt not in new or total < new[nxt]:
                        new[nxt] = total
        states = new
    return min(states.values())


def reference_decompose(demand, capacity: float) -> list[tuple[float, int, int]]:
    """(quantity, t_start, t_end) pieces, one level interval at a time.

    For each slot t_e with demand, its level interval (D[t_e-1], D[t_e]] is
    cut at the shifted levels A[t] = D[t] + B; the sub-interval between
    consecutive cuts can first be bought at the earliest slot whose shifted
    level exceeds its lower cut. Sub-intervals of 1e-12 or less are dropped.
    """
    values = np.asarray(demand, dtype=float)
    cumulative = np.cumsum(values)
    shifted = cumulative + capacity
    pieces = []
    for t_end in (int(t) for t in np.nonzero(values > 0)[0]):
        lower = float(cumulative[t_end - 1]) if t_end > 0 else 0.0
        upper = float(cumulative[t_end])
        current = lower
        while current < upper:
            # never past t_end because shifted[t_end] = upper + B > current
            t_start = int(np.searchsorted(shifted, current, side="right"))
            cut = min(upper, float(shifted[t_start])) if t_start < t_end else upper
            quantity = cut - current
            if quantity > 1e-12:
                pieces.append((quantity, t_start, t_end))
            current = cut
    return pieces


def all_price_paths(values: np.ndarray, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Every length-`horizon` price path over a finite support, with path
    probabilities left to the caller (returns index matrix and price matrix)."""
    size = len(values)
    count = size**horizon
    digits = size ** np.arange(horizon - 1, -1, -1, dtype=np.int64)
    ids = np.arange(count, dtype=np.int64)
    idx = (ids[:, None] // digits[None, :]) % size
    return idx, np.asarray(values, dtype=float)[idx]


def enumerate_policy_expected_cost(
    values, probs, schedule: ThresholdSchedule
) -> float:
    """Expected price the threshold policy pays, by exhausting all paths."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    idx, paths = all_price_paths(values, schedule.horizon)
    paid, _ = simulate_one_shot_matrix(paths, schedule)
    weights = probs[idx].prod(axis=1)
    return float(np.dot(paid, weights))


def enumerate_offline_expected_min(values, probs, horizon: int) -> float:
    """Expected minimum over all paths, enumerated independently."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    idx, paths = all_price_paths(values, horizon)
    weights = probs[idx].prod(axis=1)
    return float(np.dot(paths.min(axis=1), weights))


def serve_one_shot(schedule: ThresholdSchedule, window_prices) -> tuple[int, float, float, bool]:
    """(buy offset, price, threshold, forced) of one window, slot by slot:
    the first price at or below its threshold buys (ties buy); the final
    sentinel forces the deadline."""
    prices = np.asarray(window_prices, dtype=float)
    if prices.size != schedule.horizon:
        raise LengthMismatchError(f"{prices.size} prices vs horizon {schedule.horizon}")
    for j, threshold in enumerate(schedule.thresholds):
        if prices[j] <= threshold:
            return j, float(prices[j]), threshold, j == schedule.horizon - 1
    raise AssertionError("unreachable: sentinel threshold always triggers")


def reference_run_policy(prices, load, capacity: float, laws):
    """Per-piece serve of a whole trace: rows of (quantity, t_start, t_end,
    buy_slot, price, threshold, forced) in piece order, and the fsum cost.

    One schedule per (start hour-of-day, window length), built from the laws
    of the hours slot by slot, and one scalar serve per piece.
    """
    hours = hours_of_day(prices.start, len(prices)).tolist()
    cache = {}
    rows = []
    for quantity, t_start, t_end in reference_decompose(load.values, capacity):
        key = (hours[t_start], t_end - t_start + 1)
        if key not in cache:
            cache[key] = compute_thresholds_timevarying(
                [laws[h] for h in hours[t_start : t_end + 1]]
            )
        offset, price, threshold, forced = serve_one_shot(
            cache[key], prices.values[t_start : t_end + 1]
        )
        rows.append((quantity, t_start, t_end, t_start + offset, price, threshold, forced))
    return rows, math.fsum(r[0] * r[4] for r in rows)


def _reference_log_comp(x: np.ndarray, weights, means, stds) -> np.ndarray:
    z = (x[:, None] - means[None, :]) / stds[None, :]
    return (
        np.log(np.maximum(weights, 1e-300))[None, :]
        - np.log(stds)[None, :]
        - 0.5 * z * z
        - 0.5 * math.log(2.0 * math.pi)
    )


def reference_em_fit(samples, n_components: int, config: EmConfig = EmConfig()) -> FitReport:
    """One EM fit, one pass at a time on an (n, K) array, as gmm.em_fit specifies."""
    if n_components < 1:
        raise ValueError(f"n_components must be >= 1, got {n_components}")
    x = np.asarray(samples, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    n = x.size
    if n < n_components:
        raise InsufficientSamplesError(f"{n} samples cannot support {n_components} components")
    rng = np.random.default_rng(config.init_seed)
    floor = _SIGMA_FLOOR * float(x.std())
    if floor <= 0:
        floor = 1e-9
    weights, means, stds = _initial_params(x, n_components, rng, floor)

    prev_ll = -math.inf
    trace: list[float] = []
    iterations = 0
    converged = False
    for _ in range(config.max_iter):
        log_comp = _reference_log_comp(x, weights, means, stds)
        log_norm = logsumexp(log_comp, axis=1)
        ll = float(log_norm.sum())
        if not math.isfinite(ll):
            raise DegenerateFitError(f"log-likelihood became {ll!r}")
        if ll < prev_ll - 1e-9:
            raise DegenerateFitError(f"log-likelihood decreased from {prev_ll!r} to {ll!r}")
        trace.append(ll)
        resp = np.exp(log_comp - log_norm[:, None])
        resp_totals = resp.sum(axis=0)
        if resp_totals.min() < 1e-12:
            starved = int(np.argmin(resp_totals))
            raise DegenerateFitError(
                f"component {starved} lost all responsibility (total {resp_totals[starved]!r})"
            )
        if abs(ll - prev_ll) < config.tol * n:
            converged = True
            break
        prev_ll = ll
        means = (resp.T @ x) / resp_totals
        var = np.einsum("ik,ik->k", resp, (x[:, None] - means[None, :]) ** 2)
        stds = np.maximum(np.sqrt(var / resp_totals), floor)
        weights = resp_totals / n
        iterations += 1

    if not converged:
        log_comp = _reference_log_comp(x, weights, means, stds)
        trace.append(float(np.sum(logsumexp(log_comp, axis=1))))
    final_ll = trace[-1]
    return FitReport(
        model=make_model(weights, means, stds),
        log_likelihood=final_ll,
        bic=bic(final_ll, n, n_free_params(n_components)),
        iterations=iterations,
        converged=converged,
        n_samples=n,
        ll_trace=np.array(trace),
    )


# Two-atom data gives K = 3 a duplicate-centre component that starves on the
# third pass; that pass gains only about 1.1e-6 in total log-likelihood, so a
# tol per sample above 1.1e-6 / n also converges there, and the starvation
# check, which comes first, fails the fit at any tol.
STARVE_TOL = 1e-9


def reference_sweep(samples, cap: int, config: EmConfig = EmConfig()):
    """(rows, best) of one group's BIC sweep over K = 1..cap, as gmm.select_models
    specifies; rows are (K, report or None, error or None).

    The sweep stops once three consecutive K, counted from the first
    successful fit, fail to beat the best BIC.
    """
    rows = []
    best = None
    misses = 0
    for k in range(1, cap + 1):
        try:
            report = reference_em_fit(samples, k, derive_config(config, k))
            rows.append((k, report, None))
        except (DegenerateFitError, InsufficientSamplesError) as exc:
            report = None
            rows.append((k, None, str(exc)))
        if report is not None and (best is None or report.bic < best.bic):
            best = report
            misses = 0
        elif best is not None:
            misses += 1
            if misses == 3:
                break
    return rows, best


def reference_cdf(model: GmmModel, p) -> np.ndarray:
    """Mixture CDF at every element of p, with scipy's ndtr."""
    z = (np.asarray(p, dtype=float)[..., None] - model.means) / model.stds
    return np.sum(model.weights * ndtr(z), axis=-1)


def reference_partial_expectation(model: GmmModel, a: float, b: float) -> float:
    """E[X * 1{a < X <= b}] for the mixture, with scipy's ndtr."""
    za = (a - model.means) / model.stds
    zb = (b - model.means) / model.stds
    inv_sqrt_2pi = 1.0 / math.sqrt(2.0 * math.pi)
    phi_a = inv_sqrt_2pi * np.exp(-0.5 * za * za)
    phi_b = inv_sqrt_2pi * np.exp(-0.5 * zb * zb)
    terms = model.weights * (model.means * (ndtr(zb) - ndtr(za)) + model.stds * (phi_a - phi_b))
    return float(terms.sum())


def reference_expected_min_of_two(dist: PriceDistribution, lo: float, hi: float) -> float:
    """E[min(X1, X2)] = 2 * integral of p * pdf(p) * (1 - cdf(p)) over [lo, hi],
    by adaptive quadrature; [lo, hi] must carry essentially all the mass."""
    val, _ = integrate.quad(lambda p: p * dist.pdf(p) * (1.0 - dist.cdf(p)), lo, hi, limit=200)
    return 2.0 * val


def reference_density_infimum(dist: PriceDistribution, theta: float) -> float:
    """Smallest density on [0, theta]: a 1025-point grid plus the interior
    mixture means, then a bounded scalar search over the two cells beside the
    grid minimum."""
    hi = max(float(theta), 0.0)
    if isinstance(dist, DiscreteDistribution):
        return dist.min_atom_mass_in(0.0, hi)
    grid = np.linspace(0.0, hi, 1025)
    if isinstance(dist, GmmDistribution):
        interior = dist.model.means[(dist.model.means > 0.0) & (dist.model.means < hi)]
        grid = np.unique(np.concatenate((grid, interior)))
    dens = np.asarray(dist.pdf(grid), dtype=float)
    at = int(np.argmin(dens))
    best = float(dens[at])
    lo_edge = grid[max(at - 1, 0)]
    hi_edge = grid[min(at + 1, grid.size - 1)]
    if hi_edge > lo_edge:
        result = optimize.minimize_scalar(
            lambda p: float(dist.pdf(p)), bounds=(lo_edge, hi_edge), method="bounded"
        )
        if result.success:
            best = min(best, float(result.fun))
    return max(best, 0.0)

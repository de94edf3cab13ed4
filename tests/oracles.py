"""Independent reference implementations the tests trust.

Deliberately dumb and exhaustive: a storage-lattice dynamic program over
integer instances, and full price-path enumeration for expected policy cost.
Neither shares code with the package's decomposition or recursion paths.
The serve reference runs the policy one piece and one slot at a time; it
shares only the threshold recursion with the package's grouped array serve.
The decomposition reference walks each deadline's level interval cut by cut,
one piece at a time, as the package's whole-array sweep must reproduce. A
second one sorts all cuts and binary-searches every piece's window ends, the
package's former sweep, which its merge of the two sorted cut runs must
reproduce bit for bit.
The EM reference is one SQUAREM-accelerated fit at a time, written as a plain
loop of E-steps; it shares only the seeded initialisation with the package's
batched core, and follows the core's operation order so that its parameters
match to 1e-9 (see reference_squarem_fit). That initialisation has its own
reference, which takes each component's members one component at a time. The BIC sweep reference fits one
K at a time for one group and stops after three consecutive K that fail to
beat the best BIC, counted from the first fit.
The mixture CDF and expected minimum with a fixed price are the vectorised
expressions over scipy's ``ndtr`` that the package's scalar normal CDF must
match to within a few ulp.
The expected minimum of two draws integrates p * pdf * survival with scipy's
quadrature; the density infimum refines the grid minimum with scipy's bounded
scalar search, where the package zooms with finer numpy grids.
The trace reader reference is the package's former per-row reader: it parses
each row into a (datetime, float) tuple, sorts the tuples and walks them
pairwise, where the package orders all rows with one stable argsort; both must
accept the same files and raise the same errors.
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
from scipy import integrate, optimize
from scipy.special import ndtr

from gridstash.data_io import hours_of_day
from gridstash.distributions import (
    DiscreteDistribution,
    GmmDistribution,
    GmmModel,
    PriceDistribution,
    make_model,
)
from gridstash.errors import (
    DegenerateFitError,
    EmptyTraceError,
    InsufficientSamplesError,
    LengthMismatchError,
    TraceGapError,
    TraceParseError,
    TraceValidationError,
)
from gridstash.gmm import (
    _SIGMA_FLOOR,
    EmConfig,
    FitReport,
    _initial_params,
    _kmeans_pp_centers,
    bic,
    derive_seed,
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
    level exceeds its lower cut. Every sub-interval of positive width is a
    piece; only empty ones, where a shifted level repeats a cut, are dropped.
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
            if quantity > 0:
                pieces.append((quantity, t_start, t_end))
            current = cut
    return pieces


def sorted_cut_decompose(demand, capacity: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(quantity, t_start, t_end) arrays: sort every cut, then binary-search
    each piece's first purchase slot and deadline. Every gap of positive
    width is a piece; only the zero-width gaps between repeated cuts are
    dropped.
    """
    cumulative = np.cumsum(np.asarray(demand, dtype=float))
    shifted = cumulative + capacity
    cuts = np.sort(
        np.concatenate(([0.0], cumulative[cumulative > 0], shifted[shifted < cumulative[-1]]))
    )
    lower, upper = cuts[:-1], cuts[1:]
    keep = upper - lower > 0
    return (
        (upper - lower)[keep],
        np.searchsorted(shifted, lower[keep], side="right"),
        np.searchsorted(cumulative, upper[keep], side="left"),
    )


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


def _reference_log_comp(z: np.ndarray, weights, means, stds) -> np.ndarray:
    """(K, n) log(w_k * N(z_i | mu_k, s_k)), in the package's operation order."""
    d = (z[None, :] - means[:, None]) * (math.sqrt(0.5) / stds)[:, None]
    log_scale = np.log(np.maximum(weights, 1e-300)) - np.log(stds) - 0.5 * math.log(2.0 * math.pi)
    return log_scale[:, None] - d * d


def reference_squarem_fit(samples, n_components: int, config: EmConfig = EmConfig()) -> FitReport:
    """One SQUAREM-accelerated EM fit, one E-step at a time on a (K, n)
    array, as gmm.em_fit specifies.

    The fit runs on z = (x - c) / s: c is the midrange and s the power of two
    at or just above the half-range (1 for constant samples). A cycle takes
    plain steps p -> p1 -> p2, then evaluates p' = p2 + (a - 1)(2 r + (a + 1) v),
    that is p + 2 a r + a^2 v, in (log weight, mean, log std), with
    r = p1 - p, v = p2 - 2 p1 + p and a = max(1, |r| / |v|) capped by a bound
    that starts at 1, grows 4-fold after an accepted step at the bound and
    shrinks 4-fold (not below 1) after a rejected one. p' is accepted when
    its log-likelihood is finite and at least p1's, and no component starves;
    the path then continues from its M-step, else from p2. The fit converges
    on a plain step p -> p1 that moves the log-likelihood by less than
    tol * n and reports p1; E-step number max_iter (counting from 0) reports
    the last accepted point, unconverged.

    The sums, products and norms run in the package's order: the a^2 term
    multiplies a one-ulp difference in the parameters by up to a^2, and on
    the slow K = 3 fits of tests/test_em_lanes.py a one-ulp change in the
    starting means moves the final parameters by up to 8e-9.
    """
    if n_components < 1:
        raise ValueError(f"n_components must be >= 1, got {n_components}")
    x = np.asarray(samples, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    n = x.size
    if n < n_components:
        raise InsufficientSamplesError(f"{n} samples cannot support {n_components} components")
    lo, hi = x.min() / 2, x.max() / 2
    centre = lo + hi
    scale = 2.0 ** math.frexp(hi - lo)[1]
    z = (x - centre) / scale
    floor = _SIGMA_FLOOR * float(z.std())
    if floor <= 0:
        floor = 1e-9
    shift = n * math.log(scale)  # log-likelihood of z minus that of x
    rng = np.random.default_rng(config.init_seed)

    def e_step(params):
        log_comp = _reference_log_comp(z, *params)
        peak = log_comp.max(axis=0)
        peak[~np.isfinite(peak)] = 0.0  # as scipy's logsumexp does
        dens = np.exp(log_comp - peak)
        total = dens.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return float((np.log(total) + peak).sum()), dens / total

    def m_step(resp):
        totals = resp.sum(axis=1)
        means = (resp * z).sum(axis=1) / totals
        var = ((z[None, :] - means[:, None]) ** 2 * resp).sum(axis=1)
        return totals / n, means, np.maximum(np.sqrt(var / totals), floor)

    def theta(params):
        weights, means, stds = params
        return [np.log(weights), means, np.log(stds)]

    def report(params, converged):
        ll_trace = np.array(trace) - shift
        weights, means, stds = params
        return FitReport(
            model=make_model(weights, centre + scale * means, scale * stds),
            log_likelihood=float(ll_trace[-1]),
            bic=bic(float(ll_trace[-1]), n, n_free_params(n_components)),
            iterations=e,
            converged=converged,
            n_samples=n,
            ll_trace=ll_trace,
        )

    def check_plain_step(ll, prev, resp):
        if not math.isfinite(ll):
            raise DegenerateFitError(f"log-likelihood became {ll - shift!r}")
        if ll < prev - 1e-9:
            raise DegenerateFitError(
                f"log-likelihood decreased from {prev - shift!r} to {ll - shift!r}"
            )
        totals = resp.sum(axis=1)
        if totals.min() < 1e-12:
            starved = int(np.argmin(totals))
            raise DegenerateFitError(
                f"component {starved} lost all responsibility (total {float(totals[starved])!r})"
            )

    trace: list[float] = []  # the accepted path
    step_max = 1.0
    buffers = np.empty((2, 1, n_components, z.size))
    params = [
        a[0] for a in _initial_params(z[None], n_components, [rng], np.array([floor]), buffers)
    ]
    e = 0  # E-steps so far, the one running not counted
    while True:
        ll, resp = e_step(params)
        prev = trace[-1] if trace else -math.inf
        trace.append(ll)
        if e == config.max_iter:
            return report(params, False)
        check_plain_step(ll, prev, resp)
        p1 = m_step(resp)
        e += 1

        ll1, resp1 = e_step(p1)
        trace.append(ll1)
        if e == config.max_iter:
            return report(p1, False)
        check_plain_step(ll1, ll, resp1)
        if abs(ll1 - ll) < config.tol * n:
            return report(p1, True)
        p2 = m_step(resp1)
        e += 1

        t0, t1, t2 = theta(params), theta(p1), theta(p2)
        r = [b - a for a, b in zip(t0, t1)]
        v = [c - b - d for b, c, d in zip(t1, t2, r)]
        rr = sum((d * d).sum() for d in r)
        vv = sum((d * d).sum() for d in v)
        a = min(step_max, max(1.0, math.sqrt(rr / vv) if vv > 0 else math.inf))
        log_w, means, log_s = (
            t + (a - 1.0) * (2.0 * dr + (a + 1.0) * dv) for t, dr, dv in zip(t2, r, v)
        )
        with np.errstate(over="ignore"):
            weights = np.exp(log_w - log_w.max())
            extrapolated = (weights / weights.sum(), means, np.maximum(np.exp(log_s), floor))
        ll_x, resp_x = e_step(extrapolated)
        accepted = math.isfinite(ll_x) and resp_x.sum(axis=1).min() >= 1e-12 and ll_x >= ll1
        if accepted:
            trace.append(ll_x)
        if e == config.max_iter:
            return report(extrapolated if accepted else p1, False)
        if accepted:
            params = m_step(resp_x)
            if a == step_max:
                step_max *= 4.0
        else:
            params = p2
            step_max = max(1.0, step_max / 4.0)
        e += 1


def reference_initial_params(z: np.ndarray, k: int, rng: np.random.Generator, floor: float):
    """(weights, means, stds) of one lane's k-means++ start, one component at a
    time: each centre's members give its count weight, mean and std, and a
    centre with no members (a duplicate) gets a token weight of one, the
    centre itself and the std of all of z. Shares only the centre draw with
    gmm._initial_params."""
    centres = _kmeans_pp_centers(z, k, rng)
    labels = np.argmin(np.abs(z[:, None] - centres[None, :]), axis=1)
    weights, means, stds = np.empty(k), np.empty(k), np.empty(k)
    for j in range(k):
        members = z[labels == j]
        if members.size == 0:
            weights[j], means[j], stds[j] = 1.0, centres[j], max(float(z.std()), floor)
        else:
            weights[j], means[j] = members.size, members.mean()
            stds[j] = max(float(members.std()), floor)
    return weights / weights.sum(), means, stds


# Two-atom data gives K = 3 a duplicate-centre component that starves at the
# fourth E-step, the first of the second SQUAREM cycle, where no convergence
# test runs, so the fit fails at any tol; the tests that pin that failure use
# this tol.
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
            seeded = replace(config, init_seed=derive_seed(config.init_seed, k))
            report = reference_squarem_fit(samples, k, seeded)
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


def reference_expected_min(model: GmmModel, theta: float) -> float:
    """E[min(X, theta)] for the mixture, with scipy's ndtr: E[X; X <= theta]
    per component, mu Phi(z) - sigma phi(z), plus theta times the mass above
    theta, which is none at theta = +inf."""
    z = (theta - model.means) / model.stds
    phi = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * z * z)
    below = float(np.sum(model.weights * (model.means * ndtr(z) - model.stds * phi)))
    if theta == math.inf:
        return below
    return below + theta * (1.0 - float(np.sum(model.weights * ndtr(z))))


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


def _parse_timestamp(text: str, lineno: int) -> datetime:
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise TraceParseError(f"line {lineno}: bad timestamp {text!r}: {exc}") from None
    if ts.minute or ts.second or ts.microsecond:
        raise TraceParseError(
            f"line {lineno}: timestamp {text!r} is not on an hour boundary"
        )
    return ts


def _parse_value(text: str, name: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise TraceParseError(f"line {lineno}: bad {name} {text!r}") from None
    if not math.isfinite(value):
        raise TraceParseError(f"line {lineno}: {name} {text!r} is not finite")
    return value


def _read_rows(path, header: tuple[str, str]) -> list[tuple[datetime, float]]:
    # utf-8-sig drops the byte-order mark that spreadsheet exports often lead with
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        if first is None:
            raise EmptyTraceError("file is empty")
        got = tuple(cell.strip().lower() for cell in first)
        if got != header:
            raise TraceParseError(
                f"expected header {','.join(header)!r}, got {','.join(first)!r}"
            )
        rows = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != 2:
                raise TraceParseError(f"line {lineno}: expected 2 fields, got {len(cells)}")
            ts = _parse_timestamp(cells[0], lineno)
            rows.append((ts, _parse_value(cells[1], header[1], lineno)))
    if not rows:
        raise EmptyTraceError("no data rows")
    return rows


def _rows_to_trace(rows: list[tuple[datetime, float]], cls):
    try:
        rows.sort(key=lambda row: row[0])
    except TypeError:
        raise TraceParseError(
            "cannot mix timezone-aware and naive timestamps in one trace"
        ) from None
    hour = timedelta(hours=1)
    for (prev_ts, _), (ts, _) in zip(rows, rows[1:]):
        delta = ts - prev_ts
        if delta == timedelta(0):
            raise TraceGapError(f"duplicate timestamp {ts.isoformat()}")
        if delta != hour:
            raise TraceGapError(
                f"gap between {prev_ts.isoformat()} and {ts.isoformat()}: "
                f"expected 1 hour, got {delta}"
            )
    values = np.array([value for _, value in rows], dtype=float)
    return cls(rows[0][0], values)


def reference_load_trace(path, header: tuple[str, str], cls):
    """The former per-row trace reader: rows parsed into (datetime, float)
    tuples, sorted by stamp and walked pairwise. Every trace error it raises
    names the file."""
    try:
        return _rows_to_trace(_read_rows(path, header), cls)
    except (TraceParseError, TraceGapError, TraceValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except UnicodeDecodeError:
        # no line number: the decoder reads ahead in chunks
        raise TraceParseError(f"{path}: file is not UTF-8 text") from None

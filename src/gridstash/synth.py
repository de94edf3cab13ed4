"""Seeded synthetic price and load traces for experiments and tests.

Prices come from a mixture, optionally swapped for a second (typically
shifted) mixture during chosen peak hours; loads follow a smooth daily bump
plus nonnegative noise. Identical seeds give identical traces.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np

from . import gmm
from .data_io import DEFAULT_START, HOURS_PER_DAY, LoadTrace, PriceTrace, hours_of_day

DEFAULT_PRICE_MODEL = gmm.make_model(
    weights=(0.5, 0.3, 0.2),
    means=(25.0, 40.0, 65.0),
    stds=(3.0, 5.0, 8.0),
)

DEFAULT_PEAK_HOURS = frozenset(range(17, 21))


def shift_model(model: gmm.GmmModel, delta: float) -> gmm.GmmModel:
    """The same mixture with every component mean moved by delta."""
    return gmm.make_model(
        model.weights, model.means + float(delta), model.stds
    )


def synth_prices(
    n_hours: int,
    seed: int,
    model: gmm.GmmModel = DEFAULT_PRICE_MODEL,
    peak_model: gmm.GmmModel | None = None,
    peak_hours: frozenset[int] = DEFAULT_PEAK_HOURS,
    start: datetime = DEFAULT_START,
) -> PriceTrace:
    """Sample one price per hour; peak hours draw from peak_model when given."""
    if n_hours < 1:
        raise ValueError(f"n_hours must be >= 1, got {n_hours}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    base = gmm.sample_with_rng(model, n_hours, rng)
    if peak_model is None:
        values = base
    else:
        # draw both streams unconditionally so the base stream's draws do not
        # depend on which hours are peak
        alt = gmm.sample_with_rng(peak_model, n_hours, rng)
        mask = np.isin(hours_of_day(start, n_hours), sorted(peak_hours))
        values = np.where(mask, alt, base)
    return PriceTrace(start, values)


def synth_load(
    n_hours: int,
    seed: int,
    base: float = 1.0,
    amplitude: float = 1.0,
    peak_hour: int = 18,
    noise: float = 0.1,
    start: datetime = DEFAULT_START,
) -> LoadTrace:
    """A daily demand bump (standard deviation 3 hours) centered on peak_hour
    plus uniform noise.

    base, amplitude, and noise must be nonnegative so demand stays legal.
    """
    if n_hours < 1:
        raise ValueError(f"n_hours must be >= 1, got {n_hours}")
    if base < 0 or amplitude < 0 or noise < 0:
        raise ValueError("base, amplitude, and noise must all be >= 0")
    if not 0 <= peak_hour < HOURS_PER_DAY:
        raise ValueError(f"peak_hour must lie in 0..23, got {peak_hour}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    hod = hours_of_day(start, n_hours)
    # circular distance so the bump wraps cleanly around midnight
    dist = np.minimum(np.abs(hod - peak_hour), HOURS_PER_DAY - np.abs(hod - peak_hour))
    shape = base + amplitude * np.exp(-0.5 * (dist / 3.0) ** 2)
    values = shape + (rng.uniform(0.0, noise, size=n_hours) if noise > 0 else 0.0)
    return LoadTrace(start, values)

"""Data-driven price estimators feeding the threshold policy.

Three granularities of mixture fitting over a training price trace:

* ``single``       one mixture pooled over all hours;
* ``hourly``       one mixture per hour-of-day (24 models);
* ``peak-offpeak`` two mixtures split by automatically detected peak hours.

Peak hours are those whose hourly mean price exceeds the global mean (or a
chosen quantile of the 24 hourly means). An estimator maps hour-of-day to a
fitted law, which is all the policy needs, and keeps the BIC sweep behind
each law for the CLI to report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gmm
from .data_io import HOURS_PER_DAY, PriceTrace
from .distributions import GmmDistribution, GmmModel
from .errors import InsufficientDataError


class Variant(str, enum.Enum):
    SINGLE = "single"
    HOURLY = "hourly"
    PEAK_OFFPEAK = "peak-offpeak"


@dataclass(frozen=True)
class PeriodLabeling:
    """The peak hours of day; every other hour of 0..23 is off-peak."""

    peak: frozenset[int]

    @property
    def offpeak(self) -> frozenset[int]:
        return frozenset(range(HOURS_PER_DAY)) - self.peak


def detect_periods(prices: PriceTrace, quantile: float | None = None) -> PeriodLabeling:
    """Label each hour-of-day peak iff its mean price exceeds a threshold.

    The threshold is the global mean price by default, or the given quantile
    of the 24 hourly means. Strictly-above, so a flat trace has no peak hours.
    """
    if len(prices) < HOURS_PER_DAY:
        raise InsufficientDataError(
            f"period detection needs at least one full day, got {len(prices)} slots"
        )
    hours = prices.hours_of_day()
    counts = np.bincount(hours, minlength=HOURS_PER_DAY)
    sums = np.bincount(hours, weights=prices.values, minlength=HOURS_PER_DAY)
    hourly_means = sums / counts
    if quantile is None:
        threshold = float(prices.values.mean())
    else:
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        threshold = float(np.quantile(hourly_means, quantile))
    peak = frozenset(int(h) for h in range(HOURS_PER_DAY) if hourly_means[h] > threshold)
    return PeriodLabeling(peak)


@dataclass(frozen=True, eq=False)
class PriceEstimator:
    """A fitted estimator: hour-of-day -> mixture, and the BIC sweep behind each.

    ``hour_index[h]`` points into ``selections`` for hour h; the indirection
    keeps one representation for all variants (1, 2, or 24 sub-models).
    ``labeling`` is the peak-hour split of peak-offpeak, None otherwise.
    """

    selections: tuple[gmm.Selection, ...]
    hour_index: tuple[int, ...]
    labeling: PeriodLabeling | None

    @property
    def models(self) -> tuple[GmmModel, ...]:
        """The picked mixture of each sub-model, indexed like ``selections``."""
        return tuple(sel.best.model for sel in self.selections)

    @cached_property
    def laws(self) -> tuple[GmmDistribution, ...]:
        """The price law of each hour of day; hours of one model share one law."""
        dists = tuple(GmmDistribution(m) for m in self.models)
        return tuple(dists[i] for i in self.hour_index)


def _component_cap(n_samples: int, max_components: int) -> int:
    # roughly ten samples per component, but never below one
    return max(1, min(max_components, n_samples // 10))


def fit_estimator(
    prices: PriceTrace,
    variant: Variant | str,
    max_components: int = 8,
    config: gmm.EmConfig = gmm.EmConfig(),
    quantile: float | None = None,
) -> PriceEstimator:
    """Fit the chosen estimator variant on a training price trace.

    A variant only chooses which sub-model each hour-of-day belongs to and
    the seed key of each sub-model: single (0,), hourly (1, h), peak-offpeak
    (4,) off-peak and (3,) peak, or (2,) when a degenerate labeling (no peak
    or no off-peak hours) collapses it to one pooled model. Every sub-model
    then runs the EM sweep with BIC selection on the prices of its hours;
    select_models seeds it from config.init_seed and its key, so results do
    not depend on fit order, and fits the sub-models together, one EM lane
    per group. Only peak-offpeak takes a quantile.
    """
    variant = Variant(variant)
    if max_components < 1:
        raise ValueError(f"max_components must be >= 1, got {max_components}")
    if quantile is not None and variant is not Variant.PEAK_OFFPEAK:
        raise ValueError(f"quantile applies only to peak-offpeak, not to {variant.value}")
    labeling = None
    if variant is Variant.SINGLE:
        hour_index, keys = (0,) * HOURS_PER_DAY, [(0,)]
    elif variant is Variant.HOURLY:
        if len(prices) < HOURS_PER_DAY:
            raise InsufficientDataError(
                f"hourly estimator needs at least one full day, got {len(prices)} slots"
            )
        hour_index, keys = tuple(range(HOURS_PER_DAY)), [(1, h) for h in range(HOURS_PER_DAY)]
    else:
        labeling = detect_periods(prices, quantile)
        if labeling.peak and labeling.offpeak:
            hour_index = tuple(int(h in labeling.peak) for h in range(HOURS_PER_DAY))
            keys = [(4,), (3,)]
        else:
            hour_index, keys = (0,) * HOURS_PER_DAY, [(2,)]
    hour_groups = np.asarray(hour_index)[prices.hours_of_day()]
    groups = [prices.values[hour_groups == g] for g in range(len(keys))]
    sels = gmm.select_models(
        groups, [_component_cap(g.size, max_components) for g in groups], config, keys
    )
    return PriceEstimator(tuple(sels), hour_index, labeling)

"""Data-driven price estimators feeding the threshold policy.

Three granularities of mixture fitting over a training price trace:

* ``single``       one mixture pooled over all hours;
* ``hourly``       one mixture per hour-of-day (24 models);
* ``peak-offpeak`` two mixtures split by automatically detected peak hours.

Peak hours are those whose hourly mean price exceeds the global mean (or a
chosen quantile of the 24 hourly means). An estimator maps hour-of-day to a
fitted law, which is all the policy needs.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gmm
from .data_io import HOURS_PER_DAY, PriceTrace
from .distributions import GmmDistribution
from .errors import InsufficientDataError


class Variant(str, enum.Enum):
    SINGLE = "single"
    HOURLY = "hourly"
    PEAK_OFFPEAK = "peak-offpeak"


@dataclass(frozen=True)
class PeriodLabeling:
    """A partition of the 24 hours into peak and off-peak sets."""

    peak: frozenset[int]
    offpeak: frozenset[int]

    def __post_init__(self) -> None:
        if self.peak & self.offpeak:
            raise ValueError("peak and offpeak overlap")
        if self.peak | self.offpeak != frozenset(range(HOURS_PER_DAY)):
            raise ValueError("labeling must cover all 24 hours")

    def is_peak(self, hour: int) -> bool:
        return hour in self.peak


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
    return PeriodLabeling(peak=peak, offpeak=frozenset(range(HOURS_PER_DAY)) - peak)


@dataclass(frozen=True)
class PriceEstimator:
    """A fitted estimator: hour-of-day -> mixture, plus how it was built.

    ``hour_index[h]`` points into ``models`` for hour h; the indirection keeps
    one representation for all variants (1, 2, or 24 distinct models).
    """

    variant: Variant
    models: tuple[gmm.GmmModel, ...]
    hour_index: tuple[int, ...]
    labeling: PeriodLabeling | None = None
    quantile: float | None = None
    # Selection.diagnostics() of each model; absent on an estimator loaded from JSON
    fit_diagnostics: tuple[dict, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.hour_index) != HOURS_PER_DAY:
            raise ValueError("hour_index must have 24 entries")
        if not self.models:
            raise ValueError("estimator has no models")
        if any(not 0 <= i < len(self.models) for i in self.hour_index):
            raise ValueError("hour_index points outside models")
        expected = {
            Variant.SINGLE: {1},
            Variant.HOURLY: {HOURS_PER_DAY},
            Variant.PEAK_OFFPEAK: {1, 2},
        }[self.variant]
        if len(self.models) not in expected:
            raise ValueError(
                f"{self.variant.value} estimator cannot have {len(self.models)} models"
            )
        object.__setattr__(
            self, "_dists", tuple(GmmDistribution(m) for m in self.models)
        )

    def distribution_for_hour(self, hour: int) -> GmmDistribution:
        return self._dists[self.hour_index[hour % HOURS_PER_DAY]]


def _component_cap(n_samples: int, max_components: int) -> int:
    # roughly ten samples per component, but never below one
    return max(1, min(max_components, n_samples // 10))


def _select(groups, max_components: int, config: gmm.EmConfig, keys) -> list[gmm.Selection]:
    """BIC-select one mixture per sample group, group i seeded from keys[i]."""
    return gmm.select_models(
        groups,
        [_component_cap(g.size, max_components) for g in groups],
        [gmm.derive_config(config, *key) for key in keys],
    )


def fit_estimator(
    prices: PriceTrace,
    variant: Variant | str,
    max_components: int = 8,
    config: gmm.EmConfig = gmm.EmConfig(),
    quantile: float | None = None,
) -> PriceEstimator:
    """Fit the chosen estimator variant on a training price trace.

    Every sub-model runs the EM sweep with BIC selection; each gets its own
    seed derived from the config seed so results do not depend on fit order.
    The 24 hourly sub-models are fitted together, one EM lane per hour.
    A degenerate peak labeling (no peak or no off-peak hours) collapses the
    two-period variant to a single pooled model.
    """
    variant = Variant(variant)
    values = prices.values
    if variant is Variant.SINGLE:
        (sel,) = _select([values], max_components, config, [(0,)])
        return PriceEstimator(variant, (sel.best.model,), (0,) * HOURS_PER_DAY, fit_diagnostics=(sel.diagnostics(),))
    if variant is Variant.HOURLY:
        if len(prices) < HOURS_PER_DAY:
            raise InsufficientDataError(
                f"hourly estimator needs at least one full day, got {len(prices)} slots"
            )
        hours = prices.hours_of_day()
        sels = _select(
            [values[hours == h] for h in range(HOURS_PER_DAY)],
            max_components,
            config,
            [(1, h) for h in range(HOURS_PER_DAY)],
        )
        return PriceEstimator(
            variant,
            tuple(sel.best.model for sel in sels),
            tuple(range(HOURS_PER_DAY)),
            fit_diagnostics=tuple(sel.diagnostics() for sel in sels),
        )
    labeling = detect_periods(prices, quantile)
    if not labeling.peak or not labeling.offpeak:
        (sel,) = _select([values], max_components, config, [(2,)])
        return PriceEstimator(
            Variant.PEAK_OFFPEAK,
            (sel.best.model,),
            (0,) * HOURS_PER_DAY,
            labeling=labeling,
            quantile=quantile,
            fit_diagnostics=(sel.diagnostics(),),
        )
    peak_mask = np.isin(prices.hours_of_day(), sorted(labeling.peak))
    sels = _select([values[~peak_mask], values[peak_mask]], max_components, config, [(4,), (3,)])
    hour_index = tuple(1 if labeling.is_peak(h) else 0 for h in range(HOURS_PER_DAY))
    return PriceEstimator(
        Variant.PEAK_OFFPEAK,
        tuple(sel.best.model for sel in sels),
        hour_index,
        labeling=labeling,
        quantile=quantile,
        fit_diagnostics=tuple(sel.diagnostics() for sel in sels),
    )


def estimator_to_json_dict(estimator: PriceEstimator) -> dict:
    doc = {
        "variant": estimator.variant.value,
        "models": [gmm.model_to_json_dict(m) for m in estimator.models],
        "hour_index": list(estimator.hour_index),
    }
    if estimator.labeling is not None:
        doc["peak_hours"] = sorted(estimator.labeling.peak)
    if estimator.quantile is not None:
        doc["quantile"] = estimator.quantile
    return doc


def estimator_from_json_dict(doc: dict) -> PriceEstimator:
    try:
        labeling = None
        if "peak_hours" in doc:
            peak = frozenset(int(h) for h in doc["peak_hours"])
            labeling = PeriodLabeling(peak, frozenset(range(HOURS_PER_DAY)) - peak)
        return PriceEstimator(
            variant=Variant(doc["variant"]),
            models=tuple(gmm.model_from_json_dict(m) for m in doc["models"]),
            hour_index=tuple(int(i) for i in doc["hour_index"]),
            labeling=labeling,
            quantile=doc.get("quantile"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed estimator document: {exc}") from None


def save_estimator(estimator: PriceEstimator, path) -> None:
    Path(path).write_text(
        json.dumps(estimator_to_json_dict(estimator), indent=2) + "\n", encoding="utf-8"
    )


def load_estimator(path) -> PriceEstimator:
    return estimator_from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))

"""Storage sizing: hindsight cost as a function of capacity, and the largest
capacity whose marginal saving still beats an amortized per-unit price.

The minimum-cost curve MinC(B) is non-increasing with diminishing marginal
savings (each extra unit of capacity helps no more than the previous one;
equivalently the savings curve MinC(0) - MinC(B) is concave). The economic
capacity is the last grid point whose segment still saves at least the
amortized capacity price per unit. Sizing uses no price law, fit or policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .data_io import LoadTrace, PriceTrace, ensure_aligned
from .decomposition import WindowMinima, decompose, offline_cost


@dataclass(frozen=True, eq=False)
class SizingCurve:
    """Hindsight cost sampled on a capacity grid.

    Validates shape on construction: capacities strictly increasing and
    nonnegative, costs non-increasing, marginal savings non-increasing. The
    cost slack is 1e-9 of the largest |cost|; a marginal saving, a cost per
    unit of capacity, gets that slack over the narrower of its two segments.
    """

    capacities: tuple[float, ...]
    costs: tuple[float, ...]

    def __post_init__(self) -> None:
        caps = tuple(float(b) for b in self.capacities)
        costs = tuple(float(c) for c in self.costs)
        if len(caps) != len(costs):
            raise ValueError(f"{len(caps)} capacities vs {len(costs)} costs")
        if len(caps) < 2:
            raise ValueError("curve needs at least two grid points")
        if caps[0] < 0 or any(b2 <= b1 for b1, b2 in zip(caps, caps[1:])):
            raise ValueError("capacities must be nonnegative and strictly increasing")
        slack = 1e-9 * max(abs(c) for c in costs)
        for i, (c1, c2) in enumerate(zip(costs, costs[1:])):
            if c2 > c1 + slack:
                raise ValueError(
                    f"cost increases from {c1!r} to {c2!r} at grid index {i}"
                )
        marg = _marginal_savings(caps, costs)
        for i, (m1, m2) in enumerate(zip(marg, marg[1:])):
            width = min(caps[i + 1] - caps[i], caps[i + 2] - caps[i + 1])
            if m2 > m1 + slack / width:
                raise ValueError(
                    f"marginal saving rises from {m1!r} to {m2!r} at segment {i}"
                )
        object.__setattr__(self, "capacities", caps)
        object.__setattr__(self, "costs", costs)

    def marginal_savings(self) -> tuple[float, ...]:
        """Per-unit saving of each grid segment, clipped at zero."""
        return _marginal_savings(self.capacities, self.costs)


def _marginal_savings(caps: Sequence[float], costs: Sequence[float]) -> tuple[float, ...]:
    return tuple(
        max(0.0, (c1 - c2) / (b2 - b1))
        for b1, b2, c1, c2 in zip(caps, caps[1:], costs, costs[1:])
    )


@dataclass(frozen=True)
class SizingResult:
    capacity: float
    amortized_price: float
    cost_at_capacity: float


def min_cost_curve(
    prices: PriceTrace, load: LoadTrace, capacities: Sequence[float]
) -> SizingCurve:
    """Hindsight-optimal cost at each capacity for one realized trace pair.

    Each capacity's cost is offline_optimal_general's; the prices are the same
    at every capacity, so one window-minimum table serves the whole grid.
    """
    ensure_aligned(prices, load)
    minima = WindowMinima(prices.values)
    costs = [offline_cost(minima, decompose(load, float(b))) for b in capacities]
    return SizingCurve(tuple(float(b) for b in capacities), tuple(costs))


def optimal_capacity(curve: SizingCurve, amortized_price: float) -> SizingResult:
    """Largest grid capacity whose segment saves >= the amortized unit price.

    Because marginal savings are non-increasing, the segments clearing the
    price form a prefix; the answer is that prefix's upper endpoint, or the
    smallest grid capacity when even the first segment does not clear it.
    Free capacity (price 0) selects the top of the grid.
    """
    if not math.isfinite(amortized_price) or amortized_price < 0:
        raise ValueError(f"amortized price must be finite and >= 0, got {amortized_price!r}")
    best = 0
    for i, saving in enumerate(curve.marginal_savings()):
        if saving >= amortized_price:
            best = i + 1
        else:
            break
    return SizingResult(
        capacity=curve.capacities[best],
        amortized_price=amortized_price,
        cost_at_capacity=curve.costs[best],
    )

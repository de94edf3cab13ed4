"""Exception types shared across the package.

Everything raised on bad input or a failed computation derives from
GridstashError so callers can catch package failures with one except clause;
plain ValueError is reserved for outright API misuse (wrong argument types,
nonsensical constants) caught during development.
"""

from __future__ import annotations


class GridstashError(Exception):
    """Base class for all package-specific failures."""


class TraceParseError(GridstashError):
    """A trace file is malformed: bad header, bad row, bad timestamp or value."""


class EmptyTraceError(TraceParseError):
    """A trace file contains a header but no data rows."""


class TraceGapError(GridstashError):
    """Consecutive timestamps are not exactly one hour apart."""


class TraceValidationError(GridstashError):
    """Trace values violate a domain constraint (e.g. negative demand)."""


class AlignmentError(GridstashError):
    """Paired price/load traces do not share start timestamp and length."""


class InsufficientDataError(GridstashError):
    """Not enough rows/samples for the requested operation."""


class InsufficientSamplesError(InsufficientDataError):
    """Fewer samples than mixture components requested."""


class DegenerateFitError(GridstashError):
    """EM collapsed: a component lost all responsibility or the likelihood broke."""


class LengthMismatchError(GridstashError):
    """Arrays that must be slot-aligned have different lengths."""


class InfeasibleDispatchError(GridstashError):
    """A policy run produced a dispatch that breaks balance, sign or storage bounds."""


class AssignmentWindowError(GridstashError):
    """A purchase slot falls outside its demand piece's feasible window."""


class NonpositiveOptimumError(GridstashError):
    """A cost ratio was requested against a zero or negative offline optimum."""


class NegativeSupportError(GridstashError):
    """A bound calculator received a distribution with mass below zero."""


class ZeroBetaSumError(GridstashError):
    """The density-infimum sum in the regret bound is zero; the bound is undefined."""


class BoundDomainError(GridstashError):
    """Closed-form bound parameters leave the formula's domain."""


class InstanceTooLargeError(GridstashError):
    """An exhaustive oracle was asked to enumerate more states than its cap."""

"""Exception types shared across the package; they decide the CLI exit codes.

Everything raised on a bad trace or a failed computation derives from
GridstashError. An InputError (a trace that cannot be read or paired) exits 2,
a FitError 3 and any other GridstashError 4. Plain ValueError (a bad option,
config or model file, or API misuse) and OSError also exit 2.
"""

from __future__ import annotations


class GridstashError(Exception):
    """Base class for all package-specific failures."""


class InputError(GridstashError):
    """An input trace cannot be read, checked or paired: exit code 2."""


class FitError(GridstashError):
    """A mixture fit failed: exit code 3."""


class TraceParseError(InputError):
    """A trace file is malformed: bad header, bad row, bad timestamp or value."""


class EmptyTraceError(TraceParseError):
    """A trace has no data: an empty file, a header with no data rows, or no values."""


class TraceGapError(InputError):
    """Consecutive timestamps are not exactly one hour apart."""


class TraceValidationError(InputError):
    """Trace values violate a domain constraint (e.g. negative demand)."""


class AlignmentError(InputError):
    """Paired price/load traces do not share start timestamp and length."""


class InsufficientDataError(GridstashError):
    """Not enough rows/samples for the requested operation."""


class InsufficientSamplesError(InsufficientDataError, FitError):
    """Fewer samples than mixture components requested."""


class DegenerateFitError(FitError):
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

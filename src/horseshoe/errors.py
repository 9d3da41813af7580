"""Exception hierarchy shared by the whole package.

Every class here is a genuine error; each derives from ``HorseshoeError``.
"""


class HorseshoeError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(HorseshoeError):
    """A constructor or operation argument is outside its admissible range."""


class OutOfDomainError(HorseshoeError):
    """A point lies outside the strip (or image strip) of the requested branch."""

    def __init__(self, message, strip=None, point=None):
        super().__init__(message)
        self.strip = strip
        self.point = point


class ItineraryError(HorseshoeError):
    """A requested backward itinerary is infeasible for the given point."""


class ResolutionError(HorseshoeError):
    """A radius or scale is below the resolution the data can support."""


class DegenerateScaleError(HorseshoeError):
    """A scale parameter degenerates the construction (e.g. r >= |J|)."""


class DegenerateExtensionError(HorseshoeError):
    """The extended fiber adds no usable margin around the unit fiber."""


class SampleDiscardError(HorseshoeError):
    """Too many orbit samples were discarded for the estimate to be trusted."""

    def __init__(self, message, discarded, total):
        super().__init__(message)
        self.discarded = discarded
        self.total = total


class BudgetError(HorseshoeError):
    """An enumeration or pair sweep exceeded its configured budget."""


class CacheError(HorseshoeError):
    """A cache file failed its version or digest check."""


class ConfigError(HorseshoeError):
    """Run configuration is invalid (CLI exit code 2)."""


class StageError(HorseshoeError):
    """A pipeline stage failed (CLI exit code 3).

    Wraps the original exception and remembers the stage name so the partial
    manifest can point at it.
    """

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause

"""Exception types shared across the package."""


class ZonoinvError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(ZonoinvError, ValueError):
    """Inputs have inconsistent or invalid shapes, or non-finite entries."""


class RankDeficientError(ZonoinvError, ValueError):
    """A generator matrix has fewer columns than rows (or lacks full row rank)."""


class DomainError(ZonoinvError, ValueError):
    """An evaluation point lies outside the domain of the function."""


class UnsupportedError(ZonoinvError, ValueError):
    """The request is outside the supported range (e.g. oracle dimension)."""


class SchemaError(ZonoinvError, ValueError):
    """A problem/config/solution file is malformed; the message names the field."""

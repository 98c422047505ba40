"""Exception types shared across the package."""


class RareSamplerError(Exception):
    """Base class for all package errors."""


class InvalidInputError(RareSamplerError, ValueError):
    """An argument violates a documented precondition."""


class NumericalError(RareSamplerError, RuntimeError):
    """A linear-algebra or optimization step failed beyond recovery."""


class OracleError(RareSamplerError):
    """An oracle evaluation failed; the message names the offending request."""


class ConfigError(RareSamplerError):
    """A configuration file failed validation; the message carries a line number."""

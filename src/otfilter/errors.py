"""Exception types shared across the package."""


class OTFilterError(Exception):
    """Base class for all otfilter errors."""


class InvalidEnsembleError(OTFilterError):
    """Ensemble members are malformed (ragged, empty, or non-finite)."""


class InsufficientSamplesError(OTFilterError):
    """An operation needs more ensemble members than were supplied."""


class DecompositionError(OTFilterError):
    """A covariance matrix failed its required factorization."""


class InvalidMeasurementError(OTFilterError):
    """A measurement series holds a non-finite value; names the first bad step."""


class MarginalInfeasibilityError(OTFilterError):
    """Transport marginals are inconsistent (wrong size or mass)."""


class InvalidPlanError(OTFilterError):
    """A transport plan does not match the ensemble it is applied to."""


class NonconvergenceError(OTFilterError):
    """The transport solver hit its iteration limit or lost feasibility."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class EmptySupportError(OTFilterError):
    """Every proposal sample has zero target density."""


class ConfigError(OTFilterError):
    """An experiment configuration is malformed or inconsistent."""

"""Exception taxonomy shared across the package.

The CLI maps these onto its exit codes: configuration problems
(:class:`ConfigError`, :class:`InsufficientData`, :class:`ShapeError`) -> 2,
missing artifacts -> 3, numeric failures (:class:`NumericalError`,
:class:`IntegrationDiverged`, :class:`FilterDiverged`,
:class:`GenerationFailed`, :class:`InvalidLikelihoods`) -> 4, integrity
failures -> 5.
"""


class ReachmonError(Exception):
    """Base class for all package errors."""


class IntegrationDiverged(ReachmonError):
    """Simulation produced a non-finite state."""


class ShapeError(ReachmonError):
    """An array argument has the wrong shape or length."""


class GenerationFailed(ReachmonError):
    """Dataset generation exhausted its resampling budget."""


class NumericalError(ReachmonError):
    """Training or evaluation produced non-finite values; a diverged training
    run carries its per-epoch ``loss_history``, non-finite value last."""

    def __init__(self, message, loss_history=None):
        super().__init__(message)
        self.loss_history = loss_history


class InvalidLikelihoods(ReachmonError):
    """Class likelihoods are not a normalized probability vector."""


class FilterDiverged(ReachmonError):
    """State-estimation filter lost positive definiteness or produced a
    non-finite state."""


class InsufficientData(ReachmonError):
    """Not enough samples for the requested operation."""


class DegenerateRule(UserWarning):
    """Rejection rule trained on single-class data; decision is constant."""


class IntegrityError(ReachmonError):
    """Stored artifact failed checksum or version validation."""


class ConfigError(ReachmonError):
    """Configuration file or option failed validation."""


class MissingArtifact(ReachmonError):
    """A required upstream artifact (dataset, bundle, checkpoint) is absent."""

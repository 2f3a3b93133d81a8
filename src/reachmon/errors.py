"""Exception taxonomy shared across the package.

Each concrete error class states the CLI's exit status for it and the
prefix of its stderr line, as ``exit_status, label``: 2 for a configuration
error, 3 for a missing artifact, 4 for a numeric failure and 5 for an
integrity failure.  The CLI exits 0 on success and 2 on a malformed command
line too.
"""


class ReachmonError(Exception):
    """Base class for all package errors; never raised itself."""


class IntegrationDiverged(ReachmonError):
    """Simulation produced a non-finite state."""
    exit_status, label = 4, "numeric failure"


class ShapeError(ReachmonError):
    """An array argument has the wrong shape or length."""
    exit_status, label = 2, "config error"


class GenerationFailed(ReachmonError):
    """Dataset generation exhausted its resampling budget."""
    exit_status, label = 4, "numeric failure"


class NumericalError(ReachmonError):
    """Training or evaluation produced non-finite values; a diverged training
    run carries its per-epoch ``loss_history``, non-finite value last."""
    exit_status, label = 4, "numeric failure"

    def __init__(self, message, loss_history=None):
        super().__init__(message)
        self.loss_history = loss_history


class InvalidLikelihoods(ReachmonError):
    """Class likelihoods are not a normalized probability vector."""
    exit_status, label = 4, "numeric failure"


class FilterDiverged(ReachmonError):
    """State-estimation filter lost positive definiteness or produced a
    non-finite state."""
    exit_status, label = 4, "numeric failure"


class InsufficientData(ReachmonError):
    """Not enough samples for the requested operation."""
    exit_status, label = 2, "config error"


class DegenerateRule(UserWarning):
    """Rejection rule trained on single-class data; decision is constant."""


class IntegrityError(ReachmonError):
    """Stored artifact failed checksum or version validation."""
    exit_status, label = 5, "integrity failure"


class ConfigError(ReachmonError):
    """Configuration file or option failed validation."""
    exit_status, label = 2, "config error"


class MissingArtifact(ReachmonError):
    """A required upstream artifact (dataset, bundle, checkpoint) is absent."""
    exit_status, label = 3, "missing artifact"

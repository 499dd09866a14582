"""Exception types shared across the package."""


class DomainError(ValueError):
    """A point lies outside the open domain of a distance generator."""


class TimeDomainError(ValueError):
    """A time falls outside a schedule family's admissible interval."""


class ConfigurationError(ValueError):
    """Invalid construction parameters or experiment configuration."""


class PreconditionError(ValueError):
    """A documented operation precondition is violated."""


class MappingError(ValueError):
    """A parameter mapping's admissibility condition fails on the grid."""


class NumericalError(RuntimeError):
    """Numerical failure (singular solve, overflow) with context."""


class IntegrationError(NumericalError):
    """The flow left the generator's domain mid-integration."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class DivergenceError(NumericalError):
    """Non-finite values appeared during integration."""


class FitError(RuntimeError):
    """Too few usable samples for a rate fit."""


class ScheduleError(ValueError):
    """A smoothing-parameter schedule is invalid on the horizon."""

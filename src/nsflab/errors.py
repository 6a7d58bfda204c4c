"""Exception types shared across the package."""


class DomainError(ValueError):
    """Inputs outside the physical domain (non-finite, theta <= 0, rho < 0)."""


class ModelViolationError(ValueError):
    """A structural requirement of the closure failed (sign, boundedness)."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not converge; the message names the achieved tolerance."""


class UsageError(ValueError):
    """API misuse: mismatched grids, missing instants, unfilled ghosts."""


class PositivityError(RuntimeError):
    """A run lost positivity (rho or internal energy); carries cell info."""

    def __init__(self, message: str, where=None):
        super().__init__(message)
        self.where = where


class ConfigError(ValueError):
    """Bad or unknown keys in a run configuration file."""

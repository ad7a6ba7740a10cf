"""Exception hierarchy shared across the package."""


class CrowdIrlError(Exception):
    """Base class for all package errors."""


class ValidationError(CrowdIrlError, ValueError):
    """An argument violates a documented precondition."""


class CostRangeError(ValidationError):
    """Finite inputs whose cost terms overflow; source is "weights" or "states"."""

    def __init__(self, message: str, source: str):
        super().__init__(message)
        self.source = source


class FormatError(CrowdIrlError, ValueError):
    """External data (frame stream, trajectory file, config) is malformed."""


class SolverError(CrowdIrlError, RuntimeError):
    """Numerical failure inside the game solver (e.g. singular gain system)."""

    def __init__(self, message: str, timestep: int | None = None):
        super().__init__(message if timestep is None else f"{message} (timestep {timestep})")
        self.timestep = timestep


class InternalError(CrowdIrlError, RuntimeError):
    """An internal invariant that should be unreachable was violated."""

"""Exception types shared across the library."""


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class InfeasibleBodyError(RuntimeError):
    """No strictly feasible interior point could be found."""


class FlatBodyError(RuntimeError):
    """Sample covariance collapsed below the eigenvalue floor."""


class PatchNotFoundError(RuntimeError):
    """No stable-gradient patch met the acceptance fraction.

    Carries the best fraction observed so callers can report how close the
    search came.
    """

    def __init__(self, message: str, best_fraction: float = 0.0):
        super().__init__(message)
        self.best_fraction = best_fraction


class CoverError(RuntimeError):
    """Direction cover could not be built or verified.

    ``worst_direction`` / ``worst_value`` describe the most uncovered witness
    when verification is what failed.
    """

    def __init__(self, message: str, worst_direction=None, worst_value=None):
        super().__init__(message)
        self.worst_direction = worst_direction
        self.worst_value = worst_value


class StepFailureError(RuntimeError):
    """Two-point selection found no point separating the surrogate losses."""


class ObservationMismatchError(RuntimeError):
    """Deterministic posterior update zeroed out every scenario."""


class ConfigError(ValueError):
    """Invalid CLI configuration (bad file, flag, or dimension)."""


# Construction failures: another seed may succeed, and the CLI exits 3.
CONSTRUCTION_ERRORS = (CoverError, PatchNotFoundError, FlatBodyError,
                       InfeasibleBodyError)

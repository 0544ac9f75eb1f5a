"""Exception types shared across the library."""


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class InfeasibleBodyError(RuntimeError):
    """A body offers no room where one was needed.

    Raised for an empty, unbounded or flat polytope, a failed argmin solve,
    a fiber lift whose zero-length chord lies off its host, and rejection
    sampling that runs out of proposals.
    """


class FlatBodyError(RuntimeError):
    """Sample covariance collapsed below the eigenvalue floor."""


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
CONSTRUCTION_ERRORS = (CoverError, FlatBodyError, InfeasibleBodyError)

"""Exception hierarchy shared by all llgpc modules."""


class LlgpcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(LlgpcError, ValueError):
    """A function argument violates its documented precondition."""


class ConfigError(LlgpcError, ValueError):
    """A run/sweep configuration is inconsistent or incomplete."""


class ParseError(LlgpcError, ValueError):
    """A mesh text file could not be parsed."""


class GeometryError(LlgpcError, ValueError):
    """A mesh is geometrically invalid: a non-finite coordinate or a
    non-positive tet volume."""


class ProjectionDegenerateError(LlgpcError):
    """Nodal sphere projection hit a vector of (near-)zero length."""

    def __init__(self, vertex: int, modulus: float):
        self.vertex = vertex
        self.modulus = modulus
        super().__init__(
            f"cannot project node {vertex} onto the sphere: |u| = {modulus:.3e}"
        )


class NoConvergenceError(LlgpcError):
    """An iterative solver exhausted its iteration budget.

    Carries the best iterate seen so far and its residual so callers can
    diagnose or salvage the run.
    """

    def __init__(self, message: str, best_x=None, residual: float = float("nan"),
                 iterations: int = 0):
        self.best_x = best_x
        self.residual = residual
        self.iterations = iterations
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")


class FixedPointDivergenceError(LlgpcError):
    """The inner fixed-point loop of the fully implicit predictor diverged."""

    def __init__(self, iterations: int, increment: float):
        self.iterations = iterations
        self.increment = increment
        super().__init__(
            f"fixed-point iteration did not converge within {iterations} "
            f"iterations (last increment {increment:.3e})"
        )


class SolverFailure(LlgpcError):
    """A time step failed; wraps the underlying solver error with the step index."""

    def __init__(self, step: int, cause: Exception):
        self.step = step
        self.cause = cause
        super().__init__(f"step {step} failed: {cause}")

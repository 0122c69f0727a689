"""Exception hierarchy shared by all llgpc modules, and the input checks
that raise one of them."""

import math
import numbers

import numpy as np


class LlgpcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(LlgpcError, ValueError):
    """A function argument violates its documented precondition."""


def check_real(x, what: str, positive: bool = False,
               error: type = InvalidParameterError) -> None:
    """Raise `error` unless x is a finite real number that is >= 0, or > 0
    with positive; arrays, strings, bools and NaN are rejected."""
    if isinstance(x, bool) or not (isinstance(x, numbers.Real)
                                   and math.isfinite(x) and x >= 0
                                   and (x > 0 or not positive)):
        raise error(
            f"{what} must be a finite {'positive' if positive else '>= 0'} "
            f"real number, got {x!r}")


def check_int(x, what: str, low: int,
              error: type = InvalidParameterError) -> None:
    """Raise `error` unless x is an integer (numpy integers too, not a
    bool) >= low."""
    if isinstance(x, bool) or not (isinstance(x, numbers.Integral)
                                   and x >= low):
        raise error(f"{what} must be an integer >= {low}, got {x!r}")


def real_array(x, what: str, shape=None) -> np.ndarray:
    """x as a float64 array, of exactly `shape` if one is given.

    The one rule for every array that enters the package: only integer
    and float input passes.  Complex (whose imaginary part a cast would
    drop), bool, string, object (a None entry, say) and ragged input raise
    InvalidParameterError, as does a shape other than `shape`.
    """
    try:
        a = np.asarray(x)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise InvalidParameterError(f"{what} must be real numbers") from exc
    if a.dtype.kind == "c":
        raise InvalidParameterError(f"{what} must be real, not complex")
    if a.dtype.kind not in "iuf":
        raise InvalidParameterError(
            f"{what} must be real numbers, not {a.dtype}")
    a = a.astype(np.float64, copy=False)
    if shape is not None and a.shape != shape:
        raise InvalidParameterError(
            f"{what} must have shape {shape}, got {a.shape}")
    return a


class ConfigError(LlgpcError, ValueError):
    """A run/sweep configuration is inconsistent or incomplete."""


class ParseError(LlgpcError, ValueError):
    """A mesh text file could not be parsed."""


class GeometryError(LlgpcError, ValueError):
    """A mesh is geometrically invalid: a non-finite coordinate, a vertex
    that no tet uses, or a tet whose V/4 is no finite positive float."""


class ProjectionDegenerateError(LlgpcError):
    """Nodal sphere projection hit a vector of (near-)zero length."""

    def __init__(self, vertex: int, modulus: float):
        self.vertex = vertex
        self.modulus = modulus
        super().__init__(
            f"cannot project node {vertex} onto the sphere: |u| = {modulus:.3e}"
        )


class NonFiniteStateError(LlgpcError):
    """A time step produced a state that is not finite."""

    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"the new state is not finite at vertex {vertex}")


class NoConvergenceError(LlgpcError):
    """An iterative solver exhausted its iteration budget.

    Carries the best residual seen and the iteration count, so callers can
    diagnose the run; no iterate is kept.
    """

    def __init__(self, message: str, residual: float = float("nan"),
                 iterations: int = 0):
        self.residual = residual
        self.iterations = iterations
        super().__init__(f"{message} (iterations={iterations}, residual={residual:.3e})")


class SolverFailure(LlgpcError):
    """A time step failed; wraps the underlying solver error with the
    scheme, the step index, the step size k and the time t it started at."""

    def __init__(self, scheme: str, step: int, k: float, t: float,
                 cause: Exception):
        self.scheme = scheme
        self.step = step
        self.k = k
        self.t = t
        self.cause = cause
        super().__init__(
            f"{scheme} step {step} (k={k!r}, from t={t!r}) failed: {cause}")

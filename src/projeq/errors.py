"""Exception hierarchy shared by all projeq modules."""

import math
import numbers


class ProjEqError(Exception):
    """Base class for all library errors."""


class InvalidArgument(ProjEqError, ValueError):
    """A library call got an argument outside what it accepts."""


def check_tol(tol, name: str = "tol") -> None:
    """The one tolerance check: raise InvalidArgument unless tol is a finite
    positive real number (NaN, inf, 0, negatives, bools and anything that is
    not a real number are refused)."""
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not (math.isfinite(tol) and tol > 0.0)):
        raise InvalidArgument(f"{name} must be finite and positive, got {tol!r}")


# --- expression language ---------------------------------------------------

class ExprSyntaxError(ProjEqError):
    def __init__(self, position: int, message: str):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position
        self.message = message


class UnknownIdentifier(ProjEqError):
    def __init__(self, name: str, position: int = -1):
        super().__init__(f"unknown identifier '{name}'"
                         + (f" at position {position}" if position >= 0 else ""))
        self.name = name
        self.position = position


class DomainError(ProjEqError):
    """Evaluation left the domain of a sub-expression (log of non-positive,
    division by zero, abs at zero, overflow, ...).  Grid evaluations also
    name the first offending grid point."""

    def __init__(self, message: str, where: str = "", point=None):
        if where:
            message += f" in '{where}'"
        if point is not None:
            message += f" at grid point ({point[0]:.6g}, {point[1]:.6g})"
        super().__init__(message)
        self.where = where
        self.point = point


class LiteralOverflow(ExprSyntaxError, DomainError):
    """A number literal too large for a double: a syntax error at the
    literal, and an overflow, which evaluation reports as DomainError."""


# --- geometry ---------------------------------------------------------------

class SingularMetric(ProjEqError):
    def __init__(self, x: float, y: float, det: float):
        super().__init__(f"metric singular at ({x:.6g}, {y:.6g}): det = {det:.3e}")
        self.point = (x, y)
        self.det = det


class SignatureMismatch(ProjEqError):
    pass


class InvariantViolation(ProjEqError):
    def __init__(self, message: str, point=None):
        if point is not None:
            message = f"{message} (first offending grid point {point[0]:.6g}, {point[1]:.6g})"
        super().__init__(message)
        self.point = point


# --- dynamics ---------------------------------------------------------------

class ChartExit(ProjEqError):
    def __init__(self, t: float, state, trajectory=None):
        super().__init__(f"trajectory left the chart at t = {t:.6g}")
        self.t = t
        self.state = state
        self.trajectory = trajectory


class StepFailure(ProjEqError):
    pass


class ZeroVelocity(ProjEqError):
    pass


# --- rectification ----------------------------------------------------------

class RectifyError(ProjEqError):
    """Base class for all rectification failures (including 'this input is
    not an integral' style case errors)."""


class NonMonotone(RectifyError):
    pass


class CoefficientVanishes(RectifyError):
    def __init__(self, axis: str, location: float):
        super().__init__(f"integral coefficient on the {axis}-axis vanishes near {location:.6g}")
        self.axis = axis
        self.location = location


class NotAxisAligned(RectifyError):
    """An extreme coefficient of the integral varies across the wrong axis:
    the input is not an integral of the null-form metric."""


class NotAnIntegral(RectifyError):
    def __init__(self, residual: float, point=None):
        msg = f"PDE residuals too large ({residual:.3e}); input is not a first integral"
        super().__init__(msg)
        self.residual = residual
        self.point = point


class NotCase1(RectifyError):
    pass


class NotHolomorphic(RectifyError):
    def __init__(self, residual: float, location=None):
        super().__init__(f"Cauchy-Riemann residual {residual:.3e} exceeds tolerance"
                         + (f" near ({location[0]:.4g}, {location[1]:.4g})" if location else ""))
        self.residual = residual
        self.location = location


class NotCase3(RectifyError):
    pass


class YhatVanishes(RectifyError):
    def __init__(self, location: float):
        super().__init__(f"reparametrization denominator vanishes near y = {location:.6g}")
        self.location = location


class TrivialIntegral(RectifyError):
    pass


class AmbiguousCase(RectifyError):
    pass


# --- cli --------------------------------------------------------------------

class ConfigError(ProjEqError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.json_path = path
        self.message = message

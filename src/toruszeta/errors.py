"""Exception hierarchy shared by all toruszeta modules."""

from __future__ import annotations


class TorusZetaError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(TorusZetaError):
    """Evaluation requested exactly at a pole of the function."""

    def __init__(self, message: str, location: complex | None = None):
        super().__init__(message)
        self.location = location


class RangeError(TorusZetaError):
    """Integer argument (index, order) outside the supported range."""


class ShapeError(TorusZetaError):
    """Array argument has the wrong shape."""


class DomainError(TorusZetaError):
    """Continuous argument outside the operation's domain."""


class DegenerateError(TorusZetaError):
    """Degenerate input (e.g. an empty spectral sum) that is more likely a
    caller bug than intent."""


class ConvergenceError(TorusZetaError):
    """Iterative refinement exhausted its budget before reaching tolerance."""

    def __init__(self, message: str, estimate: complex | None = None,
                 error: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class DescriptorError(TorusZetaError):
    """Asymptotic descriptor inconsistent with the integrand (missing
    divergent terms, wrong ordering, or unsupported borderline exponents)."""


class IllConditionedError(TorusZetaError):
    """Least-squares fit matrix condition number exceeds the safe threshold."""


class SignalLostError(TorusZetaError):
    """Residual dropped below the estimated numerical noise floor, so the
    requested order measurement would fit noise instead of signal."""


class NonFiniteError(TorusZetaError):
    """A result to be reported is inf or nan."""


class ZeroDenominatorError(TorusZetaError):
    """A ratio was requested where the denominator factor vanishes."""

    def __init__(self, message: str, factor: str | None = None):
        super().__init__(message)
        self.factor = factor


class StepTooCoarseWarning(UserWarning):
    """Zero scan step too coarse: adjacent sign changes may have merged."""

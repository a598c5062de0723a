"""Quadrature and Hadamard regularization.

Spectrally convergent 2-D periodic quadrature, and regularized integrals
driven by caller-supplied asymptotic descriptors of the form

    u(z) ~ sum_j c_j z^(a_j) log^(k_j) z        (z -> 0 or z -> oo).

An integrand comes as an ``IntegrandSpec``: an evaluator over a float array
of nodes, which returns an array of the same shape, and its descriptors,
each a sequence of ``AsymptoticTerm``.

The regularized integral subtracts the descriptor terms analytically and
adds back their closed-form regularized antiderivatives, so pure powers
integrate to exactly zero by construction.  Its residual at each end, and
the leading coefficient's in ``expansion``, go through the one graded-panel
routine ``_graded_panels``: it stops on a tolerance test or on the roundoff
floor of the subtraction and reports an achieved error.  Each of its panels
evaluates the integrand and the descriptor once per node, for the residual
and its floor alike.  Every Gauss-Legendre panel rule here and in
``expansion`` takes its nodes, widths and weights from ``_gl_panels``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
# eager: this ~6 ms import would otherwise land inside every integrating job
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, DescriptorError, ShapeError

_OSC_TOL = 1e-13          # reject |Re a| below this with Im a != 0 (pure oscillation)


class Location(enum.Enum):
    AT_ZERO = "zero"
    AT_INFINITY = "infinity"


@dataclass(frozen=True)
class AsymptoticTerm:
    exponent: complex
    log_power: int
    coefficient: complex

    def __post_init__(self):
        if self.log_power < 0:
            raise DescriptorError("log power must be non-negative")


@dataclass(frozen=True)
class AsymptoticDescriptor:
    """Finite power/log expansion of an integrand at 0 or infinity.

    Terms must be ordered by decreasing Re(exponent) for AT_INFINITY and
    increasing for AT_ZERO.  Borderline terms with Re(exponent) = 0 but a
    non-zero imaginary part (pure oscillation) are rejected: the constant
    term of such an expansion is not well defined.
    """

    terms: tuple
    location: Location

    def __post_init__(self):
        terms = tuple(self.terms)
        res = [complex(t.exponent).real for t in terms]
        if self.location is Location.AT_INFINITY:
            if any(res[i] < res[i + 1] - 1e-15 for i in range(len(res) - 1)):
                raise DescriptorError(
                    "AT_INFINITY terms must have non-increasing Re(exponent)")
        else:
            if any(res[i] > res[i + 1] + 1e-15 for i in range(len(res) - 1)):
                raise DescriptorError(
                    "AT_ZERO terms must have non-decreasing Re(exponent)")
        for t in terms:
            a = complex(t.exponent)
            if abs(a.real) < _OSC_TOL and abs(a.imag) > _OSC_TOL:
                raise DescriptorError(
                    f"purely oscillatory exponent {a} has no regularized limit")
        object.__setattr__(self, "terms", terms)

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        acc = np.zeros(z.shape, dtype=complex)
        if not self.terms:
            return acc
        lz = np.log(z)
        for t in self.terms:
            a = complex(t.exponent)
            # real exponents take the same pow path a caller's z**a does, so
            # subtracting an exactly-matching term cancels to the last bit
            base = z ** a.real if a.imag == 0.0 else np.exp(a * lz)
            if t.log_power:
                base = base * lz ** t.log_power
            acc += t.coefficient * base
        return acc

    def coefficients_of_inverse_power(self) -> dict:
        """Map log_power -> coefficient for the z^(-1) log^k z terms."""
        out: dict[int, complex] = {}
        for t in self.terms:
            if complex(t.exponent) == -1.0 + 0.0j:
                out[t.log_power] = out.get(t.log_power, 0j) + t.coefficient
        return out


@dataclass
class IntegrandSpec:
    """Integrand on (0, oo) plus optional endpoint descriptors.

    ``evaluator`` takes a float ndarray and returns an ndarray of its shape.
    """

    evaluator: Callable
    descriptor_zero: AsymptoticDescriptor | None = None
    descriptor_infinity: AsymptoticDescriptor | None = None

    def __post_init__(self):
        # a descriptor in the other slot would integrate one half twice
        for d, location in ((self.descriptor_zero, Location.AT_ZERO),
                            (self.descriptor_infinity, Location.AT_INFINITY)):
            if d is not None and d.location is not location:
                raise DescriptorError(f"descriptor of {d.location.name} in "
                                      f"the {location.name} slot")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        out = np.asarray(self.evaluator(z))
        if out.shape != z.shape:
            raise ShapeError(f"integrand returned shape {out.shape} for "
                             f"nodes of shape {z.shape}")
        return out.astype(complex)


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float


@lru_cache(maxsize=8)
def _gl_rule(order: int):
    """Gauss-Legendre rule on [0, 1]; read-only arrays, shared by the memo."""
    x, w = leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gl_panels(lo, hi, order: int):
    """The ``order``-point Gauss-Legendre rule on the panels [lo, hi], lo and
    hi floats or 1-D arrays of them: the nodes lo + (hi - lo) x (one row per
    panel), the widths hi - lo (a float, or a column) and the weights w on
    [0, 1].  A panel's integral of f is its width times w . f(nodes)."""
    x, w = _gl_rule(order)
    if np.ndim(lo):
        lo, hi = np.asarray(lo)[:, None], np.asarray(hi)[:, None]
    return lo + (hi - lo) * x, hi - lo, w


def quad_periodic_2d(f: Callable, tol: float = 1e-11) -> QuadResult:
    """Integral of a smooth 1-periodic f(x, y) over the unit square.

    Product trapezoid rule with grid doubling from 8x8 to 4096x4096;
    converges spectrally for smooth periodic integrands.
    """
    prev = None
    for n in (2 ** k for k in range(3, 13)):
        g = np.arange(n) / n
        xx, yy = np.meshgrid(g, g, indexing="ij")
        val = complex(np.mean(f(xx, yy)))
        if prev is not None:
            err = abs(val - prev)
            if err <= tol * max(1.0, abs(val)):
                return QuadResult(val, err)
        prev = val
    raise ConvergenceError(
        "quad_periodic_2d: no convergence up to 4096x4096", estimate=prev)


def _reg_power_log_01(a: complex, k: int) -> complex:
    """Regularized integral of z^a log^k z over [0, 1]; over [1, oo) it is
    the negative of this."""
    a = complex(a)
    if a == -1.0 + 0.0j:
        return 0j
    sign = -1.0 if k & 1 else 1.0
    return sign * math.factorial(k) / (a + 1.0) ** (k + 1)


def _graded_panels(panel: Callable, tol: float, tol_frac: float,
                   floor_depth: int) -> tuple[complex, float]:
    """Integral of a residual over (0, 1] by GL32 panels [2^-k-1, 2^-k],
    k <= 800.  ``panel(lo, hi, z)`` gives, from one evaluation, the residual
    at the nodes z of [lo, hi] and the panel's floor: the noise of the
    subtraction forming the residual, integrated over the panel.

    Assumes the residual is integrable at 0, so panels decay geometrically.
    Either exit needs three passing panels in a row, since phase oscillation
    of complex powers can make one panel dip: tolerance (depth >= 12), when
    the panel plus its ratio-extrapolated tail is below tol_frac * tol *
    max(1, |sum|); roundoff floor (depth >= floor_depth), when the panel is
    within 8x of its floor, so exact cancellations do not chase it ever
    deeper.  Returns (sum, last panel + tail + summed floors); the floor
    test comes first, so a floor exit reports the previous panel's tail.
    """
    acc = 0j
    noise = 0.0
    prev_mag = None
    tol_passes = floor_passes = 0
    for k in range(801):
        hi = 2.0 ** (-k)
        lo = 0.5 * hi
        z, width, w = _gl_panels(lo, hi, 32)
        residual, junk = panel(lo, hi, z)
        contrib = width * complex(np.dot(w, residual))
        acc += contrib
        mag = abs(contrib)
        if not math.isfinite(mag):
            raise ConvergenceError(
                "graded panels: residual is not finite near the endpoint",
                estimate=acc)
        noise += junk
        if mag <= 8.0 * junk:
            floor_passes += 1
            if floor_passes >= 3 and k >= floor_depth:
                return acc, mag + tail + noise
        else:
            floor_passes = 0
        ratio = mag / prev_mag if prev_mag else 0.0
        tail = mag * ratio / (1.0 - ratio) if 0.0 < ratio < 0.999 else mag
        if mag + tail <= tol_frac * tol * max(1.0, abs(acc)):
            tol_passes += 1
            if tol_passes >= 3 and k >= 12:
                return acc, mag + tail + noise
        else:
            tol_passes = 0
        prev_mag = mag
    raise ConvergenceError(
        "graded panels: no convergence by depth 800 (residual decays too "
        "slowly)", estimate=acc)


_PROBE_ZERO = np.array([1e-3, 1e-4, 1e-5, 1e-6])
_PROBE_INF = np.array([1e3, 1e4, 1e5, 1e6])


def _residual_and_scale(f: IntegrandSpec, d: AsymptoticDescriptor, z):
    """The residual f - d at z and the scale |f| + |d| of its rounding, from
    one evaluation of f and of d."""
    fz, dz = f(z), d.evaluate(z)
    return fz - dz, np.abs(fz) + np.abs(dz)


def _check_integrable(f: IntegrandSpec, d: AsymptoticDescriptor) -> None:
    at_zero = d.location is Location.AT_ZERO
    pts = _PROBE_ZERO if at_zero else _PROBE_INF
    residual, raw = _residual_and_scale(f, d, pts)
    r = np.abs(residual)
    floor = 1e3 * np.finfo(float).eps * raw + 1e-280
    above = r > floor
    # log-slopes only between probes above the floor; at infinity a probe
    # that underflows to 0 decays faster than any power (slope -inf)
    ends = above if at_zero else above | (r == 0.0)
    use = above[:-1] & ends[1:]
    if not np.any(use):
        return
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = np.diff(np.log(r)) / np.diff(np.log(pts))
    slope = float(np.median(slopes[use]))
    if at_zero and slope <= -1.0 + 1e-3:
        raise DescriptorError(
            f"residual ~ z^{slope:.3f} at 0 is not integrable; descriptor "
            "is missing divergent terms")
    if not at_zero and slope >= -1.0 - 1e-3:
        raise DescriptorError(
            f"residual ~ z^{slope:.3f} at infinity is not integrable; "
            "descriptor is missing divergent terms")


def _half_integral(f: IntegrandSpec, d: AsymptoticDescriptor,
                   tol: float) -> complex:
    """Regularized integral of f over d's half of (0, oo): the graded
    panels on the residual f - d, plus the closed forms of d's terms."""
    at_zero = d.location is Location.AT_ZERO
    eps = np.finfo(float).eps

    def panel(lo, hi, t):
        # [1, oo) onto (0, 1] by z = 1/t, dz = dt / t^2
        residual, raw = _residual_and_scale(f, d, t if at_zero else 1.0 / t)
        noise = eps * raw
        if not at_zero:
            residual, noise = residual / (t * t), noise / (t * t)
        return residual, (hi - lo) * float(np.max(noise))

    part, _ = _graded_panels(panel, tol, 0.02, 4)
    for term in d.terms:
        reg = term.coefficient * _reg_power_log_01(term.exponent, term.log_power)
        part = part + reg if at_zero else part - reg
    return part


def regularized_integral(f: IntegrandSpec, tol: float = 1e-12) -> complex:
    """Hadamard-regularized integral of f over (0, oo).

    Descriptor terms are subtracted from the integrand on (0, 1] (terms at
    0) and on [1, oo) (terms at infinity), the residual is integrated
    numerically, and the closed-form regularized integrals of the
    subtracted terms are added back.  The splitting point is 1.  Both ends
    are checked for integrability before any panel work.
    """
    # an absent descriptor is an empty one: f - 0 and |f| + 0 are exact
    halves = [d if d is not None else AsymptoticDescriptor((), location)
              for d, location in ((f.descriptor_zero, Location.AT_ZERO),
                                  (f.descriptor_infinity, Location.AT_INFINITY))]
    for d in halves:
        _check_integrable(f, d)
    return _half_integral(f, halves[0], tol) + _half_integral(f, halves[1], tol)


def _scaled_descriptor(d: AsymptoticDescriptor | None, lam: float):
    """Descriptor of z -> f(lam z) given the descriptor of f."""
    if d is None:
        return None
    loglam = math.log(lam)
    out: dict[tuple[complex, int], complex] = {}
    for t in d.terms:
        a = complex(t.exponent)
        scale = lam ** a * t.coefficient
        for j in range(t.log_power + 1):
            c = scale * math.comb(t.log_power, j) * loglam ** (t.log_power - j)
            out[(a, j)] = out.get((a, j), 0j) + c
    terms = [AsymptoticTerm(a, k, c) for (a, k), c in out.items()]
    key = (lambda t: -complex(t.exponent).real) \
        if d.location is Location.AT_INFINITY else \
        (lambda t: complex(t.exponent).real)
    terms.sort(key=key)
    return AsymptoticDescriptor(terms, d.location)


def change_of_variables_check(f: IntegrandSpec, lam: float):
    """Both sides of the regularized change-of-variables rule for z -> lam z.

    lhs is the regularized integral of f(lam z), computed from scratch with
    transformed descriptors.  rhs is

        lam^-1 ( reg-int f  +  sum_k a_k log^(k+1)(lam)/(k+1)
                            -  sum_k b_k log^(k+1)(lam)/(k+1) )

    where a_k (resp. b_k) is the coefficient of z^-1 log^k z in the
    expansion of f at infinity (resp. at zero).  Note the published rule
    attaches the two correction sums to the opposite endpoints; the
    orientation used here is the one the defining LIM computation (and this
    function's lhs) actually produces.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")

    scaled = IntegrandSpec(
        evaluator=lambda z: f(np.asarray(z, dtype=float) * lam),
        descriptor_zero=_scaled_descriptor(f.descriptor_zero, lam),
        descriptor_infinity=_scaled_descriptor(f.descriptor_infinity, lam),
    )
    lhs = regularized_integral(scaled)

    base = regularized_integral(f)
    loglam = math.log(lam)
    corr = 0j
    if f.descriptor_infinity is not None:
        for k, c in f.descriptor_infinity.coefficients_of_inverse_power().items():
            corr += c * loglam ** (k + 1) / (k + 1)
    if f.descriptor_zero is not None:
        for k, c in f.descriptor_zero.coefficients_of_inverse_power().items():
            corr -= c * loglam ** (k + 1) / (k + 1)
    rhs = (base + corr) / lam
    return lhs, rhs

"""Quadrature and Hadamard regularization.

Spectrally convergent 2-D periodic quadrature, and regularized integrals
driven by caller-supplied asymptotic expansions of the form

    u(z) ~ sum_j c_j z^(a_j) log^(k_j) z        (z -> 0 or z -> oo).

An integrand comes as an ``IntegrandSpec``: an evaluator over a float array
of nodes, which returns an array of the same shape, and its expansions at 0
and at oo, each a tuple of ``AsymptoticTerm``.  The slot a tuple sits in is
the one record of the end it belongs to.

The regularized integral subtracts the expansion terms analytically and
adds back their closed-form regularized antiderivatives, so pure powers
integrate to exactly zero by construction.  Its residual at each end, and
the leading coefficient's in ``expansion``, go through the one graded-panel
routine ``_graded_panels``: it stops on a tolerance test or on the roundoff
floor of the subtraction and reports an achieved error.  Each of its panels
evaluates the integrand and the expansion once per node, for the residual
and its floor alike.  Every Gauss-Legendre panel rule here and in
``expansion`` takes its nodes, widths and weights from ``_gl_panels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
# eager: this ~6 ms import would otherwise land inside every integrating job
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, DescriptorError, ShapeError

_OSC_TOL = 1e-13          # reject |Re a| below this with Im a != 0 (pure oscillation)


@dataclass(frozen=True)
class AsymptoticTerm:
    """One term c z^a log^k z of an expansion.  A purely oscillatory
    exponent, Re a = 0 with Im a != 0, is rejected: the constant term of
    such an expansion is not well defined."""

    exponent: complex
    log_power: int
    coefficient: complex

    def __post_init__(self):
        if self.log_power < 0:
            raise DescriptorError("log power must be non-negative")
        a = complex(self.exponent)
        if abs(a.real) < _OSC_TOL and abs(a.imag) > _OSC_TOL:
            raise DescriptorError(
                f"purely oscillatory exponent {a} has no regularized limit")


def _expansion_values(terms: tuple, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    acc = np.zeros(z.shape, dtype=complex)
    if not terms:
        return acc
    lz = np.log(z)
    for t in terms:
        a = complex(t.exponent)
        # real exponents take the same pow path a caller's z**a does, so
        # subtracting an exactly-matching term cancels to the last bit
        base = z ** a.real if a.imag == 0.0 else np.exp(a * lz)
        if t.log_power:
            base = base * lz ** t.log_power
        acc += t.coefficient * base
    return acc


def _inverse_power_coefficients(terms: tuple) -> dict:
    """Map log_power -> coefficient for the z^(-1) log^k z terms."""
    out: dict[int, complex] = {}
    for t in terms:
        if complex(t.exponent) == -1.0 + 0.0j:
            out[t.log_power] = out.get(t.log_power, 0j) + t.coefficient
    return out


@dataclass(frozen=True)
class IntegrandSpec:
    """Integrand on (0, oo) plus its expansions at 0 and at oo.

    ``evaluator`` takes a float ndarray and returns an ndarray of its shape.
    Each expansion is a tuple of ``AsymptoticTerm``, by increasing
    Re(exponent) at 0 and by decreasing Re(exponent) at oo; an empty one
    subtracts nothing.
    """

    evaluator: Callable
    descriptor_zero: tuple = ()
    descriptor_infinity: tuple = ()

    def __post_init__(self):
        for name, sign, order in (("descriptor_zero", 1.0, "non-decreasing"),
                                  ("descriptor_infinity", -1.0,
                                   "non-increasing")):
            terms = tuple(getattr(self, name))
            res = [sign * complex(t.exponent).real for t in terms]
            if any(a > b + 1e-15 for a, b in zip(res, res[1:])):
                raise DescriptorError(
                    f"{name} terms must have {order} Re(exponent)")
            object.__setattr__(self, name, terms)

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


def _residual_and_scale(f: IntegrandSpec, terms: tuple, z):
    """The residual f - terms at z and the scale |f| + |terms| of its
    rounding, from one evaluation of f and of the terms."""
    fz, dz = f(z), _expansion_values(terms, z)
    return fz - dz, np.abs(fz) + np.abs(dz)


def _check_integrable(f: IntegrandSpec, terms: tuple, at_zero: bool) -> None:
    pts = _PROBE_ZERO if at_zero else _PROBE_INF
    residual, raw = _residual_and_scale(f, terms, pts)
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


def _half_integral(f: IntegrandSpec, terms: tuple, at_zero: bool,
                   tol: float) -> complex:
    """Regularized integral of f over (0, 1] (``at_zero``) or [1, oo) with
    the expansion ``terms`` of that end: the graded panels on the residual
    f - terms, plus the closed forms of the terms."""
    eps = np.finfo(float).eps

    def panel(lo, hi, t):
        # [1, oo) onto (0, 1] by z = 1/t, dz = dt / t^2
        residual, raw = _residual_and_scale(f, terms,
                                            t if at_zero else 1.0 / t)
        noise = eps * raw
        if not at_zero:
            residual, noise = residual / (t * t), noise / (t * t)
        return residual, (hi - lo) * float(np.max(noise))

    part, _ = _graded_panels(panel, tol, 0.02, 4)
    for term in terms:
        reg = term.coefficient * _reg_power_log_01(term.exponent, term.log_power)
        part = part + reg if at_zero else part - reg
    return part


def regularized_integral(f: IntegrandSpec, tol: float = 1e-12) -> complex:
    """Hadamard-regularized integral of f over (0, oo).

    The expansion at 0 is subtracted from the integrand on (0, 1] and the
    one at infinity on [1, oo), the residual is integrated numerically,
    and the closed-form regularized integrals of the subtracted terms are
    added back.  The splitting point is 1.  Both ends are checked for
    integrability before any panel work.
    """
    zero, infinity = (f.descriptor_zero, True), (f.descriptor_infinity, False)
    _check_integrable(f, *zero)
    _check_integrable(f, *infinity)
    return _half_integral(f, *zero, tol) + _half_integral(f, *infinity, tol)


def _scaled_descriptor(terms: tuple, lam: float, at_zero: bool) -> tuple:
    """Expansion of z -> f(lam z) at one end given f's there."""
    loglam = math.log(lam)
    out: dict[tuple[complex, int], complex] = {}
    for t in terms:
        a = complex(t.exponent)
        scale = lam ** a * t.coefficient
        for j in range(t.log_power + 1):
            c = scale * math.comb(t.log_power, j) * loglam ** (t.log_power - j)
            out[(a, j)] = out.get((a, j), 0j) + c
    sign = 1.0 if at_zero else -1.0
    return tuple(sorted((AsymptoticTerm(a, k, c) for (a, k), c in out.items()),
                        key=lambda t: sign * complex(t.exponent).real))


def change_of_variables_check(f: IntegrandSpec, lam: float):
    """Both sides of the regularized change-of-variables rule for z -> lam z.

    lhs is the regularized integral of f(lam z), computed from scratch with
    transformed expansions.  rhs is

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
        descriptor_zero=_scaled_descriptor(f.descriptor_zero, lam, True),
        descriptor_infinity=_scaled_descriptor(f.descriptor_infinity, lam,
                                               False),
    )
    lhs = regularized_integral(scaled)

    base = regularized_integral(f)
    loglam = math.log(lam)
    corr = 0j
    for k, c in _inverse_power_coefficients(f.descriptor_infinity).items():
        corr += c * loglam ** (k + 1) / (k + 1)
    for k, c in _inverse_power_coefficients(f.descriptor_zero).items():
        corr -= c * loglam ** (k + 1) / (k + 1)
    rhs = (base + corr) / lam
    return lhs, rhs

"""Quadrature and Hadamard regularization.

Finite-interval adaptive quadrature, spectrally convergent 2-D periodic
quadrature, and regularized limits/integrals driven by caller-supplied
asymptotic descriptors of the form

    u(z) ~ sum_j c_j z^(a_j) log^(k_j) z        (z -> 0 or z -> oo).

The regularized integral subtracts the descriptor terms analytically and
adds back their closed-form regularized antiderivatives, so pure powers
integrate to exactly zero by construction.  Its residual at each end, and
the leading coefficient's in ``expansion``, go through the one graded-panel
routine ``_graded_panels``: it stops on a tolerance test or on the roundoff
floor of the subtraction and reports an achieved error.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
# eager: this ~6 ms import would otherwise land inside every integrating job
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, DescriptorError, IllConditionedError

_OSC_TOL = 1e-13          # reject |Re a| below this with Im a != 0 (pure oscillation)
_MERGE_TOL = 1e-10        # exponents closer than this are one fit column
_COND_LIMIT = 1e12


class Location(enum.Enum):
    AT_ZERO = "zero"
    AT_INFINITY = "infinity"


@dataclass(frozen=True)
class AsymptoticTerm:
    exponent: complex
    log_power: int
    coefficient: complex = 0j

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

    def __init__(self, terms: Sequence, location: Location):
        terms = tuple(
            t if isinstance(t, AsymptoticTerm) else AsymptoticTerm(*t)
            for t in terms
        )
        res = [complex(t.exponent).real for t in terms]
        if location is Location.AT_INFINITY:
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
        object.__setattr__(self, "location", location)

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

    ``evaluator`` should accept a float ndarray and return an ndarray; a
    scalar-only callable is tolerated (slower).
    """

    evaluator: Callable
    descriptor_zero: AsymptoticDescriptor | None = None
    descriptor_infinity: AsymptoticDescriptor | None = None

    def __call__(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        try:
            out = np.asarray(self.evaluator(z))
            if out.shape != z.shape:
                raise TypeError
            return out.astype(complex)
        except TypeError:
            return np.array([self.evaluator(float(v)) for v in z.ravel()],
                            dtype=complex).reshape(z.shape)


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error: float

    def __complex__(self):
        return self.value


def _as_spec(f) -> IntegrandSpec:
    return f if isinstance(f, IntegrandSpec) else IntegrandSpec(f)


@lru_cache(maxsize=8)
def _gl_rule(order: int):
    """Gauss-Legendre rule on [0, 1]; read-only arrays, shared by the memo."""
    x, w = leggauss(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panel(f: IntegrandSpec, a: float, b: float, order: int) -> complex:
    x, w = _gl_rule(order)
    vals = f(a + (b - a) * x)
    return (b - a) * complex(np.dot(w, vals))


def quad_finite(f, a: float, b: float, tol: float = 1e-12,
                max_panels: int = 4096) -> QuadResult:
    """Globally adaptive Gauss-Legendre quadrature of f over [a, b].

    The per-panel error estimate is the difference between the 16- and
    8-point rules; panels are bisected worst-first until the summed estimate
    meets ``tol`` (absolute, or relative when |integral| > 1).
    """
    if not a < b:
        raise ValueError("need a < b")
    if tol <= 0:
        raise ValueError("tol must be positive")
    f = _as_spec(f)

    def make(lo, hi):
        v16 = _panel(f, lo, hi, 16)
        v8 = _panel(f, lo, hi, 8)
        return v16, abs(v16 - v8)

    counter = 0
    v, e = make(a, b)
    heap = [(-e, counter, a, b, v, e)]
    total, toterr = v, e
    n_panels = 1
    while toterr > tol * max(1.0, abs(total)):
        if n_panels >= max_panels:
            raise ConvergenceError(
                f"quad_finite: {max_panels}-panel budget exhausted "
                f"(err ~ {toterr:.3g})", estimate=total, error=toterr)
        nege, _, lo, hi, pv, pe = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        lv, le = make(lo, mid)
        rv, re_ = make(mid, hi)
        total += lv + rv - pv
        toterr += le + re_ - pe
        counter += 1
        heapq.heappush(heap, (-le, counter, lo, mid, lv, le))
        counter += 1
        heapq.heappush(heap, (-re_, counter, mid, hi, rv, re_))
        n_panels += 1
    return QuadResult(total, toterr)


def quad_periodic_2d(f: Callable, tol: float = 1e-11, n_start: int = 8,
                     n_max: int = 4096) -> QuadResult:
    """Integral of a smooth 1-periodic f(x, y) over the unit square.

    Product trapezoid rule with grid doubling; converges spectrally for
    smooth periodic integrands.
    """
    prev = None
    n = n_start
    while n <= n_max:
        g = np.arange(n) / n
        xx, yy = np.meshgrid(g, g, indexing="ij")
        val = complex(np.mean(f(xx, yy)))
        if prev is not None:
            err = abs(val - prev)
            if err <= tol * max(1.0, abs(val)):
                return QuadResult(val, err)
        prev = val
        n *= 2
    raise ConvergenceError(
        f"quad_periodic_2d: no convergence up to {n_max}x{n_max}",
        estimate=prev)


def _reg_power_log_01(a: complex, k: int) -> complex:
    """Regularized integral of z^a log^k z over [0, 1]; over [1, oo) it is
    the negative of this."""
    a = complex(a)
    if a == -1.0 + 0.0j:
        return 0j
    sign = -1.0 if k & 1 else 1.0
    return sign * math.factorial(k) / (a + 1.0) ** (k + 1)


def _graded_panels(residual: Callable, tol: float, floor: Callable,
                   tol_frac: float, floor_depth: int) -> tuple[complex, float]:
    """Sum of residual over (0, 1] by GL32 panels [2^-k-1, 2^-k], k <= 800.

    Assumes the residual is integrable at 0, so panels decay geometrically.
    Either exit needs three passing panels in a row, since phase oscillation
    of complex powers can make one panel dip: tolerance (depth >= 12), when
    the panel plus its ratio-extrapolated tail is below tol_frac * tol *
    max(1, |sum|); roundoff floor (depth >= floor_depth), when the panel is
    within 8x of floor(lo, hi, z), the noise of the subtraction forming the
    residual there, so exact cancellations do not chase it ever deeper.
    Returns (sum, last panel + tail + summed floors); the floor test comes
    first, so a floor exit reports the previous panel's tail.
    """
    x, w = _gl_rule(32)
    acc = 0j
    noise = 0.0
    prev_mag = None
    tol_passes = floor_passes = 0
    for k in range(801):
        hi = 2.0 ** (-k)
        lo = 0.5 * hi
        z = lo + (hi - lo) * x
        contrib = (hi - lo) * complex(np.dot(w, residual(z)))
        acc += contrib
        mag = abs(contrib)
        if not math.isfinite(mag):
            raise ConvergenceError(
                "graded panels: residual is not finite near the endpoint",
                estimate=acc)
        junk = floor(lo, hi, z)
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


def _check_integrable(residual: Callable, raw_scale: Callable,
                      at_zero: bool) -> None:
    pts = _PROBE_ZERO if at_zero else _PROBE_INF
    r = np.abs(residual(pts))
    floor = 1e3 * np.finfo(float).eps * np.abs(raw_scale(pts)) + 1e-280
    if np.all(r <= floor):
        return
    with np.errstate(divide="ignore"):
        lr = np.log(np.maximum(r, 1e-300))
    slopes = np.diff(lr) / np.diff(np.log(pts))
    slope = float(np.median(slopes))
    if at_zero and slope <= -1.0 + 1e-3:
        raise DescriptorError(
            f"residual ~ z^{slope:.3f} at 0 is not integrable; descriptor "
            "is missing divergent terms")
    if not at_zero and slope >= -1.0 - 1e-3:
        raise DescriptorError(
            f"residual ~ z^{slope:.3f} at infinity is not integrable; "
            "descriptor is missing divergent terms")


def _half_integral(d: AsymptoticDescriptor, residual: Callable,
                   raw: Callable, tol: float) -> complex:
    """Regularized integral of f = residual + d over d's half of (0, oo)."""
    at_zero = d.location is Location.AT_ZERO
    eps = np.finfo(float).eps
    if at_zero:
        integrand, noise = residual, lambda z: eps * raw(z)
    else:  # [1, oo) onto (0, 1] by z = 1/t, dz = dt / t^2
        integrand = lambda t: residual(1.0 / t) / (t * t)
        noise = lambda t: eps * raw(1.0 / t) / (t * t)
    part, _ = _graded_panels(
        integrand, tol, lambda lo, hi, t: (hi - lo) * float(np.max(noise(t))),
        0.02, 4)
    for term in d.terms:
        reg = term.coefficient * _reg_power_log_01(term.exponent, term.log_power)
        part = part + reg if at_zero else part - reg
    return part


def regularized_integral(f, tol: float = 1e-12) -> complex:
    """Hadamard-regularized integral of f over (0, oo).

    Descriptor terms are subtracted from the integrand on (0, 1] (terms at
    0) and on [1, oo) (terms at infinity), the residual is integrated
    numerically, and the closed-form regularized integrals of the
    subtracted terms are added back.  The splitting point is 1.  Both ends
    are checked for integrability before any panel work.
    """
    f = _as_spec(f)
    halves = []
    for d, location in ((f.descriptor_zero, Location.AT_ZERO),
                        (f.descriptor_infinity, Location.AT_INFINITY)):
        # an absent descriptor is an empty one: f - 0 and |f| + 0 are exact
        d = d if d is not None else AsymptoticDescriptor((), location)
        residual = lambda z, d=d: f(z) - d.evaluate(z)
        raw = lambda z, d=d: np.abs(f(z)) + np.abs(d.evaluate(z))
        _check_integrable(residual, raw, location is Location.AT_ZERO)
        halves.append((d, residual, raw))
    return _half_integral(*halves[0], tol) + _half_integral(*halves[1], tol)


def regularized_limit(samples: Sequence, descriptor: AsymptoticDescriptor) -> complex:
    """Constant term of an asymptotic expansion, fit from samples.

    ``samples`` is a sequence of (x, value) pairs; the model is

        u(x) = c_0 + sum over descriptor terms c_t x^a log^k x

    solved by least squares.  Returns c_0.  Descriptor coefficients are
    ignored (they are what the fit determines); exponents closer than 1e-10
    at the same log power are merged to keep the system well conditioned.
    """
    xs = np.asarray([p[0] for p in samples], dtype=float)
    ys = np.asarray([p[1] for p in samples], dtype=complex)
    merged: list[tuple[complex, int]] = []
    for t in descriptor.terms:
        a = complex(t.exponent)
        for (a2, k2) in merged:
            if abs(a - a2) <= _MERGE_TOL and t.log_power == k2:
                break
        else:
            merged.append((a, t.log_power))
    if len(xs) < len(merged) + 1:
        raise ValueError("need at least one sample per descriptor term plus one")
    lx = np.log(xs)
    cols = [np.ones_like(xs, dtype=complex)]
    for a, k in merged:
        cols.append(np.exp(a * lx) * lx ** k)
    A = np.column_stack(cols)
    norms = np.linalg.norm(A, axis=0)
    A_scaled = A / norms
    cond = np.linalg.cond(A_scaled)
    if cond > _COND_LIMIT:
        raise IllConditionedError(
            f"fit matrix condition number {cond:.3g} exceeds {_COND_LIMIT:.0e}")
    coef, *_ = np.linalg.lstsq(A_scaled, ys, rcond=None)
    return complex(coef[0] / norms[0])


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


def change_of_variables_check(f, lam: float, tol: float = 1e-12):
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
    f = _as_spec(f)

    scaled = IntegrandSpec(
        evaluator=lambda z: f(np.asarray(z, dtype=float) * lam),
        descriptor_zero=_scaled_descriptor(f.descriptor_zero, lam),
        descriptor_infinity=_scaled_descriptor(f.descriptor_infinity, lam),
    )
    lhs = regularized_integral(scaled, tol)

    base = regularized_integral(f, tol)
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

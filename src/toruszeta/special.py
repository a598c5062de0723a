"""Self-contained complex special functions.

Gamma, log-Gamma, digamma, Riemann zeta, Dirichlet beta, Bernoulli numbers
and polynomials -- every transcendental ingredient the lattice/zeta modules
consume.  All functions accept and return Python complex scalars (reals are
promoted), are pure, and are safe to call concurrently.

Accuracy targets: 1e-13 relative for Gamma (|s| <= 200), 1e-12 relative for
zeta/beta/digamma on |Im(s)| <= 100.  Zeta and beta switch from the
accelerated alternating series to the functional-equation reflection at
Re(s) = -1, so the strip -1 < Re(s) < 0 is always served by the direct
series.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import PoleError, RangeError
from .summation import _kahan

EULER_GAMMA = 0.5772156649015328606

# Lanczos coefficients, g = 607/128, 15 terms (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _is_gamma_pole(s: complex) -> bool:
    """True at the non-positive integers, where Gamma has its poles."""
    return s.imag == 0.0 and s.real <= 0.0 and s.real == math.floor(s.real)


def _require_no_pole(s: complex, what: str) -> None:
    if _is_gamma_pole(s):
        raise PoleError(f"{what} has a pole at s = {s.real:g}", location=s)


def _sinpi(z: complex) -> complex:
    """sin(pi z) with exact argument reduction on the real part."""
    n = math.floor(z.real + 0.5)
    r = complex(z.real - n, z.imag)
    val = cmath.sin(math.pi * r)
    return -val if n & 1 else val


def _cotpi(z: complex) -> complex:
    """cot(pi z), stable for large |Im z|."""
    if abs(z.imag) <= 0.5:
        n = math.floor(z.real + 0.5)
        r = complex(z.real - n, z.imag)
        return cmath.cos(math.pi * r) / cmath.sin(math.pi * r)
    # cot w = i (e^{2iw} + 1)/(e^{2iw} - 1); pick the decaying exponential.
    if z.imag > 0:
        q = cmath.exp(2j * math.pi * z)
        return 1j * (q + 1.0) / (q - 1.0)
    q = cmath.exp(-2j * math.pi * z)
    return -1j * (q + 1.0) / (q - 1.0)


def _logsinpi(z: complex) -> complex:
    """A logarithm of sin(pi z) that never overflows.

    For |Im z| > 1 the returned branch follows the dominant exponential,
    which is exactly what the log-Gamma reflection needs; exp(_logsinpi(z))
    always equals sin(pi z) up to rounding.
    """
    if abs(z.imag) <= 1.0:
        return cmath.log(_sinpi(z))
    n = math.floor(z.real + 0.5)
    r = complex(z.real - n, z.imag)
    # sin(pi r) = e^{-i pi r} (e^{2 i pi r} - 1) / (2i), take the branch from
    # the side where the exponential decays.
    if r.imag > 0:
        core = -1j * math.pi * r + cmath.log(1.0 - cmath.exp(2j * math.pi * r)) \
            + complex(-math.log(2.0), 0.5 * math.pi)
    else:
        core = 1j * math.pi * r + cmath.log(1.0 - cmath.exp(-2j * math.pi * r)) \
            + complex(-math.log(2.0), -0.5 * math.pi)
    if n & 1:
        core += complex(0.0, math.pi if r.imag <= 0 else -math.pi)
    return core


def _lanczos_sum(z: complex) -> complex:
    # z is the *unshifted* argument; series runs over z-1+k.
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (z - 1.0 + k)
    return acc


_LD = np.longdouble


def _exp_linear(a: complex, b: complex) -> complex:
    """exp(a * log(b_shifted) - b_shifted) with the exponent in extended
    precision; b_shifted = b.  Keeps Gamma accurate out to |s| ~ 200, where a
    double-precision exponent alone would lose ~2 digits."""
    br, bi = _LD(b.real), _LD(b.imag)
    logr = 0.5 * np.log(br * br + bi * bi)
    arg = np.arctan2(bi, br)
    ar, ai = _LD(a.real), _LD(a.imag)
    ex = ar * logr - ai * arg - br
    ey = ar * arg + ai * logr - bi
    mag = np.exp(ex)
    return complex(float(mag * np.cos(ey)), float(mag * np.sin(ey)))


def complex_gamma(s: complex) -> complex:
    """Gamma(s) for complex s via the Lanczos approximation.

    Reflection is used for Re(s) < 1/2.  Raises PoleError at the
    non-positive integers.
    """
    s = complex(s)
    _require_no_pole(s, "Gamma")
    if s.real < 0.5:
        return math.pi / (_sinpi(s) * complex_gamma(1.0 - s))
    t = s - 0.5 + _LANCZOS_G
    return math.sqrt(2.0 * math.pi) * _exp_linear(s - 0.5, t) * _lanczos_sum(s)


def reciprocal_gamma(s: complex) -> complex:
    """1/Gamma(s); entire, returns 0 at the non-positive integers."""
    s = complex(s)
    if _is_gamma_pole(s):
        return 0.0 + 0.0j
    return 1.0 / complex_gamma(s)


# Stirling series coefficients B_{2k}/(2k(2k-1)) for log-Gamma.
_STIRLING_LG = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
    -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0, 43867.0 / 244188.0,
)


def complex_log_gamma(s: complex) -> complex:
    """log Gamma(s), the standard analytic continuation.

    Real on (0, oo), continuous on the right half-plane, and
    exp(complex_log_gamma(s)) == complex_gamma(s) there.  For Re(s) <= 0 the
    value is obtained by reflection; the identity exp(log_gamma) = Gamma
    still holds but the imaginary part is only defined modulo 2*pi*i.
    """
    s = complex(s)
    _require_no_pole(s, "log-Gamma")
    if s.real <= 0.0:
        return math.log(math.pi) - _logsinpi(s) - complex_log_gamma(1.0 - s)
    shift = 0.0 + 0.0j
    w = s
    while w.real < 16.0:
        shift -= cmath.log(w)
        w += 1.0
    inv = 1.0 / w
    inv2 = inv * inv
    tail = 0.0 + 0.0j
    p = inv
    for c in _STIRLING_LG:
        tail += c * p
        p *= inv2
    return (w - 0.5) * cmath.log(w) - w + _LOG_SQRT_TWO_PI + tail + shift


# Asymptotic series coefficients B_{2k}/(2k) for digamma.
_STIRLING_PSI = (
    1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0,
    -691.0 / 32760.0, 1.0 / 12.0, -3617.0 / 8160.0,
)


def digamma(s: complex) -> complex:
    """psi(s) = Gamma'(s)/Gamma(s) via recurrence plus the Stirling series."""
    s = complex(s)
    _require_no_pole(s, "digamma")
    if s.real < 0.5:
        return digamma(1.0 - s) - math.pi * _cotpi(s)
    acc = 0.0 + 0.0j
    w = s
    while w.real < 16.0:
        acc -= 1.0 / w
        w += 1.0
    inv = 1.0 / w
    inv2 = inv * inv
    tail = 0.0 + 0.0j
    p = inv2
    for c in _STIRLING_PSI:
        tail -= c * p
        p *= inv2
    return acc + cmath.log(w) - 0.5 * inv + tail


_RESCALE = 2.0 ** 900


@lru_cache(maxsize=16)
def _borwein_weights(n: int) -> np.ndarray:
    """Chebyshev/binomial weights (d_n - d_k)/d_n, k = 0..n-1.

    d_k grows like (3+sqrt(8))^k, so the running values are divided by 2^900
    whenever they pass it (n > ~350); orders below that keep their bits.
    """
    d = np.empty(n + 1)
    p = 1.0 / n  # p_j = (n+j-1)! 4^j / ((n-j)! (2j)!), p_0 = (n-1)!/n!
    acc = p
    d[0] = n * acc
    for j in range(n):
        p *= 4.0 * (n + j) * (n - j) / ((2 * j + 1) * (2 * j + 2))
        acc += p
        if acc > _RESCALE:
            d[:j + 1] /= _RESCALE
            p, acc = p / _RESCALE, acc / _RESCALE
        d[j + 1] = n * acc
    return (d[n] - d[:n]) / d[n]


def _alternating_sum(s: complex, bases: np.ndarray, n: int) -> complex:
    """Kahan-compensated sum of (-1)^k w_k bases[k]^(-s), w the Borwein weights."""
    w = _borwein_weights(n)
    terms = w * np.exp(-s * np.log(bases))
    terms[1::2] = -terms[1::2]
    return _kahan(terms)


def _series_order(s: complex) -> int:
    # Error ~ (3+sqrt(8))^-n (1+2|t|) e^{pi|t|/2}; pad for Re(s) down to -1.
    t = abs(s.imag)
    n = (0.5 * math.pi * t + math.log(3.0 + 2.0 * t) + 40.0) / math.log(3.0 + math.sqrt(8.0))
    n += 8.0 * max(0.0, 0.5 - s.real)
    return max(24, int(n) + 4)


def riemann_zeta(s: complex) -> complex:
    """Riemann zeta with analytic continuation everywhere except s = 1.

    Borwein-accelerated eta series for Re(s) >= -1, functional-equation
    reflection for Re(s) < -1 (and near the eta denominator zeros on
    Re(s) = 1).
    """
    s = complex(s)
    if s == 1.0:
        raise PoleError("Riemann zeta has its pole at s = 1", location=s)
    if s.real < -1.0:
        return (2.0 ** s) * math.pi ** (s - 1.0) * _sinpi(0.5 * s) \
            * complex_gamma(1.0 - s) * riemann_zeta(1.0 - s)
    denom = 1.0 - 2.0 ** (1.0 - s)
    if abs(denom) < 5e-2:
        # s near 1 + 2 pi i k / ln 2 with k != 0: reflect to dodge the 0/0.
        return (2.0 ** s) * math.pi ** (s - 1.0) * _sinpi(0.5 * s) \
            * complex_gamma(1.0 - s) * riemann_zeta(1.0 - s)
    n = _series_order(s)
    bases = np.arange(1, n + 1, dtype=float)
    return _alternating_sum(s, bases, n) / denom


def dirichlet_beta(s: complex) -> complex:
    """Dirichlet beta (the L-function of the odd character mod 4); entire.

    Accelerated alternating series for Re(s) >= -1, reflection below.
    """
    s = complex(s)
    if s.real < -1.0:
        # beta(s) = (4/pi)^((1-2s)/2) Gamma((2-s)/2)/Gamma((s+1)/2) beta(1-s)
        front = (4.0 / math.pi) ** (0.5 * (1.0 - 2.0 * s))
        ratio = complex_gamma(0.5 * (2.0 - s)) * reciprocal_gamma(0.5 * (s + 1.0))
        return front * ratio * dirichlet_beta(1.0 - s)
    n = _series_order(s)
    bases = np.arange(1, 2 * n + 1, 2, dtype=float)
    return _alternating_sum(s, bases, n)


@dataclass(frozen=True)
class BernoulliTable:
    """Exact Bernoulli numbers B_0..B_max_index, B_1 = -1/2 convention."""

    max_index: int
    numbers: tuple = field(repr=False, default=())

    @staticmethod
    def build(max_index: int = 64) -> "BernoulliTable":
        vals = [Fraction(1)]
        for m in range(1, max_index + 1):
            acc = Fraction(0)
            for j in range(m):
                acc += math.comb(m + 1, j) * vals[j]
            vals.append(-acc / (m + 1))
        return BernoulliTable(max_index=max_index, numbers=tuple(vals))


_DEFAULT_BERNOULLI = BernoulliTable.build(64)


def bernoulli_number(k: int, table: BernoulliTable = _DEFAULT_BERNOULLI) -> float:
    """B_k as a float (exact-to-double), B_1 = -1/2 convention."""
    if not 0 <= k <= table.max_index:
        raise RangeError(f"Bernoulli index {k} outside [0, {table.max_index}]")
    return float(table.numbers[k])


def bernoulli_fraction(k: int, table: BernoulliTable = _DEFAULT_BERNOULLI) -> Fraction:
    """B_k as an exact Fraction."""
    if not 0 <= k <= table.max_index:
        raise RangeError(f"Bernoulli index {k} outside [0, {table.max_index}]")
    return table.numbers[k]


def bernoulli_polynomial(k: int, x: float,
                         table: BernoulliTable = _DEFAULT_BERNOULLI) -> float:
    """B_k(x) = sum_j C(k,j) B_j x^(k-j) for x in [0, 1].

    Callers summing over a lattice pass the fractional part x - [x].
    """
    if not 0 <= k <= table.max_index:
        raise RangeError(f"Bernoulli order {k} outside [0, {table.max_index}]")
    if not 0.0 <= x <= 1.0:
        raise RangeError(f"Bernoulli polynomial argument {x} outside [0, 1]")
    acc = Fraction(0)
    xf = Fraction(x)
    for j in range(k + 1):
        acc = acc * xf + math.comb(k, j) * table.numbers[j]
    return float(acc)

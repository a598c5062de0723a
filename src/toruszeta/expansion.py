"""Asymptotic expansion of the discrete spectral zeta functions.

Computes the leading coefficients a(s) (5-point) and a~(s) (9-point) by
quadrature of

    a(s) = int_0^oo z^(3-2s) int_0^1 int_0^1 symbol(x,y,z)^-2 dx dy dz,

the closed-form coefficients b0 and b1~ through the Epstein factors, the
angular lattice sum entering b1 (inner lattice sum in closed form, outer
one closed by an Euler-Maclaurin tail, so nothing is truncated), the Taylor
coefficient polynomials of the symbol expansion, the Euler-Maclaurin
identity verifier, H_n, and residual order measurements against directly
computed discrete zetas.

Implementation notes on the leading coefficient: the inner y-integral has
the closed form

    int_0^1 (A + B sin^2(pi y)/pi^2)^-2 dy
        = (A + B/(2 pi^2)) (A (A + B/pi^2))^(-3/2),

leaving a 2-D (x, z) quadrature with geometrically graded panels toward the
corner singularity (the z-panels are ``quadrature._graded_panels``, whose
floor exit takes over past Re(s) = 1; ``leading_coeff_error`` is its achieved
error); on z >= 1 the integrand is analytic in 1/z^2 and the tail integral
is summed exactly as

    int_1^oo = sum_{j>=0} (j+1) (-1)^j <h^j> / (2s + 2j),

with <h^j> the unit-square moments of the z-free symbol (a trigonometric
polynomial, so the moments are exact trapezoid sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .epstein import epstein_zeta_2d, v_factor, v_factor_inv, _pi_pow_gamma
from .errors import DomainError, RangeError, SignalLostError
from .lattice import (StencilVariant, TorusGrid, spectral_zeta,
                      stencil_symbol)
from .quadrature import QuadResult, quad_periodic_2d, _gl_rule, _graded_panels
from .special import bernoulli_fraction, bernoulli_polynomial

_TWO_THIRDS_PISQ = 2.0 * math.pi ** 2 / 3.0


@lru_cache(maxsize=4)
def _h_moments(variant: StencilVariant, jmax: int = 40) -> np.ndarray:
    """Moments <h^j> of the z-free symbol over the unit square.

    h is a trigonometric polynomial, so the trapezoid mean on a 128x128
    grid is exact (to rounding) for all j <= 40.
    """
    n = 128
    g = np.arange(n) / n
    sx = np.sin(np.pi * g) ** 2 / math.pi ** 2
    h = stencil_symbol(variant, sx[:, None], sx[None, :], _TWO_THIRDS_PISQ)
    out = np.empty(jmax + 1)
    p = np.ones_like(h)
    for j in range(jmax + 1):
        out[j] = float(np.mean(p))
        p = p * h
    return out


def _inner_xshape(variant: StencilVariant, zmin: float):
    """Graded x-nodes/weights on [0, 1/2] resolving the corner at scale zmin."""
    edges = [0.5]
    while edges[-1] > 0.25 * zmin and edges[-1] > 2.0 ** -200:
        edges.append(0.5 * edges[-1])
    gx, gw = _gl_rule(32)
    xs, ws = [], []
    for lo, hi in zip(edges[1:], edges[:-1]):
        xs.append(lo + (hi - lo) * gx)
        ws.append((hi - lo) * gw)
    xs.append(edges[-1] * gx)
    ws.append(edges[-1] * gw)
    x = np.concatenate(xs)
    w = np.concatenate(ws)
    sx = np.sin(np.pi * x) ** 2 / math.pi ** 2
    if variant is StencilVariant.NINE_POINT:
        b = 1.0 - _TWO_THIRDS_PISQ * sx  # = 1 - (2/3) sin^2(pi x)
    else:
        b = np.ones_like(sx)
    return sx, b, w


def _inner_j(z: np.ndarray, variant: StencilVariant) -> np.ndarray:
    """J(z) = int over the unit square of symbol(x,y,z)^-2, vectorized in z."""
    z = np.asarray(z, dtype=float)
    sx, b, w = _inner_xshape(variant, float(z.min()))
    c = sx[None, :] + (z * z)[:, None]
    y = (c + b[None, :] / (2.0 * math.pi ** 2)) \
        * (c * (c + b[None, :] / math.pi ** 2)) ** -1.5
    return 2.0 * (y @ w)


def leading_coeff(s: complex, variant: StencilVariant,
                  tol: float = 1e-12) -> complex:
    """Leading expansion coefficient a(s) / a~(s).

    Defined for 0 < Re(s) < 1.75 away from s = 1: inside the strip (0,1)
    this is the convergent triple integral, beyond it the regularized
    continuation (precision degrades past Re(s) ~ 1.6 as the corner
    subtraction hits its roundoff floor).  Memoized per (s, variant, tol)
    because H_n calls it for every n.
    """
    return _leading_coeff(complex(s), variant, tol)[0]


def leading_coeff_error(s: complex, variant: StencilVariant,
                        tol: float = 1e-12) -> float:
    """Achieved error estimate of ``leading_coeff(s, variant, tol)``.

    The geometric tail estimate of the z-panels left unsummed plus the
    roundoff floor of the corner subtraction summed over the panels taken;
    shares the memo of ``leading_coeff``, so asking for both costs one
    quadrature.
    """
    return _leading_coeff(complex(s), variant, tol)[1]


@lru_cache(maxsize=64)
def _leading_coeff(s: complex, variant: StencilVariant,
                   tol: float) -> tuple[complex, float]:
    """(a(s), achieved error estimate); see ``leading_coeff``."""
    if not 0.0 < s.real < 1.75 or s == 1.0:
        raise DomainError(
            f"leading coefficient defined for 0 < Re(s) < 1.75, s != 1; got {s}")
    if tol <= 0:
        raise DomainError("tol must be positive")

    # z in (0,1]: subtract the corner contribution pi/z^2 of J and add back
    # pi * reg-int of z^(1-2s), which is pi/(2-2s).  J - pi/z^2 carries
    # eps * pi/z^2 of subtraction noise; for Re(s) >= 1 its panel integral
    # grows with depth, so the panels stop at that floor.  The tolerance exit
    # aims well below the requested tol: residual-order studies subtract
    # V a(s) n^(2-2s), which amplifies any quadrature error by n^(2-2Re s).
    eps = float(np.finfo(float).eps)

    def residual(z):
        return np.exp((3.0 - 2.0 * s) * np.log(z)) \
            * (_inner_j(z, variant) - math.pi / (z * z))

    def floor(lo, hi, z):
        return eps * math.pi * lo ** (1.0 - 2.0 * s.real) * (hi - lo)

    acc, err = _graded_panels(residual, tol, floor, 1e-3, 8)
    value = acc + math.pi / (2.0 - 2.0 * s)

    # z in [1, oo): exact geometric-series tail.
    mom = _h_moments(variant)
    tail_acc = 0j
    small = 0
    for j in range(len(mom)):
        term = (j + 1) * (-1.0) ** j * mom[j] / (2.0 * s + 2.0 * j)
        tail_acc += term
        if abs(term) <= 1e-17 * max(1.0, abs(tail_acc)):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    return value + tail_acc, err


def coeff_b0(s: complex) -> complex:
    """b0(s) = b0~(s) = V_2(s)^-1 zeta(Delta, s)."""
    s = complex(s)
    return v_factor_inv(2, s) * epstein_zeta_2d(s)


def coeff_b1_tilde(s: complex) -> complex:
    """b1~(s) = (s pi^2 / 3) V_2(s)^-1 zeta(Delta, s-1)  (9-point)."""
    s = complex(s)
    return (s * math.pi ** 2 / 3.0) * v_factor_inv(2, s) \
        * epstein_zeta_2d(s - 1.0)


_ANGULAR_ORDER = 32  # GL rule of the z-panels, checked against half the order
_ANGULAR_KMAX = 64  # k1 summed term by term, the rest by Euler-Maclaurin
_ANGULAR_Z_EDGES = (1.0, 2.0, 3.0, 4.5, 6.0, 8.0)  # after 12 graded panels


def _k2_sum(a2: np.ndarray) -> np.ndarray:
    """sum over k in Z of k^2 (k^2 + a^2)^-4 in closed form, for a^2 >= 1:
    F''(b)/2 + b F'''(b)/6 at b = a^2, with F(b) = pi coth(pi a)/a the
    Mittag-Leffler series sum_k 1/(k^2 + b).  coth(pi a) and csch^2(pi a)
    come from q = e^(-2 pi a), which cannot overflow."""
    a = np.sqrt(a2)
    q = np.exp(-2.0 * math.pi * a)
    c, u = (1.0 + q) / (1.0 - q), 4.0 * q / (1.0 - q) ** 2
    pi2 = math.pi ** 2
    return math.pi * c / (16.0 * a2 * a2 * a) - pi2 * pi2 * u * u / (8.0 * a2) \
        + u * (pi2 / (16.0 * a2 * a2) - pi2 * pi2 / (12.0 * a2))


def _angular_sum_values(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S(z) = sum over Z^2 of k1^2 k2^2 (|k|^2 + z^2)^-4 = 2 sum_{k1>=1} k1^2
    _k2_sum(k1^2 + z^2) for z > 0, and a bound on its Euler-Maclaurin error.

    Past K = _ANGULAR_KMAX the k2-sum is (pi/16) f(k1) up to e^(-2 pi K),
    f(k) = k^2 (k^2 + z^2)^(-5/2), and sum_{k>K} f = int_K^oo f - f(K)/2
    - f'(K)/12 + f'''(K)/720 - ...; for K >= 4z the odd derivatives of f
    keep one sign, so the next term f^(5)(K)/30240 bounds the remainder."""
    z2 = np.asarray(z, dtype=float) ** 2
    k2 = np.arange(1, _ANGULAR_KMAX + 1, dtype=float) ** 2
    head = 2.0 * (_k2_sum(k2 + z2[..., None]) @ k2)
    kk = float(_ANGULAR_KMAX)
    b, r = kk * kk, kk * kk + z2
    # int_K^oo f = (1 - K^3 (K^2+z^2)^(-3/2)) / (3 z^2), cancellation-free
    strip = -np.expm1(-1.5 * np.log1p(z2 / b)) / (3.0 * z2)
    f1 = -kk * (3.0 * b - 2.0 * z2) * r ** -3.5
    f3 = -15.0 * kk * (4.0 * b * b - 13.0 * b * z2 + 4.0 * z2 * z2) * r ** -5.5
    f5 = -315.0 * kk * (8.0 * b ** 3 - 60.0 * b * b * z2 + 65.0 * b * z2 * z2
                        - 10.0 * z2 ** 3) * r ** -7.5
    tail = strip - 0.5 * b * r ** -2.5 - f1 / 12.0 + f3 / 720.0
    return head + (math.pi / 8.0) * tail, (math.pi / 8.0) * np.abs(f5) / 30240.0


def angular_lattice_sum(s: complex) -> QuadResult:
    """Regularized integral A(s) = int_0^oo z^(5-2s) S(z) dz of the angular sum.

    S(z) (weight k1^2 k2^2, denominator exponent 4) is ``_angular_sum_values``.
    At infinity Poisson summation gives S(z) = (pi/24) z^-2 + O(e^(-2 pi z));
    on z >= 1 that power is removed and its regularized integral
    -(pi/24)/(4-2s) added back.  The error is an achieved estimate: the
    GL32 - GL16 panel differences, plus the weighted Euler-Maclaurin bound
    of S, plus bounds on the dropped ends z < 2^-12 (S <= S(0) < 0.36) and
    z > 8 (|S - (pi/24) z^-2| <= (2 pi^3/3) z^-1/2 e^(-2 pi z)).
    """
    s = complex(s)
    if not 0.0 < s.real < 1.0:
        raise DomainError("angular lattice sum defined for Re(s) in (0,1)")
    edges = [2.0 ** -k for k in range(12, 0, -1)] + list(_ANGULAR_Z_EDGES)
    lo, width = np.array(edges[:-1])[:, None], np.diff(edges)[:, None]

    def panels(order):
        x, w = _gl_rule(order)
        z = lo + width * x
        vals, rem = _angular_sum_values(z)
        vals = vals - (z > 1.0) * (math.pi / 24.0) / (z * z)
        weight = np.exp((5.0 - 2.0 * s) * np.log(z))
        return (width * weight * vals) @ w, (width * np.abs(weight) * rem) @ w

    fine, em = panels(_ANGULAR_ORDER)
    coarse, _ = panels(_ANGULAR_ORDER // 2)
    p, top = 4.5 - 2.0 * s.real, edges[-1]
    ends = 0.36 * edges[0] ** (p + 1.5) / (p + 1.5) + (2.0 * math.pi ** 3 / 3.0) \
        * top ** p * math.exp(-2.0 * math.pi * top) / (2.0 * math.pi - p / top)
    return QuadResult(complex(np.sum(fine)) - (math.pi / 24.0) / (4.0 - 2.0 * s),
                      float(np.sum(np.abs(fine - coarse)) + np.sum(em)) + ends)


@lru_cache(maxsize=64)
def coeff_b1(s: complex) -> complex:
    """b1(s) = b1~(s) - (4 pi^2/(2-s)) A(s) (5-point), A = angular_lattice_sum.

    The denominator exponent 4 and the absence of an extra V_2(s) factor
    follow the partial-fraction derivation of the coefficient.  Memoized per
    s, so an expansion study runs the angular sum once.
    """
    s = complex(s)
    return coeff_b1_tilde(s) \
        - 4.0 * math.pi ** 2 / (2.0 - s) * angular_lattice_sum(s).value


# ---------------------------------------------------------------------------
# Taylor coefficients F_{m,j} of the symbol expansion
# ---------------------------------------------------------------------------

Poly = dict  # {(x_degree, y_degree): float}


@dataclass(frozen=True)
class TaylorCoefficient:
    """Polynomial F_{m,j} (x,y) with f^-2 = sum n^-2m sum_j F_{m,j}/r^(4+2j).

    Homogeneous of total degree 2m + 2j and symmetric under x <-> y.
    """

    m: int
    j: int
    variant: StencilVariant
    polynomial: Poly = field(default_factory=dict)

    def evaluate(self, x: float, y: float) -> float:
        return sum(c * x ** i * y ** k for (i, k), c in self.polynomial.items())


def _axis_taylor(kmax: int) -> list[float]:
    """t_k with (n^2/pi^2) sin^2(pi u/n) = u^2 + sum_{k>=1} t_k u^(2k+2) n^-2k."""
    return [(-1.0) ** k * 2.0 ** (2 * k + 1) * math.pi ** (2 * k)
            / math.factorial(2 * k + 2) for k in range(kmax + 1)]


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (i1, k1), c1 in a.items():
        for (i2, k2), c2 in b.items():
            key = (i1 + i2, k1 + k2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out


def _poly_axpy(acc: Poly, poly: Poly, scale: float) -> None:
    for key, c in poly.items():
        acc[key] = acc.get(key, 0.0) + scale * c
        if acc[key] == 0.0:
            del acc[key]


@lru_cache(maxsize=8)
def _correction_polys(variant: StencilVariant, mmax: int) -> tuple:
    """q_m polynomials with symbol = r^2 + sum_m q_m(x,y) n^-2m."""
    t = _axis_taylor(mmax)
    out = []
    for m in range(1, mmax + 1):
        q: Poly = {(2 * m + 2, 0): t[m], (0, 2 * m + 2): t[m]}
        if variant is StencilVariant.NINE_POINT:
            for a in range(m):
                b = m - 1 - a
                _poly_axpy(q, {(2 * a + 2, 2 * b + 2): 1.0},
                           -_TWO_THIRDS_PISQ * t[a] * t[b])
        out.append(q)
    return tuple(out)


def taylor_coefficients(m: int, variant: StencilVariant) -> list[TaylorCoefficient]:
    """F_{m,j} for j = 0..m (alpha = 2), by nested convolution of the
    per-axis sine series; exact polynomial arithmetic on sparse dicts."""
    if not 0 <= m <= 4:
        raise RangeError("Taylor coefficients generated for 0 <= m <= 4")
    if m == 0:
        return [TaylorCoefficient(0, 0, variant, {(0, 0): 1.0})]
    q = _correction_polys(variant, m)
    # powers[j][mm] = coefficient polynomial of w^mm in Q(w)^j, w = n^-2
    powers: list[dict[int, Poly]] = [{0: {(0, 0): 1.0}}]
    for j in range(1, m + 1):
        prev = powers[j - 1]
        cur: dict[int, Poly] = {}
        for mm in range(j, m + 1):
            acc: Poly = {}
            for i in range(1, mm - (j - 1) + 1):
                if mm - i in prev:
                    _poly_axpy(acc, _poly_mul(q[i - 1], prev[mm - i]), 1.0)
            cur[mm] = acc
        powers.append(cur)
    out = []
    for j in range(m + 1):
        sign = -1.0 if j & 1 else 1.0
        poly = powers[j].get(m, {}) if j > 0 else ({(0, 0): 1.0} if m == 0 else {})
        scaled: Poly = {}
        _poly_axpy(scaled, poly, sign * (j + 1))
        # the convolution can leave (i,k)/(k,i) a few ulp apart; the true
        # coefficients are symmetric, so enforce it exactly
        sym: Poly = {}
        for (i, k), c in scaled.items():
            if (i, k) not in sym:
                avg = 0.5 * (c + scaled.get((k, i), c))
                sym[(i, k)] = avg
                sym[(k, i)] = avg
        out.append(TaylorCoefficient(m, j, variant, sym))
    return out


def symbol_value(variant: StencilVariant, x: float, y: float, n: float,
                 z: float) -> float:
    """f(x,y,n,z) resp. g(x,y,n,z): the exact discrete symbol."""
    sx = (n / math.pi) ** 2 * math.sin(math.pi * x / n) ** 2
    sy = (n / math.pi) ** 2 * math.sin(math.pi * y / n) ** 2
    return stencil_symbol(variant, sx, sy,
                          2.0 * math.pi ** 2 / (3.0 * n * n)) + z * z


def series_truncation_check(variant: StencilVariant, big_n: int,
                            sample: tuple, n_list: list) -> list:
    """Error of the order-N truncated symbol expansion at one (x,y,z) sample.

    Returns [(n, |f^-2 - truncated series|)]; the caller checks the
    O(n^-2N) slope.
    """
    if not 1 <= big_n <= 4:
        raise RangeError("truncation order N must be in 1..4")
    x, y, z = sample
    r2 = x * x + y * y + z * z
    if r2 <= 0:
        raise DomainError("sample must have x^2+y^2+z^2 > 0")
    coeffs = [taylor_coefficients(m, variant) for m in range(big_n)]
    out = []
    for n in n_list:
        exact = symbol_value(variant, x, y, n, z) ** -2.0
        approx = 0.0
        for m in range(big_n):
            sub = sum(tc.evaluate(x, y) / r2 ** (2 + tc.j) for tc in coeffs[m])
            approx += n ** (-2.0 * m) * sub
        out.append((n, abs(exact - approx)))
    return out


# ---------------------------------------------------------------------------
# Euler-Maclaurin verifier
# ---------------------------------------------------------------------------

def em_verify(big_m: int, n: int, fn, derivative, upper_open: bool = False):
    """Both sides of the Euler-Maclaurin identity for sum_{i=0}^n u(i).

    ``derivative(order, x)`` must return u^(order)(x); orders used are the
    odd ones up to 2M-1 plus 2M+1 for the remainder kernel.  With
    ``upper_open`` the sum runs to n-1 and the boundary term flips to
    (u(0) - u(n))/2.  Returns (lhs, rhs).
    """
    if big_m < 1:
        raise RangeError("M must be >= 1")
    if n < 2:
        raise RangeError("n must be >= 2")
    top = n if not upper_open else n - 1
    lhs = math.fsum(fn(float(i)) for i in range(top + 1))

    gx, gw = _gl_rule(32)
    integral = 0.0
    for i in range(n):
        xs = i + gx
        integral += float(np.dot(gw, np.array([fn(v) for v in xs])))
    if upper_open:
        boundary = 0.5 * (fn(0.0) - fn(float(n)))
    else:
        boundary = 0.5 * (fn(0.0) + fn(float(n)))
    corr = 0.0
    for j in range(1, big_m + 1):
        b2j = float(bernoulli_fraction(2 * j))
        corr += b2j / math.factorial(2 * j) \
            * (derivative(2 * j - 1, float(n)) - derivative(2 * j - 1, 0.0))
    order = 2 * big_m + 1
    remainder = 0.0
    for i in range(n):
        xs = i + gx
        kern = np.array([bernoulli_polynomial(order, float(v - i)) for v in xs])
        dv = np.array([derivative(order, float(v)) for v in xs])
        remainder += float(np.dot(gw, kern * dv))
    remainder /= math.factorial(order)
    rhs = integral + boundary + corr + remainder
    return lhs, rhs


# ---------------------------------------------------------------------------
# H_n and residual orders
# ---------------------------------------------------------------------------

def resolvent_leading_term(n: int, variant: StencilVariant, alpha: int,
                           z: float, tol: float = 1e-11) -> float:
    """Leading Euler-Maclaurin term of the discrete resolvent trace:
    n^(2-2 alpha) times the unit-square integral of (h + (z/n)^2)^-alpha."""
    zn = z / n

    def f(x, y):
        sx = np.sin(np.pi * x) ** 2 / math.pi ** 2
        sy = np.sin(np.pi * y) ** 2 / math.pi ** 2
        val = stencil_symbol(variant, sx, sy, _TWO_THIRDS_PISQ) + zn * zn
        return val ** -float(alpha)

    inner = quad_periodic_2d(f, tol)
    return float(n ** (2 - 2 * alpha)) * inner.value.real


def h_function(s: complex, n: int, tol: float = 1e-12) -> complex:
    """H_n(s) = pi^-s Gamma(s) (zeta(Delta~_n, s) - V_2(s) a~(s) n^(2-2s)).

    Always the 9-point variant; a~(s) is memoized per s so n-sweeps pay the
    quadrature once.
    """
    s = complex(s)
    if not 0.0 < s.real < 1.0:
        raise DomainError("H_n defined for Re(s) in (0,1)")
    if n < 2:
        raise RangeError("n must be >= 2")
    zn = spectral_zeta(TorusGrid(n), StencilVariant.NINE_POINT, s)
    lead = leading_coeff(s, StencilVariant.NINE_POINT, tol)
    npow = complex(n) ** (2.0 - 2.0 * s)
    return _pi_pow_gamma(s) * (zn - v_factor(2, s) * lead * npow)


@dataclass(frozen=True)
class ExpansionResult:
    """Bundled output of an expansion study at one s.

    ``residuals`` holds (n, |residual|) pairs with strictly increasing n and
    positive magnitudes; ``slope`` is their log-log fit.  ``b1`` is the
    variant's n^-2 coefficient (with the angular term for the 5-point).
    """

    s: complex
    variant: StencilVariant
    leading: complex
    b0: complex
    b1: complex
    v_front: complex
    residuals: tuple
    slope: float

    def __post_init__(self):
        ns = [n for n, _ in self.residuals]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise RangeError("residual n values must be strictly increasing")
        if any(r <= 0 for _, r in self.residuals):
            raise RangeError("residual magnitudes must be positive")


def expansion_summary(s: complex, variant: StencilVariant, n_list,
                      orders_included: int = 1,
                      tol: float = 1e-12) -> ExpansionResult:
    """Evaluate the expansion pieces and the residual study in one bundle."""
    s = complex(s)
    slope, pts = residual_order(s, variant, n_list, orders_included, tol)
    b1 = coeff_b1_tilde(s) if variant is StencilVariant.NINE_POINT \
        else coeff_b1(s)
    return ExpansionResult(
        s=s, variant=variant, leading=leading_coeff(s, variant, tol),
        b0=coeff_b0(s), b1=b1, v_front=v_factor(2, s),
        residuals=tuple(pts), slope=slope)


def residual_order(s: complex, variant: StencilVariant, n_list,
                   orders_included: int = 1, tol: float = 1e-12):
    """Log-log slope of the expansion residual over a geometric n list.

    The leading term and the constant term zeta(Delta, s) are always
    subtracted; ``orders_included`` >= 1 also subtracts the n^-2 coefficient
    (b1~ for the 9-point, b1 with the angular term for the 5-point).
    Raises SignalLostError when any residual sits on the summation /
    quadrature noise floor instead of the signal.
    """
    s = complex(s)
    if len(n_list) < 3:
        raise RangeError("need at least three n values")
    if not 0 <= orders_included <= 1:
        raise RangeError("orders beyond b1 are not implemented")
    lead = leading_coeff(s, variant, tol)
    v2 = v_factor(2, s)
    const = epstein_zeta_2d(s)
    b1term = 0j
    if orders_included >= 1:
        b1 = coeff_b1_tilde(s) if variant is StencilVariant.NINE_POINT \
            else coeff_b1(s)
        b1term = v2 * b1
    pts = []
    for n in n_list:
        zn = spectral_zeta(TorusGrid(n), variant, s)
        model = v2 * lead * complex(n) ** (2.0 - 2.0 * s) + const \
            + b1term * float(n) ** -2.0
        resid = abs(zn - model)
        # the quadrature stop targets 1e-3 tol relative, so tol/100 is a
        # conservative bound on the achieved leading-coefficient error
        floor = 1e-14 * abs(zn) + 0.01 * tol * abs(v2 * lead) \
            * float(n) ** (2.0 - 2.0 * s.real)
        if resid < 10.0 * floor:
            raise SignalLostError(
                f"residual {resid:.3g} at n={n} is within 10x of the noise "
                f"floor {floor:.3g}; refine tolerances or shrink n")
        pts.append((math.log(n), math.log(resid)))
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, [(int(n), math.exp(y)) for n, y in zip(n_list, ys)]

"""Asymptotic expansion of the discrete spectral zeta functions.

Computes the leading coefficients a(s) (5-point) and a~(s) (9-point) by
quadrature of

    a(s) = int_0^oo z^(3-2s) int_0^1 int_0^1 symbol(x,y,z)^-2 dx dy dz,

the closed-form coefficients b0 and b1~ through the Epstein factors, the
angular lattice sum entering b1 (inner lattice sum in closed form, outer
one closed by an Euler-Maclaurin tail, so nothing is truncated), the Taylor
coefficient polynomials of the symbol expansion, the Euler-Maclaurin
identity verifier, H_n, and residual order measurements against directly
computed discrete zetas.  The symbol is ``lattice``'s (see its docstring),
taken at n = 1 on the unit square.

Implementation notes on the leading coefficient: the inner y-integral has
the closed form

    int_0^1 (A + B sin^2(pi y)/pi^2)^-2 dy
        = (A + B/(2 pi^2)) (A (A + B/pi^2))^(-3/2),

leaving a 2-D (x, z) quadrature with geometrically graded panels toward the
corner singularity (the z-panels are ``quadrature._graded_panels``, whose
floor exit takes over past Re(s) = 1; ``leading_coeff`` returns its achieved
error with the value); on z >= 1 the integrand is analytic in 1/z^2 and the
tail integral is summed exactly as

    int_1^oo = sum_{j>=0} (j+1) (-1)^j <h^j> / (2s + 2j),

with <h^j> the unit-square moments of the z-free symbol (a trigonometric
polynomial, so the moments are exact trapezoid sums).

The array kernels (the (z, x) integrand of each z-panel, the closed-form
k2-sum of the angular sum, the moments) run in place in arrays local to one
call: each ufunc runs in the order of the written-out expression, so the
values keep their bits, and nothing is shared between calls, so every
function stays safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .epstein import epstein_zeta_2d, v_factor, v_factor_inv, _pi_pow_gamma
from .errors import DomainError, RangeError, SignalLostError
from .lattice import (StencilVariant, TorusGrid, axis_symbol, spectral_zeta,
                      stencil_symbol)
from .quadrature import QuadResult, quad_periodic_2d, _gl_panels, _graded_panels
from .special import (_BERNOULLI_MAX, _as_points, bernoulli_fraction,
                      bernoulli_polynomial)


def _cross_coeff(variant: StencilVariant) -> float:
    """Coefficient of a b in the unit-square symbol: -2 pi^2/3 (9-point) or
    0 (5-point), read off exactly: 2 - c and (2 - c) - 2 do not round."""
    return float(stencil_symbol(variant, 1.0, 1.0, 1)) - 2.0


@lru_cache(maxsize=4)
def _h_moments(variant: StencilVariant) -> np.ndarray:
    """Moments <h^j>, j = 0..40, of the z-free symbol over the unit square.

    h is a trigonometric polynomial, so the trapezoid mean on a 128x128
    grid is exact (to rounding) for all j <= 40.  Read-only.
    """
    n = 128
    sx = axis_symbol(np.arange(n) / n, 1)
    h = stencil_symbol(variant, sx[:, None], sx[None, :], 1)
    out = np.empty(41)
    p = np.ones_like(h)
    for j in range(41):
        out[j] = float(np.mean(p))
        p *= h
    out.flags.writeable = False
    return out


def _inner_xshape(variant: StencilVariant, zmin: float):
    """Graded x-nodes/weights on [0, 1/2] resolving the corner at scale zmin."""
    edges = [0.5]
    while edges[-1] > 0.25 * zmin and edges[-1] > 2.0 ** -200:
        edges.append(0.5 * edges[-1])
    # the panels [e_i+1, e_i] from 1/2 down, then [0, e_last]
    x, width, w = _gl_panels(edges[1:] + [0.0], edges, 32)
    sx = axis_symbol(x.ravel(), 1)
    b = 1.0 + _cross_coeff(variant) * sx  # symbol = sx + b sy on the square
    return sx, b, (width * w).ravel()


def _inner_j(z: np.ndarray, variant: StencilVariant) -> np.ndarray:
    """J(z) = int over the unit square of symbol(x,y,z)^-2, vectorized in z.

    The (z, x) integrand (c + b/(2 pi^2)) (c (c + b/pi^2))^-3/2, c = z^2 +
    sx, is formed in place in two float arrays.
    """
    z = np.asarray(z, dtype=float)
    sx, b, w = _inner_xshape(variant, float(z.min()))
    c = np.add.outer(z * z, sx)
    y = np.add(c, b / math.pi ** 2)
    y *= c
    y **= -1.5
    c += b / (2.0 * math.pi ** 2)
    y *= c
    return 2.0 * (y @ w)


def leading_coeff(s: complex, variant: StencilVariant,
                  tol: float = 1e-12) -> QuadResult:
    """Leading expansion coefficient a(s) / a~(s) and its achieved error.

    Defined for 0 < Re(s) < 1.75 away from s = 1: inside the strip (0,1)
    this is the convergent triple integral, beyond it the regularized
    continuation (precision degrades past Re(s) ~ 1.6 as the corner
    subtraction hits its roundoff floor).  The error is the geometric tail
    estimate of the z-panels left unsummed plus the roundoff floor of the
    corner subtraction summed over the panels taken.
    """
    s = complex(s)
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

    def panel(lo, hi, z):
        residual = np.exp((3.0 - 2.0 * s) * np.log(z)) \
            * (_inner_j(z, variant) - math.pi / (z * z))
        return residual, eps * math.pi * lo ** (1.0 - 2.0 * s.real) * (hi - lo)

    acc, err = _graded_panels(panel, tol, 1e-3, 8)
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
    return QuadResult(complex(value + tail_acc), err)


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
    a2 = np.asarray(a2, dtype=float)
    a, u, c, d = (np.empty(a2.shape) for _ in range(4))
    pi2 = math.pi ** 2
    # in place, each product and quotient in the order of
    #   pi c / (16 a2 a2 a) - pi2 pi2 u u / (8 a2)
    #       + u (pi2 / (16 a2 a2) - pi2 pi2 / (12 a2)),
    # c = (1 + q)/(1 - q), u = 4 q/(1 - q)^2, so the bits are the same
    np.sqrt(a2, out=a)
    q = np.exp(np.multiply(-2.0 * math.pi, a, out=u), out=u)
    np.divide(np.add(1.0, q, out=c), np.subtract(1.0, q, out=d), out=c)
    np.divide(np.multiply(4.0, q, out=u), np.square(d, out=d), out=u)
    np.multiply(np.multiply(16.0, a2, out=d), a2, out=d)
    c *= math.pi
    c /= np.multiply(d, a, out=d)  # the first term
    np.multiply(np.multiply(pi2 * pi2, u, out=d), u, out=d)
    c -= np.divide(d, np.multiply(8.0, a2, out=a), out=d)  # less the second
    np.divide(pi2, np.multiply(np.multiply(16.0, a2, out=a), a2, out=a), out=a)
    a -= np.divide(pi2 * pi2, np.multiply(12.0, a2, out=d), out=d)
    c += np.multiply(a, u, out=a)  # plus the third
    return c


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

    def panels(order):
        z, width, w = _gl_panels(edges[:-1], edges[1:], order)
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


def coeff_b1(s: complex) -> complex:
    """b1(s) = b1~(s) - (4 pi^2/(2-s)) A(s) (5-point), A = angular_lattice_sum.

    The denominator exponent 4 and the absence of an extra V_2(s) factor
    follow the partial-fraction derivation of the coefficient.
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
    polynomial: Poly

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
    cross = _cross_coeff(variant)  # 0 for the 5-point: axpy drops the terms
    for m in range(1, mmax + 1):
        q: Poly = {(2 * m + 2, 0): t[m], (0, 2 * m + 2): t[m]}
        for a in range(m):
            b = m - 1 - a
            _poly_axpy(q, {(2 * a + 2, 2 * b + 2): 1.0}, cross * t[a] * t[b])
        out.append(q)
    return tuple(out)


def taylor_coefficients(m: int, variant: StencilVariant) -> list[TaylorCoefficient]:
    """F_{m,j} for j = 0..m (alpha = 2), by nested convolution of the
    per-axis sine series; exact polynomial arithmetic on sparse dicts."""
    if not 0 <= m <= 4:
        raise RangeError("Taylor coefficients generated for 0 <= m <= 4")
    if m == 0:
        return [TaylorCoefficient(0, 0, {(0, 0): 1.0})]
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
        out.append(TaylorCoefficient(m, j, sym))
    return out


def symbol_value(variant: StencilVariant, x: float, y: float, n: float,
                 z: float) -> float:
    """f(x,y,n,z) resp. g(x,y,n,z): the exact discrete symbol of
    ``lattice.stencil_symbol`` over ``lattice.axis_symbol``, plus z^2."""
    sx, sy = axis_symbol(x, n), axis_symbol(y, n)
    return float(stencil_symbol(variant, sx, sy, n)) + z * z


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

def em_verify(big_m: int, n: int, fn, derivative):
    """Both sides of the Euler-Maclaurin identity for sum_{i=0}^n u(i).

    ``derivative(order, x)`` must return u^(order)(x); orders used are the
    odd ones up to 2M-1 plus 2M+1 for the remainder kernel, whose Bernoulli
    polynomial B_{2M+1} needs 2M+1 <= 64, so 1 <= M <= 31.  Returns
    (lhs, rhs).
    """
    top = (_BERNOULLI_MAX - 1) // 2
    if not 1 <= big_m <= top:
        raise RangeError(f"M={big_m} outside 1..{top}: the remainder kernel "
                         f"B_(2M+1) needs 2M+1 <= {_BERNOULLI_MAX}")
    if n < 2:
        raise RangeError("n must be >= 2")
    lhs = math.fsum(fn(float(i)) for i in range(n + 1))
    boundary = 0.5 * (fn(0.0) + fn(float(n)))
    corr = 0.0
    for j in range(1, big_m + 1):
        b2j = float(bernoulli_fraction(2 * j))
        corr += b2j / math.factorial(2 * j) \
            * (derivative(2 * j - 1, float(n)) - derivative(2 * j - 1, 0.0))
    # the integral and the remainder in one pass over the unit panels
    order = 2 * big_m + 1
    integral = remainder = 0.0
    nodes, _, gw = _gl_panels(np.arange(n), np.arange(1, n + 1), 32)
    for i, xs in enumerate(nodes):
        integral += float(np.dot(gw, np.array([fn(v) for v in xs])))
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
                           z: float) -> float:
    """Leading Euler-Maclaurin term of the discrete resolvent trace:
    n^(2-2 alpha) times the unit-square integral of (h + (z/n)^2)^-alpha."""
    zn = z / n

    def f(x, y):
        val = stencil_symbol(variant, axis_symbol(x, 1), axis_symbol(y, 1), 1)
        return (val + zn * zn) ** -float(alpha)

    inner = quad_periodic_2d(f)
    return float(n ** (2 - 2 * alpha)) * inner.value.real


def h_function(s, n, tol: float = 1e-12):
    """H_n(s) = pi^-s Gamma(s) (zeta(Delta~_n, s) - V_2(s) a~(s) n^(2-2s)),
    9-point, at one s or a 1-D array of s, and at one n or a 1-D sequence
    of n (a leading axis): every n checked, then V_2(s) (which overflows
    past |Im s| ~ 239, before any other work), a~(s) and the Gamma factors
    once per point, then one spectral pass per n over all the points."""
    points = _as_points(np.atleast_1d(s))
    if not ((0.0 < points.real) & (points.real < 1.0)).all():
        raise DomainError("H_n defined for Re(s) in (0,1)")
    ns = np.atleast_1d(n).tolist()
    if any(m < 2 for m in ns):
        raise RangeError("n must be >= 2")
    grids = [TorusGrid(m) for m in ns]
    pts = points.tolist()
    v2 = [v_factor(2, p) for p in pts]
    lead = [leading_coeff(p, StencilVariant.NINE_POINT, tol).value for p in pts]
    front = _pi_pow_gamma(points)
    h = np.empty((len(ns), len(pts)), dtype=complex)
    for row, m, grid in zip(h, ns, grids):
        zn = spectral_zeta(grid, StencilVariant.NINE_POINT, points)
        row[:] = [f * (z - v * a * complex(m) ** (2.0 - 2.0 * p))
                  for p, z, a, f, v in zip(pts, zn.tolist(), lead, front, v2)]
    h = h if np.ndim(s) else h[:, 0]
    return h if np.ndim(n) else h[0]


def residual_order(s: complex, variant: StencilVariant, n_list,
                   orders_included: int = 1, tol: float = 1e-12):
    """Log-log slope of the expansion residual over a geometric n list.

    Returns (slope, [(n, |residual|)], (a(s), V_2(s), zeta(Delta, s), b1));
    the n list must hold at least three strictly increasing values.  The
    leading term and the constant term zeta(Delta, s) are always
    subtracted, the n^-2 term b1 (b1~ for the 9-point, b1 with the angular
    term for the 5-point) when ``orders_included`` >= 1; b1 is returned
    either way.
    Raises SignalLostError when any residual sits on the summation /
    quadrature noise floor instead of the signal.
    """
    s = complex(s)
    if len(n_list) < 3:
        raise RangeError("need at least three n values")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise RangeError("residual n values must be strictly increasing")
    if not 0 <= orders_included <= 1:
        raise RangeError("orders beyond b1 are not implemented")
    lead = leading_coeff(s, variant, tol).value
    v2 = v_factor(2, s)
    const = epstein_zeta_2d(s)
    b1 = coeff_b1_tilde(s) if variant is StencilVariant.NINE_POINT \
        else coeff_b1(s)
    b1term = v2 * b1 if orders_included >= 1 else 0j
    pts = []
    for n in n_list:
        zn = spectral_zeta(TorusGrid(n), variant, s)
        model = v2 * lead * complex(n) ** (2.0 - 2.0 * s) + const \
            + b1term * float(n) ** -2.0
        resid = abs(zn - model)
        # tol/100 relative is an assumed floor on the leading coefficient's
        # error, not a bound: at s = 0.3+2i and 0.7+2i (9-point), the error
        # leading_coeff returns is 2.7-3.7x above it
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
    return slope, [(int(n), math.exp(y)) for n, y in zip(n_list, ys)], \
        (lead, v2, const, b1)

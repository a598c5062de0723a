"""Self-contained complex special functions.

Gamma, log-Gamma, digamma, Riemann zeta, Dirichlet beta, Bernoulli numbers
and polynomials -- every transcendental ingredient the lattice/zeta modules
consume.  Digamma takes a complex or real s and returns Python complex.
``complex_gamma``, ``complex_log_gamma``, ``riemann_zeta`` and
``dirichlet_beta`` take one s or a 1-D array of s (``_one_or_many``): an
array gives an array, one s the value it has inside any batch, as an
np.complex128.  They reject an inf or nan s with DomainError and any other
shape with ShapeError.  Both series sum terms w_k m^(-s) over m = 1..n
(zeta) or the odd m up to 2n - 1 (beta), and m^(-s) is completely
multiplicative: a table of m^(-s) needs an exp at the primes only, and one
table serves both series (``_zeta_beta``).  Each value has the same bits in
any batch: every point's terms come from elementwise operations and its own
order's weights, and are added in row order by one column sum per block of
points.  Everything is pure and safe to call concurrently.

Gamma, log-Gamma and digamma take one Stirling step: the shift
k = max(0, ceil(8 - Re s)), the exponent (w - 1/2) log w - w +
log sqrt(2 pi) + tail at w = s + k (long double, the tail in double), and
the recurrence over s + j, j < k: a product for Gamma (reflected below
Re(s) = 0), a sum of principal logs for log-Gamma (so it is the principal
branch off the poles) and of 1/(s + j) for digamma (from the exponent's
derivative).

Accuracy, relative to 30- or 40-digit oracles: Gamma (and pi^(-s) Gamma(s))
6e-16 on Re(s) in [-10, 3], |Im(s)| <= 200; log-Gamma 9e-16 (to
max(1, |log Gamma|)) and digamma 6e-16 on Re(s) in [-10, 10],
|Im(s)| <= 200; zeta/beta 1e-12 on |Im(s)| <= 100.  Zeta and beta switch
from the accelerated alternating series to the functional-equation
reflection at Re(s) = -1, so the strip -1 < Re(s) < 0 is always served by
the direct series.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, wraps

import numpy as np

from .errors import DomainError, PoleError, RangeError, ShapeError

EULER_GAMMA = 0.5772156649015328606

_LOG_PI = math.log(math.pi)

# long-double constants of the Gamma exponent, parsed to full precision
_LD = np.longdouble
_LD_PI = _LD("3.14159265358979323846264338327950288")
_LD_LOG_SQRT_TWO_PI = _LD("0.918938533204672741780329736405617640")
_LD_LOG_PI = _LD("1.14472988584940017414342735135305871")
_LD_LOG_HALF_PI = _LD("0.451582705289454864726195229894882143")

# Stirling series coefficients B_{2k}/(2k(2k-1)) for log-Gamma.
_STIRLING_LG = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
    -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0, 43867.0 / 244188.0,
)


def _as_points(s) -> np.ndarray:
    """s as a 1-D complex array; ShapeError for any other shape and
    DomainError at the first inf or nan point."""
    values = np.asarray(s, dtype=complex)
    if values.ndim != 1:
        raise ShapeError(f"expected a 1-D array of s, got shape {values.shape}")
    finite = np.isfinite(values)
    if not finite.all():
        raise DomainError(f"s must be finite, got {values[~finite][0]}")
    return values


def _one_or_many(fn):
    """fn, a function of a 1-D complex array of s, made to take one s or a
    1-D array of s, each checked by ``_as_points``: one s gives the element
    of its one-point batch, which keeps NumPy's arithmetic in its callers."""
    @wraps(fn)
    def one_or_many(s, *args, **kwargs):
        if np.ndim(s):
            return fn(_as_points(s), *args, **kwargs)
        return fn(_as_points([s]), *args, **kwargs)[0]
    return one_or_many


def _gamma_poles(s, what: str | None = None) -> np.ndarray:
    """True at the points of s (an array or one point) that are
    non-positive integers, where Gamma has its poles; given ``what``,
    PoleError at the first of them instead."""
    s = np.asarray(s, dtype=complex)
    poles = (s.imag == 0.0) & (s.real <= 0.0) & (s.real == np.floor(s.real))
    if what is not None and poles.any():
        pole = complex(s[poles][0])
        raise PoleError(f"{what} has a pole at s = {pole.real:g}",
                        location=pole)
    return poles


def _stirling_shift(s: np.ndarray):
    """The shift k = max(0, ceil(8 - Re s)) of every point of a complex
    array s, to Re(s + k) >= 8 where the Stirling series holds to double
    precision, and the recurrence's points: (j < k, s + j) for each j
    below the largest k."""
    k = np.fmax(np.ceil(8.0 - s.real), 0.0)
    return k, ((j < k, s + j) for j in range(int(k.max(initial=0.0))))


def _stirling_exponent(s: np.ndarray, k: np.ndarray) -> np.ndarray:
    """log Gamma(w) at w = s + k, s a long-double complex array and k its
    shift: (w - 1/2) log w - w + log sqrt(2 pi) in long double, plus the
    Stirling tail sum_i c_i w^(-2i-1) (below 1/96) in double."""
    w = s + k
    p = 1.0 / (s.astype(complex) + k)
    inv2 = p * p
    tail = np.zeros_like(p)
    for c in _STIRLING_LG:
        tail += c * p
        p = p * inv2
    return (w - 0.5) * np.log(w) - w + _LD_LOG_SQRT_TWO_PI + tail


def _sinpi(z: np.ndarray) -> np.ndarray:
    """sin(pi z) in long double at every point of a complex array, with the
    exact reduction of Re(z) to [-1/2, 1/2]."""
    n = np.floor(z.real + 0.5)
    return np.where(n % 2.0 == 0.0, 1.0, -1.0) * np.sin(_LD_PI * (z - n))


def _gamma_ld(s: np.ndarray, log_base) -> np.ndarray:
    """b^(-s) Gamma(s), log b = ``log_base``, at every point of a
    long-double complex array off the poles, in long double.

    Re(s) > 0: exp of the Stirling exponent minus s log b, divided by the
    shift product of the s + j, j < k, in double.  Re(s) <= 0: reflection,
    pi / (sin(pi s) b G(1 - s)) with G(w) = b^(-w) Gamma(w).
    """
    out = np.empty_like(s)
    reflect = s.real <= 0.0
    if reflect.any():
        x = s[reflect]
        out[reflect] = _LD_PI / (_sinpi(x) * np.exp(log_base)
                                 * _gamma_ld(1.0 - x, log_base))
    s = s[~reflect]
    s_double = s.astype(complex)
    k, shifted = _stirling_shift(s_double)
    shift = np.ones_like(s_double)
    for taken, z in shifted:
        # not in place: numpy's in-place product of one element rounds
        # differently, and each value must keep its bits in any batch
        shift = shift * np.where(taken, z, 1.0)
    out[~reflect] = np.exp(_stirling_exponent(s, k) - s * log_base) / shift
    return out


@_one_or_many
def complex_gamma(s, log_base=0.0):
    """Gamma(s), times b^(-s) for a base b given by its logarithm
    ``log_base`` (a long double, e.g. ``_LD_LOG_PI`` for pi^(-s) Gamma(s));
    PoleError at the non-positive integers.

    The exponent is formed in long double, so the result is accurate to a
    few ulp out to |Im(s)| ~ 200 and exactly real on the real axis.
    """
    _gamma_poles(s, "Gamma")
    return _gamma_ld(s.astype(np.clongdouble), _LD(log_base)).astype(complex)


@_one_or_many
def complex_log_gamma(s):
    """The principal branch of log Gamma: real on (0, oo), analytic off
    (-oo, 0], exp(log_gamma) == complex_gamma; PoleError at the non-positive
    integers.

    The Stirling exponent at w = s + k less the sum of the principal
    log(s + j), j < k: the principal branch off the poles (Hare 1997).
    """
    _gamma_poles(s, "log-Gamma")
    k, shifted = _stirling_shift(s)
    shift = np.zeros_like(s)
    for taken, z in shifted:
        shift = shift + np.where(taken, np.log(z), 0.0)
    return (_stirling_exponent(s.astype(np.clongdouble), k) - shift) \
        .astype(complex)


def digamma(s: complex) -> complex:
    """psi(s) = Gamma'(s)/Gamma(s), the derivative of the Stirling step:
    log w - 1/(2w) - sum (2i+1) c_i w^(-2i-2) at w = s + k, less the sum of
    1/(s + j), j < k."""
    s = np.array([complex(s)])
    _gamma_poles(s, "digamma")
    k, shifted = _stirling_shift(s)
    w = s + k
    p = inv2 = 1.0 / (w * w)
    tail = np.zeros_like(w)
    for i, c in enumerate(_STIRLING_LG):
        tail += (2 * i + 1) * c * p
        p = p * inv2
    shift = np.zeros_like(s)
    for taken, z in shifted:
        shift = shift + np.where(taken, 1.0 / z, 0.0)
    return complex((np.log(w) - 0.5 / w - tail - shift)[0])


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only: a memo shares it with every caller."""
    a.flags.writeable = False
    return a


_RESCALE = 2.0 ** 900
# the largest order whose running sum d_n / n stays below _RESCALE
_ONE_PASS_MAX = 357
# series order -> its signed weights, read-only, for the orders up to
# _ONE_PASS_MAX (at most 0.5 MB in all; ``_borwein_weights``)
_WEIGHTS: dict = {}


# the larger orders, which a sweep in t meets without end, 128 at a time
@lru_cache(maxsize=128)
def _order_weights(n: int) -> np.ndarray:
    """Order n's signed weights by its own running product and sum, both
    divided by 2^900 where the sum passes it (n > ``_ONE_PASS_MAX``)."""
    j = np.arange(n)
    steps = 4.0 * (n + j) * (n - j) / ((2 * j + 1) * (2 * j + 2))
    d = np.empty(n + 1)
    k, p, acc = 0, 1.0 / n, 1.0 / n
    while k <= n:
        with np.errstate(over="ignore"):  # past a rescale, redone from it
            ps = np.multiply.accumulate(np.concatenate([[p], steps[k:]]))
            accs = np.add.accumulate(np.concatenate([[acc], ps[1:]]))
        over = np.flatnonzero(accs > _RESCALE)
        e = int(over[0]) if over.size else accs.size
        d[k:k + e] = n * accs[:e]
        if over.size:
            d[:k + e] /= _RESCALE
            p, acc = ps[e] / _RESCALE, accs[e] / _RESCALE
        k += e
    w = (d[n] - d[:n]) / d[n]
    w[1::2] = -w[1::2]
    return _read_only(w)


def _one_pass_weights(orders: list) -> None:
    """Put the signed weights of ``orders`` (none above ``_ONE_PASS_MAX``)
    in ``_WEIGHTS`` from one running product and sum down the rows of a
    (j, order) table, element for element the arithmetic of
    ``_order_weights``; past row n a column's steps are <= 0, its product 0."""
    n = np.array(orders)
    j = np.arange(n.max())[:, None]
    p = np.vstack([1.0 / n, 4.0 * (n + j) * (n - j)
                   / ((2 * j + 1) * (2 * j + 2))])
    d = n * np.add.accumulate(np.multiply.accumulate(p, axis=0), axis=0)
    top = d[n, np.arange(n.size)]
    w = (top - d[:-1]) / top
    w[1::2] = -w[1::2]
    _WEIGHTS.update((m, _read_only(w[:m, c].copy()))
                    for c, m in enumerate(orders))


def _borwein_weights(orders: list) -> dict:
    """{n: signed Chebyshev/binomial weights (-1)^k (d_n - d_k)/d_n, k < n}
    for the distinct int ``orders``, none above ``_ONE_PASS_MAX`` (|Im(s)|
    ~ 355 on the line), from ``_WEIGHTS`` once it holds them: d_k = n
    sum_{j <= k} p_j, p_0 = 1/n, p_{j+1} = p_j 4 (n+j)(n-j) / ((2j+1)(2j+2)).
    The orders it lacks are built in one pass, with the bits of
    ``_order_weights``, which serves the larger orders (whose sum passes
    2^900) one at a time."""
    if missing := [n for n in orders if n not in _WEIGHTS]:
        _one_pass_weights(missing)
    return {n: _WEIGHTS[n] for n in orders}


# The validated domain of zeta and beta: their accuracy target is tested on
# |Im(s)| <= SERIES_MAX_IM (series orders 27..130 on Re(s) in [-1, 2]).  The
# CLI rejects points outside it under --strict.
SERIES_MAX_IM = 100.0

_LOG_CONVERGENCE_RATE = math.log(3.0 + math.sqrt(8.0))


def _series_order(s) -> np.ndarray:
    """The Borwein series order of every point of s (an array or one
    point)."""
    # Error ~ (3+sqrt(8))^-n (1+2|t|) e^{pi|t|/2}; pad for Re(s) down to -1.
    s = np.asarray(s, dtype=complex)
    t = np.abs(s.imag)
    n = (0.5 * math.pi * t + np.log(3.0 + 2.0 * t) + 40.0) \
        / _LOG_CONVERGENCE_RATE
    n += 8.0 * np.maximum(0.0, 0.5 - s.real)
    return np.maximum(24, n.astype(int) + 4)


# entries per column block of the power table, (table rows x columns),
# which bounds a block's memory at any height
_BLOCK = 1 << 14
# tables are planned for orders rounded up to a multiple of this, so that a
# batch over all orders of the validated domain builds 14 plans, not 104
_PLAN_STEP = 8


def _plan_order(n: int) -> int:
    """The order of the table plan that serves order n."""
    return -(-n // _PLAN_STEP) * _PLAN_STEP


# (smallest prime factor, Omega) of 0, 1, ..., size - 1: the process's one
# sieve, replaced by one of twice the size when a plan needs more; a plan
# reads the tuple once, so a concurrent replacement cannot mix two sieves
_SIEVE: tuple = ()


def _sieve(top: int) -> tuple[np.ndarray, np.ndarray]:
    """The smallest prime factor and Omega(m), the number of prime factors
    with multiplicity, of every m < top (and maybe more), read-only."""
    global _SIEVE
    sieve = _SIEVE
    if sieve and sieve[0].size >= top:
        return sieve
    size = max(256, 2 * sieve[0].size if sieve else 0)
    while size < top:
        size *= 2
    spf = np.arange(size)
    for p in range(2, math.isqrt(size - 1) + 1):
        spf[p * p::p] = np.minimum(spf[p * p::p], p)
    omega, rest = np.zeros(size, dtype=int), np.maximum(np.arange(size), 1)
    while (left := rest > 1).any():
        omega, rest = omega + left, np.where(left, rest // spf[rest], rest)
    _SIEVE = sieve = (_read_only(spf), _read_only(omega))
    return sieve


@lru_cache(maxsize=128)
def _sieve_plan(n: int, strides: tuple):
    """How to build the table of m^(-s) over the bases m = 1 + stride k,
    k < n, of every stride: row 0 holds m = 1, then come the primes, then
    the composites level by level in Omega(m), each the product of the rows
    of its smallest prime factor and cofactor (both from ``_sieve``).
    Returns (log of the primes, the levels as (first row, end row, factor
    rows, cofactor rows), the rows of each stride's terms, the number of
    rows), its arrays read-only."""
    bases = [1 + stride * np.arange(n) for stride in strides]
    top = max(b[-1] for b in bases) + 1
    spf, omega = _sieve(top)
    ms = np.flatnonzero(np.bincount(np.concatenate(bases)))
    ms = ms[np.argsort(omega[ms], kind="stable")]
    row = np.empty(top, dtype=int)
    row[ms] = np.arange(ms.size)
    starts = np.searchsorted(omega[ms], range(1, omega[ms[-1]] + 2)).tolist()
    levels = tuple((lo, hi, _read_only(row[spf[ms[lo:hi]]]),
                    _read_only(row[ms[lo:hi] // spf[ms[lo:hi]]]))
                   for lo, hi in zip(starts[1:], starts[2:]))
    return (_read_only(np.log(ms[starts[0]:starts[1]])), levels,
            tuple(_read_only(row[b]) for b in bases), ms.size)


def _column_blocks(orders: np.ndarray, strides: tuple) -> list:
    """(lo, hi) of the column blocks of the ascending ``orders``: as many
    columns as keep the table of the largest order within ``_BLOCK``
    entries, and at least one."""
    rows = _sieve_plan(_plan_order(int(orders[-1])), strides)[3]
    width = max(1, _BLOCK // rows)
    return [(lo, min(lo + width, orders.size))
            for lo in range(0, orders.size, width)]


def _borwein_series(s: np.ndarray, strides: tuple) -> np.ndarray:
    """sum_k w_k (1 + stride k)^(-s), k < n, for each s of a 1-D complex
    array and each stride of ``strides`` ((1,), (2,) or (1, 2)), w the
    signed Borwein weights of the order n = ``_series_order(s)``: one row of
    sums per stride, at the points where the series serves, Re(s) >= -1,
    and 0 at the rest.

    The points run sorted by order, in column blocks.  A block builds one
    table of m^(-s) for all its strides: at the primes p the real
    p^(-Re s) of each column times the phase p^(-i Im s), one complex exp
    per distinct Im s of the block; a product of two rows at each
    composite.  A column's terms are its table rows times its weights, then
    zeros (the block's weights are laid out once per run of columns of one
    order, for all strides); a column sum adds them in row order (a cumsum
    for a one-column block): every point gets its own terms in a fixed
    order, and the same bits in any batch.
    """
    out = np.zeros((len(strides), s.size), dtype=complex)
    series = np.flatnonzero(s.real >= -1.0)
    if not series.size:
        return out
    orders = _series_order(s[series])
    by_order = series[np.argsort(orders, kind="stable")]
    orders = np.sort(orders, kind="stable")
    blocks = _column_blocks(orders, strides)
    cuts = [0, *(np.flatnonzero(orders[1:] != orders[:-1]) + 1).tolist(),
            orders.size]  # where each run of one order starts, and the end
    held = _borwein_weights([m for m in orders[cuts[:-1]].tolist()
                             if m <= _ONE_PASS_MAX])
    size = _sieve_plan(_plan_order(int(orders[-1])), strides)[3] \
        * (blocks[0][1] - blocks[0][0])
    table, terms = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    weights = np.empty(size)
    for lo, hi in blocks:
        n = int(orders[hi - 1])
        log_primes, levels, stride_rows, rows = _sieve_plan(_plan_order(n),
                                                            strides)
        p = table[:rows * (hi - lo)].reshape(rows, hi - lo)
        t = terms[:n * (hi - lo)].reshape(n, hi - lo)
        w = weights[:n * (hi - lo)].reshape(n, hi - lo)
        x = s[by_order[lo:hi]]
        heights, column = np.unique(x.imag, return_inverse=True)
        phase = np.exp(np.multiply.outer(log_primes, -1j * heights))
        p[0] = 1.0
        np.multiply(np.exp(np.multiply.outer(log_primes, -x.real)),
                    phase[:, column], out=p[1:1 + log_primes.size])
        for first, end, factor_rows, cofactor_rows in levels:
            np.multiply(p[factor_rows], p[cofactor_rows], out=p[first:end])
        first = bisect_right(cuts, lo) - 1
        for a, b in zip(cuts[first:], cuts[first + 1:]):
            if a >= hi:
                break
            m, a, b = int(orders[a]), max(a, lo) - lo, min(b, hi) - lo
            w[:m, a:b] = (held[m] if m in held else _order_weights(m))[:, None]
            w[m:, a:b] = 0.0
        for i, term_rows in enumerate(stride_rows):
            np.multiply(np.take(p, term_rows[:n], axis=0, out=t), w, out=t)
            # numpy sums a single contiguous column pairwise, but the rows
            # of a wider C-contiguous block in order, as cumsum does
            out[i, by_order[lo:hi]] = t.sum(axis=0) if hi - lo > 1 \
                else np.cumsum(t, axis=0, out=t)[-1]
    return out


def _continue(s: np.ndarray, reflect: np.ndarray, values: np.ndarray,
              front, fn) -> np.ndarray:
    """fn at every point of s: ``values`` at the points where ``reflect``
    is False, and front(s) fn(1 - s) where it is True, from one recursive
    call of fn on the mirrored points."""
    out = np.empty_like(s)
    out[~reflect] = values
    if reflect.any():
        x = s[reflect]
        out[reflect] = front(x) * fn(1.0 - x)
    return out


def _eta_denominator(s: np.ndarray) -> np.ndarray:
    """1 - 2^(1-s) at every point of s, or 0 where zeta takes the
    reflection instead: Re(s) < -1, and s near 1 + 2 pi i k / ln 2, where
    the denominator vanishes and the series would be 0/0."""
    denom = np.zeros_like(s)
    series = s.real >= -1.0
    denom[series] = 1.0 - 2.0 ** (1.0 - s[series])
    denom[np.abs(denom) < 5e-2] = 0.0
    return denom


def _zeta_front(s: np.ndarray) -> np.ndarray:
    """2 sin(pi s/2) (2 pi)^(s-1) Gamma(1-s), so zeta(s) = front
    zeta(1-s)."""
    return 2.0 * _sinpi(0.5 * s) \
        * complex_gamma(1.0 - s, 2.0 * _LD_LOG_SQRT_TWO_PI)


def _zeta_from_eta(s: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """zeta at every point of s from its eta sums of ``_borwein_series``;
    PoleError at s = 1."""
    if np.any(s == 1.0):
        raise PoleError("Riemann zeta has its pole at s = 1",
                        location=complex(1.0))
    denom = _eta_denominator(s)
    reflect = denom == 0.0
    return _continue(s, reflect, eta[~reflect] / denom[~reflect],
                     _zeta_front, riemann_zeta)


@_one_or_many
def riemann_zeta(s):
    """Riemann zeta, PoleError at s = 1: Borwein-accelerated eta series for
    Re(s) >= -1, functional-equation reflection for Re(s) < -1 and near the
    eta denominator zeros."""
    return _zeta_from_eta(s, _borwein_series(s, (1,))[0])


def _beta_front(s: np.ndarray) -> np.ndarray:
    """cos(pi s/2) (pi/2)^(s-1) Gamma(1-s), so beta(s) = front
    beta(1-s)."""
    return _sinpi(0.5 * s + 0.5) \
        * complex_gamma(1.0 - s, _LD_LOG_HALF_PI)


def _beta_from_series(s: np.ndarray, series: np.ndarray) -> np.ndarray:
    """beta at every point of s from its sums of ``_borwein_series``."""
    reflect = s.real < -1.0
    return _continue(s, reflect, series[~reflect], _beta_front,
                     dirichlet_beta)


@_one_or_many
def dirichlet_beta(s):
    """Dirichlet beta (the L-function of the odd character mod 4; entire):
    accelerated alternating series for Re(s) >= -1, reflection below."""
    return _beta_from_series(s, _borwein_series(s, (2,))[0])


def _zeta_beta(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``riemann_zeta(s)`` and ``dirichlet_beta(s)`` at every point of a
    1-D complex array checked by ``_as_points``, with their bits, from one
    power table per block for both series."""
    eta, series = _borwein_series(s, (1, 2))
    return _zeta_from_eta(s, eta), _beta_from_series(s, series)


_BERNOULLI_MAX = 64


@lru_cache(maxsize=1)
def _bernoulli_numbers() -> tuple:
    """Exact B_0..B_64, B_1 = -1/2 convention, built on first use."""
    vals = [Fraction(1)]
    for m in range(1, _BERNOULLI_MAX + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += math.comb(m + 1, j) * vals[j]
        vals.append(-acc / (m + 1))
    return tuple(vals)


def bernoulli_fraction(k: int) -> Fraction:
    """B_k as an exact Fraction."""
    if not 0 <= k <= _BERNOULLI_MAX:
        raise RangeError(f"Bernoulli index {k} outside [0, {_BERNOULLI_MAX}]")
    return _bernoulli_numbers()[k]


def bernoulli_polynomial(k: int, x: float) -> float:
    """B_k(x) = sum_j C(k,j) B_j x^(k-j) for x in [0, 1].

    Callers summing over a lattice pass the fractional part x - [x].
    """
    if not 0 <= k <= _BERNOULLI_MAX:
        raise RangeError(f"Bernoulli order {k} outside [0, {_BERNOULLI_MAX}]")
    if not 0.0 <= x <= 1.0:
        raise RangeError(f"Bernoulli polynomial argument {x} outside [0, 1]")
    acc = Fraction(0)
    xf = Fraction(x)
    for j in range(k + 1):
        acc = acc * xf + math.comb(k, j) * bernoulli_fraction(j)
    return float(acc)

"""Special-function contracts: goldens, reflection, recurrence, continuation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruszeta.errors import PoleError, RangeError, ShapeError
from toruszeta import special
from toruszeta.special import (EULER_GAMMA, bernoulli_fraction,
                               bernoulli_number, bernoulli_polynomial,
                               complex_gamma, complex_log_gamma,
                               complex_log_gamma_array, digamma,
                               dirichlet_beta, dirichlet_beta_array,
                               riemann_zeta, riemann_zeta_array)

# golden values pinned offline with an arbitrary-precision oracle (30 digits)
GAMMA_HALF_14I = complex(-4.05370307803728149e-10, -5.77329983455360516e-10)
LOGGAMMA_1_70I = complex(-106.912556721413411, 228.178874622563152)
CATALAN = 0.915965594177219015


def test_gamma_special_values():
    assert complex_gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert complex_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    got = complex_gamma(0.5 + 14.0j)
    assert abs(got - GAMMA_HALF_14I) <= 1e-13 * abs(GAMMA_HALF_14I)


def test_gamma_poles():
    for s in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(PoleError):
            complex_gamma(s)


def test_log_gamma_values():
    assert abs(complex_log_gamma(2.0)) <= 1e-14
    assert complex_log_gamma(0.5).real == pytest.approx(
        math.log(math.sqrt(math.pi)), rel=1e-14)
    got = complex_log_gamma(1.0 + 70.0j)
    assert abs(got - LOGGAMMA_1_70I) <= 1e-12 * abs(LOGGAMMA_1_70I)


def test_log_gamma_exp_consistency():
    rng = np.random.default_rng(5)
    for _ in range(40):
        s = complex(rng.uniform(0.1, 30.0), rng.uniform(-60.0, 60.0))
        lhs = cmath.exp(complex_log_gamma(s))
        rhs = complex_gamma(s)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_digamma_values():
    assert digamma(1.0).real == pytest.approx(-EULER_GAMMA, abs=1e-13)
    assert digamma(2.0).real == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)


def test_digamma_wide_sector_lower_bound():
    # Re psi((s0+1)/2) >= log(|b|/2) - 2/b^2 in the wide sector, b = Im(s0)
    s0 = 0.7 + 70.0j
    val = digamma((s0 + 1.0) / 2.0).real
    assert val >= math.log(70.0 / 2.0) - 2.0 / 70.0 ** 2


def test_zeta_values():
    assert riemann_zeta(2.0).real == pytest.approx(math.pi ** 2 / 6, rel=1e-13)
    assert riemann_zeta(0.0).real == pytest.approx(-0.5, rel=1e-13)
    assert riemann_zeta(-1.0).real == pytest.approx(-1.0 / 12.0, rel=1e-12)
    with pytest.raises(PoleError):
        riemann_zeta(1.0)


def test_beta_values():
    assert dirichlet_beta(1.0).real == pytest.approx(math.pi / 4, rel=1e-13)
    assert dirichlet_beta(2.0).real == pytest.approx(CATALAN, rel=1e-13)
    assert dirichlet_beta(0.0).real == pytest.approx(0.5, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.floats(-20, 20), st.floats(-60, 60))
def test_gamma_reflection_identity(x, y):
    s = complex(x, y)
    if abs(y) < 0.2 and abs(x - round(x)) < 0.1:
        return  # keep away from the poles/zeros of the identity factors
    val = complex_gamma(s) * complex_gamma(1.0 - s) * cmath.sin(math.pi * s) / math.pi
    assert abs(val - 1.0) <= 1e-11


def test_gamma_digamma_recurrences():
    rng = np.random.default_rng(11)
    for _ in range(50):
        s = complex(rng.uniform(-15, 15), rng.uniform(-80, 80))
        if abs(s.imag) < 0.2 and abs(s.real - round(s.real)) < 0.1:
            continue
        g1 = complex_gamma(s + 1.0)
        assert abs(g1 - s * complex_gamma(s)) <= 1e-11 * abs(g1)
        p1 = digamma(s + 1.0)
        assert abs(p1 - digamma(s) - 1.0 / s) <= 1e-11 * max(1.0, abs(p1))


def test_schwarz_reflection():
    rng = np.random.default_rng(3)
    for _ in range(30):
        s = complex(rng.uniform(-4, 4), rng.uniform(0.3, 90))
        for fn in (riemann_zeta, dirichlet_beta):
            a = fn(s.conjugate())
            b = fn(s).conjugate()
            assert abs(a - b) <= 5e-15 * max(1.0, abs(b))


def test_continuation_overlap_strip():
    # direct series on Re(s) in (-1, 0) must agree with the explicit
    # functional-equation reflection evaluated by hand
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = complex(rng.uniform(-0.999, -0.2), rng.uniform(-40, 40))
        direct = riemann_zeta(s)
        refl = (2.0 ** s) * math.pi ** (s - 1) * cmath.sin(math.pi * s / 2) \
            * complex_gamma(1.0 - s) * riemann_zeta(1.0 - s)
        assert abs(direct - refl) <= 1e-10 * max(1.0, abs(refl))
        direct = dirichlet_beta(s)
        refl = (4.0 / math.pi) ** (0.5 - s) \
            * complex_gamma(1.0 - s / 2.0) / complex_gamma((s + 1.0) / 2.0) \
            * dirichlet_beta(1.0 - s)
        assert abs(direct - refl) <= 1e-10 * max(1.0, abs(refl))


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1.0
    assert bernoulli_number(1) == -0.5
    assert bernoulli_number(2) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert bernoulli_number(3) == 0.0
    from fractions import Fraction
    assert bernoulli_fraction(12) == Fraction(-691, 2730)
    with pytest.raises(RangeError):
        bernoulli_number(65)
    with pytest.raises(RangeError):
        bernoulli_number(-1)


def test_bernoulli_recurrence():
    # sum_{j<=k} C(k+1, j) B_j = 0 for k >= 1
    for k in range(1, 30):
        acc = sum(math.comb(k + 1, j) * bernoulli_fraction(j) for j in range(k + 1))
        assert acc == 0


def test_bernoulli_polynomial_values():
    assert bernoulli_polynomial(1, 0.5) == 0.0
    assert bernoulli_polynomial(2, 0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    # B_3(1-x) = -B_3(x)
    for x in np.linspace(0.0, 1.0, 9):
        assert bernoulli_polynomial(3, float(1 - x)) == pytest.approx(
            -bernoulli_polynomial(3, float(x)), abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 20), st.floats(0.0, 1.0))
def test_bernoulli_polynomial_symmetry(k, x):
    lhs = bernoulli_polynomial(k, 1.0 - x)
    rhs = (-1.0) ** k * bernoulli_polynomial(k, x)
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))
    # endpoint difference vanishes for k >= 2
    assert bernoulli_polynomial(k, 1.0) == pytest.approx(
        bernoulli_polynomial(k, 0.0), abs=1e-13)


def test_bernoulli_table_is_reusable():
    # one memoized table B_0..B_64 serves every call
    assert bernoulli_number(16) == pytest.approx(-7.09215686, rel=1e-8)
    assert bernoulli_fraction(16) is bernoulli_fraction(16)
    with pytest.raises(RangeError):
        bernoulli_number(65)


def test_borwein_weights_memo_holds_a_critical_line_sweep():
    # |t| <= 100 needs ~90 series orders on Re(s) = 1/2; a second sweep over
    # the same points must find every weight vector in the memo
    ts = np.linspace(0.0, 100.0, 201)
    for t in ts:
        riemann_zeta(complex(0.5, t))
        dirichlet_beta(complex(0.5, t))
    misses = special._borwein_weights.cache_info().misses
    for t in ts:
        riemann_zeta(complex(0.5, t))
        dirichlet_beta(complex(0.5, t))
    assert special._borwein_weights.cache_info().misses == misses


def test_trivial_zeros():
    # reflection region: sin(pi s/2) resp. 1/Gamma((s+1)/2) vanish exactly
    assert riemann_zeta(-2.0) == 0.0
    assert riemann_zeta(-4.0) == 0.0
    assert dirichlet_beta(-3.0) == 0.0
    # s = -1 sits on the series side of the continuation split
    assert abs(dirichlet_beta(-1.0)) <= 1e-13
    # beta(-2) = -1/2 (second Euler number over two)
    assert dirichlet_beta(-2.0).real == pytest.approx(-0.5, rel=1e-12)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).view(np.uint64)


def _assert_batched_matches_scalar(points):
    for scalar, batched in ((riemann_zeta, riemann_zeta_array),
                            (dirichlet_beta, dirichlet_beta_array)):
        expect = np.array([scalar(s) for s in points], dtype=complex)
        assert np.array_equal(_bits(batched(points)), _bits(expect))


# spacing of the zeros 1 + 2 pi i k / ln 2 of the eta denominator, where
# zeta takes the reflection instead of the series
_ETA_ZERO_SPACING = 2.0 * math.pi / math.log(2.0)


@st.composite
def _mixed_points(draw):
    anywhere = st.builds(complex, st.floats(-3, 3), st.floats(-100, 100))
    reflected = st.builds(complex, st.floats(-3, -1.0001), st.floats(-100, 100))
    near_eta_zero = st.builds(
        lambda k, x, y: complex(1.0 + x, k * _ETA_ZERO_SPACING + y),
        st.sampled_from((-11, -4, -1, 1, 2, 11)),
        st.floats(-0.03, 0.03), st.floats(-0.03, 0.03))
    points = draw(st.lists(st.one_of(anywhere, reflected, near_eta_zero),
                           max_size=30).map(lambda p: [s for s in p if s != 1]))
    # Re(s) >= 1/2 at one height shares a series order: a bucket wide
    # enough for the batched column loop (Re(s) = 1 excluded: at height 0
    # it is the pole)
    t = draw(st.floats(-100, 100))
    wide = draw(st.lists(st.floats(0.5, 3.0).filter(lambda x: x != 1.0),
                         min_size=special._MIN_ROWS,
                         max_size=3 * special._MIN_ROWS))
    return draw(st.permutations(points + [complex(x, t) for x in wide]))


@settings(max_examples=40, deadline=None)
@given(_mixed_points())
def test_batched_series_is_bit_identical_to_scalar(points):
    _assert_batched_matches_scalar(points)


def test_batched_series_spans_several_blocks():
    # one order-27 bucket of 1500 rows: three blocks of _BLOCK // 27 rows
    points = 0.5 + np.linspace(0.0, 2.5, 1500)
    assert special._series_order(complex(points[0])) == 27
    assert 1500 > 2 * (special._BLOCK // 27)
    _assert_batched_matches_scalar(points)


def test_batched_series_empty_and_pole():
    for batched in (riemann_zeta_array, dirichlet_beta_array):
        out = batched(np.array([], dtype=complex))
        assert out.shape == (0,) and out.dtype == complex
        with pytest.raises(ShapeError):
            batched(np.ones((2, 2)))
    with pytest.raises(PoleError):
        riemann_zeta_array([0.5 + 1.0j, 1.0, 2.0])
    # beta is entire: s = 1 is an ordinary point
    assert dirichlet_beta_array([1.0])[0] == dirichlet_beta(1.0)


def test_borwein_weights_memo_holds_a_batched_sweep():
    # Re(s) in [-1, 2], |Im(s)| <= 100 needs all 104 orders 27..130; a second
    # batched sweep must find every weight vector in the memo
    points = (np.linspace(-1.0, 2.0, 12)[:, None]
              + 1j * np.linspace(0.0, 100.0, 201)).ravel()
    assert len({special._series_order(complex(s)) for s in points}) == 104
    riemann_zeta_array(points)
    dirichlet_beta_array(points)
    misses = special._borwein_weights.cache_info().misses
    riemann_zeta_array(points)
    dirichlet_beta_array(points)
    assert special._borwein_weights.cache_info().misses == misses


@settings(max_examples=40, deadline=None)
@given(_mixed_points())
def test_conjugation_is_exact(points):
    # zeta(conj s) = conj zeta(s), beta likewise, through both entries and
    # with no rounding difference; only the sign of a zero part may flip
    # (s on the real axis, or an imaginary part that underflows)
    points = np.array(points, dtype=complex)
    for scalar, batched in ((riemann_zeta, riemann_zeta_array),
                            (dirichlet_beta, dirichlet_beta_array)):
        assert np.array_equal(batched(points.conj()), batched(points).conj())
        lhs = [scalar(s.conjugate()) for s in points[:3]]
        rhs = [scalar(s).conjugate() for s in points[:3]]
        assert np.array_equal(lhs, rhs)


def _reference_log_gamma(s: complex) -> complex:
    """The former scalar log-Gamma body, kept as the reference."""
    if s.real <= 0.0:
        return math.log(math.pi) - special._logsinpi(s) \
            - _reference_log_gamma(1.0 - s)
    shift = 0.0 + 0.0j
    w = s
    while w.real < 16.0:
        shift -= cmath.log(w)
        w += 1.0
    inv = 1.0 / w
    inv2 = inv * inv
    tail = 0.0 + 0.0j
    p = inv
    for c in special._STIRLING_LG:
        tail += c * p
        p *= inv2
    return (w - 0.5) * cmath.log(w) - w + special._LOG_SQRT_TWO_PI + tail \
        + shift


def _off_gamma_poles(s: complex) -> bool:
    return not (s.real < 0.5 and abs(s - round(s.real)) < 0.05)


_log_gamma_points = st.builds(complex, st.floats(-10, 10),
                              st.floats(-200, 200)).filter(_off_gamma_poles)


@settings(max_examples=300, deadline=None)
@given(_log_gamma_points)
def test_log_gamma_array_matches_reference(s):
    got = complex_log_gamma_array([s])[0]
    expect = _reference_log_gamma(s)
    assert abs(got - expect) <= 1e-13 * max(1.0, abs(expect))


@settings(max_examples=40, deadline=None)
@given(st.lists(_log_gamma_points, max_size=40))
def test_log_gamma_one_point_and_batched_bits_agree(points):
    one = [complex_log_gamma(s) for s in points]
    assert np.array_equal(_bits(complex_log_gamma_array(points)), _bits(one))


def test_log_gamma_poles_raise_through_scalar_and_array():
    for pole in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            complex_log_gamma(pole)
        with pytest.raises(PoleError):
            complex_log_gamma_array([2.5 + 1.0j, pole])


def _reference_series_order(s: complex) -> int:
    """The former per-point series order."""
    t = abs(s.imag)
    n = (0.5 * math.pi * t + math.log(3.0 + 2.0 * t) + 40.0) \
        / math.log(3.0 + math.sqrt(8.0))
    n += 8.0 * max(0.0, 0.5 - s.real)
    return max(24, int(n) + 4)


def test_series_orders_match_the_per_point_formula():
    points = (np.linspace(-1.0, 2.0, 61)[:, None]
              + 1j * np.linspace(-100.0, 100.0, 4001)).ravel()
    orders = special._series_order(points)
    expect = [_reference_series_order(s) for s in map(complex, points)]
    assert np.array_equal(orders, expect)
    # every order of the domain is one the weights memo holds
    assert orders.min() == 27 and orders.max() == 130
    assert special._borwein_weights.cache_info().maxsize >= 130 - 27 + 1

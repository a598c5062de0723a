"""Special-function contracts: goldens, reflection, recurrence, continuation."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruszeta.errors import DomainError, PoleError, RangeError, ShapeError
from toruszeta import special
from toruszeta.expansion import _h_moments
from toruszeta.lattice import StencilVariant
from toruszeta.quadrature import _gl_rule
from toruszeta.special import (EULER_GAMMA, bernoulli_fraction,
                               bernoulli_polynomial, complex_gamma,
                               complex_log_gamma, digamma, dirichlet_beta,
                               riemann_zeta)

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
        with pytest.raises(PoleError, match="Gamma has a pole"):
            complex_gamma([2.5 + 1.0j, s])
    with pytest.raises(PoleError, match="digamma has a pole"):
        digamma(-3.0)


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
    from fractions import Fraction
    assert bernoulli_fraction(0) == 1
    assert bernoulli_fraction(1) == Fraction(-1, 2)
    assert bernoulli_fraction(2) == Fraction(1, 6)
    assert bernoulli_fraction(3) == 0
    assert bernoulli_fraction(12) == Fraction(-691, 2730)
    with pytest.raises(RangeError):
        bernoulli_fraction(65)
    with pytest.raises(RangeError):
        bernoulli_fraction(-1)


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
    assert float(bernoulli_fraction(16)) == pytest.approx(-7.09215686, rel=1e-8)
    assert bernoulli_fraction(16) is bernoulli_fraction(16)
    with pytest.raises(RangeError):
        bernoulli_fraction(65)


def _no_weights_built(monkeypatch):
    """Make building any weight vector fail: from here on every order must
    come from the memo."""
    def built(*args):
        raise AssertionError("a weight vector was built")

    monkeypatch.setattr(special, "_one_pass_weights", built)
    monkeypatch.setattr(special, "_order_weights", built)


def test_borwein_weights_memo_holds_a_critical_line_sweep(monkeypatch):
    # |t| <= 100 needs ~90 series orders on Re(s) = 1/2; a second sweep over
    # the same points, one point per call, must find every weight vector in
    # the memo
    ts = np.linspace(0.0, 100.0, 201)
    for t in ts:
        riemann_zeta(complex(0.5, t))
        dirichlet_beta(complex(0.5, t))
    held = dict(special._WEIGHTS)
    _no_weights_built(monkeypatch)
    for t in ts:
        riemann_zeta(complex(0.5, t))
        dirichlet_beta(complex(0.5, t))
    assert special._WEIGHTS.keys() == held.keys()
    assert all(special._WEIGHTS[n] is w for n, w in held.items())


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
    shared = special._zeta_beta(np.asarray(points, dtype=complex))
    for fn, both in ((riemann_zeta, shared[0]), (dirichlet_beta, shared[1])):
        expect = np.array([fn(s) for s in points], dtype=complex)
        assert np.array_equal(_bits(fn(points)), _bits(expect))
        assert np.array_equal(_bits(both), _bits(expect))


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
    # Re(s) >= 1/2 at one height shares a series order: several columns of
    # one order in a block (Re(s) = 1 excluded: at height 0 it is the pole)
    t = draw(st.floats(-100, 100))
    wide = draw(st.lists(st.floats(0.5, 3.0).filter(lambda x: x != 1.0),
                         min_size=8, max_size=24))
    return draw(st.permutations(points + [complex(x, t) for x in wide]))


@settings(max_examples=40, deadline=None)
@given(_mixed_points())
def test_batched_series_is_bit_identical_to_scalar(points):
    _assert_batched_matches_scalar(points)


def test_batched_series_spans_blocks_and_every_order():
    # all 104 orders 27..130 of the validated domain, in several column
    # blocks of both tables, give the bits of one-point calls
    points = (np.linspace(-1.0, 2.0, 12)[:, None]
              + 1j * np.linspace(0.0, 100.0, 201)).ravel()
    orders = np.sort(special._series_order(points))
    assert set(orders.tolist()) == set(range(27, 131))
    for strides in ((1,), (2,), (1, 2)):
        assert len(list(special._column_blocks(orders, strides))) > 3
    _assert_batched_matches_scalar(points)


def test_column_blocks_stay_within_the_budget():
    # each block's power table holds at most _BLOCK entries, unless it is
    # one column whose table alone is larger (orders past ~10,000)
    rng = np.random.default_rng(2)
    for orders in (np.sort(rng.integers(24, 131, 3000)),
                   np.sort(rng.integers(24, 1201, 300)),
                   np.array([27, 15_000, 20_000])):
        for strides in ((1,), (2,), (1, 2)):
            blocks = special._column_blocks(orders, strides)
            assert [lo for lo, _ in blocks] \
                == [0] + [hi for _, hi in blocks][:-1]
            assert blocks[-1][1] == orders.size
            for lo, hi in blocks:
                rows = special._sieve_plan(
                    special._plan_order(int(orders[hi - 1])), strides)[3]
                assert rows >= orders[hi - 1]
                assert rows * (hi - lo) <= special._BLOCK or hi - lo == 1


def test_batched_series_empty_and_pole():
    for batched in (riemann_zeta, dirichlet_beta):
        out = batched(np.array([], dtype=complex))
        assert out.shape == (0,) and out.dtype == complex
        with pytest.raises(ShapeError):
            batched(np.ones((2, 2)))
    with pytest.raises(PoleError):
        riemann_zeta([0.5 + 1.0j, 1.0, 2.0])
    # beta is entire: s = 1 is an ordinary point
    assert dirichlet_beta([1.0])[0] == dirichlet_beta(1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0.5, math.nan),
                                 complex(0.5, math.inf)])
def test_array_functions_reject_non_finite_points(bad):
    # a nan point would otherwise take the reflection over and over
    # (RecursionError) or come out as a silent 0 from the series
    for fn in (riemann_zeta, dirichlet_beta, complex_gamma,
               complex_log_gamma):
        with pytest.raises(DomainError, match="finite"):
            fn([0.5 + 3.0j, bad])
    with pytest.raises(DomainError):
        riemann_zeta(bad)


def _former_borwein_weights(n: int) -> np.ndarray:
    """The weights as the former n-step loop built them: the reference the
    running product and sum of ``_borwein_weights`` must match bit for
    bit, rescale events included."""
    d = np.empty(n + 1)
    p = 1.0 / n
    acc = p
    d[0] = n * acc
    for j in range(n):
        p *= 4.0 * (n + j) * (n - j) / ((2 * j + 1) * (2 * j + 2))
        acc += p
        if acc > special._RESCALE:
            d[:j + 1] /= special._RESCALE
            p, acc = p / special._RESCALE, acc / special._RESCALE
        d[j + 1] = n * acc
    w = (d[n] - d[:n]) / d[n]
    w[1::2] = -w[1::2]
    return w


def _running_sum(n: int) -> float:
    """d_n / n, the largest running sum of order n's weights, unrescaled."""
    j = np.arange(n)
    steps = 4.0 * (n + j) * (n - j) / ((2 * j + 1) * (2 * j + 2))
    return np.add.accumulate(np.multiply.accumulate(
        np.concatenate([[1.0 / n], steps])))[-1]


def test_one_pass_orders_are_those_below_the_first_rescale():
    top = special._ONE_PASS_MAX
    assert _running_sum(top) <= special._RESCALE < _running_sum(top + 1)


@pytest.mark.filterwarnings("error")
def test_borwein_weights_match_the_former_loop_bit_for_bit(monkeypatch):
    # orders past ~350 pass 2^900 and rescale (past ~700 twice), which the
    # vectorized runs must resume from with the loop's bits; the orders
    # below, built in one pass over (j, order), must have the loop's bits
    # whatever batch asks for them, and no overflow may warn
    for n in range(24, 1001):
        assert np.array_equal(_bits(special._order_weights(n)),
                              _bits(_former_borwein_weights(n))), n
    orders = [n for n in range(24, 1001) if n <= special._ONE_PASS_MAX]
    batches = ([orders], [orders[::2], orders[1::2]])
    for requests in batches:
        monkeypatch.setattr(special, "_WEIGHTS", {})
        got = {}
        for request in requests:
            got.update(special._borwein_weights(request))
        assert sorted(got) == sorted(special._WEIGHTS) == orders
        for n in orders:
            assert np.array_equal(_bits(got[n]),
                                  _bits(_former_borwein_weights(n))), n
            assert got[n].dtype == float and not got[n].flags.writeable
            assert got[n].flags.c_contiguous and got[n].base is None


def test_a_batch_builds_only_the_orders_the_memo_lacks(monkeypatch):
    monkeypatch.setattr(special, "_WEIGHTS", {})
    first = special._borwein_weights([30, 40, 357])
    built = []
    one_pass = special._one_pass_weights
    monkeypatch.setattr(special, "_one_pass_weights",
                        lambda orders: built.append(orders) or one_pass(orders))
    second = special._borwein_weights([30, 35, 40, 357, 50])
    assert built == [[35, 50]]
    assert sorted(special._WEIGHTS) == [30, 35, 40, 50, 357]
    assert all(second[n] is first[n] for n in (30, 40, 357))
    _no_weights_built(monkeypatch)
    assert special._borwein_weights([50, 357])[357] is first[357]


def test_a_sweep_past_the_one_pass_orders_holds_a_bounded_memo(monkeypatch):
    # t in [400, 580] on the line meets ~160 orders past _ONE_PASS_MAX:
    # those come from the per-order lru, 128 at most, and the one-pass memo
    # holds none of them, so a sweep in t holds a bounded memo at any height
    monkeypatch.setattr(special, "_WEIGHTS", {})
    special._order_weights.cache_clear()
    points = 0.5 + 1j * np.linspace(400.0, 580.0, 200)
    orders = set(special._series_order(points).tolist())
    assert min(orders) > special._ONE_PASS_MAX and len(orders) > 128
    assert np.isfinite(riemann_zeta(points)).all()
    assert not special._WEIGHTS
    assert special._order_weights.cache_info().currsize == 128


def _row_by_row_series(s: complex, strides: tuple) -> list:
    """``_borwein_series`` at one point, each stride's terms added one row
    at a time in Python: the reference order of the column sum."""
    n = int(special._series_order(s))
    log_primes, levels, stride_rows, rows = special._sieve_plan(
        special._plan_order(n), strides)
    p = np.empty((rows, 1), dtype=complex)
    p[0] = 1.0
    p[1:1 + log_primes.size] = np.exp(
        np.multiply.outer(log_primes, -np.array([s.real]))) \
        * np.exp(np.multiply.outer(log_primes, -1j * np.array([s.imag])))
    for first, end, factor_rows, cofactor_rows in levels:
        p[first:end] = p[factor_rows] * p[cofactor_rows]
    sums = []
    for term_rows in stride_rows:
        terms = p[term_rows[:n], 0] * special._order_weights(n)
        acc = terms[0]
        for term in terms[1:]:
            acc = acc + term
        sums.append(acc)
    return sums


def test_column_sum_adds_every_column_in_row_order():
    # one-column blocks (one-point calls) keep the sequential cumsum, since
    # numpy sums a lone contiguous column pairwise; wider blocks take the
    # column sum, which adds C-contiguous rows in order
    rng = np.random.default_rng(19)
    grid = (np.linspace(-1.0, 2.0, 12)[:, None]
            + 1j * np.linspace(0.0, 100.0, 201)).ravel()
    assert set(special._series_order(grid).tolist()) == set(range(27, 131))
    batches = [grid]
    for width in (1, 1, 1, 1, 2, 2, 3, 3, 5, 40):
        for _ in range(6):
            batches.append(rng.uniform(-1.0, 2.0, width)
                           + 1j * rng.uniform(-100.0, 100.0, width))
    # a rescaled order: 2^900 passed in the weights
    batches.append(np.array([0.4 + 400.0j, 0.5 - 400.0j, 1.5 + 410.0j]))
    batches.append(np.array([0.4 + 400.0j]))
    assert special._series_order(batches[-1]).max() > 350
    seen_widths = set()
    for points in batches:
        for strides in ((1,), (2,), (1, 2)):
            orders = np.sort(special._series_order(points))
            seen_widths.update(hi - lo for lo, hi in
                               special._column_blocks(orders, strides))
            got = special._borwein_series(points, strides)
            expect = [_row_by_row_series(s, strides) for s in points]
            assert np.array_equal(_bits(got.T.ravel()),
                                  _bits(np.ravel(expect)))
    assert {1, 2, 3} <= seen_widths and max(seen_widths) > 100


def test_borwein_weights_memo_holds_a_batched_sweep(monkeypatch):
    # Re(s) in [-1, 2], |Im(s)| <= 100 needs all 104 orders 27..130, which
    # a cold batch builds in one pass; a second batched sweep must find
    # every weight vector in the memo
    points = (np.linspace(-1.0, 2.0, 12)[:, None]
              + 1j * np.linspace(0.0, 100.0, 201)).ravel()
    assert len({special._series_order(complex(s)) for s in points}) == 104
    monkeypatch.setattr(special, "_WEIGHTS", {})
    passes = []
    one_pass = special._one_pass_weights
    monkeypatch.setattr(special, "_one_pass_weights",
                        lambda orders: passes.append(orders) or one_pass(orders))
    riemann_zeta(points)
    assert passes == [list(range(27, 131))]
    _no_weights_built(monkeypatch)
    riemann_zeta(points)
    dirichlet_beta(points)
    assert sorted(special._WEIGHTS) == list(range(27, 131))


@settings(max_examples=40, deadline=None)
@given(_mixed_points())
def test_conjugation_is_exact(points):
    # zeta(conj s) = conj zeta(s), beta likewise, through both entries and
    # with no rounding difference; only the sign of a zero part may flip
    # (s on the real axis, or an imaginary part that underflows)
    points = np.array(points, dtype=complex)
    for fn in (riemann_zeta, dirichlet_beta):
        assert np.array_equal(fn(points.conj()), fn(points).conj())
        lhs = [fn(s.conjugate()) for s in points[:3]]
        rhs = [fn(s).conjugate() for s in points[:3]]
        assert np.array_equal(lhs, rhs)


_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _logsinpi(z: complex) -> complex:
    """A logarithm of sin(pi z) that never overflows.

    For |Im z| > 1 the returned branch follows the dominant exponential,
    which is exactly what the log-Gamma reflection needs; exp(_logsinpi(z))
    always equals sin(pi z) up to rounding.
    """
    n = math.floor(z.real + 0.5)
    r = complex(z.real - n, z.imag)
    if abs(z.imag) <= 1.0:
        val = cmath.sin(math.pi * r)
        return cmath.log(-val if n & 1 else val)
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


def _reference_log_gamma(s: complex) -> complex:
    """The former scalar log-Gamma body, kept as the reference; on
    Re(s) <= 0 its reflection defines the imaginary part only modulo
    2 pi."""
    if s.real <= 0.0:
        return math.log(math.pi) - _logsinpi(s) \
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
    return (w - 0.5) * cmath.log(w) - w + _LOG_SQRT_TWO_PI + tail \
        + shift


def _off_gamma_poles(s: complex) -> bool:
    return not (s.real < 0.5 and abs(s - round(s.real)) < 0.05)


_log_gamma_points = st.builds(complex, st.floats(-10, 10),
                              st.floats(-200, 200)).filter(_off_gamma_poles)


@settings(max_examples=300, deadline=None)
@given(_log_gamma_points)
def test_log_gamma_array_matches_reference(s):
    got = complex_log_gamma(s)
    expect = _reference_log_gamma(s)
    diff = got - expect
    if s.real <= 0.0:
        # the reference's branch: compare modulo 2 pi i
        diff -= 2j * math.pi * round(diff.imag / (2.0 * math.pi))
    assert abs(diff) <= 1e-13 * max(1.0, abs(expect))


@settings(max_examples=40, deadline=None)
@given(st.lists(_log_gamma_points, max_size=40))
def test_log_gamma_one_point_and_batched_bits_agree(points):
    one = [complex_log_gamma(s) for s in points]
    assert np.array_equal(_bits(complex_log_gamma(points)), _bits(one))


def test_log_gamma_poles_raise_through_scalar_and_array():
    for pole in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            complex_log_gamma(pole)
        with pytest.raises(PoleError):
            complex_log_gamma([2.5 + 1.0j, pole])


# (Re s, Im s, Gamma(s), pi^(-s) Gamma(s)): 36 random points of Re(s) in
# [-10, 3], |Im(s)| <= 200 (8 of them at |Im(s)| >= 100), 14 on the real
# axis and 10 within 1e-5 of a pole, pinned offline with an
# arbitrary-precision oracle (30 digits)
_GOLDEN_GAMMA = np.array([
    (2.577483, -119.643169, -1.09303394718716403704050132382e-77, 6.05520730106279273705678078519e-78, 1.33746819458570943755162365068e-79, 6.39841125133153493001846240912e-79),
    (2.353795, 145.408837, -1.52028372097678799066187628454e-95, -5.85127595335082239516473116249e-96, 1.00608992427593535436181782846e-96, 4.46849562298313804376913516143e-97),
    (1.531861, 18.006732, -1.20847055292413912651585934121e-11, -2.273510008860659801107318968e-11, -3.46367939836608554699818958293e-12, 2.80699390167294159059290184981e-12),
    (0.39096, -111.677754, 9.74429307128567587205702057392e-77, -8.85553022451257120522253958119e-78, -3.08437593634832673192675017205e-77, 5.44072122155121620535151469602e-77),
    (0.215241, -90.942644, -5.65238002380786510934436022024e-64, 6.30344633434900007780077391978e-63, 2.46490999177445728187826984173e-63, -4.28875784633191163353195007414e-63),
    (1.748501, 140.328914, -1.77803367414562362337767536663e-93, 1.35255369039939240223231556248e-93, 1.4551895956143632532923891991e-94, -2.64478767861386763948536027177e-94),
    (0.597797, 15.870775, -4.86158801571213394559981046535e-11, 5.602554399548702147546504186e-12, -2.08219889410441669416720383927e-11, -1.32603383901849284324060717932e-11),
    (2.771804, -104.168338, 8.31068166907455421076614931569e-67, -5.70037753006118175710166215315e-68, 3.41600239555664754071226632066e-68, -7.08101820572653418924989852565e-69),
    (2.403066, 159.045054, -1.21719680190292083573269343018e-104, 1.80631884772798680651107982404e-105, -7.85971217057181933526945443649e-106, -1.11820633262711496992287556957e-108),
    (0.377218, 35.455965, -1.02066173087730172665519192979e-24, 2.46353035317532021967974346746e-25, 6.81687728316784404422262058211e-25, 1.1157190616561949772401829067e-26),
    (2.787196, 42.76061, -3.65526904490493571618008132564e-26, 8.3389554029370884385388195957e-26, -3.69952679900260628917545928166e-27, -5.91146699947738021333322738748e-28),
    (2.465025, 150.281988, -1.39010878249356120650731472576e-98, 3.47262452155347338275777796142e-99, 7.43822354850559639520453874304e-100, 4.16565187689437158879193094119e-100),
    (1.529007, 152.189215, 8.21252817336665818862332811121e-104, -6.65372143809618532773719135727e-102, 1.1420919087495717598494606884e-102, 1.78679954745654705211187894913e-103),
    (0.334481, 162.223475, -2.28190071540016082515701891449e-111, -4.43202806920165718088262543902e-112, 1.56576565454282786244343229019e-111, -2.46672129863288920961815368664e-112),
    (-5.148183, 128.511489, -6.05155009792059092081442026763e-100, 2.5593353582864129529581176767e-100, 2.3578210949146872877120773855e-97, 3.41418674707025685202819942031e-98),
    (-4.436342, 75.589365, -1.06566681851009857160424930352e-62, -3.61826048545064232291773785407e-61, 5.73155438834388467689860144588e-59, -9.54684534166742126742345167469e-60),
    (-2.144303, 50.210904, -2.99140682944070475929757516066e-39, -3.28773030874236330097560685167e-39, -5.15079560218820976482030784354e-38, 4.99638764585594343026478971226e-39),
    (-0.772985, 27.238559, -4.80588314343733827238556976907e-21, -8.51231512325588806801498459125e-21, -6.51811605899357873648131288469e-21, -2.27673320681567745828778183003e-20),
    (-9.67789, 19.078934, 1.38794275920682508797762825499e-26, -3.64886273884519993505476818978e-27, -9.24259270060017355084519832299e-22, 9.84870717965543482431097449609e-23),
    (-2.872353, 160.913754, -7.92068625271740203896725726606e-118, -1.30663904359445428204338508577e-117, -2.33240144849821447593663875883e-116, 3.36412154379955942095221496898e-116),
    (-9.026882, -176.836633, 1.9087679730135275159683428074e-142, -1.15874622303732718832634934389e-142, 4.66961838208901814901090046179e-138, 5.03116456524102924229078673971e-138),
    (-2.915545, -16.126309, -9.90685797246961249253631261348e-16, 1.54042833973086025439940400989e-15, -9.34331614608088819449092190774e-15, 5.0701048035230236318310960189e-14),
    (-7.716534, 194.944056, -3.91215094432723602695598599574e-152, 3.73353119164128761495553842163e-153, 2.6416944673601706085694082061e-148, -5.36473404892763761500214071344e-149),
    (-5.2645, 4.999685, -0.0000000291114903913049060072519405874, -0.0000000198178905400819148151129456031, -0.0000058577661097363417830949067193, -0.0000133602682381877961901065853428),
    (-1.313376, -27.733232, 1.78058092422878915624361420811e-22, 7.06676301121933755974155327032e-22, -2.75975889992829156114891601482e-22, 3.26577365527662024087494357693e-21),
    (-8.023984, 99.513315, 1.49033583453835058013396590012e-85, -2.60962823037824797671128379081e-85, -8.65119300733170165295706594483e-82, -2.80028167784019616208408374267e-81),
    (-0.525814, 28.844648, -1.44672170838486196197020972438e-21, -8.42410537936452467776650365239e-22, -1.45099007833503164979367045618e-21, 2.6898868325241698056592762497e-21),
    (-1.739847, -120.990781, -1.54414737055746059489334046284e-87, 2.75851699434884348442454442399e-88, -1.14423759358049354034504886035e-86, -1.08924066660869410997048694956e-87),
    (2.80364, -152.375551, 6.11903246616677670343187280779e-100, -2.95006016722252686713857715451e-99, -1.17089681088167417655129237272e-100, -3.30335679416761975298420746963e-101),
    (-6.024895, -103.770509, -2.82170168989272814854805432634e-84, -1.9546701391310522893415408163e-85, -2.42503656459281543238266505576e-81, 1.39543325297490490655425304039e-81),
    (-9.897448, 170.352031, -9.36731084667473548174020910387e-140, -2.2539556065210606697500823229e-140, -8.0230317433122828892524271548e-135, -6.26930359247884087724654775201e-137),
    (-7.347699, -176.466215, 5.3289228482282115492328326642e-139, -2.35983964107829250285653092141e-138, 1.00011518951160447566743634857e-134, -4.28138035417834962772793746214e-135),
    (-9.009753, -183.526535, -3.35468041655697309427352692519e-147, 3.265572795118179357962503686e-147, 5.50153592674094423472439626941e-143, -1.29957269089966492591832302419e-142),
    (-7.547767, -152.360099, -6.68191333834416379340472048215e-122, 4.01976638237698775350489378352e-122, 2.0704302060322885406090168131e-118, 3.89270606009411193772157607765e-118),
    (-1.0931, -141.01227, 9.93750919839347407951964838218e-101, -5.91770493679546290646364113357e-100, -2.05335819173152368920232386525e-99, 4.26262962241665581486209157853e-100),
    (-4.806552, 144.578837, 1.65576683597632986270676754936e-110, 1.16150035816915627608384499035e-110, 2.06384122563200359866595430356e-109, -4.95560187253915004989490131178e-108),
    (0.5, 0.0, 1.77245385090551602729816748334, 0.0, 1.0, 0.0),
    (1.0, 0.0, 1.0, 0.0, 0.318309886183790671537767526745, 0.0),
    (2.5, 0.0, 1.32934038817913702047362561251, 0.0, 0.0759908877317533285829095974073, 0.0),
    (3.0, 0.0, 2.0, 0.0, 0.0645030688663989783688441053771, 0.0),
    (0.001, 0.0, 999.423772484595445298321040722, 0.0, 998.280356799518916009007691587, 0.0),
    (1e-07, 0.0, 9999999.4227844344565764791421, 0.0, 9999998.27805468020308649810345, 0.0),
    (-0.5, 0.0, -3.54490770181103205459633496668, 0.0, -6.28318530717958647692528676656, 0.0),
    (-1.5, 0.0, 2.36327180120735470306422331112, 0.0, 13.1594725347858114917793213332, 0.0),
    (-2.7, 0.0, -0.931082784838963965458595939287, 0.0, -20.4782553074750998370954209184, 0.0),
    (-3.3, 0.0, 0.438517392198763089242153946801, 0.0, 19.1682031119618966083854841076, 0.0),
    (-9.5, 0.0, 0.00000277212791157510213205870459158, 0.0, 0.146466079294720512415132764265, 0.0),
    (-7.25, 0.0, 0.000530397706352147861852210714986, 0.0, 2.13274147355070336812889526879, 0.0),
    (0.3, 0.0, 2.9915689876875907446421606752, 0.0, 2.12204241680917754186102490255, 0.0),
    (2.999, 0.0, 1.99815567722003505238059499806, 0.0, 0.0645173993660819086622542219899, 0.0),
    (-1e-09, 0.0, -1000000000.57721560360899739906, 0.0, -1000000001.72194549077435685294, 0.0),
    (-2.99999999, 0.0, -16666666.9773107986894941271547, 0.0, -516771281.721279608278572183224, 0.0),
    (-5.000001, 0.0, 8333.31911454636074254165293587, 0.0, 2550162.60789431862866787062849, 0.0),
    (-9.99999, 0.0, 0.0275579673170201281148066183448, 0.0, 2580.72028920313534209572364013, 0.0),
    (-2.0, 1e-07, 0.46139216754922636480922728809, -4999999.99999990656463454208801, -1.09525739224678793030267416731, -49348022.0054460688765381958799),
    (0.0, 1e-06, -0.577215664900625381530432185871, -999999.999999010989256561183331, -1.72194555074826514988490288241, -999999.99999769502997859147839),
    (-4.0, -1e-09, 0.0627549028513250195772811385955, 41666666.6666666639604141974025, 1.46676897550605462601779510327, 4058712126.41676795890975640387),
    (-6.9999999999, 1e-10, -992063.492463417496276696236608, 992063.40997979407125191529265, -2996322647.12585644435183280817, 2996322398.68712322769932147634),
    (1e-12, 0.0, 999999999999.42280444845182694, 0.0, 999999999998.278074562603742725, 0.0),
    (-6.00000000001, 0.0, -138888877.394570556045472308876, 0.0, -133526265836.474032074310470675, 0.0),
])


def test_gamma_accuracy_on_the_golden_set():
    s = _GOLDEN_GAMMA[:, 0] + 1j * _GOLDEN_GAMMA[:, 1]
    right = s.real > 0.0
    for log_base, col in ((0.0, 2), (special._LD_LOG_PI, 4)):
        ref = _GOLDEN_GAMMA[:, col] + 1j * _GOLDEN_GAMMA[:, col + 1]
        got = complex_gamma(s, log_base)
        err = np.abs(got - ref) / np.abs(ref)
        assert err[right].max() <= 5e-15
        assert err[~right].max() <= 1e-14
        # pi^(-s) Gamma(s) and Gamma(s) are exactly real on the real axis
        assert not got[s.imag == 0.0].imag.any()
    one_point = [complex_gamma(z) for z in s]
    assert np.array_equal(_bits(one_point), _bits(complex_gamma(s)))


@settings(max_examples=40, deadline=None)
@given(st.lists(_log_gamma_points, max_size=40))
def test_gamma_one_point_and_batched_bits_agree(points):
    one = [complex_gamma(s) for s in points]
    assert np.array_equal(_bits(complex_gamma(points)), _bits(one))


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
    # every order of the domain is built in one pass, with no rescale
    assert orders.min() == 27 and orders.max() == 130
    assert orders.max() <= special._ONE_PASS_MAX


# (Re s, Im s, zeta(s), beta(s)): 42 random points of Re(s) in [-0.9, 1.9],
# |Im(s)| <= 100, 8 points 0.05 above critical-line zeros, 7 hand-picked
# points (the real axis among them) and 3 at |Im(s)| in [600, 800], pinned
# offline with an arbitrary-precision oracle (30 digits)
_GOLDEN_SERIES = np.array([
    (1.548957, 84.17885, 0.8233621887623289, -0.13454412673878993, 0.8911084667405188, -0.11385467832617863),
    (0.18109, -29.28892, 0.19048921406281713, 2.190812177737273, 1.1146489701730307, 0.9756962597858404),
    (-0.804645, 27.594281, 10.009039517800755, 1.3937488067581099, -10.42894119972819, -41.4079889083171),
    (1.155446, -91.136999, 2.052878683090727, 0.5739857193321541, 0.7051797577467098, 0.2019979075653024),
    (1.505271, -33.157552, 0.6777504258868261, -0.3034548787630098, 0.881060426874712, 0.10888568938960218),
    (1.255871, 40.817841, 0.6152906931083841, -0.1153844234373439, 0.8076860948874954, 0.10251074578544617),
    (0.965681, 48.309778, 0.4720517500520675, -0.1458713803127129, 1.2202825585638861, 0.28534236002719515),
    (-0.848042, 67.846584, 3.849446951315452, 20.635945935196403, 132.20268449715343, 28.115553941784253),
    (-0.893488, 1.515368, 0.10548595200460506, -0.12530291673876207, 0.3541988871393837, 1.0279815038092994),
    (1.813814, 58.197914, 0.8885867205456176, -0.2022149490039342, 0.9319355294108105, 0.1554630181198094),
    (1.531783, -6.14361, 0.9219508705762213, -0.20925912195474805, 0.7395524683865161, -0.08147531185646073),
    (1.132519, 98.360127, 1.2222622240577057, -0.12160578824855704, 1.0423022222500444, 0.0022298210264351283),
    (-0.463963, 12.282631, 0.9648462114773683, -1.5552881243119232, 2.8591196780371946, -6.173872459975647),
    (-0.211023, 70.026109, -2.6504264575686394, 4.215840949162306, -6.885331996528142, -13.299651145188225),
    (-0.570084, 8.257599, 1.4499157638781413, 0.667567729306082, 7.532321740743062, 0.7590630774610807),
    (1.284903, 60.058911, 0.5530001207775278, 0.11161373369240583, 1.1449065758706802, -0.21210499458006757),
    (1.236773, -88.025931, 0.6249979245107186, -0.14659008380324576, 1.054555306857085, -0.3995033473342696),
    (-0.412524, 11.6276, 1.5579643209709495, -1.2074830278587472, 6.189347341567119, 0.8248304882973152),
    (-0.824096, -50.507365, -9.326140162229633, -10.011084818320567, 97.09541634792191, -19.99310312646082),
    (1.39101, 75.752495, 0.5989050332388235, -0.31975404463293455, 0.9633032856944679, 0.16635597163792326),
    (-0.520126, 54.10168, 5.77682253409059, 10.65303496154199, 49.112385194351695, 1.3855918877106232),
    (-0.706739, 47.210435, -11.084638808290858, -4.986137135033329, 23.748316296520354, -59.53986064748713),
    (-0.566612, -98.242656, 1.7849549968486793, 22.99683944303234, 41.512591275110076, 72.40404408878588),
    (-0.4999, 92.497615, -6.805218878598548, 13.395306009040654, -50.25969655071571, -18.336805980717582),
    (0.247979, 57.465462, 2.326202857244242, 0.44136614371721955, 1.5800875743615803, 0.7200101068577234),
    (1.478547, 13.702231, 0.5621125938681799, -0.09923157796226852, 1.0447493544932698, 0.24503271439673496),
    (0.463384, 42.859929, 0.6401907053954351, -0.38018515430465766, 3.242163278727603, 1.6292997228252413),
    (1.454218, -73.333489, 1.5868203395260192, -0.09618045474230415, 0.9351312835864543, 0.138654161843544),
    (-0.204312, -56.684688, -1.8399832401035265, -3.5840739829097346, -8.478524496045589, 4.771958914670157),
    (-0.837908, 26.021834, -3.6409959365470987, 6.224686788139999, -35.38540519544873, 28.53736686335746),
    (1.078373, -25.791971, 0.7196069384541023, -0.6341963735762444, 0.8929713242090944, -0.07076693997309338),
    (-0.751408, -81.240401, 36.505119058333875, 7.964740100668969, 2.581327322618694, 131.10766948877887),
    (0.471121, -78.744265, 1.1894412016484017, 0.14249435165505867, -0.23952831632884372, 0.18839237911135964),
    (0.642109, 68.097988, 1.1777485334043434, 0.4475694545307658, 0.33126562075623417, -0.07396253691062996),
    (0.819429, -3.435428, 0.6183121199748335, 0.021052384625924687, 1.3938571891847795, 0.05638101326456195),
    (0.940303, 47.535072, 0.3664356347737067, -0.6981545455584109, 0.9328987512109668, -0.07680506560022567),
    (0.792544, 82.853671, 0.42327374242499166, -0.3692464135392542, 1.9402077123909232, -0.9915128469702588),
    (1.519096, -47.557353, 0.7404388416101676, 0.4818764878293401, 1.0493672629149309, -0.056314261187065194),
    (0.529199, 94.974518, 0.3204846665013092, 0.18973285440763754, 2.8589674501580324, -0.14939136764722405),
    (1.233587, 9.236805, 1.3161279789841527, 0.05654893222030735, 1.090014047679035, -0.3892273708089332),
    (-0.594728, 58.30653, 1.7791460914961015, -10.182717805662413, -43.51527048248839, -24.359990249837118),
    (-0.732187, -73.860212, 28.081085221103464, 11.067670419576954, -74.59012131217649, -72.7322551200701),
    (0.5, 14.184725, -0.00546037457231292, 0.03944203693174652, 1.99136453289612, 1.1286794530790267),
    (0.5, 21.07204, 0.01406723674724045, 0.05490964998514472, 0.06487810497586656, -0.9853902779500442),
    (0.5, 30.474876, 0.035144073058983365, 0.054009455849349575, 1.1018046798426417, 2.042530951142006),
    (0.5, 49.823832, -0.029692621140843447, 0.06565702691271792, 0.1238341108427688, 0.35184809423242075),
    (0.5, 6.070949, 0.8486793893316558, 0.34632586354502365, -0.006991128712234705, 0.06547109246853927),
    (0.5, 10.29377, 1.5357121540466192, -0.22402317083721138, 0.018956953471877078, 0.08834723997068053),
    (0.5, 18.341993, 2.2042416572157224, -0.5922243063052987, -0.0423054084442093, 0.1072896776712165),
    (0.5, 23.328377, 1.4301075712631208, -0.14842982414496278, -0.02620306649483986, 0.11720804263139252),
    (0.2, 95.0, 0.46492490607933373, 0.7328785923671569, 6.432033524459375, -0.33156288968477865),
    (1.3, -77.5, 0.5955431112303564, -0.19635226434912847, 1.3602778454604258, -0.07150213893647184),
    (-0.7, 0.0, -0.14623719172590807, 0.0, 0.1699716757167923, 0.0),
    (-0.5, 0.0, -0.20788622497735457, 0.0, 0.2751797412288203, 0.0),
    (1.5, 0.0, 2.612375348685488, 0.0, 0.864502653461202, 0.0),
    (0.5, 0.0, -1.4603545088095868, 0.0, 0.6676914571896092, 0.0),
    (-0.95, 33.3, -9.40626940069385, -2.468596644001037, 77.16855999409125, 3.102361592368652),
    (0.5, 650.0, 0.20131776620570188, -0.37174611914040606, 1.5097580261569206, -0.024445097712256277),
    (0.3, -712.5, 0.9164932728722258, 0.155308457731303, -0.6665134645052293, 6.027013821991086),
    (1.2, 790.0, 0.8241493721733005, -0.8050127762694675, 0.8003566569241648, -0.047772175323388635),
])


# the largest relative error of zeta or beta on the golden set, inside and
# outside the validated domain, of the series before the sieved table
# (one exp per term, Kahan-summed)
_FORMER_MAX_ERROR = {"domain": 7.36e-14, "outside": 8.79e-13}


def test_series_accuracy_on_the_golden_set():
    s = _GOLDEN_SERIES[:, 0] + 1j * _GOLDEN_SERIES[:, 1]
    domain = np.abs(s.imag) <= special.SERIES_MAX_IM
    for fn, col in ((riemann_zeta, 2), (dirichlet_beta, 4)):
        ref = _GOLDEN_SERIES[:, col] + 1j * _GOLDEN_SERIES[:, col + 1]
        err = np.abs(fn(s) - ref) / np.abs(ref)
        assert err[domain].max() <= _FORMER_MAX_ERROR["domain"]
        assert err[~domain].max() <= _FORMER_MAX_ERROR["outside"]


# (Re s, Im s, log Gamma(s), psi(s)), log Gamma the principal branch: 12
# random points of Re(s) in [-10, 0], |Im(s)| <= 200, 7 points 0.05 from a
# pole (3 on the negative real axis, taken from above), 11 random points of
# Re(s) in (0, 10] (3 of them at |Im(s)| >= 150), 4 on the positive real
# axis and 8 Hardy points a + it/2, a = 1/4 or 3/4, t up to 100 (the
# turning points of the Hardy phases among them), pinned offline with an
# arbitrary-precision oracle (40 digits)
_GOLDEN_LOG_GAMMA = np.array([
    (-1.549252, -135.610764, -222.15941919734612, -526.975306706596, 4.909900651059527, -1.5859065235084198),
    (-4.422555, -52.768023, -101.4983136248834, -148.54414233335135, 3.970223183297695, -1.6638165740083977),
    (-7.85058, -45.670385, -102.77716766903555, -114.98130184412166, 3.837874686322983, -1.751649991386954),
    (-5.718355, 44.537243, -92.66685883832791, 114.34108002542197, 3.805959230483061, 1.7095266326544818),
    (-2.636141, -193.884137, -320.15255735328384, -822.4027807390419, 5.267390444766586, -1.586970287828211),
    (-7.459591, 41.658342, -94.25086423114377, 100.44872884792635, 3.747408362633287, 1.7595977465271526),
    (-9.162633, 199.105472, -362.9913674120349, 839.5137909464885, 5.295009857449138, 1.6192886061190335),
    (-1.676539, -185.289057, -301.498185180158, -778.8435758090263, 5.221984850796524, -1.5825425368244024),
    (-4.324602, 43.736055, -86.01932164205822, 113.66322524452296, 3.784199436691576, 1.6806685856623127),
    (-9.930734, -128.36645, -251.37009580707408, -478.0308657010863, 4.858177122607883, -1.6518760739705123),
    (-8.350778, -15.216836, -47.53303896984287, -9.863235861145352, 2.8680396267460053, -2.097726186536428),
    (-4.329964, -19.23631, -43.62792859771007, -29.456600783035604, 2.9872745316179072, -1.816846720715117),
    (-0.05, 0.0, 3.0267010687919638, -3.141592653589793, 19.337390383794673, 0.0),
    (-2.05, 0.0, 2.260071111472219, -9.42477796076938, 20.777576214224478, 0.0),
    (-6.95, 0.0, -5.424698082115968, -21.991148575128552, -17.826272970725288, 0.0),
    (-1.0, 0.05, 2.992429354356752, -4.691241346899188, 0.42328924668827556, 20.131987041796116),
    (-4.0, -0.05, -0.18615386687507188, 14.061860041316345, 1.5061786519351064, -20.15315775874514),
    (-9.0, 0.05, -9.810072707407903, -29.732542349446707, 2.251766401170352, 20.158965191697234),
    (-5.05, 0.05, -2.2236538257978284, -17.98662456144909, 11.551233615670393, 10.156047346220564),
    (9.197757, 125.969683, -154.8841866596624, 496.58759990743687, 4.838416719098408, 1.5018589482315154),
    (4.011661, -118.735377, -168.8148101452252, -453.9158569022007, 4.777331511147682, -1.5412292470382722),
    (3.583255, 144.814014, -211.21357405276447, 580.5115418803806, 4.975674877756703, 1.5495083216499574),
    (3.488156, 196.426249, -291.84825846795815, 845.4319960529708, 5.280401656902542, 1.5555848569005144),
    (5.657688, -105.261659, -140.40713341069898, -392.85967581481566, 4.657644506374205, -1.521836383209326),
    (6.586973, 64.090604, -74.4216615612169, 211.81881141487116, 4.164777754377489, 1.476103961200857),
    (5.146076, -88.362811, -117.05776332236427, -314.80723490984747, 4.4828262953965865, -1.5182646019092227),
    (6.299182, -8.323671, 0.5440838411437939, -16.5456508854802, 2.3168071620877546, -0.9619018163077263),
    (6.532888, 156.060557, -213.75136242127348, 641.4434792021701, 5.050989052363146, 1.5321580813327187),
    (9.08738, 150.860663, -192.97045872956923, 619.155251060134, 5.017972307837081, 1.5139348880991832),
    (3.107606, -167.152499, -248.29539957124155, -692.5614536465438, 5.119026740900491, -1.5551973839922308),
    (0.5, 0.0, 0.5723649429247001, 0.0, -1.9635100260214235, 0.0),
    (1.0, 0.0, 0.0, 0.0, -0.5772156649015329, 0.0),
    (2.0, 0.0, 0.0, 0.0, 0.42278433509846713, 0.0),
    (7.3, 0.0, 7.147892523022248, 0.0, 1.9178203356379862, 0.0),
    (0.25, 3.144917994418451, -4.306730947116156, 0.06910878773975063, 1.1447298858494002, 1.6508093272098368),
    (0.75, 0.7819407787020749, -0.3869674958848179, -0.5715546700761018, -0.2415644752704909, 1.209043148175423),
    (0.25, 7.0673625, -10.671163452431085, 6.361550763764054, 1.9552786201418468, 1.606214747140206),
    (0.75, 3.01045, -3.5352207409732266, 0.70350040924669, 1.100934570544853, 1.4871577823831412),
    (0.25, 20.0, -31.24590153219264, 39.5224672417069, 2.995706229038078, 1.5832982814486947),
    (0.75, 20.0, -29.748074473193878, 40.30786540510435, 2.995706229038078, 1.5582943721410987),
    (0.25, 50.0, -78.59888043270185, 145.20865952425723, 3.912018838688559, 1.5757964518105263),
    (0.75, 50.0, -76.64287518037847, 145.99405768765467, 3.912018838688559, 1.5657962017792668),
])


def test_log_gamma_and_digamma_accuracy_on_the_golden_set():
    s = _GOLDEN_LOG_GAMMA[:, 0] + 1j * _GOLDEN_LOG_GAMMA[:, 1]
    log_gamma = _GOLDEN_LOG_GAMMA[:, 2] + 1j * _GOLDEN_LOG_GAMMA[:, 3]
    psi = _GOLDEN_LOG_GAMMA[:, 4] + 1j * _GOLDEN_LOG_GAMMA[:, 5]
    hardy = np.isin(s.real, (0.25, 0.75))
    err = np.abs(complex_log_gamma(s) - log_gamma)
    assert (err / np.maximum(1.0, np.abs(log_gamma)))[~hardy].max() <= 2e-15
    assert err[hardy].max() <= 2e-14
    got = np.array([digamma(z) for z in s])
    assert (np.abs(got - psi) / np.abs(psi)).max() <= 2e-15


def _former_sieve_plan(n, strides):
    """``_sieve_plan`` as written before it sliced the one sieve: its own
    sieve up to the plan's largest base."""
    bases = [1 + stride * np.arange(n) for stride in strides]
    top = max(b[-1] for b in bases) + 1
    spf = np.arange(top)
    for p in range(2, math.isqrt(top - 1) + 1):
        spf[p * p::p] = np.minimum(spf[p * p::p], p)
    omega, rest = np.zeros(top, dtype=int), np.maximum(np.arange(top), 1)
    while (left := rest > 1).any():
        omega, rest = omega + left, np.where(left, rest // spf[rest], rest)
    ms = np.flatnonzero(np.bincount(np.concatenate(bases)))
    ms = ms[np.argsort(omega[ms], kind="stable")]
    row = np.empty(top, dtype=int)
    row[ms] = np.arange(ms.size)
    starts = np.searchsorted(omega[ms], range(1, omega[ms[-1]] + 2)).tolist()
    levels = tuple((lo, hi, row[spf[ms[lo:hi]]], row[ms[lo:hi] // spf[ms[lo:hi]]])
                   for lo, hi in zip(starts[1:], starts[2:]))
    return (np.log(ms[starts[0]:starts[1]]), levels,
            tuple(row[b] for b in bases), ms.size)


def test_sieve_plans_are_sliced_from_one_growing_sieve(monkeypatch):
    # from a fresh sieve, plans of growing and shrinking orders are those of
    # a sieve of their own, and the sieve grows by doubling only
    def flat(plan):
        log_primes, levels, stride_rows, rows = plan
        return [log_primes, *stride_rows, *(x for lv in levels for x in lv),
                rows]

    monkeypatch.setattr(special, "_SIEVE", ())
    special._sieve_plan.cache_clear()
    sizes = []
    try:
        for n in (8, 700, 24, 136, 16, 1000, 2, 512, 130):
            for strides in ((1,), (2,), (1, 2)):
                got = flat(special._sieve_plan(n, strides))
                ref = flat(_former_sieve_plan(n, strides))
                assert len(got) == len(ref)
                for a, b in zip(got, ref):
                    assert np.asarray(a).dtype == np.asarray(b).dtype
                    assert np.array_equal(a, b)
                sizes.append(special._SIEVE[0].size)
    finally:
        special._sieve_plan.cache_clear()
    # 256 first; 2048 covers the largest base, 1 + 2 * 999
    assert sizes[0] == 256 and sizes[-1] == 2048 and sizes == sorted(sizes)
    assert all(size & (size - 1) == 0 for size in sizes)


def test_memoized_arrays_are_read_only():
    # a memo shares its arrays with every caller, so none may be written
    log_primes, levels, stride_rows, _ = special._sieve_plan(32, (1, 2))
    memoized = [special._borwein_weights([40])[40], log_primes, *stride_rows,
                *special._sieve(64),
                *(rows for level in levels for rows in level[2:]),
                _h_moments(StencilVariant.NINE_POINT), *_gl_rule(8)]
    for a in memoized:
        with pytest.raises(ValueError):
            a[0] = a[0]

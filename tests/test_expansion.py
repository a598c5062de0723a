"""Asymptotic expansion: coefficients, identities, residual orders."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _trace_utils import make_truncated_trace
from toruszeta import expansion, lattice, quadrature
from toruszeta.epstein import epstein_zeta_2d, v_factor, v_factor_inv
from toruszeta.errors import DomainError, RangeError, SignalLostError
from toruszeta.expansion import (angular_lattice_sum, coeff_b0, coeff_b1,
                                 coeff_b1_tilde, em_verify, h_function,
                                 leading_coeff, residual_order,
                                 resolvent_leading_term,
                                 series_truncation_check, symbol_value,
                                 taylor_coefficients)
from toruszeta.expansion import (_angular_sum_values, _h_moments, _inner_j,
                                 _k2_sum)
from toruszeta.lattice import (StencilVariant, TorusGrid, axis_symbol,
                               resolvent_trace, stencil_symbol)
from toruszeta.quadrature import (AsymptoticTerm, IntegrandSpec, QuadResult,
                                  _gl_panels, quad_periodic_2d,
                                  regularized_integral)

FIVE = StencilVariant.FIVE_POINT
NINE = StencilVariant.NINE_POINT

# leading coefficients at s = 1/2, pinned offline by nested tanh-sinh
# quadrature of the defining triple integral at 22 digits (the closed-form
# inner reduction was itself cross-validated against the 2-D inner integral)
A_HALF_FIVE = 3.172496733574601
A_HALF_NINE = 3.3314201382356536


def test_leading_coeff_goldens():
    assert leading_coeff(0.5, FIVE, 1e-12).value.real == pytest.approx(
        A_HALF_FIVE, abs=1e-12)
    assert leading_coeff(0.5, NINE, 1e-12).value.real == pytest.approx(
        A_HALF_NINE, abs=1e-12)


def test_leading_coeff_returns_builtin_types():
    # complex and float, not NumPy scalars, so repr() reads them back
    for variant in (FIVE, NINE):
        res = leading_coeff(0.3 + 2.0j, variant)
        assert type(res) is QuadResult
        assert type(res.value) is complex and type(res.error) is float


def test_leading_coeff_variants_differ():
    # the 9-point cross term lowers the symbol, so a~ exceeds a here
    a5 = leading_coeff(0.5, FIVE).value.real
    a9 = leading_coeff(0.5, NINE).value.real
    assert a5 != a9
    assert a9 > a5


def test_leading_coeff_inner_reduction_vs_2d_quadrature():
    # the closed-form y-integral must match the raw 2-D periodic integral
    for variant in (FIVE, NINE):
        for z in (0.05, 0.3, 1.0):
            def f(x, y, z=z, variant=variant):
                sx = np.sin(np.pi * x) ** 2 / math.pi ** 2
                sy = np.sin(np.pi * y) ** 2 / math.pi ** 2
                val = sx + sy + z * z
                if variant is NINE:
                    val = val - (2 * math.pi ** 2 / 3) * sx * sy
                return val ** -2.0
            ref = quad_periodic_2d(f, 1e-12).value.real
            got = float(_inner_j(np.array([z]), variant, [])[0])
            assert got == pytest.approx(ref, rel=1e-11)


def test_leading_coeff_conjugation_and_domain():
    s = 0.3 + 2.0j
    a = leading_coeff(s, NINE).value
    b = leading_coeff(s.conjugate(), NINE).value
    assert abs(a.conjugate() - b) <= 1e-13 * abs(a)
    with pytest.raises(DomainError):
        leading_coeff(-0.1, NINE)
    with pytest.raises(DomainError):
        leading_coeff(1.0, NINE)
    with pytest.raises(DomainError):
        leading_coeff(1.9, FIVE)


@pytest.mark.parametrize("variant", [FIVE, NINE])
def test_leading_coeff_error_is_an_achieved_bound(variant):
    # at 1.5+1i, past the strip, the panels stop on the roundoff floor
    for s in (0.5, 0.3 + 2.0j, 0.75 + 1.0j, 1.5 + 1.0j):
        loose = leading_coeff(s, variant, 1e-8)
        tight = leading_coeff(s, variant, 1e-13)
        assert abs(loose.value - tight.value) <= loose.error


@pytest.mark.parametrize("variant", [FIVE, NINE])
def test_leading_coeff_over_an_array_gives_each_point_its_scalar_bits(
        variant):
    points = np.array([0.5, 0.3 + 2.0j, 0.7 - 2.5j, 1.5 + 1.0j, 0.5 + 14.0j])
    res = leading_coeff(points, variant)
    ones = [leading_coeff(p, variant) for p in points.tolist()]
    assert _same_bits(res.value, np.array([r.value for r in ones]))
    assert _same_bits(res.error, np.array([r.error for r in ones]))
    with pytest.raises(DomainError, match=r"got \(1\+0j\)"):
        leading_coeff(np.array([0.5, 1.0]), variant)


def test_h_function_over_two_points_evaluates_j_once_per_panel_depth(
        monkeypatch):
    # a~(1 - s) and a~(s) share every J(z): the deeper point's panel count,
    # not the sum of both
    calls = []
    original = expansion._inner_j
    monkeypatch.setattr(expansion, "_inner_j",
                        lambda z, *args: calls.append(z) or original(z, *args))
    points = [0.3 + 2.0j, 0.7 - 2.0j]
    each = []
    for p in points:
        calls.clear()
        leading_coeff(p, NINE)
        each.append(len(calls))
    calls.clear()
    h_function(np.array(points), 16)
    assert len(calls) == max(each) < sum(each)
    assert len({float(z[0]) for z in calls}) == len(calls)


def test_coeff_b0_examples():
    s = 0.3 + 2.0j
    assert abs(v_factor(2, s) * coeff_b0(s) - epstein_zeta_2d(s)) \
        <= 1e-12 * abs(epstein_zeta_2d(s))
    # V_2(1/2) = 4/pi, so b0(1/2) = (pi/4) zeta(Delta, 1/2)
    assert coeff_b0(0.5).real == pytest.approx(
        (math.pi / 4) * epstein_zeta_2d(0.5).real, rel=1e-12)
    assert abs(coeff_b0(s.conjugate()) - coeff_b0(s).conjugate()) \
        <= 1e-12 * abs(coeff_b0(s))


def test_coeff_b1_tilde_examples():
    s = 0.6 + 3.0j
    lhs = v_factor(2, s) * coeff_b1_tilde(s)
    rhs = s * math.pi ** 2 / 3 * epstein_zeta_2d(s - 1)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
    val = coeff_b1_tilde(0.4)
    assert abs(val.imag) <= 1e-13 * abs(val)


def _written_out_j(z, sx, b, w):
    """J(z) on the x-rule (sx, b, w), written out."""
    c = sx[None, :] + (z * z)[:, None]
    y = (c + b[None, :] / (2.0 * math.pi ** 2)) \
        * (c * (c + b[None, :] / math.pi ** 2)) ** -1.5
    return 2.0 * (y @ w)


def _former_inner_j(z, variant):
    """``_inner_j`` as written out before it ran in place, on the x-rule
    built from scratch (``_former_x_shape`` below): the reference for its
    bits."""
    return _written_out_j(z, *_former_x_shape(variant, float(z.min())))


def _former_k2_sum(a2):
    """``_k2_sum`` as written out before it ran in place."""
    a = np.sqrt(a2)
    q = np.exp(-2.0 * math.pi * a)
    c, u = (1.0 + q) / (1.0 - q), 4.0 * q / (1.0 - q) ** 2
    pi2 = math.pi ** 2
    return math.pi * c / (16.0 * a2 * a2 * a) - pi2 * pi2 * u * u / (8.0 * a2) \
        + u * (pi2 / (16.0 * a2 * a2) - pi2 * pi2 / (12.0 * a2))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


def test_inner_j_in_place_keeps_the_bits_at_every_panel_depth():
    # the z-nodes of each graded panel, depth 0..40, on the x-panels of one
    # call, extended as the z-panels deepen, then asked for a shallower depth
    for variant in (FIVE, NINE):
        panels = []
        for k in [*range(41), 3, 60]:
            z = _gl_panels(2.0 ** (-k - 1), 2.0 ** -k, 32)[0]
            assert _same_bits(_inner_j(z, variant, panels),
                              _former_inner_j(z, variant)), k


def _former_x_shape(variant, zmin, order=expansion._X_ORDER):
    """The x-rule resolving the corner at scale zmin, built from scratch:
    the panels [e_i+1, e_i] from 1/2 down, then [0, e_last]."""
    edges = [0.5]
    while edges[-1] > 0.25 * zmin and edges[-1] > 2.0 ** -200:
        edges.append(0.5 * edges[-1])
    x, width, w = _gl_panels(edges[1:] + [0.0], edges, order)
    sx = axis_symbol(x.ravel(), 1)
    b = 1.0 + (float(stencil_symbol(variant, 1.0, 1.0, 1)) - 2.0) * sx
    return sx, b, (width * w).ravel()


def test_inner_j_on_gl16_x_panels_is_within_4_eps_of_a_gl64_reference():
    # on a ratio-2 panel the GL16 error is ~(3 + sqrt 8)^-32 ~ 3.5e-25:
    # only rounding is left (2.9 eps measured; GL32 read 2.8)
    eps = np.finfo(float).eps
    for variant in (FIVE, NINE):
        for k in range(41):
            z = _gl_panels(2.0 ** (-k - 1), 2.0 ** -k, 32)[0]
            ref = _written_out_j(z, *_former_x_shape(variant, z.min(), 64))
            got = _inner_j(z, variant, [])
            assert np.all(np.abs(got - ref) <= 4.0 * eps * np.abs(ref)), k


@pytest.mark.parametrize("variant", [FIVE, NINE])
def test_leading_coeff_at_height_is_its_gl64_z_reference_within_its_error(
        variant, monkeypatch):
    # z^(3-2s) turns by 2 |Im s| ln 2 radians per z-panel, which GL32 still
    # resolves there and GL16 does not (3e-12 at 0.5+14i).  At this height
    # |a(s)| ~ 1e-15 is rounding noise of O(0.1) parts; both rules round J
    # to ~3 eps (above) where err's floor term assumes one, so they differ
    # by up to ~3 err: 2.3e-15 measured, against err 7.1e-16
    eps = np.finfo(float).eps
    points = (0.5 + 14.0j, 0.5 + 30.0j)
    got = [leading_coeff(s, variant) for s in points]
    gl = quadrature._gl_panels
    monkeypatch.setattr(quadrature, "_gl_panels",
                        lambda lo, hi, order: gl(lo, hi, 2 * order))
    for s, res in zip(points, got):
        ref = leading_coeff(s, variant).value
        assert abs(res.value - ref) <= res.error + 16.0 * eps, s


def test_k2_sum_in_place_keeps_the_bits():
    rng = np.random.default_rng(20)
    a2 = np.concatenate([np.geomspace(1.0, 1e8, 4001), rng.uniform(1.0, 1e8, 2000),
                         1.0 + rng.random(2000), [1.0, 1e8]])
    assert _same_bits(_k2_sum(a2), _former_k2_sum(a2))
    # the angular sum's shape: panels x nodes x k1
    z2 = rng.uniform(0.0, 64.0, (17, 32)) ** 2
    a2 = np.arange(1, 65, dtype=float) ** 2 + z2[..., None]
    assert _same_bits(_k2_sum(a2), _former_k2_sum(a2))


def test_h_moments_in_place_keep_the_bits():
    for variant in (FIVE, NINE):
        sx = axis_symbol(np.arange(128) / 128, 1)
        h = stencil_symbol(variant, sx[:, None], sx[None, :], 1)
        ref, p = np.empty(41), np.ones_like(h)
        for j in range(41):
            ref[j] = float(np.mean(p))
            p = p * h
        assert _same_bits(_h_moments(variant), ref)


def test_leading_coeff_peak_memory():
    # each panel's integrand lives in two arrays of its _inner_j call, freed
    # when it returns: 0.56 MB measured, where the five temporaries per panel
    # written out before peaked at 0.92 MB
    expansion._h_moments.cache_clear()
    tracemalloc.start()
    try:
        leading_coeff(0.733873 + 2.718712j, NINE, 1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75e6


@settings(max_examples=40, deadline=None)
@given(st.floats(1.0, 50.0))
def test_k2_sum_closed_form_matches_fsum(a):
    big_k = 2000
    k = np.arange(-big_k, big_k + 1, dtype=float)
    direct = math.fsum(k ** 2 / (k ** 2 + a * a) ** 4)
    # |k| > K: k^2 (k^2+a^2)^-4 = sum_j C(-4,j) a^2j k^-(6+2j), each power
    # summed by Euler-Maclaurin
    tail = 0.0
    for j, c in enumerate((1.0, -4.0, 10.0, -20.0)):
        m = 6 + 2 * j
        tail += c * a ** (2 * j) * (big_k ** (1 - m) / (m - 1)
                                    - 0.5 * big_k ** -m
                                    + m * big_k ** (-m - 1) / 12.0)
    assert _k2_sum(np.array(a * a)) == pytest.approx(direct + 2.0 * tail,
                                                     rel=1e-14)


def test_angular_sum_octant_symmetry_and_values():
    # axes contribute nothing (k1^2 k2^2 = 0), so the plain lattice part is
    # four times the positive quadrant; the exact S exceeds the square's sum
    # by its exterior, which stays below the strip bound (pi/8)/K^2 and
    # scales as K^-2
    z = 0.7
    K = 12
    brute = 0.0
    for k1 in range(-K, K + 1):
        for k2 in range(-K, K + 1):
            brute += k1 ** 2 * k2 ** 2 / (k1 ** 2 + k2 ** 2 + z * z) ** 4
    octant = 0.0
    for k1 in range(1, K + 1):
        for k2 in range(1, K + 1):
            octant += k1 ** 2 * k2 ** 2 / (k1 ** 2 + k2 ** 2 + z * z) ** 4
    assert brute == pytest.approx(4 * octant, rel=1e-14)
    got = _angular_sum_values(np.array([z]))[0][0]
    excess = {}
    for K in (12, 100, 200):
        k = np.arange(-K, K + 1, dtype=float)
        k1, k2 = np.meshgrid(k, k)
        brute = math.fsum((k1 ** 2 * k2 ** 2
                           / (k1 ** 2 + k2 ** 2 + z * z) ** 4).ravel())
        assert 0 < got - brute < (math.pi / 8) / K ** 2
        excess[K] = (got - brute) * K ** 2
    assert excess[100] == pytest.approx(excess[200], rel=0.01)


def test_angular_sum_cutoff_convergence(monkeypatch):
    # refinement oracle: GL48 panels, K = 128 explicit k1 terms and z-panels
    # out to 10 move the value by no more than the reported error
    base = {s: angular_lattice_sum(s) for s in (0.5, 0.3 + 2.0j, 0.7 + 2.0j)}
    monkeypatch.setattr(expansion, "_ANGULAR_ORDER", 48)
    monkeypatch.setattr(expansion, "_ANGULAR_KMAX", 128)
    monkeypatch.setattr(expansion, "_ANGULAR_Z_EDGES",
                        (1.0, 2.0, 3.0, 4.5, 6.0, 8.0, 10.0))
    for s, res in base.items():
        assert 0 < res.error <= 1e-9
        assert abs(angular_lattice_sum(s).value - res.value) <= res.error
    # frozen from the K=512 run at first build
    assert base[0.5].value.real == pytest.approx(-0.016165972832640093,
                                                 abs=5e-7)


def test_angular_integrand_tail_decay():
    # after removing the Poisson power, the integrand dies faster than any
    # power (e^(-2 pi z) per unit step ~ 1/535)
    vals = []
    for z in (2.0, 3.0, 4.0):
        s_val = _angular_sum_values(np.array([z]))[0][0]
        vals.append(abs(s_val - (math.pi / 24) / z ** 2))
    assert vals[0] / vals[1] > 100.0
    assert vals[1] / vals[2] > 30.0


def test_coeff_b1_structure():
    s = 0.5
    ang = angular_lattice_sum(s).value
    diff = coeff_b1(s) - coeff_b1_tilde(s)
    assert abs(diff - (-4 * math.pi ** 2 / (2 - s)) * ang) <= 1e-12 * abs(diff)
    sc = 0.4 + 1.5j
    assert abs(coeff_b1(sc.conjugate()) - coeff_b1(sc).conjugate()) \
        <= 1e-10 * abs(coeff_b1(sc))


def test_coeff_b1_improves_five_point_residual():
    # with the angular term the n^-2 coefficient is fully cancelled
    s = 0.5
    slope0, pts0, _ = residual_order(s, FIVE, [32, 64, 128],
                                     orders_included=0)
    slope1, pts1, _ = residual_order(s, FIVE, [32, 64, 128],
                                     orders_included=1)
    assert pts1[2][1] < pts0[2][1] / 50.0
    assert slope1 <= -3.5
    assert slope0 == pytest.approx(-2.0, abs=0.3)


@pytest.mark.parametrize("s", [0.5, 0.3 + 2.0j, 0.7 + 2.0j])
def test_five_point_residual_order_is_four(s):
    # with the exact angular sum, b1 leaves no n^-2 trace in the residual
    slope, _, _ = residual_order(s, FIVE, [32, 64, 128, 256],
                                 orders_included=1)
    assert slope == pytest.approx(-4.0, abs=0.02)


def test_taylor_coefficients_explicit():
    c = 2 * math.pi ** 2 / 3
    f00 = taylor_coefficients(0, FIVE)[0]
    assert f00.polynomial == {(0, 0): 1.0}
    assert taylor_coefficients(0, NINE)[0].polynomial == {(0, 0): 1.0}
    f1 = taylor_coefficients(1, FIVE)
    assert f1[0].polynomial == {}
    assert set(f1[1].polynomial) == {(4, 0), (0, 4)}
    for v in f1[1].polynomial.values():
        assert v == pytest.approx(c, rel=1e-15)
    f1t = taylor_coefficients(1, NINE)
    assert f1t[0].polynomial == {}
    got = f1t[1].polynomial
    assert got[(4, 0)] == pytest.approx(c, rel=1e-15)
    assert got[(0, 4)] == pytest.approx(c, rel=1e-15)
    assert got[(2, 2)] == pytest.approx(2 * c, rel=1e-15)
    with pytest.raises(RangeError):
        taylor_coefficients(5, FIVE)


def test_taylor_coefficients_homogeneous_symmetric():
    for variant in (FIVE, NINE):
        for m in range(5):
            for tc in taylor_coefficients(m, variant):
                for (i, k), coef in tc.polynomial.items():
                    assert i + k == 2 * tc.m + 2 * tc.j
                    assert tc.polynomial[(k, i)] == coef


def test_series_truncation_slopes():
    for variant in (FIVE, NINE):
        for big_n in (1, 2):
            res = series_truncation_check(variant, big_n, (0.3, 0.2, 0.15),
                                          [8, 16, 32, 64])
            ns = np.log([r[0] for r in res])
            es = np.log([r[1] for r in res])
            slope = np.polyfit(ns, es, 1)[0]
            assert slope == pytest.approx(-2 * big_n, abs=0.3)


def test_series_truncation_origin_exact():
    # x = y = 0 makes the symbol exactly z^2: all m >= 1 terms vanish
    res = series_truncation_check(NINE, 2, (0.0, 0.0, 0.5), [4, 8])
    for _, err in res:
        assert err <= 1e-15


def test_em_verify_polynomial_exact():
    lhs, rhs = em_verify(1, 10, lambda x: x * x,
                         lambda k, x: 2.0 * x if k == 1 else 0.0)
    assert lhs == 385.0
    assert abs(lhs - rhs) <= 1e-11


def test_em_verify_runge():
    fn = lambda x: 1.0 / (1.0 + x * x)
    deriv = lambda k, x: ((1j) * (-1) ** k * math.factorial(k)
                          * (x + 1j) ** (-k - 1)).real
    lhs, rhs = em_verify(3, 10, fn, deriv)
    assert abs(lhs - rhs) <= 1e-12
    # B_(2M+1) of the remainder kernel exists up to 2M+1 = 64
    lhs, rhs = em_verify(31, 10, lambda x: x * x,
                         lambda k, x: 2.0 * x if k == 1 else 0.0)
    assert abs(lhs - rhs) <= 1e-11
    for big_m in (0, 32):
        with pytest.raises(RangeError, match=f"M={big_m} outside 1..31"):
            em_verify(big_m, 10, fn, deriv)


def _runge():
    return (lambda x: 1.0 / (1.0 + x * x),
            lambda k, x: ((1j) * (-1) ** k * math.factorial(k)
                          * (x + 1j) ** (-k - 1)).real)


def test_em_verify_builds_its_kernel_once_at_the_nodes_of_the_unit_panel(
        monkeypatch):
    # B_(2M+1) at the 32 nodes of [0, 1], not at each panel's v - i
    args = []
    original = expansion.bernoulli_polynomial
    monkeypatch.setattr(expansion, "bernoulli_polynomial",
                        lambda k, x: args.append((k, x)) or original(k, x))
    em_verify(3, 40, *_runge())
    assert args == [(7, float(x)) for x in _gl_panels(0.0, 1.0, 32)[0]]


def test_em_verify_keeps_its_former_bits_up_to_m_3():
    # the kernel's nodes x are the former (0 + x) - 0 exactly, and up to
    # M = 3 its values at (i + x) - i rounded the same
    bits = lambda pair: [v.hex() for v in pair]
    assert bits(em_verify(3, 10, *_runge())) == ["0x1.fb56c63f608aap+0"] * 2
    assert bits(em_verify(3, 128, *_runge())) == ["0x1.08d1752dd7928p+1",
                                                 "0x1.08d1752dd7929p+1"]
    assert em_verify(2, 6, lambda x: x * x,
                     lambda k, x: 2.0 * x if k == 1 else 0.0) == (91.0, 91.0)


def test_em_verify_past_its_bound_raises_before_any_work():
    def no_work(*args):
        raise AssertionError("the sum ran")

    with pytest.raises(RangeError, match=f"exceeds {expansion.EM_MAX_N}"):
        em_verify(3, expansion.EM_MAX_N + 1, no_work, no_work)
    # the bound itself is accepted
    with pytest.raises(AssertionError, match="the sum ran"):
        em_verify(3, expansion.EM_MAX_N, no_work, no_work)


def test_em_boundary_and_derivative_terms_vanish_on_symbol():
    # periodicity kills the A-term, parity kills the D-term odd derivatives
    for variant in (FIVE, NINE):
        for (y, n, z) in ((1.3, 7, 0.8), (2.0, 5, 2.0)):
            assert symbol_value(variant, 0.0, y, n, z) \
                == symbol_value(variant, float(n), y, n, z)
            for h in (1e-3, 1e-4):
                fwd = symbol_value(variant, h, y, n, z) ** -2.0
                bwd = symbol_value(variant, -h, y, n, z) ** -2.0
                assert fwd == pytest.approx(bwd, rel=1e-15)


def test_resolvent_leading_term_matches_trace():
    # n=32, 9-point, alpha=2, z=3: the Euler-Maclaurin boundary terms vanish
    # and the correction integrals are exponentially small
    tr = resolvent_trace(TorusGrid(32), NINE, 2, 3.0)
    lead = resolvent_leading_term(32, NINE, 2, 3.0)
    assert abs(tr - lead) <= 1e-6 * tr
    assert abs(tr - lead) > 0.0


def test_h_function_expansion_shape():
    from toruszeta.epstein import complete_xi, omega
    s = 0.3 + 2.0j
    xi = complete_xi(s)
    om = omega(s)
    rem = []
    for n in (32, 64, 128):
        rem.append(abs(h_function(s, n) - xi - om * n ** -2.0))
    assert rem[0] / rem[1] == pytest.approx(16.0, rel=0.3)
    assert rem[1] / rem[2] == pytest.approx(16.0, rel=0.3)


def test_h_function_ratio_and_conjugation():
    s = 0.3 + 2.0j
    r512 = abs(h_function(1 - s, 512) / h_function(s, 512))
    r128 = abs(h_function(1 - s, 128) / h_function(s, 128))
    assert abs(r512 - 1) < abs(r128 - 1)
    hn = h_function(s, 64)
    assert abs(h_function(s.conjugate(), 64) - hn.conjugate()) <= 1e-12 * abs(hn)
    with pytest.raises(DomainError):
        h_function(1.2 + 1.0j, 16)
    with pytest.raises(RangeError):
        h_function(s, 1)


def test_h_function_over_an_array_gives_each_point_its_scalar_bits():
    s = np.array([0.3 + 2.0j, 0.7 - 2.0j, 0.5 + 0.25j, 0.3 + 2.0j])
    for n in (2, 17, 128):
        batch = h_function(s, n)
        assert batch.shape == s.shape
        for j, p in enumerate(s):
            scalar = h_function(complex(p), n)
            assert batch[j] == scalar and type(scalar) is np.complex128
    with pytest.raises(DomainError):
        h_function(np.array([0.3 + 2.0j, 1.2 + 1.0j]), 16)


def test_h_function_over_an_n_sequence_gives_each_n_the_bits_of_its_call(
        monkeypatch):
    s = np.array([0.3 + 2.0j, 0.7 - 2.0j, 0.3 + 2.0j])
    ns = [2, 17, 128]
    batch = h_function(s, ns)
    assert batch.shape == (3, 3)
    for row, n in zip(batch, ns):
        assert np.array_equal(row, h_function(s, n))
    column = h_function(complex(s[1]), np.array(ns))
    assert column.shape == (3,) and np.array_equal(column, batch[:, 1])
    assert h_function(s, []).shape == (0, 3)

    # every n is checked before a quadrature or a spectral pass runs
    def no_work(*args):
        raise AssertionError("the work ran")

    monkeypatch.setattr(expansion, "_graded_panels", no_work)
    monkeypatch.setattr(expansion, "spectral_zeta", no_work)
    with pytest.raises(RangeError, match="n must be >= 2"):
        h_function(s, [64, 1])
    with pytest.raises(RangeError, match="grid size"):
        h_function(s, [64, lattice.GRID_MAX_N + 1])


def test_residual_order_nine_point():
    s = 0.3 + 2.0j
    slope1, _, _ = residual_order(s, NINE, [32, 64, 128, 256],
                                  orders_included=1)
    assert slope1 <= -3.5
    slope0, _, _ = residual_order(s, NINE, [32, 64, 128, 256],
                                  orders_included=0)
    assert slope0 == pytest.approx(-2.0, abs=0.3)


def test_residual_order_outside_strip():
    # leading term decays faster than n^-2 here; the b1~ term dominates
    slope, _, _ = residual_order(1.5 + 1.0j, NINE, [32, 64, 128],
                                 orders_included=0)
    assert slope == pytest.approx(-2.0, abs=0.3)


def test_residual_order_signal_lost():
    with pytest.raises(SignalLostError):
        residual_order(0.3 + 2.0j, NINE, [64, 128, 256], orders_included=1,
                       tol=1e-4)
    with pytest.raises(RangeError):
        residual_order(0.3 + 2.0j, NINE, [64, 128], orders_included=1)


def test_partial_fraction_identities():
    # the two displayed decompositions behind b1/b1~ are pointwise exact
    rng = np.random.default_rng(4)
    for _ in range(25):
        k1 = rng.integers(-15, 16)
        k2 = rng.integers(-15, 16)
        z = rng.uniform(0.1, 5.0)
        q = float(k1 * k1 + k2 * k2) + z * z
        lhs = (k1 ** 4 + k2 ** 4) / q ** 4
        rhs = 1 / q ** 2 - 2 * z ** 2 / q ** 3 + z ** 4 / q ** 4 \
            - 2 * k1 ** 2 * k2 ** 2 / q ** 4
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1 / q ** 2)
        lhs2 = (k1 ** 2 + k2 ** 2) ** 2 / q ** 4
        rhs2 = 1 / q ** 2 - 2 * z ** 2 / q ** 3 + z ** 4 / q ** 4
        assert abs(lhs2 - rhs2) <= 1e-13 * max(abs(lhs2), 1 / q ** 2)


def test_zz_resolvent_trace_identities():
    # fint z^(2 beta - 2(s-1) - 1) Tr(Delta+z^2)^-beta = V_beta(s-1)^-1 zeta(Delta, s-1)
    s = 1.6
    w = s - 1.0
    for beta in (2, 3, 4):
        tr = make_truncated_trace(beta, 128)
        c = 2 * beta - 2 * w - 1
        spec = IntegrandSpec(
            lambda z, tr=tr, c=c: np.exp(
                c * np.log(np.asarray(np.atleast_1d(z), dtype=float))) * tr(z),
            descriptor_infinity=(
                AsymptoticTerm(1.0 - 2 * w, 0, math.pi / (beta - 1)),))
        lhs = regularized_integral(spec, 1e-9)
        rhs = v_factor_inv(beta, w) * epstein_zeta_2d(w)
        assert abs(lhs - rhs) <= 1e-6 * (1 + abs(rhs))


def test_zeta_regularized_integral_representation():
    # V_2(s) fint z^(3-2s) Tr(Delta+z^2)^-2 dz = 4 zeta_R(s) beta(s) at s=1.5
    s = 1.5
    tr = make_truncated_trace(2, 128)
    spec = IntegrandSpec(
        lambda z: np.exp(
            (3.0 - 2.0 * s) * np.log(np.asarray(np.atleast_1d(z), dtype=float)))
        * tr(z),
        descriptor_infinity=(AsymptoticTerm(1.0 - 2 * s, 0, math.pi),))
    lhs = v_factor(2, s) * regularized_integral(spec, 1e-9)
    rhs = epstein_zeta_2d(s)
    assert abs(lhs - rhs) <= 1e-6 * (1 + abs(rhs))


def test_residual_order_returns_the_fitted_residuals():
    s = 0.3 + 2.0j
    slope, residuals, _ = residual_order(s, NINE, [32, 64, 128])
    assert slope <= -3.5
    assert [n for n, _ in residuals] == [32, 64, 128]
    assert all(r > 0 for _, r in residuals)
    xs = np.log([n for n, _ in residuals])
    assert slope == pytest.approx(
        np.polyfit(xs, np.log([r for _, r in residuals]), 1)[0], rel=1e-12)
    assert abs(v_factor(2, s) * coeff_b0(s) - epstein_zeta_2d(s)) \
        <= 1e-12 * abs(epstein_zeta_2d(s))


def test_residual_order_rejects_an_unordered_n_list_before_any_work(
        monkeypatch):
    def no_work(*args):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(expansion, "_graded_panels", no_work)
    for n_list in ([64, 32, 128], [32, 32, 64]):
        with pytest.raises(RangeError, match="strictly increasing"):
            residual_order(0.3 + 2.0j, NINE, n_list)

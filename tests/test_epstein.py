"""Epstein zeta machinery: Glasser factors, xi, V, Omega, zero scans."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import toruszeta
from toruszeta import epstein
from toruszeta.conjecture import omega_ratio
from toruszeta.epstein import (OmegaRoute, _hardy_z,
                               _illinois_lockstep, complete_xi,
                               epstein_direct_sum, epstein_zeta_2d,
                               find_critical_zeros, hardy_z_beta,
                               hardy_z_riemann, omega, v_factor, v_factor_inv)
from toruszeta.errors import (DomainError, PoleError, ShapeError,
                              SignalLostError, ZeroShortfallWarning)
from toruszeta.lattice import StencilVariant, TorusGrid, spectral_zeta
from toruszeta.special import (complex_gamma, complex_log_gamma, digamma,
                               dirichlet_beta, riemann_zeta)

CATALAN = 0.915965594177219015
# first critical-line zeros of the two Glasser factors, pinned by the
# bisection oracle at first build (cross-checked offline at 30 digits)
BETA_ZEROS = (6.02094890469759665, 10.2437703041666, 12.9880980123124,
              16.3426071045872, 18.2919931961235)
RIEMANN_ZEROS = (14.1347251417346938,)


def test_epstein_values():
    assert epstein_zeta_2d(2.0).real == pytest.approx(
        4 * (math.pi ** 2 / 6) * CATALAN, rel=1e-13)
    assert epstein_zeta_2d(0.0).real == pytest.approx(-1.0, rel=1e-13)
    with pytest.raises(PoleError):
        epstein_zeta_2d(1.0)


def test_epstein_trivial_zeros():
    for k in (1, 2, 3):
        assert abs(epstein_zeta_2d(-float(k))) <= 1e-10


def test_direct_sum_hand_value():
    val, bound = epstein_direct_sum(3.0, 1)
    assert val.real == pytest.approx(4.5, rel=1e-14)
    assert bound > 0
    with pytest.raises(DomainError):
        epstein_direct_sum(0.9, 10)


def test_direct_sum_conjugation():
    s = 2.5 + 4.0j
    v1, _ = epstein_direct_sum(s.conjugate(), 15)
    v2, _ = epstein_direct_sum(s, 15)
    assert abs(v1 - v2.conjugate()) <= 1e-14 * abs(v2)


def test_glasser_consistency_within_tail_bound():
    for s in (2.0, 3.0, 2.5 + 4.0j):
        for cutoff in (20, 40, 80):
            val, bound = epstein_direct_sum(s, cutoff)
            assert abs(val - epstein_zeta_2d(s)) <= bound


def test_v_factor_half():
    assert v_factor(2, 0.5).real == pytest.approx(4 / math.pi, rel=1e-13)
    # V_alpha has no poles: finite at the positive integers
    assert abs(v_factor(2, 1.0) - 2.0) <= 1e-13
    assert v_factor(2, 3.0).real == pytest.approx(0.0, abs=1e-13)


def test_v_combination_identity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(-5, 5))
        lhs = v_factor_inv(2, s - 1) - 2 * v_factor_inv(3, s - 1) \
            + v_factor_inv(4, s - 1)
        rhs = s * (2 - s) / 6 * v_factor_inv(2, s)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_xi_functional_equation_grid():
    worst = 0.0
    for re in np.linspace(0.1, 0.9, 5):
        for im in np.linspace(1.0, 40.0, 4):
            s = complex(re, im)
            d = abs(complete_xi(s) - complete_xi(1 - s)) / (1 + abs(complete_xi(s)))
            worst = max(worst, d)
    assert worst <= 1e-9


def test_xi_critical_line_symmetries():
    s = complex(0.5, 10.0)
    v = complete_xi(s)
    assert abs(v - complete_xi(s.conjugate()).conjugate()) <= 1e-13 * abs(v)
    assert abs(v - complete_xi(1 - s)) <= 1e-12 * abs(v)


def test_xi_value_at_two():
    # pi^-2 Gamma(2) zeta(Delta, 2), derived from the module's own factors
    ref = math.pi ** -2 * 4 * (math.pi ** 2 / 6) * CATALAN
    assert complete_xi(2.0).real == pytest.approx(ref, rel=1e-13)
    for s in (0.0, 1.0):
        with pytest.raises(PoleError):
            complete_xi(s)


def test_omega_dual_formulas():
    for s in (0.4 + 3.0j, 0.25 - 7.0j, 1.3 + 11.0j):
        a = omega(s, OmegaRoute.DIRECT)
        b = omega(s, OmegaRoute.XI)
        assert abs(a - b) <= 1e-11 * abs(a)


def test_omega_critical_line_modulus():
    s = complex(0.5, 70.0)
    assert abs(omega(1 - s) / omega(s)) == pytest.approx(1.0, abs=1e-10)


def test_omega_schwarz():
    s = 0.4 + 3.0j
    assert abs(omega(s.conjugate()) - omega(s).conjugate()) <= 1e-13 * abs(omega(s))
    with pytest.raises(PoleError):
        omega(2.0)
    with pytest.raises(PoleError):
        omega(0.0)


def test_zero_scan():
    t, source, residual, found, expected = find_critical_zeros(1.0, 20.0)
    riem, beta = _split_by_source((t, source))
    assert len(beta) == len(BETA_ZEROS)
    assert len(riem) == len(RIEMANN_ZEROS)
    for got, ref in zip(beta, BETA_ZEROS):
        assert got == pytest.approx(ref, abs=5e-9)
    for got, ref in zip(riem, RIEMANN_ZEROS):
        assert got == pytest.approx(ref, abs=5e-9)
    assert (residual < 1e-8).all()
    assert (np.abs(epstein_zeta_2d(0.5 + 1j * t)) < 1e-8).all()
    assert found == expected == {"riemann": 1, "beta": 5}


def test_zero_scan_stays_inside_window():
    # the first Riemann zero, t = 14.134725, lies just past t_max
    t, source, _, found, _ = find_critical_zeros(1.0, 14.13)
    assert t.size
    assert (t <= 14.13).all()
    assert "riemann" not in source and found["riemann"] == 0


def _dense_reference(t_min, t_max, beta, step=0.02, tol=1e-9):
    """The zeros of one factor on [t_min, t_max] by the former scan: the
    Hardy signal on a grid of ``step``, each sign change bisected to
    ``tol``, all brackets in lockstep."""
    ts = np.arange(t_min, t_max + step, step)
    vals = _hardy_z(ts, beta)
    k = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
    lo, hi, flo = ts[k], np.where(vals[k] == 0.0, ts[k], ts[k + 1]), vals[k]
    while (hi - lo > tol).any():
        mid = 0.5 * (lo + hi)
        fm = _hardy_z(mid, beta)
        open_ = hi - lo > tol
        left = open_ & ((fm > 0) == (flo > 0)) & (fm != 0.0)
        right = open_ & ~left
        lo, flo = np.where(left, mid, lo), np.where(left, fm, flo)
        hi = np.where(right, mid, hi)
        lo = np.where(open_ & (fm == 0.0), mid, lo)
    roots = 0.5 * (lo + hi)
    return roots[roots <= t_max]


def _split_by_source(columns):
    """The t of each factor's zeros, zeta's then beta's, from the scan's
    columns (t, source, ...)."""
    t, source = columns[:2]
    return t[source == "riemann"].tolist(), t[source == "beta"].tolist()


@pytest.mark.parametrize("beta", [False, True])
def test_turning_points_are_zeros_of_the_phase_slope(beta):
    # theta'(t) = Re psi(a + it/2)/2 + (log b)/2 vanishes at t_turn and
    # changes sign there, from negative to positive
    a, log_b = epstein._PHASE_A[beta], epstein._PHASE_LOG_B[beta]

    def slope(t):
        return 0.5 * digamma(complex(a, 0.5 * t)).real + 0.5 * log_b

    turn = epstein._TURN[beta]
    assert abs(slope(turn)) <= 1e-15
    assert slope(turn - 1e-6) < 0.0 < slope(turn + 1e-6)


def test_gram_scan_matches_the_dense_reference_on_1_100():
    columns = find_critical_zeros(1.0, 100.0)
    t, _, residual, found, expected = columns
    riem, beta = _split_by_source(columns)
    assert (len(t), len(riem), len(beta)) == (79, 29, 50)
    assert (np.diff(t) > 0.0).all()  # sorted by t, not factor by factor
    for zeros, flag in ((riem, False), (beta, True)):
        ref = _dense_reference(1.0, 100.0, flag)
        assert len(ref) == len(zeros)
        assert np.abs(np.array(zeros) - ref).max() <= 1e-9
    assert residual.max() <= 1e-10
    assert found == expected == {"riemann": 29, "beta": 50}


@pytest.mark.parametrize("window, counts", [
    ((0.5, 8.0), (0, 1)),     # starts below both turning points
    ((1.0, 6.0), (0, 0)),     # ends below zeta's turning point
    ((21.0, 21.1), (1, 0)),   # shorter than a Gram interval
    ((20.0, 20.5), (0, 0)),   # shorter than a Gram interval, no zero
    ((95.0, 100.0), (2, 3)),
])
def test_gram_scan_windows_match_the_dense_reference(window, counts):
    columns = find_critical_zeros(*window)
    riem, beta = _split_by_source(columns)
    assert (len(riem), len(beta)) == counts
    for zeros, flag in ((riem, False), (beta, True)):
        ref = _dense_reference(*window, flag, step=0.005)
        assert len(zeros) == len(ref), flag
        assert all(abs(a - b) <= 1e-9 for a, b in zip(zeros, ref))
        assert all(window[0] <= t <= window[1] for t in zeros)
    if window == (1.0, 6.0):
        t, source, residual, found, expected = columns
        assert t.dtype == residual.dtype == np.float64
        assert t.shape == residual.shape == source.shape == (0,)
        assert found == expected == {"riemann": 0, "beta": 0}


def _sampled(monkeypatch):
    """Record the points of every Hardy-Z call of a scan."""
    calls = []

    def spy(ts, beta):
        calls.append((np.array(ts, dtype=float),
                      np.broadcast_to(beta, np.shape(ts)).copy()))
        return real(ts, beta)

    real = epstein._hardy_z
    monkeypatch.setattr(epstein, "_hardy_z", spy)
    return calls


@pytest.mark.parametrize("step", [0.02, 0.5, 2.0])
def test_zero_scan_step_caps_the_sampling_spacing(monkeypatch, step):
    plain = find_critical_zeros(5.0, 40.0)
    calls = _sampled(monkeypatch)
    capped = find_critical_zeros(5.0, 40.0, step=step)
    ts, beta = calls[0]  # the first call samples both factors
    for flag in (False, True):
        assert np.diff(np.sort(ts[beta == flag])).max() <= step * (1 + 1e-12)
    assert capped[1].tolist() == plain[1].tolist()
    assert np.abs(capped[0] - plain[0]).max() <= 1e-12


def test_zero_scan_uses_few_hardy_z_points(monkeypatch):
    calls = _sampled(monkeypatch)
    find_critical_zeros(1.0, 100.0)
    assert sum(ts.size for ts, _ in calls) <= 1500
    assert len(calls) <= 16


def test_zero_scan_samples_only_t_min_below_the_first_gram_point(
        monkeypatch):
    # no zero of either factor lies below its first Gram point (zeta:
    # g_-1 = 9.667 < 14.135, beta: g_0 = 3.370 < 6.021), so a window from
    # t = 1 samples t_min there and nothing else
    calls = _sampled(monkeypatch)
    find_critical_zeros(1.0, 20.0)
    for flag in (False, True):
        first = epstein._gram_points(
            np.array([float(epstein._FIRST_GRAM[flag])]), np.array([flag]))[0]
        ts = np.concatenate([t[beta == flag] for t, beta in calls])
        assert 1.0 in ts and 1.0 < first
        assert not np.any((1.0 < ts) & (ts < first)), flag


def _flip(monkeypatch, flag, lo, hi):
    """Make one factor's Hardy signal change sign on (lo, hi), which hides
    its zeros at lo and hi (a close pair merged, or, with hi past the scan,
    one root gone)."""
    real = epstein._hardy_z

    def fake(ts, beta):
        ts = np.asarray(ts, dtype=float)
        beta = np.broadcast_to(beta, ts.shape)
        vals = real(ts, beta)
        return np.where((beta == flag) & (lo < ts) & (ts < hi), -vals, vals)

    monkeypatch.setattr(epstein, "_hardy_z", fake)


@pytest.mark.parametrize("flag, lo, hi, missing", [
    (True, 10.2437703041666, 12.9880980123124, 2),
    (True, 16.3426071045872, 1e9, 1),
    (False, 14.1347251417346938, 1e9, 1),
], ids=["beta-pair-merges", "beta-root-gone", "riemann-root-gone"])
def test_zero_scan_shortfall_warns_or_raises(monkeypatch, flag, lo, hi,
                                              missing):
    _flip(monkeypatch, flag, lo, hi)
    full = 5 if flag else 1  # zeros of the factor on [1, 20]
    label = "beta" if flag else "riemann"
    shows = f"{label} factor shows {full - missing} of the {full} zeros"
    with pytest.warns(ZeroShortfallWarning, match=shows):
        _, _, _, found, expected = find_critical_zeros(1.0, 20.0)
    assert (expected[label], found[label]) == (full, full - missing)
    with pytest.raises(SignalLostError):
        find_critical_zeros(1.0, 20.0, strict=True)


def test_zero_scan_halves_a_short_gram_block_until_it_shows_its_zeros(
        monkeypatch):
    # flipping beta's signal from its zero 10.2437... to 0.3 past the Gram
    # point g_2 = 11.6919 moves that zero to 11.9919, next to the zero at
    # 12.988: g_2 turns bad (Gram's law fails), and the samples at
    # g_1, g_2, g_3 show no sign change in the block of two intervals
    # until its intervals are halved twice
    moved = 11.6918987309939 + 0.3
    _flip(monkeypatch, True, 10.2437703041666, moved)
    calls = _sampled(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        columns = find_critical_zeros(1.0, 20.0)
    _, beta = _split_by_source(columns)
    assert len(beta) == 5 and abs(beta[1] - moved) <= 1e-9
    assert (columns[4]["beta"], columns[3]["beta"]) == (5, 5)
    # the two calls after the first sampling halve that block only
    for ts, beta in calls[1:3]:
        assert beta.all() and ((8.28 < ts) & (ts < 14.65)).all()


def test_shortfall_warning_is_a_user_warning():
    assert toruszeta.ZeroShortfallWarning is ZeroShortfallWarning
    assert issubclass(ZeroShortfallWarning, UserWarning)


def test_zero_scan_domain():
    with pytest.raises(DomainError):
        find_critical_zeros(-1.0, 5.0)


def test_a_zero_scan_past_its_bound_raises_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(epstein, "_hardy_phase", no_work)
    with pytest.raises(DomainError, match="exceeds 1500"):
        find_critical_zeros(1.0, np.nextafter(epstein.ZERO_SCAN_MAX_T, 2e3))
    # the bound itself is accepted
    with pytest.raises(AssertionError, match="the scan ran"):
        find_critical_zeros(1.0, epstein.ZERO_SCAN_MAX_T)


def test_a_zero_scan_step_past_its_sample_budget_raises_before_any_work(
        monkeypatch):
    def no_work(*args):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(epstein, "_hardy_z", no_work)
    budget = f"parts, more than {epstein.SCAN_MAX_POINTS}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # part counts past any integer come first: unchecked, they fail
        # in np.linspace before allocating anything
        for step in (5e-324, 1e-300, 1e-13):
            with pytest.raises(DomainError, match=budget):
                find_critical_zeros(1.0, 20.0, step)
        # the window alone is 10^5 parts, the margins' Gram intervals are
        # some 3 x 10^9 more
        with pytest.raises(DomainError, match=budget):
            find_critical_zeros(20.0, 20.001, 1e-8)
    # a step within the budget goes on to the Hardy signals
    with pytest.raises(AssertionError, match="the scan ran"):
        find_critical_zeros(1.0, 20.0, 1e-3)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).view(np.uint64)


def test_batched_epstein_and_xi_match_scalar_bits():
    # Re(s) >= 1/2 at one height shares a series order, so the grid has
    # buckets wide enough for the batched column loop
    points = [complex(a, b) for a in np.linspace(0.05, 0.95, 19)
              for b in np.linspace(-99.0, 99.0, 7)]
    for fn in (epstein_zeta_2d, complete_xi):
        expect = [fn(s) for s in points]
        assert np.array_equal(_bits(fn(points)), _bits(expect))
    with pytest.raises(PoleError):
        epstein_zeta_2d([2.0, 1.0])
    for pole in (0.0, 1.0):
        with pytest.raises(PoleError):
            complete_xi([0.5 + 3.0j, pole])


@pytest.mark.parametrize("fn", [
    complex_gamma, complex_log_gamma, riemann_zeta, dirichlet_beta,
    epstein_zeta_2d, complete_xi, omega_ratio,
    functools.partial(spectral_zeta, TorusGrid(8), StencilVariant.NINE_POINT)],
    ids=lambda fn: getattr(fn, "__name__", "spectral_zeta"))
def test_one_s_or_an_array_of_s(fn):
    # one point is the element of a batch, bits and type, wherever it sits;
    # an empty array gives an empty array; any other shape, or a nan point,
    # raises
    p, q = 0.3 + 5.0j, 0.7 - 12.0j
    one = fn(p)
    for batch, at in (([p, q], 0), ([q, p], 1)):
        value = fn(np.array(batch))[at]
        assert type(one) is type(value) is np.complex128
        assert np.array_equal(_bits([one]), _bits([value]))
    empty = fn(np.array([], dtype=complex))
    assert empty.shape == (0,) and empty.dtype == complex
    with pytest.raises(ShapeError):
        fn(np.array([[p, q]]))
    with pytest.raises(DomainError):
        fn(math.nan)


@pytest.mark.parametrize("route", ["omega2", "direct"])
def test_the_cross_check_omega_routes_take_one_s(route):
    assert omega_ratio(0.3 + 5.0j, route) == pytest.approx(
        omega_ratio(0.3 + 5.0j), rel=1e-10)
    for s in ([0.3 + 5.0j], np.array([0.3 + 5.0j, 0.7 - 12.0j])):
        with pytest.raises(ShapeError):
            omega_ratio(s, route)


def test_xi_batches_fold_to_one_evaluation_per_point(monkeypatch):
    # duplicates, conjugate pairs, +-0 imaginary parts, an xi-defect grid
    # with its mirrors 1 - s, points past the underflow far up the line and
    # past Gamma's overflow: each value has the bits of its own evaluation
    # as given and of a one-point call, the sign of every zero part included
    evaluated = []
    own = epstein._xi

    def counted(s):
        evaluated.append(s.size)
        return own(s)

    monkeypatch.setattr(epstein, "_xi", counted)
    im = np.linspace(-30.0, 30.0, 7)
    grids = [(np.linspace(lo, hi, 7)[:, None] + 1j * im).ravel()
             for lo, hi in ((0.125, 0.875), (0.1, 0.9))]
    # a mirror-exact grid and its mirrors: the 7 x 4 points of Im(s) >= 0
    complete_xi(np.concatenate([grids[0], 1.0 - grids[0]]))
    assert evaluated == [7 * 4]
    special_points = np.array([
        0.3 + 5j, 0.3 - 5j, 0.3 + 5j, 0.7 - 5j, 0.3 + 0j,
        complex(0.3, -0.0), complex(-0.5, -0.0), 2.5 - 14j, -2.0, -2.0 - 0j,
        0.3 + 600j, 0.3 - 600j, 0.3 - 480j, 300.0 - 5j, -300.0 - 5j])
    batch = np.concatenate([*grids, 1.0 - grids[1], special_points])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = complete_xi(batch)
        # the folded points whose value has a zero, inf or nan part again,
        # as given
        assert len(evaluated) == 3
        one_point = [complete_xi(s) for s in batch]
        as_given = own(np.where(
            (batch.real <= -1.0) & (batch.imag == 0.0)
            & (batch.real == np.floor(batch.real)), 1.0 - batch, batch))
    assert np.array_equal(_bits(got), _bits(one_point))
    assert np.array_equal(_bits(got), _bits(as_given))


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.9, 1.9).filter(lambda x: abs(x - 0.5) >= 0.05),
       st.floats(-100, 100))
def test_xi_functional_equation_over_the_domain(x, y):
    # zeros on Re(s) = 1/2 make the relative defect unbounded near the line;
    # near the poles s = 0, 1 the rounding of 1 - s costs eps/|s| relative
    s = complex(x, y)
    if min(abs(s), abs(1.0 - s)) < 1e-3:
        return
    val, mirror = complete_xi([s, 1.0 - s])
    assert abs(val - mirror) <= 1e-11 * abs(val)


def test_non_finite_points_raise():
    for fn in (epstein_zeta_2d, complete_xi, omega_ratio):
        for bad in (math.nan, complex(0.5, math.inf)):
            with pytest.raises(DomainError, match="finite"):
                fn([0.5 + 3.0j, bad])


@pytest.mark.parametrize("fn, pole", [
    (riemann_zeta, 1.0),
    (epstein_zeta_2d, 1.0),
    (complete_xi, 0.0),
    (complete_xi, 1.0),
    (omega_ratio, 0.0),
    (omega_ratio, 2.0),
])
def test_poles_raise_through_scalar_and_array(fn, pole):
    with pytest.raises(PoleError):
        fn(pole)
    with pytest.raises(PoleError):
        fn([0.5 + 3.0j, pole])


def _illinois_one(fn, lo, hi, flo, fhi):
    """One bracket polished on its own, one call of fn per step: the
    Illinois iteration of ``_illinois_lockstep`` in Python floats."""
    wlo, whi, moved = flo, fhi, 0
    for _ in range(epstein._MAX_POLISH):
        if flo == 0.0 or fhi == 0.0:
            break
        tol = epstein._ROOT_TOL + epstein._ROOT_RTOL * hi
        if hi - lo <= tol:
            break
        x = hi - whi * (hi - lo) / (whi - wlo)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        fx = fn(x)
        if fx == 0.0:
            lo = hi = x
            flo = fhi = 0.0
        elif (fx > 0.0) == (flo > 0.0):
            lo, flo, wlo = x, fx, fx
            whi *= 0.5 if moved == -1 else 1.0
            moved = -1
        else:
            hi, fhi, whi = x, fx, fx
            wlo *= 0.5 if moved == 1 else 1.0
            moved = 1
    return hi if abs(fhi) < abs(flo) else lo


def test_lockstep_illinois_matches_one_bracket_illinois():
    ts = np.arange(1.0, 60.0, 0.05)
    brackets, flags = [], []
    for flag, fn in ((False, hardy_z_riemann), (True, hardy_z_beta)):
        vals = np.array([fn(t) for t in ts])
        assert np.array_equal(vals.view(np.uint64),
                              _hardy_z(ts, flag).view(np.uint64))
        for i in np.flatnonzero(vals[:-1] * vals[1:] < 0):
            brackets.append((ts[i], ts[i + 1], vals[i], vals[i + 1]))
            flags.append(flag)
    assert len(brackets) >= 20 and len(set(flags)) == 2
    flags = np.array(flags)
    # both factors in one lockstep call, as the scan polishes them
    roots = _illinois_lockstep(lambda idx, x: _hardy_z(x, flags[idx]),
                               *np.array(brackets).T)
    expect = [_illinois_one(hardy_z_beta if flag else hardy_z_riemann, *b)
              for b, flag in zip(brackets, flags)]
    assert [float(r).hex() for r in roots] \
        == [float(e).hex() for e in expect]
    assert all(lo <= r <= hi for r, (lo, hi, _, _) in zip(roots, brackets))


def test_xi_at_the_negative_integers():
    # the zero of zeta(Delta, -k) cancels Gamma's pole: xi2(-k) = xi2(k+1)
    for k in (1, 2, 5):
        assert complete_xi(-float(k)) == complete_xi(k + 1.0)
    near, at, mirror = complete_xi([-2.0 + 1e-3j, -2.0, 3.0])
    assert at == mirror
    assert abs(near - at) <= 1e-3 * abs(at)
    for pole in (0.0, 1.0):
        with pytest.raises(PoleError):
            complete_xi(pole)


def test_xi_is_exactly_real_on_the_real_axis():
    # pi^(-s) Gamma(s) takes Gamma's sign from the reflection, not from
    # exp(+-i pi), so no imaginary rounding is left over
    points = [-0.5, -2.5, 0.3, 3.5]
    for val in list(complete_xi(points)) \
            + [complete_xi(s) for s in points]:
        assert val.imag == 0.0 and val.real != 0.0
    # the long-double Gamma leaves the series as the main error: zeta(-0.5) is good
    # to ~2e-14, since the rounding of 2^0.5 enters every even power of the
    # sieved table with one sign
    assert abs(complete_xi(-0.5) - complete_xi(1.5)) \
        <= 5e-14 * abs(complete_xi(1.5))
    assert abs(complete_xi(-2.5) - complete_xi(3.5)) \
        <= 1e-14 * abs(complete_xi(3.5))

"""Critical-line machinery: Omega ratios, factor monotonicity, H_n studies."""

import math

import numpy as np
import pytest

from toruszeta import conjecture, expansion
from toruszeta.conjecture import (eta_factor, hn_ratio_study,
                                  monotonicity_scan, omega_ratio, q_factor,
                                  rho_factor)
from toruszeta.errors import NonFiniteError, PoleError, ZeroDenominatorError

# |zeta(Delta, s+1)/zeta(Delta, s-1)| at 0.75+70i, pinned offline (30 digits)
ETA_GOLDEN = 0.0101705044779227135
FIRST_BETA_ZERO_T = 6.02094890469759665


def test_omega_ratio_unit_modulus_on_line():
    for b in (5.0, 10.0, 66.0, 70.0, 100.0):
        assert abs(omega_ratio(complex(0.5, b))) == pytest.approx(1.0, abs=1e-10)


def test_omega_ratio_unit_modulus_at_large_height():
    # past |Im s| ~ 450 the Borwein weights need their 2^-900 rescaling
    for b in (450.0, 800.0):
        assert abs(omega_ratio(complex(0.5, b))) == pytest.approx(1.0, abs=1e-11)


def test_omega_ratio_routes_agree():
    for s in (0.3 + 66.0j, 0.7 + 12.0j, 0.45 + 3.0j):
        base = omega_ratio(s, "omega1")
        for route in ("omega2", "direct"):
            assert abs(omega_ratio(s, route) - base) <= 1e-10 * abs(base)


def test_omega_ratio_array_matches_scalar_bits():
    points = [complex(a, b) for b in (5.0, 70.0, 99.0)
              for a in np.linspace(0.01, 0.99, 41)]
    expect = np.array([omega_ratio(s) for s in points])
    got = omega_ratio(points)
    assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


def test_omega_ratio_conjugation():
    s = 0.3 + 8.0j
    assert abs(omega_ratio(s.conjugate()) - omega_ratio(s).conjugate()) \
        <= 1e-12 * abs(omega_ratio(s))


def test_q_factor():
    assert q_factor(0.5 + 1.0j) == pytest.approx(math.pi ** 2 / 1.25, rel=1e-14)
    with pytest.raises(PoleError):
        q_factor(1.0)
    # maximum over a at a = 1/2 for fixed b = 1
    grid = np.linspace(0.02, 0.98, 97)
    vals = [q_factor(complex(a, 1.0)) for a in grid]
    assert grid[int(np.argmax(vals))] == pytest.approx(0.5, abs=0.02)


def test_q_factor_derivative_signs():
    # d/da q(a,b)^2 positive on (0,1/2), negative on (1/2,1).  The numerator
    # factors as 2(2a-1)(a^2-a+b^2), so the sign pattern needs b^2 > 1/4,
    # i.e. |b| > 1/2 (at b = 0.3 it genuinely flips inside the interval,
    # see below).
    h = 1e-6

    def dq2(a, b):
        return (q_factor(complex(a + h, b)) ** 2
                - q_factor(complex(a - h, b)) ** 2) / (2 * h)

    b = 0.6
    for a in (0.1, 0.25, 0.4):
        assert dq2(a, b) > 0
    for a in (0.6, 0.75, 0.9):
        assert dq2(a, b) < 0
    # below |b| = 1/2 the quadratic a^2 - a + b^2 has real roots and the
    # monotonicity on (0, 1/2) fails between them
    assert dq2(0.25, 0.3) < 0
    assert dq2(0.05, 0.3) > 0


def test_q_factor_sign_matches_closed_form_numerator():
    # numerator of -d/da q^2 is pi^4 (4a^3 - 6a^2 + 2a + 4b^2 a - 2b^2)
    rng = np.random.default_rng(9)
    h = 1e-6
    for _ in range(20):
        a = rng.uniform(0.05, 0.95)
        b = rng.uniform(0.3, 5.0)
        if abs(a - 0.5) < 0.02:
            continue
        d = (q_factor(complex(a + h, b)) ** 2
             - q_factor(complex(a - h, b)) ** 2) / (2 * h)
        numer = 4 * a ** 3 - 6 * a ** 2 + 2 * a + 4 * b * b * a - 2 * b * b
        assert (d > 0) == (numer < 0)


def test_eta_golden_and_monotone():
    assert eta_factor(0.75 + 70.0j) == pytest.approx(ETA_GOLDEN, rel=1e-11)
    grid = np.linspace(0.52, 0.98, 21)
    vals = [eta_factor(complex(a, 70.0)) for a in grid]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    s = 0.6 + 9.0j
    assert eta_factor(s.conjugate()) == pytest.approx(eta_factor(s), rel=1e-13)


def test_rho_monotone_and_composition():
    grid = np.linspace(0.02, 0.48, 21)
    vals = [rho_factor(complex(a, 70.0)) for a in grid]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    rng = np.random.default_rng(2)
    for _ in range(15):
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(2, 80))
        assert rho_factor(s) == pytest.approx(eta_factor(1 - s), rel=1e-12)
    s = 0.3 + 12.0j
    assert rho_factor(s.conjugate()) == pytest.approx(rho_factor(s), rel=1e-13)


def test_zero_denominator_reporting():
    # zeta(Delta, -2) = 0 (trivial zero), so eta at s = -1 has a vanishing
    # denominator
    with pytest.raises(ZeroDenominatorError):
        eta_factor(-1.0)


def test_monotonicity_scan_theorem_regime():
    grid = list(np.linspace(0.01, 0.99, 101))
    vals, verdict = monotonicity_scan(70.0, grid)
    assert verdict["strictly_increasing"] is True
    assert not verdict["exploratory"]
    assert abs(verdict["crossing_a"] - 0.5) <= (grid[1] - grid[0]) + 1e-12
    assert len(vals) == len(grid)
    mid = len(vals) // 2
    assert all(v < 1 for v in vals[:mid])
    assert all(v > 1 for v in vals[mid + 1:])


def test_monotonicity_scan_exploratory_flag():
    vals, verdict = monotonicity_scan(0.1, list(np.linspace(0.1, 0.9, 9)))
    assert verdict["exploratory"]
    assert len(vals) == 9


def test_hn_ratio_study_nonzero_point():
    s = 0.3 + 2.0j
    ns = [32, 64, 128, 256, 512]
    ratios, fallback = hn_ratio_study(s, ns)
    assert fallback is None
    assert len(ratios) == len(ns)
    xs = np.log(ns)
    ys = np.log([abs(r - 1.0) for r in ratios])
    slope = np.polyfit(xs, ys, 1)[0]
    assert -2.6 <= slope <= -1.4
    # the Omega-driven correction scale |ratio - 1| n^2 settles
    spread = [abs(r - 1.0) * n * n for r, n in zip(ratios, ns)]
    assert max(spread) <= 1.05 * min(spread) + 1e-12


def test_hn_ratio_study_on_zero():
    s = complex(0.5, FIRST_BETA_ZERO_T)
    ratios, fallback = hn_ratio_study(s, [32, 64, 128, 256])
    assert fallback == pytest.approx(1.0, abs=1e-9)
    for r in ratios:
        assert r == pytest.approx(1.0, abs=1e-5)


def test_hn_ratio_study_is_the_ratio_of_the_scalar_h_values():
    # one batched H_n call per n keeps the bits of the two scalar calls,
    # numerator 1 - s over denominator s
    from toruszeta.expansion import h_function
    s, ns = 0.3 + 2.0j, [16, 33, 64]
    ratios, _ = hn_ratio_study(s, ns)
    assert ratios == [abs(h_function(1.0 - s, n) / h_function(s, n))
                      for n in ns]
    assert all(r > 1.0 + 1e-4 for r in ratios)  # swapped, each would be < 1


def test_hn_ratio_study_runs_one_leading_coefficient_per_point(monkeypatch):
    # a~(1 - s) and a~(s) once each, however many n
    from toruszeta import expansion
    calls = []
    original = expansion.leading_coeff

    def counted(s, *args):
        calls.append(s)
        return original(s, *args)

    monkeypatch.setattr(expansion, "leading_coeff", counted)
    s = 0.3 + 2.0j
    ratios, _ = hn_ratio_study(s, [16, 32, 64, 128, 256])
    assert len(ratios) == 5
    assert sorted(calls, key=lambda p: p.real) == [s, 1.0 - s]


def test_hn_past_the_v2_overflow_fails_before_any_zero_scan(monkeypatch):
    # past |Im s| ~ 239 V_2 overflows, so near the line the study fails on
    # H_n before its near-zero probe scans (which near |Im s| = 1500 would
    # pass the zero scan's bound), and before H_n computes a leading
    # coefficient; below, the probe scans |Im s| -+ 1.5
    windows, leads = [], []
    scan, lead = conjecture.find_critical_zeros, expansion.leading_coeff
    monkeypatch.setattr(conjecture, "find_critical_zeros",
                        lambda lo, hi: windows.append((lo, hi)) or scan(lo, hi))
    monkeypatch.setattr(expansion, "leading_coeff",
                        lambda s, *a: leads.append(s) or lead(s, *a))
    for t in (1499.5, -300.0):
        with pytest.raises(NonFiniteError, match="V_2"):
            hn_ratio_study(complex(0.5, t), [32, 64])
    assert windows == [] and leads == []
    hn_ratio_study(complex(0.5, 14.0), [32])
    assert windows == [(12.5, 15.5)]


def test_hn_ratio_study_conjugate_mirror():
    s = 0.3 + 2.0j
    a, _ = hn_ratio_study(s, [32, 64])
    b, _ = hn_ratio_study(s.conjugate(), [32, 64])
    assert a == pytest.approx(b, rel=1e-12)

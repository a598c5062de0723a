"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance below is pinned to the stated acceptance value.
"""

import math
import time

import numpy as np

from toruszeta.conjecture import monotonicity_scan, omega_ratio
from toruszeta.epstein import (complete_xi, epstein_zeta_2d,
                               find_critical_zeros, v_factor, v_factor_inv)
from toruszeta.expansion import (em_verify, h_function, leading_coeff,
                                 series_truncation_check, taylor_coefficients)
from toruszeta.lattice import (StencilVariant, TorusGrid, apply_stencil,
                               eigenvalue, spectral_zeta, spectral_zeta_1d)
from toruszeta.quadrature import (AsymptoticDescriptor, AsymptoticTerm,
                                  IntegrandSpec, Location,
                                  change_of_variables_check,
                                  regularized_integral)
from toruszeta.special import complex_gamma, riemann_zeta

FIVE = StencilVariant.FIVE_POINT
NINE = StencilVariant.NINE_POINT


def _report(num, desc, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}  {desc}  ({elapsed:.2f}s) {detail}")
    assert ok, f"criterion {num}: {desc} {detail}"


def test_criterion_01_stencil_spectrum_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 17):
        g = TorusGrid(n)
        j1, j2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        for v in StencilVariant:
            for k1 in range(n):
                for k2 in range(n):
                    mode = np.exp(2j * np.pi * (k1 * j1 + k2 * j2) / n)
                    resid = apply_stencil(g, v, mode) \
                        - eigenvalue(g, v, k1, k2) * mode
                    worst = max(worst, float(np.max(np.abs(resid))))
    dt = time.perf_counter() - t0
    _report(1, "stencil reproduces spectrum, n=2..16, both variants",
            worst <= 1e-12 and dt < 5.0, dt, f"worst={worst:.2e}")


def test_criterion_02_convergence_above_strip():
    t0 = time.perf_counter()
    ref = epstein_zeta_2d(2.0)
    errs = {n: abs(spectral_zeta(TorusGrid(n), NINE, 2.0) - ref)
            for n in (64, 128, 256)}
    r1 = errs[64] / errs[128]
    r2 = errs[128] / errs[256]
    dt = time.perf_counter() - t0
    ok = 3.3 <= r1 <= 4.7 and 3.3 <= r2 <= 4.7 and dt < 10.0
    _report(2, "zeta(9pt, 2) converges to 4 zeta_R(2) beta(2) at O(n^-2)",
            ok, dt, f"ratios={r1:.2f},{r2:.2f}")


def test_criterion_03_critical_strip_expansion():
    t0 = time.perf_counter()
    s = 0.3 + 2.0j
    lead = leading_coeff(s, NINE, 1e-12).value
    v2 = v_factor(2, s)
    const = epstein_zeta_2d(s)
    b1 = s * math.pi ** 2 / 3 * v_factor_inv(2, s) * epstein_zeta_2d(s - 1)
    pts = []
    for n in (32, 64, 128, 256):
        zn = spectral_zeta(TorusGrid(n), NINE, s)
        resid = abs(zn - v2 * lead * complex(n) ** (2 - 2 * s) - const
                    - v2 * b1 * n ** -2.0)
        pts.append((math.log(n), math.log(resid)))
    slope = float(np.polyfit([p[0] for p in pts], [p[1] for p in pts], 1)[0])
    dt = time.perf_counter() - t0
    _report(3, "9pt expansion residual slope <= -3.5 at s=0.3+2i",
            slope <= -3.5 and dt < 120.0, dt, f"slope={slope:.3f}")


def test_criterion_04_one_dimensional_cross_check():
    t0 = time.perf_counter()
    s = 0.25
    lead = math.pi ** (2 * s - 0.5) \
        * (complex_gamma(0.5 - s) / complex_gamma(1 - s)).real
    c0 = 2 * riemann_zeta(2 * s).real
    c1 = (2 * s / 3) * math.pi ** 2 * riemann_zeta(2 * s - 2).real
    vals = []
    for n in (64, 128, 256, 512):
        z = spectral_zeta_1d(n, s).real
        resid = abs(z - lead * n ** (1 - 2 * s) - c0 - c1 * n ** -2.0)
        vals.append(resid * n * n)
    dt = time.perf_counter() - t0
    ok = all(b < a for a, b in zip(vals, vals[1:])) and dt < 10.0
    _report(4, "circle three-term residual: n^2 |resid| strictly decreasing",
            ok, dt, f"n2resid={['%.2e' % v for v in vals]}")


def test_criterion_05_functional_equation():
    t0 = time.perf_counter()
    worst = 0.0
    for re in np.linspace(0.1, 0.9, 5):
        for im in np.linspace(1.0, 40.0, 4):
            s = complex(re, im)
            d = abs(complete_xi(s) - complete_xi(1 - s)) \
                / (1 + abs(complete_xi(s)))
            worst = max(worst, d)
    dt = time.perf_counter() - t0
    _report(5, "xi_2(s) = xi_2(1-s) on the 5x4 strip grid",
            worst <= 1e-9 and dt < 5.0, dt, f"worst={worst:.2e}")


def test_criterion_06_omega_ratio_symmetry_and_monotonicity():
    t0 = time.perf_counter()
    unit = all(abs(abs(omega_ratio(complex(0.5, b))) - 1.0) <= 1e-10
               for b in (10.0, 70.0))
    grid = list(np.linspace(0.01, 0.99, 101))
    _, verdict = monotonicity_scan(70.0, grid)
    cell = grid[1] - grid[0]
    crossing_ok = verdict["crossing_a"] is not None \
        and abs(verdict["crossing_a"] - 0.5) <= cell + 1e-12
    dt = time.perf_counter() - t0
    ok = unit and verdict["strictly_increasing"] and crossing_ok and dt < 10.0
    _report(6, "|Omega(1-s)/Omega(s)|: unit on line, monotone across strip",
            ok, dt, f"crossing={verdict['crossing_a']}")


def test_criterion_07_hn_ratio_convergence():
    t0 = time.perf_counter()
    s = 0.3 + 2.0j
    ns = (32, 64, 128, 256, 512)
    ys = []
    for n in ns:
        ratio = abs(h_function(1 - s, n) / h_function(s, n))
        ys.append(math.log(abs(ratio - 1.0)))
    slope = float(np.polyfit(np.log(ns), ys, 1)[0])
    dt = time.perf_counter() - t0
    ok = -2.6 <= slope <= -1.4 and dt < 120.0
    _report(7, "| |H_n(1-s)/H_n(s)| - 1 | decays with slope in [-2.6,-1.4]",
            ok, dt, f"slope={slope:.3f}")


def test_criterion_08_regularization_axioms():
    t0 = time.perf_counter()
    pure_ok = True
    for a in (-1.5, -0.5, 0.7, 2.0):
        spec = IntegrandSpec(
            lambda z, a=a: z ** a,
            AsymptoticDescriptor([AsymptoticTerm(a, 0, 1.0)], Location.AT_ZERO),
            AsymptoticDescriptor([AsymptoticTerm(a, 0, 1.0)], Location.AT_INFINITY))
        pure_ok = pure_ok and abs(regularized_integral(spec)) <= 1e-13
    rng = np.random.default_rng(21)
    cov_ok = True
    for _ in range(5):
        a0 = rng.uniform(-1.8, -1.1)
        c0, ci = rng.normal(), rng.normal()
        spec = IntegrandSpec(
            lambda z, a0=a0, c0=c0, ci=ci: c0 * z ** a0 * np.exp(-z * z)
            + ci / (1.0 + z),
            AsymptoticDescriptor([AsymptoticTerm(a0, 0, c0)], Location.AT_ZERO),
            AsymptoticDescriptor(
                [AsymptoticTerm(-1.0, 0, ci), AsymptoticTerm(-2.0, 0, -ci)],
                Location.AT_INFINITY))
        lam = rng.uniform(0.3, 3.0)
        lhs, rhs = change_of_variables_check(spec, lam)
        cov_ok = cov_ok and abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
    dt = time.perf_counter() - t0
    _report(8, "pure powers integrate to zero; change-of-variables rule",
            pure_ok and cov_ok, dt)


def test_criterion_09_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    v_ok = True
    for _ in range(10):
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(-8, 8))
        lhs = v_factor_inv(2, s - 1) - 2 * v_factor_inv(3, s - 1) \
            + v_factor_inv(4, s - 1)
        rhs = s * (2 - s) / 6 * v_factor_inv(2, s)
        v_ok = v_ok and abs(lhs - rhs) <= 1e-12 * abs(rhs)
    bb_ok = True
    for _ in range(20):
        k1 = int(rng.integers(-12, 13))
        k2 = int(rng.integers(-12, 13))
        z = rng.uniform(0.1, 4.0)
        q = float(k1 * k1 + k2 * k2) + z * z
        lhs = (k1 ** 4 + k2 ** 4) / q ** 4
        rhs = 1 / q ** 2 - 2 * z ** 2 / q ** 3 + z ** 4 / q ** 4 \
            - 2 * k1 ** 2 * k2 ** 2 / q ** 4
        bb_ok = bb_ok and abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1 / q ** 2)
    c = 2 * math.pi ** 2 / 3
    f11 = taylor_coefficients(1, FIVE)[1].polynomial
    f11t = taylor_coefficients(1, NINE)[1].polynomial
    f_ok = (taylor_coefficients(1, FIVE)[0].polynomial == {}
            and abs(f11[(4, 0)] - c) <= 2e-16 * c
            and abs(f11[(0, 4)] - c) <= 2e-16 * c
            and (2, 2) not in f11
            and abs(f11t[(4, 0)] - c) <= 2e-16 * c
            and abs(f11t[(2, 2)] - 2 * c) <= 4e-16 * c)
    slope_ok = True
    for big_n in (1, 2):
        res = series_truncation_check(NINE, big_n, (0.3, 0.2, 0.15),
                                      [8, 16, 32, 64])
        slope = float(np.polyfit(np.log([r[0] for r in res]),
                                 np.log([r[1] for r in res]), 1)[0])
        slope_ok = slope_ok and abs(slope + 2 * big_n) <= 0.3
    dt = time.perf_counter() - t0
    _report(9, "V-combination, partial fractions, F_{m,j}, truncation slopes",
            v_ok and bb_ok and f_ok and slope_ok, dt)


def test_criterion_10_euler_maclaurin_identity():
    t0 = time.perf_counter()
    fn = lambda x: 1.0 / (1.0 + x * x)
    deriv = lambda k, x: ((1j) * (-1) ** k * math.factorial(k)
                          * (x + 1j) ** (-k - 1)).real
    lhs, rhs = em_verify(3, 10, fn, deriv)
    runge_ok = abs(lhs - rhs) <= 1e-12
    lhs, rhs = em_verify(1, 10, lambda x: x * x,
                         lambda k, x: 2.0 * x if k == 1 else 0.0)
    poly_ok = abs(lhs - rhs) <= 1e-11
    dt = time.perf_counter() - t0
    _report(10, "Euler-Maclaurin identity two-sided agreement",
            runge_ok and poly_ok, dt)


def test_criterion_11_zero_inventory():
    t0 = time.perf_counter()
    t, source, residual, _, _ = find_critical_zeros(1.0, 20.0)
    beta_low = t[(source == "beta") & (t < 10.0)]
    riem_low = t[(source == "riemann") & (t < 20.0)]
    resid_ok = bool((residual < 1e-8).all())
    # goldens pinned by the bisection oracle at first build
    golden_ok = (beta_low.size and abs(beta_low[0] - 6.02094890469759665) <= 5e-9
                 and riem_low.size
                 and abs(riem_low[0] - 14.1347251417346938) <= 5e-9)
    dt = time.perf_counter() - t0
    ok = bool(beta_low.size) and bool(riem_low.size) and resid_ok and golden_ok and dt < 30.0
    _report(11, "zero inventory on t in [1,20]: both factors, residual < 1e-8",
            ok, dt, f"found={t.size}")

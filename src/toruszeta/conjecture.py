"""Critical-line machinery: Omega ratios, q/eta/rho factors, scans.

Everything here probes the equivalence between the Epstein-Riemann
statement and the H_n-ratio limit: the Omega ratio has unit modulus exactly
on Re(s) = 1/2, |Omega(1-s)/Omega(s)| is strictly increasing across the
strip for large Im(s), and |H_n(1-s)/H_n(s)| converges to 1 away from zeros
of zeta(Delta, s) with an n^-2 correction driven by Omega.

``omega_ratio`` by its omega1 route takes one s or a 1-D array of s, as
the functions of ``special`` do: one batched zeta(Delta, s -+ 1) pass, and
the quotients formed as one array operation, so each value has the same
bits in any batch.  The omega2 and direct routes take one s, as
independent cross-checks.

The functions here return numbers and verdicts, not rows: ``cli`` alone
builds the records it writes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .epstein import complete_xi, epstein_zeta_2d, find_critical_zeros, omega
from .errors import (NonFiniteError, PoleError, ShapeError,
                     ZeroDenominatorError)
from .expansion import h_function
from .special import _as_points, _one_or_many

_TINY = 1e-280
_ZERO_DISTANCE_TAG = 0.05  # |s - zero| below which hn_ratio_study tags s


def omega_ratio(s, route: str = "omega1"):
    """Omega(1-s)/Omega(s), default via the zeta(Delta, s+-1) route:

        Omega(1-s)/Omega(s) = (s(s-1)/pi^2) zeta(Delta,s+1)/zeta(Delta,s-1).

    ``route`` selects "omega1" (above, at one s or a 1-D array of s),
    "omega2" (the mirrored zeta(Delta,-s)/zeta(Delta,2-s) form), or
    "direct" (quotient of the two Omega evaluations), these two at one s
    only (ShapeError for an array); all three agree wherever defined.
    """
    if route == "omega1":
        return _omega1(s)
    if route not in ("omega2", "direct"):
        raise ValueError(f"unknown route {route!r}")
    if np.ndim(s):
        raise ShapeError(f"the {route} route takes one s, not an array")
    s = complex(s)
    if route == "omega2":
        den = epstein_zeta_2d(2.0 - s)
        if abs(den) < _TINY:
            raise ZeroDenominatorError(
                "zeta(Delta, 2-s) vanishes", factor="zeta(Delta,2-s)")
        if s == 0.0 or s == 1.0:
            raise PoleError("omega2 route singular at s in {0,1}", location=s)
        return math.pi ** 2 / (s * (s - 1.0)) * epstein_zeta_2d(-s) / den
    den = omega(s)
    if abs(den) < _TINY:
        raise ZeroDenominatorError("Omega(s) vanishes", factor="Omega(s)")
    return omega(1.0 - s) / den


def _shifted_zetas(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """zeta(Delta, s+1) and zeta(Delta, s-1) at every point of s, from one
    batched pass; raises ZeroDenominatorError where the second vanishes."""
    zeta = epstein_zeta_2d(np.concatenate([s - 1.0, s + 1.0]))
    if np.any(np.abs(zeta[:s.size]) < _TINY):
        raise ZeroDenominatorError(
            "zeta(Delta, s-1) vanishes", factor="zeta(Delta,s-1)")
    return zeta[s.size:], zeta[:s.size]


@_one_or_many
def _omega1(s: np.ndarray) -> np.ndarray:
    """The omega1 route of ``omega_ratio``."""
    num, den = _shifted_zetas(s)
    return s * (s - 1.0) / math.pi ** 2 * num / den


def q_factor(s: complex) -> float:
    """q(s) = |pi^2 / (s(s-1))|."""
    s = complex(s)
    if s == 0.0 or s == 1.0:
        raise PoleError("q(s) has poles at s in {0, 1}", location=s)
    return math.pi ** 2 / abs(s * (s - 1.0))


def eta_factor(s: complex) -> float:
    """eta(s) = |zeta(Delta, s+1) / zeta(Delta, s-1)|."""
    num, den = _shifted_zetas(_as_points([s]))
    return abs(num[0]) / abs(den[0])


def rho_factor(s: complex) -> float:
    """rho(s) = |zeta(Delta, 2-s) / zeta(Delta, -s)| = eta(1-s)."""
    s = complex(s)
    den = epstein_zeta_2d(-s)
    if abs(den) < _TINY:
        raise ZeroDenominatorError("zeta(Delta, -s) vanishes",
                                   factor="zeta(Delta,-s)")
    return abs(epstein_zeta_2d(2.0 - s)) / abs(den)


_STRICT_SLACK = 1e-12


def monotonicity_scan(b: float, a_grid: Sequence[float]):
    """|Omega(1-s)/Omega(s)| across s = a + ib for a in ``a_grid``.

    Returns (values, verdict): the moduli in grid order, and a verdict that
    reports strict monotonicity
    (with a 1e-12 slack; ties within the slack fail strictness), the first
    grid point where the modulus crosses 1, and whether the scan is inside
    the proven regime b > 65 (smaller b is allowed but tagged exploratory).
    """
    a_grid = list(a_grid)
    if any(a2 <= a1 for a1, a2 in zip(a_grid, a_grid[1:])):
        raise ValueError("a_grid must be strictly increasing")
    exploratory = not b > 65.0
    points = [complex(a, b) for a in a_grid]
    values = [abs(v) for v in omega_ratio(points)]
    strictly_increasing = all(
        v2 > v1 + _STRICT_SLACK for v1, v2 in zip(values, values[1:]))
    crossing = None
    for a, v1, v2 in zip(a_grid, values, values[1:]):
        if v1 < 1.0 <= v2:
            crossing = float(a)
            break
    verdict = {
        "strictly_increasing": strictly_increasing,
        "crossing_a": crossing,
        "exploratory": exploratory,
    }
    return values, verdict


def hn_ratio_study(s: complex, n_list: Sequence[int], tol: float = 1e-12):
    """|H_n(1-s)/H_n(s)| along a geometric n list.

    Returns (ratios, fallback): one ratio per n, and, when s lies within
    ``_ZERO_DISTANCE_TAG`` of a detected critical zero, the
    |Omega(1-s)/Omega(s)| value that the ratio converges to there (None
    away from a zero).  The ratio's Omega-driven correction scale is
    |ratio - 1| n^2.
    """
    s = complex(s)
    # H_n first: where V_2 overflows (|Im s| past ~239) it fails before any
    # zero scan, so the probe never nears the scan's bound
    pairs = h_function(np.array([1.0 - s, s]), n_list, tol)
    fallback = None
    # detected zeros all sit on Re = 1/2, so only nearby Re(s) can qualify
    if abs(s.real - 0.5) < _ZERO_DISTANCE_TAG and abs(s.imag) > 1.0:
        b = abs(s.imag)
        zeros = find_critical_zeros(max(1.0, b - 1.5), b + 1.5)
        if any(abs(s - complex(0.5, z.t)) < _ZERO_DISTANCE_TAG for z in zeros):
            fallback = abs(omega_ratio(s))
            if not math.isfinite(fallback):
                raise NonFiniteError(
                    f"non-finite Omega ratio fallback at s={s}")
    ratios = []
    for n, (num, den) in zip(n_list, pairs):
        if abs(den) < _TINY:
            raise ZeroDenominatorError(
                f"H_n(s) ~ 0 at n={n}; s may sit on a xi_2 zero "
                f"(|xi_2(s)| = {abs(complete_xi(s)):.3g})", factor="H_n(s)")
        ratios.append(abs(num / den))
    return ratios, fallback

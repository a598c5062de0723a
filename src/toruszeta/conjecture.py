"""Critical-line machinery: Omega ratios, q/eta/rho factors, scans.

Everything here probes the equivalence between the Epstein-Riemann
statement and the H_n-ratio limit: the Omega ratio has unit modulus exactly
on Re(s) = 1/2, |Omega(1-s)/Omega(s)| is strictly increasing across the
strip for large Im(s), and |H_n(1-s)/H_n(s)| converges to 1 away from zeros
of zeta(Delta, s) with an n^-2 correction driven by Omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .epstein import (complete_xi, epstein_zeta_2d, find_critical_zeros,
                      omega)
from .errors import NonFiniteError, PoleError, ZeroDenominatorError
from .expansion import h_function

_TINY = 1e-280
_ZERO_DISTANCE_TAG = 0.05  # |s - zero| below which hn_ratio_study tags s

QUANTITY_REGISTRY = frozenset({
    "omega_ratio", "q", "eta", "rho", "hn_ratio", "hn_ratio_defect_n2",
    "xi_defect", "zero", "zeta_discrete", "zeta_circle", "epstein",
    "epstein_direct", "xi", "omega", "coeff_a", "coeff_b0", "coeff_b1tilde",
    "coeff_b1", "angular_sum", "expansion_b0", "expansion_b1",
    "expansion_residual", "expansion_slope", "em_lhs", "em_rhs", "em_diff",
})


@dataclass(frozen=True)
class ScanRecord:
    """One result row, the unit the CLI writes; ``quantity`` must be in
    QUANTITY_REGISTRY.  ``s`` is None for rows not tied to a point s."""

    s: complex | None
    quantity: str
    value: complex
    n: int | None = None
    err_est: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.quantity not in QUANTITY_REGISTRY:
            raise ValueError(f"unknown quantity {self.quantity!r}")


def omega_ratio(s: complex, route: str = "omega1") -> complex:
    """Omega(1-s)/Omega(s), default via the zeta(Delta, s+-1) route:

        Omega(1-s)/Omega(s) = (s(s-1)/pi^2) zeta(Delta,s+1)/zeta(Delta,s-1).

    ``route`` selects "omega1" (above), "omega2" (the mirrored
    zeta(Delta,-s)/zeta(Delta,2-s) form), or "direct" (quotient of the two
    Omega evaluations); all three agree wherever defined.
    """
    s = complex(s)
    if route == "omega1":
        den = epstein_zeta_2d(s - 1.0)
        if abs(den) < _TINY:
            raise ZeroDenominatorError(
                "zeta(Delta, s-1) vanishes", factor="zeta(Delta,s-1)")
        return s * (s - 1.0) / math.pi ** 2 * epstein_zeta_2d(s + 1.0) / den
    if route == "omega2":
        den = epstein_zeta_2d(2.0 - s)
        if abs(den) < _TINY:
            raise ZeroDenominatorError(
                "zeta(Delta, 2-s) vanishes", factor="zeta(Delta,2-s)")
        if s == 0.0 or s == 1.0:
            raise PoleError("omega2 route singular at s in {0,1}", location=s)
        return math.pi ** 2 / (s * (s - 1.0)) * epstein_zeta_2d(-s) / den
    if route == "direct":
        den = omega(s)
        if abs(den) < _TINY:
            raise ZeroDenominatorError("Omega(s) vanishes", factor="Omega(s)")
        return omega(1.0 - s) / den
    raise ValueError(f"unknown route {route!r}")


def omega_ratio_routes(s: complex) -> dict:
    """All three Omega-ratio computation routes, for cross-checking."""
    return {r: omega_ratio(s, r) for r in ("omega1", "omega2", "direct")}


def q_factor(s: complex) -> float:
    """q(s) = |pi^2 / (s(s-1))|."""
    s = complex(s)
    if s == 0.0 or s == 1.0:
        raise PoleError("q(s) has poles at s in {0, 1}", location=s)
    return math.pi ** 2 / abs(s * (s - 1.0))


def eta_factor(s: complex) -> float:
    """eta(s) = |zeta(Delta, s+1) / zeta(Delta, s-1)|."""
    s = complex(s)
    den = epstein_zeta_2d(s - 1.0)
    if abs(den) < _TINY:
        raise ZeroDenominatorError("zeta(Delta, s-1) vanishes",
                                   factor="zeta(Delta,s-1)")
    return abs(epstein_zeta_2d(s + 1.0)) / abs(den)


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

    Returns (records, verdict).  The verdict reports strict monotonicity
    (with a 1e-12 slack; ties within the slack fail strictness), the first
    grid point where the modulus crosses 1, and whether the scan is inside
    the proven regime b > 65 (smaller b is allowed but tagged exploratory).
    """
    a_grid = list(a_grid)
    if any(a2 <= a1 for a1, a2 in zip(a_grid, a_grid[1:])):
        raise ValueError("a_grid must be strictly increasing")
    exploratory = not b > 65.0
    records = []
    values = []
    for a in a_grid:
        s = complex(a, b)
        val = abs(omega_ratio(s))
        values.append(val)
        records.append(ScanRecord(
            s=s, quantity="omega_ratio", value=val,
            meta={"exploratory": str(exploratory).lower()}))
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
    return records, verdict


def hn_ratio_study(s: complex, n_list: Sequence[int], tol: float = 1e-12):
    """|H_n(1-s)/H_n(s)| along a geometric n list.

    Each record also carries |ratio - 1| n^2 (the Omega-driven correction
    scale) and, when s lies within ``_ZERO_DISTANCE_TAG`` of a detected
    critical zero, a ``near_zero`` tag plus the |Omega(1-s)/Omega(s)|
    fallback value that the ratio converges to there.
    """
    s = complex(s)
    near_zero = False
    # detected zeros all sit on Re = 1/2, so only nearby Re(s) can qualify
    if abs(s.real - 0.5) < _ZERO_DISTANCE_TAG and abs(s.imag) > 1.0:
        b = abs(s.imag)
        zeros = find_critical_zeros(max(1.0, b - 1.5), b + 1.5)
        near_zero = any(abs(s - complex(0.5, z.t)) < _ZERO_DISTANCE_TAG
                        for z in zeros)
    meta = {"near_zero": str(near_zero).lower()}
    if near_zero:
        fallback = abs(omega_ratio(s))
        if not math.isfinite(fallback):
            raise NonFiniteError(f"non-finite Omega ratio fallback at s={s}")
        meta["omega_ratio_fallback"] = repr(float(fallback))
    records = []
    for n in n_list:
        num = h_function(1.0 - s, n, tol)
        den = h_function(s, n, tol)
        if abs(den) < _TINY:
            raise ZeroDenominatorError(
                f"H_n(s) ~ 0 at n={n}; s may sit on a xi_2 zero "
                f"(|xi_2(s)| = {abs(complete_xi(s)):.3g})", factor="H_n(s)")
        ratio = abs(num / den)
        records.append(ScanRecord(s=s, quantity="hn_ratio", value=ratio,
                                  n=int(n), meta=dict(meta)))
        records.append(ScanRecord(
            s=s, quantity="hn_ratio_defect_n2",
            value=(ratio - 1.0) * n * n, n=int(n), meta=dict(meta)))
    return records

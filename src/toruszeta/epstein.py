"""The continuous side: Epstein zeta on the 2-torus and its machinery.

zeta(Delta, s) is evaluated through Glasser's factorization

    zeta(Delta, s) = 4 zeta_R(s) beta(s),

never through the regularized-integral representation (that path is
exercised once, as a cross-validation, by the expansion module).  On top of
it sit the direct lattice sum for validation, the complete xi function and
its functional equation xi2(s) = xi2(1-s), the V_alpha front factor, Omega,
and critical-line zero location via Hardy-rotated real signals.
"""

from __future__ import annotations

import cmath
import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError, StepTooCoarseWarning
from .lattice import fold_square
from .special import (_is_gamma_pole, complex_gamma, complex_log_gamma,
                      dirichlet_beta, reciprocal_gamma, riemann_zeta)
from .summation import pairwise_sum


def epstein_zeta_2d(s: complex) -> complex:
    """zeta(Delta, s) = 4 zeta_R(s) beta(s); pole only at s = 1."""
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta(Delta, s) has its pole at s = 1", location=s)
    return 4.0 * riemann_zeta(s) * dirichlet_beta(s)


def epstein_direct_sum(s: complex, cutoff: int) -> tuple[complex, float]:
    """Truncated lattice sum over 0 < max(|k1|,|k2|) <= cutoff.

    Returns (partial sum, tail bound).  Valid for Re(s) > 1 only; the tail
    bound 8 K^(2-2 Re s) / (2 Re s - 2) comes from comparing the max-norm
    shells (8m points, |k|^2 >= m^2) with an integral.  The sum runs over
    0 <= k1 <= k2 <= K, each point weighted by the number of lattice points
    that the signs and the swap k1 <-> k2 map onto it.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError("direct Epstein sum needs Re(s) > 1")
    if cutoff < 1:
        raise DomainError("cutoff must be >= 1")
    axis_mult = np.full(cutoff + 1, 2.0)
    axis_mult[0] = 1.0  # k and -k coincide only at 0
    k1, k2, mult = fold_square(axis_mult)
    q = (k1 * k1 + k2 * k2).astype(float)
    total = pairwise_sum(mult * np.exp(-s * np.log(q)))
    sigma = s.real
    bound = 8.0 * cutoff ** (2.0 - 2.0 * sigma) / (2.0 * sigma - 2.0)
    return total, bound


def v_factor(alpha: int, s: complex) -> complex:
    """Front factor V_alpha(s) = 2 sin(pi s) Gamma(1-s) Gamma(alpha) /
    (pi Gamma(alpha-s)).

    Computed as 2 Gamma(alpha) / (Gamma(s) Gamma(alpha-s)) via reflection,
    which is finite at the positive integers (it is an entire function of s
    with zeros where 1/Gamma vanishes).
    """
    s = complex(s)
    if alpha < 1:
        raise DomainError("alpha must be a positive integer")
    return 2.0 * math.factorial(alpha - 1) \
        * reciprocal_gamma(s) * reciprocal_gamma(alpha - s)


def v_factor_inv(alpha: int, s: complex) -> complex:
    """1 / V_alpha(s) = Gamma(s) Gamma(alpha-s) / (2 Gamma(alpha))."""
    s = complex(s)
    if alpha < 1:
        raise DomainError("alpha must be a positive integer")
    return complex_gamma(s) * complex_gamma(alpha - s) \
        / (2.0 * math.factorial(alpha - 1))


def _pi_pow_gamma(s: complex) -> complex:
    """pi^(-s) Gamma(s), through log-Gamma once Im(s) is large."""
    if abs(s.imag) > 30.0:
        return cmath.exp(complex_log_gamma(s) - s * math.log(math.pi))
    return math.pi ** (-s) * complex_gamma(s)


def complete_xi(s: complex) -> complex:
    """Complete Epstein zeta xi2(s) = pi^(-s) Gamma(s) zeta(Delta, s).

    Satisfies xi2(s) = xi2(1-s).  Poles at s = 0 (Gamma) and s = 1 (zeta).
    """
    s = complex(s)
    if s == 0.0:
        raise PoleError("xi2 has a pole at s = 0 from Gamma(s)", location=s)
    if s == 1.0:
        raise PoleError("xi2 has a pole at s = 1 from zeta(Delta, s)", location=s)
    return _pi_pow_gamma(s) * epstein_zeta_2d(s)


class OmegaRoute(enum.Enum):
    DIRECT = "direct"
    XI = "xi"


def omega(s: complex, route: OmegaRoute = OmegaRoute.DIRECT) -> complex:
    """Omega(s) = (1/3) s pi^(2-s) Gamma(s) zeta(Delta, s-1).

    The XI route evaluates the identity Omega(s) = (1/3) s (s-1) pi
    xi2(s-1) instead; the two agree wherever both are defined and are
    cross-checked in the test suite.
    """
    s = complex(s)
    if _is_gamma_pole(s):
        raise PoleError("Omega inherits the Gamma pole", location=s)
    if s == 2.0:
        raise PoleError("Omega has a pole at s = 2 from zeta(Delta, s-1)",
                        location=s)
    if route is OmegaRoute.XI:
        if s == 1.0:
            raise PoleError("xi route is 0/0 at s = 1; use the direct route",
                            location=s)
        return (s * (s - 1.0) * math.pi / 3.0) * complete_xi(s - 1.0)
    return (s / 3.0) * math.pi ** 2 * _pi_pow_gamma(s) * epstein_zeta_2d(s - 1.0)


class ZeroSource(enum.Enum):
    RIEMANN_FACTOR = "riemann"
    BETA_FACTOR = "beta"


@dataclass(frozen=True)
class ZeroRecord:
    t: float
    source: ZeroSource
    residual: float


def hardy_z_riemann(t: float) -> float:
    """Hardy Z(t): e^{i theta(t)} zeta_R(1/2 + it), real on the line."""
    s = complex(0.5, t)
    theta = complex_log_gamma(complex(0.25, 0.5 * t)).imag \
        - 0.5 * t * math.log(math.pi)
    return (cmath.exp(1j * theta) * riemann_zeta(s)).real


def hardy_z_beta(t: float) -> float:
    """Analogue of Hardy Z for the Dirichlet beta factor.

    Rotates by the phase of (4/pi)^((s+1)/2) Gamma((s+1)/2) at s = 1/2+it,
    under which the completed beta L-function is real on the line.
    """
    s = complex(0.5, t)
    theta = complex_log_gamma(complex(0.75, 0.5 * t)).imag \
        + 0.5 * t * math.log(4.0 / math.pi)
    return (cmath.exp(1j * theta) * dirichlet_beta(s)).real


def _bisect(fn, lo: float, hi: float, flo: float, tol: float = 1e-9) -> float:
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_critical_zeros(t_min: float, t_max: float,
                        step: float = 0.02) -> list[ZeroRecord]:
    """Critical-line zeros of zeta(Delta, 1/2+it) on [t_min, t_max].

    Scans the two real Hardy-rotated Glasser factors for sign changes and
    bisects each to 1e-9 in t.  Labels every zero with the factor that
    vanishes.  Warns (StepTooCoarseWarning) when zeros of one factor sit
    closer than twice the scan step.
    """
    if not 0 < t_min < t_max:
        raise DomainError("need 0 < t_min < t_max")
    records = []
    for source, fn in ((ZeroSource.RIEMANN_FACTOR, hardy_z_riemann),
                       (ZeroSource.BETA_FACTOR, hardy_z_beta)):
        ts = np.arange(t_min, t_max + step, step)
        vals = np.array([fn(t) for t in ts])
        found = []
        for i in range(len(ts) - 1):
            if vals[i] == 0.0:
                found.append(ts[i])
            elif vals[i] * vals[i + 1] < 0:
                found.append(_bisect(fn, ts[i], ts[i + 1], vals[i]))
        # the grid's last point overshoots t_max by up to one step
        found = [t0 for t0 in found if t0 <= t_max]
        if any(b - a < 2 * step for a, b in zip(found, found[1:])):
            warnings.warn(
                f"{source.value} factor: adjacent sign changes within 2*step; "
                "decrease the scan step", StepTooCoarseWarning)
        for t0 in found:
            records.append(ZeroRecord(
                t=float(t0), source=source,
                residual=abs(epstein_zeta_2d(complex(0.5, t0)))))
    records.sort(key=lambda r: r.t)
    return records

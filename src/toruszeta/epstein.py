"""The continuous side: Epstein zeta on the 2-torus and its machinery.

zeta(Delta, s) is evaluated through Glasser's factorization

    zeta(Delta, s) = 4 zeta_R(s) beta(s),

never through the regularized-integral representation (that path is
exercised once, as a cross-validation, by the expansion module).  On top of
it sit the direct lattice sum for validation, the complete xi function and
its functional equation xi2(s) = xi2(1-s), the V_alpha front factor, Omega,
and critical-line zero location via Hardy-rotated real signals.

zeta(Delta, s), xi2 and the Hardy signals are array-first, one batched
series pass per call (zeta(Delta, s) takes zeta and beta from one shared
power table); ``epstein_zeta_2d`` and ``complete_xi`` are the array
functions at one point.  The Gamma factors (one batched Gamma call, or
log-Gamma for the Hardy phases) and the products are elementwise array
operations, so each value has the same bits in any batch.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError, StepTooCoarseWarning
from .lattice import fold_square
from .special import (_LD_LOG_PI, _LOG_PI, _as_array, _gamma_poles,
                      complex_gamma_array, complex_log_gamma_array,
                      dirichlet_beta_array, riemann_zeta_array,
                      zeta_beta_arrays)
from .summation import pairwise_sum


def epstein_zeta_2d_array(s) -> np.ndarray:
    """zeta(Delta, s) = 4 zeta_R(s) beta(s) at every point of a 1-D array,
    from one batched pass that shares the power table of the two series;
    its pole s = 1 is zeta_R's."""
    zeta, beta = zeta_beta_arrays(s)
    return 4.0 * zeta * beta


def epstein_zeta_2d(s: complex) -> complex:
    """``epstein_zeta_2d_array`` at one point."""
    return epstein_zeta_2d_array([s])[0]


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
    (pi Gamma(alpha-s)), by reflection 1 / ``v_factor_inv``: an entire
    function of s, 0 where 1/Gamma(s) or 1/Gamma(alpha-s) vanishes."""
    s = complex(s)
    if alpha < 1:
        raise DomainError("alpha must be a positive integer")
    if _gamma_poles([s, alpha - s]).any():
        return 0j
    return 1.0 / v_factor_inv(alpha, s)


def v_factor_inv(alpha: int, s: complex) -> complex:
    """1 / V_alpha(s) = Gamma(s) Gamma(alpha-s) / (2 Gamma(alpha))."""
    s = complex(s)
    if alpha < 1:
        raise DomainError("alpha must be a positive integer")
    gamma = complex_gamma_array([s, alpha - s])
    return complex(gamma[0] * gamma[1] / (2.0 * math.factorial(alpha - 1)))


def _pi_pow_gamma(s) -> np.ndarray:
    """pi^(-s) Gamma(s) at every point of a 1-D array, with -s log pi in
    Gamma's long-double exponent; exactly real on the real axis."""
    return complex_gamma_array(s, _LD_LOG_PI)


def complete_xi_array(s) -> np.ndarray:
    """Complete Epstein zeta xi2(s) = pi^(-s) Gamma(s) zeta(Delta, s) at
    every point of a 1-D array, from one batched zeta(Delta, s) pass.

    Satisfies xi2(s) = xi2(1-s).  Poles at s = 0 (raised by Gamma)
    and s = 1 (raised by zeta).  At s = -k, k = 1, 2, ..., the zero of
    zeta(Delta, s) cancels Gamma's pole, and xi2(-k) is taken as xi2(k+1).
    """
    s = _as_array(s)
    negative_int = _gamma_poles(s) & (s.real <= -1.0)
    s = np.where(negative_int, 1.0 - s, s)
    return _pi_pow_gamma(s) * epstein_zeta_2d_array(s)


def complete_xi(s: complex) -> complex:
    """``complete_xi_array`` at one point."""
    return complete_xi_array([s])[0]


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
    if _gamma_poles(s):
        raise PoleError("Omega inherits the Gamma pole", location=s)
    if s == 2.0:
        raise PoleError("Omega has a pole at s = 2 from zeta(Delta, s-1)",
                        location=s)
    if route is OmegaRoute.XI:
        if s == 1.0:
            raise PoleError("xi route is 0/0 at s = 1; use the direct route",
                            location=s)
        return (s * (s - 1.0) * math.pi / 3.0) * complete_xi(s - 1.0)
    return (s / 3.0) * math.pi ** 2 * _pi_pow_gamma([s])[0] \
        * epstein_zeta_2d(s - 1.0)


class ZeroSource(enum.Enum):
    RIEMANN_FACTOR = "riemann"
    BETA_FACTOR = "beta"


@dataclass(frozen=True)
class ZeroRecord:
    t: float
    source: ZeroSource
    residual: float


def _hardy_z(ts, source: ZeroSource) -> np.ndarray:
    """The Hardy-rotated factor Z = cos(theta) Re v - sin(theta) Im v at
    every t of ``ts``, v the factor's value on s = 1/2 + it: one batched
    series pass and one batched log-Gamma call for the phases theta(t)."""
    ts = np.asarray(ts, dtype=float)
    s = 0.5 + 1j * ts
    if source is ZeroSource.RIEMANN_FACTOR:
        vals = riemann_zeta_array(s)
        theta = complex_log_gamma_array(0.25 + 0.5j * ts).imag \
            - 0.5 * ts * _LOG_PI
    else:
        vals = dirichlet_beta_array(s)
        theta = complex_log_gamma_array(0.75 + 0.5j * ts).imag \
            + 0.5 * ts * math.log(4.0 / math.pi)
    return np.cos(theta) * vals.real - np.sin(theta) * vals.imag


def hardy_z_riemann(t: float) -> float:
    """Hardy Z(t): e^{i theta(t)} zeta_R(1/2 + it), real on the line."""
    return _hardy_z([t], ZeroSource.RIEMANN_FACTOR)[0]


def hardy_z_beta(t: float) -> float:
    """Analogue of Hardy Z for the Dirichlet beta factor.

    Rotates by the phase of (4/pi)^((s+1)/2) Gamma((s+1)/2) at s = 1/2+it,
    under which the completed beta L-function is real on the line.
    """
    return _hardy_z([t], ZeroSource.BETA_FACTOR)[0]


def _bisect_lockstep(fn, brackets, tol: float = 1e-9) -> list:
    """Bisect every sign-change bracket (lo, hi, fn(lo)) to ``tol``.

    ``fn`` maps a list of t to their values; it is called once per step for
    all open brackets.  Each bracket takes the midpoints a bisection of it
    alone would take, so the roots do not depend on the other brackets.
    """
    state = [[lo, hi, flo, None] for lo, hi, flo in brackets]
    active = [b for b in state if b[1] - b[0] > tol]
    while active:
        mids = [0.5 * (b[0] + b[1]) for b in active]
        still = []
        for b, mid, fm in zip(active, mids, fn(mids)):
            if fm == 0.0:
                b[3] = mid
                continue
            if (fm > 0) == (b[2] > 0):
                b[0], b[2] = mid, fm
            else:
                b[1] = mid
            if b[1] - b[0] > tol:
                still.append(b)
        active = still
    return [0.5 * (lo + hi) if root is None else root
            for lo, hi, _, root in state]


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
    if not 0 < step < math.inf:
        raise DomainError(f"scan step must be positive and finite, got {step}")
    records = []
    for source in (ZeroSource.RIEMANN_FACTOR, ZeroSource.BETA_FACTOR):
        ts = np.arange(t_min, t_max + step, step)
        vals = _hardy_z(ts, source)
        # a grid point on the zero makes a closed bracket
        on_zero = vals[:-1] == 0.0
        brackets = [(ts[i], ts[i] if on_zero[i] else ts[i + 1], vals[i])
                    for i in np.flatnonzero(
                        on_zero | (vals[:-1] * vals[1:] < 0))]
        found = _bisect_lockstep(lambda mids: _hardy_z(mids, source),
                                 brackets)
        # the grid's last point overshoots t_max by up to one step
        found = [t0 for t0 in found if t0 <= t_max]
        if any(b - a < 2 * step for a, b in zip(found, found[1:])):
            warnings.warn(
                f"{source.value} factor: adjacent sign changes within 2*step; "
                "decrease the scan step", StepTooCoarseWarning)
        zeta = epstein_zeta_2d_array([complex(0.5, t0) for t0 in found])
        for t0, z in zip(found, zeta):
            records.append(ZeroRecord(t=float(t0), source=source,
                                      residual=abs(z)))
    records.sort(key=lambda r: r.t)
    return records

"""The continuous side: Epstein zeta on the 2-torus and its machinery.

zeta(Delta, s) is evaluated through Glasser's factorization

    zeta(Delta, s) = 4 zeta_R(s) beta(s),

never through the regularized-integral representation (only the tests
in ``tests/test_expansion.py`` take that path, as a cross-validation).  On
top of it sit the direct lattice sum for validation, the complete xi
function and its functional equation xi2(s) = xi2(1-s), the V_alpha front
factor, Omega, and critical-line zero location via Hardy-rotated real
signals.

``epstein_zeta_2d`` and ``complete_xi`` take one s or a 1-D array of s,
as the functions of ``special`` do, and the Hardy signals an array of t:
one batched series pass per call (zeta(Delta, s) takes zeta and beta from
one shared power table).  The Gamma factors (one batched Gamma call, or
log-Gamma for the Hardy phases) and the products are elementwise array
operations, so each value has the same bits in any batch.  The zero scan
returns columns, t, source, residual and each factor's found and expected
counts, and stops at ``ZERO_SCAN_MAX_T``.
"""

from __future__ import annotations

import enum
import math
import warnings

import numpy as np

from .errors import (DomainError, NonFiniteError, PoleError, SignalLostError,
                     ZeroShortfallWarning)
from .lattice import _fold_source, _powsum
from .special import (_LD_LOG_PI, _LOG_PI, _gamma_poles, _one_or_many,
                      _zeta_beta, complex_gamma, complex_log_gamma,
                      dirichlet_beta, riemann_zeta)


@_one_or_many
def epstein_zeta_2d(s):
    """zeta(Delta, s) = 4 zeta_R(s) beta(s), from one batched pass that
    shares the power table of the two series; its pole s = 1 is zeta_R's."""
    zeta, beta = _zeta_beta(s)
    return 4.0 * zeta * beta


DIRECT_SUM_MAX_CUTOFF = 8192  # ~cutoff^2/2 terms, as at lattice.GRID_MAX_N


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
    if not 1 <= cutoff <= DIRECT_SUM_MAX_CUTOFF:
        raise DomainError(f"cutoff {cutoff} outside [1, {DIRECT_SUM_MAX_CUTOFF}]")
    axis_mult = np.full(cutoff + 1, 2.0)
    axis_mult[0] = 1.0  # k and -k coincide only at 0
    total = complex(_powsum(*_fold_source(np.arange(cutoff + 1.0) ** 2,
                                          axis_mult, np.add), np.array([s]))[0])
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
    if (inverse := v_factor_inv(alpha, s)) == 0.0:  # past |Im s| ~ 239
        raise NonFiniteError(f"V_{alpha}(s) overflows at s = {s}")
    return 1.0 / inverse


def v_factor_inv(alpha: int, s: complex) -> complex:
    """1 / V_alpha(s) = Gamma(s) Gamma(alpha-s) / (2 Gamma(alpha))."""
    s = complex(s)
    if alpha < 1:
        raise DomainError("alpha must be a positive integer")
    gamma = complex_gamma([s, alpha - s])
    return complex(gamma[0] * gamma[1] / (2.0 * math.factorial(alpha - 1)))


def _pi_pow_gamma(s):
    """pi^(-s) Gamma(s) at one s or a 1-D array of s, with -s log pi in
    Gamma's long-double exponent; exactly real on the real axis."""
    return complex_gamma(s, log_base=_LD_LOG_PI)


def _xi(s: np.ndarray) -> np.ndarray:
    """pi^(-s) Gamma(s) zeta(Delta, s) at every point of s, as given."""
    return _pi_pow_gamma(s) * epstein_zeta_2d(s)


@_one_or_many
def complete_xi(s):
    """Complete Epstein zeta xi2(s) = pi^(-s) Gamma(s) zeta(Delta, s), from
    one batched zeta(Delta, s) pass.

    Satisfies xi2(s) = xi2(1-s).  Poles at s = 0 (raised by Gamma)
    and s = 1 (raised by zeta).  At s = -k, k = 1, 2, ..., the zero of
    zeta(Delta, s) cancels Gamma's pole, and xi2(-k) is taken as xi2(k+1).

    The batch is folded to Im(s) >= 0: the points of Im(s) < 0 are
    conjugated, each distinct point (by its bits, so an imaginary part of
    +0 and one of -0 stay apart) is evaluated once, and the folded points
    take the conjugate back.  Zeta, beta and Gamma commute with conjugation
    bit for bit, so each value keeps the bits of its own evaluation, and a
    scan over s and 1 - s evaluates a point and its mirror once where the
    mirrored real part is exact.  Conjugation need not carry the sign of a
    zero part (xi2 underflows far up the line) or of an inf or nan one, so
    a folded point whose value has such a part is evaluated as given.
    """
    negative_int = _gamma_poles(s) & (s.real <= -1.0)
    s = np.where(negative_int, 1.0 - s, s)
    folded = s.imag < 0.0
    key = np.where(folded, s.conjugate(), s)
    words = key.view(np.uint64).reshape(-1, 2)  # the bits of Re, Im
    order = np.lexsort((words[:, 1], words[:, 0]))  # stable: first comes first
    re_bits, im_bits = words[order, 0], words[order, 1]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (re_bits[1:] != re_bits[:-1]) | (im_bits[1:] != im_bits[:-1])
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    xi = _xi(key[order[new]])[inverse]
    xi[folded] = xi[folded].conjugate()
    redo = folded & ~(np.isfinite(xi) & (xi.real != 0.0) & (xi.imag != 0.0))
    if redo.any():
        xi[redo] = _xi(s[redo])
    return xi


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
    return (s / 3.0) * math.pi ** 2 * _pi_pow_gamma(s) \
        * epstein_zeta_2d(s - 1.0)


# The labels of the two factors of zeta(Delta, s) = 4 zeta_R(s) beta(s), in
# the order of the factor flags (False zeta, True beta): the zero scan's
# ``source`` column and the keys of its counts.
FACTORS = ("riemann", "beta")


# The Hardy phase of the zeta factor (keyed False) and the beta factor (True)
# is theta(t) = Im log Gamma(a + it/2) + (t/2) log b, a = 1/4 and b = 1/pi
# for zeta, a = 3/4 and b = 4/pi for beta; asymptotically it is
# (t/2) log(t/(kappa e)) + phi, kappa = 2 pi or pi/2 and phi = -pi/8 or pi/8,
# with slope log(t/kappa)/2.  theta decreases up to its turning point t_turn
# (theta'(t_turn) = 0, from special.digamma) and increases after it, where
# the Gram points g_j, theta(g_j) = j pi, lie for j >= j_first.
_PHASE_A = {False: 0.25, True: 0.75}
_PHASE_LOG_B = {False: -_LOG_PI, True: math.log(4.0 / math.pi)}
_KAPPA = {False: 2.0 * math.pi, True: 0.5 * math.pi}
_PHI = {False: -math.pi / 8.0, True: math.pi / 8.0}
_TURN = {False: 6.289835988836902, True: 1.5638815574041498}
_FIRST_GRAM = {False: -1, True: 0}
# the Gram points sampled past each end of a window
_MARGIN = 3
# rounds of interval halving a Gram block gets to show all its zeros
_RESOLVE_ROUNDS = 8
# a polished root lies in a bracket at most _ROOT_TOL + _ROOT_RTOL * t wide
# (a few ulp of t past t ~ 250)
_ROOT_TOL = 1e-13
_ROOT_RTOL = 4e-16
_MAX_POLISH = 100
# the highest t a zero scan reaches: t_max = 1500 takes ~2 s, since the
# series order grows like t and the Gram points like t log t
ZERO_SCAN_MAX_T = 1500.0
# the most points a scan evaluates: 2^18 take ~1.8 s and ~150 MB on a Xeon;
# a zero scan's step may cut its sampled intervals into no more parts
SCAN_MAX_POINTS = 2 ** 18


def _by_factor(beta: np.ndarray, table: dict) -> np.ndarray:
    return np.where(beta, table[True], table[False])


def _hardy_phase(ts: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """theta(t) of the zeta factor (beta False) or the beta factor (beta
    True) at every t of ``ts``: one batched log-Gamma call."""
    return complex_log_gamma(_by_factor(beta, _PHASE_A) + 0.5j * ts) \
        .imag + 0.5 * ts * _by_factor(beta, _PHASE_LOG_B)


def _hardy_z(ts, beta) -> np.ndarray:
    """The Hardy-rotated factor Z = cos(theta) Re v - sin(theta) Im v at
    every t of ``ts``, v the value on s = 1/2 + it of zeta_R where ``beta``
    (a bool, or one per t) is False and of beta where it is True: one
    batched series pass per factor and one log-Gamma call for the phases."""
    ts = np.asarray(ts, dtype=float)
    beta = np.broadcast_to(np.asarray(beta, dtype=bool), ts.shape)
    s = 0.5 + 1j * ts
    vals = np.empty_like(s)
    vals[~beta] = riemann_zeta(s[~beta])
    vals[beta] = dirichlet_beta(s[beta])
    theta = _hardy_phase(ts, beta)
    return np.cos(theta) * vals.real - np.sin(theta) * vals.imag


def hardy_z_riemann(t: float) -> float:
    """Hardy Z(t): e^{i theta(t)} zeta_R(1/2 + it), real on the line."""
    return _hardy_z([t], False)[0]


def hardy_z_beta(t: float) -> float:
    """Analogue of Hardy Z for the Dirichlet beta factor.

    Rotates by the phase of (4/pi)^((s+1)/2) Gamma((s+1)/2) at s = 1/2+it,
    under which the completed beta L-function is real on the line.
    """
    return _hardy_z([t], True)[0]


def _gram_points(j: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The Gram points g_j, theta(g_j) = j pi, of the factors ``beta`` for
    j >= j_first: Newton steps on the asymptotic phase from above, where it
    is convex and increasing, then on the exact phase with the asymptotic
    slope.  Every point takes the same steps, so it has the same bits in any
    batch."""
    kappa, phi = _by_factor(beta, _KAPPA), _by_factor(beta, _PHI)
    target = j * math.pi
    t = kappa * math.e * np.maximum(math.e,
                                    2.0 * (target - phi) / (kappa * math.e))
    for _ in range(8):
        t = t - (0.5 * t * np.log(t / (kappa * math.e)) + phi - target) \
            / (0.5 * np.log(t / kappa))
    for _ in range(3):
        t = t - (_hardy_phase(t, beta) - target) / (0.5 * np.log(t / kappa))
    return t


def _illinois_lockstep(fn, lo, hi, flo, fhi) -> np.ndarray:
    """The root of every sign-change bracket [lo, hi], with the values flo
    and fhi of a real function at its ends, polished by the Illinois
    variant of regula falsi until the bracket is at most
    tol = _ROOT_TOL + _ROOT_RTOL * hi wide (each step at least tol / 2
    inside it); the root is then the end with the smaller |value|.

    ``fn(idx, t)`` gives the values at t of the brackets ``idx``; it is
    called once per step for all open brackets.  Each bracket takes the
    steps it would take alone, so its root does not depend on the others.
    """
    lo, hi, flo, fhi = (np.array(a, dtype=float) for a in (lo, hi, flo, fhi))
    wlo, whi = flo.copy(), fhi.copy()  # end values, halved by the Illinois rule
    moved = np.zeros(lo.size)  # the end the last step moved: -1 lo, +1 hi
    active = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    for _ in range(_MAX_POLISH):
        tol = _ROOT_TOL + _ROOT_RTOL * hi[active]
        keep = hi[active] - lo[active] > tol
        active, tol = active[keep], tol[keep]
        if not active.size:
            break
        a, b = lo[active], hi[active]
        # at least half a tolerance inside: a root that close to an end
        # closes the bracket next step
        x = np.clip(b - whi[active] * (b - a) / (whi[active] - wlo[active]),
                    a + 0.5 * tol, b - 0.5 * tol)
        fx = fn(active, x)
        zero = active[fx == 0.0]
        lo[zero] = hi[zero] = x[fx == 0.0]
        flo[zero] = fhi[zero] = 0.0
        left = (fx != 0.0) & ((fx > 0.0) == (flo[active] > 0.0))
        right = (fx != 0.0) & ~left
        for side, end, value, weight, other, sign in (
                (left, lo, flo, wlo, whi, -1.0),
                (right, hi, fhi, whi, wlo, 1.0)):
            idx = active[side]
            end[idx], value[idx], weight[idx] = x[side], fx[side], fx[side]
            other[idx] *= np.where(moved[idx] == sign, 0.5, 1.0)
            moved[idx] = sign
    return np.where(np.abs(fhi) < np.abs(flo), hi, lo)


def _factor_samples(t_min: float, t_max: float, beta: bool,
                    theta_ends: np.ndarray):
    """The first samples of one factor's scan: (t ascending, Gram index j
    or nan, whether the first sample is a head below the first Gram
    point).

    The Gram points run from _MARGIN at or below t_min to _MARGIN above
    t_max (``theta_ends`` is theta at max(t_min, t_turn) and
    max(t_max, t_turn)), but from j_first at the lowest.  A window that
    starts below the first Gram point gets a head, t_min itself: no zero of
    either factor lies below its first Gram point (see ``_blocks``), so
    nothing there needs a finer grid.
    """
    first = _FIRST_GRAM[beta]
    j_lo, j_hi = np.floor(theta_ends / math.pi) + (1 - _MARGIN, _MARGIN)
    j = np.arange(max(j_lo, first), j_hi + 1)
    t = _gram_points(j, np.full(j.size, beta))
    head = theta_ends[0] < first * math.pi
    if head:
        t, j, _ = _merge(t, j, [t_min])
    return t, j, head


def _merge(t, j, extra):
    """``t`` with the points ``extra`` merged in ascending order, ``j`` with
    nan (no Gram index) at them, and the order that merges them."""
    order = np.argsort(np.concatenate([t, extra]), kind="stable")
    return (np.concatenate([t, extra])[order],
            np.concatenate([j, np.full(len(extra), np.nan)])[order], order)


def _blocks(t, z, j, head: bool, beta: bool, t_min: float, t_max: float):
    """The Gram blocks of one factor's samples that meet [t_min, t_max], as
    (first sample, end sample, zeros expected, sign changes seen).

    A block runs between consecutive good Gram points, (-1)^j Z(g_j) > 0,
    and by Rosser's rule holds at least as many zeros as Gram intervals.
    A head counts as a good Gram point of index j_first: no zero of either
    factor lies below its first Gram point.  The first and last samples
    close the outermost blocks, which then count every Gram interval they
    span.
    """
    ends = ~np.isnan(j) & (np.where(j % 2.0 == 0.0, z, -z) > 0.0)
    ends[[0, -1]] = True
    ends = np.flatnonzero(ends)
    index = j[ends].copy()
    if head:
        index[0] = _FIRST_GRAM[beta]
    changes = np.concatenate([[0], np.cumsum((z[:-1] == 0.0)
                                             | (z[:-1] * z[1:] < 0.0))])
    return [(p, q, int(b - a), int(changes[q] - changes[p]))
            for p, q, a, b in zip(ends[:-1], ends[1:], index[:-1], index[1:])
            if t[q] >= t_min and t[p] <= t_max]


def find_critical_zeros(t_min: float, t_max: float, step: float | None = None,
                        strict: bool = False):
    """Critical-line zeros of zeta(Delta, 1/2+it) on [t_min, t_max].

    Samples the two real Hardy-rotated Glasser factors at their Gram points
    (and below the first one, see ``_factor_samples``), halves the intervals
    of every Gram block that shows fewer sign changes than Rosser's rule
    says it holds zeros, and polishes each sign change with the lockstep
    Illinois iteration to ~1e-13 in t.  Every Hardy-Z call serves both
    factors.

    Returns the columns (t, source, residual, found, expected): the zeros'
    heights t, sorted, a tie ordered by factor; ``source``, the label in
    ``FACTORS`` of the factor that vanishes; ``residual`` =
    |zeta(Delta, 1/2 + it)| there; and, keyed by label, each factor's
    ``found`` zeros in the window and ``expected`` = found plus the zeros
    still missing from the blocks that meet it.  A shortfall warns
    (ZeroShortfallWarning), or raises SignalLostError if ``strict``.
    ``step``, if given, caps the sampling spacing: every longer interval,
    the head's and the margins' included, is cut into equal parts no longer
    than it.  DomainError past ``ZERO_SCAN_MAX_T``, or when those parts
    number more than ``SCAN_MAX_POINTS``.
    """
    if not 0 < t_min < t_max:
        raise DomainError("need 0 < t_min < t_max")
    if t_max > ZERO_SCAN_MAX_T:
        raise DomainError(f"zero scan t_max {t_max:g} exceeds "
                          f"{ZERO_SCAN_MAX_T:g}")
    if step is not None and not 0 < step < math.inf:
        raise DomainError(f"scan step must be positive and finite, got {step}")
    factors = (False, True)
    ends = np.concatenate([np.maximum([t_min, t_max], _TURN[b])
                           for b in factors])
    theta = _hardy_phase(ends, np.repeat(factors, 2)).reshape(2, 2)
    ts, js, heads = zip(*(_factor_samples(t_min, t_max, b, th)
                          for b, th in zip(factors, theta)))
    ts, js = list(ts), list(js)
    if step is not None:
        with np.errstate(over="ignore"):  # an inf part count is rejected
            parts = [np.ceil(np.diff(t) / step) for t in ts]
        total = sum(float(p.sum()) for p in parts)
        if total > SCAN_MAX_POINTS:
            raise DomainError(f"zero scan step {step:g} cuts the sampled "
                              f"intervals into {total:.3g} parts, more than "
                              f"{SCAN_MAX_POINTS}")
        for i, (t, p) in enumerate(zip(ts, parts)):
            ts[i], js[i], _ = _merge(t, js[i], np.concatenate([[]] + [
                np.linspace(a, b, int(k) + 1)[1:-1]
                for a, b, k in zip(t[:-1], t[1:], p) if k > 1]))
    zs = _split(_hardy_z(np.concatenate(ts), _labels(ts)), ts)
    for rounds in range(_RESOLVE_ROUNDS + 1):
        blocks = [_blocks(ts[i], zs[i], js[i], heads[i], b, t_min, t_max)
                  for i, b in enumerate(factors)]
        short = [[(p, q) for p, q, want, seen in bl if seen < want]
                 for bl in blocks]
        if rounds == _RESOLVE_ROUNDS or not any(short):
            break
        mids = [np.concatenate([[]] + [0.5 * (t[p:q] + t[p + 1:q + 1])
                                       for p, q in sh])
                for t, sh in zip(ts, short)]
        for i, z in enumerate(_split(_hardy_z(np.concatenate(mids),
                                              _labels(mids)), mids)):
            ts[i], js[i], order = _merge(ts[i], js[i], mids[i])
            zs[i] = np.concatenate([zs[i], z])[order]
    brackets = []
    for t, z in zip(ts, zs):
        k = np.flatnonzero(((z[:-1] == 0.0) | (z[:-1] * z[1:] < 0.0))
                           & (t[1:] >= t_min) & (t[:-1] <= t_max))
        brackets.append((t[k], t[k + 1], z[k], z[k + 1]))
    beta = _labels([lo for lo, _, _, _ in brackets])
    roots = _illinois_lockstep(lambda idx, x: _hardy_z(x, beta[idx]),
                               *map(np.concatenate, zip(*brackets)))
    keep = (roots >= t_min) & (roots <= t_max)
    roots, beta = roots[keep], beta[keep]
    order = np.lexsort((beta, roots))
    roots, beta = roots[order], beta[order]
    residuals = np.abs(epstein_zeta_2d(0.5 + 1j * roots))
    found = [int(np.count_nonzero(beta == b)) for b in factors]
    expected = [n + sum(max(0, want - seen) for _, _, want, seen in bl)
                for n, bl in zip(found, blocks)]
    if found != expected:
        message = "zero scan on [%g, %g]: " % (t_min, t_max) + "; ".join(
            f"{src} factor shows {n} of the {m} zeros its Gram blocks hold"
            for src, n, m in zip(FACTORS, found, expected) if n != m)
        if strict:
            raise SignalLostError(message)
        warnings.warn(message, ZeroShortfallWarning)
    return (roots, np.array(FACTORS)[beta.astype(int)], residuals,
            dict(zip(FACTORS, found)), dict(zip(FACTORS, expected)))


def _labels(parts) -> np.ndarray:
    """The factor (False zeta, True beta) of every entry of the two
    per-factor arrays ``parts``, concatenated."""
    return np.repeat([False, True], [len(p) for p in parts])


def _split(values: np.ndarray, parts) -> list:
    """``values`` cut back into the sizes of the two arrays ``parts``."""
    return np.split(values, [len(parts[0])])

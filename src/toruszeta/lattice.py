"""Discrete torus operators and spectra.

The 5-point and 9-point star Laplacians on the n x n discrete torus, their
exact eigenvalues, finite spectral zeta sums (and that of the discrete
circle) and the resolvent trace.  All operators carry the n^2/(4 pi^2)
normalization.

This module owns the discrete symbol: at integer u = k the eigenvalues, at
n = 1 the unit-square symbol of ``expansion``.  Per axis it is
``axis_symbol(u, n)`` = (n/pi)^2 sin^2(pi r/n), u first reduced to
r = min(|u|, n - |u|), exactly for |u| <= 2n, which keeps full relative
accuracy near u = n; ``stencil_symbol`` combines two axes as a + b
(5-point) or a + b - (2 pi^2/(3 n^2)) a b (9-point).

Zero-mode conventions differ on purpose: spectral zeta sums exclude
(k1,k2) = (0,0); the resolvent trace includes it.

Both symbols are invariant under k -> n-k on either axis and under
k1 <-> k2, so the spectral zeta sums run over the fundamental domain
0 <= k1 <= k2 <= n/2 only, each eigenvalue weighted by the number of
(k1, k2) it stands for (1, 2, 4 or 8, so weighting is exact and
spectral_zeta(conj s) == conj(spectral_zeta(s)) holds bit for bit).
``_fold_source`` forms that triangle (and ``epstein_direct_sum``'s) a
slice at a time from O(n) arrays and ``_powsum`` streams its terms to the
reducer: no array of n^2/8 eigenvalues or terms is built, none memoized.
``spectral_zeta`` is the one entry point of the 2-D sums; the dense
``eigenvalue_grid`` serves the resolvent trace.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateError, DomainError, NonFiniteError, RangeError,
                     ShapeError)
from .summation import _leaf_layout, pairwise_sum, streamed_pairwise_sum


class StencilVariant(enum.Enum):
    FIVE_POINT = "five"
    NINE_POINT = "nine"


GRID_MAX_N = 16384  # ~n^2/8 = 34 million spectral terms, about 2 s


@dataclass(frozen=True)
class TorusGrid:
    """n points per axis on the 2-torus, 1 <= n <= ``GRID_MAX_N``."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= GRID_MAX_N:
            raise RangeError(f"grid size n={self.n} outside [1, {GRID_MAX_N}]")


def axis_symbol(u, n):
    """(n/pi)^2 sin^2(pi u/n), scalars or arrays, after reducing u to
    r = min(|u|, n - |u|); n = 1 is the unit square."""
    r = np.abs(u)
    r = np.minimum(r, n - r)
    return (n / math.pi) ** 2 * np.sin(math.pi * r / n) ** 2


def _axis_fold(n: int) -> tuple[np.ndarray, np.ndarray]:
    """1-D eigenvalues for k = 0..n//2 and how often each occurs in 0..n-1.

    k and n-k give the same eigenvalue, so every k counts twice except
    k = 0 and, for even n, the Nyquist index k = n/2.
    """
    if n < 1:
        raise RangeError(f"grid size n={n} must be >= 1")
    half = n // 2
    head = axis_symbol(np.arange(half + 1), n)
    mult = np.full(half + 1, 2.0)
    mult[0] = 1.0
    if n % 2 == 0:
        mult[half] = 1.0
    return head, mult


def _fold_source(head: np.ndarray, axis_mult: np.ndarray, combine):
    """(size, span) of a square index set folded over k1 <-> k2: the terms
    over 0 <= k1 <= k2 < head.size but (0, 0), in the triangle's flat order,
    are ``combine(x, y, out=y)`` of axis values head[k1], head[k2] with the
    weights axis_mult[k1] axis_mult[k2], twice that off the diagonal;
    ``span(a, b, lam, mult)`` forms [a, b) in the buffers lam and mult."""
    m = head.size
    # the flat index of (k, k), without (0, 0); starts[m] is the size
    starts = [k * m - k * (k - 1) // 2 - 1 for k in range(m + 1)]
    # row k1's weights 2 axis_mult[k1] axis_mult[k2], halved on the diagonal
    shared = {v: 2.0 * v * axis_mult for v in set(axis_mult.tolist())}
    row_weights = [shared[v] for v in axis_mult.tolist()]

    def span(a: int, b: int, lam: np.ndarray, mult: np.ndarray):
        r0 = bisect.bisect_right(starts, a) - 1
        r1 = bisect.bisect_left(starts, b, r0)  # rows r0..r1-1 hold [a, b)
        ends = [a, *starts[r0 + 1:r1], b]
        runs = [(r + lo - st, hi - lo) for r, lo, hi, st in  # (first k2, count)
                zip(range(r0, r1), ends, ends[1:], starts[r0:r1])]
        y = np.concatenate([head[c:c + n] for c, n in runs], out=lam)
        w = np.concatenate([row[c:c + n] for row, (c, n) in
                            zip(row_weights[r0:r1], runs)], out=mult)
        w[[st - a for st in starts[r0:r1] if st >= a]] *= 0.5  # diagonal
        return combine(np.repeat(head[r0:r1], [n for _, n in runs]), y, y), w

    return starts[m], span


def stencil_symbol(variant: StencilVariant, a, b, n, out=None):
    """Combine the axis symbols a, b of an n-point axis (scalars or
    broadcastable arrays): 5-point a + b, 9-point a + b - (2 pi^2/(3 n^2)) a b,
    in ``out`` if given (it may be a or b).
    """
    if variant is StencilVariant.NINE_POINT:
        ab = a * b
        ab *= 2.0 * math.pi ** 2 / (3.0 * n ** 2)
        return np.subtract(np.add(a, b, out=out), ab, out=out)
    return np.add(a, b, out=out)


def eigenvalue_grid(grid: TorusGrid, variant: StencilVariant) -> np.ndarray:
    """All n x n eigenvalues, indexed by (k1, k2)."""
    e = axis_symbol(np.arange(grid.n), grid.n)
    return stencil_symbol(variant, e[:, None], e[None, :], grid.n)


def eigenvalue(grid: TorusGrid, variant: StencilVariant, k1: int, k2: int) -> float:
    """Single eigenvalue of the chosen stencil at Fourier index (k1, k2)."""
    n = grid.n
    if not (0 <= k1 < n and 0 <= k2 < n):
        raise RangeError(f"indices ({k1},{k2}) outside [0,{n})^2")
    return float(stencil_symbol(variant, axis_symbol(k1, n),
                                axis_symbol(k2, n), n))


def apply_stencil(grid: TorusGrid, variant: StencilVariant,
                  u: np.ndarray) -> np.ndarray:
    """Apply the stencil to an n x n grid function with periodic wraparound."""
    n = grid.n
    u = np.asarray(u)
    if u.shape != (n, n):
        raise ShapeError(f"grid function has shape {u.shape}, expected {(n, n)}")

    def sh(di, dj):
        return np.roll(np.roll(u, -di, axis=0), -dj, axis=1)

    if variant is StencilVariant.FIVE_POINT:
        acc = 4.0 * u - sh(1, 0) - sh(-1, 0) - sh(0, 1) - sh(0, -1)
    else:
        acc = (10.0 / 3.0) * u \
            - (2.0 / 3.0) * (sh(1, 0) + sh(-1, 0) + sh(0, 1) + sh(0, -1)) \
            - (1.0 / 6.0) * (sh(1, 1) + sh(1, -1) + sh(-1, 1) + sh(-1, -1))
    return n ** 2 / (4.0 * math.pi ** 2) * acc


def operator_matrix(grid: TorusGrid, variant: StencilVariant) -> np.ndarray:
    """Dense n^2 x n^2 matrix of the stencil (row-major grid ordering)."""
    n = grid.n
    mat = np.empty((n * n, n * n))
    basis = np.zeros((n, n))
    for j1 in range(n):
        for j2 in range(n):
            basis[j1, j2] = 1.0
            mat[:, j1 * n + j2] = apply_stencil(grid, variant, basis).ravel()
            basis[j1, j2] = 0.0
    return mat


def _powsum(size: int, span, s: np.ndarray,
            abs_parts: list | None = None) -> np.ndarray:
    """sum mult * lam^(-s) over ``size`` terms at each point of the 1-D s:
    per slice, (lam, mult) = ``span(a, b, lam_buf, mult_buf)``, one log and
    one exp per point, in buffers made once, each point with its own bits.
    ``abs_parts`` gets each slice's sum mult * lam^(-Re s), point by point."""
    width = min(size, _leaf_layout(size)[2])
    lam_buf, mult_buf, log_buf, mag_buf = np.empty((4, width))
    buf = np.empty(s.size * width, dtype=complex)

    def terms(a: int, b: int) -> np.ndarray:
        lam, mult = span(a, b, lam_buf[:b - a], mult_buf[:b - a])
        log_lam = np.log(lam, out=log_buf[:b - a])
        out = buf[:s.size * (b - a)].reshape(s.size, b - a)
        for p, row in zip(s, out):
            if abs_parts is not None:
                mag = np.multiply(log_lam, -p.real, out=mag_buf[:b - a])
                np.exp(mag, out=mag)
                abs_parts.append(float(np.multiply(mult, mag, out=mag).sum()))
            np.exp(np.multiply(-p, log_lam, out=row), out=row)
            np.multiply(mult, row, out=row)
        return out

    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        total = streamed_pairwise_sum(size, terms)
    bad = ~np.isfinite(total)
    if bad.any():
        raise NonFiniteError(f"non-finite spectral sum {complex(total[bad][0])}"
                             f" at s={complex(s[bad][0])} (lam^-s overflows)")
    return total


def spectral_zeta(grid: TorusGrid, variant: StencilVariant, s,
                  abs_parts: list | None = None):
    """zeta(Delta_n, s) = sum over (k1,k2) != (0,0) of eigenvalue^(-s), at
    one point s or each point of a 1-D array, from one pass of principal
    powers over the folded spectrum and the pairwise tree: bit-identical
    across runs and batches.  ``abs_parts``: see ``_powsum``."""
    from .special import _as_points  # keeps lattice's import light
    points = _as_points(s if np.ndim(s) else [s])
    n = grid.n
    if n == 1:
        raise DegenerateError("empty spectrum: n=1 torus has only the zero mode")
    head, axis_mult = _axis_fold(n)
    total = _powsum(*_fold_source(head, axis_mult, lambda a, b, out:
                                  stencil_symbol(variant, a, b, n, out)),
                    points, abs_parts)
    return total if np.ndim(s) else complex(total[0])


def spectral_zeta_1d(n: int, s: complex) -> complex:
    """zeta(L_n, s) on the discrete circle: sum_{k=1}^{n-1} eigenvalue^(-s).

    Summed over k = 1..n/2, folding k <-> n-k.
    """
    s = complex(s)
    if n == 1:
        raise DegenerateError("empty spectrum: n=1 circle has only the zero mode")
    head, mult = _axis_fold(n)
    return complex(_powsum(n // 2, lambda a, b, *_: (
        head[1 + a:1 + b], mult[1 + a:1 + b]), np.array([s]))[0])


def resolvent_trace(grid: TorusGrid, variant: StencilVariant, alpha: int,
                    z: float) -> float:
    """Tr (Delta_n + z^2)^(-alpha), summed over ALL (k1, k2), z > 0.

    The zero mode is included (this matches the resolvent-trace convention;
    the spectral zeta sums exclude it), so z = 0 would make its term
    infinite.
    """
    if alpha < 1:
        raise RangeError("alpha must be a positive integer")
    if not z > 0:
        raise DomainError(f"z must be positive, got {z}")
    lam = eigenvalue_grid(grid, variant).ravel()
    vals = (lam + z * z) ** (-float(alpha))
    return float(pairwise_sum(vals).real)

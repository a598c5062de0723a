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
(k1, k2) it stands for (1, 2, 4 or 8: ``folded_spectrum``).  The weights
are powers of two, so weighting is exact and spectral_zeta(conj s) ==
conj(spectral_zeta(s)) holds bit for bit.  ``_powsum`` streams the terms
mult * lam^(-s) to the reducer one cache-sized slice at a time, so no
array of n^2/8 terms is ever built; for a caller that asks (the CLI's
``err_est``, through ``spectral_zeta``'s ``abs_parts``) it sums the
magnitudes mult * lam^(-Re s) from the same logarithms.  ``spectral_zeta``
is the one entry point of the 2-D sums, for the CLI and the library alike.
The dense ``eigenvalue_grid`` serves the resolvent trace.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DegenerateError, DomainError, NonFiniteError, RangeError,
                     ShapeError)
from .summation import (_SLICE, _leaf_layout, pairwise_sum,
                        streamed_pairwise_sum)


class StencilVariant(enum.Enum):
    FIVE_POINT = "five"
    NINE_POINT = "nine"


@dataclass(frozen=True)
class TorusGrid:
    """n points per axis on the 2-torus."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise RangeError(f"grid size n={self.n} must be >= 1")


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


def fold_square(axis_mult: np.ndarray):
    """Fold a square index set over the swap k1 <-> k2.

    ``axis_mult[k]`` says how many indices of one axis the folded index k
    stands for.  Returns (k1, k2, mult) over 0 <= k1 <= k2 < len(axis_mult)
    without (0, 0): mult counts the points of the full square that share
    (k1, k2) up to the swap, and sums to (sum axis_mult)^2 - 1.
    """
    k1, k2 = np.triu_indices(axis_mult.size)
    mult = axis_mult[k1] * axis_mult[k2] * np.where(k1 == k2, 1.0, 2.0)
    return k1[1:], k2[1:], mult[1:]


def stencil_symbol(variant: StencilVariant, a, b, n):
    """Combine the axis symbols a, b of an n-point axis (scalars or
    broadcastable arrays): 5-point a + b, 9-point a + b - (2 pi^2/(3 n^2)) a b.
    """
    if variant is StencilVariant.NINE_POINT:
        c = 2.0 * math.pi ** 2 / (3.0 * n ** 2)
        return a + b - c * (a * b)
    return a + b


def eigenvalue_grid(grid: TorusGrid, variant: StencilVariant) -> np.ndarray:
    """All n x n eigenvalues, indexed by (k1, k2)."""
    e = axis_symbol(np.arange(grid.n), grid.n)
    return stencil_symbol(variant, e[:, None], e[None, :], grid.n)


@lru_cache(maxsize=8)
def folded_spectrum(n: int, variant: StencilVariant) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero eigenvalues over 0 <= k1 <= k2 <= n/2 and their multiplicities.

    Built a block of rows k1 at a time, about ``summation._SLICE`` entries
    a block, into two preallocated arrays: a block is the symbol over its
    rows and the columns k2 from its first row on, kept where k2 >= k1.  So
    the flat order is that of ``fold_square``, no index array of the
    triangle's size is built, and the values are exactly those of
    ``eigenvalue_grid`` at the same (k1, k2); the multiplicities (1, 2, 4
    or 8) sum to n^2 - 1.  Both arrays are read-only, since the memo hands
    the same pair to every caller.
    """
    head, axis_mult = _axis_fold(n)
    m = head.size
    lam = np.empty(m * (m + 1) // 2)
    mult = np.empty(lam.size)
    rows = max(1, _SLICE // m)
    start = 0
    for r0 in range(0, m, rows):
        k1 = np.arange(r0, min(r0 + rows, m))[:, None]
        k2 = np.arange(r0, m)
        upper = k2 >= k1
        stop = start + np.count_nonzero(upper)
        lam[start:stop] = stencil_symbol(variant, head[k1], head[r0:], n)[upper]
        mult[start:stop] = (axis_mult[k1] * axis_mult[r0:]
                            * np.where(k1 == k2, 1.0, 2.0))[upper]
        start = stop
    lam, mult = lam[1:], mult[1:]  # without the zero mode (0, 0)
    lam.flags.writeable = False
    mult.flags.writeable = False
    return lam, mult


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


def _powsum(lam: np.ndarray, mult: np.ndarray, s: complex,
            abs_parts: list | None = None) -> complex:
    """sum mult * lam^(-s) over flat positive lam, deterministic order, from
    one streamed pass.  Given a list ``abs_parts``, the pass also appends to
    it each slice's sum mult * lam^(-Re s), whose total is sum |terms|.
    The terms are formed in two buffers every slice reuses (fresh ones fault
    in pages or not as the heap decides); the abs_parts sums still allocate."""
    size = min(lam.size, _leaf_layout(lam.size)[2])
    log_buf, buf = np.empty(size), np.empty(size, dtype=complex)

    def terms(a: int, b: int) -> np.ndarray:
        log_lam, out = np.log(lam[a:b], out=log_buf[:b - a]), buf[:b - a]
        if abs_parts is not None:
            abs_parts.append(
                float((mult[a:b] * np.exp(-s.real * log_lam)).sum()))
        np.exp(np.multiply(-s, log_lam, out=out), out=out)
        return np.multiply(mult[a:b], out, out=out)

    total = streamed_pairwise_sum(lam.size, terms)
    if not np.isfinite(total):
        raise NonFiniteError(f"non-finite spectral sum {total} at s={s} (lam^-s overflows)")
    return total


def spectral_zeta(grid: TorusGrid, variant: StencilVariant, s: complex,
                  abs_parts: list | None = None) -> complex:
    """zeta(Delta_n, s) = sum over (k1,k2) != (0,0) of eigenvalue^(-s).

    Principal-branch powers (all eigenvalues are positive once the zero mode
    is excluded), summed over the folded spectrum with multiplicities and
    reduced by the leaf-compensated pairwise tree, one cache-sized slice of
    terms at a time, so results are bit-identical across runs.  Given a list
    ``abs_parts``, the pass also appends to it the slice sums of |terms| =
    eigenvalue^(-Re s) (see ``_powsum``).
    """
    s = complex(s)
    if grid.n == 1:
        raise DegenerateError("empty spectrum: n=1 torus has only the zero mode")
    lam, mult = folded_spectrum(grid.n, variant)
    return _powsum(lam, mult, s, abs_parts)


def spectral_zeta_1d(n: int, s: complex) -> complex:
    """zeta(L_n, s) on the discrete circle: sum_{k=1}^{n-1} eigenvalue^(-s).

    Summed over k = 1..n/2, folding k <-> n-k.
    """
    s = complex(s)
    if n == 1:
        raise DegenerateError("empty spectrum: n=1 circle has only the zero mode")
    head, mult = _axis_fold(n)
    return _powsum(head[1:], mult[1:], s)


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

"""Discrete torus operators and spectra.

The 5-point and 9-point star Laplacians on the n x n discrete torus, their
exact eigenvalues, finite spectral zeta sums, discrete resolvent traces, and
the 1-D circle case used for cross-checks.  All operators carry the
n^2/(4 pi^2) normalization, so eigenvalues are

    5-point:  (n^2/pi^2) [sin^2(pi k1/n) + sin^2(pi k2/n)]
    9-point:  same - (2 n^2 / 3 pi^2) sin^2(pi k1/n) sin^2(pi k2/n)

Zero-mode conventions differ on purpose: spectral zeta sums exclude
(k1,k2) = (0,0); resolvent traces include it.

Both symbols are invariant under k -> n-k on either axis and under
k1 <-> k2, so the spectral zeta sums run over the fundamental domain
0 <= k1 <= k2 <= n/2 only, each eigenvalue weighted by the number of
(k1, k2) it stands for (1, 2, 4 or 8: ``folded_spectrum``).  The weights
are powers of two, so weighting is exact and spectral_zeta(conj s) ==
conj(spectral_zeta(s)) holds bit for bit.  The dense ``eigenvalue_grid``
serves the resolvent traces.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DegenerateError, DomainError, NonFiniteError, RangeError,
                     ShapeError)
from .summation import pairwise_sum


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


def _axis_fold(n: int) -> tuple[np.ndarray, np.ndarray]:
    """1-D eigenvalues for k = 0..n//2 and how often each occurs in 0..n-1.

    k and n-k give the same eigenvalue, so every k counts twice except
    k = 0 and, for even n, the Nyquist index k = n/2.
    """
    half = n // 2
    k = np.arange(half + 1)
    head = (n / math.pi) ** 2 * np.sin(math.pi * k / n) ** 2
    mult = np.full(half + 1, 2.0)
    mult[0] = 1.0
    if n % 2 == 0:
        mult[half] = 1.0
    return head, mult


def axis_eigenvalues(n: int) -> np.ndarray:
    """1-D eigenvalues (n^2/pi^2) sin^2(pi k/n), k = 0..n-1.

    Filled from k <= n/2 and mirrored (k <-> n-k give the same value), which
    halves the sin calls and makes the symmetry exact by construction.
    """
    head, _ = _axis_fold(n)
    half = n // 2
    out = np.empty(n)
    out[: half + 1] = head
    out[half + 1:] = head[1: n - half][::-1]
    return out


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


def stencil_symbol(variant: StencilVariant, a, b, c: float):
    """Combine the two per-axis symbols a, b (scalars or broadcastable arrays).

    5-point: a + b.  9-point: a + b - c (a b), where c is the correction
    scale in the caller's units: 2 pi^2 / (3 n^2) for eigenvalues, 2 pi^2 / 3
    on the unit square.
    """
    if variant is StencilVariant.NINE_POINT:
        return a + b - c * (a * b)
    return a + b


def eigenvalue_grid(grid: TorusGrid, variant: StencilVariant) -> np.ndarray:
    """All n x n eigenvalues, indexed by (k1, k2)."""
    e = axis_eigenvalues(grid.n)
    return stencil_symbol(variant, e[:, None], e[None, :],
                          2.0 * math.pi ** 2 / (3.0 * grid.n ** 2))


@lru_cache(maxsize=8)
def folded_spectrum(n: int, variant: StencilVariant) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero eigenvalues over 0 <= k1 <= k2 <= n/2 and their multiplicities.

    The values are exactly those of ``eigenvalue_grid`` at the same (k1, k2);
    the multiplicities (1, 2, 4 or 8) sum to n^2 - 1.  Both arrays are
    read-only, since the memo hands the same pair to every caller.
    """
    if n < 1:
        raise RangeError(f"grid size n={n} must be >= 1")
    head, axis_mult = _axis_fold(n)
    k1, k2, mult = fold_square(axis_mult)
    lam = stencil_symbol(variant, head[k1], head[k2],
                         2.0 * math.pi ** 2 / (3.0 * n ** 2))
    lam.flags.writeable = False
    mult.flags.writeable = False
    return lam, mult


def eigenvalue(grid: TorusGrid, variant: StencilVariant, k1: int, k2: int) -> float:
    """Single eigenvalue of the chosen stencil at Fourier index (k1, k2)."""
    n = grid.n
    if not (0 <= k1 < n and 0 <= k2 < n):
        raise RangeError(f"indices ({k1},{k2}) outside [0,{n})^2")
    a = (n / math.pi) ** 2 * math.sin(math.pi * k1 / n) ** 2
    b = (n / math.pi) ** 2 * math.sin(math.pi * k2 / n) ** 2
    return stencil_symbol(variant, a, b, 2.0 * math.pi ** 2 / (3.0 * n ** 2))


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


def _powsum(lam: np.ndarray, mult: np.ndarray, s: complex) -> complex:
    """sum mult * lam^(-s) over flat positive lam, deterministic order."""
    total = pairwise_sum(mult * np.exp(-s * np.log(lam)))
    if not np.isfinite(total):
        raise NonFiniteError(f"non-finite spectral sum {total} at s={s} (lam^-s overflows)")
    return total


def spectral_zeta(grid: TorusGrid, variant: StencilVariant, s: complex,
                  allow_empty: bool = False) -> complex:
    """zeta(Delta_n, s) = sum over (k1,k2) != (0,0) of eigenvalue^(-s).

    Principal-branch powers (all eigenvalues are positive once the zero mode
    is excluded), summed over the folded spectrum with multiplicities and
    reduced by the leaf-compensated pairwise tree, so results are
    bit-identical across runs.
    """
    s = complex(s)
    n = grid.n
    if n == 1:
        if allow_empty:
            return 0.0 + 0.0j
        raise DegenerateError("empty spectrum: n=1 torus has only the zero mode")
    lam, mult = folded_spectrum(n, variant)
    return _powsum(lam, mult, s)


def spectral_zeta_1d(n: int, s: complex) -> complex:
    """zeta(L_n, s) on the discrete circle: sum_{k=1}^{n-1} eigenvalue^(-s).

    Summed over k = 1..n/2, folding k <-> n-k.
    """
    s = complex(s)
    if n == 1:
        raise DegenerateError("empty spectrum: n=1 circle has only the zero mode")
    if n < 1:
        raise RangeError("n must be >= 1")
    head, mult = _axis_fold(n)
    return _powsum(head[1:], mult[1:], s)


def resolvent_trace(grid: TorusGrid, variant: StencilVariant, alpha: int,
                    z: float, exclude_zero_mode: bool = False) -> float:
    """Tr (Delta_n + z^2)^(-alpha), summed over ALL (k1, k2).

    The zero mode is included (this matches the resolvent-trace convention;
    the spectral zeta sums exclude it).  z = 0 is allowed only together with
    ``exclude_zero_mode``.
    """
    if alpha < 1:
        raise RangeError("alpha must be a positive integer")
    if z < 0:
        raise DomainError("z must be non-negative")
    if z == 0.0 and not exclude_zero_mode:
        raise DomainError("z=0 makes the zero-mode term infinite; "
                          "pass exclude_zero_mode=True if that is intended")
    lam = eigenvalue_grid(grid, variant).ravel()
    if exclude_zero_mode:
        lam = lam[1:]
    vals = (lam + z * z) ** (-float(alpha))
    return float(pairwise_sum(vals).real)


def resolvent_trace_1d(n: int, alpha: int, z: float) -> float:
    """1-D resolvent trace over all k, zero mode included."""
    if alpha < 1:
        raise RangeError("alpha must be a positive integer")
    if z <= 0:
        raise DomainError("z must be positive")
    lam = axis_eigenvalues(n)
    return float(pairwise_sum((lam + z * z) ** (-float(alpha))).real)

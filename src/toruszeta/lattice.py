"""Discrete torus operators and spectra.

The 5-point and 9-point star Laplacians on the n x n discrete torus, their
exact eigenvalues, finite spectral zeta sums, discrete resolvent traces, and
the 1-D circle case used for cross-checks.  All operators carry the
n^2/(4 pi^2) normalization, so eigenvalues are

    5-point:  (n^2/pi^2) [sin^2(pi k1/n) + sin^2(pi k2/n)]
    9-point:  same - (2 n^2 / 3 pi^2) sin^2(pi k1/n) sin^2(pi k2/n)

Zero-mode conventions differ on purpose: spectral zeta sums exclude
(k1,k2) = (0,0); resolvent traces include it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateError, DomainError, RangeError, ShapeError
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


def axis_eigenvalues(n: int) -> np.ndarray:
    """1-D eigenvalues (n^2/pi^2) sin^2(pi k/n), k = 0..n-1.

    Filled from k <= n/2 and mirrored (k <-> n-k give the same value), which
    halves the sin calls and makes the symmetry exact by construction.
    """
    half = n // 2
    k = np.arange(half + 1)
    head = (n / math.pi) ** 2 * np.sin(math.pi * k / n) ** 2
    out = np.empty(n)
    out[: half + 1] = head
    out[half + 1:] = head[1: n - half][::-1]
    return out


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


def _powsum(lam: np.ndarray, s: complex) -> complex:
    """sum lam^(-s) over a flat positive array, deterministic order."""
    return pairwise_sum(np.exp(-s * np.log(lam)))


def spectral_zeta(grid: TorusGrid, variant: StencilVariant, s: complex,
                  allow_empty: bool = False) -> complex:
    """zeta(Delta_n, s) = sum over (k1,k2) != (0,0) of eigenvalue^(-s).

    Principal-branch powers (all eigenvalues are positive once the zero mode
    is excluded).  Summation uses a fixed pairwise tree with compensated
    leaves, so results are bit-identical across runs.
    """
    s = complex(s)
    n = grid.n
    if n == 1:
        if allow_empty:
            return 0.0 + 0.0j
        raise DegenerateError("empty spectrum: n=1 torus has only the zero mode")
    lam = eigenvalue_grid(grid, variant).ravel()[1:]  # drop (0,0), keep order
    return _powsum(lam, s)


def spectral_zeta_1d(n: int, s: complex) -> complex:
    """zeta(L_n, s) on the discrete circle: sum_{k=1}^{n-1} eigenvalue^(-s)."""
    s = complex(s)
    if n == 1:
        raise DegenerateError("empty spectrum: n=1 circle has only the zero mode")
    if n < 1:
        raise RangeError("n must be >= 1")
    lam = axis_eigenvalues(n)[1:]
    return _powsum(lam, s)


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

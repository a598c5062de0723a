"""The leaf-compensated pairwise reducer."""

import math

import numpy as np

from toruszeta.summation import (_LEAF, _SLICE, _leaf_layout, pairwise_sum,
                                 streamed_pairwise_sum)


def _kahan(values):
    """Kahan-compensated sum in input order: the scalar reference loop."""
    s = 0.0 + 0.0j
    c = 0.0 + 0.0j
    for v in values:
        y = v - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def _recursive_pairwise(values):
    """Midpoint-split tree with scalar Kahan leaves: the reference loop."""
    if values.size <= _LEAF:
        return _kahan(values)
    mid = values.size // 2
    return _recursive_pairwise(values[:mid]) + _recursive_pairwise(values[mid:])


def _reference_kahan_columns(rows):
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


def _reference_pairwise_sum(values):
    """The reducer before it streamed: one zero-padded (64, L) copy."""
    values = np.asarray(values).ravel()
    n = values.size
    dtype = np.result_type(values.dtype, np.float64)
    if n <= _LEAF:
        return complex(_reference_kahan_columns(values.astype(dtype)[:, None])[0][0])
    width = -(-n // _LEAF)
    leaves = np.zeros((_LEAF, width), dtype=dtype)
    leaves.ravel()[:n] = values
    s, c = _reference_kahan_columns(leaves)
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


def _random_phase(n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, n) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))


def _fsum(values):
    return complex(math.fsum(values.real), math.fsum(values.imag))


def test_pairwise_sum_bit_identical_across_calls():
    x = _random_phase(100_003, 1)
    assert len({pairwise_sum(x) for _ in range(5)}) == 1


def test_pairwise_sum_million_terms_within_bound():
    x = _random_phase(1_000_000, 2)
    mag = math.fsum(np.abs(x))
    bound = np.finfo(float).eps * math.log2(x.size) * mag
    assert abs(pairwise_sum(x) - _fsum(x)) <= bound
    # and agrees with the recursive loop it replaces within both bounds
    y = x[:20_000]
    ymag = math.fsum(np.abs(y))
    ybound = np.finfo(float).eps * math.log2(y.size) * ymag
    assert abs(_recursive_pairwise(y) - pairwise_sum(y)) <= 2 * ybound


def test_pairwise_sum_short_inputs_are_scalar_kahan():
    for n in range(0, _LEAF + 1):
        x = _random_phase(n, 10 + n)
        assert pairwise_sum(x) == _kahan(x)
        assert pairwise_sum(x.real) == _kahan(x.real)


def test_pairwise_sum_real_and_conjugate_inputs():
    x = _random_phase(5_000, 3)
    assert pairwise_sum(x.conj()) == pairwise_sum(x).conjugate()
    assert pairwise_sum(x.real) == complex(pairwise_sum(x).real, 0.0)
    assert pairwise_sum(x[:, None]) == pairwise_sum(x)  # ravels its input


def _slice_boundary_lengths():
    """n = 64 L and 64 L + 1 at each leaf width L = _SLICE // k where the
    number k of rows per slice changes, k = 1..64."""
    widths = sorted({_SLICE // k for k in range(1, _LEAF + 1)})
    return [m for w in widths for m in (_LEAF * w, _LEAF * w + 1)]


def test_streamed_reducer_matches_the_padded_copy_bit_for_bit():
    w = _SLICE  # a leaf row of one whole slice
    lengths = [1, 63, 64, 65, 64 * w - 1, 64 * w, 64 * w + 1, 10 ** 6]
    x = _random_phase(max(lengths) + 1, 4)
    for n in lengths:
        assert pairwise_sum(x[:n]) == _reference_pairwise_sum(x[:n]), n
        assert pairwise_sum(x[:n].real) == _reference_pairwise_sum(x[:n].real), n
    for i, n in enumerate(_slice_boundary_lengths()):
        y = x[:n] if i % 2 else x[:n].imag  # complex and real in turn
        assert pairwise_sum(y) == _reference_pairwise_sum(y), n
    for n in range(0, 3 * _LEAF):
        assert pairwise_sum(x[:n]) == _reference_pairwise_sum(x[:n]), n


def test_term_slices_are_whole_leaf_rows_covering_the_input_once():
    x = _random_phase(70_000, 5)
    for n in [1, 64, 65, 77, 130, 4_097, 64 * 257 + 3, 70_000] \
            + [m for m in _slice_boundary_lengths() if m <= x.size]:
        _, width, step = _leaf_layout(n)
        seen = []

        def terms(a, b):
            seen.append((a, b))
            return x[a:b]

        assert streamed_pairwise_sum(n, terms) == pairwise_sum(x[:n])
        assert seen[0][0] == 0 and seen[-1][1] == n
        assert all(b == a2 for (_, b), (a2, _) in zip(seen, seen[1:]))
        for a, b in seen:
            assert a % width == 0 and 0 < b - a <= max(_SLICE, width)
            assert (b - a) % width == 0 or b == n, (n, a, b)
        assert len(seen) == -(-n // step)

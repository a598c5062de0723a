"""Torus lattice operators: spectra, stencils, zeta sums, resolvents."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruszeta.epstein import epstein_direct_sum
from toruszeta.expansion import symbol_value
from toruszeta.errors import (DegenerateError, DomainError, NonFiniteError,
                              RangeError, ShapeError)
from toruszeta.lattice import (GRID_MAX_N, StencilVariant, TorusGrid,
                               _axis_fold, _fold_source, apply_stencil,
                               axis_symbol, eigenvalue, eigenvalue_grid,
                               operator_matrix, resolvent_trace,
                               spectral_zeta, spectral_zeta_1d, stencil_symbol)
from toruszeta.summation import _leaf_layout, pairwise_sum

FIVE = StencilVariant.FIVE_POINT
NINE = StencilVariant.NINE_POINT


def test_eigenvalue_examples():
    g = TorusGrid(4)
    for v in StencilVariant:
        assert eigenvalue(g, v, 0, 0) == 0.0
    g2 = TorusGrid(2)
    assert eigenvalue(g2, FIVE, 1, 1) == pytest.approx(8 / math.pi ** 2, rel=1e-14)
    assert eigenvalue(g2, NINE, 1, 1) == pytest.approx(16 / (3 * math.pi ** 2), rel=1e-14)
    with pytest.raises(RangeError):
        eigenvalue(g2, FIVE, 2, 0)
    with pytest.raises(RangeError):
        eigenvalue(g2, FIVE, 0, -1)


def test_eigenvalue_nonnegativity_exhaustive():
    for n in range(1, 65):
        g = TorusGrid(n)
        for v in StencilVariant:
            lam = eigenvalue_grid(g, v)
            assert lam.min() >= 0.0


def test_eigenvalue_symmetries():
    eps = np.finfo(float).eps
    for n in (5, 8, 13, 1023):
        g = TorusGrid(n)
        # the whole square, or at n = 1023 every k1 against the columns at
        # both edges and the middle, where k near n lost accuracy
        cols = range(n) if n < 100 else (0, 1, 2, 511, 512, 1021, 1022)
        for v in StencilVariant:
            lam = eigenvalue_grid(g, v)
            # k <-> n-k per axis, exact by construction
            assert np.array_equal(lam[1:, :], lam[:0:-1, :])
            assert np.array_equal(lam[:, 1:], lam[:, :0:-1])
            # k1 <-> k2
            assert np.array_equal(lam, lam.T)
            # the scalar paths share the owner's reduction, so the same
            # symmetries hold bit for bit; scalar and vector sin may differ
            # in the last bit, so against the grid only to 4 eps
            for k1 in range(n):
                for k2 in cols:
                    e = eigenvalue(g, v, k1, k2)
                    assert e == eigenvalue(g, v, (n - k1) % n, k2) \
                        == eigenvalue(g, v, k2, k1), (n, v, k1, k2)
                    assert symbol_value(v, k1, k2, n, 0.0) \
                        == symbol_value(v, k1 - n, k2, n, 0.0), (n, v, k1, k2)
                    assert abs(e - lam[k1, k2]) <= 4 * eps * lam[k1, k2]


def test_stencil_diagonalization_modes():
    for n in (2, 3, 4, 5, 8):
        g = TorusGrid(n)
        j1, j2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        for v in StencilVariant:
            for k1 in range(n):
                for k2 in range(n):
                    mode = np.exp(2j * np.pi * (k1 * j1 + k2 * j2) / n)
                    out = apply_stencil(g, v, mode)
                    lam = eigenvalue(g, v, k1, k2)
                    assert np.max(np.abs(out - lam * mode)) <= 1e-12


def test_stencil_constants_in_kernel():
    for v in StencilVariant:
        out = apply_stencil(TorusGrid(7), v, np.ones((7, 7)))
        assert np.max(np.abs(out)) <= 1e-14 * 49 / (4 * math.pi ** 2)


def test_stencil_delta_weights():
    g = TorusGrid(3)
    d = np.zeros((3, 3))
    d[0, 0] = 1.0
    out = apply_stencil(g, FIVE, d)
    scale = 9 / (4 * math.pi ** 2)
    assert out[0, 0] == pytest.approx(4 * scale, rel=1e-14)
    for idx in ((1, 0), (2, 0), (0, 1), (0, 2)):
        assert out[idx] == pytest.approx(-scale, rel=1e-14)


def test_stencil_shape_error():
    with pytest.raises(ShapeError):
        apply_stencil(TorusGrid(4), FIVE, np.ones((3, 4)))


def test_spectral_zeta_hand_sum():
    val = spectral_zeta(TorusGrid(2), FIVE, 1.0)
    assert val.real == pytest.approx(5 * math.pi ** 2 / 8, rel=1e-13)
    assert val.imag == 0.0


def test_spectral_zeta_degenerate():
    with pytest.raises(DegenerateError):
        spectral_zeta(TorusGrid(1), FIVE, 1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_spectral_zeta_non_finite_raises():
    # lambda^400 overflows: the 2-D sum is inf - inf = nan, the 1-D one inf
    with pytest.raises(NonFiniteError, match="non-finite"):
        spectral_zeta(TorusGrid(64), FIVE, -400.0)
    with pytest.raises(NonFiniteError, match="non-finite"):
        spectral_zeta_1d(512, -400.0)


def test_spectral_zeta_matches_operator_matrix():
    for n in (2, 3, 5, 8):
        g = TorusGrid(n)
        for v in StencilVariant:
            mat = operator_matrix(g, v)
            assert np.max(np.abs(mat - mat.T)) == 0.0
            ev = np.sort(np.linalg.eigvalsh(mat))[1:]  # drop the zero mode
            for s in (1.5, 2.0 + 1.0j):
                direct = spectral_zeta(g, v, s)
                from_matrix = np.sum(np.exp(-s * np.log(ev)))
                assert abs(direct - from_matrix) <= 1e-10 * abs(direct)


def test_spectral_zeta_determinism():
    g = TorusGrid(64)
    s = 0.37 + 2.1j
    vals = {spectral_zeta(g, NINE, s) for _ in range(5)}
    assert len(vals) == 1


def test_spectral_zeta_1d():
    assert spectral_zeta_1d(2, 1.0).real == pytest.approx(math.pi ** 2 / 4, rel=1e-14)
    assert spectral_zeta_1d(3, 0.0).real == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(DegenerateError):
        spectral_zeta_1d(1, 1.0)


def test_eigenvalue_grid_mirror():
    for n in (2, 5, 8, 9):
        for variant in (FIVE, NINE):
            g = eigenvalue_grid(TorusGrid(n), variant)
            assert np.array_equal(g[1:], g[:0:-1])
            assert np.array_equal(g[:, 1:], g[:, :0:-1])
        ref = (n / math.pi) ** 2 * np.sin(math.pi * np.arange(n) / n) ** 2
        assert np.allclose(g[:, 0], ref, rtol=1e-14)


def _mirrored_axis(n):
    # the former axis_eigenvalues: k <= n/2 from _axis_fold, then mirrored
    head, _ = _axis_fold(n)
    half = n // 2
    out = np.empty(n)
    out[: half + 1] = head
    out[half + 1:] = head[1: n - half][::-1]
    return out


def test_eigenvalue_grid_axis_is_the_former_mirrored_axis():
    # eigenvalue_grid builds from axis_symbol(arange(n), n), whose reduction
    # to min(u, n - u) gives the mirrored construction's bits exactly
    for n in range(1, 3000):
        assert np.array_equal(axis_symbol(np.arange(n), n), _mirrored_axis(n)), n
    for n in (1, 2, 7, 64):
        for variant in (FIVE, NINE):
            e = _mirrored_axis(n)
            ref = stencil_symbol(variant, e[:, None], e[None, :], n)
            assert np.array_equal(eigenvalue_grid(TorusGrid(n), variant), ref)


def test_resolvent_trace_hand_sum():
    val = resolvent_trace(TorusGrid(2), FIVE, 2, 1.0)
    ref = 1.0 + 2 * (4 / math.pi ** 2 + 1) ** -2 + (8 / math.pi ** 2 + 1) ** -2
    assert val == pytest.approx(ref, rel=1e-14)


def test_resolvent_trace_zero_mode_conventions():
    # n=1: only the zero mode survives -> z^(-2 alpha)
    assert resolvent_trace(TorusGrid(1), FIVE, 2, 2.0) == pytest.approx(2.0 ** -4)
    # the included zero mode makes z = 0 infinite
    with pytest.raises(DomainError):
        resolvent_trace(TorusGrid(4), NINE, 2, 0.0)


def test_resolvent_trace_and_circle_validate():
    with pytest.raises(DomainError):
        resolvent_trace(TorusGrid(2), FIVE, 2, -1.0)
    with pytest.raises(RangeError):
        resolvent_trace(TorusGrid(2), FIVE, 0, 1.0)
    # no axis below one point: not an empty spectrum, nor NumPy's error
    for n in (0, -3):
        with pytest.raises(RangeError, match="must be >= 1"):
            spectral_zeta_1d(n, 1.0)


def test_spectral_zeta_conjugation_exact():
    g = TorusGrid(12)
    s = 0.37 + 2.1j
    for v in StencilVariant:
        assert spectral_zeta(g, v, s.conjugate()) \
            == spectral_zeta(g, v, s).conjugate()
    assert spectral_zeta_1d(12, s.conjugate()) \
        == spectral_zeta_1d(12, s).conjugate()


def _fsum_powers(lam, s):
    """(sum lam^-s, sum |lam^-s|) with exactly rounded real sums."""
    terms = np.exp(-s * np.log(lam))
    return (complex(math.fsum(terms.real), math.fsum(terms.imag)),
            math.fsum(np.abs(terms)))


def _reference_fold(n, variant):
    """The fold by index arrays: the nonzero eigenvalues over
    0 <= k1 <= k2 <= n/2 from np.triu_indices, in its flat order, and the
    number of (k1, k2) of the n x n square that each stands for."""
    head, axis_mult = _axis_fold(n)
    k1, k2 = np.triu_indices(head.size)
    mult = axis_mult[k1] * axis_mult[k2] * np.where(k1 == k2, 1.0, 2.0)
    return stencil_symbol(variant, head[k1], head[k2], n)[1:], mult[1:]


def _streamed_fold(n, variant, cuts=()):
    """The terms of ``spectral_zeta``'s pass, taken out slice by slice: at
    the reducer's slices, or split at the positions ``cuts`` as well."""
    head, axis_mult = _axis_fold(n)
    size, span = _fold_source(head, axis_mult, lambda a, b, out:
                              stencil_symbol(variant, a, b, n, out))
    step = _leaf_layout(size)[2]
    ends = sorted(set(range(0, size, step)) | {size} | set(cuts))
    parts = [[x.copy() for x in span(a, b, np.empty(b - a), np.empty(b - a))]
             for a, b in zip(ends, ends[1:])]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _reference_sum(n, variant, s):
    lam, mult = _reference_fold(n, variant)
    return pairwise_sum(mult * np.exp(-s * np.log(lam)))


def test_fold_multiplicities():
    for n in range(1, 18):
        for v in StencilVariant:
            lam, mult = _reference_fold(n, v)
            assert mult.sum() == n * n - 1
            assert set(mult) <= {1.0, 2.0, 4.0, 8.0}
            # the folded values are dense-grid values, bit for bit
            dense = eigenvalue_grid(TorusGrid(n), v).ravel()[1:]
            assert np.isin(lam, dense).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 64), st.sampled_from(list(StencilVariant)),
       st.floats(0.01, 0.99), st.floats(-30.0, 30.0))
def test_folded_spectral_zeta_matches_dense_fsum(n, variant, sigma, t):
    s = complex(sigma, t)
    lam = eigenvalue_grid(TorusGrid(n), variant).ravel()[1:]
    ref, mag = _fsum_powers(lam, s)
    assert abs(spectral_zeta(TorusGrid(n), variant, s) - ref) <= 1e-14 * mag


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.floats(1.01, 3.0), st.floats(-30.0, 30.0))
def test_folded_direct_sum_matches_dense_fsum(cutoff, sigma, t):
    s = complex(sigma, t)
    k = np.arange(-cutoff, cutoff + 1)
    q = (k[:, None] ** 2 + k[None, :] ** 2).astype(float).ravel()
    ref, mag = _fsum_powers(q[q > 0], s)
    total, _ = epstein_direct_sum(s, cutoff)
    assert abs(total - ref) <= 1e-14 * mag


def test_streamed_fold_matches_the_index_fold():
    for n in list(range(2, 41)) + [1023, 1024]:
        for v in StencilVariant:
            lam, mult = _streamed_fold(n, v)
            ref_lam, ref_mult = _reference_fold(n, v)
            assert lam.dtype == ref_lam.dtype and mult.dtype == ref_mult.dtype
            assert lam.tobytes() == ref_lam.tobytes(), (n, v)
            assert mult.tobytes() == ref_mult.tobytes(), (n, v)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 200), st.sampled_from(list(StencilVariant)),
       st.lists(st.floats(0.0, 1.0), max_size=6),
       st.floats(-1.0, 2.0), st.floats(-50.0, 50.0))
def test_streamed_pass_is_the_index_fold_and_the_reducer(n, variant, cuts, sigma,
                                                         t):
    # slices cut anywhere, mostly inside a row, give the index fold's
    # terms, and the pass has the bits of the reducer over them
    lam, mult = _reference_fold(n, variant)
    got = _streamed_fold(n, variant, [int(c * lam.size) for c in cuts])
    assert got[0].tobytes() == lam.tobytes()
    assert got[1].tobytes() == mult.tobytes()
    s = complex(sigma, t)
    assert spectral_zeta(TorusGrid(n), variant, s) \
        == _reference_sum(n, variant, s)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 1500), st.sampled_from(list(StencilVariant)),
       st.floats(-1.0, 2.0), st.floats(-50.0, 50.0))
def test_spectral_zeta_is_the_reducer_over_the_terms(n, variant, sigma, t):
    # the streamed pass has the bits of the reducer over the whole array
    s = complex(sigma, t)
    lam, mult = _reference_fold(n, variant)
    abs_parts = []
    value = spectral_zeta(TorusGrid(n), variant, s, abs_parts=abs_parts)
    assert value == spectral_zeta(TorusGrid(n), variant, s) \
        == pairwise_sum(mult * np.exp(-s * np.log(lam)))
    ref = math.fsum(mult * np.exp(-sigma * np.log(lam)))
    assert abs(math.fsum(abs_parts) - ref) <= 1e-14 * ref


def test_spectral_zeta_keeps_its_bits_when_a_leaf_row_outgrows_a_slice():
    # n = 3000 folds to 1,127,250 terms: leaf rows of 17,614 > 2^14
    # elements, so each slice, and the buffers it is formed in, is one row
    n, s = 3000, 0.6 + 7.0j
    lam, _ = _reference_fold(n, NINE)
    assert -(-lam.size // 64) > 2 ** 14
    assert spectral_zeta(TorusGrid(n), NINE, s) == _reference_sum(n, NINE, s)


def test_spectral_zeta_over_an_array_gives_each_point_its_scalar_bits():
    s = np.array([0.745236 + 4.850816j, 0.3 - 2.0j, 2.5, -1.5 + 0.25j,
                  0.745236 + 4.850816j])
    for n in (2, 9, 64, 1024):
        for v in StencilVariant:
            abs_parts = []
            batch = spectral_zeta(TorusGrid(n), v, s, abs_parts=abs_parts)
            assert batch.shape == s.shape
            for j, p in enumerate(s):
                parts = []
                assert batch[j] == spectral_zeta(TorusGrid(n), v, p, parts)
                # the batch's magnitudes: slice by slice, point by point
                assert abs_parts[j::s.size] == parts
    assert spectral_zeta(TorusGrid(8), FIVE, s[:0]).shape == (0,)
    with pytest.raises(ShapeError):
        spectral_zeta(TorusGrid(8), FIVE, s.reshape(1, -1))
    # a nan point is a DomainError before the pass, one point or many
    for bad in (np.array([0.5, np.nan]), np.nan):
        with pytest.raises(DomainError):
            spectral_zeta(TorusGrid(8), FIVE, bad)


def test_an_overflowing_point_inside_a_batch_raises():
    with pytest.raises(NonFiniteError, match=r"s=\(-400\+0j\)"):
        spectral_zeta(TorusGrid(64), FIVE, np.array([0.5 + 1j, -400.0, 2.0]))


def test_the_grid_size_is_bounded():
    assert TorusGrid(GRID_MAX_N).n == GRID_MAX_N
    for n in (0, GRID_MAX_N + 1):
        with pytest.raises(RangeError, match=f"outside \\[1, {GRID_MAX_N}\\]"):
            TorusGrid(n)


def test_spectral_sum_builds_no_n2_temporaries():
    # nothing of the triangle's size (8.4 MB of eigenvalues and weights at
    # n = 2048) is built, nor held between calls
    n, v = 2048, NINE
    tracemalloc.start()
    try:
        spectral_zeta(TorusGrid(n), v, 0.745236 + 4.850816j, abs_parts=[])
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # what stays held is NumPy's and the interpreter's own small caches
    assert peak <= 2e6 and held <= 1e5

"""Torus lattice operators: spectra, stencils, zeta sums, resolvents."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruszeta.epstein import epstein_direct_sum
from toruszeta.errors import (DegenerateError, DomainError, NonFiniteError,
                              RangeError, ShapeError)
from toruszeta.lattice import (StencilVariant, TorusGrid, apply_stencil,
                               axis_eigenvalues, eigenvalue, eigenvalue_grid,
                               folded_spectrum, operator_matrix,
                               resolvent_trace, resolvent_trace_1d,
                               spectral_zeta, spectral_zeta_1d)

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
    for n in (5, 8, 13):
        g = TorusGrid(n)
        for v in StencilVariant:
            lam = eigenvalue_grid(g, v)
            # k <-> n-k per axis, exact by construction
            assert np.array_equal(lam[1:, :], lam[:0:-1, :])
            assert np.array_equal(lam[:, 1:], lam[:, :0:-1])
            # k1 <-> k2
            assert np.array_equal(lam, lam.T)


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
    assert spectral_zeta(TorusGrid(1), FIVE, 1.0, allow_empty=True) == 0.0


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


def test_axis_eigenvalues_mirror():
    for n in (2, 5, 8, 9):
        e = axis_eigenvalues(n)
        ref = (n / math.pi) ** 2 * np.sin(math.pi * np.arange(n) / n) ** 2
        assert np.allclose(e, ref, rtol=1e-14)
        assert np.array_equal(e[1:], e[:0:-1])


def test_resolvent_trace_hand_sum():
    val = resolvent_trace(TorusGrid(2), FIVE, 2, 1.0)
    ref = 1.0 + 2 * (4 / math.pi ** 2 + 1) ** -2 + (8 / math.pi ** 2 + 1) ** -2
    assert val == pytest.approx(ref, rel=1e-14)


def test_resolvent_trace_zero_mode_conventions():
    # n=1: only the zero mode survives -> z^(-2 alpha)
    assert resolvent_trace(TorusGrid(1), FIVE, 2, 2.0) == pytest.approx(2.0 ** -4)
    with pytest.raises(DomainError):
        resolvent_trace(TorusGrid(4), NINE, 2, 0.0)
    # exclusion flag makes z=0 legal
    val = resolvent_trace(TorusGrid(4), NINE, 2, 0.0, exclude_zero_mode=True)
    lam = eigenvalue_grid(TorusGrid(4), NINE).ravel()[1:]
    assert val == pytest.approx(float(np.sum(lam ** -2.0)), rel=1e-13)


def test_resolvent_trace_1d_validates():
    assert resolvent_trace_1d(2, 2, 1.0) > 0
    with pytest.raises(DomainError):
        resolvent_trace_1d(2, 2, 0.0)
    with pytest.raises(RangeError):
        resolvent_trace(TorusGrid(2), FIVE, 0, 1.0)


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


def test_folded_spectrum_multiplicities():
    for n in range(1, 18):
        for v in StencilVariant:
            lam, mult = folded_spectrum(n, v)
            assert mult.sum() == n * n - 1
            assert set(mult) <= {1.0, 2.0, 4.0, 8.0}
            # the folded values are dense-grid values, bit for bit
            dense = eigenvalue_grid(TorusGrid(n), v).ravel()[1:]
            assert np.isin(lam, dense).all()
            assert not lam.flags.writeable and not mult.flags.writeable


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

"""The leaf-compensated pairwise reducer."""

import math

import numpy as np

from toruszeta.summation import _LEAF, pairwise_sum


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

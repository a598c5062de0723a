"""Quadrature and Hadamard regularization contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from toruszeta.errors import DescriptorError, ShapeError
from toruszeta.quadrature import (AsymptoticTerm, IntegrandSpec,
                                  change_of_variables_check, quad_periodic_2d,
                                  regularized_integral)

# int_0^1 int_0^1 (sin^2(pi x)/pi^2 + sin^2(pi y)/pi^2 + 1)^-2, pinned offline
PERIODIC_GOLDEN = 0.829740139263150824


def _power_spec(a: float) -> IntegrandSpec:
    return IntegrandSpec(
        lambda z, a=a: z ** a,
        (AsymptoticTerm(a, 0, 1.0),), (AsymptoticTerm(a, 0, 1.0),))


def test_quad_periodic_2d():
    assert quad_periodic_2d(lambda x, y: np.ones_like(x)).value.real \
        == pytest.approx(1.0, abs=1e-15)
    f = lambda x, y: (np.sin(np.pi * x) ** 2 / np.pi ** 2
                      + np.sin(np.pi * y) ** 2 / np.pi ** 2 + 1.0) ** -2
    assert quad_periodic_2d(f, 1e-13).value.real \
        == pytest.approx(PERIODIC_GOLDEN, rel=1e-12)
    g = lambda x, y: np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2
    assert quad_periodic_2d(g).value.real == pytest.approx(0.25, rel=1e-13)


def test_quad_periodic_2d_spectral_convergence():
    f = lambda x, y: 1.0 / (2.2 + np.cos(2 * np.pi * x) + np.cos(2 * np.pi * y))
    ref = quad_periodic_2d(f, 1e-13).value.real

    def err(n):
        g = np.arange(n) / n
        xx, yy = np.meshgrid(g, g, indexing="ij")
        return abs(float(np.mean(f(xx, yy))) - ref)

    e8, e16, e32 = err(8), err(16), err(32)
    assert e8 / e16 > 10.0 and e16 / e32 > 10.0


def test_regularized_pure_powers_vanish():
    for a in (-1.5, -0.5, 0.7, 2.0):
        assert abs(regularized_integral(_power_spec(a))) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(st.floats(-1.9, 1.9))
def test_regularized_pure_power_property(a):
    if abs(a + 1.0) < 0.05:
        return  # z^-1 handled exactly by the log branch, tested separately
    assert abs(regularized_integral(_power_spec(a))) <= 1e-12


def test_regularized_inverse_power_log_branch():
    assert abs(regularized_integral(_power_spec(-1.0))) <= 1e-13


def test_regularized_absolutely_convergent():
    val = regularized_integral(IntegrandSpec(lambda z: np.exp(-z)))
    assert val.real == pytest.approx(1.0, rel=1e-12)


def test_regularized_z_minus_2_total():
    assert abs(regularized_integral(_power_spec(-2.0))) <= 1e-12


def test_regularized_exponential_integral_constant():
    # reg-int of e^-z / z = -EulerGamma (log-singular subtraction at 0)
    f = IntegrandSpec(lambda z: np.exp(-z) / z,
                      (AsymptoticTerm(-1.0, 0, 1.0),))
    assert regularized_integral(f).real == pytest.approx(
        -0.5772156649015328606, abs=1e-12)


@pytest.mark.parametrize("c", (0.07, 0.3, 0.5, 0.64))
def test_regularized_underflowing_exponential(c):
    # exp(-c z) underflows to 0 at the probes z >= 1e4: faster than any power
    val = regularized_integral(IntegrandSpec(lambda z: np.exp(-c * z)))
    assert val.real == pytest.approx(1.0 / c, rel=1e-12)


def test_an_evaluator_must_return_its_nodes_shape():
    # no per-node scalar fallback: an evaluator that returns one number
    # for an array of nodes is an error
    with pytest.raises(ShapeError, match=r"shape \(\) for nodes of shape"):
        regularized_integral(IntegrandSpec(lambda z: 0.0))


def test_regularized_missing_descriptor_rejected():
    with pytest.raises(DescriptorError):
        regularized_integral(IntegrandSpec(lambda z: z ** -2.0))
    with pytest.raises(DescriptorError):
        regularized_integral(IntegrandSpec(lambda z: 1.0 / (1.0 + z)))
    # a zero probe at infinity does not excuse a z^-1 tail before it
    with pytest.raises(DescriptorError):
        regularized_integral(IntegrandSpec(
            lambda z: np.where(z < 5e5, 1.0 / (1.0 + z), 0.0)))


def test_descriptor_validation():
    f = lambda z: np.exp(-z)
    with pytest.raises(DescriptorError, match="oscillatory"):
        IntegrandSpec(f, descriptor_infinity=(AsymptoticTerm(2j, 0, 1.0),))
    with pytest.raises(DescriptorError, match="non-increasing"):
        IntegrandSpec(f, descriptor_infinity=(
            AsymptoticTerm(-2.0, 0, 1.0), AsymptoticTerm(-1.0, 0, 1.0)))
    with pytest.raises(DescriptorError, match="non-decreasing"):
        IntegrandSpec(f, descriptor_zero=(
            AsymptoticTerm(1.0, 0, 1.0), AsymptoticTerm(0.5, 0, 1.0)))
    with pytest.raises(DescriptorError):
        AsymptoticTerm(1.0, -1, 1.0)
    # in order, and equal real parts within the 1e-15 slack, both ends pass
    for terms in ((AsymptoticTerm(-1.0, 0, 1.0), AsymptoticTerm(-1.0, 1, 1.0)),
                  (AsymptoticTerm(-1.0, 0, 1.0),
                   AsymptoticTerm(-1.0 - 5e-16 + 3j, 0, 1.0))):
        IntegrandSpec(f, terms, terms[::-1])
        IntegrandSpec(f, terms[::-1], terms)


def test_a_descriptor_must_sit_in_the_slot_of_its_end():
    # int_0^oo z^(-1/2) e^(-z) dz = sqrt(pi); a descriptor in the other
    # slot made regularized_integral integrate one half twice and skip the
    # other (0.5576 and 2.9873).  The slot is now the only record of the
    # end, so the terms go to the slot that names it.
    f = lambda z: z ** -0.5 * np.exp(-z)
    spec = IntegrandSpec(f, descriptor_zero=(AsymptoticTerm(-0.5, 0, 1.0),))
    assert regularized_integral(spec) \
        == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def _inv_power_spec() -> IntegrandSpec:
    # f = 1/(1+z): coefficient 1 on z^-1 at infinity, regular at 0
    return IntegrandSpec(
        lambda z: 1.0 / (1.0 + z),
        descriptor_infinity=(AsymptoticTerm(-1.0, 0, 1.0),
                             AsymptoticTerm(-2.0, 0, -1.0)))


def test_change_of_variables_plain_scaling():
    # no z^-1 log^k terms at either end -> both sides are lam^-1 reg-int f
    f = IntegrandSpec(lambda z: np.exp(-z))
    base = regularized_integral(f)
    lhs, rhs = change_of_variables_check(f, 2.0)
    assert abs(lhs - rhs) <= 1e-11
    assert abs(lhs - base / 2.0) <= 1e-11


def test_change_of_variables_lambda_one():
    f = _inv_power_spec()
    lhs, rhs = change_of_variables_check(f, 1.0)
    assert abs(lhs - rhs) <= 1e-12
    assert abs(lhs - regularized_integral(f)) <= 1e-12


def test_change_of_variables_inverse_power_correction():
    # f ~ z^-1 at infinity with unit coefficient: the correction term is
    # +lam^-1 log(lam); the published rule prints the two sums attached to
    # the opposite endpoints, the verified orientation is asserted here.
    f = _inv_power_spec()
    lam = math.e
    lhs, rhs = change_of_variables_check(f, lam)
    base = regularized_integral(f)
    assert abs(lhs - rhs) <= 1e-10
    assert (rhs - base / lam).real == pytest.approx(1.0 / lam, abs=1e-10)
    # closed form: reg-int of 1/(1+lam z) = log(lam)/lam
    assert lhs.real == pytest.approx(math.log(lam) / lam, abs=1e-10)


def _gap2_spec(rng) -> IntegrandSpec:
    a0 = rng.uniform(-1.8, -1.05)
    c0, ci = rng.normal(), rng.normal()
    return IntegrandSpec(
        lambda z, a0=a0, c0=c0, ci=ci: c0 * z ** a0 * np.exp(-z * z)
        + ci / (1.0 + z * z),
        (AsymptoticTerm(a0, 0, c0),), (AsymptoticTerm(-2.0, 0, ci),))


def test_regularized_linearity():
    rng = np.random.default_rng(12)
    for _ in range(4):
        fa, fb = _gap2_spec(rng), _gap2_spec(rng)
        va, vb = regularized_integral(fa), regularized_integral(fb)
        al, be = rng.normal(), rng.normal()
        terms0 = sorted(
            [AsymptoticTerm(t.exponent, 0, al * t.coefficient)
             for t in fa.descriptor_zero]
            + [AsymptoticTerm(t.exponent, 0, be * t.coefficient)
               for t in fb.descriptor_zero],
            key=lambda t: complex(t.exponent).real)
        ci = al * fa.descriptor_infinity[0].coefficient \
            + be * fb.descriptor_infinity[0].coefficient
        comb = IntegrandSpec(
            lambda z: al * fa(np.asarray(z)) + be * fb(np.asarray(z)),
            tuple(terms0), (AsymptoticTerm(-2.0, 0, ci),))
        got = regularized_integral(comb)
        assert abs(got - (al * va + be * vb)) <= 1e-8 * max(1.0, abs(got))


def test_regularized_integral_evaluates_f_once_per_node():
    # the residual f - d and its rounding scale |f| + |d| share one call of
    # f, in the integrability probes and in every panel at both ends
    seen = []

    def f(z):
        seen.append(np.array(z))
        return np.exp(-z) / np.sqrt(z) + 1.0 / (1.0 + z * z)

    spec = IntegrandSpec(
        f, (AsymptoticTerm(-0.5, 0, 1.0),), (AsymptoticTerm(-2.0, 0, 1.0),))
    val = regularized_integral(spec)
    assert np.isfinite(val)
    nodes = np.concatenate(seen)
    assert nodes.size > 100 and np.unique(nodes).size == nodes.size

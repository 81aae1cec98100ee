"""Circle-function coefficient calculus against direct-summation oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eelab.circle import CircleFunction


def shift(f: CircleFunction, a: float) -> CircleFunction:
    """t -> f(t + a)."""
    ks = np.arange(-f.band, f.band + 1)
    return CircleFunction(f.coeffs * np.exp(1j * ks * a))


def direct_sum(coeffs, band, t):
    """Independent evaluation path: explicit loop over modes."""
    return sum(coeffs[k + band] * np.exp(1j * k * t) for k in range(-band, band + 1))


def test_evaluation_matches_direct_summation():
    rng = np.random.default_rng(0)
    f = CircleFunction.random_real(8, rng)
    t = rng.uniform(0, 2 * np.pi, 200)
    direct = direct_sum(f.coeffs, f.band, t)
    assert np.max(np.abs(f(t) - direct)) < 1e-12


def test_real_flag_and_values():
    rng = np.random.default_rng(1)
    f = CircleFunction.random_real(6, rng)
    assert f.is_real()
    t = np.linspace(0, 2 * np.pi, 64)
    assert np.max(np.abs(np.imag(f(t)))) < 1e-13


def test_derivative_multiplies_by_ik():
    f = CircleFunction.harmonic(3, 2.0) + CircleFunction.harmonic(-2, 1.0j)
    d = f.derivative()
    assert d.coeff(3) == pytest.approx(2.0 * 3j)
    assert d.coeff(-2) == pytest.approx(1.0j * (-2j), abs=1e-15)


def test_antiderivative_roundtrip():
    rng = np.random.default_rng(2)
    f = CircleFunction.random_real(7, rng).drop_modes({0})
    g = f.antiderivative()
    assert abs(g(0.0)) < 1e-14
    assert (g.derivative() - f).sup_norm() < 1e-12


def test_antiderivative_requires_zero_mean():
    with pytest.raises(ValueError):
        CircleFunction.constant(1.0).antiderivative()


def test_shift_and_mode_product():
    f = CircleFunction.cosine(3)
    t = np.linspace(0, 2 * np.pi, 50)
    a = 0.7
    assert np.max(np.abs(shift(f, a)(t) - f(t + a))) < 1e-13
    g = f.mul_mode(2, 1j)
    assert np.max(np.abs(g(t) - 1j * np.exp(2j * t) * f(t))) < 1e-13


def test_product_is_pointwise():
    rng = np.random.default_rng(3)
    f = CircleFunction.random_real(4, rng)
    g = CircleFunction.random_real(5, rng)
    t = np.linspace(0, 2 * np.pi, 64)
    assert np.max(np.abs((f * g)(t) - f(t) * g(t))) < 1e-12


def test_cos_sin_coefficients():
    f = CircleFunction.cosine(3, 1.4) + CircleFunction.sine(5, -0.3)
    assert f.cos_coeff(3) == pytest.approx(1.4)
    assert f.sin_coeff(5) == pytest.approx(-0.3)
    assert f.cos_coeff(5) == pytest.approx(0.0)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_sine_matches_direct_values(k):
    # sin(0 t) is zero, though the modes +k and -k of the sine meet at k = 0
    t = np.linspace(0, 2 * np.pi, 64)
    assert np.max(np.abs(CircleFunction.sine(k, 1.5)(t) - 1.5 * np.sin(k * t))) < 1e-13


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-6, max_value=6), st.floats(-3, 3), st.floats(-3, 3))
def test_mode_shift_composition(k, a, b):
    f = CircleFunction.harmonic(k)
    lhs = shift(shift(f, a), b)
    rhs = shift(f, a + b)
    assert (lhs - rhs).sup_norm(128) < 1e-12

"""Entropy families, extensions, and multiplier identities.

Expected values come from three independent sources: hand evaluation of the
closed forms, trigonometric expansion of the cubic polynomials, and
brute-force quadrature of the defining integrals (run once, frozen here).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decomposition_oracle import (
    b_coefficients,
    cutoff_derivative,
    harmonic_extension,
    radial_extension,
)
from eelab.circle import CircleFunction
from eelab.entropy import (
    DiskHarmonic,
    EntropyMap,
    ExtendedEntropy,
    RadialCutoff,
    a_coefficients,
    ent_residual,
    generated_entropy,
    generated_entropy_closed_form,
    generator_harmonic_potential,
    generator_psi_phi,
    harmonic_entropy,
    jin_kohn,
    jin_kohn_circle,
    multiplier,
    multiplier_differential,
    potential_linear_term,
    q_coefficients,
)
from eelab.factorization import factor_coefficient

T512 = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
CIRCLE512 = np.stack([np.cos(T512), np.sin(T512)], axis=-1)


def real_mode(k: int, kind: str) -> DiskHarmonic:
    """The harmonic potential Re z^k (``cos``) or Im z^k (``sin``)."""
    alpha = np.zeros(k + 1)
    beta = np.zeros(k + 1)
    (alpha if kind == "cos" else beta)[k] = 1.0
    return DiskHarmonic.from_real_basis(alpha, beta)


def real_value(phi: DiskHarmonic, z) -> np.ndarray:
    return np.real(phi.value(z))


# ---------------------------------------------------------------------------
# membership residual
# ---------------------------------------------------------------------------


def test_ent_residual_jin_kohn():
    for j in (1, 2):
        assert ent_residual(jin_kohn_circle(j)).sup_norm() < 1e-10


def test_ent_residual_identity_map():
    phi = EntropyMap.from_complex(CircleFunction.harmonic(1))
    assert ent_residual(phi).sup_norm() < 1e-14


def test_ent_residual_non_entropy():
    # Phi(e^{it}) = (cos t, 0): residual is -sin(t)cos(t)
    phi = EntropyMap(CircleFunction.cosine(1), CircleFunction.zero())
    res = ent_residual(phi)
    assert np.max(np.abs(res(T512) - (-np.sin(T512) * np.cos(T512)))) < 1e-13


# ---------------------------------------------------------------------------
# the generated family
# ---------------------------------------------------------------------------


def test_generated_entropy_constant_generator_vanishes():
    em = generated_entropy(CircleFunction.constant(1.0))
    assert em.as_complex().sup_norm() == 0.0


def test_generated_entropy_membership():
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = CircleFunction.random_real(8, rng)
        assert ent_residual(generated_entropy(f)).sup_norm() < 1e-11


def test_generated_entropy_band_growth():
    f = CircleFunction.random_real(8, np.random.default_rng(1))
    assert generated_entropy(f).as_complex().band <= 9


def test_generated_entropy_paper_values():
    # f = cos 2t at t=0 gives (0, -2/3); f = sin 2t gives (-2/3, 0)
    v1 = generated_entropy(CircleFunction.cosine(2)).values(0.0)
    v2 = generated_entropy(CircleFunction.sine(2)).values(0.0)
    assert np.allclose(v1, [0.0, -2.0 / 3.0], atol=1e-13)
    assert np.allclose(v2, [-2.0 / 3.0, 0.0], atol=1e-13)


def test_generated_entropy_quadrature_oracle():
    """Brute-force construction by cumulative quadrature must agree."""
    f = CircleFunction.cosine(3) + CircleFunction.sine(5, 0.4)
    n = 200_000
    s = np.linspace(0, 2 * np.pi, n, endpoint=False)
    ds = 2 * np.pi / n
    fs = f.real_values(s)
    integrand = fs - fs.mean() - 2 * np.mean(fs * np.cos(s)) * np.cos(s) \
        - 2 * np.mean(fs * np.sin(s)) * np.sin(s)
    psi = np.concatenate([[0.0], np.cumsum(integrand)[:-1]]) * ds
    g = psi * 1j * np.exp(1j * s)
    phi = np.concatenate([[0.0], np.cumsum(g)[:-1]]) * ds

    def phi_at(t):
        return np.interp(t % (2 * np.pi), s, phi.real) + 1j * np.interp(
            t % (2 * np.pi), s, phi.imag
        )

    for t in (0.0, 0.9, 2.2, 4.5):
        brute = -1j * phi_at(t - np.pi / 2) + 1j * phi_at(t + np.pi / 2)
        exact = complex(generated_entropy(f).as_complex()(t))
        assert abs(brute - exact) < 5e-5  # cumulative-sum oracle is O(1/n)


def test_psi_phi_start_at_zero():
    f = CircleFunction.random_real(6, np.random.default_rng(2))
    psi, phi = generator_psi_phi(f)
    assert abs(psi(0.0)) < 1e-14
    assert abs(phi(0.0)) < 1e-14


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("j", (1, 2))
def test_closed_form_matches_construction(k, j):
    f = CircleFunction.cosine(k) if j == 1 else CircleFunction.sine(k)
    gap = generated_entropy(f).as_complex() - generated_entropy_closed_form(k, j).as_complex()
    assert gap.sup_norm(512) < 1e-12


def test_closed_form_odd_k_first_kind_vanishes():
    em = generated_entropy_closed_form(3, 1)  # cos(3 pi/2) kills both modes
    assert em.as_complex().sup_norm() < 1e-15


def test_closed_form_k2_j2_quarter_turn():
    # independent complex arithmetic: -(2/2)e^{i pi/2} + (cos(pi)/2)[e^{3 i pi/2}/3 - e^{-i pi/2}]
    val = -np.exp(1j * np.pi / 2) + (-0.5) * (np.exp(3j * np.pi / 2) / 3 - np.exp(-1j * np.pi / 2))
    assert val == pytest.approx(-4j / 3)
    got = generated_entropy_closed_form(2, 2).values(np.pi / 2)
    assert np.allclose(got, [0.0, -4.0 / 3.0], atol=1e-13)


def test_closed_form_requires_k_at_least_two():
    with pytest.raises(ValueError):
        generated_entropy_closed_form(1, 1)


def test_generated_entropy_linear_in_generator():
    rng = np.random.default_rng(3)
    f, g = CircleFunction.random_real(6, rng), CircleFunction.random_real(6, rng)
    a, b = 1.7, -0.4
    lhs = generated_entropy(f * a + g * b).as_complex()
    rhs = generated_entropy(f).as_complex() * a + generated_entropy(g).as_complex() * b
    assert (lhs - rhs).sup_norm() < 1e-12


# ---------------------------------------------------------------------------
# Jin-Kohn entropies
# ---------------------------------------------------------------------------


def test_jin_kohn_point_values():
    e = np.array([[1.0, 0.0]])
    assert np.allclose(jin_kohn(1).value(e), [[0.0, 2.0 / 3.0]])
    assert np.allclose(jin_kohn(2).value(e), [[-1.0 / 3.0, 0.0]])
    assert np.allclose(jin_kohn(1).value(np.zeros((1, 2))), 0.0)


def test_jin_kohn_circle_restriction_is_polynomial_restriction():
    # trig-expansion oracle: the hard-coded circle modes equal the cubic
    # polynomial sampled on the circle
    for j in (1, 2):
        poly = jin_kohn(j).value(CIRCLE512)
        trig = jin_kohn_circle(j).values(T512)
        assert np.abs(poly - trig).max() < 1e-14


def test_jin_kohn_vs_generated_family():
    s1 = jin_kohn_circle(1).as_complex()
    s2 = jin_kohn_circle(2).as_complex()
    p1 = generated_entropy(CircleFunction.cosine(2)).as_complex()
    p2 = generated_entropy(CircleFunction.sine(2)).as_complex()
    z = CircleFunction.harmonic(1)
    assert (s1 + p1).sup_norm(512) < 1e-12
    assert (s2 + p2 + z).sup_norm(512) < 1e-12


# ---------------------------------------------------------------------------
# harmonic machinery
# ---------------------------------------------------------------------------


def test_harmonic_extension_mode_values():
    E2 = harmonic_extension(CircleFunction.harmonic(2))
    assert complex(E2.value(np.array(0.5 + 0j))) == pytest.approx(0.25)
    E0 = harmonic_extension(CircleFunction.constant(1.0))
    assert complex(E0.value(np.array(0.3 + 0.2j))) == pytest.approx(1.0)
    E3 = harmonic_extension(CircleFunction.cosine(3))
    val = float(real_value(E3, 0.5 * np.exp(1j * np.pi / 3)))
    assert val == pytest.approx(-1.0 / 8.0)


def test_harmonic_extension_negative_mode():
    Em2 = harmonic_extension(CircleFunction.harmonic(-2))
    z = 0.4 * np.exp(0.7j)
    assert complex(Em2.value(np.array(z))) == pytest.approx(0.4**2 * np.exp(-1.4j))


def test_disk_harmonic_laplacian_by_finite_differences():
    phi = generator_harmonic_potential(CircleFunction.random_real(8, np.random.default_rng(4)))
    rng = np.random.default_rng(5)
    z = rng.uniform(-0.5, 0.5, 12) + 1j * rng.uniform(-0.5, 0.5, 12)
    h = 1e-4
    lap = (
        real_value(phi, z + h) + real_value(phi, z - h)
        + real_value(phi, z + 1j * h) + real_value(phi, z - 1j * h)
        - 4 * real_value(phi, z)
    ) / h**2
    assert np.abs(lap).max() < 1e-5


def test_disk_harmonic_partials_by_finite_differences():
    # Im z^4 + Re z^3 / 2
    phi = DiskHarmonic.from_real_basis([0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 0.0, 1.0])
    rng = np.random.default_rng(6)
    z = rng.uniform(-0.5, 0.5, 8) + 1j * rng.uniform(-0.5, 0.5, 8)
    h = 1e-5
    dx = (real_value(phi, z + h) - real_value(phi, z - h)) / (2 * h)
    dy = (real_value(phi, z + 1j * h) - real_value(phi, z - 1j * h)) / (2 * h)
    assert np.abs(dx - real_value(phi.partial(1, 0), z)).max() < 1e-8
    assert np.abs(dy - real_value(phi.partial(0, 1), z)).max() < 1e-8


def test_potential_values():
    xi = generator_harmonic_potential(CircleFunction.cosine(2))
    assert float(real_value(xi, np.exp(1j * np.pi / 4))) == pytest.approx(-1.0 / 3.0)
    assert np.abs(generator_harmonic_potential(CircleFunction.cosine(3)).pos).max() == 0.0
    xi4 = generator_harmonic_potential(CircleFunction.sine(4))
    assert float(real_value(xi4, 1.0 + 0j)) == pytest.approx(-1.0 / 30.0)


def test_harmonic_entropy_values():
    he1 = harmonic_entropy(real_mode(2, "sin"))
    he2 = harmonic_entropy(real_mode(2, "cos"))
    assert np.allclose(he1.value(np.array([[1.0, 0.0]])), [[0.0, 2.0]], atol=1e-13)
    assert np.allclose(he2.value(np.array([[1.0, 0.0]])), [[1.0, 0.0]], atol=1e-13)
    # constant potential: the identity entropy
    he0 = harmonic_entropy(DiskHarmonic.from_real_basis([1.0], [0.0]))
    pts = np.array([[0.3, -0.8], [0.1, 0.2]])
    assert np.allclose(he0.value(pts), pts)


def test_harmonic_extension_relation():
    rng = np.random.default_rng(7)
    for _ in range(8):
        f = CircleFunction.random_real(8, rng)
        xi = generator_harmonic_potential(f)
        he = harmonic_entropy(xi)
        lin = potential_linear_term(f)
        gap = he.value(CIRCLE512) - generated_entropy(f).values(T512) - lin * CIRCLE512
        assert np.abs(gap).max() < 1e-11


def test_multiplier_mode_actions():
    psi2 = CircleFunction.harmonic(2)
    out = multiplier(1, psi2)
    assert complex(out.coeff(2)) == pytest.approx(3j)
    for k in (0, 1, -1):
        assert multiplier(1, CircleFunction.harmonic(k)).sup_norm() == 0.0
        assert multiplier(2, CircleFunction.harmonic(k)).sup_norm() == 0.0


def test_multiplier_two_paths_agree():
    rng = np.random.default_rng(8)
    for _ in range(10):
        psi = CircleFunction.random_real(8, rng)
        gap = (multiplier(1, psi) - multiplier_differential(psi)).sup_norm(512)
        assert gap < 1e-12


def test_multiplier_sin2_value():
    out = multiplier(1, CircleFunction.sine(2))
    assert (out - CircleFunction.cosine(2, 3.0)).sup_norm() < 1e-14


def test_a_coefficients_on_harmonic_modes():
    zs = np.exp(1j * T512)
    for k in range(0, 9):
        Ek = harmonic_extension(CircleFunction.harmonic(k))
        a1, a2 = a_coefficients(Ek, zs)
        assert np.abs(a1 - 0.5j * k * (k**2 - 1) * np.exp(1j * k * T512)).max() < 1e-10
        assert np.abs(a2 - (-0.5) * abs(k) * (k**2 - 1) * np.exp(1j * k * T512)).max() < 1e-10


def test_a1_quadratic_mode_cross_check():
    # phi = z1^2 - z2^2: A_1 = -6 z1 z2 everywhere; on the circle -3 sin(2t),
    # matching the differential path for psi = cos(2t)
    phi = real_mode(2, "cos")
    rng = np.random.default_rng(9)
    z = rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40)
    a1, _ = a_coefficients(phi, z)
    assert np.abs(a1 - (-6 * z.real * z.imag)).max() < 1e-12
    diff_path = multiplier_differential(CircleFunction.cosine(2))
    assert (diff_path - CircleFunction.sine(2, -3.0)).sup_norm() < 1e-13


def test_a1_action_of_potential():
    rng = np.random.default_rng(10)
    for _ in range(6):
        f = CircleFunction.random_real(8, rng)
        xi = generator_harmonic_potential(f)
        a1, _ = a_coefficients(xi, np.exp(1j * T512))
        assert np.abs(np.imag(a1)).max() < 1e-12
        assert np.abs(np.real(a1) - factor_coefficient(f, T512)).max() < 1e-11


def test_linearity_of_spectral_operators():
    rng = np.random.default_rng(11)
    f, g = CircleFunction.random_real(7, rng), CircleFunction.random_real(7, rng)
    a, b = 0.6, -1.9
    combo = f * a + g * b
    for op in (lambda u: multiplier(1, u), lambda u: multiplier(2, u)):
        assert (op(combo) - (op(f) * a + op(g) * b)).sup_norm() < 1e-12
    lhs = generator_harmonic_potential(combo).value(np.array(0.3 + 0.4j))
    rhs = a * generator_harmonic_potential(f).value(np.array(0.3 + 0.4j)) \
        + b * generator_harmonic_potential(g).value(np.array(0.3 + 0.4j))
    assert abs(complex(lhs) - complex(rhs)) < 1e-12


# ---------------------------------------------------------------------------
# radial extension
# ---------------------------------------------------------------------------


def radial_psi_gamma(ext: ExtendedEntropy, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The derived fields of the radial extension,

        gamma(z) = (z_perp . D Phi~(z) z_perp) / |z|^2,
        Psi(z)   = (-D Phi~(z) z + gamma(z) z) / (2 |z|^2).

    Only meaningful away from z = 0.
    """
    if ext.kind != "radial":
        raise ValueError("psi/gamma are defined for radial extensions only")
    v = np.asarray(v, dtype=float)
    jacs = ext.jacobian(v)
    r2 = np.maximum(v[..., 0] ** 2 + v[..., 1] ** 2, 1e-300)
    zperp = np.stack([-v[..., 1], v[..., 0]], axis=-1)
    jz = np.einsum("...ij,...j->...i", jacs, v)
    jzp = np.einsum("...ij,...j->...i", jacs, zperp)
    gamma = np.einsum("...i,...i->...", zperp, jzp) / r2
    psi = (-jz + gamma[..., None] * v) / (2 * r2[..., None])
    return psi, gamma


def test_cutoff_profile():
    eta = RadialCutoff()
    assert float(eta(1.0)) == 1.0
    assert np.all(eta(np.array([0.0, 0.1, 0.25, 0.5, 2.0, 2.5, 3.0, 10.0])) == 0.0)
    r = np.linspace(0.4, 2.1, 300)
    fd = np.gradient(eta(r), r)
    assert np.abs(fd - cutoff_derivative(r)).max() < 5e-3


def test_radial_extension_values():
    phi = jin_kohn_circle(1)
    ext = radial_extension(phi)
    # vanishes inside radius 1/2
    assert np.abs(ext.value(np.array([[0.3, 0.2]]))).max() == 0.0
    # equals the circle restriction on the circle
    got = ext.value(CIRCLE512)
    assert np.abs(got - phi.values(T512)).max() < 1e-12


def test_radial_extension_jacobian_by_fd():
    phi = generated_entropy(CircleFunction.random_real(5, np.random.default_rng(12)))
    ext = radial_extension(phi)
    rng = np.random.default_rng(13)
    pts = np.stack([rng.uniform(0.6, 1.3, 30), rng.uniform(-0.5, 0.5, 30)], axis=-1)
    J = ext.jacobian(pts)
    h = 1e-6
    for a in range(2):
        e = np.zeros(2)
        e[a] = h
        fd = (ext.value(pts + e) - ext.value(pts - e)) / (2 * h)
        assert np.abs(fd - J[..., a]).max() < 1e-7


def test_radial_psi_gamma_derivative_bound():
    # dense-sampling oracle: sup |D Psi| over the annulus is controlled by the
    # C^2 size of the circle restriction (constant reported well below 10)
    rng = np.random.default_rng(14)
    for _ in range(4):
        phi = generated_entropy(CircleFunction.random_real(6, rng))
        ext = radial_extension(phi)
        t = rng.uniform(0, 2 * np.pi, 400)
        r = rng.uniform(0.6, 1.0, 400)
        pts = np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)
        h = 1e-5
        cols = []
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            cols.append((radial_psi_gamma(ext, pts + e)[0] - radial_psi_gamma(ext, pts - e)[0]) / (2 * h))
        dpsi = np.abs(np.stack(cols, axis=-1)).max()
        assert dpsi <= 10.0 * phi.c2_norm()


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.floats(-2, 2), st.floats(-2, 2))
def test_membership_residual_property(k, a, b):
    f = CircleFunction.cosine(k, a) + CircleFunction.sine(k, b)
    assert ent_residual(generated_entropy(f)).sup_norm(256) < 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=8))
def test_q_b_consistency(k):
    # Q1 = d2 B1 and Q2 = -d1 B1 for harmonic potentials
    phi = real_mode(k, "sin")
    rng = np.random.default_rng(k)
    z = rng.uniform(-0.7, 0.7, 16) + 1j * rng.uniform(-0.7, 0.7, 16)
    h = 1e-5
    q1, q2 = q_coefficients(phi, z)

    def b1(w):
        return b_coefficients(phi, w)[0]

    d2b1 = (b1(z + 1j * h) - b1(z - 1j * h)) / (2 * h)
    d1b1 = (b1(z + h) - b1(z - h)) / (2 * h)
    assert np.abs(q1 - d2b1).max() < 1e-7
    assert np.abs(q2 + d1b1).max() < 1e-7

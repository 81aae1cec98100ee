"""Factorization coefficient, ladder checks, and measure-pairing equivalence."""

from dataclasses import dataclass

import numpy as np
import pytest

from decomposition_oracle import harmonic_extension
from test_circle import shift
from eelab import circle, kinetic
from eelab.circle import CircleFunction
from eelab.entropy import harmonic_entropy, multiplier
from eelab.factorization import (
    _reject_dead_zone,
    factor_coefficient,
    generated_productions,
    pairing_consistency_gap,
    vanishing_production_check,
    verify_factorization,
)
from eelab.grids import (
    BoolArray,
    ConstantSpec,
    JumpSpec,
    Mollifier,
    ScalarField,
    VortexSpec,
    build_field,
    centered_grid,
    combine_masks,
    lp_norm,
    mollify,
)
from eelab.kinetic import rotated_production, theta_of_vec
from eelab.production import Level, div_entropy, div_sigma_closed, factorized_measure, mollified_level


def rotated_productions(theta, div1: ScalarField, div2: ScalarField):
    """e^{i2th}.divS, as the library computes it, and ie^{i2th}.divS."""
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    return rotated_production(theta, (div1, div2)), -s * div1.values + c * div2.values


@dataclass(frozen=True)
class HarmonicDecompositionReport:
    eps: float
    lhs_norm: float
    first_term_norm: float
    second_term_norm: float
    residual_norm: float
    p: float


def verify_harmonic_decomposition(
    psi: CircleFunction,
    lv: Level,
    p: float,
    region: BoolArray,
) -> HarmonicDecompositionReport:
    """Fields of the harmonic-entropy production decomposition at one scale.

    Computes div Phi^{E psi}(m_eps), the first-multiplier term against
    e^{i2th}.divS, and the second-multiplier term against ie^{i2th}.divS
    (the term that drops out in the limit for solutions), and the residual
    of the full two-term identity.
    """
    _reject_dead_zone(lv, region)
    lhs = div_entropy(lv.v, harmonic_entropy(harmonic_extension(psi)))
    s1, s2 = lv.div_sigma
    rot, rot_perp = rotated_productions(lv.theta.values, s1, s2)
    a1 = multiplier(1, psi)
    a2 = multiplier(2, psi)
    t1 = a1.real_values(lv.theta.values) * rot
    t2 = a2.real_values(lv.theta.values) * rot_perp
    where = combine_masks(lhs.effective_mask(), s1.effective_mask(), region)
    grid = lv.m.grid
    return HarmonicDecompositionReport(
        eps=lv.eps,
        lhs_norm=lp_norm(lhs.values, grid, p, where),
        first_term_norm=lp_norm(t1, grid, p, where),
        second_term_norm=lp_norm(t2, grid, p, where),
        residual_norm=lp_norm(lhs.values - t1 - t2, grid, p, where),
        p=p,
    )


def annulus(grid, lo=0.45, hi=0.7):
    r = np.hypot(*grid.meshgrid())
    return (r > lo) & (r < hi)


def ladder(spec, levels=((64, 0.16), (128, 0.08), (256, 0.04))):
    return [mollified_level(build_field(spec, centered_grid(n, 2.0)), eps) for n, eps in levels]


def vortex_ladder(levels=((64, 0.16), (128, 0.08), (256, 0.04))):
    return ladder(VortexSpec(), levels)


def test_factor_coefficient_values():
    th = np.linspace(0, 2 * np.pi, 64)
    assert np.abs(factor_coefficient(CircleFunction.constant(1.0), th)).max() < 1e-14
    assert np.abs(factor_coefficient(CircleFunction.sine(1), th)).max() < 1e-14
    assert float(factor_coefficient(CircleFunction.cosine(2), np.array(0.0))) == pytest.approx(-1.0)


def test_factor_coefficient_is_multiplier_action():
    """Same function through two routes: quarter-turn averaging of f, and the
    first multiplier acting on the potential of f."""
    from eelab.entropy import a_coefficients, generator_harmonic_potential

    rng = np.random.default_rng(0)
    th = np.linspace(0, 2 * np.pi, 257)
    for _ in range(5):
        f = CircleFunction.random_real(8, rng)
        a1, _ = a_coefficients(generator_harmonic_potential(f), np.exp(1j * th))
        assert np.abs(np.real(a1) - factor_coefficient(f, th)).max() < 1e-11


def test_rotated_productions_are_isometric():
    g = centered_grid(64, 2.0)
    m = build_field(VortexSpec(), g)
    v = mollify(m, Mollifier(0.125))
    th, _ = theta_of_vec(v)
    s1, s2 = div_sigma_closed(v)
    rot, rot_perp = rotated_productions(th.values, s1, s2)
    norm1 = rot**2 + rot_perp**2
    norm2 = s1.values**2 + s2.values**2
    assert np.abs(norm1 - norm2).max() < 1e-13


def test_verify_factorization_vortex_decays():
    f = CircleFunction.random_real(6, np.random.default_rng(1))
    lad = vortex_ladder()
    rep = verify_factorization(lad, f, 7 / 6, annulus, generated_productions(lad, [f])[0])
    assert rep.lhs_norms[-1] < 0.15 * rep.lhs_norms[0]
    assert rep.residual_norms[-1] < 0.15 * rep.residual_norms[0]


def test_verify_factorization_trivial_generator():
    lad, f = vortex_ladder(((64, 0.16),)), CircleFunction.constant(2.0)
    rep = verify_factorization(lad, f, 7 / 6, annulus, generated_productions(lad, [f])[0])
    assert max(rep.lhs_norms) < 1e-12
    assert max(rep.residual_norms) < 1e-12


def test_verify_factorization_dead_zone_rejected():
    # a jump field mollified at scale ~ box size has |m_eps| < 1/2 on the line
    g = centered_grid(64, 2.0)
    m = build_field(JumpSpec(theta_plus=np.pi / 2, theta_minus=3 * np.pi / 2, normal=(1.0, 0.0)), g)
    lad, f = [mollified_level(m, 0.25)], CircleFunction.cosine(2)
    with pytest.raises(ValueError, match="dead-zone"):
        verify_factorization(lad, f, 1.0, lambda grid: grid.rect_mask(-0.4, 0.4, -0.4, 0.4),
                             generated_productions(lad, [f])[0])


def test_verify_harmonic_decomposition_modes_and_vortex():
    g = centered_grid(128, 2.0)
    m = build_field(VortexSpec(), g)
    # constant mode: the identity entropy; production is the discrete
    # divergence, which vanishes to stencil accuracy on the annulus
    rep = verify_harmonic_decomposition(CircleFunction.constant(1.0), mollified_level(m, 0.125),
                                        2.0, annulus(g))
    assert rep.first_term_norm < 1e-13
    assert rep.second_term_norm < 1e-13
    assert rep.lhs_norm < 40 * g.spacing**2
    # first harmonic: both multiplier terms vanish; the production is that of
    # a trivial (constant-on-the-circle) entropy and decays like eps^2
    lhs = []
    for n, eps in ((128, 0.125), (256, 0.0625)):
        gg = centered_grid(n, 2.0)
        mm = build_field(VortexSpec(), gg)
        r1 = verify_harmonic_decomposition(CircleFunction.cosine(1), mollified_level(mm, eps),
                                           2.0, annulus(gg))
        assert r1.first_term_norm < 1e-13 and r1.second_term_norm < 1e-13
        lhs.append(r1.lhs_norm)
    assert lhs[1] < 0.35 * lhs[0]
    # generic mode: all fields decay at second order in the scale, and the
    # second multiplier term (which drops out in the limit) is subleading
    psi = CircleFunction.cosine(2)
    reps = []
    for n, eps in ((128, 0.125), (256, 0.0625)):
        gg = centered_grid(n, 2.0)
        mm = build_field(VortexSpec(), gg)
        reps.append(verify_harmonic_decomposition(psi, mollified_level(mm, eps), 2.0, annulus(gg)))
    for attr in ("lhs_norm", "first_term_norm", "residual_norm"):
        assert getattr(reps[1], attr) < 0.35 * getattr(reps[0], attr)
    assert reps[0].second_term_norm < 1e-3 * reps[0].first_term_norm


def test_verify_harmonic_decomposition_second_term_subleading():
    """The second multiplier term must fade under refinement for solutions."""
    psi = CircleFunction.random_real(6, np.random.default_rng(2))
    firsts, seconds = [], []
    for n, eps in ((96, 0.12), (192, 0.06)):
        g = centered_grid(n, 2.0)
        m = build_field(VortexSpec(), g)
        rep = verify_harmonic_decomposition(psi, mollified_level(m, eps), 2.0, annulus(g))
        firsts.append(rep.first_term_norm)
        seconds.append(rep.second_term_norm)
    assert seconds[1] < 0.3 * seconds[0]


def test_vanishing_production_vortex_and_negative_control():
    fs = [("cos2", CircleFunction.cosine(2)),
          ("rand", CircleFunction.random_real(6, np.random.default_rng(3)))]
    lad = vortex_ladder()
    rep = vanishing_production_check(lad, generated_productions(lad, [f for _, f in fs]), annulus)
    assert all(r > 0.9 for r in rep.rates)  # every production vanishes: no negative control

    lad = ladder(JumpSpec())
    repj = vanishing_production_check(
        lad, generated_productions(lad, [f for _, f in fs]), lambda g: g.rect_mask(-0.5, 0.5, -0.35, 0.35)
    )
    assert not all(r >= 0.9 for r in repj.rates)  # flagged as the negative control
    assert min(repj.rates) < 0.3
    # the persistent mass approaches the analytic jump cost per unit length:
    # for f = cos 2t the generated entropy is minus the first Jin-Kohn entropy
    mp, mm = JumpSpec().traces()
    cost = float(np.linalg.norm(mp - mm)) ** 3 / 6.0
    assert repj.masses[0][-1] == pytest.approx(cost, rel=0.05)


def test_vanishing_production_constant_noise_floor():
    fs = [("cos2", CircleFunction.cosine(2))]
    lad = ladder(ConstantSpec(0.5), ((64, 0.16), (128, 0.08)))
    rep = vanishing_production_check(lad, generated_productions(lad, [f for _, f in fs]),
                                     lambda g: g.rect_mask(-0.5, 0.5, -0.5, 0.5))
    assert all(r >= 0.9 for r in rep.rates)  # rounding-level masses count as vanished


def test_pairing_consistency_exact():
    g = centered_grid(96, 2.0)
    m = build_field(JumpSpec(), g)
    sig = factorized_measure(mollified_level(m, 0.125))
    x, y = g.meshgrid()
    zeta = ScalarField(g, np.cos(x) * np.exp(-y**2))
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = CircleFunction.random_real(8, rng)
        assert pairing_consistency_gap(sig, f, zeta) < 1e-10


def test_pairing_consistency_evaluates_the_atoms_once(monkeypatch):
    # both sides share f at theta +- pi/2: two grid angle arrays plus the
    # lattice mean, not four plus the mean; counted at the one evaluation loop
    g = centered_grid(32, 2.0)
    sig = factorized_measure(mollified_level(build_field(JumpSpec(), g), 0.25))
    sizes = []
    block_values = circle._block_values

    def counting(fs, *ts):
        sizes.extend(np.size(t) for t in ts)
        yield from block_values(fs, *ts)

    for module in (circle, kinetic):
        monkeypatch.setattr(module, "_block_values", counting)
    pairing_consistency_gap(sig, CircleFunction.cosine(2), ScalarField(g, np.ones((32, 32))))
    assert sorted(sizes) == [256, 32 * 32, 32 * 32]


def test_rotation_covariance_of_residuals():
    """A rigid quarter-turn of the plane (field values and coordinates together)
    with the matching generator shift leaves the residual norms unchanged;
    quarter turns map the grid onto itself, so the match is exact."""
    # even cosine harmonics: the quarter-turn shift of the generator then
    # produces no linear-entropy offset, so the match is exact
    f = CircleFunction.cosine(2) + CircleFunction.cosine(4, 0.7) + CircleFunction.cosine(6, 0.3)
    c = np.pi / 2

    def box(grid):
        return grid.rect_mask(-0.5, 0.5, -0.5, 0.5)

    g = centered_grid(96, 2.0)
    m = build_field(JumpSpec(), g)
    spec_rot = JumpSpec(normal=(-1.0, 0.0), theta_plus=JumpSpec().theta_plus + c,
                        theta_minus=JumpSpec().theta_minus + c)
    m_rot = build_field(spec_rot, g)
    lad, lad_rot, f_rot = [mollified_level(m, 0.125)], [mollified_level(m_rot, 0.125)], shift(f, -c)
    base = verify_factorization(lad, f, 1.0, box, generated_productions(lad, [f])[0]).residual_norms[0]
    rotated = verify_factorization(lad_rot, f_rot, 1.0, box,
                                   generated_productions(lad_rot, [f_rot])[0]).residual_norms[0]
    assert rotated == pytest.approx(base, rel=1e-12)

"""Entropy productions: divergences, cubic averages, structural identities."""

import numpy as np
import pytest

from decomposition_oracle import (
    harmonic_extension,
    harmonic_production_identity,
    radial_extension,
    refinement_order,
)
from eelab.circle import CircleFunction
from eelab.entropy import (
    ExtendedEntropy,
    generated_entropy,
    generator_harmonic_potential,
    jin_kohn,
    jin_kohn_circle,
)
from eelab.grids import (
    ConstantSpec,
    FloatArray,
    JumpSpec,
    Mollifier,
    VortexSpec,
    build_field,
    centered_grid,
    divergence,
    lp_norm,
    mollify,
)
from eelab.production import (
    cubic_average_besov_bound,
    cubic_difference_average,
    decay_rate,
    div_entropy,
    div_sigma_closed,
    jump_production_mass,
    mollified_level,
    pointwise_bound_check,
    production_ladder,
)


def linear_entropy() -> ExtendedEntropy:
    """The map z -> z; produces exactly the divergence of the field."""

    def val(v: FloatArray) -> FloatArray:
        return v.copy()

    def jac(v: FloatArray) -> FloatArray:
        j = np.zeros(v.shape[:-1] + (2, 2))
        j[..., 0, 0] = 1.0
        j[..., 1, 1] = 1.0
        return j

    return ExtendedEntropy("closed-form", val, jac)


def annulus(grid, lo=0.45, hi=0.8):
    r = np.hypot(*grid.meshgrid())
    return (r > lo) & (r < hi)


def test_div_entropy_constant_vanishes():
    g = centered_grid(48, 2.0)
    m = build_field(ConstantSpec(0.8), g)
    v = mollify(m, Mollifier(0.2))
    d = div_entropy(v, jin_kohn(1))
    assert np.abs(d.values[d.effective_mask()]).max() < 1e-12


def test_div_sigma_closed_constant_and_exact_unit():
    g = centered_grid(48, 2.0)
    m = build_field(ConstantSpec(0.8), g)
    v = mollify(m, Mollifier(0.2))
    s1, s2 = div_sigma_closed(v)
    assert np.abs(s1.values[s1.effective_mask()]).max() < 1e-12
    # unmollified unit field: the 1-|m|^2 factor kills both components exactly
    mv = build_field(VortexSpec(), g).unit_vectors()
    t1, t2 = div_sigma_closed(mv)
    # the 1-|m|^2 factor is ~2e-16 on exact unit fields
    assert np.abs(t1.values).max() < 1e-13
    assert np.abs(t2.values).max() < 1e-13


def test_closed_form_vs_divergence_path():
    """Two independent computation paths agree at second order."""
    errs = []
    for n in (64, 128):
        g = centered_grid(n, 2.0)
        m = build_field(VortexSpec(), g)
        v = mollify(m, Mollifier(0.1))
        s1, s2 = div_sigma_closed(v)
        d1 = div_entropy(v, jin_kohn(1))
        d2 = div_entropy(v, jin_kohn(2))
        sel = d1.effective_mask() & s1.effective_mask() & annulus(g, 0.3, 0.9)
        errs.append(
            max(np.abs(s1.values - d1.values)[sel].max(),
                np.abs(s2.values - d2.values)[sel].max())
        )
    assert np.log2(errs[0] / errs[1]) > 1.9


def test_linear_entropy_gives_divergence():
    g = centered_grid(64, 2.0)
    m = build_field(VortexSpec(), g)
    v = mollify(m, Mollifier(0.1))
    d = div_entropy(v, linear_entropy())
    dv = divergence(v)
    assert np.abs(d.values - dv.values).max() == 0.0
    sel = d.effective_mask() & annulus(g, 0.3, 0.9)
    assert np.abs(dv.values[sel]).max() < 10 * g.spacing**2 / 0.3**3


def test_production_linearity_in_entropy():
    g = centered_grid(64, 2.0)
    m = build_field(VortexSpec(), g)
    v = mollify(m, Mollifier(0.1))
    rng = np.random.default_rng(0)
    f1, f2 = CircleFunction.random_real(5, rng), CircleFunction.random_real(5, rng)
    a, b = 1.3, -0.7
    e1 = radial_extension(generated_entropy(f1))
    e2 = radial_extension(generated_entropy(f2))
    ecombo = radial_extension(generated_entropy(f1 * a + f2 * b))
    combo = div_entropy(v, ecombo).values
    split = a * div_entropy(v, e1).values + b * div_entropy(v, e2).values
    sel = annulus(g, 0.35, 0.85)
    assert np.abs(combo - split)[sel].max() < 1e-12


def test_level_arrays_are_read_only():
    # a level is shared by every check of a run, also across threads: a
    # consumer that writes into one of its arrays raises
    g = centered_grid(32, 2.0)
    lv = mollified_level(build_field(VortexSpec(), g), 0.25)
    s1, s2 = lv.div_sigma
    for a in (lv.m.theta, lv.v.values, lv.v.mask, lv.theta.values, lv.theta.mask, lv.live,
              s1.values, s1.mask, s2.values, s2.mask):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = a[0, 0]


def test_level_derives_g_once_on_first_read(monkeypatch):
    # only the kinetic and factorization checks read g, on the ladder levels;
    # the production check's extra scales must not pay for it
    from eelab import kinetic, production

    calls = []

    def counting(theta, div_sigma):
        calls.append(theta)
        return kinetic.rotated_production(theta, div_sigma)

    monkeypatch.setattr(production, "rotated_production", counting)
    lv = mollified_level(build_field(VortexSpec(), centered_grid(32, 2.0)), 0.25)
    assert calls == []
    g = lv.g
    assert lv.g is g and len(calls) == 1
    assert np.array_equal(g, kinetic.rotated_production(lv.theta.values, lv.div_sigma))
    with pytest.raises(ValueError, match="read-only"):
        g[0, 0] = g[0, 0]


def test_vortex_production_decays():
    g = centered_grid(256, 2.0)
    m = build_field(VortexSpec(), g)
    levels = [mollified_level(m, eps) for eps in (0.24, 0.12, 0.06)]
    norms = production_ladder(jk1_productions(levels), 1.0, annulus(g, 0.45, 0.7))
    assert norms[0] > norms[-1]
    assert decay_rate([lv.eps for lv in levels], norms) > 1.5


def test_cubic_average_trivial_and_jump():
    g = centered_grid(128, 2.0)
    m = build_field(ConstantSpec(0.1), g)
    p = cubic_difference_average(m, 0.125)
    assert np.abs(p.values[p.effective_mask()]).max() == 0.0

    yrow = float(g.ys()[64])
    mj = build_field(JumpSpec(point=(0.0, yrow)), g)
    eps = 32 * g.spacing
    pj = cubic_difference_average(mj, eps)
    spec = JumpSpec()
    mp, mm = spec.traces()
    jj = float(np.linalg.norm(mp - mm))
    on_line = pj.values[64][pj.effective_mask()[64]]
    ratio = on_line * eps / ((np.pi / 2) * jj**3)
    assert 0.95 <= ratio.min() <= ratio.max() <= 1.05


def test_cubic_average_under_resolved_rejected():
    g = centered_grid(32, 2.0)
    m = build_field(ConstantSpec(0.0), g)
    with pytest.raises(ValueError, match="under-resolved"):
        cubic_difference_average(m, g.spacing)


def test_cubic_average_lipschitz_bound():
    # L-Lipschitz field: P <= (2 pi / 5) L^3 eps^2 + quadrature error
    g = centered_grid(256, 2.4)
    m = build_field(VortexSpec(), g)
    eps = 0.1
    p = cubic_difference_average(m, eps)
    r = np.hypot(*g.meshgrid())
    sel = p.effective_mask() & (r > 0.8)  # Lipschitz constant ~ 1/0.7 on the shell
    L = 1.0 / 0.7
    assert p.values[sel].max() <= (2 * np.pi / 5) * L**3 * eps**2 * 1.1


def jk1_productions(levels):
    """div Phi(m_eps) of the first Jin-Kohn entropy, one per level."""
    return [div_entropy(lv.v, jin_kohn(1)) for lv in levels]


def productions_and_averages(m, scales=(0.25, 0.125)):
    """The first Jin-Kohn productions of the levels of ``m`` at ``scales`` and
    their cubic averages."""
    levels = [mollified_level(m, eps) for eps in scales]
    return jk1_productions(levels), [cubic_difference_average(m, eps) for eps in scales]


def pointwise_bound_holds(rep, bound=10.0):
    """The live ratio stays below ``bound`` and the dead-cell diagnostic below 1e-4."""
    return max(rep.sup_ratios) <= bound and max(rep.dead_cell_fractions) <= 1e-4


def test_pointwise_bound_vortex_and_constant():
    g = centered_grid(128, 2.0)
    m = build_field(VortexSpec(), g)
    rep = pointwise_bound_check(*productions_and_averages(m), jin_kohn_circle(1), annulus(g, 0.45, 0.7))
    assert pointwise_bound_holds(rep)
    mc = build_field(ConstantSpec(0.2), g)
    repc = pointwise_bound_check(
        *productions_and_averages(mc), jin_kohn_circle(1), g.rect_mask(-0.5, 0.5, -0.5, 0.5),
    )
    assert pointwise_bound_holds(repc)  # 0/0 guarded by the floor (rounding over floor stays O(1))


def test_pointwise_bound_requires_entropy():
    from eelab.entropy import EntropyMap

    g = centered_grid(32, 2.0)
    m = build_field(ConstantSpec(0.2), g)
    bad = EntropyMap(CircleFunction.cosine(1), CircleFunction.zero())
    with pytest.raises(ValueError, match="entropy"):
        pointwise_bound_check(*productions_and_averages(m, (0.25,)), bad, g.rect_mask(-0.5, 0.5, -0.5, 0.5))


def test_jump_sigma_bound_pointwise():
    # |divS(m_eps)| <= C P_eps pointwise on the interior, C stable in eps
    g = centered_grid(192, 2.0)
    m = build_field(JumpSpec(), g)
    region = g.rect_mask(-0.5, 0.5, -0.5, 0.5)
    consts = []
    for eps in (0.25, 0.125):
        v = mollify(m, Mollifier(eps))
        s1, _ = div_sigma_closed(v)
        pm = cubic_difference_average(m, eps)
        sel = s1.effective_mask() & pm.effective_mask() & region
        ratio = np.abs(s1.values[sel]) / (pm.values[sel] + 1e-14)
        consts.append(float(ratio.max()))
    assert max(consts) < 5.0
    assert consts[1] < 2.0 * consts[0] + 0.1


def test_harmonic_production_identity_refinement():
    phi = generator_harmonic_potential(CircleFunction.random_real(8, np.random.default_rng(1)))
    eps = 0.12
    resids = []
    for n in (64, 128, 256):
        g = centered_grid(n, 2.0)
        m = build_field(VortexSpec(), g)
        v = mollify(m, Mollifier(eps))
        resids.append(harmonic_production_identity(v, phi, region=annulus(g, 0.45, 0.8)))
    assert refinement_order(resids) > 1.9


def test_harmonic_production_identity_on_jump():
    # mollified jump is divergence-free too; the identity is purely algebraic
    phi = harmonic_extension(CircleFunction.random_real(6, np.random.default_rng(2)))
    eps = 0.15
    resids = []
    for n in (64, 128):
        g = centered_grid(n, 2.0)
        m = build_field(JumpSpec(), g)
        v = mollify(m, Mollifier(eps))
        region = g.rect_mask(-0.5, 0.5, -0.5, 0.5)
        resids.append(harmonic_production_identity(v, phi, region=region))
    assert resids[1].l2_residual < 0.35 * resids[0].l2_residual


def test_harmonic_production_identity_rejects_nondivfree():
    g = centered_grid(64, 2.0)
    theta = np.cos(3 * g.meshgrid()[0])  # not a solution
    from eelab.grids import AngleField

    m = AngleField(g, theta)
    v = mollify(m, Mollifier(0.1))
    phi = harmonic_extension(CircleFunction.cosine(2))
    with pytest.raises(ValueError, match="divergence-free"):
        harmonic_production_identity(v, phi, region=g.rect_mask(-0.5, 0.5, -0.5, 0.5))


def test_jump_mass_matches_flux_difference():
    g = centered_grid(256, 2.0)
    yrow = float(g.ys()[128])
    spec = JumpSpec(point=(0.0, yrow))
    m = build_field(spec, g)
    mp, mm = spec.traces()
    expected = float(spec.unit_normal() @ (jin_kohn(1).value(mp[None])[0] - jin_kohn(1).value(mm[None])[0]))
    strip = g.rect_mask(-0.6, 0.6, yrow - 0.4, yrow + 0.4)
    levels = [mollified_level(m, eps) for eps in (0.25, 0.125)]
    rep = jump_production_mass(jk1_productions(levels), expected, strip)
    assert rep.rel_errors[-1] < 0.02
    # the cubic jump-cost formula gives the same number: J^3/6 for these traces
    assert expected == pytest.approx(float(np.linalg.norm(mp - mm)) ** 3 / 6.0)


def test_bounded_sequence_jump_and_vortex():
    g = centered_grid(256, 2.0)
    yrow = float(g.ys()[128])
    mj = build_field(JumpSpec(point=(0.0, yrow)), g)
    eps = 32 * g.spacing
    pm = cubic_difference_average(mj, eps)
    hs = [g.spacing * c for c in (2, 4, 8, 16, 32)]
    box = 2 * eps
    inner = g.rect_mask(-box, box, yrow - box, yrow + box)
    outer = g.rect_mask(-box - eps, box + eps, yrow - box - eps, yrow + box + eps)
    for p in (1.0, 7.0 / 6.0, 4.0 / 3.0):
        [rep] = cubic_average_besov_bound(mj, [p], inner, outer, hs, pm=pm)
        assert rep.lhs <= rep.rhs, (p, rep.ratio)
    mv = build_field(VortexSpec(), g)
    pv = cubic_difference_average(mv, eps)
    r = np.hypot(*g.meshgrid())
    inner_v = annulus(g, 0.45, 0.7) & g.interior_mask(eps + g.spacing)
    outer_v = (r > 0.45 - eps) & (r < 0.7 + eps)
    for p in (1.0, 7.0 / 6.0, 4.0 / 3.0):
        [rep] = cubic_average_besov_bound(mv, [p], inner_v, outer_v, hs, pm=pv)
        assert rep.lhs <= rep.rhs, (p, rep.ratio)


def test_div_entropy_domain_rejection():
    from eelab.entropy import harmonic_entropy as hent
    from eelab.grids import VecField

    g = centered_grid(16, 2.0)
    vals = np.full((16, 16, 2), 0.9)
    vals[3, 3] = (1.4, 0.0)  # outside the closed disk
    v = VecField(g, vals)
    ext = hent(harmonic_extension(CircleFunction.cosine(2)))
    with pytest.raises(ValueError, match="domain"):
        div_entropy(v, ext)


def test_pointwise_bound_jump_ladder():
    g = centered_grid(192, 2.0)
    m = build_field(JumpSpec(), g)
    rep = pointwise_bound_check(
        *productions_and_averages(m), jin_kohn_circle(1), g.rect_mask(-0.5, 0.5, -0.5, 0.5),
    )
    # both sides scale like 1/eps on the strip: the ratio is ladder-stable
    assert pointwise_bound_holds(rep)
    assert max(rep.sup_ratios) <= 2.0 * min(rep.sup_ratios)


def test_harmonic_production_identity_constant_potential():
    from eelab.entropy import DiskHarmonic

    g = centered_grid(96, 2.0)
    m = build_field(VortexSpec(), g)
    v = mollify(m, Mollifier(0.125))
    phi = DiskHarmonic.from_real_basis([0.7], [0.0])
    r = harmonic_production_identity(v, phi, region=annulus(g, 0.45, 0.7))
    # identity entropy scaled: both sides reduce to 0.7 div(m_eps) vs 0
    assert r.l2_residual < 50 * g.spacing**2

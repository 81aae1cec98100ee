"""Acceptance criteria, one test per criterion, each printing a verdict line.

All tolerances are fixed here, not configurable: spectral identities at
1e-10/1e-12, interaction agreement at 1e-6, jump-cost at 2%, slope windows
at +-0.03, ladder windows as stated.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import json

import numpy as np
import pytest

from decomposition_oracle import harmonic_extension, harmonic_production_identity, refinement_order
from eelab.bumps import RadialBump, TensorBump
from eelab.circle import CircleFunction
from eelab.entropy import (
    a_coefficients,
    ent_residual,
    generated_entropy,
    generated_entropy_closed_form,
    generator_harmonic_potential,
    harmonic_entropy,
    jin_kohn,
    jin_kohn_circle,
    multiplier,
    multiplier_differential,
    potential_linear_term,
)
from eelab.factorization import (
    factor_coefficient,
    generated_productions,
    pairing_consistency_gap,
    vanishing_production_check,
)
from eelab.grids import (
    ConstantSpec,
    JumpSpec,
    Mollifier,
    ScalarField,
    VortexSpec,
    build_field,
    centered_grid,
    mollify,
)
from eelab.kinetic import (
    JumpLineMeasure,
    SpaceTimeTestFunction,
    kinetic_residual,
)
from eelab.production import (
    cubic_average_besov_bound,
    cubic_difference_average,
    div_entropy,
    factorized_measure,
    jump_production_mass,
    mollified_level,
)
from eelab.regularity import (
    InteractionWeight,
    besov_seminorm,
    symmetric_interaction_closed_form,
    symmetric_pair_interaction,
)

T512 = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
CIRCLE512 = np.stack([np.cos(T512), np.sin(T512)], axis=-1)

RNG_SEED = 20240


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {text}")
    assert ok, f"criterion {num}: {text}"


def random_suite(count: int, band: int = 8) -> list[CircleFunction]:
    rng = np.random.default_rng(RNG_SEED)
    return [CircleFunction.random_real(band, rng) for _ in range(count)]


# -- shared expensive fixtures ------------------------------------------------


@pytest.fixture(scope="module")
def jump_setup():
    g = centered_grid(256, 2.0)
    yrow = float(g.ys()[128])
    spec = JumpSpec(point=(0.0, yrow))
    m = build_field(spec, g)
    eps = 32 * g.spacing
    pm = cubic_difference_average(m, eps)
    return g, spec, m, eps, pm, yrow


@pytest.fixture(scope="module")
def vortex_ladder():
    return [
        mollified_level(build_field(VortexSpec(), centered_grid(n, 2.0)), eps)
        for n, eps in ((64, 0.16), (128, 0.08), (256, 0.04))
    ]


def annulus(grid, lo=0.45, hi=0.7):
    r = np.hypot(*grid.meshgrid())
    return (r > lo) & (r < hi)


# -- criteria ------------------------------------------------------------------


def test_criterion_01_ent_membership():
    worst = 0.0
    for f in random_suite(20):
        worst = max(worst, float(np.max(np.abs(ent_residual(generated_entropy(f))(T512)))))
    verdict(1, worst <= 1e-10, f"ENT membership of generated entropies (sup {worst:.2e} <= 1e-10)")


def test_criterion_02_closed_form_oracle():
    worst = 0.0
    for k in range(2, 9):
        for j in (1, 2):
            f = CircleFunction.cosine(k) if j == 1 else CircleFunction.sine(k)
            gap = generated_entropy(f).as_complex() - generated_entropy_closed_form(k, j).as_complex()
            worst = max(worst, float(np.max(np.abs(gap(T512)))))
    v1 = generated_entropy(CircleFunction.cosine(2)).values(0.0)
    v2 = generated_entropy(CircleFunction.sine(2)).values(0.0)
    anchors = (
        float(np.abs(v1 - np.array([0.0, -2.0 / 3.0])).max()) <= 1e-12
        and float(np.abs(v2 - np.array([-2.0 / 3.0, 0.0])).max()) <= 1e-12
    )
    verdict(2, worst <= 1e-10 and anchors,
            f"closed forms k=2..8 (sup {worst:.2e} <= 1e-10, anchor values exact)")


def test_criterion_03_harmonic_extension_relation():
    worst = 0.0
    for f in random_suite(20):
        he = harmonic_entropy(generator_harmonic_potential(f))
        lin = potential_linear_term(f)
        gap = he.value(CIRCLE512) - generated_entropy(f).values(T512) - lin * CIRCLE512
        worst = max(worst, float(np.abs(gap).max()))
    verdict(3, worst <= 1e-10, f"harmonic potential extends the entropy up to a linear term (sup {worst:.2e})")


def test_criterion_04_multiplier_identities():
    worst_paths = 0.0
    for psi in random_suite(20):
        worst_paths = max(
            worst_paths, (multiplier(1, psi) - multiplier_differential(psi)).sup_norm(512)
        )
    worst_modes = 0.0
    zs = np.exp(1j * T512)
    for k in range(0, 9):
        a1, _ = a_coefficients(harmonic_extension(CircleFunction.harmonic(k)), zs)
        tgt = 0.5j * k * (k**2 - 1) * np.exp(1j * k * T512)
        worst_modes = max(worst_modes, float(np.abs(a1 - tgt).max()))
    verdict(4, worst_paths <= 1e-12 and worst_modes <= 1e-10,
            f"multiplier two paths ({worst_paths:.2e} <= 1e-12), mode action ({worst_modes:.2e} <= 1e-10)")


def test_criterion_05_action_identity():
    worst = 0.0
    for f in random_suite(20):
        a1, _ = a_coefficients(generator_harmonic_potential(f), np.exp(1j * T512))
        tgt = factor_coefficient(f, T512)
        worst = max(worst, float(np.max(np.abs(np.real(a1) - tgt) + np.abs(np.imag(a1)))))
    verdict(5, worst <= 1e-10, f"first-multiplier action on the potential (sup {worst:.2e} <= 1e-10)")


def test_criterion_06_jin_kohn_relation():
    oracle = 0.0
    for j in (1, 2):
        poly = jin_kohn(j).value(CIRCLE512)
        trig = jin_kohn_circle(j).values(T512)
        oracle = max(oracle, float(np.abs(poly - trig).max()))
    s1 = jin_kohn_circle(1).as_complex() + generated_entropy(CircleFunction.cosine(2)).as_complex()
    s2 = (jin_kohn_circle(2).as_complex()
          + generated_entropy(CircleFunction.sine(2)).as_complex()
          + CircleFunction.harmonic(1))
    gap = max(s1.sup_norm(512), s2.sup_norm(512))
    verdict(6, oracle <= 1e-12 and gap <= 1e-10,
            f"Jin-Kohn vs generated family (oracle {oracle:.2e}, relation gap {gap:.2e} <= 1e-10)")


def test_criterion_07_decomposition_identity_order():
    rng = np.random.default_rng(RNG_SEED + 7)
    eps = 0.12
    grids = [centered_grid(n, 2.0) for n in (64, 128, 256)]
    mollified = [
        mollify(build_field(VortexSpec(), g), Mollifier(eps)) for g in grids
    ]
    regions = [annulus(g, 0.45, 0.8) for g in grids]
    orders = []
    for _ in range(5):
        phi = harmonic_extension(CircleFunction.random_real(8, rng))
        resids = [
            harmonic_production_identity(v, phi, region=reg)
            for v, reg in zip(mollified, regions)
        ]
        orders.append(refinement_order(resids))
    verdict(7, min(orders) >= 1.9,
            f"production decomposition refines at order >= 1.9 (min {min(orders):.2f}, 5 random potentials)")


def test_criterion_08_jump_cost(jump_setup):
    g, spec, m, eps, pm, yrow = jump_setup
    mp, mm = spec.traces()
    expected = float(
        spec.unit_normal() @ (jin_kohn(1).value(mp[None])[0] - jin_kohn(1).value(mm[None])[0])
    )
    strip = g.rect_mask(-0.6, 0.6, yrow - 0.4, yrow + 0.4)
    levels = [mollified_level(m, eps) for eps in (0.25, 0.125)]
    rep = jump_production_mass([div_entropy(lv.v, jin_kohn(1)) for lv in levels], expected, strip)
    verdict(8, rep.rel_errors[-1] <= 0.02,
            f"jump-cost mass per unit length (rel err {rep.rel_errors[-1]:.2e} <= 2e-2)")


def test_criterion_09_cubic_average(jump_setup):
    g, spec, m, eps, pm, yrow = jump_setup
    mp, mm = spec.traces()
    jj = float(np.linalg.norm(mp - mm))
    on_line = pm.values[128][pm.effective_mask()[128]]
    ratios_line = on_line * eps / ((np.pi / 2) * jj**3)
    window = 0.95 <= ratios_line.min() <= ratios_line.max() <= 1.05

    hs = [g.spacing * c for c in (2, 4, 8, 16, 32)]
    box = 2 * eps
    inner = g.rect_mask(-box, box, yrow - box, yrow + box)
    outer = g.rect_mask(-box - eps, box + eps, yrow - box - eps, yrow + box + eps)
    jump_ok, jump_ratios = True, []
    for p in (1.0, 7.0 / 6.0, 4.0 / 3.0):
        [rep] = cubic_average_besov_bound(m, [p], inner, outer, hs, pm=pm)
        jump_ok &= rep.lhs <= rep.rhs
        jump_ratios.append(rep.ratio)
    mv = build_field(VortexSpec(), g)
    pv = cubic_difference_average(mv, eps)
    r = np.hypot(*g.meshgrid())
    inner_v = annulus(g) & g.interior_mask(eps + g.spacing)
    outer_v = (r > 0.45 - eps) & (r < 0.7 + eps)
    vortex_ok = True
    for p in (1.0, 7.0 / 6.0, 4.0 / 3.0):
        [rep] = cubic_average_besov_bound(mv, [p], inner_v, outer_v, hs, pm=pv)
        vortex_ok &= rep.lhs <= rep.rhs
    verdict(
        9,
        window and jump_ok and vortex_ok,
        "cubic average: line window "
        f"[{ratios_line.min():.3f},{ratios_line.max():.3f}] in [0.95,1.05]; "
        f"ladder bound ratios jump {max(jump_ratios):.2f} <= 1, vortex ok={vortex_ok}",
    )


def test_criterion_10_besov_slopes(jump_setup):
    g, spec, m, eps, pm, yrow = jump_setup
    hs = [g.spacing * 2**k for k in range(2, 7)]
    region = g.rect_mask(-0.75, 0.75, yrow - 0.75, yrow + 0.75)
    slopes = {}
    flat_ok = True
    growth_ok = True
    for q in (3.0, 4.0):
        [rep] = besov_seminorm(m, 1.0 / 3.0, [q], hs, region)
        slopes[q] = rep.slope
        normalized = np.array(rep.per_h) / np.array(rep.hs) ** (1.0 / 3.0)
        if q == 3.0:
            flat_ok = normalized.max() / normalized.min() <= 1.10
        else:
            gslope = float(np.polyfit(np.log(rep.hs), np.log(normalized), 1)[0])
            growth_ok = abs(gslope - (1.0 / 4.0 - 1.0 / 3.0)) <= 0.03
    ok = abs(slopes[3.0] - 1 / 3) <= 0.03 and abs(slopes[4.0] - 1 / 4) <= 0.03
    verdict(
        10,
        ok and flat_ok and growth_ok,
        f"Besov slopes q=3: {slopes[3.0]:.3f} (1/3 +- 0.03), q=4: {slopes[4.0]:.3f} (1/4 +- 0.03); "
        "normalized ladder flat at q=3, growing like h^(-1/12) at q=4",
    )


def test_criterion_11_interaction_agreement():
    worst = 0.0
    constants = {}
    betas = np.linspace(0.01, np.pi / 2, 120)
    for alpha in (0.25, 0.5, 1.0):
        w = InteractionWeight(alpha)
        gap = np.abs(
            symmetric_pair_interaction(betas, w) - symmetric_interaction_closed_form(betas, w)
        ).max()
        worst = max(worst, float(gap))
        constants[alpha] = float((symmetric_interaction_closed_form(betas, w) / betas ** (3 + alpha)).min())
    ok = worst <= 1e-6 and all(c > 0 for c in constants.values())
    verdict(
        11,
        ok,
        f"interaction closed form (sup {worst:.2e} <= 1e-6); "
        f"coercivity c(alpha) = {{{', '.join(f'{a}: {c:.3f}' for a, c in constants.items())}}} > 0",
    )


def test_criterion_12_kinetic_weak_identity(jump_setup):
    # constant field, zero measure: quadrature tolerance only
    gq = centered_grid(128, 2.0)
    mc = build_field(ConstantSpec(0.9), gq)
    zeta_c = SpaceTimeTestFunction(
        TensorBump(center=(0.05, -0.05), halfwidth=(0.5, 0.55)),
        CircleFunction.random_real(5, np.random.default_rng(RNG_SEED + 1)), "c")
    const_res = max(abs(r) for r in kinetic_residual(mc, None, [zeta_c]))
    const_ok = const_res <= 2e-3

    vortex_res = []
    for n in (64, 128, 256):
        gg = centered_grid(n, 2.4)
        mv = build_field(VortexSpec(), gg)
        z = SpaceTimeTestFunction(
            RadialBump(center=(0, 0), r0=0.7, width=0.3),
            CircleFunction.random_real(5, np.random.default_rng(RNG_SEED + 2)), "v")
        vortex_res.append(max(abs(r) for r in kinetic_residual(mv, None, [z])))
    vortex_ok = vortex_res[2] < 0.25 * vortex_res[0] and vortex_res[2] < 1e-4

    spec = JumpSpec()
    jump_res = []
    for n in (96, 192):
        gg = centered_grid(n, 2.0)
        mj = build_field(spec, gg)
        z = SpaceTimeTestFunction(
            TensorBump(center=(0.05, 0.0), halfwidth=(0.45, 0.5)),
            CircleFunction.random_real(5, np.random.default_rng(RNG_SEED + 3)), "j")
        jump_res.append(max(abs(r) for r in kinetic_residual(mj, JumpLineMeasure(spec), [z])))
    jump_ok = jump_res[1] < 0.5 * jump_res[0] and jump_res[1] < 1e-4

    g, _, m, eps, _, _ = jump_setup
    sig = factorized_measure(mollified_level(m, 0.125))
    mass = float(np.abs(sig.integrate(CircleFunction.constant(1.0))).max())
    nu_exact = bool(np.array_equal(sig.nu().values, 2.0 * np.abs(sig.g)))
    verdict(
        12,
        const_ok and vortex_ok and jump_ok and mass < 1e-15 and nu_exact,
        f"kinetic identity: constant {const_res:.1e} <= 2e-3; vortex refines to {vortex_res[2]:.1e}; "
        f"jump+oracle refines to {jump_res[1]:.1e}; measure mass {mass:.1e} exact, nu = 2|g| exact",
    )


def test_criterion_13_factorization_consistency(jump_setup, vortex_ladder):
    g, spec, m, eps, pm, yrow = jump_setup
    sig = factorized_measure(mollified_level(m, 0.125))
    x, y = g.meshgrid()
    zeta = ScalarField(g, np.cos(1.3 * x) * np.exp(-(y**2)))
    gap = 0.0
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(10):
        f = CircleFunction.random_real(8, rng)
        gap = max(gap, pairing_consistency_gap(sig, f, zeta))

    fs = [("cos2", CircleFunction.cosine(2)), ("sin2", CircleFunction.sine(2)),
          ("rand", CircleFunction.random_real(8, np.random.default_rng(RNG_SEED + 5)))]
    gens = [f for _, f in fs]
    rep_v = vanishing_production_check(vortex_ladder, generated_productions(vortex_ladder, gens), annulus)
    const_ladder = [
        mollified_level(build_field(ConstantSpec(0.4), centered_grid(n, 2.0)), e)
        for n, e in ((64, 0.16), (128, 0.08))
    ]
    rep_c = vanishing_production_check(
        const_ladder, generated_productions(const_ladder, gens), lambda gg: gg.rect_mask(-0.5, 0.5, -0.5, 0.5)
    )
    jump_ladder = [
        mollified_level(build_field(JumpSpec(), centered_grid(n, 2.0)), e)
        for n, e in ((64, 0.16), (128, 0.08), (256, 0.04))
    ]
    rep_j = vanishing_production_check(
        jump_ladder, generated_productions(jump_ladder, gens), lambda gg: gg.rect_mask(-0.5, 0.5, -0.35, 0.35)
    )
    ok = (
        gap <= 1e-10
        and all(r >= 0.9 for r in rep_v.rates)
        and all(r >= 0.9 for r in rep_c.rates)
        and not all(r >= 0.9 for r in rep_j.rates)  # the negative control is flagged
    )
    verdict(
        13,
        ok,
        f"measure pairing = coefficient pairing (gap {gap:.1e} <= 1e-10); productions vanish on "
        "vortex and constant; jump flagged as negative control",
    )


def test_criterion_14_determinism(tmp_path):
    from eelab.cli import config_from_json, run_config

    base = {
        "field": {"kind": "vortex"},
        "grid": {"n": 64, "extent": 2.0},
        "levels": 2,
        "eps_cells": 4.0,
        "h_ladder_cells": [2, 4, 8],
        "exponents": {"p": 7 / 6, "q": [3.0]},
        "suite": {"band": 6, "n_random": 2},
        "checks": ["besov", "kinetic", "factorize", "entropy-identities"],
        "seed": 77,
    }
    outputs = {}
    for label, jobs in (("first", 1), ("second", 1), ("parallel", 8)):
        cfg = config_from_json(base)
        cfg.out = str(tmp_path / label)
        cfg.jobs = jobs
        run_config(cfg)
        files = {}
        root = tmp_path / label
        for p in sorted(root.rglob("*")):
            if p.is_file():
                files[str(p.relative_to(root))] = p.read_bytes()
        outputs[label] = files
    identical = outputs["first"] == outputs["second"] == outputs["parallel"]
    verdict(14, identical,
            f"byte-identical artifacts across reruns and jobs 1 vs 8 ({len(outputs['first'])} files)")

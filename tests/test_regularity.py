"""Interaction weight, interaction functional, Besov ladders."""

import dataclasses
import json
from collections import namedtuple
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_jacobi

from eelab.bumps import RadialBump
from eelab.cli import config_from_json
from eelab.grids import (
    ConstantSpec,
    JumpSpec,
    VortexSpec,
    build_field,
    centered_grid,
)
from eelab import regularity
from eelab.quadrature import interaction_pair_value
from eelab.regularity import (
    CoercivityReport,
    InteractionWeight,
    besov_seminorm,
    coercivity_scan,
    interaction_identity_check,
    symmetric_interaction_closed_form,
    symmetric_pair_interaction,
)


@lru_cache(maxsize=64)
def gauss_jacobi01(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights with int_0^1 y^alpha g(y) dy = sum w_i g(y_i)."""
    x, w = roots_jacobi(n, 0.0, alpha)
    y = 0.5 * (x + 1.0)
    return y, w * 2.0 ** (-1.0 - alpha)


def substitution_form(beta: float, weight: InteractionWeight) -> float:
    """Independent small-angle oracle 8 (2b)^{2+a} int_0^1 v^a (1-v) sin(2bv) dv.

    Valid for beta <= pi/8 where only the power branch is sampled.
    """
    if beta > np.pi / 8 + 1e-12:
        raise ValueError("substitution form needs beta <= pi/8")
    y, w = gauss_jacobi01(48, weight.alpha)
    val = np.sum(w * (1 - y) * np.sin(2 * beta * y))
    return float(8.0 * (2 * beta) ** (2 + weight.alpha) * val)


# ---------------------------------------------------------------------------
# the odd pi-periodic power weight
# ---------------------------------------------------------------------------


def test_weight_power_branch_exact():
    w = InteractionWeight(0.5)
    t = np.linspace(0, np.pi / 4, 100)
    # bit-identical to the power formula (np.power; x**0.5 may route to sqrt
    # and differ in the last ulp)
    assert np.array_equal(w.value(t), np.power(t, 0.5))
    assert np.abs(w.value(t) - t**0.5).max() < 3e-16
    assert float(w.value(np.pi / 8)) == pytest.approx((np.pi / 8) ** 0.5, abs=1e-16)


def test_weight_invariants_dense_sample():
    for alpha in (0.25, 0.5, 1.0):
        w = InteractionWeight(alpha)
        t = np.linspace(-7, 7, 10_000)
        assert np.abs(w.value(-t) + w.value(t)).max() < 1e-14       # odd
        assert np.abs(w.value(t + np.pi) - w.value(t)).max() < 1e-14  # pi-periodic
        inner = np.linspace(1e-3, np.pi / 2 - 1e-3, 2000)
        assert w.value(inner).min() > 0                               # positive
        assert abs(float(w.value(np.pi / 2))) < 1e-15                 # forced zero


def test_weight_c1_at_quarter_pi():
    w = InteractionWeight(0.5)
    h = 1e-7
    left = (w.value(np.pi / 4) - w.value(np.pi / 4 - h)) / h
    right = (w.value(np.pi / 4 + h) - w.value(np.pi / 4)) / h
    assert float(abs(left - right)) < 1e-4


def test_weight_rejects_bad_exponent():
    for alpha in (0.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            InteractionWeight(alpha)


# ---------------------------------------------------------------------------
# symmetric pair values and the closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", (0.25, 0.5, 1.0))
def test_pair_vs_closed_form(alpha):
    w = InteractionWeight(alpha)
    betas = np.linspace(1e-3, np.pi / 2, 79)
    direct = symmetric_pair_interaction(betas, w)
    closed = symmetric_interaction_closed_form(betas, w)
    assert np.abs(direct - closed).max() < 1e-8


def test_substitution_form_oracle():
    for alpha in (0.25, 0.5, 1.0):
        w = InteractionWeight(alpha)
        val = float(symmetric_pair_interaction(np.pi / 16, w))
        assert val == pytest.approx(substitution_form(np.pi / 16, w), abs=1e-10)
    with pytest.raises(ValueError):
        substitution_form(1.0, InteractionWeight(0.5))


def test_pair_vs_brute_force_lattice():
    """Coarse midpoint lattice quadrature of the double integral as an
    independent oracle (O(1/N) accurate)."""
    w = InteractionWeight(0.5)
    rng = np.random.default_rng(0)
    N = 2400
    s = (np.arange(N) + 0.5) * 2 * np.pi / N
    U = s[:, None] - s[None, :]
    K = w.value(U) * np.sin(U)
    for _ in range(3):
        t0, t1 = rng.uniform(0, 2 * np.pi, 2)
        d = (np.cos(s - t1) > 0).astype(float) - (np.cos(s - t0) > 0).astype(float)
        brute = float((d[:, None] * d[None, :] * K).sum() * (2 * np.pi / N) ** 2)
        exact = float(interaction_pair_value(t0, t1, w))
        assert abs(brute - exact) < 30.0 / N


def test_zero_values():
    w = InteractionWeight(0.5)
    assert float(symmetric_interaction_closed_form(np.array(0.0), w)) == 0.0
    assert abs(float(interaction_pair_value(1.3, 1.3, w))) < 1e-14


def test_rotation_invariance():
    w = InteractionWeight(0.25)
    rng = np.random.default_rng(1)
    for _ in range(5):
        t0, t1, c = rng.uniform(0, 2 * np.pi, 3)
        a = float(interaction_pair_value(t0, t1, w))
        b = float(interaction_pair_value(t0 + c, t1 + c, w))
        assert abs(a - b) < 1e-10


def test_swap_symmetry():
    w = InteractionWeight(0.5)
    a = float(interaction_pair_value(0.4, 2.1, w))
    b = float(interaction_pair_value(2.1, 0.4, w))
    assert a == pytest.approx(b, abs=1e-12)


def test_coercivity_profile_positive():
    for alpha in (0.25, 0.5, 1.0):
        w = InteractionWeight(alpha)
        betas = np.linspace(0.01, np.pi / 2, 300)
        prof = symmetric_interaction_closed_form(betas, w) / betas ** (3 + alpha)
        assert prof.min() > 0.5  # reported constant, depends on the blend


# ---------------------------------------------------------------------------
# field-level interaction ops
# ---------------------------------------------------------------------------


#: the interaction functional Delta and |Dm| of one sample (x, h, e)
InteractionSample = namedtuple("InteractionSample", "delta dm")


def interaction_functional(m, x, h, e, weight: InteractionWeight) -> InteractionSample:
    """Interaction functional of the indicator differences between x and x + he.

    Both points must lie in the domain.  The double integral over [0,2pi]^2
    is evaluated with integration cells split at all indicator breakpoints,
    so the value carries quadrature error only from the smooth kernel.
    """
    e = np.asarray(e, dtype=float)
    e = e / np.hypot(*e)
    x1 = (x[0] + h * e[0], x[1] + h * e[1])
    for pt in (x, x1):
        if not m.grid.contains(*pt):
            raise ValueError(f"point {pt} outside the domain")
    th0 = float(m.theta_at(np.array(x[0]), np.array(x[1])))
    th1 = float(m.theta_at(np.array(x1[0]), np.array(x1[1])))
    delta = float(interaction_pair_value(th0, th1, weight))
    dm = float(np.hypot(np.cos(th1) - np.cos(th0), np.sin(th1) - np.sin(th0)))
    return InteractionSample(delta=delta, dm=dm)


def coercivity_scan_oracle(m, samples, weight: InteractionWeight) -> CoercivityReport:
    """The scan as it was when every sample was integrated, floor applied after."""
    used: list[InteractionSample] = []
    ratios = []
    for x, h, e in samples:
        rec = interaction_functional(m, x, h, e, weight)
        if rec.dm <= 1e-14:
            continue
        used.append(rec)
        ratios.append(rec.delta / rec.dm ** (3 + weight.alpha))
    min_ratio = float(min(ratios)) if ratios else float("inf")
    gated = [r for r, rec in zip(ratios, used) if rec.dm ** (3 + weight.alpha) >= 1e-12]
    closed = symmetric_interaction_closed_form(
        np.arcsin(np.minimum([rec.dm / 2 for rec in used], 1.0)), weight)
    gap = float(np.max(np.abs([rec.delta for rec in used] - closed), initial=0.0))
    return CoercivityReport(
        min_ratio=min_ratio,
        n_used=len(used),
        gated_min_ratio=float(min(gated, default=np.inf)),
        closed_form_gap=gap,
    )


def _scan_case(kind: str):
    """(field, samples, weight) on which the scan excludes every sample
    (constant), some (jump) or none (smooth)."""
    if kind == "smooth":
        m = build_field(VortexSpec(), centered_grid(64, 2.4))
        rng = np.random.default_rng(2)
        pts = [rng.uniform(0.6, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(40)]
        return m, [((z.real, z.imag), 0.05, (1.0, 0.0)) for z in pts], InteractionWeight(0.25)
    m = build_field(ConstantSpec(0.3) if kind == "constant" else JumpSpec(), centered_grid(64, 2.0))
    rng = np.random.default_rng(3)
    samples = [((float(a), float(b)), h, (float(c), float(d)))
               for h in (0.1, 0.2, 0.4) for a, b, c, d in rng.uniform(-0.5, 0.5, (8, 4))]
    return m, samples, InteractionWeight(0.5)


@pytest.mark.parametrize("kind", ["constant", "jump", "smooth"])
def test_coercivity_scan_matches_integrate_every_sample_oracle_bitwise(kind):
    m, samples, w = _scan_case(kind)
    rep = coercivity_scan(m, samples, w)
    ref = coercivity_scan_oracle(m, samples, w)
    assert {"constant": rep.n_used == 0, "jump": 0 < rep.n_used < len(samples),
            "smooth": rep.n_used == len(samples)}[kind]
    for f in dataclasses.fields(CoercivityReport):
        assert repr(getattr(rep, f.name)) == repr(getattr(ref, f.name)), f.name


@pytest.mark.parametrize("kind", ["constant", "jump", "smooth"])
def test_coercivity_scan_integrates_only_the_samples_it_uses(monkeypatch, kind):
    calls = []

    def spy(theta0, theta1, weight):
        calls.append((theta0, theta1))
        return interaction_pair_value(theta0, theta1, weight)

    monkeypatch.setattr(regularity, "interaction_pair_value", spy)
    m, samples, w = _scan_case(kind)
    rep = coercivity_scan(m, samples, w)
    assert len(calls) == rep.n_used


def test_coercivity_scan_checks_the_domain_of_excluded_samples():
    # on a constant field every sample is excluded, yet a point off the grid still raises
    m = build_field(ConstantSpec(0.3), centered_grid(32, 2.0))
    inside = ((0.1, 0.1), 0.2, (1.0, 0.0))
    for bad in (((0.95, 0.0), 0.2, (1.0, 0.0)), ((1.5, 0.0), 0.2, (1.0, 0.0))):
        with pytest.raises(ValueError, match="outside"):
            coercivity_scan(m, [inside, bad], InteractionWeight(0.5))


def test_interaction_functional_trivial_pairs():
    g = centered_grid(32, 2.0)
    m = build_field(ConstantSpec(0.3), g)
    w = InteractionWeight(0.5)
    rec = interaction_functional(m, (0.1, 0.1), 0.2, (1.0, 0.0), w)
    assert rec.delta == pytest.approx(0.0, abs=1e-13)
    with pytest.raises(ValueError, match="outside"):
        interaction_functional(m, (0.95, 0.0), 0.2, (1.0, 0.0), w)


def test_interaction_functional_symmetric_pair_matches_closed_form():
    g = centered_grid(64, 2.0)
    m = build_field(JumpSpec(theta_plus=np.pi / 2 + 0.11, theta_minus=np.pi / 2 - 0.11), g)
    w = InteractionWeight(1.0)
    rec = interaction_functional(m, (0.0, -0.1), 0.2, (0.0, 1.0), w)
    beta = 0.11
    assert rec.delta == pytest.approx(float(symmetric_interaction_closed_form(np.array(beta), w)), abs=1e-8)
    assert rec.dm == pytest.approx(2 * np.sin(beta), abs=1e-12)


def test_coercivity_scan_jump_and_floor():
    g = centered_grid(64, 2.0)
    m = build_field(JumpSpec(), g)
    w = InteractionWeight(0.5)
    samples = []
    for h in (0.1, 0.2, 0.4):
        samples.append(((0.0, -h / 2), h, (0.0, 1.0)))   # crosses the jump
        samples.append(((0.3, 0.3), h, (1.0, 0.0)))      # constant side: excluded
    rep = coercivity_scan(m, samples, w)
    assert (rep.n_used, len(samples) - rep.n_used) == (3, 3)    # used, excluded
    assert rep.gated_min_ratio >= 0.05 and rep.closed_form_gap <= 1e-10
    # reduction to the symmetric pair: ratio matches the closed form exactly
    beta = np.pi / 4
    expected = float(symmetric_interaction_closed_form(np.array(beta), w)) / (2 * np.sin(beta)) ** 3.5
    assert rep.min_ratio == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0])
def test_chord_coercivity_minimum_at_right_angle(alpha):
    # in the |Dm| normalisation the closed form is smallest at beta = pi/2,
    # where the beta normalisation would put a gate above the closed form itself
    w = InteractionWeight(alpha)
    betas = np.linspace(0.01, np.pi / 2, 64)
    chord = symmetric_interaction_closed_form(betas, w) / (2 * np.sin(betas)) ** (3 + alpha)
    assert int(np.argmin(chord)) == len(betas) - 1
    assert chord.min() < (symmetric_interaction_closed_form(betas, w) / betas ** (3 + alpha)).min()


def test_coercivity_scan_smooth_field():
    g = centered_grid(64, 2.4)
    m = build_field(VortexSpec(), g)
    w = InteractionWeight(0.25)
    rng = np.random.default_rng(2)
    samples = []
    for _ in range(40):
        ang = rng.uniform(0, 2 * np.pi)
        r = rng.uniform(0.6, 0.9)
        samples.append(((r * np.cos(ang), r * np.sin(ang)), 0.05, (1.0, 0.0)))
    # the scan divides by |Dm|^{3+alpha}, so the gate uses the same normalisation
    betas = np.linspace(0.005, np.pi / 2, 200)
    prof_min = (symmetric_interaction_closed_form(betas, w) / (2 * np.sin(betas)) ** 3.25).min()
    rep = coercivity_scan(m, samples, w)
    assert rep.closed_form_gap <= 1e-10
    assert rep.gated_min_ratio >= 0.5 * float(prof_min)


# ---------------------------------------------------------------------------
# Besov ladders
# ---------------------------------------------------------------------------


def test_besov_constant_zero():
    g = centered_grid(64, 2.0)
    m = build_field(ConstantSpec(1.0), g)
    hs = [g.spacing * k for k in (4, 8, 16)]
    [rep] = besov_seminorm(m, 1 / 3, [3], hs, g.rect_mask(-0.6, 0.6, -0.6, 0.6))
    assert rep.seminorm == 0.0


def test_besov_jump_slopes_and_flatness():
    g = centered_grid(256, 2.0)
    m = build_field(JumpSpec(), g)
    hs = [g.spacing * 2**k for k in range(2, 7)]
    region = g.rect_mask(-0.75, 0.75, -0.75, 0.75)
    [r3] = besov_seminorm(m, 1 / 3, [3], hs, region)
    [r4] = besov_seminorm(m, 1 / 3, [4], hs, region)
    assert abs(r3.slope - 1 / 3) <= 0.03
    assert abs(r4.slope - 1 / 4) <= 0.03
    # B^{1/3}_{3,inf} ladder is flat within 10%
    vals3 = np.array(r3.per_h) / np.array(r3.hs) ** (1 / 3)
    assert vals3.max() / vals3.min() < 1.10
    # analytic strip value: ||D^h m||_3^3 = J^3 h len
    mp, mm = JumpSpec().traces()
    jj = float(np.linalg.norm(mp - mm))
    assert vals3[0] == pytest.approx((jj**3 * 1.5) ** (1 / 3), rel=0.02)


def test_besov_monotone_in_region_and_ladder():
    g = centered_grid(128, 2.0)
    m = build_field(JumpSpec(), g)
    hs = [g.spacing * 2**k for k in range(2, 5)]
    small = g.rect_mask(-0.4, 0.4, -0.4, 0.4)
    big = g.rect_mask(-0.7, 0.7, -0.7, 0.7)
    a = besov_seminorm(m, 1 / 3, [3], hs, small)[0].seminorm
    b = besov_seminorm(m, 1 / 3, [3], hs, big)[0].seminorm
    assert b >= a
    c = besov_seminorm(m, 1 / 3, [3], hs + [g.spacing * 32], big)[0].seminorm
    assert c >= b


def test_besov_rejects_empty_region():
    g = centered_grid(64, 2.0)
    m = build_field(ConstantSpec(0.0), g)
    with pytest.raises(ValueError, match="empty"):
        besov_seminorm(m, 1 / 3, [3], [0.1], np.zeros((64, 64), dtype=bool))


@pytest.mark.parametrize("qs, match", [([], "at least one exponent, got none"),
                                       ([3, 0.5, 4], "q must be >= 1, got 0.5")])
def test_besov_rejects_bad_exponents_before_any_work(qs, match, monkeypatch):
    g = centered_grid(64, 2.0)
    m = build_field(ConstantSpec(0.0), g)
    monkeypatch.setattr(type(m), "unit_vectors", None)  # no difference may be taken
    with pytest.raises(ValueError, match=match):
        besov_seminorm(m, 1 / 3, qs, [0.1], np.ones((64, 64), dtype=bool))


# ---------------------------------------------------------------------------
# the vanishing-measure interaction identity
# ---------------------------------------------------------------------------


def test_interaction_identity_trivial_cases():
    w = InteractionWeight(0.5)
    g = centered_grid(48, 2.8)
    gamma = RadialBump(center=(0, 0), r0=0.8, width=0.3)
    m = build_field(ConstantSpec(0.2), g)
    rep = interaction_identity_check(m, gamma, w, 0.2)
    assert abs(rep.lhs) < 1e-13 and abs(rep.rhs) < 1e-13
    mv = build_field(VortexSpec(), g)
    rep0 = interaction_identity_check(mv, gamma, w, 0.0, n_htilde=4)
    assert rep0.lhs == 0.0 and rep0.rhs == 0.0


def test_interaction_identity_refines_on_vortex():
    w = InteractionWeight(0.5)
    gamma = RadialBump(center=(0, 0), r0=0.7, width=0.35)
    rels = []
    for n in (32, 64):
        g = centered_grid(n, 2.8)
        m = build_field(VortexSpec(), g)
        rep = interaction_identity_check(m, gamma, w, 0.25, n_htilde=8)
        rels.append(rep.rel_residual)
    assert rels[1] < rels[0]
    assert rels[1] < 5e-2


def test_vortex_interaction_identity_bits():
    """The identity of the shipped vortex check on its coarse n=48 grid (the
    interaction check's bump, h = 0.1 extent), pinned to its recorded bits."""
    cfg = config_from_json(json.loads(
        (Path(__file__).resolve().parents[1] / "configs" / "vortex.json").read_text()
    ))
    gamma = RadialBump(center=cfg.field.center, r0=0.27 * cfg.extent, width=0.115 * cfg.extent)
    m = build_field(cfg.field, centered_grid(48, cfg.extent))
    rep = interaction_identity_check(m, gamma, InteractionWeight(cfg.effective_alpha()),
                                     0.1 * cfg.extent)
    assert repr(rep.lhs) == "0.013132165914212207"
    assert repr(rep.rhs) == "0.017242891386784913"
    # float(): the pin is on the bits (a numpy scalar's repr would also name its type)
    assert repr(float(rep.rel_residual)) == "0.23840116952329687"


def test_interaction_identity_domain_guard():
    w = InteractionWeight(0.5)
    g = centered_grid(32, 2.0)
    m = build_field(VortexSpec(), g)
    gamma = RadialBump(center=(0, 0), r0=0.8, width=0.25)
    with pytest.raises(ValueError, match="support"):
        interaction_identity_check(m, gamma, w, 0.3)


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, np.pi / 2 - 0.05), st.floats(0.26, 1.0))
def test_coercivity_lower_bound_property(beta, alpha):
    w = InteractionWeight(alpha)
    val = float(symmetric_interaction_closed_form(np.array(beta), w))
    assert val >= 0.5 * beta ** (3 + alpha)

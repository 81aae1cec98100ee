"""Kinetic density, weak identity residuals, and the factorized measure."""

from dataclasses import dataclass

import numpy as np
import pytest
from numpy.typing import NDArray

from eelab.bumps import RadialBump, TensorBump
from eelab.circle import CircleFunction
from eelab.grids import (
    AngleField,
    BoolArray,
    ConstantSpec,
    FloatArray,
    Grid2,
    JumpSpec,
    ScalarField,
    VortexSpec,
    build_field,
    centered_grid,
)
from eelab.kinetic import (
    TWO_PI,
    JumpLineMeasure,
    KineticMeasure,
    SpaceTimeTestFunction,
    arc_integral,
    chi_difference_bound,
    chi_pairing,
    edge_test_functions,
    kinetic_residual,
    pair_measure,
    theta_of_vec,
)
from eelab.production import factorized_measure, mollified_level


# the indicator sampled on an s-lattice: a Riemann-sum oracle for the exact arc pairings
@dataclass(frozen=True)
class KineticLattice:
    """chi sampled at s-cell centers s_j = (j + 1/2) 2pi/ns."""

    grid: Grid2
    theta: FloatArray
    ns: int
    chi: NDArray[np.bool_]

    def s_centers(self) -> FloatArray:
        return (np.arange(self.ns) + 0.5) * TWO_PI / self.ns

    def s_integral(self) -> FloatArray:
        """int chi(x, s) ds per cell (equals pi for generic angles, even ns)."""
        return self.chi.sum(axis=-1) * (TWO_PI / self.ns)


def indicator_lattice(m: AngleField, ns: int) -> KineticLattice:
    if ns < 64:
        raise ValueError(f"need ns >= 64 s-cells, got {ns}")
    s = (np.arange(ns) + 0.5) * TWO_PI / ns
    chi = np.cos(s[None, None, :] - m.theta[..., None]) > 0.0
    return KineticLattice(grid=m.grid, theta=m.theta.copy(), ns=ns, chi=chi)


def lattice_pairing(lattice: KineticLattice, q: CircleFunction) -> FloatArray:
    """Per-cell Riemann sum of chi against q over the s-grid (O(1/ns) accurate)."""
    qs = q.real_values(lattice.s_centers())
    return lattice.chi @ qs * (TWO_PI / lattice.ns)


def test_theta_of_roundtrips():
    # the angle of a unit field's vectors is its stored angle, up to rounding
    g = centered_grid(16, 2.0)
    m = build_field(VortexSpec(), g)
    th, live = theta_of_vec(m.unit_vectors())
    assert live.all()
    gap = np.angle(np.exp(1j * (th.values - m.theta)))
    assert np.abs(gap).max() < 1e-14


def test_theta_of_vec_values_and_dead_zone():
    g = centered_grid(16, 2.0)
    vals = np.zeros((16, 16, 2))
    vals[..., 0] = -1.0  # angle pi, range convention [0, 2pi)
    vals[0, 0] = (0.1, 0.0)  # dead cell
    from eelab.grids import VecField

    v = VecField(g, vals)
    th, live = theta_of_vec(v)
    assert th.values[5, 5] == pytest.approx(np.pi)
    assert not live[0, 0] and live[5, 5]
    unit = np.array([[0.0, 1.0]])
    from eelab.grids import VecField as VF

    v2 = VF(g, np.tile(unit, (16, 16, 1)).reshape(16, 16, 2))
    th2, _ = theta_of_vec(v2)
    assert th2.values[3, 3] == pytest.approx(np.pi / 2)


def test_indicator_lattice_definition():
    g = centered_grid(8, 1.0)
    m = build_field(ConstantSpec(0.0), g)
    lat = indicator_lattice(m, 64)
    s = lat.s_centers()
    expect = np.cos(s) > 0
    assert np.array_equal(lat.chi[0, 0], expect)
    with pytest.raises(ValueError):
        indicator_lattice(m, 32)


def test_indicator_half_circle_mass():
    g = centered_grid(8, 1.0)
    m = build_field(ConstantSpec(0.37), g)  # generic angle: no center on the edge
    lat = indicator_lattice(m, 128)
    assert np.abs(lat.s_integral() - np.pi).max() < 1e-12


def test_lattice_pairing_first_order_in_ns():
    g = centered_grid(8, 1.0)
    m = build_field(ConstantSpec(1.234), g)
    q = CircleFunction.random_real(6, np.random.default_rng(0))
    exact = float(chi_pairing([q], np.array(1.234))[0])
    qsup = q.sup_norm()
    for ns in (64, 128, 256, 512):
        lat = indicator_lattice(m, ns)
        err = abs(float(lattice_pairing(lat, q)[0, 0]) - exact)
        # endpoint mis-resolution of the two arc ends, Delta-s each
        assert err <= 2 * (2 * np.pi / ns) * qsup


def test_arc_integral_against_quadrature():
    q = CircleFunction.random_real(7, np.random.default_rng(1))
    lo, hi = 0.3, 2.6
    s = np.linspace(lo, hi, 200001)
    brute = np.trapezoid(q.real_values(s), s)
    assert float(arc_integral([q], np.array(lo), np.array(hi))[0]) == pytest.approx(brute, abs=1e-8)


def test_chi_difference_bound():
    g = centered_grid(32, 2.0)
    m = build_field(VortexSpec(), g)
    q = CircleFunction.random_real(6, np.random.default_rng(2))
    assert chi_difference_bound(m, q, np.random.default_rng(3)) <= np.pi + 1e-9


# ---------------------------------------------------------------------------
# factorized measure
# ---------------------------------------------------------------------------


def _measure_for(field, eps=0.125, n=96):
    g = centered_grid(n, 2.0)
    m = build_field(field, g)
    return g, factorized_measure(mollified_level(m, eps))


def test_measure_mass_cancels_exactly():
    g, sig = _measure_for(VortexSpec())
    mass = sig.integrate(CircleFunction.constant(1.0))
    assert np.abs(mass).max() < 1e-15


def test_measure_total_variation():
    g, sig = _measure_for(VortexSpec())
    assert np.array_equal(sig.nu().values, 2.0 * np.abs(sig.g))


def effective_mask(sigma: KineticMeasure) -> BoolArray:
    """The measure's cell mask, all cells when it has none."""
    if sigma.mask is None:
        return np.ones((sigma.grid.ny, sigma.grid.nx), dtype=bool)
    return sigma.mask


def test_measure_zero_density_gives_zero():
    g, sig = _measure_for(ConstantSpec(0.4))
    sel = effective_mask(sig)
    assert np.abs(sig.g[sel]).max() < 1e-12
    assert np.abs(sig.nu().values[sel]).max() < 1e-11


def test_pair_measure_constant_generator_vanishes():
    g, sig = _measure_for(JumpSpec())
    zeta = ScalarField(g, np.ones((g.ny, g.nx)))
    assert pair_measure(sig, CircleFunction.constant(1.0), zeta) == pytest.approx(0.0, abs=1e-14)
    assert pair_measure(sig, CircleFunction.cosine(2), ScalarField(g, np.zeros((g.ny, g.nx)))) == 0.0


def test_pair_measure_hand_value():
    # constant-angle measure with synthetic density: int cos(2t) dsigma_x = -cos(2 th) g
    g = centered_grid(16, 2.0)
    theta0 = 0.77
    gdens = np.linspace(0, 1, 16 * 16).reshape(16, 16)
    from eelab.kinetic import KineticMeasure

    sig = KineticMeasure(grid=g, theta=np.full((16, 16), theta0), g=gdens)
    zeta = ScalarField(g, np.ones((16, 16)))
    got = pair_measure(sig, CircleFunction.cosine(2), zeta)
    expect = -np.cos(2 * theta0) * float(gdens.sum()) * g.cell_area()
    assert got == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# weak kinetic identity
# ---------------------------------------------------------------------------


def test_residual_constant_field_small_and_refines():
    worsts = []
    for n in (96, 192):
        g = centered_grid(n, 2.0)
        m = build_field(ConstantSpec(0.9), g)
        zetas = [
            SpaceTimeTestFunction(
                TensorBump(center=(0.1, -0.05), halfwidth=(0.5, 0.55)),
                CircleFunction.random_real(5, np.random.default_rng(4)),
                "t",
            )
        ]
        worsts.append(max(abs(r) for r in kinetic_residual(m, None, zetas)))
    assert worsts[0] < 2e-3
    assert worsts[1] < 0.35 * worsts[0]


def test_residual_vortex_refines():
    vals = []
    for n in (64, 128, 256):
        g = centered_grid(n, 2.4)
        m = build_field(VortexSpec(), g)
        zeta = SpaceTimeTestFunction(
            RadialBump(center=(0, 0), r0=0.7, width=0.3),
            CircleFunction.random_real(5, np.random.default_rng(5)),
            "ann",
        )
        vals.append(max(abs(r) for r in kinetic_residual(m, None, [zeta])))
    assert vals[2] < 0.25 * vals[0]
    assert vals[2] < 1e-4


def test_residual_jump_needs_the_measure():
    spec = JumpSpec()
    vals_no, vals_yes = [], []
    for n in (96, 192):
        g = centered_grid(n, 2.0)
        m = build_field(spec, g)
        zeta = SpaceTimeTestFunction(
            TensorBump(center=(0.05, 0.0), halfwidth=(0.45, 0.5)),
            CircleFunction.random_real(5, np.random.default_rng(6)),
            "straddle",
        )
        vals_no.append(max(abs(r) for r in kinetic_residual(m, None, [zeta])))
        vals_yes.append(max(abs(r) for r in kinetic_residual(m, JumpLineMeasure(spec), [zeta])))
    assert vals_no[-1] > 1e-2          # without the measure the identity fails
    assert vals_yes[-1] < 1e-4         # the jump oracle balances it
    assert vals_yes[1] < 0.5 * vals_yes[0] + 1e-12


def test_jump_measure_pairs_like_entropy_jump_cost():
    """Disintegration oracle: the line density pairs f into the flux difference
    of the generated entropy across the line."""
    from eelab.entropy import generated_entropy

    spec = JumpSpec()
    rng = np.random.default_rng(7)
    for _ in range(4):
        f = CircleFunction.random_real(6, rng)
        n = spec.unit_normal()
        tp, tm = spec.theta_plus, spec.theta_minus
        # int S f ds with the zero-mean normalization of the primitive S:
        # integrate by parts against the periodic antiderivative of f - <f,1>
        F = (f - CircleFunction.constant(f.mean)).antiderivative()
        Fc = F.mul_mode(1, 0.5) + F.mul_mode(-1, 0.5)
        Fs = F.mul_mode(1, -0.5j) + F.mul_mode(-1, 0.5j)
        c_plus, s_plus = chi_pairing([Fc, Fs], np.array(tp))
        c_minus, s_minus = chi_pairing([Fc, Fs], np.array(tm))
        pairing = -float(n[0] * (c_plus - c_minus) + n[1] * (s_plus - s_minus))
        em = generated_entropy(f)
        flux = float(n @ (em.values(tp) - em.values(tm)))
        assert pairing == pytest.approx(flux, abs=1e-12)


def test_residual_rejects_boundary_support():
    # on 32 cells of [-1, 1] the outermost ring has its centers at |x| = 0.96875
    g = centered_grid(32, 2.0)
    m = build_field(ConstantSpec(0.0), g)
    q = CircleFunction.cosine(1)
    # supports inside the domain, the last two on the outermost ring, the last ending on the edge
    for bump in (TensorBump(center=(0.5, 0.0), halfwidth=(0.45, 0.3)),
                 TensorBump(center=(0.6, 0.0), halfwidth=(0.38, 0.38)),
                 RadialBump(center=(0.0, -0.2), r0=0.4, width=0.4)):
        inside = SpaceTimeTestFunction(bump, q, "inside")
        assert edge_test_functions(g, [inside]) == []
        assert len(kinetic_residual(m, None, [inside])) == 1
    for bump in (TensorBump(center=(0.9, 0.0), halfwidth=(0.4, 0.4)),
                 TensorBump(center=(0.0, -0.6), halfwidth=(0.3, 0.45)),
                 RadialBump(center=(0.0, 0.2), r0=0.4, width=0.45)):
        zeta = SpaceTimeTestFunction(bump, q, "edge")
        assert edge_test_functions(g, [inside, zeta]) == ["edge"]
        with pytest.raises(ValueError, match="'edge'.*boundary"):
            kinetic_residual(m, None, [inside, zeta])


def test_residual_with_factorized_measure_refines():
    """Weak identity with the factorized measure on mollified rigid fields:
    the residual vanishes to discretization order along the eps/spacing-fixed
    refinement ladder."""
    from eelab.grids import VortexSpec

    worsts = []
    for n, eps in ((64, 0.24), (128, 0.12), (256, 0.06)):
        g = centered_grid(n, 2.4)
        m = build_field(VortexSpec(), g)
        sig = factorized_measure(mollified_level(m, eps))
        z = SpaceTimeTestFunction(
            RadialBump(center=(0, 0), r0=0.7, width=0.3),
            CircleFunction.random_real(5, np.random.default_rng(2)), "ann")
        worsts.append(max(abs(r) for r in kinetic_residual(m, sig, [z])))
    assert worsts[1] < 0.25 * worsts[0]
    assert worsts[2] < 0.25 * worsts[1]

"""Kinetic density, weak kinetic identity, and the factorized kinetic measure.

The kinetic density chi(x, s) = 1_{e^{is}.m(x) > 0} of a unit field is an
arc indicator per cell.  The weak identity pairs it against smooth test
functions zeta(x, s) = bump(x) q(s):

    residual(zeta) = iint chi e^{is}.grad_x zeta dx ds - iint d_s zeta dsigma,

with the sign convention validated on constant fields.  The factorized
measure attaches to each cell two symmetric atoms at theta +- pi/2 of weight
g/2 and a uniform density -g/(2 pi), with g the rotated Jin-Kohn production;
atoms are kept symbolic, so pairings are exact for the atomic part and
lattice-quadrature based only for the Lebesgue part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .bumps import RadialBump, TensorBump
from .circle import CircleFunction
from .grids import (
    AngleField,
    BoolArray,
    Grid2,
    JumpSpec,
    ScalarField,
    VecField,
    combine_masks,
)

FloatArray = NDArray[np.float64]

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# angles and the indicator lattice
# ---------------------------------------------------------------------------


def theta_of_vec(v: VecField, dead_radius: float = 0.5) -> tuple[ScalarField, BoolArray]:
    """Angle of a vector field with range normalization.

    Returns the angle field and the mask of live cells; cells with
    |v| < dead_radius sit in the extension dead zone and are flagged off.
    """
    ang = np.mod(np.arctan2(v.values[..., 1], v.values[..., 0]), TWO_PI)
    live = v.magnitude() >= dead_radius
    return ScalarField(v.grid, ang, mask=combine_masks(v.mask, live)), live


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


def arc_integral(q: CircleFunction, lo: FloatArray, hi: FloatArray) -> FloatArray:
    """int_lo^hi q(s) ds for a band-limited q, exact (spectral antiderivative)."""
    mean = q.mean
    osc = q - CircleFunction.constant(mean)
    prim = osc.antiderivative()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    vals = prim(hi) - prim(lo) + mean * (hi - lo)
    return np.real(vals) if q.is_real() else vals


def chi_pairing(q: CircleFunction, theta: FloatArray) -> FloatArray:
    """int chi(x, s) q(s) ds = int over the arc (theta - pi/2, theta + pi/2)."""
    theta = np.asarray(theta, dtype=float)
    return arc_integral(q, theta - np.pi / 2, theta + np.pi / 2)


@dataclass(frozen=True)
class ChiDifferenceReport:
    max_ratio: float
    bound: float
    passed: bool
    n_pairs: int


def chi_difference_bound(
    m: AngleField, q: CircleFunction, rng: np.random.Generator, n_pairs: int = 256
) -> ChiDifferenceReport:
    """|int (chi(x0,.) - chi(x1,.)) q ds| <= C ||q||_inf |m(x0) - m(x1)|.

    Samples random cell pairs and reports the worst ratio; the arc geometry
    gives the explicit constant pi.
    """
    ny, nx = m.grid.ny, m.grid.nx
    i0 = rng.integers(0, nx, n_pairs)
    j0 = rng.integers(0, ny, n_pairs)
    i1 = rng.integers(0, nx, n_pairs)
    j1 = rng.integers(0, ny, n_pairs)
    th0 = m.theta[j0, i0]
    th1 = m.theta[j1, i1]
    lhs = np.abs(chi_pairing(q, th0) - chi_pairing(q, th1))
    dm = np.hypot(np.cos(th0) - np.cos(th1), np.sin(th0) - np.sin(th1))
    qsup = q.sup_norm()
    good = dm > 1e-13
    ratio = float(np.max(lhs[good] / (qsup * dm[good]), initial=0.0))
    return ChiDifferenceReport(
        max_ratio=ratio, bound=np.pi + 1e-9, passed=bool(ratio <= np.pi + 1e-9),
        n_pairs=int(good.sum()),
    )


# ---------------------------------------------------------------------------
# the factorized measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KineticMeasure:
    """Per-cell measure: atoms of weight g/2 at theta +- pi/2, uniform -g/(2 pi).

    Total mass vanishes exactly; total variation is 2|g|.
    """

    grid: Grid2
    theta: FloatArray
    g: FloatArray
    mask: BoolArray | None = None

    def nu(self) -> ScalarField:
        """Total variation |sigma_x| = 2|g| per cell."""
        return ScalarField(self.grid, 2.0 * np.abs(self.g), mask=self.mask)

    def effective_mask(self) -> BoolArray:
        if self.mask is None:
            return np.ones((self.grid.ny, self.grid.nx), dtype=bool)
        return self.mask

    def integrate(self, f: CircleFunction, ns: int = 256) -> FloatArray:
        """int f dsigma_x per cell: exact atoms, lattice mean for the density."""
        s = (np.arange(ns) + 0.5) * TWO_PI / ns
        lebesgue_mean = float(np.mean(f.real_values(s)))
        atoms = 0.5 * (
            f.real_values(self.theta + np.pi / 2) + f.real_values(self.theta - np.pi / 2)
        )
        return (atoms - lebesgue_mean) * self.g


def factorized_measure(theta: ScalarField, div_sigma: tuple[ScalarField, ScalarField]) -> KineticMeasure:
    """Measure with density g = e^{i 2 theta} . (divS1, divS2) per cell."""
    s1, s2 = div_sigma
    g = np.cos(2 * theta.values) * s1.values + np.sin(2 * theta.values) * s2.values
    mask = combine_masks(theta.mask, s1.mask, s2.mask)
    return KineticMeasure(grid=theta.grid, theta=theta.values.copy(), g=g, mask=mask)


def pair_measure(sigma: KineticMeasure, f: CircleFunction, zeta: ScalarField, ns: int = 256) -> float:
    """sum over cells of (int f dsigma_x) zeta(x) cell-area."""
    vals = sigma.integrate(f, ns=ns)
    where = combine_masks(sigma.mask, zeta.mask)
    if where is None:
        return float(np.sum(vals * zeta.values) * sigma.grid.cell_area())
    return float(np.sum(vals[where] * zeta.values[where]) * sigma.grid.cell_area())


# ---------------------------------------------------------------------------
# jump-line measure oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpLineMeasure:
    """Kinetic measure of a half-plane jump: an s-density on the jump line.

    The density primitive S satisfies S'(s) = (e^{is}.normal)(chi+ - chi-)(s);
    periodicity of S is exactly the divergence-free trace condition.  Pairings
    against d_s zeta integrate by parts, so only S' is ever evaluated.
    """

    spec: JumpSpec

    def pair_ds(self, bump, grid: Grid2, q: CircleFunction) -> float:
        """iint d_s zeta dsigma for zeta = bump(x) q(s), exact in s."""
        n = self.spec.unit_normal()
        tau = np.array([-n[1], n[0]])
        px, py = self.spec.point
        lx, ly = grid.extent
        # arclength parametrization clipped to the grid rectangle
        tmax = float(np.hypot(lx, ly))
        ts = np.arange(-tmax, tmax + grid.spacing / 2, grid.spacing)
        xs = px + ts * tau[0]
        ys = py + ts * tau[1]
        inside = (
            (xs >= grid.origin[0]) & (xs <= grid.origin[0] + lx)
            & (ys >= grid.origin[1]) & (ys <= grid.origin[1] + ly)
        )
        xs, ys = xs[inside], ys[inside]
        qc = q.mul_mode(1, 0.5) + q.mul_mode(-1, 0.5)        # cos(s) q(s)
        qs = q.mul_mode(1, -0.5j) + q.mul_mode(-1, 0.5j)     # sin(s) q(s)
        tp, tm = self.spec.theta_plus, self.spec.theta_minus
        ic = chi_pairing(qc, np.array(tp)) - chi_pairing(qc, np.array(tm))
        isn = chi_pairing(qs, np.array(tp)) - chi_pairing(qs, np.array(tm))
        line_factor = -float(n[0] * ic + n[1] * isn)
        weights = np.full(xs.shape, grid.spacing)
        return float(np.sum(bump(xs, ys) * weights) * line_factor)


# ---------------------------------------------------------------------------
# weak kinetic residual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpaceTimeTestFunction:
    """zeta(x, s) = bump(x) q(s), smooth and compactly supported in x."""

    bump: RadialBump | TensorBump
    q: CircleFunction
    label: str = ""


@dataclass(frozen=True)
class KineticResidualReport:
    residuals: tuple[float, ...]
    labels: tuple[str, ...]

    def worst(self) -> float:
        return max(abs(r) for r in self.residuals)


def kinetic_residual(
    m: AngleField,
    sigma: KineticMeasure | JumpLineMeasure | None,
    zetas: list[SpaceTimeTestFunction],
    interior_margin: float = 0.0,
) -> KineticResidualReport:
    """Weak kinetic identity residuals, one per test function.

    The transport term is exact in s (spectral arc integrals) and midpoint in
    x; the measure term is exact for atoms and for the jump-line oracle.
    Test functions whose support touches the boundary mask are rejected.
    """
    grid = m.grid
    X, Y = grid.meshgrid()
    interior = grid.interior_mask(interior_margin)
    area = grid.cell_area()
    out = []
    labels = []
    for zeta in zetas:
        supp = zeta.bump(X, Y) > 0
        if np.any(supp & ~interior):
            raise ValueError("test-function support touches the boundary mask")
        gx, gy = zeta.bump.gradient(X, Y)
        qc = zeta.q.mul_mode(1, 0.5) + zeta.q.mul_mode(-1, 0.5)     # cos(s) q(s)
        qs = zeta.q.mul_mode(1, -0.5j) + zeta.q.mul_mode(-1, 0.5j)  # sin(s) q(s)
        transport = float(
            np.sum(gx * chi_pairing(qc, m.theta) + gy * chi_pairing(qs, m.theta)) * area
        )
        if sigma is None:
            measure_term = 0.0
        elif isinstance(sigma, JumpLineMeasure):
            measure_term = sigma.pair_ds(zeta.bump, grid, zeta.q)
        else:
            zfield = ScalarField(grid, zeta.bump(X, Y))
            measure_term = pair_measure(sigma, zeta.q.derivative(), zfield)
        out.append(transport - measure_term)
        labels.append(zeta.label or f"zeta{len(out)}")
    return KineticResidualReport(residuals=tuple(out), labels=tuple(labels))


def test_function_suite(
    rng: np.random.Generator,
    n: int,
    center_box: float,
    width_range: tuple[float, float],
    band: int = 6,
) -> list[SpaceTimeTestFunction]:
    """Deterministic suite of tensor-bump x trig-polynomial test functions."""
    suite = []
    for k in range(n):
        c = rng.uniform(-center_box, center_box, 2)
        wdt = rng.uniform(*width_range, 2)
        q = CircleFunction.random_real(band, rng)
        suite.append(
            SpaceTimeTestFunction(
                bump=TensorBump(center=(float(c[0]), float(c[1])), halfwidth=(float(wdt[0]), float(wdt[1]))),
                q=q,
                label=f"tensor-{k}",
            )
        )
    return suite

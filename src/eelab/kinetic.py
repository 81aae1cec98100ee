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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .bumps import RadialBump, TensorBump
from .circle import CircleFunction, _block_values
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
# angles and arc pairings
# ---------------------------------------------------------------------------


def theta_of_vec(v: VecField) -> tuple[ScalarField, BoolArray]:
    """Angle of a vector field with range normalization.

    Returns the angle field and the mask of live cells; cells with
    |v| < 1/2 sit in the extension dead zone and are flagged off.
    """
    ang = np.mod(np.arctan2(v.values[..., 1], v.values[..., 0]), TWO_PI)
    live = v.magnitude() >= 0.5
    return ScalarField(v.grid, ang, mask=combine_masks(v.mask, live)), live


def _cos_sin_times(q: CircleFunction) -> tuple[CircleFunction, CircleFunction]:
    """cos(s) q(s) and sin(s) q(s)."""
    return q.mul_mode(1, 0.5) + q.mul_mode(-1, 0.5), q.mul_mode(1, -0.5j) + q.mul_mode(-1, 0.5j)


def arc_integral(qs: Sequence[CircleFunction], lo: FloatArray, hi: FloatArray) -> list[FloatArray]:
    """int_lo^hi q(s) ds for each band-limited q in qs, exact (spectral antiderivative).

    The primitives P of all of qs are evaluated on hi and lo together in the row
    blocks of :mod:`~eelab.circle` (``_block_values``: per block, one Fourier
    basis per band and angle array), and each block's P(hi) - P(lo) + mean
    (hi - lo) is written straight into the outputs, real for a real q; a
    one-row tail joins the block before it.  No full complex array is held.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    lo_flat, hi_flat = np.ravel(lo), np.ravel(hi)
    means = [q.mean for q in qs]
    prims = [(q - CircleFunction.constant(mean)).antiderivative() for q, mean in zip(qs, means)]
    reals = [q.is_real() for q in qs]
    out = [np.empty(hi.shape, dtype=float if real else np.complex128) for real in reals]
    flat = [o.reshape(-1) for o in out]
    for rows, i, (p_hi, p_lo) in _block_values(prims, hi_flat, lo_flat):
        vals = p_hi - p_lo + means[i] * (hi_flat[rows] - lo_flat[rows])
        flat[i][rows] = vals.real if reals[i] else vals
    return out if hi.ndim else [o[()] for o in out]


def chi_pairing(qs: Sequence[CircleFunction], theta: FloatArray) -> list[FloatArray]:
    """int chi(x, s) q(s) ds = int over the arc (theta - pi/2, theta + pi/2), per q in qs."""
    theta = np.asarray(theta, dtype=float)
    return arc_integral(qs, theta - np.pi / 2, theta + np.pi / 2)


def chi_difference_bound(m: AngleField, q: CircleFunction, rng: np.random.Generator) -> float:
    """The worst ratio of |int (chi(x0,.) - chi(x1,.)) q ds| to ||q||_inf |m(x0) - m(x1)|
    over 256 random cell pairs; the arc geometry bounds it by the constant pi.
    """
    ny, nx = m.grid.ny, m.grid.nx
    i0, j0, i1, j1 = (rng.integers(0, k, 256) for k in (nx, ny, nx, ny))
    th0 = m.theta[j0, i0]
    th1 = m.theta[j1, i1]
    lhs = np.abs(chi_pairing([q], th0)[0] - chi_pairing([q], th1)[0])
    dm = np.hypot(np.cos(th0) - np.cos(th1), np.sin(th0) - np.sin(th1))
    qsup = q.sup_norm()
    good = dm > 1e-13
    return float(np.max(lhs[good] / (qsup * dm[good]), initial=0.0))


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

    def integrate(self, f: CircleFunction) -> FloatArray:
        """int f dsigma_x per cell: exact atoms, 256-point lattice mean for the density."""
        return self.integrate_atoms(f, atom_mean(f, self.theta))

    def integrate_atoms(self, f: CircleFunction, atoms: FloatArray) -> FloatArray:
        """``integrate(f)`` from ``atoms = atom_mean(f, self.theta)``."""
        s = (np.arange(256) + 0.5) * TWO_PI / 256
        lebesgue_mean = float(np.mean(f.real_values(s)))
        return (atoms - lebesgue_mean) * self.g


def atom_mean(f: CircleFunction, theta) -> FloatArray:
    """(f(theta + pi/2) + f(theta - pi/2))/2: f averaged over a cell's two atoms."""
    theta = np.asarray(theta, dtype=float)
    return 0.5 * (f.real_values(theta + np.pi / 2) + f.real_values(theta - np.pi / 2))


def rotated_production(theta: FloatArray, div_sigma: tuple[ScalarField, ScalarField]) -> FloatArray:
    """The rotated Jin-Kohn production g = e^{i 2 theta} . (divS1, divS2) per cell."""
    s1, s2 = div_sigma
    return np.cos(2 * theta) * s1.values + np.sin(2 * theta) * s2.values


def pair_measure(sigma: KineticMeasure, f: CircleFunction, zeta: ScalarField) -> float:
    """sum over cells of (int f dsigma_x) zeta(x) cell-area."""
    return pair_cells(sigma, sigma.integrate(f), zeta)


def pair_cells(sigma: KineticMeasure, vals: FloatArray, zeta: ScalarField) -> float:
    """sum over the cells of sigma and zeta of vals(x) zeta(x) cell-area."""
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
        # arclength parametrization clipped to the grid rectangle
        tmax = float(np.hypot(*grid.extent))
        ts = np.arange(-tmax, tmax + grid.spacing / 2, grid.spacing)
        xs = px + ts * tau[0]
        ys = py + ts * tau[1]
        inside = grid.contains(xs, ys)
        xs, ys = xs[inside], ys[inside]
        qc, qs = _cos_sin_times(q)
        tp, tm = self.spec.theta_plus, self.spec.theta_minus
        c_plus, s_plus = chi_pairing([qc, qs], np.array(tp))
        c_minus, s_minus = chi_pairing([qc, qs], np.array(tm))
        ic = c_plus - c_minus
        isn = s_plus - s_minus
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


def edge_test_functions(grid: Grid2, zetas: list[SpaceTimeTestFunction]) -> list[str]:
    """Labels of the test functions whose support leaves the grid's domain (its edge cuts them):
    those with a corner of the support's bounding box outside ``grid.contains``."""
    def corners(z):
        (cx, cy), (rx, ry) = z.bump.center, z.bump.reach()
        return (cx - rx, cy - ry), (cx + rx, cy + ry)
    return [z.label for z in zetas if not all(grid.contains(*c) for c in corners(z))]


def kinetic_residual(
    m: AngleField,
    sigma: KineticMeasure | JumpLineMeasure | None,
    zetas: list[SpaceTimeTestFunction],
) -> list[float]:
    """Weak kinetic identity residuals, one per test function.

    The transport term is exact in s (spectral arc integrals) and midpoint in
    x; the measure term is exact for atoms and for the jump-line oracle.
    Test functions whose support leaves the grid's domain (``edge_test_functions``)
    are rejected.
    """
    grid = m.grid
    if edge := edge_test_functions(grid, zetas):
        raise ValueError(f"test functions {edge} are cut off by the grid boundary")
    X, Y = grid.meshgrid()
    area = grid.cell_area()
    # cos(s) q(s) and sin(s) q(s) of every test function, paired in one call
    pairs = [_cos_sin_times(z.q) for z in zetas]
    pairings = chi_pairing([c for c, _ in pairs] + [s for _, s in pairs], m.theta)
    out = []
    for zeta, chi_c, chi_s in zip(zetas, pairings[: len(zetas)], pairings[len(zetas):]):
        gx, gy = zeta.bump.gradient(X, Y)
        transport = float(np.sum(gx * chi_c + gy * chi_s) * area)
        if sigma is None:
            measure_term = 0.0
        elif isinstance(sigma, JumpLineMeasure):
            measure_term = sigma.pair_ds(zeta.bump, grid, zeta.q)
        else:
            zfield = ScalarField(grid, zeta.bump(X, Y))
            measure_term = pair_measure(sigma, zeta.q.derivative(), zfield)
        out.append(transport - measure_term)
    return out


def test_function_suite(
    rng: np.random.Generator,
    n: int,
    center_box: float,
    width_range: tuple[float, float],
) -> list[SpaceTimeTestFunction]:
    """Deterministic suite of tensor-bump x band-6 trig-polynomial test functions."""
    suite = []
    for k in range(n):
        c = rng.uniform(-center_box, center_box, 2)
        wdt = rng.uniform(*width_range, 2)
        q = CircleFunction.random_real(6, rng)
        suite.append(
            SpaceTimeTestFunction(
                bump=TensorBump(center=(float(c[0]), float(c[1])), halfwidth=(float(wdt[0]), float(wdt[1]))),
                q=q,
                label=f"tensor-{k}",
            )
        )
    return suite

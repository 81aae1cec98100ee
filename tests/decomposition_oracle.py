"""Oracles shared by several test modules (``eelab run`` evaluates neither),
not collected as tests: the harmonic-entropy production decomposition, and
the radial extension of one entropy as an :class:`ExtendedEntropy` with a
Jacobian."""

from dataclasses import dataclass

import numpy as np

from eelab.circle import CircleFunction
from eelab.entropy import (
    DiskHarmonic,
    EntropyMap,
    ExtendedEntropy,
    RadialCutoff,
    _pt,
    harmonic_entropy,
    q_coefficients,
    radial_values,
)
from eelab.grids import BoolArray, VecField, combine_masks, divergence, lp_norm
from eelab.production import div_entropy, div_sigma_closed


def harmonic_extension(psi: CircleFunction) -> DiskHarmonic:
    """Extend a circle function into the disk, mode k -> r^{|k|} e^{ik theta}."""
    pos = np.zeros(psi.band + 1, dtype=np.complex128)
    neg = np.zeros(psi.band, dtype=np.complex128)
    for k in range(psi.band + 1):
        pos[k] = psi.coeff(k)
    for k in range(1, psi.band + 1):
        neg[k - 1] = psi.coeff(-k)
    return DiskHarmonic(pos, neg)


def b_coefficients(phi: DiskHarmonic, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flux pair B = (B_1, B_2) multiplying (1 - |z|^2) in the decomposition."""
    z = np.asarray(z, dtype=np.complex128)
    x, y = z.real, z.imag
    b1 = _pt(phi, 1, 0, z) - 0.5 * x * _pt(phi, 0, 2, z) + 0.5 * y * _pt(phi, 1, 1, z)
    b2 = _pt(phi, 0, 1, z) - 0.5 * y * _pt(phi, 2, 0, z) + 0.5 * x * _pt(phi, 1, 1, z)
    return b1, b2


@dataclass(frozen=True)
class DecompositionResidual:
    spacing: float
    l2_residual: float
    l2_lhs: float


def harmonic_production_identity(
    v: VecField, phi: DiskHarmonic, region: BoolArray | None = None, div_tol: float | None = None
) -> DecompositionResidual:
    """Residual of the harmonic-entropy production decomposition at one grid.

    For v mollified from a divergence-free unit field,

        div Phi^phi(v) = Q1(v) divS1(v) + Q2(v) divS2(v) - div((1-|v|^2) B(v)),

    where divS-j are the closed-form Jin-Kohn productions.  Both sides use
    the same central-difference stencil; the L^2 residual over the subdomain
    must converge at second order under grid refinement.
    """
    tol = div_tol if div_tol is not None else 10.0 * v.grid.spacing**2
    dv = divergence(v)
    where0 = combine_masks(dv.effective_mask(), region)
    if float(np.max(np.abs(dv.values[where0]), initial=0.0)) > max(tol, 1e-8):
        raise ValueError(
            "input field is not divergence-free within tolerance "
            f"(max |div| = {np.max(np.abs(dv.values[where0])):.3e})"
        )
    lhs = div_entropy(v, harmonic_entropy(phi))
    s1, s2 = div_sigma_closed(v)
    z = v.values[..., 0] + 1j * v.values[..., 1]
    q1 = np.real(q_coefficients(phi, z)[0])
    q2 = np.real(q_coefficients(phi, z)[1])
    b1, b2 = b_coefficients(phi, z)
    fac = 1.0 - (v.values[..., 0] ** 2 + v.values[..., 1] ** 2)
    bfield = np.stack([fac * np.real(b1), fac * np.real(b2)], axis=-1)
    rhs = q1 * s1.values + q2 * s2.values - divergence(VecField(v.grid, bfield)).values
    where = combine_masks(lhs.effective_mask(), s1.effective_mask(), region)
    resid = lp_norm(lhs.values - rhs, v.grid, 2, where)
    return DecompositionResidual(
        spacing=v.grid.spacing,
        l2_residual=resid,
        l2_lhs=lp_norm(lhs.values, v.grid, 2, where),
    )


def refinement_order(residuals: list[DecompositionResidual]) -> float:
    """Least-squares convergence order across a refinement ladder."""
    hs = np.array([r.spacing for r in residuals])
    rs = np.array([r.l2_residual for r in residuals])
    if np.any(rs <= 0):
        return float("inf")
    return float(np.polyfit(np.log(hs), np.log(rs), 1)[0])


def cutoff_derivative(r) -> np.ndarray:
    """d eta/dr of :class:`RadialCutoff`, from the derivative of its quintic ramps."""
    def step_d(x: np.ndarray) -> np.ndarray:
        inside = (x > 0) & (x < 1)
        x = np.clip(x, 0.0, 1.0)
        return np.where(inside, 30 * x**2 * (1 - x) ** 2, 0.0)

    r = np.asarray(r, dtype=float)
    rising = 2.0 * step_d((r - 0.5) * 2.0)
    falling = -step_d(2.0 - r)
    return np.where(r <= 1.0, rising, falling)


def radial_extension(phi: EntropyMap) -> ExtendedEntropy:
    """Extension eta(|z|) Phi(z/|z|), supported on the annulus 1/2 <= |z| <= 2.

    Its values are the one-entropy case of :func:`eelab.entropy.radial_values`,
    the path ``eelab run`` takes for a whole entropy suite at once.
    """
    eta = RadialCutoff()
    f1, f2 = phi.comp1, phi.comp2
    d1, d2 = f1.derivative(), f2.derivative()

    def val(v: np.ndarray) -> np.ndarray:
        return radial_values([phi], v)[0]

    def jac(v: np.ndarray) -> np.ndarray:
        r = np.hypot(v[..., 0], v[..., 1])
        omega = np.arctan2(v[..., 1], v[..., 0])
        safe = np.maximum(r, 1e-300)
        e, ed = eta(r), cutoff_derivative(r)
        p = np.stack([f1.real_values(omega), f2.real_values(omega)], axis=-1)
        dp = np.stack([d1.real_values(omega), d2.real_values(omega)], axis=-1)
        rad = np.stack([v[..., 0], v[..., 1]], axis=-1) / safe[..., None]
        tang = np.stack([-v[..., 1], v[..., 0]], axis=-1) / (safe**2)[..., None]
        out = (
            ed[..., None, None] * p[..., :, None] * rad[..., None, :]
            + e[..., None, None] * dp[..., :, None] * tang[..., None, :]
        )
        return np.where((r > 0)[..., None, None], out, 0.0)

    return ExtendedEntropy("radial", val, jac)

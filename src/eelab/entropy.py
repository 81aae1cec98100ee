"""Entropies on the circle and their extensions to the disk and plane.

An entropy is a map Phi: S^1 -> R^2 whose tangential derivative is
orthogonal to the position, e^{it} . (d/dt)Phi(e^{it}) = 0.  This module
builds the concrete families used throughout the package:

* the two cubic Jin-Kohn entropies with exact derivatives on all of R^2,
* the family generated by a circle function f (antidifferentiation of the
  projected generator, then a quarter-turn difference),
* harmonic entropies Phi^phi(z) = phi(z) z + ((iz).grad phi)(iz) for
  harmonic phi on the closed unit disk, together with the coefficient
  fields Q_j, A_j entering the production decomposition,
* radial cutoff extensions eta(|z|) Phi(z/|z|).

All circle-side calculus is exact coefficient arithmetic on
:class:`~eelab.circle.CircleFunction`; disk-side evaluation uses closed-form
complex monomial derivatives.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np
from numpy.typing import NDArray

from .circle import CircleFunction, _block_values

FloatArray = NDArray[np.float64]


# ---------------------------------------------------------------------------
# entropy maps on S^1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyMap:
    """The two components of an entropy restricted to the circle."""

    comp1: CircleFunction
    comp2: CircleFunction

    @staticmethod
    def from_complex(f: CircleFunction) -> "EntropyMap":
        return EntropyMap(f.real_part(), f.imag_part())

    def as_complex(self) -> CircleFunction:
        return self.comp1 + self.comp2 * 1j

    def values(self, t) -> FloatArray:
        """Sample Phi(e^{it}) as an (..., 2) real array, both components in one pass of
        the row blocks of :mod:`~eelab.circle`."""
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (2,))
        flat = out.reshape(-1, 2)
        for rows, i, (vals,) in _block_values([self.comp1, self.comp2], t):
            flat[rows, i] = vals.real
        return out

    def c2_norm(self) -> float:
        """max over 4096 circle samples of |Phi|, |Phi'|, |Phi''| (Euclidean norm)."""
        t = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        worst = 0.0
        f = self.as_complex()
        for order in range(3):
            worst = max(worst, float(np.max(np.abs(f.derivative(order)(t)))))
        return worst

    def to_json(self) -> dict:
        return {"comp1": self.comp1.to_json(), "comp2": self.comp2.to_json(), "kind": "entropy-map"}


def ent_residual(phi: EntropyMap) -> CircleFunction:
    """The membership defect t -> e^{it} . (d/dt)Phi(e^{it}), computed spectrally.

    Phi is an entropy iff the result is identically zero.
    """
    df = phi.as_complex().derivative()
    # u . v = Re(conj(u) v) with u = e^{it}
    return (df.mul_mode(-1) + df.mul_mode(-1).conjugate()) * 0.5


# ---------------------------------------------------------------------------
# Jin-Kohn entropies
# ---------------------------------------------------------------------------

#: exact circle restrictions (verified against the defining polynomials in tests)
_JK1_CIRCLE = CircleFunction.from_modes({-1: 0.5j, 3: 1j / 6})
_JK2_CIRCLE = CircleFunction.from_modes({-1: -0.5, 3: 1.0 / 6})


def _sigma1_value(v: FloatArray) -> FloatArray:
    v1, v2 = v[..., 0], v[..., 1]
    return np.stack(
        [v2 * (1 - v1**2 - v2**2 / 3), v1 * (1 - v2**2 - v1**2 / 3)], axis=-1
    )


def _sigma1_jacobian(v: FloatArray) -> FloatArray:
    v1, v2 = v[..., 0], v[..., 1]
    j = np.empty(v.shape[:-1] + (2, 2))
    j[..., 0, 0] = -2 * v1 * v2
    j[..., 0, 1] = 1 - v1**2 - v2**2
    j[..., 1, 0] = 1 - v1**2 - v2**2
    j[..., 1, 1] = -2 * v1 * v2
    return j


def _sigma2_value(v: FloatArray) -> FloatArray:
    v1, v2 = v[..., 0], v[..., 1]
    return np.stack([-v1 * (1 - 2 * v1**2 / 3), v2 * (1 - 2 * v2**2 / 3)], axis=-1)


def _sigma2_jacobian(v: FloatArray) -> FloatArray:
    v1, v2 = v[..., 0], v[..., 1]
    j = np.zeros(v.shape[:-1] + (2, 2))
    j[..., 0, 0] = -1 + 2 * v1**2
    j[..., 1, 1] = 1 - 2 * v2**2
    return j


# ---------------------------------------------------------------------------
# the generated family Phi_f
# ---------------------------------------------------------------------------


def generator_psi_phi(f: CircleFunction) -> tuple[CircleFunction, CircleFunction]:
    """The two intermediate primitives (psi, phi) of the generated entropy."""
    g = f.drop_modes({-1, 0, 1})
    psi = g.antiderivative()
    return psi, psi.mul_mode(1, 1j).antiderivative()


def generated_entropy(f: CircleFunction) -> EntropyMap:
    """Entropy generated by a real band-limited circle function f.

    The generator is projected off its constant and first-harmonic modes,
    antidifferentiated twice against ie^{is}, and combined at a quarter turn:

        psi(t)  = int_0^t [f - <f,1> - 2<f,cos>cos - 2<f,sin>sin] ds
        phi(t)  = int_0^t psi(s) i e^{is} ds
        Phi(e^{it}) = -i phi(t - pi/2) + i phi(t + pi/2)

    The result is band-limited with band <= band(f) + 1 and always satisfies
    the entropy condition exactly (checked in tests).
    """
    if not f.is_real():
        raise ValueError("generator must be a real-valued circle function")
    _, phi = generator_psi_phi(f)
    ks = np.arange(-phi.band, phi.band + 1)
    combined = CircleFunction(phi.coeffs * (-2.0 * np.sin(ks * np.pi / 2)))
    return EntropyMap.from_complex(combined)


def generated_entropy_closed_form(k: int, j: Literal[1, 2]) -> EntropyMap:
    """Closed form of the generated entropy for f = cos(kt) (j=1) or sin(kt) (j=2).

    Valid for k >= 2; the formulas carry 1/(k-1) denominators.
    """
    if k < 2:
        raise ValueError(f"closed form requires k >= 2, got k={k}")
    c = np.cos(k * np.pi / 2)
    if j == 1:
        f = CircleFunction.from_modes(
            {k + 1: 1j * c / (k * (k + 1)), -(k - 1): 1j * c / (k * (k - 1))}
        )
    elif j == 2:
        f = CircleFunction.from_modes(
            {1: -2.0 / k, k + 1: c / (k * (k + 1)), -(k - 1): -c / (k * (k - 1))}
        )
    else:
        raise ValueError("j must be 1 or 2")
    return EntropyMap.from_complex(f)


def jin_kohn_circle(j: Literal[1, 2]) -> EntropyMap:
    """Restriction of the Jin-Kohn entropy to the circle (exact trig expansion)."""
    return EntropyMap.from_complex(_JK1_CIRCLE if j == 1 else _JK2_CIRCLE)


# ---------------------------------------------------------------------------
# harmonic functions on the disk
# ---------------------------------------------------------------------------


def _falling(k: np.ndarray, m: int) -> np.ndarray:
    out = np.ones_like(k, dtype=float)
    for i in range(m):
        out = out * np.maximum(k - i, 0)
    return out


@dataclass(frozen=True)
class DiskHarmonic:
    """Harmonic polynomial on the closed unit disk.

    Stored as complex coefficients of z^k (``pos``, k >= 0) and of
    conj(z)^k (``neg``, k >= 1).  Real-valued harmonics have
    neg[k-1] = conj(pos[k]); the classical basis r^k cos(k theta),
    r^k sin(k theta) corresponds to the real/imaginary parts of z^k.
    All partial derivatives are available in closed form, so evaluation
    of anything up to third order is exact.
    """

    pos: NDArray[np.complex128]
    neg: NDArray[np.complex128]

    @staticmethod
    def from_real_basis(alpha: np.ndarray, beta: np.ndarray) -> "DiskHarmonic":
        """phi = sum_k alpha_k r^k cos(k theta) + beta_k r^k sin(k theta)."""
        alpha = np.asarray(alpha, dtype=float)
        beta = np.asarray(beta, dtype=float)
        n = max(alpha.size, beta.size)
        a = np.zeros(n)
        b = np.zeros(n)
        a[: alpha.size] = alpha
        b[: beta.size] = beta
        pos = np.zeros(n, dtype=np.complex128)
        neg = np.zeros(max(n - 1, 0), dtype=np.complex128)
        pos[0] = a[0]
        for k in range(1, n):
            pos[k] = (a[k] - 1j * b[k]) / 2
            neg[k - 1] = (a[k] + 1j * b[k]) / 2
        return DiskHarmonic(pos, neg)

    def is_real(self, tol: float = 1e-12) -> bool:
        n = self.pos.size
        neg = np.zeros(max(n - 1, 0), dtype=np.complex128)
        neg[: self.neg.size] = self.neg
        return bool(
            abs(self.pos[0].imag) <= tol
            and np.max(np.abs(neg - np.conj(self.pos[1:])), initial=0.0) <= tol
        )

    def partial(self, ax: int, ay: int) -> "DiskHarmonic":
        """The harmonic function d^{ax}_x d^{ay}_y phi (closed form)."""
        m = ax + ay
        kp = np.arange(self.pos.size)
        kn = np.arange(1, self.neg.size + 1)
        pos_c = self.pos * _falling(kp, m) * (1j) ** ay
        neg_c = self.neg * _falling(kn, m) * (-1j) ** ay
        npos = np.zeros(max(self.pos.size - m, 1), dtype=np.complex128)
        nneg = np.zeros(max(self.neg.size - m, 0), dtype=np.complex128)
        for k in range(m, self.pos.size):
            npos[k - m] += pos_c[k]
        for k in range(m + 1, self.neg.size + 1):
            nneg[k - 1 - m] += neg_c[k - 1]
        # c * zbar^0 terms migrate into pos[0]
        if self.neg.size >= m and m >= 1:
            npos[0] += neg_c[m - 1]
        return DiskHarmonic(npos, nneg)

    def value(self, z: np.ndarray) -> np.ndarray:
        """Evaluate at complex points (arbitrary shape)."""
        z = np.asarray(z, dtype=np.complex128)
        out = np.zeros_like(z)
        zp = np.ones_like(z)
        for k in range(self.pos.size):
            out = out + self.pos[k] * zp
            zp = zp * z
        zb = np.conj(z)
        zp = zb.copy()
        for k in range(self.neg.size):
            out = out + self.neg[k] * zp
            zp = zp * zb
        return out


def generator_harmonic_potential(f: CircleFunction) -> DiskHarmonic:
    """Harmonic potential whose harmonic entropy extends the generated entropy.

    Only the even modes of f contribute; the weight of the 2k-th mode is
    (-1)^k / (k (1-2k)(1+2k)).
    """
    if not f.is_real():
        raise ValueError("generator must be a real-valued circle function")
    n = f.band + 1
    alpha = np.zeros(max(n, 1))
    beta = np.zeros(max(n, 1))
    for k in range(1, f.band // 2 + 1):
        w = (-1.0) ** k / (k * (1 - 2 * k) * (1 + 2 * k))
        alpha[2 * k] = w * f.sin_coeff(2 * k)
        beta[2 * k] = -w * f.cos_coeff(2 * k)
    return DiskHarmonic.from_real_basis(alpha, beta)


def potential_linear_term(f: CircleFunction) -> float:
    """Coefficient 2 sum_{k>=2} b_k(f)/k of the linear correction z."""
    return float(2.0 * sum(f.sin_coeff(k) / k for k in range(2, f.band + 1)))


# ---------------------------------------------------------------------------
# coefficient fields of harmonic entropies
# ---------------------------------------------------------------------------


def _pt(phi: DiskHarmonic, ax: int, ay: int, z: np.ndarray) -> np.ndarray:
    return phi.partial(ax, ay).value(z)


def q_coefficients(phi: DiskHarmonic, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two production-decomposition coefficients Q_1, Q_2 at points z."""
    z = np.asarray(z, dtype=np.complex128)
    x, y = z.real, z.imag
    q1 = 1.5 * _pt(phi, 1, 1, z) - 0.5 * x * _pt(phi, 0, 3, z) + 0.5 * y * _pt(phi, 1, 2, z)
    q2 = -1.5 * _pt(phi, 2, 0, z) + 0.5 * x * _pt(phi, 1, 2, z) - 0.5 * y * _pt(phi, 2, 1, z)
    return q1, q2


def a_coefficients(phi: DiskHarmonic, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rotated coefficients A_1 = e^{i2t}.Q, A_2 = ie^{i2t}.Q at points z."""
    z = np.asarray(z, dtype=np.complex128)
    x, y = z.real, z.imag
    q1, q2 = q_coefficients(phi, z)
    a1 = (x**2 - y**2) * q1 + 2 * x * y * q2
    a2 = -2 * x * y * q1 + (x**2 - y**2) * q2
    return a1, a2


def multiplier(j: Literal[1, 2], psi: CircleFunction) -> CircleFunction:
    """Fourier multiplier form of the production coefficient operators.

    j=1 sends mode k to (ik/2)(k^2-1); j=2 to -(|k|/2)(k^2-1).  Both kill
    the k = 0, +-1 modes.
    """
    ks = np.arange(-psi.band, psi.band + 1)
    if j == 1:
        mult = 0.5j * ks * (ks**2 - 1)
    elif j == 2:
        mult = -0.5 * np.abs(ks) * (ks**2 - 1)
    else:
        raise ValueError("j must be 1 or 2")
    return CircleFunction(psi.coeffs * mult)


def multiplier_differential(psi: CircleFunction) -> CircleFunction:
    """Second evaluation path for the j=1 operator: -(psi''' + psi')/2."""
    return (psi.derivative(3) + psi.derivative(1)) * (-0.5)


# ---------------------------------------------------------------------------
# extended entropies (evaluable off the circle)
# ---------------------------------------------------------------------------


#: the radial cutoff's name, recorded in every result bundle
CUTOFF_PROFILE = "smoothstep-quintic"


class RadialCutoff:
    """Smooth radial profile eta with support [1/2, 2] and eta(1) = 1.

    A quintic smoothstep ramp on each side (``CUTOFF_PROFILE``), which is C^2
    and flat at 1/2, 1 and 2.
    """

    @staticmethod
    def _step(x: np.ndarray) -> np.ndarray:
        x = np.clip(x, 0.0, 1.0)
        return x**3 * (10 - 15 * x + 6 * x**2)

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        rising = self._step((r - 0.5) * 2.0)
        falling = self._step(2.0 - r)
        return np.where(r <= 1.0, rising, falling)


class ExtendedEntropy:
    """An entropy with an evaluator on a 2-D domain off the circle.

    kind is one of ``closed-form`` (polynomial on all of R^2), ``radial``
    (cutoff times circle values, vanishing off the annulus 1/2 <= |z| <= 2)
    or ``harmonic`` (phi z + ((iz).grad phi) iz on the closed unit disk).
    """

    def __init__(
        self,
        kind: str,
        value_fn: Callable[[FloatArray], FloatArray],
        jacobian_fn: Callable[[FloatArray], FloatArray],
        domain_radius: float = np.inf,
    ) -> None:
        self.kind = kind
        self._value = value_fn
        self._jacobian = jacobian_fn
        self.domain_radius = domain_radius

    def check_domain(self, v: FloatArray) -> None:
        if np.isfinite(self.domain_radius):
            r = np.hypot(v[..., 0], v[..., 1])
            worst = float(np.max(r, initial=0.0))
            if worst > self.domain_radius + 1e-8:  # rounding allowance
                raise ValueError(
                    f"values leave the domain of the {self.kind} extension "
                    f"(max |v| = {worst:.6g} > {self.domain_radius:.6g})"
                )

    def value(self, v: FloatArray) -> FloatArray:
        return self._value(np.asarray(v, dtype=float))

    def jacobian(self, v: FloatArray) -> FloatArray:
        return self._jacobian(np.asarray(v, dtype=float))


def jin_kohn(j: Literal[1, 2]) -> ExtendedEntropy:
    """Closed-form Jin-Kohn entropy with exact first derivatives on R^2."""
    if j == 1:
        return ExtendedEntropy("closed-form", _sigma1_value, _sigma1_jacobian)
    if j == 2:
        return ExtendedEntropy("closed-form", _sigma2_value, _sigma2_jacobian)
    raise ValueError("j must be 1 or 2")


def radial_values(phis: Sequence[EntropyMap], v: FloatArray) -> list[FloatArray]:
    """The radial extensions eta(|v|) Phi(v/|v|) of each Phi in phis, as (..., 2) arrays.

    Each extension is supported on the annulus 1/2 <= |v| <= 2.  |v|, the
    angle and eta(|v|) are computed once.  The components of all of phis are
    evaluated in the row blocks of :mod:`~eelab.circle` (``_block_values``: per
    block, one Fourier basis per band; a one-row tail joins the block before
    it), and each block's eta Re(Phi_j) goes straight into component j of its
    output.  No full complex array is held.
    """
    v = np.asarray(v, dtype=float)
    omega = np.arctan2(v[..., 1], v[..., 0])
    e = np.ravel(RadialCutoff()(np.hypot(v[..., 0], v[..., 1])))
    out = [np.empty(omega.shape + (2,)) for _ in phis]
    flat = [o.reshape(-1, 2) for o in out]
    fs = [f for phi in phis for f in (phi.comp1, phi.comp2)]
    for rows, i, (c,) in _block_values(fs, omega):
        flat[i // 2][rows, i % 2] = e[rows] * c.real
    return out


def harmonic_entropy(phi: DiskHarmonic) -> ExtendedEntropy:
    """The harmonic entropy Phi^phi(z) = phi(z) z + ((iz).grad phi)(iz) on the disk."""
    if not phi.is_real(1e-10):
        raise ValueError("harmonic entropy needs a real-valued potential")
    p10 = phi.partial(1, 0)
    p01 = phi.partial(0, 1)
    p20 = phi.partial(2, 0)
    p11 = phi.partial(1, 1)
    p02 = phi.partial(0, 2)

    def val(v: FloatArray) -> FloatArray:
        z = v[..., 0] + 1j * v[..., 1]
        ph = np.real(phi.value(z))
        g = np.real(-v[..., 1] * p10.value(z) + v[..., 0] * p01.value(z))
        return np.stack(
            [ph * v[..., 0] - g * v[..., 1], ph * v[..., 1] + g * v[..., 0]], axis=-1
        )

    def jac(v: FloatArray) -> FloatArray:
        z = v[..., 0] + 1j * v[..., 1]
        x, y = v[..., 0], v[..., 1]
        ph = np.real(phi.value(z))
        dx, dy = np.real(p10.value(z)), np.real(p01.value(z))
        g = -y * dx + x * dy
        gx = -y * np.real(p20.value(z)) + dy + x * np.real(p11.value(z))
        gy = -dx - y * np.real(p11.value(z)) + x * np.real(p02.value(z))
        j = np.empty(v.shape[:-1] + (2, 2))
        j[..., 0, 0] = dx * x + ph - gx * y
        j[..., 0, 1] = dy * x - gy * y - g
        j[..., 1, 0] = dx * y + gx * x + g
        j[..., 1, 1] = dy * y + ph + gy * x
        return j

    return ExtendedEntropy("harmonic", val, jac, domain_radius=1.0)

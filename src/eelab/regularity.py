"""Besov seminorm estimation and the interaction functional machinery.

The Besov ladder measures sup_{|h'| <= h} ||D^{h'} m||_{L^q(U)} over a dyadic
set of increments and a finite direction sweep; the interaction functional
pairs differences of the kinetic indicator against the odd pi-periodic power
weight and is coercive over |D^{he} m|^{3+alpha}.  Everything here reduces to
the breakpoint-exact arc quadrature in :mod:`eelab.quadrature`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .bumps import RadialBump, TensorBump
from .grids import AngleField, BoolArray, Grid2, _overlap
from .quadrature import (
    gauss_jacobi01,
    gauss_legendre,
    interaction_pair_flux,
    interaction_pair_value,
    phi_weighted_integral,
)

FloatArray = NDArray[np.float64]


# ---------------------------------------------------------------------------
# the odd pi-periodic power weight
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InteractionWeight:
    """Odd, pi-periodic weight equal to t^alpha on [0, pi/4].

    On [pi/4, pi/2] a fixed C^1 blend (a linear factor times the distance to
    pi/2) continues the power branch and hits zero at pi/2; oddness and
    pi-periodicity force the rest.  The blend keeps the weight positive on
    (0, pi/2).
    """

    alpha: float
    _a: float = field(init=False, repr=False)
    _b: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"exponent must lie in (0, 1], got {self.alpha}")
        v0 = (np.pi / 4) ** self.alpha
        s0 = self.alpha * (np.pi / 4) ** (self.alpha - 1.0)
        a = 4.0 * v0 / np.pi
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_b", (s0 + a) * 4.0 / np.pi)

    def value(self, t) -> FloatArray:
        t = np.asarray(t, dtype=float)
        u = np.mod(t, np.pi, out=np.empty(t.shape))
        flip = u > np.pi / 2
        v = np.subtract(np.pi, u, out=u, where=flip)
        low = v <= np.pi / 4
        high = ~low
        # each branch is evaluated only where it is selected, with the same
        # per-element operations as (a + b (v - pi/4)) (pi/2 - v) and v^alpha
        out = np.power(v, self.alpha, out=np.empty(t.shape), where=low)
        np.subtract(v, np.pi / 4, out=out, where=high)
        np.multiply(out, self._b, out=out, where=high)
        np.add(out, self._a, out=out, where=high)
        np.subtract(np.pi / 2, v, out=v, where=high)
        np.multiply(out, v, out=out, where=high)
        np.negative(out, out=out, where=flip)
        return out if out.ndim else out[()]

    __call__ = value


def make_interaction_weight(alpha: float) -> InteractionWeight:
    return InteractionWeight(alpha)


# ---------------------------------------------------------------------------
# Besov seminorm estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BesovReport:
    s: float
    q: float
    hs: tuple[float, ...]
    per_h: tuple[float, ...]          # sup over directions at each |h|
    cumulative: tuple[float, ...]     # sup over directions and smaller |h|
    seminorm: float                   # sup_h h^{-s} * cumulative
    slope: float                      # log-log fit of per_h against h
    directions: int

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "q": self.q,
            "hs": list(self.hs),
            "per_h": list(self.per_h),
            "cumulative": list(self.cumulative),
            "seminorm": self.seminorm,
            "slope": self.slope,
            "directions": self.directions,
        }


def _masked_shift_norm(
    grid: Grid2, vec: FloatArray, offset: tuple[int, int], q: float, region: BoolArray
) -> float:
    """||D^z m||_{L^q(U)} of unit vectors ``vec`` with the both-endpoints-in-U zero convention."""
    at, to = _overlap(grid, *offset)
    valid = region[at] & region[to]
    if not np.any(valid):
        return 0.0
    diff = vec[to] - vec[at]
    mag = np.hypot(diff[..., 0], diff[..., 1])[valid]
    if np.isinf(q):
        return float(mag.max())
    return float((np.sum(mag**q) * grid.cell_area()) ** (1.0 / q))


def direction_offsets(grid: Grid2, h: float, n_directions: int) -> list[tuple[int, int]]:
    """Lattice roundings of h e_k over equispaced directions, deduplicated."""
    offs: set[tuple[int, int]] = set()
    for k in range(n_directions):
        ang = 2 * np.pi * k / n_directions
        ox = int(np.round(h * np.cos(ang) / grid.spacing))
        oy = int(np.round(h * np.sin(ang) / grid.spacing))
        if (ox, oy) != (0, 0):
            offs.add((ox, oy))
    return sorted(offs)


def besov_seminorm(
    m: AngleField,
    s: float,
    q: float,
    h_ladder: list[float],
    region: BoolArray,
    n_directions: int = 16,
) -> BesovReport:
    """Finite-difference Besov ladder over a subdomain.

    The direction sweep is a documented under-approximation of the true sup
    over increments; enlarging the region or the ladder never decreases the
    reported seminorm.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if not np.any(region):
        raise ValueError("empty subdomain after masking")
    hs = sorted(float(h) for h in h_ladder)
    vec = m.unit_vectors().values
    per_h = []
    for h in hs:
        sup = 0.0
        for off in direction_offsets(m.grid, h, n_directions):
            sup = max(sup, _masked_shift_norm(m.grid, vec, off, q, region))
        per_h.append(sup)
    cumulative = list(np.maximum.accumulate(per_h))
    seminorm = max(c / h**s for h, c in zip(hs, cumulative))
    positive = [(h, v) for h, v in zip(hs, per_h) if v > 0]
    if len(positive) >= 2:
        lh = np.log([h for h, _ in positive])
        lv = np.log([v for _, v in positive])
        slope = float(np.polyfit(lh, lv, 1)[0])
    else:
        slope = float("nan")
    return BesovReport(
        s=s, q=q, hs=tuple(hs), per_h=tuple(per_h), cumulative=tuple(cumulative),
        seminorm=float(seminorm), slope=slope, directions=n_directions,
    )


# ---------------------------------------------------------------------------
# interaction functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InteractionSample:
    x: tuple[float, float]
    h: float
    e: tuple[float, float]
    delta: float
    dm: float


def _point_in_interior(grid: Grid2, x: tuple[float, float], margin: float = 0.0) -> bool:
    lx, ly = grid.extent
    return (
        grid.origin[0] + margin <= x[0] <= grid.origin[0] + lx - margin
        and grid.origin[1] + margin <= x[1] <= grid.origin[1] + ly - margin
    )


def interaction_functional(
    m: AngleField,
    x: tuple[float, float],
    h: float,
    e: tuple[float, float],
    weight: InteractionWeight,
) -> InteractionSample:
    """Interaction functional of the indicator differences between x and x + he.

    Both points must lie in the domain.  The double integral over [0,2pi]^2
    is evaluated with integration cells split at all indicator breakpoints,
    so the value carries quadrature error only from the smooth kernel.
    """
    e = np.asarray(e, dtype=float)
    e = e / np.hypot(*e)
    x1 = (x[0] + h * e[0], x[1] + h * e[1])
    for pt in (x, x1):
        if not _point_in_interior(m.grid, pt):
            raise ValueError(f"point {pt} outside the domain")
    th0 = float(m.theta_at(np.array(x[0]), np.array(x[1])))
    th1 = float(m.theta_at(np.array(x1[0]), np.array(x1[1])))
    delta = float(interaction_pair_value(th0, th1, weight))
    dm = float(np.hypot(np.cos(th1) - np.cos(th0), np.sin(th1) - np.sin(th0)))
    return InteractionSample(x=tuple(x), h=h, e=(float(e[0]), float(e[1])), delta=delta, dm=dm)


def symmetric_pair_interaction(beta, weight: InteractionWeight) -> FloatArray:
    """Interaction value of the symmetric pair (e^{-i beta}, e^{i beta})."""
    beta = np.asarray(beta, dtype=float)
    return interaction_pair_value(-beta, beta, weight)


def symmetric_interaction_closed_form(beta, weight: InteractionWeight) -> FloatArray:
    """Closed form of the symmetric-pair interaction.

    For beta <= pi/4:   8 int_0^{2 beta} w(o) (2 beta - o) sin(o) do.
    For beta in [pi/4, pi/2] the window folds once:
        8 int_0^{pi - 2 beta} w(o)(2 beta - o) sin(o) do
      + 8 int_{pi - 2 beta}^{pi/2} w(o)(pi - 2 o) sin(o) do.
    """
    beta = np.asarray(beta, dtype=float)
    if np.any((beta < 0) | (beta > np.pi / 2 + 1e-12)):
        raise ValueError("beta must lie in [0, pi/2]")
    b4 = beta[..., None, None, None]

    low = 8.0 * phi_weighted_integral(
        lambda u: (2 * b4 - u) * np.sin(u), np.zeros_like(beta), 2 * np.clip(beta, 0, np.pi / 4), weight
    )
    hi_beta = np.clip(beta, np.pi / 4, np.pi / 2)
    part1 = 8.0 * phi_weighted_integral(
        lambda u: (2 * b4 - u) * np.sin(u), np.zeros_like(beta), np.pi - 2 * hi_beta, weight
    )
    part2 = 8.0 * phi_weighted_integral(
        lambda u: (np.pi - 2 * u) * np.sin(u), np.pi - 2 * hi_beta,
        np.full_like(beta, np.pi / 2), weight,
    )
    return np.where(beta <= np.pi / 4, low, part1 + part2)


def substitution_form(beta: float, weight: InteractionWeight) -> float:
    """Independent small-angle oracle 8 (2b)^{2+a} int_0^1 v^a (1-v) sin(2bv) dv.

    Valid for beta <= pi/8 where only the power branch is sampled.
    """
    if beta > np.pi / 8 + 1e-12:
        raise ValueError("substitution form needs beta <= pi/8")
    y, w = gauss_jacobi01(48, weight.alpha)
    val = np.sum(w * (1 - y) * np.sin(2 * beta * y))
    return float(8.0 * (2 * beta) ** (2 + weight.alpha) * val)


def coercivity_profile(weight: InteractionWeight, betas: FloatArray) -> FloatArray:
    """Ratio of the symmetric-pair interaction to beta^{3+alpha}."""
    betas = np.asarray(betas, dtype=float)
    return symmetric_interaction_closed_form(betas, weight) / betas ** (3 + weight.alpha)


@dataclass(frozen=True)
class CoercivityReport:
    alpha: float
    min_ratio: float
    n_used: int
    n_excluded: int
    passed: bool
    samples: tuple[InteractionSample, ...]


def coercivity_scan(
    m: AngleField,
    samples: list[tuple[tuple[float, float], float, tuple[float, float]]],
    weight: InteractionWeight,
    c_required: float,
    floor: float = 1e-14,
) -> CoercivityReport:
    """min over samples of Delta / |D^{he} m|^{3 + alpha}, floor-guarded."""
    used: list[InteractionSample] = []
    excluded = 0
    ratios = []
    for x, h, e in samples:
        rec = interaction_functional(m, x, h, e, weight)
        if rec.dm <= floor:
            excluded += 1
            continue
        used.append(rec)
        ratios.append(rec.delta / rec.dm ** (3 + weight.alpha))
    min_ratio = float(min(ratios)) if ratios else float("inf")
    return CoercivityReport(
        alpha=weight.alpha,
        min_ratio=min_ratio,
        n_used=len(used),
        n_excluded=excluded,
        passed=bool(min_ratio >= c_required),
        samples=tuple(used),
    )


# ---------------------------------------------------------------------------
# the differentiated interaction identity (vanishing-measure reduction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InteractionIdentityReport:
    h: float
    lhs: float
    rhs: float
    residual: float
    rel_residual: float


def interaction_identity_check(
    m: AngleField,
    gamma: RadialBump | TensorBump,
    weight: InteractionWeight,
    h: float,
    n_htilde: int = 10,
) -> InteractionIdentityReport:
    """Check int gamma Delta(., h) dx = - int_0^h int grad(gamma) . A(., ht) dx dht.

    Valid for fields whose kinetic measure vanishes (rigid test fields);
    the increment direction is the first coordinate axis.  Both sides are
    midpoint sums over the cells of the support of gamma; the inner
    quadratures resolve all indicator breakpoints exactly.
    """
    grid = m.grid
    X, Y = grid.meshgrid()
    g = gamma(X, Y)
    sel = g > 0
    if not np.any(sel):
        raise ValueError("cut-off supported outside the grid")
    xs, ys = X[sel], Y[sel]
    for dx in (0.0, h):
        if not (
            _point_in_interior(grid, (float(xs.min()) + dx, float(ys.min())))
            and _point_in_interior(grid, (float(xs.max()) + dx, float(ys.max())))
        ):
            raise ValueError("cut-off support leaves the domain after the shift")
    area = grid.cell_area()
    th0 = m.theta_at(xs, ys)

    th1 = m.theta_at(xs + h, ys)
    lhs = float(np.sum(g[sel] * interaction_pair_value(th0, th1, weight)) * area)

    gx, gy = gamma.gradient(X, Y)
    nodes, wts = gauss_legendre(n_htilde)
    ht = 0.5 * h * (nodes + 1.0)
    hw = 0.5 * h * wts
    rhs = 0.0
    for hv, wv in zip(ht, hw):
        a1, a2 = interaction_pair_flux(th0, m.theta_at(xs + hv, ys), weight)
        rhs -= wv * float(np.sum(gx[sel] * a1 + gy[sel] * a2) * area)
    residual = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return InteractionIdentityReport(
        h=h, lhs=lhs, rhs=float(rhs), residual=residual, rel_residual=residual / scale
    )

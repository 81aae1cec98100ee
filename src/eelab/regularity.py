"""Besov seminorm estimation and the interaction functional machinery.

The Besov ladder measures sup_{|h'| <= h} ||D^{h'} m||_{L^q(U)} over a dyadic
set of increments and a finite direction sweep; the interaction functional
pairs differences of the kinetic indicator against the odd pi-periodic power
weight and is coercive over |D^{he} m|^{3+alpha}.  Everything here reduces to
the breakpoint-exact arc quadrature in :mod:`eelab.quadrature`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .bumps import RadialBump, TensorBump
from .grids import AngleField, BoolArray, Grid2, _overlap
from .quadrature import (
    _run_tasks,
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

    def value(self, t, out=None, work=None) -> FloatArray:
        """w(t), into ``out`` if given; ``work``, of t's shape, is scratch if given."""
        t = np.asarray(t, dtype=float)
        u = np.mod(t, np.pi, out=np.empty(t.shape) if work is None else work)
        flip = u > np.pi / 2
        v = np.subtract(np.pi, u, out=u, where=flip)
        low = v <= np.pi / 4
        high = ~low
        # each branch is evaluated only where it is selected, with the same
        # per-element operations as (a + b (v - pi/4)) (pi/2 - v) and v^alpha
        out = np.power(v, self.alpha, out=np.empty(t.shape) if out is None else out, where=low)
        np.subtract(v, np.pi / 4, out=out, where=high)
        np.multiply(out, self._b, out=out, where=high)
        np.add(out, self._a, out=out, where=high)
        np.subtract(np.pi / 2, v, out=v, where=high)
        np.multiply(out, v, out=out, where=high)
        np.negative(out, out=out, where=flip)
        return out if out.ndim else out[()]

    __call__ = value


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
    qs: Sequence[float],
    h_ladder: list[float],
    region: BoolArray,
    n_directions: int = 16,
) -> list[BesovReport]:
    """Finite-difference Besov ladders over a subdomain, one report per exponent
    of ``qs``, in their order.

    The direction sweep is a documented under-approximation of the true sup
    over increments; enlarging the region or the ladder never decreases the
    reported seminorm.  The (h, offset) norms run on the worker threads of
    ``quadrature._run_tasks``, and the sup over each h's norms is taken here,
    in offset order, so the worker count changes no bit.  Each offset's
    differences and their magnitudes are taken once and serve every exponent:
    a finite q raises a copy of the magnitudes, the sum of which has the bits
    that one exponent alone would give, and q = inf takes their max.
    """
    qs = tuple(qs)
    if not qs:
        raise ValueError("qs must hold at least one exponent, got none")
    for q in qs:
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
    if not np.any(region):
        raise ValueError("empty subdomain after masking")
    hs = sorted(float(h) for h in h_ladder)
    vec = m.unit_vectors().values
    tasks = [(i, off) for i, h in enumerate(hs) for off in direction_offsets(m.grid, h, n_directions)]
    norms = [[0.0] * len(tasks) for _ in qs]

    def norm(j, buf):
        # ||D^z m||_{L^q(U)} for the offset z of task j and each q, zero unless both
        # ends lie in U.  Each value meets the operations of np.hypot(*D^z)[valid] ** q,
        # so the bits are those, but only the valid differences reach hypot, and only
        # the nonzero magnitudes pow (0 ** q = +0, and pow is slow on zeros); the
        # difference buffer, free once compress has run, holds each q's powers
        at, to = _overlap(m.grid, *tasks[j][1])
        shape, n = region[at].shape, region[at].size
        valid = np.logical_and(region[at], region[to], out=buf[2][:n].reshape(shape))
        if count := np.count_nonzero(valid):
            diff = np.subtract(vec[to], vec[at], out=buf[0][: 2 * n].reshape(*shape, 2))
            pairs = np.compress(valid.reshape(-1), diff.reshape(n, 2), axis=0,
                                out=buf[1][: 2 * count].reshape(count, 2))
            mag = np.hypot(pairs[:, 0], pairs[:, 1], out=buf[3][:count])
            nonzero, pw = np.greater(mag, 0.0, out=buf[2][:count]), buf[0][:count]
            for k, q in enumerate(qs):
                if np.isinf(q):
                    norms[k][j] = float(mag.max())
                else:
                    np.copyto(pw, mag)
                    np.power(pw, q, out=pw, where=nonzero)
                    norms[k][j] = float((np.sum(pw) * m.grid.cell_area()) ** (1.0 / q))

    _run_tasks(norm, len(tasks), lambda: (np.empty(vec.size), np.empty(vec.size),
                                          np.empty(vec.size // 2, dtype=bool), np.empty(vec.size // 2)))
    reports = []
    for q, q_norms in zip(qs, norms):
        # the max of 0.0 and an h's norms folds sup = max(sup, norm) in offset order
        per_h = [max([0.0] + [v for (i, _), v in zip(tasks, q_norms) if i == k]) for k in range(len(hs))]
        cumulative = list(np.maximum.accumulate(per_h))
        seminorm = max(c / h**s for h, c in zip(hs, cumulative))
        positive = [(h, v) for h, v in zip(hs, per_h) if v > 0]
        if len(positive) >= 2:
            lh = np.log([h for h, _ in positive])
            lv = np.log([v for _, v in positive])
            slope = float(np.polyfit(lh, lv, 1)[0])
        else:
            slope = float("nan")
        reports.append(BesovReport(
            s=s, q=q, hs=tuple(hs), per_h=tuple(per_h), cumulative=tuple(cumulative),
            seminorm=float(seminorm), slope=slope, directions=n_directions,
        ))
    return reports


# ---------------------------------------------------------------------------
# interaction functional
# ---------------------------------------------------------------------------


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


@dataclass(frozen=True)
class CoercivityReport:
    min_ratio: float
    n_used: int
    gated_min_ratio: float  # min ratio over the samples with |Dm|^{3+alpha} >= 1e-12
    closed_form_gap: float


def coercivity_scan(
    m: AngleField,
    samples: list[tuple[tuple[float, float], float, tuple[float, float]]],
    weight: InteractionWeight,
) -> CoercivityReport:
    """min over samples of Delta / |D^{he} m|^{3 + alpha}, floor-guarded.

    A sample (x, h, e) pairs the indicators at x and x + he; both points must
    lie in the domain, which is checked for every sample.  A sample with
    |Dm| <= 1e-14 is excluded before any quadrature: its Delta is not
    integrated.  Each kept Delta is integrated with every indicator breakpoint
    resolved, and ``min_ratio`` is over the kept samples.  ``gated_min_ratio``
    is the min over the kept samples with |Dm|^{3+alpha} >= 1e-12 (below, the
    round-off of Delta dominates the ratio), and ``closed_form_gap`` the
    largest distance of a Delta from the symmetric-pair closed form at the
    half-angle arcsin(|Dm|/2).
    """
    deltas, dms, ratios = [], [], []
    for x, h, e in samples:
        e = np.asarray(e, dtype=float)
        e = e / np.hypot(*e)
        x1 = (x[0] + h * e[0], x[1] + h * e[1])
        for pt in (x, x1):
            if not m.grid.contains(*pt):
                raise ValueError(f"point {pt} outside the domain")
        th0 = float(m.theta_at(np.array(x[0]), np.array(x[1])))
        th1 = float(m.theta_at(np.array(x1[0]), np.array(x1[1])))
        dm = float(np.hypot(np.cos(th1) - np.cos(th0), np.sin(th1) - np.sin(th0)))
        if dm <= 1e-14:
            continue
        deltas.append(float(interaction_pair_value(th0, th1, weight)))
        dms.append(dm)
        ratios.append(deltas[-1] / dm ** (3 + weight.alpha))
    min_ratio = float(min(ratios)) if ratios else float("inf")
    gated = [r for r, dm in zip(ratios, dms) if dm ** (3 + weight.alpha) >= 1e-12]
    closed = symmetric_interaction_closed_form(np.arcsin(np.minimum([dm / 2 for dm in dms], 1.0)), weight)
    gap = float(np.max(np.abs(deltas - closed), initial=0.0))
    return CoercivityReport(
        min_ratio=min_ratio,
        n_used=len(dms),
        gated_min_ratio=float(min(gated, default=np.inf)),
        closed_form_gap=gap,
    )


# ---------------------------------------------------------------------------
# the differentiated interaction identity (vanishing-measure reduction)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InteractionIdentityReport:
    lhs: float
    rhs: float

    @property
    def rel_residual(self) -> float:
        """|lhs - rhs| relative to the larger of |lhs|, |rhs| (and 1e-300)."""
        return abs(self.lhs - self.rhs) / max(abs(self.lhs), abs(self.rhs), 1e-300)


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
    if not np.all(grid.contains(xs, ys) & grid.contains(xs + h, ys)):
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
    return InteractionIdentityReport(lhs=lhs, rhs=float(rhs))

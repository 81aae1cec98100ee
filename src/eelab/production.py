"""Entropy productions of mollified fields and their structural identities.

For a mollified field v = m * rho_eps the entropy production div Phi(v) is
computed by central differences of the composite cell values.  The module
also provides the closed forms of the two Jin-Kohn productions (valid for
divergence-free smooth fields) and the localized cubic difference average
controlling all productions.  :func:`mollified_level` is the one place a
field is mollified: the ladder functions here and in :mod:`eelab.factorization`
take its :class:`Level` records, coarsest first.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from . import quadrature
from .entropy import EntropyMap, ExtendedEntropy, ent_residual
from .grids import (
    AngleField,
    BoolArray,
    Mollifier,
    ScalarField,
    VecField,
    _overlap,
    central_partials,
    combine_masks,
    divergence,
    lp_norm,
    mollify,
    stencil_mask,
)
from .kinetic import KineticMeasure, rotated_production, theta_of_vec
from .regularity import besov_seminorm

FloatArray = NDArray[np.float64]


def div_entropy(v: VecField, ext: ExtendedEntropy) -> ScalarField:
    """Central-difference divergence of x -> Phi(v(x)).

    Second-order consistent on smooth inputs; values must lie in the domain
    of the extension (the closed disk for harmonic extensions).
    """
    ext.check_domain(v.values)
    return divergence(VecField(v.grid, ext.value(v.values), mask=v.mask))


def div_sigma_closed(v: VecField) -> tuple[ScalarField, ScalarField]:
    """Closed forms of the two Jin-Kohn productions of a divergence-free field,

        (d1 v2 + d2 v1)(1 - |v|^2)  and  (d2 v2 - d1 v1)(1 - |v|^2),

    with central differences for the partials.
    """
    h = v.grid.spacing
    d1v1, d2v1 = central_partials(v.values[..., 0], h)
    d1v2, d2v2 = central_partials(v.values[..., 1], h)
    fac = 1.0 - (v.values[..., 0] ** 2 + v.values[..., 1] ** 2)
    mask = stencil_mask(v.grid, v.mask)
    return (
        ScalarField(v.grid, (d1v2 + d2v1) * fac, mask=mask),
        ScalarField(v.grid, (d2v2 - d1v1) * fac, mask=mask),
    )


def _line_pairs(uniform: BoolArray, first: FloatArray, at: slice, to: slice):
    """The line pairs (at, to) of one offset: the span of the pairs other than two
    uniform lines of equal value, counted from ``at.start`` (None when there are
    none), and, when every pair in that span has two uniform lines, the
    |D^z m|^3 of each pair as its lines' first values give it, indexed by the
    line at ``at`` (else None)."""
    both = uniform[at] & uniform[to]
    live = np.flatnonzero(~(both & np.all(first[at] == first[to], axis=-1)))
    if not live.size:
        return None, None
    span = slice(live[0], live[-1] + 1)
    if not both[span].all():
        return span, None
    d = first[to] - first[at]
    term = np.zeros(len(uniform))
    term[at] = np.hypot(d[:, 0], d[:, 1]) ** 3
    return span, term


def cubic_difference_average(m: AngleField, eps: float) -> ScalarField:
    """eps^{-3} int_{B_eps} |m(x+z) - m(x)|^3 dz by midpoint quadrature.

    Cell offsets with |z| < eps inside the disk; evaluation is restricted to
    the eps-interior so every sampled point stays in the domain.

    Exact zeros are skipped: for each offset, a row pair (i, i + oy) of
    uniform rows with equal values, or such a column pair (j, j + ox), has
    D^z m = 0 in every cell, so only the row/column bounding box of the other
    pairs is summed (nothing when it is empty).  That leaves every bit of the
    result as the full sum has it: the accumulator starts at +0.0, a skipped
    term is hypot(+-0, +-0)**3 = +0.0 and every term is >= +0.0, so adding
    it changes nothing, and theta is finite (AngleField rejects anything
    else), so no NaN is skipped.

    A pair of uniform lines has the same |D^z m|^3 all along it, whatever the
    other component of z, so it is taken once per oy (rows) or ox (columns)
    from the lines' first values, and a box whose row pairs, or else column
    pairs, are all of that kind adds it as one vector broadcast along the box.
    Each cell still gets one add per offset, in offset order, of a term with
    the same bits: the values of a uniform line equal its first under ==, so
    they differ at most in the sign of a zero, which hypot drops.  A box with
    a non-uniform pair either way adds its full array of terms.

    The rows the boxes cover are split into one band per worker thread
    (``quadrature._run_tasks``), and each worker runs the whole offset loop over
    its band, so every cell gets the same terms in the same order.
    """
    grid = m.grid
    h = grid.spacing
    if eps < 2.0 * h - 1e-12 * h:
        raise ValueError(f"scale {eps} under-resolved: need eps >= 2 spacing = {2*h}")
    radius = int(np.ceil(eps / h))
    vec = m.unit_vectors().values
    # a line is uniform when every cell equals its first, in both components
    rows = np.all(vec == vec[:, :1], axis=(1, 2)), vec[:, 0]
    cols = np.all(vec == vec[:1], axis=(0, 2)), vec[0]
    pairs = {}  # offset o -> (_line_pairs of the rows for oy = o, of the columns for ox = o)
    for o in range(-radius, radius + 1):
        (ya, xa), (yt, xt) = _overlap(grid, o, o)
        pairs[o] = _line_pairs(*rows, ya, yt), _line_pairs(*cols, xa, xt)
    # (ox, oy, y0, y1, x0, x1, row_terms, col_terms): box rows y0:y1, columns x0:x1 of
    # acc, and the terms of its uniform row pairs or else column pairs (_line_pairs)
    boxes = []
    for oy in range(-radius, radius + 1):
        for ox in range(-radius, radius + 1):
            if (ox == 0 and oy == 0) or (ox * h) ** 2 + (oy * h) ** 2 >= eps**2:
                continue
            (ry, rx), _ = _overlap(grid, ox, oy)
            (by, row_terms), (bx, col_terms) = pairs[oy][0], pairs[ox][1]
            if by is not None and bx is not None:
                boxes.append((ox, oy, ry.start + by.start, ry.start + by.stop,
                              rx.start + bx.start, rx.start + bx.stop, row_terms, col_terms))
    lo, hi = min((b[2] for b in boxes), default=0), max((b[3] for b in boxes), default=0)
    k = min(quadrature._WORKERS, hi - lo)
    edges = [lo + (hi - lo) * i // max(k, 1) for i in range(k + 1)]
    acc = np.zeros((grid.ny, grid.nx))

    def band(j, _):
        for ox, oy, y0, y1, x0, x1, row_terms, col_terms in boxes:
            y0, y1 = max(y0, edges[j]), min(y1, edges[j + 1])
            if y0 < y1:
                if row_terms is not None:
                    acc[y0:y1, x0:x1] += row_terms[y0:y1, None]
                elif col_terms is not None:
                    acc[y0:y1, x0:x1] += col_terms[x0:x1]
                else:
                    d = vec[y0 + oy:y1 + oy, x0 + ox:x1 + ox] - vec[y0:y1, x0:x1]
                    acc[y0:y1, x0:x1] += np.hypot(d[..., 0], d[..., 1]) ** 3

    quadrature._run_tasks(band, k)
    mask = grid.interior_mask(eps)
    return ScalarField(grid, acc * h * h / eps**3, mask=mask)


# ---------------------------------------------------------------------------
# mollified levels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Level:
    """A field sampling at one mollification scale, with everything derived from it.

    ``v`` is m * rho_eps, ``theta`` and ``live`` its angle and live mask
    (|v| >= 1/2), ``div_sigma`` its two closed-form Jin-Kohn productions and
    ``g`` = e^{i 2 theta} . div_sigma their rotation.
    Every array is read-only, so one level can feed any number of checks and
    the kernels' concurrent worker threads.
    """

    m: AngleField
    eps: float
    v: VecField
    theta: ScalarField
    live: BoolArray
    div_sigma: tuple[ScalarField, ScalarField]

    @cached_property
    def g(self) -> FloatArray:
        """The rotated production, derived on first use: the kinetic and
        factorization checks read it on the ladder levels, while the extra
        scales of the production check never do."""
        g = rotated_production(self.theta.values, self.div_sigma)
        g.flags.writeable = False
        return g


def mollified_level(m: AngleField, eps: float) -> Level:
    """The level of ``m`` at scale ``eps``; marks ``m.theta`` read-only too."""
    v = mollify(m, Mollifier(eps))
    theta, live = theta_of_vec(v)
    s1, s2 = div_sigma_closed(v)
    for a in (m.theta, v.values, v.mask, theta.values, theta.mask, live,
              s1.values, s1.mask, s2.values, s2.mask):
        a.flags.writeable = False
    return Level(m, eps, v, theta, live, (s1, s2))


def factorized_measure(lv: Level) -> KineticMeasure:
    """The kinetic measure of a level, with density ``lv.g`` per cell."""
    s1, s2 = lv.div_sigma
    mask = combine_masks(lv.theta.mask, s1.mask, s2.mask)
    return KineticMeasure(grid=lv.m.grid, theta=lv.theta.values, g=lv.g, mask=mask)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def production_ladder(productions: list[ScalarField], p: float, region: BoolArray) -> list[float]:
    """L^p norms over a subdomain of the productions div Phi(m_eps), one per level."""
    norms = []
    for d in productions:
        where = combine_masks(d.effective_mask(), region)
        norms.append(lp_norm(d.values, d.grid, p, where))
    return norms


def decay_rate(eps: Sequence[float], norms: Sequence[float]) -> float:
    """Log-log slope of ``norms`` against ``eps`` (positive = decays with eps); inf
    when the norms already vanish up to rounding (max <= 1e-12) or hold a zero."""
    vals = np.asarray(norms)
    if np.max(vals) <= 1e-12 or not np.all(vals > 0):
        return float("inf")
    return float(np.polyfit(np.log(eps), np.log(vals), 1)[0])


@dataclass(frozen=True)
class PointwiseBoundReport:
    sup_ratios: tuple[float, ...]       # over cells where the lattice average is positive
    dead_cell_fractions: tuple[float, ...]  # max |div| on zero-average cells / live scale


def pointwise_bound_check(
    productions: list[ScalarField],
    pms: list[ScalarField],
    phi: EntropyMap,
    region: BoolArray,
) -> PointwiseBoundReport:
    """sup over cells of |div Phi(m_eps)| / (||Phi||_C2 P_eps + 1e-14) along the ladder.

    The sup runs over cells where the lattice cubic average is positive; on a
    thin band at distance just below eps from a discontinuity the midpoint
    disk contains no crossing offsets (lattice average exactly zero) while
    the kernel tail still produces a superexponentially small divergence, so
    those cells are diagnosed separately: the report gives their largest
    |div| as a fraction of the live-cell production scale.  The entropy must
    actually be one (membership residual is checked).  ``productions`` holds
    div Phi(m_eps) and ``pms`` the cubic averages P_eps of a ladder's levels,
    in their order.
    """
    if ent_residual(phi).sup_norm() > 1e-8:
        raise ValueError("pointwise bound requires an entropy (membership residual > 1e-8)")
    c2 = phi.c2_norm()
    ratios = []
    dead_fracs = []
    for d, pm in zip(productions, pms, strict=True):
        where = combine_masks(d.effective_mask(), pm.effective_mask(), region)
        if not np.any(where):
            raise ValueError("empty subdomain after masking")
        live = where & (pm.values > 0)
        dead = where & (pm.values == 0)
        if np.any(live):
            num = np.abs(d.values[live])
            den = c2 * pm.values[live] + 1e-14
            ratios.append(float(np.max(num / den)))
            live_scale = float(np.max(num))
        else:
            ratios.append(0.0)
            live_scale = 0.0
        dead_max = float(np.max(np.abs(d.values[dead]), initial=0.0))
        # the 1e-8 floor keeps pure-roundoff divergences (fields with no
        # production at all) from registering as dead-cell mass
        dead_fracs.append(dead_max / max(live_scale, 1e-8))
    return PointwiseBoundReport(sup_ratios=tuple(ratios), dead_cell_fractions=tuple(dead_fracs))


# ---------------------------------------------------------------------------
# jump-cost and bounded-sequence checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JumpMassReport:
    masses: tuple[float, ...]
    rel_errors: tuple[float, ...]


def jump_production_mass(
    productions: list[ScalarField],
    expected: float,
    length_mask: BoolArray,
) -> JumpMassReport:
    """Mass per unit length of the productions div Phi(m_eps), one per level, over
    a strip around the jump line.

    Converges to the flux difference of the traces across the line.
    ``length_mask`` selects the strip cells and must contain the mollified
    layer.
    """
    masses = []
    for d in productions:
        grid = d.grid
        where = combine_masks(d.effective_mask(), length_mask)
        cols = np.any(where, axis=0)
        length = float(cols.sum()) * grid.spacing
        mass = float(np.sum(d.values[where]) * grid.cell_area())
        masses.append(mass / length)
    rel = tuple(abs(ms - expected) / abs(expected) for ms in masses)
    return JumpMassReport(masses=tuple(masses), rel_errors=rel)


@dataclass(frozen=True)
class BoundedSequenceReport:
    lhs: float
    rhs: float
    ratio: float


def cubic_average_besov_bound(
    m: AngleField,
    ps: Sequence[float],
    inner: BoolArray,
    outer: BoolArray,
    h_ladder: list[float],
    pm: ScalarField,
) -> list[BoundedSequenceReport]:
    """Both sides of ||P_eps||_{L^p(U)} <= |m|^3_{B^{1/3}_{3p,inf}(U')} for each p of
    ``ps``, in their order, with ``pm`` the cubic average P_eps of ``m``.

    U' must contain the eps-enlargement of U; the seminorm ladder should
    reach below eps so the right-hand side sees the scales P_eps samples.  One
    Besov pass over U' serves every exponent 3p.
    """
    where = combine_masks(pm.effective_mask(), inner)
    reps = besov_seminorm(m, 1.0 / 3.0, [3.0 * p for p in ps], h_ladder, outer)
    out = []
    for p, rep in zip(ps, reps):
        lhs = lp_norm(pm.values, m.grid, p, where)
        rhs = rep.seminorm**3
        out.append(BoundedSequenceReport(lhs=lhs, rhs=rhs, ratio=lhs / rhs if rhs > 0 else float("inf")))
    return out

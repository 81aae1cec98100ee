"""Factorization of entropy productions through the two Jin-Kohn productions.

For fields with integrable productions, the production of the generated
entropy factorizes as

    div Phi_f(m) = (f(th+pi/2) + f(th-pi/2) - 2<f,1>)/2 * e^{i2th}.divS(m),

equivalently the kinetic measure disintegrates into the symmetric two-atom
plus uniform family.  At desk scale the package verifies (a) the exact
finite-scale decomposition identities, (b) matched decay on rigid fields,
and (c) the negative control on jump fields, which together exhaust what is
checkable numerically; no nontrivial exact solution with positive integrable
production is known to test against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .circle import CircleFunction
from .entropy import generated_entropy, radial_values
from .grids import BoolArray, ScalarField, VecField, combine_masks, divergence, lp_norm
from .kinetic import KineticMeasure, atom_mean, pair_cells
from .production import Level, decay_rate, factorized_measure

FloatArray = NDArray[np.float64]


def factor_coefficient(f: CircleFunction, theta) -> FloatArray:
    """The factorization coefficient (f(th+pi/2) + f(th-pi/2))/2 - <f,1>."""
    return atom_mean(f, theta) - float(np.real(f.mean))


@dataclass(frozen=True)
class FactorizationReport:
    lhs_norms: tuple[float, ...]
    rhs_norms: tuple[float, ...]
    residual_norms: tuple[float, ...]


def _reject_dead_zone(lv: Level, region: BoolArray) -> None:
    if np.any(combine_masks(lv.v.mask, region) & ~lv.live):
        raise ValueError("subdomain contains extension dead-zone cells (|m_eps| < 1/2)")


def generated_productions(ladder: list[Level], fs: Sequence[CircleFunction]) -> list[list[ScalarField]]:
    """div Phi_f(m_eps) per f in fs (outer list) and per level (inner list).

    Phi_f is the radial extension of the entropy f generates.  Each level's
    extension values are computed for all of fs at once (``radial_values``),
    and their divergence is ``div_entropy``'s: the radial extension is
    defined on all of R^2, so there is no domain to check.
    """
    phis = [generated_entropy(f) for f in fs]
    per_level = [
        [divergence(VecField(lv.v.grid, vals, mask=lv.v.mask))
         for vals in radial_values(phis, lv.v.values)]
        for lv in ladder
    ]
    return [list(prods) for prods in zip(*per_level)]


def verify_factorization(
    ladder: list[Level],
    f: CircleFunction,
    p: float,
    region_of,
    lhss: Sequence[ScalarField],
) -> FactorizationReport:
    """Ladder comparison of div Phi_f(m_eps) with its factorized form.

    Scale limits are meaningful when the ratio scale/spacing stays fixed
    while the grid refines.  ``region_of`` maps a grid to the subdomain mask.
    Cells of the subdomain falling in the extension dead zone (|m_eps| < 1/2)
    are rejected; for rigid test fields both sides decay together.
    ``lhss`` holds the productions ``generated_productions(ladder, [f])[0]``,
    one per level.
    """
    lhs_norms, rhs_norms, res_norms = [], [], []
    for lv, lhs in zip(ladder, lhss, strict=True):
        grid = lv.m.grid
        region = region_of(grid)
        _reject_dead_zone(lv, region)
        rhs = factor_coefficient(f, lv.theta.values) * lv.g
        where = combine_masks(lhs.effective_mask(), lv.div_sigma[0].effective_mask(), region)
        lhs_norms.append(lp_norm(lhs.values, grid, p, where))
        rhs_norms.append(lp_norm(rhs, grid, p, where))
        res_norms.append(lp_norm(lhs.values - rhs, grid, p, where))
    return FactorizationReport(
        lhs_norms=tuple(lhs_norms),
        rhs_norms=tuple(rhs_norms),
        residual_norms=tuple(res_norms),
    )


@dataclass(frozen=True)
class VanishingProductionReport:
    masses: tuple[tuple[float, ...], ...]   # per entropy, per level: L^1 production mass
    rates: tuple[float, ...]


def vanishing_production_check(
    ladder: list[Level],
    productions: list[list[ScalarField]],
    region_of,
) -> VanishingProductionReport:
    """Ladder decay of all generated-entropy productions and of the measure mass.

    The levels keep a fixed scale/spacing ratio.  ``rates`` holds the
    empirical decay rate of every production and, last, of the factorized
    measure's total variation (inf for masses already at rounding level).
    For fields whose Jin-Kohn productions vanish in the limit every rate is
    large; fields with persistent production mass, the expected negative
    control, have a small one.  ``productions`` holds the generated-entropy
    productions ``generated_productions(ladder, fs)``, per f and per level.
    """
    nu_masses = []
    rows: list[list[float]] = [[] for _ in productions]
    for k, lv in enumerate(ladder):
        grid = lv.m.grid
        region = region_of(grid)
        where = combine_masks(lv.div_sigma[0].effective_mask(), region)
        nu_masses.append(lp_norm(factorized_measure(lv).nu().values, grid, 1, where))
        for row, prods in zip(rows, productions):
            d = prods[k]
            where_d = combine_masks(d.effective_mask(), region)
            row.append(lp_norm(np.abs(d.values), grid, 1, where_d))
    eps_ladder = [lv.eps for lv in ladder]
    return VanishingProductionReport(
        masses=tuple(tuple(row) for row in rows),
        rates=tuple(decay_rate(eps_ladder, row) for row in rows + [nu_masses]),
    )


def pairing_consistency_gap(
    sigma: KineticMeasure, f: CircleFunction, zeta: ScalarField
) -> float:
    """|pair(sigma, f, zeta) - int coeff(f, th) g zeta dx|, zero by construction.

    The same coefficient drives the pointwise factorization and the measure
    disintegration; this gap certifies the equivalence of the two forms.
    Both sides start from one evaluation of f at the atoms theta +- pi/2.
    """
    atoms = atom_mean(f, sigma.theta)
    lhs = pair_cells(sigma, sigma.integrate_atoms(f, atoms), zeta)
    rhs = pair_cells(sigma, (atoms - float(np.real(f.mean))) * sigma.g, zeta)
    return abs(lhs - rhs)

"""Configuration-driven experiment runner.

A JSON config declares a test field, grid/refinement parameters, ladders, exponents and an
entropy suite; ``eelab run`` executes the requested checks, writes CSV/JSON artifacts and a
result bundle, and exits nonzero iff any check fails.  A check measures and lists its gates
``(name, value, op, bound)``; ``_failed_gates`` alone compares a value with its bound, and a
check fails iff one of its gates does.  What a check does differently on a field kind comes
from the kind's ``_KINDS`` record.  The checks run one after another on the calling thread
and share one read-only refinement ladder; only the kernels spread work over the worker
threads of ``quadrature._run_tasks``.  Identical configs reproduce byte-identical artifacts
whatever ``--jobs`` or the CPU count (every result is a pure function of the ladder,
written in a fixed order).

Subcommands: run, validate-config, dump-field, show-entropy.
Flags: --config, --out, --jobs, --seed, --check; environment overrides
EEL_OUT, EEL_JOBS, EEL_SEED, EEL_CHECK take effect when the flag is absent.
--jobs and EEL_JOBS are validated but no longer change how the checks run.
"""

from __future__ import annotations

import argparse
import io
import json
import operator
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, make_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bumps import RadialBump, TensorBump
from .circle import CircleFunction
from .entropy import (
    CUTOFF_PROFILE,
    a_coefficients,
    ent_residual,
    generated_entropy,
    generated_entropy_closed_form,
    generator_harmonic_potential,
    harmonic_entropy,
    jin_kohn,
    jin_kohn_circle,
    multiplier,
    multiplier_differential,
    potential_linear_term,
)
from .factorization import (
    factor_coefficient,
    generated_productions,
    pairing_consistency_gap,
    vanishing_production_check,
    verify_factorization,
)
from .grids import (
    MOLLIFIER_PROFILE,
    ConstantSpec,
    FieldSpec,
    Grid2,
    ScalarField,
    build_field,
    centered_grid,
    spec_from_json,
    write_field,
)
from .kinetic import (
    JumpLineMeasure,
    SpaceTimeTestFunction,
    chi_difference_bound,
    edge_test_functions,
    kinetic_residual,
    test_function_suite,
)
from .production import (
    Level,
    cubic_average_besov_bound,
    cubic_difference_average,
    decay_rate,
    div_entropy,
    factorized_measure,
    jump_production_mass,
    mollified_level,
    pointwise_bound_check,
    production_ladder,
)
from .regularity import (
    InteractionWeight,
    besov_seminorm,
    coercivity_scan,
    interaction_identity_check,
    symmetric_interaction_closed_form,
    symmetric_pair_interaction,
)
from .reporting import atomic_write_bytes, atomic_write_text, csv_text, json_dumps, sha256_hex
from .schema import POSITIVE, ConfigError, key, override, read_keys, render

ALL_CHECKS = (
    "produce",
    "besov",
    "kinetic",
    "interaction",
    "factorize",
    "entropy-identities",
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


#: every tolerance a check reads, with its default; a config may set any of them
TOLERANCES = {
    "trivial_production": 1e-12,
    "pointwise_bound": 10.0,
    "decay_rate": 0.9,
    "line_ratio_lo": 0.95,
    "line_ratio_hi": 1.05,
    "jump_mass_rel": 0.02,
    "slope_tol": 0.03,
    "smooth_slope": 0.8,
    "kinetic_tol_coarse": 2e-2,
    "interaction_agreement": 1e-6,
    "interaction_identity": 5e-2,
}
_Tolerances = make_dataclass(
    "_Tolerances", [(name, "float", key(v, within=POSITIVE)) for name, v in TOLERANCES.items()])


@dataclass
class ExperimentConfig:
    """A run: every key of the config file is declared here, once (see :mod:`eelab.schema`)."""

    field: FieldSpec = key(ConstantSpec(), coerce=spec_from_json)
    n: int = key(256, "grid.n", ("lie in [4, 4096]", lambda v: 4 <= v <= 4096))
    extent: float = key(2.0, "grid.extent", POSITIVE)
    levels: int = key(3, within=("be >= 1", lambda v: v >= 1))
    eps_cells: float = key(8.0, within=("be >= 2 (kernel resolution)", lambda v: v >= 2))
    h_ladder_cells: tuple[float, ...] = key((4.0, 8.0, 16.0, 32.0), within=(
        "be positive and strictly increasing", lambda v: v[0] > 0 and list(v) == sorted(set(v))))
    p: float = key(7.0 / 6.0, "exponents.p", ("lie in (1, 4/3]", lambda v: 1 < v <= 4 / 3))
    qs: tuple[float, ...] = key((3.0, 4.0), "exponents.q", ("all be >= 1", lambda v: min(v) >= 1))
    s: float = key(1.0 / 3.0, "exponents.s", ("lie in (0, 1)", lambda v: 0 < v < 1))
    alpha: float | None = key(None, "exponents.alpha", ("lie in (0, 1]", lambda v: 0 < v <= 1))
    band: int = key(8, "suite.band", ("be >= 2", lambda v: v >= 2))
    n_random: int = key(5, "suite.n_random", ("be >= 0", lambda v: v >= 0))
    checks: tuple[str, ...] = key(ALL_CHECKS, within=(
        f"hold no unknown checks; valid: {', '.join(ALL_CHECKS)}",
        lambda v: set(v) <= set(ALL_CHECKS)), flag="check")
    seed: int = key(20240, within=("be >= 0", lambda v: v >= 0), flag="seed")
    out: str = key("eelab-out", render=False, flag="out")
    #: accepted and validated so that existing command lines keep working; it schedules nothing
    jobs: int = key(1, None, ("be >= 1", lambda v: v >= 1), flag="jobs")
    dump_fields: bool = key(False)
    tolerances: dict = key({}, coerce=lambda v, path: read_keys(_Tolerances, v, path))

    def effective_alpha(self) -> float:
        return self.alpha if self.alpha is not None else 3.0 * self.p - 3.0

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, TOLERANCES[name])

    def grid(self) -> Grid2:
        return centered_grid(self.n, self.extent)

    def refinement(self) -> list[tuple[int, float]]:
        """(cells, mollification scale) per level, coarsest first, eps/spacing fixed."""
        cells = [self.n // (2**k) for k in range(self.levels - 1, -1, -1)]
        return [(n, self.eps_cells * (self.extent / n)) for n in cells]

    to_json = render


def config_from_json(obj: dict) -> ExperimentConfig:
    cfg = ExperimentConfig(**read_keys(ExperimentConfig, obj))
    violations = [text for text, bad in (
        (f"coarsest refinement level drops below 4 cells: grid.n={cfg.n}, levels={cfg.levels}",
         cfg.n >> (cfg.levels - 1) < 4),
        (f"alpha={cfg.alpha} inconsistent with 3p-3={3 * cfg.p - 3} (drop one of them)",
         cfg.alpha is not None and abs(cfg.alpha - (3 * cfg.p - 3)) > 1e-9),
    ) if bad]
    if cfg.n >> (cfg.levels - 1) >= 4:
        violations += _empty_windows(cfg)
    if violations:
        raise ConfigError(violations)
    return cfg


def _factorize_margin(cfg: ExperimentConfig, grid: Grid2) -> float:
    """The factorize window's distance from the boundary: the coarsest scale plus two cells."""
    return cfg.refinement()[0][1] + 2 * grid.spacing


def _empty_windows(cfg: ExperimentConfig) -> list[str]:
    """The kind's domain test, then the check windows that hold no cell: the check region at
    the widest margin a check uses on a grid, the coarsest for factorize, the finest for produce."""
    kind, n_c, (n_f, eps) = _KINDS[cfg.field.kind], cfg.refinement()[0][0], cfg.refinement()[-1]
    out = kind.domain_test(cfg, eps)
    for check, n, margin in (("factorize", n_c, _factorize_margin(cfg, centered_grid(n_c, cfg.extent))),
                             ("produce", n_f, kind.produce_margin(eps, cfg.extent / n_f))):
        if not np.any(_region(cfg, centered_grid(n, cfg.extent), margin)):
            out.append(f"grid too small: the {check} window, the check region at distance >= "
                       f"{margin:.4g} from the boundary of the {n}-cell grid, holds no cell "
                       f"(grid.n={cfg.n}, levels={cfg.levels}, eps_cells={cfg.eps_cells:g})")
    return out


# ---------------------------------------------------------------------------
# check harness
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    details: dict
    #: (name, value, op, bound); a gate named after a TOLERANCES key has bound cfg.tol(name)
    gates: list[tuple[str, float, str, float]]
    artifacts: dict[str, bytes]


_OPS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt, "==": operator.eq}


def _failed_gates(gates: list[tuple[str, float, str, float]]) -> list[dict]:
    """The gates that fail ``value op bound``: the one place a run compares a value with a bound."""
    return [{"name": name, "value": value, "op": op, "bound": bound}
            for name, value, op, bound in gates if not _OPS[op](value, bound)]


def _region(cfg: ExperimentConfig, grid: Grid2, margin: float = 0.0):
    """Subdomain for norms: the kind's check region, only its cells >= margin from the boundary."""
    return _KINDS[cfg.field.kind].region(cfg, grid) & grid.interior_mask(margin)


def _annulus(cfg: ExperimentConfig, grid: Grid2, pad: float = 0.0):
    """The vortex annulus 0.45 < |x - center| / (extent/2) < 0.7, widened by ``pad`` on both sides."""
    (x, y), (cx, cy) = grid.meshgrid(), cfg.field.center
    r = np.hypot(x - cx, y - cy)
    return (r > 0.45 * cfg.extent / 2 - pad) & (r < 0.7 * cfg.extent / 2 + pad)


def _box(frac: float) -> Callable:
    """The region |x|, |y| <= frac * extent, on a config's grid."""
    return lambda cfg, grid: grid.rect_mask(*(s * frac * cfg.extent for s in (-1, 1, -1, 1)))


#: cells of the jump's cubic-average scale (midpoint quadrature needs a well-resolved half disk)
_JUMP_CUBIC_CELLS = 32


def refinement_ladder(cfg: ExperimentConfig) -> list[Level]:
    """The run's levels, coarsest first: built once, shared read-only by every check."""
    return [mollified_level(build_field(cfg.field, centered_grid(n, cfg.extent)), eps)
            for n, eps in cfg.refinement()]


def _entropy_suite(cfg: ExperimentConfig, rng: np.random.Generator) -> list[tuple[str, CircleFunction]]:
    fs: list[tuple[str, CircleFunction]] = [
        ("cos2", CircleFunction.cosine(2)),
        ("sin2", CircleFunction.sine(2)),
    ]
    for i in range(cfg.n_random):
        fs.append((f"random{i}", CircleFunction.random_real(cfg.band, rng)))
    return fs


def _produce_constant(cfg, scales, prods, details, rows) -> list:
    """The constant field's produce gate: its finest production vanishes."""
    d = prods[-1]
    worst = float(np.max(np.abs(d.values[d.effective_mask()])))
    details["sup_production"] = worst
    return [("trivial_production", worst, "<=", cfg.tol("trivial_production"))]


def _produce_vortex(cfg, scales, prods, details, rows) -> list:
    """The vortex's produce gates: the production decays, the cubic average bounds it."""
    m, eps = scales[-1].m, scales[-1].eps
    grid = m.grid
    eps_ladder = [lv.eps for lv in scales]
    norms = production_ladder(prods, cfg.p, _region(cfg, grid))
    details["ladder"] = {"eps": eps_ladder, "lp": norms, "p": cfg.p, "label": "jin-kohn-1"}
    details["decay_rate"] = decay_rate(eps_ladder, norms)
    rows += [["jin-kohn-1", e, v] for e, v in zip(eps_ladder, norms)]
    pms = [cubic_difference_average(lv.m, lv.eps) for lv in scales[1:]]
    bound = pointwise_bound_check(prods[1:], pms, jin_kohn_circle(1), _region(cfg, grid))
    details["pointwise_sup_ratios"] = list(bound.sup_ratios)
    inner = _region(cfg, grid, eps + grid.spacing)
    outer = _annulus(cfg, grid, eps)
    hs = [grid.spacing * c for c in cfg.h_ladder_cells]
    [bnd] = cubic_average_besov_bound(m, [cfg.p], inner, outer, hs, pm=pms[-1])
    details["bounded_sequence_ratio"] = bnd.ratio
    return [("pointwise_bound", max(bound.sup_ratios), "<=", cfg.tol("pointwise_bound")),
            ("dead_cell_fraction", max(bound.dead_cell_fractions), "<=", 1e-4),
            ("bounded_sequence", bnd.lhs, "<=", bnd.rhs),
            ("decay_rate", details["decay_rate"], ">=", cfg.tol("decay_rate"))]


def _produce_jump(cfg, scales, prods, details, rows) -> list:
    """The jump's produce gates: the jump cost, the cubic average on the line and its bound."""
    spec, m = cfg.field, scales[-1].m
    mp, mm = spec.traces()
    nrm = spec.unit_normal()
    expected = float(nrm @ (jin_kohn(1).value(mp[None])[0] - jin_kohn(1).value(mm[None])[0]))
    grid = m.grid
    half = 0.3 * cfg.extent
    strip = grid.rect_mask(-half, half, spec.point[1] - half, spec.point[1] + half)
    repm = jump_production_mass(prods, expected, strip)
    details["jump_mass"] = {"expected": expected, "masses": list(repm.masses),
                            "rel_errors": list(repm.rel_errors)}
    rows += [["jump-mass", lv.eps, v] for lv, v in zip(scales, repm.masses)]
    # cubic average on the jump line; expected value from the cap area at the
    # distance of the nearest cell row
    eps_b = _JUMP_CUBIC_CELLS * grid.spacing
    pm = cubic_difference_average(m, eps_b)
    jrow = int(np.argmin(np.abs(grid.ys() - spec.point[1])))
    d = abs(float(grid.ys()[jrow]) - spec.point[1])
    w = d / eps_b
    cap = float(np.arccos(w) - w * np.sqrt(1 - w * w))
    line_mask = pm.effective_mask()[jrow]
    jval = float(np.max(pm.values[jrow][line_mask]))
    jump_j = float(np.linalg.norm(mp - mm))
    ratio = jval * eps_b / (cap * jump_j**3)
    details["line_ratio"] = ratio
    box = 2 * eps_b
    inner = grid.rect_mask(-box, box, spec.point[1] - box, spec.point[1] + box)
    outer = grid.rect_mask(-box - eps_b, box + eps_b, spec.point[1] - box - eps_b,
                           spec.point[1] + box + eps_b)
    hs = [grid.spacing * c for c in cfg.h_ladder_cells]
    ratios = [b.ratio for b in cubic_average_besov_bound(
        m, (1.0, 7.0 / 6.0, 4.0 / 3.0), inner, outer, hs, pm=pm)]
    details["bounded_sequence_ratios"] = ratios
    return [("jump_mass_rel", repm.rel_errors[-1], "<=", cfg.tol("jump_mass_rel")),
            ("line_ratio_lo", ratio, ">=", cfg.tol("line_ratio_lo")),
            ("line_ratio_hi", ratio, "<=", cfg.tol("line_ratio_hi")),
            *[("bounded_sequence", r, "<=", 1.0) for r in ratios]]


def _annulus_leaves_domain(cfg: ExperimentConfig, eps: float) -> list[str]:
    """The vortex's domain test: produce widens the annulus by eps; it must stay in the domain."""
    (cx, cy), r = cfg.field.center, 0.7 * cfg.extent / 2 + eps
    if np.all(cfg.grid().contains(cx + np.array([r, -r, 0, 0]), cy + np.array([0, 0, r, -r]))):
        return []
    return [f"config field.center {[cx, cy]} puts the vortex annulus 0.45 < r/(extent/2) < 0.7, "
            f"widened by {eps:.4g}, past the domain [-{cfg.extent / 2:g}, {cfg.extent / 2:g}]^2"]


@dataclass(frozen=True)
class _Kind:
    """What the checks do differently on one field kind.  Its functions call eelab functions
    by name: the benchmark's tracer rebinds module attributes.  A jump set carries the kinetic
    measure, makes factorize the negative control and leaves out the interaction identity."""

    region: Callable  # (cfg, grid) -> the check region's cells
    produce_scales: tuple[int, ...]  # multiples of the finest eps at which produce mollifies again
    produce_margin: Callable  # (eps, spacing) of the finest level -> produce's window margin
    produce_gates: Callable  # (cfg, scales, prods, details, rows) -> gates; adds details, rows
    besov_gates: Callable  # (cfg, q, report) -> the gates of the kind's prediction at q
    test_functions: Callable  # cfg -> the kinetic check's test functions
    jump_set: bool = False
    besov_region: Callable | None = None  # None: the check region
    identity_bump: Callable = lambda cfg: None  # the interaction identity's bump, if it has one
    domain_test: Callable = lambda cfg, eps: []  # (cfg, finest eps) -> config errors


_KINDS = {
    "constant": _Kind(
        region=_box(0.3), produce_scales=(), produce_margin=lambda eps, h: eps + h,
        produce_gates=_produce_constant,
        besov_gates=lambda cfg, q, rep: [("seminorm", rep.seminorm, "<=", 1e-12)],
        test_functions=lambda cfg: test_function_suite(
            np.random.default_rng(cfg.seed + 17), 3, 0.25 * cfg.extent,
            (0.15 * cfg.extent, 0.25 * cfg.extent))),
    "vortex": _Kind(
        region=_annulus, produce_scales=(4, 2), produce_margin=lambda eps, h: 4 * eps + h,
        produce_gates=_produce_vortex,
        besov_gates=lambda cfg, q, rep: [  # a vanishing seminorm has no slope to gate
            ("smooth_slope", rep.slope, ">=", cfg.tol("smooth_slope"))] if rep.seminorm != 0.0 else [],
        test_functions=lambda cfg: [SpaceTimeTestFunction(
            RadialBump(center=cfg.field.center, r0=0.3125 * cfg.extent, width=0.125 * cfg.extent),
            CircleFunction.random_real(5, np.random.default_rng(cfg.seed + 11)), "annular")],
        identity_bump=lambda cfg: RadialBump(
            center=cfg.field.center, r0=0.27 * cfg.extent, width=0.115 * cfg.extent),
        domain_test=_annulus_leaves_domain),
    "jump": _Kind(
        region=_box(0.3), produce_scales=(2,), produce_margin=lambda eps, h: _JUMP_CUBIC_CELLS * h,
        produce_gates=_produce_jump,
        besov_gates=lambda cfg, q, rep: [("slope_tol", abs(rep.slope - 1.0 / q), "<=", cfg.tol("slope_tol"))],
        test_functions=lambda cfg: [SpaceTimeTestFunction(
            TensorBump(center=(0.05 * cfg.extent, cfg.field.point[1]),
                       halfwidth=(0.25 * cfg.extent, 0.25 * cfg.extent)),
            CircleFunction.random_real(5, np.random.default_rng(cfg.seed + 13)), "straddling")],
        jump_set=True, besov_region=_box(0.375)),
}


def check_produce(cfg: ExperimentConfig, ladder: list[Level],
                  rng: np.random.Generator) -> CheckResult:
    kind = _KINDS[cfg.field.kind]
    details: dict = {}
    rows = []
    fine = ladder[-1]
    # the finest field at the kind's extra scales, coarsest first
    scales = [mollified_level(fine.m, fine.eps * k) for k in kind.produce_scales] + [fine]
    prods = [div_entropy(lv.v, jin_kohn(1)) for lv in scales]
    gates = kind.produce_gates(cfg, scales, prods, details, rows)
    art = {"production.csv": csv_text(["label", "eps", "value"], rows).encode()} if rows else {}
    if cfg.dump_fields and rows:  # the kinds that write rows produce a field worth dumping
        buf = io.BytesIO()
        write_field(buf, fine.m.grid, prods[-1].values)
        art["production_finest.eelf"] = buf.getvalue()
    return CheckResult(details, gates, art)


def check_besov(cfg: ExperimentConfig, ladder: list[Level],
                rng: np.random.Generator) -> CheckResult:
    kind = _KINDS[cfg.field.kind]
    m = ladder[-1].m
    grid = m.grid
    region = kind.besov_region(cfg, grid) if kind.besov_region else _region(cfg, grid)
    hs = [grid.spacing * c for c in cfg.h_ladder_cells]
    details: dict = {}
    rows = []
    gates = []
    for q, rep in zip(cfg.qs, besov_seminorm(m, cfg.s, cfg.qs, hs, region)):
        details[f"q={q:g}"] = asdict(rep)
        rows += [[q, h, v, c] for h, v, c in zip(rep.hs, rep.per_h, rep.cumulative)]
        gates += kind.besov_gates(cfg, q, rep)
    art = {"besov.csv": csv_text(["q", "h", "sup_norm", "cumulative"], rows).encode()}
    return CheckResult(details, gates, art)


def check_kinetic(cfg: ExperimentConfig, ladder: list[Level],
                  rng: np.random.Generator) -> CheckResult:
    details: dict = {}
    rows = []
    worst_by_level = []
    kind = _KINDS[cfg.field.kind]
    sigma = JumpLineMeasure(cfg.field) if kind.jump_set else None
    zetas = kind.test_functions(cfg)
    for li, lv in enumerate(ladder):  # one set of test functions, paired with every level
        residuals = kinetic_residual(lv.m, sigma, zetas)
        worst_by_level.append(max(abs(r) for r in residuals))
        rows += [[li, lv.m.grid.nx, z.label, r] for z, r in zip(zetas, residuals)]
    details["worst_by_level"] = worst_by_level
    gates = [("kinetic_tol_coarse", worst_by_level[-1], "<=", cfg.tol("kinetic_tol_coarse"))]
    if len(worst_by_level) >= 2 and worst_by_level[0] > 1e-14:
        details["reduction"] = worst_by_level[-1] / worst_by_level[0]
        gates.append(("reduction", worst_by_level[-1], "<=", max(0.5 * worst_by_level[0], 1e-12)))

    # factorized-measure invariants at the finest level
    m = ladder[-1].m
    sig = factorized_measure(ladder[-1])
    one = CircleFunction.constant(1.0)
    mass_gap = float(np.max(np.abs(sig.integrate(one))))
    nu_gap = float(np.max(np.abs(sig.nu().values - 2 * np.abs(sig.g))))
    f = CircleFunction.random_real(cfg.band, np.random.default_rng(cfg.seed + 19))
    x, y = m.grid.meshgrid()
    zeta = ScalarField(m.grid, np.exp(-(x**2 + y**2)))
    gap = pairing_consistency_gap(sig, f, zeta)
    chi_ratio = chi_difference_bound(m, f, np.random.default_rng(cfg.seed + 23))
    details.update(mass_gap=mass_gap, nu_gap=nu_gap, pairing_gap=gap, chi_difference_ratio=chi_ratio)
    gates += [("mass_gap", mass_gap, "<=", 1e-12), ("nu_gap", nu_gap, "==", 0.0),
              ("pairing_gap", gap, "<=", 1e-10),
              ("chi_difference_ratio", chi_ratio, "<=", np.pi + 1e-9)]
    art = {"kinetic_residuals.csv": csv_text(["level", "n", "zeta", "residual"], rows).encode()}
    return CheckResult(details, gates, art)


def check_interaction(cfg: ExperimentConfig, ladder: list[Level],
                      rng: np.random.Generator) -> CheckResult:
    alpha = cfg.effective_alpha()
    weight = InteractionWeight(alpha)
    details: dict = {}
    rows = []
    betas = np.linspace(0.01, np.pi / 2, 64)
    closed = symmetric_interaction_closed_form(betas, weight)
    direct = symmetric_pair_interaction(betas, weight)
    agreement = float(np.max(np.abs(closed - direct)))
    prof = closed / betas ** (3 + alpha)
    c_alpha = float(np.min(prof))
    rows += [[float(b), float(c), float(d), float(r)]
             for b, c, d, r in zip(betas, closed, direct, prof)]
    details["closed_vs_direct"] = agreement
    details["coercivity_constant"] = c_alpha
    gates = [("interaction_agreement", agreement, "<=", cfg.tol("interaction_agreement")),
             ("coercivity_constant", c_alpha, ">", 0.0)]

    m = ladder[-1].m
    margin = 0.1 * cfg.extent
    grid = m.grid
    lo = grid.origin[0] + margin
    hi = grid.origin[0] + grid.extent[0] - margin - 0.05 * cfg.extent
    pts = [((float(x), float(y)), 0.05 * cfg.extent, (1.0, 0.0)) for x, y in rng.uniform(lo, hi, (64, 2))]
    # the scan divides by |Dm|^{3+alpha} = (2 sin beta)^{3+alpha}, not beta^{3+alpha};
    # in that normalisation the closed form is smallest at beta = pi/2 (the last beta)
    c_dm = float(np.min(closed / (2 * np.sin(betas)) ** (3 + alpha)))
    scan = coercivity_scan(m, pts, weight)
    details["scan_min_ratio"] = scan.min_ratio
    details["scan_used"] = scan.n_used
    if scan.n_used > 0:
        gates += [("scan_min_ratio", scan.gated_min_ratio, ">=", 0.5 * c_dm),
                  ("scan_closed_form_gap", scan.closed_form_gap, "<=", 1e-10)]

    if (gamma := _KINDS[cfg.field.kind].identity_bump(cfg)) is not None:
        h = 0.1 * cfg.extent
        rels = []
        for n in (48, 96):  # own coarse pair; the inner quadratures dominate cost
            mm = build_field(cfg.field, centered_grid(n, cfg.extent))
            rep = interaction_identity_check(mm, gamma, weight, h)
            rels.append(rep.rel_residual)
        details["identity_rel_residuals"] = rels
        gates += [("interaction_identity", rels[-1], "<=", cfg.tol("interaction_identity")),
                  ("identity_refines", rels[-1], "<=", rels[0] + 1e-12)]
    art = {"interaction.csv": csv_text(["beta", "closed", "direct", "coercivity"], rows).encode()}
    return CheckResult(details, gates, art)


def check_factorize(cfg: ExperimentConfig, ladder: list[Level],
                    rng: np.random.Generator) -> CheckResult:
    def region_of(grid: Grid2):
        return _region(cfg, grid, _factorize_margin(cfg, grid))

    fs = _entropy_suite(cfg, rng)
    eps_ladder = [lv.eps for lv in ladder]
    details: dict = {}
    rows = []
    prods = generated_productions(ladder, [f for _, f in fs])
    rep = vanishing_production_check(ladder, prods, region_of)
    details["rates"] = list(rep.rates)
    details["negative_control"] = not all(r >= cfg.tol("decay_rate") for r in rep.rates)
    for (lbl, _), row in zip(fs, rep.masses):
        rows += [[lbl, e, v] for e, v in zip(eps_ladder, row)]
    if _KINDS[cfg.field.kind].jump_set:
        gates = [("negative_control", details["negative_control"], "==", True)]
        details["expected"] = "persistent production mass (negative control)"
    else:
        gates = [("decay_rate", r, ">=", cfg.tol("decay_rate")) for r in rep.rates]
        frep = verify_factorization(ladder, fs[-1][1], cfg.p, region_of, prods[-1])
        res = frep.residual_norms
        details["factorization"] = dict(eps=eps_ladder, lhs=list(frep.lhs_norms), rhs=list(frep.rhs_norms),
                                        residual=list(res), p=cfg.p, label="factorization")
        rows += [["residual", e, v] for e, v in zip(eps_ladder, res)]
        if res[0] > 1e-13:
            gates.append(("factorization_residual", res[-1], "<=", 0.5 * res[0]))
    art = {"factorization.csv": csv_text(["label", "eps", "value"], rows).encode()}
    return CheckResult(details, gates, art)


def check_entropy_identities(cfg: ExperimentConfig, ladder: list[Level],
                             rng: np.random.Generator) -> CheckResult:
    t = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    worst_ent = 0.0
    worst_harm = 0.0
    worst_action = 0.0
    for _ in range(cfg.n_random):
        f = CircleFunction.random_real(cfg.band, rng)
        em = generated_entropy(f)
        worst_ent = max(worst_ent, float(np.max(np.abs(ent_residual(em)(t)))))
        xi = generator_harmonic_potential(f)
        he = harmonic_entropy(xi)
        lin = potential_linear_term(f)
        pts = np.stack([np.cos(t), np.sin(t)], axis=-1)
        gap = he.value(pts) - em.values(t) - lin * pts
        worst_harm = max(worst_harm, float(np.max(np.abs(gap))))
        a1 = np.real(a_coefficients(xi, np.exp(1j * t))[0])
        tgt = factor_coefficient(f, t)
        worst_action = max(worst_action, float(np.max(np.abs(a1 - tgt))))
    worst_closed = 0.0
    for k in range(2, cfg.band + 1):
        for j in (1, 2):
            f = CircleFunction.cosine(k) if j == 1 else CircleFunction.sine(k)
            d = (generated_entropy(f).as_complex()
                 - generated_entropy_closed_form(k, j).as_complex())
            worst_closed = max(worst_closed, d.sup_norm(512))
    psi = CircleFunction.random_real(cfg.band, rng)
    worst_mult = (multiplier(1, psi) - multiplier_differential(psi)).sup_norm(512)
    jk_gap = max(
        (jin_kohn_circle(1).as_complex()
         + generated_entropy(CircleFunction.cosine(2)).as_complex()).sup_norm(512),
        (jin_kohn_circle(2).as_complex()
         + generated_entropy(CircleFunction.sine(2)).as_complex()
         + CircleFunction.harmonic(1)).sup_norm(512),
    )
    gates = [("ent_residual", worst_ent, "<=", 1e-10), ("closed_form_gap", worst_closed, "<=", 1e-10),
             ("harmonic_extension_gap", worst_harm, "<=", 1e-10),
             ("action_identity_gap", worst_action, "<=", 1e-10),
             ("multiplier_paths_gap", worst_mult, "<=", 1e-12), ("jin_kohn_relation_gap", jk_gap, "<=", 1e-10)]
    return CheckResult({name: value for name, value, _, _ in gates}, gates, {})


_CHECK_FNS = dict(zip(ALL_CHECKS, (check_produce, check_besov, check_kinetic, check_interaction,
                                   check_factorize, check_entropy_identities)))

def run_config(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Execute the configured checks, in ``ALL_CHECKS`` order on the calling thread,
    on one read-only ladder and write all artifacts; returns (bundle, exit code).
    ConfigError if the field cannot be sampled on it or a kinetic test function leaves its domain."""
    outdir, kind = Path(cfg.out), _KINDS[cfg.field.kind]
    if cut := "kinetic" in cfg.checks and edge_test_functions(cfg.grid(), kind.test_functions(cfg)):
        raise ConfigError([f"the kinetic test function {label!r} reaches past the domain "
                           f"[-{cfg.extent / 2:g}, {cfg.extent / 2:g}]^2: its edge would cut the support off"
                           for label in cut])
    try:
        ladder = refinement_ladder(cfg)
    except ValueError as exc:  # the field cannot be sampled on the config's grids
        raise ConfigError([f"config field: {exc}"]) from None

    def one(name: str) -> tuple[dict, dict[str, bytes]]:
        if name == "interaction" and kind.jump_set:
            return {"status": "SKIP", "details": {"reason": f"not applicable to {cfg.field.kind} fields"}}, {}
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(ALL_CHECKS.index(name),)))
        try:
            res = _CHECK_FNS[name](cfg, ladder, rng)
        except Exception as exc:  # recorded, run continues
            return {"status": "FAIL", "details": {"error": f"{type(exc).__name__}: {exc}"}}, {}
        if failed := _failed_gates(res.gates):
            return {"status": "FAIL", "details": res.details, "failed_gates": failed}, res.artifacts
        return {"status": "PASS", "details": res.details}, res.artifacts

    results = {name: one(name) for name in ALL_CHECKS if name in cfg.checks}

    manifest: dict[str, str] = {}
    for name in sorted(results):
        for rel, data in sorted(results[name][1].items()):
            path = outdir / name / rel
            atomic_write_bytes(path, data)
            manifest[f"{name}/{rel}"] = sha256_hex(data)
    bundle = {
        "config": cfg.to_json(),
        "checks": {name: record for name, (record, _) in sorted(results.items())},
        "manifest": manifest,
        "meta": {
            "package": "eelab",
            "version": __version__,
            "mollifier": MOLLIFIER_PROFILE,
            "cutoff": CUTOFF_PROFILE,
        },
    }
    text = json_dumps(bundle)
    atomic_write_text(outdir / "bundle.json", text)
    failed = any(record["status"] == "FAIL" for record, _ in results.values())
    return bundle, (1 if failed else 0)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _load_config(path: str, args: argparse.Namespace | None) -> ExperimentConfig:
    """The config at ``path`` with the ``args`` flags, else EEL_*, applied (None: none)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from None
    cfg = config_from_json(obj)
    if args is not None:
        override(cfg, args, os.environ)
    return cfg


def _parse_entropy_arg(text: str) -> CircleFunction:
    """The generator ``--f`` names: cos:K, sin:K (K >= 1) or random:BAND[:SEED], with K, BAND
    and SEED non-negative integers; anything else is an argument error that names ``text``."""
    kind, *nums = text.split(":")
    ints, arity = [int(x) for x in nums if x.isdecimal()], {"cos": 1, "sin": 1, "random": 2}.get(kind, 0)
    if not 1 <= len(ints) == len(nums) <= arity or kind == "sin" and ints[0] == 0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not cos:K, sin:K (K >= 1) or random:BAND[:SEED] with K, BAND, SEED >= 0")
    if kind == "random":
        return CircleFunction.random_real(ints[0], np.random.default_rng(ints[1] if len(ints) > 1 else 0))
    return (CircleFunction.cosine if kind == "cos" else CircleFunction.sine)(ints[0])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="eelab", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    run_p = sub.add_parser("run", help="run the configured experiment")
    run_p.add_argument("--config", required=True)
    for flag in (f.metadata["flag"] for f in fields(ExperimentConfig) if f.metadata["flag"]):
        run_p.add_argument(f"--{flag}", help=f"falls back to EEL_{flag.upper()}")

    val_p = sub.add_parser("validate-config", help="validate a config file")
    val_p.add_argument("--config", required=True)

    dump_p = sub.add_parser("dump-field", help="write the field in the binary dump format")
    dump_p.add_argument("--config", required=True)
    dump_p.add_argument("--out", default="field.eelf")

    show_p = sub.add_parser("show-entropy", help="print coefficients and membership residual")
    show_p.add_argument("--f", required=True, type=_parse_entropy_arg,
                        help="cos:K | sin:K | random:BAND[:SEED]")

    args = ap.parse_args(argv)
    if args.cmd == "show-entropy":
        em = generated_entropy(args.f)
        res = ent_residual(em).sup_norm()
        print(json_dumps({
            "generator": args.f.to_json(),
            "entropy": em.to_json(),
            "membership_residual": res,
        }), end="")
        return 0
    # validate-config reads the file alone; dump-field takes only EEL_* overrides
    overrides = {"run": args, "dump-field": argparse.Namespace()}.get(args.cmd)
    try:
        cfg = _load_config(args.config, overrides)
        if args.cmd == "run":
            bundle, code = run_config(cfg)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.cmd == "validate-config":
        print("config ok")
        return 0
    if args.cmd == "run":
        for name, rec in bundle["checks"].items():
            print(f"{rec['status']:4s}  {name}")
            for g in rec.get("failed_gates", ()):
                print(f"      failed gate {g['name']}: {g['value']} {g['op']} {g['bound']}")
        print(f"bundle: {Path(cfg.out) / 'bundle.json'}")
        return code
    m = build_field(cfg.field, cfg.grid())
    buf = io.BytesIO()
    write_field(buf, cfg.grid(), m.theta)
    atomic_write_bytes(Path(args.out), buf.getvalue())
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

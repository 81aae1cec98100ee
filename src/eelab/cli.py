"""Configuration-driven experiment runner.

A JSON config declares a test field, grid/refinement parameters, ladders,
exponents and an entropy suite; ``eelab run`` executes the requested checks,
writes CSV/JSON artifacts and a result bundle, and exits nonzero iff any
check fails.  Identical configs reproduce byte-identical artifacts, also
across worker counts (results are computed by pure functions and written in
a fixed order).

Subcommands: run, validate-config, dump-field, show-entropy.
Flags: --config, --out, --jobs, --seed, --check; environment overrides
EEL_OUT, EEL_JOBS, EEL_SEED, EEL_CHECK take effect when the flag is absent.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, make_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bumps import RadialBump, TensorBump
from .circle import CircleFunction
from .entropy import (
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
    pairing_consistency_gap,
    vanishing_production_check,
    verify_factorization,
)
from .grids import (
    AngleField,
    ConstantSpec,
    FieldSpec,
    Grid2,
    JumpSpec,
    Mollifier,
    ScalarField,
    build_field,
    centered_grid,
    mollify,
    spec_from_json,
    write_field,
)
from .kinetic import (
    JumpLineMeasure,
    SpaceTimeTestFunction,
    chi_difference_bound,
    factorized_measure,
    kinetic_residual,
    test_function_suite,
    theta_of_vec,
)
from .production import (
    cubic_average_besov_bound,
    cubic_difference_average,
    div_entropy,
    div_sigma_closed,
    jump_production_mass,
    pointwise_bound_check,
    production_ladder,
)
from .regularity import (
    besov_seminorm,
    coercivity_profile,
    coercivity_scan,
    interaction_identity_check,
    make_interaction_weight,
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
        """(cells, mollification scale) per level, finest last, eps/spacing fixed."""
        out = []
        for k in range(self.levels - 1, -1, -1):
            n = self.n // (2**k)
            h = self.extent / n
            out.append((n, self.eps_cells * h))
        return out

    to_json = render


def config_from_json(obj: dict) -> ExperimentConfig:
    cfg = ExperimentConfig(**read_keys(ExperimentConfig, obj))
    violations = [text for text, bad in (
        (f"coarsest refinement level drops below 4 cells: grid.n={cfg.n}, levels={cfg.levels}",
         cfg.n >> (cfg.levels - 1) < 4),
        (f"alpha={cfg.alpha} inconsistent with 3p-3={3 * cfg.p - 3} (drop one of them)",
         cfg.alpha is not None and abs(cfg.alpha - (3 * cfg.p - 3)) > 1e-9),
    ) if bad]
    if violations:
        raise ConfigError(violations)
    return cfg


# ---------------------------------------------------------------------------
# check harness
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    status: str  # PASS | FAIL | SKIP
    details: dict
    artifacts: dict[str, bytes]


def _region_of(cfg: ExperimentConfig):
    """Subdomain selector for norms: annulus for vortex-like fields, box else."""
    kind = cfg.field.kind

    def fn(grid: Grid2):
        if kind == "vortex":
            r = np.hypot(*grid.meshgrid())
            return (r > 0.45 * cfg.extent / 2) & (r < 0.7 * cfg.extent / 2)
        half = 0.3 * cfg.extent
        return grid.rect_mask(-half, half, -half, half)

    return fn


def _fields_ladder(cfg: ExperimentConfig) -> list[tuple[AngleField, float]]:
    return [
        (build_field(cfg.field, centered_grid(n, cfg.extent)), eps)
        for n, eps in cfg.refinement()
    ]


def _entropy_suite(cfg: ExperimentConfig, rng: np.random.Generator) -> list[tuple[str, CircleFunction]]:
    fs: list[tuple[str, CircleFunction]] = [
        ("cos2", CircleFunction.cosine(2)),
        ("sin2", CircleFunction.sine(2)),
    ]
    for i in range(cfg.n_random):
        fs.append((f"random{i}", CircleFunction.random_real(cfg.band, rng)))
    return fs


def check_produce(cfg: ExperimentConfig, rng: np.random.Generator) -> CheckResult:
    kind = cfg.field.kind
    region_of = _region_of(cfg)
    ladder = _fields_ladder(cfg)
    details: dict = {}
    rows = []
    ok = True

    m, eps = ladder[-1]
    if kind == "constant":
        v = mollify(m, Mollifier(eps))
        d = div_entropy(v, jin_kohn(1))
        worst = float(np.max(np.abs(d.values[d.effective_mask()])))
        details["sup_production"] = worst
        ok = worst <= cfg.tol("trivial_production")
    elif kind == "vortex":
        rep = production_ladder(m, jin_kohn(1), [eps * 4, eps * 2, eps], cfg.p,
                                region_of(m.grid), label="jin-kohn-1")
        details["ladder"] = rep.to_json()
        details["decay_rate"] = rep.decay_rate()
        rows += [[f"{rep.label}", e, v] for e, v in zip(rep.eps_ladder, rep.lp_norms)]
        bound = pointwise_bound_check(
            m, jin_kohn_circle(1), jin_kohn(1), [eps * 2, eps], region_of(m.grid),
            bound=cfg.tol("pointwise_bound"),
        )
        details["pointwise_sup_ratios"] = list(bound.sup_ratios)
        pm = cubic_difference_average(m, eps)
        grid = m.grid
        r = np.hypot(*grid.meshgrid())
        inner = region_of(grid) & grid.interior_mask(eps + grid.spacing)
        outer = (r > 0.45 * cfg.extent / 2 - eps) & (r < 0.7 * cfg.extent / 2 + eps)
        hs = [grid.spacing * c for c in cfg.h_ladder_cells]
        bnd = cubic_average_besov_bound(m, eps, cfg.p, inner, outer, hs, pm=pm)
        details["bounded_sequence_ratio"] = bnd.ratio
        ok = bound.passed and bnd.passed and rep.decay_rate() >= cfg.tol("decay_rate")
    elif kind == "jump":
        spec: JumpSpec = cfg.field  # type: ignore[assignment]
        mp, mm = spec.traces()
        nrm = spec.unit_normal()
        expected = float(nrm @ (jin_kohn(1).value(mp[None])[0] - jin_kohn(1).value(mm[None])[0]))
        grid = m.grid
        half = 0.3 * cfg.extent
        strip = grid.rect_mask(-half, half, spec.point[1] - half, spec.point[1] + half)
        repm = jump_production_mass(m, jin_kohn(1), [eps * 2, eps], expected, strip)
        details["jump_mass"] = {"expected": expected, "masses": list(repm.masses),
                                "rel_errors": list(repm.rel_errors)}
        rows += [["jump-mass", e, v] for e, v in zip(repm.eps_ladder, repm.masses)]
        # cubic average on the jump line at scale 32 cells (midpoint quadrature
        # needs a well-resolved half disk); expected value from the cap area at
        # the distance of the nearest cell row
        eps_b = 32 * grid.spacing
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
        ratios = []
        for p in (1.0, 7.0 / 6.0, 4.0 / 3.0):
            bnd = cubic_average_besov_bound(m, eps_b, p, inner, outer, hs, pm=pm)
            ratios.append(bnd.ratio)
        details["bounded_sequence_ratios"] = ratios
        ok = (
            repm.rel_errors[-1] <= cfg.tol("jump_mass_rel")
            and cfg.tol("line_ratio_lo") <= ratio <= cfg.tol("line_ratio_hi")
            and all(r <= 1.0 for r in ratios)
        )
    art = {"production.csv": csv_text(["label", "eps", "value"], rows).encode()} if rows else {}
    if cfg.dump_fields and kind != "constant":
        v = mollify(m, Mollifier(eps))
        d = div_entropy(v, jin_kohn(1))
        buf = io.BytesIO()
        write_field(buf, m.grid, d.values)
        art["production_finest.eelf"] = buf.getvalue()
    return CheckResult("produce", "PASS" if ok else "FAIL", details, art)


def check_besov(cfg: ExperimentConfig, rng: np.random.Generator) -> CheckResult:
    kind = cfg.field.kind
    m, eps = _fields_ladder(cfg)[-1]
    grid = m.grid
    region = _region_of(cfg)(grid) if kind != "jump" else grid.rect_mask(
        -0.375 * cfg.extent, 0.375 * cfg.extent, -0.375 * cfg.extent, 0.375 * cfg.extent
    )
    hs = [grid.spacing * c for c in cfg.h_ladder_cells]
    details: dict = {}
    rows = []
    ok = True
    for q in cfg.qs:
        rep = besov_seminorm(m, cfg.s, q, hs, region)
        details[f"q={q:g}"] = asdict(rep)
        rows += [[q, h, v, c] for h, v, c in zip(rep.hs, rep.per_h, rep.cumulative)]
        if kind == "jump":
            ok = ok and abs(rep.slope - 1.0 / q) <= cfg.tol("slope_tol")
        elif kind == "constant":
            ok = ok and rep.seminorm <= 1e-12
        else:
            ok = ok and (rep.slope >= cfg.tol("smooth_slope") or rep.seminorm == 0.0)
    art = {"besov.csv": csv_text(["q", "h", "sup_norm", "cumulative"], rows).encode()}
    return CheckResult("besov", "PASS" if ok else "FAIL", details, art)


def check_kinetic(cfg: ExperimentConfig, rng: np.random.Generator) -> CheckResult:
    kind = cfg.field.kind
    ladder = _fields_ladder(cfg)
    details: dict = {}
    rows = []
    residual_scale = cfg.tol("kinetic_tol_coarse")
    ok = True
    worst_by_level = []
    for li, (m, eps) in enumerate(ladder):
        grid = m.grid
        box = 0.25 * cfg.extent
        if kind == "vortex":
            zetas = [
                SpaceTimeTestFunction(
                    RadialBump(center=cfg.field.center, r0=0.3125 * cfg.extent,
                               width=0.125 * cfg.extent),
                    CircleFunction.random_real(5, np.random.default_rng(cfg.seed + 11)),
                    "annular",
                )
            ]
            sigma = None
        elif kind == "jump":
            zetas = [
                SpaceTimeTestFunction(
                    TensorBump(center=(0.05 * cfg.extent, cfg.field.point[1]),
                               halfwidth=(box, box)),
                    CircleFunction.random_real(5, np.random.default_rng(cfg.seed + 13)),
                    "straddling",
                )
            ]
            sigma = JumpLineMeasure(cfg.field)
        else:
            zetas = test_function_suite(np.random.default_rng(cfg.seed + 17), 3, box,
                                        (0.15 * cfg.extent, 0.25 * cfg.extent))
            sigma = None
        rep = kinetic_residual(m, sigma, zetas)
        worst = rep.worst()
        worst_by_level.append(worst)
        rows += [[li, grid.nx, lab, r] for lab, r in zip(rep.labels, rep.residuals)]
    details["worst_by_level"] = worst_by_level
    if len(worst_by_level) >= 2 and worst_by_level[0] > 1e-14:
        details["reduction"] = worst_by_level[-1] / worst_by_level[0]
        ok = worst_by_level[-1] <= max(0.5 * worst_by_level[0], 1e-12)
    else:
        ok = worst_by_level[-1] <= residual_scale
    ok = ok and worst_by_level[-1] <= residual_scale

    # factorized-measure invariants at the finest level
    m, eps = ladder[-1]
    v = mollify(m, Mollifier(eps))
    theta_eps, _ = theta_of_vec(v)
    sig = factorized_measure(theta_eps, div_sigma_closed(v))
    one = CircleFunction.constant(1.0)
    mass_gap = float(np.max(np.abs(sig.integrate(one))))
    nu_gap = float(np.max(np.abs(sig.nu().values - 2 * np.abs(sig.g))))
    f = CircleFunction.random_real(cfg.band, np.random.default_rng(cfg.seed + 19))
    x, y = m.grid.meshgrid()
    zeta = ScalarField(m.grid, np.exp(-(x**2 + y**2)))
    gap = pairing_consistency_gap(sig, f, zeta)
    chi_rep = chi_difference_bound(m, f, np.random.default_rng(cfg.seed + 23))
    details.update(
        mass_gap=mass_gap, nu_gap=nu_gap, pairing_gap=gap,
        chi_difference_ratio=chi_rep.max_ratio,
    )
    ok = ok and mass_gap <= 1e-12 and nu_gap == 0.0 and gap <= 1e-10 and chi_rep.passed
    art = {"kinetic_residuals.csv": csv_text(["level", "n", "zeta", "residual"], rows).encode()}
    return CheckResult("kinetic", "PASS" if ok else "FAIL", details, art)


def check_interaction(cfg: ExperimentConfig, rng: np.random.Generator) -> CheckResult:
    alpha = cfg.effective_alpha()
    weight = make_interaction_weight(alpha)
    details: dict = {}
    rows = []
    betas = np.linspace(0.01, np.pi / 2, 64)
    closed = symmetric_interaction_closed_form(betas, weight)
    direct = symmetric_pair_interaction(betas, weight)
    agreement = float(np.max(np.abs(closed - direct)))
    prof = coercivity_profile(weight, betas)
    c_alpha = float(np.min(prof))
    rows += [[float(b), float(c), float(d), float(r)]
             for b, c, d, r in zip(betas, closed, direct, prof)]
    details["closed_vs_direct"] = agreement
    details["coercivity_constant"] = c_alpha
    ok = agreement <= cfg.tol("interaction_agreement") and c_alpha > 0

    kind = cfg.field.kind
    m, eps = _fields_ladder(cfg)[-1]

    margin = 0.1 * cfg.extent
    pts = []
    grid = m.grid
    lo = grid.origin[0] + margin
    hi = grid.origin[0] + grid.extent[0] - margin - 0.05 * cfg.extent
    for _ in range(64):
        x = rng.uniform(lo, hi, 2)
        pts.append(((float(x[0]), float(x[1])), 0.05 * cfg.extent, (1.0, 0.0)))
    # the scan divides by |Dm|^{3+alpha} = (2 sin beta)^{3+alpha}, not beta^{3+alpha};
    # in that normalisation the closed form is smallest at beta = pi/2 (the last beta)
    c_dm = float(np.min(closed / (2 * np.sin(betas)) ** (3 + alpha)))
    scan = coercivity_scan(m, pts, weight, c_required=0.5 * c_dm)
    details["scan_min_ratio"] = scan.min_ratio
    details["scan_used"] = scan.n_used
    ok = ok and (scan.n_used == 0 or scan.passed)

    if kind == "vortex":
        gamma = RadialBump(center=cfg.field.center, r0=0.27 * cfg.extent, width=0.115 * cfg.extent)
        h = 0.1 * cfg.extent
        rels = []
        for n in (48, 96):  # own coarse pair; the inner quadratures dominate cost
            mm = build_field(cfg.field, centered_grid(n, cfg.extent))
            rep = interaction_identity_check(mm, gamma, weight, h)
            rels.append(rep.rel_residual)
        details["identity_rel_residuals"] = rels
        ok = ok and rels[-1] <= cfg.tol("interaction_identity") and rels[-1] <= rels[0] + 1e-12
    art = {"interaction.csv": csv_text(["beta", "closed", "direct", "coercivity"], rows).encode()}
    return CheckResult("interaction", "PASS" if ok else "FAIL", details, art)


def check_factorize(cfg: ExperimentConfig, rng: np.random.Generator) -> CheckResult:
    kind = cfg.field.kind
    base_region = _region_of(cfg)
    ladder = _fields_ladder(cfg)
    eps_max = max(eps for _, eps in ladder)

    def region_of(grid: Grid2):
        # same physical window at every level so ladder norms are comparable
        return base_region(grid) & grid.interior_mask(eps_max + 2 * grid.spacing)

    fs = _entropy_suite(cfg, rng)
    details: dict = {}
    rows = []
    rep = vanishing_production_check(ladder, fs, region_of,
                                     rate_threshold=cfg.tol("decay_rate"))
    details["rates"] = list(rep.rates)
    details["negative_control"] = rep.flagged_negative_control
    for lbl, row in zip(rep.labels, rep.masses):
        rows += [[lbl, e, v] for e, v in zip(rep.eps_ladder, row)]
    if kind == "jump":
        ok = rep.flagged_negative_control
        details["expected"] = "persistent production mass (negative control)"
    else:
        ok = rep.vanishes
        frep = verify_factorization(ladder, fs[-1][1], cfg.p, region_of)
        details["factorization"] = frep.to_json()
        rows += [["residual", e, v]
                 for e, v in zip(frep.eps_ladder, frep.residual_norms)]
        if frep.residual_norms[0] > 1e-13:
            ok = ok and frep.residual_norms[-1] <= 0.5 * frep.residual_norms[0]
    art = {"factorization.csv": csv_text(["label", "eps", "value"], rows).encode()}
    return CheckResult("factorize", "PASS" if ok else "FAIL", details, art)


def check_entropy_identities(cfg: ExperimentConfig, rng: np.random.Generator) -> CheckResult:
    details: dict = {}
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
    details.update(
        ent_residual=worst_ent,
        closed_form_gap=worst_closed,
        harmonic_extension_gap=worst_harm,
        action_identity_gap=worst_action,
        multiplier_paths_gap=worst_mult,
        jin_kohn_relation_gap=jk_gap,
    )
    ok = (
        worst_ent <= 1e-10
        and worst_closed <= 1e-10
        and worst_harm <= 1e-10
        and worst_action <= 1e-10
        and worst_mult <= 1e-12
        and jk_gap <= 1e-10
    )
    return CheckResult("entropy-identities", "PASS" if ok else "FAIL", details, {})


_CHECK_FNS = dict(zip(ALL_CHECKS, (check_produce, check_besov, check_kinetic, check_interaction,
                                   check_factorize, check_entropy_identities)))

def run_config(cfg: ExperimentConfig) -> tuple[dict, int]:
    """Execute the configured checks and write all artifacts; returns (bundle, exit code)."""
    outdir = Path(cfg.out)
    results: dict[str, CheckResult] = {}

    def one(name: str) -> CheckResult:
        if name == "interaction" and cfg.field.kind == "jump":  # the identity needs a rigid field
            return CheckResult(name, "SKIP", {"reason": f"not applicable to {cfg.field.kind} fields"}, {})
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(ALL_CHECKS.index(name),)))
        try:
            return _CHECK_FNS[name](cfg, rng)
        except Exception as exc:  # recorded, run continues
            return CheckResult(name, "FAIL", {"error": f"{type(exc).__name__}: {exc}"}, {})

    names = [c for c in ALL_CHECKS if c in cfg.checks]
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            for name, res in zip(names, pool.map(one, names)):
                results[name] = res
    else:
        for name in names:
            results[name] = one(name)

    manifest: dict[str, str] = {}
    for name in sorted(results):
        for rel, data in sorted(results[name].artifacts.items()):
            path = outdir / name / rel
            atomic_write_bytes(path, data)
            manifest[f"{name}/{rel}"] = sha256_hex(data)
    bundle = {
        "config": cfg.to_json(),
        "checks": {
            name: {"status": r.status, "details": r.details} for name, r in sorted(results.items())
        },
        "manifest": manifest,
        "meta": {
            "package": "eelab",
            "version": __version__,
            "mollifier": Mollifier(1.0).profile_name,
            "cutoff": "smoothstep-quintic",
        },
    }
    text = json_dumps(bundle)
    atomic_write_text(outdir / "bundle.json", text)
    failed = any(r.status == "FAIL" for r in results.values())
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
    parts = text.split(":")
    if parts[0] == "cos":
        return CircleFunction.cosine(int(parts[1]))
    if parts[0] == "sin":
        return CircleFunction.sine(int(parts[1]))
    if parts[0] == "random":
        band = int(parts[1])
        seed = int(parts[2]) if len(parts) > 2 else 0
        return CircleFunction.random_real(band, np.random.default_rng(seed))
    raise ValueError(f"cannot parse entropy spec {text!r}; use cos:K, sin:K or random:BAND[:SEED]")


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
    show_p.add_argument("--f", required=True, help="cos:K | sin:K | random:BAND[:SEED]")

    args = ap.parse_args(argv)
    if args.cmd == "show-entropy":
        f = _parse_entropy_arg(args.f)
        em = generated_entropy(f)
        res = ent_residual(em).sup_norm()
        print(json_dumps({
            "generator": f.to_json(),
            "entropy": em.to_json(),
            "membership_residual": res,
        }), end="")
        return 0
    # validate-config reads the file alone; dump-field takes only EEL_* overrides
    overrides = {"run": args, "dump-field": argparse.Namespace()}.get(args.cmd)
    try:
        cfg = _load_config(args.config, overrides)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.cmd == "validate-config":
        print("config ok")
        return 0
    if args.cmd == "run":
        bundle, code = run_config(cfg)
        for name, rec in bundle["checks"].items():
            print(f"{rec['status']:4s}  {name}")
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

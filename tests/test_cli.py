"""Config validation, subcommands, artifacts, determinism."""

import argparse
import ast
import dataclasses
import hashlib
import importlib
import json
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from eelab import cli, grids, production
from eelab.cli import ConfigError, _load_config, config_from_json, main, run_config
from eelab.bumps import RadialBump
from eelab.grids import ConstantSpec, JumpSpec, VortexSpec, build_field, centered_grid, mollify, read_field
from eelab.kinetic import edge_test_functions
from eelab.regularity import InteractionWeight, interaction_identity_check
from eelab.reporting import json_dumps
from eelab.schema import declared, render

ROOT = Path(__file__).resolve().parents[1]


BASE = {
    "field": {"kind": "constant", "theta0": 0.3},
    "grid": {"n": 64, "extent": 2.0},
    "levels": 2,
    "eps_cells": 4.0,
    "h_ladder_cells": [2, 4, 8],
    "exponents": {"p": 7 / 6, "q": [3.0]},
    "suite": {"band": 6, "n_random": 2},
    "checks": ["besov", "kinetic", "entropy-identities"],
    "seed": 5,
}


def test_config_roundtrip_defaults():
    cfg = config_from_json({"field": {"kind": "vortex"}})
    assert cfg.effective_alpha() == pytest.approx(3 * cfg.p - 3)
    assert cfg.refinement()[-1][0] == cfg.n


def test_config_collects_all_violations():
    bad = {
        "field": {"kind": "nope"},
        "grid": {"n": 2, "extent": -1},
        "levels": 0,
        "eps_cells": 1.0,
        "h_ladder_cells": [4, 4],
        "exponents": {"p": 2.0, "alpha": 0.7},
        "checks": ["nope-check"],
        "tolerances": {"x": -1},
    }
    with pytest.raises(ConfigError) as err:
        config_from_json(bad)
    text = str(err.value)
    for frag in ("unknown field", "grid.n", "extent", "levels", "eps_cells",
                 "increasing", "p must lie", "unknown checks", "positive"):
        assert frag in text, frag


def test_config_alpha_consistency():
    obj = dict(BASE)
    obj["exponents"] = {"p": 7 / 6, "alpha": 0.5}
    cfg = config_from_json(obj)
    assert cfg.effective_alpha() == pytest.approx(0.5)
    obj["exponents"] = {"p": 7 / 6, "alpha": 0.9}
    with pytest.raises(ConfigError, match="inconsistent"):
        config_from_json(obj)


def test_validate_config_subcommand(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    assert main(["validate-config", "--config", str(path)]) == 0
    bad = dict(BASE)
    bad["levels"] = -1
    path.write_text(json.dumps(bad))
    assert main(["validate-config", "--config", str(path)]) == 2


def test_show_entropy_subcommand(capsys):
    assert main(["show-entropy", "--f", "cos:2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["membership_residual"] < 1e-12
    assert out["entropy"]["kind"] == "entropy-map"


@pytest.mark.parametrize("text", ["cos:x", "cos:", "foo", "random:-1", "sin:0", "random:2:-1", "cos:2:3"])
def test_show_entropy_rejects_a_malformed_generator(capsys, text):
    # an argument error (exit 2) whose message names the value, not a traceback
    with pytest.raises(SystemExit) as exc:
        main(["show-entropy", "--f", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if repr(text) in line] == [err.splitlines()[-1]]
    assert "Traceback" not in err


def test_dump_field_subcommand(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    out = tmp_path / "field.eelf"
    assert main(["dump-field", "--config", str(path), "--out", str(out)]) == 0
    with open(out, "rb") as fh:
        grid, payloads = read_field(fh)
    assert grid.nx == 64
    assert np.allclose(payloads[0], 0.3)


def test_dump_fields_writes_the_finest_production(tmp_path):
    # dump_fields adds the finest Jin-Kohn production of produce as one EELF
    # payload, listed in the manifest; the constant field, with no production, has none
    runs = {"jump": ({"kind": "jump"}, 96), "constant": ({"kind": "constant", "theta0": 0.3}, 64)}
    bundles = {}
    for kind, (fld, n) in runs.items():
        obj = dict(BASE, field=fld, grid={"n": n, "extent": 2.0}, checks=["produce"], dump_fields=True,
                   out=str(tmp_path / kind))
        bundles[kind], _ = run_config(config_from_json(obj))
    data = (tmp_path / "jump" / "produce" / "production_finest.eelf").read_bytes()
    assert bundles["jump"]["manifest"]["produce/production_finest.eelf"] == hashlib.sha256(data).hexdigest()
    with open(tmp_path / "jump" / "produce" / "production_finest.eelf", "rb") as fh:
        grid, payloads = read_field(fh)
    assert grid == centered_grid(96, 2.0)
    assert [p.shape for p in payloads] == [(96, 96)]
    assert not (tmp_path / "constant" / "produce" / "production_finest.eelf").exists()
    assert not any(rel.endswith(".eelf") for rel in bundles["constant"]["manifest"])


def test_run_constant_all_pass(tmp_path):
    cfg = config_from_json(BASE)
    cfg.out = str(tmp_path / "out")
    bundle, code = run_config(cfg)
    assert code == 0
    statuses = {k: v["status"] for k, v in bundle["checks"].items()}
    assert statuses == {"besov": "PASS", "kinetic": "PASS", "entropy-identities": "PASS"}
    assert (tmp_path / "out" / "bundle.json").exists()
    # manifest hashes match the files on disk
    import hashlib

    for rel, digest in bundle["manifest"].items():
        data = (tmp_path / "out" / rel).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_run_jump_skips_interaction(tmp_path):
    obj = dict(BASE)
    obj["field"] = {"kind": "jump"}
    obj["grid"] = {"n": 96, "extent": 2.0}  # the jump's 32-cell cubic average needs n > 64
    obj["checks"] = ["interaction"]
    cfg = config_from_json(obj)
    cfg.out = str(tmp_path / "out")
    bundle, code = run_config(cfg)
    assert code == 0
    assert bundle["checks"]["interaction"]["status"] == "SKIP"


def test_interaction_hands_the_vortex_identity_its_grids_and_bump(tmp_path, monkeypatch):
    # the stubbed identity records what check_interaction hands it: constant never
    # calls it; the shipped vortex, centered or moved by whole cells, calls it on its
    # own 48- and 96-cell grids with the collar around its center and h = 0.1 extent;
    # jump skips the check
    calls = []

    def identity(m, gamma, weight, h):
        calls.append((m, gamma, weight, h))
        return SimpleNamespace(rel_residual=0.0)

    monkeypatch.setattr(cli, "interaction_identity_check", identity)

    def interaction(obj, out):
        bundle, _ = run_config(config_from_json(dict(obj, checks=["interaction"], out=str(tmp_path / out))))
        return bundle["checks"]["interaction"]

    assert interaction(BASE, "constant")["status"] == "PASS"
    assert calls == []
    shipped = json.loads((ROOT / "configs" / "vortex.json").read_text())
    for center in ([0.0, 0.0], [0.125, -0.125]):
        calls.clear()
        obj = dict(shipped, field={"kind": "vortex", "center": center})
        assert interaction(obj, str(center))["status"] == "PASS"
        cfg = config_from_json(obj)
        assert [(m.grid, gamma, weight.alpha, h) for m, gamma, weight, h in calls] == [
            (centered_grid(n, 2.0), RadialBump(center=tuple(center), r0=0.54, width=0.23),
             cfg.effective_alpha(), 0.2) for n in (48, 96)]
        for m, *_ in calls:
            assert np.array_equal(m.theta, build_field(cfg.field, m.grid).theta)
    calls.clear()
    record = interaction(dict(BASE, field={"kind": "jump"}, grid={"n": 96, "extent": 2.0}), "jump")
    assert record == {"status": "SKIP", "details": {"reason": "not applicable to jump fields"}}
    assert calls == []


@pytest.mark.parametrize("kind, n", [("constant", 64), ("jump", 96), ("vortex", 64)])
def test_run_builds_each_level_once(tmp_path, monkeypatch, kind, n):
    # produce, kinetic and factorize, run one after another at --jobs 3, build
    # and mollify every (grid, eps) they evaluate exactly once: the ladder, plus
    # the finest field at the extra scales of produce
    fld = json.loads((ROOT / "configs" / f"{kind}.json").read_text())["field"]
    obj = dict(BASE, field=fld, grid={"n": n, "extent": 2.0},
               checks=["produce", "kinetic", "factorize"])
    cfg = config_from_json(obj)
    cfg.out, cfg.jobs = str(tmp_path / "out"), 3
    built, mollified = [], []

    def counted_build(spec, grid):
        built.append(grid.nx)
        return build_field(spec, grid)

    def counted_mollify(m, kernel):
        mollified.append((m.grid.nx, kernel.eps))
        return mollify(m, kernel)

    monkeypatch.setattr(cli, "build_field", counted_build)
    monkeypatch.setattr(production, "mollify", counted_mollify)
    bundle, _ = run_config(cfg)
    assert [r["details"].get("error") for r in bundle["checks"].values()] == [None] * 3
    levels = cfg.refinement()
    n_f, eps = levels[-1]
    extra = [(n_f, k * eps) for k in {"constant": (), "jump": (2,), "vortex": (4, 2)}[kind]]
    assert sorted(built) == [n for n, _ in levels]
    assert sorted(mollified) == sorted(levels + extra)


def test_rerun_is_byte_identical(tmp_path):
    for jobs, sub in ((1, "a"), (1, "b"), (4, "c")):
        cfg = config_from_json(BASE)
        cfg.out = str(tmp_path / sub)
        cfg.jobs = jobs
        run_config(cfg)
    names = ["bundle.json"] + [
        str(p.relative_to(tmp_path / "a")) for p in (tmp_path / "a").rglob("*.csv")
    ]
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        c = (tmp_path / "c" / name).read_bytes()
        assert a == b == c, name


def test_checks_run_in_order_on_the_calling_thread(tmp_path, monkeypatch):
    # --jobs is accepted but schedules nothing: the kernels' worker pool is the only one
    ran = []

    def recording(name, fn):
        def wrapped(*args):
            ran.append((name, threading.get_ident()))
            return fn(*args)
        return wrapped

    for name, fn in list(cli._CHECK_FNS.items()):
        monkeypatch.setitem(cli._CHECK_FNS, name, recording(name, fn))
    cfg = config_from_json(dict(BASE, checks=list(reversed(cli.ALL_CHECKS))))
    cfg.out, cfg.jobs = str(tmp_path / "out"), 4
    bundle, _ = run_config(cfg)
    assert [r["details"].get("error") for r in bundle["checks"].values()] == [None] * len(cli.ALL_CHECKS)
    assert ran == [(name, threading.get_ident()) for name in cli.ALL_CHECKS]


@pytest.mark.parametrize("workload, config, jobs", [
    ("constant", "constant", 1), ("constant-jobs2", "constant", 2), ("jump", "jump", 1)])
def test_shipped_bundle_matches_benchmark_digest(tmp_path, workload, config, jobs):
    # the benchmark's bundle digests, read only: a change that moves a bit of a
    # shipped constant or jump bundle fails here, not only in the benchmark
    digest = json.loads((ROOT / "perfbench" / "digests.json").read_text())[workload]
    obj = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    obj["out"], obj["seed"] = str(tmp_path / "out"), digest["seed"]
    cfg = config_from_json(obj)
    cfg.jobs = jobs
    run_config(cfg)
    text = (tmp_path / "out" / "bundle.json").read_bytes()
    assert hashlib.sha256(text).hexdigest() == digest["bundle_sha256"]


# sha256 of json.dumps({"produce": record, "besov": record}, sort_keys=True) for
# configs/vortex.json at seed 20240, recorded at the commit before produce and
# besov took one Besov pass for all their exponents; the benchmark's vortex
# digest needs the 8 s interaction check
VORTEX_PRODUCE_BESOV_SHA256 = "ecb53fcfbb01d4d125556cfebaf2a810230dcf24d91edb14896ef919bd063ce5"
# the same for {"kinetic": record, "factorize": record, "manifest": their entries},
# recorded at the commit before cli built the ladder and factorization records
VORTEX_KINETIC_FACTORIZE_SHA256 = "2b0faa89fd3f2d9429a472bce66c9435f977c75427beeb39f80e3d977244a416"


def test_shipped_vortex_produce_and_besov_records_unchanged(tmp_path):
    obj = json.loads((ROOT / "configs" / "vortex.json").read_text())
    obj.update(out=str(tmp_path / "out"), seed=20240, checks=["produce", "besov", "kinetic", "factorize"])
    bundle, _ = run_config(config_from_json(obj))
    records = {name: bundle["checks"][name] for name in ("produce", "besov")}
    text = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == VORTEX_PRODUCE_BESOV_SHA256
    records = {name: bundle["checks"][name] for name in ("kinetic", "factorize")}
    records["manifest"] = {k: v for k, v in bundle["manifest"].items()
                          if k.split("/")[0] in ("kinetic", "factorize")}
    text = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == VORTEX_KINETIC_FACTORIZE_SHA256


def test_each_check_takes_one_besov_pass(tmp_path, monkeypatch):
    # the jump's produce check bounds P_eps at three exponents, and besov fits
    # slopes at each configured q: one Besov pass each serves them all
    fld, _, n = _REACHING_RUNS[1]
    calls = []

    def spy(check, fn):
        def besov(m, s, qs, *args, **kwargs):
            calls.append((check, qs))
            return fn(m, s, qs, *args, **kwargs)
        return besov

    monkeypatch.setattr(production, "besov_seminorm", spy("produce", production.besov_seminorm))
    monkeypatch.setattr(cli, "besov_seminorm", spy("besov", cli.besov_seminorm))
    obj = dict(BASE, field=fld, grid={"n": n, "extent": 2.0}, checks=["produce", "besov"],
               exponents={"p": 7 / 6, "q": [3.0, 4.0]}, out=str(tmp_path / "out"))
    cfg = config_from_json(obj)
    bundle, _ = run_config(cfg)
    assert [r["details"].get("error") for r in bundle["checks"].values()] == [None] * 2
    assert calls == [("produce", [3.0 * p for p in (1.0, 7.0 / 6.0, 4.0 / 3.0)]), ("besov", cfg.qs)]


def test_env_overrides(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cfg.json"
    payload = dict(BASE)
    payload["checks"] = ["entropy-identities"]
    path.write_text(json.dumps(payload))
    monkeypatch.setenv("EEL_OUT", str(tmp_path / "env-out"))
    monkeypatch.setenv("EEL_SEED", "99")
    assert main(["run", "--config", str(path)]) == 0
    bundle = json.loads((tmp_path / "env-out" / "bundle.json").read_text())
    assert bundle["config"]["seed"] == 99


@pytest.mark.parametrize("flags, env, config_seed, fragment", [
    ([], {"EEL_JOBS": "abc"}, None, "EEL_JOBS must be an integer, got 'abc'"),
    ([], {"EEL_JOBS": "0"}, None, "EEL_JOBS must be >= 1, got 0"),
    (["--jobs", "-2"], {}, None, "--jobs must be >= 1, got -2"),
    ([], {"EEL_SEED": "x"}, None, "EEL_SEED must be an integer, got 'x'"),
    ([], {"EEL_SEED": "-3"}, None, "EEL_SEED must be >= 0, got -3"),
    (["--seed", "-1"], {}, None, "--seed must be >= 0, got -1"),
    ([], {}, -1, "config seed must be >= 0, got -1"),
    ([], {}, "x", "config seed must be an integer, got 'x'"),
    ([], {}, 5.7, "config seed must be an integer, got 5.7"),
    (["--check", "produce,nope"], {}, None, "--check must hold no unknown checks"),
])
def test_bad_run_overrides_rejected_before_compute(
    tmp_path, monkeypatch, capsys, flags, env, config_seed, fragment
):
    path = tmp_path / "cfg.json"
    payload = dict(BASE)
    if config_seed is not None:
        payload["seed"] = config_seed
    path.write_text(json.dumps(payload))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out), *flags]) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_run_override_flag_wins_over_environment(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    monkeypatch.setenv("EEL_SEED", "x")
    monkeypatch.setenv("EEL_JOBS", "abc")
    args = argparse.Namespace(out=None, jobs=2, seed=0, check=None)
    cfg = _load_config(str(path), args)
    assert (cfg.jobs, cfg.seed) == (2, 0)


def test_override_text_is_read_like_the_file(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    monkeypatch.setenv("EEL_CHECK", "besov, kinetic,")
    monkeypatch.setenv("EEL_SEED", " 7 ")
    monkeypatch.setenv("EEL_JOBS", "")  # empty counts as absent
    cfg = _load_config(str(path), argparse.Namespace())
    assert (cfg.checks, cfg.seed, cfg.jobs) == (("besov", "kinetic"), 7, 1)
    assert _load_config(str(path), None).checks == tuple(BASE["checks"])


def test_exit_status_reflects_failures(tmp_path, capsys):
    # impossible tolerance turns a passing check into FAIL and exit 1; the bundle
    # record and the printed report name the gate that failed
    obj = dict(BASE)
    obj["field"] = {"kind": "vortex"}
    obj["checks"] = ["besov"]
    obj["tolerances"] = {"smooth_slope": 1e9}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    record = json.loads((tmp_path / "out" / "bundle.json").read_text())["checks"]["besov"]
    slope = record["details"]["q=3"]["slope"]
    assert record["failed_gates"] == [{"name": "smooth_slope", "value": slope, "op": ">=", "bound": 1e9}]
    assert capsys.readouterr().out.splitlines()[:2] == [
        "FAIL  besov", f"      failed gate smooth_slope: {slope} >= 1000000000.0"]


#: an impossible value of each tolerance: above every measurement for a lower
#: bound, below every one for an upper bound
_IMPOSSIBLE = {name: 1e300 if name in ("decay_rate", "line_ratio_lo", "smooth_slope") else 1e-300
               for name in cli.TOLERANCES}
#: the (field, check) pairs whose gates read each tolerance, on BASE-sized configs
_TOLERANCE_READERS = {
    "trivial_production": {("constant", "produce")},
    "pointwise_bound": {("vortex", "produce")},
    "decay_rate": {("vortex", "produce"), ("vortex", "factorize")},
    "line_ratio_lo": {("jump", "produce")},
    "line_ratio_hi": {("jump", "produce")},
    "jump_mass_rel": {("jump", "produce")},
    "slope_tol": {("jump", "besov")},
    "smooth_slope": {("vortex", "besov")},
    "kinetic_tol_coarse": {("constant", "kinetic"), ("jump", "kinetic"), ("vortex", "kinetic")},
    "interaction_agreement": {("constant", "interaction"), ("vortex", "interaction")},
    "interaction_identity": {("vortex", "interaction")},
}


@pytest.mark.parametrize("name", sorted(cli.TOLERANCES))
def test_every_tolerance_is_wired_to_its_gate(tmp_path, monkeypatch, name):
    # every check on BASE-sized constant, jump and vortex configs with one
    # tolerance impossible: exactly the checks that read it fail, each naming only
    # that tolerance, at its configured bound (the vortex identity is stubbed with
    # a positive residual so that its gate can fail)
    assert set(_TOLERANCE_READERS) == set(cli.TOLERANCES)
    monkeypatch.setattr(cli, "interaction_identity_check",
                        lambda *args: SimpleNamespace(rel_residual=1e-3))
    failed = set()
    for kind, fld, n in (("constant", {"kind": "constant", "theta0": 0.3}, 64),
                         ("jump", {"kind": "jump"}, 96), ("vortex", {"kind": "vortex"}, 64)):
        obj = dict(BASE, field=fld, grid={"n": n, "extent": 2.0}, checks=list(cli.ALL_CHECKS),
                   tolerances={name: _IMPOSSIBLE[name]}, out=str(tmp_path / kind))
        bundle, _ = run_config(config_from_json(obj))
        for check, record in bundle["checks"].items():
            assert record["status"] != "FAIL" or "error" not in record["details"], (kind, check)
            if record["status"] == "FAIL":
                failed.add((kind, check))
                assert {(g["name"], g["bound"]) for g in record["failed_gates"]} == {
                    (name, _IMPOSSIBLE[name])}, (kind, check)
            else:
                assert "failed_gates" not in record, (kind, check)
    assert failed == _TOLERANCE_READERS[name]


def test_benchmark_tracer_contract(tmp_path):
    """perfbench/tracer.py binds eelab names from outside; a traced run must still work.

    It wraps ``cli._CHECK_FNS``, ``AngleField.unit_vectors`` and
    ``CircleFunction.__call__`` and reads the parameters ``m``, ``eps``,
    ``h_ladder``, ``n_directions``, ``theta0``, ``theta1``, ``t`` and ``self``;
    the vortex interaction identity is too slow here, so the interaction check
    runs on a constant field.  Shared Fourier bases are built by
    ``circle.fourier_basis``, whose spans must show so that ``circle.self_s``
    covers all basis work (a work key of None: the span only has to occur).
    """
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    runs = {
        "vortex": ({"kind": "vortex"}, ["produce", "besov"], 64,
                   {"production.cubic_difference_average": "offset_cells",
                    "regularity.besov_seminorm": "besov_offsets"}),
        "constant": ({"kind": "constant", "theta0": 0.3}, ["interaction"], 32,
                     {"quadrature.interaction_pair_value": "value_pairs"}),
        "circle": ({"kind": "constant", "theta0": 0.3}, ["kinetic", "factorize"], 64,
                   {"circle.eval": "eval_terms", "circle.fourier_basis": None}),
    }
    for name, (fld, checks, n, spans) in runs.items():
        obj = dict(BASE, field=fld, checks=checks, grid={"n": n, "extent": 2.0})
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(obj))
        proc = subprocess.run(
            [sys.executable, str(child), "--config", str(cfg), "--out", str(tmp_path / name),
             "--seed", "5", "--jobs", "1", "--mode", "trace"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["statuses"] == {c: "PASS" for c in checks}
        work = {}
        for _, span, _, _, _, _, counts in result["spans"]:
            work.setdefault(span, []).append(counts)
        for check in checks:
            assert f"cli.check.{check}" in work
        for span, key in spans.items():
            assert work.get(span), span
            assert key is None or all(c[key] > 0 for c in work[span]), span


#: runs that reach every method of ``src/`` whose name another class also
#: defines, and read every dataclass field whose name another class also
#: declares: every check on each field kind (the vortex interaction check's
#: (48, 96) identity grids are too slow here; ``_reached`` runs its identity on
#: a 16-cell grid and reads its ``rel_residual``, as the check does), and the
#: ``show-entropy`` subcommand, the only caller of ``CircleFunction.to_json``
#: and ``EntropyMap.to_json``
_REACHING_RUNS = (
    ({"kind": "constant", "theta0": 0.3}, list(cli.ALL_CHECKS), 64),
    ({"kind": "jump"}, list(cli.ALL_CHECKS), 96),
    ({"kind": "vortex"}, [c for c in cli.ALL_CHECKS if c != "interaction"], 64),
)


def _reached(monkeypatch, tmp_path, methods: set[tuple[str, str, str]],
             fields: set[tuple[str, str, str]]) -> set[str]:
    """Which of ``methods`` (module, class, method) run and which of ``fields``
    (module, class, field) are read under ``_REACHING_RUNS``; each is recorded on
    the class that declares it, so a call or a read through another class with a
    member of the same name does not count.  Rendering a config reads every field
    through ``asdict``, but counts as a read only of the keys it writes."""
    reached = set()
    rendering = []

    def recording(key, fn):
        def wrapped(*args, **kwargs):
            reached.add(key)
            return fn(*args, **kwargs)
        return wrapped

    def reading(prefix, names, get):
        def getattribute(self, name):
            if name in names and not (rendering and rendering[-1] is self):
                reached.add(f"{prefix}.{name}")
            return get(self, name)
        return getattribute

    def rendering_what_it_writes(cfg):
        rendering.append(cfg)
        try:
            return render(cfg)
        finally:
            rendering.pop()
            reached.update(f"cli.ExperimentConfig.{f.name}" for f in declared(cli.ExperimentConfig).values()
                           if f.metadata["render"])

    for mod, clsname, name in methods:
        cls = getattr(importlib.import_module(f"eelab.{mod}"), clsname)
        monkeypatch.setattr(cls, name, recording(f"{mod}.{clsname}.{name}", cls.__dict__[name]))
    for mod, clsname in {(mod, clsname) for mod, clsname, _ in fields}:
        cls = getattr(importlib.import_module(f"eelab.{mod}"), clsname)
        names = {name for m, c, name in fields if (m, c) == (mod, clsname)}
        monkeypatch.setattr(cls, "__getattribute__", reading(f"{mod}.{clsname}", names, cls.__getattribute__))
    monkeypatch.setattr(cli.ExperimentConfig, "to_json", rendering_what_it_writes)
    for i, (fld, checks, n) in enumerate(_REACHING_RUNS):
        obj = dict(BASE, field=fld, checks=checks, grid={"n": n, "extent": 2.0}, out=str(tmp_path / str(i)))
        bundle, _ = run_config(config_from_json(obj))
        assert all(rec["status"] != "ERROR" for rec in bundle["checks"].values()), fld
    # the vortex interaction check's identity, on a grid small enough for tier 1
    interaction_identity_check(build_field(VortexSpec(), centered_grid(16, 2.0)),
                               RadialBump(center=(0.0, 0.0), r0=0.54, width=0.23),
                               InteractionWeight(0.5), 0.2).rel_residual
    assert main(["show-entropy", "--f", "random:4:1"]) == 0
    return reached


def test_library_holds_only_what_it_runs(monkeypatch, tmp_path, capsys):
    """Every public top-level def/class of ``src/eelab`` is referenced in ``src/``
    outside its own definition and ``__init__``, and so is every public method
    of its classes, as an attribute or by name in its class body; test-only
    oracles live in tests/.  A method name that more than one class defines
    (``to_json``, ``is_real``, ``value``, ``gradient``) says nothing by name, so
    each such method must instead run, on its own class, when ``src/`` runs
    every check and ``show-entropy`` (``_REACHING_RUNS``).  Exempt are the entry
    points ``cli.main`` and the EELF pair ``read_field``/``write_field``, dunder
    (protocol) methods, and the methods that perfbench/tracer.py wraps by name
    (its ``METHODS``).  Every field of a ``src/`` dataclass is read: a field
    whose name no other dataclass declares may be read as an attribute anywhere
    in ``src/``; any other field, and one that no attribute read names, must be
    read on its own class under ``_REACHING_RUNS`` (``asdict`` reads every field
    of what it serializes; ``render`` reads only the keys it writes).  Exempt is
    ``ExperimentConfig.jobs``, which nothing reads.  ``__init__`` imports nothing."""
    def names(tree):
        return Counter(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))

    def attrs(tree):
        return Counter(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))

    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in (ROOT / "src" / "eelab").glob("*.py") if p.name != "__init__.py"}
    refs = sum((names(t) for t in trees.values()), Counter())
    attr_refs = sum((attrs(t) for t in trees.values()), Counter())
    exempt = {("cli", "main"), ("grids", "read_field"), ("grids", "write_field"),
              # perfbench/tracer.py METHODS: looked up as cls.__dict__["jacobian"]
              ("entropy", "ExtendedEntropy.jacobian"),
              # validated and kept so that --jobs command lines keep working; whether it
              # goes or schedules work again is the benchmark owner's call (ROADMAP item 11)
              ("cli", "ExperimentConfig.jobs")}
    unused = [f"{mod}.{node.name}" for mod, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
              and (mod, node.name) not in exempt and refs[node.name] == names(node)[node.name]]
    methods = [(mod, cls, node) for mod, tree in trees.items()
               for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_") and (mod, f"{cls.name}.{node.name}") not in exempt]
    shared = {name for name, k in Counter(node.name for _, _, node in methods).items() if k > 1}
    for mod, cls, node in methods:
        aliases = sum((names(n) for n in cls.body if not isinstance(n, ast.FunctionDef)), Counter())
        if (node.name not in shared and attr_refs[node.name] == attrs(node)[node.name]
                and not aliases[node.name]):
            unused.append(f"{mod}.{cls.name}.{node.name}")
    reads = Counter(n.attr for t in trees.values() for n in ast.walk(t)
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
    fields = [(mod, cls.name, node.target.id) for mod, tree in trees.items() for cls in tree.body
              if isinstance(cls, ast.ClassDef)
              and any("dataclass" in ast.unparse(d) for d in cls.decorator_list)
              for node in cls.body if isinstance(node, ast.AnnAssign)
              and (mod, f"{cls.name}.{node.target.id}") not in exempt]
    declarers = Counter(name for _, _, name in fields)
    read_at_run = {f for f in fields if declarers[f[2]] > 1 or not reads[f[2]]}
    init = ast.parse((ROOT / "src" / "eelab" / "__init__.py").read_text(encoding="utf-8"))
    unused += [ast.unparse(n) for n in ast.walk(init) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert unused == []
    by_class = {(mod, cls.name, node.name) for mod, cls, node in methods if node.name in shared}
    reached = _reached(monkeypatch, tmp_path, by_class, read_at_run)
    capsys.readouterr()
    assert sorted({".".join(key) for key in by_class | read_at_run} - reached) == []


def test_field_kind_is_decided_in_one_place():
    """A field kind is decided by its ``grids`` spec class and its ``cli._KINDS`` record
    alone: in ``src/eelab`` no comparison has a field-kind string or a ``.kind`` attribute
    as an operand, no dict but ``_KINDS`` is keyed by one, no ``isinstance`` call names a
    spec class, and the record and the specs know the same kinds."""
    kinds, specs = set(grids._SPECS), {cls.__name__ for cls in grids._SPECS.values()}

    def names_a_kind(node):
        return (isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in kinds
                or isinstance(node, ast.Attribute) and node.attr == "kind")

    found = []
    for path in sorted((ROOT / "src" / "eelab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        record = [n.value for n in tree.body if isinstance(n, ast.Assign) and ast.unparse(n.targets[0]) == "_KINDS"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                dispatch = any(map(names_a_kind, [node.left, *node.comparators]))
            elif isinstance(node, ast.Dict):
                dispatch = node not in record and any(map(names_a_kind, filter(None, node.keys)))
            else:
                dispatch = (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
                            and any(isinstance(n, ast.Name) and n.id in specs for n in ast.walk(node.args[1])))
            if dispatch:
                found.append(f"{path.stem}:{node.lineno}: {ast.unparse(node)}")
    assert found == []
    assert cli._KINDS.keys() == grids._SPECS.keys()


#: what a report field or a parameter of a library function would be called if it
#: held a verdict or the bound that one is judged against
_VERDICT_NAMES = {"passed", "bound", "c_required", "rate_threshold", "vanishes",
                  "flagged_negative_control"}


def test_only_cli_compares_with_bounds():
    """Library reports hold measurements; ``cli`` alone judges them.  No class or
    function in ``src/eelab`` outside ``cli.py`` declares a field or a parameter
    with a verdict name."""
    found = []
    for path in (ROOT / "src" / "eelab").glob("*.py"):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                declared_names = [x.arg for x in params if x]
            elif isinstance(node, ast.ClassDef):
                targets = [t for stmt in node.body if isinstance(stmt, (ast.AnnAssign, ast.Assign))
                           for t in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])]
                declared_names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{path.stem}.{getattr(node, 'name', 'lambda')}.{name}"
                      for name in declared_names if name in _VERDICT_NAMES]
    assert found == []


def _jump_config_with(path: str, value) -> dict:
    """The shipped jump config with ``value`` at ``path``; several space-separated
    paths take a tuple of values."""
    obj = json.loads((ROOT / "configs" / "jump.json").read_text())
    for p, v in zip(path.split(), value) if " " in path else [(path, value)]:
        *groups, leaf = p.split(".")
        node = obj
        for g in groups:
            node = node[g]
        node[leaf] = v
    return obj


@pytest.mark.parametrize("path, value, fragment", [
    ("grid.n", "abc", "config grid.n must be an integer, got 'abc'"),
    ("levels", "x", "config levels must be an integer, got 'x'"),
    ("grid", [1], "config grid must be an object, got [1]"),
    ("tolerances", {"jump_mass_rel": "x"},
     "config tolerances.jump_mass_rel must be a finite number, got 'x'"),
    ("grid.n", 256.7, "config grid.n must be an integer, got 256.7"),
    ("grid.n", 1e9, "config grid.n must lie in [4, 4096], got 1000000000"),
    ("suite.band", 2.5, "config suite.band must be an integer, got 2.5"),
    ("exponents.p", 1, "config exponents.p must lie in (1, 4/3], got 1.0"),
    ("exponents.p", True, "config exponents.p must be a finite number, got True"),
    ("h_ladder_cells", [0, 1],
     "config h_ladder_cells must be positive and strictly increasing, got [0.0, 1.0]"),
    ("exponents.q", [], "config exponents.q must be a non-empty list, got []"),
    ("exponents.s", -5, "config exponents.s must lie in (0, 1), got -5.0"),
    ("suite.n_random", -3, "config suite.n_random must be >= 0, got -3"),
    ("grid.extent", float("nan"), "config grid.extent must be a finite number, got nan"),
    ("eps_cells", float("inf"), "config eps_cells must be a finite number, got inf"),
    ("dump_fields", "no", "config dump_fields must be true or false, got 'no'"),
    ("colour", "blue", "config has unknown key 'colour'"),
    ("tolerances", {"jump_mass_rell": 0.5}, "config tolerances has unknown key 'jump_mass_rell'"),
    ("field.normal", [0, 0], "config field.normal must be nonzero, got [0, 0]"),
    ("checks", "produce", "config checks must be a non-empty list, got 'produce'"),
    # grids too small for a check window, at the shipped levels 3 and eps_cells 8
    ("grid.n", 80, "the factorize window, the check region at distance >= 1 from the boundary "
     "of the 20-cell grid, holds no cell (grid.n=80, levels=3, eps_cells=8)"),
    ("grid.n", 64, "the produce window"),
    ("field grid.n", ({"kind": "constant"}, 80), "factorize window"),
    ("field grid.n", ({"kind": "vortex"}, 120), "factorize window"),
    ("field grid.n", ({"kind": "vortex"}, 96), "the produce window"),
    ("levels", 5, "holds no cell (grid.n=256, levels=5, eps_cells=8)"),
    ("eps_cells", 30, "holds no cell (grid.n=256, levels=3, eps_cells=30)"),
    ("field.theta_plus", 0.0, "config field: jump traces violate the divergence-free matching"),
    # the straddling test function, 0.5 either side of the line, crosses the top edge
    ("field.point grid.n", ([0, 0.6], 128), "the kinetic test function 'straddling' reaches past "
     "the domain [-1, 1]^2: its edge would cut the support off"),
])
def test_bad_config_rejected_before_compute(tmp_path, capsys, path, value, fragment):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_jump_config_with(path, value)))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_vortex_annulus_follows_the_center():
    # r is measured from field.center: a center moved by whole cells moves the annulus with it
    grid, eps = centered_grid(64, 2.0), 0.125
    centered = cli._annulus(cli.ExperimentConfig(field=VortexSpec()), grid, eps)
    moved = cli._annulus(cli.ExperimentConfig(field=VortexSpec(center=(0.125, -0.0625))), grid, eps)
    assert moved.any() and np.array_equal(moved, np.roll(centered, (-2, 4), axis=(0, 1)))


@pytest.mark.parametrize("checks", [None, "produce,besov,factorize"])
def test_off_center_vortex_whose_annulus_leaves_the_domain_is_rejected(tmp_path, capsys, checks):
    # the shipped vortex moved to (0.5, 0): its annulus, widened by produce's eps,
    # crosses x = 1, so every run stops before compute whatever checks it runs
    obj = json.loads((ROOT / "configs" / "vortex.json").read_text())
    obj["field"]["center"] = [0.5, 0.0]
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(obj))
    message = ("config field.center [0.5, 0.0] puts the vortex annulus 0.45 < r/(extent/2) < 0.7, "
               "widened by 0.0625, past the domain [-1, 1]^2")
    assert main(["validate-config", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    argv = ["run", "--config", str(cfg), "--out", str(out)] + (["--check", checks] if checks else [])
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cut_kinetic_test_function_rejected_only_when_kinetic_runs(tmp_path, capsys):
    # the edge point above cuts the straddling test function off; only a run whose
    # final check list holds kinetic pairs it with anything
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_jump_config_with("field.point grid.n checks",
                                                ([0, 0.6], 128, ["produce", "kinetic"]))))
    assert main(["validate-config", "--config", str(cfg)]) == 0
    assert main(["dump-field", "--config", str(cfg), "--out", str(tmp_path / "f.eelf")]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"), "--check", "produce"]) != 2
    assert json.loads((tmp_path / "a" / "bundle.json").read_text())["checks"].keys() == {"produce"}
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
    assert "'straddling' reaches past the domain" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_no_constant_seed_cuts_a_kinetic_test_function(tmp_path):
    # the constant suite draws centers in +-extent/4 and half-widths below extent/4,
    # so its supports stay inside the domain whatever the seed
    cfg = config_from_json(json.loads((ROOT / "configs" / "constant.json").read_text()))
    for seed in range(1000):
        cfg.seed = seed
        assert edge_test_functions(cfg.grid(), cli._KINDS[cfg.field.kind].test_functions(cfg)) == []
    # seed 299 draws a bump that reaches the 64-cell grid's outermost cell ring
    out = tmp_path / "out"
    assert main(["run", "--config", str(ROOT / "configs" / "constant.json"), "--out", str(out),
                 "--seed", "299", "--check", "kinetic"]) == 0
    assert json.loads((out / "bundle.json").read_text())["checks"]["kinetic"]["status"] == "PASS"


# sha256 of the rendered config of each shipped file, as the benchmark child
# loads it (out and seed overridden, then jobs set); the bundle's "config"
# block is this rendering, so it must not move
GOLDEN_CONFIG_SHA256 = {
    "constant": "c644b198b2d7cb55b4095d796bc08b6316fe34b118d3d5ce1137ab51179561ea",
    "jump": "7148af4573238d1a84a131a5f28419f02fb48c899fe76902f9bae2790334dbc0",
    "vortex": "3dab9a50809d45bc7aa256a2613f9f945bba86d186043270000100309087d920",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIG_SHA256))
def test_shipped_config_renders_unchanged(tmp_path, name):
    obj = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    obj["out"] = str(tmp_path / "out")
    obj["seed"] = 20240
    cfg = config_from_json(obj)
    cfg.jobs = 2
    text = json_dumps(cfg.to_json())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CONFIG_SHA256[name]
    assert config_from_json(json.loads(text)).to_json() == cfg.to_json()


def test_readme_config_reference_lists_every_key():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Config reference"):]
    table = set(re.findall(r"^\| `([^`]+)`", section, flags=re.M))
    keys = {path for path in declared(cli.ExperimentConfig)}
    keys |= {f.name for f in dataclasses.fields(cli.ExperimentConfig) if f.metadata["flag"]}
    for spec in (ConstantSpec, VortexSpec, JumpSpec):
        keys |= {f"field.{path}" for path in declared(spec)}
    keys |= set(cli.TOLERANCES)
    assert keys <= table, sorted(keys - table)


def test_vortex_interaction_scan_passes_at_every_seed(monkeypatch):
    # check_interaction on the shipped vortex config with its (48, 96) identity
    # stubbed out, so that the coercivity scan decides
    monkeypatch.setattr(cli, "interaction_identity_check",
                        lambda *args: SimpleNamespace(rel_residual=0.0))
    cfg = config_from_json(json.loads((ROOT / "configs" / "vortex.json").read_text()))
    ladder = cli.refinement_ladder(cfg)
    spawn = (cli.ALL_CHECKS.index("interaction"),)
    failed = [
        seed for seed in range(200)
        if cli._failed_gates(cli.check_interaction(
            cfg, ladder, np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn))
        ).gates)
    ]
    assert failed == []


def test_cli_import_loads_no_scipy():
    """``import eelab.cli`` loads no scipy module: scipy is a test oracle only.
    Checked in a child process: the test process has imported scipy already."""
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import eelab.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runs_without_scipy(tmp_path):
    # every check of the small constant and jump runs, in a child where any scipy
    # import raises, ends as in process and writes the same bundle bytes
    objs = [dict(BASE, field=fld, grid={"n": n, "extent": 2.0}, checks=checks, out=str(tmp_path / kind))
            for (fld, checks, n), kind in zip(_REACHING_RUNS[:2], ("constant", "jump"))]
    code = (f"import json, sys; sys.modules['scipy'] = None; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "from eelab.cli import config_from_json, run_config; "
            "sys.exit(max(run_config(config_from_json(json.loads(a)))[1] for a in sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", code, *map(json.dumps, objs)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for obj, skip in zip(objs, ((), ("interaction",))):
        child = (Path(obj["out"]) / "bundle.json").read_bytes()
        statuses = {k: v["status"] for k, v in json.loads(child)["checks"].items()}
        assert statuses == {c: "SKIP" if c in skip else "PASS" for c in cli.ALL_CHECKS}
        cfg = config_from_json(obj)
        cfg.out = str(tmp_path / "in-process")
        run_config(cfg)
        assert (tmp_path / "in-process" / "bundle.json").read_bytes() == child

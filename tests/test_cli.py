"""Config validation, subcommands, artifacts, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eelab.cli import ConfigError, config_from_json, main, run_config
from eelab.grids import read_field


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


def test_dump_field_subcommand(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    out = tmp_path / "field.eelf"
    assert main(["dump-field", "--config", str(path), "--out", str(out)]) == 0
    with open(out, "rb") as fh:
        grid, payloads = read_field(fh)
    assert grid.nx == 64
    assert np.allclose(payloads[0], 0.3)


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
    obj["checks"] = ["interaction"]
    cfg = config_from_json(obj)
    cfg.out = str(tmp_path / "out")
    bundle, code = run_config(cfg)
    assert code == 0
    assert bundle["checks"]["interaction"]["status"] == "SKIP"


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


def test_exit_status_reflects_failures(tmp_path):
    # impossible tolerance turns a passing check into FAIL and exit 1
    obj = dict(BASE)
    obj["field"] = {"kind": "vortex"}
    obj["checks"] = ["besov"]
    obj["tolerances"] = {"smooth_slope": 1e9}
    cfg = config_from_json(obj)
    cfg.out = str(tmp_path / "out")
    _, code = run_config(cfg)
    assert code == 1


def test_benchmark_tracer_contract(tmp_path):
    """perfbench/tracer.py binds eelab names from outside; a traced run must still work.

    It wraps ``cli._CHECK_FNS`` and ``AngleField.unit_vectors`` and reads the
    parameters ``m``, ``eps``, ``h_ladder``, ``n_directions``, ``theta0`` and
    ``theta1``; the vortex interaction identity is too slow here, so the
    interaction check runs on a constant field.
    """
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    runs = {
        "vortex": ({"kind": "vortex"}, ["produce", "besov"], 64,
                   {"production.cubic_difference_average": "offset_cells",
                    "regularity.besov_seminorm": "besov_offsets"}),
        "constant": ({"kind": "constant", "theta0": 0.3}, ["interaction"], 32,
                     {"quadrature.interaction_pair_value": "value_pairs"}),
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
            assert all(c[key] > 0 for c in work[span]), span

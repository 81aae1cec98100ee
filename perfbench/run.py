"""Benchmark of ``eelab run`` on the shipped configs.

    python3 perfbench/run.py --workload constant --seed 20240 --seconds 12 --trace 0

Each repetition is one ``eelab run`` in a fresh child process (child.py):
``eelab.cli.config_from_json`` on a shipped config with ``out``, ``seed`` and
``jobs`` overridden in memory, then ``eelab.cli.run_config``.  The loop is
closed with a single client: eelab is a batch lab with no arrival process, so
repetitions and workloads run strictly one at a time.  Overlapping runs on a
small machine roughly double each other's wall time.

``--trace 0`` measures, with tracing off:

* ``run_s``: wall time of ``run_config``, config ready to ``bundle.json``
  written (median over repetitions);
* ``setup_s``: child start through ``import eelab.cli`` and
  ``config_from_json``, median over three set-up-only children and every
  repetition;
* ``cpu_s``: process CPU time during ``run_config``, library threads included;
* ``peak_rss_mb``: peak resident set size of the child.

``--trace 1`` runs one untraced and one traced repetition, after the same
set-up-only children, and reports the per-layer metrics of tracer.py with the
tracing overhead.

Every repetition is checked: the child must exit 0, every check must end with
its expected status, and ``bundle.json`` must be byte-identical to that of the
workload's first repetition.  A repetition that fails any of these counts all
of its checks as failed; ``attempted`` and ``failed`` in the result line count
checks.  Outputs go to a temporary directory under ``.perfbench-work/`` in the
checkout, removed at exit; ``configs/`` is only read.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from tracer import CHECKS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: the whole invocation must end within 180 s; children are killed past this
HARD_LIMIT_S = 170.0
#: set-up-only children started before any repetition.  They are set-up samples
#: and also warm the machine: on a small VM the first seconds of CPU work after
#: an idle spell run up to 30% slower.
SETUP_CHILDREN = 3


@dataclass(frozen=True)
class Workload:
    config: str
    jobs: int
    skip: tuple[str, ...] = ()
    #: jobs of an extra repetition whose bundle every timed repetition must equal
    reference_jobs: int | None = None

    def expected(self) -> dict[str, str]:
        return {c: "SKIP" if c in self.skip else "PASS" for c in CHECKS}


#: why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "vortex": Workload("vortex", 1),
    "jump": Workload("jump", 1, skip=("interaction",)),
    "constant": Workload("constant", 1),
    "constant-jobs2": Workload("constant", 2, reference_jobs=1),
}


@dataclass
class Rep:
    """One child process: its set-up time and, unless set-up only, its result line."""

    wall_s: float
    setup_s: float | None = None
    exit_code: int | None = None
    result: dict = field(default_factory=dict)
    #: why the child gave no usable output; a run that ends with FAIL verdicts is not an error
    error: str | None = None


def spawn(workload: Workload, seed: int, jobs: int, mode: str, work: Path, deadline: float) -> Rep:
    out = Path(tempfile.mkdtemp(dir=work))
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--config", str(ROOT / "configs" / f"{workload.config}.json"),
        "--out", str(out), "--seed", str(seed), "--jobs", str(jobs), "--mode", mode,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        t_ready = time.perf_counter()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(out, ignore_errors=True)
    rep = Rep(wall_s=time.perf_counter() - t0, exit_code=proc.returncode)
    if first.strip() != "READY":
        rep.error = f"child did not reach READY (exit {proc.returncode})"
        return rep
    rep.setup_s = t_ready - t0
    if mode == "setup":
        if proc.returncode != 0:
            rep.error = f"set-up child exited {proc.returncode}"
        return rep
    lines = rest.strip().splitlines()
    try:
        rep.result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rep.error = f"child printed no result (exit {proc.returncode})"
    return rep


def score(reps: list[Rep], expected: dict[str, str]) -> tuple[int, int]:
    """(checks attempted, checks failed) over ``reps``.

    A repetition that errored, exited nonzero, or wrote a ``bundle.json``
    different from the first repetition's counts every check as failed;
    otherwise each check whose status differs from ``expected`` fails.
    """
    reference = next((r.result["digest"] for r in reps if r.result.get("digest")), None)
    attempted = failed = 0
    for rep in reps:
        attempted += len(expected)
        if rep.error or rep.exit_code != 0 or rep.result.get("digest") != reference:
            failed += len(expected)
            continue
        statuses = rep.result.get("statuses", {})
        failed += sum(statuses.get(name) != want for name, want in expected.items())
    return attempted, failed


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def drift_note(name: str, seed: int, digest: str | None) -> str:
    """Compare the bundle digest with the one recorded in digests.json (information only)."""
    recorded = json.loads((HERE / "digests.json").read_text()).get(name)
    if digest is None or recorded is None or recorded["seed"] != seed:
        return "no recorded digest for this seed"
    if recorded["bundle_sha256"] == digest:
        return "matches the recorded digest"
    return f"differs from the recorded digest {recorded['bundle_sha256'][:16]} (drift)"


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, int, int, list[str]]:
    wl = WORKLOADS[name]
    deadline = time.perf_counter() + HARD_LIMIT_S
    setup_only = [spawn(wl, seed, wl.jobs, "setup", work, deadline) for _ in range(SETUP_CHILDREN)]
    checked: list[Rep] = []  # every repetition whose outputs are scored, in order

    def run_rep(jobs: int, mode: str) -> Rep:
        rep = spawn(wl, seed, jobs, mode, work, deadline)
        checked.append(rep)
        return rep

    if wl.reference_jobs is not None:
        run_rep(wl.reference_jobs, "run")
    timed: list[Rep] = []
    traced: Rep | None = None
    if trace:
        timed.append(run_rep(wl.jobs, "run"))
        traced = run_rep(wl.jobs, "trace")
    else:
        start = time.perf_counter()
        while True:
            rep = run_rep(wl.jobs, "run")
            timed.append(rep)
            elapsed = time.perf_counter() - start
            typical = statistics.median(r.wall_s for r in timed)
            if rep.error or elapsed + typical > seconds:
                break

    expected = wl.expected()
    attempted, failed = score(checked, expected)
    good = [r for r in timed if not r.error]
    lines = [f"workload {name} (config {wl.config}, jobs {wl.jobs}), seed {seed}"]
    lines += [f"  error: {r.error}" for r in setup_only + checked if r.error]
    for i, r in enumerate(checked):
        wrong = {c: st for c, st in r.result.get("statuses", {}).items() if st != expected.get(c)}
        if r.result and (wrong or r.exit_code != 0):
            lines.append(f"  repetition {i}: exit {r.exit_code}, unexpected statuses {wrong}")
    metrics: dict = {}
    if good:
        env = good[0].result["env"]
        run_s = statistics.median(r.result["run_s"] for r in good)
        cpu_s = statistics.median(r.result["cpu_s"] for r in good)
        if trace and traced is not None and not traced.error:
            layer = tracer.per_layer([tracer.Span(*row) for row in traced.result["spans"]])
            layer["trace.run_s"] = (traced.result["run_s"], "s")
            layer["trace.overhead_s"] = (traced.result["run_s"] - run_s, "s")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        elif not trace:
            setup_samples = [r.setup_s for r in setup_only + checked if r.setup_s is not None]
            metrics = {
                "run_s": {"value": run_s, "unit": "s"},
                "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                "cpu_s": {"value": cpu_s, "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(r.result["peak_rss_mb"] for r in good), "unit": "MB"},
            }
            lines.append(f"  samples: {len(good)} repetitions, {len(setup_samples)} set-ups")
        lines += [f"  {k:44s} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        lines.append(f"  checks_failed_frac {failed / attempted:.6g} ({failed} of {attempted} checks)")
        lines.append(f"  cpu_s/run_s {cpu_s / run_s:.3f} (cpu {cpu_s:.3f} s over run {run_s:.3f} s)")
        lines.append(
            f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
            f"nproc {env['nproc']}, OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}, "
            f"OMP_NUM_THREADS={env['OMP_NUM_THREADS']}, commit {git_commit(ROOT)}"
        )
        lines.append(f"  bundle sha256 {good[0].result['digest']}: "
                     f"{drift_note(name, seed, good[0].result['digest'])}")
    return metrics, attempted, failed, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the config's own seed)")
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="measurement window; at least one repetition always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    config = ROOT / "configs" / f"{wl.config}.json"
    if not (ROOT / "src" / "eelab" / "cli.py").is_file() or not config.is_file():
        print(f"eelab sources or {config.name} not found under {ROOT}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else int(json.loads(config.read_text())["seed"])
    if seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2

    # on SIGTERM unwind through the finally blocks, which kill and reap the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    base = ROOT / ".perfbench-work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    try:
        metrics, attempted, failed, lines = measure(args.workload, seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another invocation still uses it
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())

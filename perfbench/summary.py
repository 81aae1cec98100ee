"""Every workload in one command: end-to-end metrics, then two traced runs.

    python3 perfbench/summary.py [--seed N] [--seconds S] [workload ...]

Runs run.py once untraced and twice traced per workload, strictly one
invocation at a time.  Prints ``run_s``, ``setup_s``, ``cpu_s``,
``peak_rss_mb`` and ``checks_failed_frac`` by name with units per workload,
the per-layer metrics of the first traced run, and whether the exact counts
(calls, work sizes, bytes) were identical in the two traced runs.  Exits 1 if
any run was incorrect or any count differed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent

COUNT_UNITS = ("count", "bytes")


def invoke(workload: str, seed: int | None, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", help=f"default: all of {', '.join(WORKLOADS)}")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=12.0)
    args = ap.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workloads {unknown}")

    ok = True
    for name in args.workloads or WORKLOADS:
        e2e = invoke(name, args.seed, args.seconds, 0)
        traced = [invoke(name, args.seed, args.seconds, 1) for _ in range(2)]
        print(f"== {name}")
        frac = e2e["failed"] / e2e["attempted"] if e2e["attempted"] else 1.0
        for key, m in e2e["metrics"].items():
            print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
        print(f"  {'checks_failed_frac':44s} {frac:.6g} ({e2e['failed']} of {e2e['attempted']} checks)")
        for key, m in traced[0]["metrics"].items():
            print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
        counts = [{k: m["value"] for k, m in t["metrics"].items() if m["unit"] in COUNT_UNITS}
                  for t in traced]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        print(f"  counts repeat across two traced runs: {'yes' if not differ else 'NO ' + str(differ)}")
        ok = ok and e2e["correct"] and all(t["correct"] for t in traced) and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

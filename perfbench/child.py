"""One repetition of ``eelab run``, in a fresh interpreter started by run.py.

The child imports ``eelab.cli`` from the ``src`` directory beside
``perfbench``, loads the config, overrides ``out``, ``seed`` and ``jobs`` in
memory, and prints ``READY``; the parent takes the time to that line as set-up
time.  In ``setup`` mode it exits there.
Otherwise it times ``run_config`` and prints one JSON line with wall and CPU
time, peak RSS, the check statuses and the SHA-256 of ``bundle.json``, and
exits with the code ``eelab run`` would exit with.  In ``trace`` mode it first
installs the tracer and adds the recorded spans to that line.

    python3 perfbench/child.py --config configs/constant.json \\
        --out /some/dir --seed 20240 --jobs 1 --mode run
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import eelab
    import eelab.cli as cli

    if Path(eelab.__file__).resolve().parent != src / "eelab":
        print(f"imported eelab from {eelab.__file__}, not from {src}", file=sys.stderr)
        return 3
    recorder = None
    if args.mode == "trace":
        import tracer

        recorder = tracer.Tracer()
        tracer.install_eelab(recorder)

    obj = json.loads(Path(args.config).read_text(encoding="utf-8"))
    obj["out"] = args.out
    obj["seed"] = args.seed
    cfg = cli.config_from_json(obj)
    cfg.jobs = args.jobs
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    t0, c0 = time.perf_counter(), time.process_time()
    bundle, code = cli.run_config(cfg)
    run_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0

    import numpy
    import scipy

    result = {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "statuses": {name: rec["status"] for name, rec in bundle["checks"].items()},
        "digest": hashlib.sha256((Path(args.out) / "bundle.json").read_bytes()).hexdigest(),
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
    }
    if recorder is not None:
        result["spans"] = recorder.spans  # each Span is a tuple, written as a JSON array
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

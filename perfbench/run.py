"""glmm_means benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {study,means-wide,means-long} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each run starts perfbench/workloads.py in
child processes with OPENBLAS/OMP/MKL_NUM_THREADS pinned to 1 and the
checkout's src/ on PYTHONPATH: twice only to set up (for the setup_s
median) and once to set up and measure, so peak_rss_mb belongs to this
workload alone.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
DEADLINE_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child(args, extra: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PERFBENCH_SPAWN"] = repr(time.time())
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, *extra]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("study", "means-wide", "means-long"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke check")
    args = parser.parse_args(argv)

    if not (Path("src") / "glmm_means" / "__init__.py").is_file():
        print("run from the root of a glmm-means checkout: src/glmm_means is missing", file=sys.stderr)
        return 2

    # subprocess.run kills and reaps the running child when an exception
    # leaves it, so SIGTERM stops the whole run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    try:
        setups = [_child(args, ["--setup-only"], DEADLINE_S / 4) for _ in range(SETUP_RUNS - 1)]
        result = _child(args, [], DEADLINE_S - (time.monotonic() - start))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    setup_times = [s["setup_s"] for s in setups] + [result["setup_s"]]
    correct = result["correct"] and not any(s["mismatches"] for s in setups)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}

    print(f"host: {json.dumps(result['host'], sort_keys=True)}")
    print(f"setup_s samples: {', '.join(f'{t:.4g}' for t in setup_times)}")
    for note in result["notes"]:
        print(note)
    for name in sorted(metrics):
        print(f"{name}: {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py        (from the root of a checkout, about a minute)

1. Every workload runs at tiny size (--size tiny --seconds 1) with --trace 0
   and --trace 1; the last line must be the result JSON, correct, holding
   every metric BENCHMARK.json names for that mode, with its unit.
2. The correctness gate passes a tiny op against its stored reference and
   trips when one number of that reference is moved by 100 x RTOL.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   nonzero without printing a result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        for w in spec["workloads"]:
            cmd = [*spec["command"], "--workload", w["name"], "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, (w["name"], trace, proc.stdout)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == wanted, (w["name"], trace, set(got) ^ set(wanted))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            print(f"ok: {w['name']} --trace {trace}: {len(got)} metrics")


def check_gate() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402  (needs the pinned threads and src on the path)

    reference = workloads.load_reference()
    tmp = workloads.OUT_DIR / "smoke-gate"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for op in (workloads.MeansOp("means-long", "negbin", "tiny", 0),
                   workloads.StudyOp("logistic", "gender", workloads.SIZES["tiny"]["reps"], 0)):
            op.prepare(tmp)
            got = op.digest(op.call())
            ref = reference[op.key]
            assert op.check(got, ref)[1] == [], op.key
            bad = copy.deepcopy(ref)
            if op.kind == "means":
                row = bad["output"]["groups"][0]
                row["mu_hat"] *= 1.0 + 100.0 * workloads.RTOL
            else:
                bad["reps"][0]["groups"]["u0_t0"]["lam_var"] *= 1.0 + 100.0 * workloads.RTOL
            assert op.check(got, bad)[1], f"{op.key}: perturbed reference passed the gate"
            print(f"ok: gate passes {op.key} and trips on a perturbed reference")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_bare_directory() -> None:
    bare = ROOT / "perfbench-out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    spec = json.loads((bare / "BENCHMARK.json").read_text(encoding="utf-8"))
    cmd = [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok: without src/ run.py exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    check_metrics()
    check_gate()
    check_bare_directory()
    print("smoke check passed")

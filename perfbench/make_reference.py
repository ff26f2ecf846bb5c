"""Store the reference outputs that every benchmark run is checked against.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/make_reference.py [--workload W ...]

Run from the root of a checkout at the commit whose outputs are the
reference.  For every pool item of every workload, at full and tiny size,
it writes the op's output digest to perfbench/reference/<workload>.json.

It also writes the basis of the tolerance to
perfbench/reference/tolerance-<workload>.json: every converged fit is
repeated with the package's independent optimizer
(FitConfig(optimizer="quasi_newton")), whose optimum agrees within the same
score_tol, and the quantiles of the largest relative difference between
the two fits' group means and variances are recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
from glmm_means import conditional_estimates, fit, marginal_estimates
from glmm_means.fitter import FitConfig

import workloads
from tracing import Tracer


def _rounded(obj):
    """12 significant digits: far below the tolerance, and a smaller file."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def _estimates(fitted) -> np.ndarray:
    marg, cond = marginal_estimates(fitted), conditional_estimates(fitted)
    return np.array([v for g in marg for v in
                     (marg[g].point, marg[g].variance, cond[g].point, cond[g].variance)])


def optimizer_gap(fitted):
    """Largest relative difference of the estimates between two optimizers, or None."""
    other = fit(fitted.dataset, fitted.spec, FitConfig(optimizer="quasi_newton"))
    if not other.converged:
        return None
    a, b = _estimates(fitted), _estimates(other)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def build(workload: str, tmp) -> None:
    tracer = Tracer()
    items, gaps, failures = {}, [], []
    with tracer.installed():
        for size in ("tiny", "full"):
            for op in workloads.reference_key_ops(workload, size):
                op.prepare(tmp)
                tracer.fits = []
                digest = op.digest(op.call())
                items[op.key] = _rounded(digest)
                gaps += [optimizer_gap(f) for f in tracer.fits if f.converged]
                tracer.fits = []
                failed = digest.get("failures") or (digest.get("exit") or 0)
                if failed:
                    failures.append({"key": op.key, "failed": failed, "error": digest.get("error")})
                print(op.key, "failed" if failed else "ok", flush=True)
    ref = workloads.REFERENCE_DIR
    ref.mkdir(exist_ok=True)
    with open(ref / f"{workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "items": items}, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    done = [g for g in gaps if g is not None]
    basis = {
        "score_tol": FitConfig().score_tol,
        "fits_compared": len(gaps),
        "second_optimizer_not_converged": sum(g is None for g in gaps),
        "optimizer_gap_quantiles": {f"p{q}": float(np.percentile(done, q)) for q in (50, 90, 99, 100)},
        "fits_with_gap_over_rtol": sum(g > workloads.RTOL for g in done),
        "rtol": workloads.RTOL,
        "atol": workloads.ATOL,
        "failures_at_reference": failures,
    }
    with open(ref / f"tolerance-{workload}.json", "w", encoding="utf-8") as fh:
        json.dump(basis, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    tmp = workloads.OUT_DIR / "reference-inputs"
    tmp.mkdir(parents=True, exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        build(workload, tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory spans around the calls into glmm_means' public functions.

The wrappers replace the names that each calling module imported (for
example `glmm_means.cli.fit` and `glmm_means.simulate.fit`), so a span is
recorded exactly where one layer calls into another, without editing the
package.  A name that a later version of the package no longer has is
listed in `Tracer.absent` instead of raising.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# (calling module, imported name, span name); the span name starts with the
# layer (module) that owns the function.
WRAPPED = (
    ("glmm_means.cli", "read_dataset", "io.read_dataset"),
    ("glmm_means.cli", "write_json", "io.write_json"),
    ("glmm_means.cli", "validate", "model.validate"),
    ("glmm_means.cli", "fit", "fitter.fit"),
    ("glmm_means.cli", "marginal_estimates", "marginal.marginal_estimates"),
    ("glmm_means.cli", "mean_at_mean_covariate", "marginal.mean_at_mean_covariate"),
    ("glmm_means.cli", "mu_hat_variance", "marginal.mu_hat_variance"),
    ("glmm_means.cli", "conditional_estimates", "conditional.conditional_estimates"),
    ("glmm_means.simulate", "fit", "fitter.fit"),
    ("glmm_means.simulate", "marginal_estimates", "marginal.marginal_estimates"),
    ("glmm_means.simulate", "mean_at_mean_covariate", "marginal.mean_at_mean_covariate"),
    ("glmm_means.simulate", "conditional_estimates", "conditional.conditional_estimates"),
    ("glmm_means.simulate", "predictor_at_mean_covariate", "conditional.predictor_at_mean_covariate"),
    ("glmm_means.marginal", "marginal_group_variance", "marginal.marginal_group_variance"),
    ("glmm_means.conditional", "conditional_group_variance", "conditional.conditional_group_variance"),
)


def _fit_attrs(fitted) -> dict:
    optimizer = getattr(fitted, "optimizer_used", "") or ""
    return {
        "iterations": getattr(fitted, "iterations", None),
        "fallback": "quasi_newton" in optimizer,
        "converged": bool(getattr(fitted, "converged", False)),
    }


class Tracer:
    """Spans (id, name, start, end, parent, op) kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.fits: list = []  # FittedModel results of the current op, for the probes
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if name == "fitter.fit":
                rec.update(_fit_attrs(result))
                self.fits.append(result)
            elif name == "io.read_dataset":
                rec["rows"] = getattr(result, "n_obs", None)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED for the duration of the block."""
        saved = []
        for module_name, attr, span_name in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name))
        try:
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover."""
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + duration(s)
    return {s["id"]: duration(s) - covered.get(s["id"], 0.0) for s in spans}

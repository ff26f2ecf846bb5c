"""Command-line entry points: fit, means, simulate, validate.

Exit codes are a stable contract: 0 success, 1 validation error (dataset
invariants or bad invocation), 2 fit non-convergence (for `simulate`,
every replication failed), 3 I/O error (an input that cannot be read or
an output that cannot be written).  All failures write one
machine-readable error JSON to stderr and nothing else; warnings raised on
the way go into it.  A non-finite number in the output of `fit` or
`means` counts as non-convergence: nothing is written.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import warnings

from .conditional import conditional_estimates
from .families import Family
from .fitter import FitConfig, FittedModel, fit
from .io import ColumnMapping, InputError, read_dataset, write_json, write_rows_csv
from .marginal import marginal_estimates
from .model import Dataset, ModelSpec, validate
from .simulate import StudyFailure, logistic_design, negbin_design, run_study

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NONCONVERGENCE = 2
EXIT_IO = 3

_FAMILIES = {"logistic": Family.LOGISTIC, "negbin": Family.NEGBIN}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); 2 means non-convergence here
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="glmm-means", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_opts(p, with_dataset=True):
        p.add_argument("--config", help="JSON file with default option values; flags override")
        p.add_argument("--out", help="output file (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        if with_dataset:
            p.add_argument("--input", help="CSV dataset path (required)")
            p.add_argument("--family", choices=sorted(_FAMILIES), help="(required)")
            p.add_argument("--covariates", default="", help="comma-separated covariate columns")
            p.add_argument("--group-by", default="", help="comma-separated group columns")
            p.add_argument("--subject-col", default="subject_id")
            p.add_argument("--response-col", default="y")

    p_fit = sub.add_parser("fit", help="fit the model and report parameter estimates")
    add_io_opts(p_fit)

    p_means = sub.add_parser("means", help="fit and report per-group mean estimates")
    add_io_opts(p_means)
    p_means.add_argument("--alpha", type=float, default=0.05)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo coverage study")
    add_io_opts(p_sim, with_dataset=False)
    p_sim.add_argument("--family", choices=sorted(_FAMILIES), help="(required)")
    p_sim.add_argument("--design", choices=["time", "gender"], default="gender")
    p_sim.add_argument("--baseline", choices=["bernoulli", "uniform"], default="bernoulli")
    p_sim.add_argument("--reps", type=int, default=500)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--alpha", type=float, default=0.05)

    p_val = sub.add_parser("validate", help="check dataset invariants")
    add_io_opts(p_val)
    return parser


def _apply_config(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config file's values enter as `--key=value` flags
    placed right after the subcommand, so argparse checks them like typed
    flags and any flag given explicitly, later in argv, wins.  Keys that
    the subcommand lacks are ignored.  The caller checks the required
    options afterwards, so the file may supply them."""
    args = parser.parse_args(argv)
    if not getattr(args, "config", None):
        return args
    try:
        with open(args.config, encoding="utf-8-sig") as fh:
            defaults = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot open config {args.config}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"config {args.config}: invalid JSON ({exc})") from None
    if not isinstance(defaults, dict):
        raise UsageError("config file must hold a JSON object")
    flags = []
    for key, value in defaults.items():
        attr = key.replace("-", "_")
        if attr in ("command", "config"):
            raise UsageError(f"config key {key!r} is not an option")
        if not hasattr(args, attr):
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise UsageError(f"config value of {key!r} must be a string or a number")
        flags.append(f"--{attr.replace('_', '-')}={value}")
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + flags + argv[at:])


def _split_cols(text: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in text.split(",") if c.strip())


def _load(args) -> tuple[Dataset, ModelSpec]:
    mapping = ColumnMapping(
        subject=args.subject_col,
        response=args.response_col,
        covariates=_split_cols(args.covariates),
        group_by=_split_cols(args.group_by),
    )
    dataset = read_dataset(args.input, mapping)
    spec = ModelSpec(family=_FAMILIES[args.family], p=dataset.p)
    return dataset, spec


def _check(dataset: Dataset, spec: ModelSpec) -> None:
    violations = validate(dataset, spec)
    if violations:
        raise ValidationFailure(violations)


class ValidationFailure(Exception):
    def __init__(self, violations):
        super().__init__("dataset validation failed")
        self.violations = violations


class NonConvergence(Exception):
    pass


def _fit_checked(dataset: Dataset, spec: ModelSpec) -> FittedModel:
    fitted = fit(dataset, spec, FitConfig())
    if not fitted.converged:
        raise NonConvergence(f"fit did not converge (score norm {fitted.score_norm:.3g})")
    return fitted


def _require_finite(rows: list[dict], label: str) -> None:
    """Raises NonConvergence at the first non-finite number in `rows`, named by field `label`."""
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise NonConvergence(f"{key} of {label} {row[label]} is {value}")


def _param_names(args, spec: ModelSpec) -> list[str]:
    names = ["beta_intercept"] + [f"beta_{c}" for c in _split_cols(args.covariates)]
    names.append("sigma2")
    if spec.family is Family.NEGBIN:
        names.append("kappa")
    return names


def _cmd_fit(args) -> int:
    dataset, spec = _load(args)
    _check(dataset, spec)
    fitted = _fit_checked(dataset, spec)
    names = _param_names(args, spec)
    values = list(fitted.params.beta) + [fitted.params.sigma2]
    if spec.family is Family.NEGBIN:
        values.append(fitted.params.kappa)
    ses = fitted.standard_errors()
    rows = [
        {"name": n, "estimate": float(v), "se": float(s)}
        for n, v, s in zip(names, values, ses)
    ]
    _require_finite(rows + [{"name": "loglik", "estimate": fitted.loglik}], "name")
    if args.format == "json":
        write_json(
            {
                "params": rows,
                "loglik": fitted.loglik,
                "converged": fitted.converged,
                "iterations": fitted.iterations,
                "optimizer": fitted.optimizer_used,
            },
            args.out,
        )
    else:
        tail = [
            {"name": "loglik", "estimate": fitted.loglik, "se": None},
            {"name": "iterations", "estimate": fitted.iterations, "se": None},
        ]
        write_rows_csv(rows + tail, ["name", "estimate", "se"], args.out)
    return EXIT_OK


def _cmd_means(args) -> int:
    dataset, spec = _load(args)
    _check(dataset, spec)
    fitted = _fit_checked(dataset, spec)
    marg = marginal_estimates(fitted, args.alpha)
    cond = conditional_estimates(fitted, args.alpha)

    rows = []
    for gid in dataset.group_index.group_ids:
        m, c = marg[gid], cond[gid]
        row = {
            "group": gid,
            "n": m.n_obs,
            "Ybar": dataset.ybar(gid),
            "mu_star": m.star,
            "mu_star_se": math.sqrt(m.star_variance),
            "lambda_hat": c.point,
            "lambda_se": math.sqrt(c.variance),
            "mu_hat": m.point,
            "mu_se": math.sqrt(m.variance),
        }
        for label, iv in m.intervals.items():
            row[f"mu_{label}_lo"] = iv.lower
            row[f"mu_{label}_hi"] = iv.upper
        for label, iv in c.intervals.items():
            row[f"lambda_{label}_lo"] = iv.lower
            row[f"lambda_{label}_hi"] = iv.upper
        rows.append(row)

    _require_finite(rows, "group")
    fieldnames = list(rows[0].keys())
    if args.format == "json":
        write_json({"groups": rows}, args.out)
    else:
        write_rows_csv(rows, fieldnames, args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    maker = logistic_design if args.family == "logistic" else negbin_design
    design = maker(
        baseline=args.baseline,
        control=args.design,
        replications=args.reps,
        seed=args.seed,
        alpha=args.alpha,
    )
    report = run_study(design)
    rows = report.to_rows()
    meta = {
        "family": report.family,
        "T1": report.t1,
        "T2": report.t2,
        "replications": report.replications,
        "seed": report.seed,
        "alpha": report.alpha,
        "failures": report.failures,
        "flagged": report.flagged,
    }
    if args.format == "json":
        write_json({"meta": meta, "rows": rows}, args.out)
    else:
        fieldnames = list(rows[0].keys())
        write_rows_csv(rows, fieldnames, args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    dataset, spec = _load(args)
    violations = validate(dataset, spec)
    payload = {
        "valid": not violations,
        "violations": [{"code": v.code, "message": v.message} for v in violations],
    }
    write_json(payload, args.out)
    if violations:
        raise ValidationFailure(violations)
    return EXIT_OK


def _error(code: str, message: str, detail=None) -> dict:
    error = {"code": code, "message": message}
    if detail is not None:
        error["detail"] = detail
    return error


def _run(argv: list[str]) -> tuple[int, dict | None]:
    """The exit code of one command and, on failure, its error object."""
    parser = _build_parser()
    try:
        args = _apply_config(parser, argv)
        missing = [f"--{name}" for name in ("input", "family") if getattr(args, name, "") is None]
        if missing:
            raise UsageError(f"the following arguments are required: {', '.join(missing)}")
        if not 0 < getattr(args, "alpha", 0.05) <= 1:  # before any fit or study is run
            raise UsageError(f"argument --alpha: must be in (0, 1], not {args.alpha}")
        if args.out is not None:  # an unwritable path is found before the work, not after
            folder = os.path.dirname(args.out) or "."
            fault = None
            if os.path.isdir(args.out):
                fault = errno.EISDIR
            elif not os.path.isdir(folder):
                fault = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
            if fault is not None:
                raise InputError(f"cannot write {args.out}: {os.strerror(fault)}")
        handler = {
            "fit": _cmd_fit,
            "means": _cmd_means,
            "simulate": _cmd_simulate,
            "validate": _cmd_validate,
        }[args.command]
        return handler(args), None
    except UsageError as exc:
        return EXIT_VALIDATION, _error("usage", str(exc))
    except ValidationFailure as exc:
        return EXIT_VALIDATION, _error(
            "validation",
            "dataset validation failed",
            [{"code": v.code, "message": v.message} for v in exc.violations],
        )
    except (NonConvergence, StudyFailure) as exc:
        return EXIT_NONCONVERGENCE, _error("non_convergence", str(exc))
    except InputError as exc:
        return EXIT_IO, _error("io", str(exc))
    except ValueError as exc:
        return EXIT_VALIDATION, _error("validation", str(exc))


def main(argv: list[str] | None = None) -> int:
    """Runs one command.  Warnings raised on the way are recorded; on a
    failure they enter the error JSON as its `warnings` list, once per
    distinct (category, message), so stderr holds that one JSON object.  On
    success they are re-issued as usual."""
    argv = list(sys.argv[1:] if argv is None else argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        code, error = _run(argv)
    if error is None:
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return code
    seen = {(w.category.__name__, str(w.message)): None for w in caught}
    if seen:
        error["warnings"] = [{"category": c, "message": m} for c, m in seen]
    sys.stderr.write(json.dumps({"error": error}, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark run of one glmm_means workload, in its own process.

`run.py` starts this file with the BLAS thread variables pinned to 1 and
`<checkout>/src` on PYTHONPATH:

    python3 perfbench/workloads.py --workload study --seed 1 --seconds 20 --trace 0

It sets up (imports, generates the first inputs, makes one warm-up call per
family on a tiny input), then runs a closed loop for `--seconds` and until
every pool input has been timed once: one caller, and the next call starts
when the previous one returns.  Every output is compared with
the reference stored from the commit that introduced the benchmark.  The
last line of stdout is one JSON object for `run.py`; spans and op records go
to `perfbench-out/`.

Inputs come only from the seed.  Each input stream (a study or a family)
has a pool of items whose data seeds are the item numbers 0..M-1, fixed
before any outcome was seen; the run's seed only chooses the order in which
the pool is visited (`random.Random(f"{workload}/{stream}/{seed}")`), so
every input has a stored reference output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

SPAWN = float(os.environ.get("PERFBENCH_SPAWN", time.time()))  # wall time at process start

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import glmm_means  # noqa: E402
from glmm_means import cli, conditional, fitter  # noqa: E402
from glmm_means.simulate import generate_dataset, logistic_design, negbin_design, run_study  # noqa: E402

from tracing import Tracer, duration, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
OUT_DIR = Path("perfbench-out")

WORKLOADS = ("study", "means-wide", "means-long")
FAMILIES = ("logistic", "negbin")
STUDIES = (("logistic", "gender"), ("logistic", "time"), ("negbin", "gender"), ("negbin", "time"))
DESIGNS = {"logistic": logistic_design, "negbin": negbin_design}
# the paper's coefficients (1, x, u, t), random-intercept SD and NB size
PAPER = {
    "logistic": {"beta": (-0.3, -3.0, 2.0, 0.2), "sigma": 0.5, "kappa": None},
    "negbin": {"beta": (0.3, -0.2, 0.3, 0.4), "sigma": 0.1, "kappa": 50.0},
}
TIME_ARMS = (200, 180, 200, 160)  # the time design's default arm_sizes
LONG_VISITS = 24  # t = 0 for visits 1-12, t = 1 for visits 13-24

# Per size: study replications per run_study call, the means-wide multiple of
# TIME_ARMS, means-long subjects, and the pool size M of every input stream.
SIZES = {
    "full": {"reps": 4, "wide_scale": 10, "long_subjects": 400, "pool": {"study": 4, "means-wide": 4, "means-long": 4}},
    "tiny": {"reps": 2, "wide_scale": 1, "long_subjects": 40, "pool": {"study": 2, "means-wide": 2, "means-long": 2}},
}

# Correctness tolerance |out - ref| <= ATOL + RTOL |ref|.  A fit counts as
# converged once its projected score norm is <= FitConfig().score_tol
# (1e-7), so two correct fits of one input may stop at different points
# within that tolerance.  make_reference.py measures how far apart: it
# refits every reference input with the package's second optimizer and
# records the largest relative gap in group means and variances
# (reference/tolerance-*.json, "optimizer_gap_max").  RTOL is ten times the
# largest gap, rounded up.  Study rows hold biases, which are differences
# near zero, so they are compared with RTOL relative to the row's truth.
RTOL = 1e-3
ATOL = 1e-9

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EXIT_NONCONVERGENCE = 2


# ---- inputs -------------------------------------------------------------------


def _write_csv(path: Path, subject, y, X) -> None:
    """Columns subject_id, y, x, u, t; X holds the rows (1, x, u, t)."""
    lines = ["subject_id,y,x,u,t"]
    for sid, yi, (_, x, u, t) in zip(subject, y, X):
        lines.append(f"{sid},{float(yi)!r},{float(x)!r},{int(u)},{int(t)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def wide_csv(path: Path, family: str, scale: int, seed: int) -> None:
    """generate_dataset for the time design with arm_sizes x scale."""
    design = DESIGNS[family](control="time", arm_sizes=tuple(scale * n for n in TIME_ARMS),
                             replications=1, seed=seed)
    ds = generate_dataset(design)
    subject = [s.subject_id for s in ds.subjects for _ in range(s.n_obs)]
    _write_csv(path, subject, ds.y, ds.X)


def long_csv(path: Path, family: str, n_subjects: int, seed: int) -> None:
    """Long panel: n_subjects x 24 visits, arm u = 1 for the first half."""
    par = PAPER[family]
    rng = np.random.default_rng(seed)
    subj = np.repeat(np.arange(n_subjects), LONG_VISITS)
    visit = np.tile(np.arange(LONG_VISITS), n_subjects)
    X = np.column_stack([
        np.ones(subj.size),
        (subj % 2).astype(float),  # Bernoulli baseline, allocated as in simulate
        (subj < n_subjects // 2).astype(float),
        (visit >= LONG_VISITS // 2).astype(float),
    ])
    eta = X @ np.asarray(par["beta"]) + rng.normal(0.0, par["sigma"], n_subjects)[subj]
    if family == "logistic":
        y = (rng.random(subj.size) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    else:
        kappa = par["kappa"]
        y = rng.negative_binomial(kappa, kappa / (kappa + np.exp(eta))).astype(float)
    _write_csv(path, [f"s{i:05d}" for i in subj], y, X)


# ---- operations -----------------------------------------------------------------


def _plain(obj):
    """JSON round trip: numpy scalars to Python numbers, tuples to lists."""
    return json.loads(json.dumps(obj, default=lambda o: o.item()))


class StudyOp:
    """One run_study call; its unit of work is one replication."""

    kind = "study"
    root = "simulate.run_study"

    def __init__(self, family: str, control: str, reps: int, seed: int):
        self.family, self.control, self.reps, self.seed = family, control, reps, seed
        self.key = f"study/{family}-{control}/reps{reps}/seed{seed}"
        self.units = reps

    def prepare(self, tmp: Path) -> None:
        pass

    def call(self):
        design = DESIGNS[self.family](control=self.control, replications=self.reps, seed=self.seed)
        return run_study(design, max_workers=1, return_records=True)

    @staticmethod
    def digest(report) -> dict:
        reps = []
        for rec in report.records:
            groups = rec["groups"]
            reps.append({"sig": [groups[g]["lam_true"] for g in sorted(groups)], "groups": groups})
        return _plain({"failures": report.failures, "reps": reps, "rows": report.to_rows()})

    @staticmethod
    def check(got: dict, ref: dict) -> tuple[int, list[str]]:
        """(non-converged replications, mismatches).

        Replications are matched on their realized conditional means (a
        function of the generated data only), so a replication that failed
        at the reference and converges now is accepted, not a mismatch.
        """
        bad, unmatched = [], 0
        for i, rep in enumerate(got["reps"]):
            r = next((r for r in ref["reps"] if _same_sig(rep["sig"], r["sig"])), None)
            if r is None:
                unmatched += 1
            else:
                bad += [f"reps[{i}]{p}" for p in compare(rep, r)]
        if unmatched > ref["failures"]:
            bad.append(f"{unmatched} replications not in the reference")
        if got["failures"] == ref["failures"] and not unmatched:
            if len(got["rows"]) != len(ref["rows"]):
                bad.append("rows: count differs")
            for i, (row, ref_row) in enumerate(zip(got["rows"], ref["rows"])):
                atol = ATOL + RTOL * abs(ref_row["truth"])
                bad += [f"rows[{i}]{p}" for p in compare(row, ref_row, atol)]
        return got["failures"], bad


class MeansOp:
    """One in-process `glmm-means means --format json` call on a CSV."""

    kind = "means"
    root = "cli.main"
    units = 1

    def __init__(self, workload: str, family: str, size: str, seed: int):
        self.workload, self.family, self.seed = workload, family, seed
        if workload == "means-wide":
            self.n = SIZES[size]["wide_scale"]
            self.key = f"means-wide/{family}/x{self.n}/seed{seed}"
        else:
            self.n = SIZES[size]["long_subjects"]
            self.key = f"means-long/{family}/k{self.n}/seed{seed}"
        self.path = None

    def prepare(self, tmp: Path) -> None:
        if self.path is None:
            self.path = tmp / (self.key.replace("/", "_") + ".csv")
            make = wide_csv if self.workload == "means-wide" else long_csv
            make(self.path, self.family, self.n, self.seed)

    def call(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["means", "--input", str(self.path), "--family", self.family,
                             "--covariates", "x,u,t", "--group-by", "u,t", "--format", "json"])
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def digest(result) -> dict:
        code, out, err = result
        return {"exit": code, "output": json.loads(out) if code == 0 else None,
                "error": err.strip() or None}

    @staticmethod
    def check(got: dict, ref: dict) -> tuple[int, list[str]]:
        """(failed calls, mismatches).  Non-convergence is a failure, not a
        mismatch; a call that failed at the reference and succeeds now is
        accepted."""
        if got["exit"] != 0:
            wrong = got["exit"] != EXIT_NONCONVERGENCE and ref["exit"] == 0
            return 1, [f"exit {got['exit']}: {got['error']}"] if wrong else []
        if ref["exit"] != 0:
            return 0, []
        return 0, [f"output{p}" for p in compare(got["output"], ref["output"])]


def _same_sig(a, b) -> bool:
    """Equal up to the 12 digits the reference stores."""
    return len(a) == len(b) and all(abs(x - y) <= 1e-10 * abs(y) for x, y in zip(a, b))


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(got, ref, atol: float = ATOL) -> list[str]:
    """Paths where got and ref differ: keys, exact non-numbers, numbers beyond tolerance."""
    a, b = dict(_flatten(got)), dict(_flatten(ref))
    bad = sorted(set(a) ^ set(b))
    for path in sorted(set(a) & set(b)):
        x, y = a[path], b[path]
        if _number(x) and _number(y):
            same = x == y or (math.isnan(x) and math.isnan(y)) or abs(x - y) <= atol + RTOL * abs(y)
        else:
            same = x == y
        if not same:
            bad.append(path)
    return bad


def pool_ops(workload: str, size: str, stream: tuple, seeds) -> list:
    reps = SIZES[size]["reps"]
    if workload == "study":
        return [StudyOp(stream[0], stream[1], reps, s) for s in seeds]
    return [MeansOp(workload, stream[0], size, s) for s in seeds]


def streams(workload: str) -> tuple:
    return STUDIES if workload == "study" else tuple((f,) for f in FAMILIES)


def reference_key_ops(workload: str, size: str) -> list:
    """Every op whose output the reference stores for this workload and size."""
    m = SIZES[size]["pool"][workload]
    return [op for st in streams(workload) for op in pool_ops(workload, size, st, range(m))]


def load_reference() -> dict:
    """Stored outputs of every workload, keyed by op key (keys are unique across files)."""
    items = {}
    for workload in WORKLOADS:
        with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
            items.update(json.load(fh)["items"])
    return items


# ---- the run ----------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def tail_percentile(n: int):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, or None."""
    best = None
    for q in (90.0, 99.0, 99.9):
        if n * (1.0 - q / 100.0) >= 10:
            best = q
    return best


def host_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict mode; the record is context only
        openblas = None
    src = Path("src")
    tests = Path("tests")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py")),
        "test_functions": sum(len(re.findall(r"^\s*def test_", p.read_text(encoding="utf-8"), re.M))
                              for p in tests.rglob("test_*.py")) if tests.is_dir() else None,
    }


class Run:
    def __init__(self, workload: str, seed: int, size: str, tmp: Path):
        self.workload, self.seed, self.size, self.tmp = workload, seed, size, tmp
        self.reference = load_reference()
        self.mismatches: list[str] = []
        self.records: list[dict] = []
        self.tracer = None
        self._streams = []
        m = SIZES[size]["pool"][workload]
        for st in streams(workload):
            order = random.Random(f"{workload}/{'-'.join(st)}/{seed}").sample(range(m), m)
            self._streams.append(pool_ops(workload, size, st, order))
        self._next = 0

    def next_op(self):
        ops = self._streams[self._next % len(self._streams)]
        op = ops[(self._next // len(self._streams)) % len(ops)]
        self._next += 1
        return op

    def setup(self) -> None:
        """Generate the first input of every stream; one warm-up call per family."""
        for ops in self._streams:
            ops[0].prepare(self.tmp)
        for op in self.warmup_ops(self.workload):
            self.execute(op, role="warmup")

    def warmup_ops(self, workload: str) -> list:
        firsts = {}
        for st in streams(workload):
            firsts.setdefault(st[0], pool_ops(workload, "tiny", st, [0])[0])
        return list(firsts.values())

    def execute(self, op, role: str, traced: bool = False) -> dict:
        op.prepare(self.tmp)
        tracer = self.tracer if traced else None
        rec = {"op": len(self.records), "key": op.key, "family": op.family, "kind": op.kind,
               "role": role, "traced": traced, "units": op.units}
        if tracer is None:
            t0 = time.perf_counter()
            result = op.call()
            seconds = time.perf_counter() - t0
        else:
            tracer.op, tracer.fits = rec["op"], []
            with tracer.installed():
                t0 = time.perf_counter()
                with tracer.span(op.root, units=op.units) as span:
                    result = op.call()
                seconds = time.perf_counter() - t0
            rec["root"] = span["id"]
        got = op.digest(result)
        del result
        ref = self.reference.get(op.key)
        if ref is None:
            failed, bad = 0, [f"{op.key}: no reference output"]
        else:
            failed, bad = op.check(got, ref)
        self.mismatches += [f"{op.key} {b}" for b in bad]
        rec.update(seconds=seconds, unit_s=seconds / op.units, failed=failed, mismatched=bool(bad))
        self.records.append(rec)
        if tracer is not None:
            if tracer.fits and role == "main":
                self._probe(op.family)
            tracer.fits.clear()
        return rec

    def _probe(self, family: str) -> None:
        """One marginal_loglik, subject_scores and factorization call at the op's first fit."""
        tracer = self.tracer
        fitted = tracer.fits[0]
        tracer.fits.clear()  # this frame then holds the only reference (see `del fitted`)
        loglik = getattr(fitter, "marginal_loglik", None)
        scores = getattr(fitter, "subject_scores", None)
        build = getattr(conditional, "build_prediction_structure", None)
        factorize = getattr(conditional, "factorize_structure", None)
        for name, fn in (("glmm_means.fitter.marginal_loglik", loglik),
                         ("glmm_means.fitter.subject_scores", scores),
                         ("glmm_means.conditional.build_prediction_structure", build),
                         ("glmm_means.conditional.factorize_structure", factorize)):
            if fn is None and name not in tracer.absent:
                tracer.absent.append(name)
        if loglik is not None:
            with tracer.span("fitter.marginal_loglik", probe=True):
                loglik(fitted.dataset, fitted.spec, fitted.params)
        if scores is not None:
            with tracer.span("fitter.subject_scores", probe=True):
                scores(fitted)
        sizes = fitted.dataset.group_index.sizes.values()
        nb_pair_bytes = sum(8 * n * n for n in sizes) if family == "negbin" else None
        if build is None:
            return
        struct = build(fitted)
        del fitted  # frees the cached (p+K)^2 factorization before the probe makes another
        m_bytes = 8 * (struct.p + struct.n_subjects) ** 2
        if factorize is not None:
            with tracer.span("conditional.factorize_structure", probe=True,
                             m_bytes=m_bytes, nb_pair_bytes=nb_pair_bytes):
                factorize(struct)

    def measure(self, seconds: float, trace: bool) -> None:
        if trace:
            self.tracer = Tracer()
        start = time.perf_counter()
        warm = set()
        untimed = {op.key for ops in self._streams for op in ops}
        while time.perf_counter() - start < seconds or untimed:
            op = self.next_op()
            if op.family not in warm:
                # the first full-size call of a family runs slower than the
                # later ones (up to 40 % on means-long); checked, not timed
                self.execute(op, role="warmup")
                warm.add(op.family)
                continue
            self.execute(op, role="main")
            if trace:
                self.execute(op, role="main", traced=True)
            untimed.discard(op.key)
        if trace:
            # layers this workload's loop does not call are timed on one tiny
            # call of the other kind of op
            other = "means-long" if self.workload == "study" else "study"
            for op in self.warmup_ops(other):
                self.execute(op, role="cross", traced=True)

    # ---- metrics ----

    def _main(self, traced: bool, family=None) -> list[dict]:
        return [r for r in self.records if r["role"] == "main" and r["traced"] == traced
                and (family is None or r["family"] == family)]

    def end_to_end(self) -> tuple[dict, list[str]]:
        ops = self._main(False)
        units = sum(r["units"] for r in ops)
        failed = sum(r["units"] if r["mismatched"] else r["failed"] for r in ops)
        metrics = {
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": (1.0 - failed / units, "fraction"),
        }
        notes = [f"failed_frac {failed}/{units} = {failed / units:.4g} "
                 f"({'replications' if self.workload == 'study' else 'means calls'})"]
        for f in FAMILIES:
            ops = self._main(False, f)
            times = [r["unit_s"] for r in ops]
            by_input = {}
            for r in ops:
                by_input.setdefault(r["key"], []).append(r["unit_s"])
            # the time per unit over the whole pool: every input counts once
            # (its median), however often the loop reached it
            op_s = _mean([_median(v) for v in by_input.values()])
            metrics[f"op_s.{f}"] = (op_s, "s")
            line = (f"op_s.{f}: {op_s:.4g} s, the mean over {len(by_input)} inputs of their "
                    f"median; {len(times)} calls, median {_median(times):.4g} s")
            q = tail_percentile(len(times))
            if q is not None:
                line += f", p{q:g} {_percentile(times, q):.4g} s"
            notes.append(line)
        return metrics, notes

    def per_layer(self) -> dict:
        spans = self.tracer.spans
        selfs = self_times(spans)
        ops = {r["op"]: r for r in self.records if r["traced"]}
        by_id = {s["id"]: s for s in spans}

        def pick(name, family=None, probe=False):
            """Spans of one name in the main traced ops (of one family), else in the cross ops."""
            def of(role):
                return [s for s in spans if s["name"] == name and bool(s.get("probe")) == probe
                        and s["op"] in ops and ops[s["op"]]["role"] == role
                        and (family is None or ops[s["op"]]["family"] == family)]
            return of("main") or of("cross")

        def durations(name, family=None, probe=False):
            return [duration(s) for s in pick(name, family, probe)]

        def shares(prefix, family):
            """Per traced op: time in spans named prefix* (outermost only) / op time."""
            out = []
            for r in self._main(True, family):
                total = 0.0
                for s in spans:
                    if s["op"] != r["op"] or s.get("probe") or not s["name"].startswith(prefix):
                        continue
                    if s["parent"] is None or not by_id[s["parent"]]["name"].startswith(prefix):
                        total += duration(s)
                out.append(total / duration(by_id[r["root"]]))
            return out

        m = {}
        root_self = [selfs[s["id"]] / s["units"] for s in pick("simulate.run_study")]
        m["simulate.self_s"] = (_median(root_self), "s")
        m["cli.self_s"] = (_median([selfs[s["id"]] for s in pick("cli.main")]), "s")
        reads = pick("io.read_dataset")
        m["io.read_s"] = (_median([duration(s) for s in reads]), "s")
        m["io.rows_per_s"] = (_median([s["rows"] / duration(s) for s in reads if s.get("rows")]), "rows/s")
        m["io.write_s"] = (_median(durations("io.write_json")), "s")
        m["model.validate_s"] = (_median(durations("model.validate")), "s")
        factorize = pick("conditional.factorize_structure", probe=True)
        m["conditional.m_bytes"] = (_median([s["m_bytes"] for s in factorize]), "bytes")
        m["marginal.nb_pair_bytes"] = (
            _median([s["nb_pair_bytes"] for s in factorize if s["nb_pair_bytes"] is not None]), "bytes")
        for f in FAMILIES:
            fits = pick("fitter.fit", f)
            fit_s = [duration(s) for s in fits]
            m[f"fitter.fit_s.p50.{f}"] = (_percentile(fit_s, 50), "s")
            m[f"fitter.fit_s.p90.{f}"] = (_percentile(fit_s, 90), "s")
            iters = [s["iterations"] for s in fits if s.get("iterations") is not None]
            m[f"fitter.iterations.{f}"] = (_median(iters), "count")
            m[f"fitter.fallback_frac.{f}"] = (_mean([s["fallback"] for s in fits]), "fraction")
            m[f"fitter.nonconverged_frac.{f}"] = (_mean([not s["converged"] for s in fits]), "fraction")
            m[f"fitter.loglik_call_s.{f}"] = (_median(durations("fitter.marginal_loglik", f, True)), "s")
            m[f"fitter.scores_call_s.{f}"] = (_median(durations("fitter.subject_scores", f, True)), "s")
            m[f"marginal.estimates_s.{f}"] = (_median(durations("marginal.marginal_estimates", f)), "s")
            variance = {}
            for s in pick("marginal.marginal_group_variance", f):
                variance[s["parent"]] = variance.get(s["parent"], 0.0) + duration(s)
            m[f"marginal.variance_s.{f}"] = (_median(list(variance.values())), "s")
            m[f"conditional.estimates_s.{f}"] = (_median(durations("conditional.conditional_estimates", f)), "s")
            m[f"conditional.factorize_s.{f}"] = (_median(durations("conditional.factorize_structure", f, True)), "s")
            m[f"share.fitter.{f}"] = (_median(shares("fitter.fit", f)), "fraction")
            m[f"share.conditional.{f}"] = (_median(shares("conditional.", f)), "fraction")
            traced = _median([r["unit_s"] for r in self._main(True, f)])
            plain = _median([r["unit_s"] for r in self._main(False, f)])
            m[f"trace.overhead_s.{f}"] = (traced - plain, "s")
        return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (Path("src") / "glmm_means").resolve()
    if Path(glmm_means.__file__).resolve().parent != src:
        print(f"glmm_means was imported from {glmm_means.__file__}, not {src}", file=sys.stderr)
        return 2

    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, args.size, tmp)
        run.setup()
        setup_s = time.time() - SPAWN
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "mismatches": run.mismatches}))
            return 0
        run.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    main_ops = run._main(False)
    if args.trace:
        metrics, notes = run.per_layer(), [f"absent: {', '.join(run.tracer.absent) or 'none'}"]
    else:
        metrics, notes = run.end_to_end()
    result = {
        "correct": not run.mismatches,
        "attempted": len(main_ops),
        # a study call that returns is not a failed op; its non-converged
        # replications count in ok_frac
        "failed": sum(1 for r in main_ops if r["mismatched"] or (r["kind"] == "means" and r["failed"])),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_s": setup_s,
        "host": host_record(),
        "notes": notes + [f"mismatch: {m}" for m in run.mismatches[:20]],
    }
    out = OUT_DIR / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({**result, "ops": run.records,
                   "spans": run.tracer.spans if run.tracer else [],
                   "absent": run.tracer.absent if run.tracer else []}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

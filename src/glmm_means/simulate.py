"""Monte Carlo coverage studies for the group-mean estimators and intervals.

Two designs are supported, both with covariate row (1, X, U, t):

* time: two treatment arms observed at t = 0 and t = 1, with dropout only
  at t = 1 realized as deterministic truncation to the configured counts;
  groups are treatment x time, one observation per subject in each group.
* gender: four groups of treatment x gender with t constant within subject
  and two repeated observations per subject, so the random-intercept
  variance stays identifiable from within-subject agreement.  Group sizes
  are arm_sizes[0] female and arm_sizes[3] male observations per arm,
  keeping the total information at the time design's scale.

Replications are independent streams spawned from one seed and may run in
parallel processes; aggregation is an ordered reduction, so reports are
reproducible bit for bit regardless of worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .families import Family, family_ops
from .conditional import conditional_estimates
from .fitter import FitConfig, fit
from .marginal import distinct_rows, marginal_estimates
from .model import Dataset, ModelSpec
from .quadrature import logistic_normal_integral

LOGISTIC_BETA = (-0.3, -3.0, 2.0, 0.2)
NEGBIN_BETA = (0.3, -0.2, 0.3, 0.4)


@dataclass(frozen=True)
class SimDesign:
    family: Family
    beta: tuple[float, float, float, float]
    sigma: float
    kappa: float | None = None
    baseline: str = "bernoulli"  # T1 = 1; "uniform" is T1 = 2
    control: str = "gender"      # T2 = 1; "time" is T2 = 2
    arm_sizes: tuple[int, int, int, int] = (200, 180, 200, 160)
    replications: int = 500
    seed: int = 0
    alpha: float = 0.05

    def __post_init__(self):
        if self.baseline not in ("bernoulli", "uniform"):
            raise ValueError(f"unknown baseline type {self.baseline!r}")
        if self.control not in ("gender", "time"):
            raise ValueError(f"unknown control type {self.control!r}")
        if any(n <= 0 for n in self.arm_sizes):
            raise ValueError("arm sizes must be positive")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.family is Family.NEGBIN and (self.kappa is None or self.kappa <= 0):
            raise ValueError("negative-binomial designs need kappa > 0")

    @property
    def t1(self) -> int:
        return 1 if self.baseline == "bernoulli" else 2

    @property
    def t2(self) -> int:
        return 1 if self.control == "gender" else 2

    @property
    def p(self) -> int:
        return 4


def logistic_design(**kwargs) -> SimDesign:
    """Logistic study: default coefficients (-0.3, -3.0, 2.0, 0.2) and sigma = 0.5."""
    kwargs.setdefault("beta", LOGISTIC_BETA)
    kwargs.setdefault("sigma", 0.5)
    return SimDesign(family=Family.LOGISTIC, **kwargs)


def negbin_design(**kwargs) -> SimDesign:
    """Negative-binomial study with kappa = 50 and sigma = 0.1 defaults."""
    kwargs.setdefault("beta", NEGBIN_BETA)
    kwargs.setdefault("sigma", 0.1)
    kwargs.setdefault("kappa", 50.0)
    return SimDesign(family=Family.NEGBIN, **kwargs)


def group_label(u: int, t: int) -> str:
    return f"u{u}_t{t}"


# ---- the covariate frame ----------------------------------------------------
#
# The covariate layout is a fixed property of the design, not redrawn per
# replication: the baseline covariate is allocated deterministically with
# the composition of its nominal distribution (alternating 0/1 for the
# Bernoulli type, a van der Corput sequence for the Uniform type, whose
# prefixes stay uniform under dropout).  Only the random intercepts and the
# responses are drawn.  This makes the fixed group mean of each design an
# exact population target, so confidence-interval coverage is measured
# against a constant.  The frame is one Dataset with zero responses, built
# and cached once per (baseline, control, arm_sizes); each replication draws
# only the responses and takes `frame.with_responses(y)`.


def _van_der_corput(n: int) -> np.ndarray:
    out = np.empty(n)
    for i in range(1, n + 1):
        v, denom, k = 0.0, 1.0, i
        while k:
            denom *= 2.0
            k, r = divmod(k, 2)
            v += r / denom
        out[i - 1] = v
    return out


def _baseline_values(baseline: str, n: int) -> np.ndarray:
    if baseline == "bernoulli":
        return (np.arange(n) % 2).astype(float)
    return _van_der_corput(n)


@lru_cache(maxsize=32)
def _layout(baseline: str, control: str, arm_sizes: tuple[int, int, int, int]) -> Dataset:
    """The design's covariate rows (1, x, u, t), subject by subject, with zero responses."""
    subjects: list[list[tuple]] = []  # per subject: [(x, u, t), ...]
    if control == "time":
        plan = [(1, arm_sizes[0], arm_sizes[1]), (0, arm_sizes[2], arm_sizes[3])]
        for u, n_total, n_second in plan:
            for i, x in enumerate(_baseline_values(baseline, n_total)):
                subjects.append([(x, u, 0), (x, u, 1)] if i < n_second else [(x, u, 0)])
    else:
        for u in (1, 0):
            for t, n_subj in ((0, arm_sizes[0] // 2), (1, arm_sizes[3] // 2)):
                subjects.extend([(x, u, t)] * 2 for x in _baseline_values(baseline, n_subj))
    rows = [(f"s{k:05d}", x, u, t) for k, visits in enumerate(subjects) for x, u, t in visits]
    return Dataset.from_rows(
        [sid for sid, _, _, _ in rows],
        np.zeros(len(rows)),
        [[1.0, x, u, t] for _, x, u, t in rows],
        [group_label(u, t) for _, _, u, t in rows],
    )


def _covariate_frame(design: SimDesign) -> Dataset:
    return _layout(design.baseline, design.control, design.arm_sizes)


def _generate(design: SimDesign, rng):
    """One replication: the dataset, plus realized conditional group means."""
    frame = _covariate_frame(design)
    xi = rng.normal(0.0, design.sigma, size=frame.n_subjects)
    eta_true = frame.X @ np.asarray(design.beta) + xi[frame.subject_index]

    ops = family_ops(design.family)
    mu = ops.inverse_link(eta_true)
    y = ops.sample(rng, mu, design.kappa)

    lam = {gid: float(np.mean(mu[idx])) for gid, idx in frame.group_index.indices.items()}
    return frame.with_responses(y), lam


def generate_dataset(design: SimDesign, seed: int | None = None) -> Dataset:
    """Draw one synthetic dataset for the design (see `generate_replication`)."""
    return generate_replication(design, seed)[0]


def generate_replication(design: SimDesign, seed: int | None = None):
    """Draw one dataset together with its realized conditional group means."""
    rng = np.random.default_rng(design.seed if seed is None else seed)
    return _generate(design, rng)


# ---- true group means ------------------------------------------------------


def true_marginal_means(design: SimDesign) -> dict[str, float]:
    """Fixed marginal mean of each group: the group average of E g^{-1}(x'beta + b).

    Computed once per design over the distinct covariate rows of each
    group, weighted by their counts, with the random intercept integrated
    out by quadrature (logistic) or in closed form (NB).  The balanced
    covariate allocation makes these match the population values of the
    generating model.
    """
    frame = _covariate_frame(design)
    first, counts = distinct_rows(frame.group_codes, frame.X)
    s2 = design.sigma**2
    eta0 = frame.X[first] @ np.asarray(design.beta)
    if design.family is Family.LOGISTIC:
        vals = logistic_normal_integral(eta0, s2)
    else:
        vals = np.exp(eta0 + s2 / 2.0)
    codes = frame.group_codes[first]
    means = np.bincount(codes, counts * vals) / np.bincount(codes, counts)
    return dict(zip(frame.group_index.group_ids, means.tolist()))


# ---- the study loop ---------------------------------------------------------


def _replicate(args):
    design, seed_seq = args
    rng = np.random.default_rng(seed_seq)
    try:
        dataset, lam_true = _generate(design, rng)
        spec = ModelSpec(family=design.family, p=design.p)
        fitted = fit(dataset, spec, FitConfig())
        if not fitted.converged:
            return {"ok": False, "reason": "non-convergence"}
        marg = marginal_estimates(fitted, design.alpha)
        cond = conditional_estimates(fitted, design.alpha)
        params = {
            "beta": tuple(float(b) for b in fitted.params.beta),
            "sigma2": fitted.params.sigma2,
            "kappa": fitted.params.kappa,
        }
        groups = {}
        for gid in dataset.group_index.group_ids:
            m, c = marg[gid], cond[gid]
            groups[gid] = {
                "ybar": dataset.ybar(gid),
                "mu_point": m.point,
                "mu_var": m.variance,
                "mu_star": m.star,
                "mu_intervals": {k: (iv.lower, iv.upper) for k, iv in m.intervals.items()},
                "lam_point": c.point,
                "lam_var": c.variance,
                "lam_star": c.star,
                "lam_true": lam_true[gid],
                "lam_intervals": {k: (iv.lower, iv.upper) for k, iv in c.intervals.items()},
            }
        return {"ok": True, "groups": groups, "params": params}
    except Exception as exc:  # a failed replication must not kill the study
        return {"ok": False, "reason": f"{type(exc).__name__}: {exc}"}


@dataclass(frozen=True)
class SimGroupSummary:
    group_id: str
    kind: str  # "marginal" or "conditional"
    u: int
    t: int
    n_obs: int
    truth: float
    ybar_bias_mean: float
    ybar_bias_sd: float
    star_bias_mean: float
    star_bias_sd: float
    est_bias_mean: float
    est_bias_sd: float
    coverage: dict[str, float]


@dataclass(frozen=True)
class SimReport:
    family: str
    t1: int
    t2: int
    arm_sizes: tuple[int, int, int, int]
    replications: int
    seed: int
    alpha: float
    failures: int
    flagged: bool
    marginal: tuple[SimGroupSummary, ...]
    conditional: tuple[SimGroupSummary, ...]
    records: tuple = field(default=(), repr=False, compare=False)

    def row(self, kind: str, group_id: str) -> SimGroupSummary:
        rows = self.marginal if kind == "marginal" else self.conditional
        for r in rows:
            if r.group_id == group_id:
                return r
        raise KeyError(f"no {kind} row for group {group_id!r}")

    def to_rows(self) -> list[dict]:
        out = []
        for row in list(self.marginal) + list(self.conditional):
            out.append(
                {
                    "kind": row.kind,
                    "T1": self.t1,
                    "T2": self.t2,
                    "U": row.u,
                    "t": row.t,
                    "n_obs": row.n_obs,
                    "truth": row.truth,
                    "ybar_bias_mean": row.ybar_bias_mean,
                    "ybar_bias_sd": row.ybar_bias_sd,
                    "star_bias_mean": row.star_bias_mean,
                    "star_bias_sd": row.star_bias_sd,
                    "est_bias_mean": row.est_bias_mean,
                    "est_bias_sd": row.est_bias_sd,
                    "cp_inverse": row.coverage.get("inverse"),
                    "cp_direct": row.coverage.get("direct"),
                    "cp_lognormal": row.coverage.get("lognormal"),
                }
            )
        return out


def _resolve_workers(max_workers: int | None) -> int:
    if max_workers is None:
        env = os.environ.get("GLMM_GM_THREADS")
        max_workers = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(int(max_workers), 16))


def _summaries(frame: Dataset, kind: str, recs: list, prefix: str, ybar, target) -> list:
    """Bias and coverage of every group's `prefix` ("mu" or "lam") estimates.

    recs[q] holds group q's records, one per replication.  `ybar` and
    `target` are (groups, replications) arrays, `target` of what each
    replication is scored against: the fixed truth (one column) or the
    realized values; the reported truth is its mean.  Each statistic is
    reduced along the contiguous replication axis, so it is the same
    pairwise sum as np.mean or np.std over one group's values.
    """
    star, est = (np.array([[r[f"{prefix}_{key}"] for r in row] for row in recs]) - target
                 for key in ("star", "point"))
    stats = [f(x, axis=1).tolist() for x in (ybar - target, star, est) for f in (np.mean, np.std)]
    labels = list(recs[0][0][f"{prefix}_intervals"])
    ends = np.array([[[r[f"{prefix}_intervals"][lab] for lab in labels] for r in row] for row in recs])
    tg = target[..., None]  # against (groups, replications, labels) interval ends
    cover = np.mean((ends[..., 0] <= tg) & (tg <= ends[..., 1]), axis=1)  # exact counts / R
    truth = np.mean(target, axis=1).tolist()
    return [SimGroupSummary(gid, kind, *map(int, frame.X[idx[0], 2:]), idx.size, truth[q],
                            *(stat[q] for stat in stats), dict(zip(labels, cover[q].tolist())))
            for q, (gid, idx) in enumerate(frame.group_index.indices.items())]


def run_study(design: SimDesign, max_workers: int | None = None,
              return_records: bool = False) -> SimReport:
    """Replicated generate -> fit -> estimate -> interval pipeline.

    CI coverage is counted against the fixed population mean mu_q; PI
    coverage against each replication's realized conditional mean, which is
    a random target.  Failed or non-converged replications are excluded and
    counted; a study with more than 2% failures is flagged.
    """
    mu_true = true_marginal_means(design)
    seeds = np.random.SeedSequence(design.seed).spawn(design.replications)
    args = [(design, s) for s in seeds]

    workers = _resolve_workers(max_workers)
    if workers > 1 and design.replications >= 4:
        # imported here: it loads multiprocessing, which no serial run needs
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, design.replications // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate, args, chunksize=chunk))
    else:
        results = [_replicate(a) for a in args]

    good = [r for r in results if r["ok"]]
    failures = len(results) - len(good)
    if not good:
        raise RuntimeError("every replication failed; study cannot be summarized")

    frame = _covariate_frame(design)
    gids = frame.group_index.group_ids
    recs = [[r["groups"][gid] for r in good] for gid in gids]
    ybar, lam = (np.array([[r[key] for r in row] for row in recs]) for key in ("ybar", "lam_true"))
    mu = np.array([[mu_true[gid]] for gid in gids])

    return SimReport(
        family=design.family.value,
        t1=design.t1,
        t2=design.t2,
        arm_sizes=design.arm_sizes,
        replications=design.replications,
        seed=design.seed,
        alpha=design.alpha,
        failures=failures,
        flagged=failures > 0.02 * design.replications,
        marginal=tuple(_summaries(frame, "marginal", recs, "mu", ybar, mu)),
        conditional=tuple(_summaries(frame, "conditional", recs, "lam", ybar, lam)),
        records=tuple(good) if return_records else (),
    )

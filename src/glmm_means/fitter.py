"""Maximum-likelihood fitting of the random-intercept model.

The marginal likelihood integrates the subject-wise Gaussian intercept out
of the conditional likelihood with adaptive Gauss-Hermite quadrature, each
subject's rule centered at its conditional mode and scaled by the curvature
there.  Per-subject score vectors are posterior expectations of the
complete-data score (differentiation under the integral sign), so they match
finite differences of the quadrature loglik to quadrature accuracy.

The quadrature runs over cells, not rows.  A cell is one (subject,
covariate row) pair: the rows a subject repeats with the same covariates,
as repeated visits with constant treatment and few time values do, enter
once with their summed weight and weighted mean response.  That is exact
because every kernel evaluated at the nodes is affine in y at fixed eta;
the negative binomial's terms nonlinear in y (log Gamma(y + kappa) and its
derivatives in kappa, log Gamma(y + 1)) are node-free, so they enter the
loglik, the kappa score and the kappa curvature only as per-pattern sums of
w times the term over the pattern's rows.  A call evaluates them once per
distinct count, from one prefix sum up to the largest count
(`families.gamma_table`), and adds them into the pattern sums with one
`np.bincount` per term over (pattern, count, summed weight) triples.  Data
without repeated covariate rows have one cell per row, holding that row's
weight and response.

The quadrature also runs over patterns, not subjects: subjects whose
multisets of raw rows (covariate row, weight, response) are equal share
one.  A subject's quadrature terms depend on its rows alone, so the mode,
the node evaluations and the score are computed once per pattern, on its
first subject's cells, and every sum over subjects weights a pattern by
its count; keying on raw rows keeps the NB log Gamma terms equal.  Only
the workspace knows about cells and patterns; `diagnostics` counts the
rows, the cells of all subjects and the patterns.  The iteration cap and
the tolerances are the module constants MAX_ITER, PARAM_TOL, SCORE_TOL
and MODE_TOL.

Every node kernel comes from one `families.Nodes` per block, one
exponential per (cell, node), with the cell weights folded into its y and
n.  numpy's `logaddexp` has no vectorized loop (it takes some 25 times an
`exp`), so only the NB's unsplit `score_matrix` pass keeps it.  w y per
cell and each block's contiguous X', which no parameter changes, are built
once.  Patterns are numbered by descending cell count, and a block stores
its cells position-major: the first cell of every pattern, then the second
of every pattern that has one, and so on.  A per-pattern sum is one
reduction over the positions that every pattern has and one slice add per
further position, where `reduceat`'s overhead per segment costs many slice
adds on two-cell patterns.  The mode solver's sums are `np.bincount`s.

A subject's conditional mode b* is the root of g(b) = S(b) - b / sigma2,
where S, the sum of w score_eta over its cells, falls in b because the
observed curvature of both families is >= 0.  So any b brackets b* with
sigma2 S(b): if g(b) > 0, then b* > b, so S(b*) <= S(b) and b* = sigma2
S(b*) <= sigma2 S(b); g(b) < 0 is symmetric.  The mode solver starts from
that bracket, with no search for one; its first Newton step, of length
|g| / (curvature + 1 / sigma2) <= sigma2 |g|, lands in it.

The optimizer is one projected Newton loop on the observed information,
which Louis' identity (Louis 1982) builds from the same posterior node
weights: H = sum_i E_post[d2 l_c] + E_post[s s'] - d_i d_i', with l_c the
complete-data loglik and s its score.  sigma2 and kappa are box-bounded, as
lme4's glmer bounds its variance parameters, and near a bound they are
stepped and judged on their natural scale: convergence is a KKT test that
asks, at a lower bound, for dl/dsigma2 <= 0 (dl/dkappa <= 0), because the
log-scale score sigma2 dl/dsigma2 vanishes at sigma2 -> 0 whatever the
slope.  FitConfig(optimizer="quasi_newton") runs L-BFGS-B before the loop,
an independent route to the same optimum.

Cov(psi_hat) is still the BHHH inverse (sum_i d_i d_i')^{-1}, the paper's
estimator, computed on (beta, log sigma2, log kappa) and mapped back to the
natural scale by the delta method.  The logistic's d_i are the Newton loop's
last accepted pass; the NB's come from one more, unsplit pass (`score_matrix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .families import Family, Nodes, family_ops, gamma_sums, gamma_table
from .model import Dataset, ModelSpec, ParamVector
from .quadrature import DEFAULT_GH_NODES, gh_rule

LOG_SIGMA2_BOUNDS = (math.log(1e-10), math.log(25.0))
LOG_KAPPA_BOUNDS = (math.log(1e-3), math.log(1e6))
_MAX_STEP = 2.0
# Cells x nodes of one quadrature block: 96 KB per float64 temporary.  Larger
# temporaries cross glibc's default 128 KB mmap threshold and are mapped and
# faulted in afresh on every call, several times slower than reused heap; the
# (dim, patterns, nodes) scores of a block, up to dim times larger, live in
# scratch that the workspace allocates once.
_BLOCK_CELLS = 12288
MAX_ITER = 200  # Newton iterations of one fit
PARAM_TOL = 1e-8  # relative step below which the Newton loop stops moving
SCORE_TOL = 10.0 * PARAM_TOL  # KKT violation at which a fit has converged
MODE_TOL = 1e-10  # |subject score| at which a conditional mode is accepted


@dataclass(frozen=True)
class FitConfig:
    gh_nodes: int = DEFAULT_GH_NODES
    optimizer: str = "newton"  # or "quasi_newton": L-BFGS-B, then the Newton loop

    def __post_init__(self):
        if self.gh_nodes < 1:
            raise ValueError("gh_nodes must be >= 1")
        if self.optimizer not in ("newton", "quasi_newton"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    @property
    def score_tol(self) -> float:
        return SCORE_TOL


@dataclass(frozen=True, eq=False)
class FittedModel:
    dataset: Dataset
    spec: ModelSpec
    config: FitConfig
    params: ParamVector
    cov_psi: np.ndarray  # natural scale, over (beta, sigma2[, kappa])
    cond_modes: np.ndarray
    cond_curvatures: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    optimizer_used: str
    score_norm: float
    cov_flags: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)

    @property
    def cov_beta_sigma2(self) -> np.ndarray:
        """Covariance block over (beta, sigma2); the NB size is excluded."""
        k = self.params.p + 1
        return self.cov_psi[:k, :k]

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov_psi), 0.0, None))


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.  It
    raises numpy.linalg.LinAlgError if the matrix is not positive definite,
    and ValueError on an infinite or NaN entry (LAPACK's answer is undefined)."""
    if not np.all(np.isfinite(a)):
        raise ValueError("array must not contain infs or NaNs")
    return np.linalg.cholesky(a)


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix; `cholesky` tests it."""
    cholesky(a)
    return np.linalg.inv(a)


def equal_runs(keys: np.ndarray):
    """Stable lexicographic order of the rows of a 2-d array, first column
    first, and a mask along it of the rows that start a run of equal rows."""
    order = np.lexsort(keys.T[::-1])
    return order, _run_starts(keys[order])


def _run_starts(ranked: np.ndarray) -> np.ndarray:
    """Mask of the rows of a 2-d array that differ from the row before."""
    new = np.ones(ranked.shape[0], dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return new


def _first_appearance(order, new):
    """Group number of each item, numbered by first appearance, and each
    group's first item, from a stable order in which every group is one run
    that starts where `new` is set."""
    first = order[new]  # the order is stable: each run's first item comes first
    by_item = np.argsort(first)
    rank = np.empty(first.size, dtype=np.intp)
    rank[by_item] = np.arange(first.size)
    label = np.empty(order.size, dtype=np.intp)
    label[order] = rank[np.cumsum(new) - 1]
    return label, first[by_item]


def _cells(subj: np.ndarray, xrow: np.ndarray):
    """Cell number of each row and the first row of each cell, a cell being
    one (subject, covariate row) pair, numbered by first appearance; `xrow`
    numbers each row's covariate row.  Rows stacked subject by subject give
    cells stacked subject by subject.
    """
    key = subj * (int(xrow.max()) + 1) + xrow  # one int64 key sorts as (subj, xrow)
    order = np.argsort(key, kind="stable")
    new = np.ones(key.size, dtype=bool)
    new[1:] = key[order[1:]] != key[order[:-1]]
    return _first_appearance(order, new)


def _patterns(dataset: Dataset):
    """Pattern number of each subject, numbered by first appearance, each
    pattern's first subject, and the number of each row's covariate row.
    Subjects with n rows are compared as rows of their n row kinds,
    ascending, one sort per distinct n.  The covariate rows are numbered
    from the same sort of the raw rows, which puts X first."""
    order, new = equal_runs(np.column_stack([dataset.X, dataset.weights, dataset.y]))
    kind = np.empty(order.size, dtype=np.intp)
    kind[order] = np.cumsum(new) - 1
    xrow = (np.cumsum(_run_starts(dataset.X[order[new]])) - 1)[kind]
    n_kinds = int(new.sum())
    kind = np.sort(dataset.subject_index * n_kinds + kind) % n_kinds  # ascending per subject
    sizes = np.diff(dataset.row_offsets)
    orders, news = [], []
    for n in np.unique(sizes):
        subjects = np.flatnonzero(sizes == n)
        order, new = equal_runs(kind[dataset.row_offsets[subjects, None] + np.arange(n)])
        orders.append(subjects[order])
        news.append(new)
    return (*_first_appearance(np.concatenate(orders), np.concatenate(news)), xrow)


class _Block(NamedTuple):
    """Whole patterns and their cells, position-major: the first `head`
    positions hold every pattern, `tail` the pattern count of each after."""
    patterns: slice
    cells: slice
    subj: np.ndarray  # each cell's pattern, counted from the block's first
    head: int
    tail: tuple
    XT: np.ndarray  # the cells' covariate rows as contiguous columns, read-only


def _block_sums(values: np.ndarray, block: _Block, out=None) -> np.ndarray:
    """Per-pattern sums of a block's (..., cells, nodes) values, added in
    position order, into `out` if given."""
    n = block.patterns.stop - block.patterns.start
    at = block.head * n
    *lead, cells, nodes = values.shape
    if block.head > 1:
        out = values[..., :at, :].reshape((*lead, block.head, n, nodes)).sum(axis=-3, out=out)
    elif out is None:  # one position: a copy, which costs less than a reduction
        out = values[..., :n, :].copy()
    else:
        out[...] = values[..., :n, :]
    for count in block.tail:
        out[..., :count, :] += values[..., at : at + count, :]
        at += count
    return out


class _Workspace:
    """Quadrature arrays and scratch for one (dataset, family) pair.

    `pattern` numbers each subject's pattern (see the module docstring),
    `rep` holds each pattern's first subject and `m` its count of subjects.
    `y`, `X`, `w` and `subj` hold one entry per cell of the `rep` subjects,
    laid out as `blocks` describe, `subj` numbering patterns: w_c = sum w
    and y_c = sum w y / w_c over the cell's rows.  The terms nonlinear in y
    (log Gamma(y + k) and its kappa derivatives, log Gamma(y + 1)) enter per
    pattern: for the NB, `levels` holds the distinct counts of those
    subjects' rows, checked here to be counts, and `triples` the (pattern,
    count level, summed weight) of their rows, from which `gamma_terms`
    forms each call's per-pattern sums for that call's kappa.
    Modes, curvatures and scores enter and leave the methods per subject.
    """

    def __init__(self, dataset: Dataset, family: Family, gh_nodes: int):
        self.family = family
        self.ops = family_ops(family)
        pattern, rep, xrow = _patterns(dataset)
        subj = dataset.subject_index
        kept = rep[pattern[subj]] == subj  # the representatives' rows
        X, subj = dataset.X[kept], pattern[subj[kept]]
        y_rows, w_rows = dataset.y[kept], dataset.weights[kept]
        cell, first = _cells(subj, xrow[kept])  # stacked pattern by pattern
        size = np.bincount(subj[first])
        position = np.arange(first.size) - (np.cumsum(size) - size)[subj[first]]
        by_size = np.argsort(-size, kind="stable")  # the new pattern numbers
        rank = np.argsort(by_size)
        self.pattern, self.rep, size = rank[pattern], rep[by_size], size[by_size]
        subj = rank[subj[first]]
        self.m = np.bincount(self.pattern)
        self.K, self.P, self.N, self.p = dataset.n_subjects, self.rep.size, dataset.n_obs, dataset.p
        self.C = int(self.m[subj].sum())  # (subject, covariate row) cells of all subjects
        rule = gh_rule(gh_nodes)
        self.t, self.logw_t2 = rule.nodes, np.log(rule.weights) + rule.nodes**2
        self.dim = self.p + 1 + (1 if family is Family.NEGBIN else 0)
        # whole patterns per block, at most cap cells unless one pattern has more
        cap = max(1, _BLOCK_CELLS // self.t.size)
        offsets = np.concatenate([[0], np.cumsum(size)])
        ends = [0]
        while ends[-1] < self.P:
            k0 = ends[-1]
            ends.append(max(k0 + 1, int(np.searchsorted(offsets, offsets[k0] + cap, "right")) - 1))
        order = np.lexsort((subj, position, np.searchsorted(ends, subj, "right")))
        self.subj, self.X, cell = subj[order], X[first[order]], np.argsort(order)[cell]
        self.w = np.bincount(cell, w_rows)
        self.y = np.bincount(cell, w_rows * y_rows) / self.w
        self.wy = self.w * self.y
        self.blocks = []
        for k0, k1 in zip(ends[:-1], ends[1:]):
            count = (k1 - k0) - np.cumsum(np.bincount(size[k0:k1])[:-1])  # patterns with > j cells
            head = int(np.sum(count == k1 - k0))
            cells = slice(int(offsets[k0]), int(offsets[k1]))
            self.blocks.append(_Block(slice(k0, k1), cells, self.subj[cells] - k0, head,
                                      tuple(count[head:].tolist()),
                                      np.ascontiguousarray(self.X[cells].T)))
        for arr in (self.wy, *(blk.XT for blk in self.blocks)):  # built once, never written
            arr.setflags(write=False)
        self.passes = self.kernel_evaluations = 0  # derivatives passes, mode-solver kernels
        # a block's complete-data scores and their posterior-weighted copy
        self.scratch = np.empty((2, self.dim, int(np.diff(ends).max()) * self.t.size))
        if family is Family.NEGBIN:
            # (pattern, count, summed weight) of the representatives' rows,
            # the count as an index into the distinct counts `levels`
            self.levels, level = np.unique(y_rows, return_inverse=True)
            self.lgamma_y1 = gamma_sums(self.levels, 1.0, 0)  # raises unless counts
            key, triple = np.unique(self.subj[cell] * self.levels.size + level, return_inverse=True)
            self.triples = (key // self.levels.size, key % self.levels.size,
                            np.bincount(triple, w_rows))

    # ---- parameter packing ---------------------------------------------

    def pack(self, beta, sigma2, kappa=None) -> np.ndarray:
        parts = [np.asarray(beta, float), [math.log(sigma2)]]
        if self.family is Family.NEGBIN:
            parts.append([math.log(kappa)])
        return np.concatenate(parts)

    def unpack(self, theta):
        beta = np.asarray(theta[: self.p], float)
        sigma2 = math.exp(theta[self.p])
        aux = math.exp(theta[self.p + 1]) if self.family is Family.NEGBIN else None
        return beta, sigma2, aux

    def bounds(self):
        lb = np.full(self.dim, -np.inf)
        ub = np.full(self.dim, np.inf)
        lb[self.p], ub[self.p] = LOG_SIGMA2_BOUNDS
        if self.family is Family.NEGBIN:
            lb[self.p + 1], ub[self.p + 1] = LOG_KAPPA_BOUNDS
        return lb, ub

    # ---- conditional modes ------------------------------------------------

    def _subject_sums(self, values) -> np.ndarray:
        return np.bincount(self.subj, values, minlength=self.P)

    def loglik_score(self, eta0, b, aux):
        """S(b), the conditional-loglik score of each pattern in its b, and
        -S'(b), the sum of w n s r, from the same kernel, which comes third."""
        self.kernel_evaluations += 1
        nodes = self.ops.kernel(self.y, eta0 + b[self.subj], aux)
        w = self.w
        return (self._subject_sums(w * nodes.score_eta()), self._subject_sums(w * nodes.curvature()),
                nodes)

    def solve_modes(self, beta, sigma2, aux, b0=None):
        """Safeguarded Newton for the conditional modes from b0 (zero by
        default), once per pattern, returned per subject with the curvatures.

        The mode lies between the start b and sigma2 S(b) (module
        docstring), a bracket that b is always an end of.  A step takes the
        Newton point if it lies in the bracket (at sigma2 ~ 1e-10 the first
        one rounds onto the far end), else the midpoint; a Newton point that
        rounds onto b is replaced by the next float toward the root.  After
        50 steps, midpoints only.  A pattern stops once |score| <= MODE_TOL
        or once its bracket is down to adjacent floats, where the midpoint
        rounds onto an end: the slope of the score times an ulp of the mode
        can exceed MODE_TOL (NB kappa = 1e6 with counts of 1e4 and a mode
        of 14: 4e-10), so no float meets the tolerance.

        The curvature returned is the Fisher information sum w mu' at the
        final b, where the last kernel was evaluated: the summed s r the
        solver already has for the logistic, sum w kappa s for the NB.
        """
        eta0 = self.X @ beta
        b = np.zeros(self.P) if b0 is None else np.asarray(b0, float)[self.rep]
        s, curv, nodes = self.loglik_score(eta0, b, aux)
        score, end = s - b / sigma2, sigma2 * s  # not b + sigma2 score: ulp(b) off if |b| >> |end|
        lo, hi = np.minimum(b, end), np.maximum(b, end)
        active = np.abs(score) > MODE_TOL
        for step in range(250):
            nxt = 0.5 * (lo + hi)
            active &= (lo < nxt) & (nxt < hi)  # else the bracket is down to adjacent floats
            if not active.any():
                break
            if step < 50:
                prop = b + score / (curv + 1.0 / sigma2)
                onto = prop == b
                if onto.any():
                    prop[onto] = np.nextafter(b[onto], nxt[onto])  # nxt: the midpoint
                nxt = np.where((lo <= prop) & (prop <= hi), prop, nxt)
            b = np.where(active, nxt, b)
            del nodes  # hold one kernel at a time
            s, curv, nodes = self.loglik_score(eta0, b, aux)
            score = s - b / sigma2
            lo = np.where(active & (score > 0), b, lo)
            hi = np.where(active & (score <= 0), b, hi)
            active = np.abs(score) > MODE_TOL

        if self.family is Family.NEGBIN:
            curv = self._subject_sums(self.w * (aux * nodes.s))
        curv += 1.0 / sigma2
        return b[self.pattern], curv[self.pattern]

    # ---- marginal likelihood and scores ---------------------------------

    def gamma_terms(self, aux, split=True):
        """Per-pattern sums of w times the node-free NB terms at size aux, from
        one gamma_table on the distinct counts: the log-density's log Gamma(y +
        k) - log Gamma(k) - log Gamma(y + 1) - y log k (+ (y + k) log k without
        `split`, see integral_pieces) and the two kappa-score offsets; None for
        the logistic."""
        if self.family is not Family.NEGBIN:
            return None
        pattern, level, w = self.triples
        lg, dg, tg = gamma_table(self.levels, aux)
        lg = lg - self.lgamma_y1
        if not split:
            lg = lg + (self.levels + aux) * math.log(aux)
        return tuple(np.bincount(pattern, w * t[level], minlength=self.P) for t in (lg, dg, tg))

    def operands(self, beta, aux, split=True):
        """What integral_pieces takes per call: beta, w y and w n of every
        cell (n = y + kappa for the NB, 1 for the logistic) and
        gamma_terms(aux, split)."""
        w = self.w
        wn = w if aux is None else w * (self.y + aux)
        return beta, self.wy, wn, self.gamma_terms(aux, split)

    def integral_pieces(self, sigma2, aux, modes, curv, operands, block, split=True):
        """Loglik contributions, posterior node weights, node positions and
        the node kernel (cells, nodes) for the patterns of one block, from
        per-subject `modes` and `curv`; `operands` are operands(beta, aux,
        split).  The kernel's y and n are w y and w n, so its loglik and
        eta-score carry the cell weights.

        With `split`, the negative binomial's (y + k) log(k + mu) is written
        as (y + k) (log k + log1p(mu / k)): the eta-dependent part is then
        O(mu) instead of O(k log k), and loglik differences and posterior
        node weights keep their digits as k nears its upper bound 1e6,
        where the unsplit form rounds at ~1e-9 per cell.
        """
        beta, wy, wn, terms = operands
        ks, rows = block.patterns, block.cells
        reps = self.rep[ks]
        scale = 1.0 / np.sqrt(curv[reps])
        u = modes[reps, None] + math.sqrt(2.0) * scale[:, None] * self.t[None, :]
        eta = u[block.subj]
        eta += (self.X[rows] @ beta)[:, None]
        z = eta if terms is None else eta - math.log(aux)
        nodes = Nodes(wy[rows, None], z, wn[rows, None], aux)
        ll = (nodes.loglik(eta) if split or terms is None
              else nodes.y * eta - nodes.n * np.logaddexp(math.log(aux), eta))
        g = _block_sums(ll, block)
        if terms is not None:
            g += terms[0][ks, None]
        g -= u**2 / (2.0 * sigma2)
        g += self.logw_t2[None, :]
        top = g.max(axis=1)
        g -= top[:, None]
        omega = np.exp(g, out=g)
        total = omega.sum(axis=1)  # >= 1: the largest term is exp(0)
        omega /= total[:, None]
        ll_i = 0.5 * np.log(2.0 / curv[reps]) + top + np.log(total)
        return ll_i, omega, u, nodes

    def _total_loglik(self, ll_i, sigma2) -> float:
        ll = ((ll_i[0] if len(ll_i) == 1 else np.concatenate(ll_i)) * self.m).sum()
        return float(ll - 0.5 * self.K * math.log(2.0 * math.pi * sigma2))

    def loglik_at(self, theta):
        beta, sigma2, aux = self.unpack(theta)
        modes, curv = self.solve_modes(beta, sigma2, aux)
        operands = self.operands(beta, aux)
        ll_i = [self.integral_pieces(sigma2, aux, modes, curv, operands, blk)[0]
                for blk in self.blocks]
        return self._total_loglik(ll_i, sigma2), modes, curv

    def score_matrix(self, theta, modes, curv):
        """Per-subject scores d_i on the optimizer scale; loglik as byproduct.

        These are the scores of the NB's reported covariance, built with
        the unsplit loglik (see integral_pieces): at the (sigma2, kappa) =
        (1e-10, 1e6) corner sum_i d_i d_i' is ill-conditioned and its
        inverse follows that form's rounding, which the stored benchmark
        references record; the logistic's are the Newton loop's last d.
        """
        return self.derivatives(theta, modes, curv, hessian=False, split=False)[:2]

    def derivatives(self, theta, modes, curv, hessian=True, split=True):
        """Per-subject scores d_i, the loglik and, with `hessian`, the
        observed-information Hessian of the loglik by Louis' identity,
        sum_i E_post[d2 l_c] + E_post[s s'] - d_i d_i', from the
        complete-data scores s and second derivatives d2 l_c at the same
        posterior node weights as the scores (a zero matrix otherwise).
        Each pattern's terms are computed once and weighted by its
        multiplicity.

        One pass per block.  The complete-data scores are stored (dim,
        patterns, nodes), so d is one contraction and E_post[s s'] one
        matrix product; the beta score is the cell difference w y - w n s
        times each covariate row of X', summed per pattern.  The node sums
        of the second derivatives are row dots of the posterior weights
        with s r, s^2 and r^2, weighted per cell: -d2 l / d eta2 = n s r,
        and the NB's log-kappa terms (d/dlog k = k d/dk, d2/dlog k2 = k d/dk
        + k^2 d2/dk2) take k d2 l / d eta dk = y s r - k s^2 and k^2 d2 l /
        dk2 = k^2 T2 + k s^2 + y r^2, T2 the trigamma offset.  The node-free
        offsets enter per pattern, as a pattern's posterior weights sum to
        one.
        """
        self.passes += 1
        beta, sigma2, aux = self.unpack(theta)
        nb = self.family is Family.NEGBIN
        p, dim = self.p, self.dim
        operands = self.operands(beta, aux, split)
        _, wy, wn, terms = operands
        w = self.w
        rows_d, ll_i = [], []
        h = np.zeros((dim, dim))
        for blk in self.blocks:
            ks, rows, XT = blk.patterns, blk.cells, blk.XT
            ll_b, omega, u, nodes = self.integral_pieces(sigma2, aux, modes, curv, operands, blk,
                                                         split)

            # complete-data scores at every node: (dim, patterns, nodes)
            sc = self.scratch[0, :, : omega.size].reshape((dim,) + omega.shape)
            a = nodes.score_eta()
            for c in range(p):
                _block_sums(a * XT[c, :, None], blk, out=sc[c])
            sc[p] = (u**2 - sigma2) / (2.0 * sigma2)
            if nb:  # w (s - softplus) - w y r / k, the kappa score less its offset
                np.subtract(nodes.s, nodes.softplus, out=a)
                a *= w[rows, None]
                a -= (wy[rows] / aux)[:, None] * nodes.r
                _block_sums(a, blk, out=sc[p + 1])
                sc[p + 1] += terms[1][ks, None]
                sc[p + 1] *= aux
            del a  # no (cells, nodes) array outlives its block
            d = np.einsum("jkm,km->kj", sc, omega)
            rows_d.append(d)
            ll_i.append(ll_b)
            if hessian:
                m = self.m[ks]
                m_omega = m[:, None] * omega
                m_omega_rows = m_omega[blk.subj]
                flat = sc.reshape(dim, -1)
                weighted = np.multiply(flat, m_omega.reshape(-1), out=self.scratch[1, :, : omega.size])
                h += weighted @ flat.T - (m[:, None] * d).T @ d
                sr = np.einsum("cm,cm->c", m_omega_rows, nodes.s * nodes.r)
                h[:p, :p] -= (XT * (wn[rows] * sr)) @ XT.T
                h[p, p] -= np.sum(m_omega * u**2) / (2.0 * sigma2)
                if nb:
                    s2 = np.einsum("cm,cm->c", m_omega_rows, nodes.s * nodes.s)
                    r2 = np.einsum("cm,cm->c", m_omega_rows, nodes.r * nodes.r)
                    h[:p, p + 1] += XT @ (wy[rows] * sr - aux * (w[rows] * s2))
                    h[p + 1, p + 1] += ((m * d[:, p + 1]).sum() + aux * (w[rows] @ s2)
                                        + wy[rows] @ r2)
            del nodes
        if hessian and nb:
            h[p + 1, p + 1] += aux * aux * (self.m @ terms[2])
            h[p + 1:, :p] = h[:p, p + 1:].T
        d = rows_d[0] if len(rows_d) == 1 else np.vstack(rows_d)
        return d[self.pattern], self._total_loglik(ll_i, sigma2), h


def marginal_loglik(dataset: Dataset, spec: ModelSpec, params: ParamVector,
                    gh_nodes: int = DEFAULT_GH_NODES) -> float:
    """Marginal log-likelihood with the random intercept integrated out.

    sigma2 = 0 is the degenerate case: every intercept is zero and the value
    is the conditional log-likelihood at b = 0.
    """
    if params.sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    if spec.family is Family.NEGBIN and (params.kappa is None or params.kappa <= 0):
        raise ValueError("negative-binomial family requires kappa > 0")
    aux = params.kappa if spec.family is Family.NEGBIN else None
    if params.sigma2 == 0.0:  # on the raw rows: the log-density is not affine in y
        eta = dataset.X @ np.asarray(params.beta, float)
        return float(np.sum(dataset.weights * family_ops(spec.family).loglik(dataset.y, eta, aux)))
    ws = _Workspace(dataset, spec.family, gh_nodes)
    theta = ws.pack(params.beta, params.sigma2, params.kappa)
    ll, _, _ = ws.loglik_at(theta)
    if not np.isfinite(ll):
        raise FloatingPointError("marginal log-likelihood is non-finite at these parameters")
    return ll


def _irls_init(ws: _Workspace, y_rows: np.ndarray) -> np.ndarray:
    """Fixed-effects GLM start values (logistic IRLS; Poisson IRLS for NB)
    over every subject's cells; `y_rows` holds every row's response."""
    X, y, w = ws.X, ws.y, ws.w * ws.m[ws.subj]
    beta = np.zeros(ws.p)
    if ws.family is Family.NEGBIN:
        beta[0] = math.log(max(float(np.mean(y_rows)), 0.05))
    for _ in range(8):
        eta = np.clip(X @ beta, -30, 30)
        if ws.family is Family.NEGBIN:
            mu = np.exp(eta)
            wt = np.clip(mu, 1e-6, None)
        else:
            mu = 1.0 / (1.0 + np.exp(-eta))
            wt = np.clip(mu * (1.0 - mu), 1e-6, None)
        z = eta + (y - mu) / wt
        xtw = X.T * (wt * w)
        try:
            beta_new = np.linalg.solve(xtw @ X, xtw @ z)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(beta_new)):
            break
        beta = beta_new
    return beta if np.all(np.isfinite(beta)) else np.zeros(ws.p)


def _kappa_moment_init(y: np.ndarray) -> float:
    m, v = float(np.mean(y)), float(np.var(y))
    if v > m > 0:
        return float(np.clip(m * m / (v - m), 0.5, 1e4))
    return 100.0


def _snap(theta, lb, ub) -> np.ndarray:
    """Coordinates within 1e-12 of a bound, onto the bound."""
    return np.where(theta <= lb + 1e-12, lb, np.where(theta >= ub - 1e-12, ub, theta))


def _kkt_violation(g, theta, lb, ub, p) -> float:
    """Largest violation of the first-order conditions of a maximum in the box.

    Variance coordinates are judged by dl/dv on the natural scale
    v = exp(theta) where v < 1: there the log-scale score g = v dl/dv
    vanishes as v -> 0 whatever the slope, and a bound that the likelihood
    rises away from would pass for a stationary point.
    """
    gj = np.array(g, float)
    gj[p:] *= np.exp(np.maximum(-theta[p:], 0.0))
    gj[(theta <= lb) & (gj < 0)] = 0.0
    gj[(theta >= ub) & (gj > 0)] = 0.0
    return float(np.max(np.abs(gj)))


def _newton_direction(h, g) -> np.ndarray:
    """Solves (-h) x = g, with the spectrum of the Jacobi-scaled -h replaced
    by its absolute values (floored) where -h is not positive definite."""
    s = 1.0 / np.sqrt(np.maximum(np.abs(np.diag(h)), 1e-300))
    lam, vec = np.linalg.eigh(-h * np.outer(s, s))
    lam = np.maximum(np.abs(lam), 1e-10 * max(float(np.abs(lam).max()), 1e-300))
    return s * (vec @ ((vec.T @ (s * g)) / lam))


def _lbfgs(ws: _Workspace, theta0, lb, ub):
    from scipy.optimize import minimize  # only this opt-in path pays for the import

    warm = {"modes": None}

    def objective(th):
        beta, sigma2, aux = ws.unpack(th)
        modes, curv = ws.solve_modes(beta, sigma2, aux, warm["modes"])
        warm["modes"] = modes
        d, ll, _ = ws.derivatives(th, modes, curv, hessian=False)
        return -ll, -d.sum(axis=0)

    res = minimize(
        objective,
        theta0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(lb, ub)),
        options={"maxiter": 2000, "ftol": 1e-16, "gtol": PARAM_TOL},
    )
    return np.asarray(res.x), int(res.nit)


def _newton(ws: _Workspace, theta, lb, ub):
    """Projected Newton ascent on the Louis observed information.

    Each step solves the Newton system over the coordinates not held at a
    bound, in working coordinates: beta as is, sigma2 and kappa on their
    natural scale exp(-|theta|), the value itself below 1 and its
    reciprocal above, so that sigma2 -> 0 and the Poisson limit
    kappa -> inf lie at a finite distance and a boundary optimum is
    reached in one projected step instead of one log unit per step.  Steps on beta are capped at
    _MAX_STEP (separated data would otherwise run |eta| into the hundreds),
    a step that would newly put two variance coordinates on their bounds
    stops halfway between the two hits (the corner can be a lower local
    optimum), and step-halving keeps a step that raises the loglik, or that
    keeps it within rounding and lowers the KKT violation.  Once a step no
    longer moves theta, the loop follows the score alone: the quadrature
    score is the gradient of the exact integral, so its root can sit a
    quadrature error away from the quadrature loglik's maximum.  It returns
    the last accepted iterate with its scores d, the iterations and the trials.
    """
    p, v = ws.p, slice(ws.p, None)
    theta = _snap(theta, lb, ub)
    modes, curv = ws.solve_modes(*ws.unpack(theta))
    d, ll, h = ws.derivatives(theta, modes, curv)
    g = d.sum(axis=0)
    viol = _kkt_violation(g, theta, lb, ub, p)
    up, down = (np.exp(sgn * np.column_stack([lb[v], ub[v]])) for sgn in (1.0, -1.0))  # phi's box
    iterations, trials, on_score = 0, 0, False
    while iterations < MAX_ITER and viol > SCORE_TOL:
        iterations += 1
        pos = theta[v] <= 0.0
        sgn = np.where(pos, 1.0, -1.0)
        phi, lo, hi = theta.copy(), lb.copy(), ub.copy()
        phi[v] = np.exp(sgn * theta[v])
        lo[v], hi[v] = np.where(pos, up[:, 0], down[:, 1]), np.where(pos, up[:, 1], down[:, 0])
        jac = np.ones(ws.dim)
        jac[v] = sgn / phi[v]  # dtheta / dphi
        h_phi = h * np.outer(jac, jac)
        h_phi[v, v] -= np.diag(sgn * g[v] / phi[v] ** 2)

        free = ~(((theta <= lb) & (g <= 0)) | ((theta >= ub) & (g >= 0)))
        delta = np.zeros(ws.dim)
        h_free = h_phi if free.all() else h_phi[np.ix_(free, free)]
        delta[free] = _newton_direction(h_free, (jac * g)[free])
        big = float(np.max(np.abs(delta[:p])))
        if big > _MAX_STEP:
            delta *= _MAX_STEP / big
        lam = 1.0
        if ws.dim - p > 1:  # only two variance coordinates can both reach a bound
            edge = np.where(delta[v] < 0, lo[v], hi[v])
            reach = ((lb[v] < theta[v]) & (theta[v] < ub[v]) & (delta[v] != 0)
                     & (np.abs(edge - phi[v]) <= np.abs(delta[v])))
            if np.count_nonzero(reach) > 1:
                hits = np.sort((edge - phi[v])[reach] / delta[v][reach])
                lam = 0.5 * float(hits[0] + hits[1])

        step = 0.0
        for _ in range(40):
            trials += 1
            trial = np.clip(phi + lam * delta, lo, hi)
            trial[v] = sgn * np.log(trial[v])
            trial = _snap(trial, lb, ub)
            modes_t, curv_t = ws.solve_modes(*ws.unpack(trial), modes)
            d_t, ll_t, h_t = ws.derivatives(trial, modes_t, curv_t)
            g_t = d_t.sum(axis=0)
            viol_t = _kkt_violation(g_t, trial, lb, ub, p)
            slack = 1e-12 * (1.0 + abs(ll))
            if on_score:
                better = np.isfinite(ll_t) and viol_t < viol
            else:
                better = ll_t > ll + slack or (ll_t >= ll - slack and viol_t < viol)
            if better:
                step = float(np.max(np.abs(trial - theta)) / (1.0 + np.max(np.abs(theta))))
                theta, ll, modes, curv, d, g, h = trial, ll_t, modes_t, curv_t, d_t, g_t, h_t
                viol = viol_t
                break
            lam *= 0.5
        if step <= PARAM_TOL:
            if on_score:
                break
            on_score = True
    return theta, ll, modes, curv, d, viol, iterations, trials


def fit(dataset: Dataset, spec: ModelSpec, config: FitConfig | None = None) -> FittedModel:
    """Maximize the marginal likelihood and assemble the fitted model.

    Cov(psi_hat) is H^{-1} with H the sum of squared per-subject scores at
    the optimum, delta-mapped from (beta, log sigma2, log kappa) to the
    natural scale.  Non-convergence returns the best iterate with
    converged=False; a singular H falls back to the pseudo-inverse and is
    flagged in cov_flags.  score_norm is the final KKT violation.
    `diagnostics` holds deterministic counts (see README).
    """
    config = config or FitConfig()
    ws = _Workspace(dataset, spec.family, config.gh_nodes)
    lb, ub = ws.bounds()

    kappa0 = _kappa_moment_init(dataset.y) if spec.family is Family.NEGBIN else None
    theta = np.clip(ws.pack(_irls_init(ws, dataset.y), 0.1, kappa0), lb, ub)
    iterations, optimizer_used = 0, "newton"
    if config.optimizer == "quasi_newton":
        theta, iterations = _lbfgs(ws, theta, lb, ub)
        optimizer_used = "quasi_newton+newton"
    theta, ll, modes, curv, d, score_norm, extra, trials = _newton(ws, theta, lb, ub)
    iterations += extra
    converged = score_norm <= SCORE_TOL

    if spec.family is Family.NEGBIN:
        d, _ = ws.score_matrix(theta, modes, curv)
    h = d.T @ d
    cov_flags: list[str] = []
    try:
        cov_theta = spd_inverse(h)
    except np.linalg.LinAlgError:
        cov_theta = np.linalg.pinv(h)
        cov_flags.append("singular_information_pseudo_inverse")

    beta, sigma2, aux = ws.unpack(theta)
    jac = np.ones(ws.dim)
    jac[ws.p] = sigma2
    if spec.family is Family.NEGBIN:
        jac[ws.p + 1] = aux
    cov_psi = cov_theta * np.outer(jac, jac)
    cov_psi = 0.5 * (cov_psi + cov_psi.T)
    eig = np.linalg.eigvalsh(cov_psi)
    if eig.size and eig[0] < -1e-8 * max(eig[-1], 1e-300):
        # clip the spectrum so downstream delta-method variances stay >= 0
        vals, vecs = np.linalg.eigh(cov_psi)
        cov_psi = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        cov_flags.append("clipped_negative_eigenvalues")
    cov_psi.setflags(write=False)

    modes.setflags(write=False)  # solve_modes returns fresh arrays
    curv.setflags(write=False)

    return FittedModel(
        dataset=dataset,
        spec=spec,
        config=config,
        params=ParamVector(beta=beta, sigma2=sigma2, kappa=aux),
        cov_psi=cov_psi,
        cond_modes=modes,
        cond_curvatures=curv,
        loglik=ll,
        converged=converged,
        iterations=iterations,
        optimizer_used=optimizer_used,
        score_norm=score_norm,
        cov_flags=tuple(cov_flags),
        diagnostics={
            "random_effect_kernel": "normal(0, sigma2), exponent -b^2/(2*sigma2)",
            "rows": ws.N,
            "quadrature_cells": ws.C,
            "subject_patterns": ws.P,
            "line_search_trials": trials, "quadrature_passes": ws.passes,
            "mode_kernel_evaluations": ws.kernel_evaluations,
        },
    )


def subject_scores(fitted: FittedModel) -> np.ndarray:
    """Per-subject scores d_i at psi_hat on the (beta, log sigma2[, log kappa]) scale."""
    ws = _Workspace(fitted.dataset, fitted.spec.family, fitted.config.gh_nodes)
    theta = ws.pack(fitted.params.beta, fitted.params.sigma2, fitted.params.kappa)
    d, _ = ws.score_matrix(theta, np.array(fitted.cond_modes), np.array(fitted.cond_curvatures))
    return d


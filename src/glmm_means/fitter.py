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
once with their row count and mean response.  That is exact
because every kernel evaluated at the nodes is affine in y at fixed eta;
the negative binomial's terms nonlinear in y (log Gamma(y + kappa) and its
derivatives in kappa, log Gamma(y + 1)) are node-free, so they enter the
loglik, the kappa score and the kappa curvature only as per-pattern sums of
the term over the pattern's rows.  A call evaluates them once per
distinct count, from one prefix sum up to the largest count
(`families.gamma_table`), and adds them into the pattern sums with one
`np.bincount` per term over (pattern, count, row count) triples.  Data
without repeated covariate rows have one cell per row, holding that row's
response and a row count of one.

The quadrature also runs over patterns, not subjects: subjects whose
multisets of raw rows (covariate row, response) are equal share
one.  A subject's quadrature terms depend on its rows alone, so the mode,
the node evaluations and the score are computed once per pattern, on its
first subject's cells, and every sum over subjects weights a pattern by
its count; keying on raw rows keeps the NB log Gamma terms equal.  Only
the workspace knows about cells and patterns; `diagnostics` counts the
rows, the cells of all subjects and the patterns.  The iteration cap and
the tolerances are the module constants MAX_ITER, PARAM_TOL, SCORE_TOL
and MODE_TOL.

Every node kernel comes from one `families.Nodes` per block, one exponential
per (cell, node), with the cells' row counts folded into its y and n.  numpy's
`logaddexp` has no vectorized loop (it takes some 25 times an `exp`), so only
the NB's unsplit closing pass keeps it.  w y per cell and each block's
contiguous X', which no parameter changes, are built once, and no covariate
array is held twice (see `_Workspace`).  Patterns are numbered by descending
cell count, and a block stores its cells position-major: the first cell of
every pattern, then the second of every pattern that has one, and so on.  A
per-pattern sum is one reduction over the positions that every pattern has and
one slice add per further position, where `reduceat`'s overhead per segment
costs many slice adds on two-cell patterns; the mode solver's sums are
`np.bincount`s.

A study's replications are fitted in lockstep (`fit_batch`): one workspace
stacks their datasets, patterns never span two of them, and a block holds
whole replications, several whose cells fit one block together or one in the
blocks it has alone.  The Newton loop is a generator (`_newton`) that yields
each point it needs, and each round of a batch serves one kind of request with
one quadrature pass: the kernels, the per-pattern sums and the posterior
weights run once for the batch, each pattern at its own replication's
parameters.  A Newton round solves the modes of every asking replication
first; the NB's covariance-score requests wait until no Newton request is
left, and one closing round serves them all.  Within a block each
replication's patterns are numbered together by descending cell count, so they
and its cells keep the order they have alone, and every sum over one
replication's patterns, subjects or cells (X beta, the loglik, the scores'
totals, the Hessian's products, the NB's node-free terms, the IRLS start's
X'WX and X'Wz) runs on its own values in that order.  The IRLS starts of a
batch come from one loop (`_irls_starts`) with one stacked solve per
iteration.  So a batched fit is bit for bit its lone fit, and a study's report
does not depend on how its replications were batched or spread over worker
processes; `fit` is the batch of one.

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
last accepted pass; the NB's come from one more, unsplit pass at the optimum,
one closing pass per batch (`score_matrix` in a workspace of one dataset).
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


def _patterns(dataset, key=None):
    """Pattern number of each subject, numbered by first appearance, each
    pattern's first subject, and the number of each row's covariate row.
    Subjects with n rows are compared as rows of their n row kinds,
    ascending, one sort per distinct n; subjects whose `key` (one integer
    per subject, if given) differs never share a pattern.  The covariate
    rows are numbered from the same sort of the raw rows, which puts X
    first.  `dataset` is the `_Rows` of one or more datasets."""
    order, new = equal_runs(dataset.Xy)
    kind = np.empty(order.size, dtype=np.intp)
    kind[order] = np.cumsum(new) - 1
    xrow = (np.cumsum(_run_starts(dataset.Xy[order[new], :-1])) - 1)[kind]
    n_kinds = int(new.sum())
    kind = np.sort(dataset.subject_index * n_kinds + kind) % n_kinds  # ascending per subject
    sizes = np.diff(dataset.row_offsets)
    orders, news = [], []
    for n in np.unique(sizes):
        subjects = np.flatnonzero(sizes == n)
        kinds = kind[dataset.row_offsets[subjects, None] + np.arange(n)]
        if key is not None:  # sorts as a leading key column would
            kinds[:, 0] += n_kinds * key[subjects]
        order, new = equal_runs(kinds)
        orders.append(subjects[order])
        news.append(new)
    return (*_first_appearance(np.concatenate(orders), np.concatenate(news)), xrow)


class _Rows(NamedTuple):
    """The rows of one or more datasets stacked, subjects numbered on."""
    Xy: np.ndarray  # each row's covariates, then its response
    subject_index: np.ndarray
    row_offsets: np.ndarray


def _stack(datasets) -> _Rows:
    subjects = np.cumsum([0] + [ds.n_subjects for ds in datasets])
    rows = np.cumsum([0] + [ds.n_obs for ds in datasets])
    Xy = np.empty((rows[-1], datasets[0].X.shape[1] + 1))
    for ds, start, stop in zip(datasets, rows[:-1], rows[1:]):
        Xy[start:stop, :-1], Xy[start:stop, -1] = ds.X, ds.y
    return _Rows(Xy, np.concatenate([ds.subject_index + k for ds, k in zip(datasets, subjects)]),
                 np.concatenate([ds.row_offsets[:-1] + n for ds, n in zip(datasets, rows)]
                                + [rows[-1:]]))


class _Share(NamedTuple):
    """One dataset's patterns and cells in its batch or in one block of it,
    as its lone fit stores them: its patterns, which are consecutive, and
    its cells, each in that order.  Cells that form one contiguous run are
    a slice, and `X` then views the workspace's X."""
    rep: int  # the dataset's position in the batch
    patterns: slice
    cells: slice | np.ndarray
    X: np.ndarray  # those cells' covariate rows, C-contiguous
    XT: np.ndarray | None  # their contiguous transpose, read-only, where a pass reads it
    m: np.ndarray  # those patterns' subject counts


class _Block(NamedTuple):
    """Whole patterns and their cells, position-major: the first `head`
    positions hold every pattern, and `tail` the (first pattern, pattern
    count) runs of the positions after, in storage order, one run per
    dataset of the block and position.  A member that holds all of the
    block's cells reads the block's XT."""
    patterns: slice
    cells: slice
    subj: np.ndarray  # each cell's pattern, counted from the block's first
    head: int
    tail: tuple
    XT: np.ndarray  # the cells' covariate rows as contiguous columns, read-only
    local: slice  # the patterns, numbered within the batch
    rows: slice  # the cells, numbered within the batch
    members: tuple  # the _Share of each dataset in the block, relative to it


class _Batch(NamedTuple):
    """Datasets fitted in lockstep, whole datasets in whole blocks: several
    in one block, or one in the blocks of its lone fit.  Patterns and cells
    are numbered from the batch's first."""
    index: slice  # the datasets, numbered in the workspace
    reps: tuple  # the _Share of each dataset
    subjects: tuple  # each dataset's subjects' patterns
    patterns: slice
    P: int
    y: np.ndarray
    w: np.ndarray
    subj: np.ndarray  # each cell's pattern
    prep: np.ndarray  # each pattern's dataset, numbered in the batch
    crep: np.ndarray  # each cell's
    blocks: tuple
    triples: tuple | None  # NB: (pattern, count level + dataset x levels, row count)
    scratch: np.ndarray  # (2, dim, width): a block's scores and their weighted copy


_ONE = (True,)  # the live flags of a batch of one


def _transpose(X) -> np.ndarray:
    XT = np.ascontiguousarray(X.T)
    XT.setflags(write=False)  # built once, never written
    return XT


def _col(values):
    """A spread over patterns or cells as a column; a float as is."""
    return values if isinstance(values, float) else values[:, None]


class _Point:
    """One call's parameters: a (beta, sigma2, aux) per replication of a
    batch, with sigma2 and the NB size spread over the batch's patterns and
    cells, and each cell's w n (n = y + kappa for the NB, 1 for the
    logistic).  Where the batch holds one replication, sigma2 and the size
    stay floats: every block of the batch reads them whole, and a float
    operand costs less than a spread array.  The log sizes are math.log's,
    as a lone fit takes them."""

    def __init__(self, batch: _Batch, params):
        self.beta = [np.asarray(b, float) for b, _, _ in params]
        self.sigma2 = [s for _, s, _ in params]
        self.aux = [a for _, _, a in params]
        one = len(params) == 1

        def spread(values, codes):
            return values[0] if one else np.array(values)[codes]

        self.sigma2_p = spread(self.sigma2, batch.prep)
        self.aux_p = self.aux_c = self.log_aux = self.log_aux_c = None
        self.wn = batch.w
        if self.aux[0] is not None:
            self.log_aux = [math.log(a) for a in self.aux]
            self.aux_p, self.aux_c = spread(self.aux, batch.prep), spread(self.aux, batch.crep)
            self.log_aux_c = spread(self.log_aux, batch.crep)
            self.wn = batch.w * (batch.y + self.aux_c)


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
    for start, count in block.tail:
        out[..., start : start + count, :] += values[..., at : at + count, :]
        at += count
    return out


class _Workspace:
    """Quadrature arrays and scratch for one family and one dataset, or
    several stacked: the replications of a study, fitted in lockstep.

    `pattern` numbers each subject's pattern (see the module docstring),
    `rep` holds each pattern's first subject and `m` its count of subjects,
    subjects numbered on from one dataset to the next.  `y`, `X`, `w` and
    `subj` hold one entry per cell of the `rep` subjects, laid out as
    `blocks` describe, `subj` numbering patterns: w_c is the cell's row
    count and y_c the mean response of its rows.  The terms nonlinear in y
    (log Gamma(y + k) and its kappa derivatives, log Gamma(y + 1)) enter per
    pattern: for the NB, `levels` holds the distinct counts of those
    subjects' rows, checked here to be counts, and each batch's `triples`
    the (pattern, count level, row count) of their rows, from which
    `gamma_terms` forms each call's per-pattern sums for that call's kappa.

    Patterns never span datasets, and `batches` split the datasets into
    lockstep batches: runs of datasets whose cells fit one block together,
    or one dataset alone in the blocks it has alone.  Within a block each
    dataset's patterns are numbered together by descending cell count, so
    they and its cells keep the order they have alone (see `_Share`).  No
    covariate array is held twice: a share whose cells are one run views `X`,
    and a block's one member reads the block's X'; a share no pass reads as a
    member holds none.
    `modes` and `batch_derivatives` take one parameter triple per dataset
    of a batch (`_Point`) and per-pattern modes and curvatures, and reduce
    every sum over one dataset's patterns, subjects or cells over that
    dataset's values alone, in that order.  `solve_modes`, `loglik_at`,
    `derivatives`, `score_matrix` and `gamma_terms` are those of a
    workspace of one dataset, and take and return modes, curvatures and
    scores per subject.
    """

    def __init__(self, datasets, family: Family, gh_nodes: int):
        if isinstance(datasets, Dataset):
            datasets = [datasets]
        self.family = family
        self.ops = family_ops(family)
        n_reps = len(datasets)
        rows = _stack(datasets)
        first_subject = np.cumsum([0] + [ds.n_subjects for ds in datasets])
        key = np.repeat(np.arange(n_reps), np.diff(first_subject))  # each subject's dataset
        pattern, rep, xrow = _patterns(rows, key)
        subj = rows.subject_index
        kept = rep[pattern[subj]] == subj  # the representatives' rows
        X, subj = rows.Xy[kept, :-1], pattern[subj[kept]]
        y_rows = rows.Xy[kept, -1]
        cell, first = _cells(subj, xrow[kept])  # stacked pattern by pattern
        size = np.bincount(subj[first])
        position = np.arange(first.size) - (np.cumsum(size) - size)[subj[first]]
        prep = key[rep]
        rule = gh_rule(gh_nodes)
        self.t, self.logw_t2 = rule.nodes, np.log(rule.weights) + rule.nodes**2
        cap = max(1, _BLOCK_CELLS // self.t.size)
        batch, used = np.zeros(n_reps, dtype=np.intp), 0  # datasets whose cells fit one block
        for r, cells in enumerate(np.bincount(prep, size, minlength=n_reps).tolist()):
            if used and used + cells > cap:
                batch[r:] += 1
                used = 0
            used += cells
        # the new pattern numbers: by batch, dataset and descending cell count
        by_size = np.lexsort((-size, prep, batch[prep]))
        rank = np.argsort(by_size)
        self.pattern, self.rep = rank[pattern], rep[by_size]
        size, prep = size[by_size], prep[by_size]
        subj = rank[subj[first]]
        self.m = np.bincount(self.pattern)
        self.K, self.P = int(first_subject[-1]), self.rep.size
        self.N, self.p = rows.Xy.shape[0], X.shape[1]
        self.C = int(self.m[subj].sum())  # (subject, covariate row) cells of all subjects
        self.dim = self.p + 1 + (1 if family is Family.NEGBIN else 0)
        # whole patterns per block, at most cap cells unless one pattern has
        # more, and no block across two batches
        offsets = np.concatenate([[0], np.cumsum(size)])
        bounds = [0, *(np.flatnonzero(np.diff(batch[prep])) + 1).tolist(), self.P]
        ends = [0]
        for stop in bounds[1:]:
            while ends[-1] < stop:
                k0 = ends[-1]
                top = int(np.searchsorted(offsets, offsets[k0] + cap, "right")) - 1
                ends.append(min(stop, max(k0 + 1, top)))
        order = np.lexsort((subj, position, np.searchsorted(ends, subj, "right")))
        self.subj, self.X, cell = subj[order], X[first[order]], np.argsort(order)[cell]
        self.w = np.bincount(cell)
        self.y = np.bincount(cell, y_rows) / self.w
        self.w = self.w.astype(float)  # the row counts, as the float factors they enter as
        self.wy = self.w * self.y
        self.wy.setflags(write=False)  # built once, never written
        self.passes = np.zeros(n_reps, dtype=np.int64)  # derivatives passes, per dataset
        self.kernel_evaluations = np.zeros(n_reps, dtype=np.int64)  # mode-solver kernels
        triples = None
        if family is Family.NEGBIN:
            # (pattern, count, row count) of the representatives' rows,
            # the count as an index into the distinct counts `levels`
            self.levels, level = np.unique(y_rows, return_inverse=True)
            self.lgamma_y1 = gamma_sums(self.levels, 1.0, 0)  # raises unless counts
            n_levels = self.levels.size
            code, triple = np.unique(self.subj[cell] * n_levels + level, return_inverse=True)
            triples = (code // n_levels, code % n_levels, np.bincount(triple).astype(float))
        widths = [max(k1 - k0 for k0, k1 in zip(ends[:-1], ends[1:]) if g0 <= k0 < g1)
                  for g0, g1 in zip(bounds[:-1], bounds[1:])]
        scratch = np.empty(2 * self.dim * max(widths) * self.t.size)
        self.blocks, self.batches = [], []
        for g0, g1, width in zip(bounds[:-1], bounds[1:], widths):
            r0, r1 = int(prep[g0]), int(prep[g1 - 1]) + 1
            cells_g = slice(int(offsets[g0]), int(offsets[g1]))
            lsubj = self.subj[cells_g] - g0
            lprep = prep[g0:g1] - r0
            crep = lprep[lsubj]
            shares, subjects = [], []
            for i, r in enumerate(range(r0, r1)):
                pk = slice(*np.searchsorted(lprep, [i, i + 1]).tolist())
                ck = np.flatnonzero(crep == i)
                if ck[-1] - ck[0] == ck.size - 1:  # one run: a slice, and X a view
                    ck = slice(int(ck[0]), int(ck[-1]) + 1)
                shares.append(_Share(i, pk, ck, self.X[cells_g][ck], None, self.m[g0:g1][pk]))
                subjects.append(self.pattern[first_subject[r] : first_subject[r + 1]] - g0)
            ends_g = [(k0, k1) for k0, k1 in zip(ends[:-1], ends[1:]) if g0 <= k0 < g1]
            blocks = []
            for k0, k1 in ends_g:
                cells = slice(int(offsets[k0]), int(offsets[k1]))
                XT = _transpose(self.X[cells])
                # a batch of one block shares it as it shares the batch; a
                # dataset alone in several has all of each
                members = shares if len(ends_g) == 1 else [
                    _Share(0, slice(0, k1 - k0), slice(0, cells.stop - cells.start),
                           self.X[cells], None, self.m[k0:k1])]
                members = tuple(mem._replace(XT=XT if len(members) == 1 else _transpose(mem.X))
                                for mem in members)
                top = int(size[k0:k1].max())
                # per dataset and position j: its patterns with more than j cells
                count = np.array([(mem.patterns.stop - mem.patterns.start)
                                  - np.cumsum(np.bincount(size[k0 + mem.patterns.start
                                                               : k0 + mem.patterns.stop],
                                                          minlength=top + 1)[:top])
                                  for mem in members])
                head = int(np.sum(count.sum(axis=0) == k1 - k0))
                tail = tuple((mem.patterns.start, int(c)) for j in range(head, top)
                             for mem, c in zip(members, count[:, j]) if c)
                blocks.append(_Block(slice(k0, k1), cells, self.subj[cells] - k0, head, tail, XT,
                                     slice(k0 - g0, k1 - g0),
                                     slice(cells.start - cells_g.start, cells.stop - cells_g.start),
                                     members))
            reps = blocks[0].members if len(blocks) == 1 else shares
            own = None
            if triples is not None:
                lo, hi = np.searchsorted(triples[0], [g0, g1])
                tp = triples[0][lo:hi] - g0
                own = (tp, triples[1][lo:hi] + n_levels * lprep[tp], triples[2][lo:hi])
            self.blocks += blocks
            self.batches.append(_Batch(
                slice(r0, r1), tuple(reps), tuple(subjects), slice(g0, g1), g1 - g0,
                self.y[cells_g], self.w[cells_g], lsubj, lprep, crep, tuple(blocks), own,
                scratch[: 2 * self.dim * width * self.t.size].reshape(2, self.dim, -1)))

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

    def point(self, beta, sigma2, aux=None) -> _Point:
        """The parameters of a workspace of one dataset."""
        return _Point(self.batches[0], [(beta, sigma2, aux)])

    # ---- conditional modes ------------------------------------------------

    def _subject_sums(self, values, batch=None) -> np.ndarray:
        """Per-pattern sums of per-cell values of a batch, the workspace's
        first by default."""
        batch = self.batches[0] if batch is None else batch
        return np.bincount(batch.subj, values, minlength=batch.P)

    def loglik_score(self, eta0, b, aux, log_aux=None, batch=None):
        """S(b), the conditional-loglik score of each pattern in its b, and
        -S'(b), the sum of w n s r, from the same kernel, which comes third;
        over a batch, the workspace's first by default, whose NB sizes
        `aux` and their logs `log_aux` may be given per cell."""
        batch = self.batches[0] if batch is None else batch
        nodes = self.ops.kernel(batch.y, eta0 + b[batch.subj], aux, log_aux)
        w = batch.w
        return (self._subject_sums(w * nodes.score_eta(), batch),
                self._subject_sums(w * nodes.curvature(), batch), nodes)

    def modes(self, batch: _Batch, at: _Point, b0, live):
        """Safeguarded Newton for the conditional modes of a batch's patterns
        from b0 (zero where None), with the curvatures, once per pattern.
        The patterns of the datasets not `live` stay where they start.

        The mode lies between the start b and sigma2 S(b) (module
        docstring), a bracket that b is always an end of.  A step takes the
        Newton point if it lies in the bracket (at sigma2 ~ 1e-10 the first
        one rounds onto the far end), else the midpoint; a Newton point that
        rounds onto b is replaced by the next float toward the root.  After
        50 steps, midpoints only.  A pattern stops once |score| <= MODE_TOL
        or once its bracket is down to adjacent floats, where the midpoint
        rounds onto an end: the slope of the score times an ulp of the mode
        can exceed MODE_TOL (NB kappa = 1e6 with counts of 1e4 and a mode
        of 14: 4e-10), so no float meets the tolerance.  A dataset whose
        patterns have all stopped is evaluated again at the same b, which
        leaves it there, and its kernel evaluations are counted up to the
        step where it would stop alone.

        The curvature returned is the Fisher information sum w mu' at the
        final b, where the last kernel was evaluated: the summed s r the
        solver already has for the logistic, sum w kappa s for the NB.
        """
        eta0 = np.empty(batch.y.size)
        for rep, beta in zip(batch.reps, at.beta):  # each dataset's X beta as it forms it alone
            eta0[rep.cells] = rep.X @ beta
        b = np.zeros(batch.P) if b0 is None else b0
        aux, log_aux, sigma2 = at.aux_c, at.log_aux_c, at.sigma2_p
        s, curv, nodes = self.loglik_score(eta0, b, aux, log_aux, batch)
        evals = np.array(live, dtype=np.int64)
        score, end = s - b / sigma2, sigma2 * s  # not b + sigma2 score: ulp(b) off if |b| >> |end|
        lo, hi = np.minimum(b, end), np.maximum(b, end)
        held = None if all(live) else ~np.asarray(live)[batch.prep]
        active = np.abs(score) > MODE_TOL
        for step in range(250):
            if held is not None:
                active[held] = False
            nxt = 0.5 * (lo + hi)
            active &= (lo < nxt) & (nxt < hi)  # else the bracket is down to adjacent floats
            if not active.any():
                break
            evals += np.bincount(batch.prep[active], minlength=evals.size) > 0  # still moving
            if step < 50:
                prop = b + score / (curv + 1.0 / sigma2)
                onto = prop == b
                if onto.any():
                    prop[onto] = np.nextafter(b[onto], nxt[onto])  # nxt: the midpoint
                nxt = np.where((lo <= prop) & (prop <= hi), prop, nxt)
            b = np.where(active, nxt, b)
            del nodes  # hold one kernel at a time
            s, curv, nodes = self.loglik_score(eta0, b, aux, log_aux, batch)
            score = s - b / sigma2
            lo = np.where(active & (score > 0), b, lo)
            hi = np.where(active & (score <= 0), b, hi)
            active = np.abs(score) > MODE_TOL

        if aux is not None:
            curv = self._subject_sums(batch.w * (aux * nodes.s), batch)
        curv += 1.0 / sigma2
        self.kernel_evaluations[batch.index] += evals
        return b, curv

    def solve_modes(self, beta, sigma2, aux, b0=None):
        """`modes` of a workspace of one dataset, from per-subject b0 (zero
        by default), returned per subject."""
        b0 = None if b0 is None else np.asarray(b0, float)[self.rep]
        b, curv = self.modes(self.batches[0], self.point(beta, sigma2, aux), b0, _ONE)
        return b[self.pattern], curv[self.pattern]

    # ---- marginal likelihood and scores ---------------------------------

    def gamma_terms(self, aux, split=True, batch=None, log_aux=None):
        """Per-pattern sums over rows of the node-free NB terms at size aux, from
        one gamma_table on the distinct counts: the log-density's log Gamma(y +
        k) - log Gamma(k) - log Gamma(y + 1) - y log k (+ (y + k) log k without
        `split`, see integral_pieces) and the two kappa-score offsets; None for
        the logistic.  Over a batch, `aux` and `log_aux` hold one size and its
        log per dataset."""
        if self.family is not Family.NEGBIN:
            return None
        if batch is None:
            batch, aux, log_aux = self.batches[0], [aux], [math.log(aux)]
        pattern, level, w = batch.triples
        tables = []
        for k, log_k in zip(aux, log_aux):
            lg, dg, tg = gamma_table(self.levels, k)
            lg = lg - self.lgamma_y1
            if not split:
                lg = lg + (self.levels + k) * log_k
            tables.append((lg, dg, tg))
        # one table per dataset, side by side; `level` is offset by the dataset
        return tuple(np.bincount(pattern, w * t[level], minlength=batch.P)
                     for t in map(np.concatenate, zip(*tables)))

    def integral_pieces(self, at: _Point, modes, curv, terms, block: _Block, split=True):
        """Loglik contributions, posterior node weights, node positions and
        the node kernel (cells, nodes) for the patterns of one block, from
        the per-pattern `modes` and `curv` of its batch; `terms` are the
        batch's gamma_terms at `split`.
        The kernel's y and n are w y and w n (n = y + kappa for the NB, 1 for
        the logistic), so its loglik and eta-score carry the cells' row
        counts.

        With `split`, the negative binomial's (y + k) log(k + mu) is written
        as (y + k) (log k + log1p(mu / k)): the eta-dependent part is then
        O(mu) instead of O(k log k), and loglik differences and posterior
        node weights keep their digits as k nears its upper bound 1e6,
        where the unsplit form rounds at ~1e-9 per cell.
        """
        ks, rows = block.local, block.cells
        scale = 1.0 / np.sqrt(curv[ks])
        u = modes[ks, None] + math.sqrt(2.0) * scale[:, None] * self.t[None, :]
        eta = u[block.subj]
        xb = np.empty(eta.shape[0])
        for mem in block.members:  # each dataset's X beta as its lone fit forms it
            xb[mem.cells] = mem.X @ at.beta[mem.rep]
        eta += xb[:, None]
        z = eta if terms is None else eta - _col(at.log_aux_c)
        nodes = Nodes(self.wy[rows, None], z, at.wn[block.rows, None])
        if split or terms is None:
            ll = nodes.loglik(eta)
        else:
            ll = nodes.y * eta - nodes.n * np.logaddexp(_col(at.log_aux_c), eta)
        g = _block_sums(ll, block)
        if terms is not None:
            g += terms[0][ks, None]
        g -= u**2 / (2.0 * _col(at.sigma2_p))
        g += self.logw_t2[None, :]
        top = g.max(axis=1)
        g -= top[:, None]
        omega = np.exp(g, out=g)
        total = omega.sum(axis=1)  # >= 1: the largest term is exp(0)
        omega /= total[:, None]
        ll_i = 0.5 * np.log(2.0 / curv[ks]) + top + np.log(total)
        return ll_i, omega, u, nodes

    @staticmethod
    def _loglik(batch: _Batch, i, ll_i, sigma2) -> float:
        """Dataset i's marginal loglik from its batch's per-pattern terms."""
        rep = batch.reps[i]
        ll = (ll_i[rep.patterns] * rep.m).sum()
        return float(ll - 0.5 * batch.subjects[i].size * math.log(2.0 * math.pi * sigma2))

    def loglik_at(self, theta):
        """The marginal loglik of a workspace of one dataset, with its modes
        and curvatures per subject."""
        at = self.point(*self.unpack(theta))
        batch = self.batches[0]
        modes, curv = self.modes(batch, at, None, _ONE)
        terms = self.gamma_terms(at.aux[0])
        ll_i = [self.integral_pieces(at, modes, curv, terms, blk)[0] for blk in batch.blocks]
        ll = self._loglik(batch, 0, np.concatenate(ll_i), at.sigma2[0])
        return ll, modes[self.pattern], curv[self.pattern]

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
        """`batch_derivatives` of a workspace of one dataset, with modes,
        curvatures and scores per subject."""
        (out,) = self.batch_derivatives(self.batches[0], self.point(*self.unpack(theta)),
                                        modes[self.rep], curv[self.rep], _ONE, hessian, split)
        return out

    def batch_derivatives(self, batch: _Batch, at: _Point, modes, curv, live, hessian, split):
        """For each `live` dataset of a batch (None for the others): its
        per-subject scores d_i, its loglik at `split` and, with `hessian`,
        the observed-information Hessian of the loglik by Louis' identity,
        sum_i E_post[d2 l_c] + E_post[s s'] - d_i d_i', from the
        complete-data scores s and second derivatives d2 l_c at the same
        posterior node weights as the scores (a zero matrix otherwise).
        Each pattern's terms are computed once and weighted by its
        multiplicity.

        One pass per block, over every dataset in it; every sum over a
        dataset's patterns or cells then runs on that dataset's values in
        its lone fit's order.  The complete-data scores are stored (dim,
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
        nb = self.family is Family.NEGBIN
        p, dim = self.p, self.dim
        terms = self.gamma_terms(at.aux, split, batch, at.log_aux) if nb else None
        h_of = {i: np.zeros((dim, dim)) for i, on in enumerate(live) if on}
        rows_d, ll_i = [], []
        for blk in batch.blocks:
            ks, rows, XT = blk.local, blk.cells, blk.XT
            ll_b, omega, u, nodes = self.integral_pieces(at, modes, curv, terms, blk, split)

            # complete-data scores at every node: (dim, patterns, nodes)
            sc = batch.scratch[0, :, : omega.size].reshape((dim,) + omega.shape)
            a = nodes.score_eta()
            for c in range(p):
                _block_sums(a * XT[c, :, None], blk, out=sc[c])
            sigma2 = _col(at.sigma2_p)
            sc[p] = (u**2 - sigma2) / (2.0 * sigma2)
            w, wy = self.w[rows], self.wy[rows]
            if nb:  # w (s - softplus) - w y r / k, the kappa score less its offset
                np.subtract(nodes.s, nodes.softplus, out=a)
                a *= w[:, None]
                a -= (wy / at.aux_c)[:, None] * nodes.r
                _block_sums(a, blk, out=sc[p + 1])
                sc[p + 1] += terms[1][ks, None]
                sc[p + 1] *= _col(at.aux_p)
            del a  # no (cells, nodes) array outlives its block
            d = np.einsum("jkm,km->kj", sc, omega)
            rows_d.append(d)
            ll_i.append(ll_b)
            if hessian:
                m_omega = self.m[blk.patterns][:, None] * omega
                m_omega_rows = m_omega[blk.subj]
                flat = sc.reshape(dim, -1)
                weighted = np.multiply(flat, m_omega.reshape(-1),
                                       out=batch.scratch[1, :, : omega.size])
                sr = np.einsum("cm,cm->c", m_omega_rows, nodes.s * nodes.r)
                wn_sr = nodes.n[:, 0] * sr
                mu2 = m_omega * u**2
                if nb:
                    s2 = np.einsum("cm,cm->c", m_omega_rows, nodes.s * nodes.s)
                    r2 = np.einsum("cm,cm->c", m_omega_rows, nodes.r * nodes.r)
                    cross = wy * sr - at.aux_c * (w * s2)
                for mem in blk.members:
                    if not live[mem.rep]:
                        continue
                    h, pk, ck = h_of[mem.rep], mem.patterns, mem.cells
                    d_r, cols = d[pk], slice(pk.start * omega.shape[1], pk.stop * omega.shape[1])
                    h += weighted[:, cols] @ flat[:, cols].T - (mem.m[:, None] * d_r).T @ d_r
                    h[:p, :p] -= (mem.XT * wn_sr[ck]) @ mem.XT.T
                    h[p, p] -= np.sum(mu2[pk]) / (2.0 * at.sigma2[mem.rep])
                    if nb:
                        h[:p, p + 1] += mem.XT @ cross[ck]
                        h[p + 1, p + 1] += ((mem.m * d_r[:, p + 1]).sum()
                                            + at.aux[mem.rep] * (w[ck] @ s2[ck]) + wy[ck] @ r2[ck])
            del nodes
        d, ll_i = np.concatenate(rows_d), np.concatenate(ll_i)
        out = [None] * len(batch.reps)
        for i, h in h_of.items():
            rep, aux = batch.reps[i], at.aux[i]
            if hessian and nb:
                h[p + 1, p + 1] += aux * aux * (rep.m @ terms[2][rep.patterns])
                h[p + 1:, :p] = h[:p, p + 1:].T
            out[i] = (d[batch.subjects[i]], self._loglik(batch, i, ll_i, at.sigma2[i]), h)
        self.passes[batch.index] += live
        return out


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
        return float(np.sum(family_ops(spec.family).loglik(dataset.y, eta, aux)))
    ws = _Workspace(dataset, spec.family, gh_nodes)
    theta = ws.pack(params.beta, params.sigma2, params.kappa)
    ll, _, _ = ws.loglik_at(theta)
    if not np.isfinite(ll):
        raise FloatingPointError("marginal log-likelihood is non-finite at these parameters")
    return ll


def _solve_or_none(a, b):
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None


def _irls_starts(ws: _Workspace, batch: _Batch, datasets) -> list:
    """Fixed-effects GLM start values (logistic IRLS; Poisson IRLS for NB)
    of each dataset of a batch, over its cells with their mean responses,
    each weighted by its row count times its pattern's subject count.

    One 8-iteration loop serves the batch: the elementwise work runs once
    over the cells of every dataset, laid dataset by dataset; each dataset's
    X beta, X'WX and X'Wz are formed as its lone loop forms them; one stacked
    solve serves every dataset still iterating.  A dataset whose solve is
    singular or non-finite stops alone, and a non-finite start is zero."""
    reps, p = batch.reps, ws.p
    bounds = np.cumsum([0] + [rep.X.shape[0] for rep in reps]).tolist()
    own = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
    y = np.concatenate([batch.y[rep.cells] for rep in reps])
    w = batch.w * ws.m[batch.patterns][batch.subj]
    w = np.concatenate([w[rep.cells] for rep in reps])
    eta = np.empty(y.size)
    nb = ws.family is Family.NEGBIN
    betas = [np.zeros(p) for _ in reps]
    if nb:
        for beta, ds in zip(betas, datasets):
            beta[0] = math.log(max(float(np.mean(ds.y)), 0.05))
    live = list(range(len(reps)))
    for _ in range(8):
        for i in live:
            eta[own[i]] = reps[i].X @ betas[i]
        np.clip(eta, -30, 30, out=eta)
        if nb:
            mu = np.exp(eta)
            wt = np.clip(mu, 1e-6, None)
        else:
            mu = 1.0 / (1.0 + np.exp(-eta))
            wt = np.clip(mu * (1.0 - mu), 1e-6, None)
        z = eta + (y - mu) / wt
        wt *= w
        lhs, rhs = np.empty((len(live), p, p)), np.empty((len(live), p, 1))
        for j, i in enumerate(live):
            xtw = reps[i].X.T * wt[own[i]]
            lhs[j], rhs[j, :, 0] = xtw @ reps[i].X, xtw @ z[own[i]]
        try:
            steps = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:  # one is singular: each alone
            steps = [_solve_or_none(a, b) for a, b in zip(lhs, rhs)]
        moving = []
        for i, step in zip(live, steps):
            if step is not None and np.all(np.isfinite(step)):
                betas[i] = step[:, 0]
                moving.append(i)
        live = moving
        if not live:
            break
    return [beta if np.all(np.isfinite(beta)) else np.zeros(p) for beta in betas]


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
    quadrature error away from the quadrature loglik's maximum.

    A generator: it yields (theta, warm modes, None) for each point it
    needs, warm modes None for a solve from zero, and is sent the modes,
    curvatures, scores d, loglik and Hessian there (see `_fit_batch`).  It
    returns the last accepted iterate with its scores d, the iterations and
    the trials.
    """
    p, v = ws.p, slice(ws.p, None)
    theta = _snap(theta, lb, ub)
    modes, curv, d, ll, h = yield theta, None, None
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
            modes_t, curv_t, d_t, ll_t, h_t = yield trial, modes, None
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


def _replication(ws: _Workspace, batch: _Batch, i: int, dataset: Dataset, beta0,
                 spec: ModelSpec, config: FitConfig, lb, ub):
    """The fit of dataset i of a batch from its start beta0, a generator as
    `_newton` is: the Newton loop, the NB's closing request for its
    covariance scores, for which it yields (theta, modes, curvatures) and is
    sent d and the loglik, and the FittedModel it returns."""
    rep = batch.reps[i]
    kappa0 = _kappa_moment_init(dataset.y) if spec.family is Family.NEGBIN else None
    # (subject, covariate row) cells of all subjects
    n_cells = int(ws.m[batch.patterns][batch.subj][rep.cells].sum())
    theta = np.clip(ws.pack(beta0, 0.1, kappa0), lb, ub)
    iterations, optimizer_used = 0, "newton"
    if config.optimizer == "quasi_newton":  # a workspace of this dataset alone (fit_batch)
        theta, iterations = _lbfgs(ws, theta, lb, ub)
        optimizer_used = "quasi_newton+newton"
    theta, ll, modes, curv, d, score_norm, extra, trials = yield from _newton(ws, theta, lb, ub)
    iterations += extra
    converged = score_norm <= SCORE_TOL

    if spec.family is Family.NEGBIN:
        d, _ = yield theta, modes, curv
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

    modes, curv = modes[batch.subjects[i]], curv[batch.subjects[i]]
    modes.setflags(write=False)
    curv.setflags(write=False)
    r = batch.index.start + i
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
            "rows": dataset.n_obs,
            "quadrature_cells": n_cells,
            "subject_patterns": rep.m.size,
            "line_search_trials": trials, "quadrature_passes": int(ws.passes[r]),
            "mode_kernel_evaluations": int(ws.kernel_evaluations[r]),
        },
    )


def _evaluate(ws: _Workspace, batch: _Batch, asked: dict, closing: bool) -> dict:
    """One round of a batch: the requests of `asked`, {i: (theta, modes,
    curvatures)} by dataset, all of one kind.  A Newton round solves each
    asking dataset's modes from its modes (zero where None) and makes a full
    pass there; a closing round makes the unsplit pass without Hessian at
    the given modes and curvatures, the NB's covariance scores.  The
    datasets not asking are evaluated at a fixed point, and nothing of
    theirs is summed, counted or returned."""
    n = len(batch.reps)
    idle = (np.zeros(ws.p), 1.0, 1.0 if ws.family is Family.NEGBIN else None)  # not asking
    at = _Point(batch, [ws.unpack(asked[i][0]) if i in asked else idle for i in range(n)])
    live = [i in asked for i in range(n)]
    modes, curv = np.zeros(batch.P), np.ones(batch.P)
    for i, (_, b, c) in asked.items():
        pk = batch.reps[i].patterns
        if b is not None:
            modes[pk] = b[pk]
        if closing:
            curv[pk] = c[pk]
    if not closing:
        modes, curv = ws.modes(batch, at, modes, live)
    out = ws.batch_derivatives(batch, at, modes, curv, live, not closing, not closing)
    return {i: out[i][:2] if closing else (modes, curv, *out[i]) for i in asked}


def _fit_batch(ws: _Workspace, batch: _Batch, datasets, spec: ModelSpec, config: FitConfig):
    """Fits the datasets of one batch in lockstep, one `_replication`
    generator each, after one `_irls_starts` for all: every round serves
    the Newton requests of the running generators with one `_evaluate`.
    The NB's closing requests wait until no Newton request is left, and one
    closing round serves them all.  Returns a FittedModel per dataset, or
    the exception its generator raised; an exception in the start or a
    shared evaluation propagates."""
    lb, ub = ws.bounds()
    gens = [_replication(ws, batch, i, ds, beta0, spec, config, lb, ub)
            for i, (ds, beta0) in enumerate(zip(datasets, _irls_starts(ws, batch, datasets)))]
    out = [None] * len(gens)

    def resume(i, reply):
        try:
            return gens[i].send(reply)
        except StopIteration as stop:
            out[i] = stop.value
        except Exception as exc:  # this dataset's fit fails alone
            out[i] = exc
        return None

    asked = {i: resume(i, None) for i in range(len(gens))}
    while asked := {i: rq for i, rq in asked.items() if rq is not None}:
        newton = {i: rq for i, rq in asked.items() if rq[2] is None}
        replies = _evaluate(ws, batch, newton or asked, not newton)
        asked.update((i, resume(i, reply)) for i, reply in replies.items())
    return out


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
    (result,) = _fit_batch(ws, ws.batches[0], [dataset], spec, config)
    if isinstance(result, Exception):
        raise result
    return result


def _fit_alone(dataset: Dataset, spec: ModelSpec, config: FitConfig):
    try:
        return fit(dataset, spec, config)
    except Exception as exc:
        return exc


def fit_batch(datasets, spec: ModelSpec, config: FitConfig | None = None) -> list:
    """`fit` of each dataset, in lockstep batches: per dataset its
    FittedModel, bit for bit the one `fit` returns, or the exception `fit`
    raises on it.

    One workspace holds the datasets and splits them into batches (see
    _Workspace); a caller bounds its memory by the datasets it passes.  A
    batch whose shared start or evaluation raises is refitted one dataset at
    a time, and so is every dataset under the quasi-Newton optimizer, whose
    L-BFGS stage runs on one dataset.
    """
    config = config or FitConfig()
    if config.optimizer != "newton":
        return [_fit_alone(ds, spec, config) for ds in datasets]
    try:
        ws = _Workspace(datasets, spec.family, config.gh_nodes)
    except Exception:
        return [_fit_alone(ds, spec, config) for ds in datasets]
    out = []
    for batch in ws.batches:
        members = datasets[batch.index]
        try:
            out += _fit_batch(ws, batch, members, spec, config)
        except Exception:
            out += [_fit_alone(ds, spec, config) for ds in members]
    return out


def subject_scores(fitted: FittedModel) -> np.ndarray:
    """Per-subject scores d_i at psi_hat on the (beta, log sigma2[, log kappa]) scale."""
    ws = _Workspace(fitted.dataset, fitted.spec.family, fitted.config.gh_nodes)
    theta = ws.pack(fitted.params.beta, fitted.params.sigma2, fitted.params.kappa)
    d, _ = ws.score_matrix(theta, np.array(fitted.cond_modes), np.array(fitted.cond_curvatures))
    return d

"""Shared builders for the test suite."""

from __future__ import annotations

import csv
import math
import operator

import numpy as np
import pytest
from hypothesis import settings

from glmm_means import Dataset, Family, FitConfig, ModelSpec, SubjectBlock, factorize_structure, fit
from glmm_means.conditional import build_prediction_structure
from glmm_means.families import family_ops, gamma_sums
from glmm_means.fitter import FittedModel, _Workspace
from glmm_means.io import ColumnMapping, InputError, _group_labels, _parse_cell
from glmm_means.model import ParamVector
from glmm_means.quadrature import ZEGER_COEF, zeger_attenuation, zeger_mean
from glmm_means.simulate import SimGroupSummary

# Property tests replay the same examples on every run and never time out,
# so the suite stays deterministic and its runtime bounded.
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("deterministic")


class _Gaussian:
    """Identity-link Gaussian kernels with unit dispersion, for the oracles.

    Setting `ws.ops = GAUSSIAN_OPS` on a logistic `_Workspace` drives its
    mode solver with them, which can then be checked against closed-form
    linear-mixed-model results, where the Laplace approximation is exact;
    the solver takes the Fisher curvature from `curvature`, as for the
    logistic.  Only the mode solver's kernels are here: they are affine in
    y, as the workspace's cells need, while the Gaussian log-density is not
    (a y^2 term).
    """

    class _Nodes:
        def __init__(self, y, eta):
            self.y, self.eta = y, eta

        def score_eta(self):
            return self.y - self.eta

        def curvature(self):
            return np.ones_like(self.eta)

    @staticmethod
    def kernel(y, eta, aux=None):
        return _Gaussian._Nodes(y, np.asarray(eta, dtype=float))


GAUSSIAN_OPS = _Gaussian()


def score_kappa(nodes, offset):
    """d l / d kappa = offset - log1p(mu / k) + (mu - y) / (k + mu), with
    `offset` = gamma_sums(y, k, 1): terms of O(y / k) whose O(1 / k^2)
    sum keeps its digits at large k; from a negative-binomial `Nodes`."""
    return offset - nodes.softplus + nodes.s - nodes.y * nodes.r / nodes.kappa


def dscore_eta_kappa(nodes):
    """d score_eta / d kappa = mu (y - mu) / (mu + k)^2 = (s r y - k s^2) / k."""
    return (nodes.s * nodes.r * nodes.y - nodes.kappa * nodes.s * nodes.s) / nodes.kappa


def dscore_kappa(nodes, offset):
    """d score_kappa / d kappa = offset + 1/k - 2/(k + mu) + (y + k)/(k + mu)^2,
    `offset` = gamma_sums(y, k, 2), as offset + s^2/k + y r^2/k^2."""
    k = nodes.kappa
    return offset + nodes.s * nodes.s / k + nodes.y * nodes.r * nodes.r / (k * k)


def read_dataset_by_rows(path: str, mapping: ColumnMapping) -> Dataset:
    """The oracle for `glmm_means.io.read_dataset`: the same file read and
    checked one record at a time, each fault raised as it is met."""
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc.strerror or exc}") from None

    with fh:
        reader = csv.reader(fh)
        try:
            subject_ids, yx, labels = _read_rows(path, reader, mapping)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    return Dataset.from_rows(subject_ids, yx[:, 0], yx[:, 1:], labels)


def _read_rows(path, reader, mapping: ColumnMapping):
    """Subject ids, the (y, 1, covariates...) row matrix and group labels of the data records."""
    header = next(reader, None)
    if header is None:
        raise InputError(f"{path}: file is empty (no header row)")
    needed = [mapping.subject, mapping.response, *mapping.covariates, *mapping.group_by]
    missing = [c for c in needed if c not in header]
    if missing:
        raise InputError(f"{path}: missing column(s) {', '.join(repr(c) for c in missing)}")
    repeated = [c for c in dict.fromkeys(needed) if header.count(c) > 1]
    if repeated:
        names = ", ".join(repr(c) for c in repeated)
        raise InputError(f"{path}: column(s) {names} appear more than once in the header")
    col = {c: header.index(c) for c in needed}
    width = max(col.values()) + 1
    numeric = [(c, col[c]) for c in (mapping.response, *mapping.covariates)]
    grouping = [(c, col[c]) for c in mapping.group_by]

    subject_ids, values, keys = [], [], []
    pick = operator.itemgetter(*(j for _, j in grouping)) if grouping else None
    for i, row in enumerate(filter(None, reader), start=2):
        if len(row) < width:
            last = header[width - 1]
            raise InputError(f"row {i}: {len(row)} cells, but column {last!r} is cell {width}")
        sid = row[col[mapping.subject]]
        if sid == "":
            raise InputError(f"row {i}, column {mapping.subject!r}: empty subject id")
        y, *x = (_parse_cell(row[j], i, c) for c, j in numeric)
        values.append([y, 1.0, *x])
        keys.append(pick(row) if pick else None)
        subject_ids.append(sid)
    if not subject_ids:
        raise InputError(f"{path}: file has a header but no data rows")
    return subject_ids, np.array(values), _group_labels([c for c, _ in grouping], keys)


def toy_dataset(family, K=12, n=3, sigma=0.4, seed=5, kappa=8.0, beta=(0.2, -0.6)):
    """Small two-covariate dataset with alternating group labels."""
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, float)
    subjects = []
    for i in range(K):
        x = np.column_stack([np.ones(n), rng.uniform(-1.0, 1.0, size=n)])
        b = rng.normal(0.0, sigma)
        eta = x @ beta + b
        if family is Family.LOGISTIC:
            y = rng.binomial(1, 1.0 / (1.0 + np.exp(-eta))).astype(float)
        else:
            mu = np.exp(eta)
            y = rng.negative_binomial(kappa, kappa / (kappa + mu)).astype(float)
        groups = tuple("g0" if j % 2 == 0 else "g1" for j in range(n))
        subjects.append(SubjectBlock(subject_id=f"s{i}", y=y, X=x, groups=groups))
    return Dataset(subjects)


def conditional_mode(subject: SubjectBlock, params: ParamVector) -> tuple[float, float]:
    """Mode of one subject's conditional density in b, and the curvature there.

    Returns (b_hat, J'WJ + 1/sigma2) with W the iterative weights at b_hat.
    kappa present in `params` means negative binomial, absent means logistic.
    """
    if params.sigma2 == 0.0:
        return 0.0, math.inf
    family = Family.NEGBIN if params.kappa is not None else Family.LOGISTIC
    ws = _Workspace(Dataset([subject]), family, 1)
    modes, curv = ws.solve_modes(np.asarray(params.beta, float), params.sigma2, params.kappa)
    return float(modes[0]), float(curv[0])


def representative_rows(ws: _Workspace, dataset: Dataset):
    """Every row of the patterns' first subjects, taken from the dataset, not
    from the workspace: its response, its weight, its pattern and its cell,
    the stored cell of that pattern with that covariate row."""
    subj = dataset.subject_index
    kept = ws.rep[ws.pattern[subj]] == subj
    pattern = ws.pattern[subj[kept]]
    stored = {(int(k), x.tobytes()): c for c, (k, x) in enumerate(zip(ws.subj, ws.X))}
    cell = np.array([stored[int(k), x.tobytes()] for k, x in zip(pattern, dataset.X[kept])])
    return dataset.y[kept], dataset.weights[kept], pattern, cell


def per_row_cell_mean(ws: _Workspace, dataset: Dataset, f) -> np.ndarray:
    """The per-cell w-weighted mean of f evaluated on every row of the
    patterns' first subjects: how the workspace once averaged the NB terms
    nonlinear in y."""
    y, w, _, cell = representative_rows(ws, dataset)
    return np.bincount(cell, w * f(y)) / ws.w


def per_row_pattern_sums(ws: _Workspace, dataset: Dataset, f) -> np.ndarray:
    """The oracle for `_Workspace.gamma_terms`: per pattern, the correctly
    rounded sum of w f(y) over its first subject's rows, f evaluated row by
    row."""
    y, w, pattern, _ = representative_rows(ws, dataset)
    terms = w * f(y)
    return np.array([math.fsum(terms[pattern == k]) for k in range(ws.P)])


def per_cell_derivatives(ws: _Workspace, dataset: Dataset, theta, modes, curv, hessian=True,
                         split=True):
    """The oracle for `_Workspace.derivatives`: the per-cell pass it
    replaced.  Each cell's kernel takes the cell's mean response, its weight
    multiplies every term, the NB terms nonlinear in y enter each cell as
    w-weighted means over its rows (per_row_cell_mean), the kappa terms come
    from `families.Nodes`, and every per-pattern sum is an `np.add.at` in
    cell order.  Returns d_i per subject, the loglik and the Hessian."""
    from scipy.special import logsumexp

    beta, sigma2, aux = ws.unpack(theta)
    nb = ws.family is Family.NEGBIN
    p, dim = ws.p, ws.dim
    terms = None
    if nb:
        unsplit = 0.0 if split else math.log(aux)
        terms = [per_row_cell_mean(ws, dataset, f) for f in (
            lambda y: gamma_sums(y, aux, 0) - gamma_sums(y, 1.0, 0) + (y + aux) * unsplit,
            lambda y: gamma_sums(y, aux, 1), lambda y: gamma_sums(y, aux, 2))]
    rows_d, ll_i = [], []
    h = np.zeros((dim, dim))
    for blk in ws.blocks:
        ks, rows = blk.patterns, blk.cells

        def sums(values):
            out = np.zeros((ks.stop - ks.start,) + values.shape[1:])
            np.add.at(out, blk.subj, values)
            return out

        reps = ws.rep[ks]
        u = modes[reps, None] + math.sqrt(2.0) / np.sqrt(curv[reps])[:, None] * ws.t[None, :]
        eta = (ws.X[rows] @ beta)[:, None] + u[blk.subj]
        nodes = ws.ops.kernel(ws.y[rows, None], eta, aux)
        w, X = ws.w[rows], ws.X[rows]
        ll = (nodes.loglik(eta) if split or not nb
              else nodes.y * eta - nodes.n * np.logaddexp(math.log(aux), eta))
        g = sums(ll * w[:, None])
        if nb:
            g += sums(w * terms[0][rows])[:, None]
        g += ws.logw_t2[None, :] - u**2 / (2.0 * sigma2)
        lse = logsumexp(g, axis=1)
        ll_i.append(0.5 * np.log(2.0 / curv[reps]) + lse)
        omega = np.exp(g - lse[:, None])

        s = np.empty(omega.shape + (dim,))  # (patterns, nodes, dim)
        a = w[:, None] * nodes.score_eta()
        for c in range(p):
            s[:, :, c] = sums(a * X[:, c, None])
        s[:, :, p] = (u**2 - sigma2) / (2.0 * sigma2)
        if nb:
            s[:, :, p + 1] = aux * sums(w[:, None] * score_kappa(nodes, terms[1][rows, None]))
        d = np.einsum("km,kmj->kj", omega, s)
        rows_d.append(d)
        if hessian:
            m = ws.m[ks]
            m_omega = m[:, None] * omega
            m_omega_rows = m_omega[blk.subj]
            h += ((s * m_omega[:, :, None]).reshape(-1, dim).T @ s.reshape(-1, dim)
                  - (m[:, None] * d).T @ d)
            r = w * np.sum(m_omega_rows * nodes.curvature(), axis=1)
            h[:p, :p] -= (X * r[:, None]).T @ X
            h[p, p] -= np.sum(m_omega * u**2) / (2.0 * sigma2)
            if nb:  # log kappa: d/dlog k = k d/dk, d2/dlog k2 = k d/dk + k^2 d2/dk2
                cross = np.sum(m_omega_rows * dscore_eta_kappa(nodes), axis=1)
                h[:p, p + 1] += aux * (X.T @ (w * cross))
                curv_k = np.sum(m_omega_rows * dscore_kappa(nodes, terms[2][rows, None]), axis=1)
                h[p + 1, p + 1] += (m * d[:, p + 1]).sum() + aux * aux * np.sum(w * curv_k)
    h[p + 1:, :p] = h[:p, p + 1:].T
    ll = (np.concatenate(ll_i) * ws.m).sum() - 0.5 * ws.K * math.log(2.0 * math.pi * sigma2)
    return np.vstack(rows_d)[ws.pattern], float(ll), h


def posterior_mean_effects(fitted: FittedModel) -> np.ndarray:
    """Exact conditional means E(b_i | y_i) by quadrature, the oracle for
    the conditional modes the predictor uses."""
    ws = _Workspace(fitted.dataset, fitted.spec.family, fitted.config.gh_nodes)
    if fitted.params.sigma2 == 0.0:
        return np.zeros(ws.K)
    beta, sigma2, aux = fitted.params.beta, fitted.params.sigma2, fitted.params.kappa
    modes, curv = np.array(fitted.cond_modes), np.array(fitted.cond_curvatures)
    operands = ws.operands(np.asarray(beta, float), aux)
    means = []
    for blk in ws.blocks:
        _, omega, u, _ = ws.integral_pieces(sigma2, aux, modes, curv, operands, blk)
        means.append(np.sum(omega * u, axis=1))
    return np.concatenate(means)[ws.pattern]  # one entry per pattern, expanded per subject


def manual_fitted(dataset, family, beta, sigma2, kappa=None, cov=None, gh_nodes=25):
    """FittedModel at hand-picked parameters, with modes solved consistently."""
    spec = ModelSpec(family=family, p=len(beta))
    ws = _Workspace(dataset, family, gh_nodes)
    beta = np.asarray(beta, float)
    if sigma2 == 0.0:
        modes = np.zeros(dataset.n_subjects)
        curv = np.full(dataset.n_subjects, np.inf)
    else:
        modes, curv = ws.solve_modes(beta, sigma2, kappa)
    dim = len(beta) + 1 + (1 if family is Family.NEGBIN else 0)
    cov = np.zeros((dim, dim)) if cov is None else np.asarray(cov, float)
    return FittedModel(
        dataset=dataset,
        spec=spec,
        config=FitConfig(gh_nodes=gh_nodes),
        params=ParamVector(beta=beta, sigma2=sigma2, kappa=kappa),
        cov_psi=cov,
        cond_modes=modes,
        cond_curvatures=curv,
        loglik=float("nan"),
        converged=True,
        iterations=0,
        optimizer_used="manual",
        score_norm=0.0,
    )


# ---- per-group oracles ---------------------------------------------------------
#
# The estimators one group at a time, each from its own rows: how
# `marginal_estimates` and `conditional_estimates` computed them before they
# served every group from one pass over the rows.


def plugin_gradients(fitted: FittedModel, rows: np.ndarray) -> np.ndarray:
    """Gradients of mu_hat (logistic) or nu_hat = log mu_hat (NB) over (beta, sigma2)."""
    rows = np.atleast_2d(np.asarray(rows, float))
    eta0 = rows @ fitted.params.beta
    if fitted.spec.family is Family.LOGISTIC:
        c = zeger_attenuation(fitted.params.sigma2)
        q = zeger_mean(eta0, fitted.params.sigma2)
        q = q * (1.0 - q)
        return np.hstack([(q * c)[:, None] * rows, (-0.5 * ZEGER_COEF * c**3 * eta0 * q)[:, None]])
    return np.hstack([rows, np.full((rows.shape[0], 1), 0.5)])


def _plugin_mean(fitted: FittedModel, eta0):
    if fitted.spec.family is Family.LOGISTIC:
        return zeger_mean(eta0, fitted.params.sigma2)
    return np.exp(eta0 + fitted.params.sigma2 / 2.0)


def marginal_group_mean(fitted: FittedModel, group_id: str) -> float:
    """mu_hat_q: the average of the per-observation plug-in means in the group."""
    rows = fitted.dataset.X[fitted.dataset.group_index.rows(group_id)]
    return float(np.mean(_plugin_mean(fitted, rows @ fitted.params.beta)))


def marginal_group_variance(fitted: FittedModel, group_id: str) -> float:
    """Delta-method variance of mu_hat_q, unclamped: the logistic quadratic
    form of the averaged gradient, or the NB lognormal-sum pair sum over the
    group's distinct rows weighted by their counts."""
    rows = fitted.dataset.X[fitted.dataset.group_index.rows(group_id)]
    cov = fitted.cov_beta_sigma2
    n = rows.shape[0]
    if fitted.spec.family is Family.LOGISTIC:
        gbar = plugin_gradients(fitted, rows).mean(axis=0)
        return float(gbar @ cov @ gbar)
    rows, counts = np.unique(rows, axis=0, return_counts=True)
    grads = plugin_gradients(fitted, rows)
    nu = rows @ fitted.params.beta + fitted.params.sigma2 / 2.0
    gcov = grads @ cov
    amp = counts * np.exp(nu + 0.5 * np.einsum("ij,ij->i", gcov, grads))
    return float(amp @ np.expm1(gcov @ grads.T) @ amp) / (n * n)


def mean_at_mean_covariate(fitted: FittedModel, group_id: str) -> float:
    """mu*_q: the plug-in mean at the group-average covariate row."""
    rows = fitted.dataset.X[fitted.dataset.group_index.rows(group_id)]
    return float(_plugin_mean(fitted, rows.mean(axis=0) @ fitted.params.beta))


def mu_hat_variance(fitted: FittedModel, x) -> float:
    """Delta-method variance of the single-row plug-in mean mu_hat_i."""
    x = np.asarray(x, float)
    g = plugin_gradients(fitted, x)[0]
    var = float(g @ fitted.cov_beta_sigma2 @ g)
    if fitted.spec.family is Family.NEGBIN:
        var *= float(_plugin_mean(fitted, x @ fitted.params.beta)) ** 2  # g is of nu = log mu
    return max(var, 0.0)


def _group_eta(fitted: FittedModel, group_id: str, x=None):
    """The group's rows and their predicted etas, at covariate rows x (theirs by default)."""
    ds = fitted.dataset
    rows = ds.group_index.rows(group_id)
    x = ds.X[rows] if x is None else x
    return rows, x @ fitted.params.beta + fitted.cond_modes[ds.subject_index[rows]]


def conditional_group_mean(fitted: FittedModel, group_id: str) -> float:
    """lambda_hat_q: group average of the inverse link at the predicted eta."""
    _, eta = _group_eta(fitted, group_id)
    return float(np.mean(family_ops(fitted.spec.family).inverse_link(eta)))


def predictor_at_mean_covariate(fitted: FittedModel, group_id: str) -> float:
    """lambda*_q: the same average with the group-average covariate row."""
    xbar = fitted.dataset.X[fitted.dataset.group_index.rows(group_id)].mean(axis=0)
    _, eta = _group_eta(fitted, group_id, xbar)
    return float(np.mean(family_ops(fitted.spec.family).inverse_link(eta)))


def conditional_group_variance(fitted: FittedModel, group_id: str) -> float:
    """a'M^{-1}a / N_q^2 of one group, with s = Z_q'd a length-K bincount and
    r = X_q'd - B'D^{-1}s, through the fit's arrowhead factorization."""
    ds = fitted.dataset
    fac = factorize_structure(build_prediction_structure(fitted))
    rows, eta = _group_eta(fitted, group_id)
    d = family_ops(fitted.spec.family).dinverse_link(eta)
    s = np.bincount(ds.subject_index[rows], weights=d, minlength=ds.n_subjects)
    dinv_s = fac.dinv * s
    r = ds.X[rows].T @ d - fac.b.T @ dinv_s
    return float(np.sum(np.linalg.solve(fac.chol, r) ** 2) + s @ dinv_s) / rows.size**2


def study_group_summary(gid: str, kind: str, cell: tuple, recs: list, prefix: str, target):
    """The oracle for `simulate._summaries`: bias and coverage of one group's
    `prefix` ("mu" or "lam") estimates, from 1-d arrays over its records.

    `target` is what each replication is scored against: the fixed truth,
    or one realized value per replication; the reported truth is its mean.
    """
    u, t, n_obs = cell
    truth = float(np.mean(target))
    target = np.broadcast_to(target, len(recs))
    ybar = np.array([r["ybar"] for r in recs]) - target
    star = np.array([r[f"{prefix}_star"] for r in recs]) - target
    est = np.array([r[f"{prefix}_point"] for r in recs]) - target
    intervals = [r[f"{prefix}_intervals"] for r in recs]
    return SimGroupSummary(
        group_id=gid, kind=kind, u=u, t=t, n_obs=n_obs, truth=truth,
        ybar_bias_mean=float(np.mean(ybar)), ybar_bias_sd=float(np.std(ybar)),
        star_bias_mean=float(np.mean(star)), star_bias_sd=float(np.std(star)),
        est_bias_mean=float(np.mean(est)), est_bias_sd=float(np.std(est)),
        coverage={
            lab: float(np.mean([iv[lab][0] <= tg <= iv[lab][1] for iv, tg in zip(intervals, target)]))
            for lab in intervals[0]
        },
    )


@pytest.fixture(scope="session")
def logistic_toy_fit():
    ds = toy_dataset(Family.LOGISTIC, K=40, n=3, sigma=0.5, seed=11)
    return fit(ds, ModelSpec(family=Family.LOGISTIC, p=2), FitConfig())


@pytest.fixture(scope="session")
def time_study_r200():
    """Time-design logistic study shared by the slower Monte Carlo checks."""
    import glmm_means as gm

    design = gm.logistic_design(control="time", replications=200, seed=424)
    return design, gm.run_study(design, return_records=True)


@pytest.fixture(scope="session")
def negbin_toy_fit():
    ds = toy_dataset(Family.NEGBIN, K=40, n=3, sigma=0.3, seed=12, beta=(0.4, 0.5))
    return fit(ds, ModelSpec(family=Family.NEGBIN, p=2), FitConfig())

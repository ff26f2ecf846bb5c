"""Shared builders for the test suite."""

from __future__ import annotations

import csv
import math
import operator

import numpy as np
import pytest
from hypothesis import settings

from glmm_means import Dataset, Family, FitConfig, ModelSpec, SubjectBlock, fit
from glmm_means.fitter import FittedModel, _Workspace
from glmm_means.io import ColumnMapping, InputError, _group_labels, _parse_cell
from glmm_means.model import ParamVector

# Property tests replay the same examples on every run and never time out,
# so the suite stays deterministic and its runtime bounded.
settings.register_profile(
    "deterministic", derandomize=True, deadline=None, max_examples=40, database=None
)
settings.load_profile("deterministic")


class _Gaussian:
    """Identity-link Gaussian kernels with unit dispersion, for the oracles.

    Setting `ws.ops = GAUSSIAN_OPS` on a `_Workspace` drives its mode
    solver with them, which can then be checked against closed-form
    linear-mixed-model results, where the Laplace approximation is exact.
    Only the mode solver's kernels are here: they are affine in y, as the
    workspace's cells need, while the Gaussian log-density is not (a y^2
    term).
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

    @staticmethod
    def fisher_weight(eta, aux=None):
        return np.ones_like(np.asarray(eta, dtype=float))


GAUSSIAN_OPS = _Gaussian()


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


def per_row_cell_mean(ws: _Workspace, dataset: Dataset, f) -> np.ndarray:
    """The oracle for `_Workspace.cell_mean`: the per-cell w-weighted mean
    of f evaluated on every row of the patterns' first subjects, the rows
    taken from the dataset, not from the workspace."""
    subj = dataset.subject_index
    y_rows = dataset.y[ws.rep[ws.pattern[subj]] == subj]
    return np.bincount(ws.cell, ws.w_rows * f(y_rows)) / ws.w


def posterior_mean_effects(fitted: FittedModel) -> np.ndarray:
    """Exact conditional means E(b_i | y_i) by quadrature, the oracle for
    the conditional modes the predictor uses."""
    ws = _Workspace(fitted.dataset, fitted.spec.family, fitted.config.gh_nodes)
    if fitted.params.sigma2 == 0.0:
        return np.zeros(ws.K)
    beta, sigma2, aux = fitted.params.beta, fitted.params.sigma2, fitted.params.kappa
    modes, curv = np.array(fitted.cond_modes), np.array(fitted.cond_curvatures)
    terms = ws.gamma_terms(aux)
    means = []
    for blk in ws.blocks:
        _, omega, u, _ = ws.integral_pieces(beta, sigma2, aux, modes, curv, terms, blk)
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

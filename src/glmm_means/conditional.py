"""Conditional group means, the arrowhead prediction variance, and PIs.

The predictor plugs each subject's conditional mode into the linear
predictor.  Its covariance comes from Henderson's mixed-model equations

    M = [[X'WX, B'], [B, D]],   C_q = (X_q; Z_q)' M^{-1} (X_q; Z_q)

with W the diagonal iterative weights at the conditional modes,
B = Z'WX (K x p) and D = diag(Z'WZ) + I / sigma2.  D is diagonal, so it is
eliminated by hand: only B, D^{-1} = sigma2 / (1 + sigma2 diag(Z'WZ)) and
one Cholesky factor L of the p x p Schur complement S = X'WX - B'D^{-1}B
are kept, and every solve costs O(K p + p^2).  Building them costs
O(N p + K p^2 + p^3) time and O(N + K p) memory.  At sigma2 = 0 this D^{-1}
is exactly zero, the sigma2 -> 0 limit of M^{-1}: predictions carry
fixed-effect uncertainty only.  A group mean's delta-method variance is
a'M^{-1}a / N_q^2, with a = (X_q'd; Z_q'd) and d the inverse-link
derivatives at the group's predicted etas; with s = Z_q'd it is the sum of
squares |L^{-1} (X_q'd - B'D^{-1}s)|^2 + s'D^{-1}s, with no threshold and
no clamp.  This is exact on an identity-link Gaussian model and
Laplace-approximate for the binary and count families.  The dense (p+K)^2
system and the naive-plus-correction decomposition are test oracles.

`conditional_estimates` serves every group from one pass: the predicted
eta, its inverse link and derivative once per row, summed by group over
`Dataset.group_codes`, and every group's a'M^{-1}a from one batched
triangular solve (`_Factorization.variances`) in O(N + K p) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import Family, family_ops
from .fitter import FittedModel, cholesky
from .marginal import GroupMeanEstimate, MeanKind, group_intervals
from .model import code_sums


@dataclass(frozen=True, eq=False)
class PredictionStructure:
    """Design pieces of the prediction system for one fitted model."""

    X: np.ndarray            # (N, p) fixed design
    subject_index: np.ndarray  # (N,) row -> subject column of Z
    weights: np.ndarray      # (N,) diagonal of W at the conditional modes
    sigma2: float
    n_subjects: int

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def border(self) -> tuple[np.ndarray, np.ndarray]:
        """B = Z'WX (K x p) and the diagonal of D^{-1}, exactly zero at sigma2 = 0."""
        subj, K = self.subject_index, self.n_subjects
        b = code_sums(subj, self.X, K, self.weights)
        ztwz = np.bincount(subj, weights=self.weights, minlength=K)
        return b, self.sigma2 / (1.0 + self.sigma2 * ztwz)


class _Factorization:
    """The arrowhead system M through B, D^{-1} and the Cholesky factor of S.

    A singular S (weights that vanish on a whole covariate direction) raises
    numpy.linalg.LinAlgError, and a non-finite one ValueError; no jitter.
    """

    def __init__(self, struct: PredictionStructure):
        self.X, self.subject_index = struct.X, struct.subject_index  # not the weights
        self.b, self.dinv = struct.border()
        xwx = struct.X.T @ (struct.weights[:, None] * struct.X)
        self.chol = cholesky(xwx - self.b.T @ (self.dinv[:, None] * self.b))

    def design_columns(self, rows: np.ndarray) -> np.ndarray:
        """(X_q; Z_q) for the given observation rows, one column per row."""
        bottom = np.zeros((self.b.shape[0], rows.shape[0]))
        bottom[self.subject_index[rows], np.arange(rows.shape[0])] = 1.0
        return np.vstack([self.X[rows].T, bottom])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^{-1} rhs for stacked (p+K)-row right-hand sides, 1-D or 2-D."""
        p = self.b.shape[1]
        r, s = rhs[:p], rhs[p:]
        dinv = self.dinv if rhs.ndim == 1 else self.dinv[:, None]
        x = np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, r - self.b.T @ (dinv * s)))
        return np.concatenate([x, dinv * (s - self.b @ x)])

    def variances(self, d: np.ndarray, codes: np.ndarray, n_groups: int,
                  rows=slice(None), order=None) -> np.ndarray:
        """a_q'M^{-1}a_q, a_q = (X_q'd; Z_q'd), of every group q < n_groups:
        the r-th of `rows` (all by default) lies in group codes[r], weight d[r].
        s_q = Z_q'd, r_q = X_q'd - B'D^{-1}s_q and s_q'D^{-1}s_q are sums over
        the (group, subject) pairs that occur, read along `order` (the r group
        by group, each group's by subject, as `Dataset.group_index` lists
        them; a sort if None), and one solve serves every r_q."""
        r = code_sums(codes, self.X[rows], n_groups, d)
        subj = self.subject_index[rows]
        if order is None:
            order = np.lexsort((subj, codes))
        subj, group = subj[order], codes[order]
        new = np.ones(order.size, dtype=bool)
        new[1:] = (subj[1:] != subj[:-1]) | (group[1:] != group[:-1])
        first = np.flatnonzero(new)  # each (group, subject) pair's first row
        s = np.add.reduceat(d[order], first)  # Z_q'd at the pairs
        pair_subj = subj[first]
        del subj  # hold few row-length arrays at once
        pair_group = group[first]
        del group, first
        dinv_s = self.dinv[pair_subj]
        dinv_s *= s
        sds = code_sums(pair_group, s, n_groups, dinv_s)  # s_q'D^{-1}s_q
        del s
        for c in range(r.shape[1]):  # no (pairs, p) gather of B
            r[:, c] -= np.bincount(pair_group, self.b[:, c][pair_subj] * dinv_s, n_groups)
        return np.sum(np.linalg.solve(self.chol, r.T) ** 2, axis=0) + sds

    def variance(self, rows: np.ndarray, d: np.ndarray) -> float:
        """`variances` of one group: a'M^{-1}a, a = (X_q'd; Z_q'd) on the given rows."""
        return float(self.variances(d, np.zeros(len(rows), np.int64), 1, rows)[0])


def build_prediction_structure(fitted: FittedModel, fisher_weight=None) -> PredictionStructure:
    """Iterative weights and design pieces evaluated at the conditional modes;
    `fisher_weight` is the family's at the predicted etas, formed if None."""
    ds = fitted.dataset
    if fisher_weight is None:
        eta = predicted_eta_rows(fitted)
        fisher_weight = family_ops(fitted.spec.family).fisher_weight(eta, fitted.params.kappa)
    return PredictionStructure(
        X=ds.X,
        subject_index=np.asarray(ds.subject_index),
        weights=np.asarray(ds.weights * fisher_weight, float),
        sigma2=fitted.params.sigma2,
        n_subjects=ds.n_subjects,
    )


def factorize_structure(struct: PredictionStructure) -> _Factorization:
    """Entry point for driving the arrowhead solve with hand-built structures."""
    return _Factorization(struct)


# ---- predictors ---------------------------------------------------------------


def predicted_eta_rows(fitted: FittedModel) -> np.ndarray:
    """x beta plus the subject's conditional mode, for every observation row."""
    ds = fitted.dataset
    return ds.X @ fitted.params.beta + fitted.cond_modes[ds.subject_index]


def conditional_estimates(fitted: FittedModel, alpha: float = 0.05) -> dict[str, GroupMeanEstimate]:
    """Predicted group means lambda_hat_q with direct and inverse prediction
    intervals, and the benchmark lambda*_q: the group average of the inverse
    link at the rows' predicted etas, the covariate rows replaced by the
    group-average row in lambda*_q."""
    ds, family = fitted.dataset, fitted.spec.family
    ops = family_ops(family)
    gids, codes, n = ds.group_index.group_ids, ds.group_codes, ds.group_sizes
    eta = predicted_eta_rows(fitted)
    d = ops.dinverse_link(eta)
    # the logistic's Fisher weight is its inverse-link derivative
    w = d if family is Family.LOGISTIC else ops.fisher_weight(eta, fitted.params.kappa)
    point = code_sums(codes, ops.inverse_link(eta), n.size) / n
    fac = factorize_structure(build_prediction_structure(fitted, w))
    del eta, w  # the solve holds few row-length arrays
    order = np.concatenate([ds.group_index.indices[g] for g in gids])
    variance = fac.variances(d, codes, n.size, order=order) / (n * n)
    star_eta = (ds.group_X @ fitted.params.beta)[codes] + fitted.cond_modes[ds.subject_index]
    star = code_sums(codes, ops.inverse_link(star_eta), n.size) / n
    rows = zip(gids, point.tolist(), variance.tolist(), n.tolist(),
               group_intervals(family, point, variance, alpha), star.tolist())
    return {row[0]: GroupMeanEstimate(row[0], MeanKind.CONDITIONAL, *row[1:]) for row in rows}

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import family_ops
from .fitter import FittedModel, cholesky
from .marginal import GroupMeanEstimate, MeanKind, wald_intervals


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
        subj, K, wx = self.subject_index, self.n_subjects, self.weights[:, None] * self.X
        b = np.stack([np.bincount(subj, weights=col, minlength=K) for col in wx.T], axis=1)
        ztwz = np.bincount(subj, weights=self.weights, minlength=K)
        return b, self.sigma2 / (1.0 + self.sigma2 * ztwz)


class _Factorization:
    """The arrowhead system M through B, D^{-1} and the Cholesky factor of S.

    A singular S (weights that vanish on a whole covariate direction) raises
    numpy.linalg.LinAlgError, and a non-finite one ValueError; no jitter.
    """

    def __init__(self, struct: PredictionStructure):
        self.struct = struct
        self.b, self.dinv = struct.border()
        xwx = struct.X.T @ (struct.weights[:, None] * struct.X)
        self.chol = cholesky(xwx - self.b.T @ (self.dinv[:, None] * self.b))

    def design_columns(self, rows: np.ndarray) -> np.ndarray:
        """(X_q; Z_q) for the given observation rows, one column per row."""
        struct = self.struct
        bottom = np.zeros((struct.n_subjects, rows.shape[0]))
        bottom[struct.subject_index[rows], np.arange(rows.shape[0])] = 1.0
        return np.vstack([struct.X[rows].T, bottom])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^{-1} rhs for stacked (p+K)-row right-hand sides, 1-D or 2-D."""
        p = self.struct.p
        r, s = rhs[:p], rhs[p:]
        dinv = self.dinv if rhs.ndim == 1 else self.dinv[:, None]
        x = np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, r - self.b.T @ (dinv * s)))
        return np.concatenate([x, dinv * (s - self.b @ x)])

    def variance(self, rows: np.ndarray, d: np.ndarray) -> float:
        """a'M^{-1}a for a = (X_q'd; Z_q'd), X_q and Z_q the given rows' and
        d one weight per row, without forming a."""
        struct = self.struct
        s = np.bincount(struct.subject_index[rows], weights=d, minlength=struct.n_subjects)
        dinv_s = self.dinv * s
        r = struct.X[rows].T @ d - self.b.T @ dinv_s
        return float(np.sum(np.linalg.solve(self.chol, r) ** 2) + s @ dinv_s)


def build_prediction_structure(fitted: FittedModel) -> PredictionStructure:
    """Iterative weights and design pieces evaluated at the conditional modes."""
    ds = fitted.dataset
    ops = family_ops(fitted.spec.family)
    w = ds.weights * ops.fisher_weight(predicted_eta_rows(fitted), fitted.params.kappa)
    return PredictionStructure(
        X=ds.X,
        subject_index=np.asarray(ds.subject_index),
        weights=np.asarray(w, float),
        sigma2=fitted.params.sigma2,
        n_subjects=ds.n_subjects,
    )


def factorize_structure(struct: PredictionStructure) -> _Factorization:
    """Entry point for driving the arrowhead solve with hand-built structures."""
    return _Factorization(struct)


# ---- predictors ---------------------------------------------------------------


def predicted_eta_rows(fitted: FittedModel) -> np.ndarray:
    """Predicted linear predictor for every observation row."""
    return _eta(fitted, slice(None), fitted.dataset.X)


def _eta(fitted: FittedModel, rows, x: np.ndarray) -> np.ndarray:
    """x beta plus the conditional mode of each given row's subject."""
    return x @ fitted.params.beta + fitted.cond_modes[fitted.dataset.subject_index[rows]]


def conditional_group_mean(fitted: FittedModel, group_id: str) -> float:
    """lambda_hat_q: group average of the inverse link at the predicted eta."""
    rows = fitted.dataset.group_index.rows(group_id)
    eta = _eta(fitted, rows, fitted.dataset.X[rows])
    return float(np.mean(family_ops(fitted.spec.family).inverse_link(eta)))


def predictor_at_mean_covariate(fitted: FittedModel, group_id: str) -> float:
    """Benchmark predictor lambda*_q using the group-average covariate row."""
    rows = fitted.dataset.group_index.rows(group_id)
    eta = _eta(fitted, rows, fitted.dataset.X[rows].mean(axis=0))
    return float(np.mean(family_ops(fitted.spec.family).inverse_link(eta)))


def conditional_estimates(fitted: FittedModel, alpha: float = 0.05) -> dict[str, GroupMeanEstimate]:
    """Predicted group means with direct and inverse prediction intervals."""
    ds = fitted.dataset
    ops = family_ops(fitted.spec.family)
    fac = factorize_structure(build_prediction_structure(fitted))
    out: dict[str, GroupMeanEstimate] = {}
    for gid in ds.group_index.group_ids:
        rows = ds.group_index.rows(gid)
        point = conditional_group_mean(fitted, gid)
        d = ops.dinverse_link(_eta(fitted, rows, ds.X[rows]))
        variance = fac.variance(rows, d) / rows.shape[0] ** 2
        out[gid] = GroupMeanEstimate(
            group_id=gid,
            kind=MeanKind.CONDITIONAL,
            point=point,
            variance=variance,
            n_obs=rows.shape[0],
            intervals=wald_intervals(fitted.spec.family, point, variance, alpha),
        )
    return out

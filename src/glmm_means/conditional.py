"""Conditional group means, the arrowhead prediction variance, and PIs.

The predictor plugs each subject's conditional mode into the linear
predictor.  Its covariance comes from Henderson's mixed-model equations

    M = [[X'WX, B'], [B, D]],   C_q = (X_q; Z_q)' M^{-1} (X_q; Z_q)

with W the diagonal iterative weights at the conditional modes,
B = Z'WX (K x p) and D = diag(Z'WZ) + I / sigma2.  D is diagonal, so it is
eliminated by hand: only B, D^{-1} and the inverse of the p x p Schur
complement S = X'WX - B'D^{-1}B are kept, and every solve costs
O(K p + p^2).  Building them costs O(N p + K p^2 + p^3) time and
O(N + K p) memory.  At the sigma2 boundary D^{-1} is zero, the sigma2 -> 0
limit of M^{-1}: predictions carry fixed-effect uncertainty only.  On an
identity-link Gaussian model this is exactly the Henderson prediction
covariance; for the binary and count families it is the Laplace-approximate
analogue.  The dense (p+K)^2 system and the naive-plus-correction
decomposition live in the tests as independent oracles, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import family_ops
from .fitter import FittedModel, spd_inverse
from .marginal import GroupMeanEstimate, MeanKind, wald_intervals

_SIGMA2_FLOOR = 1e-9  # at or below this the random-effect block is dropped (D^{-1} -> 0)


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
        """B = Z'WX (K x p) and the diagonal of D^{-1} (zero at the sigma2 boundary)."""
        subj, K, wx = self.subject_index, self.n_subjects, self.weights[:, None] * self.X
        b = np.stack([np.bincount(subj, weights=col, minlength=K) for col in wx.T], axis=1)
        if self.sigma2 <= _SIGMA2_FLOOR:
            return b, np.zeros(K)
        return b, 1.0 / (np.bincount(subj, weights=self.weights, minlength=K) + 1.0 / self.sigma2)


class _Factorization:
    """The arrowhead system M through B, D^{-1} and S^{-1}.

    A singular S (weights that vanish on a whole covariate direction) raises
    numpy.linalg.LinAlgError from the Cholesky test in spd_inverse; nothing
    is jittered.
    """

    def __init__(self, struct: PredictionStructure):
        self.struct = struct
        self.b, self.dinv = struct.border()
        xwx = struct.X.T @ (struct.weights[:, None] * struct.X)
        self.s_inv = spd_inverse(xwx - self.b.T @ (self.dinv[:, None] * self.b))

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
        x = self.s_inv @ (r - self.b.T @ (dinv * s))
        return np.concatenate([x, dinv * (s - self.b @ x)])


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
    ds = fitted.dataset
    return ds.X @ fitted.params.beta + np.asarray(fitted.cond_modes)[ds.subject_index]


def conditional_group_mean(fitted: FittedModel, group_id: str) -> float:
    """lambda_hat_q: group average of the inverse link at the predicted eta."""
    idx = fitted.dataset.group_index.rows(group_id)
    ops = family_ops(fitted.spec.family)
    return float(np.mean(ops.inverse_link(predicted_eta_rows(fitted)[idx])))


def predictor_at_mean_covariate(fitted: FittedModel, group_id: str) -> float:
    """Benchmark predictor lambda*_q using the group-average covariate row."""
    idx = fitted.dataset.group_index.rows(group_id)
    ds = fitted.dataset
    xbar = ds.X[idx].mean(axis=0)
    eta = float(xbar @ fitted.params.beta) + np.asarray(fitted.cond_modes)[ds.subject_index[idx]]
    ops = family_ops(fitted.spec.family)
    return float(np.mean(ops.inverse_link(eta)))


# ---- prediction variance -------------------------------------------------------


def conditional_group_variance(fitted: FittedModel, group_id: str,
                               fac: _Factorization | None = None) -> float:
    """Delta-method variance of lambda_hat_q through the prediction covariance.

    Equals J' D C D J / N_q^2 with D the diagonal of inverse-link
    derivatives at the predicted etas, computed via the collapsed vector
    a = (X_q' d; Z_q' d) without forming C.  `fac` reuses a factorization
    of the same fitted model.
    """
    idx = fitted.dataset.group_index.rows(group_id)
    ops = family_ops(fitted.spec.family)
    d = ops.dinverse_link(predicted_eta_rows(fitted)[idx])
    fac = fac or factorize_structure(build_prediction_structure(fitted))
    struct = fac.struct
    a = np.concatenate([struct.X[idx].T @ d,
                        np.bincount(struct.subject_index[idx], weights=d, minlength=struct.n_subjects)])
    var = float(a @ fac.solve(a)) / idx.shape[0] ** 2
    return max(var, 0.0)


def conditional_estimates(fitted: FittedModel, alpha: float = 0.05) -> dict[str, GroupMeanEstimate]:
    """Predicted group means with direct and inverse prediction intervals."""
    gi = fitted.dataset.group_index
    fac = factorize_structure(build_prediction_structure(fitted))
    out: dict[str, GroupMeanEstimate] = {}
    for gid in gi.group_ids:
        point = conditional_group_mean(fitted, gid)
        variance = conditional_group_variance(fitted, gid, fac)
        out[gid] = GroupMeanEstimate(
            group_id=gid,
            kind=MeanKind.CONDITIONAL,
            point=point,
            variance=variance,
            n_obs=gi.size(gid),
            intervals=wald_intervals(fitted.spec.family, point, variance, alpha),
        )
    return out

"""Marginal (unconditional) group means, variances, and confidence intervals.

Logistic means use the Zeger plug-in expit(c x'beta) with
c = (1 + 0.346 sigma2)^(-1/2); negative-binomial means are the closed form
exp(x'beta + sigma2/2).  Group-mean variances come from the multivariate
delta method through Cov(psi_hat); the NB variance is the lognormal-sum
(Fenton-Wilkinson style) moment formula applied to the estimated log-means.

Internally all gradients are taken over (beta, sigma2), which stays finite
as sigma_hat -> 0; `grad_mu_i` exposes the equivalent (beta, sigma)
parameterization.  Both give identical delta-method variances.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .families import Family, stable_expit
from .fitter import FittedModel, equal_runs
from .quadrature import ZEGER_COEF, zeger_attenuation, zeger_mean

_PAIR_BLOCK = 1 << 20  # row pairs per block of the NB variance sum (8 MB of float64)
_NORMAL = NormalDist()  # its inv_cdf is the standard normal quantile (Wichura's AS241)


class MeanKind(enum.Enum):
    MARGINAL = "marginal"
    CONDITIONAL = "conditional"


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float
    level: float


@dataclass(frozen=True)
class GroupMeanEstimate:
    group_id: str
    kind: MeanKind
    point: float
    variance: float
    n_obs: int
    intervals: dict[str, Interval]


def _z(alpha: float) -> float:
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    return _NORMAL.inv_cdf(1.0 - alpha / 2.0)


# ---- per-observation plug-in means and gradients ---------------------------


def mu_hat_i(fitted: FittedModel, x) -> float:
    """Plug-in estimate of E g^{-1}(x'beta + b) at the fitted parameters."""
    x = np.asarray(x, float)
    eta0 = float(x @ fitted.params.beta)
    s2 = fitted.params.sigma2
    if fitted.spec.family is Family.LOGISTIC:
        return float(zeger_mean(eta0, s2))
    return float(np.exp(eta0 + s2 / 2.0))


def _grad_rows_nat(fitted: FittedModel, rows: np.ndarray) -> np.ndarray:
    """Gradients of mu_hat (logistic) or nu_hat = log mu_hat (NB) over (beta, sigma2)."""
    rows = np.atleast_2d(np.asarray(rows, float))
    beta = fitted.params.beta
    s2 = fitted.params.sigma2
    eta0 = rows @ beta
    if fitted.spec.family is Family.LOGISTIC:
        c = zeger_attenuation(s2)
        q = stable_expit(c * eta0)
        q = q * (1.0 - q)
        d_beta = (q * c)[:, None] * rows
        d_s2 = -0.5 * ZEGER_COEF * c**3 * eta0 * q
        return np.hstack([d_beta, d_s2[:, None]])
    # NB: nu = x'beta + sigma2/2
    return np.hstack([rows, np.full((rows.shape[0], 1), 0.5)])


def grad_mu_i(fitted: FittedModel, x) -> np.ndarray:
    """Gradient of mu_hat_i over (beta, sigma).

    Logistic: the attenuated-expit derivatives; NB: mu_hat * (x, sigma),
    the scaled gradient of nu_hat = log mu_hat.
    """
    x = np.asarray(x, float)
    g = _grad_rows_nat(fitted, x[None, :])[0]
    g[-1] *= 2.0 * fitted.params.sigma  # d sigma2 / d sigma
    if fitted.spec.family is Family.NEGBIN:
        g *= mu_hat_i(fitted, x)
    return g


def mu_hat_variance(fitted: FittedModel, x) -> float:
    """Delta-method variance of the single-row plug-in mean mu_hat_i."""
    x = np.asarray(x, float)
    g = _grad_rows_nat(fitted, x[None, :])[0]
    var = float(g @ fitted.cov_beta_sigma2 @ g)
    if fitted.spec.family is Family.NEGBIN:
        var *= mu_hat_i(fitted, x) ** 2  # gradient above is of nu = log mu
    return max(var, 0.0)


# ---- group means and variances ---------------------------------------------


def marginal_group_mean(fitted: FittedModel, group_id: str) -> float:
    """mu_hat_q: the average of the per-observation plug-in means in the group."""
    rows = fitted.dataset.X[fitted.dataset.group_index.rows(group_id)]
    eta0 = rows @ fitted.params.beta
    s2 = fitted.params.sigma2
    if fitted.spec.family is Family.LOGISTIC:
        return float(np.mean(zeger_mean(eta0, s2)))
    return float(np.mean(np.exp(eta0 + s2 / 2.0)))


def _clamped(variance: float, what: str) -> float:
    if variance < 0:
        warnings.warn(f"negative delta-method variance for {what} clamped to 0", RuntimeWarning)
        return 0.0
    return float(variance)


def marginal_group_variance(fitted: FittedModel, group_id: str) -> float:
    """Delta-method variance of the estimated marginal group mean.

    Logistic: the variance of the average of the mu_hat_i, all pairwise
    covariances included, which collapses to the quadratic form of the
    averaged gradient.  NB: the lognormal-sum variance with plug-in
    log-scale covariances sigma2_{i1,i2} = grad(nu_i1)' Cov grad(nu_i2),
    normalized by N_q^2.  Every term depends on its rows only through their
    covariates, so the NB pair sum runs over unique rows weighted by their
    counts, in blocks of at most _PAIR_BLOCK pairs.
    """
    rows = fitted.dataset.X[fitted.dataset.group_index.rows(group_id)]
    cov = fitted.cov_beta_sigma2
    n = rows.shape[0]
    if fitted.spec.family is Family.LOGISTIC:
        gbar = _grad_rows_nat(fitted, rows).mean(axis=0)
        return _clamped(float(gbar @ cov @ gbar), f"group {group_id}")
    order, new = equal_runs(rows)
    counts = np.diff(np.append(np.flatnonzero(new), n))
    rows = rows[order[new]]
    grads = _grad_rows_nat(fitted, rows)
    nu = rows @ fitted.params.beta + fitted.params.sigma2 / 2.0
    gcov = grads @ cov
    amp = counts * np.exp(nu + 0.5 * np.einsum("ij,ij->i", gcov, grads))
    step = max(1, _PAIR_BLOCK // rows.shape[0])
    total = sum(float(amp[a:a + step] @ np.expm1(gcov[a:a + step] @ grads.T) @ amp)
                for a in range(0, rows.shape[0], step))
    return _clamped(total / (n * n), f"group {group_id}")


def mean_at_mean_covariate(fitted: FittedModel, group_id: str) -> float:
    """Benchmark estimator mu*_q evaluated at the group-average covariate row.

    Inconsistent for the true group mean whenever the inverse link is
    nonlinear; provided for comparison only.
    """
    rows = fitted.dataset.X[fitted.dataset.group_index.rows(group_id)]
    return mu_hat_i(fitted, rows.mean(axis=0))


# ---- confidence intervals ----------------------------------------------------


def ci_direct(point: float, variance: float, alpha: float = 0.05) -> Interval:
    """Wald interval on the mean scale."""
    if variance < 0:
        raise ValueError("variance must be >= 0")
    half = _z(alpha) * np.sqrt(variance)
    return Interval(float(point - half), float(point + half), 1.0 - alpha)


def ci_inverse_logit(point: float, variance: float, alpha: float = 0.05) -> Interval:
    """Wald interval on the logit scale, back-transformed."""
    if not 0.0 < point < 1.0:
        raise ValueError("point must be strictly inside (0, 1)")
    if variance < 0:
        raise ValueError("variance must be >= 0")
    w = _z(alpha) * np.sqrt(variance) / (point * (1.0 - point))
    logit = np.log(point / (1.0 - point))
    return Interval(
        float(stable_expit(logit - w)),
        float(stable_expit(logit + w)),
        1.0 - alpha,
    )


def ci_inverse_log(point: float, variance: float, alpha: float = 0.05) -> Interval:
    """Wald interval on the log scale, back-transformed."""
    if point <= 0:
        raise ValueError("point must be > 0")
    if variance < 0:
        raise ValueError("variance must be >= 0")
    w = _z(alpha) * np.sqrt(variance) / point
    return Interval(float(point * np.exp(-w)), float(point * np.exp(w)), 1.0 - alpha)


def ci_lognormal(point: float, variance: float, n_obs: int, alpha: float = 0.05) -> Interval:
    """Interval from percentiles of a lognormal matched to the group-sum moments.

    The sum N_q mu_hat_q is treated as lognormal with mean N_q * point and
    variance N_q^2 * variance; the interval is the pair of alpha/2 and
    1 - alpha/2 quantiles divided back by N_q.
    """
    if point <= 0 or variance <= 0:
        raise ValueError("point and variance must be > 0")
    if n_obs < 1:
        raise ValueError("n_obs must be >= 1")
    s2 = float(np.log1p(variance / point**2))
    m = float(np.log(n_obs * point) - s2 / 2.0)
    s = np.sqrt(s2)
    zq = np.array([_NORMAL.inv_cdf(alpha / 2.0), _NORMAL.inv_cdf(1.0 - alpha / 2.0)])
    lo, hi = np.exp(m + s * zq) / n_obs
    return Interval(float(lo), float(hi), 1.0 - alpha)


# ---- assembly -----------------------------------------------------------------


def wald_intervals(family: Family, point: float, variance: float,
                   alpha: float) -> dict[str, Interval]:
    """The direct interval and the family's link-scale ("inverse") interval,
    shared by the confidence and the prediction intervals."""
    inverse = ci_inverse_logit if family is Family.LOGISTIC else ci_inverse_log
    return {"direct": ci_direct(point, variance, alpha), "inverse": inverse(point, variance, alpha)}


def marginal_estimates(fitted: FittedModel, alpha: float = 0.05) -> dict[str, GroupMeanEstimate]:
    """Point estimate, variance, and all applicable CIs for every group;
    negative-binomial groups add the lognormal interval."""
    gi = fitted.dataset.group_index
    out: dict[str, GroupMeanEstimate] = {}
    for gid in gi.group_ids:
        point = marginal_group_mean(fitted, gid)
        variance = marginal_group_variance(fitted, gid)
        n = gi.size(gid)
        intervals = wald_intervals(fitted.spec.family, point, variance, alpha)
        if fitted.spec.family is Family.NEGBIN:
            intervals["lognormal"] = (ci_lognormal(point, variance, n, alpha) if variance > 0
                                      else Interval(point, point, 1.0 - alpha))
        out[gid] = GroupMeanEstimate(
            group_id=gid,
            kind=MeanKind.MARGINAL,
            point=point,
            variance=variance,
            n_obs=n,
            intervals=intervals,
        )
    return out

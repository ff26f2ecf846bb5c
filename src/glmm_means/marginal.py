"""Marginal (unconditional) group means, variances, and confidence intervals.

Logistic means use the Zeger plug-in expit(c x'beta) with
c = (1 + 0.346 sigma2)^(-1/2); negative-binomial means are the closed form
exp(x'beta + sigma2/2).  Group-mean variances come from the multivariate
delta method through Cov(psi_hat); the NB variance is the lognormal-sum
(Fenton-Wilkinson style) moment formula applied to the estimated log-means.

`marginal_estimates` serves every group from one pass: each row's plug-in
mean and gradient once, summed by group over `Dataset.group_codes`, and
mu*_q with its variance from the group-average rows `Dataset.group_X`.
Only the NB pair sum runs group by group, over each group's distinct rows.
`marginal_batch` makes that pass once for a run of fits, a study's
replications: their rows stacked, each group sum one `np.bincount` over
group codes numbered on from fit to fit, each fit's products with its own
parameters and Cov, and the intervals of every group of every fit at once.
Every reduction stays within one fit, so each fit's estimates are bit for
bit its lone ones; `marginal_estimates` is the batch of one.

Internally all gradients are taken over (beta, sigma2), which stays finite
as sigma_hat -> 0; `grad_mu_i` exposes the equivalent (beta, sigma)
parameterization.  Both give identical delta-method variances.
"""

from __future__ import annotations

import enum
import itertools
import warnings
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .families import Family, stable_expit
from .fitter import FittedModel, equal_runs
from .model import code_sums
from .quadrature import ZEGER_COEF, zeger_attenuation

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
    star: float  # the benchmark estimator at the group-average covariate row: mu*_q or lambda*_q
    star_variance: float | None = None  # delta-method variance of mu*_q; None for lambda*_q


def _z(alpha: float) -> float:
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    return _NORMAL.inv_cdf(1.0 - alpha / 2.0)


# ---- per-row plug-in means and gradients ------------------------------------


def _link_constants(fitted: FittedModel):
    """The plug-in's constants of a fit: the Zeger factor c and -0.346 c^3 / 2
    (logistic), or sigma2 / 2 and None (NB)."""
    s2 = fitted.params.sigma2
    if fitted.spec.family is Family.LOGISTIC:
        c = zeger_attenuation(s2)
        return c, -0.5 * ZEGER_COEF * c**3
    return s2 / 2.0, None


def _plugin(family: Family, eta0, k1, k2):
    """Plug-in means mu_hat at linear predictors eta0 = x'beta, and the a and
    g that make (a x, g) each row's gradient over (beta, sigma2): of mu_hat
    itself (logistic), or of nu_hat = log mu_hat (NB, a = 1 and g = 1/2).
    k1 and k2 are the `_link_constants` of the one fit, or of each row's."""
    if family is Family.LOGISTIC:
        mu = stable_expit(k1 * eta0)
        q = mu * (1.0 - mu)
        return mu, q * k1, k2 * eta0 * q
    return np.exp(eta0 + k1), np.ones_like(eta0), np.full_like(eta0, 0.5)


def _plugin_rows(fitted: FittedModel, rows):
    rows = np.atleast_2d(np.asarray(rows, float))
    return _plugin(fitted.spec.family, rows @ fitted.params.beta, *_link_constants(fitted))


def mu_hat_i(fitted: FittedModel, x) -> float:
    """Plug-in estimate of E g^{-1}(x'beta + b) at the fitted parameters."""
    return float(_plugin_rows(fitted, x)[0][0])


def grad_mu_i(fitted: FittedModel, x) -> np.ndarray:
    """Gradient of mu_hat_i over (beta, sigma).

    Logistic: the attenuated-expit derivatives; NB: mu_hat * (x, sigma),
    the scaled gradient of nu_hat = log mu_hat.
    """
    mu, a, g = _plugin_rows(fitted, x)
    grad = np.append(a * np.asarray(x, float), g)
    grad[-1] *= 2.0 * fitted.params.sigma  # d sigma2 / d sigma
    return grad * mu[0] if fitted.spec.family is Family.NEGBIN else grad


# ---- every group of a run of fits at once -----------------------------------


def _slices(sizes) -> list[slice]:
    out, start = [], 0
    for size in sizes:
        out.append(slice(start, start + size))
        start += size
    return out


def _stack(parts, starts=None):
    """The arrays `parts` end to end, each plus its start, if given."""
    if starts is not None:
        parts = [part + start if start else part for part, start in zip(parts, starts)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class _Run:
    """Fits of one family estimated together: their datasets' rows, groups
    and subjects stacked, each numbered on from the fit before, and each
    fit's slice of them.  A run of one fit holds its dataset's own arrays."""

    def __init__(self, fits):
        self.fits = fits = list(fits)
        self.family = fits[0].spec.family
        self.beta = [f.params.beta for f in fits]
        self.datasets = dss = [f.dataset for f in fits]
        self.rows = _slices([ds.n_obs for ds in dss])
        self.groups = _slices([ds.group_sizes.size for ds in dss])
        self.subjects = _slices([ds.n_subjects for ds in dss])
        self.X = _stack([ds.X for ds in dss])
        self.codes = _stack([ds.group_codes for ds in dss], [g.start for g in self.groups])
        self.n = _stack([ds.group_sizes for ds in dss])
        self.group_X = _stack([ds.group_X for ds in dss])
        self.gids = list(itertools.chain.from_iterable(ds.group_index.group_ids for ds in dss))
        self.subject_index = _stack([ds.subject_index for ds in dss],
                                    [k.start for k in self.subjects])

    def spread(self, values, parts):
        """One value per fit as one per item of its part, for each fit's part
        of `parts`; the value itself in a run of one fit."""
        if len(self.fits) == 1:
            return values[0]
        return np.repeat(values, [part.stop - part.start for part in parts])

    def products(self, rows, parts, mats):
        """Each fit's part of `parts` of `rows` times its matrix or vector
        of `mats`, stacked."""
        return _stack([rows[part] @ m for part, m in zip(parts, mats)])

    def forms(self, grads, parts):
        """g' Cov g of each row g of `grads`, with the Cov over (beta, sigma2)
        of the fit whose part of `parts` holds it, and grads @ Cov."""
        gcov = self.products(grads, parts, [f.cov_beta_sigma2 for f in self.fits])
        return np.einsum("ij,ij->i", gcov, grads), gcov

    def split(self, estimates) -> list[dict]:
        """Per fit, its groups' estimates by group id."""
        return [{e.group_id: e for e in estimates[part]} for part in self.groups]


def distinct_rows(codes: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row number of each distinct (code, covariate row) pair, ordered
    by code and then by covariate row, and each pair's count of rows."""
    order, new = equal_runs(np.column_stack([codes, X]))
    first = np.flatnonzero(new)
    return order[first], np.diff(np.append(first, codes.size))


def _negbin_variances(run: _Run, half_sigma2) -> np.ndarray:
    """The lognormal-sum variance of every group's mean, with plug-in log-scale
    covariances s_ij = grad(nu_i)' Cov grad(nu_j): the sum over pairs of the
    group's rows of mu_i mu_j exp((s_ii + s_jj) / 2) expm1(s_ij), over N_q^2.
    It runs over each group's distinct rows weighted by their counts, in
    blocks of at most _PAIR_BLOCK pairs."""
    n = run.n
    first, counts = distinct_rows(run.codes, run.X)
    rows, codes = run.X[first], run.codes[first]
    bounds = np.searchsorted(codes, np.arange(n.size + 1)).tolist()
    parts = [slice(bounds[g.start], bounds[g.stop]) for g in run.groups]  # each fit's rows
    eta0 = run.products(rows, parts, run.beta)
    mu, a, g = _plugin(Family.NEGBIN, eta0, run.spread(half_sigma2, parts), None)
    grads = np.column_stack([a[:, None] * rows, g])
    forms, gcov = run.forms(grads, parts)
    amp = counts * mu * np.exp(0.5 * forms)
    totals = np.zeros(n.size)
    for q, (lo, hi) in enumerate(zip(bounds, bounds[1:])):  # one group's distinct rows
        gq, gc, am = grads[lo:hi], gcov[lo:hi], amp[lo:hi]
        step = max(1, _PAIR_BLOCK // (hi - lo))
        totals[q] = sum(float(am[i:i + step] @ np.expm1(gc[i:i + step] @ gq.T) @ am)
                        for i in range(0, hi - lo, step))
    return totals / (n * n)


# ---- confidence intervals ----------------------------------------------------
# Each broadcasts over arrays of groups; its ends are floats for one group.


def _refuse(bad, message: str) -> None:
    if np.asarray(bad).any():
        raise ValueError(message)


def _interval(lower, upper, alpha: float) -> Interval:
    return Interval(*(v if np.ndim(v) else float(v) for v in (lower, upper)), 1.0 - alpha)


def ci_direct(point: float, variance: float, alpha: float = 0.05) -> Interval:
    """Wald interval on the mean scale."""
    _refuse(variance < 0, "variance must be >= 0")
    half = _z(alpha) * np.sqrt(variance)
    return _interval(point - half, point + half, alpha)


def ci_inverse_logit(point: float, variance: float, alpha: float = 0.05) -> Interval:
    """Wald interval on the logit scale, back-transformed."""
    _refuse(not np.all((0.0 < point) & (point < 1.0)), "point must be strictly inside (0, 1)")
    _refuse(variance < 0, "variance must be >= 0")
    w = _z(alpha) * np.sqrt(variance) / (point * (1.0 - point))
    logit = np.log(point / (1.0 - point))
    return _interval(stable_expit(logit - w), stable_expit(logit + w), alpha)


def ci_inverse_log(point: float, variance: float, alpha: float = 0.05) -> Interval:
    """Wald interval on the log scale, back-transformed."""
    _refuse(point <= 0, "point must be > 0")
    _refuse(variance < 0, "variance must be >= 0")
    w = _z(alpha) * np.sqrt(variance) / point
    return _interval(point * np.exp(-w), point * np.exp(w), alpha)


def ci_lognormal(point: float, variance: float, n_obs: int, alpha: float = 0.05) -> Interval:
    """Interval from percentiles of a lognormal matched to the group-sum moments.

    The sum N_q mu_hat_q is treated as lognormal with mean N_q * point and
    variance N_q^2 * variance; the interval is the pair of alpha/2 and
    1 - alpha/2 quantiles divided back by N_q.
    """
    _refuse((point <= 0) | (variance <= 0), "point and variance must be > 0")
    _refuse(n_obs < 1, "n_obs must be >= 1")
    s2 = np.log1p(variance / point**2)
    m = np.log(n_obs * point) - s2 / 2.0
    s = np.sqrt(s2)
    return _interval(np.exp(m + s * _NORMAL.inv_cdf(alpha / 2.0)) / n_obs,
                     np.exp(m + s * _NORMAL.inv_cdf(1.0 - alpha / 2.0)) / n_obs, alpha)


# ---- assembly -----------------------------------------------------------------


def wald_intervals(family: Family, point: float, variance: float,
                   alpha: float) -> dict[str, Interval]:
    """The direct interval and the family's link-scale ("inverse") interval,
    shared by the confidence and the prediction intervals."""
    inverse = ci_inverse_logit if family is Family.LOGISTIC else ci_inverse_log
    return {"direct": ci_direct(point, variance, alpha), "inverse": inverse(point, variance, alpha)}


def group_intervals(family: Family, point: np.ndarray, variance: np.ndarray, alpha: float,
                    n_obs: np.ndarray | None = None) -> list[dict[str, Interval]]:
    """`wald_intervals` of every group, one dict per group; given the group
    sizes, negative-binomial groups add the lognormal interval, which is the
    point itself at zero variance."""
    intervals = wald_intervals(family, point, variance, alpha)
    if family is Family.NEGBIN and n_obs is not None:
        pos = variance > 0
        iv = ci_lognormal(point, np.where(pos, variance, 1.0), n_obs, alpha)
        intervals["lognormal"] = _interval(np.where(pos, iv.lower, point),
                                           np.where(pos, iv.upper, point), alpha)
    ends = [(label, iv.lower.tolist(), iv.upper.tolist()) for label, iv in intervals.items()]
    return [{label: Interval(lo[q], hi[q], 1.0 - alpha) for label, lo, hi in ends}
            for q in range(point.size)]


def marginal_estimates(fitted: FittedModel, alpha: float = 0.05) -> dict[str, GroupMeanEstimate]:
    """Point estimate, variance, all applicable CIs (NB adds the lognormal
    one) and the benchmark mu*_q of every group.  mu_hat_q averages the rows'
    plug-in means; its logistic variance is gbar' Cov gbar, gbar the group's
    average gradient.  mu*_q, the plug-in mean at the group-average covariate
    row, is inconsistent whenever the inverse link is nonlinear."""
    return marginal_batch([fitted], alpha)[0]


def marginal_batch(fits, alpha: float = 0.05) -> list[dict[str, GroupMeanEstimate]]:
    """`marginal_estimates` of each of a run of fits of one family, bit for
    bit: one pass over their stacked rows, each group sum one `np.bincount`
    over the group codes numbered on from fit to fit, each fit's products
    with its own Cov, and the intervals of every group of every fit at once."""
    run = _Run(fits)
    family, codes, n = run.family, run.codes, run.n
    k1, k2 = zip(*map(_link_constants, run.fits))

    def constants(parts):
        return run.spread(k1, parts), None if k2[0] is None else run.spread(k2, parts)

    xbeta = run.products(run.X, run.rows, run.beta)
    mu, a, g = _plugin(family, xbeta, *constants(run.rows))
    point = code_sums(codes, mu, n.size) / n
    if family is Family.LOGISTIC:
        gbar = np.column_stack([code_sums(codes, run.X, n.size, a), code_sums(codes, g, n.size)])
        gbar /= n[:, None]
        variance = run.forms(gbar, run.groups)[0]
    else:
        variance = _negbin_variances(run, k1)
    eta0 = run.products(run.group_X, run.groups, run.beta)
    star, a, g = _plugin(family, eta0, *constants(run.groups))
    star_grads = np.column_stack([a[:, None] * run.group_X, g])
    star_variance = run.forms(star_grads, run.groups)[0]
    if family is Family.NEGBIN:
        star_variance *= star**2  # the gradients are of nu = log mu
    for gid in np.array(run.gids, object)[variance < 0]:
        warnings.warn(f"negative delta-method variance for group {gid} clamped to 0", RuntimeWarning)
    variance = np.maximum(variance, 0.0)
    rows = zip(run.gids, point.tolist(), variance.tolist(), n.tolist(),
               group_intervals(family, point, variance, alpha, n), star.tolist(),
               np.maximum(star_variance, 0.0).tolist())
    return run.split([GroupMeanEstimate(row[0], MeanKind.MARGINAL, *row[1:]) for row in rows])

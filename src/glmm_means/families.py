"""Response-family kernels shared by the fitter and the prediction machinery.

Each family exposes the per-observation conditional log-density, its first
two derivatives in the linear predictor, the inverse link, and a sampler;
the negative binomial adds the first and second derivatives in its size.
Their eta-free parts, the only ones not affine in y, are separate kernels
(`*_offset`) whose values the caller passes in, so that the fitter can
average them over the rows it merges.  Those parts are gamma-function
differences at an integer count, which `gamma_sums` computes as finite sums.
`aux` carries the negative-binomial size parameter and is ignored elsewhere.
All functions broadcast over numpy arrays.
"""

from __future__ import annotations

import enum

import numpy as np

SUM_CAP = 100_000  # counts up to which gamma_sums sums exactly
_BLOCK = 256  # terms per block of the prefix sums


class Family(enum.Enum):
    LOGISTIC = "logistic"
    NEGBIN = "negbin"


def stable_expit(eta):
    """exp(eta)/(1+exp(eta)) without overflow on either tail."""
    eta = np.asarray(eta, dtype=float)
    z = np.exp(-np.abs(eta))
    out = np.where(eta >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return out if out.ndim else float(out)


def _prefix_sums(terms: np.ndarray) -> np.ndarray:
    """Cumulative sum in blocks of _BLOCK terms, each block then offset by
    the totals before it: the rounding grows with _BLOCK + n / _BLOCK
    additions, not n.  Up to _BLOCK terms it is np.cumsum."""
    if terms.size <= _BLOCK:
        return np.cumsum(terms)
    blocks = np.append(terms, np.zeros(-terms.size % _BLOCK)).reshape(-1, _BLOCK).cumsum(axis=1)
    blocks[1:] += np.cumsum(blocks[:-1, -1])[:, None]
    return blocks.ravel()[: terms.size]


def gamma_sums(y, kappa: float, order: int) -> np.ndarray:
    """The k-derivative of order 0, 1 or 2 of log Gamma(y + k) - log Gamma(k)
    at integer counts y >= 0, as a finite sum, y log k taken off at order 0:

        order 0:  sum_{j<y} log1p(j / k)    = log Gamma(y + k) - log Gamma(k) - y log k
        order 1:  sum_{j<y} 1 / (k + j)     = digamma(y + k) - digamma(k)
        order 2:  -sum_{j<y} 1 / (k + j)^2  = trigamma(y + k) - trigamma(k)

    Order 0 at k = 1 is log Gamma(y + 1).  No two gamma values of size
    k log k are differenced, so the terms keep their digits as k grows.  One
    prefix sum up to the largest count, at most SUM_CAP, serves every y; a
    count above SUM_CAP adds the differenced asymptotic series from SUM_CAP
    + k to y + k, whose three terms reach double precision there.  Raises
    ValueError on a negative, non-integer or non-finite y.
    """
    y = np.asarray(y, dtype=float)
    top = y.max(initial=0.0)  # NaN if any y is
    if not (top < np.inf and np.all(np.floor(y) == np.abs(y))):  # -0.0 passes, -1.0 does not
        raise ValueError("negative-binomial responses must be non-negative integers")
    n = int(min(top, SUM_CAP))
    j = np.arange(n, dtype=float)
    if order == 0:
        terms = np.log1p(j / kappa)
    elif order == 1:
        terms = 1.0 / (kappa + j)
    else:
        terms = -1.0 / (kappa + j) ** 2
    out = np.append(0.0, _prefix_sums(terms))[np.minimum(y, n).astype(np.intp)]
    if top > SUM_CAP:  # the series terms below are exactly 0 where y <= SUM_CAP
        yc = np.maximum(y, SUM_CAP)
        u, v = 1.0 / (yc + kappa), 1.0 / (SUM_CAP + kappa)
        du = -(yc - SUM_CAP) * u * v  # 1/x - 1/a, x = y + k, a = SUM_CAP + k
        if order == 0:  # Stirling: (x - 1/2) log x - x + 1/(12 x)
            out = out + ((yc + kappa - 0.5) * np.log1p(yc / kappa) - (yc - SUM_CAP)
                         - (SUM_CAP + kappa - 0.5) * np.log1p(SUM_CAP / kappa) + du / 12.0)
        elif order == 1:  # log x - 1/(2 x) - 1/(12 x^2)
            out = out + np.log1p((yc - SUM_CAP) * v) - du / 2.0 - du * (u + v) / 12.0
        else:  # 1/x + 1/(2 x^2) + 1/(6 x^3)
            out = out + du * (1.0 + (u + v) / 2.0 + (u * u + u * v + v * v) / 6.0)
    return out


class _Logistic:
    @staticmethod
    def loglik(y, eta, aux=None):
        # log pmf of Bernoulli(expit(eta)); logaddexp(0, eta) = log(1 + e^eta)
        return y * eta - np.logaddexp(0.0, eta)

    @staticmethod
    def score_eta(y, eta, aux=None):
        return y - stable_expit(eta)

    @staticmethod
    def fisher_weight(eta, aux=None):
        # p (1 - p) with 1 - p = expit(-eta), so neither tail rounds to 0
        return stable_expit(eta) * stable_expit(-np.asarray(eta))

    @staticmethod
    def obs_curvature(y, eta, aux=None):
        return _Logistic.fisher_weight(eta)

    @staticmethod
    def inverse_link(eta):
        return stable_expit(eta)

    @staticmethod
    def dinverse_link(eta):
        return _Logistic.fisher_weight(eta)

    @staticmethod
    def sample(rng, mu, aux=None):
        return rng.binomial(1, mu).astype(float)

    @staticmethod
    def validate_response(y):
        return np.all((y == 0.0) | (y == 1.0))


class _NegBinomial:
    """Negative binomial with mean mu = exp(eta) and size kappa.

    Var(Y) = mu + mu^2 / kappa.  Stable forms use mu/(mu+kappa) =
    expit(eta - log kappa) so large eta never materializes exp(eta).
    """

    @staticmethod
    def loglik(y, eta, aux):
        kappa = aux
        const = gamma_sums(y, kappa, 0) - gamma_sums(y, 1.0, 0)
        return const + y * eta - (y + kappa) * np.logaddexp(0.0, eta - np.log(kappa))

    @staticmethod
    def score_eta(y, eta, aux):
        kappa = aux
        return y - (y + kappa) * stable_expit(eta - np.log(kappa))

    @staticmethod
    def score_kappa_offset(y, aux):
        """The eta-free part of score_kappa, digamma(y + k) - digamma(k):
        the only part not affine in y."""
        return gamma_sums(y, aux, 1)

    @staticmethod
    def score_kappa(y, eta, aux, offset):
        """d loglik / d kappa = offset - log1p(mu / k) + (mu - y) / (k + mu),
        given `offset` = score_kappa_offset(y, aux).  Each term is O(y / k),
        so their O(1 / k^2) sum keeps its digits at large k."""
        kappa = aux
        z = eta - np.log(kappa)  # log(mu / kappa)
        e = np.exp(-np.abs(z))
        up = z >= 0.0
        s = np.where(up, 1.0, e) / (1.0 + e)  # mu / (mu + kappa)
        r = np.where(up, e, 1.0) / (1.0 + e)  # kappa / (mu + kappa), not 1 - s: s can be near 1
        return offset - (np.maximum(z, 0.0) + np.log1p(e)) + s - y * r / kappa

    @staticmethod
    def dscore_eta_kappa(y, eta, aux):
        """d score_eta / d kappa = mu (y - mu) / (mu + kappa)^2."""
        kappa = aux
        s = stable_expit(eta - np.log(kappa))  # mu / (mu + kappa); (1 - s) mu = kappa s
        return (s * (1.0 - s) * y - kappa * s * s) / kappa

    @staticmethod
    def dscore_kappa_offset(y, aux):
        """The eta-free part of dscore_kappa, trigamma(y + k) - trigamma(k):
        the only part not affine in y."""
        return gamma_sums(y, aux, 2)

    @staticmethod
    def dscore_kappa(y, eta, aux, offset):
        """d score_kappa / d kappa, given `offset` = dscore_kappa_offset(y,
        aux): offset + 1/k - 2/(k + mu) + (y + k)/(k + mu)^2, written as
        offset + s^2/k + y r^2/k^2 with s = mu/(k + mu), r = k/(k + mu), so
        no terms of size 1/k cancel."""
        kappa = aux
        s = stable_expit(eta - np.log(kappa))
        r = stable_expit(np.log(kappa) - eta)  # not 1 - s: s can be near 1
        return offset + s * s / kappa + y * r * r / (kappa * kappa)

    @staticmethod
    def fisher_weight(eta, aux):
        kappa = aux
        # mu * kappa / (mu + kappa)
        return kappa * stable_expit(eta - np.log(kappa))

    @staticmethod
    def obs_curvature(y, eta, aux):
        kappa = aux
        s = stable_expit(eta - np.log(kappa))  # mu / (mu + kappa)
        return (y + kappa) * s * (1.0 - s)

    @staticmethod
    def inverse_link(eta):
        return np.exp(eta)

    @staticmethod
    def dinverse_link(eta):
        return np.exp(eta)

    @staticmethod
    def sample(rng, mu, aux):
        kappa = aux
        return rng.negative_binomial(kappa, kappa / (kappa + mu)).astype(float)

    @staticmethod
    def validate_response(y):
        return np.all((y >= 0.0) & (y == np.floor(y)))


LOGISTIC_OPS = _Logistic()
NEGBIN_OPS = _NegBinomial()

_OPS = {Family.LOGISTIC: LOGISTIC_OPS, Family.NEGBIN: NEGBIN_OPS}


def family_ops(family: Family):
    return _OPS[family]

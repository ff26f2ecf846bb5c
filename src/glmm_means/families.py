"""Response-family kernels shared by the fitter and the prediction machinery.

Each family exposes the per-observation conditional log-density, its first
two derivatives in the linear predictor, the inverse link, and a sampler;
the negative binomial adds the first and second derivatives in its size.
Their eta-free parts, the only ones not affine in y, are separate kernels
(`*_offset`) whose values the caller passes in, so that the fitter can
average them over the rows it merges.
`aux` carries the negative-binomial size parameter and is ignored elsewhere.
All functions broadcast over numpy arrays.
"""

from __future__ import annotations

import enum

import numpy as np
from scipy.special import digamma, gammaln, polygamma


class Family(enum.Enum):
    LOGISTIC = "logistic"
    NEGBIN = "negbin"


def stable_expit(eta):
    """exp(eta)/(1+exp(eta)) without overflow on either tail."""
    eta = np.asarray(eta, dtype=float)
    z = np.exp(-np.abs(eta))
    out = np.where(eta >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return out if out.ndim else float(out)


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
        logk = np.log(kappa)
        const = gammaln(y + kappa) - gammaln(kappa) - gammaln(y + 1.0) + kappa * logk
        return const + y * eta - (y + kappa) * np.logaddexp(logk, eta)

    @staticmethod
    def score_eta(y, eta, aux):
        kappa = aux
        return y - (y + kappa) * stable_expit(eta - np.log(kappa))

    @staticmethod
    def score_kappa_offset(y, aux):
        """The eta-free part of score_kappa, digamma(y + k) - digamma(k) +
        log k + 1: the only part not affine in y."""
        kappa = aux
        return digamma(y + kappa) - digamma(kappa) + np.log(kappa) + 1.0

    @staticmethod
    def score_kappa(y, eta, aux, offset):
        """d loglik / d kappa, given `offset` = score_kappa_offset(y, aux)."""
        kappa = aux
        logk = np.log(kappa)
        frac = stable_expit(logk - eta)  # kappa / (kappa + mu)
        return offset - np.logaddexp(logk, eta) - (y + kappa) * frac / kappa

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
        kappa = aux
        return polygamma(1, y + kappa) - polygamma(1, kappa)

    @staticmethod
    def dscore_kappa(y, eta, aux, offset):
        """d score_kappa / d kappa, given `offset` = dscore_kappa_offset(y,
        aux), with 1 / (kappa + mu) = (1 - s) / kappa."""
        kappa = aux
        r = stable_expit(np.log(kappa) - eta)  # 1 - s = kappa / (kappa + mu)
        return offset + (1.0 - 2.0 * r) / kappa + (y + kappa) * r * r / (kappa * kappa)

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

"""Response-family kernels shared by the fitter and the prediction machinery.

Each family exposes its conditional log-density, the Fisher weight, the
inverse link, a sampler and one node kernel, `kernel(y, eta, aux)`, which
gives every term the fitter evaluates at the quadrature nodes.  Up to
eta-free terms both log-densities are l = y eta - n softplus(z), with z =
eta and n = 1 for the logistic and z = eta - log k and n = y + k for the
negative binomial of size k.  `Nodes` takes one exponential, e =
exp(-|z|), for s = expit(z), r = expit(-z) and softplus(z) = max(z, 0) +
log1p(e), and forms l and its eta-derivatives from them (the fitter forms
the kappa terms from the same s, r and softplus); r is a quotient of its
own, not 1 - s, which rounds to 0 where s rounds to 1.  The eta-free parts,
the only ones not affine in y, are gamma-function differences at an
integer count, which `gamma_sums` computes as finite sums; the fitter, which
sums every term over the rows of a pattern, adds them once per pattern.  `aux`
carries the negative-binomial size parameter and is ignored elsewhere.
All functions broadcast over numpy arrays.
"""

from __future__ import annotations

import enum
import functools
import math

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
    out = np.where(eta >= 0, 1.0, z)
    out /= 1.0 + z
    return out if out.ndim else float(out)


def _prefix_sums(terms: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis in blocks of _BLOCK terms, each
    block then offset by the totals before it: the rounding grows with
    _BLOCK + n / _BLOCK additions, not n.  Up to _BLOCK terms it is
    np.cumsum; each row of a 2-d array is summed as it would be alone."""
    n = terms.shape[-1]
    if n <= _BLOCK:
        return np.cumsum(terms, axis=-1)
    lead = terms.shape[:-1]
    padded = np.concatenate([terms, np.zeros((*lead, -n % _BLOCK))], axis=-1)
    blocks = padded.reshape(*lead, -1, _BLOCK).cumsum(axis=-1)
    blocks[..., 1:, :] += np.cumsum(blocks[..., :-1, -1], axis=-1)[..., None]
    return blocks.reshape(*lead, -1)[..., :n]


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
    return gamma_table(y, kappa)[order]


def gamma_table(y: np.ndarray, kappa: float) -> np.ndarray:
    """gamma_sums(y, kappa, order) for orders 0, 1 and 2 along a first axis,
    from one grid of k + j, at counts that gamma_sums accepts (unchecked)."""
    top = y.max(initial=0.0)
    n = int(min(top, SUM_CAP))
    j = np.arange(n, dtype=float)
    kj = kappa + j
    table = np.zeros((3, n + 1))  # column y: the sums of the terms j < y
    table[:, 1:] = np.log1p(j / kappa), 1.0 / kj, -1.0 / kj**2
    table[:, 1:] = _prefix_sums(table[:, 1:])
    out = table[:, np.minimum(y, n).astype(np.intp)]
    if top > SUM_CAP:  # the series terms below are exactly 0 where y <= SUM_CAP
        yc = np.maximum(y, SUM_CAP)
        u, v = 1.0 / (yc + kappa), 1.0 / (SUM_CAP + kappa)
        du = -(yc - SUM_CAP) * u * v  # 1/x - 1/a, x = y + k, a = SUM_CAP + k
        # Stirling's (x - 1/2) log x - x + 1/(12 x), its derivative log x -
        # 1/(2 x) - 1/(12 x^2) and the second, 1/x + 1/(2 x^2) + 1/(6 x^3)
        out[0] += ((yc + kappa - 0.5) * np.log1p(yc / kappa) - (yc - SUM_CAP)
                   - (SUM_CAP + kappa - 0.5) * np.log1p(SUM_CAP / kappa) + du / 12.0)
        out[1] = out[1] + np.log1p((yc - SUM_CAP) * v) - du / 2.0 - du * (u + v) / 12.0
        out[2] += du * (1.0 + (u + v) / 2.0 + (u * u + u * v + v * v) / 6.0)
    return out


class Nodes:
    """The kernels of l = y eta - n softplus(z) at every (y, z), y and n
    broadcasting against z, an n of None being the logistic's unit n, not
    multiplied by.  The arrays are reused in place: a fitter block holds
    few at once.  softplus is formed on first use, so the mode solver, which
    needs only s and r, takes no logarithm."""

    def __init__(self, y, z, n):
        self.y, self.n = y, n
        e = np.abs(z, out=np.empty(np.shape(z)))
        np.exp(np.negative(e, out=e), out=e)
        q = e + 1.0
        up = z >= 0.0
        self.s = np.where(up, 1.0, e)
        self.s /= q  # expit(z)
        self.r = np.where(up, e, 1.0)
        self.r /= q  # expit(-z), not 1 - s: s can round to 1
        self._z_e = z, e

    @functools.cached_property
    def softplus(self):
        """max(z, 0) + log1p(exp(-|z|)); z and e are let go once it is formed."""
        z, e = self._z_e
        del self._z_e
        out = np.maximum(z, 0.0)
        out += np.log1p(e, out=e)
        return out

    def loglik(self, eta):
        return self.y * eta - (self.softplus if self.n is None else self.n * self.softplus)

    def score_eta(self):
        return self.y - (self.s if self.n is None else self.n * self.s)

    def curvature(self):
        """-d2 l / d eta2 = n s r."""
        return (self.s if self.n is None else self.n * self.s) * self.r


class _Logistic:
    @staticmethod
    def kernel(y, eta, aux=None, log_aux=None):
        return Nodes(y, eta, None)

    @staticmethod
    def loglik(y, eta, aux=None):
        # log pmf of Bernoulli(expit(eta))
        return _Logistic.kernel(y, eta).loglik(eta)

    @staticmethod
    def fisher_weight(eta, aux=None):
        # p (1 - p) = expit(eta) expit(-eta): 1 / q times e / q, e = exp(-|eta|)
        # and q = 1 + e, so neither tail rounds to 0
        e = np.exp(-np.abs(eta))
        q = 1.0 + e
        return (1.0 / q) * (e / q)

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
    def kernel(y, eta, aux, log_aux=None):
        """`log_aux` is math.log(aux), given where aux holds one size per element."""
        return Nodes(y, eta - (math.log(aux) if log_aux is None else log_aux), y + aux)

    @staticmethod
    def loglik(y, eta, aux):
        const = gamma_sums(y, aux, 0) - gamma_sums(y, 1.0, 0)
        return const + _NegBinomial.kernel(y, eta, aux).loglik(eta)

    @staticmethod
    def fisher_weight(eta, aux, log_aux=None):
        """mu kappa / (mu + kappa); `log_aux` is np.log(aux), given where aux
        holds one size per element."""
        return aux * stable_expit(eta - (np.log(aux) if log_aux is None else log_aux))

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

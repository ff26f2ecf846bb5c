"""Gauss-Hermite integration over the Gaussian random intercept.

Rules follow the physicists' convention (weights sum to sqrt(pi) before any
change of variables).  sigma2 = 0 is a hard branch returning the integrand
at zero rather than a limit of the quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .families import stable_expit

DEFAULT_GH_NODES = 25
ZEGER_COEF = 0.346


@dataclass(frozen=True, eq=False)
class GHRule:
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=64)
def gh_rule(m: int) -> GHRule:
    """m-point Gauss-Hermite rule from the Hermite recurrence (Golub-Welsch)."""
    if m < 1:
        raise ValueError("node count m must be >= 1")
    nodes, weights = np.polynomial.hermite.hermgauss(m)
    return GHRule(nodes=nodes, weights=weights)


def logistic_normal_integral(eta0, sigma2: float, rule: GHRule | None = None):
    """E[expit(eta0 + b)] for b ~ N(0, sigma2); no closed form exists.

    Gauss-Hermite quadrature after b = sqrt(2 sigma2) t; exactly
    expit(eta0) when sigma2 = 0.  Broadcasts over eta0; a scalar eta0
    gives a float.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    eta0 = np.asarray(eta0, dtype=float)
    if sigma2 == 0.0:
        return stable_expit(eta0)
    rule = rule or gh_rule(DEFAULT_GH_NODES)
    vals = stable_expit(eta0[..., None] + np.sqrt(2.0 * sigma2) * rule.nodes)
    out = vals @ rule.weights / np.sqrt(np.pi)
    return out if out.ndim else float(out)


def zeger_attenuation(sigma2: float) -> float:
    """Attenuation constant c = (1 + 0.346 sigma2)^(-1/2)."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    return float((1.0 + ZEGER_COEF * sigma2) ** -0.5)


def zeger_mean(eta0, sigma2: float):
    """Closed-form surrogate expit(c * eta0) for the logistic-normal integral."""
    return stable_expit(zeger_attenuation(sigma2) * np.asarray(eta0, dtype=float))

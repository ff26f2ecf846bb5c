"""Group-mean estimation for random-intercept logistic and NB mixed models.

The names below are the documented API (see README, "Library use"); the
submodules hold the layers beneath it.
"""

from .conditional import PredictionStructure, conditional_estimates, factorize_structure
from .families import Family
from .fitter import FitConfig, fit
from .marginal import grad_mu_i, marginal_estimates, mu_hat_i
from .model import Dataset, ModelSpec, SubjectBlock, validate
from .quadrature import logistic_normal_integral, zeger_mean
from .simulate import generate_dataset, logistic_design, negbin_design, run_study

__all__ = [
    "Dataset",
    "Family",
    "FitConfig",
    "ModelSpec",
    "PredictionStructure",
    "SubjectBlock",
    "conditional_estimates",
    "factorize_structure",
    "fit",
    "generate_dataset",
    "grad_mu_i",
    "logistic_design",
    "logistic_normal_integral",
    "marginal_estimates",
    "mu_hat_i",
    "negbin_design",
    "run_study",
    "validate",
    "zeger_mean",
]

__version__ = "0.1.0"

"""Group-mean estimation for random-intercept logistic and NB mixed models."""

from .conditional import (
    PredictionStructure,
    build_prediction_structure,
    conditional_estimates,
    conditional_group_mean,
    conditional_group_variance,
    factorize_structure,
    mode_beta_jacobian,
    pi_direct,
    pi_inverse,
    predicted_eta,
    predicted_eta_rows,
    prediction_covariance,
    predictor_at_mean_covariate,
)
from .families import Family
from .fitter import (
    FitConfig,
    FittedModel,
    conditional_mode,
    fit,
    marginal_loglik,
    posterior_mean_effects,
    subject_scores,
)
from .io import ColumnMapping, InputError, read_dataset
from .marginal import (
    GroupMeanEstimate,
    Interval,
    MeanKind,
    ci_direct,
    ci_inverse_log,
    ci_inverse_logit,
    ci_lognormal,
    grad_mu_i,
    marginal_estimates,
    marginal_group_mean,
    marginal_group_variance,
    mean_at_mean_covariate,
    mu_hat_i,
    mu_hat_variance,
)
from .model import (
    Dataset,
    GroupIndex,
    ModelSpec,
    ParamVector,
    SubjectBlock,
    Violation,
    validate,
)
from .quadrature import (
    DEFAULT_GH_NODES,
    GHRule,
    expect_over_normal,
    gh_rule,
    logistic_normal_integral,
    zeger_attenuation,
    zeger_mean,
)
from .simulate import (
    SimDesign,
    SimGroupSummary,
    SimReport,
    generate_dataset,
    generate_replication,
    group_label,
    logistic_design,
    negbin_design,
    run_study,
    true_marginal_means,
)

__version__ = "0.1.0"

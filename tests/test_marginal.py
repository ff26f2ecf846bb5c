"""Marginal group means, delta-method variances, and the three CI families.

Oracles: central finite differences for gradients, an explicit pairwise
covariance_sum for the group variance, Monte Carlo sampling for the
lognormal-sum variance, and CDF root-finding for the lognormal quantiles.
"""

import mpmath
import numpy as np
import pytest

from glmm_means import Dataset, Family, SubjectBlock, grad_mu_i, marginal_estimates, mu_hat_i
from glmm_means.families import stable_expit
from glmm_means.marginal import (
    _NORMAL,
    ci_direct,
    ci_inverse_log,
    ci_inverse_logit,
    ci_lognormal,
)

from conftest import manual_fitted, plugin_gradients, toy_dataset


def fitted_at(family, beta, sigma2, kappa=None, cov=None, **toy_kwargs):
    ds = toy_dataset(family, **toy_kwargs)
    return manual_fitted(ds, family, beta, sigma2, kappa=kappa, cov=cov)


# ---- plug-in means ---------------------------------------------------------


def test_logistic_mean_without_attenuation():
    f = fitted_at(Family.LOGISTIC, beta=(0.8, -0.1), sigma2=0.0)
    x = np.array([1.0, 2.0])
    assert mu_hat_i(f, x) == pytest.approx(stable_expit(0.6), abs=1e-14)


def test_logistic_mean_is_half_at_zero_eta():
    f = fitted_at(Family.LOGISTIC, beta=(0.0, 0.0), sigma2=0.7)
    assert mu_hat_i(f, [1.0, 3.0]) == pytest.approx(0.5, abs=1e-14)


def test_negbin_mean_closed_form():
    f = fitted_at(Family.NEGBIN, beta=(0.3, 0.0), sigma2=0.01, kappa=50.0)
    # exp(0.3 + 0.005)
    assert mu_hat_i(f, [1.0, 0.0]) == pytest.approx(1.3566250030062241, abs=1e-12)


def test_logistic_mean_uses_zeger_attenuation():
    f = fitted_at(Family.LOGISTIC, beta=(1.7, 0.0), sigma2=0.25)
    assert mu_hat_i(f, [1.0, 0.0]) == pytest.approx(0.836296349082125, abs=1e-12)


# ---- gradients ----------------------------------------------------------------


def test_logistic_sigma_gradient_vanishes_at_zero_eta():
    f = fitted_at(Family.LOGISTIC, beta=(0.0, 0.0), sigma2=0.4)
    g = grad_mu_i(f, [1.0, -2.0])
    assert g[-1] == pytest.approx(0.0, abs=1e-15)


def test_negbin_beta_gradient_is_mu_times_x():
    f = fitted_at(Family.NEGBIN, beta=(0.4, -0.3), sigma2=0.04, kappa=9.0)
    x = np.array([1.0, 0.7])
    g = grad_mu_i(f, x)
    np.testing.assert_allclose(g[:2], mu_hat_i(f, x) * x, rtol=1e-12)
    assert g[2] == pytest.approx(mu_hat_i(f, x) * f.params.sigma, rel=1e-12)


@pytest.mark.parametrize("family,kappa", [(Family.LOGISTIC, None), (Family.NEGBIN, 7.0)])
def test_gradients_match_finite_differences(family, kappa):
    rng = np.random.default_rng(8)
    ds = toy_dataset(family, K=6, seed=15)
    for _ in range(20):
        beta = rng.normal(0.0, 0.6, 2)
        sigma = rng.uniform(0.1, 0.9)
        x = np.array([1.0, rng.uniform(-1, 1)])

        def mu_at(b0, b1, s):
            f = manual_fitted(ds, family, (b0, b1), s * s, kappa=kappa, gh_nodes=1)
            return mu_hat_i(f, x)

        f = manual_fitted(ds, family, beta, sigma**2, kappa=kappa, gh_nodes=1)
        g = grad_mu_i(f, x)
        h = 1e-6
        fd = np.array(
            [
                (mu_at(beta[0] + h, beta[1], sigma) - mu_at(beta[0] - h, beta[1], sigma)) / (2 * h),
                (mu_at(beta[0], beta[1] + h, sigma) - mu_at(beta[0], beta[1] - h, sigma)) / (2 * h),
                (mu_at(beta[0], beta[1], sigma + h) - mu_at(beta[0], beta[1], sigma - h)) / (2 * h),
            ]
        )
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-10)


# ---- group means -----------------------------------------------------------------


def test_group_mean_of_identical_rows_equals_pointwise_mean():
    ds = toy_dataset(Family.LOGISTIC, K=4, n=2, seed=3)
    f = manual_fitted(ds, Family.LOGISTIC, (0.5, 0.0), 0.3)
    # beta has no slope, so every row gives the same plug-in value
    assert marginal_estimates(f)["g0"].point == pytest.approx(mu_hat_i(f, ds.X[0]), rel=1e-14)


def test_group_mean_hand_average():
    f = fitted_at(Family.LOGISTIC, beta=(0.0, 1.0), sigma2=0.0)
    ds = f.dataset
    idx = ds.group_index.indices["g0"]
    expected = float(np.mean(stable_expit(ds.X[idx] @ f.params.beta)))
    assert marginal_estimates(f)["g0"].point == pytest.approx(expected, rel=1e-14)


def test_group_mean_invariant_under_member_permutation():
    ds = toy_dataset(Family.LOGISTIC, K=8, seed=31)
    f1 = manual_fitted(ds, Family.LOGISTIC, (0.2, -0.5), 0.25)
    flipped = type(ds)(ds.subjects[::-1])
    f2 = manual_fitted(flipped, Family.LOGISTIC, (0.2, -0.5), 0.25)
    assert marginal_estimates(f1)["g0"].point == pytest.approx(marginal_estimates(f2)["g0"].point,
                                                               rel=1e-12)


def test_zeger_group_mean_converges_to_quadrature_as_sigma_vanishes():
    ds = toy_dataset(Family.LOGISTIC, K=6, seed=4)
    f = manual_fitted(ds, Family.LOGISTIC, (0.3, -0.8), 1e-10)
    exact = float(np.mean(stable_expit(ds.X[ds.group_index.indices["g0"]] @ f.params.beta)))
    assert marginal_estimates(f)["g0"].point == pytest.approx(exact, abs=1e-9)


# ---- group variance ---------------------------------------------------------------


def test_zero_covariance_gives_zero_variance():
    f = fitted_at(Family.LOGISTIC, beta=(0.2, 0.1), sigma2=0.2)
    assert marginal_estimates(f)["g0"].variance == 0.0


def _random_cov(rng, dim, scale=0.02):
    a = rng.normal(0.0, scale, (dim, dim))
    return a @ a.T


def test_logistic_variance_equals_explicit_pairwise_sum():
    rng = np.random.default_rng(5)
    cov = _random_cov(rng, 3)
    f = fitted_at(Family.LOGISTIC, beta=(0.3, -0.6), sigma2=0.2, cov=cov)
    ds = f.dataset
    idx = ds.group_index.indices["g1"]
    grads = plugin_gradients(f, ds.X[idx])
    n = len(idx)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += float(grads[i] @ cov @ grads[j])
    assert marginal_estimates(f)["g1"].variance == pytest.approx(total / n**2, rel=1e-12)


def test_negbin_singleton_group_is_lognormal_variance():
    rng = np.random.default_rng(6)
    cov = _random_cov(rng, 3)
    ds = toy_dataset(Family.NEGBIN, K=1, n=1, seed=8)
    f = manual_fitted(ds, Family.NEGBIN, (0.4, -0.2), 0.09, kappa=12.0, cov=cov)
    gid = ds.group_labels[0]
    x = ds.X[0]
    nu = float(x @ f.params.beta) + 0.045
    g = np.append(x, 0.5)
    s2 = float(g @ cov @ g)
    oracle = np.exp(2 * nu + s2) * (np.exp(s2) - 1.0)
    assert marginal_estimates(f)[gid].variance == pytest.approx(oracle, rel=1e-12)


def _dense_negbin_variance(f, gid):
    """The N_q x N_q lognormal-sum formula over every pair of group rows."""
    rows = f.dataset.X[f.dataset.group_index.indices[gid]]
    n = rows.shape[0]
    g = np.hstack([rows, np.full((n, 1), 0.5)])
    s = g @ f.cov_beta_sigma2 @ g.T
    nu = rows @ f.params.beta + f.params.sigma2 / 2.0
    amp = np.exp(nu + 0.5 * np.diag(s))
    return float(np.sum(np.outer(amp, amp) * np.expm1(s))) / n**2


@pytest.mark.parametrize("baseline", ["uniform", "bernoulli"])
def test_negbin_collapsed_variance_matches_dense_pair_sum(baseline, monkeypatch):
    # uniform baselines make every row unique; Bernoulli ones repeat the
    # same few rows; a small block size makes the sum run over many blocks
    import glmm_means.marginal as marginal

    monkeypatch.setattr(marginal, "_PAIR_BLOCK", 500)
    rng = np.random.default_rng(19)
    subjects = []
    for i in range(60):
        n = int(rng.integers(1, 5))
        x = rng.uniform(0.0, 1.0, n) if baseline == "uniform" else rng.binomial(1, 0.4, n)
        X = np.column_stack([np.ones(n), x, np.full(n, float(i % 2))])
        subjects.append(
            SubjectBlock(subject_id=f"s{i}", y=np.ones(n), X=X, groups=tuple("q" for _ in range(n)))
        )
    ds = Dataset(subjects)
    f = manual_fitted(ds, Family.NEGBIN, (0.3, -0.5, 0.4), 0.16, kappa=6.0, cov=_random_cov(rng, 4))
    n_unique = np.unique(ds.X, axis=0).shape[0]
    assert (n_unique == ds.n_obs) == (baseline == "uniform")
    assert marginal_estimates(f)["q"].variance == pytest.approx(_dense_negbin_variance(f, "q"),
                                                                rel=1e-12)


def test_negbin_variance_against_monte_carlo_lognormal_sum():
    # Lemma-style check: the formula matches direct simulation of a sum of
    # correlated lognormals
    rng = np.random.default_rng(11)
    n = 3
    mean = np.array([0.2, 0.4, -0.1])
    a = rng.normal(0.0, 0.12, (n, n))
    cov = a @ a.T
    draws = rng.multivariate_normal(mean, cov, size=400_000)
    sums = np.exp(draws).sum(axis=1)
    mc = sums.var()
    formula = 0.0
    for i in range(n):
        for j in range(n):
            formula += np.exp(mean[i] + mean[j] + 0.5 * (cov[i, i] + cov[j, j])) * (
                np.exp(cov[i, j]) - 1.0
            )
    assert formula == pytest.approx(mc, rel=0.03)


def test_negative_variance_clamps_with_warning():
    cov = -0.01 * np.eye(3)  # deliberately invalid covariance
    f = fitted_at(Family.LOGISTIC, beta=(0.3, 0.2), sigma2=0.2, cov=cov)
    with pytest.warns(RuntimeWarning, match="clamped to 0"):
        assert marginal_estimates(f)["g0"].variance == 0.0


# ---- benchmark estimator ------------------------------------------------------------


def test_mean_at_mean_covariate_equals_group_mean_for_identical_rows():
    ds = toy_dataset(Family.LOGISTIC, K=5, n=2, seed=9)
    f = manual_fitted(ds, Family.LOGISTIC, (0.4, 0.0), 0.3)
    est = marginal_estimates(f)["g0"]
    assert est.star == pytest.approx(est.point, rel=1e-14)


def test_mean_at_mean_covariate_jensen_gap():
    # with a slope, averaging before the nonlinearity shifts the estimate
    f = fitted_at(Family.LOGISTIC, beta=(0.1, 2.5), sigma2=0.25)
    est = marginal_estimates(f)["g0"]
    assert est.star != pytest.approx(est.point, abs=1e-4)


# ---- intervals ------------------------------------------------------------------------


def test_normal_quantile_matches_mpmath():
    # statistics.NormalDist (Wichura's AS241) against sqrt(2) erfinv(2p - 1)
    # at the float p, for p = alpha / 2 and 1 - alpha / 2.  Over this grid it
    # is off by up to 4.3 ulp (at p = 0.312); scipy's ndtri, which it
    # replaces, by up to 3.5 ulp
    alphas = np.concatenate([np.linspace(1e-6, 1.0, 2001), np.geomspace(1e-12, 1e-3, 200)])
    worst = 0.0
    with mpmath.workdps(40):
        for p in np.concatenate([alphas / 2.0, 1.0 - alphas / 2.0]):
            want = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)
            err = abs(mpmath.mpf(_NORMAL.inv_cdf(p)) - want)
            worst = max(worst, float(err) / np.spacing(abs(float(want))) if want else float(err))
    assert worst <= 5.0


def test_direct_interval_values():
    iv = ci_direct(0.5, 0.0004, 0.05)
    assert iv.lower == pytest.approx(0.46080072030919894, abs=1e-12)
    assert iv.upper == pytest.approx(0.5391992796908011, abs=1e-12)


def test_direct_interval_degenerate_cases():
    assert ci_direct(0.3, 0.0, 0.05) == ci_direct(0.3, 0.0, 0.05)
    iv = ci_direct(0.3, 0.0, 0.05)
    assert iv.lower == iv.upper == 0.3
    iv = ci_direct(0.3, 0.01, 1.0)  # alpha = 1 -> z = 0
    assert iv.lower == iv.upper == pytest.approx(0.3)


def test_inverse_logit_interval_values():
    iv = ci_inverse_logit(0.5, 0.0004, 0.05)
    assert iv.lower == pytest.approx(0.46088083397614077, abs=1e-12)
    assert iv.upper == pytest.approx(0.5391191660238592, abs=1e-12)


def test_inverse_logit_interval_stays_inside_unit_interval():
    for point in (0.05, 0.5, 0.95):
        for var in (1e-6, 0.01, 0.2):
            iv = ci_inverse_logit(point, var, 0.05)
            assert 0.0 < iv.lower <= point <= iv.upper < 1.0


def test_inverse_logit_rejects_boundary_points():
    with pytest.raises(ValueError):
        ci_inverse_logit(0.0, 0.01, 0.05)
    with pytest.raises(ValueError):
        ci_inverse_logit(1.0, 0.01, 0.05)


def test_inverse_log_interval_values():
    iv = ci_inverse_log(1.665, 0.0064, 0.05)
    assert iv.lower == pytest.approx(1.5153594624036002, abs=1e-10)
    assert iv.upper == pytest.approx(1.829417421265059, abs=1e-10)


def test_inverse_log_interval_positive_lower_bound():
    iv = ci_inverse_log(0.01, 4.0, 0.05)
    assert iv.lower > 0.0


def test_inverse_log_degenerate():
    iv = ci_inverse_log(2.0, 0.0, 0.05)
    assert iv.lower == iv.upper == 2.0


def _normal_cdf(x):
    from math import erf, sqrt

    return 0.5 * (1.0 + erf(x / sqrt(2.0)))


def _lognormal_quantile_by_bisection(m, s, q, lo=1e-12, hi=1e12, iters=200):
    for _ in range(iters):
        mid = np.sqrt(lo * hi)  # geometric bisection suits the log scale
        if _normal_cdf((np.log(mid) - m) / s) < q:
            lo = mid
        else:
            hi = mid
    return np.sqrt(lo * hi)


def test_lognormal_interval_matches_cdf_inversion():
    point, var, n = 1.665, 0.0064, 200
    iv = ci_lognormal(point, var, n, 0.05)
    s2 = np.log1p(var / point**2)
    m = np.log(n * point) - s2 / 2.0
    s = np.sqrt(s2)
    lo = _lognormal_quantile_by_bisection(m, s, 0.025) / n
    hi = _lognormal_quantile_by_bisection(m, s, 0.975) / n
    assert iv.lower == pytest.approx(lo, abs=1e-8)
    assert iv.upper == pytest.approx(hi, abs=1e-8)


def test_lognormal_interval_approaches_inverse_log_as_variance_shrinks():
    point, n = 1.665, 200
    var = 1e-10
    log_iv = ci_inverse_log(point, var, 0.05)
    ln_iv = ci_lognormal(point, var, n, 0.05)
    assert ln_iv.lower == pytest.approx(log_iv.lower, abs=1e-7)
    assert ln_iv.upper == pytest.approx(log_iv.upper, abs=1e-7)


def test_lognormal_interval_brackets_the_point():
    iv = ci_lognormal(1.665, 0.0064, 200, 0.05)
    assert iv.lower < 1.665 < iv.upper


def test_lognormal_interval_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        ci_lognormal(0.0, 0.01, 10, 0.05)
    with pytest.raises(ValueError):
        ci_lognormal(1.0, 0.0, 10, 0.05)


@pytest.mark.parametrize("alpha", [0.5, 0.2, 0.05, 0.01])
def test_all_negbin_intervals_contain_the_point(alpha):
    rng = np.random.default_rng(19)
    cov = _random_cov(rng, 3, scale=0.05)
    f = fitted_at(Family.NEGBIN, beta=(0.5, -0.2), sigma2=0.04, kappa=20.0, cov=cov)
    for est in marginal_estimates(f, alpha).values():
        for label, iv in est.intervals.items():
            assert iv.lower <= est.point <= iv.upper, (label, alpha)


def test_marginal_estimates_have_family_appropriate_intervals():
    f_log = fitted_at(Family.LOGISTIC, beta=(0.1, 0.1), sigma2=0.2, cov=0.001 * np.eye(3))
    f_nb = fitted_at(Family.NEGBIN, beta=(0.1, 0.1), sigma2=0.04, kappa=15.0, cov=0.001 * np.eye(3))
    for est in marginal_estimates(f_log).values():
        assert set(est.intervals) == {"direct", "inverse"}
        assert 0.0 < est.point < 1.0
    for est in marginal_estimates(f_nb).values():
        assert set(est.intervals) == {"direct", "inverse", "lognormal"}
        assert est.point > 0.0

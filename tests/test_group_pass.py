"""Every group's estimates from one pass over the rows, against the per-group oracles.

`marginal_estimates` and `conditional_estimates` serve all groups at once;
the oracles in conftest.py compute one group at a time from its own rows,
as the package did before.  Both must agree to 1e-12 relative on every
point, variance, interval end and benchmark estimator.
"""

import tracemalloc

import numpy as np
import pytest

from glmm_means import (Dataset, Family, FitConfig, ModelSpec, SubjectBlock, conditional_estimates,
                        fit, marginal_estimates)
from glmm_means.fitter import LOG_SIGMA2_BOUNDS
from glmm_means.marginal import Interval, ci_lognormal, wald_intervals

from conftest import (conditional_group_mean, conditional_group_variance, manual_fitted,
                      marginal_group_mean, marginal_group_variance, mean_at_mean_covariate,
                      mu_hat_variance, predictor_at_mean_covariate)

RTOL = 1e-12
SIGMA2_FLOOR = float(np.exp(LOG_SIGMA2_BOUNDS[0]))


def spanning_dataset(family, seed, sigma=0.0):
    """60 subjects of 1-5 rows whose rows fall in three groups at random, so
    subjects span groups; row weights in [0.5, 2]; and one subject whose
    single row is the group "solo"."""
    rng = np.random.default_rng(seed)
    subjects = []
    for i in range(60):
        n = int(rng.integers(1, 6))
        X = np.column_stack([np.ones(n), rng.uniform(-1, 1, n), rng.binomial(1, 0.5, n)])
        eta = X @ np.array([0.2, -0.6, 0.5]) + rng.normal(0, sigma)
        if family is Family.LOGISTIC:
            y = rng.binomial(1, 1 / (1 + np.exp(-eta)))
        else:
            y = rng.negative_binomial(6.0, 6.0 / (6.0 + np.exp(eta)))
        groups = tuple(f"g{int(g)}" for g in rng.integers(0, 3, n))
        subjects.append(SubjectBlock(f"s{i}", y.astype(float), X, groups, rng.uniform(0.5, 2.0, n)))
    subjects.append(SubjectBlock("solo", np.array([1.0]), np.array([[1.0, 0.3, 1.0]]), ("solo",),
                                 np.array([1.7])))
    return Dataset(subjects)


def _fitted(family, case):
    """An interior fit, a fit that ends on the sigma2 bound, and parameters
    set on the bound by hand with a random covariance."""
    if case == "manual-floor":
        rng = np.random.default_rng(3)
        dim = 5 if family is Family.NEGBIN else 4
        a = rng.normal(0.0, 0.05, (dim, dim))
        return manual_fitted(spanning_dataset(family, 4), family, (0.1, -0.5, 0.4), SIGMA2_FLOOR,
                             kappa=6.0 if family is Family.NEGBIN else None, cov=a @ a.T)
    seed, sigma = {"interior": (0, 0.6), "fit-floor": (11 if family is Family.LOGISTIC else 12, 0.0)}[case]
    fitted = fit(spanning_dataset(family, seed, sigma), ModelSpec(family, 3), FitConfig())
    assert fitted.converged
    assert (fitted.params.sigma2 == SIGMA2_FLOOR) == (case == "fit-floor")
    return fitted


def _ends(intervals):
    return {label: (iv.lower, iv.upper) for label, iv in intervals.items()}


@pytest.mark.parametrize("case", ["interior", "fit-floor", "manual-floor"])
@pytest.mark.parametrize("family", [Family.LOGISTIC, Family.NEGBIN])
def test_one_pass_matches_the_per_group_oracles(family, case):
    f = _fitted(family, case)
    ds = f.dataset
    marg, cond = marginal_estimates(f), conditional_estimates(f)
    assert list(marg) == list(cond) == list(ds.group_index.group_ids)
    assert ds.group_index.sizes["solo"] == 1
    for gid, idx in ds.group_index.indices.items():
        m, c = marg[gid], cond[gid]
        assert m.n_obs == c.n_obs == idx.size
        point, variance = marginal_group_mean(f, gid), max(marginal_group_variance(f, gid), 0.0)
        want = wald_intervals(family, point, variance, 0.05)
        if family is Family.NEGBIN:
            want["lognormal"] = (ci_lognormal(point, variance, idx.size) if variance > 0
                                 else Interval(point, point, 0.95))
        got = [m.point, m.variance, m.star, m.star_variance, *np.ravel(list(_ends(m.intervals).values()))]
        oracle = [point, variance, mean_at_mean_covariate(f, gid),
                  mu_hat_variance(f, ds.X[idx].mean(axis=0)), *np.ravel(list(_ends(want).values()))]
        assert list(_ends(m.intervals)) == list(_ends(want))
        np.testing.assert_allclose(got, oracle, rtol=RTOL, atol=0.0, err_msg=f"marginal {gid}")

        point, variance = conditional_group_mean(f, gid), conditional_group_variance(f, gid)
        want = wald_intervals(family, point, variance, 0.05)
        got = [c.point, c.variance, c.star, *np.ravel(list(_ends(c.intervals).values()))]
        oracle = [point, variance, predictor_at_mean_covariate(f, gid),
                  *np.ravel(list(_ends(want).values()))]
        assert list(_ends(c.intervals)) == list(_ends(want)) and c.star_variance is None
        np.testing.assert_allclose(got, oracle, rtol=RTOL, atol=0.0, err_msg=f"conditional {gid}")


def test_conditional_variance_memory_is_linear_in_rows_and_subjects():
    # 200 groups x 20 000 subjects: one G x K float array alone would be 32 MB;
    # the pass keeps a few (N, p) arrays and the (K, p) border
    rng = np.random.default_rng(0)
    K, G = 20_000, 200
    subj = np.repeat(np.arange(K), 2)
    N, p = subj.size, 3
    X = np.column_stack([np.ones(N), rng.uniform(-1, 1, N), rng.binomial(1, 0.5, N)])
    ds = Dataset.from_codes([f"s{k}" for k in range(K)], subj, rng.binomial(1, 0.5, N), X, None,
                            [f"g{g}" for g in range(G)], rng.integers(0, G, N))
    f = manual_fitted(ds, Family.LOGISTIC, (0.1, -0.4, 0.3), 0.5)
    conditional_estimates(f)  # first-call allocations (imports, caches) stay out of the count
    tracemalloc.start()
    try:
        conditional_estimates(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * (N + K * p) < 8 * G * K / 2


def test_conditional_peak_at_200_000_rows_stays_within_ten_row_arrays():
    # the CI scale run's shape: K = 1e5 subjects x 2 rows, grouped by t.  The
    # pass reads the (group, subject) pairs in group_index order, releases
    # eta and the weights before the solve and gathers B a column at a time:
    # 16 MB is ten row-length float arrays (it read 25.6 MB with a sort of
    # N keys and a (pairs, p) gather of B)
    rng = np.random.default_rng(1)
    K = 100_000
    t = np.tile([0, 1], K)
    X = np.column_stack([np.ones(2 * K), rng.uniform(-1, 1, 2 * K), t])
    ds = Dataset.from_codes([f"s{k}" for k in range(K)], np.repeat(np.arange(K), 2),
                            rng.binomial(1, 0.4, 2 * K), X, None, ["0", "1"], t)
    f = manual_fitted(ds, Family.LOGISTIC, (-0.5, 0.8, 0.4), 0.49, gh_nodes=1)
    conditional_estimates(f)
    tracemalloc.start()
    try:
        conditional_estimates(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6

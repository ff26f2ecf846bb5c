"""Predicted group means, the arrowhead prediction covariance, and PIs.

On an identity-link Gaussian model the whole construction is exact and must
reproduce Henderson's mixed-model-equation results; those oracles are built
here from scratch (explicit matrix inverses, loops, no shared code paths).
The dense (p+K)^2 mixed-model system is the oracle for the Schur-complement
solve on every family.
"""

import dataclasses

import numpy as np
import pytest

from glmm_means import (
    Dataset,
    Family,
    PredictionStructure,
    SubjectBlock,
    conditional_estimates,
    factorize_structure,
)
from glmm_means.conditional import build_prediction_structure, predicted_eta_rows
from glmm_means.families import family_ops, stable_expit
from glmm_means.fitter import _Workspace
from glmm_means.marginal import ci_inverse_log, wald_intervals

from conftest import (GAUSSIAN_OPS, conditional_group_mean, manual_fitted, marginal_group_mean,
                      solve_modes, toy_dataset)


def group_covariance(fitted, group_id):
    """(X_q; Z_q)' M^{-1} (X_q; Z_q) of one group through the arrowhead solve."""
    fac = factorize_structure(build_prediction_structure(fitted))
    cols = fac.design_columns(fitted.dataset.group_index.indices[group_id])
    return cols.T @ fac.solve(cols)


# ---- predictors -----------------------------------------------------------------


def test_predicted_eta_without_random_effect_is_fixed_part():
    ds = toy_dataset(Family.LOGISTIC, K=5, seed=2)
    f = manual_fitted(ds, Family.LOGISTIC, (0.4, -0.7), 0.0)
    np.testing.assert_array_equal(predicted_eta_rows(f), ds.X @ f.params.beta)


def test_unknown_group_is_a_key_error():
    # GroupIndex.rows names the group; the per-group oracles look rows up through it
    ds = toy_dataset(Family.LOGISTIC, K=3, seed=2)
    f = manual_fitted(ds, Family.LOGISTIC, (0.1, 0.1), 0.2)
    with pytest.raises(KeyError, match="unknown group 'nope'"):
        ds.group_index.rows("nope")
    for estimator in (conditional_group_mean, marginal_group_mean):
        with pytest.raises(KeyError, match="unknown group 'nope'"):
            estimator(f, "nope")


def test_balanced_binary_subject_has_zero_mode():
    sb = SubjectBlock(
        subject_id="s0",
        y=np.array([1.0, 0.0]),
        X=np.array([[1.0, 0.0], [1.0, 0.0]]),
        groups=("g", "g"),
    )
    ds = Dataset([sb])
    f = manual_fitted(ds, Family.LOGISTIC, (0.0, 0.0), 0.25)
    assert f.cond_modes[0] == pytest.approx(0.0, abs=1e-10)


def _gaussian_toy(rng, K, n):
    subjects = []
    for i in range(K):
        x = np.column_stack([np.ones(n), rng.uniform(-1, 1, n)])
        y = x @ np.array([0.5, -1.0]) + rng.normal(0, 0.6) + rng.normal(0, 1, n)
        subjects.append(
            SubjectBlock(subject_id=f"s{i}", y=y, X=x, groups=tuple("q" for _ in range(n)))
        )
    return Dataset(subjects)


def _henderson_solution(ds, beta, sigma2):
    """Mixed-model equations solved by explicit inversion: returns (b_hat, Minv)."""
    X, y, subj, K = ds.X, ds.y, np.asarray(ds.subject_index), ds.n_subjects
    Z = np.zeros((ds.n_obs, K))
    Z[np.arange(ds.n_obs), subj] = 1.0
    M = np.block(
        [
            [X.T @ X, X.T @ Z],
            [Z.T @ X, Z.T @ Z + np.eye(K) / sigma2],
        ]
    )
    Minv = np.linalg.inv(M)
    # BLUP of b at known beta: solve the random-effect block only
    b_hat = np.linalg.solve(Z.T @ Z + np.eye(K) / sigma2, Z.T @ (y - X @ beta))
    return b_hat, Minv, Z


def test_gaussian_modes_equal_blup():
    rng = np.random.default_rng(42)
    ds = _gaussian_toy(rng, K=6, n=2)
    beta = np.array([0.5, -1.0])
    sigma2 = 0.36
    ws = _Workspace(ds, Family.LOGISTIC, 1)
    ws.ops = GAUSSIAN_OPS
    modes, _ = solve_modes(ws, beta, sigma2)
    b_blup, _, _ = _henderson_solution(ds, beta, sigma2)
    np.testing.assert_allclose(modes, b_blup, atol=1e-8)
    # and the per-observation predictor matches the BLUP linear predictor
    eta = ds.X @ beta + modes[np.asarray(ds.subject_index)]
    eta_blup = ds.X @ beta + b_blup[np.asarray(ds.subject_index)]
    np.testing.assert_allclose(eta, eta_blup, atol=1e-8)


def test_prediction_covariance_matches_henderson():
    rng = np.random.default_rng(7)
    ds = _gaussian_toy(rng, K=20, n=3)
    sigma2 = 0.5
    struct = PredictionStructure(
        X=ds.X,
        subject_index=np.asarray(ds.subject_index),
        weights=np.ones(ds.n_obs),
        sigma2=sigma2,
        n_subjects=ds.n_subjects,
    )
    fac = factorize_structure(struct)
    idx = ds.group_index.indices["q"]
    rhs = fac.design_columns(idx)
    ours = rhs.T @ fac.solve(rhs)

    _, Minv, Z = _henderson_solution(ds, np.array([0.5, -1.0]), sigma2)
    oracle = np.empty((len(idx), len(idx)))
    for a, i in enumerate(idx):
        ci = np.concatenate([ds.X[i], Z[i]])
        for b, j in enumerate(idx):
            cj = np.concatenate([ds.X[j], Z[j]])
            oracle[a, b] = float(ci @ Minv @ cj)
    np.testing.assert_allclose(ours, oracle, atol=1e-8)


def test_prediction_covariance_equals_naive_plus_correction():
    # block-matrix result decomposes into the naive variance plus the
    # information-matrix correction assembled term by term
    ds = toy_dataset(Family.LOGISTIC, K=3, n=2, seed=13)
    f = manual_fitted(ds, Family.LOGISTIC, (0.3, -0.4), 0.5)
    struct = build_prediction_structure(f)
    K, p, N = ds.n_subjects, ds.p, ds.n_obs
    Z = np.zeros((N, K))
    Z[np.arange(N), np.asarray(ds.subject_index)] = 1.0
    W = np.diag(struct.weights)
    G = np.eye(K) * f.params.sigma2
    D = Z.T @ W @ Z + np.linalg.inv(G)
    Dinv = np.linalg.inv(D)
    info = ds.X.T @ np.linalg.inv(np.linalg.inv(W) + Z @ G @ Z.T) @ ds.X

    i = int(ds.group_index.indices["g0"][0])
    x_i, z_i = ds.X[i], Z[i]
    naive = float(z_i @ Dinv @ z_i)
    db_dbeta = -Dinv @ Z.T @ W @ ds.X
    a_i = x_i + db_dbeta.T @ z_i
    correction = float(a_i @ np.linalg.inv(info) @ a_i)

    fac = factorize_structure(struct)
    rhs = fac.design_columns(np.array([i]))
    ours = float((rhs.T @ fac.solve(rhs))[0, 0])
    assert ours == pytest.approx(naive + correction, rel=1e-10)


def _dense_inverse(struct):
    """M^{-1} of the dense (p+K)^2 mixed-model system, by explicit inversion.

    At sigma2 = 0 the random block is dropped: the inverse is (X'WX)^{-1}
    padded with zeros.
    """
    X, w, subj, K, p = struct.X, struct.weights, struct.subject_index, struct.n_subjects, struct.p
    xwx = X.T @ (w[:, None] * X)
    minv = np.zeros((p + K, p + K))
    if struct.sigma2 == 0.0:
        minv[:p, :p] = np.linalg.inv(xwx)
        return minv
    Z = np.zeros((X.shape[0], K))
    Z[np.arange(X.shape[0]), subj] = 1.0
    m = np.block([[xwx, X.T @ (w[:, None] * Z)],
                  [Z.T @ (w[:, None] * X), Z.T @ (w[:, None] * Z) + np.eye(K) / struct.sigma2]])
    return np.linalg.inv(m)


def _dense_columns(struct, rows):
    Z = np.zeros((rows.shape[0], struct.n_subjects))
    Z[np.arange(rows.shape[0]), struct.subject_index[rows]] = 1.0
    return np.hstack([struct.X[rows], Z]).T


def _unequal_dataset(family, K=50, seed=3):
    """Three covariates, 1-6 rows per subject, two groups that cut across subjects."""
    rng = np.random.default_rng(seed)
    subjects = []
    for i in range(K):
        n = int(rng.integers(1, 7))
        X = np.column_stack([np.ones(n), rng.uniform(-1, 1, n), np.full(n, float(i % 2))])
        y = rng.binomial(1, 0.5, n) if family is Family.LOGISTIC else rng.poisson(2.0, n)
        groups = tuple("g0" if rng.uniform() < 0.5 else "g1" for _ in range(n))
        subjects.append(SubjectBlock(subject_id=f"s{i}", y=y.astype(float), X=X, groups=groups))
    return Dataset(subjects)


@pytest.mark.parametrize("sigma2", [0.7, 5e-10])
def test_arrowhead_solve_matches_dense_inverse(sigma2):
    rng = np.random.default_rng(5)
    ds = _unequal_dataset(Family.LOGISTIC)
    struct = PredictionStructure(
        X=ds.X,
        subject_index=np.asarray(ds.subject_index),
        weights=rng.uniform(0.05, 2.0, ds.n_obs),
        sigma2=sigma2,
        n_subjects=ds.n_subjects,
    )
    fac = factorize_structure(struct)
    minv = _dense_inverse(struct)
    rhs = rng.normal(size=(struct.p + ds.n_subjects, 4))
    np.testing.assert_allclose(fac.solve(rhs[:, 0]), minv @ rhs[:, 0], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(fac.solve(rhs), minv @ rhs, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("family, kappa", [(Family.LOGISTIC, None), (Family.NEGBIN, 4.0)])
@pytest.mark.parametrize("sigma2", [0.6, 1e-10, 0.0])
def test_group_covariance_and_variance_match_dense_oracle(family, kappa, sigma2):
    ds = _unequal_dataset(family)
    f = manual_fitted(ds, family, (0.2, -0.5, 0.3), sigma2, kappa=kappa)
    struct = build_prediction_structure(f)
    minv = _dense_inverse(struct)
    ops = family_ops(family)
    d_rows = ops.dinverse_link(predicted_eta_rows(f))
    # the batched solve over all rows, group q holding the rows of code q
    batched = factorize_structure(struct).variances(d_rows, ds.group_codes, ds.group_sizes.size)
    for q, gid in enumerate(ds.group_index.group_ids):
        idx = ds.group_index.indices[gid]
        cols = _dense_columns(struct, idx)
        oracle = cols.T @ minv @ cols
        np.testing.assert_allclose(group_covariance(f, gid), oracle, rtol=1e-10, atol=1e-14)
        d = d_rows[idx]
        var = float(d @ oracle @ d) / len(idx) ** 2
        assert conditional_estimates(f)[gid].variance == pytest.approx(var, rel=1e-10)
        assert batched[q] / len(idx) ** 2 == pytest.approx(var, rel=1e-10)


@pytest.mark.parametrize("sigma2", [1e-12, 1e-10, 1e-9, 2e-9, 0.5, 25.0])
def test_border_inverse_diagonal_is_exact_down_to_the_sigma2_bound(sigma2):
    # D^{-1} = sigma2 / (1 + sigma2 z'Wz) needs no cutoff below some sigma2:
    # it equals 1 / (z'Wz + 1 / sigma2) however small sigma2 is
    rng = np.random.default_rng(11)
    ds = _unequal_dataset(Family.LOGISTIC)
    struct = PredictionStructure(
        X=ds.X,
        subject_index=np.asarray(ds.subject_index),
        weights=rng.uniform(0.05, 2.0, ds.n_obs),
        sigma2=sigma2,
        n_subjects=ds.n_subjects,
    )
    ztwz = np.bincount(struct.subject_index, weights=struct.weights, minlength=ds.n_subjects)
    _, dinv = struct.border()
    np.testing.assert_allclose(dinv, 1.0 / (ztwz + 1.0 / sigma2), rtol=1e-14, atol=0.0)
    _, dinv = dataclasses.replace(struct, sigma2=0.0).border()
    np.testing.assert_array_equal(dinv, 0.0)


def test_singular_prediction_system_raises():
    # weights that vanish on every row where the covariate is nonzero leave
    # S singular; the factorization must say so rather than jitter S
    ds = _unequal_dataset(Family.LOGISTIC)
    struct = PredictionStructure(
        X=ds.X,
        subject_index=np.asarray(ds.subject_index),
        weights=np.where(ds.X[:, 2] == 1.0, 0.0, 1.0),
        sigma2=0.5,
        n_subjects=ds.n_subjects,
    )
    with pytest.raises(np.linalg.LinAlgError):
        factorize_structure(struct)


def test_prediction_covariance_is_symmetric_psd(logistic_toy_fit):
    gid = logistic_toy_fit.dataset.group_index.group_ids[0]
    c = group_covariance(logistic_toy_fit, gid)
    np.testing.assert_allclose(c, c.T, atol=1e-12)
    eig = np.linalg.eigvalsh(c)
    assert eig.min() >= -1e-8 * eig.max()


def test_prediction_variance_composes_with_covariance(logistic_toy_fit):
    f = logistic_toy_fit
    gid = f.dataset.group_index.group_ids[1]
    idx = f.dataset.group_index.indices[gid]
    c = group_covariance(f, gid)
    d = stable_expit(predicted_eta_rows(f)[idx])
    d = d * (1.0 - d)
    oracle = float(d @ c @ d) / len(idx) ** 2
    assert conditional_estimates(f)[gid].variance == pytest.approx(oracle, rel=1e-10)


def test_logistic_link_derivative_at_zero_is_quarter():
    ds = toy_dataset(Family.LOGISTIC, K=4, n=2, seed=3)
    f = manual_fitted(ds, Family.LOGISTIC, (0.0, 0.0), 1e-12)
    # all predicted etas are ~0, so the delta weights are all 0.25
    idx = f.dataset.group_index.indices["g0"]
    d = stable_expit(predicted_eta_rows(f)[idx])
    np.testing.assert_allclose(d * (1 - d), 0.25, atol=1e-6)


def test_prediction_variance_monotone_in_sigma2():
    ds = toy_dataset(Family.LOGISTIC, K=10, n=2, seed=17)
    diags = []
    for s2 in (0.25, 1.0, 4.0, 16.0):
        f = manual_fitted(ds, Family.LOGISTIC, (0.2, -0.3), s2)
        c = group_covariance(f, "g0")
        diags.append(np.diag(c).mean())
    assert np.all(np.diff(diags) > 0)


def test_sigma2_boundary_drops_random_block():
    ds = toy_dataset(Family.LOGISTIC, K=6, n=2, seed=23)
    f = manual_fitted(ds, Family.LOGISTIC, (0.4, -0.1), 0.0)
    idx = ds.group_index.indices["g0"]
    c = group_covariance(f, "g0")
    _, dinv = build_prediction_structure(f).border()
    np.testing.assert_array_equal(dinv, 0.0)  # no random-effect block
    # oracle: fixed-effects-only covariance X_q' (X'WX)^{-1} X_q
    eta = ds.X @ f.params.beta
    w = stable_expit(eta) * (1 - stable_expit(eta))
    info = ds.X.T @ (w[:, None] * ds.X)
    oracle = ds.X[idx] @ np.linalg.inv(info) @ ds.X[idx].T
    np.testing.assert_allclose(c, oracle, atol=1e-10)


# ---- group means and the benchmark -----------------------------------------------


def test_conditional_group_mean_of_constant_eta():
    ds = toy_dataset(Family.LOGISTIC, K=4, n=2, seed=3)
    f = manual_fitted(ds, Family.LOGISTIC, (0.9, 0.0), 0.0)
    assert conditional_estimates(f)["g0"].point == pytest.approx(stable_expit(0.9), abs=1e-12)


def test_conditional_group_mean_singleton():
    # a one-row group beside the rows of another, which make S nonsingular
    only = SubjectBlock(subject_id="solo", y=np.array([1.0]), X=np.array([[1.0, 0.3]]),
                        groups=("only",))
    ds = Dataset([only, *toy_dataset(Family.LOGISTIC, K=4, n=2, seed=3).subjects])
    f = manual_fitted(ds, Family.LOGISTIC, (0.2, 0.5), 0.4)
    eta = predicted_eta_rows(f)[0]
    assert conditional_estimates(f)["only"].point == pytest.approx(stable_expit(eta), rel=1e-12)


def test_predictor_at_mean_covariate_collapses_for_identical_rows():
    ds = toy_dataset(Family.LOGISTIC, K=6, n=2, seed=10)
    f = manual_fitted(ds, Family.LOGISTIC, (0.5, 0.0), 0.3)
    est = conditional_estimates(f)["g0"]
    assert est.star == pytest.approx(est.point, rel=1e-12)


def test_predictor_at_mean_covariate_degenerate_variance():
    ds = toy_dataset(Family.LOGISTIC, K=6, n=2, seed=10)
    f = manual_fitted(ds, Family.LOGISTIC, (0.5, 0.0), 0.0)
    idx = ds.group_index.indices["g0"]
    xbar = ds.X[idx].mean(axis=0)
    assert conditional_estimates(f)["g0"].star == pytest.approx(
        stable_expit(float(xbar @ f.params.beta)), rel=1e-12
    )


def test_conditional_variance_invariant_under_member_permutation():
    ds = toy_dataset(Family.LOGISTIC, K=8, seed=31)
    f1 = manual_fitted(ds, Family.LOGISTIC, (0.2, -0.5), 0.25)
    flipped = Dataset(ds.subjects[::-1])
    f2 = manual_fitted(flipped, Family.LOGISTIC, (0.2, -0.5), 0.25)
    assert conditional_estimates(f1)["g0"].variance == pytest.approx(
        conditional_estimates(f2)["g0"].variance, rel=1e-10
    )


# ---- prediction intervals ----------------------------------------------------------


def test_pi_direct_example():
    iv = wald_intervals(Family.LOGISTIC, 0.531, 0.000576, 0.05)["direct"]
    assert iv.lower == pytest.approx(0.4839608643710387, abs=1e-10)
    assert iv.upper == pytest.approx(0.5780391356289613, abs=1e-10)
    assert iv.upper - 0.531 == pytest.approx(0.531 - iv.lower, abs=1e-14)


def test_pi_direct_degenerate():
    iv = wald_intervals(Family.LOGISTIC, 0.4, 0.0, 0.05)["direct"]
    assert iv.lower == iv.upper == 0.4


def test_pi_inverse_logistic_symmetric_at_half():
    iv = wald_intervals(Family.LOGISTIC, 0.5, 0.0009, 0.05)["inverse"]
    assert iv.lower == pytest.approx(1.0 - iv.upper, abs=1e-12)


def test_pi_inverse_negbin_matches_log_transform():
    iv = wald_intervals(Family.NEGBIN, 1.665, 0.0069, 0.05)["inverse"]
    oracle = ci_inverse_log(1.665, 0.0069, 0.05)
    assert iv == oracle


def test_pi_inverse_respects_family_ranges():
    for point, var in ((0.05, 0.01), (0.5, 0.05), (0.95, 0.01)):
        iv = wald_intervals(Family.LOGISTIC, point, var, 0.05)["inverse"]
        assert 0.0 < iv.lower <= iv.upper < 1.0
    for point, var in ((0.2, 0.5), (3.0, 2.0)):
        iv = wald_intervals(Family.NEGBIN, point, var, 0.05)["inverse"]
        assert iv.lower > 0.0


def test_conditional_estimates_structure(negbin_toy_fit):
    ests = conditional_estimates(negbin_toy_fit, 0.05)
    for est in ests.values():
        assert set(est.intervals) == {"direct", "inverse"}
        assert est.kind.value == "conditional"
        assert est.variance >= 0.0

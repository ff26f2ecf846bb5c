"""Gauss-Hermite rules, the logistic-normal integral, and the Zeger surrogate.

The independent oracle throughout is dense trapezoid integration of the
integrand against the normal density.
"""

import numpy as np
import pytest

from glmm_means import logistic_normal_integral, zeger_mean
from glmm_means.families import stable_expit
from glmm_means.quadrature import gh_rule, zeger_attenuation

ETA_GRID = [-3.0, -1.0, 0.0, 1.0, 3.0]
SIGMA2_GRID = [0.01, 0.25, 1.0]


def trapezoid_normal_expectation(f, sigma2, n=200_001):
    s = np.sqrt(sigma2)
    b = np.linspace(-8.0 * s, 8.0 * s, n)
    dens = np.exp(-(b**2) / (2.0 * sigma2)) / np.sqrt(2.0 * np.pi * sigma2)
    return float(np.trapezoid(f(b) * dens, b))


def expect_over_normal(f, sigma2, m=25):
    """E[f(b)] for b ~ N(0, sigma2) by the m-point rule after b = sqrt(2 sigma2) t."""
    rule = gh_rule(m)
    return float(rule.weights @ f(np.sqrt(2.0 * sigma2) * rule.nodes) / np.sqrt(np.pi))


def test_rule_one_point():
    rule = gh_rule(1)
    assert rule.nodes == pytest.approx([0.0], abs=1e-15)
    assert rule.weights == pytest.approx([np.sqrt(np.pi)], abs=1e-14)


def test_rule_two_point_closed_form():
    rule = gh_rule(2)
    np.testing.assert_allclose(np.sort(rule.nodes), [-1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)
    np.testing.assert_allclose(rule.weights, np.sqrt(np.pi) / 2, atol=1e-14)


@pytest.mark.parametrize("m", [1, 2, 5, 20, 25, 60])
def test_rule_weight_sum_and_symmetry(m):
    rule = gh_rule(m)
    assert np.sum(rule.weights) == pytest.approx(np.sqrt(np.pi), abs=1e-12)
    np.testing.assert_allclose(np.sort(rule.nodes), -np.sort(rule.nodes)[::-1], atol=1e-12)
    assert np.all(rule.weights > 0)


def test_rule_rejects_zero_nodes():
    with pytest.raises(ValueError):
        gh_rule(0)


def test_normal_density_integrates_to_one():
    for s2 in SIGMA2_GRID:
        assert expect_over_normal(lambda b: np.ones_like(b), s2) == pytest.approx(1.0, abs=1e-12)


def test_expectation_of_identity_is_zero():
    for s2 in SIGMA2_GRID:
        assert expect_over_normal(lambda b: b, s2) == pytest.approx(0.0, abs=1e-12)


def test_expectation_of_exp_matches_lognormal_mean():
    # E exp(b) = exp(sigma2 / 2)
    assert expect_over_normal(np.exp, 0.01) == pytest.approx(1.005012520859401, abs=1e-12)


def test_sigma_zero_is_hard_branch():
    for eta0 in ETA_GRID:
        assert logistic_normal_integral(eta0, 0.0) == stable_expit(eta0)
    with pytest.raises(ValueError):
        logistic_normal_integral(0.0, -1e-12)


def test_logistic_normal_integral_broadcasts_over_eta0():
    eta0 = np.linspace(-6.0, 6.0, 37).reshape(37, 1) + np.array([0.0, 0.125])
    for sigma2 in SIGMA2_GRID:
        got = logistic_normal_integral(eta0, sigma2)
        assert got.shape == eta0.shape
        want = np.vectorize(lambda e: logistic_normal_integral(float(e), sigma2))(eta0)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    np.testing.assert_array_equal(logistic_normal_integral(eta0, 0.0), stable_expit(eta0))
    assert type(logistic_normal_integral(0.3, 0.5)) is float


def test_expectation_matches_trapezoid_for_shifted_logistic():
    val = logistic_normal_integral(0.5, 0.25)
    oracle = trapezoid_normal_expectation(lambda b: stable_expit(0.5 + b), 0.25)
    assert val == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("sigma2", SIGMA2_GRID)
def test_logistic_normal_integral_symmetry_at_zero(sigma2):
    assert logistic_normal_integral(0.0, sigma2) == pytest.approx(0.5, abs=1e-12)


def test_logistic_normal_integral_degenerate_normal():
    assert logistic_normal_integral(1.7, 0.0) == pytest.approx(0.8455347349164652, abs=1e-12)


@pytest.mark.parametrize("eta0", ETA_GRID)
@pytest.mark.parametrize("sigma2", SIGMA2_GRID)
def test_logistic_normal_integral_vs_trapezoid(eta0, sigma2):
    oracle = trapezoid_normal_expectation(lambda b: stable_expit(eta0 + b), sigma2)
    assert logistic_normal_integral(eta0, sigma2) == pytest.approx(oracle, abs=1e-8)


def test_logistic_normal_integral_monotone_and_in_unit_interval():
    vals = [logistic_normal_integral(e, 0.5) for e in np.linspace(-6, 6, 41)]
    assert np.all(np.diff(vals) > 0)
    assert all(0.0 < v < 1.0 for v in vals)


def test_quadrature_node_count_converged():
    for m in (20, 25, 30):
        a = logistic_normal_integral(1.0, 0.8, gh_rule(m))
        b = logistic_normal_integral(1.0, 0.8, gh_rule(m + 5))
        assert a == pytest.approx(b, abs=1e-9)


def test_zeger_attenuation_value():
    assert zeger_attenuation(0.0) == 1.0
    assert zeger_attenuation(0.25) == pytest.approx(0.9593677930575893, abs=1e-12)


def test_zeger_mean_values():
    assert zeger_mean(1.7, 0.0) == pytest.approx(stable_expit(1.7), abs=1e-15)
    assert zeger_mean(1.7, 0.25) == pytest.approx(0.836296349082125, abs=1e-12)


@pytest.mark.parametrize("eta0", np.linspace(-4.0, 4.0, 9))
@pytest.mark.parametrize("sigma2", [0.05, 0.25, 0.5, 1.0])
def test_zeger_within_a_percent_of_the_integral(eta0, sigma2):
    gap = abs(zeger_mean(eta0, sigma2) - logistic_normal_integral(eta0, sigma2))
    assert gap <= 0.01

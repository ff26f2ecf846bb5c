"""Family kernels against mpmath at 40 digits or more.

The terms nonlinear in the count are finite sums (`gamma_sums`), not
differences of scipy's gamma functions; at kappa = 1e6 scipy's own
digamma(y + k) - digamma(k) is off by ~1e-9 relative, so the oracle is
mpmath evaluated at the same float arguments.  The node kernel (`Nodes`)
is checked term by term on both tails of z, with the kappa terms the
fitter's oracle forms from it (conftest.py).
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glmm_means.families import (SUM_CAP, Family, Nodes, _prefix_sums, family_ops, gamma_sums,
                                 gamma_table)
from glmm_means.fitter import LOG_KAPPA_BOUNDS

from conftest import dscore_eta_kappa, dscore_kappa, score_kappa


@mpmath.workdps(40)
def _gamma_oracle(y, kappa, order):
    y, k = mpmath.mpf(y), mpmath.mpf(kappa)
    if order == 0:
        return mpmath.loggamma(y + k) - mpmath.loggamma(k) - y * mpmath.log(k)
    return mpmath.psi(order - 1, y + k) - mpmath.psi(order - 1, k)


kappas = st.one_of(st.sampled_from([1e-3, 1.0, 1e6]),
                   st.floats(*LOG_KAPPA_BOUNDS).map(math.exp))


@settings(max_examples=100, deadline=None)
@given(y=st.one_of(st.integers(0, SUM_CAP), st.integers(SUM_CAP + 1, 300_000),
                   st.integers(SUM_CAP - 3, SUM_CAP + 3)),
       kappa=kappas, order=st.sampled_from([0, 1, 2]))
def test_gamma_sums_match_mpmath_on_both_sides_of_the_cap(y, kappa, order):
    # exact sums up to SUM_CAP, the differenced asymptotic series above it:
    # measured within 7e-15 relative on both paths; atol covers y = 1 at
    # order 0, an exact 0 that the 40-digit oracle puts at ~1e-33
    got = gamma_sums(np.array([float(y)]), kappa, order)[0]
    want = _gamma_oracle(y, kappa, order)
    assert abs(mpmath.mpf(got) - want) <= 2e-14 * abs(want) + 1e-30


@pytest.mark.parametrize("y", [0, 1, 2, 7, 170, SUM_CAP, SUM_CAP + 1, 250_000])
def test_gamma_sums_at_unit_kappa_are_log_factorials(y):
    got = gamma_sums(np.array([float(y)]), 1.0, 0)[0]
    assert got == pytest.approx(math.lgamma(y + 1.0), rel=2e-14, abs=0)


def test_gamma_sums_gather_one_table_for_every_count():
    y = np.array([[3.0, 0.0], [-0.0, 40.0]])
    for order in (0, 1, 2):
        out = gamma_sums(y, 2.5, order)
        assert out.shape == y.shape and out[0, 1] == out[1, 0] == 0.0
        np.testing.assert_array_equal(out.ravel(), [gamma_sums(np.array([v]), 2.5, order)[0]
                                                    for v in y.ravel()])


@pytest.mark.parametrize("top", [9, 255, 256, 257, 700, 5000])
def test_gamma_table_sums_all_orders_as_one_order_alone(top):
    # the three orders share one 2-d prefix sum with the zero column put in
    # front afterwards; each row must equal that order's own 1-d prefix sum,
    # on both sides of the _BLOCK-term block
    rng = np.random.default_rng(top)
    y = np.append(rng.integers(0, top + 1, 40), [0.0, top]).astype(float)
    for kappa in (0.3, 7.0, 4e5):
        j = np.arange(top, dtype=float)
        for order, terms in enumerate((np.log1p(j / kappa), 1.0 / (kappa + j), -1.0 / (kappa + j) ** 2)):
            alone = np.append(0.0, _prefix_sums(terms))[y.astype(np.intp)]
            np.testing.assert_array_equal(gamma_table(y, kappa)[order], alone)


@pytest.mark.parametrize("bad", [0.5, -1.0, np.nan, np.inf])
def test_gamma_sums_reject_counts_that_are_not_non_negative_integers(bad):
    with pytest.raises(ValueError, match="non-negative integers"):
        gamma_sums(np.array([0.0, bad]), 2.0, 0)


@mpmath.workdps(40)
def _kappa_score_oracle(y, eta, kappa):
    y, eta, k = mpmath.mpf(y), mpmath.mpf(eta), mpmath.mpf(kappa)
    mu = mpmath.exp(eta)
    return (mpmath.psi(0, y + k) - mpmath.psi(0, k) + mpmath.log(k) + 1
            - mpmath.log(k + mu) - (y + k) / (k + mu))


@pytest.mark.parametrize("kappa", [1e6, 1e4, 37.5, 1e-3])
def test_kappa_score_matches_mpmath(kappa):
    # the score sums terms of size y / k to a value of size 1 / k^2: written
    # as digamma sum - log1p(mu / k) + (mu - y) / (k + mu) it keeps all but
    # ~9 digits at k = 1e6 (measured 2.1e-9 relative), where the form with
    # log k + 1 - log(k + mu) lost all but one (0.28 relative)
    ops = family_ops(Family.NEGBIN)
    y = np.array([0.0, 1.0, 3.0, 17.0, 250.0])
    for eta in (-3.0, 0.0, 1.1, 2.9, 5.5, 12.0):
        got = score_kappa(ops.kernel(y, eta, kappa), kappa, gamma_sums(y, kappa, 1))
        for yi, gi in zip(y, got):
            want = _kappa_score_oracle(yi, eta, kappa)
            assert abs(mpmath.mpf(gi) - want) <= 1e-8 * abs(want), (yi, eta)


@mpmath.workdps(40)
def _dkappa_score_oracle(y, eta, kappa):
    y, eta, k = mpmath.mpf(y), mpmath.mpf(eta), mpmath.mpf(kappa)
    mu = mpmath.exp(eta)
    return (mpmath.psi(1, y + k) - mpmath.psi(1, k) + 1 / k - 2 / (k + mu)
            + (y + k) / (k + mu) ** 2)


@pytest.mark.parametrize("kappa", [1e6, 1e4, 37.5, 1e-3])
def test_kappa_score_derivative_matches_mpmath(kappa):
    # 1/k - 2/(k + mu) + (y + k)/(k + mu)^2 sums terms of size 1/k to a far
    # smaller value; as s^2/k + y r^2/k^2 nothing cancels but the trigamma
    # sum against it (measured 3.9e-9 relative at k = 1e6, where the 1/k
    # form was off by 2.5e-2)
    ops = family_ops(Family.NEGBIN)
    y = np.array([0.0, 1.0, 3.0, 17.0, 250.0])
    for eta in np.linspace(-3.0, 5.5, 18):
        got = dscore_kappa(ops.kernel(y, eta, kappa), kappa, gamma_sums(y, kappa, 2))
        for yi, gi in zip(y, got):
            want = _dkappa_score_oracle(yi, eta, kappa)
            assert abs(mpmath.mpf(gi) - want) <= 1e-8 * abs(want), (yi, eta)


@mpmath.workdps(40)
def _loglik_oracle(y, eta, kappa):
    y, eta, k = mpmath.mpf(y), mpmath.mpf(eta), mpmath.mpf(kappa)
    mu = mpmath.exp(eta)
    return (mpmath.loggamma(y + k) - mpmath.loggamma(k) - mpmath.loggamma(y + 1)
            + k * mpmath.log(k / (k + mu)) + y * mpmath.log(mu / (k + mu)))


def test_negbin_loglik_matches_mpmath():
    # its terms, of size up to y log(y / k), cancel to the value: the
    # tolerance scales with the larger of the two
    ops = family_ops(Family.NEGBIN)
    for kappa in (1e-3, 0.8, 40.0, 1e6):
        for y in (0.0, 1.0, 9.0, 600.0):
            for eta in (-4.0, 0.3, 6.0):
                want = _loglik_oracle(y, eta, kappa)
                const = gamma_sums(np.array([y]), kappa, 0) - gamma_sums(np.array([y]), 1.0, 0)
                got = (const + ops.kernel(np.array([y]), eta, kappa).loglik(eta))[0]
                assert abs(mpmath.mpf(got) - want) <= 1e-13 * max(abs(want), y, 1), (kappa, y, eta)


@mpmath.workdps(700)
def _node_oracle(y, z, eta, kappa):
    """Every term of the node kernel at (y, z), with n = y + k and mu = k e^z
    (the logistic: kappa None, n = 1), from mpmath at the same floats, each
    with the size of the summands it is formed from, which bounds the
    rounding of a term that cancels.  At 700 digits the direct forms keep
    their digits: at z = -700 they cancel terms of size 1/k to ~e^(2 z)/k.
    The gamma-function differences need no more than 50."""
    y, z, eta = mpmath.mpf(y), mpmath.mpf(z), mpmath.mpf(eta)
    n = 1 if kappa is None else y + mpmath.mpf(kappa)
    s, r, sp = 1 / (1 + mpmath.exp(-z)), 1 / (1 + mpmath.exp(z)), mpmath.log1p(mpmath.exp(z))
    out = {"s": (s, s), "r": (r, r), "softplus": (sp, sp),
           "loglik": (y * eta - n * sp, abs(y * eta) + n * sp),
           "score_eta": (y - n * s, y + n * s), "curvature": (n * s * r, n * s * r)}
    if kappa is not None:
        k = mpmath.mpf(kappa)
        mu = k * mpmath.exp(z)
        with mpmath.workdps(50):
            psi = mpmath.psi(0, y + k) - mpmath.psi(0, k)
            psi1 = mpmath.psi(1, y + k) - mpmath.psi(1, k)
        out["score_kappa"] = (psi - mpmath.log1p(mu / k) + (mu - y) / (k + mu),
                              psi + sp + s + y * r / k)
        out["dscore_eta_kappa"] = (mu * (y - mu) / (mu + k) ** 2, (s * r * y + k * s * s) / k)
        out["dscore_kappa"] = (psi1 + 1 / k - 2 / (k + mu) + (y + k) / (k + mu) ** 2,
                               abs(psi1) + s * s / k + y * r * r / k**2)
    return out


@pytest.mark.parametrize("kappa", [None, 1e-3, 50.0, 1e6])
def test_node_kernel_matches_mpmath_on_both_tails(kappa):
    # one exp(-|z|) per node gives s, r and softplus and every kernel; r is
    # its own quotient, so it stays positive where s rounds to 1 (z >= 37),
    # and nothing overflows or divides by zero at |z| = 700.  Each term is
    # within 2e-15 of the size of its summands (measured 4e-16), the two
    # with a gamma_sums offset within that offset's 2e-14; below 1e-300 a
    # value may round to 0 (e^(2 z) at z = -700)
    ys = np.array([0.0, 1.0]) if kappa is None else np.array([0.0, 1.0, 17.0, 250.0])
    rounded_s = 0
    for size in (0.0, 1e-8, 5.0, 40.0, 700.0):
        for z in (size, -size):
            eta = z if kappa is None else z + math.log(kappa)
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                if kappa is None:
                    nodes = family_ops(Family.LOGISTIC).kernel(ys, np.full(ys.size, z))
                else:
                    nodes = Nodes(ys, np.full(ys.size, z), ys + kappa)
                got = {"s": nodes.s, "r": nodes.r, "softplus": nodes.softplus,
                       "loglik": nodes.loglik(np.full(ys.size, eta)),
                       "score_eta": nodes.score_eta(), "curvature": nodes.curvature()}
                if kappa is not None:
                    got["score_kappa"] = score_kappa(nodes, kappa, gamma_sums(ys, kappa, 1))
                    got["dscore_eta_kappa"] = dscore_eta_kappa(nodes, kappa)
                    got["dscore_kappa"] = dscore_kappa(nodes, kappa, gamma_sums(ys, kappa, 2))
            assert np.all(nodes.r > 0.0) and np.all(nodes.s > 0.0)
            rounded_s += int(np.sum(nodes.s == 1.0))
            for i, y in enumerate(ys):
                for name, (want, scale) in _node_oracle(y, z, eta, kappa).items():
                    err = abs(mpmath.mpf(got[name][i]) - want)
                    rtol = 2e-14 if name in ("score_kappa", "dscore_kappa") else 2e-15
                    assert err <= rtol * scale + 1e-300, (name, y, z, float(err / scale))
    assert rounded_s > 0

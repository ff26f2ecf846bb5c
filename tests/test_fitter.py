"""Marginal likelihood, conditional modes, scores, and the optimizer.

Oracles: dense trapezoid integration of the per-subject integrals, a
golden-section maximizer for modes, central finite differences for scores,
and a plain fixed-effects GLM for the degenerate-variance limit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import nbinom

from glmm_means import Dataset, Family, FitConfig, ModelSpec, SubjectBlock, fit
from glmm_means.families import SUM_CAP, family_ops, gamma_sums, stable_expit
from glmm_means.fitter import (LOG_KAPPA_BOUNDS, LOG_SIGMA2_BOUNDS, MODE_TOL, SCORE_TOL, _cells,
                                _first_appearance, _irls_starts, _patterns, _Point, _stack, _Workspace,
                                equal_runs,
                                marginal_loglik, spd_inverse, subject_scores)
from glmm_means.model import ParamVector
from glmm_means.simulate import (generate_dataset, generate_replication, logistic_design,
                                  negbin_design)

from conftest import (closing_round, conditional_mode, irls_start, lone_point, newton_round,
                      per_cell_derivatives, per_row_pattern_sums, posterior_mean_effects,
                      representative_rows, solve_modes, toy_dataset)


def bernoulli_block(sid, y, x, sigma_groups=None):
    y = np.atleast_1d(np.asarray(y, float))
    x = np.atleast_2d(np.asarray(x, float))
    groups = sigma_groups or tuple("g" for _ in y)
    return SubjectBlock(subject_id=sid, y=y, X=x, groups=groups)


# ---- marginal log-likelihood ------------------------------------------------


def test_degenerate_variance_single_bernoulli():
    ds = Dataset([bernoulli_block("s", [1.0], [[1.0]])])
    spec = ModelSpec(family=Family.LOGISTIC, p=1)
    params = ParamVector(beta=np.zeros(1), sigma2=0.0)
    assert marginal_loglik(ds, spec, params) == pytest.approx(np.log(0.5), abs=1e-14)


def test_degenerate_variance_single_negbin():
    ds = Dataset([SubjectBlock(subject_id="s", y=np.array([2.0]), X=np.array([[1.0]]), groups=("g",))])
    spec = ModelSpec(family=Family.NEGBIN, p=1)
    params = ParamVector(beta=np.array([0.3]), sigma2=0.0, kappa=50.0)
    mu = np.exp(0.3)
    oracle = nbinom.logpmf(2, 50.0, 50.0 / (50.0 + mu))
    assert marginal_loglik(ds, spec, params) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("sigma2", [0.0, 0.4])
def test_a_non_integer_negbin_response_raises(sigma2):
    # validate rejects such data; library calls that skip it get ValueError
    ds = Dataset([SubjectBlock(subject_id="s", y=np.array([2.0, 1.5]), X=np.ones((2, 1)),
                               groups=("g", "g"))])
    spec = ModelSpec(family=Family.NEGBIN, p=1)
    with pytest.raises(ValueError, match="non-negative integers"):
        marginal_loglik(ds, spec, ParamVector(beta=np.zeros(1), sigma2=sigma2, kappa=5.0))
    with pytest.raises(ValueError, match="non-negative integers"):
        fit(ds, spec)


def _trapezoid_subject_loglik(y, x, beta, sigma2, family, kappa=None, n=400_001):
    s = np.sqrt(sigma2)
    b = np.linspace(-10 * s, 10 * s, n)
    eta = np.add.outer(x @ beta, b)
    if family is Family.LOGISTIC:
        ll = y[:, None] * eta - np.logaddexp(0.0, eta)
    else:
        from scipy.special import gammaln

        mu = np.exp(eta)
        ll = (
            gammaln(y[:, None] + kappa)
            - gammaln(kappa)
            - gammaln(y[:, None] + 1.0)
            + kappa * np.log(kappa)
            + y[:, None] * eta
            - (y[:, None] + kappa) * np.log(kappa + mu)
        )
    dens = np.exp(-(b**2) / (2 * sigma2)) / np.sqrt(2 * np.pi * sigma2)
    return float(np.log(np.trapezoid(np.exp(ll.sum(axis=0)) * dens, b)))


@pytest.mark.parametrize("family,kappa", [(Family.LOGISTIC, None), (Family.NEGBIN, 6.0)])
def test_marginal_loglik_matches_trapezoid(family, kappa):
    rng = np.random.default_rng(3)
    beta = np.array([0.3, -0.5])
    sigma2 = 0.36
    subjects = []
    for i in range(3):
        x = np.column_stack([np.ones(2), rng.uniform(-1, 1, 2)])
        if family is Family.LOGISTIC:
            y = rng.binomial(1, 0.5, 2).astype(float)
        else:
            y = rng.poisson(1.5, 2).astype(float)
        subjects.append(SubjectBlock(subject_id=f"s{i}", y=y, X=x, groups=("g", "g")))
    ds = Dataset(subjects)
    spec = ModelSpec(family=family, p=2)
    params = ParamVector(beta=beta, sigma2=sigma2, kappa=kappa)

    oracle = sum(
        _trapezoid_subject_loglik(s.y, s.X, beta, sigma2, family, kappa) for s in ds.subjects
    )
    assert marginal_loglik(ds, spec, params) == pytest.approx(oracle, abs=1e-7)


def test_marginal_loglik_invariant_under_subject_reordering():
    ds = toy_dataset(Family.LOGISTIC, K=9, seed=21)
    spec = ModelSpec(family=Family.LOGISTIC, p=2)
    params = ParamVector(beta=np.array([0.1, -0.4]), sigma2=0.2)
    base = marginal_loglik(ds, spec, params)
    flipped = Dataset(ds.subjects[::-1])
    assert marginal_loglik(flipped, spec, params) == pytest.approx(base, rel=1e-12)


def test_marginal_loglik_rejects_bad_params():
    ds = toy_dataset(Family.NEGBIN, K=4, seed=2)
    spec = ModelSpec(family=Family.NEGBIN, p=2)
    with pytest.raises(ValueError):
        marginal_loglik(ds, spec, ParamVector(beta=np.zeros(2), sigma2=0.1))  # kappa missing


# ---- conditional modes ---------------------------------------------------------


def test_mode_pulled_negative_for_all_zero_responses():
    sb = bernoulli_block("s", [0.0, 0.0, 0.0], [[1.0], [1.0], [1.0]])
    b_hat, curv = conditional_mode(sb, ParamVector(beta=np.zeros(1), sigma2=0.5))
    assert b_hat < 0
    assert curv > 0


def test_mode_at_degenerate_variance_is_zero():
    sb = bernoulli_block("s", [1.0], [[1.0]])
    b_hat, curv = conditional_mode(sb, ParamVector(beta=np.zeros(1), sigma2=0.0))
    assert b_hat == 0.0
    assert np.isinf(curv)


def golden_section_max(f, lo, hi, tol=1e-12):
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


@pytest.mark.parametrize(
    "y,sigma2",
    [((1.0, 0.0), 0.25), ((1.0, 1.0), 0.25), ((0.0, 0.0), 0.8)],
)
def test_mode_matches_golden_section(y, sigma2):
    sb = bernoulli_block("s", y, [[1.0, 0.0], [1.0, 0.0]])
    params = ParamVector(beta=np.zeros(2), sigma2=sigma2)
    b_hat, _ = conditional_mode(sb, params)

    yv = np.asarray(y)

    def log_posterior(b):
        eta = b
        return float(np.sum(yv * eta - np.logaddexp(0.0, eta)) - b * b / (2 * sigma2))

    oracle = golden_section_max(log_posterior, -6.0, 6.0)
    # golden section locates a flat maximum to ~sqrt(eps/curvature)
    assert b_hat == pytest.approx(oracle, abs=5e-8)


def test_mode_matches_golden_section_negbin():
    sb = SubjectBlock(
        subject_id="s", y=np.array([4.0, 0.0]), X=np.array([[1.0], [1.0]]), groups=("g", "g")
    )
    params = ParamVector(beta=np.array([0.2]), sigma2=0.3, kappa=5.0)
    b_hat, _ = conditional_mode(sb, params)

    def log_posterior(b):
        from scipy.special import gammaln

        mu = np.exp(0.2 + b)
        ll = (
            gammaln(sb.y + 5.0) - gammaln(5.0) - gammaln(sb.y + 1.0)
            + 5.0 * np.log(5.0) + sb.y * (0.2 + b) - (sb.y + 5.0) * np.log(5.0 + mu)
        )
        return float(ll.sum() - b * b / 0.6)

    oracle = golden_section_max(log_posterior, -6.0, 6.0)
    # golden section locates a flat maximum to ~sqrt(eps/curvature)
    assert b_hat == pytest.approx(oracle, abs=5e-8)


def test_mode_curvature_is_fisher_weight_sum_plus_prior():
    sb = bernoulli_block("s", [1.0, 0.0], [[1.0, 0.4], [1.0, -0.2]])
    params = ParamVector(beta=np.array([0.3, 0.7]), sigma2=0.5)
    b_hat, curv = conditional_mode(sb, params)
    eta = sb.X @ params.beta + b_hat
    p = stable_expit(eta)
    assert curv == pytest.approx(float(np.sum(p * (1 - p))) + 1.0 / 0.5, rel=1e-12)


@pytest.mark.parametrize("kappa", [1e-3, 4.0, 1e6])
def test_negbin_mode_curvature_is_fisher_weight_sum_plus_prior(kappa):
    # taken from the solver's last kernel, kappa s at z = eta - log kappa
    sb = SubjectBlock(subject_id="s", y=np.array([0.0, 3.0, 3.0, 12.0]),
                      X=np.array([[1.0, 0.4], [1.0, -0.2], [1.0, -0.2], [1.0, 0.9]]),
                      groups=("g",) * 4)
    params = ParamVector(beta=np.array([0.3, 0.7]), sigma2=0.5, kappa=kappa)
    b_hat, curv = conditional_mode(sb, params)
    eta = sb.X @ params.beta + b_hat
    fisher = family_ops(Family.NEGBIN).fisher_weight(eta, kappa)
    assert curv == pytest.approx(float(np.sum(fisher)) + 1.0 / 0.5, rel=1e-12)


@pytest.mark.parametrize("b0", [-50.0, 25.0, 50.0])
def test_a_far_warm_start_brackets_a_tiny_mode(b0):
    # at sigma2 = 1e-10 the mode sits near -2e-13 and |g'| is 1e10; a
    # bracket end b0 + sigma2 g(b0) would carry an error of ulp(b0) ~ 1e-14
    # and can leave |g| ~ 1e-5 at the mode found, while sigma2 S(b0) keeps
    # its digits
    sigma2, kappa = math.exp(LOG_SIGMA2_BOUNDS[0]), math.exp(LOG_KAPPA_BOUNDS[0])
    ws = _Workspace(Dataset([SubjectBlock(subject_id="s", y=np.zeros(2), X=np.ones((2, 1)),
                                          groups=("g", "g"))]), Family.NEGBIN, 1)
    beta = np.zeros(1)
    modes, _ = solve_modes(ws, beta, sigma2, kappa, np.array([b0]))
    s = ws.loglik_score(ws.batches[0], ws.X @ beta, modes, kappa)[0][0]
    assert abs(s - modes[0] / sigma2) <= MODE_TOL


@pytest.mark.parametrize("rows,sigma2,intercept", [(20, 25.0, -5.0), (40, 1.0, 0.0)])
def test_a_mode_whose_ulp_exceeds_the_width_stop_ends_at_the_ulp(rows, sigma2, intercept):
    # NB kappa = 1e6 with rows of y = 1e4 puts the mode at 14.2 and 9.2,
    # where |g| > MODE_TOL at every float near it (the slope there times an
    # ulp is ~4e-10); these solves once ran all 250 steps, and now stop once
    # the bracket is down to adjacent floats
    kappa = 1e6
    block = SubjectBlock(subject_id="s", y=np.full(rows, 1e4), X=np.ones((rows, 1)),
                         groups=("g",) * rows)
    ws = _Workspace(Dataset([block]), Family.NEGBIN, 1)
    beta = np.array([intercept])
    score, calls = ws.loglik_score, []

    def counted(*args):
        calls.append(args)
        return score(*args)

    ws.loglik_score = counted
    modes, _ = solve_modes(ws, beta, sigma2, kappa)
    assert len(calls) <= 30  # 27 and 17 (251 each before the stop)

    def g(b):
        return score(ws.batches[0], ws.X @ beta, np.array([b]), kappa)[0][0] - b / sigma2

    b = modes[0]
    assert abs(b) >= 8.0 and abs(g(b)) > MODE_TOL
    # g changes sign between b and the next float toward the root
    assert g(b) * g(np.nextafter(b, np.inf if g(b) > 0 else -np.inf)) <= 0


def _log_uniform(bounds):
    return st.one_of(st.sampled_from(bounds), st.floats(*bounds)).map(math.exp)


@settings(max_examples=60)
@given(family=st.sampled_from(Family), sigma2=_log_uniform(LOG_SIGMA2_BOUNDS),
       kappa=_log_uniform(LOG_KAPPA_BOUNDS), responses=st.sampled_from(("zero", "one", "mixed")),
       data=st.data())
def test_modes_converge_inside_the_start_bracket_at_the_box_edges(family, sigma2, kappa,
                                                                  responses, data):
    # g(b) = S(b) - b / sigma2 with S falling in b: the mode lies between b
    # and sigma2 S(b), and |g'| >= 1 / sigma2 puts it within sigma2 |g(b)|
    # of any b
    aux = kappa if family is Family.NEGBIN else None
    top = 1 if family is Family.LOGISTIC else 10**4
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4), label="rows")
    blocks = []
    for i, n in enumerate(sizes):
        x = data.draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n), label="x")
        if responses == "mixed":
            y = data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n), label="y")
        else:
            y = [float(responses == "one")] * n
        blocks.append(SubjectBlock(subject_id=f"s{i}", y=np.array(y, float),
                                   X=np.column_stack([np.ones(n), x]), groups=("g",) * n))
    ws = _Workspace(Dataset(blocks), family, 1)
    beta = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=2, max_size=2), label="beta"))
    b0 = np.array(data.draw(st.lists(st.floats(-50, 50), min_size=ws.K, max_size=ws.K),
                            label="warm start"))
    eta0, batch = ws.X @ beta, ws.batches[0]

    def g(b):
        return ws.loglik_score(batch, eta0, b, aux)[0] - b / sigma2

    solves = []
    for start in (np.zeros(ws.K), b0):
        modes, curv = solve_modes(ws, beta, sigma2, aux, start)
        b, s = modes[ws.rep], start[ws.rep]
        assert np.array_equal(modes, b[ws.pattern])
        assert np.all(curv >= 1.0 / sigma2)
        end = sigma2 * ws.loglik_score(batch, eta0, s, aux)[0]
        assert np.all((np.minimum(s, end) <= b) & (b <= np.maximum(s, end)))
        # converged, or the bisection bracket has closed on the sign change
        converged = np.abs(g(b)) <= MODE_TOL
        width = 1e-15 + np.spacing(b)
        assert np.all(converged | ((g(b - width) > 0) & (g(b + width) <= 0)))
        solves.append((b, np.where(converged, MODE_TOL * sigma2, width)))
    (cold, r_cold), (warm, r_warm) = solves
    assert np.all(np.abs(cold - warm) <= r_cold + r_warm)


# ---- scores vs finite differences ----------------------------------------------


def _fd_gradient(ws, theta, h=1e-5):
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (newton_round(ws, up)[3] - newton_round(ws, dn)[3]) / (2 * h)
    return grad


@pytest.mark.parametrize("family", [Family.LOGISTIC, Family.NEGBIN])
def test_total_score_matches_central_differences(family):
    ds = toy_dataset(family, K=10, n=3, seed=7)
    ws = _Workspace(ds, family, 25)
    rng = np.random.default_rng(14)
    for _ in range(10):
        beta = rng.normal(0.0, 0.5, 2)
        sigma2 = rng.uniform(0.05, 0.8)
        kappa = rng.uniform(2.0, 30.0) if family is Family.NEGBIN else None
        theta = ws.pack(beta, sigma2, kappa)
        modes, curv = newton_round(ws, theta)[:2]
        d, _ = closing_round(ws, theta, modes, curv)
        g = d.sum(axis=0)
        fd = _fd_gradient(ws, theta)
        np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-6)


def _total_score(ws, theta):
    return newton_round(ws, theta)[2].sum(axis=0)


def _fd_score_jacobian(ws, theta, h):
    jac = np.zeros((theta.size, theta.size))
    for j in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        jac[:, j] = (_total_score(ws, up) - _total_score(ws, dn)) / (2 * h)
    return jac


@pytest.mark.parametrize("family", [Family.LOGISTIC, Family.NEGBIN])
def test_observed_information_matches_central_differences(family):
    # Louis' identity against central differences of the total score, with
    # criterion 4's relative error (floor 1e-3) and tolerance
    ds = toy_dataset(family, K=10, n=3, seed=7)
    ws = _Workspace(ds, family, 25)
    rng = np.random.default_rng(14)
    nb = family is Family.NEGBIN
    points = []
    for _ in range(10):
        beta = rng.normal(0.0, 0.5, 2)
        sigma2 = rng.uniform(0.05, 0.8)
        kappa = rng.uniform(2.0, 30.0) if nb else None
        points.append(ws.pack(beta, sigma2, kappa))
    # small sigma2 and large kappa: the kappa score, free of cancellation,
    # keeps its digits there, so its differences take the same step
    points.append(ws.pack(np.array([0.2, -0.4]), 1e-3, 1e4 if nb else None))
    for theta in points:
        hess = newton_round(ws, theta)[4]
        fd = _fd_score_jacobian(ws, theta, 1e-5)
        rel = np.abs(hess - fd) / np.maximum(np.abs(fd), 1e-3)
        assert rel.max() <= 1e-4, (np.exp(theta[2:]), rel.max())


@pytest.mark.parametrize("family", [Family.LOGISTIC, Family.NEGBIN])
def test_quadrature_blocks_do_not_change_results(family, monkeypatch):
    # one block for all subjects versus blocks smaller than one subject
    # (every subject then forms its own block); per-subject arithmetic is
    # the same, so loglik and scores agree up to the last-bit differences
    # of vectorized kernels on arrays of other lengths
    import glmm_means.fitter as fitter

    rng = np.random.default_rng(4)
    subjects = []
    for i in range(30):
        n = int(rng.integers(1, 6))
        x = np.column_stack([np.ones(n), rng.uniform(-1, 1, n)])
        y = rng.binomial(1, 0.5, n) if family is Family.LOGISTIC else rng.poisson(2.0, n)
        subjects.append(bernoulli_block(f"s{i}", y.astype(float), x))
    ds = Dataset(subjects)
    kappa = 5.0 if family is Family.NEGBIN else None
    results = []
    for cells in (10**9, 1):
        monkeypatch.setattr(fitter, "_BLOCK_CELLS", cells)
        ws = _Workspace(ds, family, 25)
        theta = ws.pack(np.array([0.2, -0.4]), 0.7, kappa)
        modes, curv, _, ll, _ = newton_round(ws, theta)
        d, ll_d = closing_round(ws, theta, modes, curv)
        results.append((len(ws.blocks), ll, ll_d, d))
    assert [r[0] for r in results] == [1, ds.n_subjects]
    np.testing.assert_allclose(results[0][1:3], results[1][1:3], rtol=1e-14)
    np.testing.assert_allclose(results[0][3], results[1][3], rtol=1e-13, atol=1e-15)


_SIZE_MIXES = st.one_of(
    st.lists(st.just(1), min_size=1, max_size=40),
    st.integers(1, 30).flatmap(lambda n: st.lists(st.just(n), min_size=1, max_size=12)),
    st.lists(st.integers(1, 30), min_size=1, max_size=30),
)


@given(sizes=_SIZE_MIXES, block_cells=st.sampled_from([3, 30, 90, 10**9]),
       seed=st.integers(0, 2**16))
def test_pattern_sums_equal_a_loop_over_each_patterns_cells(sizes, block_cells, seed):
    # every row its own cell and every subject its own pattern; with 3
    # nodes a block holds block_cells // 3 cells, so the smaller sizes
    # spread the patterns over several blocks
    import glmm_means.fitter as fitter

    subjects, x0 = [], 0.5
    for i, n in enumerate(sizes):
        subjects.append(bernoulli_block(f"s{i}", np.zeros(n), np.column_stack(
            [np.ones(n), x0 + np.arange(n)])))
        x0 += n
    ds = Dataset(subjects)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitter, "_BLOCK_CELLS", block_cells)
        ws = _Workspace(ds, Family.LOGISTIC, 3)
    assert ws.P == ws.K and ws.C == ws.N
    assert np.all(np.diff(np.bincount(ws.subj)) <= 0)  # numbered by descending cell count
    assert [b.patterns.start for b in ws.blocks] + [ws.P] == [0] + [b.patterns.stop
                                                                  for b in ws.blocks]
    values = np.random.default_rng(seed).normal(size=(ws.C, 3))
    want = []
    for k in range(ws.P):
        cells = np.flatnonzero(ws.subj == k)
        # the pattern's cells in storage order are its subject's rows in order
        np.testing.assert_array_equal(ws.X[cells], subjects[ws.rep[k]].X)
        total = values[cells[0]]
        for c in cells[1:]:
            total = total + values[c]
        want.append(total)
    got = np.vstack([fitter._block_sums(values[b.cells], b) for b in ws.blocks])
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(ws._subject_sums(ws.batches[0], values[:, 0]),
                                  np.array(want)[:, 0])


def _merge_oracle_pair(family, seed=3, K=12):
    """The same rows twice: covariates (1, x) with x from three values, so a
    subject repeats covariate rows with other responses, and (1, x, z) with
    z distinct on every row, which no rows share."""
    rng = np.random.default_rng(seed)
    sid, y, X = [], [], []
    for i in range(K):
        for x in rng.choice([-0.5, 0.0, 0.7], size=int(rng.integers(2, 9))):
            sid.append(f"s{i}")
            X.append([1.0, x])
            if family is Family.LOGISTIC:
                y.append(float(rng.integers(0, 2)))
            else:
                y.append(float(rng.poisson(3.0 if i % 2 else 25.0)))
    X = np.array(X)
    z = np.arange(len(y)) / len(y) + 0.1
    groups = ["g"] * len(y)
    merged = Dataset.from_rows(sid, y, X, groups)
    return merged, Dataset.from_rows(sid, y, np.column_stack([X, z]), groups)


def _assert_close(got, want, floor):
    """Agreement to 1e-12 of each column's largest entry, or to `floor`
    (broadcast against `want`), whichever is larger."""
    err = np.abs(got - want) - np.maximum(1e-12 * np.abs(want).max(axis=0), floor)
    assert err.max() <= 0.0, np.unravel_index(err.argmax(), err.shape)


def _assert_merging_is_exact(ws_m, ws_r, beta, kappa):
    """Loglik, per-subject modes, scores d_i and Louis Hessian of a workspace
    that merges (ws_m) against one that cannot (ws_r), whose data add a last
    covariate with coefficient 0, so eta is the same on both."""
    p = beta.size
    theta_m = ws_m.pack(beta, 0.6, kappa)
    theta_r = ws_r.pack(np.append(beta, 0.0), 0.6, kappa)
    shared = list(range(p)) + [p + 1] + ([p + 2] if kappa else [])
    # the log-kappa score k dl/dk sums terms of size k log k that cancel to
    # O(1/k), so it rounds at ~1e-14 k
    floor = np.array([0.0] * (p + 1) + ([1e-12 * kappa] if kappa else []))

    modes_m, curv_m, d_m, ll_m, h_m = newton_round(ws_m, theta_m)
    modes_r, curv_r, d_r, ll_r, h_r = newton_round(ws_r, theta_r)
    assert ll_m == pytest.approx(ll_r, rel=1e-12)
    np.testing.assert_allclose(modes_m[ws_m.pattern], modes_r[ws_r.pattern], rtol=1e-12,
                               atol=1e-14)
    _assert_close(d_m, d_r[:, shared], floor)
    _assert_close(h_m, h_r[np.ix_(shared, shared)], np.maximum.outer(floor, floor))
    if kappa is None or kappa < 1e3:
        # the unsplit NB form of the reported covariance rounds at large kappa
        s_m, sll_m = closing_round(ws_m, theta_m, modes_m, curv_m)
        s_r, sll_r = closing_round(ws_r, theta_r, modes_r, curv_r)
        assert sll_m == pytest.approx(sll_r, rel=1e-12)
        _assert_close(s_m, s_r[:, shared], floor)


MERGE_CASES = pytest.mark.parametrize(
    "family,kappa",
    [(Family.LOGISTIC, None), (Family.NEGBIN, 5.0), (Family.NEGBIN, 1e4), (Family.NEGBIN, 1e6)],
)


@MERGE_CASES
def test_cells_match_the_unmerged_rows(family, kappa):
    # z has coefficient 0, so eta is the same on both datasets, but only the
    # first merges rows into cells.  The terms nonlinear in y (log Gamma(y+k),
    # digamma(y+k), trigamma(y+k)) must enter as row averages; evaluated at
    # the cell's mean response they move the loglik, the log-kappa scores and
    # the log-kappa Hessian entries far beyond these tolerances.
    merged, raw = _merge_oracle_pair(family)
    ws_m, ws_r = _Workspace(merged, family, 25), _Workspace(raw, family, 25)
    assert ws_m.N == ws_r.N == ws_r.C > ws_m.C
    beta = np.array([0.3, -0.8])
    _assert_merging_is_exact(ws_m, ws_r, beta, kappa)

    # sigma2 = 0 is the conditional loglik, summed over the raw rows
    spec = ModelSpec(family=family, p=2)
    at_zero = marginal_loglik(merged, spec, ParamVector(beta=beta, sigma2=0.0, kappa=kappa))
    rows = family_ops(family).loglik(merged.y, merged.X @ beta, kappa)
    assert at_zero == pytest.approx(float(rows.sum()), rel=1e-12)


def test_cells_are_numbered_by_first_appearance():
    # a subject's repeated covariate row returns to its cell; another
    # subject's equal row is another cell
    subj = np.array([0, 0, 0, 1, 1, 1])
    xrow = np.array([1, 0, 1, 1, 2, 1])  # covariate rows (1, 0.5), (1, -1), ..., numbered in sorted order
    cell, first = _cells(subj, xrow)
    np.testing.assert_array_equal(cell, [0, 1, 0, 2, 3, 2])
    np.testing.assert_array_equal(first, [0, 1, 3, 4])
    cell, first = _cells(subj, np.arange(6))
    np.testing.assert_array_equal(cell, np.arange(6))  # no rows merge: one cell per row
    np.testing.assert_array_equal(first, np.arange(6))
    rng = np.random.default_rng(3)  # the lexicographic sort of (subject, row) pairs is the reference
    subj, xrow = rng.integers(0, 40, size=500), rng.integers(0, 9, size=500)
    want = _first_appearance(*equal_runs(np.column_stack([subj, xrow])))
    for got, expected in zip(_cells(subj, xrow), want):
        np.testing.assert_array_equal(got, expected)


def test_fit_reports_rows_and_quadrature_cells():
    # gender design: two visits per subject with one covariate row; time
    # design: the visits differ in t, so no rows merge
    for control, cells in (("gender", 360), ("time", 740)):
        design = logistic_design(control=control, replications=1, seed=3)
        fitted = fit(generate_dataset(design), ModelSpec(family=design.family, p=design.p))
        assert fitted.diagnostics["rows"] == fitted.dataset.n_obs
        assert fitted.diagnostics["quadrature_cells"] == cells


_ROW = st.tuples(st.integers(0, 1), st.integers(0, 2))


@given(st.lists(st.lists(_ROW, min_size=1, max_size=3), min_size=1, max_size=12))
def test_subjects_with_equal_row_multisets_share_a_pattern(subjects):
    # each subject a list of (x, y) rows; patterns numbered by first appearance
    ids = [f"s{i}" for i, rows in enumerate(subjects) for _ in rows]
    x, y = (np.array([r[j] for rows in subjects for r in rows], float) for j in range(2))
    ds = Dataset.from_rows(ids, y, np.column_stack([np.ones_like(x), x]), ["g"] * len(ids))
    pattern, rep, xrow = _patterns(_stack([ds]))
    same_row = np.all(ds.X[:, None] == ds.X[None], axis=2)
    np.testing.assert_array_equal(xrow[:, None] == xrow[None], same_row)
    keys = [tuple(sorted(rows)) for rows in subjects]
    number = {}
    for key in keys:
        number.setdefault(key, len(number))
    assert pattern.tolist() == [number[key] for key in keys]
    assert rep.tolist() == [keys.index(key) for key in number]


def _pattern_oracle_pair(family, seed=5, K=80):
    """The same subjects twice: one to three rows of covariates (1, x, t),
    with x fixed per subject and t in {0, 1, 1}, and responses from a few
    values, so subjects repeat each other's rows and
    rows within a subject merge into cells; and (1, x, t, z) with z constant
    within a subject and distinct between subjects, so that the cells are
    the same but no two subjects share a pattern."""
    rng = np.random.default_rng(seed)
    sid, y, X = [], [], []
    for i in range(K):
        x = float(rng.integers(0, 2))
        for t in (0.0, 1.0, 1.0)[: int(rng.integers(1, 4))]:
            sid.append(f"s{i}")
            X.append([1.0, x, t])
            if family is Family.LOGISTIC:
                y.append(float(rng.integers(0, 2)))
            else:
                y.append(float(rng.choice([0.0, 0.0, 1.0, 6.0])))
    X = np.array(X)
    z = np.array([int(s[1:]) for s in sid]) / K + 0.1
    groups = ["g"] * len(y)
    pooled = Dataset.from_rows(sid, y, X, groups)
    return pooled, Dataset.from_rows(sid, y, np.column_stack([X, z]), groups)


@MERGE_CASES
def test_patterns_match_the_unpooled_subjects(family, kappa):
    # z has coefficient 0 and is constant within each subject: both
    # datasets have the same cells, but only the first pools subjects into
    # patterns, whose modes, scores and node sums must be each subject's own
    pooled, apart = _pattern_oracle_pair(family)
    ws_m, ws_r = _Workspace(pooled, family, 25), _Workspace(apart, family, 25)
    assert ws_m.C == ws_r.C < ws_r.N
    assert ws_r.P == ws_r.K >= 1.5 * ws_m.P
    _assert_merging_is_exact(ws_m, ws_r, np.array([0.3, -0.8, 0.5]), kappa)


@pytest.mark.parametrize("family", [Family.LOGISTIC, Family.NEGBIN])
def test_the_fused_pass_matches_the_per_cell_pass(family, monkeypatch):
    # batch_derivatives folds the cells' row counts into w y and w n, sums the NB
    # node-free terms per pattern and reads the node sums of the Hessian as row dots;
    # the per-cell pass it replaced (conftest) is the oracle.  Both round
    # differently.  Measured worst cases over these data, points and block
    # sizes: d 1.8e-14 of max |d|, the loglik 6.1e-16 relative, H 7.2e-15
    # of the larger of max |H| and max |sum d_i d_i'| (on the sigma2 bound
    # E_post[s s'] and d_i d_i' cancel to a far smaller H); the unsplit NB
    # form at kappa = 1e6, whose terms of size k log k round at ~1e-9 per
    # cell (integral_pieces), 6.8e-10, 1.2e-10 and 1.2e-10.
    import glmm_means.fitter as fitter

    nb = family is Family.NEGBIN
    pooled, merged = _pattern_oracle_pair(family)[0], _merge_oracle_pair(family)[0]
    for block_cells in (10**9, 8 * 25):  # one block; blocks of at most 8 cells
        monkeypatch.setattr(fitter, "_BLOCK_CELLS", block_cells)
        for ds in (pooled, merged):
            ws = _Workspace(ds, family, 25)
            assert ws.C < ws.N and (ds is merged or ws.P < ws.K)
            if block_cells < 10**9:
                assert len(ws.blocks) > 1 and any(b.tail for b in ws.blocks)
            beta = np.array([0.3, -0.8, 0.5])[: ds.p]
            for sigma2, kappa in ((0.6, 4.0), (1e-10, 4.0), (0.6, 1e6), (1e-10, 1e6), (2.0, 0.05)):
                theta = ws.pack(beta, sigma2, kappa if nb else None)
                batch, live = ws.batches[0], (True,)
                at = _Point(batch, [ws.unpack(theta)])
                modes, curv = ws.modes(batch, at, None, live)
                for split in (True, False):
                    ((d, ll, h),) = ws.batch_derivatives(batch, at, modes, curv, live, True, split)
                    d0, ll0, h0 = per_cell_derivatives(ws, ds, theta, modes[ws.pattern],
                                                       curv[ws.pattern], split=split)
                    tol = (5e-9,) * 3 if nb and kappa == 1e6 and not split else (1e-13, 3e-15, 2e-14)
                    assert np.abs(d - d0).max() <= tol[0] * np.abs(d0).max()
                    assert abs(ll - ll0) <= tol[1] * abs(ll0)
                    scale = max(np.abs(h0).max(), np.abs(d0.T @ d0).max())
                    assert np.abs(h - h0).max() <= tol[2] * scale


# counts above SUM_CAP take the asymptotic branch of gamma_sums; two of them
# in one cell must stay two counts, not one clipped to the cap
_BIG = [SUM_CAP + 1, SUM_CAP + 250, 2 * SUM_CAP + 17]


def _level_dataset(repeated):
    """Counts from a few values over repeated covariate rows, so that cells
    hold several rows and subjects repeat each other's rows; zero is
    written 0, -0 and 0.0 across the rows, and some counts exceed SUM_CAP.
    With `repeated`, every row is written one to three times in a row."""
    rng = np.random.default_rng(8)
    zeros = ["0", "-0", "0.0"]
    sid, y, X = [], [], []
    for i in range(30):
        for j in range(int(rng.integers(1, 7))):
            sid.append(f"s{i}")
            X.append([1.0, float(rng.integers(0, 2))])
            count = int(rng.choice([0, 0, 1, 2, 7, 40] + _BIG * (i % 5 == 0)))
            y.append(float(zeros[(i + j) % 3] if count == 0 else str(count)))
    times = rng.integers(1, 4, len(y)) if repeated else np.ones(len(y), np.int64)
    copied = [r for r, s in enumerate(sid) if s in ("s0", "s1", "s5")]  # shared patterns
    sid += [f"copy of {sid[r]}" for r in copied]
    y, X, times = y + [y[r] for r in copied], X + [X[r] for r in copied], np.append(times, times[copied])
    sid = [s for s, n in zip(sid, times) for _ in range(n)]
    return Dataset.from_rows(sid, np.repeat(y, times), np.repeat(X, times, axis=0), ["g"] * len(sid))


@pytest.mark.parametrize("repeated", [False, True])
@pytest.mark.parametrize("kappa", [1e-3, 0.7, 65.0, 999.9, 1e3, 1e6])
def test_per_level_terms_equal_the_per_row_cell_means(kappa, repeated):
    # the NB terms nonlinear in y enter as per-pattern sums of f(y), from
    # (pattern, count, row count) triples and one prefix sum over the
    # distinct counts; against per-row evaluations summed exactly (fsum),
    # they differ only by the rounding of summing terms per count, measured
    # at 2.2e-16 of the sum of |f(y)| (1e-15 allowed)
    ds = _level_dataset(repeated)
    ws = _Workspace(ds, Family.NEGBIN, 25)
    assert np.any(np.signbit(ds.y) & (ds.y == 0.0))
    assert ws.C < ws.N and ws.P < ws.K
    y, pattern, cell = representative_rows(ws, ds)
    # some cell holds two different counts above the cap
    big = y > SUM_CAP
    assert any(np.unique(y[big & (cell == c)]).size > 1 for c in np.unique(cell[big]))
    at = lone_point(ws, np.zeros(ws.p), 1.0, kappa)  # the terms read the size alone
    const, psi, psi1 = ws.gamma_terms(ws.batches[0], at)
    cases = [
        (const, lambda y: gamma_sums(y, kappa, 0) - gamma_sums(y, 1.0, 0)),
        (ws.gamma_terms(ws.batches[0], at, split=False)[0],
         lambda y: gamma_sums(y, kappa, 0) - gamma_sums(y, 1.0, 0) + (y + kappa) * math.log(kappa)),
        (psi, lambda y: gamma_sums(y, kappa, 1)),
        (psi1, lambda y: gamma_sums(y, kappa, 2)),
    ]
    for got, f in cases:
        size = np.bincount(pattern, np.abs(f(y)), minlength=ws.P)
        assert np.all(np.abs(got - per_row_pattern_sums(ws, ds, f)) <= 1e-15 * size)


@pytest.mark.parametrize("bad", [1.5, SUM_CAP + 0.5, -1.0, np.nan, np.inf])
def test_the_workspace_rejects_a_response_that_is_not_a_count(bad):
    ds = Dataset.from_rows(["a", "a", "b"], [2.0, bad, 0.0], np.ones((3, 1)), ["g"] * 3)
    with pytest.raises(ValueError, match="non-negative integers"):
        _Workspace(ds, Family.NEGBIN, 25)


def _doubled(ds):
    """The dataset followed by a copy of every subject under a new id."""
    ids = [ds.subject_ids[k] for k in ds.subject_index]
    return Dataset.from_rows(ids + [f"{i}'" for i in ids], np.tile(ds.y, 2),
                             np.vstack([ds.X, ds.X]), list(ds.group_labels) * 2)


@pytest.mark.parametrize("maker", [logistic_design, negbin_design])
def test_doubling_every_subject_doubles_the_information(maker):
    # a dataset whose sigma2 is off its bound: on the bound sum d_i d_i' is
    # ill-conditioned and the reported covariance follows rounding
    design = maker(control="time", replications=1, seed=3)
    spec = ModelSpec(family=design.family, p=design.p)
    ds = generate_dataset(design, seed=1)
    one, two = fit(ds, spec), fit(_doubled(ds), spec)
    assert one.converged and two.converged and one.params.sigma2 > 1e-3
    assert two.diagnostics["subject_patterns"] == one.diagnostics["subject_patterns"]
    np.testing.assert_allclose(two.params.beta, one.params.beta, rtol=0, atol=1e-8)
    assert two.params.sigma2 == pytest.approx(one.params.sigma2, rel=1e-8)
    if design.family is Family.NEGBIN:
        assert two.params.kappa == pytest.approx(one.params.kappa, rel=1e-8)
    assert two.loglik == pytest.approx(2.0 * one.loglik, rel=1e-12)
    np.testing.assert_allclose(two.cov_psi, 0.5 * one.cov_psi, rtol=1e-8, atol=0)
    np.testing.assert_allclose(two.cond_modes, np.tile(one.cond_modes, 2), rtol=0, atol=1e-10)


def test_fit_reports_subject_patterns():
    # a pattern is the multiset of a subject's (covariate row, response)
    # rows, here counted as a set of sorted tuples
    for control, patterns in (("gender", 22), ("time", 23)):
        design = logistic_design(control=control, replications=1, seed=3)
        ds = generate_dataset(design)
        fitted = fit(ds, ModelSpec(family=design.family, p=design.p))
        rows = np.column_stack([ds.X, ds.y])
        bounds = zip(ds.row_offsets[:-1], ds.row_offsets[1:])
        distinct = {tuple(sorted(map(tuple, rows[a:b]))) for a, b in bounds}
        assert fitted.diagnostics["subject_patterns"] == len(distinct) == patterns


def test_spd_inverse_matches_the_cholesky_solve():
    rng = np.random.default_rng(6)
    for n in (1, 3, 8):
        g = rng.normal(size=(n, n + 2))
        a = g @ g.T
        want = cho_solve(cho_factor(a), np.eye(n))
        assert np.abs(spd_inverse(a) - want).max() <= 1e-13 * np.abs(want).max()


def test_spd_inverse_rejects_indefinite_and_non_finite_matrices():
    with pytest.raises(np.linalg.LinAlgError):
        spd_inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        spd_inverse(np.array([[1.0, 0.0], [0.0, 0.0]]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            spd_inverse(np.array([[2.0, bad], [bad, 2.0]]))


def test_singular_information_falls_back_to_the_pseudo_inverse():
    # a covariate that is zero on every row has a zero score on every
    # subject, so sum d_i d_i' is singular
    ds = toy_dataset(Family.LOGISTIC, K=30, n=3, sigma=0.5, seed=2)
    ds = Dataset.from_rows([ds.subject_ids[k] for k in ds.subject_index], ds.y,
                           np.column_stack([ds.X, np.zeros(ds.n_obs)]), list(ds.group_labels))
    fitted = fit(ds, ModelSpec(family=Family.LOGISTIC, p=3))
    assert "singular_information_pseudo_inverse" in fitted.cov_flags
    assert np.all(np.isfinite(fitted.cov_psi))
    assert np.abs(fitted.cov_psi[2]).max() <= 1e-12 * np.abs(fitted.cov_psi).max()


def test_subject_scores_sum_to_near_zero_at_mle(logistic_toy_fit):
    d = subject_scores(logistic_toy_fit)
    assert np.max(np.abs(d.sum(axis=0))) <= SCORE_TOL


@pytest.mark.parametrize("fixture", ["logistic_toy_fit", "negbin_toy_fit"])
def test_covariance_equals_the_one_rebuilt_from_subject_scores(fixture, request):
    # the logistic's covariance scores are the Newton loop's last accepted
    # pass and the NB's one unsplit closing pass; subject_scores makes
    # that pass afresh, and the BHHH inverse built from it is bitwise equal
    fitted = request.getfixturevalue(fixture)
    d = subject_scores(fitted)
    jac = np.ones(d.shape[1])
    jac[fitted.params.p] = fitted.params.sigma2
    if fitted.params.kappa is not None:
        jac[-1] = fitted.params.kappa
    cov = spd_inverse(d.T @ d) * np.outer(jac, jac)
    assert fitted.cov_flags == ()
    assert np.array_equal(0.5 * (cov + cov.T), fitted.cov_psi)


@pytest.mark.parametrize("fixture, score_passes", [("logistic_toy_fit", 0), ("negbin_toy_fit", 1)])
def test_diagnostics_count_passes_trials_and_mode_kernels(fixture, score_passes, request):
    # one derivatives pass at the start and one per line-search trial, plus
    # the NB's unsplit score pass; a mode solve evaluates at least one kernel
    fitted = request.getfixturevalue(fixture)
    diag = fitted.diagnostics
    trials = diag["line_search_trials"]
    assert trials >= fitted.iterations
    assert diag["quadrature_passes"] == 1 + trials + score_passes
    assert diag["mode_kernel_evaluations"] >= 1 + trials
    assert fit(fitted.dataset, fitted.spec, fitted.config).diagnostics == diag


def test_workspace_builds_its_parameter_free_arrays_once_read_only():
    ws = _Workspace(toy_dataset(Family.NEGBIN, K=400, n=3), Family.NEGBIN, 25)
    assert len(ws.blocks) > 1
    assert np.array_equal(ws.wy, ws.w * ws.y)
    for blk in ws.blocks:
        assert blk.XT.flags.c_contiguous and np.array_equal(blk.XT, ws.X[blk.cells].T)
    for arr in [ws.wy] + [blk.XT for blk in ws.blocks]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0


# ---- fit -------------------------------------------------------------------------


def _irls_logistic(X, y, iters=50):
    beta = np.zeros(X.shape[1])
    for _ in range(iters):
        p = stable_expit(X @ beta)
        w = np.clip(p * (1 - p), 1e-9, None)
        z = X @ beta + (y - p) / w
        beta = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * z))
    cov = np.linalg.inv(X.T @ ((p * (1 - p))[:, None] * X))
    return beta, cov


def test_fit_with_no_random_effect_matches_glm():
    rng = np.random.default_rng(33)
    subjects = []
    for i in range(150):
        x = np.column_stack([np.ones(2), rng.uniform(-1, 1, 2)])
        y = rng.binomial(1, stable_expit(x @ np.array([0.4, -0.8]))).astype(float)
        subjects.append(SubjectBlock(subject_id=f"s{i}", y=y, X=x, groups=("g", "g")))
    ds = Dataset(subjects)
    fitted = fit(ds, ModelSpec(family=Family.LOGISTIC, p=2), FitConfig())
    beta_glm, cov_glm = _irls_logistic(ds.X, ds.y)
    se = np.sqrt(np.diag(cov_glm))
    assert fitted.converged
    assert fitted.params.sigma2 < 0.05
    np.testing.assert_array_less(np.abs(fitted.params.beta - beta_glm), 3 * se)


def test_fit_is_deterministic(logistic_toy_fit):
    ds = logistic_toy_fit.dataset
    again = fit(ds, logistic_toy_fit.spec, logistic_toy_fit.config)
    assert np.array_equal(again.params.beta, logistic_toy_fit.params.beta)
    assert again.params.sigma2 == logistic_toy_fit.params.sigma2
    assert np.array_equal(again.cov_psi, logistic_toy_fit.cov_psi)
    assert again.loglik == logistic_toy_fit.loglik


def _study_replications(design, picks):
    """The datasets of the given replications of run_study(design)."""
    seeds = np.random.SeedSequence(design.seed).spawn(design.replications)
    return [generate_replication(design, seeds[i])[0] for i in picks]


def _assert_same_fit(got, want):
    assert np.array_equal(got.params.beta, want.params.beta)
    assert (got.params.sigma2, got.params.kappa) == (want.params.sigma2, want.params.kappa)
    for name in ("cov_psi", "cond_modes", "cond_curvatures"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("loglik", "converged", "iterations", "score_norm", "cov_flags", "diagnostics"):
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("family", [Family.LOGISTIC, Family.NEGBIN])
def test_batched_fits_equal_lone_fits_bit_for_bit(family, monkeypatch):
    # fit_batch evaluates a batch's replications together, but sums each
    # replication's values alone, in its lone order; the first logistic
    # replication takes the on-score path (30 passes), the first NB one ends
    # on the (sigma2, kappa) = (1e-10, 1e6) corner
    import glmm_means.fitter as fitter

    if family is Family.LOGISTIC:
        datasets = (_study_replications(logistic_design(arm_sizes=(8, 6, 8, 6), replications=50,
                                                        seed=2), [34, 3, 17])
                    + _study_replications(logistic_design(control="time", replications=3, seed=5),
                                          range(3)))
    else:
        datasets = (_study_replications(negbin_design(control="time", replications=4, seed=3),
                                        [0, 1])
                    + _study_replications(negbin_design(replications=3, seed=5), range(3)))
    spec = ModelSpec(family=family, p=4)

    def refit_alone(dataset, spec, config):
        raise AssertionError("a batch fell back to lone fits")

    monkeypatch.setattr(fitter, "_fit_alone", refit_alone)  # every batch runs in lockstep
    for block_cells in (fitter._BLOCK_CELLS, 25 * 20):  # the default; blocks of 20 cells
        monkeypatch.setattr(fitter, "_BLOCK_CELLS", block_cells)
        batches = _Workspace(datasets, family, 25).batches
        if block_cells == 25 * 20:  # some replication spans blocks in its batch
            assert any(len(b.blocks) > 1 for b in batches)
        else:  # some block holds several replications
            assert any(len(b.reps) > 1 for b in batches)
        lone = [fit(ds, spec) for ds in datasets]
        if family is Family.LOGISTIC:
            assert lone[0].diagnostics["quadrature_passes"] == 30
        else:
            assert (lone[0].params.sigma2, lone[0].params.kappa) == pytest.approx((1e-10, 1e6))
        for size in (1, 3, len(datasets)):
            got = [f for k in range(0, len(datasets), size)
                   for f in fitter.fit_batch(datasets[k : k + size], spec)]
            assert len(got) == len(lone)
            for g, want in zip(got, lone):
                _assert_same_fit(g, want)


@pytest.mark.parametrize("family", [Family.LOGISTIC, Family.NEGBIN])
def test_quasi_newton_fits_in_one_batch_equal_lone_fits_bit_for_bit(family, monkeypatch):
    # the L-BFGS stage asks the lockstep workspace for Newton rounds of its
    # dataset alone, so a batch of gender replications needs no lone refit
    import glmm_means.fitter as fitter

    make = logistic_design if family is Family.LOGISTIC else negbin_design
    datasets = _study_replications(make(control="gender", replications=3, seed=5), range(3))
    assert [len(b.reps) for b in _Workspace(datasets, family, 25).batches] == [3]
    spec, config = ModelSpec(family=family, p=4), FitConfig(optimizer="quasi_newton")
    lone = [fit(ds, spec, config) for ds in datasets]

    def refit_alone(dataset, spec, config):
        raise AssertionError("a batch fell back to lone fits")

    monkeypatch.setattr(fitter, "_fit_alone", refit_alone)
    got = fitter.fit_batch(datasets, spec, config)
    assert [f.optimizer_used for f in got] == ["quasi_newton+newton"] * 3
    for g, want in zip(got, lone):
        _assert_same_fit(g, want)


@pytest.mark.parametrize("family", [Family.LOGISTIC, Family.NEGBIN])
def test_a_batch_whose_stacked_inverse_raises_inverts_each_fit_alone(family, monkeypatch):
    # one fit's information is refused as singular: the batch's stacked
    # inverse raises, so each fit's is taken alone, and the refused one
    # takes the pseudo-inverse, as it does alone
    import glmm_means.fitter as fitter

    make = logistic_design if family is Family.LOGISTIC else negbin_design
    datasets = _study_replications(make(control="gender", replications=3, seed=5), range(3))
    spec, real = ModelSpec(family=family, p=4), fitter.spd_inverse
    target = fit(datasets[1], spec)
    ws = _Workspace(target.dataset, family, 25)
    theta = ws.pack(target.params.beta, target.params.sigma2, target.params.kappa)
    d = subject_scores(target)
    refused = d.T @ d
    assert np.array_equal(target.cov_psi, fitter._covariances(ws, theta[None], [d])[0][0])

    def spd_inverse(h):
        if any(np.array_equal(m, refused) for m in h):
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return real(h)

    def refit_alone(dataset, spec, config):
        raise AssertionError("a batch fell back to lone fits")

    monkeypatch.setattr(fitter, "spd_inverse", spd_inverse)
    monkeypatch.setattr(fitter, "_fit_alone", refit_alone)
    lone = [fit(ds, spec) for ds in datasets]
    assert [f.cov_flags for f in lone] == [(), ("singular_information_pseudo_inverse",), ()]
    for g, want in zip(fitter.fit_batch(datasets, spec), lone):
        _assert_same_fit(g, want)


def test_a_batch_solve_holds_the_datasets_not_live_where_they_start():
    # a round solves the modes of the datasets that ask for a solve; the
    # patterns of the others keep their given modes and count no kernels
    datasets = _study_replications(negbin_design(replications=3, seed=5), range(3))
    ws = _Workspace(datasets, Family.NEGBIN, 25)
    (batch,) = ws.batches
    at = _Point(batch, [(np.array([0.3, -0.2, 0.3, 0.4]), 0.01, 50.0)] * 3)
    b0 = np.random.default_rng(0).normal(size=batch.P)
    modes, _ = ws.modes(batch, at, b0.copy(), np.array([True, False, True]))
    held, solved = batch.reps[1].patterns, batch.reps[0].patterns
    assert np.array_equal(modes[held], b0[held]) and not np.array_equal(modes[solved], b0[solved])
    assert ws.kernel_evaluations[1] == 0 and ws.kernel_evaluations[0] > 1


@pytest.mark.parametrize("control", ["gender", "time"])
def test_an_nb_batch_serves_its_covariance_scores_in_one_closing_round(control, monkeypatch):
    # each NB fit's covariance-score request waits until no Newton request
    # is left in its batch: a batch makes as many rounds as its slowest
    # replication's lone passes, and its last round is its only closing one
    import glmm_means.fitter as fitter

    spec = ModelSpec(family=Family.NEGBIN, p=4)
    real, rounds = fitter._evaluate, []

    def evaluate(ws, batch, asked, *closing):
        rounds.append((batch.index.start, any(c is not None for _, _, c in asked.values())))
        return real(ws, batch, asked, *closing)

    def refit_alone(dataset, spec, config):
        raise AssertionError("a batch fell back to lone fits")

    monkeypatch.setattr(fitter, "_fit_alone", refit_alone)
    for seed in range(3):
        datasets = _study_replications(negbin_design(control=control, replications=4, seed=seed),
                                       range(4))
        passes = [fit(ds, spec).diagnostics["quadrature_passes"] for ds in datasets]
        with monkeypatch.context() as mp:
            mp.setattr(fitter, "_evaluate", evaluate)
            rounds.clear()
            fitter.fit_batch(datasets, spec)
        for batch in _Workspace(datasets, Family.NEGBIN, 25).batches:
            closing = [c for start, c in rounds if start == batch.index.start]
            assert len(closing) == max(passes[batch.index]), (seed, passes)
            assert closing == [False] * (len(closing) - 1) + [True], seed


def test_a_batch_whose_evaluation_raises_mid_run_is_refitted_alone(monkeypatch):
    # one Newton loop steps every batch of a run: when the third round of
    # the first batch raises, that batch is refitted one dataset at a time
    # and the other batch goes on in lockstep; every fit is its lone fit
    import glmm_means.fitter as fitter

    datasets = _study_replications(negbin_design(control="time", replications=4, seed=3),
                                   range(4))
    spec = ModelSpec(family=Family.NEGBIN, p=4)
    assert [len(b.reps) for b in _Workspace(datasets, Family.NEGBIN, 25).batches] == [2, 2]
    lone = [fit(ds, spec) for ds in datasets]
    real, real_alone, calls, alone = fitter._evaluate, fitter._fit_alone, [], []

    def evaluate(ws, batch, asked, closing):
        if batch.index.start == 0 and len(batch.reps) > 1:
            calls.append(closing)
            if len(calls) == 3:
                raise FloatingPointError("third round")
        return real(ws, batch, asked, closing)

    def fit_alone(dataset, *args):
        alone.append(dataset)
        return real_alone(dataset, *args)

    monkeypatch.setattr(fitter, "_evaluate", evaluate)
    monkeypatch.setattr(fitter, "_fit_alone", fit_alone)
    got = fitter.fit_batch(datasets, spec)
    assert alone == datasets[:2] and calls == [False] * 3
    for g, want in zip(got, lone):
        _assert_same_fit(g, want)


def test_workspace_shares_hold_no_covariate_array_twice(monkeypatch):
    # a lone dataset over several blocks: its share views the workspace's X,
    # and each block's member reads the block's X'
    import glmm_means.fitter as fitter

    with monkeypatch.context() as mp:
        mp.setattr(fitter, "_BLOCK_CELLS", 25 * 20)
        ws = _Workspace(toy_dataset(Family.LOGISTIC, K=60, n=3), Family.LOGISTIC, 25)
    (batch,) = ws.batches
    assert len(batch.blocks) > 1 and np.shares_memory(batch.reps[0].X, ws.X)
    for blk in batch.blocks:
        (mem,) = blk.members
        assert mem.XT is blk.XT and np.shares_memory(mem.X, ws.X)
    # the gender design has one cell per pattern, so each replication's cells
    # in a shared block are one run, and its X views the workspace's X
    # (test_batched_irls_starts_equal_lone_starts takes such shares)
    for design in (logistic_design(), negbin_design()):
        datasets = [generate_dataset(design, s) for s in range(3)]
        ws = _Workspace(datasets, design.family, 25)
        (batch,) = ws.batches
        assert len(batch.reps) == 3 and batch.reps == batch.blocks[0].members
        for rep in batch.reps:
            assert isinstance(rep.cells, slice) and np.shares_memory(rep.X, ws.X)


@pytest.fixture(scope="module")
def negbin_shared_pattern_fit():
    """A categorical design with count responses: its subjects share patterns."""
    design = negbin_design(control="gender", arm_sizes=(40, 36, 40, 32))
    return fit(generate_dataset(design, seed=3), ModelSpec(family=Family.NEGBIN, p=design.p))


@pytest.mark.parametrize("fixture", ["logistic_toy_fit", "negbin_toy_fit",
                                     "negbin_shared_pattern_fit"])
def test_fit_satisfies_contracts(fixture, request):
    fitted = request.getfixturevalue(fixture)
    assert fitted.converged
    assert fitted.score_norm <= SCORE_TOL
    cov = fitted.cov_psi
    np.testing.assert_allclose(cov, cov.T, atol=1e-10)
    eig = np.linalg.eigvalsh(cov)
    assert eig.min() >= -1e-8 * max(eig.max(), 1e-300)
    # modes satisfy the stationarity tolerance; the workspace scores patterns
    ws = _Workspace(fitted.dataset, fitted.spec.family, fitted.config.gh_nodes)
    assert fixture != "negbin_shared_pattern_fit" or ws.P < ws.K
    modes = np.array(fitted.cond_modes)
    assert np.array_equal(modes, modes[ws.rep][ws.pattern])
    b, params = modes[ws.rep], fitted.params
    score = ws.loglik_score(ws.batches[0], ws.X @ params.beta, b, params.kappa)[0]
    score -= b / params.sigma2
    assert np.max(np.abs(score)) <= MODE_TOL * 10


def test_quasi_newton_reaches_the_same_optimum(logistic_toy_fit):
    ds = logistic_toy_fit.dataset
    qn = fit(ds, logistic_toy_fit.spec, FitConfig(optimizer="quasi_newton"))
    assert qn.converged
    assert qn.loglik == pytest.approx(logistic_toy_fit.loglik, abs=1e-7)
    np.testing.assert_allclose(qn.params.beta, logistic_toy_fit.params.beta, atol=1e-5)


def test_fit_leaves_a_lower_variance_bound_the_likelihood_rises_from():
    # the log-scale score sigma2 dl/dsigma2 vanishes at sigma2 = 1e-10
    # whatever the slope; this replication once stopped there, converged,
    # at a loglik 1.2e-4 below its optimum near sigma2 = 5.1e-4
    design = negbin_design(control="time", replications=1, seed=24)
    ds = generate_dataset(design)
    spec = ModelSpec(family=Family.NEGBIN, p=design.p)
    fitted = fit(ds, spec)
    assert fitted.converged
    assert fitted.loglik >= -1214.1542948500683 + 1e-4

    def loglik(sigma2):
        params = ParamVector(beta=fitted.params.beta, sigma2=sigma2, kappa=fitted.params.kappa)
        return marginal_loglik(ds, spec, params)

    # finite-difference oracle in sigma2 with beta and kappa held: the
    # likelihood rises away from the bound, and is flat at the fitted value
    rise = (loglik(1e-10 + 1e-6) - loglik(1e-10)) / 1e-6
    s2, h = fitted.params.sigma2, 1e-5
    slope = (loglik(s2 + h) - loglik(s2 - h)) / (2 * h)
    assert rise > 0.1
    assert abs(slope) <= 1e-4 * rise


# Inputs on which earlier optimizers went wrong, with the loglik of the
# four-stage optimizer that preceded the Newton loop.  Its NB logliks at
# kappa = 1e6 read up to ~6e-7 high (gammaln differences at 1e6); its two
# logistic fits stopped at sigma2 = 25 below the loglik a Newton step reaches.
HARD_INPUTS = [
    (negbin_design, dict(control="gender", seed=28), -1145.5351397668908),
    (negbin_design, dict(control="gender", seed=34), -1136.3208361718844),
    (negbin_design, dict(control="time", seed=24), -1214.1542948500683),
    (negbin_design, dict(arm_sizes=(8, 6, 8, 6), seed=35), -41.79158084244554),
    (negbin_design, dict(arm_sizes=(8, 6, 8, 6), seed=56), -42.64361273904391),
    (negbin_design, dict(arm_sizes=(8, 6, 8, 6), seed=57), -41.99711551562922),
    (negbin_design, dict(arm_sizes=(8, 6, 8, 6), seed=60), -48.21254706611984),
    (logistic_design, dict(arm_sizes=(8, 6, 8, 6), seed=60), -9.786799455830373),
    (logistic_design, dict(arm_sizes=(8, 6, 8, 6), seed=75), -12.07209749070789),
]


@pytest.mark.parametrize(
    "make,kwargs,loglik",
    HARD_INPUTS,
    ids=[f"{m.__name__[:-7]}-{k.get('control', 'arms8686')}-{k['seed']}" for m, k, _ in HARD_INPUTS],
)
def test_hard_inputs_converge_without_losing_likelihood(make, kwargs, loglik):
    design = make(replications=1, **kwargs)
    fitted = fit(generate_dataset(design), ModelSpec(family=design.family, p=design.p))
    assert fitted.converged
    assert fitted.loglik >= loglik - 1e-6
    assert fitted.optimizer_used == "newton"


def test_posterior_means_close_to_modes_for_logistic(logistic_toy_fit):
    em = posterior_mean_effects(logistic_toy_fit)
    gap = np.abs(em - np.array(logistic_toy_fit.cond_modes))
    assert np.max(gap) < 0.15 * logistic_toy_fit.params.sigma + 1e-6


@pytest.mark.slow
def test_fit_recovers_coefficients_over_replications(time_study_r200):
    # time design, 200 replications: average beta_hat lands near the truth.
    # Logistic ML carries a small-sample bias proportional to the
    # coefficient (measured ~2% on the -3.0 slope at this K), so the bound
    # is 0.05 absolute or 2.5% relative, whichever is larger.
    design, report = time_study_r200
    betas = np.array([r["params"]["beta"] for r in report.records])
    truth = np.array(design.beta)
    assert report.failures <= 4
    bound = np.maximum(0.05, 0.025 * np.abs(truth))
    np.testing.assert_array_less(np.abs(betas.mean(axis=0) - truth), bound)


@pytest.mark.slow
def test_fit_negbin_sigma2_mean_over_replications():
    import glmm_means as gm

    design = gm.negbin_design(replications=200, seed=77)
    report = gm.run_study(design, return_records=True)
    s2 = np.array([r["params"]["sigma2"] for r in report.records])
    assert abs(s2.mean() - 0.01) <= 0.01


@pytest.mark.parametrize("family", [Family.LOGISTIC, Family.NEGBIN])
def test_batched_irls_starts_equal_lone_starts(family):
    # one loop serves a batch's starts; each equals the start of a loop over
    # that dataset alone, bit for bit, also where a dataset of the batch has
    # a singular X'WX: its solve fails, and it alone stops at its first start
    design = (logistic_design if family is Family.LOGISTIC else negbin_design)(
        arm_sizes=(20, 18, 20, 16), replications=4, seed=7)
    datasets = [generate_dataset(design, s) for s in np.random.SeedSequence(7).spawn(4)]
    ds = datasets[1]
    X = ds.X.copy()
    X[:, 2] = 0.0  # a zero column: X'WX has a zero row and column
    singular = Dataset.from_rows([ds.subject_ids[k] for k in ds.subject_index], ds.y, X,
                                 ds.group_labels)
    datasets.insert(2, singular)
    ws = _Workspace(datasets, family, 25)
    assert len(ws.batches) == 1
    assert all(isinstance(rep.cells, slice) for rep in ws.batches[0].reps)  # one run each
    starts = _irls_starts(ws, ws.batches[0], datasets)
    for ds, start in zip(datasets, starts):
        lone = _Workspace(ds, family, 25)
        batch = lone.batches[0]
        rep = batch.reps[0]
        w = batch.w[rep.cells] * lone.m[batch.patterns][batch.subj][rep.cells]
        want = irls_start(family, rep.X, batch.y[rep.cells], w, ds.y)
        assert np.array_equal(start, want)
        assert np.array_equal(_irls_starts(lone, batch, [ds])[0], want)
    first = np.zeros(4)
    if family is Family.NEGBIN:
        first[0] = math.log(float(np.mean(singular.y)))
    assert np.array_equal(starts[2], first)
    assert not any(np.array_equal(start, first) for i, start in enumerate(starts) if i != 2)

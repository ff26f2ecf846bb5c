"""The lockstep invariant: a batched fit is its lone fit and a batched
estimate its lone estimate, bit for bit, whatever the batch, so a study's
report does not depend on its run length; and the stacked linear algebra of
a batch's Newton steps and covariances equals its per-matrix calls bit for
bit."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import glmm_means.fitter as fitter
import glmm_means.simulate as sim
from glmm_means.fitter import LOG_KAPPA_BOUNDS, LOG_SIGMA2_BOUNDS
from glmm_means import (Dataset, Family, ModelSpec, SubjectBlock, fit, logistic_design,
                        negbin_design, run_study)
from glmm_means.conditional import conditional_batch, conditional_estimates
from glmm_means.marginal import marginal_batch, marginal_estimates

from test_fitter import _assert_same_fit

X_VALUES = (-1.0, -0.5, 0.0, 0.5, 1.0)  # few values, so covariate rows repeat
COUNTS = (0, 0, 1, 2, 3, 5, 9, 40, 700, 5000)  # NB responses, 0 to large


@st.composite
def subject_rows(draw, family, p):
    """One subject of 1-5 rows: (X, y, groups)."""
    n = draw(st.integers(1, 5))
    X = np.ones((n, p))
    for c in range(1, p):
        X[:, c] = draw(st.lists(st.sampled_from(X_VALUES if c == 1 else (0.0, 1.0)),
                                min_size=n, max_size=n))
    values = (0, 1) if family is Family.LOGISTIC else COUNTS
    y = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)), float)
    return X, y, tuple(f"g{int(x > 0)}" for x in X[:, -1])


@st.composite
def small_dataset(draw, family, p):
    """1-8 subjects, some of them copies of an earlier one so that patterns
    pool.  `copies` repeats the first subject throughout, and `flat` (NB)
    gives every row one count: both put sigma2 or kappa on a bound."""
    kinds = ["random", "copies"] + (["flat"] if family is Family.NEGBIN else [])
    kind = draw(st.sampled_from(kinds))
    subjects = []
    for k in range(draw(st.integers(1, 8))):
        if subjects and (kind == "copies" or draw(st.integers(0, 3)) == 0):
            y, X, groups = subjects[0 if kind == "copies" else draw(st.integers(0, k - 1))]
        else:
            X, y, groups = draw(subject_rows(family, p))
            if kind == "flat":
                y = np.full_like(y, subjects[0][0][0] if subjects else y[0])
        subjects.append((y, X, groups))
    event(kind)
    return Dataset([SubjectBlock(f"s{k}", *rows) for k, rows in enumerate(subjects)])


@st.composite
def lockstep_case(draw):
    family = draw(st.sampled_from([Family.LOGISTIC, Family.NEGBIN]))
    p = draw(st.integers(2, 3))
    datasets = draw(st.lists(small_dataset(family, p), min_size=1, max_size=6))
    return ModelSpec(family=family, p=p), datasets


def _assert_same_outcome(got, want):
    """Equal fits, or the same exception."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        _assert_same_fit(got, want)


def _bits(estimates):
    """Every field of every group's estimate, each float by its repr: equal
    reprs are equal floats, NaN included."""
    return [(gid, e.kind, e.n_obs, *map(repr, (e.point, e.variance, e.star, e.star_variance)),
             [(label, repr(iv.lower), repr(iv.upper)) for label, iv in e.intervals.items()])
            for gid, e in estimates.items()]


def _lone(dataset, spec):
    """`fit`, or the exception it raises."""
    try:
        return fit(dataset, spec)
    except Exception as exc:
        return exc


def _refit_alone(dataset, spec, config):
    raise AssertionError("a batch fell back to lone fits")


@settings(max_examples=25)
@given(lockstep_case())
def test_batched_fits_and_estimates_equal_lone_ones_on_any_layout(case):
    # every batch runs in lockstep (no lone refit), under blocks of the
    # default size, of 20 cells and of 5 cells, so that datasets span blocks
    # and blocks hold several of them
    spec, datasets = case
    event(spec.family.value)
    with warnings.catch_warnings(), mock.patch.object(fitter, "_fit_alone", _refit_alone):
        warnings.simplefilter("ignore")  # the fits of degenerate data may warn; they must agree
        for block_cells in (fitter._BLOCK_CELLS, 25 * 20, 25 * 5):
            with mock.patch.object(fitter, "_BLOCK_CELLS", block_cells):
                lone = [_lone(ds, spec) for ds in datasets]
                got = fitter.fit_batch(datasets, spec)
                batches = fitter._Workspace(datasets, spec.family, 25).batches
            layouts = {"shared block" if len(b.reps) > 1 else "spans blocks" if len(b.blocks) > 1
                       else "one block" for b in batches}
            event(f"blocks of {block_cells // 25} cells: {', '.join(sorted(layouts))}")
            assert len(got) == len(lone)
            for g, want in zip(got, lone):
                _assert_same_outcome(g, want)
            if block_cells == fitter._BLOCK_CELLS:
                fits = [f for f in lone if not isinstance(f, Exception)]
        for f in fits:
            values = [("sigma2", f.params.sigma2, LOG_SIGMA2_BOUNDS), ("kappa", f.params.kappa,
                                                                      LOG_KAPPA_BOUNDS)]
            on = [name for name, value, bounds in values
                  if value is not None and np.isclose(np.log(value), bounds, atol=1e-6).any()]
            event(f"on a bound: {' and '.join(on) or 'none'}")
        # the estimates of the fits whose lone estimates do not raise
        estimable = []
        for f in fits:
            try:
                estimable.append((f, marginal_estimates(f), conditional_estimates(f)))
            except Exception:
                continue
        run = [f for f, _, _ in estimable]
        if run:
            for (_, marg, cond), got_m, got_c in zip(estimable, marginal_batch(run),
                                                     conditional_batch(run)):
                assert _bits(got_m) == _bits(marg)
                assert _bits(got_c) == _bits(cond)


@pytest.mark.parametrize("make", [logistic_design, negbin_design])
def test_a_study_report_does_not_depend_on_its_run_length(make):
    # a serial study fits and estimates runs of _RUN replications together;
    # runs of 1, 3 and 16 give the same report and the same rows, bit for bit
    design = make(arm_sizes=(20, 18, 20, 16), replications=7, seed=3)
    reports = []
    for run in (1, 3, 16):
        with mock.patch.object(sim, "_RUN", run):
            reports.append(run_study(design, max_workers=1))
    for report in reports[1:]:
        assert report == reports[0]
        assert repr(report.to_rows()) == repr(reports[0].to_rows())


def _random_stack(rng, d, b, spd):
    """b matrices of order d at scales from 1e-6 to 1e6: symmetric, or
    symmetric positive definite."""
    a = rng.normal(size=(b, d, d)) * 10.0 ** rng.uniform(-6, 6, size=(b, 1, 1))
    if spd:
        floor = np.abs(a).max(axis=(1, 2), keepdims=True) * 1e-3 * np.eye(d)
        return a @ np.swapaxes(a, 1, 2) + floor
    return a + np.swapaxes(a, 1, 2)


@pytest.mark.parametrize("spd", [False, True])
def test_stacked_linear_algebra_equals_per_matrix_calls_bit_for_bit(spd):
    # a batch's Newton step and covariance call eigh, cholesky, inv and
    # eigvalsh once per stack, and write each matrix-vector product as a
    # (B, d, d) @ (B, d, 1) matmul (einsum's order of products differs); a
    # lone fit is the stack of one
    rng = np.random.default_rng(26 + spd)
    for _ in range(150):
        d, b = int(rng.integers(3, 7)), int(rng.integers(1, 17))
        a = _random_stack(rng, d, b, spd)
        x = rng.normal(size=(b, d)) * 10.0 ** rng.uniform(-6, 6, size=(b, 1))
        if spd:
            stacked = [np.linalg.cholesky(a), np.linalg.inv(a), np.linalg.eigvalsh(a)]
            alone = [[np.linalg.cholesky(m), np.linalg.inv(m), np.linalg.eigvalsh(m)] for m in a]
        else:
            w, v = np.linalg.eigh(a)
            stacked = [w, v, (v @ x[..., None])[..., 0],
                       (np.swapaxes(v, 1, 2) @ x[..., None])[..., 0]]
            alone = []
            for m, xk in zip(a, x):
                wk, vk = np.linalg.eigh(m)
                alone.append([wk, vk, vk @ xk, vk.T @ xk])
        for k, want in enumerate(alone):
            for got, one in zip(stacked, want):
                assert np.array_equal(got[k], one), (d, b, k)

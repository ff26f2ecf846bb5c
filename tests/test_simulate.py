"""Design generation, true means, reproducibility, and coverage semantics."""

import dataclasses

import numpy as np
import pytest

import glmm_means.simulate as sim
from glmm_means import Dataset, Family, generate_dataset, logistic_design, negbin_design, run_study
from glmm_means.simulate import generate_replication, true_marginal_means
from glmm_means.families import stable_expit
from glmm_means.fitter import _Workspace
from glmm_means.model import ModelSpec, ParamVector
from glmm_means.quadrature import logistic_normal_integral

from conftest import study_group_summary


SMALL = dict(arm_sizes=(20, 18, 20, 16), replications=6, seed=3)


# ---- designs and generation -----------------------------------------------------


def test_time_design_group_sizes_match_the_dropout_pattern():
    ds = generate_dataset(logistic_design(control="time"), seed=1)
    assert ds.group_index.sizes == {"u1_t0": 200, "u1_t1": 180, "u0_t0": 200, "u0_t1": 160}
    assert ds.n_subjects == 400
    assert ds.n_obs == 740


def test_gender_design_group_sizes():
    ds = generate_dataset(logistic_design(control="gender"), seed=1)
    assert ds.group_index.sizes == {"u1_t0": 200, "u1_t1": 160, "u0_t0": 200, "u0_t1": 160}
    assert ds.n_subjects == 360
    assert ds.n_obs == 720
    # every subject contributes two identical covariate rows
    assert all(s.n_obs == 2 for s in ds.subjects)
    for s in ds.subjects[:10]:
        np.testing.assert_array_equal(s.X[0], s.X[1])


def test_bernoulli_baseline_is_exactly_balanced():
    ds = generate_dataset(logistic_design(control="time"), seed=1)
    for gid, idx in ds.group_index.indices.items():
        x = ds.X[idx, 1]
        assert set(np.unique(x)) == {0.0, 1.0}
        assert abs(x.mean() - 0.5) < 1e-12, gid


def test_uniform_baseline_covers_the_unit_interval():
    ds = generate_dataset(logistic_design(baseline="uniform", control="time"), seed=1)
    for gid, idx in ds.group_index.indices.items():
        x = ds.X[idx, 1]
        assert 0.0 < x.min() and x.max() < 1.0
        assert abs(x.mean() - 0.5) < 0.02, gid  # low-discrepancy prefix


def test_generation_is_reproducible():
    design = logistic_design(**SMALL)
    a = generate_dataset(design, seed=11)
    b = generate_dataset(design, seed=11)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.X, b.X)


def test_replication_returns_realized_conditional_means():
    design = negbin_design(**SMALL)
    ds, lam = generate_replication(design, seed=5)
    assert set(lam) == set(ds.group_index.group_ids)
    # realized means track the true scale of the design
    mus = true_marginal_means(design)
    for gid in lam:
        assert abs(lam[gid] - mus[gid]) < 0.6


@pytest.mark.parametrize("baseline", ["bernoulli", "uniform"])
@pytest.mark.parametrize("control", ["gender", "time"])
def test_replication_equals_the_dataset_built_from_its_rows(baseline, control):
    # the cached frame with drawn responses is the Dataset that from_rows
    # builds from the same per-row ids, covariates, responses and labels
    design = logistic_design(baseline=baseline, control=control)
    ds, _ = generate_replication(design, seed=7)
    ids = [f"s{k:05d}" for k in ds.subject_index]
    oracle = Dataset.from_rows(ids, ds.y, ds.X, ds.group_labels)
    assert ds.subject_ids == oracle.subject_ids
    assert ds.group_labels == oracle.group_labels
    for name in ("y", "X", "subject_index", "row_offsets"):
        np.testing.assert_array_equal(getattr(ds, name), getattr(oracle, name), strict=True)
    assert ds.group_index.group_ids == oracle.group_index.group_ids
    for gid in oracle.group_index.group_ids:
        np.testing.assert_array_equal(ds.group_index.rows(gid), oracle.group_index.rows(gid),
                                      strict=True)


def test_replications_leave_the_cached_frame_unchanged():
    design = negbin_design(**SMALL)
    frame = sim._covariate_frame(design)
    ds, _ = generate_replication(design, seed=5)
    assert ds.y.any()
    assert sim._covariate_frame(design) is frame
    np.testing.assert_array_equal(frame.y, np.zeros(frame.n_obs))


def test_a_study_builds_each_frame_once(monkeypatch):
    calls = []
    real = Dataset.from_rows.__func__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Dataset, "from_rows", classmethod(counting))
    sim._layout.cache_clear()
    for control in ("gender", "time"):
        run_study(logistic_design(control=control, arm_sizes=(20, 18, 20, 16),
                                  replications=4, seed=3), max_workers=1)
    assert len(calls) <= 2


def test_design_validation():
    with pytest.raises(ValueError):
        logistic_design(baseline="nope")
    with pytest.raises(ValueError):
        logistic_design(arm_sizes=(0, 1, 1, 1))
    with pytest.raises(ValueError):
        logistic_design(replications=0)
    for alpha in (0.0, 2.0, float("nan")):
        with pytest.raises(ValueError, match="alpha"):
            logistic_design(alpha=alpha)
    with pytest.raises(ValueError):
        sim.SimDesign(family=Family.NEGBIN, beta=(0.1, 0, 0, 0), sigma=0.1)  # kappa missing


def test_sigma_zero_responses_are_conditionally_independent():
    design = logistic_design(sigma=0.0, arm_sizes=(40, 36, 40, 32), replications=1, seed=0)
    r1 = []
    r2 = []
    for rep in range(150):
        ds, _ = generate_replication(design, seed=1000 + rep)
        mu = stable_expit(ds.X @ np.asarray(design.beta))
        resid = ds.y - mu
        offsets = np.asarray(ds.row_offsets)
        for i in range(ds.n_subjects):
            if offsets[i + 1] - offsets[i] == 2:
                r1.append(resid[offsets[i]])
                r2.append(resid[offsets[i] + 1])
    corr = np.corrcoef(np.array(r1), np.array(r2))[0, 1]
    assert abs(corr) < 0.04


def test_negbin_overdispersion_shows_up_in_raw_counts():
    design = negbin_design(replications=1, seed=0)
    over = 0
    reps = 120
    for rep in range(reps):
        ds, _ = generate_replication(design, seed=500 + rep)
        over += ds.y.var() / ds.y.mean() > 1.0
    assert over / reps >= 0.99


# ---- true means ------------------------------------------------------------------


def test_true_marginal_means_logistic_match_quadrature_values():
    mus = true_marginal_means(logistic_design())
    assert mus["u1_t0"] == pytest.approx(0.530, abs=0.002)
    assert mus["u1_t1"] == pytest.approx(0.560, abs=0.002)
    assert mus["u0_t0"] == pytest.approx(0.234, abs=0.002)
    assert mus["u0_t1"] == pytest.approx(0.262, abs=0.002)


def test_true_marginal_means_negbin_closed_form():
    mus = true_marginal_means(negbin_design())
    # 0.5 * (exp(.3+.3+.005) + exp(.3-.2+.3+.005)) etc.
    assert mus["u1_t0"] == pytest.approx(1.66527735447127, rel=1e-10)
    assert mus["u0_t0"] == pytest.approx(1.2336678066809648, rel=1e-10)


@pytest.mark.parametrize("maker", [logistic_design, negbin_design])
@pytest.mark.parametrize("control, baseline", [("gender", "bernoulli"), ("time", "uniform")])
def test_true_means_over_distinct_rows_match_the_per_row_average(maker, control, baseline):
    design = maker(control=control, baseline=baseline)
    frame = sim._covariate_frame(design)
    eta = frame.X @ np.asarray(design.beta)
    s2 = design.sigma**2
    if design.family is Family.LOGISTIC:
        per_row = np.array([logistic_normal_integral(e, s2) for e in eta])
    else:
        per_row = np.exp(eta + s2 / 2.0)
    mus = true_marginal_means(design)
    assert list(mus) == list(frame.group_index.group_ids)
    for gid, idx in frame.group_index.indices.items():
        assert mus[gid] == pytest.approx(float(np.mean(per_row[idx])), rel=1e-12, abs=0.0)


def test_true_means_with_degenerate_variance_average_the_inverse_link():
    design = logistic_design(sigma=0.0)
    mus = true_marginal_means(design)
    frame = sim._covariate_frame(design)
    eta = frame.X @ np.asarray(design.beta)
    for gid, mu in mus.items():
        oracle = float(np.mean(stable_expit(eta[frame.group_index.rows(gid)])))
        assert mu == pytest.approx(oracle, rel=1e-12)


# ---- the study loop ---------------------------------------------------------------


@pytest.fixture(scope="module")
def small_study_report():
    return run_study(logistic_design(**SMALL), return_records=True)


def test_study_is_deterministic_and_worker_independent(small_study_report):
    again = run_study(logistic_design(**SMALL), max_workers=1)
    assert again.marginal == small_study_report.marginal
    assert again.conditional == small_study_report.conditional
    assert again.failures == small_study_report.failures


def test_report_rows_layout(small_study_report):
    rows = small_study_report.to_rows()
    assert len(rows) == 8
    assert {r["kind"] for r in rows} == {"marginal", "conditional"}
    first = rows[0]
    for col in ("T1", "T2", "U", "t", "truth", "est_bias_mean", "est_bias_sd",
                "cp_inverse", "cp_direct", "cp_lognormal"):
        assert col in first
    assert first["T1"] == 1 and first["T2"] == 1
    # logistic reports carry no lognormal interval
    assert first["cp_lognormal"] is None


@pytest.mark.parametrize("maker", [logistic_design, negbin_design])
@pytest.mark.parametrize("reps", [3, 37])  # 37 crosses numpy's 8-term pairwise block
def test_study_summaries_equal_the_per_group_oracle_bitwise(maker, reps):
    design = maker(arm_sizes=(20, 18, 20, 16), replications=reps, seed=5)
    report = run_study(design, max_workers=1, return_records=True)
    assert report.failures == 0
    frame = sim._covariate_frame(design)
    mu_true = true_marginal_means(design)
    for gid, idx in frame.group_index.indices.items():
        _, _, u, t = frame.X[idx[0]]
        cell = (int(u), int(t), idx.size)
        recs = [r["groups"][gid] for r in report.records]
        lam = np.array([r["lam_true"] for r in recs])
        for kind, prefix, target in (("marginal", "mu", mu_true[gid]), ("conditional", "lam", lam)):
            want = study_group_summary(gid, kind, cell, recs, prefix, target)
            assert repr(report.row(kind, gid)) == repr(want)  # repr round-trips every float


def test_coverages_are_probabilities(small_study_report):
    for row in small_study_report.marginal + small_study_report.conditional:
        for value in row.coverage.values():
            assert 0.0 <= value <= 1.0


def test_prediction_interval_target_is_the_realized_mean():
    # swapping the random target for the fixed mean must change coverage:
    # a large random intercept makes the realized conditional mean wander
    design = logistic_design(
        sigma=1.5, arm_sizes=(30, 26, 30, 24), replications=80, seed=99
    )
    report = run_study(design, return_records=True)
    mus = true_marginal_means(design)
    swapped = 0
    proper = 0
    total = 0
    for rec in report.records:
        for gid, g in rec["groups"].items():
            lo, hi = g["lam_intervals"]["direct"]
            proper += lo <= g["lam_true"] <= hi
            swapped += lo <= mus[gid] <= hi
            total += 1
    assert proper / total > swapped / total + 0.02


def test_failures_flag_threshold(monkeypatch):
    design = logistic_design(arm_sizes=(8, 6, 8, 6), replications=50, seed=2)
    real = sim._replicate
    calls = {"n": 0}

    def flaky(args):
        calls["n"] += 1
        if calls["n"] % 12 == 0:
            return {"ok": False, "reason": "synthetic"}
        return real(args)

    monkeypatch.setattr(sim, "_replicate", flaky)
    report = run_study(design, max_workers=1)
    assert report.failures == 4
    assert report.flagged  # > 2% of 50


def _small_batch(family=Family.LOGISTIC):
    """A study whose replications share one batch, its streams and their records."""
    design = (logistic_design if family is Family.LOGISTIC else negbin_design)(**SMALL)
    seeds = np.random.SeedSequence(design.seed).spawn(design.replications)
    datasets = [generate_replication(design, s)[0] for s in seeds]
    assert len(_Workspace(datasets, design.family, 25).batches) == 1
    return design, seeds, datasets, sim._run_batch((design, seeds))


def test_a_failed_replication_fails_alone_in_its_batch(monkeypatch):
    # one replication fails in its draw, one in its fit and one does not
    # converge: each has the reason it has alone, and its batch-mates'
    # records are those of the undisturbed study
    import glmm_means.fitter as fitter

    design, seeds, datasets, base = _small_batch()
    assert all(r["ok"] for r in base)
    raising, stalled = datasets[2].y, datasets[4].y
    real_generate, real_starts = sim._generate, fitter._irls_starts
    real_replication = fitter._replication
    draws = []

    def generate(design, rng):
        draws.append(rng)
        if len(draws) == 1:
            raise ValueError("no draw")
        return real_generate(design, rng)

    def irls_starts(ws, batch, members):
        # the batch's shared start raises, so it is refitted one at a time
        if any(np.array_equal(ds.y, raising) for ds in members):
            raise ValueError("boom")
        return real_starts(ws, batch, members)

    def replication(ws, batch, i, dataset, *args):
        fitted = yield from real_replication(ws, batch, i, dataset, *args)
        if np.array_equal(dataset.y, stalled):
            fitted = dataclasses.replace(fitted, converged=False)
        return fitted

    monkeypatch.setattr(sim, "_generate", generate)
    monkeypatch.setattr(fitter, "_irls_starts", irls_starts)
    monkeypatch.setattr(fitter, "_replication", replication)
    got = sim._run_batch((design, seeds))
    reasons = {0: "ValueError: no draw", 2: "ValueError: boom", 4: "non-convergence"}
    for i, (rec, want) in enumerate(zip(got, base)):
        assert rec == ({"ok": False, "reason": reasons[i]} if i in reasons else want), i


def test_a_fit_that_raises_fails_alone_in_its_lockstep_batch(monkeypatch):
    # one replication's fit raises before its first request, inside the
    # batch's lockstep rounds: it fails with that reason, no dataset is
    # refitted alone, and its batch-mates' records are those of the
    # undisturbed study
    import glmm_means.fitter as fitter

    design, seeds, datasets, base = _small_batch()
    target = datasets[3].y
    real_replication, real_alone = fitter._replication, fitter._fit_alone
    alone = []

    def replication(ws, batch, i, dataset, *args):
        if np.array_equal(dataset.y, target):
            raise ValueError("boom")
        return (yield from real_replication(ws, batch, i, dataset, *args))

    def fit_alone(dataset, *args):
        alone.append(dataset)
        return real_alone(dataset, *args)

    monkeypatch.setattr(fitter, "_replication", replication)
    monkeypatch.setattr(fitter, "_fit_alone", fit_alone)
    got = sim._run_batch((design, seeds))
    assert alone == []
    for i, (rec, want) in enumerate(zip(got, base)):
        assert rec == ({"ok": False, "reason": "ValueError: boom"} if i == 3 else want), i


@pytest.mark.parametrize("fault, reason", [
    ("point", "ValueError: point must be strictly inside (0, 1)"),
    ("cholesky", "ValueError: array must not contain infs or NaNs"),
])
def test_an_estimate_that_raises_fails_alone_in_its_run(monkeypatch, fault, reason):
    # the run's batched estimate raises, so its fits are estimated one at a
    # time: the faulty one fails with the reason it has alone, and its
    # run-mates' records are those of the undisturbed run
    import glmm_means.fitter as fitter

    design, seeds, datasets, base = _small_batch()
    assert all(r["ok"] for r in base)
    target = datasets[3].y
    real_replication = fitter._replication

    def spoil(fitted):
        if fault == "point":  # every row's plug-in mean rounds onto 1.0
            return dataclasses.replace(fitted, params=ParamVector([100.0, 0.0, 0.0, 0.0], 0.25))
        # a NaN predictor makes S NaN, which its Cholesky factor refuses
        return dataclasses.replace(fitted, cond_modes=np.full_like(fitted.cond_modes, np.nan))

    def replication(ws, batch, i, dataset, *args):
        fitted = yield from real_replication(ws, batch, i, dataset, *args)
        return spoil(fitted) if np.array_equal(dataset.y, target) else fitted

    monkeypatch.setattr(fitter, "_replication", replication)
    got = sim._run_batch((design, seeds))
    spoiled = spoil(fitter.fit(datasets[3], ModelSpec(design.family, design.p)))
    lone = sim._replicate((design, generate_replication(design, seeds[3]), spoiled,
                           sim._estimate_alone(spoiled, design.alpha)))
    assert lone == {"ok": False, "reason": reason}
    for i, (rec, want) in enumerate(zip(got, base)):
        assert rec == (lone if i == 3 else want), i


def test_failure_reasons_count_the_failures_of_a_study_by_reason(monkeypatch):
    # test_failures_flag_threshold's study; the reasons stay out of the
    # report's value, its rows and so its CLI output
    design = logistic_design(arm_sizes=(8, 6, 8, 6), replications=50, seed=2)
    real = sim._replicate
    calls = {"n": 0}

    def flaky(args):
        calls["n"] += 1
        if calls["n"] % 12 == 0:
            return {"ok": False, "reason": "synthetic"}
        return real(args)

    monkeypatch.setattr(sim, "_replicate", flaky)
    report = run_study(design, max_workers=1)
    assert report.failure_reasons == {"synthetic": 4}
    assert dataclasses.replace(report, failure_reasons={}) == report
    monkeypatch.setattr(sim, "_replicate", real)
    assert run_study(design, max_workers=1).failure_reasons == {}


def test_a_batch_whose_shared_evaluation_fails_is_refitted_alone(monkeypatch):
    # every round of the logistic batch raises; of the NB batch, its closing
    # round alone, after every Newton round has run
    import glmm_means.fitter as fitter

    real = fitter._evaluate
    for family in (Family.LOGISTIC, Family.NEGBIN):
        design, seeds, _, base = _small_batch(family)
        raised = []

        def evaluate(ws, batch, asked, closing):
            if len(batch.reps) > 1 and (closing or family is Family.LOGISTIC):
                raised.append(closing)
                raise FloatingPointError("shared")
            return real(ws, batch, asked, closing)

        with monkeypatch.context() as mp:
            mp.setattr(fitter, "_evaluate", evaluate)
            assert sim._run_batch((design, seeds)) == base
        assert raised == [family is Family.NEGBIN]


def test_thread_cap_env_variable_is_honored(monkeypatch):
    design = logistic_design(**SMALL)
    base = run_study(design, max_workers=2)
    monkeypatch.setenv("GLMM_GM_THREADS", "1")
    capped = run_study(design)
    assert capped.marginal == base.marginal
    assert capped.conditional == base.conditional


@pytest.mark.slow
def test_delta_method_tracks_monte_carlo_spread(time_study_r200):
    # average delta-method SD of mu_hat within 15% of the replication SD
    _, report = time_study_r200
    for gid in ("u1_t0", "u0_t0"):
        ses = np.array([np.sqrt(r["groups"][gid]["mu_var"]) for r in report.records])
        mus = np.array([r["groups"][gid]["mu_point"] for r in report.records])
        assert abs(ses.mean() - mus.std()) <= 0.15 * mus.std(), gid


@pytest.mark.slow
def test_direct_ci_coverage_error_shrinks_with_group_size():
    # the small-size design overcovers (variance-component censoring is
    # strongest there); the error decays toward nominal as sizes grow.
    # Replications are budgeted per size so MC noise stays below the trend.
    sizes = {
        50: ((50, 44, 50, 40), 480),
        200: ((200, 180, 200, 160), 280),
        800: ((800, 720, 800, 640), 150),
    }
    err = {}
    for n, (arms, reps) in sizes.items():
        design = negbin_design(arm_sizes=arms, replications=reps, seed=1234)
        report = run_study(design)
        pooled = np.mean([row.coverage["direct"] for row in report.marginal])
        err[n] = abs(pooled - 0.95)
    assert err[200] <= err[50] + 0.027
    assert err[800] <= err[50] + 0.027
    assert err[200] <= 0.03 and err[800] <= 0.03

"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with -rA or -s).  The two
desk-scale studies (500 replications each) are shared module fixtures; the
remaining criteria run their own oracles: dense trapezoid quadrature, Monte
Carlo lognormal sums, finite differences, and Henderson's mixed-model
equations assembled from scratch.
"""

import subprocess
import sys

import numpy as np
import pytest

import glmm_means as gm
from glmm_means import Family, PredictionStructure, factorize_structure
from glmm_means.families import stable_expit
from glmm_means.fitter import _Workspace

from conftest import closing_round, manual_fitted, newton_round, toy_dataset

STUDY_SEED = 2024
Z95 = 1.959963984540054


def _report(name, ok, detail):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def logistic_study():
    return gm.run_study(gm.logistic_design(replications=500, seed=STUDY_SEED))


@pytest.fixture(scope="module")
def nb_study():
    return gm.run_study(gm.negbin_design(replications=500, seed=STUDY_SEED))


def test_criterion_1_quadrature_matches_trapezoid_oracle():
    worst = 0.0
    for eta0 in (-3.0, -1.0, 0.0, 1.0, 3.0):
        for sigma2 in (0.01, 0.25, 1.0):
            s = np.sqrt(sigma2)
            b = np.linspace(-8 * s, 8 * s, 1_000_001)
            dens = np.exp(-(b**2) / (2 * sigma2)) / np.sqrt(2 * np.pi * sigma2)
            oracle = float(np.trapezoid(stable_expit(eta0 + b) * dens, b))
            worst = max(worst, abs(gm.logistic_normal_integral(eta0, sigma2) - oracle))
    _report("1 quadrature-oracle", worst <= 1e-8, f"max abs gap {worst:.2e}")


def test_criterion_2_zeger_quality_envelope():
    worst = 0.0
    for eta0 in (-3.0, -1.0, 0.0, 1.0, 3.0):
        for sigma2 in (0.01, 0.25, 1.0):
            gap = abs(gm.zeger_mean(eta0, sigma2) - gm.logistic_normal_integral(eta0, sigma2))
            worst = max(worst, gap)
    _report("2 zeger-envelope", worst <= 0.01, f"max abs gap {worst:.4f}")


def test_criterion_3_lognormal_sum_variance_vs_monte_carlo():
    rng = np.random.default_rng(606)
    worst = 0.0
    for n in (1, 2, 5):
        mean = rng.normal(0.0, 0.3, n)
        a = rng.normal(0.0, 0.15, (n, n))
        cov = a @ a.T + 1e-4 * np.eye(n)
        closed = 0.0
        for i in range(n):
            for j in range(n):
                closed += np.exp(mean[i] + mean[j] + 0.5 * (cov[i, i] + cov[j, j])) * (
                    np.exp(cov[i, j]) - 1.0
                )
        draws = rng.multivariate_normal(mean, cov, size=1_000_000)
        mc = float(np.exp(draws).sum(axis=1).var())
        worst = max(worst, abs(closed - mc) / mc)
    _report("3 lognormal-sum", worst <= 0.02, f"max rel err {worst:.4f}")


def test_criterion_4_gradient_and_score_checks():
    rng = np.random.default_rng(99)
    worst_mu = 0.0
    worst_score = 0.0
    datasets = {
        Family.LOGISTIC: toy_dataset(Family.LOGISTIC, K=8, n=2, seed=50),
        Family.NEGBIN: toy_dataset(Family.NEGBIN, K=8, n=2, seed=51),
    }
    workspaces = {fam: _Workspace(ds, fam, 25) for fam, ds in datasets.items()}
    h = 1e-5
    for k in range(100):
        fam = Family.LOGISTIC if k % 2 == 0 else Family.NEGBIN
        ds, ws = datasets[fam], workspaces[fam]
        beta = rng.normal(0.0, 0.5, 2)
        sigma = rng.uniform(0.1, 0.8)
        kappa = rng.uniform(2.0, 40.0) if fam is Family.NEGBIN else None
        x = np.array([1.0, rng.uniform(-1, 1)])

        # grad_mu_i vs central differences over (beta, sigma)
        def mu_at(b0, b1, s):
            f = manual_fitted(ds, fam, (b0, b1), s * s, kappa=kappa, gh_nodes=1)
            return gm.mu_hat_i(f, x)

        f = manual_fitted(ds, fam, beta, sigma**2, kappa=kappa, gh_nodes=1)
        g = gm.grad_mu_i(f, x)
        fd = np.array(
            [
                (mu_at(beta[0] + h, beta[1], sigma) - mu_at(beta[0] - h, beta[1], sigma)) / (2 * h),
                (mu_at(beta[0], beta[1] + h, sigma) - mu_at(beta[0], beta[1] - h, sigma)) / (2 * h),
                (mu_at(beta[0], beta[1], sigma + h) - mu_at(beta[0], beta[1], sigma - h)) / (2 * h),
            ]
        )
        scale = np.maximum(np.abs(fd), 1e-4)
        worst_mu = max(worst_mu, float(np.max(np.abs(g - fd) / scale)))

        # marginal-likelihood score vs central differences
        theta = ws.pack(beta, sigma**2, kappa)
        modes, curv = newton_round(ws, theta)[:2]
        d, _ = closing_round(ws, theta, modes, curv)
        total = d.sum(axis=0)
        for j in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[j] += h
            dn[j] -= h
            fd_j = (newton_round(ws, up)[3] - newton_round(ws, dn)[3]) / (2 * h)
            rel = abs(total[j] - fd_j) / max(abs(fd_j), 1e-3)
            worst_score = max(worst_score, rel)
    ok = worst_mu <= 1e-4 and worst_score <= 1e-4
    _report("4 gradient-checks", ok, f"mu rel {worst_mu:.2e}, score rel {worst_score:.2e}")


def test_criterion_5_henderson_prediction_covariance():
    rng = np.random.default_rng(2718)
    subjects = []
    for i in range(20):
        x = np.column_stack([np.ones(3), rng.uniform(-1, 1, 3)])
        y = x @ np.array([0.5, -1.0]) + rng.normal(0, 0.7) + rng.normal(0, 1, 3)
        subjects.append(
            gm.SubjectBlock(subject_id=f"s{i}", y=y, X=x, groups=("q", "q", "q"))
        )
    ds = gm.Dataset(subjects)
    sigma2 = 0.49
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

    z = np.zeros((ds.n_obs, ds.n_subjects))
    z[np.arange(ds.n_obs), np.asarray(ds.subject_index)] = 1.0
    mme = np.block(
        [
            [ds.X.T @ ds.X, ds.X.T @ z],
            [z.T @ ds.X, z.T @ z + np.eye(ds.n_subjects) / sigma2],
        ]
    )
    minv = np.linalg.inv(mme)
    design_cols = np.hstack([ds.X[idx], z[idx]])
    oracle = design_cols @ minv @ design_cols.T
    gap = float(np.max(np.abs(ours - oracle)))
    _report("5 henderson-oracle", gap <= 1e-8, f"max abs gap {gap:.2e}")


def test_criterion_6_logistic_confidence_interval_study(logistic_study):
    row = logistic_study.row("marginal", "u1_t0")
    checks = {
        "true mu": abs(row.truth - 0.530) <= 0.002,
        "bias": abs(row.est_bias_mean) <= 0.01,
        "CP1": 0.926 <= row.coverage["inverse"] <= 0.976,
        "CP2": 0.926 <= row.coverage["direct"] <= 0.976,
        "failures": logistic_study.failures <= 10,
    }
    detail = (
        f"mu={row.truth:.4f} bias={row.est_bias_mean:+.4f} "
        f"CP1={row.coverage['inverse']:.3f} CP2={row.coverage['direct']:.3f} "
        f"failures={logistic_study.failures}"
    )
    _report("6 logistic-CI-study", all(checks.values()), detail)


def test_criterion_7_logistic_prediction_interval_study(logistic_study):
    row = logistic_study.row("conditional", "u1_t0")
    checks = {
        "CP1": abs(row.coverage["inverse"] - 0.949) <= 0.025,
        "CP2": abs(row.coverage["direct"] - 0.947) <= 0.025,
        "star bias": abs(row.star_bias_mean - 0.018) <= 0.005,
    }
    detail = (
        f"CP1={row.coverage['inverse']:.3f} CP2={row.coverage['direct']:.3f} "
        f"lambda* bias={row.star_bias_mean:+.4f}"
    )
    _report("7 logistic-PI-study", all(checks.values()), detail)


def test_criterion_8_negbin_confidence_interval_study(nb_study):
    row = nb_study.row("marginal", "u1_t0")
    checks = {
        "true mu": abs(row.truth - 1.665) <= 0.005,
        "bias": abs(row.est_bias_mean) <= 0.01,
        "CP1": abs(row.coverage["inverse"] - 0.945) <= 0.025,
        "CP2": abs(row.coverage["direct"] - 0.945) <= 0.025,
        "CP3": abs(row.coverage["lognormal"] - 0.945) <= 0.025,
        "sd": abs(row.est_bias_sd - 0.083) <= 0.2 * 0.083,
    }
    detail = (
        f"mu={row.truth:.4f} bias={row.est_bias_mean:+.4f} sd={row.est_bias_sd:.4f} "
        f"CP1={row.coverage['inverse']:.3f} CP2={row.coverage['direct']:.3f} "
        f"CP3={row.coverage['lognormal']:.3f}"
    )
    _report("8 negbin-CI-study", all(checks.values()), detail)


def test_criterion_9_negbin_prediction_interval_study(nb_study):
    row = nb_study.row("conditional", "u1_t0")
    checks = {
        "CP1": abs(row.coverage["inverse"] - 0.942) <= 0.025,
        "CP2": abs(row.coverage["direct"] - 0.934) <= 0.025,
        "downward bias sign": row.est_bias_mean < 0.0,
    }
    detail = (
        f"CP1={row.coverage['inverse']:.3f} CP2={row.coverage['direct']:.3f} "
        f"lambda bias={row.est_bias_mean:+.4f}"
    )
    _report("9 negbin-PI-study", all(checks.values()), detail)


def test_criterion_10_benchmark_estimator_is_inconsistent(logistic_study):
    ok = True
    details = []
    for gid in ("u0_t0", "u0_t1"):
        row = logistic_study.row("marginal", gid)
        ok = ok and abs(row.star_bias_mean) > 3 * abs(row.est_bias_mean)
        details.append(f"{gid}: |{row.star_bias_mean:+.4f}| vs 3x|{row.est_bias_mean:+.4f}|")
    _report("10 benchmark-inconsistency", ok, "; ".join(details))


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "glmm_means", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_11_reports_are_byte_identical(tmp_path):
    csv_path = tmp_path / "data.csv"
    dataset = gm.generate_dataset(
        gm.logistic_design(arm_sizes=(24, 20, 24, 18), replications=1, seed=7), seed=9
    )
    lines = ["subject_id,y,x,u,t"]
    for subject in dataset.subjects:
        for row in range(subject.n_obs):
            x = subject.X[row]
            cells = [repr(float(v)) for v in (subject.y[row], x[1], x[2], x[3])]
            lines.append(",".join([subject.subject_id, *cells]))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    base = ["--family", "logistic", "--covariates", "x,u,t", "--group-by", "u,t"]
    commands = [
        ["simulate", "--family", "logistic", "--reps", "2", "--seed", "11", "--format", "csv"],
        ["simulate", "--family", "logistic", "--reps", "2", "--seed", "11", "--format", "json"],
        ["fit", "--input", str(csv_path), *base, "--format", "json"],
        ["means", "--input", str(csv_path), *base, "--format", "csv"],
        ["validate", "--input", str(csv_path), *base],
    ]
    ok = True
    for args in commands:
        first = _run_cli(args)
        second = _run_cli(args)
        ok = ok and first == second
    _report("11 determinism", ok, f"{len(commands)} commands compared byte-for-byte")

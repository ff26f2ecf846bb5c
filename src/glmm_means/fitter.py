"""Maximum-likelihood fitting of the random-intercept model.

The marginal likelihood integrates the subject-wise Gaussian intercept out
of the conditional likelihood with adaptive Gauss-Hermite quadrature, each
subject's rule centered at its conditional mode and scaled by the curvature
there.  Per-subject score vectors are posterior expectations of the
complete-data score (differentiation under the integral sign), so they match
finite differences of the quadrature loglik to quadrature accuracy.

The optimizer is empirical Fisher scoring: steps solve H d = g with
H = sum_i d_i d_i', the sum of squared subject scores, globalized by
step-halving on the loglik and finished by a short score-norm refinement
(near the optimum per-step loglik gains drop below float resolution long
before the score is small).  H^{-1} at convergence estimates Cov(psi_hat).
An L-BFGS-B fallback on the same objective handles ill-conditioned H or
stalled steps.  Positivity of sigma2 and kappa is kept by optimizing
(beta, log sigma2, log kappa); the covariance is mapped back to the natural
scale by the delta method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.special import gammaln

from .families import Family, family_ops
from .model import Dataset, ModelSpec, ParamVector, SubjectBlock
from .quadrature import DEFAULT_GH_NODES, gh_rule

LOG_SIGMA2_BOUNDS = (math.log(1e-10), math.log(25.0))
LOG_KAPPA_BOUNDS = (math.log(1e-3), math.log(1e6))
_MAX_STEP = 2.0
_COND_LIMIT = 1e12
_REFINE_ITER = 40
# Rows x nodes of one quadrature block: 96 KB per float64 temporary.  Larger
# temporaries cross glibc's default 128 KB mmap threshold and are mapped and
# faulted in afresh on every call, several times slower than reused heap.
_BLOCK_CELLS = 12288


@dataclass(frozen=True)
class FitConfig:
    max_iter: int = 200
    param_tol: float = 1e-8
    loglik_tol: float = 1e-10
    mode_tol: float = 1e-10
    gh_nodes: int = DEFAULT_GH_NODES
    optimizer: str = "fisher_scoring"  # or "quasi_newton"

    def __post_init__(self):
        for name in ("param_tol", "loglik_tol", "mode_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.max_iter < 1 or self.gh_nodes < 1:
            raise ValueError("max_iter and gh_nodes must be >= 1")
        if self.optimizer not in ("fisher_scoring", "quasi_newton"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    @property
    def score_tol(self) -> float:
        return 10.0 * self.param_tol


@dataclass(frozen=True, eq=False)
class FittedModel:
    dataset: Dataset
    spec: ModelSpec
    config: FitConfig
    params: ParamVector
    cov_psi: np.ndarray  # natural scale, over (beta, sigma2[, kappa])
    cond_modes: np.ndarray
    cond_curvatures: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    optimizer_used: str
    score_norm: float
    cov_flags: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_free(self) -> int:
        return self.cov_psi.shape[0]

    @property
    def cov_beta_sigma2(self) -> np.ndarray:
        """Covariance block over (beta, sigma2); the NB size is excluded."""
        k = self.params.p + 1
        return self.cov_psi[:k, :k]

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.cov_psi), 0.0, None))

    def mode_for(self, subject_id: str) -> float:
        return float(self.cond_modes[self.dataset.subject_position[subject_id]])


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp of finite rows, with scipy.special.logsumexp's
    arithmetic (maximal entries split off and counted) minus its per-call
    overhead, which dominated the small per-block calls."""
    amax = a.max(axis=1, keepdims=True)
    top = a == amax
    count = top.sum(axis=1, keepdims=True, dtype=a.dtype)
    rest = np.exp(np.where(top, -np.inf, a) - amax).sum(axis=1, keepdims=True)
    return (np.log1p(rest / count) + np.log(count) + amax)[:, 0]


class _Workspace:
    """Stacked arrays and quadrature scratch for one (dataset, family) pair.

    `ops` overrides the family kernel (the oracle tests drive the mode
    solver with an identity-link Gaussian this way).
    """

    def __init__(self, dataset: Dataset, family: Family, gh_nodes: int, ops=None):
        self.family = family
        self.ops = ops or family_ops(family)
        self.y = dataset.y
        self.X = dataset.X
        self.w = dataset.weights
        self.subj = dataset.subject_index
        self.starts = np.asarray(dataset.row_offsets[:-1], dtype=np.intp)
        self.K = dataset.n_subjects
        self.N = dataset.n_obs
        self.p = dataset.p
        rule = gh_rule(gh_nodes)
        self.t = rule.nodes
        self.logw_t2 = np.log(rule.weights) + rule.nodes**2
        self.dim = self.p + 1 + (1 if family is Family.NEGBIN else 0)
        # whole subjects per block: (subjects, rows, row -> block subject, block row offsets)
        offsets = dataset.row_offsets
        cap = max(1, _BLOCK_CELLS // self.t.size)
        self.blocks = []
        k0 = 0
        while k0 < self.K:
            k1 = max(k0 + 1, int(np.searchsorted(offsets, offsets[k0] + cap, side="right")) - 1)
            rows = slice(int(offsets[k0]), int(offsets[k1]))
            self.blocks.append((slice(k0, k1), rows, self.subj[rows] - k0,
                                self.starts[k0:k1] - offsets[k0]))
            k0 = k1

    # ---- parameter packing ---------------------------------------------

    def pack(self, beta, sigma2, kappa=None) -> np.ndarray:
        parts = [np.asarray(beta, float), [math.log(sigma2)]]
        if self.family is Family.NEGBIN:
            parts.append([math.log(kappa)])
        return np.concatenate(parts)

    def unpack(self, theta):
        beta = np.asarray(theta[: self.p], float)
        sigma2 = math.exp(theta[self.p])
        aux = math.exp(theta[self.p + 1]) if self.family is Family.NEGBIN else None
        return beta, sigma2, aux

    def bounds(self):
        lb = np.full(self.dim, -np.inf)
        ub = np.full(self.dim, np.inf)
        lb[self.p], ub[self.p] = LOG_SIGMA2_BOUNDS
        if self.family is Family.NEGBIN:
            lb[self.p + 1], ub[self.p + 1] = LOG_KAPPA_BOUNDS
        return lb, ub

    # ---- conditional modes ------------------------------------------------

    def _subject_sums(self, values) -> np.ndarray:
        return np.add.reduceat(values, self.starts, axis=0)

    def mode_score(self, eta0, b, sigma2, aux):
        eta = eta0 + b[self.subj]
        s = self._subject_sums(self.w * self.ops.score_eta(self.y, eta, aux))
        return s - b / sigma2

    def solve_modes(self, beta, sigma2, aux, b0=None, tol=1e-10, newton_iter=50):
        """Safeguarded Newton for the per-subject conditional modes.

        The subject score is strictly decreasing in b, so a sign-change
        bracket always exists; Newton proposals falling outside the current
        bracket are replaced by bisection, and subjects still unconverged
        after `newton_iter` steps finish on bisection alone.
        """
        if sigma2 == 0.0:
            return np.zeros(self.K), np.full(self.K, np.inf)
        eta0 = self.X @ beta
        b = np.zeros(self.K) if b0 is None else np.array(b0, float)

        score = self.mode_score(eta0, b, sigma2, aux)
        lo = np.where(score > 0, b, -np.inf)
        hi = np.where(score <= 0, b, np.inf)

        # expand until every subject has a finite sign-change bracket
        width = max(1.0, 4.0 * math.sqrt(sigma2))
        for _ in range(80):
            need_hi = ~np.isfinite(hi)
            need_lo = ~np.isfinite(lo)
            if not (need_hi.any() or need_lo.any()):
                break
            probe = np.where(need_hi, lo + width, np.where(need_lo, hi - width, b))
            ps = self.mode_score(eta0, probe, sigma2, aux)
            hi = np.where(need_hi & (ps <= 0), probe, hi)
            lo = np.where(need_hi & (ps > 0), probe, lo)
            lo = np.where(need_lo & (ps > 0), probe, lo)
            hi = np.where(need_lo & (ps <= 0), probe, hi)
            width *= 2.0

        active = np.abs(score) > tol
        for _ in range(newton_iter):
            if not active.any():
                break
            eta = eta0 + b[self.subj]
            curv = self._subject_sums(self.w * self.ops.obs_curvature(self.y, eta, aux))
            curv = curv + 1.0 / sigma2
            prop = b + score / curv
            outside = (prop <= lo) | (prop >= hi)
            prop = np.where(outside, 0.5 * (lo + hi), prop)
            b = np.where(active, prop, b)
            score = self.mode_score(eta0, b, sigma2, aux)
            lo = np.where(active & (score > 0), b, lo)
            hi = np.where(active & (score <= 0), b, hi)
            active = np.abs(score) > tol

        for _ in range(200):  # bisection-only fallback for stragglers
            if not active.any():
                break
            mid = 0.5 * (lo + hi)
            b = np.where(active, mid, b)
            score = self.mode_score(eta0, b, sigma2, aux)
            lo = np.where(active & (score > 0), b, lo)
            hi = np.where(active & (score <= 0), b, hi)
            active = (np.abs(score) > tol) & ((hi - lo) > 1e-15)

        eta = eta0 + b[self.subj]
        curvature = self._subject_sums(self.w * self.ops.fisher_weight(eta, aux)) + 1.0 / sigma2
        return b, curvature

    # ---- marginal likelihood and scores ---------------------------------

    def _loglik_matrix(self, eta, aux, rows):
        """Conditional loglik as an eta-dependent (n, m) part plus an (n,) constant."""
        y = self.y[rows]
        if self.family is Family.NEGBIN:
            logk = math.log(aux)
            const = gammaln(y + aux) - gammaln(aux) - gammaln(y + 1.0) + aux * logk
            mat = y[:, None] * eta - (y + aux)[:, None] * np.logaddexp(logk, eta)
            return mat, const
        return self.ops.loglik(y[:, None], eta, aux), np.zeros(y.shape[0])

    def integral_pieces(self, beta, sigma2, aux, modes, curv, block):
        """Loglik contributions, posterior node weights, node positions and
        etas for the subjects of one block."""
        ks, rows, subj, starts = block
        scale = 1.0 / np.sqrt(curv[ks])
        u = modes[ks, None] + math.sqrt(2.0) * scale[:, None] * self.t[None, :]
        eta = (self.X[rows] @ beta)[:, None] + u[subj]
        mat, const = self._loglik_matrix(eta, aux, rows)
        w = self.w[rows]
        g = np.add.reduceat(w[:, None] * mat, starts, axis=0)
        g += np.add.reduceat(w * const, starts)[:, None]
        g -= u**2 / (2.0 * sigma2)
        g += self.logw_t2[None, :]
        lse = _logsumexp_rows(g)
        ll_i = 0.5 * np.log(2.0 / curv[ks]) + lse
        omega = np.exp(g - lse[:, None])
        return ll_i, omega, u, eta

    def _total_loglik(self, ll_i, sigma2) -> float:
        return float(np.concatenate(ll_i).sum() - 0.5 * self.K * math.log(2.0 * math.pi * sigma2))

    def loglik_at(self, theta, warm_modes=None, mode_tol=1e-10):
        beta, sigma2, aux = self.unpack(theta)
        modes, curv = self.solve_modes(beta, sigma2, aux, warm_modes, tol=mode_tol)
        ll_i = [self.integral_pieces(beta, sigma2, aux, modes, curv, blk)[0] for blk in self.blocks]
        return self._total_loglik(ll_i, sigma2), modes, curv

    def score_matrix(self, theta, modes, curv):
        """Per-subject scores d_i on the optimizer scale; loglik as byproduct."""
        beta, sigma2, aux = self.unpack(theta)
        rows_d, ll_i = [], []
        for blk in self.blocks:
            _, rows, subj, starts = blk
            ll_b, omega, u, eta = self.integral_pieces(beta, sigma2, aux, modes, curv, blk)
            omega_rows = omega[subj]
            y, w = self.y[rows, None], self.w[rows]

            s_eta = self.ops.score_eta(y, eta, aux)
            rho = np.sum(omega_rows * s_eta, axis=1) * w
            d_beta = np.add.reduceat(rho[:, None] * self.X[rows], starts, axis=0)

            d_lsig = np.sum(omega * (u**2 - sigma2), axis=1) / (2.0 * sigma2)

            cols = [d_beta, d_lsig[:, None]]
            if self.family is Family.NEGBIN:
                s_kap = self.ops.score_kappa(y, eta, aux)
                rho_k = np.sum(omega_rows * s_kap, axis=1) * w
                d_lkap = aux * np.add.reduceat(rho_k, starts)
                cols.append(d_lkap[:, None])
            rows_d.append(np.hstack(cols))
            ll_i.append(ll_b)
        return np.vstack(rows_d), self._total_loglik(ll_i, sigma2)


def _conditional_loglik_sum(ws: _Workspace, beta, aux) -> float:
    eta = ws.X @ np.asarray(beta, float)
    return float(np.sum(ws.w * ws.ops.loglik(ws.y, eta, aux)))


def marginal_loglik(dataset: Dataset, spec: ModelSpec, params: ParamVector,
                    gh_nodes: int = DEFAULT_GH_NODES) -> float:
    """Marginal log-likelihood with the random intercept integrated out.

    sigma2 = 0 is the degenerate case: every intercept is zero and the value
    is the conditional log-likelihood at b = 0.
    """
    if params.sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    if spec.family is Family.NEGBIN and (params.kappa is None or params.kappa <= 0):
        raise ValueError("negative-binomial family requires kappa > 0")
    ws = _Workspace(dataset, spec.family, gh_nodes)
    aux = params.kappa if spec.family is Family.NEGBIN else None
    if params.sigma2 == 0.0:
        return _conditional_loglik_sum(ws, params.beta, aux)
    theta = ws.pack(params.beta, params.sigma2, params.kappa)
    ll, _, _ = ws.loglik_at(theta)
    if not np.isfinite(ll):
        raise FloatingPointError("marginal log-likelihood is non-finite at these parameters")
    return ll


def conditional_mode(subject: SubjectBlock, params: ParamVector) -> tuple[float, float]:
    """Mode of the subject's conditional density in b, and the curvature there.

    Returns (b_hat, J'WJ + 1/sigma2) with W the iterative weights at b_hat.
    The family is inferred from the parameter vector: kappa present means
    negative binomial, absent means logistic.
    """
    family = Family.NEGBIN if params.kappa is not None else Family.LOGISTIC
    ds = Dataset([subject])
    ws = _Workspace(ds, family, 1)
    if params.sigma2 == 0.0:
        return 0.0, math.inf
    modes, curv = ws.solve_modes(np.asarray(params.beta, float), params.sigma2, params.kappa)
    return float(modes[0]), float(curv[0])


def _irls_init(ws: _Workspace) -> np.ndarray:
    """Fixed-effects GLM start values (logistic IRLS; Poisson IRLS for NB)."""
    X, y, w = ws.X, ws.y, ws.w
    beta = np.zeros(ws.p)
    if ws.family is Family.NEGBIN:
        beta[0] = math.log(max(float(np.mean(y)), 0.05))
    for _ in range(8):
        eta = np.clip(X @ beta, -30, 30)
        if ws.family is Family.NEGBIN:
            mu = np.exp(eta)
            wt = np.clip(mu, 1e-6, None)
        else:
            mu = 1.0 / (1.0 + np.exp(-eta))
            wt = np.clip(mu * (1.0 - mu), 1e-6, None)
        z = eta + (y - mu) / wt
        xtw = X.T * (wt * w)
        try:
            beta_new = np.linalg.solve(xtw @ X, xtw @ z)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(beta_new)):
            break
        beta = beta_new
    return beta if np.all(np.isfinite(beta)) else np.zeros(ws.p)


def _kappa_moment_init(y: np.ndarray) -> float:
    m, v = float(np.mean(y)), float(np.var(y))
    if v > m > 0:
        return float(np.clip(m * m / (v - m), 0.5, 1e4))
    return 100.0


def _projected_score_norm(g, theta, lb, ub) -> float:
    gp = np.array(g, float)
    gp[(theta <= lb + 1e-12) & (gp < 0)] = 0.0
    gp[(theta >= ub - 1e-12) & (gp > 0)] = 0.0
    return float(np.max(np.abs(gp))) if gp.size else 0.0


def _solve_direction(h, g):
    try:
        c, low = cho_factor(h)
        return cho_solve((c, low), g)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(h) @ g


def _score_at(ws: _Workspace, theta, warm_modes, config: FitConfig):
    ll, modes, curv = ws.loglik_at(theta, warm_modes, mode_tol=config.mode_tol)
    d, ll = ws.score_matrix(theta, modes, curv)
    return d, d.sum(axis=0), ll, modes, curv


def _refine_on_score(ws: _Workspace, theta, modes, curv, lb, ub, config: FitConfig, iterations):
    """Newton steps on the score with a finite-difference score Jacobian.

    Coordinates pinned at active bounds, and near-degenerate directions
    whose scores barely respond (boundary-flat variance components), are
    masked out of the Newton system; the boundary retry in `fit` finishes
    those off.
    """
    d, ll = ws.score_matrix(theta, modes, curv)
    g = d.sum(axis=0)
    gnorm = _projected_score_norm(g, theta, lb, ub)

    for _ in range(_REFINE_ITER):
        if gnorm <= config.score_tol:
            break
        iterations += 1

        free = ~(((theta <= lb + 1e-12) & (g <= 0)) | ((theta >= ub - 1e-12) & (g >= 0)))
        idx = np.where(free)[0]
        if idx.size == 0:
            break
        jac = np.zeros((idx.size, idx.size))
        for col, j in enumerate(idx):
            h = 1e-6 * (1.0 + abs(theta[j]))
            probe = theta.copy()
            probe[j] += h
            _, g_h, _, _, _ = _score_at(ws, probe, modes, config)
            jac[:, col] = (g_h[idx] - g[idx]) / h
        diag = np.abs(np.diag(jac))
        keep = diag > 1e-6 * max(float(diag.max()), 1e-300)
        idx = idx[keep]
        if idx.size == 0:
            break
        jac = jac[np.ix_(keep, keep)]
        try:
            step_free = np.linalg.solve(jac, -g[idx])
        except np.linalg.LinAlgError:
            step_free = np.linalg.lstsq(jac, -g[idx], rcond=None)[0]
        delta = np.zeros(ws.dim)
        delta[idx] = step_free
        nmax = float(np.max(np.abs(delta)))
        if nmax > _MAX_STEP:
            delta *= _MAX_STEP / nmax

        lam, improved = 1.0, False
        for _ in range(25):
            trial = np.clip(theta + lam * delta, lb, ub)
            d_t, g_t, ll_t, modes_t, curv_t = _score_at(ws, trial, modes, config)
            gnorm_t = _projected_score_norm(g_t, trial, lb, ub)
            if np.isfinite(gnorm_t) and gnorm_t < gnorm:
                theta, ll, modes, curv = trial, ll_t, modes_t, curv_t
                d, g, gnorm = d_t, g_t, gnorm_t
                improved = True
                break
            lam *= 0.5
        if not improved:
            break

    return theta, ll, modes, curv, d, g, iterations


def _lbfgs_polish(ws: _Workspace, theta0, config: FitConfig, lb, ub):
    warm = {"modes": None}

    def objective(th):
        beta, sigma2, aux = ws.unpack(th)
        modes, curv = ws.solve_modes(beta, sigma2, aux, warm["modes"], tol=config.mode_tol)
        warm["modes"] = modes
        d, ll = ws.score_matrix(th, modes, curv)
        return -ll, -d.sum(axis=0)

    res = minimize(
        objective,
        theta0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(lb, ub)),
        options={"maxiter": 2000, "ftol": 1e-16, "gtol": config.score_tol / 10.0},
    )
    return np.asarray(res.x), int(res.nit)


def _optimize(ws: _Workspace, theta0, lb, ub, config: FitConfig):
    """Phase-1 Fisher scoring, L-BFGS-B fallback, then score-norm refinement."""
    theta = np.clip(np.array(theta0, float), lb, ub)
    ll, modes, curv = ws.loglik_at(theta, mode_tol=config.mode_tol)

    iterations = 0
    fell_back = config.optimizer == "quasi_newton"

    # phase 1: globalized Fisher scoring with step-halving on the loglik
    if not fell_back:
        for _ in range(config.max_iter):
            iterations += 1
            d, ll = ws.score_matrix(theta, modes, curv)
            g = d.sum(axis=0)
            if _projected_score_norm(g, theta, lb, ub) <= 1e-3:
                break
            h = d.T @ d
            if not np.all(np.isfinite(h)) or np.linalg.cond(h) > _COND_LIMIT:
                fell_back = True
                break
            delta = _solve_direction(h, g)
            nmax = float(np.max(np.abs(delta)))
            if nmax > _MAX_STEP:
                delta *= _MAX_STEP / nmax

            lam, accepted = 1.0, False
            for _ in range(31):
                trial = np.clip(theta + lam * delta, lb, ub)
                ll_t, modes_t, curv_t = ws.loglik_at(trial, modes, mode_tol=config.mode_tol)
                if np.isfinite(ll_t) and ll_t > ll + 1e-12 * (1.0 + abs(ll)):
                    accepted = True
                    break
                lam *= 0.5
            if not accepted:
                # loglik gains fell below float resolution; refine on the score
                fell_back = _projected_score_norm(g, theta, lb, ub) > 1e-2
                break
            step = float(np.max(np.abs(trial - theta)) / (1.0 + np.max(np.abs(theta))))
            theta, ll, modes, curv = trial, ll_t, modes_t, curv_t
            if step <= config.param_tol:
                break
        else:
            fell_back = True

    if fell_back:
        theta, extra = _lbfgs_polish(ws, theta, config, lb, ub)
        iterations += extra
        ll, modes, curv = ws.loglik_at(theta, modes, mode_tol=config.mode_tol)

    # phase 2: Newton on the score.  The BHHH matrix badly overstates
    # curvature along boundary-flat directions (the total score decays like
    # sigma2 while sum d_i^2 stays O(K)), so this needs the real Jacobian.
    theta, ll, modes, curv, d, g, iterations = _refine_on_score(
        ws, theta, modes, curv, lb, ub, config, iterations
    )
    return theta, ll, modes, curv, d, g, iterations, fell_back


def _boundary_candidates(ws: _Workspace, theta, lb, ub) -> list[tuple[tuple[int, float], ...]]:
    """Pinning combinations for variance components stuck near a bound."""
    js2 = ws.p
    singles: list[tuple[int, float]] = [(js2, lb[js2])]
    if ws.family is Family.NEGBIN:
        jk = ws.p + 1
        singles += [(jk, ub[jk]), (jk, lb[jk])]
    combos: list[tuple[tuple[int, float], ...]] = [(pin,) for pin in singles]
    if ws.family is Family.NEGBIN:
        jk = ws.p + 1
        combos += [((js2, lb[js2]), (jk, ub[jk])), ((js2, lb[js2]), (jk, lb[jk]))]
    return combos


def fit(dataset: Dataset, spec: ModelSpec, config: FitConfig | None = None) -> FittedModel:
    """Maximize the marginal likelihood and assemble the fitted model.

    Cov(psi_hat) is H^{-1} with H the sum of squared per-subject scores at
    the optimum, delta-mapped from (beta, log sigma2, log kappa) to the
    natural scale.  When the free optimum degenerates onto a boundary of
    the variance components (sigma2 -> 0, kappa -> a bound), the fit is
    retried with that coordinate pinned and kept only when no likelihood is
    lost.  Non-convergence returns the best iterate with converged=False; a
    singular H falls back to the pseudo-inverse and is flagged in cov_flags.
    """
    config = config or FitConfig()
    ws = _Workspace(dataset, spec.family, config.gh_nodes)
    lb, ub = ws.bounds()
    score_tol = config.score_tol

    kappa0 = _kappa_moment_init(ws.y) if spec.family is Family.NEGBIN else None
    theta0 = ws.pack(_irls_init(ws), 0.1, kappa0)

    theta, ll, modes, curv, d, g, iterations, fell_back = _optimize(ws, theta0, lb, ub, config)
    score_norm = _projected_score_norm(g, theta, lb, ub)
    converged = score_norm <= score_tol

    if not converged:
        # ridge between the variance components: re-solve with the flat
        # coordinate(s) held at the boundary and keep the pinned optimum if
        # it gives the same likelihood and a clean projected score
        for pins in _boundary_candidates(ws, theta, lb, ub):
            lb2, ub2 = lb.copy(), ub.copy()
            start = theta.copy()
            for j, value in pins:
                lb2[j] = ub2[j] = value
                start[j] = value
            theta2, ll2, modes2, curv2, d2, g2, extra2, fb2 = _optimize(ws, start, lb2, ub2, config)
            iterations += extra2
            norm2 = _projected_score_norm(g2, theta2, lb, ub)
            if norm2 <= score_tol and ll2 >= ll - 1e-6 * (1.0 + abs(ll)):
                theta, ll, modes, curv, d, g = theta2, ll2, modes2, curv2, d2, g2
                fell_back = fell_back or fb2
                score_norm = norm2
                converged = True
                break

    if config.optimizer == "quasi_newton":
        optimizer_used = "quasi_newton"
    else:
        optimizer_used = "fisher_scoring+quasi_newton" if fell_back else "fisher_scoring"

    h = d.T @ d
    cov_flags: list[str] = []
    try:
        c, low = cho_factor(h)
        cov_theta = cho_solve((c, low), np.eye(ws.dim))
    except np.linalg.LinAlgError:
        cov_theta = np.linalg.pinv(h)
        cov_flags.append("singular_information_pseudo_inverse")

    beta, sigma2, aux = ws.unpack(theta)
    jac = np.ones(ws.dim)
    jac[ws.p] = sigma2
    if spec.family is Family.NEGBIN:
        jac[ws.p + 1] = aux
    cov_psi = cov_theta * np.outer(jac, jac)
    cov_psi = 0.5 * (cov_psi + cov_psi.T)
    eig = np.linalg.eigvalsh(cov_psi)
    if eig.size and eig[0] < -1e-8 * max(eig[-1], 1e-300):
        # clip the spectrum so downstream delta-method variances stay >= 0
        vals, vecs = np.linalg.eigh(cov_psi)
        cov_psi = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        cov_flags.append("clipped_negative_eigenvalues")
    cov_psi.setflags(write=False)

    modes = np.array(modes)
    curv = np.array(curv)
    modes.setflags(write=False)
    curv.setflags(write=False)

    return FittedModel(
        dataset=dataset,
        spec=spec,
        config=config,
        params=ParamVector(beta=beta, sigma2=sigma2, kappa=aux),
        cov_psi=cov_psi,
        cond_modes=modes,
        cond_curvatures=curv,
        loglik=ll,
        converged=converged,
        iterations=iterations,
        optimizer_used=optimizer_used,
        score_norm=score_norm,
        cov_flags=tuple(cov_flags),
        diagnostics={"random_effect_kernel": "normal(0, sigma2), exponent -b^2/(2*sigma2)"},
    )


def subject_scores(fitted: FittedModel) -> np.ndarray:
    """Per-subject scores d_i at psi_hat on the (beta, log sigma2[, log kappa]) scale."""
    ws = _Workspace(fitted.dataset, fitted.spec.family, fitted.config.gh_nodes)
    theta = ws.pack(fitted.params.beta, fitted.params.sigma2, fitted.params.kappa)
    d, _ = ws.score_matrix(theta, np.array(fitted.cond_modes), np.array(fitted.cond_curvatures))
    return d


def posterior_mean_effects(fitted: FittedModel) -> np.ndarray:
    """Exact conditional means E(b_i | y_i) by quadrature.

    The production predictor uses the conditional modes; this is the oracle
    companion for checking the mode approximation.
    """
    ws = _Workspace(fitted.dataset, fitted.spec.family, fitted.config.gh_nodes)
    if fitted.params.sigma2 == 0.0:
        return np.zeros(ws.K)
    modes, curv = np.array(fitted.cond_modes), np.array(fitted.cond_curvatures)
    means = []
    for blk in ws.blocks:
        _, omega, u, _ = ws.integral_pieces(
            fitted.params.beta, fitted.params.sigma2, fitted.params.kappa, modes, curv, blk
        )
        means.append(np.sum(omega * u, axis=1))
    return np.concatenate(means)

"""Filtered historical simulation, portfolio VaR and coverage backtests.

Forecasts resample whole rows of standardized residuals (preserving their
contemporaneous dependence) and push them through the fitted eigenvalue
recursion. Backtest adequacy uses the unconditional-coverage, independence
and conditional-coverage likelihood ratio tests on the hit sequence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
from scipy.stats import chi2

from ._blas import single_threaded
from .estimation import ModelFit, _panel_values, fit_joint_qmle, fit_spectral_targeting, \
    rotate_returns
from .exceptions import ConvergenceError, ValidationError
from .model import ModelSpec, filter_eigenvalues
from .panel import ReturnPanel, align_weights

__all__ = [
    "ResidualPanel",
    "VaRBacktestReport",
    "standardized_residuals",
    "fhs_forecast",
    "var_from_distribution",
    "hit_sequence",
    "christoffersen_tests",
    "rolling_backtest",
]


@dataclass(frozen=True)
class ResidualPanel:
    """Standardized residuals Z_t = diag(lam_t)^(-1/2) V'X_t."""

    Z: np.ndarray
    column_variances: np.ndarray

    def __post_init__(self):
        Z = np.atleast_2d(np.asarray(self.Z, dtype=float))
        if not np.all(np.isfinite(Z)):
            raise ValidationError("standardized residuals contain non-finite values")
        object.__setattr__(self, "Z", Z)
        object.__setattr__(
            self, "column_variances", np.asarray(self.column_variances, dtype=float)
        )

    @property
    def T(self) -> int:
        return self.Z.shape[0]


@dataclass
class PortfolioBacktest:
    """Hit statistics and test results for one portfolio."""

    name: str
    pi_hat: float
    lr_uc: Optional[float]
    lr_ind: Optional[float]
    lr_cc: Optional[float]
    p_uc: Optional[float]
    p_ind: Optional[float]
    p_cc: Optional[float]
    var_path: np.ndarray = field(repr=False, default=None)
    realized: np.ndarray = field(repr=False, default=None)
    hits: np.ndarray = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pi_hat": self.pi_hat,
            "lr_uc": self.lr_uc,
            "lr_ind": self.lr_ind,
            "lr_cc": self.lr_cc,
            "p_uc": self.p_uc,
            "p_ind": self.p_ind,
            "p_cc": self.p_cc,
        }


@dataclass
class VaRBacktestReport:
    """Rolling backtest outcome across portfolios."""

    portfolios: list
    horizon: int
    alpha: float
    window: int
    n_forecasts: int
    refit_seconds: list = field(default_factory=list)  # process CPU s per refit
    forecast_seconds: list = field(default_factory=list)  # process CPU s per origin

    @property
    def mean_refit_seconds(self) -> float:
        return float(np.mean(self.refit_seconds)) if self.refit_seconds else float("nan")

    @property
    def mean_forecast_seconds(self) -> float:
        return (float(np.mean(self.forecast_seconds)) if self.forecast_seconds
                else float("nan"))

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "alpha": self.alpha,
            "window": self.window,
            "n_forecasts": self.n_forecasts,
            "mean_refit_seconds": self.mean_refit_seconds,
            "mean_forecast_seconds": self.mean_forecast_seconds,
            "portfolios": [pf.to_dict() for pf in self.portfolios],
        }


@single_threaded
def standardized_residuals(fit: ModelFit, X,
                           init: Optional[np.ndarray] = None) -> ResidualPanel:
    """Invert the fitted volatility filter: Z_t = diag(lam_t)^(-1/2) V'X_t.

    ``init`` is the filter's starting eigenvalues, as in ``filter_eigenvalues``.
    """
    Y = rotate_returns(_panel_values(X), fit.target.V)
    Z = Y / np.sqrt(filter_eigenvalues(fit.spec(), Y, init=init))
    return ResidualPanel(Z=Z, column_variances=Z.var(axis=0))


def _scenarios(spec: ModelSpec, Y: np.ndarray, lam_t: np.ndarray, Z: np.ndarray,
               h: int, n_draws: int, rng_seed, Q: np.ndarray) -> np.ndarray:
    """n_draws x m summed h-step returns of the m columns of ``V'project = Q``.

    ``spec`` is the fitted model, ``Y`` and ``lam_t`` are the window's
    rotated returns and eigenvalue path, ``Z`` the rows that are drawn.
    """
    A, b, W = spec.dynamics.A, spec.dynamics.b, spec.W
    # one step ahead of the sample end is deterministic
    lam_next = W + A @ (Y[-1] ** 2) + b * lam_t[-1]
    rng = np.random.default_rng(rng_seed)
    idx = rng.integers(0, Z.shape[0], size=(h, n_draws))
    # the first step's variance is the same for every draw: project, then
    # draw (np.take copies rows faster than fancy indexing does)
    out = np.take(Z @ (np.sqrt(lam_next)[:, None] * Q), idx[0], axis=0)
    if h > 1:
        # later steps' variances differ per draw
        lam, Yk = lam_next, np.sqrt(lam_next) * np.take(Z, idx[0], axis=0)
        for k in range(1, h):
            lam = W + Yk**2 @ A.T + lam * b
            Yk = np.sqrt(lam) * np.take(Z, idx[k], axis=0)
            out += Yk @ Q
    return out


def _reanchored(path: np.ndarray, s: int, powers: np.ndarray) -> np.ndarray:
    """The n rows of ``path`` from row s as if the filter had started on row s.

    ``path`` was filtered from lam0 = path[0], and ``powers`` is the n x p
    matrix of b^k, k = 0, ..., n-1. The drive W + A y^2 does not depend on
    the path, so a path restarted at lam0 on row s differs from it by
    b^(t-s) (lam0 - path[s]) on row t.
    """
    return path[s:s + powers.shape[0]] + powers * (path[0] - path[s])


@single_threaded
def fhs_cumulative_returns(
    fit: ModelFit,
    X,
    h: int = 1,
    n_draws: int = 10_000,
    rng_seed=0,
    residuals: Optional[np.ndarray] = None,
    *,
    project: np.ndarray,
) -> np.ndarray:
    """Simulated h-period cumulative portfolio returns from the filtered state.

    Residual rows are drawn iid with replacement (preserving their
    contemporaneous dependence) and propagated through the fitted recursion
    for h steps. ``project`` is a p x m matrix of asset weights, one column
    per portfolio; the result is the n_draws x m matrix of the portfolios'
    summed per-step returns, all priced from one scenario set. No n_draws
    x p matrix of asset returns is formed. The one-step variance
    ``lam_next`` is the same for every draw, so the first step is projected
    before it is drawn: a gather of rows of the T x m matrix
    ``Z diag(lam_next)^(1/2) V'project``. Only the later steps of an h > 1
    horizon, whose variances differ per draw, form each draw's rotated
    returns. ``residuals`` is a test hook replacing the fit's own
    standardized rows.
    """
    if h < 1:
        raise ValidationError("horizon must be at least 1")
    if n_draws < 1000:
        raise ValidationError("need n_draws >= 1000 for a stable quantile")
    Xv = _panel_values(X)
    V = fit.target.V
    p = V.shape[0]
    project = np.asarray(project, dtype=float)
    if project.ndim != 2 or project.shape[0] != p:
        raise ValidationError(
            f"{p} assets need a {p} x m weight matrix, got shape {project.shape}"
        )
    if not np.all(np.isfinite(project)):
        raise ValidationError("weights must be finite")
    Y = rotate_returns(Xv, V)
    spec = fit.spec()
    lam_t = filter_eigenvalues(spec, Y)
    if residuals is None:
        Z = Y / np.sqrt(lam_t)
    else:
        Z = np.atleast_2d(np.asarray(residuals, dtype=float))
    return _scenarios(spec, Y, lam_t, Z, h, n_draws, rng_seed, V.T @ project)


@single_threaded
def fhs_forecast(
    fit: ModelFit,
    X,
    weights: Union[np.ndarray, dict],
    h: int = 1,
    n_draws: int = 10_000,
    rng_seed=0,
    residuals: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Simulated h-period portfolio returns from the filtered state.

    Deterministic under a fixed seed; long-short and geared weight vectors
    are accepted as-is. Returns the n_draws simulated h-period returns: the
    one column of ``fhs_cumulative_returns`` projected on ``weights``, so
    portfolios forecast with the same seed share one scenario set.
    """
    if isinstance(weights, dict):
        if not isinstance(X, ReturnPanel):
            raise ValidationError("label-keyed weights require a labeled panel")
        w = align_weights(weights, X.labels)
    else:
        w = np.atleast_1d(np.asarray(weights, dtype=float))
    p = fit.target.V.shape[0]
    if w.shape != (p,):
        raise ValidationError(f"{w.shape[0]} weights for {p} assets")
    return fhs_cumulative_returns(
        fit, X, h, n_draws, rng_seed, residuals, project=w[:, None]
    )[:, 0]


def var_from_distribution(draws: np.ndarray, alpha: float) -> float:
    """VaR as the negated empirical alpha-quantile (inverse-CDF convention).

    Uses the order statistic with one-based index ceil(alpha * n), so the
    result is exact for enumeration oracles.
    """
    draws = np.atleast_1d(np.asarray(draws, dtype=float))
    if draws.size == 0:
        raise ValidationError("empty draw vector")
    if not (0.0 < alpha <= 0.5):
        raise ValidationError("alpha must be in (0, 0.5]")
    k = int(np.ceil(alpha * draws.size))
    q = np.partition(draws, k - 1)[k - 1]
    return float(-q)


def hit_sequence(realized: np.ndarray, var_path: np.ndarray) -> np.ndarray:
    """Violation indicators: 1 when the realized return breaches -VaR."""
    realized = np.atleast_1d(np.asarray(realized, dtype=float))
    var_path = np.atleast_1d(np.asarray(var_path, dtype=float))
    if realized.shape != var_path.shape:
        raise ValidationError(
            f"length mismatch: {realized.shape} realized vs {var_path.shape} VaR"
        )
    return (realized <= -var_path).astype(int)


def _bernoulli_loglik(n1: int, n0: int, prob: float) -> float:
    # 0 * log 0 = 0 convention
    out = 0.0
    if n1:
        out += n1 * np.log(prob)
    if n0:
        out += n0 * np.log(1.0 - prob)
    return out


def christoffersen_tests(hits: np.ndarray, alpha: float) -> dict:
    """Unconditional-coverage, independence and joint LR coverage tests.

    LR_uc compares the Bernoulli likelihood at the nominal level with the
    observed hit ratio; LR_ind compares pooled versus state-dependent hit
    probabilities of the two-state transition chain; LR_cc is their sum.
    p-values come from chi-square laws with 1, 1 and 2 degrees of freedom.
    With an all-zero or all-one hit sequence the independence statistic is
    undefined and reported as missing.
    """
    hits = np.atleast_1d(np.asarray(hits)).astype(int)
    tau = hits.size
    if tau < 20:
        raise ValidationError(f"need at least 20 observations, got {tau}")
    n1 = int(hits.sum())
    n0 = tau - n1
    pi_hat = n1 / tau

    out = {"pi_hat": pi_hat, "n_obs": tau, "n_hits": n1}
    if 0 < n1 < tau:
        lr_uc = -2.0 * (
            _bernoulli_loglik(n1, n0, alpha) - _bernoulli_loglik(n1, n0, pi_hat)
        )
    else:
        # likelihood at pi_hat=0 or 1 degenerates to 1; the statistic stays defined
        lr_uc = -2.0 * _bernoulli_loglik(n1, n0, alpha)
    out["lr_uc"] = float(lr_uc)
    out["p_uc"] = float(chi2.sf(lr_uc, 1))

    if n1 == 0 or n1 == tau:
        out.update({"lr_ind": None, "p_ind": None, "lr_cc": None, "p_cc": None})
        return out

    prev, curr = hits[:-1], hits[1:]
    n00 = int(np.sum((prev == 0) & (curr == 0)))
    n01 = int(np.sum((prev == 0) & (curr == 1)))
    n10 = int(np.sum((prev == 1) & (curr == 0)))
    n11 = int(np.sum((prev == 1) & (curr == 1)))
    pooled = (n01 + n11) / (n00 + n01 + n10 + n11)
    l_null = _bernoulli_loglik(n01 + n11, n00 + n10, pooled) if 0 < pooled < 1 else 0.0
    l_alt = 0.0
    if n00 + n01 > 0:
        p01 = n01 / (n00 + n01)
        if 0 < p01 < 1:
            l_alt += _bernoulli_loglik(n01, n00, p01)
    if n10 + n11 > 0:
        p11 = n11 / (n10 + n11)
        if 0 < p11 < 1:
            l_alt += _bernoulli_loglik(n11, n10, p11)
    lr_ind = max(0.0, -2.0 * (l_null - l_alt))
    out["lr_ind"] = float(lr_ind)
    out["p_ind"] = float(chi2.sf(lr_ind, 1))
    lr_cc = out["lr_uc"] + lr_ind
    out["lr_cc"] = float(lr_cc)
    out["p_cc"] = float(chi2.sf(lr_cc, 2))
    return out


@single_threaded
def rolling_backtest(
    X,
    weights_list: Sequence,
    window: int,
    horizon: int = 1,
    alpha: float = 0.05,
    refit_every: Optional[int] = None,
    method: str = "ste",
    diag_a: bool = False,
    n_draws: int = 10_000,
    rng_seed: int = 0,
) -> VaRBacktestReport:
    """Rolling-window VaR backtest with periodic refits.

    At each forecast origin the latest fitted model (refit every
    ``refit_every`` observations, default every ``horizon``) filters the
    window data, a filtered-simulation forecast produces the h-period VaR,
    and the realized h-period return on the following non-overlapping block
    scores the hit. Each origin draws one scenario set, from its own child
    of ``rng_seed``, and prices every portfolio from it: the portfolios'
    weights are stacked into the one ``project`` matrix of
    ``fhs_cumulative_returns``.

    The path is filtered once per refit: over the rows from the refit
    window's start to the last origin before the next refit, from the
    filter's default start. Each later window takes its slice of that path,
    re-anchored to the default start on its own first row, which equals
    filtering the window on its own up to rounding. The refit origin itself
    is forecast by a plain ``fhs_cumulative_returns`` call on its window.

    ``refit_seconds`` records each refit's and ``forecast_seconds`` each
    origin's process CPU time (summed over threads), not wall-clock time.
    A refit that does not converge raises ConvergenceError naming its
    origin, the first row after its window.
    """
    Xv = _panel_values(X)
    panel = X if isinstance(X, ReturnPanel) else ReturnPanel(
        Xv, [f"A{j}" for j in range(Xv.shape[1])])
    T, p = Xv.shape
    if window >= T:
        raise ValidationError(f"window {window} leaves no out-of-sample data (T={T})")
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    refit_every = horizon if refit_every is None else refit_every
    if refit_every < 1:
        raise ValidationError("refit cadence must be >= 1")
    n_forecasts = (T - window) // horizon
    if n_forecasts < 20:
        raise ValidationError(
            f"only {n_forecasts} non-overlapping forecasts available; need >= 20"
        )
    if method not in ("ste", "qmle"):
        raise ValidationError(f"unknown method {method!r}")

    port_w = []
    for k, item in enumerate(weights_list):
        if isinstance(item, tuple):
            name, wmap = item
            w = align_weights(wmap, panel.labels) if isinstance(wmap, dict) else np.asarray(wmap, float)
        else:
            name, w = f"P{k + 1}", np.atleast_1d(np.asarray(item, dtype=float))
        if w.shape != (p,):
            raise ValidationError(f"portfolio {name}: {w.shape[0]} weights for {p} assets")
        port_w.append((name, w))
    if not port_w:
        raise ValidationError("need at least one portfolio")

    weights = np.column_stack([w for _, w in port_w])
    ss = np.random.SeedSequence(rng_seed)
    forecast_seeds = ss.spawn(n_forecasts)
    per_fit = -(-refit_every // horizon)  # origins forecast by one fit

    var_paths = np.empty((len(port_w), n_forecasts))
    realized = np.empty((len(port_w), n_forecasts))
    refit_seconds, forecast_seconds = [], []
    carried = None  # the current fit's path and what its later origins share
    for k in range(n_forecasts):
        origin = window + k * horizon  # first out-of-sample row of the block
        start = origin - window
        if k % per_fit == 0:
            carried = None  # freed before the refit allocates its own arrays
            t0 = time.process_time()
            win = Xv[start:origin]
            if method == "ste":
                fit = fit_spectral_targeting(win, diag_a=diag_a)
            else:
                fit = fit_joint_qmle(win, diag_a=diag_a)
            if not fit.converged:
                raise ConvergenceError(
                    f"{fit.method} refit at origin {origin} (window rows "
                    f"{start} to {origin - 1}) did not converge",
                    traces=[t for d in fit.diagnostics for t in d.start_traces],
                )
            refit_seconds.append(time.process_time() - t0)
            t0 = time.process_time()
            # one scenario set per origin, priced for every portfolio
            draws = fhs_cumulative_returns(
                fit, win, h=horizon, n_draws=n_draws, rng_seed=forecast_seeds[k],
                project=weights,
            )
            last = min(k + per_fit, n_forecasts) - 1
            if last > k:
                # the fit's later windows are re-anchored slices of one path
                # over the rows from this window's start to the last origin
                spec = fit.spec()
                Y = rotate_returns(Xv[start:window + last * horizon], spec.V)
                carried = (spec, start, Y, filter_eigenvalues(spec, Y),
                           spec.dynamics.b ** np.arange(window)[:, None],
                           spec.V.T @ weights)
        else:
            t0 = time.process_time()
            spec, first, Y, path, powers, Q = carried
            s = start - first
            lam_t = _reanchored(path, s, powers)
            Ys = Y[s:s + window]
            draws = _scenarios(spec, Ys, lam_t, Ys / np.sqrt(lam_t), horizon,
                               n_draws, forecast_seeds[k], Q)
        for j in range(len(port_w)):
            var_paths[j, k] = var_from_distribution(draws[:, j], alpha)
        forecast_seconds.append(time.process_time() - t0)
        block = Xv[origin:origin + horizon]
        for j, (_, w) in enumerate(port_w):
            realized[j, k] = float((block @ w).sum())

    portfolios = []
    for j, (name, w) in enumerate(port_w):
        hits = hit_sequence(realized[j], var_paths[j])
        tests = christoffersen_tests(hits, alpha)
        portfolios.append(
            PortfolioBacktest(
                name=name,
                pi_hat=tests["pi_hat"],
                lr_uc=tests["lr_uc"],
                lr_ind=tests["lr_ind"],
                lr_cc=tests["lr_cc"],
                p_uc=tests["p_uc"],
                p_ind=tests["p_ind"],
                p_cc=tests["p_cc"],
                var_path=var_paths[j].copy(),
                realized=realized[j].copy(),
                hits=hits,
            )
        )
    return VaRBacktestReport(
        portfolios=portfolios,
        horizon=horizon,
        alpha=alpha,
        window=window,
        n_forecasts=n_forecasts,
        refit_seconds=refit_seconds,
        forecast_seconds=forecast_seconds,
    )

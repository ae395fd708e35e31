"""Residuals, filtered-simulation forecasts, VaR machinery, coverage tests."""

import numpy as np
import pytest
from scipy.stats import chi2, kurtosis

from eigengarch import (
    ConvergenceError,
    DynamicsParams,
    ModelSpec,
    ReturnPanel,
    ValidationError,
    christoffersen_tests,
    fhs_forecast,
    fit_spectral_targeting,
    hit_sequence,
    rolling_backtest,
    simulate_path,
    standardized_residuals,
    var_from_distribution,
)
from eigengarch import risk
from eigengarch import estimation
from eigengarch.estimation import B_MAX, ModelFit, fit_joint_qmle
from eigengarch.experiments import density_case_spec, diagonal_benchmark_spec
from eigengarch.model import filter_eigenvalues
from eigengarch.panel import bundled_weights_path, load_weights_csv
from eigengarch.risk import fhs_cumulative_returns
from eigengarch.spectral import SpectralTarget


def truth_fit(spec: ModelSpec) -> ModelFit:
    """ModelFit carrying the exact simulation parameters."""
    p = spec.p
    kappas = np.hstack([spec.dynamics.A, spec.dynamics.b[:, None]])
    return ModelFit(
        target=SpectralTarget(lam=spec.lam.copy(), V=spec.V.copy()),
        kappas=kappas,
        W=spec.W.copy(),
        equation_nlls=np.zeros(p),
        method="STE",
    )


class TestStandardizedResiduals:
    def test_identity_static_model(self):
        lam = np.array([1.0, 1.0])
        dyn = DynamicsParams(A=np.zeros((2, 2)), b=np.zeros(2))
        spec = ModelSpec.from_intercepts(np.eye(2), lam, dyn)
        fit = truth_fit(spec)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((100, 2))
        res = standardized_residuals(fit, X)
        np.testing.assert_allclose(res.Z, X, rtol=1e-12)

    def test_recovers_injected_innovations(self):
        spec = density_case_spec(1)
        X, Y, lam_path, Z = simulate_path(
            spec, T=800, burn_in=300, rng_seed=7, return_internals=True
        )
        fit = truth_fit(spec)
        # starting the filter at the simulator's state recovers Z exactly
        res = standardized_residuals(fit, X, init=lam_path[0])
        np.testing.assert_allclose(res.Z, Z, atol=1e-10)
        # default initialization differs only through the decaying start-up
        res_default = standardized_residuals(fit, X)
        np.testing.assert_allclose(res_default.Z[1:], Z[1:], atol=1e-8)

    def test_gaussian_kurtosis_band(self):
        X = simulate_path(density_case_spec(1), T=10_000, burn_in=1000, rng_seed=3)
        fit = fit_spectral_targeting(X)
        res = standardized_residuals(fit, X)
        excess = kurtosis(res.Z, axis=0, fisher=False)
        assert np.all(excess > 2.6) and np.all(excess < 3.4)
        assert np.all(res.column_variances > 0.5)
        assert np.all(res.column_variances < 2.0)


class TestFHSForecast:
    def test_zero_residual_hook(self):
        spec = density_case_spec(1)
        X = simulate_path(spec, T=300, burn_in=100, rng_seed=1)
        fit = truth_fit(spec)
        draws = fhs_forecast(fit, X, np.array([0.5, 0.5]), h=3, n_draws=1000,
                             rng_seed=0, residuals=np.zeros((300, 2)))
        assert np.all(draws == 0.0)
        assert var_from_distribution(draws, 0.05) == 0.0

    def test_static_one_step_matches_enumeration(self):
        # with no dynamics the one-step draw set is exactly
        # {w' V diag(lam)^(1/2) z_s} over the residual rows
        lam = np.array([0.5, 2.0])
        dyn = DynamicsParams(A=np.zeros((2, 2)), b=np.zeros(2))
        spec = ModelSpec.from_intercepts(np.eye(2), lam, dyn)
        X = simulate_path(spec, T=400, burn_in=100, rng_seed=5)
        fit = truth_fit(spec)
        w = np.array([0.7, 0.3])
        draws = fhs_forecast(fit, X, w, h=1, n_draws=100_000, rng_seed=2)
        # enumeration oracle over all residual rows
        Z = standardized_residuals(fit, X).Z
        pool = (np.sqrt(lam) * Z) @ fit.target.V.T @ w
        alpha = 0.05
        k = int(np.ceil(alpha * pool.size))
        exact_q = np.sort(pool)[k - 1]
        got = -var_from_distribution(draws, alpha)
        assert got == pytest.approx(exact_q, rel=0.02)

    def test_weight_scaling_linearity(self):
        spec = density_case_spec(1)
        X = simulate_path(spec, T=500, burn_in=100, rng_seed=9)
        fit = truth_fit(spec)
        w = np.array([0.4, 0.6])
        d1 = fhs_forecast(fit, X, w, h=2, n_draws=2000, rng_seed=3)
        d2 = fhs_forecast(fit, X, 2.0 * w, h=2, n_draws=2000, rng_seed=3)
        np.testing.assert_allclose(d2, 2.0 * d1, rtol=1e-12)
        assert var_from_distribution(d2, 0.05) == pytest.approx(
            2.0 * var_from_distribution(d1, 0.05), rel=1e-12
        )

    def test_row_order_invariance_in_distribution(self):
        spec = density_case_spec(1)
        X = simulate_path(spec, T=600, burn_in=100, rng_seed=11)
        fit = truth_fit(spec)
        Z = standardized_residuals(fit, X).Z
        w = np.array([0.5, 0.5])
        d1 = fhs_forecast(fit, X, w, h=1, n_draws=100_000, rng_seed=1, residuals=Z)
        perm = np.random.default_rng(0).permutation(Z.shape[0])
        d2 = fhs_forecast(fit, X, w, h=1, n_draws=100_000, rng_seed=2,
                          residuals=Z[perm])
        q1 = var_from_distribution(d1, 0.05)
        q2 = var_from_distribution(d2, 0.05)
        assert q1 == pytest.approx(q2, rel=0.02)

    def test_deterministic_under_seed(self):
        spec = density_case_spec(1)
        X = simulate_path(spec, T=300, burn_in=100, rng_seed=13)
        fit = truth_fit(spec)
        d1 = fhs_forecast(fit, X, np.ones(2), h=5, n_draws=1500, rng_seed=42)
        d2 = fhs_forecast(fit, X, np.ones(2), h=5, n_draws=1500, rng_seed=42)
        assert np.array_equal(d1, d2)

    def test_input_validation(self):
        spec = density_case_spec(1)
        X = simulate_path(spec, T=300, burn_in=100, rng_seed=1)
        fit = truth_fit(spec)
        with pytest.raises(ValidationError):
            fhs_forecast(fit, X, np.ones(2), h=0)
        with pytest.raises(ValidationError):
            fhs_forecast(fit, X, np.ones(2), n_draws=10)
        with pytest.raises(ValidationError):
            fhs_forecast(fit, X, np.array([np.inf, 1.0]))


def asset_return_draws(fit, X, h, n_draws, rng_seed, Z=None):
    """Reference FHS asset returns: each draw's rotated returns, summed over
    the h steps and rotated back to assets, with no projection."""
    V, A, b = fit.target.V, fit.dynamics.A, fit.dynamics.b
    Y = X @ V
    lam_t = filter_eigenvalues(fit.spec(), Y)
    if Z is None:
        Z = Y / np.sqrt(lam_t)
    lam_next = fit.W + A @ Y[-1] ** 2 + b * lam_t[-1]
    idx = np.random.default_rng(rng_seed).integers(0, Z.shape[0], size=(h, n_draws))
    assets = np.zeros((n_draws, V.shape[0]))
    lam = [lam_next] * n_draws
    for k in range(h):
        rotated = np.array([np.sqrt(lam[d]) * Z[idx[k, d]] for d in range(n_draws)])
        assets += rotated @ V.T
        lam = [fit.W + A @ rotated[d] ** 2 + b * lam[d] for d in range(n_draws)]
    return assets


class TestProjectedScenarios:
    @pytest.mark.parametrize("h", [1, 3])
    @pytest.mark.parametrize("diag_a", [True, False])
    @pytest.mark.parametrize("hook", [False, True])
    def test_projection_equals_weighted_asset_returns(self, h, diag_a, hook):
        X = simulate_path(diagonal_benchmark_spec(4), T=700, burn_in=200, rng_seed=6)
        fit = fit_spectral_targeting(X, diag_a=diag_a)
        residuals = np.random.default_rng(1).standard_normal((500, 4)) if hook else None
        Wm = np.array([[0.25, 1.0, 2.0], [0.25, -0.5, 0.0],
                       [0.25, 0.3, -1.0], [0.25, 0.2, 0.5]])
        priced = fhs_cumulative_returns(fit, X, h=h, n_draws=2000, rng_seed=7,
                                        residuals=residuals, project=Wm)
        expected = asset_return_draws(fit, X, h, 2000, 7, residuals) @ Wm
        assert priced.shape == (2000, 3)
        np.testing.assert_allclose(priced, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())

    def test_wrong_row_count_rejected(self):
        X = simulate_path(density_case_spec(1), T=300, burn_in=100, rng_seed=1)
        fit = truth_fit(density_case_spec(1))
        with pytest.raises(ValidationError, match=r"2 x m weight matrix, got shape \(3, 2\)"):
            fhs_cumulative_returns(fit, X, project=np.ones((3, 2)))
        with pytest.raises(ValidationError):
            fhs_cumulative_returns(fit, X, project=np.ones(2))

    def test_wrong_weight_count_names_the_vector(self):
        X = simulate_path(density_case_spec(1), T=300, burn_in=100, rng_seed=1)
        fit = truth_fit(density_case_spec(1))
        with pytest.raises(ValidationError, match="3 weights for 2 assets"):
            fhs_forecast(fit, X, np.ones(3))

    def test_backtest_needs_a_portfolio(self):
        X = simulate_path(density_case_spec(1), T=400, burn_in=100, rng_seed=1)
        with pytest.raises(ValidationError, match="at least one portfolio"):
            rolling_backtest(X, [], window=300)

    def test_backtest_matches_per_origin_forecasts(self):
        spec = diagonal_benchmark_spec(3)
        window, horizon, refit_every, n, alpha = 300, 2, 20, 25, 0.05
        X = simulate_path(spec, T=window + n * horizon, burn_in=300, rng_seed=8)
        weights = [np.full(3, 1.0 / 3.0), np.array([1.0, -0.5, 0.2])]
        report = rolling_backtest(X, weights, window=window, horizon=horizon,
                                  alpha=alpha, refit_every=refit_every, diag_a=True,
                                  n_draws=1000, rng_seed=11)
        assert len(report.refit_seconds) == 3
        seeds = np.random.SeedSequence(11).spawn(n)
        var_paths = np.empty((2, n))
        realized = np.empty((2, n))
        for k in range(n):
            origin = window + k * horizon
            if k * horizon % refit_every == 0:
                fit = fit_spectral_targeting(X[origin - window:origin], diag_a=True)
            for j, w in enumerate(weights):
                draws = fhs_forecast(fit, X[origin - window:origin], w, h=horizon,
                                     n_draws=1000, rng_seed=seeds[k])
                var_paths[j, k] = var_from_distribution(draws, alpha)
                realized[j, k] = X[origin:origin + horizon].sum(axis=0) @ w
        for j, pf in enumerate(report.portfolios):
            np.testing.assert_allclose(pf.var_path, var_paths[j], rtol=1e-12)
            np.testing.assert_array_equal(pf.hits, hit_sequence(realized[j], var_paths[j]))

    # a full A, and the joint QMLE; 23 origins in blocks of 10, 10 and 3
    @pytest.mark.parametrize("method, diag_a", [("ste", False), ("qmle", True)])
    def test_backtest_matches_per_origin_forecasts_at_horizon_1(self, method, diag_a):
        p, window, n, refit_every, alpha = 3, 300, 23, 10, 0.05
        spec = diagonal_benchmark_spec(p)
        X = simulate_path(spec, T=window + n, burn_in=300, rng_seed=12)
        weights = np.column_stack([np.full(p, 1.0 / p), np.linspace(1.0, -0.5, p)])
        report = rolling_backtest(X, list(weights.T), window=window, alpha=alpha,
                                  refit_every=refit_every, method=method,
                                  diag_a=diag_a, n_draws=1000, rng_seed=4)
        assert len(report.refit_seconds) == 3
        fitter = fit_spectral_targeting if method == "ste" else fit_joint_qmle
        seeds = np.random.SeedSequence(4).spawn(n)
        var_paths = np.empty((2, n))
        for k in range(n):
            origin = window + k
            if k % refit_every == 0:
                fit = fitter(X[origin - window:origin], diag_a=diag_a)
            draws = fhs_cumulative_returns(fit, X[origin - window:origin], n_draws=1000,
                                           rng_seed=seeds[k], project=weights)
            var_paths[:, k] = [var_from_distribution(d, alpha) for d in draws.T]
        realized = (X[window:] @ weights).T
        for j, pf in enumerate(report.portfolios):
            np.testing.assert_allclose(pf.var_path, var_paths[j], rtol=1e-12)
            np.testing.assert_array_equal(pf.hits, hit_sequence(realized[j], var_paths[j]))

    def test_no_look_ahead(self):
        # rows from origin k on change: the VaR of origins 0..k does not
        spec = diagonal_benchmark_spec(3)
        window, n, refit_every = 300, 20, 6
        X = simulate_path(spec, T=window + n, burn_in=300, rng_seed=13)
        kwargs = dict(window=window, refit_every=refit_every, diag_a=True,
                      n_draws=1000, rng_seed=2)
        base = rolling_backtest(X, [np.ones(3)], **kwargs).portfolios[0].var_path
        for k in (8, 12):  # inside a fit's block, and at a refit origin
            Xk = X.copy()
            Xk[window + k:] *= 3.0
            var_path = rolling_backtest(Xk, [np.ones(3)], **kwargs).portfolios[0].var_path
            np.testing.assert_array_equal(var_path[:k + 1], base[:k + 1])
            assert not np.array_equal(var_path, base)


class TestReanchoredPath:
    @pytest.mark.parametrize("b, full_a", [
        (0.0, False), (0.5, False), (0.95, False), (B_MAX, False), (0.9, True),
    ])
    def test_equals_a_filter_started_on_the_window(self, b, full_a):
        p, T, n = 3, 700, 300
        rng = np.random.default_rng(6)
        A = 0.04 * np.eye(p) + (0.01 if full_a else 0.0) * (1.0 - np.eye(p))
        dyn = DynamicsParams(A=A, b=np.full(p, b))
        W = np.array([0.01, 0.02, 0.03]) * (1.0 - min(b, 0.95))
        spec = ModelSpec(V=np.eye(p), dynamics=dyn, W=W, lam=np.array([0.5, 1.0, 2.0]))
        Y = rng.standard_normal((T, p)) * np.sqrt([0.5, 1.0, 2.0])
        path = filter_eigenvalues(spec, Y)
        powers = dyn.b ** np.arange(n)[:, None]
        np.testing.assert_array_equal(powers[0], 1.0)  # 0.0 ** 0 is 1
        for s in (0, 1, 7, 150, 399, T - n):
            np.testing.assert_allclose(risk._reanchored(path, s, powers),
                                       filter_eigenvalues(spec, Y[s:s + n]), rtol=1e-13)


class TestVarFromDistribution:
    def test_constructed_quantile(self):
        # 20 draws, alpha=0.05 -> order statistic ceil(1) = smallest value
        draws = np.array([-3.0, -2.0, -1.0] + list(np.linspace(0, 5, 17)))
        assert var_from_distribution(draws, 0.05) == 3.0

    def test_symmetric_median(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(100_001)
        draws = np.concatenate([x, -x, [0.0]])
        assert abs(var_from_distribution(draws, 0.5)) < 1e-12

    def test_constant_draws(self):
        assert var_from_distribution(np.full(50, 2.5), 0.1) == -2.5

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(5)
        draws = rng.standard_normal(5000)
        for c in (0.5, 2.0, 10.0):
            assert var_from_distribution(c * draws, 0.05) == pytest.approx(
                c * var_from_distribution(draws, 0.05), rel=1e-12
            )

    def test_validation(self):
        with pytest.raises(ValidationError):
            var_from_distribution(np.array([]), 0.05)
        with pytest.raises(ValidationError):
            var_from_distribution(np.ones(10), 0.7)


class TestHitSequence:
    def test_examples(self):
        np.testing.assert_array_equal(
            hit_sequence(np.array([-5.0, 1.0]), np.array([3.0, 3.0])), [1, 0]
        )

    def test_no_violations(self):
        hits = hit_sequence(np.full(30, 1.0), np.full(30, 3.0))
        assert hits.sum() == 0

    def test_matches_comparison_loop(self):
        rng = np.random.default_rng(7)
        realized = rng.standard_normal(200)
        var_path = np.abs(rng.standard_normal(200))
        hits = hit_sequence(realized, var_path)
        for t in range(200):
            assert hits[t] == (1 if realized[t] <= -var_path[t] else 0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            hit_sequence(np.ones(5), np.ones(6))


class TestChristoffersen:
    def test_exact_coverage_gives_zero_statistic(self):
        hits = np.zeros(100, int)
        hits[:5] = 1
        out = christoffersen_tests(hits, 0.05)
        assert out["lr_uc"] == pytest.approx(0.0, abs=1e-12)
        assert out["p_uc"] == pytest.approx(1.0)

    def test_756_observations_33_hits(self):
        hits = np.zeros(756, int)
        hits[np.linspace(3, 750, 33).astype(int)] = 1
        out = christoffersen_tests(hits, 0.05)
        assert out["pi_hat"] == pytest.approx(33 / 756)
        # independent oracle: binomial LR evaluated directly
        pi = 33 / 756
        l0 = 33 * np.log(0.05) + 723 * np.log(0.95)
        l1 = 33 * np.log(pi) + 723 * np.log(1 - pi)
        lr = -2 * (l0 - l1)
        assert out["lr_uc"] == pytest.approx(lr, rel=1e-12)
        assert out["p_uc"] == pytest.approx(chi2.sf(lr, 1), rel=1e-12)
        assert 0.40 <= out["p_uc"] <= 0.42

    def test_alternating_hits_reject_independence(self):
        hits = np.tile([0, 1], 60)
        out = christoffersen_tests(hits, 0.05)
        # transition-count oracle
        n00, n01, n10, n11 = 0, 59, 60, 0
        pooled = (n01 + n11) / (n00 + n01 + n10 + n11)
        l0 = (n01 + n11) * np.log(pooled) + (n00 + n10) * np.log(1 - pooled)
        l1 = n01 * np.log(n01 / (n00 + n01))  # other state terms are 0 log 0
        lr = -2 * (l0 - l1)
        assert out["lr_ind"] == pytest.approx(lr, rel=1e-10)
        assert out["p_ind"] < 1e-10

    def test_all_zero_hits(self):
        out = christoffersen_tests(np.zeros(50, int), 0.05)
        assert out["lr_ind"] is None and out["lr_cc"] is None
        assert out["lr_uc"] == pytest.approx(-2 * 50 * np.log(0.95), rel=1e-12)

    def test_all_one_hits(self):
        out = christoffersen_tests(np.ones(50, int), 0.05)
        assert out["lr_ind"] is None and out["lr_cc"] is None
        assert out["lr_uc"] == pytest.approx(-2 * 50 * np.log(0.05), rel=1e-12)

    def test_cc_is_sum(self):
        rng = np.random.default_rng(9)
        hits = (rng.random(500) < 0.07).astype(int)
        out = christoffersen_tests(hits, 0.05)
        assert out["lr_cc"] == pytest.approx(out["lr_uc"] + out["lr_ind"], abs=1e-13)

    def test_uc_depends_only_on_hit_count(self):
        rng = np.random.default_rng(11)
        hits = (rng.random(300) < 0.05).astype(int)
        out1 = christoffersen_tests(hits, 0.05)
        out2 = christoffersen_tests(rng.permutation(hits), 0.05)
        assert out1["lr_uc"] == pytest.approx(out2["lr_uc"], rel=1e-12)

    def test_short_sample_rejected(self):
        with pytest.raises(ValidationError):
            christoffersen_tests(np.zeros(10, int), 0.05)


class TestRollingBacktest:
    def test_refuses_window_covering_sample(self):
        X = simulate_path(density_case_spec(1), T=300, burn_in=100, rng_seed=1)
        with pytest.raises(ValidationError):
            rolling_backtest(X, [np.ones(2)], window=300)

    def test_refuses_short_out_of_sample(self):
        X = simulate_path(density_case_spec(1), T=310, burn_in=100, rng_seed=1)
        with pytest.raises(ValidationError, match="20"):
            rolling_backtest(X, [np.ones(2)], window=300)

    def test_nonconverged_qmle_refit_raises(self, monkeypatch):
        X = simulate_path(density_case_spec(1), T=330, burn_in=100, rng_seed=1)
        monkeypatch.setattr(estimation, "MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError, match="origin 300"):
            rolling_backtest(X, [np.ones(2)], window=300, method="qmle", n_draws=1000)

    def test_bundled_portfolio_fixture_end_to_end(self):
        # 25-asset simulated panel scored against the packaged five portfolios
        names, weight_maps = zip(*load_weights_csv(bundled_weights_path()))
        spec = diagonal_benchmark_spec(25)
        X = simulate_path(spec, T=260, burn_in=500, rng_seed=3)
        panel = ReturnPanel(X, list(weight_maps[0].keys()))
        report = rolling_backtest(
            panel, list(zip(names, weight_maps)), window=200, horizon=1,
            refit_every=30, diag_a=True, n_draws=1000, rng_seed=5,
        )
        assert [pf.name for pf in report.portfolios] == list(names)
        assert report.n_forecasts == 60
        for pf in report.portfolios:
            assert 0.0 <= pf.pi_hat <= 1.0
            assert pf.var_path.shape == (60,)
            assert pf.lr_uc is not None and pf.p_uc is not None
            assert set(pf.to_dict()) == {
                "name", "pi_hat", "lr_uc", "lr_ind", "lr_cc",
                "p_uc", "p_ind", "p_cc",
            }
        payload = report.to_dict()
        assert payload["window"] == 200 and payload["horizon"] == 1
        assert len(report.refit_seconds) == 2
        assert len(report.forecast_seconds) == report.n_forecasts
        assert all(s >= 0.0 for s in report.forecast_seconds)
        assert payload["mean_forecast_seconds"] == pytest.approx(
            np.mean(report.forecast_seconds))

    def test_five_day_non_overlapping_blocks(self):
        X = simulate_path(density_case_spec(1), T=500 + 5 * 25, burn_in=100,
                          rng_seed=7)
        report = rolling_backtest(X, [np.ones(2)], window=500, horizon=5,
                                  refit_every=125, n_draws=1000, rng_seed=1)
        assert report.n_forecasts == 25
        pf = report.portfolios[0]
        # realized blocks tile the out-of-sample range without overlap
        manual = np.add.reduceat((X[500:500 + 125] @ np.ones(2)),
                                 np.arange(0, 125, 5))
        np.testing.assert_allclose(pf.realized, manual, rtol=1e-12)

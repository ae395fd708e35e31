"""Simulation studies: efficiency comparison and sampling densities."""

import numpy as np
import pytest

from eigengarch import (
    ExperimentConfig,
    ValidationError,
    run_density_study,
    run_relative_efficiency,
)
from eigengarch.experiments import (
    density_case_spec,
    diagonal_benchmark_spec,
    relative_efficiency_statistic,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(n_replications=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(T=10)
        with pytest.raises(ValidationError):
            ExperimentConfig(estimators=("ste", "bogus"))


class TestBenchmarkSpecs:
    def test_diagonal_benchmark_layout(self):
        spec = diagonal_benchmark_spec(4)
        np.testing.assert_allclose(spec.lam, [0.4, 0.3, 0.2, 0.1])
        np.testing.assert_allclose(np.diag(spec.dynamics.A), 0.05)
        np.testing.assert_allclose(spec.dynamics.b, 0.85)
        np.testing.assert_allclose(spec.W, 0.1 * spec.lam, atol=1e-15)
        np.testing.assert_allclose(spec.V @ spec.V.T, np.eye(4), atol=1e-12)

    def test_case_specs(self):
        c1 = density_case_spec(1)
        np.testing.assert_allclose(np.diag(c1.dynamics.A), [0.33, 0.25])
        np.testing.assert_allclose(c1.W, [1.5, 0.46])
        assert density_case_spec(3).lam is None
        with pytest.raises(ValidationError):
            density_case_spec(4)

    @pytest.mark.parametrize("p", [0, -2])
    def test_benchmark_needs_one_asset(self, p):
        with pytest.raises(ValidationError, match="at least 1"):
            diagonal_benchmark_spec(p)


class TestRelativeEfficiencyStatistic:
    def test_identical_estimates_give_unity(self):
        rng = np.random.default_rng(5)
        theta0 = rng.standard_normal(7)
        estimates = theta0 + 0.1 * rng.standard_normal((40, 7))
        assert relative_efficiency_statistic(estimates, estimates, theta0) == (
            pytest.approx(1.0, rel=1e-12)
        )

    def test_worse_mean_gives_larger_ratio(self):
        rng = np.random.default_rng(6)
        theta0 = np.zeros(4)
        good = 0.05 * rng.standard_normal((60, 4))
        bad = good + 0.2  # biased copy
        assert relative_efficiency_statistic(bad, good, theta0) > 1.0


class TestRunRelativeEfficiency:
    def test_ste_only_never_runs_joint_optimizer(self, monkeypatch):
        from eigengarch import experiments

        def refuse(*args, **kwargs):
            pytest.fail("the joint QMLE ran in an STE-only study")

        monkeypatch.setattr(experiments, "fit_joint_qmle", refuse)
        cfg = ExperimentConfig(dimensions=[2], n_replications=3, T=400,
                               seed=1, estimators=("ste",))
        rows = run_relative_efficiency(cfg)
        assert rows[0].re is None and rows[0].time_qmle is None
        assert rows[0].time_ste > 0

    def test_p1_estimators_agree(self):
        # measured median |STE - QMLE| per coordinate at T=2000 is ~2e-4;
        # the two estimators share the criterion up to the profiled targets
        cfg = ExperimentConfig(dimensions=[1], n_replications=10, T=2000, seed=3)
        from eigengarch import fit_joint_qmle, fit_spectral_targeting, simulate_path
        spec = diagonal_benchmark_spec(1)
        gaps = []
        for child in np.random.SeedSequence(cfg.seed).spawn(cfg.n_replications):
            X = simulate_path(spec, T=cfg.T, burn_in=1000, rng_seed=child)
            s = fit_spectral_targeting(X, diag_a=True)
            q = fit_joint_qmle(X, diag_a=True)
            gaps.append([
                abs(s.target.lam[0] - q.target.lam[0]),
                abs(s.kappas[0, 0] - q.kappas[0, 0]),
                abs(s.kappas[0, 1] - q.kappas[0, 1]),
            ])
        med = np.median(np.array(gaps), axis=0)
        assert np.all(med < 1e-3)

    def test_p2_desk_scale_re_and_timing(self):
        cfg = ExperimentConfig(dimensions=[2], n_replications=50, T=2000, seed=11)
        row = run_relative_efficiency(cfg)[0]
        assert row.n_params == 7
        assert 0.5 <= row.re <= 5.0
        assert row.time_ste < row.time_qmle

    def test_row_flagged_when_qmle_unreliable(self):
        cfg = ExperimentConfig(dimensions=[2], n_replications=2, T=400, seed=2)
        rows = run_relative_efficiency(cfg, qmle_failure_limit=-0.5)
        assert rows[0].flagged and rows[0].re is None


class TestRunDensityStudy:
    def test_summary_fields_and_truth(self):
        res = run_density_study(1, N=8, T=600, seed=5)
        assert res.truth_w1 == 1.5 and res.truth_a11 == 0.33
        assert res.w1.shape == (8,)
        assert abs(res.a11_standardized.mean()) < 1e-12
        summary = res.summary()
        assert set(summary) >= {"case", "T", "ks_a11", "median_abs_err_a11"}

    @pytest.mark.parametrize("N", [0, 1])
    def test_needs_two_replications(self, N):
        with pytest.raises(ValidationError, match="at least 2 replications"):
            run_density_study(1, N=N, T=500, seed=5)

    def test_deterministic_across_worker_counts(self):
        r1 = run_density_study(1, N=6, T=500, seed=9, n_workers=1)
        r2 = run_density_study(1, N=6, T=500, seed=9, n_workers=2)
        assert np.array_equal(r1.a11, r2.a11)
        assert np.array_equal(r1.w1, r2.w1)

    def test_case3_estimates_bounded_away_from_truth(self):
        # targeting feasibility caps the diagonal ARCH below one, so the
        # explosive truth 1.01 is unreachable: inconsistency by construction
        res = run_density_study(3, N=6, T=800, seed=13)
        assert np.all(res.a11 < 1.0)
        assert res.median_abs_err_a11 > 0.01

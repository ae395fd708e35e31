"""Simulation studies: efficiency comparison and sampling densities."""

import numpy as np
import pytest

from eigengarch import (
    DynamicsParams,
    ExperimentConfig,
    ModelSpec,
    ValidationError,
    experiments,
    fit_spectral_targeting,
    run_density_study,
    run_relative_efficiency,
    simulate_path,
)
from eigengarch.experiments import (
    density_case_spec,
    diagonal_benchmark_spec,
    relative_efficiency_statistic,
)


def per_path_density(case, N, T, seed):
    """Density-study estimates computed one replication at a time."""
    spec = density_case_spec(case)
    w1, a11 = [], []
    for child in np.random.SeedSequence(seed).spawn(N):
        X = simulate_path(spec, T=T, burn_in=1000, rng_seed=child,
                          allow_nonstationary=(case == 3))
        fit = fit_spectral_targeting(X, diag_a=True, fit_b=False)
        lead = experiments._match_columns(fit.target.V, spec.V)[0]
        w1.append(fit.W[lead])
        a11.append(fit.kappas[lead, lead])
    return np.array(w1), np.array(a11)


def chunk_of(monkeypatch, n_paths, T, p):
    """Set the chunk byte budget to n_paths innovation blocks of T + burn-in rows."""
    monkeypatch.setattr(experiments, "CHUNK_BYTES", n_paths * (1000 + T) * p * 8)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(n_replications=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(T=10)
        with pytest.raises(ValidationError):
            ExperimentConfig(estimators=("ste", "bogus"))
        with pytest.raises(ValidationError, match="at least one dimension"):
            ExperimentConfig(dimensions=[])


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


class TestChunkedSimulation:
    @pytest.mark.parametrize("spec", [
        density_case_spec(1),
        density_case_spec(3),
        diagonal_benchmark_spec(5),
        ModelSpec.from_intercepts(
            np.eye(3), [0.3, 0.2, 0.1],
            DynamicsParams(A=np.full((3, 3), 0.05), b=np.full(3, 0.6))),
    ], ids=["case1", "case3", "diagonal5", "full_a3"])
    def test_chunk_paths_equal_simulate_path(self, spec):
        seeds = np.random.SeedSequence(4).spawn(5)
        paths = list(experiments._simulated_paths(spec, 300, seeds))
        assert len(paths) == 5
        for X, seed in zip(paths, seeds):
            expected = simulate_path(spec, T=300, burn_in=1000, rng_seed=seed,
                                     allow_nonstationary=True)
            np.testing.assert_array_equal(X, expected)

    def test_chunks_follow_the_byte_budget_and_the_workers(self, monkeypatch):
        seeds = list(range(10))
        chunk_of(monkeypatch, 4, T=500, p=2)
        assert experiments._chunks(seeds, 500, 2, 1) == [seeds[:4], seeds[4:8], seeds[8:]]
        assert experiments._chunks(seeds, 500, 2, n_workers=5) == [
            seeds[k:k + 2] for k in range(0, 10, 2)]
        # a block larger than the budget still makes one-path chunks
        assert experiments._chunks(seeds, 10**6, 2, 1) == [[s] for s in seeds]


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

    def test_fits_see_the_per_path_simulations(self, monkeypatch):
        cfg = ExperimentConfig(dimensions=[1, 2], n_replications=4, T=300, seed=3)
        seen = []

        def spy(fit):
            def wrapped(X, *args, **kwargs):
                seen.append((fit.__name__, X.copy()))
                return fit(X, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(experiments, "fit_spectral_targeting",
                            spy(experiments.fit_spectral_targeting))
        monkeypatch.setattr(experiments, "fit_joint_qmle", spy(experiments.fit_joint_qmle))
        run_relative_efficiency(cfg)
        master = np.random.SeedSequence(cfg.seed)
        expected = [simulate_path(diagonal_benchmark_spec(p), T=cfg.T, burn_in=1000,
                                  rng_seed=child)
                    for p in cfg.dimensions for child in master.spawn(cfg.n_replications)]
        assert [name for name, _ in seen] == [
            "fit_spectral_targeting", "fit_joint_qmle"] * len(expected)
        for k, X in enumerate(expected):
            np.testing.assert_array_equal(seen[2 * k][1], X)
            np.testing.assert_array_equal(seen[2 * k + 1][1], X)

    def test_row_flagged_when_qmle_unreliable(self, monkeypatch):
        monkeypatch.setattr(experiments, "QMLE_FAILURE_LIMIT", -0.5)
        cfg = ExperimentConfig(dimensions=[2], n_replications=2, T=400, seed=2)
        rows = run_relative_efficiency(cfg)
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

    @pytest.mark.parametrize("case, n_workers", [(1, 1), (1, 2), (3, 1)])
    def test_one_more_replication_than_a_chunk(self, case, n_workers, monkeypatch):
        chunk_of(monkeypatch, 3, T=400, p=2)
        res = run_density_study(case, N=4, T=400, seed=21, n_workers=n_workers)
        w1, a11 = per_path_density(case, N=4, T=400, seed=21)
        np.testing.assert_array_equal(res.w1, w1)
        np.testing.assert_array_equal(res.a11, a11)

    @pytest.mark.parametrize("T", [0, -1500])
    def test_needs_a_positive_length(self, T):
        with pytest.raises(ValidationError, match="T >= 1"):
            run_density_study(1, N=4, T=T, seed=5)

    @pytest.mark.parametrize("n_workers", [0, -1])
    def test_needs_a_worker(self, n_workers):
        with pytest.raises(ValidationError, match="n_workers >= 1"):
            run_density_study(1, N=4, T=300, seed=5, n_workers=n_workers)

    def test_case3_estimates_bounded_away_from_truth(self):
        # targeting feasibility caps the diagonal ARCH below one, so the
        # explosive truth 1.01 is unreachable: inconsistency by construction
        res = run_density_study(3, N=6, T=800, seed=13)
        assert np.all(res.a11 < 1.0)
        assert res.median_abs_err_a11 > 0.01

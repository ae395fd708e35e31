"""Eigenvalue dynamics: targeting, filtering, simulation, moment diagnostics."""

import numpy as np
import pytest

from eigengarch import (
    DynamicsParams,
    ModelSpec,
    NonstationaryError,
    TargetingError,
    ValidationError,
    filter_eigenvalues,
    intercepts_from_targets,
    lyapunov_estimate,
    moment_order_check,
    sample_covariance,
    simulate_path,
    unconditional_eigenvalues,
)
from eigengarch.model import linear_recursion
from eigengarch.spectral import SpectralTarget
from eigengarch.experiments import density_case_spec, diagonal_benchmark_spec


def case1_spec():
    return density_case_spec(1)


def full_a_spec():
    """Bivariate process with spill-overs in A and persistence in b."""
    dyn = DynamicsParams(A=np.array([[0.15, 0.05], [0.04, 0.12]]),
                         b=np.array([0.50, 0.55]))
    return ModelSpec.from_intercepts(case1_spec().V, np.array([0.6, 0.25]), dyn)


def reference_path(spec, T, burn_in, rng_seed):
    """One path at a time, one time step at a time, with the dense A @ y**2."""
    p = spec.p
    Z = np.random.default_rng(rng_seed).standard_normal((burn_in + T, p))
    A, b, W = spec.dynamics.A, spec.dynamics.b, spec.W
    lam = (spec.lam if spec.lam is not None else W).astype(float).copy()
    lam_path = np.empty((burn_in + T, p))
    Y = np.empty((burn_in + T, p))
    for t in range(burn_in + T):
        lam_path[t] = lam
        Y[t] = np.sqrt(lam) * Z[t]
        lam = W + A @ (Y[t] ** 2) + b * lam
    X = Y @ spec.V.T
    return X[burn_in:], Y[burn_in:], lam_path[burn_in:], Z[burn_in:]


REFERENCE_SPECS = {
    "case1": (lambda: density_case_spec(1), False),
    "case2": (lambda: density_case_spec(2), False),
    "case3": (lambda: density_case_spec(3), True),
    "diagonal5": (lambda: diagonal_benchmark_spec(5), False),
    "diagonal25": (lambda: diagonal_benchmark_spec(25), False),
    "full_a": (full_a_spec, False),
}


class TestUnconditionalEigenvalues:
    def test_case1_values(self):
        dyn = DynamicsParams(A=np.diag([0.33, 0.25]), b=np.zeros(2))
        lam = unconditional_eigenvalues(np.array([1.5, 0.46]), dyn)
        np.testing.assert_allclose(lam, [1.5 / 0.67, 0.46 / 0.75], rtol=1e-12)
        np.testing.assert_allclose(lam, [2.23881, 0.61333], atol=5e-6)

    def test_scalar_fixed_point(self):
        a, b, lam = 0.1, 0.5, 2.0
        dyn = DynamicsParams(A=[[a]], b=[b])
        w = lam * (1 - a - b)
        np.testing.assert_allclose(unconditional_eigenvalues([w], dyn), [lam], rtol=1e-12)

    def test_matches_fixed_point_iteration(self):
        rng = np.random.default_rng(4)
        A = rng.uniform(0, 0.08, size=(4, 4))
        b = rng.uniform(0.3, 0.6, size=4)
        dyn = DynamicsParams(A=A, b=b)
        W = rng.uniform(0.2, 1.0, size=4)
        lam = unconditional_eigenvalues(W, dyn)
        # independent oracle: iterate lam <- W + (A+B) lam
        it = W.copy()
        M = dyn.persistence()
        for _ in range(10_000):
            it = W + M @ it
        np.testing.assert_allclose(lam, it, atol=1e-10)

    def test_nonstationary_rejected(self):
        dyn = DynamicsParams(A=[[1.01]], b=[0.0])
        with pytest.raises(NonstationaryError):
            unconditional_eigenvalues([1.0], dyn)


class TestInterceptsFromTargets:
    def test_inverse_of_case1(self):
        dyn = DynamicsParams(A=np.diag([0.33, 0.25]), b=np.zeros(2))
        lam = np.array([1.5 / 0.67, 0.46 / 0.75])
        target = SpectralTarget(lam=lam, V=np.eye(2))
        W = intercepts_from_targets(target, dyn)
        np.testing.assert_allclose(W, [1.5, 0.46], rtol=1e-12)

    def test_no_dynamics_returns_targets(self):
        dyn = DynamicsParams(A=np.zeros((3, 3)), b=np.zeros(3))
        lam = np.array([0.3, 0.7, 1.1])
        W = intercepts_from_targets(SpectralTarget(lam=lam, V=np.eye(3)), dyn)
        np.testing.assert_allclose(W, lam)

    def test_violation_carries_equation_index(self):
        # big spill-over from the large eigenvalue makes w_1 negative
        dyn = DynamicsParams(A=np.array([[0.1, 0.9], [0.0, 0.1]]), b=np.zeros(2))
        lam = np.array([0.5, 3.0])
        with pytest.raises(TargetingError) as exc:
            intercepts_from_targets(SpectralTarget(lam=lam, V=np.eye(2)), dyn)
        assert 0 in exc.value.equations

    def test_round_trip_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = rng.integers(1, 5)
            A = rng.uniform(0, 0.1, size=(p, p))
            b = rng.uniform(0.2, 0.7, size=p)
            dyn = DynamicsParams(A=A, b=b)
            W = rng.uniform(0.1, 2.0, size=p)
            lam = unconditional_eigenvalues(W, dyn)
            back = intercepts_from_targets(
                SpectralTarget(lam=lam, V=np.eye(p)), dyn
            )
            np.testing.assert_allclose(back, W, atol=1e-10)


class TestLinearRecursion:
    @pytest.mark.parametrize("shape", [(200,), (200, 4)])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_plain_loop(self, shape, reverse):
        # s_t = c_t + b s_{t-1}, run from the last row back when reversed;
        # the same products and sums in the same order, so equal bit for bit
        c = np.random.default_rng(5).standard_normal(shape)
        b = 0.93
        expected = np.empty_like(c)
        steps = range(shape[0] - 1, -1, -1) if reverse else range(shape[0])
        prev = None
        for t in steps:
            expected[t] = c[t] if prev is None else c[t] + b * expected[prev]
            prev = t
        out = linear_recursion(c, b, reverse=reverse)
        assert np.array_equal(out, expected)
        # a reversed view would make every BLAS product with it fall back
        # to NumPy's own loop
        assert out.flags.c_contiguous


class TestFilterEigenvalues:
    def test_hand_arithmetic(self):
        dyn = DynamicsParams(A=[[0.33]], b=[0.0])
        spec = ModelSpec(V=np.eye(1), dynamics=dyn, W=np.array([1.5]),
                         lam=np.array([1.5 / 0.67]))
        Y = np.array([[2.0], [0.0]])
        path = filter_eigenvalues(spec, Y)
        assert path[1, 0] == pytest.approx(1.5 + 0.33 * 4.0, abs=1e-14)

    def test_zero_shocks_flat(self):
        dyn = DynamicsParams(A=np.diag([0.3, 0.2]), b=np.zeros(2))
        W = np.array([0.5, 0.8])
        spec = ModelSpec.from_intercepts(np.eye(2), W, dyn)
        path = filter_eigenvalues(spec, np.zeros((20, 2)))
        np.testing.assert_allclose(path[1:], np.tile(W, (19, 1)), rtol=1e-14)

    def test_matches_double_loop_recursion(self):
        rng = np.random.default_rng(2)
        w, a, b = 0.2, 0.15, 0.7
        dyn = DynamicsParams(A=[[a]], b=[b])
        spec = ModelSpec.from_intercepts(np.eye(1), [w], dyn)
        Y = rng.standard_normal((100, 1))
        lam0 = spec.lam[0]
        path = filter_eigenvalues(spec, Y)
        # independent double-loop oracle
        expected = np.empty(100)
        expected[0] = lam0
        for t in range(1, 100):
            expected[t] = w + a * Y[t - 1, 0] ** 2 + b * expected[t - 1]
        np.testing.assert_allclose(path[:, 0], expected, rtol=1e-14)

    def test_init_schemes(self):
        dyn = DynamicsParams(A=[[0.1]], b=[0.5])
        spec = ModelSpec.from_intercepts(np.eye(1), [0.4], dyn)
        Y = np.ones((10, 1))
        path = filter_eigenvalues(spec, Y)
        assert isinstance(path, np.ndarray) and path.shape == (10, 1)
        assert path[0, 0] == spec.lam[0]
        assert filter_eigenvalues(spec, Y, np.array([7.0]))[0, 0] == 7.0
        for bad in (np.array([0.0]), np.array([1.0, 1.0])):
            with pytest.raises(ValidationError, match="fixed initialization"):
                filter_eigenvalues(spec, Y, bad)

    def test_nonstationary_spec_starts_at_intercepts(self):
        spec = density_case_spec(3)
        path = filter_eigenvalues(spec, np.ones((5, 2)))
        np.testing.assert_array_equal(path[0], spec.W)

    def test_rejects_non_finite(self):
        dyn = DynamicsParams(A=[[0.1]], b=[0.5])
        spec = ModelSpec.from_intercepts(np.eye(1), [0.4], dyn)
        Y = np.ones((10, 1))
        Y[4, 0] = np.inf
        with pytest.raises(ValidationError, match="t=4"):
            filter_eigenvalues(spec, Y)


class TestSimulatePath:
    def test_static_model_matches_targets(self):
        lam = np.array([0.5, 2.0])
        dyn = DynamicsParams(A=np.zeros((2, 2)), b=np.zeros(2))
        spec = ModelSpec.from_intercepts(np.eye(2), lam, dyn)
        X = simulate_path(spec, T=1_000_000, burn_in=10, rng_seed=0)
        H = sample_covariance(X).values
        np.testing.assert_allclose(np.diag(H), lam, rtol=0.01)
        assert abs(H[0, 1]) < 0.01

    def test_zero_innovation_hook(self):
        spec = case1_spec()
        Z = np.zeros((1100, 2))
        X = simulate_path(spec, T=100, burn_in=1000, innovations=Z)
        assert np.all(X == 0.0)

    def test_case1_unconditional_eigenvalues(self):
        spec = case1_spec()
        X = simulate_path(spec, T=1_000_000, burn_in=1000, rng_seed=15)
        lam_hat = np.sort(np.linalg.eigvalsh(sample_covariance(X).values))
        np.testing.assert_allclose(lam_hat, np.sort(spec.lam), rtol=0.02)

    def test_rotated_returns_nearly_uncorrelated(self):
        spec = case1_spec()
        X, Y, lam_path, Z = simulate_path(
            spec, T=1_000_000, burn_in=1000, rng_seed=3, return_internals=True
        )
        corr = np.corrcoef(Y.T)
        assert abs(corr[0, 1]) < 0.02

    def test_filter_reproduces_simulator_path(self):
        spec = case1_spec()
        X, Y, lam_path, Z = simulate_path(
            spec, T=500, burn_in=200, rng_seed=12, return_internals=True
        )
        filtered = filter_eigenvalues(spec, Y, init=lam_path[0])
        np.testing.assert_allclose(filtered, lam_path, rtol=1e-12)

    def test_filter_matches_simulator_from_unconditional_start(self):
        # with no burn-in the simulator starts exactly at the unconditional
        # eigenvalues, which is the filter's default initialization
        spec = case1_spec()
        X, Y, lam_path, Z = simulate_path(
            spec, T=300, burn_in=0, rng_seed=14, return_internals=True
        )
        filtered = filter_eigenvalues(spec, Y)
        np.testing.assert_array_equal(filtered[0], spec.lam)
        np.testing.assert_allclose(filtered, lam_path, rtol=1e-12)

    def test_nonstationary_refused_without_flag(self):
        spec = density_case_spec(3)
        with pytest.raises(NonstationaryError):
            simulate_path(spec, T=100)
        X = simulate_path(spec, T=100, rng_seed=0, allow_nonstationary=True)
        assert np.all(np.isfinite(X))

    def test_deterministic_under_seed(self):
        spec = case1_spec()
        X1 = simulate_path(spec, T=200, burn_in=100, rng_seed=5)
        X2 = simulate_path(spec, T=200, burn_in=100, rng_seed=5)
        assert np.array_equal(X1, X2)

    @pytest.mark.parametrize("name", sorted(REFERENCE_SPECS))
    @pytest.mark.parametrize("rng_seed", [0, np.random.SeedSequence(77_000).spawn(2)[1]])
    def test_equals_per_path_reference(self, name, rng_seed):
        make, nonstationary = REFERENCE_SPECS[name]
        spec = make()
        expected = reference_path(spec, T=700, burn_in=300, rng_seed=rng_seed)
        got = simulate_path(spec, T=700, burn_in=300, rng_seed=rng_seed,
                            allow_nonstationary=nonstationary, return_internals=True)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)
        X = simulate_path(spec, T=700, burn_in=300, rng_seed=rng_seed,
                          allow_nonstationary=nonstationary)
        np.testing.assert_array_equal(X, expected[0])

    def test_innovation_hook_left_untouched(self):
        Z = np.random.default_rng(2).standard_normal((150, 2))
        kept = Z.copy()
        X, Y, lam_path, Z_out = simulate_path(case1_spec(), T=100, burn_in=50,
                                              innovations=Z, return_internals=True)
        np.testing.assert_array_equal(Z, kept)
        np.testing.assert_array_equal(Z_out, kept[50:])
        np.testing.assert_array_equal(Y, np.sqrt(lam_path) * Z_out)

    @pytest.mark.parametrize("T, burn_in", [(0, 10), (-5, 10), (10, -3)])
    def test_rejects_bad_lengths(self, T, burn_in):
        with pytest.raises(ValidationError, match="T >= 1 and burn_in >= 0"):
            simulate_path(density_case_spec(1), T=T, burn_in=burn_in)


class TestMomentOrderCheck:
    def test_case1_fourth_moments(self):
        dyn = DynamicsParams(A=np.diag([0.33, 0.25]), b=np.zeros(2))
        out = moment_order_check(dyn, 2, kurtosis=3.0)
        assert out["satisfied"]
        assert out["radius"] == pytest.approx(3 * 0.33**2, abs=1e-12)

    def test_case2_second_only(self):
        dyn = DynamicsParams(A=np.diag([0.60, 0.55]), b=np.zeros(2))
        assert moment_order_check(dyn, 1)["radius"] == pytest.approx(0.60)
        assert moment_order_check(dyn, 1)["satisfied"]
        out2 = moment_order_check(dyn, 2)
        assert out2["radius"] == pytest.approx(3 * 0.36, abs=1e-12)
        assert not out2["satisfied"]

    def test_case3_mean_only(self):
        dyn = DynamicsParams(A=np.diag([1.01, 0.90]), b=np.zeros(2))
        out = moment_order_check(dyn, 1)
        assert out["radius"] == pytest.approx(1.01)
        assert not out["satisfied"]

    def test_k1_pass_implies_stationary(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = rng.integers(1, 4)
            A = rng.uniform(0, 0.3, size=(p, p))
            b = rng.uniform(0, 0.5, size=p)
            dyn = DynamicsParams(A=A, b=b)
            out = moment_order_check(dyn, 1)
            if out["satisfied"]:
                assert dyn.is_stationary()

    def test_rejects_bad_order(self):
        dyn = DynamicsParams(A=[[0.1]], b=[0.0])
        with pytest.raises(ValidationError):
            moment_order_check(dyn, 3)


class TestLyapunovEstimate:
    def test_deterministic_product(self):
        dyn = DynamicsParams(A=np.zeros((2, 2)), b=np.full(2, 0.5))
        est = lyapunov_estimate(dyn, n_steps=10_000, rng_seed=0)
        assert est == pytest.approx(np.log(0.5), abs=1e-6)

    def test_case3_scalar_stationary_despite_infinite_variance(self):
        # E[log(1.01 z^2)] = log(1.01) - euler_gamma - log 2
        dyn = DynamicsParams(A=[[1.01]], b=[0.0])
        est = lyapunov_estimate(dyn, n_steps=200_000, rng_seed=7)
        exact = np.log(1.01) - np.euler_gamma - np.log(2.0)
        assert exact < 0
        assert est == pytest.approx(exact, abs=0.02)
        assert est < 0

    def test_degenerate_floor(self):
        dyn = DynamicsParams(A=np.zeros((2, 2)), b=np.zeros(2))
        est = lyapunov_estimate(dyn, n_steps=10_000, rng_seed=0)
        assert est <= -700.0

    def test_rejects_few_steps(self):
        dyn = DynamicsParams(A=[[0.1]], b=[0.5])
        with pytest.raises(ValidationError):
            lyapunov_estimate(dyn, n_steps=100)


class TestModelSpecInvariants:
    def test_intercepts_reproduced(self):
        spec = case1_spec()
        W = (np.eye(2) - spec.dynamics.persistence()) @ spec.lam
        np.testing.assert_allclose(W, spec.W, atol=1e-12)

    def test_from_intercepts_rejects_nonpositive(self):
        dyn = DynamicsParams(A=np.zeros((2, 2)), b=np.zeros(2))
        with pytest.raises(ValidationError):
            ModelSpec.from_intercepts(np.eye(2), [1.0, 0.0], dyn)

"""Per-equation criterion, analytic scores, two-step and joint fits."""

import numpy as np
import pytest

from eigengarch import (
    DynamicsParams,
    ModelSpec,
    ValidationError,
    eigen_sym,
    equation_nll,
    equation_score,
    fit_equation,
    fit_joint_qmle,
    fit_spectral_targeting,
    givens_product,
    rotate_returns,
    sample_covariance,
    simulate_path,
)
from eigengarch import estimation
from eigengarch.estimation import (
    _equation_kernel,
    _free_mask,
    _kernel_hessian,
    _joint_nll_grad,
    _lam_derivs,
    _match_angles,
)
from eigengarch.experiments import density_case_spec, diagonal_benchmark_spec


def case1_panel(T=10_000, seed=42):
    return simulate_path(density_case_spec(1), T=T, burn_in=1000, rng_seed=seed)


def runs_from(Y, lam, i, starts, diag_a=False, fit_b=True):
    """L-BFGS-B runs of equation i's criterion from the given kappa starts, in
    the free coordinates of ``fit_equation``; returns results and traces."""
    p = lam.shape[0]
    free = np.flatnonzero(_free_mask(p, diag_a, fit_b)[i])
    Y2 = np.asarray(Y) ** 2
    Z, z_lam = (Y2[:, [i]], lam[[i]]) if diag_a else (Y2, lam)
    return estimation._run_starts(
        lambda x: _equation_kernel(x, Z, z_lam, Y2[:, i], lam[i])[:2],
        [s[free] for s in starts], *estimation._bounds(free, p))


class TestRotateReturns:
    def test_identity(self):
        X = np.arange(12.0).reshape(6, 2)
        np.testing.assert_array_equal(rotate_returns(X, np.eye(2)), X)

    def test_quarter_turn_hand_product(self):
        V = givens_product([np.pi / 2], 2)
        Y = rotate_returns(np.array([[1.0, 0.0]]), V)
        # V'(1,0)' computed by hand: V = [[0,1],[-1,0]], so V'x = (0, 1)
        np.testing.assert_allclose(Y, [[0.0, 1.0]], atol=1e-12)

    def test_isometry(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 3))
        V = givens_product(rng.uniform(0, 1.5, 3), 3)
        Y = rotate_returns(X, V)
        np.testing.assert_allclose(
            np.linalg.norm(Y, axis=1), np.linalg.norm(X, axis=1), rtol=1e-12
        )


class TestEquationNLL:
    def test_unit_variance_zero_returns(self):
        lam = np.array([1.0])
        Y = np.zeros((50, 1))
        val = equation_nll(np.zeros(2), lam, Y, 0)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_unit_variance_unit_returns(self):
        lam = np.array([1.0])
        Y = np.ones((50, 1))
        val = equation_nll(np.zeros(2), lam, Y, 0)
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_matches_independent_recursion(self):
        rng = np.random.default_rng(6)
        Y = rng.standard_normal((50, 1))
        lam_target = np.array([1.3])
        a, b = 0.3, 0.5
        val = equation_nll(np.array([a, b]), lam_target, Y, 0)
        # independent scalar-GARCH likelihood with its own recursion
        w = (1 - b) * lam_target[0] - a * lam_target[0]
        lam = lam_target[0]
        total = np.log(lam) + Y[0, 0] ** 2 / lam
        for t in range(1, 50):
            lam = w + a * Y[t - 1, 0] ** 2 + b * lam
            total += np.log(lam) + Y[t, 0] ** 2 / lam
        np.testing.assert_allclose(val, total / 50, rtol=1e-12)

    def test_infeasible_returns_finite_penalty(self):
        lam = np.array([1.0, 1.0])
        Y = np.ones((30, 2))
        val = equation_nll(np.array([0.9, 0.9, 0.5]), lam, Y, 0)  # w < 0
        assert np.isfinite(val) and val > 1e9


class TestEquationScore:
    def test_static_model_closed_form(self):
        rng = np.random.default_rng(9)
        Y = rng.standard_normal((200, 2))
        lam = np.array([0.9, 1.4])
        i = 0
        eps = 1e-9  # keep strictly inside the feasible region
        kappa = np.array([eps, eps, eps])
        g = equation_score(kappa, lam, Y, i)
        # closed form at a=b=0: (1/T) sum (1 - y_i^2/w)(y_j(t-1)^2 - lam_j)/w
        w = lam[i]
        expect = np.zeros(3)
        T = Y.shape[0]
        for t in range(1, T):
            c = (1.0 - Y[t, i] ** 2 / w) / w
            expect[0] += c * (Y[t - 1, 0] ** 2 - lam[0])
            expect[1] += c * (Y[t - 1, 1] ** 2 - lam[1])
        expect /= T
        np.testing.assert_allclose(g[:2], expect[:2], rtol=1e-4, atol=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        Y = rng.standard_normal((300, 2)) * 1.2
        lam = sample_covariance(Y).values.diagonal().copy()
        for trial in range(20):
            a = rng.uniform(0.01, 0.2, size=2)
            b = rng.uniform(0.1, 0.6)
            kappa = np.array([*a, b])
            if (1 - b) * lam[0] - a @ lam <= 0:
                continue
            g = equation_score(kappa, lam, Y, 0)
            fd = np.empty(3)
            h = 1e-6
            for k in range(3):
                up, dn = kappa.copy(), kappa.copy()
                up[k] += h
                dn[k] -= h
                fd[k] = (
                    equation_nll(up, lam, Y, 0) - equation_nll(dn, lam, Y, 0)
                ) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-9)

    def test_nll_locally_symmetric_in_b(self):
        rng = np.random.default_rng(30)
        Y = rng.standard_normal((400, 1))
        lam = np.array([1.0])
        kappa = np.array([0.1, 0.5])
        delta = 1e-4
        up = equation_nll(kappa + [0, delta], lam, Y, 0)
        dn = equation_nll(kappa - [0, delta], lam, Y, 0)
        mid = equation_nll(kappa, lam, Y, 0)
        # first-order changes cancel to O(delta^2)
        assert abs((up - mid) + (dn - mid)) < 50 * delta**2

    def test_score_shrinks_with_sample_size(self):
        spec = density_case_spec(1)
        kappa_true = [
            np.array([0.25, 0.0, 0.0]),   # ascending order: small-lam equation
            np.array([0.0, 0.33, 0.0]),
        ]
        lam_true = np.sort(spec.lam)
        mags = {}
        for T in (1000, 100_000):
            acc = 0.0
            for seed in range(3):
                X, Y, _, _ = simulate_path(
                    spec, T=T, burn_in=1000, rng_seed=seed, return_internals=True
                )
                # simulator order is descending; flip to ascending
                Ys = Y[:, ::-1]
                g = equation_score(kappa_true[1], lam_true, Ys, 1)
                acc += np.abs(g).max()
            mags[T] = acc / 3
        assert mags[100_000] < mags[1000]


class TestAdjointGradients:
    @pytest.mark.parametrize("diag_a", [True, False])
    def test_ste_matches_forward_derivative_paths(self, diag_a):
        # reference: p+1 derivative paths pushed forward, contracted with the
        # per-observation score weights. A diagonal A also goes through the
        # one-column call that its fits make, which must agree with the
        # full-width call and with central differences
        p, T = 25, 2500
        X = simulate_path(diagonal_benchmark_spec(p), T=T, burn_in=1000, rng_seed=3)
        lam_vec = sample_covariance(X).values.diagonal().copy()
        Y2 = X**2
        rng = np.random.default_rng(4)
        for i in (0, 12, 24):
            kappa = np.zeros(p + 1)
            if not diag_a:
                kappa[:p] = rng.uniform(0.0, 0.002, p)
            kappa[i], kappa[p] = 0.06, 0.85
            value, grad, lam, _ = _equation_kernel(kappa, Y2, lam_vec, Y2[:, i], lam_vec[i])
            assert value == equation_nll(kappa, lam_vec, X, i)
            assert np.array_equal(grad, equation_score(kappa, lam_vec, X, i))
            weights = (1.0 - Y2[:, i] / lam) / lam
            ref = weights @ _lam_derivs(Y2, lam_vec, lam_vec[i], kappa[p], lam) / T
            assert value == np.mean(np.log(lam) + Y2[:, i] / lam)
            assert np.abs(grad - ref).max() <= 1e-12 * np.abs(ref).max()
            if not diag_a:
                continue
            free = [i, p]
            y2 = Y2[:, i].copy()
            value1, grad1, _, _ = _equation_kernel(kappa[free], y2[:, None],
                                                   lam_vec[[i]], y2, lam_vec[i])
            assert abs(value1 - value) <= 1e-14 * abs(value)
            np.testing.assert_allclose(grad1, grad[free], rtol=1e-14, atol=0)
            fd = np.empty(2)
            for n, k in enumerate(free):
                h = 1e-6 * kappa[k]
                up, dn = kappa.copy(), kappa.copy()
                up[k] += h
                dn[k] -= h
                fd[n] = (equation_nll(up, lam_vec, X, i)
                         - equation_nll(dn, lam_vec, X, i)) / (2 * h)
            np.testing.assert_allclose(grad[free], fd, rtol=1e-7)
            np.testing.assert_allclose(grad1, fd, rtol=1e-7)

    @staticmethod
    def _joint_kappas(p, diag_a):
        """Own ARCH 0.07, persistence 0.8 and, for a full A, small spill-overs."""
        kappas = np.tile([0.02, 0.03, 0.01, 0.8], (p, 1))
        if diag_a:
            kappas[:, :p] = 0.0
        kappas[np.arange(p), np.arange(p)] = 0.07
        return kappas

    @staticmethod
    def _joint_theta(p, diag_a, kappas):
        """theta = [lam, phi, kappas[mask]] at fixed eigenvalues and angles."""
        return np.concatenate([[0.12, 0.2, 0.35], [0.4, 0.6, 0.9],
                               kappas[_free_mask(p, diag_a)]])

    @staticmethod
    def _joint_central_differences(theta, X, p, diag_a):
        fd = np.empty(theta.size)
        for k in range(theta.size):
            h = 1e-6 * max(abs(theta[k]), 0.1)
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (_joint_nll_grad(up, X, p, diag_a)[0]
                     - _joint_nll_grad(dn, X, p, diag_a)[0]) / (2 * h)
        return fd

    @pytest.mark.parametrize("diag_a", [True, False])
    def test_joint_matches_central_differences(self, diag_a):
        p = 3
        X = simulate_path(diagonal_benchmark_spec(p), T=1000, burn_in=500, rng_seed=8)
        kappas = self._joint_kappas(p, diag_a)
        theta = self._joint_theta(p, diag_a, kappas)
        value, grad, feasible = _joint_nll_grad(theta, X, p, diag_a)
        assert feasible
        fd = self._joint_central_differences(theta, X, p, diag_a)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8 * np.abs(fd).max())

    @pytest.mark.parametrize("diag_a", [True, False])
    def test_joint_penalty_matches_central_differences(self, diag_a, monkeypatch):
        # equation 1 sits 1e-4 below the intercept floor, so its term is the
        # pull-back; the penalty's constant base adds nothing to the gradient
        # and is zeroed so the differences of the other terms stay resolvable
        monkeypatch.setattr(estimation, "PENALTY_BASE", 0.0)
        p = 3
        X = simulate_path(diagonal_benchmark_spec(p), T=1000, burn_in=500, rng_seed=8)
        kappas = self._joint_kappas(p, diag_a)
        kappas[1, 1] = 0.2005 if diag_a else 0.171  # w_1 = -1e-4
        theta = self._joint_theta(p, diag_a, kappas)
        value, grad, feasible = _joint_nll_grad(theta, X, p, diag_a)
        assert not feasible
        lam = theta[:p]
        w1 = (1.0 - kappas[1, p]) * lam[1] - kappas[1, :p] @ lam
        assert w1 == pytest.approx(-1e-4, rel=1e-6)
        fd = self._joint_central_differences(theta, X, p, diag_a)
        # the pull-back's entries reach 4e5; the other terms' are O(1), and
        # the differences resolve them to 1.1e-7 relative (an entry of 0.058
        # with a full A). The floor's own lam_1-dependence is 2e-7 of
        # dL/dlam_1 with a diagonal A, so the tolerance must sit below it
        np.testing.assert_allclose(grad, fd, rtol=1.5e-7, atol=1e-8)


class TestFitEquation:
    def test_recovers_benchmark_dynamics(self):
        # dgp: own-arch 0.05, persistence 0.85; MC sds measured at T=2e4
        # from 60 replications: sd(a) ~ 0.006, sd(b) ~ 0.020
        spec = diagonal_benchmark_spec(2)
        X = simulate_path(spec, T=20_000, burn_in=1000, rng_seed=77)
        fit = fit_spectral_targeting(X, diag_a=True)
        for i in range(2):
            assert abs(fit.kappas[i, i] - 0.05) < 3 * 0.006
            assert abs(fit.kappas[i, 2] - 0.85) < 3 * 0.020

    def test_static_truth_lands_on_boundary(self):
        lam = np.array([0.5, 2.0])
        dyn = DynamicsParams(A=np.zeros((2, 2)), b=np.zeros(2))
        spec = ModelSpec.from_intercepts(np.eye(2), lam, dyn)
        X = simulate_path(spec, T=20_000, burn_in=100, rng_seed=5)
        fit = fit_spectral_targeting(X)
        # ARCH loadings collapse toward zero; b is unidentified once a = 0
        # (targeting pins the level), so only a is checked
        assert np.all(fit.kappas[:, :2] < 0.05)
        # the fit beats the static model only by the in-sample overfitting
        # margin, about n_params/(2T) ~ 7.5e-5 at this sample size
        Y = rotate_returns(X, fit.target.V)
        for i in range(2):
            static = equation_nll(np.zeros(3), fit.target.lam, Y, i)
            assert fit.equation_nlls[i] <= static + 1e-12
            assert static - fit.equation_nlls[i] < 5e-4

    def test_idempotent_refit(self):
        spec = diagonal_benchmark_spec(2)
        X = simulate_path(spec, T=5000, burn_in=500, rng_seed=3)
        fit = fit_spectral_targeting(X)
        Y = rotate_returns(X, fit.target.V)
        (res,), traces = runs_from(Y, fit.target.lam, 0, [fit.kappas[0]])
        assert res.success
        assert np.abs(res.x - fit.kappas[0]).max() < 1e-7
        assert len(traces) == 1

    def test_all_starts_failing_raises(self, monkeypatch):
        from eigengarch import ConvergenceError
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((200, 1))
        lam = np.array([1.0])
        monkeypatch.setattr(estimation, "MAX_ITERATIONS", 1)
        with pytest.raises(ConvergenceError) as exc:
            fit_equation(Y, lam, 0)
        assert len(exc.value.traces) == 3

    def test_every_start_is_run(self):
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((300, 2))
        lam = np.array([1.0, 1.0])
        _, diag = fit_equation(Y, lam, 1)
        assert len(diag.start_traces) == 3

    @pytest.mark.parametrize("diag_a", [True, False])
    def test_kkt_residual_is_the_projected_score(self, diag_a):
        X = simulate_path(diagonal_benchmark_spec(3), T=1500, burn_in=500, rng_seed=4)
        fit = fit_spectral_targeting(X, diag_a=diag_a)
        Y = rotate_returns(X, fit.target.V)
        for i, (kappa, diag) in enumerate(zip(fit.kappas, fit.diagnostics)):
            free = np.flatnonzero(_free_mask(3, diag_a)[i])
            upper = np.where(free == 3, estimation.B_MAX, estimation.A_MAX)
            g, x = equation_score(kappa, fit.target, Y, i)[free], kappa[free]
            held = ((x <= 1e-10) & (g >= 0)) | ((x >= upper - 1e-10) & (g <= 0))
            expected = np.abs(np.where(held, 0.0, g)).max()
            winner = [t for t in diag.start_traces if t["nll"] == diag.nll]
            assert winner[0]["kkt_residual"] == diag.kkt_residual
            assert diag.kkt_residual == pytest.approx(expected, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("i", [-1, 2])
    def test_rejects_out_of_range_equation(self, i):
        rng = np.random.default_rng(3)
        Y = rng.standard_normal((200, 2))
        lam = np.array([1.0, 1.0])
        with pytest.raises(ValidationError, match="equation index"):
            fit_equation(Y, lam, i, diag_a=True)
        with pytest.raises(ValidationError, match="equation index"):
            equation_nll(np.full(3, 0.1), lam, Y, i)


class TestDiagonalProfileFit:
    """Diagonal-A fits on the profile over b, against the three fixed starts."""

    @staticmethod
    def rotated(X):
        target = eigen_sym(sample_covariance(X))
        return rotate_returns(X, target.V), target

    @pytest.mark.parametrize("k, origin, i, best", [
        (3, 1350, 22, 1.8263014),  # three starts: 1.8266645, KKT residual 0.128
        (2, 1200, 16, 1.4847843),  # three starts: 1.4851130, KKT residual 0.0145
    ])
    def test_reaches_the_optimum_the_three_starts_miss(self, k, origin, i, best,
                                                        monkeypatch):
        runs, original = [], estimation.minimize

        def recording(*args, **kwargs):
            res = original(*args, **kwargs)
            runs.append((kwargs.get("method"), res))
            return res

        monkeypatch.setattr(estimation, "minimize", recording)
        X = simulate_path(diagonal_benchmark_spec(25), T=1450, burn_in=1000,
                          rng_seed=np.random.SeedSequence(5).spawn(6)[k])
        Y, target = self.rotated(X[origin - 1200:origin])
        _, diag = fit_equation(Y, target, i, diag_a=True)
        assert diag.converged
        assert diag.nll <= best + 1e-7
        assert diag.kkt_residual <= estimation.KKT_TOL
        # a converged profile fit runs only its polishes: no L-BFGS-B run
        assert runs and all(method is estimation._projected_newton for method, _ in runs)
        assert len(diag.start_traces) == len(runs)
        winner = min((res for _, res in runs), key=lambda res: res.fun)
        trace = next(t for t in diag.start_traces if t["nll"] == diag.nll)
        assert (trace["iterations"], trace["evaluations"]) == (winner.nit, winner.nfev)
        assert diag.n_iterations == winner.nit
        assert winner.kkt_residual == diag.kkt_residual

    @pytest.mark.parametrize("fit_b", [True, False])
    @pytest.mark.parametrize("p", [3, 5])
    def test_never_above_the_three_starts(self, p, fit_b):
        for seed in range(3):
            X = simulate_path(diagonal_benchmark_spec(p), T=800, burn_in=500, rng_seed=seed)
            Y, target = self.rotated(X)
            for i in range(p):
                starts = [estimation._start_kappas(p, *s)[i] for s in estimation.START_SCHEMES]
                three, _ = runs_from(Y, target.lam, i, starts, diag_a=True, fit_b=fit_b)
                _, diag = fit_equation(Y, target, i, diag_a=True, fit_b=fit_b)
                assert diag.nll <= min(res.fun for res in three if res.success) + 1e-9
                assert diag.kkt_residual <= estimation.KKT_TOL
                best = [t for t in diag.start_traces if t["nll"] == diag.nll]
                assert best and best[0]["success"]

    @pytest.mark.parametrize("fit_b", [True, False])
    def test_static_truth_reports_the_face(self, fit_b):
        # at a = 0 the path is lam_i whatever b, so the fit must stop on the
        # face with the static criterion; on this panel equations 1 and 2 do
        lam = np.array([0.5, 1.0, 2.0])
        dyn = DynamicsParams(A=np.zeros((3, 3)), b=np.zeros(3))
        X = simulate_path(ModelSpec.from_intercepts(np.eye(3), lam, dyn), T=2000,
                          burn_in=100, rng_seed=2)
        fit = fit_spectral_targeting(X, diag_a=True, fit_b=fit_b)
        Y = rotate_returns(X, fit.target.V)
        for i in (1, 2):
            assert f"a[{i}]=lower" in fit.diagnostics[i].active_constraints
            assert fit.equation_nlls[i] == equation_nll(np.zeros(4), fit.target, Y, i)

    @pytest.mark.parametrize("fit_b", [True, False])
    def test_free_column_hessian_is_the_full_block(self, fit_b):
        X = simulate_path(diagonal_benchmark_spec(3), T=800, burn_in=500, rng_seed=0)
        Y, target = self.rotated(X)
        i, lam = 1, target.lam
        free = [i, 3] if fit_b else [i]
        kappa = np.zeros(4)
        kappa[free] = [0.07, 0.8][:len(free)]
        y2 = Y[:, i] ** 2
        x = kappa[free]
        *_, path, r = _equation_kernel(x, y2[:, None], lam[[i]], y2, lam[i])
        hess = _kernel_hessian(x, y2[:, None], lam[[i]], y2, lam[i], path, r)
        full = estimation.equation_kappa_hessian(kappa, lam, Y, i)[np.ix_(free, free)]
        np.testing.assert_allclose(hess, full, rtol=1e-12, atol=0)

    def test_falls_back_to_the_three_starts(self, monkeypatch):
        X = simulate_path(diagonal_benchmark_spec(3), T=800, burn_in=500, rng_seed=1)
        Y, target = self.rotated(X)
        _, profiled = fit_equation(Y, target, 0, diag_a=True)
        monkeypatch.setattr(estimation, "KKT_TOL", -1.0)
        _, diag = fit_equation(Y, target, 0, diag_a=True)
        polished = diag.start_traces[:-3]
        assert len(polished) == len(profiled.start_traces)
        assert not any(t["success"] for t in polished)
        assert [tuple(t["start"]) for t in diag.start_traces[-3:]] == [
            (s[0], s[2]) for s in estimation.START_SCHEMES]
        assert diag.nll in [t["nll"] for t in diag.start_traces[-3:]]


class TestFitSpectralTargeting:
    def test_case1_recovers_truth(self):
        # per-parameter MC sds at T=1e4 from 60 replications:
        # lam (0.013, 0.055), own a (0.015, 0.018), W (0.016, 0.044)
        X = case1_panel(seed=2)
        fit = fit_spectral_targeting(X)
        lam_true = np.array([0.46 / 0.75, 1.5 / 0.67])
        assert abs(fit.target.lam[0] - lam_true[0]) < 4 * 0.013
        assert abs(fit.target.lam[1] - lam_true[1]) < 4 * 0.055
        assert abs(fit.kappas[0, 0] - 0.25) < 4 * 0.015
        assert abs(fit.kappas[1, 1] - 0.33) < 4 * 0.018
        assert abs(fit.W[0] - 0.46) < 4 * 0.016
        assert abs(fit.W[1] - 1.5) < 4 * 0.044

    def test_identity_rotation_recovered(self):
        lam = np.array([0.4, 1.0])
        dyn = DynamicsParams(A=np.diag([0.2, 0.3]), b=np.zeros(2))
        spec = ModelSpec.from_intercepts(np.eye(2), lam * (1 - np.diag(dyn.A)), dyn)
        X = simulate_path(spec, T=10_000, burn_in=500, rng_seed=9)
        fit = fit_spectral_targeting(X, diag_a=True)
        np.testing.assert_allclose(np.abs(fit.target.V), np.eye(2), atol=0.05)

    def test_permutation_equivariance(self):
        X = case1_panel(T=3000, seed=8)
        fit = fit_spectral_targeting(X)
        fit_perm = fit_spectral_targeting(X[:, ::-1])
        assert fit.total_nll == pytest.approx(fit_perm.total_nll, abs=1e-8)

    def test_refuses_constant_column(self):
        X = case1_panel(T=500, seed=1)
        X[:, 1] = 0.25
        with pytest.raises(ValidationError, match="column 1"):
            fit_spectral_targeting(X)

    def test_refuses_small_sample(self):
        with pytest.raises(ValidationError):
            fit_spectral_targeting(np.ones((2, 3)))

    def test_total_nll_is_equation_sum(self):
        X = case1_panel(T=2000, seed=6)
        fit = fit_spectral_targeting(X)
        assert fit.total_nll == pytest.approx(fit.equation_nlls.sum(), abs=1e-12)


class TestJointQMLE:
    def test_decomposition_identity_at_ste_solution(self):
        X = case1_panel(T=4000, seed=11)
        ste = fit_spectral_targeting(X)
        p = 2
        phi, resid = _match_angles(ste.target.V, 1e-8, np.pi / 2)
        if resid > 1e-10:  # branch may only cover the reversed ordering
            phi, resid = _match_angles(ste.target.V[:, ::-1], 1e-8, np.pi / 2)
            order = [1, 0]
        else:
            order = [0, 1]
        assert resid < 1e-10
        V = givens_product(phi, p)
        signs = np.array([1.0 if V[:, k] @ ste.target.V[:, order[k]] > 0 else -1.0
                          for k in range(p)])
        lam_r = ste.target.lam[order]
        A_r = ste.kappas[:, :p][np.ix_(order, order)]
        b_r = ste.kappas[order, p]
        theta = np.concatenate([lam_r, phi, *[np.r_[A_r[i], b_r[i]] for i in range(p)]])
        val, _, feas = _joint_nll_grad(theta, X, p, False)
        assert feas
        assert val == pytest.approx(ste.total_nll, abs=1e-10)

    def test_joint_beats_or_ties_two_step(self):
        X = case1_panel(T=6000, seed=13)
        ste = fit_spectral_targeting(X)
        qmle = fit_joint_qmle(X)
        assert qmle.total_nll <= ste.total_nll + 1e-9

    def test_tiny_sample_runs_with_honest_flag(self):
        X = case1_panel(T=50, seed=21)
        fit = fit_joint_qmle(X)
        assert fit.method == "joint-QMLE"
        assert isinstance(fit.converged, bool)
        assert np.all(np.isfinite(fit.kappas))

    def test_result_is_identified(self):
        X = case1_panel(T=3000, seed=17)
        fit = fit_joint_qmle(X)
        assert np.all(np.diff(fit.target.lam) >= 0)
        for j in range(2):
            col = fit.target.V[:, j]
            assert col[np.abs(col) > 1e-12][0] > 0

    def test_start_traces_match_the_equation_fits(self):
        X = case1_panel(T=1000, seed=29)
        ste = fit_spectral_targeting(X, diag_a=True)
        qmle = fit_joint_qmle(X, diag_a=True)
        assert len(qmle.diagnostics[0].start_traces) == 2
        keys = {"start", "success", "nll", "iterations", "evaluations", "kkt_residual",
                "message"}
        for d in ste.diagnostics + qmle.diagnostics:
            assert all(set(t) == keys for t in d.start_traces)
            assert d.kkt_residual in [t["kkt_residual"] for t in d.start_traces]


class TestConsistencyScaling:
    def test_every_parameter_improves_with_sample_size(self):
        # 200 finite-fourth-moment replications: median absolute errors of
        # all identified parameters (eigenvalues, eigenvector entries, ARCH
        # loadings, persistence, intercepts) shrink from T=2000 to T=8000
        spec = density_case_spec(1)
        lam_true = np.sort(spec.lam)
        order = np.argsort(spec.lam)
        V_true = spec.V[:, order].copy()
        for j in range(2):
            col = V_true[:, j]
            if col[np.abs(col) > 1e-12][0] < 0:
                V_true[:, j] = -col
        A_true = np.diag(np.diag(spec.dynamics.A)[order])
        W_true = spec.W[order]

        def errors(T, seed_root):
            out = []
            for child in np.random.SeedSequence(seed_root).spawn(200):
                X = simulate_path(spec, T=T, burn_in=1000, rng_seed=child)
                fit = fit_spectral_targeting(X)
                out.append(np.concatenate([
                    np.abs(fit.target.lam - lam_true),
                    np.abs(fit.target.V - V_true).ravel(),
                    np.abs(fit.kappas[:, :2] - A_true).ravel(),
                    np.abs(fit.kappas[:, 2]),          # truth b = 0
                    np.abs(fit.W - W_true),
                ]))
            return np.median(np.vstack(out), axis=0)

        med_small = errors(2000, 2000)
        med_large = errors(8000, 8000)
        # truth = 0 coordinates (the spill-overs and both persistences) put
        # more than half the fitted mass exactly on the boundary, so their
        # median error is already 0 at T=2000 and cannot strictly shrink;
        # they only need to stay pinned near zero
        boundary = np.zeros(14, dtype=bool)
        boundary[[7, 8, 10, 11]] = True
        assert np.all(med_large[~boundary] < med_small[~boundary])
        assert np.all(med_large[boundary] <= np.maximum(med_small[boundary], 5e-4))


class TestLikelihoodDecomposition:
    def test_joint_equals_sum_via_explicit_covariances(self):
        # oracle: log det H_t + x' H_t^{-1} x with H_t assembled explicitly
        rng = np.random.default_rng(25)
        for p in (2, 3):
            spec = diagonal_benchmark_spec(p)
            X = simulate_path(spec, T=300, burn_in=100, rng_seed=int(p))
            fit = fit_spectral_targeting(X)
            V = fit.target.V
            from eigengarch import filter_eigenvalues
            Y = rotate_returns(X, V)
            lam_path = filter_eigenvalues(fit.spec(), Y)
            total = 0.0
            for t in range(X.shape[0]):
                H_t = (V * lam_path[t]) @ V.T
                sign, logdet = np.linalg.slogdet(H_t)
                total += logdet + X[t] @ np.linalg.solve(H_t, X[t])
            total /= X.shape[0]
            assert total == pytest.approx(fit.total_nll, abs=1e-8)

"""Per-equation criterion, analytic scores, two-step and joint fits."""

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from eigengarch import (
    ConvergenceError,
    DynamicsParams,
    ModelSpec,
    ReturnPanel,
    ValidationError,
    eigen_sym,
    equation_nll,
    equation_score,
    fit_equation,
    fit_joint_qmle,
    fit_spectral_targeting,
    givens_product,
    load_returns_csv,
    rotate_returns,
    sample_covariance,
    simulate_path,
    write_panel_csv,
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
from eigengarch.spectral import SpectralTarget


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


def face_residual(kappa, target, Y, i, free):
    """KKT residual of equation i at kappa over its free kappa entries, on the
    box cut by the intercept face, from the score alone: when the implied
    intercept is at its floor, the face normal (lam, lam_i) enters with the
    least-squares multiplier of the entries off their bounds."""
    lam, p = target.lam, target.lam.shape[0]
    g, x = equation_score(kappa, target, Y, i)[free], kappa[free]
    upper = np.where(free == p, estimation.B_MAX, estimation.A_MAX)
    c = np.append(lam, lam[i])[free]
    if (1.0 - kappa[p]) * lam[i] - kappa[:p] @ lam < 1e-8 * lam[i]:
        off = (x > 1e-10) & (x < upper - 1e-10)
        g = g + max(0.0, -(c[off] @ g[off]) / (c[off] @ c[off])) * c
    held = ((x <= 1e-10) & (g >= 0)) | ((x >= upper - 1e-10) & (g <= 0))
    return np.abs(np.where(held, 0.0, g)).max()


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
        rng = np.random.default_rng(1)
        Y = rng.standard_normal((200, 1))
        lam = np.array([1.0])
        # one scout iteration and no polish step: each start ends short of
        # KKT_TOL, so none of the three converges
        monkeypatch.setattr(estimation, "SCOUT_ITERATIONS", 1)
        monkeypatch.setattr(estimation, "POLISH_STEPS", 0)
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

    @pytest.mark.parametrize("mask", [[1, 1, 1, 1], [0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 0, 1],
                                      [0, 0, 1, 0]])
    def test_masked_hessian_is_the_block_of_the_full_one(self, mask):
        X = simulate_path(diagonal_benchmark_spec(3), T=800, burn_in=500, rng_seed=0)
        Y, target = self.rotated(X)
        i, lam, Y2 = 1, target.lam, Y ** 2
        x = np.array([0.02, 0.07, 0.01, 0.8])
        *_, path, r = _equation_kernel(x, Y2, lam, Y2[:, i], lam[i])
        block = np.array(mask, dtype=bool)
        hess = _kernel_hessian(x, Y2, lam, Y2[:, i], lam[i], path, r, block)
        full = _kernel_hessian(x, Y2, lam, Y2[:, i], lam[i], path, r)
        np.testing.assert_allclose(hess, full[np.ix_(block, block)], rtol=1e-12, atol=0)

    def test_size_control_bank_fit_on_the_face(self):
        # criterion 9's bank, run 11, the refit window before origin 750,
        # equation 2: the L-BFGS-B starts reported converged at a box residual
        # of 0.161 and NLL -0.2342932, short of the face a + b = 1
        X = simulate_path(diagonal_benchmark_spec(5), T=1250, burn_in=1000,
                          rng_seed=np.random.SeedSequence(99_000).spawn(50)[11])
        Y, target = self.rotated(X[250:750])
        kappa, diag = fit_equation(Y, target, 2, diag_a=True)
        residual = face_residual(kappa, target, Y, 2, np.array([2, 5]))
        assert diag.converged and residual <= estimation.KKT_TOL
        assert diag.kkt_residual == pytest.approx(residual, rel=1e-6, abs=1e-12)
        assert "w=floor" in diag.active_constraints
        assert diag.nll < -0.2342932 - 5e-4

    def test_falls_back_to_the_three_starts(self, monkeypatch):
        X = simulate_path(diagonal_benchmark_spec(3), T=800, burn_in=500, rng_seed=1)
        Y, target = self.rotated(X)
        _, profiled = fit_equation(Y, target, 0, diag_a=True)
        original = estimation._profile_fit

        def unconverged(*args):  # the profile's lowest polish has not converged
            return None, original(*args)[1]

        monkeypatch.setattr(estimation, "_profile_fit", unconverged)
        _, diag = fit_equation(Y, target, 0, diag_a=True)
        polished = diag.start_traces[:-3]
        assert [t["nll"] for t in polished] == [t["nll"] for t in profiled.start_traces]
        assert [tuple(t["start"]) for t in diag.start_traces[-3:]] == [
            (s[0], s[2]) for s in estimation.START_SCHEMES]
        assert diag.nll in [t["nll"] for t in diag.start_traces[-3:]]
        assert diag.converged and diag.kkt_residual <= estimation.KKT_TOL


class TestInterceptFace:
    """The box cut by the intercept face c.x <= d: projection and KKT residual."""

    @staticmethod
    def box(n):
        return np.zeros(n), np.append(np.ones(n - 1), estimation.B_MAX)

    @pytest.mark.parametrize("n", [3, 26])
    def test_projection_is_the_nearest_feasible_point(self, n):
        rng = np.random.default_rng(n)
        lo, hi = self.box(n)
        cut = 0
        for _ in range(300):
            c = rng.uniform(0.05, 2.0, n)
            d = rng.uniform(0.02, 0.9) * c @ hi
            z = rng.normal(0.4, 0.8, n)
            y = estimation._project(z, lo, hi, (c, d))
            assert np.all((y >= lo) & (y <= hi))
            assert c @ y <= d * (1.0 + 1e-12)
            clipped = np.clip(z, lo, hi)
            if c @ clipped <= d:
                np.testing.assert_array_equal(y, clipped)
            else:
                cut += 1
                # y = clip(z - tau c) with one tau >= 0, read off the coordinates
                # strictly inside the box; on the cut, c.y = d
                inside = (y > lo) & (y < hi)
                taus = (z - y)[inside] / c[inside]
                assert taus.size and np.all(taus >= 0.0)
                np.testing.assert_allclose(taus, taus.mean(), rtol=1e-9, atol=1e-12)
                np.testing.assert_allclose(y, np.clip(z - taus.mean() * c, lo, hi),
                                           rtol=0, atol=1e-12)
                assert c @ y == pytest.approx(d, rel=1e-12)
            # no feasible point is nearer to z
            q = rng.uniform(lo, hi, (50, n))
            q = q[q @ c <= d]
            assert np.all(np.linalg.norm(q - z, axis=1) >= np.linalg.norm(y - z) - 1e-12)
        assert 50 < cut < 300

    @pytest.mark.parametrize("n", [3, 26])
    def test_residual_off_the_face_is_the_box_residual(self, n):
        rng = np.random.default_rng(100 + n)
        lo, hi = self.box(n)
        for _ in range(200):
            x = rng.uniform(lo, hi)
            x[rng.random(n) < 0.3] = 0.0
            x[rng.random(n) < 0.1] = hi[0]
            c = rng.uniform(0.05, 2.0, n)
            d = (c @ x + 0.01) * rng.uniform(1.0 + 1e-7, 2.0)
            g = rng.normal(size=n)
            held, nu, residual = estimation._face_kkt(x, g, lo, hi, (c, d))
            assert nu == 0.0
            assert residual == estimation._kkt_residual(x, g, lo, hi)
            np.testing.assert_array_equal(held, estimation._held(x, g, lo, hi))

    @pytest.mark.parametrize("n", [3, 26])
    def test_residual_vanishes_at_a_face_optimum(self, n):
        # g = -nu c off the bounds, pressing outward at the zero bounds
        rng = np.random.default_rng(200 + n)
        lo, hi = self.box(n)
        for _ in range(100):
            c = rng.uniform(0.05, 2.0, n)
            x = rng.uniform(0.0, 0.5, n) * (rng.random(n) < 0.6)
            x[:2] = np.maximum(x[:2], 0.1)
            d = c @ x
            nu = rng.uniform(0.1, 3.0)
            g = -nu * c + np.where(x == 0.0, rng.uniform(0.0, 1.0, n), 0.0)
            _, fitted, residual = estimation._face_kkt(x, g, lo, hi, (c, d))
            assert fitted == pytest.approx(nu, rel=1e-12)
            assert residual <= 1e-12
            # a push along the face, between two coordinates off their bounds,
            # leaves nu as it was and is the residual
            tangent = np.zeros(n)
            tangent[:2] = 0.01 * c[1], -0.01 * c[0]
            _, fitted, residual = estimation._face_kkt(x, g + tangent, lo, hi, (c, d))
            assert fitted == pytest.approx(nu, rel=1e-9)
            assert residual == pytest.approx(np.abs(tangent).max(), rel=1e-9)

    def test_full_a_p25_panel_converges_on_the_box_and_face(self, tmp_path):
        # the benchmark's fixed panel, through the CSV round trip it takes; the
        # three full-length L-BFGS-B runs stopped short on six equations,
        # against the face, at a summed NLL of 24.895233
        X = simulate_path(diagonal_benchmark_spec(25), T=2500, burn_in=1000, rng_seed=1)
        write_panel_csv(ReturnPanel(X, tuple(f"A{j}" for j in range(25))), tmp_path / "p.csv")
        P = load_returns_csv(tmp_path / "p.csv")
        full = fit_spectral_targeting(P)
        nested = fit_spectral_targeting(P, diag_a=True)
        Y = rotate_returns(P.values, full.target.V)
        lam = full.target.lam
        for i, diag in enumerate(full.diagnostics):
            residual = face_residual(full.kappas[i], full.target, Y, i, np.arange(26))
            assert diag.converged and residual <= estimation.KKT_TOL
            assert diag.kkt_residual == pytest.approx(residual, rel=1e-6, abs=1e-12)
            on_face = full.W[i] < 1e-8 * lam[i]
            assert ("w=floor" in diag.active_constraints) == on_face
        assert np.sum(full.W < 1e-8 * lam) == 6
        assert np.all(full.equation_nlls <= nested.equation_nlls + 1e-9)
        assert full.total_nll <= 24.894005


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
        # the two-step start converges here, so the schemes do not run
        X = case1_panel(T=1000, seed=29)
        ste = fit_spectral_targeting(X, diag_a=True)
        qmle = fit_joint_qmle(X, diag_a=True)
        assert len(qmle.diagnostics[0].start_traces) == 1
        keys = {"start", "success", "nll", "iterations", "evaluations", "kkt_residual",
                "message"}
        for d in ste.diagnostics + qmle.diagnostics:
            assert all(set(t) == keys for t in d.start_traces)
            assert d.kkt_residual in [t["kkt_residual"] for t in d.start_traces]

    def test_active_constraints_name_every_coefficient_on_a_bound(self):
        # case 1 has b = 0 and no spill-overs; on this panel b[0] and a[0,1]
        # of the identified order end on their lower bound
        fit = fit_joint_qmle(case1_panel(T=2000, seed=42))
        active = fit.diagnostics[0].active_constraints
        p = fit.p
        on_bound = [f"b[{i}]=lower" if j == p else f"a[{i},{j}]=lower"
                    for i, j in zip(*np.nonzero(fit.kappas <= 1e-10))]
        assert "b[0]=lower" in on_bound
        assert sorted(c for c in active if c[0] in "ab") == sorted(on_bound)
        assert all(c.startswith(("lam[", "phi[", "a[", "b[")) for c in active)


def spy_run_starts(monkeypatch):
    """Record the arguments and results of every ``_run_starts`` call."""
    calls = []
    original = estimation._run_starts

    def spy(objective, starts, lo, hi, scale=None):
        results, traces = original(objective, starts, lo, hi, scale)
        calls.append({"objective": objective, "starts": starts, "lo": lo, "hi": hi,
                      "scale": scale, "results": results})
        return results, traces

    monkeypatch.setattr(estimation, "_run_starts", spy)
    return calls


def branch_mapped_ste_start(X, diag_a):
    """The two-step fit and the joint start built from it: the angles of the
    better-matching column ordering, the rotated diagonal and the coefficients
    permuted into that ordering; also the ordering and its match residual."""
    ste = fit_spectral_targeting(X, diag_a=diag_a)
    p = ste.p
    lo, hi = 1e-6, np.pi / 2 - 1e-6
    matches = [(_match_angles(ste.target.V[:, order], lo, hi), order)
               for order in (np.arange(p), np.arange(p)[::-1])]
    (phi, resid), order = min(matches, key=lambda match: match[0][1])
    V = givens_product(phi, p)
    lam = np.diag(V.T @ sample_covariance(X).values @ V)
    kappas = np.hstack([ste.kappas[:, :p][np.ix_(order, order)], ste.kappas[order, p:]])
    theta = np.concatenate([lam, phi, kappas[_free_mask(p, diag_a)]])
    return ste, theta, order, resid


def sorted_branch_panel(T=3000, seed=0):
    """p=2 panel whose eigenvector of the smaller eigenvalue is the first
    column of a rotation in the branch, so the sorted ordering matches it."""
    target = SpectralTarget(lam=np.array([0.1, 0.2]), V=givens_product([0.5], 2))
    spec = ModelSpec.from_targets(target, DynamicsParams(A=0.05 * np.eye(2),
                                                         b=np.full(2, 0.85)))
    return simulate_path(spec, T=T, burn_in=1000, rng_seed=seed)


class TestJointQMLEStart:
    @pytest.mark.parametrize("diag_a", [True, False])
    @pytest.mark.parametrize("panel, order", [(lambda: case1_panel(T=3000, seed=11), [1, 0]),
                                              (sorted_branch_panel, [0, 1])],
                             ids=["reversed", "sorted"])
    def test_first_start_is_the_branch_mapped_ste_fit(self, diag_a, panel, order):
        X = panel()
        ste, theta, branch_order, resid = branch_mapped_ste_start(X, diag_a)
        assert branch_order.tolist() == order
        assert resid <= 1e-10  # p=2: the branch holds either ordering exactly
        fit = fit_joint_qmle(X, diag_a=diag_a)
        trace = fit.diagnostics[0].start_traces[0]
        np.testing.assert_allclose(trace["start"], theta, rtol=1e-12, atol=1e-14)
        value, _, feasible = _joint_nll_grad(trace["start"], X, ste.p, diag_a)
        assert feasible
        assert value == pytest.approx(ste.total_nll, abs=1e-9)
        assert fit.total_nll <= ste.total_nll + 1e-12

    def test_cut_ste_start_falls_back_to_the_schemes(self, monkeypatch):
        calls = spy_run_starts(monkeypatch)
        monkeypatch.setattr(estimation, "MAX_ITERATIONS", 3)
        X = simulate_path(diagonal_benchmark_spec(3), T=1500, burn_in=1000, rng_seed=4)
        _, theta, _, _ = branch_mapped_ste_start(X, True)
        fit = fit_joint_qmle(X, diag_a=True)
        first, schemes = calls
        np.testing.assert_allclose(first["starts"][0], theta, rtol=1e-12, atol=1e-14)
        assert len(first["starts"]) == 1
        assert first["results"][0].kkt_residual > estimation.KKT_TOL
        mask, p, n_phi = _free_mask(3, True), 3, 3
        assert [start[p + n_phi:].tolist() for start in schemes["starts"]] == [
            estimation._start_kappas(p, *scheme)[mask].tolist()
            for scheme in estimation.START_SCHEMES[:2]]
        diag = fit.diagnostics[0]
        assert len(diag.start_traces) == 3
        np.testing.assert_array_equal(diag.start_traces[0]["start"], first["starts"][0])
        results = first["results"] + schemes["results"]
        assert diag.nll == min(res.fun for res in results)
        assert fit.converged == (diag.kkt_residual <= estimation.KKT_TOL)

    def test_ste_convergence_error_falls_back_to_the_schemes(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise ConvergenceError("two-step fit failed", traces=[])

        calls = spy_run_starts(monkeypatch)
        monkeypatch.setattr(estimation, "fit_spectral_targeting", refuse)
        X = simulate_path(diagonal_benchmark_spec(3), T=1500, burn_in=1000, rng_seed=4)
        fit = fit_joint_qmle(X, diag_a=True)
        (call,) = calls
        assert len(call["starts"]) == 2
        assert len(fit.diagnostics[0].start_traces) == 2
        assert fit.converged

    @pytest.mark.parametrize("cap, success", [(3, True), (500, False)])
    def test_converged_reads_the_kkt_residual(self, cap, success, monkeypatch):
        # L-BFGS-B's own success flag is overridden both ways: a run cut at
        # 3 iterations that claims success, and full runs that claim failure;
        # the fit's flag follows the winner's KKT residual alone
        original = estimation._lbfgsb

        def claim(*args):
            res = original(*args)
            res.success = success
            return res

        monkeypatch.setattr(estimation, "_lbfgsb", claim)
        monkeypatch.setattr(estimation, "MAX_ITERATIONS", cap)
        X = simulate_path(diagonal_benchmark_spec(3), T=1500, burn_in=1000, rng_seed=4)
        fit = fit_joint_qmle(X, diag_a=True)
        diag = fit.diagnostics[0]
        assert all(t["success"] == success for t in diag.start_traces)
        assert (diag.kkt_residual <= estimation.KKT_TOL) == (cap == 500)
        assert fit.converged == diag.converged == (cap == 500)


    @pytest.mark.parametrize("gap, wins", [(2.4e-12, 1), (2e-9, 0)])
    def test_a_converged_run_within_rounding_of_the_lowest_wins(self, gap, wins,
                                                                 monkeypatch):
        # scripted runs as in criterion 8's rep 7: the two-step start stops at
        # the cap above KKT_TOL, a scheme run ends `gap` higher and converged,
        # the other scheme run far higher
        outcomes = iter([(estimation.MAX_ITERATIONS, 0.0, 1.04e-6), (40, gap, 3.4e-7),
                         (40, 1.0, 1e-8)])

        def scripted(objective, x0, lo, hi, s=None, maxiter=None):
            nit, rise, kkt = next(outcomes)
            return OptimizeResult(x=x0.copy(), fun=1.9 + rise, nit=nit, nfev=nit + 1,
                                  kkt_residual=kkt, success=True, message="stub")

        monkeypatch.setattr(estimation, "_lbfgsb", scripted)
        fit = fit_joint_qmle(case1_panel(T=1000, seed=29), diag_a=True)
        diag = fit.diagnostics[0]
        assert len(diag.start_traces) == 3
        winner = diag.start_traces[wins]
        assert (diag.nll, diag.kkt_residual) == (winner["nll"], winner["kkt_residual"])
        assert fit.converged == diag.converged == (wins == 1)


class TestScaledJointQMLE:
    def test_studies_replications_match_the_unscaled_runs(self, monkeypatch):
        # the benchmark's replications: one run from the two-step start, the
        # same optimum as unscaled L-BFGS-B from it, in at most 60 evaluations
        calls = spy_run_starts(monkeypatch)
        for rep in (0, 1):
            X = simulate_path(diagonal_benchmark_spec(5), T=2000, burn_in=1000,
                              rng_seed=rep)
            ste = fit_spectral_targeting(X, diag_a=True)
            fit = fit_joint_qmle(X, diag_a=True)
            diag = fit.diagnostics[0]
            call = calls[-1]
            assert call["scale"] is not None
            reference, _ = estimation._run_starts(call["objective"], call["starts"],
                                                  call["lo"], call["hi"])
            assert fit.converged and diag.kkt_residual <= estimation.KKT_TOL
            assert abs(diag.nll - min(res.fun for res in reference)) <= 1e-9
            assert len(diag.start_traces) == 1
            assert diag.start_traces[0]["evaluations"] <= 60
            assert fit.total_nll <= ste.total_nll

    def test_traces_are_in_natural_coordinates(self, monkeypatch):
        calls = spy_run_starts(monkeypatch)
        X = simulate_path(diagonal_benchmark_spec(3), T=1500, burn_in=1000, rng_seed=4)
        _, theta, _, _ = branch_mapped_ste_start(X, True)
        diag = fit_joint_qmle(X, diag_a=True).diagnostics[0]
        (call,) = calls
        p, n_phi, lo, hi = 3, 3, call["lo"], call["hi"]
        assert len(diag.start_traces) == 1
        for trace, res in zip(diag.start_traces, call["results"]):
            start = trace["start"]
            # rotated eigenvalues keep the trace of the second-moment matrix
            assert start[:p].sum() == pytest.approx(np.mean(np.sum(X * X, axis=1)))
            np.testing.assert_allclose(start, theta, rtol=1e-12, atol=1e-14)
            assert np.all(start[p + n_phi:] == theta[p + n_phi:])
            assert np.all((res.x >= lo) & (res.x <= hi))
            value, grad, _ = _joint_nll_grad(res.x, X, p, True)
            assert trace["nll"] == pytest.approx(value, abs=1e-12)
            assert trace["kkt_residual"] == pytest.approx(
                estimation._kkt_residual(res.x, grad, lo, hi), rel=1e-6, abs=1e-12)

    def test_scales_are_finite_and_positive_on_the_p2_desk_bank(self, monkeypatch):
        from eigengarch.experiments import ExperimentConfig, run_relative_efficiency

        scales = []
        original = estimation._joint_scale

        def spy(*args):
            scales.append(original(*args))
            return scales[-1]

        monkeypatch.setattr(estimation, "_joint_scale", spy)
        run_relative_efficiency(ExperimentConfig(dimensions=[2], n_replications=50,
                                                 T=2000, seed=11, estimators=("qmle",)))
        assert len(scales) >= 50  # at least the two-step start of each fit
        assert all(np.all(np.isfinite(s) & (s > 0.0)) for s in scales)

    def test_scale_reads_the_information_diagonal(self):
        # oracle: the path's derivatives by central differences
        X = case1_panel(T=1000, seed=5)
        p, h = 2, 1e-6
        theta = np.array([0.7, 2.1, 0.6, 0.05, 0.85, 0.1, 0.8])
        s = estimation._joint_scale(theta, X, p, True)
        np.testing.assert_array_equal(s[:p + 1], [0.7, 2.1, 1.0])
        Y2 = rotate_returns(X, givens_product(theta[p:p + 1], p)) ** 2
        for i in range(p):
            kappa = theta[p + 1 + 2 * i:p + 3 + 2 * i]

            def path(x):
                return _equation_kernel(x, Y2[:, [i]], theta[[i]], Y2[:, i], theta[i])[2]

            lam = path(kappa)
            for j, step in enumerate(h * np.eye(2)):
                dlam = (path(kappa + step) - path(kappa - step)) / (2 * h)
                info = np.mean((dlam / lam) ** 2)
                assert s[p + 1 + 2 * i + j] == pytest.approx(info ** -0.5, rel=1e-6)
        # with no loading the path is flat in b: no information, scale 1
        theta[3] = 0.0
        assert estimation._joint_scale(theta, X, p, True)[4] == 1.0

    def test_runs_that_stop_short_restart_once(self, monkeypatch):
        # a badly scaled quadratic: its first run is cut after one iteration
        # and restarts once; a run that converges does not restart
        weights = np.array([1.0, 1e4])

        def objective(x):
            return float(weights @ (x - 1.0) ** 2), 2.0 * weights * (x - 1.0)

        runs = []
        original = estimation._lbfgsb

        def spy(*args):
            res = original(*args)
            runs.append((res, res.nit, res.nfev))
            return res

        monkeypatch.setattr(estimation, "_lbfgsb", spy)
        lo, hi, x0 = np.zeros(2), np.full(2, 5.0), np.full(2, 3.0)

        def scale(x):
            return 1.0 / np.sqrt(weights)

        (res,), (trace,) = estimation._run_starts(objective, [x0], lo, hi, scale=scale)
        assert len(runs) == 1 and res.kkt_residual <= estimation.KKT_TOL
        assert trace["evaluations"] == runs[0][2]
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)
        np.testing.assert_allclose(res.jac, objective(res.x)[1], atol=1e-12)

        # a run cut at the iteration cap has no iterations left to restart with
        runs.clear()
        monkeypatch.setattr(estimation, "MAX_ITERATIONS", 1)
        (res,), (trace,) = estimation._run_starts(objective, [x0], lo, hi, scale=scale)
        (first, nit, nfev), = runs
        assert res is first and nit == 1 and first.kkt_residual > estimation.KKT_TOL
        assert [trace["iterations"], trace["evaluations"]] == [nit, nfev]
        np.testing.assert_array_equal(trace["start"], x0)
        assert trace["kkt_residual"] == estimation._kkt_residual(
            res.x, objective(res.x)[1], lo, hi)
        # without a scale there is no restart
        monkeypatch.setattr(estimation, "MAX_ITERATIONS", 500)
        runs.clear()
        estimation._run_starts(objective, [x0], lo, hi)
        assert len(runs) == 1

    def test_restart_gets_the_iterations_the_first_run_left(self, monkeypatch):
        # scripted runs: the first stops short of the cap above KKT_TOL
        budgets = []

        def scripted(outcomes):
            outcomes = iter(outcomes)

            def run(objective, x0, lo, hi, s=None, maxiter=None):
                budgets.append(maxiter)
                nit, kkt = next(outcomes)
                return OptimizeResult(x=x0 + 1.0, fun=-float(nit), nit=nit, nfev=nit + 2,
                                      kkt_residual=kkt, success=True, message="stub")
            return run

        x0, lo, hi = np.zeros(2), np.full(2, -5.0), np.full(2, 5.0)
        cap = estimation.MAX_ITERATIONS
        monkeypatch.setattr(estimation, "_lbfgsb", scripted([(120, 1.0), (30, 1e-8)]))
        (res,), (trace,) = estimation._run_starts(None, [x0], lo, hi, scale=np.ones_like)
        assert budgets == [None, cap - 120]
        assert [trace["iterations"], trace["evaluations"]] == [150, 154]
        assert trace["kkt_residual"] == 1e-8
        # the restart's budget runs out at the cap: it is not restarted again
        budgets.clear()
        monkeypatch.setattr(estimation, "_lbfgsb", scripted([(120, 1.0), (cap - 120, 1.0)]))
        (res,), (trace,) = estimation._run_starts(None, [x0], lo, hi, scale=np.ones_like)
        assert budgets == [None, cap - 120] and trace["iterations"] == cap
        # a first run at the cap is not restarted
        budgets.clear()
        monkeypatch.setattr(estimation, "_lbfgsb", scripted([(cap, 1.0)]))
        estimation._run_starts(None, [x0], lo, hi, scale=np.ones_like)
        assert budgets == [None]


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

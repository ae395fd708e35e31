"""Sandwich blocks, asymptotic covariance assembly, delta-method intercepts."""

import numpy as np
import pytest

from eigengarch import (
    DynamicsParams,
    InferenceError,
    ModelSpec,
    ValidationError,
    fit_joint_qmle,
    fit_spectral_targeting,
    intercept_delta,
    sandwich_blocks,
    sandwich_sigma,
    simulate_path,
)
from eigengarch.estimation import (
    ModelFit,
    equation_kappa_hessian,
    equation_nll,
    equation_score_contributions,
    rotate_returns,
)
from eigengarch.experiments import density_case_spec
from eigengarch.inference import EquationInference, SandwichBlocks
from eigengarch.spectral import SpectralTarget, sample_covariance


def interior_spec(p=2):
    """Processes whose full parameter vectors are strictly interior."""
    from eigengarch.spectral import givens_product

    if p == 1:
        dyn = DynamicsParams(A=[[0.15]], b=[0.6])
        return ModelSpec.from_intercepts(np.eye(1), [0.3], dyn)
    if p == 2:
        V = density_case_spec(1).V
        dyn = DynamicsParams(A=np.array([[0.15, 0.05], [0.04, 0.12]]),
                             b=np.array([0.50, 0.55]))
        return ModelSpec.from_intercepts(V, np.array([0.6, 0.25]), dyn)
    if p == 3:
        A3 = np.full((3, 3), 0.03) + np.diag([0.10, 0.12, 0.08])
        dyn = DynamicsParams(A=A3, b=np.array([0.5, 0.45, 0.55]))
        V3 = givens_product([0.4, 0.7, 1.0], 3)
        return ModelSpec.from_intercepts(V3, np.array([0.4, 0.7, 1.1]), dyn)
    rng = np.random.default_rng(p)
    A = np.full((p, p), 0.02) + np.diag(rng.uniform(0.08, 0.14, p))
    dyn = DynamicsParams(A=A, b=rng.uniform(0.4, 0.55, p))
    V = givens_product(rng.uniform(0.3, 1.2, p * (p - 1) // 2), p)
    W = rng.uniform(0.2, 1.0, p)
    return ModelSpec.from_intercepts(V, W, dyn)


def interior_fit(p=2, T=4000, seed=0):
    X = simulate_path(interior_spec(p), T=T, burn_in=1000, rng_seed=seed)
    return fit_spectral_targeting(X), X


def dense_sigma(blocks):
    """Oracle: Sigma = M Omega M' through the dense e x e matrix M."""
    p, e = blocks.p, blocks.e
    n_gamma = p + p * p
    Jinv = np.linalg.inv(blocks.J)
    M = np.zeros((e, e))
    M[:n_gamma, :n_gamma] = np.eye(n_gamma)
    M[n_gamma:, :n_gamma] = -Jinv @ blocks.K
    M[n_gamma:, n_gamma:] = -Jinv
    Sigma = M @ blocks.Omega @ M.T
    return 0.5 * (Sigma + Sigma.T)


class TestSandwichBlocks:
    def test_dimensions_p2(self):
        fit, X = interior_fit()
        blocks = sandwich_blocks(fit, X, 1)
        assert blocks.J.shape == (3, 3)
        assert blocks.K.shape == (3, 6)
        assert blocks.Omega.shape == (9, 9)
        assert blocks.e == 9

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_dimension_contract(self, p):
        fit, X = interior_fit(p=p, T=3000, seed=p)
        i = p - 1
        blocks = sandwich_blocks(fit, X, i)
        e = p**2 + 2 * p + 1
        assert blocks.J.shape == (p + 1, p + 1)
        assert blocks.K.shape == (p + 1, p**2 + p)
        assert blocks.Omega.shape == (e, e)
        sig = sandwich_sigma(blocks)
        assert sig.Sigma.shape == (e, e)

    def test_scalar_hessian_matches_finite_differences(self):
        # p=1: J equals the full finite-difference Hessian of the criterion
        fit, X = interior_fit(p=1, T=5000, seed=3)
        Y = rotate_returns(X, fit.target.V)
        kappa = fit.kappas[0]
        J = equation_kappa_hessian(kappa, fit.target.lam, Y, 0)
        h = 1e-5
        fd = np.empty((2, 2))
        for n in range(2):
            for m in range(2):
                kpp = kappa.copy(); kpp[n] += h; kpp[m] += h
                kpm = kappa.copy(); kpm[n] += h; kpm[m] -= h
                kmp = kappa.copy(); kmp[n] -= h; kmp[m] += h
                kmm = kappa.copy(); kmm[n] -= h; kmm[m] -= h
                fd[n, m] = (
                    equation_nll(kpp, fit.target.lam, Y, 0)
                    - equation_nll(kpm, fit.target.lam, Y, 0)
                    - equation_nll(kmp, fit.target.lam, Y, 0)
                    + equation_nll(kmm, fit.target.lam, Y, 0)
                ) / (4 * h * h)
        np.testing.assert_allclose(J, fd, rtol=1e-4, atol=1e-6)

    def test_cross_block_matches_full_finite_differences(self):
        # oracle: d^2 L / dkappa dgamma via symmetric differences of the NLL
        fit, X = interior_fit(T=3000, seed=5)
        i = 0
        kappa = fit.kappas[i]
        gamma = fit.target.gamma()
        blocks = sandwich_blocks(fit, X, i)
        p = 2

        def nll_at(gamma_vec, kap):
            lam = gamma_vec[:p]
            V = gamma_vec[p:].reshape((p, p), order="F")
            Y = rotate_returns(X, V)
            return equation_nll(kap, lam, Y, i)

        hk, hg = 1e-5, 1e-5
        fd = np.empty((3, 6))
        for n in range(3):
            for m in range(6):
                kp = kappa.copy(); kp[n] += hk
                km = kappa.copy(); km[n] -= hk
                gp = gamma.copy(); gp[m] += hg
                gm = gamma.copy(); gm[m] -= hg
                fd[n, m] = (
                    nll_at(gp, kp) - nll_at(gm, kp) - nll_at(gp, km) + nll_at(gm, km)
                ) / (4 * hk * hg)
        np.testing.assert_allclose(blocks.K, fd, rtol=2e-3, atol=1e-4)

    @pytest.mark.parametrize("p, diag_a", [(3, False), (5, True)])
    def test_cross_block_matches_score_differences(self, p, diag_a):
        # oracle: central differences of the mean kappa-score in each static
        # coordinate, with the perturbed eigenvectors re-rotating the panel
        X = simulate_path(interior_spec(p), T=3000, burn_in=1000, rng_seed=p)
        fit = fit_spectral_targeting(X, diag_a=diag_a)
        gamma = fit.target.gamma()
        checked = 0
        for i in range(p):
            if fit.diagnostics[i].active_constraints:
                continue
            kappa = fit.kappas[i]
            fd = np.empty((p + 1, p + p * p))
            for k in range(gamma.size):
                h = 1e-5 * max(abs(gamma[k]), 0.1)
                score = []
                for g in (gamma[k] + h, gamma[k] - h):
                    moved = gamma.copy()
                    moved[k] = g
                    Y = rotate_returns(X, moved[p:].reshape((p, p), order="F"))
                    score.append(equation_score_contributions(
                        kappa, moved[:p], Y, i).mean(axis=0))
                fd[:, k] = (score[0] - score[1]) / (2.0 * h)
            K = sandwich_blocks(fit, X, i).K
            assert np.abs(K - fd).max() <= 1e-7 * np.abs(fd).max()
            checked += 1
        assert checked >= 2

    def test_omega_psd_and_first_block(self):
        fit, X = interior_fit(T=2500, seed=7)
        blocks = sandwich_blocks(fit, X, 0)
        eigvals = np.linalg.eigvalsh(blocks.Omega)
        assert eigvals.min() >= -1e-10 * np.trace(blocks.Omega)
        # top-left p(p+1) block equals the brute-force average outer product
        # of the stacked moment components
        H = sample_covariance(X).values
        V, lam = fit.target.V, fit.target.lam
        T = X.shape[0]
        parts = np.empty((T, 6))
        from eigengarch.spectral import shifted_pseudo_inverse
        P = [shifted_pseudo_inverse(H, lam[j]) for j in range(2)]
        for t in range(T):
            M = np.outer(X[t], X[t]) - H
            parts[t, :2] = np.diag(V.T @ M @ V)
            parts[t, 2:4] = P[0] @ M @ V[:, 0]
            parts[t, 4:6] = P[1] @ M @ V[:, 1]
        brute = parts.T @ parts / T
        np.testing.assert_allclose(blocks.Omega[:6, :6], brute, rtol=1e-10, atol=1e-12)

    def test_omega_equals_the_stacked_form(self):
        fit, X = interior_fit(p=3, T=1500, seed=5)
        i = 1
        H = sample_covariance(X).values
        V, lam = fit.target.V, fit.target.lam
        T, p = X.shape
        Y = rotate_returns(X, V)
        from eigengarch.spectral import shifted_pseudo_inverse
        block_lam = Y**2 - np.einsum("ji,jk,ki->i", V, H, V)
        blocks_ups = np.empty((T, p * p))
        for j in range(p):
            P = shifted_pseudo_inverse(H, lam[j])
            blocks_ups[:, j * p:(j + 1) * p] = Y[:, j:j + 1] * (X @ P) - P @ H @ V[:, j]
        score_t = equation_score_contributions(fit.kappas[i], lam, Y, i)
        omega = np.hstack([block_lam, blocks_ups, score_t])
        Omega = omega.T @ omega / T
        Omega = 0.5 * (Omega + Omega.T)
        assert np.array_equal(sandwich_blocks(fit, X, i).Omega, Omega)

    def test_moment_components_mean_zero(self):
        fit, X = interior_fit(T=2000, seed=9)
        H = sample_covariance(X).values
        V, lam = fit.target.V, fit.target.lam
        Y = rotate_returns(X, V)
        rotated_diag = np.einsum("ji,jk,ki->i", V, H, V)
        block_lam = Y**2 - rotated_diag
        assert np.abs(block_lam.mean(axis=0)).max() < 1e-12 * max(1.0, np.abs(Y).max() ** 2)

    def test_refuses_boundary_fit(self):
        X = simulate_path(density_case_spec(1), T=4000, burn_in=500, rng_seed=11)
        fit = fit_spectral_targeting(X)
        boundary_eqs = [
            i for i, d in enumerate(fit.diagnostics) if d.active_constraints
        ]
        assert boundary_eqs, "expected at least one boundary equation (truth b=0)"
        with pytest.raises(InferenceError, match="constraint"):
            sandwich_blocks(fit, X, boundary_eqs[0])

    def test_refuses_near_repeated_targets(self):
        fit, X = interior_fit(T=2000, seed=13)
        target = SpectralTarget(
            lam=fit.target.lam, V=fit.target.V,
            recon_residual=fit.target.recon_residual, near_repeated=True,
        )
        bad = ModelFit(
            target=target, kappas=fit.kappas, W=fit.W,
            equation_nlls=fit.equation_nlls, method="STE",
            diagnostics=fit.diagnostics,
        )
        with pytest.raises(InferenceError, match="near-repeated"):
            sandwich_blocks(bad, X, 0)

    def test_refuses_joint_qmle_fit(self):
        # the joint fit keeps one optimizer record, so no per-equation check
        # could see its boundary coefficients
        _, X = interior_fit(T=1500, seed=4)
        fit = fit_joint_qmle(X, diag_a=True)
        for i in range(fit.p):
            with pytest.raises(InferenceError, match="joint-QMLE"):
                sandwich_blocks(fit, X, i)

    @pytest.mark.parametrize("i", [-1, 2])
    def test_rejects_out_of_range_equation(self, i):
        fit, X = interior_fit(T=2000, seed=13)
        with pytest.raises(ValidationError, match="equation index"):
            sandwich_blocks(fit, X, i)


class TestSandwichSigma:
    def test_classical_reduction_when_k_zero(self):
        rng = np.random.default_rng(15)
        p = 2
        n_gamma = p * p + p
        Jh = rng.standard_normal((3, 3))
        J = Jh @ Jh.T + 3 * np.eye(3)
        Om_g = rng.standard_normal((n_gamma, n_gamma))
        Om_k = rng.standard_normal((3, 3))
        Omega = np.zeros((9, 9))
        Omega[:n_gamma, :n_gamma] = Om_g @ Om_g.T
        Omega[n_gamma:, n_gamma:] = Om_k @ Om_k.T
        blocks = SandwichBlocks(J=J, K=np.zeros((3, n_gamma)), Omega=Omega,
                                T=1000, p=p)
        sig = sandwich_sigma(blocks)
        Jinv = np.linalg.inv(J)
        expected = Jinv @ Omega[n_gamma:, n_gamma:] @ Jinv
        np.testing.assert_allclose(sig.Sigma[n_gamma:, n_gamma:], expected,
                                   rtol=1e-10)

    def test_symmetric_psd_on_random_blocks(self):
        rng = np.random.default_rng(17)
        p = 2
        for _ in range(20):
            Jh = rng.standard_normal((3, 3))
            J = Jh @ Jh.T + 3 * np.eye(3)
            K = rng.standard_normal((3, 6))
            Oh = rng.standard_normal((9, 9))
            Omega = Oh @ Oh.T
            blocks = SandwichBlocks(J=J, K=K, Omega=Omega, T=500, p=p)
            sig = sandwich_sigma(blocks)
            np.testing.assert_array_equal(sig.Sigma, sig.Sigma.T)
            assert np.linalg.eigvalsh(sig.Sigma).min() >= -1e-8 * np.trace(sig.Sigma)
            oracle = dense_sigma(blocks)
            assert np.abs(sig.Sigma - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_block_form_matches_dense_oracle_on_a_fit(self):
        fit, X = interior_fit(p=3, T=3000, seed=3)
        blocks = sandwich_blocks(fit, X, 2)
        Sigma = sandwich_sigma(blocks).Sigma
        np.testing.assert_array_equal(Sigma, Sigma.T)
        oracle = dense_sigma(blocks)
        assert np.abs(Sigma - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_singular_hessian_rejected(self):
        p = 1
        J = np.array([[1.0, 1.0], [1.0, 1.0]])
        blocks = SandwichBlocks(J=J, K=np.zeros((2, 2)), Omega=np.eye(4),
                                T=100, p=p)
        with pytest.raises(InferenceError, match="singular"):
            sandwich_sigma(blocks)


class TestInterceptDelta:
    def test_static_case_matches_finite_difference_propagation(self):
        # w(theta) = (1-b) lam_i - sum_j a_ij lam_j; propagate an arbitrary
        # covariance through the numerical gradient of w and compare
        rng = np.random.default_rng(19)
        p = 2
        lam = np.array([0.7, 1.9])
        kappas = np.zeros((p, p + 1))
        target = SpectralTarget(lam=lam, V=np.eye(p))
        W = lam.copy()
        fit = ModelFit(target=target, kappas=kappas, W=W,
                       equation_nlls=np.zeros(p), method="STE")
        Sh = rng.standard_normal((9, 9))
        Sigma = Sh @ Sh.T
        inf = EquationInference(Sigma=Sigma, se=np.sqrt(np.diag(Sigma) / 500),
                                T=500, p=p)
        i = 1

        def w_of(theta):
            lam_ = theta[:p]
            kap = theta[p + p * p:]
            return (1 - kap[p]) * lam_[i] - kap[:p] @ lam_

        theta0 = np.concatenate([lam, np.eye(p).flatten(order="F"), kappas[i]])
        h = 1e-6
        grad = np.empty(9)
        for k in range(9):
            up, dn = theta0.copy(), theta0.copy()
            up[k] += h
            dn[k] -= h
            grad[k] = (w_of(up) - w_of(dn)) / (2 * h)
        expected = np.sqrt(grad @ Sigma @ grad / 500)
        assert intercept_delta(fit, inf, i) == pytest.approx(expected, rel=1e-6)

    def test_zero_covariance_gives_zero(self):
        p = 2
        target = SpectralTarget(lam=np.array([0.5, 1.0]), V=np.eye(p))
        fit = ModelFit(target=target, kappas=np.zeros((p, p + 1)),
                       W=np.array([0.5, 1.0]), equation_nlls=np.zeros(p),
                       method="STE")
        inf = EquationInference(Sigma=np.zeros((9, 9)), se=np.zeros(9), T=100, p=p)
        assert intercept_delta(fit, inf, 0) == 0.0


class TestHeavyTailDiagnostics:
    def test_omega_grows_without_fourth_moments(self):
        # under the finite-variance-only regime the outer-product block is a
        # sample average of a distribution with no mean: its magnitude keeps
        # growing with T instead of stabilizing
        spec = density_case_spec(2)
        sizes = (2000, 20_000)
        medians = []
        for T in sizes:
            norms = []
            for seed_child in np.random.SeedSequence(T).spawn(12):
                X = simulate_path(spec, T=T, burn_in=1000, rng_seed=seed_child)
                H = sample_covariance(X).values
                from eigengarch import eigen_sym
                t = eigen_sym(H)
                Y = rotate_returns(X, t.V)
                block = Y**2 - np.einsum("ji,jk,ki->i", t.V, H, t.V)
                omega11 = block.T @ block / T
                norms.append(np.trace(omega11))
            medians.append(np.median(norms))
        assert medians[1] > medians[0]

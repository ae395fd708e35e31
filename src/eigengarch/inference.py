"""Asymptotic covariance of the two-step estimator.

Per equation i the joint vector (lam, vec(V), kappa_i) of length
e = p^2 + 2p + 1 has sandwich covariance

    Sigma = M Omega M',    M = [[I, 0], [-J^{-1} K, -J^{-1}]],

where J and K are plug-in averages of second derivatives of the equation
criterion, both analytic (K differentiates the kappa-score in the static
coordinates through the same reverse recursion as the fit's gradient), and
Omega is the outer-product average of the stacked moment and score
contributions. The first-step contributions use the eigenvalue and
eigenvector perturbation identities, with the shifted pseudo-inverse
carrying the eigenvector sensitivity.

Only the kappa rows of M differ from the identity, so Sigma is assembled in
blocks from G = -J^{-1} [K, I]: the static block is Omega's, the kappa rows
are G Omega, and the kappa-kappa block is G Omega G'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._blas import single_threaded
from .estimation import (
    ModelFit,
    _check_equation_index,
    _panel_values,
    equation_cross_hessian,
    equation_kappa_hessian,
    equation_score_contributions,
    rotate_returns,
)
from .exceptions import InferenceError, ValidationError
from .spectral import sample_covariance, shifted_pseudo_inverse

__all__ = [
    "SandwichBlocks",
    "EquationInference",
    "sandwich_blocks",
    "sandwich_sigma",
    "intercept_delta",
]

J_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class SandwichBlocks:
    """Plug-in second-derivative and outer-product blocks for one equation."""

    J: np.ndarray        # (p+1) x (p+1)
    K: np.ndarray        # (p+1) x (p^2+p)
    Omega: np.ndarray    # e x e
    T: int
    p: int

    @property
    def e(self) -> int:
        return self.p**2 + 2 * self.p + 1


@dataclass(frozen=True)
class EquationInference:
    """Asymptotic covariance and finite-sample standard errors."""

    Sigma: np.ndarray
    se: np.ndarray
    T: int
    p: int

    @property
    def se_gamma(self) -> np.ndarray:
        return self.se[: self.p**2 + self.p]

    @property
    def se_kappa(self) -> np.ndarray:
        return self.se[self.p**2 + self.p:]


@single_threaded
def sandwich_blocks(fit: ModelFit, X, i: int) -> SandwichBlocks:
    """Plug-in J, K and Omega for equation i of a two-step fit.

    J and K are analytic: K is the derivative of the mean kappa-score in
    the static coordinates (lam, vec V), with V's entries as free
    coordinates that re-rotate the panel. Omega stacks the eigenvalue moment
    deviations, the pseudo-inverse-weighted eigenvector deviations and the
    per-observation kappa-score.

    Refuses a fit that is not two-step (the sandwich is the two-step
    estimator's), boundary fits and near-repeated first-step eigenvalues,
    where the asymptotic approximation breaks down.
    """
    Xv = _panel_values(X)
    T, p = Xv.shape
    _check_equation_index(i, fit.p)
    if fit.method != "STE":
        raise InferenceError(
            f"the two-step sandwich does not apply to a {fit.method} fit"
        )
    if fit.target.near_repeated:
        raise InferenceError(
            "first-step eigenvalues are near-repeated; eigenvectors are "
            "weakly identified and the sandwich blocks are unreliable"
        )
    diag = fit.diagnostics[i] if i < len(fit.diagnostics) else None
    if diag is not None and diag.active_constraints:
        raise InferenceError(
            f"equation {i} sits on constraint(s) {diag.active_constraints}; "
            "interior-point inference is not available"
        )
    lam_hat = fit.target.lam
    V_hat = fit.target.V
    kappa = fit.kappas[i]
    Y = rotate_returns(Xv, V_hat)

    J = equation_kappa_hessian(kappa, lam_hat, Y, i)
    K = equation_cross_hessian(kappa, fit.target, Xv, i)

    H = sample_covariance(Xv).values
    n_gamma = p + p * p
    omega = np.empty((T, n_gamma + p + 1))  # T x e, filled block by block
    # eigenvalue-deviation block: diag of V'(X_t X_t' - H)V per observation
    rotated_diag = np.einsum("ji,jk,ki->i", V_hat, H, V_hat)
    omega[:, :p] = Y**2 - rotated_diag
    # eigenvector-deviation blocks: (lam_i I - H)^+ (X_t X_t' - H) V_j
    for j in range(p):
        P = shifted_pseudo_inverse(H, lam_hat[j])
        XP = Xv @ P  # rows P x_t (P symmetric)
        drift = P @ H @ V_hat[:, j]
        omega[:, p + j * p:p + (j + 1) * p] = Y[:, j:j + 1] * XP - drift
    omega[:, n_gamma:] = equation_score_contributions(kappa, lam_hat, Y, i)
    Omega = omega.T @ omega / T
    Omega = 0.5 * (Omega + Omega.T)
    return SandwichBlocks(J=J, K=K, Omega=Omega, T=T, p=p)


@single_threaded
def sandwich_sigma(blocks: SandwichBlocks) -> EquationInference:
    """Assemble Sigma = M Omega M' and the 1/sqrt(T) standard errors.

    Only the last p+1 rows of M differ from the identity; they are
    G = -J^{-1} [K, I]. So Sigma is Omega with its kappa rows replaced by
    G Omega, its kappa columns by the transpose, and its kappa-kappa block
    by G Omega G', and the dense e x e matrix M is never formed.
    """
    p = blocks.p
    n_gamma = p + p * p
    cond = np.linalg.cond(blocks.J)
    if not np.isfinite(cond) or cond > J_CONDITION_LIMIT:
        raise InferenceError(
            f"equation Hessian is numerically singular (cond={cond:.3e})"
        )
    Jinv = np.linalg.inv(blocks.J)
    G = np.hstack([-Jinv @ blocks.K, -Jinv])
    GO = G @ blocks.Omega
    Skk = GO @ G.T
    Sigma = blocks.Omega + blocks.Omega.T
    Sigma *= 0.5
    Sigma[n_gamma:, :n_gamma] = GO[:, :n_gamma]
    Sigma[:n_gamma, n_gamma:] = GO[:, :n_gamma].T
    Sigma[n_gamma:, n_gamma:] = 0.5 * (Skk + Skk.T)
    variances = np.clip(np.diag(Sigma), 0.0, None)
    se = np.sqrt(variances / blocks.T)
    return EquationInference(Sigma=Sigma, se=se, T=blocks.T, p=p)


@single_threaded
def intercept_delta(fit: ModelFit, inference: EquationInference, i: int) -> float:
    """Delta-method standard error of the implied intercept w_i.

    The gradient of w_i = (1 - b_i) lam_i - sum_j a_ij lam_j stacks the
    lam-gradient, zeros for the eigenvector coordinates, -lam for the ARCH
    loadings and -lam_i for the persistence coefficient, in the same
    ordering as Sigma.
    """
    p = inference.p
    lam = fit.target.lam
    kappa = fit.kappas[i]
    a, b = kappa[:p], kappa[p]
    grad_lam = -a.copy()
    grad_lam[i] += 1.0 - b
    phi_vec = np.concatenate([grad_lam, np.zeros(p * p), -lam, [-lam[i]]])
    if phi_vec.shape[0] != inference.Sigma.shape[0]:
        raise ValidationError("inference object does not match the fit dimension")
    var = float(phi_vec @ inference.Sigma @ phi_vec)
    return float(np.sqrt(max(var, 0.0) / inference.T))

"""Two-step spectral targeting estimation plus joint QMLE benchmarks.

Step one fixes the unconditional eigenvalues and eigenvectors from the
sample second-moment matrix. Step two minimizes, separately for every
rotated return, the profiled Gaussian criterion

    L_i(kappa) = (1/T) sum_t [ log lam_{i,t} + y_{i,t}^2 / lam_{i,t} ],

with the intercept tied to the targets through
w_i = (1 - b_i) lam_i - sum_j a_ij lam_j. The joint QMLE optimizes all
eigenvalues, rotation angles and dynamic coefficients simultaneously and is
kept as a benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, OptimizeResult, minimize

from ._blas import single_threaded
from .exceptions import ConvergenceError, ValidationError
from .model import DynamicsParams, ModelSpec, linear_recursion
from .panel import ReturnPanel
from .spectral import (
    SpectralTarget,
    _sign_fix,
    eigen_sym,
    givens_product,
    givens_product_derivatives,
    sample_covariance,
)

__all__ = [
    "EquationDiagnostics",
    "ModelFit",
    "rotate_returns",
    "equation_nll",
    "equation_score",
    "fit_equation",
    "fit_spectral_targeting",
    "fit_joint_qmle",
]

PENALTY_BASE = 1e10
PENALTY_SCALE = 1e10
GRAD_TOL = 1e-9        # L-BFGS-B projected-gradient tolerance
MAX_ITERATIONS = 500   # iteration cap of every L-BFGS-B run
A_MAX = 1.0            # upper bound of every ARCH loading
B_MAX = 1.0 - 1e-6     # upper bound of every persistence coefficient
W_FLOOR_REL = 1e-10    # smallest feasible intercept, relative to its target
KKT_TOL = 1e-6         # box KKT residual at which a diagonal-A profile fit has converged
# start schemes (own ARCH loading, other ARCH loadings, persistence): full-A
# equation fits run all three, as does a diagonal-A fit whose profile search
# does not converge; the joint QMLE runs the first two
START_SCHEMES = ((0.05, 0.01, 0.85), (0.10, 0.0, 0.80), (0.02, 0.0, 0.90))
# persistence grid of the diagonal-A profile search: linear up to 0.8, then
# geometric toward 1, where the profile's minima crowd
PROFILE_B_GRID = np.concatenate([np.linspace(0.0, 0.8, 10, endpoint=False),
                                 1.0 - np.geomspace(0.2, 0.002, 10)])
PROFILE_NEWTON_STEPS = 12  # cap on the grid's Newton steps in a
POLISH_STEPS = 50          # cap on the projected-Newton steps of one polish


@dataclass
class EquationDiagnostics:
    """Optimizer outcome for one equation fit."""

    converged: bool
    n_iterations: int
    nll: float
    kkt_residual: float  # largest |projected gradient| at the winner's end point
    active_constraints: list = field(default_factory=list)
    start_traces: list = field(default_factory=list)


@dataclass
class ModelFit:
    """Fitted model: first-step targets plus all per-equation dynamics."""

    target: SpectralTarget
    kappas: np.ndarray            # p x (p+1)
    W: np.ndarray
    equation_nlls: np.ndarray
    method: str
    diag_a: bool = False
    diagnostics: list = field(default_factory=list)
    converged: bool = True

    @property
    def p(self) -> int:
        return self.kappas.shape[0]

    @property
    def total_nll(self) -> float:
        return float(self.equation_nlls.sum())

    @property
    def dynamics(self) -> DynamicsParams:
        return DynamicsParams(A=self.kappas[:, :-1].copy(), b=self.kappas[:, -1].copy())

    def spec(self) -> ModelSpec:
        return ModelSpec(
            V=self.target.V, dynamics=self.dynamics, W=self.W, lam=self.target.lam
        )


def rotate_returns(X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Rotated returns Y_t = V'X_t, computed row-wise."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V = np.asarray(V, dtype=float)
    if X.shape[1] != V.shape[0]:
        raise ValidationError(
            f"panel has {X.shape[1]} columns but V is {V.shape[0]}x{V.shape[1]}"
        )
    return X @ V


def _as_lam(gamma) -> np.ndarray:
    if isinstance(gamma, SpectralTarget):
        return gamma.lam
    return np.atleast_1d(np.asarray(gamma, dtype=float))


def _lam_derivs(Z: np.ndarray, z_lam: np.ndarray, lam_i: float, b: float,
                lam: np.ndarray) -> np.ndarray:
    """d lam_t / d (a, b) for every t (T x (k+1)); the initial value is kappa-free.

    Z (T x k) holds the squared rotated returns of the loadings a and z_lam
    their targets, as in ``_equation_kernel``. Row t >= 1 is driven by
    [Z_{t-1} - z_lam, lam_{t-1} - lam_i], the direct partials of lam_t,
    carried forward by the b-lagged recursion.
    """
    T, k = Z.shape
    x = np.empty((T, k + 1))
    x[0] = 0.0
    x[1:, :k] = Z[:-1] - z_lam
    x[1:, k] = lam[:-1] - lam_i
    return linear_recursion(x, b)


def _penalized(w: float, floor: float):
    """Smooth pull-back for the infeasible region w <= floor.

    Zero influence at feasible points (the criterion stays exact there); in
    the infeasible region the value is huge with a gradient pointing back
    toward feasibility. Returns the value and its slope in w, which carries
    the gradient to every coordinate that moves w.
    """
    gap = floor - w
    return PENALTY_BASE + PENALTY_SCALE * gap * gap, -2.0 * PENALTY_SCALE * gap


def _equation_kernel(x: np.ndarray, Z: np.ndarray, z_lam: np.ndarray,
                     y2: np.ndarray, lam_i: float):
    """Criterion and gradient of one equation in its free coordinates.

    Z (T x k) holds the squared rotated returns whose ARCH loadings are free
    and z_lam their targets; y2 is the equation's own squared return and
    lam_i its target, where the path starts. x holds the k free loadings,
    then b when x has k + 1 entries; otherwise b = 0. The adjoint
    r_t = dL/dlam_t summed over every later step solves r_t = g_t + b r_{t+1}
    with g_t = (1 - y2_t / lam_t) / (lam_t T), so the gradient is one
    contraction of r against the direct partials of lam_t.

    Returns (value, grad, lam, r). At an infeasible point the value and the
    gradient are the pull-back of ``_penalized``, and lam and r are None.
    """
    k = Z.shape[1]
    a = x[:k]
    b = float(x[k]) if x.shape[0] > k else 0.0
    floor = W_FLOOR_REL * lam_i
    w = (1.0 - b) * lam_i - float(a @ z_lam)
    if w <= floor or b >= 1.0 or (a < 0).any() or b < 0:
        value, slope = _penalized(w, floor)
        # dw/da = -z_lam, dw/db = -lam_i
        return value, -slope * np.append(z_lam, lam_i)[:x.shape[0]], None, None
    T = y2.shape[0]
    c = np.empty(T)
    c[0] = lam_i
    c[1:] = w + np.dot(Z[:-1], a)  # for one column, @ takes a slower route
    lam = linear_recursion(c, b)
    ratio = y2 / lam
    value = float(np.mean(np.log(lam) + ratio))
    r = linear_recursion((1.0 - ratio) / (lam * T), b, reverse=True)
    r1 = r[1:]
    total = r1.sum()
    grad = np.empty(x.shape[0])
    grad[:k] = r1 @ Z[:-1] - z_lam * total
    if x.shape[0] > k:
        grad[k] = r1 @ lam[:-1] - lam_i * total
    return value, grad, lam, r


def _check_equation_index(i, p: int) -> None:
    if not 0 <= i < p:
        raise ValidationError(f"equation index {i} is outside 0..{p - 1}")


def _check_kappa(kappa, p: int, i) -> np.ndarray:
    _check_equation_index(i, p)
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    if kappa.shape != (p + 1,):
        raise ValidationError(f"kappa must have length {p + 1}, got {kappa.shape}")
    return kappa


def _kernel_hessian(x: np.ndarray, Z: np.ndarray, z_lam: np.ndarray, y2: np.ndarray,
                    lam_i: float, lam: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Hessian of ``_equation_kernel``'s criterion in the same free coordinates.

    lam and r are the kernel's path and adjoint at x. The second derivatives
    of the path vanish in the a-a block; in the a-b and b-b blocks they are
    driven by dlam_{t-1} (once for a_j-b, twice for b-b), so they contract
    against the adjoint r, which carries the score weights back in time.
    """
    T, k = Z.shape
    n = x.shape[0]
    dlam = _lam_derivs(Z, z_lam, lam_i, float(x[k]) if n > k else 0.0, lam)[:, :n]
    w2 = (2.0 * y2 / lam - 1.0) / (lam * lam)  # multiplies dlam outer products
    hess = (dlam * w2[:, None]).T @ dlam / T
    if n > k:
        cross = r[1:] @ dlam[:-1]
        cross[k] *= 2.0
        hess[:k, k] += cross[:k]
        hess[k, :k] += cross[:k]
        hess[k, k] += cross[k]
    return hess


def _full_width(kappa, gamma, Y: np.ndarray, i: int):
    """Checked kappa, targets, squared returns, then the kernel's value,
    gradient, path and adjoint.

    The kernel runs over every ARCH column, whichever entries are zero.
    """
    lam_vec = _as_lam(gamma)
    kappa = _check_kappa(kappa, lam_vec.shape[0], i)
    Y2 = np.atleast_2d(np.asarray(Y, dtype=float)) ** 2
    return (kappa, lam_vec, Y2) + _equation_kernel(kappa, Y2, lam_vec, Y2[:, i], lam_vec[i])


def equation_nll(kappa, gamma, Y: np.ndarray, i: int) -> float:
    """Profiled Gaussian criterion of one rotated return.

    Returns a large finite penalty (never raises) when the implied intercept
    is non-positive, so optimizers can recover from the invalid region.
    """
    return _full_width(kappa, gamma, Y, i)[3]


def equation_score(kappa, gamma, Y: np.ndarray, i: int) -> np.ndarray:
    """Analytic gradient of the equation criterion wrt kappa.

    The rotated returns are constant in kappa, so only the eigenvalue path
    contributes; its adjoint follows the same b-lagged recursion as the path,
    run backward in time.
    """
    *_, grad, lam, _ = _full_width(kappa, gamma, Y, i)
    if lam is None:
        raise ValidationError("score requested at an infeasible point")
    return grad


def _forward_derivs(kappa, gamma, Y: np.ndarray, i: int):
    """Checked kappa, squared returns, path and forward kappa-derivatives."""
    kappa, lam_vec, Y2, _, _, lam, _ = _full_width(kappa, gamma, Y, i)
    if lam is None:
        raise ValidationError("derivatives requested at an infeasible point")
    return kappa, Y2, lam, _lam_derivs(Y2, lam_vec, lam_vec[i], float(kappa[-1]), lam)


def equation_score_contributions(kappa, gamma, Y: np.ndarray, i: int) -> np.ndarray:
    """Per-observation score vectors (T x (p+1)), not averaged.

    Assumes an interior (feasible) point.
    """
    _, Y2, lam, dlam = _forward_derivs(kappa, gamma, Y, i)
    return ((1.0 - Y2[:, i] / lam) / lam)[:, None] * dlam


def equation_kappa_hessian(kappa, gamma, Y: np.ndarray, i: int) -> np.ndarray:
    """Analytic (1/T) sum_t d^2 l_t / dkappa dkappa' at the given point.

    Only the eigenvalue path depends on kappa (see ``_kernel_hessian``).
    """
    kappa, lam_vec, Y2, _, _, lam, r = _full_width(kappa, gamma, Y, i)
    if lam is None:
        raise ValidationError("derivatives requested at an infeasible point")
    return _kernel_hessian(kappa, Y2, lam_vec, Y2[:, i], lam_vec[i], lam, r)


def equation_cross_hessian(kappa, target: SpectralTarget, X: np.ndarray,
                           i: int) -> np.ndarray:
    """Analytic (1/T) sum_t d^2 l_t / dkappa d(lam, vec V)' from the unconditional start.

    Columns follow ``SpectralTarget.gamma()``: the eigenvalues, then V column
    by column, each entry a free coordinate that re-rotates the panel through
    dY2_{t,j} / dV_mj = 2 Y_{t,j} X_{t,m}. The path moves with the targets
    through dlam_t / dlam_k = u_t dw_k + b^t delta_ik (u_t = sum_{s<t} b^s)
    and with V through a_j-weighted lags of those squared returns, so every
    V-derivative of the path is contracted against reverse-filtered weights
    and no T x p^2 array is formed.
    """
    Y = rotate_returns(X, target.V)
    kappa, Y2, lam, dlam = _forward_derivs(kappa, target.lam, Y, i)
    T, p = Y.shape
    a, b = kappa[:p], float(kappa[p])
    w1 = (1.0 - Y2[:, i] / lam) / lam
    w2 = (2.0 * Y2[:, i] / lam - 1.0) / (lam * lam)
    # weight of lam_t in the forcing term x_{t+1} = [Y2_t - lam, lam_t - lam_i]
    rho_next = np.append(linear_recursion(w1, b, reverse=True)[1:], 0.0)
    # weights on dlam_t / dgamma: through the score weight w1, and through x_{t+1}
    h = dlam * w2[:, None]
    h[:, p] += rho_next
    K = np.empty((p + 1, p + p * p))
    dw = -a
    dw[i] += 1.0 - b
    u = linear_recursion(np.minimum(np.arange(T), 1.0), b)
    K[:, :p] = np.outer(h.T @ u, dw)
    K[:, i] += h.T @ b ** np.arange(T)
    total = rho_next.sum()
    K[np.arange(p), np.arange(p)] -= total
    K[p, i] -= total
    h_next = np.zeros((T, p + 1))
    h_next[:-1] = linear_recursion(h, b, reverse=True)[1:]
    KV = np.empty((p + 1, p, p))  # [kappa entry, m, j] for V_mj
    for n in range(p + 1):
        KV[n] = (X * h_next[:, n:n + 1]).T @ Y * (2.0 * a)
    # y2_t = Y2_{t,i} in the score weight, and Y2_{t,j} in x_{t+1} for a_j
    KV[:, :, i] -= 2.0 * (dlam * (Y[:, i] / (lam * lam))[:, None]).T @ X
    KV[np.arange(p), :, np.arange(p)] += 2.0 * (rho_next[:, None] * Y).T @ X
    K[:, p:] = KV.transpose(0, 2, 1).reshape(p + 1, p * p)
    return K / T


def _free_mask(p: int, diag_a: bool, fit_b: bool = True) -> np.ndarray:
    """p x (p+1) mask of the free coefficients; row i holds equation i's kappa.

    The joint QMLE packs the masked coefficients row by row after (lam, phi).
    """
    mask = np.eye(p, p + 1, dtype=bool) if diag_a else np.ones((p, p + 1), dtype=bool)
    mask[:, p] = fit_b
    return mask


def _start_kappas(p: int, own: float, off: float, b: float) -> np.ndarray:
    """p x (p+1) start coefficients of one scheme in ``START_SCHEMES``."""
    kappas = np.full((p, p + 1), off)
    kappas[np.arange(p), np.arange(p)] = own
    kappas[:, p] = b
    return kappas


def _bounds(cols, p: int):
    """Box (lo, hi) of the coefficients in the given kappa columns (column p is b)."""
    hi = np.where(cols == p, B_MAX, A_MAX)
    return np.zeros(hi.shape), hi


def _held(x: np.ndarray, grad: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Coordinates within 1e-10 of a bound whose descent direction leaves the
    box (g >= 0 at the lower bound, g <= 0 at the upper)."""
    return ((x <= lo + 1e-10) & (grad >= 0.0)) | ((x >= hi - 1e-10) & (grad <= 0.0))


def _kkt_residual(x: np.ndarray, grad: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Largest |projected gradient| over [lo, hi] at x; held coordinates count as zero."""
    return float(np.max(np.abs(np.where(_held(x, grad, lo, hi), 0.0, grad)), initial=0.0))


def _trace(start: np.ndarray, res) -> dict:
    """One start's trace record from its optimizer result."""
    return {
        "start": start.copy(),
        "success": bool(res.success),
        "nll": float(res.fun),
        "iterations": int(res.nit),
        "evaluations": int(res.nfev),
        "kkt_residual": res.kkt_residual,
        "message": str(res.message),
    }


def _diagnostics(res, active: list, traces: list) -> EquationDiagnostics:
    """A fit's diagnostics from its winning optimizer result."""
    return EquationDiagnostics(
        converged=bool(res.success),
        n_iterations=int(res.nit),
        nll=float(res.fun),
        kkt_residual=res.kkt_residual,
        active_constraints=active,
        start_traces=traces,
    )


def _run_starts(objective, starts, lo: np.ndarray, hi: np.ndarray):
    """One L-BFGS-B run of at most ``MAX_ITERATIONS`` from every start on [lo, hi].

    Returns the optimizer results and one trace record per start; picking
    the winner is left to the caller. Each result and trace carries the
    ``kkt_residual`` of its end point, from the gradient there (``res.jac``).
    """
    results, traces = [], []
    for x0 in starts:
        res = minimize(objective, x0, jac=True, method="L-BFGS-B", bounds=Bounds(lo, hi),
                       options={"maxiter": MAX_ITERATIONS,
                                "gtol": GRAD_TOL, "ftol": 1e-14})
        res.kkt_residual = _kkt_residual(res.x, res.jac, lo, hi)
        results.append(res)
        traces.append(_trace(x0, res))
    return results, traces


def _profile_on_grid(y2: np.ndarray, lam_i: float, grid: np.ndarray):
    """Own loading minimizing the diagonal-A criterion at each b in ``grid``,
    and the criterion there: the profile P(b) at the grid points.

    Under targeting the path is affine in the loading for fixed b,
    lam_t = lam_i + a v_t(b), where v(b) is the b-recursion of
    [0, y2_{t-1} - lam_i]; at a = 0 it is lam_i whatever b. Each column then
    takes a safeguarded Newton search in a on [0, min(A_MAX, 1 - b -
    W_FLOOR_REL)), all columns at once, within a bracket [lo, hi] whose
    ends have the slope pointing inward (bisection when the Newton step
    leaves it or the curvature is not positive).
    """
    T = y2.shape[0]
    drive = np.empty(T)
    drive[0] = 0.0
    drive[1:] = y2[:-1] - lam_i
    V = np.empty((grid.shape[0], T))
    for g, b in enumerate(grid):
        V[g] = linear_recursion(drive, b)
    a = np.zeros(grid.shape[0])
    lo, hi = a.copy(), np.minimum(A_MAX, 1.0 - grid - W_FLOOR_REL)
    q = y2 / lam_i  # the path is lam_i at a = 0
    slope = V @ (1.0 - q) / (T * lam_i)
    curv = (V * V) @ (2.0 * q - 1.0) / (T * lam_i * lam_i)
    lam, q = np.full(V.shape, lam_i), np.broadcast_to(q, V.shape)
    for _ in range(PROFILE_NEWTON_STEPS):
        lo = np.where(slope < 0.0, a, lo)
        hi = np.where(slope > 0.0, a, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = a - slope / curv
        newton = (curv > 0.0) & (step > lo) & (step < hi)
        nxt = np.where(newton, step, 0.5 * (lo + hi))
        if np.abs(nxt - a).max() <= 1e-9:
            break
        a = nxt
        lam = lam_i + a[:, None] * V
        s = V / lam
        q = y2 / lam
        slope = (s.sum(axis=1) - np.einsum("gt,gt->g", s, q)) / T
        s *= s
        curv = (2.0 * np.einsum("gt,gt->g", s, q) - s.sum(axis=1)) / T
    return a, (np.log(lam).sum(axis=1) + q.sum(axis=1)) / T


def _projected_newton(fun, x: np.ndarray, args=(), hess=None, bounds=None, **_):
    """Projected Newton (Bertsekas, 1982) on the box ``bounds`` = (lo, hi) from
    x, as a ``scipy.optimize.minimize`` method.

    ``fun(x, *args)`` returns the criterion, its gradient, then the path and
    adjoint that ``hess(x, path, adjoint)`` takes for the exact Hessian.
    Coordinates held at a bound stay there; the others take the Newton step
    of their block of the Hessian, its eigenvalues taken in absolute value
    so that the step descends, and a projected Armijo search along it. Once
    the step's predicted decrease is at the criterion's rounding level, the
    full step is kept only while it halves the box KKT residual. Stops when
    that residual is at most ``GRAD_TOL``, when no step makes progress or
    after ``POLISH_STEPS`` steps; the result has converged when its residual
    is at most ``KKT_TOL``.
    """
    lo, hi = bounds
    value, grad, lam, r = fun(x, *args)
    nit, nfev = 0, 1
    message = "no step made progress"
    while True:
        kkt = _kkt_residual(x, grad, lo, hi)
        if kkt <= GRAD_TOL:
            message = "box KKT residual at most GRAD_TOL"
            break
        if nit == POLISH_STEPS:
            message = f"POLISH_STEPS ({POLISH_STEPS}) reached"
            break
        free = ~_held(x, grad, lo, hi)
        w, Q = np.linalg.eigh(hess(x, lam, r)[np.ix_(free, free)])
        w = np.maximum(np.abs(w), 1e-12 * np.abs(w).max(initial=1.0))
        d = np.zeros_like(x)
        d[free] = -Q @ ((Q.T @ grad[free]) / w)
        if -float(grad @ d) <= 10.0 * np.finfo(float).eps * max(abs(value), 1.0):
            trial = np.clip(x + d, lo, hi)
            out = fun(trial, *args)
            nfev += 1
            if out[2] is None or _kkt_residual(trial, out[1], lo, hi) > 0.5 * kkt:
                break
        else:
            for _ in range(40):
                trial = np.clip(x + d, lo, hi)
                out = fun(trial, *args)
                nfev += 1
                if out[2] is not None and out[0] < value + 1e-4 * float(grad @ (trial - x)):
                    break
                d *= 0.5
            else:
                break
        x = trial
        value, grad, lam, r = out
        nit += 1
    return OptimizeResult(x=x, fun=value, jac=grad, nit=nit, nfev=nfev, kkt_residual=kkt,
                          success=kkt <= KKT_TOL, message=message)


def _profile_fit(kernel, hessian, y2: np.ndarray, lam_i: float, lo: np.ndarray,
                 hi: np.ndarray, fit_b: bool):
    """Diagonal-A equation fit on the profile over b.

    The profile is evaluated on ``PROFILE_B_GRID`` (the single point b = 0
    without ``fit_b``), and every grid minimum of it is polished by
    ``_projected_newton`` in the free coordinates. Returns the lowest
    polished result, or None when it has not converged, and one trace per
    polished minimum whose start is its grid point.
    """
    grid = PROFILE_B_GRID if fit_b else np.zeros(1)
    a, prof = _profile_on_grid(y2, lam_i, grid)
    left = np.append(True, prof[1:] < prof[:-1])
    right = np.append(prof[:-1] <= prof[1:], True)
    results, traces = [], []
    for g in np.flatnonzero(left & right):
        start = np.array([a[g], grid[g]])[:hi.shape[0]]
        res = minimize(kernel, start, method=_projected_newton, hess=hessian, bounds=(lo, hi))
        results.append(res)
        traces.append(_trace(start, res))
    best = min(results, key=lambda res: res.fun)
    return (best if best.success else None), traces


def _repair_start(kappa: np.ndarray, lam_vec: np.ndarray, i: int,
                  floor: float) -> np.ndarray:
    """Shrink a start toward zero dynamics until the intercept is feasible."""
    kappa = kappa.copy()
    for _ in range(60):
        w = (1.0 - kappa[-1]) * lam_vec[i] - float(kappa[:-1] @ lam_vec)
        if w > 2.0 * floor:
            return kappa
        kappa *= 0.5
    kappa[:] = 0.0
    return kappa


@single_threaded
def fit_equation(Y: np.ndarray, gamma_hat, i: int,
                 diag_a: bool = False, fit_b: bool = True):
    """Fit the dynamic coefficients of rotated return i given the targets.

    Box-constrained L-BFGS-B with the analytic score, each run capped at
    ``MAX_ITERATIONS``; the implied-intercept constraint is enforced through
    a smooth pull-back that leaves the criterion untouched at feasible
    points. A full A runs the three ``START_SCHEMES``, each shrunk toward
    zero dynamics until its intercept is feasible, and the best converged
    run wins.

    A diagonal A is fitted on the profile over b (``_profile_fit``): a
    Newton search in a at every point of ``PROFILE_B_GRID`` (b = 0 alone
    without ``fit_b``), then a projected-Newton polish of every grid minimum
    of the profile, each its own ``minimize`` run. The lowest polished point
    wins when its box KKT residual is at most ``KKT_TOL``; otherwise the
    three ``START_SCHEMES`` are run after the polish as above, and their
    traces follow the polish traces.

    Each start trace records the start in the free coordinates: for a
    polished profile minimum, its grid point.

    Returns (kappa, EquationDiagnostics), kappa = [a_i1, ..., a_ip, b_i].
    """
    lam_vec = _as_lam(gamma_hat)
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    p = lam_vec.shape[0]
    _check_equation_index(i, p)
    floor = W_FLOOR_REL * lam_vec[i]
    keep = _free_mask(p, diag_a, fit_b)[i]
    free = np.flatnonzero(keep)
    lo, hi = _bounds(free, p)
    y2 = Y[:, i] ** 2
    Z, z_lam = (y2[:, None], lam_vec[[i]]) if diag_a else (Y**2, lam_vec)

    def kernel(free_vals):
        return _equation_kernel(free_vals, Z, z_lam, y2, lam_vec[i])

    def objective(free_vals):
        return kernel(free_vals)[:2]

    results, traces = [], []
    if diag_a:
        best, traces = _profile_fit(
            kernel, lambda x, lam, r: _kernel_hessian(x, Z, z_lam, y2, lam_vec[i], lam, r),
            y2, lam_vec[i], lo, hi, fit_b)
        results = [best] if best is not None else []
    if not results:
        starts = [_repair_start(np.where(keep, _start_kappas(p, *scheme)[i], 0.0),
                                lam_vec, i, floor)[free] for scheme in START_SCHEMES]
        results, more = _run_starts(objective, starts, lo, hi)
        traces += more
    converged = [res for res in results if res.success]
    if not converged:
        raise ConvergenceError(
            f"all {len(traces)} starts failed to converge for equation {i}",
            traces=traces,
        )
    best = min(converged, key=lambda res: res.fun)
    kappa = np.zeros(p + 1)
    kappa[free] = best.x
    active = []
    for slot, idx in enumerate(free):
        name = "b" if idx == p else f"a[{idx}]"
        if best.x[slot] <= lo[slot] + 1e-10:
            active.append(f"{name}=lower")
        elif best.x[slot] >= hi[slot] - 1e-10:
            active.append(f"{name}=upper")
    w = (1.0 - kappa[p]) * lam_vec[i] - float(kappa[:p] @ lam_vec)
    if w < 1e-8 * lam_vec[i]:
        active.append("w=floor")
    return kappa, _diagnostics(best, active, traces)


def _panel_values(X) -> np.ndarray:
    if isinstance(X, ReturnPanel):
        return X.values
    return np.atleast_2d(np.asarray(X, dtype=float))


def _checked_panel(X) -> np.ndarray:
    """Panel values, refused unless T > p and no column is constant."""
    Xv = _panel_values(X)
    T, p = Xv.shape
    if T <= p:
        raise ValidationError(f"need T > p, got T={T}, p={p}")
    flat = np.flatnonzero(np.ptp(Xv, axis=0) == 0.0)
    if flat.size:
        labels = X.labels if isinstance(X, ReturnPanel) else None
        names = [labels[j] if labels else f"column {j}" for j in flat]
        raise ValidationError(f"constant column(s): {names}")
    return Xv


def _intercepts(kappas: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Implied intercepts w_i = (1 - b_i) lam_i - sum_j a_ij lam_j."""
    p = lam.shape[0]
    return np.array([(1.0 - k[p]) * lam[i] - k[:p] @ lam for i, k in enumerate(kappas)])


@single_threaded
def fit_spectral_targeting(X, diag_a: bool = False, fit_b: bool = True) -> ModelFit:
    """Two-step estimator: moment targets, then independent equation fits.

    Step one computes the uncentered second-moment matrix and its identified
    eigendecomposition; step two fits each rotated return separately (the
    equation criteria are orthogonal given the targets).
    """
    Xv = _checked_panel(X)
    target = eigen_sym(sample_covariance(Xv))
    Y = rotate_returns(Xv, target.V)
    results = [fit_equation(Y, target, i, diag_a=diag_a, fit_b=fit_b)
               for i in range(Xv.shape[1])]

    kappas = np.vstack([kappa for kappa, _ in results])
    diags = [d for _, d in results]
    return ModelFit(
        target=target,
        kappas=kappas,
        W=_intercepts(kappas, target.lam),
        equation_nlls=np.array([d.nll for d in diags]),
        method="STE",
        diag_a=diag_a,
        diagnostics=diags,
        converged=all(d.converged for d in diags),
    )


# ---------------------------------------------------------------------------
# joint QMLE over (lam, phi, kappa)
# ---------------------------------------------------------------------------


def _match_angles(V_hat: np.ndarray, lower: float, upper: float):
    """Angles whose Givens product spans the same columns as V_hat.

    Minimizes the sum of (1 - squared column cosine similarity), which is
    invariant to the unidentified column signs. Returns (angles, residual);
    a residual near zero means V_hat lies in the constrained rotation branch
    up to column signs.
    """
    p = V_hat.shape[0]
    n = p * (p - 1) // 2
    if n == 0:
        return np.empty(0), 0.0

    def cost(phi):
        V, dV = givens_product_derivatives(phi, p)
        dots = np.einsum("ij,ij->j", V, V_hat)
        val = float(p - np.sum(dots * dots))
        grad = np.empty(n)
        for k in range(n):
            ddots = np.einsum("ij,ij->j", dV[k], V_hat)
            grad[k] = -2.0 * float(np.sum(dots * ddots))
        return val, grad

    best = None
    for start in (np.full(n, np.pi / 4), np.full(n, 0.5), np.full(n, 1.0)):
        res = minimize(cost, start, jac=True, method="L-BFGS-B",
                       bounds=[(lower, upper)] * n,
                       options={"maxiter": 300})
        if best is None or res.fun < best.fun:
            best = res
    return best.x, float(best.fun)


def _joint_nll_grad(theta: np.ndarray, X: np.ndarray, p: int, diag_a: bool):
    """Joint criterion with the analytic gradient wrt (lam, phi, kappa).

    theta = [lam, phi, kappas[_free_mask(p, diag_a)]]. Each equation's
    adjoint r gives its kappa block, its lam block dw * sum r[1:] + e_i r_0
    (the path starts at lam_i), and its share of dL/dY2, which feeds the
    angle block through G = X'(2 Y o dL/dY2):
    dL/dphi_m = sum_{k,j} dV[m, k, j] G[k, j].
    An infeasible equation contributes the pull-back of ``_penalized``.
    """
    n_phi = p * (p - 1) // 2
    mask = _free_mask(p, diag_a)
    T = X.shape[0]
    lam_vec = theta[:p]
    phi = theta[p:p + n_phi]
    kappas = np.zeros((p, p + 1))
    kappas[mask] = theta[p + n_phi:]
    grad = np.zeros_like(theta)
    g_kappas = np.zeros((p, p + 1))

    V, dV = givens_product_derivatives(phi, p)
    Y = X @ V
    Y2 = Y**2
    R = np.zeros((T - 1, p))  # column i: r[1:] of equation i
    dY2 = np.zeros((T, p))    # dL/dY2 through each y2_{i,t} / lam_{i,t} term

    total = 0.0
    feasible = True
    for i in range(p):
        a, b = kappas[i, :p], float(kappas[i, p])
        # dw/dlam_k = (1-b) delta_ik - a_k
        dw = -a
        dw[i] += 1.0 - b
        y2 = Y2[:, i].copy()
        Z, z_lam = (y2[:, None], lam_vec[[i]]) if diag_a else (Y2, lam_vec)
        value, g_kappas[i, mask[i]], lam, r = _equation_kernel(
            kappas[i, mask[i]], Z, z_lam, y2, lam_vec[i])
        total += value
        if lam is None:
            feasible = False
            floor = W_FLOOR_REL * lam_vec[i]
            _, slope = _penalized((1.0 - b) * lam_vec[i] - float(a @ lam_vec), floor)
            grad[:p] += slope * dw
            grad[i] -= slope * W_FLOOR_REL  # the floor moves with lam_i
            continue
        grad[:p] += dw * r[1:].sum()
        grad[i] += r[0]
        R[:, i] = r[1:]
        dY2[:, i] = 1.0 / (lam * T)
    grad[p + n_phi:] = g_kappas[mask]
    if n_phi:
        dY2[:-1] += R @ kappas[:, :p]
        G = X.T @ (2.0 * Y * dY2)
        grad[p:p + n_phi] = np.tensordot(dV, G, axes=([1, 2], [0, 1]))
    return total, grad, feasible


@single_threaded
def fit_joint_qmle(X, diag_a: bool = False) -> ModelFit:
    """Joint QMLE over eigenvalues, rotation angles and all dynamics.

    The eigenvector matrix is parameterized by plane rotations with angles
    constrained to (0, pi/2) for identification; after optimization the
    result is renormalized to the sorted/sign-fixed convention so it is
    directly comparable with the two-step fit. The fit runs the first two
    ``START_SCHEMES``. Non-convergence is reported through the ``converged``
    flag and per-start traces, never hidden.
    """
    Xv = _checked_panel(X)
    p = Xv.shape[1]
    n_phi = p * (p - 1) // 2
    mask = _free_mask(p, diag_a)

    H = sample_covariance(Xv)
    moment = eigen_sym(H)
    phi_lo, phi_hi = 1e-6, np.pi / 2 - 1e-6

    # The constrained rotation branch fixes its own column ordering, which
    # need not be the sorted one; try both orderings of the moment basis and
    # keep the better branch representative. lam starts are always read off
    # the rotated diagonal so the association with the angles is consistent.
    phi0, _ = min((_match_angles(Vc, phi_lo, phi_hi)
                   for Vc in (moment.V, moment.V[:, ::-1])), key=lambda match: match[1])
    lam0 = np.einsum("ji,jk,ki->i", givens_product(phi0, p), H.values,
                     givens_product(phi0, p)) if n_phi else moment.lam.copy()

    starts = [np.concatenate([lam0, phi0, _start_kappas(p, *scheme)[mask]])
              for scheme in START_SCHEMES[:2]]
    kappa_lo, kappa_hi = _bounds(np.nonzero(mask)[1], p)
    lo = np.concatenate([np.full(p, 1e-8), np.full(n_phi, phi_lo), kappa_lo])
    hi = np.concatenate([np.full(p, np.inf), np.full(n_phi, phi_hi), kappa_hi])

    def objective(theta):
        value, grad, _ = _joint_nll_grad(theta, Xv, p, diag_a)
        return value, grad

    results, traces = _run_starts(objective, starts, lo, hi)
    best = min(results, key=lambda res: res.fun)
    lam_vec = best.x[:p]
    phi = best.x[p:p + n_phi]
    V = givens_product(phi, p)
    kappas = np.zeros((p, p + 1))
    kappas[mask] = best.x[p + n_phi:]

    # renormalize to the identified convention: sort eigenvalues ascending,
    # sign-fix columns, permute equations and spill-over columns alike
    order = np.argsort(lam_vec, kind="stable")
    lam_sorted = lam_vec[order]
    V_sorted = _sign_fix(V[:, order])
    kappas = np.hstack([kappas[:, :p][np.ix_(order, order)], kappas[order, p:]])
    target = SpectralTarget(lam=lam_sorted, V=V_sorted,
                            recon_residual=0.0, near_repeated=False)
    active = []
    for m in range(n_phi):
        if phi[m] <= phi_lo + 1e-9:
            active.append(f"phi[{m}]=lower")
        elif phi[m] >= phi_hi - 1e-9:
            active.append(f"phi[{m}]=upper")

    Ysorted = rotate_returns(Xv, V_sorted)
    nlls = np.array([
        equation_nll(kappas[i], lam_sorted, Ysorted, i) for i in range(p)
    ])
    return ModelFit(
        target=target,
        kappas=kappas,
        W=_intercepts(kappas, lam_sorted),
        equation_nlls=nlls,
        method="joint-QMLE",
        diag_a=diag_a,
        diagnostics=[_diagnostics(best, active, traces)],
        converged=bool(best.success),
    )

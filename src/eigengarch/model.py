"""Eigenvalue-GARCH process: recursion, targeting, simulation, diagnostics.

The conditional covariance is H_t = V diag(lam_t) V' with constant
eigenvectors V and conditional eigenvalues following

    lam_t = W + A * Y_{t-1}^2 + B * lam_{t-1},      Y_t = V' X_t,

where A is a non-negative p x p matrix (spill-overs allowed) and B is
diagonal so each equation carries only its own lag.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.signal import lfilter

from ._blas import single_threaded
from .exceptions import NonstationaryError, TargetingError, ValidationError
from .spectral import SpectralTarget, spectral_radius

__all__ = [
    "DynamicsParams",
    "ModelSpec",
    "unconditional_eigenvalues",
    "intercepts_from_targets",
    "filter_eigenvalues",
    "simulate_path",
    "moment_order_check",
    "lyapunov_estimate",
]

LYAPUNOV_FLOOR = -745.0  # log of the smallest positive double


@dataclass(frozen=True)
class DynamicsParams:
    """Dynamic coefficients: ARCH loadings A and diagonal GARCH persistence b.

    Attributes
    ----------
    A : ndarray
        p x p non-negative ARCH loading matrix (row i feeds equation i).
    b : ndarray
        p-vector of non-negative diagonal GARCH coefficients.
    diag_a : bool
        Marks A as restricted to its diagonal.
    """

    A: np.ndarray
    b: np.ndarray
    diag_a: bool = False

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise ValidationError(f"A must be square, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise ValidationError("b must be a p-vector matching A")
        if (A < 0).any() or (b < 0).any():
            raise ValidationError("dynamic coefficients must be non-negative")
        if self.diag_a and np.abs(A - np.diag(np.diag(A))).max() > 0:
            raise ValidationError("diag_a is set but A has off-diagonal entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def p(self) -> int:
        return self.b.shape[0]

    @property
    def B(self) -> np.ndarray:
        return np.diag(self.b)

    def persistence(self) -> np.ndarray:
        return self.A + self.B

    def is_stationary(self) -> bool:
        return spectral_radius(self.persistence()) < 1.0


@dataclass(frozen=True)
class ModelSpec:
    """Complete process specification: eigenvectors, dynamics, intercepts.

    ``lam`` holds the unconditional eigenvalues when they exist
    (rho(A+B) < 1) and is None for nonstationary specifications built
    directly from intercepts.
    """

    V: np.ndarray
    dynamics: DynamicsParams
    W: np.ndarray
    lam: Optional[np.ndarray] = None

    def __post_init__(self):
        V = np.atleast_2d(np.asarray(self.V, dtype=float))
        W = np.atleast_1d(np.asarray(self.W, dtype=float))
        p = self.dynamics.p
        if V.shape != (p, p):
            raise ValidationError(f"V must be {p}x{p}, got {V.shape}")
        if W.shape != (p,):
            raise ValidationError(f"W must be a {p}-vector, got {W.shape}")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W", W)
        if self.lam is not None:
            object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))

    @property
    def p(self) -> int:
        return self.dynamics.p

    @classmethod
    def from_targets(cls, gamma: SpectralTarget, dynamics: DynamicsParams) -> "ModelSpec":
        """Targeted model: intercepts implied by the unconditional eigenvalues."""
        W = intercepts_from_targets(gamma, dynamics)
        return cls(V=gamma.V, dynamics=dynamics, W=W, lam=gamma.lam.copy())

    @classmethod
    def from_intercepts(
        cls, V: np.ndarray, W: np.ndarray, dynamics: DynamicsParams
    ) -> "ModelSpec":
        """Direct (W, A, B) construction; eigenvalues solved for when stationary."""
        W = np.atleast_1d(np.asarray(W, dtype=float))
        if (W <= 0).any():
            raise ValidationError("intercepts W must be strictly positive")
        lam = None
        if dynamics.is_stationary():
            lam = unconditional_eigenvalues(W, dynamics)
        return cls(V=np.asarray(V, dtype=float), dynamics=dynamics, W=W, lam=lam)


def unconditional_eigenvalues(W: np.ndarray, dyn: DynamicsParams) -> np.ndarray:
    """Solve (I - A - B) lam = W for the unconditional eigenvalues."""
    W = np.atleast_1d(np.asarray(W, dtype=float))
    rho = spectral_radius(dyn.persistence())
    if rho >= 1.0:
        raise NonstationaryError(f"rho(A+B) = {rho:.6f} >= 1, no stationary solution")
    if (W <= 0).any():
        raise ValidationError("intercepts W must be strictly positive")
    lam = np.linalg.solve(np.eye(dyn.p) - dyn.persistence(), W)
    return lam


def intercepts_from_targets(gamma: SpectralTarget, dyn: DynamicsParams) -> np.ndarray:
    """Targeting reparameterization W = (I - A - B) lam.

    Raises TargetingError naming the offending equation(s) when any implied
    intercept is non-positive, which marks the invalid region of the targeted
    parameter space.
    """
    lam = gamma.lam if isinstance(gamma, SpectralTarget) else np.asarray(gamma, dtype=float)
    W = (np.eye(dyn.p) - dyn.persistence()) @ lam
    bad = np.flatnonzero(W <= 0)
    if bad.size:
        raise TargetingError(
            f"targeting positivity violated in equation(s) {bad.tolist()}: "
            f"implied intercepts {W[bad].tolist()}",
            equations=bad.tolist(),
        )
    return W


def linear_recursion(c: np.ndarray, b: float, reverse: bool = False) -> np.ndarray:
    """First-order linear recursion along the first axis of ``c``.

    Forward: s_0 = c_0 and s_t = c_t + b s_{t-1}, the eigenvalue path and its
    forward derivatives. Reverse: r_{T-1} = c_{T-1} and r_t = c_t + b r_{t+1},
    the adjoint that carries a criterion's sensitivities back in time. Both
    return C-contiguous arrays, which BLAS takes in a product; a reversed
    view would not.
    """
    if reverse:
        return np.ascontiguousarray(lfilter([1.0], [1.0, -b], c[::-1], axis=0)[::-1])
    return lfilter([1.0], [1.0, -b], c, axis=0)


@single_threaded
def filter_eigenvalues(
    spec: ModelSpec,
    Y: np.ndarray,
    init: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Run the eigenvalue recursion over rotated returns Y; returns the T x p path.

    lam[0] is ``init`` when given (a strictly positive p-vector), else the
    unconditional eigenvalues (the intercepts when those do not exist); for
    t >= 1, lam[i, t] = w_i + sum_j a_ij y_{j,t-1}^2 + b_i lam[i, t-1].
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if not np.all(np.isfinite(Y)):
        t_bad = int(np.flatnonzero(~np.all(np.isfinite(Y), axis=1))[0])
        raise ValidationError(f"non-finite rotated return at t={t_bad}")
    if init is None:
        lam0 = spec.lam if spec.lam is not None else spec.W
    else:
        lam0 = np.atleast_1d(np.asarray(init, dtype=float))
        if lam0.shape != (spec.p,) or (lam0 <= 0).any():
            raise ValidationError("fixed initialization must be a strictly positive p-vector")
    T, p = Y.shape
    drive = Y[:-1] ** 2 @ spec.dynamics.A.T  # row t-1 feeds lam_t
    lam_t = np.empty((T, p))
    for i in range(p):
        c = np.empty(T)
        c[0] = lam0[i]
        c[1:] = spec.W[i] + drive[:, i]
        lam_t[:, i] = linear_recursion(c, spec.dynamics.b[i])
    if not np.all(np.isfinite(lam_t)):
        t_bad = int(np.flatnonzero(~np.all(np.isfinite(lam_t), axis=1))[0])
        raise ValidationError(f"eigenvalue recursion became non-finite at t={t_bad}")
    return lam_t


@single_threaded
def simulate_path(
    spec: ModelSpec,
    T: int,
    burn_in: int = 1000,
    rng_seed: Optional[int] = 0,
    allow_nonstationary: bool = False,
    innovations: Optional[np.ndarray] = None,
    return_internals: bool = False,
):
    """Simulate returns X_t = V diag(lam_t)^(1/2) Z_t with Gaussian innovations.

    The eigenvalue path starts at the unconditional eigenvalues (at the
    intercepts when those do not exist) and the first ``burn_in`` draws are
    discarded. ``innovations`` is a test hook: a (burn_in + T) x p array used
    in place of random draws.

    Returns the T x p return matrix, or a (X, Y, lam_path, Z) tuple when
    ``return_internals`` is set.
    """
    if T < 1 or burn_in < 0:
        raise ValidationError(
            f"need T >= 1 and burn_in >= 0, got T={T}, burn_in={burn_in}"
        )
    if spec.lam is None and not allow_nonstationary:
        raise NonstationaryError(
            "rho(A+B) >= 1; pass allow_nonstationary=True to simulate anyway"
        )
    p = spec.p
    n_total = burn_in + T
    if innovations is not None:
        Z = np.asarray(innovations, dtype=float)
        if Z.shape != (n_total, p):
            raise ValidationError(f"innovations must have shape {(n_total, p)}")
    else:
        rng = np.random.default_rng(rng_seed)
        Z = rng.standard_normal((n_total, p))
    Y = np.empty((n_total, p))
    lam_path = np.empty((n_total, p)) if return_internals else None
    _advance_paths(spec, Z[None], Y[None], None if lam_path is None else lam_path[None])
    X = Y @ spec.V.T
    if return_internals:
        return X[burn_in:], Y[burn_in:], lam_path[burn_in:], Z[burn_in:]
    return X[burn_in:]


def _advance_paths(spec: ModelSpec, Z: np.ndarray, Y: np.ndarray,
                   lam_path: Optional[np.ndarray] = None) -> None:
    """Run N eigenvalue paths through their innovations in one loop over time.

    ``Z`` is an (N, n, p) block of innovations. The rotated returns
    Y_t = lam_t^(1/2) Z_t go to ``Y``, which may be ``Z`` itself, and the
    eigenvalues in force at each step to ``lam_path`` when given. Paths
    start at the unconditional eigenvalues (the intercepts when those do
    not exist). A diagonal A is an elementwise product; a full A is one
    matrix-vector product per path, which rounds as that path's own
    ``A @ y**2`` does, so no path depends on the others in its block.
    """
    A, b, W = spec.dynamics.A, spec.dynamics.b, spec.W
    a = np.diag(A) if spec.dynamics.diag_a else None
    lam = np.tile(spec.lam if spec.lam is not None else W, (Z.shape[0], 1))
    # iterating time-major views costs less per step than indexing Z[:, t]
    lam_rows = itertools.repeat(None) if lam_path is None else lam_path.swapaxes(0, 1)
    for z, y, lam_row in zip(Z.swapaxes(0, 1), Y.swapaxes(0, 1), lam_rows):
        if lam_row is not None:
            lam_row[...] = lam
        y2 = np.multiply(np.sqrt(lam), z, y) ** 2
        drive = a * y2 if a is not None else np.matmul(A, y2[:, :, None])[:, :, 0]
        lam = W + drive + b * lam


def moment_order_check(
    dyn: DynamicsParams, k: int, kurtosis: float = 3.0
) -> dict:
    """Finite-moment condition rho(E[(A diag(Z^2) + B)^(x k)]) < 1.

    Assembles the Kronecker-power expectation exactly from coordinate
    independence of Z with E[z^2] = 1 and E[z^4] = ``kurtosis``; k = 1 checks
    second moments of the returns, k = 2 fourth moments.
    """
    if k not in (1, 2):
        raise ValidationError(f"moment order k must be 1 or 2, got {k}")
    A, B = dyn.A, dyn.B
    if k == 1:
        radius = spectral_radius(A + B)
    else:
        p = dyn.p
        # E[diag(Z^2) kron diag(Z^2)] is diagonal: kurtosis where the two
        # coordinates coincide, 1 elsewhere.
        m = np.ones(p * p)
        for i in range(p):
            m[i * p + i] = kurtosis
        expect = np.kron(A, A) * m[np.newaxis, :]
        expect += np.kron(A, B) + np.kron(B, A) + np.kron(B, B)
        radius = spectral_radius(expect)
    return {"satisfied": bool(radius < 1.0), "radius": float(radius)}


def lyapunov_estimate(
    dyn: DynamicsParams, n_steps: int = 100_000, rng_seed: Optional[int] = 0
) -> float:
    """Monte Carlo top Lyapunov coefficient of A diag(Z_t^2) + B.

    Sequential products with per-step renormalization; a negative value
    indicates strict stationarity of the return process. Guarded with a floor
    for degenerate (zero) dynamics.
    """
    if n_steps < 10_000:
        raise ValidationError("n_steps must be at least 10^4")
    rng = np.random.default_rng(rng_seed)
    A, B = dyn.A, dyn.B
    p = dyn.p
    Q = np.eye(p) / np.sqrt(p)
    acc = 0.0
    for _ in range(n_steps):
        z2 = rng.standard_normal(p) ** 2
        Q = (A * z2) @ Q + B @ Q
        norm = np.linalg.norm(Q)
        if norm <= 0.0 or not np.isfinite(norm):
            return LYAPUNOV_FLOOR
        acc += np.log(norm)
        Q /= norm
    return float(acc / n_steps)

# Walkthrough: defining an eigenvalue-GARCH process and simulating from it.
#
# The conditional covariance is H_t = V diag(lam_t) V'. The eigenvectors V
# stay constant; the eigenvalues follow a GARCH recursion with spill-overs:
# lam_t = W + A Y_{t-1}^2 + B lam_{t-1}, where Y_t = V'X_t are the returns
# expressed in the eigenvector basis.

import numpy as np

from eigengarch import (
    DynamicsParams,
    ModelSpec,
    filter_eigenvalues,
    givens_product,
    lyapunov_estimate,
    moment_order_check,
    rotate_returns,
    sample_covariance,
    simulate_path,
    spectral_radius,
)

# eigenvectors from a single plane rotation; eigenvalue dynamics with a
# little cross-equation spill-over and moderate persistence
V = givens_product([0.47], 2)
dynamics = DynamicsParams(A=np.array([[0.10, 0.03], [0.02, 0.08]]),
                          b=np.array([0.80, 0.78]))
spec = ModelSpec.from_intercepts(V, W=np.array([0.20, 0.08]), dynamics=dynamics)

print("persistence rho(A+B):", spectral_radius(dynamics.persistence()))
print("unconditional eigenvalues:", spec.lam)

# moment diagnostics: k=1 checks finite variance of the returns, k=2 finite
# fourth moments (needed for asymptotically normal two-step estimates)
print("second moments:", moment_order_check(dynamics, k=1))
print("fourth moments:", moment_order_check(dynamics, k=2))

# the top Lyapunov coefficient of the random recursion matrices is negative
# exactly when the process is strictly stationary
print("Lyapunov estimate:", lyapunov_estimate(dynamics, n_steps=50_000, rng_seed=0))

# simulate a long path and compare the sample second moments with the targets
X = simulate_path(spec, T=200_000, burn_in=1000, rng_seed=1)
H_hat = sample_covariance(X)
print("\nsample covariance:\n", H_hat.values.round(4))
print("model covariance:\n", ((V * spec.lam) @ V.T).round(4))

# filtering returns through the recursion recovers the volatility state
Y = rotate_returns(X, V)
path = filter_eigenvalues(spec, Y)
print("\nfiltered eigenvalue path: mean", path.mean(axis=0).round(4),
      "vs unconditional", spec.lam.round(4))

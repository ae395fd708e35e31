"""Output checks for the benchmark workloads.

Every check compares the program's output with a computation made here,
apart from the program, or with a property the method must have. None
compares with a stored copy of earlier output. Each returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom, norm


def _rel(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))
                 / max(1.0, float(np.max(np.abs(b)))))


# ---------------------------------------------------------------- estimation


def eigen_paths(X, lam, V, kappas, W) -> tuple[np.ndarray, np.ndarray]:
    """Conditional eigenvalues by a plain loop over time.

    lam_0 = lam (the targets), lam_t = W + A Y_{t-1}^2 + b lam_{t-1} with
    Y = X V. Returns (Y, lam_path), both T x p.
    """
    Y = X @ V
    A, b = kappas[:, :-1], kappas[:, -1]
    path = np.empty_like(Y)
    cur = np.array(lam, dtype=float)
    for t in range(Y.shape[0]):
        path[t] = cur
        cur = W + A @ (Y[t] ** 2) + b * cur
    return Y, path


def check_first_step(X, lam, V) -> list[str]:
    """V is orthonormal and V diag(lam) V' equals X'X/T."""
    out = []
    p = V.shape[0]
    err = _rel(V.T @ V, np.eye(p))
    if err > 1e-10:
        out.append(f"V'V differs from I by {err:.2e}")
    H = np.einsum("ti,tj->ij", X, X) / X.shape[0]
    err = _rel((V * lam) @ V.T, H)
    if err > 1e-10:
        out.append(f"V diag(lam) V' differs from X'X/T by {err:.2e}")
    if not np.all(np.diff(lam) >= 0) or lam[0] <= 0:
        out.append("eigenvalues are not positive and non-decreasing")
    return out


def check_joint_nll(X, lam, V, kappas, W, equation_nlls) -> list[str]:
    """The equation NLLs sum to the joint Gaussian NLL built from H_t."""
    _, path = eigen_paths(X, lam, V, kappas, W)
    total = 0.0
    for t in range(X.shape[0]):
        H = (V * path[t]) @ V.T
        _, logdet = np.linalg.slogdet(H)
        total += logdet + float(X[t] @ np.linalg.solve(H, X[t]))
    joint = total / X.shape[0]
    eq_sum = float(np.sum(equation_nlls))
    if not abs(joint - eq_sum) <= 1e-8 * max(1.0, abs(joint)):
        return [f"sum of equation NLLs {eq_sum:.12f} != joint NLL {joint:.12f}"]
    return []


def equation_nlls_at(X, lam, V, kappas) -> np.ndarray:
    """Per-equation criterion (1/T) sum log lam_it + y_it^2 / lam_it.

    The intercepts follow from targeting: w_i = (1 - b_i) lam_i - a_i' lam.
    """
    W = (1.0 - kappas[:, -1]) * lam - kappas[:, :-1] @ lam
    Y, path = eigen_paths(X, lam, V, kappas, W)
    return np.mean(np.log(path) + Y**2 / path, axis=0)


def check_below_truth(X, lam, V, kappas, equation_nlls, true_kappas) -> list[str]:
    """Each fitted equation NLL is at most the NLL at the true (a, b).

    The truth is feasible under the fit's own targets, so the minimum of
    each equation criterion cannot lie above it.
    """
    at_truth = equation_nlls_at(X, lam, V, true_kappas)
    fitted = equation_nlls_at(X, lam, V, kappas)
    out = []
    if _rel(fitted, np.asarray(equation_nlls)) > 1e-9:
        out.append("reported equation NLLs differ from the NLLs at the fitted kappas")
    bad = np.flatnonzero(np.asarray(equation_nlls) > at_truth + 1e-9)
    if bad.size:
        out.append(f"equations {bad.tolist()} fit above the NLL at the true parameters")
    return out


def check_nested(full_nlls, diag_nlls) -> list[str]:
    """Full-A NLL <= diagonal-A NLL per equation (diagonal A is nested)."""
    bad = np.flatnonzero(np.asarray(full_nlls) > np.asarray(diag_nlls) + 1e-9)
    if bad.size:
        return [f"full-A NLL above diagonal-A NLL in equations {bad.tolist()}"]
    return []


def check_intercepts(lam, kappas, W) -> list[str]:
    """Intercepts are positive and equal (1 - b_i) lam_i - a_i' lam."""
    out = []
    implied = (1.0 - kappas[:, -1]) * lam - kappas[:, :-1] @ lam
    if _rel(W, implied) > 1e-12:
        out.append("intercepts do not match the targeting identity")
    if not np.all(np.asarray(W) > 0):
        out.append("non-positive implied intercept")
    return out


def check_sandwich(Sigma, se, se_w) -> list[str]:
    """Sigma is symmetric PSD; the standard errors are finite and positive."""
    out = []
    scale = max(float(np.max(np.abs(Sigma))), 1e-300)
    if float(np.max(np.abs(Sigma - Sigma.T))) > 1e-12 * scale:
        out.append("Sigma is not symmetric")
    if float(np.linalg.eigvalsh(0.5 * (Sigma + Sigma.T)).min()) < -1e-8 * scale:
        out.append("Sigma is not positive semi-definite")
    if not (np.all(np.isfinite(se)) and np.all(se > 0)):
        out.append("standard errors are not finite and positive")
    if not (math.isfinite(se_w) and se_w > 0):
        out.append("intercept standard error is not finite and positive")
    return out


# ------------------------------------------------------------------ backtest


def _lr_bernoulli(n1: int, n0: int, prob: float) -> float:
    return (n1 * math.log(prob) if n1 else 0.0) + (n0 * math.log1p(-prob) if n0 else 0.0)


def _chi2_sf_1(x: float) -> float:
    return math.erfc(math.sqrt(max(x, 0.0) / 2.0))


def coverage_statistics(hits, alpha: float) -> dict:
    """Christoffersen LR statistics recomputed from the hit counts."""
    hits = np.asarray(hits, dtype=int)
    n1 = int(hits.sum())
    n0 = hits.size - n1
    pi = n1 / hits.size
    lr_uc = -2.0 * (_lr_bernoulli(n1, n0, alpha) - _lr_bernoulli(n1, n0, pi))
    out = {"lr_uc": lr_uc, "p_uc": _chi2_sf_1(lr_uc)}
    if n1 in (0, hits.size):
        return out
    prev, curr = hits[:-1], hits[1:]
    n01 = int(np.sum((prev == 0) & (curr == 1)))
    n00 = int(np.sum((prev == 0) & (curr == 0)))
    n11 = int(np.sum((prev == 1) & (curr == 1)))
    n10 = int(np.sum((prev == 1) & (curr == 0)))
    pooled = (n01 + n11) / (hits.size - 1)
    p01 = n01 / (n00 + n01) if n00 + n01 else 0.0
    p11 = n11 / (n10 + n11) if n10 + n11 else 0.0
    null = _lr_bernoulli(n01 + n11, n00 + n10, pooled) if 0 < pooled < 1 else 0.0
    alt = ((_lr_bernoulli(n01, n00, p01) if 0 < p01 < 1 else 0.0)
           + (_lr_bernoulli(n11, n10, p11) if 0 < p11 < 1 else 0.0))
    lr_ind = max(0.0, -2.0 * (null - alt))
    lr_cc = lr_uc + lr_ind
    out.update({
        "lr_ind": lr_ind, "p_ind": _chi2_sf_1(lr_ind),
        "lr_cc": lr_cc, "p_cc": math.exp(-lr_cc / 2.0),
    })
    return out


def check_portfolio(pf, w, block_returns, true_lam, V, alpha: float) -> list[str]:
    """One portfolio of a one-step backtest against independent figures.

    ``block_returns`` are the out-of-sample return rows, ``true_lam`` the
    simulated conditional eigenvalues on those rows. The true VaR is
    z_alpha * sqrt(w'V diag(lam_t) V'w), with z_alpha = 1.645 at alpha = 0.05.
    """
    out = []
    realized = block_returns @ w
    if _rel(pf.realized, realized) > 1e-12:
        out.append(f"{pf.name}: realized returns differ from w'X_t")
    hits = (realized <= -pf.var_path).astype(int)
    if not np.array_equal(hits, pf.hits):
        out.append(f"{pf.name}: hit sequence differs from realized <= -VaR")
    n = hits.size
    lo = int(binom.ppf(1e-6, n, alpha))
    hi = int(binom.isf(1e-6, n, alpha))
    if not lo <= int(hits.sum()) <= hi:
        out.append(f"{pf.name}: {int(hits.sum())} hits in {n} outside [{lo}, {hi}]")
    ref = coverage_statistics(hits, alpha)
    for key, value in ref.items():
        got = getattr(pf, key)
        if got is None or not math.isclose(got, value, rel_tol=1e-9, abs_tol=1e-12):
            out.append(f"{pf.name}: {key} {got} != recomputed {value}")
    true_var = norm.isf(alpha) * np.sqrt(true_lam @ (V.T @ w) ** 2)
    ratio = pf.var_path / true_var
    if not np.all((ratio > 0.5) & (ratio < 2.0)):
        out.append(f"{pf.name}: FHS VaR leaves [0.5, 2] x true VaR "
                   f"(range {ratio.min():.3f}..{ratio.max():.3f})")
    if not 0.8 < float(np.median(ratio)) < 1.25:
        out.append(f"{pf.name}: median FHS/true VaR ratio {np.median(ratio):.3f}")
    return out


# ------------------------------------------------------------------- studies


def check_joint_below_two_step(qmle_nll: float, ste_nll: float) -> list[str]:
    """The joint QMLE minimises the joint criterion the two-step fit enters."""
    if qmle_nll > ste_nll + 1e-9:
        return [f"joint QMLE NLL {qmle_nll:.10f} above two-step NLL {ste_nll:.10f}"]
    return []


def check_truth_band(name, lam, kappas, true_lam, true_a, true_b) -> list[str]:
    """Eigenvalues within 25% of the truth; median a and b near the truth."""
    out = []
    ratio = np.asarray(lam) / np.asarray(true_lam)
    if not np.all((ratio > 0.75) & (ratio < 1.25)):
        out.append(f"{name}: eigenvalue/true ratios {np.round(ratio, 3).tolist()}")
    a = float(np.median(np.diag(kappas[:, :-1])))
    b = float(np.median(kappas[:, -1]))
    if abs(a - true_a) > 0.05:
        out.append(f"{name}: median a {a:.4f} vs true {true_a}")
    if abs(b - true_b) > 0.15:
        out.append(f"{name}: median b {b:.4f} vs true {true_b}")
    return out


def check_density(w1, a11, truth_w1: float, truth_a11: float) -> list[str]:
    """Median absolute errors inside the consistency bands of the paper's
    case 1 (0.10 for the intercept, 0.03 for the ARCH coefficient)."""
    out = []
    err_w = float(np.median(np.abs(np.asarray(w1) - truth_w1)))
    err_a = float(np.median(np.abs(np.asarray(a11) - truth_a11)))
    if not err_w < 0.10:
        out.append(f"density study: median |w1 - truth| = {err_w:.4f}")
    if not err_a < 0.03:
        out.append(f"density study: median |a11 - truth| = {err_a:.4f}")
    return out

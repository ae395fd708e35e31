"""Each output check passes a correct output and rejects a corrupted one.

Run from the root of the repository:

    python3 -m pytest perfbench/test_checks.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from eigengarch import estimation, experiments, inference, model, risk  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

P = 3
TRUTH = np.hstack([0.05 * np.eye(P), np.full((P, 1), 0.85)])


@pytest.fixture(scope="module")
def fitted():
    spec = experiments.diagonal_benchmark_spec(P)
    X = model.simulate_path(spec, T=1500, burn_in=500, rng_seed=3)
    fit = estimation.fit_spectral_targeting(X, diag_a=True)
    return X, fit


@pytest.fixture(scope="module")
def backtest():
    spec = experiments.diagonal_benchmark_spec(P)
    window, origins = 600, 200
    X, _, lam, _ = model.simulate_path(spec, T=window + origins, burn_in=500,
                                       rng_seed=4, return_internals=True)
    w = np.array([0.5, 0.3, 0.2])
    rep = risk.rolling_backtest(X, [w], window=window, refit_every=100, diag_a=True,
                                n_draws=2000, rng_seed=1)
    return rep.portfolios[0], w, X[window:], lam[window:], spec.V


def test_first_step(fitted):
    X, fit = fitted
    lam, V = fit.target.lam, fit.target.V
    assert checks.check_first_step(X, lam, V) == []
    assert checks.check_first_step(X, lam, V[:, [1, 0, 2]])        # swapped eigenvectors
    assert checks.check_first_step(X, lam * 1.001, V)               # perturbed eigenvalues


def test_joint_nll(fitted):
    X, fit = fitted
    lam, V = fit.target.lam, fit.target.V
    assert checks.check_joint_nll(X, lam, V, fit.kappas, fit.W, fit.equation_nlls) == []
    bad = fit.kappas.copy()
    bad[0, 0] += 0.01                                               # perturbed kappa
    assert checks.check_joint_nll(X, lam, V, bad, fit.W, fit.equation_nlls)


def test_below_truth(fitted):
    X, fit = fitted
    lam, V = fit.target.lam, fit.target.V
    assert checks.check_below_truth(X, lam, V, fit.kappas, fit.equation_nlls, TRUTH) == []
    bad = fit.kappas.copy()
    bad[:, -1] = 0.3                                                # a worse, self-consistent fit
    bad_nlls = checks.equation_nlls_at(X, lam, V, bad)
    assert checks.check_below_truth(X, lam, V, bad, bad_nlls, TRUTH)
    assert checks.check_below_truth(X, lam, V, fit.kappas, fit.equation_nlls + 1e-6, TRUTH)


def test_nested():
    diag = np.array([-1.0, -2.0, -3.0])
    assert checks.check_nested(diag - 1e-4, diag) == []
    assert checks.check_nested(diag + np.array([0.0, 1e-6, 0.0]), diag)


def test_intercepts(fitted):
    _, fit = fitted
    assert checks.check_intercepts(fit.target.lam, fit.kappas, fit.W) == []
    assert checks.check_intercepts(fit.target.lam, fit.kappas, -fit.W)
    assert checks.check_intercepts(fit.target.lam, fit.kappas, fit.W * 1.01)


def test_sandwich(fitted):
    X, fit = fitted
    inf = inference.sandwich_sigma(inference.sandwich_blocks(fit, X, 0))
    se_w = inference.intercept_delta(fit, inf, 0)
    assert checks.check_sandwich(inf.Sigma, inf.se, se_w) == []
    asym = inf.Sigma.copy()
    asym[0, 1] += 1e-3 * np.abs(asym).max()
    assert checks.check_sandwich(asym, inf.se, se_w)
    vals, vecs = np.linalg.eigh(inf.Sigma)
    vals[-1] = -vals[-1]                                            # indefinite Sigma
    assert checks.check_sandwich((vecs * vals) @ vecs.T, inf.se, se_w)
    assert checks.check_sandwich(inf.Sigma, np.where(np.arange(inf.se.size) == 2,
                                                     np.nan, inf.se), se_w)
    assert checks.check_sandwich(inf.Sigma, inf.se, -se_w)


def test_coverage_statistics_match_program():
    rng = np.random.default_rng(0)
    for _ in range(20):
        hits = (rng.random(300) < 0.07).astype(int)
        ref = checks.coverage_statistics(hits, 0.05)
        got = risk.christoffersen_tests(hits, 0.05)
        for key, value in ref.items():
            assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-14)


def test_portfolio(backtest):
    pf, w, block, lam, V = backtest
    assert checks.check_portfolio(pf, w, block, lam, V, 0.05) == []

    def corrupt(**changes):
        bad = risk.PortfolioBacktest(**{**pf.__dict__, **changes})
        return checks.check_portfolio(bad, w, block, lam, V, 0.05)

    assert corrupt(var_path=-pf.var_path)                           # flipped VaR sign
    assert corrupt(var_path=pf.var_path * 3.0)                      # VaR off the truth
    assert corrupt(lr_uc=pf.lr_uc + 0.5)                            # wrong statistic
    assert corrupt(p_cc=min(1.0, pf.p_cc * 1.1 + 0.01))
    flipped = pf.hits.copy()
    flipped[0] = 1 - flipped[0]
    assert corrupt(hits=flipped)
    assert corrupt(realized=pf.realized + 1e-3)
    # a VaR far too small: hits everywhere, outside the binomial bounds
    assert any("hits in" in m for m in corrupt(var_path=pf.var_path * 0.01))


def test_joint_below_two_step():
    assert checks.check_joint_below_two_step(-1.9, -1.8) == []
    assert checks.check_joint_below_two_step(-1.8, -1.9)


def test_truth_band(fitted):
    _, fit = fitted
    true_lam = np.arange(1, P + 1) / 10.0
    assert checks.check_truth_band("STE", fit.target.lam, fit.kappas, true_lam, 0.05, 0.85) == []
    bad = fit.kappas.copy()
    bad[:, -1] = 0.4
    assert checks.check_truth_band("STE", fit.target.lam, bad, true_lam, 0.05, 0.85)
    assert checks.check_truth_band("STE", fit.target.lam[::-1], fit.kappas, true_lam, 0.05, 0.85)


def test_density():
    rng = np.random.default_rng(1)
    w1 = 1.5 + 0.03 * rng.standard_normal(40)
    a11 = 0.33 + 0.01 * rng.standard_normal(40)
    assert checks.check_density(w1, a11, 1.5, 0.33) == []
    assert checks.check_density(w1, a11 + 0.1, 1.5, 0.33)
    assert checks.check_density(w1 - 0.5, a11, 1.5, 0.33)


def test_trace_covers_every_layer_metric(tmp_path):
    tracer = tracing.Tracer()
    original = estimation.fit_equation
    tracer.install()
    try:
        workloads.warm_up(tmp_path)
    finally:
        tracer.uninstall()
    assert estimation.fit_equation is original
    values, source = tracing.layer_metrics(tracer.spans)
    assert set(values) == set(tracing.LAYER_METRICS)
    assert set(source.values()) == {"setup"}
    assert values["inference.score_evals"] == 2 * (P + P * P) + 1
    assert values["risk.refits"] == 2
    assert all(v > 0 for v in values.values())

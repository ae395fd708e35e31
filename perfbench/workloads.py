"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, then runs whole
rounds of a fixed set of operations in ``run_round``, closed loop, one
operation at a time. The program is called through module attributes
(``estimation.fit_spectral_targeting`` and so on) so that the tracer's
wrappers see every call. ``check`` compares the outputs with the
independent computations in ``checks.py``; ``figures`` gives the
per-operation figures printed next to the metrics.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import numpy as np

from eigengarch import estimation, experiments, inference, model, panel, risk
from eigengarch.exceptions import ConvergenceError, InferenceError

import checks

class Ops:
    """Runs and times single operations; counts attempts and failures.

    A ConvergenceError or InferenceError is the program declining the
    operation: it counts as failed and its time is left out of the medians.
    Any other exception is a fault of the run and propagates.
    """

    def __init__(self):
        self.records: list[dict] = []

    def __call__(self, kind: str, fn, *args, **kwargs):
        rec = {"kind": kind, "ok": True}
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = fn(*args, **kwargs)
        except (ConvergenceError, InferenceError) as exc:
            rec["ok"] = False
            rec["error"] = f"{type(exc).__name__}: {exc}"
            result = None
        rec["wall"] = time.perf_counter() - w0
        rec["cpu"] = time.process_time() - c0
        self.records.append(rec)
        return result

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)

    def median_wall(self, kind: str) -> float:
        walls = [r["wall"] for r in self.records if r["kind"] == kind and r["ok"]]
        return statistics.median(walls) if walls else float("nan")

    def errors(self) -> list[str]:
        return sorted({f'{r["kind"]}: {r["error"]}' for r in self.records if not r["ok"]})


def csv_roundtrip(X: np.ndarray, labels, out_dir: Path) -> panel.ReturnPanel:
    """Write a panel to CSV and read it back, as a user's data would enter."""
    path = out_dir / f"panel-{os.getpid()}.csv"
    panel.write_panel_csv(panel.ReturnPanel(X, labels), path)
    try:
        return panel.load_returns_csv(path)
    finally:
        path.unlink()


def bundled_portfolios():
    """The five bundled portfolios and their 25 tickers, in file order."""
    weights = panel.load_weights_csv(panel.bundled_weights_path())
    return weights, tuple(weights[0][1])


def warm_up(out_dir: Path) -> None:
    """One small call into every layer, on fixed inputs.

    Lazy imports and first-call costs land here rather than in the first
    timed operation. Under tracing it also gives each layer a set-up span,
    which the per-layer metrics fall back on when a workload's rounds do not
    call that layer.
    """
    spec = experiments.diagonal_benchmark_spec(3)
    X = model.simulate_path(spec, T=600, burn_in=200, rng_seed=12345)
    P = csv_roundtrip(X, ("W1", "W2", "W3"), out_dir)
    fit = estimation.fit_spectral_targeting(P, diag_a=True)
    sigma = inference.sandwich_sigma(inference.sandwich_blocks(fit, P, 0))
    inference.intercept_delta(fit, sigma, 0)
    estimation.fit_joint_qmle(P.values[:, :2], diag_a=True)
    risk.rolling_backtest(P, [np.full(3, 1.0 / 3.0)], window=570, refit_every=15,
                          diag_a=True, n_draws=1000)
    experiments.run_density_study(1, N=2, T=500, seed=1)
    bundled_portfolios()


class EstimateP25:
    """STE fits of 25-asset panels at T=2500 plus standard errors.

    Per round: diagonal-A fits of a seeded panel and of a fixed one
    (simulate_path seed 1), the standard errors of one equation of the
    fixed panel's fit (equation 0 and 24 in turn), and the full-A fit of the
    fixed panel. Every round fits the same panels, so rounds repeat the same
    work.

    The fixed panel does not depend on the workload seed. Full-A fits and
    standard errors fail on some inputs, every time on those inputs (see
    README.md), and seeded inputs would make the failed count depend on the
    seed; on seed 1 every operation succeeds.
    """

    T = 2500
    SE_EQUATIONS = (0, 24)
    FIXED_SEED = 1

    def setup(self, seed: int, out_dir: Path) -> None:
        self.spec = experiments.diagonal_benchmark_spec(25)
        _, tickers = bundled_portfolios()

        def make(rng_seed):
            X = model.simulate_path(self.spec, T=self.T, burn_in=1000, rng_seed=rng_seed)
            return csv_roundtrip(X, tickers, out_dir)

        self.seeded = make(np.random.SeedSequence(seed))
        self.fixed = make(self.FIXED_SEED)
        self.seeded_fit = self.fixed_fit = self.full_fit = None
        self.se: dict = {}

    def _standard_errors(self, fit, P, i):
        inf = inference.sandwich_sigma(inference.sandwich_blocks(fit, P, i))
        return inf, inference.intercept_delta(fit, inf, i)

    def run_round(self, r: int, op: Ops) -> None:
        self.seeded_fit = op("fit_s", estimation.fit_spectral_targeting, self.seeded,
                             diag_a=True)
        fit = op("fit_s", estimation.fit_spectral_targeting, self.fixed, diag_a=True)
        self.fixed_fit = fit
        i = self.SE_EQUATIONS[r % len(self.SE_EQUATIONS)]
        self.se[i] = op("se_s", self._standard_errors, fit, self.fixed, i)
        self.full_fit = op("fit_full_s", estimation.fit_spectral_targeting, self.fixed)

    def _check_fit(self, fit, P) -> list[str]:
        X, lam, V = P.values, fit.target.lam, fit.target.V
        truth = np.hstack([0.05 * np.eye(25), np.full((25, 1), 0.85)])
        return (checks.check_first_step(X, lam, V)
                + checks.check_joint_nll(X, lam, V, fit.kappas, fit.W, fit.equation_nlls)
                + checks.check_below_truth(X, lam, V, fit.kappas, fit.equation_nlls, truth)
                + checks.check_intercepts(lam, fit.kappas, fit.W))

    def check(self) -> list[str]:
        out = []
        for fit, P in ((self.seeded_fit, self.seeded), (self.fixed_fit, self.fixed),
                       (self.full_fit, self.fixed)):
            if fit is not None:
                out += self._check_fit(fit, P)
        if self.full_fit is not None and self.fixed_fit is not None:
            out += checks.check_nested(self.full_fit.equation_nlls,
                                       self.fixed_fit.equation_nlls)
        for res in self.se.values():
            if res is not None:
                inf, se_w = res
                out += checks.check_sandwich(inf.Sigma, inf.se, se_w)
        return out

    def figures(self, op: Ops) -> dict:
        return {"fit_s": (op.median_wall("fit_s"), "s"),
                "fit_full_s": (op.median_wall("fit_full_s"), "s"),
                "se_s": (op.median_wall("se_s"), "s")}


class BacktestP25:
    """Rolling VaR backtest of the five bundled portfolios on 25 assets.

    Per round: one rolling_backtest over 250 one-step origins after a
    1200-row window, 10 000 FHS draws per origin and a diagonal-A refit
    every 50 origins (five refits).
    """

    WINDOW, ORIGINS, REFIT_EVERY, DRAWS, ALPHA = 1200, 250, 50, 10_000, 0.05
    POOL = 6  # seeded panels cycled round by round; a 40 s run does 7 to 9 rounds

    def setup(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.spec = experiments.diagonal_benchmark_spec(25)
        self.weights, tickers = bundled_portfolios()
        self.pool, self.true_lam = [], []
        for s in np.random.SeedSequence(seed).spawn(self.POOL):
            X, _, lam, _ = model.simulate_path(
                self.spec, T=self.WINDOW + self.ORIGINS, burn_in=1000, rng_seed=s,
                return_internals=True)
            self.pool.append(csv_roundtrip(X, tickers, out_dir))
            self.true_lam.append(lam[self.WINDOW:])
        self.reports: dict = {}

    def run_round(self, r: int, op: Ops) -> None:
        k = r % self.POOL
        self.reports[k] = op(
            "backtest", risk.rolling_backtest, self.pool[k], self.weights,
            window=self.WINDOW, horizon=1, alpha=self.ALPHA,
            refit_every=self.REFIT_EVERY, diag_a=True, n_draws=self.DRAWS,
            rng_seed=self.seed)

    def check(self) -> list[str]:
        out = []
        for k, rep in self.reports.items():
            if rep is None:
                continue
            refits = -(-self.ORIGINS // self.REFIT_EVERY)
            if rep.n_forecasts != self.ORIGINS or len(rep.refit_seconds) != refits:
                out.append(f"backtest {k}: {rep.n_forecasts} origins, "
                           f"{len(rep.refit_seconds)} refits")
            P = self.pool[k]
            for pf, (_, wmap) in zip(rep.portfolios, self.weights):
                w = np.array([wmap[c] for c in P.labels])
                out += checks.check_portfolio(pf, w, P.values[self.WINDOW:],
                                              self.true_lam[k], self.spec.V, self.ALPHA)
        return out

    def figures(self, op: Ops) -> dict:
        return {"backtest_origins_per_s": (self.ORIGINS / op.median_wall("backtest"), "1/s")}


def _converged_qmle(X):
    """Joint QMLE that refuses to hand back a fit that did not converge."""
    fit = estimation.fit_joint_qmle(X, diag_a=True)
    if not fit.converged:
        raise ConvergenceError("joint QMLE did not converge")
    return fit


class Studies:
    """The simulation studies at desk scale.

    Per round: two p=5, T=2000 replications of the diagonal benchmark
    process, each simulated and fitted by STE and by the joint QMLE
    (diagonal A), and one case-1 density study of 8 replications at
    T=10 000 on one worker, seeded from the workload seed and the round.

    The efficiency-study replications do not depend on the seed. The joint
    QMLE's cost differs from one replication to the next (1.2 to 1.7 s per
    fit, 74 to 132 iterations per start, measured at p=5), and the dozen
    fits a run has time for would carry that into the median; on fixed
    replications every round does the same work.
    """

    P, T, DENSITY_N, DENSITY_T = 5, 2000, 8, 10_000
    REPLICATION_SEEDS = (0, 1)

    def setup(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.spec = experiments.diagonal_benchmark_spec(self.P)
        self.pairs: dict = {}
        self.densities: dict = {}
        # One untimed pass of the round's replications. Without it this
        # workload's set-up is four fifths imports, whose time moves with the
        # host more than computing does.
        for rep in self.REPLICATION_SEEDS:
            X = model.simulate_path(self.spec, T=self.T, burn_in=1000, rng_seed=rep)
            estimation.fit_spectral_targeting(X, diag_a=True)
            estimation.fit_joint_qmle(X, diag_a=True)

    def run_round(self, r: int, op: Ops) -> None:
        for rep in self.REPLICATION_SEEDS:
            X = model.simulate_path(self.spec, T=self.T, burn_in=1000, rng_seed=rep)
            ste = op("fit_s", estimation.fit_spectral_targeting, X, diag_a=True)
            qmle = op("qmle_fit_s", _converged_qmle, X)
            self.pairs[rep] = (ste, qmle)
        self.densities[r] = op("density", experiments.run_density_study, 1,
                               N=self.DENSITY_N, T=self.DENSITY_T, seed=[self.seed, r])

    def check(self) -> list[str]:
        out = []
        true_lam = self.spec.lam[::-1]  # identified order: ascending
        for ste, qmle in self.pairs.values():
            if ste is None or qmle is None:
                continue
            out += checks.check_joint_below_two_step(qmle.total_nll, ste.total_nll)
            for name, fit in (("STE", ste), ("QMLE", qmle)):
                out += checks.check_truth_band(name, fit.target.lam, fit.kappas,
                                               true_lam, 0.05, 0.85)
        done = [d for d in self.densities.values() if d is not None]
        if done:
            out += checks.check_density(np.concatenate([d.w1 for d in done]),
                                        np.concatenate([d.a11 for d in done]),
                                        done[0].truth_w1, done[0].truth_a11)
        return out

    def figures(self, op: Ops) -> dict:
        return {"fit_s": (op.median_wall("fit_s"), "s"),
                "qmle_fit_s": (op.median_wall("qmle_fit_s"), "s"),
                "density_reps_per_s": (self.DENSITY_N / op.median_wall("density"), "1/s")}


WORKLOADS = {"estimate_p25": EstimateP25, "backtest_p25": BacktestP25, "studies": Studies}

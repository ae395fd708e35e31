"""Command-line interface.

Subcommands: simulate, estimate, forecast, backtest, bench-re,
density-study. Flags override a flat JSON config file passed with
--config. Exit codes: 0 success, 2 validation error, 3 convergence
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from ._blas import pinned_thread_counts
from .exceptions import ConvergenceError, InferenceError, ValidationError
from .estimation import fit_joint_qmle, fit_spectral_targeting
from .experiments import (
    ExperimentConfig,
    density_case_spec,
    diagonal_benchmark_spec,
    run_density_study,
    run_relative_efficiency,
)
from .inference import intercept_delta, sandwich_blocks, sandwich_sigma
from .model import simulate_path
from .panel import (
    ReturnPanel,
    align_weights,
    bundled_weights_path,
    load_returns_csv,
    load_weights_csv,
    write_panel_csv,
)
from .risk import fhs_cumulative_returns, rolling_backtest, var_from_distribution

DESK_SCALE_REPS = 100
FULL_SCALE_RE_REPS = 399
FULL_SCALE_DENSITY_REPS = 10_000


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # missing, unreadable or malformed JSON
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a flat JSON object")
    return cfg


class _Options:
    """Flag values with config-file fallback: flag > config > default."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._config = _load_config(self._args.get("config"))

    def get(self, key, default=None):
        val = self._args.get(key)
        if val is None or val is False:
            return self._config.get(key, default if val is None else val)
        return val


def _out_dir(opts: _Options) -> Path:
    out = Path(opts.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload: dict):
    """Write a JSON report, stamped with the BLAS thread counts it ran under."""
    with open(path, "w") as fh:
        json.dump({**payload, "blas_threads": pinned_thread_counts()}, fh,
                  indent=2, sort_keys=True)
    print(f"wrote {path}")


def _load_panel(opts: _Options) -> ReturnPanel:
    path = opts.get("input")
    if path is None:
        raise ValidationError("--input <csv> is required")
    panel = load_returns_csv(path)
    if opts.get("demean", False):
        panel = panel.demeaned()
    return panel


def _load_weight_list(opts: _Options, panel: ReturnPanel):
    path = opts.get("weights")
    if path is None:
        if panel.p == 25:
            path = bundled_weights_path()
        else:
            return [("EW", np.full(panel.p, 1.0 / panel.p))]
    return [(name, align_weights(wmap, panel.labels))
            for name, wmap in load_weights_csv(path)]


def _fit(opts: _Options, panel: ReturnPanel):
    method = opts.get("method", "ste")
    diag_a = bool(opts.get("diag_a", False))
    if method == "ste":
        return fit_spectral_targeting(panel, diag_a=diag_a)
    if method == "qmle":
        return fit_joint_qmle(panel, diag_a=diag_a)
    raise ValidationError(f"unknown method {method!r}")


def _spec_for_dgp(name: str, p: int):
    if name in ("case1", "case2", "case3"):
        if p != 2:
            raise ValidationError(f"dgp {name} is bivariate: --p must be 2, got {p}")
        return density_case_spec(int(name[-1])), name == "case3"
    if name == "benchmark":
        return diagonal_benchmark_spec(p), False
    raise ValidationError(f"unknown dgp {name!r} (case1|case2|case3|benchmark)")


def cmd_simulate(opts: _Options) -> int:
    dgp = opts.get("dgp", "case1")
    p = int(opts.get("p", 2))
    T = int(opts.get("T", 2000))
    seed = int(opts.get("seed", 0))
    burn_in = int(opts.get("burn_in", 1000))
    spec, nonstat = _spec_for_dgp(dgp, p)
    allow = bool(opts.get("allow_nonstationary", False)) or nonstat
    X = simulate_path(spec, T=T, burn_in=burn_in, rng_seed=seed,
                      allow_nonstationary=allow)
    out = _out_dir(opts)
    panel = ReturnPanel(X, [f"A{j + 1}" for j in range(X.shape[1])])
    write_panel_csv(panel, out / "panel.csv")
    _write_json(out / "simulate_meta.json", {
        "dgp": dgp, "p": panel.p, "T": T, "seed": seed, "burn_in": burn_in,
    })
    print(f"wrote {out / 'panel.csv'}")
    return 0


def _fit_payload(fit) -> dict:
    return {
        "method": fit.method,
        "diag_a": fit.diag_a,
        "converged": fit.converged,
        "eigenvalues": fit.target.lam.tolist(),
        "eigenvectors": fit.target.V.tolist(),
        "kappas": fit.kappas.tolist(),
        "intercepts": fit.W.tolist(),
        "equation_nlls": fit.equation_nlls.tolist(),
        "total_nll": fit.total_nll,
        "near_repeated_eigenvalues": fit.target.near_repeated,
        "active_constraints": [
            d.active_constraints for d in fit.diagnostics
        ],
    }


def cmd_estimate(opts: _Options) -> int:
    panel = _load_panel(opts)
    fit = _fit(opts, panel)
    payload = _fit_payload(fit)
    payload["start_traces"] = [
        [{k: v for k, v in t.items() if k != "start"} for t in d.start_traces]
        for d in fit.diagnostics
    ]
    if not fit.converged:
        _write_json(_out_dir(opts) / "fit.json", payload)
        raise ConvergenceError(
            "estimation did not converge; partial report written to fit.json",
            traces=[d.start_traces for d in fit.diagnostics],
        )
    errors = []
    for i in range(fit.p):
        try:
            inf = sandwich_sigma(sandwich_blocks(fit, panel, i))
            errors.append({
                "equation": i,
                "se_kappa": inf.se_kappa.tolist(),
                "se_lambda": inf.se_gamma[: fit.p].tolist(),
                "w_se": intercept_delta(fit, inf, i),
            })
        except InferenceError as exc:
            errors.append({"equation": i, "unavailable": str(exc)})
    payload["standard_errors"] = errors
    _write_json(_out_dir(opts) / "fit.json", payload)
    return 0


def cmd_forecast(opts: _Options) -> int:
    panel = _load_panel(opts)
    fit = _fit(opts, panel)
    if not fit.converged:
        raise ConvergenceError(
            f"{fit.method} fit did not converge; no forecast written",
            traces=[d.start_traces for d in fit.diagnostics],
        )
    h = int(opts.get("horizon", 1))
    alpha = float(opts.get("alpha", 0.05))
    n_draws = int(opts.get("n_draws", 10_000))
    seed = int(opts.get("seed", 0))
    weights = _load_weight_list(opts, panel)
    # one scenario set, priced for every portfolio
    scenarios = fhs_cumulative_returns(
        fit, panel, h=h, n_draws=n_draws, rng_seed=seed,
        project=np.column_stack([w for _, w in weights]),
    )
    result = []
    for j, (name, _) in enumerate(weights):
        draws = scenarios[:, j]
        result.append({
            "portfolio": name,
            "var": var_from_distribution(draws, alpha),
            "mean": float(draws.mean()),
            # order statistics of the same convention as var: q05 == -var at 0.05
            "quantiles": {
                "q01": -var_from_distribution(draws, 0.01),
                "q05": -var_from_distribution(draws, 0.05),
                "q50": -var_from_distribution(draws, 0.50),
            },
        })
    _write_json(_out_dir(opts) / "forecast.json", {
        "horizon": h, "alpha": alpha, "n_draws": n_draws, "seed": seed,
        "method": fit.method, "portfolios": result,
    })
    return 0


def cmd_backtest(opts: _Options) -> int:
    panel = _load_panel(opts)
    weights = _load_weight_list(opts, panel)
    report = rolling_backtest(
        panel,
        weights,
        window=int(opts.get("window", 1200)),
        horizon=int(opts.get("horizon", 1)),
        alpha=float(opts.get("alpha", 0.05)),
        refit_every=(None if opts.get("refit_every") is None
                     else int(opts.get("refit_every"))),
        method=opts.get("method", "ste"),
        diag_a=bool(opts.get("diag_a", False)),
        n_draws=int(opts.get("n_draws", 10_000)),
        rng_seed=int(opts.get("seed", 0)),
    )
    out = _out_dir(opts)
    _write_json(out / "backtest.json", report.to_dict())
    path = out / "var_paths.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        head = ["step"]
        for pf in report.portfolios:
            head += [f"{pf.name}_realized", f"{pf.name}_var", f"{pf.name}_hit"]
        writer.writerow(head)
        for k in range(report.n_forecasts):
            row = [k]
            for pf in report.portfolios:
                row += [repr(float(pf.realized[k])), repr(float(pf.var_path[k])), int(pf.hits[k])]
            writer.writerow(row)
    print(f"wrote {path}")
    return 0


def cmd_bench_re(opts: _Options) -> int:
    dims = opts.get("dims", "2")
    if isinstance(dims, str):
        dims = [int(tok) for tok in dims.split(",") if tok]
    n_reps = opts.get("n_reps")
    if n_reps is None:
        n_reps = FULL_SCALE_RE_REPS if opts.get("full", False) else DESK_SCALE_REPS
    cfg = ExperimentConfig(
        dimensions=dims,
        n_replications=int(n_reps),
        T=int(opts.get("T", 2000)),
        seed=int(opts.get("seed", 0)),
        estimators=tuple(opts.get("estimators", "ste,qmle").split(",")),
    )
    rows = run_relative_efficiency(cfg)
    out = _out_dir(opts)
    path = out / "relative_efficiency.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "n_params", "time_qmle", "time_ste", "re", "flagged"])
        for r in rows:
            writer.writerow([
                r.p, r.n_params,
                "" if r.time_qmle is None else repr(r.time_qmle),
                repr(r.time_ste),
                "" if r.re is None else repr(r.re),
                int(r.flagged),
            ])
    _write_json(out / "relative_efficiency.json",
                {"rows": [r.to_dict() for r in rows],
                 "n_replications": cfg.n_replications, "T": cfg.T,
                 "seed": cfg.seed})
    print(f"wrote {path}")
    return 0


def cmd_density_study(opts: _Options) -> int:
    case = int(opts.get("case", 1))
    n_reps = opts.get("n_reps")
    if n_reps is None:
        n_reps = FULL_SCALE_DENSITY_REPS if opts.get("full", False) else DESK_SCALE_REPS
    res = run_density_study(
        case,
        N=int(n_reps),
        T=int(opts.get("T", 10_000)),
        seed=int(opts.get("seed", 0)),
        n_workers=int(opts.get("workers", 1)),
    )
    out = _out_dir(opts)
    _write_json(out / f"density_case{case}.json", res.summary())
    path = out / f"density_case{case}_samples.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["w1", "a11", "w1_standardized", "a11_standardized"])
        for k in range(res.w1.size):
            writer.writerow([repr(float(res.w1[k])), repr(float(res.a11[k])),
                             repr(float(res.w1_standardized[k])),
                             repr(float(res.a11_standardized[k]))])
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigengarch",
        description="Orthogonal GARCH with dynamic eigenvalues: estimation, "
                    "inference, forecasting and backtesting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat JSON config; flags override it")
        p.add_argument("--out", help="output directory (default: cwd)")
        p.add_argument("--seed", type=int, help="master RNG seed")

    p_sim = sub.add_parser("simulate", help="simulate a benchmark process to CSV")
    common(p_sim)
    p_sim.add_argument("--dgp", choices=["case1", "case2", "case3", "benchmark"])
    p_sim.add_argument("--p", type=int, help="dimension (benchmark dgp)")
    p_sim.add_argument("--T", type=int, help="sample length")
    p_sim.add_argument("--burn-in", dest="burn_in", type=int)
    p_sim.add_argument("--allow-nonstationary", action="store_true",
                       dest="allow_nonstationary")

    p_est = sub.add_parser("estimate", help="fit the model on a return panel")
    common(p_est)
    p_est.add_argument("--input", help="return panel CSV")
    p_est.add_argument("--method", choices=["ste", "qmle"])
    p_est.add_argument("--diag-a", dest="diag_a", action="store_true")
    p_est.add_argument("--demean", action="store_true")

    p_fc = sub.add_parser("forecast", help="filtered-simulation VaR forecast")
    common(p_fc)
    p_fc.add_argument("--input", help="return panel CSV")
    p_fc.add_argument("--weights", help="portfolio weights CSV")
    p_fc.add_argument("--method", choices=["ste", "qmle"])
    p_fc.add_argument("--diag-a", dest="diag_a", action="store_true")
    p_fc.add_argument("--demean", action="store_true")
    p_fc.add_argument("--horizon", type=int)
    p_fc.add_argument("--alpha", type=float)
    p_fc.add_argument("--n-draws", dest="n_draws", type=int)

    p_bt = sub.add_parser("backtest", help="rolling-window VaR backtest")
    common(p_bt)
    p_bt.add_argument("--input", help="return panel CSV")
    p_bt.add_argument("--weights", help="portfolio weights CSV")
    p_bt.add_argument("--method", choices=["ste", "qmle"])
    p_bt.add_argument("--diag-a", dest="diag_a", action="store_true")
    p_bt.add_argument("--demean", action="store_true")
    p_bt.add_argument("--window", type=int)
    p_bt.add_argument("--horizon", type=int)
    p_bt.add_argument("--alpha", type=float)
    p_bt.add_argument("--refit-every", dest="refit_every", type=int)
    p_bt.add_argument("--n-draws", dest="n_draws", type=int)

    p_re = sub.add_parser("bench-re", help="relative-efficiency study")
    common(p_re)
    p_re.add_argument("--dims", help="comma-separated dimensions, e.g. 2,4,6")
    p_re.add_argument("--n-reps", dest="n_reps", type=int)
    p_re.add_argument("--T", type=int)
    p_re.add_argument("--estimators", help="comma list from {ste,qmle}")
    p_re.add_argument("--full", action="store_true",
                      help="replication count of the full-scale study (slow)")

    p_ds = sub.add_parser("density-study", help="sampling-density study")
    common(p_ds)
    p_ds.add_argument("--case", type=int, choices=[1, 2, 3])
    p_ds.add_argument("--n-reps", dest="n_reps", type=int)
    p_ds.add_argument("--T", type=int)
    p_ds.add_argument("--workers", type=int)
    p_ds.add_argument("--full", action="store_true",
                      help="replication count of the full-scale study (slow)")
    return parser


COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "forecast": cmd_forecast,
    "backtest": cmd_backtest,
    "bench-re": cmd_bench_re,
    "density-study": cmd_density_study,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](_Options(args))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: simulate, estimate, forecast, backtest, bench-re,
density-study. A flat JSON config passed with --config supplies flags, and
explicit flags win. Exit codes: 0 success, 2 validation error (any bad flag
or config value included), 3 convergence failure.
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


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are validation errors (exit 2)."""

    def error(self, message):
        raise ValidationError(message)


def _config_flags(path, parser: argparse.ArgumentParser) -> list:
    """The entries of a flat JSON config that ``parser`` takes, as its flag tokens.

    A switch takes true or false, a list joins to a comma string, and any
    other entry is a string or a number. Keys the parser does not take are
    ignored.
    """
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # missing, unreadable or malformed JSON
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a flat JSON object")
    actions = {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}
    tokens = []
    for key, value in cfg.items():
        if key not in actions:
            continue
        flag = actions[key].option_strings[0]
        if isinstance(value, list):
            value = ",".join(map(str, value))
        switch = actions[key].nargs == 0
        if switch != isinstance(value, bool) or not isinstance(value, (bool, str, int, float)):
            raise ValidationError(f"config entry {key}: {flag} cannot take {value!r}"
                                  + (" (a switch takes true or false)" if switch else ""))
        if value is not False:
            tokens.append(flag if value is True else f"{flag}={value}")
    return tokens


def _write_json(path: Path, payload: dict):
    """Write a JSON report, stamped with the BLAS thread counts it ran under."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({**payload, "blas_threads": pinned_thread_counts()}, fh,
                  indent=2, sort_keys=True)
    print(f"wrote {path}")


def _write_csv(path: Path, head: list, rows):
    """Write a CSV table; csv writes each float in its shortest round-trip form."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(head)
        writer.writerows(rows)
    print(f"wrote {path}")


def _load_panel(args) -> ReturnPanel:
    if args.input is None:
        raise ValidationError("--input <csv> is required")
    panel = load_returns_csv(args.input)
    return panel.demeaned() if args.demean else panel


def _load_weight_list(args, panel: ReturnPanel):
    if args.weights is None and panel.p != 25:
        return [("EW", np.full(panel.p, 1.0 / panel.p))]
    path = bundled_weights_path() if args.weights is None else args.weights
    return [(name, align_weights(wmap, panel.labels)) for name, wmap in load_weights_csv(path)]


def _fit(args, panel: ReturnPanel):
    fitter = fit_spectral_targeting if args.method == "ste" else fit_joint_qmle
    return fitter(panel, diag_a=args.diag_a)


def _n_reps(args, full_scale: int) -> int:
    if args.n_reps is not None:
        return args.n_reps
    return full_scale if args.full else DESK_SCALE_REPS


def cmd_simulate(args) -> int:
    if args.dgp == "benchmark":
        spec = diagonal_benchmark_spec(args.p)
    elif args.p != 2:
        raise ValidationError(f"dgp {args.dgp} is bivariate: --p must be 2, got {args.p}")
    else:
        spec = density_case_spec(int(args.dgp[-1]))
    X = simulate_path(spec, T=args.T, burn_in=args.burn_in, rng_seed=args.seed,
                      allow_nonstationary=args.allow_nonstationary or args.dgp == "case3")
    panel = ReturnPanel(X, [f"A{j + 1}" for j in range(X.shape[1])])
    args.out.mkdir(parents=True, exist_ok=True)
    write_panel_csv(panel, args.out / "panel.csv")
    _write_json(args.out / "simulate_meta.json", {
        "dgp": args.dgp, "p": panel.p, "T": args.T, "seed": args.seed,
        "burn_in": args.burn_in,
    })
    print(f"wrote {args.out / 'panel.csv'}")
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
        "active_constraints": [d.active_constraints for d in fit.diagnostics],
    }


def cmd_estimate(args) -> int:
    panel = _load_panel(args)
    fit = _fit(args, panel)
    payload = _fit_payload(fit)
    payload["start_traces"] = [
        [{k: v for k, v in t.items() if k != "start"} for t in d.start_traces]
        for d in fit.diagnostics
    ]
    if not fit.converged:
        _write_json(args.out / "fit.json", payload)
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
    _write_json(args.out / "fit.json", payload)
    return 0


def cmd_forecast(args) -> int:
    panel = _load_panel(args)
    fit = _fit(args, panel)
    if not fit.converged:
        raise ConvergenceError(
            f"{fit.method} fit did not converge; no forecast written",
            traces=[d.start_traces for d in fit.diagnostics],
        )
    weights = _load_weight_list(args, panel)
    # one scenario set, priced for every portfolio
    scenarios = fhs_cumulative_returns(
        fit, panel, h=args.horizon, n_draws=args.n_draws, rng_seed=args.seed,
        project=np.column_stack([w for _, w in weights]),
    )
    result = []
    for j, (name, _) in enumerate(weights):
        draws = scenarios[:, j]
        result.append({
            "portfolio": name,
            "var": var_from_distribution(draws, args.alpha),
            "mean": float(draws.mean()),
            # order statistics of the same convention as var: q05 == -var at 0.05
            "quantiles": {
                "q01": -var_from_distribution(draws, 0.01),
                "q05": -var_from_distribution(draws, 0.05),
                "q50": -var_from_distribution(draws, 0.50),
            },
        })
    _write_json(args.out / "forecast.json", {
        "horizon": args.horizon, "alpha": args.alpha, "n_draws": args.n_draws,
        "seed": args.seed, "method": fit.method, "portfolios": result,
    })
    return 0


def cmd_backtest(args) -> int:
    panel = _load_panel(args)
    report = rolling_backtest(
        panel,
        _load_weight_list(args, panel),
        window=args.window,
        horizon=args.horizon,
        alpha=args.alpha,
        refit_every=args.refit_every,
        method=args.method,
        diag_a=args.diag_a,
        n_draws=args.n_draws,
        rng_seed=args.seed,
    )
    _write_json(args.out / "backtest.json", report.to_dict())
    pfs = report.portfolios
    _write_csv(
        args.out / "var_paths.csv",
        ["step"] + [f"{pf.name}_{col}" for pf in pfs for col in ("realized", "var", "hit")],
        ([k] + [v for pf in pfs for v in (float(pf.realized[k]), float(pf.var_path[k]),
                                          int(pf.hits[k]))]
         for k in range(report.n_forecasts)),
    )
    return 0


def cmd_bench_re(args) -> int:
    cfg = ExperimentConfig(
        dimensions=args.dims,
        n_replications=_n_reps(args, FULL_SCALE_RE_REPS),
        T=args.T,
        seed=args.seed,
        estimators=args.estimators,
    )
    rows = run_relative_efficiency(cfg)
    # csv writes None as an empty field
    _write_csv(args.out / "relative_efficiency.csv",
               ["p", "n_params", "time_qmle", "time_ste", "re", "flagged",
                "qmle_evaluations", "qmle_fallbacks"],
               ([r.p, r.n_params, r.time_qmle, r.time_ste, r.re, int(r.flagged),
                 r.qmle_evaluations, r.qmle_fallbacks] for r in rows))
    _write_json(args.out / "relative_efficiency.json",
                {"rows": [r.to_dict() for r in rows],
                 "n_replications": cfg.n_replications, "T": cfg.T,
                 "seed": cfg.seed})
    return 0


def cmd_density_study(args) -> int:
    res = run_density_study(args.case, N=_n_reps(args, FULL_SCALE_DENSITY_REPS),
                            T=args.T, seed=args.seed, n_workers=args.workers)
    _write_json(args.out / f"density_case{args.case}.json", res.summary())
    _write_csv(args.out / f"density_case{args.case}_samples.csv",
               ["w1", "a11", "w1_standardized", "a11_standardized"],
               np.column_stack([res.w1, res.a11, res.w1_standardized,
                                res.a11_standardized]).tolist())
    return 0


def _dims(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eigengarch",
        description="Orthogonal GARCH with dynamic eigenvalues: estimation, "
                    "inference, forecasting and backtesting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat JSON config; flags override it")
    common.add_argument("--out", type=Path, default=".", help="output directory (default: cwd)")
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")

    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--input", help="return panel CSV")
    fitting.add_argument("--method", choices=["ste", "qmle"], default="ste")
    fitting.add_argument("--diag-a", dest="diag_a", action="store_true")
    fitting.add_argument("--demean", action="store_true")

    var = argparse.ArgumentParser(add_help=False)
    var.add_argument("--weights", help="portfolio weights CSV")
    var.add_argument("--horizon", type=int, default=1)
    var.add_argument("--alpha", type=float, default=0.05)
    var.add_argument("--n-draws", dest="n_draws", type=int, default=10_000)

    study = argparse.ArgumentParser(add_help=False)
    study.add_argument("--n-reps", dest="n_reps", type=int)
    study.add_argument("--full", action="store_true",
                       help="replication count of the full-scale study (slow)")

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="simulate a benchmark process to CSV")
    p_sim.add_argument("--dgp", choices=["case1", "case2", "case3", "benchmark"],
                       default="case1")
    p_sim.add_argument("--p", type=int, default=2, help="dimension (benchmark dgp)")
    p_sim.add_argument("--T", type=int, default=2000, help="sample length")
    p_sim.add_argument("--burn-in", dest="burn_in", type=int, default=1000)
    p_sim.add_argument("--allow-nonstationary", action="store_true",
                       dest="allow_nonstationary")

    sub.add_parser("estimate", parents=[common, fitting],
                   help="fit the model on a return panel")
    sub.add_parser("forecast", parents=[common, fitting, var],
                   help="filtered-simulation VaR forecast")

    p_bt = sub.add_parser("backtest", parents=[common, fitting, var],
                          help="rolling-window VaR backtest")
    p_bt.add_argument("--window", type=int, default=1200)
    p_bt.add_argument("--refit-every", dest="refit_every", type=int)

    p_re = sub.add_parser("bench-re", parents=[common, study],
                          help="relative-efficiency study")
    p_re.add_argument("--dims", type=_dims, default=[2],
                      help="comma-separated dimensions, e.g. 2,4,6")
    p_re.add_argument("--T", type=int, default=2000)
    p_re.add_argument("--estimators", type=lambda text: tuple(text.split(",")),
                      default=("ste", "qmle"), help="comma list from {ste,qmle}")

    p_ds = sub.add_parser("density-study", parents=[common, study],
                          help="sampling-density study")
    p_ds.add_argument("--case", type=int, choices=[1, 2, 3], default=1)
    p_ds.add_argument("--T", type=int, default=10_000)
    p_ds.add_argument("--workers", type=int, default=1)
    return parser


def _parse_args(argv=None) -> argparse.Namespace:
    """Parse a command line; the --config entries its subcommand takes go first,
    so the flags win."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    at = argv.index(args.command) + 1
    tokens = _config_flags(args.config, subparsers.choices[args.command])
    return parser.parse_args([*argv[:at], *tokens, *argv[at:]])


COMMANDS = {
    "simulate": cmd_simulate,
    "estimate": cmd_estimate,
    "forecast": cmd_forecast,
    "backtest": cmd_backtest,
    "bench-re": cmd_bench_re,
    "density-study": cmd_density_study,
}


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

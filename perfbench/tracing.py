"""In-memory span tracer that wraps the package's public functions.

Tracing works from outside the package: ``Tracer.install`` replaces module
attributes such as ``eigengarch.estimation.fit_equation`` with timing
wrappers, and ``Tracer.uninstall`` puts the originals back. A function that
another module imported by name is patched in that module's namespace too,
because the caller looks it up there. Each call becomes one span (name,
start, end, parent, CPU seconds, phase, round); spans stay in memory until
the run writes them out. ``layer_metrics`` turns the spans into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

# (module, attribute, span name). The span name is "<layer>.<function>".
TARGETS = [
    ("estimation", "sample_covariance", "spectral.sample_covariance"),
    ("estimation", "eigen_sym", "spectral.eigen_sym"),
    ("estimation", "givens_product", "spectral.givens_product"),
    ("estimation", "givens_product_derivatives", "spectral.givens_product_derivatives"),
    ("inference", "sample_covariance", "spectral.sample_covariance"),
    ("model", "simulate_path", "model.simulate_path"),
    ("experiments", "simulate_path", "model.simulate_path"),
    ("model", "filter_eigenvalues", "model.filter_eigenvalues"),
    ("risk", "filter_eigenvalues", "model.filter_eigenvalues"),
    ("estimation", "fit_spectral_targeting", "estimation.fit_spectral_targeting"),
    ("risk", "fit_spectral_targeting", "estimation.fit_spectral_targeting"),
    ("experiments", "fit_spectral_targeting", "estimation.fit_spectral_targeting"),
    ("estimation", "fit_equation", "estimation.fit_equation"),
    ("estimation", "minimize", "estimation.minimize"),
    ("estimation", "fit_joint_qmle", "estimation.fit_joint_qmle"),
    ("risk", "fit_joint_qmle", "estimation.fit_joint_qmle"),
    ("experiments", "fit_joint_qmle", "estimation.fit_joint_qmle"),
    ("estimation", "_match_angles", "estimation.match_angles"),
    ("inference", "sandwich_blocks", "inference.sandwich_blocks"),
    ("inference", "sandwich_sigma", "inference.sandwich_sigma"),
    ("inference", "intercept_delta", "inference.intercept_delta"),
    ("inference", "equation_score_contributions", "inference.equation_score_contributions"),
    ("risk", "rolling_backtest", "risk.rolling_backtest"),
    ("risk", "fhs_cumulative_returns", "risk.fhs_cumulative_returns"),
    ("risk", "var_from_distribution", "risk.var_from_distribution"),
    ("risk", "christoffersen_tests", "risk.christoffersen_tests"),
    ("experiments", "run_density_study", "experiments.run_density_study"),
    ("panel", "load_returns_csv", "panel.load_returns_csv"),
    ("panel", "write_panel_csv", "panel.write_panel_csv"),
    ("panel", "load_weights_csv", "panel.load_weights_csv"),
]

# Per-layer metrics: name -> unit. All are lower-is-better apart from the
# ratio, the rate and the counts, which README.md maps to end-to-end metrics.
LAYER_METRICS = {
    "spectral.first_step_s": "s",
    "spectral.givens_derivatives_s": "s",
    "model.simulate_path_s": "s",
    "model.simulate_steps_per_s": "1/s",
    "estimation.fit_equation_s": "s",
    "estimation.fit_equation_cpu_s": "s",
    "estimation.lbfgsb_nit": "count",
    "estimation.lbfgsb_nfev": "count",
    "estimation.starts_converged_ratio": "ratio",
    "estimation.objective_s": "s",
    "estimation.optimizer_self_s": "s",
    "estimation.eval_us": "us",
    "estimation.joint_fit_s": "s",
    "estimation.joint_nit": "count",
    "estimation.joint_nfev": "count",
    "estimation.joint_eval_ms": "ms",
    "inference.sandwich_blocks_s": "s",
    "inference.sandwich_blocks_cpu_s": "s",
    "inference.score_evals": "count",
    "inference.sandwich_sigma_s": "s",
    "risk.refits": "count",
    "risk.refit_s": "s",
    "risk.fhs_s": "s",
    "risk.fhs_cpu_s": "s",
    "risk.filter_s": "s",
    "risk.var_s": "s",
    "risk.coverage_tests_s": "s",
    "panel.load_returns_csv_s": "s",
}


class Tracer:
    """Collects spans from wrapped module attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self.overhead_s = 0.0  # time spent in the wrappers' own bookkeeping
        self.phase = "setup"
        self.round = None
        self._stack: list[dict] = []
        self._originals: list[tuple] = []

    def install(self) -> None:
        for mod_name, attr, span_name in TARGETS:
            module = importlib.import_module(f"eigengarch.{mod_name}")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn, name):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "phase": self.phase,
                "round": self.round,
            }
            self.spans.append(span)
            if name == "estimation.minimize":
                args = (self._timed_criterion(args[0], span),) + args[1:]
            elif name == "model.simulate_path":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["steps"] = int(bound.arguments["T"]) + int(bound.arguments["burn_in"])
            self._stack.append(span)
            span["cpu"] = time.process_time()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                span["cpu"] = time.process_time() - span["cpu"]
                self._stack.pop()
            if name == "estimation.minimize":
                span["nit"] = int(result.nit)
                span["nfev"] = int(result.nfev)
                span["success"] = bool(result.success)
            self.overhead_s += span["start"] - t_in + time.perf_counter() - span["end"]
            return result

        return wrapper

    def _timed_criterion(self, fun, span):
        span["evals"] = 0
        span["eval_s"] = 0.0

        def criterion(x, *args):
            t0 = time.perf_counter()
            try:
                return fun(x, *args)
            finally:
                t1 = time.perf_counter()
                span["eval_s"] += t1 - t0
                span["evals"] += 1
                self.overhead_s += time.perf_counter() - t1

        return criterion

    def export(self) -> list[dict]:
        """Spans as plain records, times relative to the first span."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [{**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans]


def _dur(span) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans, and the phase each came from.

    A metric is computed from the spans of the timed rounds ("run" phase).
    When the workload does not call that layer in its rounds, it is computed
    from the set-up phase, whose warm-up call touches every layer once.
    Counts are means per call over round 0, which every run completes, so
    they repeat exactly for a given seed; times are medians over all calls.
    """
    by_id = {s["id"]: s for s in spans}

    def children(span, name):
        return [c for c in kids.get(span["id"], []) if c["name"] == name]

    kids: dict = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)

    def pick(name, parent=None):
        """(spans of the run phase or else of set-up, the phase, round-0 subset)."""
        for phase in ("run", "setup"):
            sel = [
                s for s in spans
                if s["name"] == name and s["phase"] == phase
                and (parent is None or (s["parent"] is not None
                                        and by_id[s["parent"]]["name"] == parent))
            ]
            if sel:
                first = [s for s in sel if s["round"] == 0] if phase == "run" else sel
                return sel, phase, first
        return [], None, []

    metrics, source = {}, {}
    med, mean = statistics.median, statistics.fmean

    def put(key, value, phase):
        metrics[key] = float(value)
        source[key] = phase

    def median_wall(key, name, parent=None):
        sel, ph, _ = pick(name, parent)
        if sel:
            put(key, med([_dur(s) for s in sel]), ph)

    def lbfgsb(sel):
        """The minimize spans under each span, by span id."""
        return {s["id"]: children(s, "estimation.minimize") for s in sel}

    def per_call(spans_, runs, key):
        """Mean over the spans of their minimize runs' summed ``key``."""
        return mean([sum(m[key] for m in runs[s["id"]]) for s in spans_])

    median_wall("spectral.givens_derivatives_s", "spectral.givens_product_derivatives")
    median_wall("inference.sandwich_sigma_s", "inference.sandwich_sigma")
    median_wall("risk.filter_s", "model.filter_eigenvalues", "risk.fhs_cumulative_returns")
    median_wall("risk.var_s", "risk.var_from_distribution")
    median_wall("risk.coverage_tests_s", "risk.christoffersen_tests")
    median_wall("panel.load_returns_csv_s", "panel.load_returns_csv")

    sel, ph, _ = pick("estimation.fit_spectral_targeting")
    if sel:
        put("spectral.first_step_s", med([
            sum(_dur(c) for c in children(f, "spectral.sample_covariance")
                + children(f, "spectral.eigen_sym")) for f in sel]), ph)

    sel, ph, _ = pick("model.simulate_path")
    if sel:
        put("model.simulate_path_s", med([_dur(s) for s in sel]), ph)
        put("model.simulate_steps_per_s",
            sum(s["steps"] for s in sel) / sum(_dur(s) for s in sel), ph)

    sel, ph, first = pick("estimation.fit_equation")
    if sel:
        runs = lbfgsb(sel)
        all_runs = [m for s in sel for m in runs[s["id"]]]
        starts = [m for s in first for m in runs[s["id"]]]
        put("estimation.fit_equation_s", med([_dur(s) for s in sel]), ph)
        put("estimation.fit_equation_cpu_s", med([s["cpu"] for s in sel]), ph)
        put("estimation.lbfgsb_nit", per_call(first, runs, "nit"), ph)
        put("estimation.lbfgsb_nfev", per_call(first, runs, "nfev"), ph)
        put("estimation.starts_converged_ratio", mean([m["success"] for m in starts]), ph)
        put("estimation.objective_s", med(
            [sum(m["eval_s"] for m in runs[s["id"]]) for s in sel]), ph)
        put("estimation.optimizer_self_s", med(
            [sum(_dur(m) - m["eval_s"] for m in runs[s["id"]]) for s in sel]), ph)
        put("estimation.eval_us", 1e6 * sum(m["eval_s"] for m in all_runs)
            / sum(m["evals"] for m in all_runs), ph)

    # the angle-matching runs of a joint fit are children of match_angles,
    # not of fit_joint_qmle, and stay out of the joint figures
    sel, ph, first = pick("estimation.fit_joint_qmle")
    if sel:
        runs = lbfgsb(sel)
        all_runs = [m for s in sel for m in runs[s["id"]]]
        put("estimation.joint_fit_s", med([_dur(s) for s in sel]), ph)
        put("estimation.joint_nit", per_call(first, runs, "nit"), ph)
        put("estimation.joint_nfev", per_call(first, runs, "nfev"), ph)
        put("estimation.joint_eval_ms", 1e3 * sum(m["eval_s"] for m in all_runs)
            / sum(m["evals"] for m in all_runs), ph)

    sel, ph, first = pick("inference.sandwich_blocks")
    if sel:
        put("inference.sandwich_blocks_s", med([_dur(s) for s in sel]), ph)
        put("inference.sandwich_blocks_cpu_s", med([s["cpu"] for s in sel]), ph)
        put("inference.score_evals", mean(
            [len(children(s, "inference.equation_score_contributions")) for s in first]), ph)

    sel, ph, first = pick("risk.rolling_backtest")
    if sel:
        def refits(s):
            return (children(s, "estimation.fit_spectral_targeting")
                    + children(s, "estimation.fit_joint_qmle"))
        put("risk.refits", mean([len(refits(s)) for s in first]), ph)
        put("risk.refit_s", med([_dur(c) for s in sel for c in refits(s)]), ph)

    sel, ph, _ = pick("risk.fhs_cumulative_returns")
    if sel:
        put("risk.fhs_s", med([_dur(s) for s in sel]), ph)
        put("risk.fhs_cpu_s", med([s["cpu"] for s in sel]), ph)

    return metrics, source

"""Simulation studies: estimator relative efficiency and sampling densities.

The efficiency study simulates the diagonal-dynamics process across
dimensions, fits both the two-step and the joint estimator per replication,
and scores accuracy with the quadratic form built from the simulated
information matrix. The density study simulates the three moment-condition
regimes (finite fourth moments / finite variance only / finite mean only)
and collects standardized two-step estimates of the leading intercept and
ARCH coefficient.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import kstest

from ._blas import single_threaded
from .estimation import ModelFit, fit_joint_qmle, fit_spectral_targeting
from .exceptions import ValidationError
from .model import DynamicsParams, ModelSpec, _advance_paths, simulate_path
from .spectral import SpectralTarget, givens_product

__all__ = [
    "ExperimentConfig",
    "RelativeEfficiencyRow",
    "DensityStudyResult",
    "diagonal_benchmark_spec",
    "density_case_spec",
    "run_relative_efficiency",
    "run_density_study",
]

BURN_IN = 1000
QMLE_FAILURE_LIMIT = 0.20  # failed share of joint fits that withholds a row's ratio
# Byte budget of one chunk's innovation block: the density study simulates
# the replications of a chunk together, in one loop over time.
CHUNK_BYTES = 4 * 2**20


@dataclass(frozen=True)
class ExperimentConfig:
    """Replication settings shared by the simulation studies."""

    dimensions: Sequence[int] = (2,)
    n_replications: int = 100
    T: int = 2000
    seed: int = 0
    estimators: Sequence[str] = ("ste", "qmle")

    def __post_init__(self):
        if self.n_replications < 1:
            raise ValidationError("need at least one replication")
        if self.T < 100:
            raise ValidationError("need T >= 100")
        if len(self.dimensions) == 0:
            raise ValidationError("need at least one dimension")
        if any(p < 1 for p in self.dimensions):
            raise ValidationError("dimensions must be >= 1")
        bad = [e for e in self.estimators if e not in ("ste", "qmle")]
        if bad:
            raise ValidationError(f"unknown estimators {bad}")


@dataclass
class RelativeEfficiencyRow:
    """One dimension's accuracy and timing comparison."""

    p: int
    n_params: int
    time_ste: Optional[float]
    time_qmle: Optional[float]
    re: Optional[float]
    qmle_failure_rate: float = 0.0
    flagged: bool = False
    qmle_evaluations: Optional[float] = None  # mean joint-criterion evaluations per fit
    qmle_fallbacks: int = 0  # joint fits that ran the scheme starts

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n_params": self.n_params,
            "time_ste": self.time_ste,
            "time_qmle": self.time_qmle,
            "re": self.re,
            "qmle_failure_rate": self.qmle_failure_rate,
            "flagged": self.flagged,
            "qmle_evaluations": self.qmle_evaluations,
            "qmle_fallbacks": self.qmle_fallbacks,
        }


def diagonal_benchmark_spec(p: int) -> ModelSpec:
    """Diagonal-dynamics benchmark process of dimension p.

    Own-lag ARCH 0.05 and persistence 0.85 in every equation, unconditional
    eigenvalues (p, p-1, ..., 1)/10, eigenvectors from plane rotations with
    every angle at 0.5.
    """
    if p < 1:
        raise ValidationError(f"dimension must be at least 1, got p={p}")
    lam = np.array([(p + 1 - i) / 10.0 for i in range(1, p + 1)])
    V = givens_product(np.full(p * (p - 1) // 2, 0.5), p)
    dyn = DynamicsParams(A=0.05 * np.eye(p), b=np.full(p, 0.85))
    return ModelSpec.from_targets(SpectralTarget(lam=lam, V=V), dyn)


_CASE_ARCH = {1: (0.33, 0.25), 2: (0.60, 0.55), 3: (1.01, 0.90)}


def density_case_spec(case: int) -> ModelSpec:
    """Bivariate processes spanning the three moment regimes.

    Case 1 has finite fourth moments, case 2 only finite second moments,
    case 3 only a finite mean (strictly stationary but infinite variance).
    """
    if case not in _CASE_ARCH:
        raise ValidationError(f"case must be 1, 2 or 3, got {case}")
    V = givens_product([np.arctan2(0.45, 0.89)], 2)
    a1, a2 = _CASE_ARCH[case]
    dyn = DynamicsParams(A=np.diag([a1, a2]), b=np.zeros(2))
    return ModelSpec.from_intercepts(V, np.array([1.5, 0.46]), dyn)


def _theta_vector(fit: ModelFit) -> np.ndarray:
    """Comparison vector [vec(H), diag(A), diag(B)] in the identified order."""
    H = fit.target.reconstruct()
    return np.concatenate(
        [H.flatten(order="F"), np.diag(fit.kappas[:, :-1]), fit.kappas[:, -1]]
    )


def _theta_truth(spec: ModelSpec) -> np.ndarray:
    order = np.argsort(spec.lam, kind="stable")
    H = (spec.V * spec.lam) @ spec.V.T
    return np.concatenate(
        [
            H.flatten(order="F"),
            np.diag(spec.dynamics.A)[order],
            spec.dynamics.b[order],
        ]
    )


def relative_efficiency_statistic(
    ste_estimates: np.ndarray, qmle_estimates: np.ndarray, theta0: np.ndarray
) -> float:
    """Quadratic-form accuracy ratio under the simulated information metric.

    The metric is the average outer product of the joint-estimator errors;
    the statistic compares the replication-mean errors of the two
    estimators. Values below one favor the two-step estimator.
    """
    errs_q = qmle_estimates - theta0
    info = errs_q.T @ errs_q / errs_q.shape[0]
    d_ste = ste_estimates.mean(axis=0) - theta0
    d_q = qmle_estimates.mean(axis=0) - theta0
    denom = float(d_q @ info @ d_q)
    if denom <= 0.0:
        raise ValidationError("degenerate information metric")
    return float(d_ste @ info @ d_ste) / denom


def _chunks(seeds: list, T: int, p: int, n_workers: int) -> list[list]:
    """Runs of consecutive replication seeds, one simulation block each.

    A chunk's (BURN_IN + T) x p innovation blocks fit in ``CHUNK_BYTES``,
    and every worker gets a chunk when there are enough replications.
    """
    size = CHUNK_BYTES // ((BURN_IN + T) * p * 8)
    size = max(1, min(size, -(-len(seeds) // n_workers)))
    return [seeds[k:k + size] for k in range(0, len(seeds), size)]


def _simulated_paths(spec: ModelSpec, T: int, seeds: list):
    """The T x p return paths of one chunk of replications, in seed order.

    Each replication draws its innovations from its own seed and the
    chunk's eigenvalue paths advance together, so each path equals
    ``simulate_path(spec, T, BURN_IN, seed)`` bit for bit. A path's returns
    are formed only when it is taken.
    """
    Y = np.empty((len(seeds), BURN_IN + T, spec.p))
    for k, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=Y[k])
    _advance_paths(spec, Y, Y)
    for k in range(len(seeds)):
        yield (Y[k] @ spec.V.T)[BURN_IN:]


@single_threaded
def run_relative_efficiency(cfg: ExperimentConfig) -> list[RelativeEfficiencyRow]:
    """Accuracy and single-core timing of the two estimators per dimension.

    Simulates the diagonal benchmark process ``n_replications`` times per
    dimension, fits the requested estimators on each path, and reports mean
    CPU seconds per fit plus the quadratic-form efficiency ratio. A row is
    flagged (ratio withheld) when the joint estimator fails to converge in
    more than ``QMLE_FAILURE_LIMIT`` of the replications. Each row also
    gives the joint fits' mean criterion evaluations and how many of them
    fell back from the two-step start to the scheme starts. Runs serially
    so the timings reflect a single core.
    """
    rows = []
    master = np.random.SeedSequence(cfg.seed)
    for p in cfg.dimensions:
        spec = diagonal_benchmark_spec(p)
        theta0 = _theta_truth(spec)
        seeds = master.spawn(cfg.n_replications)
        ste_thetas, qmle_thetas = [], []
        t_ste, t_qmle, qmle_evals = [], [], []
        qmle_failures = qmle_fallbacks = 0
        for seed in seeds:
            X = simulate_path(spec, T=cfg.T, burn_in=BURN_IN, rng_seed=seed)
            if "ste" in cfg.estimators:
                t0 = time.process_time()
                fit = fit_spectral_targeting(X, diag_a=True)
                t_ste.append(time.process_time() - t0)
                ste_thetas.append(_theta_vector(fit))
            if "qmle" in cfg.estimators:
                t0 = time.process_time()
                jfit = fit_joint_qmle(X, diag_a=True)
                t_qmle.append(time.process_time() - t0)
                if not jfit.converged:
                    qmle_failures += 1
                traces = jfit.diagnostics[0].start_traces
                qmle_evals.append(sum(t["evaluations"] for t in traces))
                qmle_fallbacks += len(traces) > 1
                qmle_thetas.append(_theta_vector(jfit))
        n_params = p * (p - 1) // 2 + 3 * p
        failure_rate = qmle_failures / cfg.n_replications if t_qmle else 0.0
        re = None
        flagged = False
        if ste_thetas and qmle_thetas:
            if failure_rate > QMLE_FAILURE_LIMIT:
                flagged = True
            else:
                re = relative_efficiency_statistic(
                    np.vstack(ste_thetas), np.vstack(qmle_thetas), theta0
                )
        rows.append(
            RelativeEfficiencyRow(
                p=p,
                n_params=n_params,
                time_ste=float(np.mean(t_ste)) if t_ste else None,
                time_qmle=float(np.mean(t_qmle)) if t_qmle else None,
                re=re,
                qmle_failure_rate=failure_rate,
                flagged=flagged,
                qmle_evaluations=float(np.mean(qmle_evals)) if qmle_evals else None,
                qmle_fallbacks=qmle_fallbacks,
            )
        )
    return rows


@dataclass
class DensityStudyResult:
    """Replication draws and summaries for one moment regime."""

    case: int
    T: int
    w1: np.ndarray
    a11: np.ndarray
    w1_standardized: np.ndarray
    a11_standardized: np.ndarray
    ks_w1: float
    ks_a11: float
    median_abs_err_w1: float
    median_abs_err_a11: float
    truth_w1: float
    truth_a11: float

    def summary(self) -> dict:
        return {
            "case": self.case,
            "T": self.T,
            "n": int(self.a11.size),
            "ks_w1": self.ks_w1,
            "ks_a11": self.ks_a11,
            "median_abs_err_w1": self.median_abs_err_w1,
            "median_abs_err_a11": self.median_abs_err_a11,
            "truth_w1": self.truth_w1,
            "truth_a11": self.truth_a11,
        }


def _match_columns(V_fit: np.ndarray, V_true: np.ndarray) -> list[int]:
    """Greedy |cosine| assignment of fitted columns to the true columns."""
    p = V_true.shape[1]
    sims = np.abs(V_fit.T @ V_true)  # fitted x true
    taken = set()
    assignment = [None] * p
    for true_j in np.argsort(-sims.max(axis=0)):
        order = np.argsort(-sims[:, true_j])
        for cand in order:
            if cand not in taken:
                assignment[true_j] = int(cand)
                taken.add(cand)
                break
    return assignment


@single_threaded
def _density_chunk(args) -> list[tuple[float, float]]:
    """Leading intercept and ARCH estimates of one chunk of replications."""
    case, T, seeds = args
    spec = density_case_spec(case)
    out = []
    for X in _simulated_paths(spec, T, seeds):
        fit = fit_spectral_targeting(X, diag_a=True, fit_b=False)
        # report in the simulation's own equation order (leading equation first)
        lead = _match_columns(fit.target.V, spec.V)[0]
        out.append((float(fit.W[lead]), float(fit.kappas[lead, lead])))
    return out


@single_threaded
def run_density_study(
    case: int,
    N: int = 500,
    T: int = 10_000,
    seed: int = 0,
    n_workers: int = 1,
) -> DensityStudyResult:
    """Sampling distribution of the leading intercept and ARCH estimates.

    Fits the diagonal model (persistence fixed at zero, matching the
    simulated dynamics) on ``N`` independent paths and reports centered and
    scaled replication draws, their Kolmogorov-Smirnov distances to the
    standard normal, and median absolute errors against the truth.
    Needs ``N >= 2``: the standardized draws divide by a sample deviation.
    ``n_workers`` processes fit whole chunks of replications; it must be
    at least 1.
    """
    if N < 2:
        raise ValidationError(f"need at least 2 replications, got N={N}")
    if T < 1:
        raise ValidationError(f"need T >= 1, got T={T}")
    if n_workers < 1:
        raise ValidationError(f"need n_workers >= 1, got {n_workers}")
    spec = density_case_spec(case)
    truth_w1 = float(spec.W[0])
    truth_a11 = float(spec.dynamics.A[0, 0])
    children = np.random.SeedSequence(seed).spawn(N)
    jobs = [(case, T, chunk) for chunk in _chunks(children, T, spec.p, n_workers)]
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            done = list(pool.map(_density_chunk, jobs))
    else:
        done = [_density_chunk(job) for job in jobs]
    results = [r for chunk in done for r in chunk]
    w1 = np.array([r[0] for r in results])
    a11 = np.array([r[1] for r in results])

    def standardize(x):
        sd = x.std(ddof=1)
        return (x - x.mean()) / sd if sd > 0 else np.zeros_like(x)

    zw, za = standardize(w1), standardize(a11)
    return DensityStudyResult(
        case=case,
        T=T,
        w1=w1,
        a11=a11,
        w1_standardized=zw,
        a11_standardized=za,
        ks_w1=float(kstest(zw, "norm").statistic),
        ks_a11=float(kstest(za, "norm").statistic),
        median_abs_err_w1=float(np.median(np.abs(w1 - truth_w1))),
        median_abs_err_a11=float(np.median(np.abs(a11 - truth_a11))),
        truth_w1=truth_w1,
        truth_a11=truth_a11,
    )

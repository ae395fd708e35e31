"""Benchmark of the eigengarch package: one command, three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload estimate_p25 --seed 1 --seconds 30 --trace 0

It imports the package from the checkout's ``src/``, builds the workload's
inputs from ``--seed``, then runs whole rounds of the workload's operations,
closed loop and one at a time, until the next round would end after
``--seconds``. It checks the outputs, writes a result file under
``perfbench/results/`` and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import time

_T_TOP = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "results"


def process_age() -> float:
    """Seconds since this process started, read from /proc; 0 if unreadable."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


_AGE_AT_TOP = process_age()


def blas_threads() -> dict:
    """Thread count of every OpenBLAS copy loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower() and ".so" in line.split()[-1]}
    except OSError:
        return {}
    out = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def run_rounds(workload, ops, seconds: float, tracer=None):
    """Whole rounds until the next one would end after ``seconds``."""
    walls, cpus = [], []
    t_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.round = len(walls)
        w0, c0 = time.perf_counter(), time.process_time()
        workload.run_round(len(walls), ops)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        if time.perf_counter() - t_start + statistics.median(walls) > seconds:
            return walls, cpus


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_start = os.getloadavg()
    t_parse = time.perf_counter()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import eigengarch
    except ImportError as exc:
        print(f"perfbench: cannot import eigengarch from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(eigengarch.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: eigengarch came from {eigengarch.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import numpy
    import scipy
    from tracing import LAYER_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS, Ops, warm_up

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload]()
    t_imports = time.perf_counter()
    warm_up(OUT_DIR)
    t_warm = time.perf_counter()
    workload.setup(args.seed, OUT_DIR)
    t_setup = time.perf_counter()
    setup_s = _AGE_AT_TOP + (t_setup - _T_TOP)
    setup_parts = {"before_main_s": _AGE_AT_TOP + (t_parse - _T_TOP),
                   "imports_s": t_imports - t_parse, "warm_up_s": t_warm - t_imports,
                   "workload_setup_s": t_setup - t_warm}

    ops = Ops()
    plain_round0 = None
    if tracer is not None:
        # the same first round once without tracing, to compare with; its
        # operations are not counted and the traced round 0 replaces its outputs
        tracer.uninstall()
        w0 = time.perf_counter()
        workload.run_round(0, Ops())
        plain_round0 = time.perf_counter() - w0
        tracer.phase = "run"
        tracer.overhead_s = 0.0
        tracer.install()
    walls, cpus = run_rounds(workload, ops, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()

    failures = workload.check()
    fields = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": len(walls),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "setup_parts_s": setup_parts,
    }
    figures = {k: {"value": v, "unit": u} for k, (v, u) in workload.figures(ops).items()}
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    else:
        values, source = layer_metrics(tracer.spans)
        missing = sorted(set(LAYER_METRICS) - set(values))
        if missing:
            failures.append(f"trace produced no value for {missing}")
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in LAYER_METRICS.items() if k in values}
        fields["trace_overhead_pct"] = 100.0 * tracer.overhead_s / sum(walls)
        fields["round0_untraced_s"] = plain_round0
        fields["round0_traced_s"] = walls[0]
        fields["trace_spans"] = len(tracer.spans)
        fields["metric_phase"] = source
        with open(OUT_DIR / f"{tag}-spans.json", "w") as fh:
            json.dump(tracer.export(), fh)

    result = {"correct": not failures, "attempted": ops.attempted,
              "failed": ops.failed, "metrics": metrics}
    with open(OUT_DIR / f"{tag}.json", "w") as fh:
        json.dump({"fields": fields, "figures": figures, "round_walls": walls,
                   "round_cpus": cpus, "errors": ops.errors(),
                   "check_failures": failures, **result}, fh, indent=1)

    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print("fields " + json.dumps(fields))
    for name, fig in figures.items():
        print(f"figure {name} = {fig['value']:.6g} {fig['unit']}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

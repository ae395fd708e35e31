"""The benchmark tracer still sees every layer the package's calls pass through.

``perfbench/tracing.py`` times the package from outside by patching module
attributes. A refactor that routes a layer around the patched names leaves
its per-layer metric empty, and a traced benchmark run then reports
``correct: false``. The warm-up call of ``perfbench/workloads.py`` touches
every layer once, so all metrics must come out of it.

``tracing.layer_metrics`` divides by the ``estimation.minimize`` runs under
each ``estimation.fit_equation`` span (``estimation.eval_us``,
``estimation.starts_converged_ratio``). The warm-up fits only diagonal
models, so every one of those fits must still make at least one run through
the patched ``estimation.minimize``: its projected-Newton polish, or the
L-BFGS-B starts it falls back on.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_warm_up_gives_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.warm_up(tmp_path)
    finally:
        tracer.uninstall()
    fits = [s for s in tracer.spans if s["name"] == "estimation.fit_equation"]
    runs = {s["parent"] for s in tracer.spans if s["name"] == "estimation.minimize"}
    assert fits
    assert [s["id"] for s in fits if s["id"] not in runs] == []
    metrics, _ = tracing.layer_metrics(tracer.spans)
    assert sorted(set(tracing.LAYER_METRICS) - set(metrics)) == []

"""The benchmark's per-layer tracer still finds, and sees calls into, every
layer a sweep and a confidence-set inversion run through.

perfbench/tracing.py wraps each layer at the name its caller looks it up by.
A refactor that changes how a caller reaches a layer (say, a module-level
import where a call-time lookup used to be) leaves the wrapper in place but
silently bypassed; this test catches that, which the benchmark itself does
not, since it reports such a layer as 0 rather than absent.
"""

import importlib
from collections import Counter
from pathlib import Path

import numpy as np

from cmselect import CorrelationFamily, ExperimentConfig, StatisticKind
from cmselect.harness import run_mnrp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

LAYERS = (
    "critical.BootstrapDraws",
    "critical.selection_quantile",
    "critical.rsw_critical_value",
    "moments.summarize",
    "statistics.evaluate",
    "statistics.shifted_statistic_batch",
    "statistics.adjusted_sigma_batch",
    "qp.nonneg_projection_batch",
    "tilt.tilt",
    "selection.phi_k",
    "streams.substream",
    "harness.simulate_sample",
)


def test_sweep_records_a_span_in_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    config = ExperimentConfig(
        J=4,
        family=CorrelationFamily("Pos", 4),
        n=50,
        r_mc=2,
        b=100,
        procedures=("GMS", "CMS", "CMS_FC", "RSW"),
        statistics=(StatisticKind.MMM, StatisticKind.AQLR),
        null_mu=((0.0, 0.0, 0.0, 0.0), (0.0, float("inf"), float("inf"), float("inf"))),
        seed=3,
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_mnrp(config)
    finally:
        tracer.remove()
    assert tracer.absent == []
    spans = Counter(span[0] for span in tracer.spans)
    assert [layer for layer in LAYERS if spans[layer] == 0] == []
    # CMS and CMS_FC share one tilt per sample.
    assert tracer.counts["tilt.tilt.calls"] == 4


INVERT_LAYERS = (
    "cli.main",
    "moments.load_csv",
    "critical.BootstrapDraws",
    "critical.selection_quantile",
    "tilt.tilt",
    "selection.phi_k",
    "statistics.evaluate",
)


def test_invert_records_a_span_in_every_layer(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    import cmselect.cli

    rng = np.random.default_rng(8)
    points = []
    for k, shift in enumerate((0.5, -0.5)):
        path = tmp_path / f"t{k}.csv"
        np.savetxt(path, rng.standard_normal((40, 3)) + shift, delimiter=",")
        points.append(str(path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cmselect.cli.main(["invert", *points, "--draws", "200"])
    finally:
        tracer.remove()
    assert code == 0
    assert tracer.absent == []
    spans = Counter(span[0] for span in tracer.spans)
    assert [layer for layer in INVERT_LAYERS if spans[layer] == 0] == []

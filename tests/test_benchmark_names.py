"""Every per-layer metric that BENCHMARK.json reads from a traced function
(a name ending in .calls or .self_s) names a span the benchmark tracer
records.  perfbench/run.py reads a missing span as 0, so renaming or deleting
a traced function would otherwise zero its metric without any failure.

Span names come from perfbench/tracing.py's traced_functions: a public
function of a layer's module, kernel.* through the series module, and
harness.generators for the whole generators module."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

METRICS = [
    m["name"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if m["name"].endswith((".calls", ".self_s"))
]


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return set(tracing.traced_functions().values())


def test_metrics_are_read():
    assert len(METRICS) > 20


@pytest.mark.parametrize("metric", METRICS)
def test_metric_names_a_traced_function(metric, spans):
    assert metric.rsplit(".", 1)[0] in spans

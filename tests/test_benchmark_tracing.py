"""The traced benchmark pass (benchmark/tracing.py) still sees the layers
its per-layer metrics are computed from.

The tracer wraps functions at the names their callers look them up by, so a
refactor that calls a layer some other way leaves its span, and the metric
built from it, silently empty.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import tumorbox
import tumorbox.cli  # noqa: F401  (install wraps names in the cli module too)
from conftest import PHANTOM_REP_SLICES
from tumorbox.pipeline import ExtractParams

TRACING_PATH = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pipeline_layers_emit_spans(tracing, phantom_cases, phantom_atlases):
    _, volume, _ = phantom_cases[0]
    params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
    tracer = tracing.Tracer()
    tracing.install(tracer, tumorbox)
    try:
        for method in ("em", "kmeans"):
            tumorbox.pipeline.run_pipeline(volume, phantom_atlases, method=method, params=params)
    finally:
        tracer.unwrap_all()

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    ems = by_name.get("clustering.em_gmm_1d", [])
    assert len(ems) == len(PHANTOM_REP_SLICES)
    em_ids = {s["id"] for s in ems}
    kmeans = by_name.get("clustering.kmeans_1d", [])
    warm = [s for s in kmeans if s["parent"] in em_ids]
    assert len(warm) == len(ems), "every EM fit should show its K-means warm start"
    assert len(kmeans) == 2 * len(PHANTOM_REP_SLICES)  # warm starts plus the K-means run
    for name in ("pipeline.run_pipeline", "pipeline.tumor_map", "components.connected_components"):
        assert by_name.get(name), f"no {name} span"
    assert tumorbox.pipeline.run_pipeline.__module__ == "tumorbox.pipeline"


def test_brats_like_volume_spans_keep_their_attributes(tracing, phantom_cases, phantom_atlases):
    # The brats240 workload's volumes: int16 intensities, 1000 per unit.
    _, volume, _ = phantom_cases[1]
    brats = tumorbox.volume.Volume(data=np.rint(volume.data * 1000).astype(np.int16), element_type="MET_SHORT")
    params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
    tracer = tracing.Tracer()
    tracing.install(tracer, tumorbox)
    try:
        wrapped = {(module.__name__, attr) for module, attr, _ in tracer._patched}
        for method in ("em", "kmeans"):
            tumorbox.pipeline.run_pipeline(brats, phantom_atlases, method=method, params=params)
    finally:
        tracer.unwrap_all()
    assert {("tumorbox.pipeline", "kmeans_1d"), ("tumorbox.pipeline", "em_gmm_1d")} <= wrapped

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    segments = by_name["clustering.segment_slice"]
    assert len(segments) == 2 * len(PHANTOM_REP_SLICES)
    assert all(0 < s["attrs"]["distinct"] < s["attrs"]["pixels"] for s in segments)
    assert all(isinstance(s["attrs"]["n_iter"], int) for s in by_name["clustering.kmeans_1d"])
    ems = by_name["clustering.em_gmm_1d"]
    assert len(ems) == len(PHANTOM_REP_SLICES)
    assert all(s["attrs"]["n_iter"] > 0 and s["attrs"]["best_restart"] >= -1 for s in ems)
    metrics = tracing.layer_metrics(tracer.spans, jobs=1)
    for name in ("clustering.kmeans.iters", "clustering.em.winner_iters", "clustering.em_warm_start.ms",
                 "clustering.pixels_per_slice", "clustering.distinct_per_slice", "clustering.segment_slice.ms"):
        value, n = metrics[name]
        assert n > 0 and value > 0, name

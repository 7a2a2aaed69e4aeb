"""Span tracing for the traced benchmark pass, and the per-layer metrics.

Spans are recorded by replacing a public function at the name its caller
looks it up by (``pipeline.segment_slice``, ``clustering.kmeans_1d``,
``evaluate.read_mha``, ...), so the program itself is unchanged. Each span
holds its name, start, end, parent span and thread; spans stay in memory
until the run writes them out. A span's self time is its duration minus the
durations of its children, which nest on the same thread.
"""

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import mean
from time import perf_counter

import numpy as np

PIPELINE_STAGES = ("extract", "normalize", "enhance", "segment", "tumor_map", "fuse", "bounding_box")


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, **attrs):
        stack = self._stack()
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "thread": threading.get_ident(),
            "attrs": attrs,
            "start": perf_counter(),
            "end": None,
        }
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            stack.pop()
            self.spans.append(rec)

    def wrap(self, module, attr, name, before=None, after=None, on_error=None):
        """Replace ``module.attr`` by a wrapper recording span ``name``.

        ``before(*args, **kwargs)`` gives attributes computed before the span
        starts, so their cost is not charged to it; ``after(result)`` and
        ``on_error(exc)`` add attributes from the outcome.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            with self.span(name, **attrs) as rec:
                try:
                    out = original(*args, **kwargs)
                except Exception as exc:
                    if on_error:
                        rec["attrs"].update(on_error(exc))
                    raise
                if after:
                    rec["attrs"].update(after(out))
                return out

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def unwrap_all(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path):
        t0 = min((s["start"] for s in self.spans), default=0.0)
        rows = [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0}
            for s in sorted(self.spans, key=lambda s: s["start"])
        ]
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps(rows) + "\n", encoding="utf-8")


def _report_attrs(report):
    if report is None:
        return {}
    return {
        "timings_ms": dict(report.timings_ms),
        "empty_slices": sum(1 for s in report.slices if s.empty),
        "class4_used": sum(1 for s in report.slices if s.used_class == 4),
        "union_fallback": int(report.fallback_used),
    }


def _slice_values(slc, method=None, cfg=None, include_background=False):
    data = slc.data
    values = data if include_background else data[data > 0]
    return {"pixels": int(values.size), "distinct": int(np.unique(values).size)}


def _mask_counts(mask, connectivity=8, label_class=None):
    mask = np.asarray(mask)
    return {"pixels_scanned": int(mask.size), "set_pixels": int(np.count_nonzero(mask))}


def _file_bytes(path, kind=None):
    p = Path(path)
    return {"bytes": p.stat().st_size if p.exists() else 0, "kind": kind or "intensity"}


def install(tracer, tb):
    """Wrap every layer boundary the workloads cross, at its lookup site."""
    pl, cl, ev, cli, pre, ph = tb.pipeline, tb.clustering, tb.evaluate, tb.cli, tb.preprocess, tb.phantom
    report_after = lambda res: _report_attrs(res.report)
    report_error = lambda exc: _report_attrs(getattr(exc, "report", None))
    for module in (pl, ev, cli):
        tracer.wrap(module, "run_pipeline", "pipeline.run_pipeline", after=report_after, on_error=report_error)
    tracer.wrap(pl, "extract_slice", "pipeline.extract")
    tracer.wrap(pl, "normalize", "preprocess.normalize")
    tracer.wrap(pl, "enhance_contrast", "preprocess.enhance_contrast")
    tracer.wrap(pl, "segment_slice", "clustering.segment_slice", before=_slice_values)
    tracer.wrap(pl, "extract_tumor_map", "pipeline.tumor_map")
    tracer.wrap(pl, "fuse_maps", "pipeline.fuse")
    tracer.wrap(pl, "bounding_box", "pipeline.bounding_box")
    tracer.wrap(
        pl, "connected_components", "components.connected_components",
        before=_mask_counts, after=lambda comps: {"found": len(comps)},
    )
    # pipeline's own em_gmm_1d / kmeans_1d names are used only by the
    # --debug-dir re-run of the clustering.
    tracer.wrap(pl, "kmeans_1d", "pipeline.debug_recluster")
    tracer.wrap(pl, "em_gmm_1d", "pipeline.debug_recluster")
    tracer.wrap(cl, "kmeans_1d", "clustering.kmeans_1d", after=lambda r: {"n_iter": r.n_iter})
    tracer.wrap(
        cl, "em_gmm_1d", "clustering.em_gmm_1d",
        after=lambda r: {"n_iter": r.n_iter, "best_restart": r.best_restart},
    )
    tracer.wrap(ev, "evaluate_case", "evaluate.evaluate_case")
    tracer.wrap(ev, "evaluate_cohort", "evaluate.evaluate_cohort")
    tracer.wrap(cli, "evaluate_manifest", "evaluate.evaluate_manifest")
    for module in (ev, cli):
        tracer.wrap(module, "read_mha", "mha.read_mha", before=_file_bytes)
    tracer.wrap(cli, "write_mha", "mha.write_mha")
    for module in (pre, cli):
        tracer.wrap(module, "build_atlas", "preprocess.build_atlas")
    tracer.wrap(cli, "save_atlas", "preprocess.save_atlas")
    tracer.wrap(cli, "load_atlas", "preprocess.load_atlas")
    for module in (ph, cli):
        tracer.wrap(module, "generate_phantom", "phantom.generate_phantom")
    tracer.wrap(cli, "main", "cli.main", before=lambda argv=None: {"command": " ".join(argv[:2]) if argv else ""})


# name -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    **{f"pipeline.{s}.ms_per_case": "ms" for s in PIPELINE_STAGES},
    "pipeline.case_ms": "ms",
    "pipeline.uncovered.ms_per_case": "ms",
    "pipeline.empty_slices": "count/case",
    "pipeline.class4_used": "count/case",
    "pipeline.union_fallbacks": "count/case",
    "pipeline.debug_recluster.ms": "ms",
    "clustering.segment_slice.ms": "ms",
    "clustering.kmeans_1d.calls": "count/case",
    "clustering.kmeans_1d.ms": "ms",
    "clustering.em_warm_start.ms": "ms",
    "clustering.em_restarts.ms": "ms",
    "clustering.em.winner_iters": "count",
    "clustering.em.winner_restart": "index",
    "clustering.kmeans.iters": "count",
    "clustering.pixels_per_slice": "count",
    "clustering.distinct_per_slice": "count",
    "components.connected_components.calls": "count/case",
    "components.connected_components.ms_per_call": "ms",
    "components.connected_components.pixels_scanned": "count",
    "components.connected_components.set_pixels": "count",
    "components.connected_components.components_found": "count",
    "preprocess.normalize.ms": "ms",
    "preprocess.enhance_contrast.ms": "ms",
    "preprocess.build_atlas.ms": "ms",
    "preprocess.load_atlas.ms": "ms",
    "preprocess.save_atlas.ms": "ms",
    "mha.read_mha.calls": "count/case",
    "mha.read_mha.ms": "ms",
    "mha.read_mha.bytes": "B",
    "mha.write_mha.ms": "ms",
    "evaluate.evaluate_case.ms": "ms",
    "evaluate.loo_prepass.ms": "ms",
    "evaluate.thread_busy_frac": "frac",
    "cli.self_ms": "ms",
    "cli.atlas_build_s": "s",
    "phantom.generate_phantom.ms": "ms",
    "trace.overhead_ms_per_case": "ms",
    "trace.overhead_frac": "frac",
    "trace.spans_per_case": "count/case",
}


def _dur_ms(s):
    return (s["end"] - s["start"]) * 1000.0


def _avg(values):
    return float(mean(values)) if values else 0.0


def layer_metrics(spans, jobs):
    """Per-layer metrics from one traced pass: name -> (value, n).

    Every name in LAYER_UNITS is present; a layer the workload does not
    reach reports 0 with n=0. "per case" divides by run_pipeline calls.
    """
    by_name = defaultdict(list)
    child_ms = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_ms[s["parent"]] += _dur_ms(s)

    def self_ms(s):
        return _dur_ms(s) - child_ms[s["id"]]

    def ms_per_call(name):
        group = by_name[name]
        return _avg([_dur_ms(s) for s in group]), len(group)

    out = {}
    runs = by_name["pipeline.run_pipeline"]
    n_cases = len(runs)
    per_case = (lambda total: total / n_cases) if n_cases else (lambda total: 0.0)
    for stage in PIPELINE_STAGES:
        total = sum(s["attrs"].get("timings_ms", {}).get(stage, 0.0) for s in runs)
        out[f"pipeline.{stage}.ms_per_case"] = (per_case(total), n_cases)
    out["pipeline.case_ms"] = (_avg([_dur_ms(s) for s in runs]), n_cases)
    out["pipeline.uncovered.ms_per_case"] = (_avg([self_ms(s) for s in runs]), n_cases)
    out["pipeline.empty_slices"] = (per_case(sum(s["attrs"].get("empty_slices", 0) for s in runs)), n_cases)
    out["pipeline.class4_used"] = (per_case(sum(s["attrs"].get("class4_used", 0) for s in runs)), n_cases)
    out["pipeline.union_fallbacks"] = (per_case(sum(s["attrs"].get("union_fallback", 0) for s in runs)), n_cases)

    extracts = [s for s in by_name["cli.main"] if s["attrs"].get("command", "").startswith("extract")]
    recluster_ms = sum(_dur_ms(s) for s in by_name["pipeline.debug_recluster"])
    out["pipeline.debug_recluster.ms"] = (recluster_ms / len(extracts) if extracts else 0.0, len(extracts))

    segments = by_name["clustering.segment_slice"]
    out["clustering.segment_slice.ms"] = ms_per_call("clustering.segment_slice")
    kmeans = by_name["clustering.kmeans_1d"]
    out["clustering.kmeans_1d.calls"] = (per_case(len(kmeans)), len(kmeans))
    out["clustering.kmeans_1d.ms"] = ms_per_call("clustering.kmeans_1d")
    ems = by_name["clustering.em_gmm_1d"]
    em_ids = {s["id"] for s in ems}
    warm = [s for s in kmeans if s["parent"] in em_ids]
    out["clustering.em_warm_start.ms"] = (sum(_dur_ms(s) for s in warm) / len(ems) if ems else 0.0, len(ems))
    out["clustering.em_restarts.ms"] = (_avg([self_ms(s) for s in ems]), len(ems))
    out["clustering.em.winner_iters"] = (_avg([s["attrs"]["n_iter"] for s in ems if "n_iter" in s["attrs"]]), len(ems))
    out["clustering.em.winner_restart"] = (
        _avg([s["attrs"]["best_restart"] for s in ems if "best_restart" in s["attrs"]]), len(ems)
    )
    out["clustering.kmeans.iters"] = (_avg([s["attrs"]["n_iter"] for s in kmeans if "n_iter" in s["attrs"]]), len(kmeans))
    out["clustering.pixels_per_slice"] = (_avg([s["attrs"]["pixels"] for s in segments]), len(segments))
    out["clustering.distinct_per_slice"] = (_avg([s["attrs"]["distinct"] for s in segments]), len(segments))

    comps = by_name["components.connected_components"]
    out["components.connected_components.calls"] = (per_case(len(comps)), len(comps))
    out["components.connected_components.ms_per_call"] = ms_per_call("components.connected_components")
    for attr, name in (("pixels_scanned", "pixels_scanned"), ("set_pixels", "set_pixels"), ("found", "components_found")):
        out[f"components.connected_components.{name}"] = (_avg([s["attrs"].get(attr, 0) for s in comps]), len(comps))

    for name in ("normalize", "enhance_contrast", "build_atlas", "load_atlas", "save_atlas"):
        out[f"preprocess.{name}.ms"] = ms_per_call(f"preprocess.{name}")

    reads = by_name["mha.read_mha"]
    out["mha.read_mha.calls"] = (per_case(len(reads)), len(reads))
    out["mha.read_mha.ms"] = ms_per_call("mha.read_mha")
    out["mha.read_mha.bytes"] = (_avg([s["attrs"].get("bytes", 0) for s in reads]), len(reads))
    out["mha.write_mha.ms"] = ms_per_call("mha.write_mha")

    out["evaluate.evaluate_case.ms"] = ms_per_call("evaluate.evaluate_case")
    cohorts = by_name["evaluate.evaluate_cohort"]
    prepass = []
    for c in cohorts:
        # The LOO prepass reads every ground truth before the first case
        # reads its intensity volume, on whichever thread runs it.
        firsts = [
            r["start"] for r in reads
            if r["attrs"].get("kind") == "intensity" and c["start"] <= r["start"] <= c["end"]
        ]
        prepass.append(((min(firsts) if firsts else c["end"]) - c["start"]) * 1000.0)
    out["evaluate.loo_prepass.ms"] = (_avg(prepass), len(cohorts))
    busy = sum(_dur_ms(s) for s in by_name["evaluate.evaluate_case"])
    cohort_wall = sum(_dur_ms(c) for c in cohorts)
    out["evaluate.thread_busy_frac"] = (busy / (cohort_wall * jobs) if cohort_wall else 0.0, len(cohorts))

    # The phantom command is the cli-disk set-up, not a measured command.
    mains = [s for s in by_name["cli.main"] if not s["attrs"].get("command", "").startswith("phantom")]
    out["cli.self_ms"] = (_avg([self_ms(s) for s in mains]), len(mains))
    builds = [s for s in mains if s["attrs"].get("command", "").startswith("atlas build")]
    out["cli.atlas_build_s"] = (_avg([_dur_ms(s) / 1000.0 for s in builds]), len(builds))
    out["phantom.generate_phantom.ms"] = ms_per_call("phantom.generate_phantom")
    return out

"""Boxes and per-slice fits of input set 0 for the methods that
benchmark/references.json does not record: phantom128 with K-means and
brats240 with EM.

Each case records its box (None when nothing is found). Each slice records
the tumour map's ``used_class``, the fit's ``best_restart`` and ``n_iter``,
K-means' ``degenerate`` or EM's ``converged`` flag, and the SHA-256 and
dtype of ``LabelMap.labels``, caught by wrapping ``pipeline.segment_slice``.
The sessions come from benchmark/workloads.py, as in test_references.py,
so the inputs are the benchmark's own. Everything is compared exactly.

A change that means to move a record regenerates the file in the same
change and says why:

    PYTHONPATH=src python3 tests/test_slice_records.py
"""

import hashlib
import importlib
import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = Path(__file__).with_name("slice_records.json")
# The method each in-memory workload does not run.
OTHER_METHOD = {"phantom128": "kmeans", "brats240": "em"}
MODULES = ("errors", "evaluate", "phantom", "pipeline", "preprocess", "volume")


def load_workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", ROOT / "benchmark" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_program():
    return types.SimpleNamespace(**{name: importlib.import_module(f"tumorbox.{name}") for name in MODULES})


def record(workloads, tb, name):
    """{case: {"box", "slices"}} for input set 0 of ``name`` under its other method."""
    method = OTHER_METHOD[name]
    run = workloads.Run(reference=None, record=True)
    session = workloads.open_session(tb, name, run, workloads.base_seed(0, held_out=False), 1, None, 1)
    segment = tb.pipeline.segment_slice
    labels = []

    def recording(*args, **kwargs):
        label_map = segment(*args, **kwargs)
        labels.append(label_map.labels)
        return label_map

    cases = {}
    tb.pipeline.segment_slice = recording
    try:
        for i, volume in enumerate(session.volumes):
            labels.clear()
            try:
                result = tb.pipeline.run_pipeline(volume, session.atlases, method=method, params=session.params)
                box, report = workloads.box_value(result.bbox), result.report
            except tb.errors.NoTumorDetectedError as exc:
                box, report = None, exc.report
            cases[f"case{i:02d}"] = {"box": box, "slices": [
                {
                    "slice_index": s.slice_index,
                    "used_class": s.used_class,
                    "best_restart": s.fit["best_restart"],
                    "n_iter": s.fit["n_iter"],
                    **({"degenerate": s.fit["degenerate"]} if method == "kmeans" else {"converged": s.fit["converged"]}),
                    "labels_sha256": hashlib.sha256(lab.tobytes()).hexdigest(),
                    "labels_dtype": str(lab.dtype),
                }
                for s, lab in zip(report.slices, labels, strict=True)
            ]}
    finally:
        tb.pipeline.segment_slice = segment
    return cases


@pytest.mark.parametrize("name", sorted(OTHER_METHOD))
def test_input_set_0_under_the_other_method_matches_the_records(name):
    expected = json.loads(RECORDS.read_text(encoding="utf-8"))[name]
    assert expected["method"] == OTHER_METHOD[name]
    assert record(load_workloads(), load_program(), name) == expected["cases"]


if __name__ == "__main__":
    workloads, tb = load_workloads(), load_program()
    out = {name: {"method": method, "cases": record(workloads, tb, name)} for name, method in OTHER_METHOD.items()}
    RECORDS.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {RECORDS}\n")

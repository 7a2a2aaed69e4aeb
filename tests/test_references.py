"""Every box of input set 0 and of the held-out set of each benchmark
workload equals the one recorded in benchmark/references.json.

The north star's invariant is that a given volume, seed and config always
gives the same box. This runs one pass of each workload exactly as
benchmark/run.py does (same inputs, same checks), so a failure here means
a box, an atlas count or an eval score changed. The workloads are loaded
from benchmark/workloads.py, which stays their one definition.
"""

import importlib
import importlib.util
import json
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmark"
MODULES = ("cli", "clustering", "components", "errors", "evaluate", "mha", "phantom",
           "pipeline", "preprocess", "volume")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tb():
    """The program as benchmark/run.py's import_program hands it over."""
    return types.SimpleNamespace(**{name: importlib.import_module(f"tumorbox.{name}") for name in MODULES})


@pytest.fixture(scope="module")
def references():
    return json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))


def check_set(workloads, tb, references, work, name, held_out):
    reference = references[name][workloads.set_key(0, held_out)]
    run = workloads.Run(reference=reference)
    session = workloads.open_session(tb, name, run, workloads.base_seed(0, held_out), 1, work, 2)
    done = [(kind, item, session.run_item(kind, item)) for kind, item in session.items]
    session.finish(done)

    assert run.failed == 0
    assert run.problems == []
    assert run.inputs_sha256 == reference["inputs_sha256"]
    assert set(run.outcomes) == set(reference["outcomes"])
    assert run.extra["mean_dice"][0] == pytest.approx(reference["mean_dice"], abs=1e-12)


@pytest.mark.parametrize("name", ["phantom128", "brats240", "cli-disk"])
def test_input_set_0_matches_the_recorded_references(workloads, tb, references, tmp_path, name):
    check_set(workloads, tb, references, tmp_path / "work", name, held_out=False)


@pytest.mark.parametrize("name", ["phantom128", "brats240", "cli-disk"])
def test_held_out_set_matches_the_recorded_references(workloads, tb, references, tmp_path, name):
    check_set(workloads, tb, references, tmp_path / "work", name, held_out=True)

"""The three benchmark workloads, their seeded inputs and their checks.

phantom128  in-memory run_pipeline, EM, on acceptance-protocol phantoms.
brats240    in-memory run_pipeline, K-means, on BraTS-sized phantoms with
            integer-valued intensities.
cli-disk    the README quick-start path through tumorbox.cli.main on an
            on-disk MetaImage manifest: atlas build, eval --loo --jobs
            <nproc>, and extract --report --debug-dir, all K-means.

Inputs come only from the program's phantom generator. ``--seed n`` picks
input set ``n % SEED_SETS``; every set, and the held-out set, has recorded
reference outcomes in references.json, so the box check applies to every
run. Why each workload exists is in README.md.
"""

import csv
import hashlib
import json
import shutil
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

SEED_SETS = 16
HELD_OUT_SET = 97  # never used while tuning; see README.md
BASE_SEED = 2015  # set 0 of phantom128 is the acceptance-test phantom set
SETUP_REPEATS = 3


def set_key(seed, held_out):
    return "held-out" if held_out else str(seed % SEED_SETS)


def base_seed(seed, held_out):
    return BASE_SEED + 1000 * (HELD_OUT_SET if held_out else seed % SEED_SETS)


@dataclass
class Run:
    """What one workload run measured and checked."""

    reference: dict | None
    record: bool = False
    setup_s: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # kind -> [(item, ms)]
    outcomes: dict = field(default_factory=dict)  # outcome key -> first value seen
    inputs_sha256: str = ""
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)

    def outcome(self, key, value, counted=True):
        """Compare one outcome with the reference and with earlier repeats.

        A mismatch is a failed operation when ``counted``; otherwise (an
        aggregate of outcomes already counted) it only marks the run wrong.
        """
        report = self.fail if counted else self.problems.append
        if key in self.outcomes and self.outcomes[key] != value:
            report(f"{key}: {value} differs from the same input earlier in this run ({self.outcomes[key]})")
            return
        self.outcomes.setdefault(key, value)
        if self.record:
            return
        expected = (self.reference or {}).get("outcomes", {}).get(key)
        if expected is None:
            report(f"{key}: no reference outcome recorded")
        elif expected != value:
            report(f"{key}: {value} != reference {expected}")

    def check_inputs(self, digest):
        if self.inputs_sha256 and digest != self.inputs_sha256:
            self.problems.append(f"set-up is not bit-identical across repeats: {digest} != {self.inputs_sha256}")
        self.inputs_sha256 = self.inputs_sha256 or digest

    def reference_entry(self, mean_dice):
        return {"inputs_sha256": self.inputs_sha256, "outcomes": self.outcomes, "mean_dice": mean_dice}


def box_value(bbox):
    return [bbox.row_min, bbox.col_min, bbox.row_max, bbox.col_max]


def timed_cycle(items, seconds, run_item, full_pass=False):
    """Run every item once, then keep cycling while ``seconds`` last.

    The first pass always completes, so every input is measured whatever
    the speed; after it an item is skipped when the median time of its kind
    says it would end past the budget, so a run ends close to ``seconds``.
    ``full_pass`` stops after the first pass. Returns (kind, item, ms) in
    the order run.
    """
    done = []
    times = {}
    start = perf_counter()
    first = True
    while True:
        progressed = False
        for kind, item in items:
            seen = times.setdefault(kind, [])
            if not first and perf_counter() - start + median(seen) / 1000.0 > seconds:
                continue
            ms = run_item(kind, item)
            seen.append(ms)
            done.append((kind, item, ms))
            progressed = True
        if full_pass or not progressed:
            return done
        first = False


def _fingerprint(*arrays):
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


# --- in-memory workloads ---------------------------------------------------

@dataclass(frozen=True)
class InMemory:
    method: str
    slices: tuple
    cases: int

    def to_volume(self, tb, intensity):
        return intensity


class Phantom128(InMemory):
    def spec(self, tb, base, i):
        # The acceptance-test phantom protocol (tests/conftest.py): tissue
        # 0.5, tumor +0.4, radius 12-20, ball crossing all six slices.
        place = np.random.default_rng([base, i])
        return tb.phantom.PhantomSpec(
            dims=(128, 128, 64),
            brain_center=(64.0, 64.0, 32.0),
            brain_radii=(50.0, 56.0, 28.0),
            tumor_center=(
                64.0 + place.uniform(-8, 8),
                64.0 + place.uniform(-8, 8),
                32.0 + place.uniform(-2, 3),
            ),
            tumor_radius=float(place.uniform(12, 20)),
            tumor_offset=0.4,
            tissue_intensity=0.5,
            noise_sigma=0.03,
            seed=base + i,
        )


BRATS_SCALE = 1000.0


class Brats240(InMemory):
    def spec(self, tb, base, i):
        # Brain ellipsoid in the CLI's BraTS proportions; whole-tumour radius
        # 22-30 voxels, centred at depth 80-86 so slice 50 never crosses it.
        place = np.random.default_rng([base, i])
        return tb.phantom.PhantomSpec(
            dims=(240, 240, 155),
            brain_center=(120.0, 120.0, 77.5),
            brain_radii=(93.6, 105.6, 68.2),
            tumor_center=(
                120.0 + place.uniform(-15, 15),
                120.0 + place.uniform(-15, 15),
                83.0 + place.uniform(-3, 3),
            ),
            tumor_radius=float(place.uniform(22, 30)),
            tumor_offset=0.4,
            tissue_intensity=0.5,
            noise_sigma=0.03,
            seed=base + i,
        )

    def to_volume(self, tb, intensity):
        # Integer intensities as in BraTS int16 FLAIR. Held as int16 (the
        # on-disk type) so six volumes fit in ~110 MB; normalize casts each
        # slice to float64, so boxes equal those of the float64 volume.
        data = np.rint(intensity.data * BRATS_SCALE).astype(np.int16)
        return tb.volume.Volume(data=data, element_type="MET_SHORT")


IN_MEMORY = {
    "phantom128": Phantom128("em", (26, 30, 32, 34, 36, 40), cases=10),
    "brats240": Brats240("kmeans", (50, 66, 87, 89, 92, 110), cases=6),
}


def _setup_in_memory(tb, wl, base):
    volumes, gt_slices, gt_boxes = [], [], []
    for i in range(wl.cases):
        intensity, gt = tb.phantom.generate_phantom(wl.spec(tb, base, i))
        volumes.append(wl.to_volume(tb, intensity))
        gt_slices.append([tb.volume.extract_slice(gt, n) for n in wl.slices])
        gt_boxes.append(tb.evaluate.gt_box(tb.evaluate.cumulative_gt(gt)))
        del intensity, gt
    atlases = {
        n: tb.preprocess.build_atlas([per_case[k] for per_case in gt_slices])
        for k, n in enumerate(wl.slices)
    }
    return volumes, atlases, gt_boxes


class InMemorySession:
    """Set-up and per-item work of an in-memory workload."""

    def __init__(self, tb, wl, run, base, repeats):
        self.tb, self.wl, self.run = tb, wl, run
        kept = None
        for _ in range(repeats):
            t0 = perf_counter()
            volumes, atlases, gt_boxes = _setup_in_memory(tb, wl, base)
            run.setup_s.append(perf_counter() - t0)
            run.check_inputs(_fingerprint(
                *(v.data for v in volumes),
                *(atlases[n].counts for n in wl.slices),
                np.array([box_value(b) for b in gt_boxes]),
            ))
            kept = kept or (volumes, atlases, gt_boxes)
            del volumes, atlases, gt_boxes
        self.volumes, self.atlases, self.gt_boxes = kept
        self.params = tb.pipeline.ExtractParams(representative_slices=wl.slices, radius_margin=1.0)
        self.items = [(wl.method, i) for i in range(wl.cases)]
        self.boxes = {}

    def run_item(self, kind, i):
        tb, run = self.tb, self.run
        run.attempted += 1
        t0 = perf_counter()
        try:
            result = tb.pipeline.run_pipeline(self.volumes[i], self.atlases, method=kind, params=self.params)
            value = box_value(result.bbox)
        except tb.errors.NoTumorDetectedError:
            value = None
        except Exception:
            ms = (perf_counter() - t0) * 1000.0
            run.fail(f"case{i:02d}: {traceback.format_exc(limit=3)}")
            return ms
        ms = (perf_counter() - t0) * 1000.0
        run.outcome(f"case{i:02d}", value)
        self.boxes.setdefault(i, value)
        return ms

    def finish(self, done):
        self.run.samples[self.wl.method] = [(i, ms) for _, i, ms in done]
        dims = (self.volumes[0].width, self.volumes[0].height)
        dice = [
            self.tb.evaluate.dice_box(self.tb.pipeline.BBox(*box), self.gt_boxes[i], dims) if box else 0.0
            for i, box in sorted(self.boxes.items())
        ]
        self.run.extra["mean_dice"] = (float(np.mean(dice)) if dice else 0.0, len(dice))


# --- cli-disk ---------------------------------------------------------------

CLI_CASES = 10
CLI_SLICES = "26,30,32,34,36,40"


def _cli(tb, argv):
    """Run tumorbox.cli.main in process; returns (exit code, stdout)."""
    out = StringIO()
    with redirect_stdout(out):
        code = tb.cli.main(list(argv))
    return code, out.getvalue()


def _tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class CliDiskSession:
    """Set-up and per-item work of cli-disk; all files live under ``work``."""

    def __init__(self, tb, run, base, repeats, work, jobs):
        self.tb, self.run, self.jobs = tb, run, jobs
        self.cases_dir, self.atlas_dir = work / "cases", work / "atlases"
        self.results_dir, self.debug_dir, self.report = work / "results", work / "debug", work / "report.json"
        config = work / "config.json"
        work.mkdir(parents=True, exist_ok=True)
        # radius_margin 1.0, as the README advises when scoring against tight
        # ground-truth boxes; also puts config-file resolution on the path.
        config.write_text(json.dumps({"extract": {"radius_margin": 1.0}}) + "\n", encoding="utf-8")
        argv = ["phantom", "--out-dir", str(self.cases_dir), "--count", str(CLI_CASES), "--seed", str(base)]
        for _ in range(repeats):
            shutil.rmtree(self.cases_dir, ignore_errors=True)
            t0 = perf_counter()
            code, _ = _cli(tb, argv)
            run.setup_s.append(perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"phantom exited {code}")
            run.check_inputs(_tree_digest(self.cases_dir))

        self.stems = [f"phantom_{i:03d}" for i in range(CLI_CASES)]
        self.gt_boxes = {
            stem: tb.evaluate.gt_box(tb.evaluate.cumulative_gt(
                tb.mha.read_mha(self.cases_dir / f"{stem}_gt.mha", kind="label")))
            for stem in self.stems
        }
        self.common = ["--slices", CLI_SLICES, "--config", str(config)]
        self.extract_boxes = {}
        self.eval_dice = []
        half = CLI_CASES // 2
        # Two evals per pass so each run has several eval samples.
        self.items = [("atlas", None), ("eval", None), *(("extract", s) for s in self.stems[:half]),
                      ("eval", None), *(("extract", s) for s in self.stems[half:])]

    def argv(self, kind, item):
        manifest = str(self.cases_dir / "manifest.csv")
        if kind == "extract":
            return ["extract", "--volume", str(self.cases_dir / f"{item}_flair.mha"),
                    "--atlas-dir", str(self.atlas_dir), "--method", "kmeans", "--report", str(self.report),
                    "--debug-dir", str(self.debug_dir), *self.common]
        if kind == "eval":
            return ["eval", "--manifest", manifest, "--out-dir", str(self.results_dir),
                    "--loo", "--jobs", str(self.jobs), "--method", "kmeans", *self.common]
        return ["atlas", "build", "--manifest", manifest, "--out-dir", str(self.atlas_dir), *self.common]

    def run_item(self, kind, item):
        run = self.run
        argv = self.argv(kind, item)
        run.attempted += CLI_CASES if kind == "eval" else 1
        t0 = perf_counter()
        try:
            code, stdout = _cli(self.tb, argv)
        except Exception:
            ms = (perf_counter() - t0) * 1000.0
            run.fail(f"{argv[0]}: {traceback.format_exc(limit=3)}")
            return ms
        ms = (perf_counter() - t0) * 1000.0
        if code != 0:
            run.fail(f"{' '.join(argv[:2])} exited {code}")
            return ms
        try:
            self._check(kind, item, stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            run.fail(f"{' '.join(argv[:2])}: unreadable output: {exc!r}")
        return ms

    def _check(self, kind, item, stdout):
        if kind == "extract":
            bbox = json.loads(stdout)["bbox"]
            value = [bbox["row_min"], bbox["col_min"], bbox["row_max"], bbox["col_max"]] if bbox else None
            self.run.outcome(f"extract/{item}", value)
            self.extract_boxes.setdefault(item, value)
        elif kind == "eval":
            self.eval_dice.append(_check_eval(self.run, self.results_dir))
        else:
            built = json.loads(stdout)["atlases"]
            self.run.outcome("atlas/num_patients", [a["num_patients"] for a in built])

    def finish(self, done):
        for kind in ("atlas", "eval", "extract"):
            self.run.samples[kind] = [(item, ms) for k, item, ms in done if k == kind]
        dice = [
            self.tb.evaluate.dice_box(self.tb.pipeline.BBox(*box), self.gt_boxes[stem], (128, 128)) if box else 0.0
            for stem, box in sorted(self.extract_boxes.items())
        ]
        self.run.extra["mean_dice"] = (float(np.mean(dice)) if dice else 0.0, len(dice))
        self.run.extra["eval_mean_dice"] = (self.eval_dice[-1] if self.eval_dice else 0.0, CLI_CASES)


def _check_eval(run, results_dir):
    with open(results_dir / "results_kmeans.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != CLI_CASES:
        run.fail(f"eval wrote {len(rows)} rows, expected {CLI_CASES}")
    for row in rows:
        run.outcome(f"eval/{row['case_id']}", [row["dice"], row["failed"]])
    summary = json.loads((results_dir / "summary_kmeans.json").read_text(encoding="utf-8"))
    cohort = summary["cohorts"][0]
    if cohort["n_errors"]:
        run.fail(f"eval reported {cohort['n_errors']} case errors")
    run.outcome("eval/mean_dice", cohort["mean_dice"], counted=False)
    return cohort["mean_dice"]


WORKLOADS = (*IN_MEMORY, "cli-disk")


def open_session(tb, name, run, base, repeats, work, jobs):
    """Set the workload up ``repeats`` times and return its session."""
    if name == "cli-disk":
        return CliDiskSession(tb, run, base, repeats, work, jobs)
    return InMemorySession(tb, IN_MEMORY[name], run, base, repeats)

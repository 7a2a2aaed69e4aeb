"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The dataset-backed cohort-score check only runs when a BraTS 2015 manifest
is supplied via TUMORBOX_BRATS_MANIFEST; the phantom and property suites
below are the binding checks at desk scale.
"""

import hashlib
import json
import os
import time

import numpy as np
import pytest

from oracles import (
    binarize_loop,
    cumulative_loop,
    flood_fill_components,
    kmeans_dp_objective,
    normalize_loop,
)
from conftest import PHANTOM_REP_SLICES, make_phantom_spec, make_slice

from tumorbox.cli import main as cli_main
from tumorbox.clustering import ClusterConfig, em_gmm_1d, kmeans_1d
from tumorbox.components import connected_components
from tumorbox.config import RunConfig
from tumorbox.evaluate import (
    binarize_gt,
    cumulative_gt,
    dice_box,
    evaluate_manifest,
    gt_box,
    read_manifest,
)
from tumorbox.phantom import generate_phantom
from tumorbox.pipeline import (
    BBox,
    ExtractParams,
    TumorMap,
    bounding_box,
    fuse_maps,
    run_pipeline,
)
from tumorbox.preprocess import build_atlas
from tumorbox.volume import Slice, Volume, extract_slice


# --- criterion: BraTS 2015 cohort means (dataset-dependent) ----------------

@pytest.mark.skipif(
    "TUMORBOX_BRATS_MANIFEST" not in os.environ,
    reason="requires user-supplied BraTS 2015 data (set TUMORBOX_BRATS_MANIFEST)",
)
def test_brats_cohort_reference_scores():
    manifest = read_manifest(os.environ["TUMORBOX_BRATS_MANIFEST"])
    expected = {"em": {"HGG": 0.75, "LGG": 0.69}, "kmeans": {"HGG": 0.55, "LGG": 0.50}}
    params = ExtractParams()
    overall_em = []
    for method, cohort_targets in expected.items():
        results = evaluate_manifest(manifest, None, RunConfig(method=method, extract=params, loo=True))
        for res in results:
            print(
                f"[brats] method={method} cohort={res.cohort} mean={res.mean_dice:.3f} "
                f"mean_paper_union={res.mean_dice_paper_union:.3f} n={res.n}"
            )
            target = cohort_targets.get(res.cohort)
            if target is not None:
                assert abs(res.mean_dice - target) <= 0.08
            if method == "em":
                overall_em.extend(res.dice)
    assert abs(float(np.mean(overall_em)) - 0.73) <= 0.08


# --- criterion: phantom pipeline, EM >= 0.70 and EM >= K-means -------------

def test_phantom_pipeline_dice_and_method_ordering():
    start = time.perf_counter()
    cases = []
    for i in range(20):
        spec = make_phantom_spec(i)
        assert 12.0 <= spec.tumor_radius <= 20.0
        intensity, gt = generate_phantom(spec)
        # the tumor ball must intersect every representative slice
        for n in PHANTOM_REP_SLICES:
            assert abs(n - spec.tumor_center[2]) <= spec.tumor_radius
        cases.append((intensity, gt))

    atlases = {
        n: build_atlas([extract_slice(gt, n) for _, gt in cases])
        for n in PHANTOM_REP_SLICES
    }
    # radius_margin 1.0: the predicted box is scored against the tight
    # ground-truth box, so the acceptance run does not inflate the safety disk
    params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)

    means = {}
    for method in ("em", "kmeans"):
        scores = []
        for intensity, gt in cases:
            result = run_pipeline(intensity, atlases, method=method, params=params)
            box = gt_box(cumulative_gt(gt))
            scores.append(dice_box(result.bbox, box, (intensity.width, intensity.height)))
        means[method] = float(np.mean(scores))
    elapsed = time.perf_counter() - start

    print(
        f"[phantom] em={means['em']:.4f} kmeans={means['kmeans']:.4f} "
        f"elapsed={elapsed:.1f}s"
    )
    assert means["em"] >= 0.70
    assert means["em"] >= means["kmeans"]
    assert elapsed < 60.0


# --- criterion: EM property suite ------------------------------------------

def test_em_property_suite():
    rng = np.random.default_rng(424242)
    for trial in range(50):
        k = int(rng.integers(2, 6))
        parts = [
            rng.normal(rng.uniform(0, 1), rng.uniform(0.01, 0.15), rng.integers(30, 120))
            for _ in range(k)
        ]
        values = np.concatenate(parts)
        res = em_gmm_1d(values, ClusterConfig(k=k, seed=trial))
        trace = np.asarray(res.log_likelihood_trace)
        assert np.all(np.diff(trace) >= -1e-9), f"trial {trial}: trace not monotone"
        row_err = np.max(np.abs(res.posteriors.sum(axis=1) - 1.0))
        assert row_err <= 1e-9, f"trial {trial}: posterior rows off by {row_err}"

    rng = np.random.default_rng(7)
    for trial in range(10):
        values = rng.random(rng.integers(2, 200))
        res = em_gmm_1d(values, ClusterConfig(k=1))
        assert abs(res.model.means[0] - values.mean()) <= 1e-12
        assert abs(res.model.variances[0] - np.var(values)) <= 1e-12
        assert res.model.weights[0] == 1.0


# --- criterion: K-means equals the DP optimum -------------------------------

def test_kmeans_matches_dp_oracle():
    rng = np.random.default_rng(31337)
    hits = 0
    for trial in range(100):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(2, 4))
        values = rng.random(n)
        res = kmeans_1d(values, ClusterConfig(k=k, n_restarts=10, seed=trial))
        opt = kmeans_dp_objective(values, k)
        assert res.objective >= opt - 1e-9 * max(1.0, opt), "beat the DP optimum"
        if res.objective <= opt * (1 + 1e-9) + 1e-15:
            hits += 1
    print(f"[kmeans-dp] optimal in {hits}/100 instances")
    assert hits >= 95


# --- criterion: connected components match flood fill ------------------------

def test_connected_components_match_flood_fill():
    rng = np.random.default_rng(2718)
    for trial in range(200):
        height = int(rng.integers(1, 65))
        width = int(rng.integers(1, 65))
        mask = rng.random((height, width)) < rng.uniform(0.05, 0.6)
        for connectivity in (4, 8):
            comps = connected_components(mask, connectivity=connectivity)
            got = {frozenset(map(tuple, c.pixels.tolist())) for c in comps}
            assert got == flood_fill_components(mask, connectivity), (
                f"trial {trial} connectivity {connectivity}"
            )


# --- criterion: bounding-box minimality and margin monotonicity -------------

def test_bounding_box_minimality_and_margins():
    rng = np.random.default_rng(1618)
    checked = 0
    while checked < 200:
        height = int(rng.integers(2, 40))
        width = int(rng.integers(2, 40))
        mask = rng.random((height, width)) < 0.1
        if not mask.any():
            continue
        checked += 1
        tumor_map = TumorMap(mask=mask, slice_index=1)
        box = bounding_box(tumor_map, margin=0)
        assert mask[box.row_min, :].any() and mask[box.row_max, :].any()
        assert mask[:, box.col_min].any() and mask[:, box.col_max].any()
        rows, cols = np.nonzero(mask)
        assert box.row_min <= rows.min() and rows.max() <= box.row_max
        assert box.col_min <= cols.min() and cols.max() <= box.col_max

        previous = None
        for margin in (0, 1, 3, 7):
            grown = bounding_box(tumor_map, margin=margin)
            if previous is not None:
                assert grown.row_min <= previous.row_min
                assert grown.col_min <= previous.col_min
                assert grown.row_max >= previous.row_max
                assert grown.col_max >= previous.col_max
            previous = grown


# --- criterion: Dice unit vector --------------------------------------------

def test_dice_unit_vector():
    dims = (240, 240)
    a = BBox(12, 30, 47, 59)
    assert dice_box(a, a, dims, "standard") == 1.0
    b = BBox(100, 100, 120, 130)
    assert dice_box(a, b, dims, "standard") == 0.0
    assert dice_box(a, b, dims, "paper-union") == 0.0
    left = BBox(0, 0, 9, 9)
    right = BBox(5, 5, 14, 14)
    assert abs(dice_box(left, right, dims, "standard") - 0.25) <= 1e-12
    assert abs(dice_box(left, right, dims, "paper-union") - 50 / 175) <= 1e-12


# --- criterion: voting excludes a lone spurious detection --------------------

def test_voting_excludes_spurious_pixel():
    maps = []
    for i in range(6):
        mask = np.zeros((16, 16), dtype=bool)
        if i < 4:
            mask[10:14, 3:13] = True  # detections span the bottom quadrants
        if i == 5:
            mask[1, 1] = True  # lone top-left spurious detection
        maps.append(TumorMap(mask=mask, slice_index=i + 1))
    fused = fuse_maps(maps, ExtractParams())
    assert fused.votes[2] >= 2 and fused.votes[3] >= 2
    assert not fused.fused.mask[1, 1]
    assert fused.fused.mask[11, 5]


# --- criterion: CLI determinism ----------------------------------------------

def _strip_timing_json(path):
    payload = json.loads(path.read_text())
    payload.pop("timings_ms", None)
    return json.dumps(payload, sort_keys=True)


def _strip_wall_csv(path):
    rows = path.read_text().strip().splitlines()
    return [",".join(r.split(",")[:-1]) for r in rows]


def test_cli_determinism_all_subcommands(tmp_path, capsys):
    # identical flags (including paths) on both passes; outputs snapshotted
    # in between, timing fields excluded
    small = ["--dims", "48", "48", "24", "--radius-min", "4", "--radius-max", "6"]
    slices = "10,11,12,13,14,15"
    cases = tmp_path / "cases"
    atlases = tmp_path / "atlases"
    report = tmp_path / "report.json"
    results = tmp_path / "results"

    def run_all():
        out = {}
        assert cli_main(["phantom", "--out-dir", str(cases), "--count", "2", "--seed", "5", *small]) == 0
        out["phantom_stdout"] = capsys.readouterr().out
        assert cli_main([
            "atlas", "build", "--manifest", str(cases / "manifest.csv"),
            "--out-dir", str(atlases), "--slices", slices,
        ]) == 0
        out["atlas_stdout"] = capsys.readouterr().out
        assert cli_main([
            "extract", "--volume", str(cases / "phantom_000_flair.mha"),
            "--atlas-dir", str(atlases), "--slices", slices, "--seed", "5",
            "--report", str(report),
        ]) == 0
        out["extract_stdout"] = capsys.readouterr().out
        assert cli_main([
            "eval", "--manifest", str(cases / "manifest.csv"), "--atlas-dir", str(atlases),
            "--out-dir", str(results), "--slices", slices, "--seed", "5", "--method", "em",
        ]) == 0
        out["eval_stdout"] = capsys.readouterr().out
        assert cli_main([
            "select-slices", "--manifest", str(cases / "manifest.csv"),
            "--count", "3", "--min-slice", "5", "--max-slice", "20",
        ]) == 0
        out["select_stdout"] = capsys.readouterr().out

        out["phantom_files"] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(cases.iterdir())
        }
        out["atlas_files"] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(atlases.iterdir())
        }
        out["report"] = _strip_timing_json(report)
        out["eval_csv"] = _strip_wall_csv(results / "results_em.csv")
        out["eval_summary"] = (results / "summary_em.json").read_text()
        return out

    first = run_all()
    second = run_all()
    for key in first:
        assert first[key] == second[key], f"{key} differs between identical reruns"


# --- criterion: per-pixel conformance of the three pixel transforms ---------

def test_pixel_transform_conformance():
    rng = np.random.default_rng(5050)
    for trial in range(50):
        height = int(rng.integers(1, 20))
        width = int(rng.integers(1, 20))

        data = rng.random((height, width)) * rng.uniform(0.5, 30)
        from tumorbox.preprocess import normalize

        got = normalize(make_slice(data)).data
        assert np.array_equal(got, normalize_loop(data)), f"normalize trial {trial}"

        labels = rng.integers(0, 5, size=(height, width)).astype(np.int16)
        got_bin = binarize_gt(Slice(data=labels, index=1)).data
        assert np.array_equal(got_bin, binarize_loop(labels)), f"binarize trial {trial}"

        depth = int(rng.integers(1, 8))
        grid = (rng.random((depth, height, width)) < 0.15).astype(np.int16) * int(rng.integers(1, 5))
        vol = Volume(data=grid, kind="label")
        got_cum = cumulative_gt(vol).data
        assert np.array_equal(got_cum, cumulative_loop(grid)), f"cumulative trial {trial}"

import logging
import multiprocessing
import os
import signal
import time
from multiprocessing.context import ForkProcess

import numpy as np
import pytest

from oracles import binarize_loop, cumulative_loop, dice_enumerated
from conftest import PHANTOM_REP_SLICES, make_slice

import tumorbox.evaluate as ev
from tumorbox.clustering import ClusterConfig
from tumorbox.config import RunConfig
from tumorbox.errors import EmptyGroundTruthError, FormatError, ValidationError
from tumorbox.evaluate import (
    ManifestCase,
    binarize_gt,
    cumulative_gt,
    dice_box,
    evaluate_case,
    evaluate_cohort,
    gt_box,
    read_manifest,
)
from tumorbox.mha import read_mha, write_mha
from tumorbox.pipeline import BBox, ExtractParams, PipelineReport
from tumorbox.volume import KIND_LABEL, Slice, Volume


class TestBinarize:
    def test_all_brats_labels(self):
        slc = Slice(data=np.array([[0, 1, 2, 3, 4]], dtype=np.int16), index=1)
        assert binarize_gt(slc).data.tolist() == [[0, 1, 1, 1, 1]]

    def test_all_zero(self):
        assert np.all(binarize_gt(make_slice(np.zeros((3, 3)))).data == 0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(61)
        data = rng.integers(0, 5, size=(9, 9)).astype(np.int16)
        got = binarize_gt(Slice(data=data, index=2))
        assert np.array_equal(got.data, binarize_loop(data))


class TestCumulative:
    def test_single_slice_support(self):
        data = np.zeros((155, 6, 6), dtype=np.int16)
        data[79, 2:4, 1:3] = 2  # tumor only in slice 80
        vol = Volume(data=data, kind="label")
        got = cumulative_gt(vol)
        assert np.array_equal(got.data, binarize_loop(data[79]))

    def test_empty_volume(self):
        vol = Volume(data=np.zeros((5, 4, 4), dtype=np.int16), kind="label")
        assert np.all(cumulative_gt(vol).data == 0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(62)
        data = (rng.random((8, 7, 7)) < 0.1).astype(np.int16)
        vol = Volume(data=data, kind="label")
        assert np.array_equal(cumulative_gt(vol).data, cumulative_loop(data))

    def test_ball_projects_to_equatorial_disk(self, phantom_cases):
        spec, _, gt = phantom_cases[0]
        got = cumulative_gt(gt).data.astype(bool)
        tx, ty, tz = spec.tumor_center
        r = spec.tumor_radius
        cols = np.arange(gt.width, dtype=np.float64)[None, :]
        rows = np.arange(gt.height, dtype=np.float64)[:, None]
        # voxel (x, y, z) is in the ball iff (x-tx)^2+(y-ty)^2 <= r^2-(z-tz)^2;
        # maximised over the integer z closest to tz
        zs = np.arange(gt.depth, dtype=np.float64)
        best_z = zs[np.argmin(np.abs(zs - tz))]
        disk = (cols - tx) ** 2 + (rows - ty) ** 2 <= r**2 - (best_z - tz) ** 2
        assert np.array_equal(got, disk)

    def test_union_of_binarized_slices(self):
        rng = np.random.default_rng(63)
        data = (rng.random((6, 5, 5)) < 0.2).astype(np.int16) * 3
        vol = Volume(data=data, kind="label")
        union = np.zeros((5, 5), dtype=bool)
        for k in range(1, 7):
            union |= binarize_gt(Slice(data=data[k - 1], index=k)).data.astype(bool)
        assert np.array_equal(cumulative_gt(vol).data.astype(bool), union)


class TestGtBox:
    def test_minimal_box(self):
        data = np.zeros((9, 9), dtype=np.uint8)
        data[2, 3] = data[5, 7] = 1
        box = gt_box(Slice(data=data, index=0))
        assert (box.row_min, box.col_min, box.row_max, box.col_max) == (2, 3, 5, 7)

    def test_empty_raises(self):
        with pytest.raises(EmptyGroundTruthError):
            gt_box(Slice(data=np.zeros((4, 4), dtype=np.uint8), index=0))


class TestDiceBox:
    DIMS = (240, 240)

    def test_identical_boxes_standard_exactly_one(self):
        a = BBox(10, 10, 30, 40)
        assert dice_box(a, a, self.DIMS, "standard") == 1.0

    def test_disjoint_zero_under_both(self):
        a = BBox(0, 0, 4, 4)
        b = BBox(50, 50, 60, 60)
        assert dice_box(a, b, self.DIMS, "standard") == 0.0
        assert dice_box(a, b, self.DIMS, "paper-union") == 0.0

    def test_worked_overlap_case(self):
        a = BBox(0, 0, 9, 9)
        b = BBox(5, 5, 14, 14)
        assert dice_box(a, b, self.DIMS, "standard") == pytest.approx(0.25, abs=1e-12)
        assert dice_box(a, b, self.DIMS, "paper-union") == pytest.approx(50 / 175, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(64)
        for _ in range(25):
            r0, c0 = rng.integers(0, 180, 2)
            a = BBox(int(r0), int(c0), int(r0 + rng.integers(0, 50)), int(c0 + rng.integers(0, 50)))
            r1, c1 = rng.integers(0, 180, 2)
            b = BBox(int(r1), int(c1), int(r1 + rng.integers(0, 50)), int(c1 + rng.integers(0, 50)))
            for formula in ("standard", "paper-union"):
                assert dice_box(a, b, self.DIMS, formula) == pytest.approx(
                    dice_enumerated(a, b, formula), abs=1e-12
                )

    def test_symmetry_and_translation(self):
        a = BBox(3, 4, 10, 12)
        b = BBox(6, 2, 14, 9)
        for formula in ("standard", "paper-union"):
            assert dice_box(a, b, self.DIMS, formula) == dice_box(b, a, self.DIMS, formula)
            a2 = BBox(a.row_min + 5, a.col_min + 7, a.row_max + 5, a.col_max + 7)
            b2 = BBox(b.row_min + 5, b.col_min + 7, b.row_max + 5, b.col_max + 7)
            assert dice_box(a, b, self.DIMS, formula) == pytest.approx(
                dice_box(a2, b2, self.DIMS, formula), abs=1e-15
            )

    def test_paper_union_geq_standard_when_overlapping(self):
        rng = np.random.default_rng(65)
        for _ in range(25):
            r0, c0 = rng.integers(0, 100, 2)
            a = BBox(int(r0), int(c0), int(r0 + rng.integers(1, 40)), int(c0 + rng.integers(1, 40)))
            r1, c1 = rng.integers(0, 100, 2)
            b = BBox(int(r1), int(c1), int(r1 + rng.integers(1, 40)), int(c1 + rng.integers(1, 40)))
            std = dice_box(a, b, self.DIMS, "standard")
            pu = dice_box(a, b, self.DIMS, "paper-union")
            assert pu >= std - 1e-15

    def test_paper_union_unclamped_above_one(self, caplog):
        # eval scores every case in both forms, so a near-identical box is
        # routine and its union form, close to 2, is not worth a warning.
        a = BBox(10, 10, 20, 20)
        with caplog.at_level("DEBUG"):
            assert dice_box(a, a, self.DIMS, "paper-union") == 2.0
            assert dice_box(a, BBox(10, 10, 20, 21), self.DIMS, "paper-union") == pytest.approx(242 / 132)
        assert not caplog.records

    def test_box_outside_dims_rejected(self):
        with pytest.raises(ValidationError):
            dice_box(BBox(0, 0, 300, 300), BBox(0, 0, 1, 1), self.DIMS)

    def test_unknown_formula_rejected(self):
        with pytest.raises(ValidationError):
            dice_box(BBox(0, 0, 1, 1), BBox(0, 0, 1, 1), self.DIMS, "jaccard")


class TestEvaluateCase:
    def test_phantom_em_scores_high(self, phantom_cases, phantom_atlases):
        spec, vol, gt = phantom_cases[0]
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        result = evaluate_case(vol, cumulative_gt(gt), phantom_atlases, RunConfig(method="em", extract=params))
        assert not result.failed
        assert result.dice >= 0.7

    def test_injected_identical_boxes_score_one(self, monkeypatch, phantom_cases, phantom_atlases):
        spec, vol, gt = phantom_cases[0]
        target = gt_box(cumulative_gt(gt))

        class Fake:
            bbox = target
            report = PipelineReport("em", [], (0, 0, 0, 0), (), False, target)

        monkeypatch.setattr(ev, "run_pipeline", lambda *a, **k: Fake())
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES)
        result = evaluate_case(vol, cumulative_gt(gt), phantom_atlases, RunConfig(extract=params))
        assert result.dice == 1.0

    def test_unconverged_em_warns_once_naming_case_and_slices(self, phantom_cases, phantom_atlases, caplog):
        spec, vol, gt = phantom_cases[0]
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        cfg = RunConfig(method="em", extract=params, cluster=ClusterConfig(max_iter=2))
        with caplog.at_level(logging.WARNING):
            result = evaluate_case(vol, cumulative_gt(gt), phantom_atlases, cfg, case_id="phantom_000")
        by_logger = {}
        for rec in caplog.records:
            by_logger.setdefault(rec.name, []).append(rec.getMessage())
        unconverged = result.report.unconverged_slices()
        assert unconverged == list(PHANTOM_REP_SLICES)
        assert by_logger["tumorbox.evaluate"] == [
            "case phantom_000: EM stopped at max_iter=2 without converging on slice(s) "
            + ", ".join(map(str, unconverged))
        ]
        # this is the only warning: segment_slice logs nothing per slice
        assert "tumorbox.clustering" not in by_logger

    def test_failed_detection_scores_zero_with_flag(self, phantom_cases, phantom_atlases):
        spec, _, gt = phantom_cases[0]
        zero = Volume(data=np.zeros((64, 128, 128)))
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES)
        result = evaluate_case(zero, cumulative_gt(gt), phantom_atlases, RunConfig(extract=params))
        assert result.failed
        assert result.dice == 0.0
        assert result.bbox_pred is None

    def test_ground_truth_plane_of_another_shape_is_rejected_before_the_pipeline(
        self, monkeypatch, phantom_cases, phantom_atlases
    ):
        spec, vol, gt = phantom_cases[0]
        cropped = Volume(data=gt.data[:, 16:112, 16:112], kind=KIND_LABEL)  # keeps the tumor
        monkeypatch.setattr(ev, "run_pipeline", lambda *a, **k: pytest.fail("pipeline ran"))
        cfg = RunConfig(extract=ExtractParams(representative_slices=PHANTOM_REP_SLICES))
        with pytest.raises(ValidationError) as info:
            evaluate_case(vol, cumulative_gt(cropped), phantom_atlases, cfg)
        assert str(info.value) == (
            "ground truth plane has shape (96, 96), but the volume's slices have shape (128, 128)"
        )


class TestManifest:
    def test_round_trip_and_relative_paths(self, tmp_path):
        man = tmp_path / "manifest.csv"
        man.write_text("intensity_path,gt_path,cohort\ncase_flair.mha,case_gt.mha,HGG\n")
        cases = read_manifest(man)
        assert len(cases) == 1
        assert cases[0].case_id == "case_flair"
        assert cases[0].intensity_path == tmp_path / "case_flair.mha"
        assert cases[0].cohort == "HGG"

    def test_case_id_drops_only_a_trailing_extension(self, tmp_path):
        # ".mha" or ".mhd" inside the name is part of the ID: "a.mha1.mha"
        # is not "a1", and "b.mhd_t1.mha" is not "b_t1".
        man = tmp_path / "manifest.csv"
        rows = ["a.mha1.mha", "a1.mha", "b.mhd_t1.mha", "c.mhd", "d.nii", "e.mhd.mha"]
        man.write_text("intensity_path,gt_path,cohort\n" + "".join(f"{r},gt_{r},HGG\n" for r in rows))
        assert [c.case_id for c in read_manifest(man)] == ["a.mha1", "a1", "b.mhd_t1", "c", "d.nii", "e.mhd"]

    def test_short_row_rejected_but_empty_field_kept(self, tmp_path):
        man = tmp_path / "short.csv"
        man.write_text("intensity_path,gt_path,cohort\na_flair.mha,,HGG\nb_flair.mha,b_gt.mha\n")
        with pytest.raises(FormatError, match=f"manifest {man} line 3 has fewer fields than its header"):
            read_manifest(man)
        man.write_text("intensity_path,gt_path,cohort\na_flair.mha,,HGG\n")
        assert [(c.case_id, c.gt_path) for c in read_manifest(man)] == [("a_flair", tmp_path)]

    def test_missing_columns_rejected(self, tmp_path):
        man = tmp_path / "bad.csv"
        man.write_text("a,b\n1,2\n")
        with pytest.raises(FormatError):
            read_manifest(man)

    def test_duplicate_case_id_rejected(self, tmp_path):
        # the same file name in two directories maps to one case ID
        man = tmp_path / "dup.csv"
        man.write_text(
            "intensity_path,gt_path,cohort\n"
            "a/case_flair.mha,a/case_gt.mha,HGG\n"
            "b/case_flair.mha,b/case_gt.mha,LGG\n"
        )
        with pytest.raises(FormatError, match="case_flair"):
            read_manifest(man)

    def test_byte_order_mark_ignored(self, tmp_path):
        # spreadsheet programs save UTF-8 CSV with a leading BOM
        text = "intensity_path,gt_path,cohort\na_flair.mha,a_gt.mha,HGG\nb_flair.mha,b_gt.mha,LGG\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert read_manifest(marked) == read_manifest(plain)


def write_phantom_manifest(tmp_path, cases):
    lines = ["intensity_path,gt_path,cohort"]
    for i, (spec, vol, gt) in enumerate(cases):
        write_mha(vol, tmp_path / f"p{i}_flair.mha")
        write_mha(gt, tmp_path / f"p{i}_gt.mha")
        lines.append(f"p{i}_flair.mha,p{i}_gt.mha,Phantom")
    man = tmp_path / "manifest.csv"
    man.write_text("\n".join(lines) + "\n")
    return man


def count_reads(monkeypatch, log_path):
    """Record every ``evaluate.read_mha`` call as one line of ``log_path``;
    worker processes inherit the patch and append to the same file. Returns
    a function giving the (file name, kind) reads so far."""

    def counting_read(path, kind="intensity"):
        with open(log_path, "a") as fh:
            fh.write(f"{path.name}\t{kind}\n")
        return read_mha(path, kind=kind)

    monkeypatch.setattr(ev, "read_mha", counting_read)
    log_path.write_text("")
    return lambda: [tuple(line.split("\t")) for line in log_path.read_text().splitlines()]


class TestEvaluateCohort:
    def test_single_case_mean(self, tmp_path, phantom_cases, phantom_atlases):
        man = write_phantom_manifest(tmp_path, phantom_cases[:1])
        cases = read_manifest(man)
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        result = evaluate_cohort(cases, phantom_atlases, RunConfig(method="kmeans", extract=params))
        assert result.n == 1
        assert result.mean_dice == pytest.approx(result.cases[0].dice)

    def test_unreadable_case_recorded_not_dropped(self, tmp_path, phantom_cases, phantom_atlases):
        man = write_phantom_manifest(tmp_path, phantom_cases[:1])
        text = man.read_text() + "ghost_flair.mha,ghost_gt.mha,Phantom\n"
        man.write_text(text)
        cases = read_manifest(man)
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        result = evaluate_cohort(cases, phantom_atlases, RunConfig(method="kmeans", extract=params))
        assert result.n == 1
        assert len(result.errors) == 1
        assert result.errors[0].case_id == "ghost_flair"
        assert result.summary_dict()["n_errors"] == 1

    def test_mean_permutation_invariant(self, tmp_path, phantom_cases, phantom_atlases):
        man = write_phantom_manifest(tmp_path, phantom_cases)
        cases = read_manifest(man)
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        cfg = RunConfig(method="kmeans", extract=params)
        fwd = evaluate_cohort(cases, phantom_atlases, cfg)
        rev = evaluate_cohort(cases[::-1], phantom_atlases, cfg)
        assert fwd.mean_dice == pytest.approx(rev.mean_dice, abs=1e-12)

    def test_loo_excludes_own_ground_truth(self, tmp_path, phantom_cases):
        man = write_phantom_manifest(tmp_path, phantom_cases)
        cases = read_manifest(man)
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        result = evaluate_cohort(cases, None, RunConfig(method="kmeans", extract=params, loo=True))
        assert result.n == len(phantom_cases)
        assert all(not c.failed for c in result.cases)

    def test_loo_reads_each_ground_truth_once(self, tmp_path, monkeypatch, phantom_cases):
        man = write_phantom_manifest(tmp_path, phantom_cases[:3])
        # an empty ground truth and a missing one stay their cases' error rows
        spec, vol, gt = phantom_cases[3]
        write_mha(vol, tmp_path / "empty_flair.mha")
        write_mha(Volume(data=np.zeros_like(gt.data), kind="label"), tmp_path / "empty_gt.mha")
        write_mha(vol, tmp_path / "ghost_flair.mha")
        man.write_text(
            man.read_text()
            + "empty_flair.mha,empty_gt.mha,Phantom\n"
            + "ghost_flair.mha,ghost_gt.mha,Phantom\n"
        )
        cases = read_manifest(man)
        reads = count_reads(monkeypatch, tmp_path / "reads.log")
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        results = []
        for jobs in (1, 2):
            (tmp_path / "reads.log").write_text("")
            results.append(
                evaluate_cohort(cases, None, RunConfig(method="kmeans", extract=params, loo=True, jobs=jobs))
            )
            # the volume of a case whose ground truth could not be read, or
            # marks no tumor, is not read
            assert sorted(reads()) == sorted(
                [(c.intensity_path.name, "intensity") for c in cases if c.case_id not in ("empty_flair", "ghost_flair")]
                + [(c.gt_path.name, "label") for c in cases]
            )
        one, two = results
        assert [(c.case_id, c.dice, c.dice_paper_union, c.failed, c.bbox_pred, c.bbox_gt) for c in one.cases] == [
            (c.case_id, c.dice, c.dice_paper_union, c.failed, c.bbox_pred, c.bbox_gt) for c in two.cases
        ]
        assert one.errors == two.errors
        assert one.n == 3
        assert [e.case_id for e in one.errors] == ["empty_flair", "ghost_flair"]
        assert "marks no tumor" in one.errors[0].message
        assert "ghost_gt.mha" in one.errors[1].message

    def test_fixed_atlas_reads_each_ground_truth_once(self, tmp_path, monkeypatch, phantom_cases, phantom_atlases):
        man = write_phantom_manifest(tmp_path, phantom_cases[:2])
        # a shallow ground truth is scored (only LOO needs its representative
        # slices); a missing one is an error row named after it, and its
        # volume is not read, whether or not that volume exists
        spec, vol, gt = phantom_cases[2]
        write_mha(vol, tmp_path / "shallow_flair.mha")
        write_mha(Volume(data=gt.data[25:35], kind="label"), tmp_path / "shallow_gt.mha")
        write_mha(vol, tmp_path / "ghost_flair.mha")
        man.write_text(
            man.read_text()
            + "shallow_flair.mha,shallow_gt.mha,Phantom\n"
            + "ghost_flair.mha,ghost_gt.mha,Phantom\n"
            + "void_flair.mha,void_gt.mha,Phantom\n"
        )
        cases = read_manifest(man)
        reads = count_reads(monkeypatch, tmp_path / "reads.log")
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        result = evaluate_cohort(cases, phantom_atlases, RunConfig(method="kmeans", extract=params, jobs=2))
        assert sorted(reads()) == sorted(
            [(c.intensity_path.name, "intensity") for c in cases[:3]]
            + [(c.gt_path.name, "label") for c in cases]
        )
        assert [c.case_id for c in result.cases] == ["p0_flair", "p1_flair", "shallow_flair"]
        assert result.cases[2].bbox_gt == gt_box(cumulative_gt(gt))
        assert [e.case_id for e in result.errors] == ["ghost_flair", "void_flair"]
        assert "ghost_gt.mha" in result.errors[0].message
        assert "void_gt.mha" in result.errors[1].message

    def test_loo_needs_two_cases(self, tmp_path, phantom_cases):
        man = write_phantom_manifest(tmp_path, phantom_cases[:1])
        cases = read_manifest(man)
        with pytest.raises(ValidationError):
            evaluate_cohort(cases, None, RunConfig(method="kmeans", loo=True))

    def test_mixed_cohorts_rejected(self):
        cases = [
            ManifestCase("a", "a.mha", "ag.mha", "HGG"),
            ManifestCase("b", "b.mha", "bg.mha", "LGG"),
        ]
        with pytest.raises(ValidationError):
            evaluate_cohort(cases, {}, RunConfig())

    def test_manifest_grouped_per_cohort(self, tmp_path, phantom_cases, phantom_atlases):
        from tumorbox.evaluate import evaluate_manifest

        lines = ["intensity_path,gt_path,cohort"]
        for i, (spec, vol, gt) in enumerate(phantom_cases[:2]):
            write_mha(vol, tmp_path / f"m{i}_flair.mha")
            write_mha(gt, tmp_path / f"m{i}_gt.mha")
        lines.append("m0_flair.mha,m0_gt.mha,HGG")
        lines.append("m1_flair.mha,m1_gt.mha,LGG")
        man = tmp_path / "mixed.csv"
        man.write_text("\n".join(lines) + "\n")
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        results = evaluate_manifest(
            read_manifest(man), phantom_atlases, RunConfig(method="kmeans", extract=params)
        )
        assert [r.cohort for r in results] == ["HGG", "LGG"]
        assert all(r.n == 1 for r in results)


def case_rows(result):
    """Everything a cohort result says about its cases but their timings."""
    rows = []
    for c in result.cases:
        report = c.report.to_dict()
        del report["timings_ms"]
        rows.append((c.case_id, c.dice, c.failed, c.bbox_pred, c.bbox_gt, report))
    return rows, result.errors


class TestWorkerProcesses:
    @pytest.fixture()
    def cases_with_error(self, tmp_path, phantom_cases):
        man = write_phantom_manifest(tmp_path, phantom_cases[:3])
        write_mha(phantom_cases[3][1], tmp_path / "ghost_flair.mha")
        man.write_text(man.read_text() + "ghost_flair.mha,ghost_gt.mha,Phantom\n")
        return read_manifest(man)

    @pytest.mark.parametrize("loo", [True, False], ids=["loo", "fixed-atlas"])
    def test_every_jobs_value_gives_the_same_rows(self, cases_with_error, phantom_atlases, loo):
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        atlases = None if loo else phantom_atlases
        results = [
            case_rows(evaluate_cohort(
                cases_with_error, atlases, RunConfig(method="kmeans", extract=params, loo=loo, jobs=jobs)
            ))
            for jobs in (1, 2, 3)
        ]
        assert results[1] == results[0]
        assert results[2] == results[0]
        rows, errors = results[0]
        assert [r[0] for r in rows] == ["p0_flair", "p1_flair", "p2_flair"]
        assert [e.case_id for e in errors] == ["ghost_flair"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_ground_truth_of_another_shape_is_an_error_row(self, tmp_path, phantom_cases, phantom_atlases, jobs):
        clean_dir, bad_dir = tmp_path / "clean", tmp_path / "bad"
        clean_dir.mkdir()
        bad_dir.mkdir()
        clean = read_manifest(write_phantom_manifest(clean_dir, phantom_cases[:3]))
        bad = read_manifest(write_phantom_manifest(bad_dir, phantom_cases[:3]))
        write_mha(Volume(data=phantom_cases[1][2].data[:, 16:112, 16:112], kind=KIND_LABEL), bad_dir / "p1_gt.mha")
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        cfg = RunConfig(method="kmeans", extract=params, jobs=jobs)
        clean_rows, clean_errors = case_rows(evaluate_cohort(clean, phantom_atlases, cfg))
        rows, errors = case_rows(evaluate_cohort(bad, phantom_atlases, cfg))
        assert clean_errors == []
        assert rows == [clean_rows[0], clean_rows[2]]
        assert [(e.case_id, e.message) for e in errors] == [(
            "p1_flair",
            "ground truth plane has shape (96, 96), but the volume's slices have shape (128, 128)",
        )]

    def test_workers_capped_at_case_count_and_joined(self, tmp_path, monkeypatch, phantom_cases, phantom_atlases):
        # three cases at jobs=8: this process and two forked workers
        started, real_start = [], ForkProcess.start

        def recording_start(worker):
            started.append(worker)
            real_start(worker)

        monkeypatch.setattr(ForkProcess, "start", recording_start)
        man = write_phantom_manifest(tmp_path, phantom_cases[:3])
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        result = evaluate_cohort(read_manifest(man), phantom_atlases, RunConfig(method="kmeans", extract=params, jobs=8))
        assert result.n == 3
        assert [len(started), sum(w.exitcode == 0 for w in started)] == [2, 2]
        assert multiprocessing.active_children() == []

    def test_every_case_runs_once_with_more_processes_than_cores(self, tmp_path, monkeypatch, phantom_cases, phantom_atlases):
        # The shared counter hands out each case index once: a lost update
        # would run a case twice or skip one.
        log_path, real = tmp_path / "cases.log", ev.evaluate_case

        def logged(volume, gt, atlases, cfg, case_id="", cohort="Phantom"):
            with open(log_path, "a") as fh:
                fh.write(f"{case_id}\n")
            return real(volume, gt, atlases, cfg, case_id=case_id, cohort=cohort)

        def hung(signum, frame):
            raise TimeoutError("evaluate_cohort hung")

        monkeypatch.setattr(ev, "evaluate_case", logged)
        man = write_phantom_manifest(tmp_path, (phantom_cases * 2)[:8])
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(120)
        try:
            result = evaluate_cohort(read_manifest(man), phantom_atlases, RunConfig(method="kmeans", extract=params, jobs=8))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert [c.case_id for c in result.cases] == [f"p{i}_flair" for i in range(8)]
        assert sorted(log_path.read_text().split()) == [f"p{i}_flair" for i in range(8)]
        assert multiprocessing.active_children() == []

    def test_single_case_runs_without_a_pool(self, tmp_path, monkeypatch, phantom_cases, phantom_atlases):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker was started for one case")

        monkeypatch.setattr(ForkProcess, "start", no_pool)
        man = write_phantom_manifest(tmp_path, phantom_cases[:1])
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        result = evaluate_cohort(read_manifest(man), phantom_atlases, RunConfig(method="kmeans", extract=params, jobs=2))
        assert result.n == 1

    def test_other_exceptions_reach_the_caller(self, tmp_path, monkeypatch, phantom_cases, phantom_atlases):
        def broken(*args, **kwargs):
            raise RuntimeError("pipeline bug")

        monkeypatch.setattr(ev, "run_pipeline", broken)
        man = write_phantom_manifest(tmp_path, phantom_cases[:2])
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        with pytest.raises(RuntimeError, match="pipeline bug"):
            evaluate_cohort(read_manifest(man), phantom_atlases, RunConfig(method="kmeans", extract=params, jobs=2))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["this process", "worker"])
    def test_an_exception_in_one_process_reaches_the_caller(self, tmp_path, monkeypatch, phantom_cases, phantom_atlases, where):
        # The other process keeps running cases until it sees the failure;
        # the caller gets the exception with no child left.
        parent, real = os.getpid(), ev.run_pipeline

        def broken_in_one(*args, **kwargs):
            if (os.getpid() == parent) == (where == "this process"):
                raise RuntimeError(f"pipeline bug in {where}")
            time.sleep(0.2)  # so that the worker surely takes a case
            return real(*args, **kwargs)

        monkeypatch.setattr(ev, "run_pipeline", broken_in_one)
        man = write_phantom_manifest(tmp_path, phantom_cases[:6])
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        with pytest.raises(RuntimeError, match=f"pipeline bug in {where}"):
            evaluate_cohort(read_manifest(man), phantom_atlases, RunConfig(method="kmeans", extract=params, jobs=2))
        assert multiprocessing.active_children() == []

    def test_dead_worker_breaks_the_pool_without_hanging(self, tmp_path, monkeypatch, phantom_cases, phantom_atlases):
        # Only a forked worker dies, on its first case: this process runs
        # cases too, and must not exit the test run.
        parent, real = os.getpid(), ev.evaluate_case

        def dying(volume, gt, atlases, cfg, case_id="", cohort="Phantom"):
            if os.getpid() != parent:
                os._exit(1)
            time.sleep(0.2)  # so that the worker surely takes a case
            return real(volume, gt, atlases, cfg, case_id=case_id, cohort=cohort)

        def hung(signum, frame):
            raise TimeoutError("evaluate_cohort hung after a worker died")

        monkeypatch.setattr(ev, "evaluate_case", dying)
        man = write_phantom_manifest(tmp_path, phantom_cases[:3])
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            start = time.monotonic()
            with pytest.raises(RuntimeError, match="exited with code 1 before sending its cases"):
                evaluate_cohort(read_manifest(man), phantom_atlases, RunConfig(method="kmeans", extract=params, jobs=2))
            elapsed = time.monotonic() - start
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert elapsed < 10
        assert multiprocessing.active_children() == []


class TestSummaryCounts:
    def test_unconverged_em_slices_counted(self, tmp_path, phantom_cases, phantom_atlases):
        man = write_phantom_manifest(tmp_path, phantom_cases[:2])
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        cfg = RunConfig(method="em", extract=params, cluster=ClusterConfig(max_iter=2))
        result = evaluate_cohort(read_manifest(man), phantom_atlases, cfg)
        summary = result.summary_dict()
        unconverged = [
            s.slice_index for c in result.cases for s in c.report.slices if not s.fit["converged"]
        ]
        assert summary["n_unconverged"] == len(unconverged) > 0
        assert summary["n_fallback"] == sum(c.report.fallback_used for c in result.cases)

    def test_kmeans_has_no_unconverged_count(self, tmp_path, phantom_cases, phantom_atlases):
        man = write_phantom_manifest(tmp_path, phantom_cases[:1])
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        result = evaluate_cohort(read_manifest(man), phantom_atlases, RunConfig(method="kmeans", extract=params))
        assert result.summary_dict()["n_unconverged"] == 0

    def test_union_fallback_counted(self, tmp_path, phantom_cases, phantom_atlases):
        # a vote threshold no quadrant can reach sends every case to the union
        man = write_phantom_manifest(tmp_path, phantom_cases[:2])
        params = ExtractParams(
            representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0, vote_threshold=7
        )
        result = evaluate_cohort(read_manifest(man), phantom_atlases, RunConfig(method="kmeans", extract=params))
        assert result.summary_dict()["n_fallback"] == 2

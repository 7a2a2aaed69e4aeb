import dataclasses
import math

import numpy as np
import pytest

from oracles import bbox_scan
from conftest import PHANTOM_REP_SLICES

from tumorbox.clustering import LabelMap
from tumorbox.errors import (
    ConfigurationError,
    NoTumorDetectedError,
    ValidationError,
)
from tumorbox.pipeline import (
    BBox,
    ExtractParams,
    TumorMap,
    bounding_box,
    extract_tumor_map,
    fuse_maps,
    quadrant_votes,
    run_pipeline,
    select_representatives,
)
from tumorbox.volume import Volume


def label_map_from(labels, k=5, index=1):
    return LabelMap(labels=np.asarray(labels, dtype=np.int32), k=k, slice_index=index)


def tumor_map_from(mask, index=1):
    return TumorMap(mask=np.asarray(mask, dtype=bool), slice_index=index)


def blob_mask(shape, row, col, size):
    mask = np.zeros(shape, dtype=bool)
    mask[row:row + size, col:col + size] = True
    return mask


class TestExtractTumorMap:
    def test_suitable_class5_blob_gets_component_and_disk(self):
        labels = np.zeros((30, 30), dtype=np.int32)
        labels[10:12, 10:15] = 5  # 10-pixel blob
        lm = label_map_from(labels)
        params = ExtractParams(area_min=5, area_max=1000, radius_margin=1.0)
        out = extract_tumor_map(lm, params)
        assert out.used_class == 5
        assert np.all(out.mask[labels == 5])
        radius = math.sqrt(10 / math.pi)
        rr, cc = np.ogrid[:30, :30]
        disk = (rr - 10.5) ** 2 + (cc - 12.0) ** 2 <= radius**2
        assert np.all(out.mask[disk])

    def test_oversized_class5_falls_back_to_class4(self):
        # bright slice: class 5 covers most of the brain, class 4 is compact
        labels = np.zeros((40, 40), dtype=np.int32)
        labels[2:38, 2:38] = 5
        labels[10:14, 10:14] = 4
        lm = label_map_from(labels)
        out = extract_tumor_map(lm, ExtractParams(area_min=10))
        assert out.used_class == 4

    def test_nothing_suitable_returns_black_map(self):
        labels = np.zeros((20, 20), dtype=np.int32)
        labels[0, 0] = 5  # area 1 < area_min
        lm = label_map_from(labels)
        out = extract_tumor_map(lm, ExtractParams(area_min=5))
        assert out.is_empty
        assert out.used_class is None

    def test_relative_area_max_uses_brain_pixels(self):
        labels = np.zeros((20, 20), dtype=np.int32)
        labels[:5, :] = 1          # 100 brain pixels of class 1
        labels[10:20, :15] = 5     # 150 class-5 pixels: 150 > 0.5 * 250
        lm = label_map_from(labels)
        out = extract_tumor_map(lm, ExtractParams(area_min=5))
        assert out.is_empty

    def test_requires_five_classes(self):
        lm = LabelMap(labels=np.zeros((4, 4), dtype=np.int32), k=3)
        with pytest.raises(ValidationError):
            extract_tumor_map(lm, ExtractParams())


class TestQuadrantVotes:
    def test_all_empty(self):
        maps = [tumor_map_from(np.zeros((10, 10)), i) for i in range(6)]
        assert quadrant_votes(maps) == (0, 0, 0, 0)

    def test_exactly_three_maps_mark_quadrant_two(self):
        maps = []
        for i in range(6):
            mask = np.zeros((10, 10), dtype=bool)
            if i < 3:
                mask[1, 8] = True  # rows < 5, cols >= 5: quadrant 2
            maps.append(tumor_map_from(mask, i))
        votes = quadrant_votes(maps)
        assert votes == (0, 3, 0, 0)
        # independent counting loop
        count = 0
        for m in maps:
            hit = False
            for r in range(0, 5):
                for c in range(5, 10):
                    if m.mask[r, c]:
                        hit = True
            count += int(hit)
        assert votes[1] == count

    def test_lower_half_detections_win_bottom_quadrants(self):
        maps = []
        for i in range(6):
            mask = np.zeros((12, 12), dtype=bool)
            if i < 4:
                mask[8:11, 2:10] = True  # spans quadrants 3 and 4
            maps.append(tumor_map_from(mask, i))
        votes = quadrant_votes(maps)
        assert votes[2] >= 2 and votes[3] >= 2
        assert votes[0] == 0 and votes[1] == 0

    def test_odd_dims_ceil_split(self):
        # 5x5: rows 0..2 are "top", cols 0..2 are "left"
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        votes = quadrant_votes([tumor_map_from(mask)])
        assert votes == (1, 0, 0, 0)

    def test_votes_monotone_in_added_pixels(self):
        rng = np.random.default_rng(77)
        base = [tumor_map_from(rng.random((8, 8)) < 0.1, i) for i in range(6)]
        votes_before = quadrant_votes(base)
        grown = []
        for m in base:
            mask = m.mask.copy()
            mask[rng.integers(0, 8), rng.integers(0, 8)] = True
            grown.append(tumor_map_from(mask, m.slice_index))
        votes_after = quadrant_votes(grown)
        assert all(a >= b for a, b in zip(votes_after, votes_before))

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            quadrant_votes([tumor_map_from(np.zeros((4, 4))), tumor_map_from(np.zeros((5, 5)))])


class TestFuseMaps:
    def test_six_identical_maps_survive(self):
        mask = blob_mask((10, 10), 1, 1, 3)  # quadrant 1
        maps = [tumor_map_from(mask, i) for i in range(6)]
        fused = fuse_maps(maps)
        assert np.array_equal(fused.fused.mask, mask)
        assert fused.votes[0] == 6
        assert not fused.fallback_used

    def test_single_detection_falls_back_with_warning(self):
        maps = [tumor_map_from(np.zeros((10, 10)), i) for i in range(6)]
        lone = blob_mask((10, 10), 1, 8, 1)
        maps[0] = tumor_map_from(lone, 0)
        fused = fuse_maps(maps)
        assert fused.fallback_used
        assert np.array_equal(fused.fused.mask, lone)

    def test_strict_mode_raises_on_no_winner(self):
        maps = [tumor_map_from(np.zeros((10, 10)), i) for i in range(6)]
        maps[0] = tumor_map_from(blob_mask((10, 10), 1, 8, 1), 0)
        with pytest.raises(NoTumorDetectedError):
            fuse_maps(maps, ExtractParams(strict=True))

    def test_spurious_lone_detection_excluded(self):
        # detections concentrated in the bottom quadrants plus one spurious
        # top-left pixel on a single map
        maps = []
        for i in range(6):
            mask = np.zeros((12, 12), dtype=bool)
            if i < 4:
                mask[8:11, 2:10] = True
            if i == 5:
                mask[0, 0] = True  # spurious
            maps.append(tumor_map_from(mask, i))
        fused = fuse_maps(maps)
        assert not fused.fused.mask[0, 0]
        assert fused.fused.mask[9, 5]
        # fused is a subset of the union, per-pixel check
        union = np.zeros((12, 12), dtype=bool)
        for m in maps:
            union |= m.mask
        assert np.all(union[fused.fused.mask])

    def test_fused_empty_when_all_empty(self):
        maps = [tumor_map_from(np.zeros((8, 8)), i) for i in range(6)]
        fused = fuse_maps(maps)
        assert fused.fused.is_empty


class TestBoundingBox:
    def test_single_pixel(self):
        mask = np.zeros((9, 9), dtype=bool)
        mask[4, 6] = True
        box = bounding_box(tumor_map_from(mask))
        assert (box.row_min, box.col_min, box.row_max, box.col_max) == (4, 6, 4, 6)

    def test_two_pixel_envelope(self):
        mask = np.zeros((40, 40), dtype=bool)
        mask[10, 20] = mask[30, 5] = True
        box = bounding_box(tumor_map_from(mask))
        assert (box.row_min, box.col_min, box.row_max, box.col_max) == (10, 5, 30, 20)

    def test_margin_matches_scan_oracle(self):
        rng = np.random.default_rng(88)
        mask = rng.random((25, 31)) < 0.05
        mask[3, 7] = True
        box = bounding_box(tumor_map_from(mask), margin=3)
        r0, c0, r1, c1 = bbox_scan(mask)
        assert box.row_min == max(r0 - 3, 0)
        assert box.col_min == max(c0 - 3, 0)
        assert box.row_max == min(r1 + 3, 24)
        assert box.col_max == min(c1 + 3, 30)

    def test_minimality_every_side_touches(self):
        rng = np.random.default_rng(89)
        for _ in range(30):
            mask = rng.random((20, 20)) < 0.08
            if not mask.any():
                continue
            box = bounding_box(tumor_map_from(mask))
            assert mask[box.row_min, :].any()
            assert mask[box.row_max, :].any()
            assert mask[:, box.col_min].any()
            assert mask[:, box.col_max].any()
            rows, cols = np.nonzero(mask)
            assert rows.min() >= box.row_min and rows.max() <= box.row_max
            assert cols.min() >= box.col_min and cols.max() <= box.col_max

    def test_empty_map_raises(self):
        with pytest.raises(NoTumorDetectedError):
            bounding_box(tumor_map_from(np.zeros((5, 5))))

    def test_bbox_validation(self):
        with pytest.raises(ValidationError):
            BBox(row_min=3, col_min=0, row_max=1, col_max=4)


class TestRunPipeline:
    def test_phantom_box_contains_gt_center(self, phantom_cases, phantom_atlases):
        from tumorbox.evaluate import cumulative_gt, gt_box

        spec, vol, gt = phantom_cases[0]
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        result = run_pipeline(vol, phantom_atlases, method="em", params=params)
        box = gt_box(cumulative_gt(gt))
        center = ((box.row_min + box.row_max) / 2, (box.col_min + box.col_max) / 2)
        assert result.bbox.row_min <= center[0] <= result.bbox.row_max
        assert result.bbox.col_min <= center[1] <= result.bbox.col_max
        assert len(result.report.slices) == 6

    def test_zero_volume_raises_no_tumor(self, phantom_atlases):
        vol = Volume(data=np.zeros((64, 128, 128)))
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES)
        with pytest.raises(NoTumorDetectedError) as err:
            run_pipeline(vol, phantom_atlases, params=params)
        assert err.value.report is not None
        assert all(s.empty for s in err.value.report.slices)

    def test_strict_no_winner_report_carries_votes(self, phantom_cases, phantom_atlases):
        spec, vol, gt = phantom_cases[0]
        params = ExtractParams(
            representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0, vote_threshold=7
        )
        loose = run_pipeline(vol, phantom_atlases, method="kmeans", params=params).report
        strict = dataclasses.replace(params, strict=True)
        with pytest.raises(NoTumorDetectedError) as err:
            run_pipeline(vol, phantom_atlases, method="kmeans", params=strict)
        report = err.value.report
        column_sums = tuple(np.sum([s.quadrants_marked for s in report.slices], axis=0))
        assert any(report.votes)
        assert report.votes == loose.votes == column_sums
        assert report.winners == ()
        assert report.fallback_used is False
        assert report.bbox is None
        assert loose.fallback_used is True

    def test_deterministic_bbox_and_report(self, phantom_cases, phantom_atlases):
        spec, vol, gt = phantom_cases[1]
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        a = run_pipeline(vol, phantom_atlases, method="em", params=params)
        b = run_pipeline(vol, phantom_atlases, method="em", params=params)
        assert a.bbox == b.bbox
        dict_a, dict_b = a.report.to_dict(), b.report.to_dict()
        dict_a.pop("timings_ms"), dict_b.pop("timings_ms")
        assert dict_a == dict_b

    @pytest.mark.parametrize("method, keys", [
        ("kmeans", {"centroids", "objective", "n_iter", "degenerate", "best_restart"}),
        ("em", {"weights", "means", "variances", "log_likelihood", "n_iter", "converged", "best_restart"}),
    ])
    def test_report_slices_carry_fit_without_traces(self, phantom_cases, phantom_atlases, method, keys):
        spec, vol, gt = phantom_cases[0]
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        report = run_pipeline(vol, phantom_atlases, method=method, params=params).report
        for slice_report, entry in zip(report.slices, report.to_dict()["slices"]):
            assert any(k.endswith("_trace") for k in slice_report.fit)
            assert set(entry["fit"]) == keys | {"method"}
            assert entry["fit"] == {k: v for k, v in slice_report.fit.items() if k in entry["fit"]}
            assert entry["fit"]["method"] == method

    def test_zero_volume_report_has_no_fit(self, phantom_atlases):
        vol = Volume(data=np.zeros((64, 128, 128)))
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES)
        with pytest.raises(NoTumorDetectedError) as err:
            run_pipeline(vol, phantom_atlases, params=params)
        assert [s["fit"] for s in err.value.report.to_dict()["slices"]] == [None] * 6

    def test_missing_atlas_is_configuration_error(self, phantom_cases, phantom_atlases):
        spec, vol, gt = phantom_cases[0]
        partial = {n: a for n, a in phantom_atlases.items() if n != 32}
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES)
        with pytest.raises(ConfigurationError, match="32"):
            run_pipeline(vol, partial, params=params)

    def test_volume_too_shallow_is_configuration_error(self, phantom_atlases):
        vol = Volume(data=np.zeros((10, 4, 4)))
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES)
        with pytest.raises(ConfigurationError):
            run_pipeline(vol, phantom_atlases, params=params)

    def test_margin_monotone(self, phantom_cases, phantom_atlases):
        spec, vol, gt = phantom_cases[2]
        boxes = []
        for margin in (0, 1, 3, 7):
            params = ExtractParams(
                representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0, bbox_margin=margin
            )
            boxes.append(run_pipeline(vol, phantom_atlases, method="kmeans", params=params).bbox)
        for small, big in zip(boxes, boxes[1:]):
            assert big.row_min <= small.row_min
            assert big.col_min <= small.col_min
            assert big.row_max >= small.row_max
            assert big.col_max >= small.col_max


class TestSelectRepresentatives:
    def test_picks_largest_tumor_slices(self):
        # patient tumors concentrated on known slices inside the window
        depth = 60
        data = np.zeros((depth, 10, 10), dtype=np.int16)
        sizes = {35: 9, 40: 8, 45: 7, 50: 6, 55: 5, 38: 4, 42: 1}
        for k, s in sizes.items():
            data[k - 1, :s, 0] = 1
        vol = Volume(data=data, kind="label")
        chosen = select_representatives([vol], count=6, min_slice=32, max_slice=58)
        assert chosen == [35, 38, 40, 45, 50, 55]

    def test_window_excludes_edges(self):
        depth = 155
        data = np.zeros((depth, 6, 6), dtype=np.int16)
        data[10] = 1   # slice 11, outside 32..118
        data[130] = 1  # slice 131, outside
        data[79, :3, :3] = 1
        data[80, :2, :2] = 1
        vol = Volume(data=data, kind="label")
        chosen = select_representatives([vol], count=2)
        assert chosen == [80, 81]

    def test_needs_volumes(self):
        with pytest.raises(ValidationError):
            select_representatives([], count=6)


class TestExtractParamsValidation:
    def test_bounds(self):
        with pytest.raises(ValidationError):
            ExtractParams(area_min=0)
        with pytest.raises(ValidationError):
            ExtractParams(area_min=10, area_max=5)
        with pytest.raises(ValidationError):
            ExtractParams(radius_margin=0.5)
        with pytest.raises(ValidationError):
            ExtractParams(vote_threshold=0)
        with pytest.raises(ValidationError):
            ExtractParams(representative_slices=())
        with pytest.raises(ValidationError):
            ExtractParams(representative_slices=(5, 5))

import dataclasses
import math

import numpy as np
import pytest

from oracles import bbox_scan, disk_mask_reference
from conftest import PHANTOM_REP_SLICES

from tumorbox import components
from tumorbox.clustering import LabelMap
from tumorbox.components import connected_components
from tumorbox.errors import (
    ConfigurationError,
    NoTumorDetectedError,
    ValidationError,
)
from tumorbox import pipeline
from tumorbox.pipeline import (
    BBox,
    ExtractParams,
    TumorMap,
    bounding_box,
    extract_tumor_map,
    fuse_maps,
    run_pipeline,
    select_representatives,
)
from tumorbox.mha import read_mha, write_mha
from tumorbox.volume import Volume


def label_map_from(labels, k=5, index=1):
    labels = np.asarray(labels, dtype=np.int32)
    return LabelMap(labels=labels, k=k, brain_pixels=int(np.count_nonzero(labels)), slice_index=index)


def tumor_map_from(mask, index=1):
    return TumorMap(mask=np.asarray(mask, dtype=bool), slice_index=index)


def blob_mask(shape, row, col, size):
    mask = np.zeros(shape, dtype=bool)
    mask[row:row + size, col:col + size] = True
    return mask


class TestExtractTumorMap:
    def test_suitable_class5_blob_gets_component_and_disk(self):
        labels = np.ones((30, 30), dtype=np.int32)  # 900 brain pixels
        labels[10:12, 10:15] = 5  # 10-pixel blob
        lm = label_map_from(labels)
        params = ExtractParams(area_min=5, radius_margin=1.0)
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

    def test_builds_only_the_component_it_reads(self, monkeypatch):
        # 240x240 slice: ~1,500 one-pixel class-5 specks and a class-4 disk
        labels = np.ones((240, 240), dtype=np.int32)
        rr, cc = np.ogrid[:240, :240]
        specks = np.zeros((240, 240), dtype=bool)
        specks[1::6, 1::6] = True
        specks &= (np.abs(rr - 120) > 30) | (np.abs(cc - 120) > 30)
        labels[specks] = 5
        labels[(rr - 120) ** 2 + (cc - 120) ** 2 <= 20**2] = 4
        assert specks.sum() >= 1000
        lm = label_map_from(labels, index=50)
        params = ExtractParams()

        built = []

        class CountingComponent(components.Component):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(components, "Component", CountingComponent)
        out = extract_tumor_map(lm, params)
        assert out.used_class == 4
        assert len(built) <= 2  # one per class tried

        largest = list(connected_components(labels == 4, connectivity=8))[0]
        expected = pipeline._disk_mask(
            labels.shape, largest.centroid, params.radius_margin * math.sqrt(largest.area / math.pi)
        )
        expected[largest.pixels[:, 0], largest.pixels[:, 1]] = True
        assert np.array_equal(out.mask, expected)

    def test_em_with_empty_brightest_class_falls_back_to_class4(self):
        # Phantom128 input set 1 (base seed 3015), case 1, slice 30: two EM
        # components converge on one mean, and the one no pixel is assigned
        # to ranks by its model mean one ulp above the tumour pixels' mean.
        # Class 5 is empty, so the map comes from class 4. A change to how
        # class means are computed (say, from the histogram) can flip this.
        from conftest import make_phantom_spec
        from tumorbox.clustering import segment_slice
        from tumorbox.phantom import generate_phantom
        from tumorbox.preprocess import build_atlas, enhance_contrast, normalize
        from tumorbox.volume import extract_slice

        cases = [generate_phantom(make_phantom_spec(i, base_seed=3015)) for i in range(10)]
        atlas = build_atlas([extract_slice(gt, 30) for _, gt in cases])
        intensity, gt = cases[1]
        lm = segment_slice(enhance_contrast(normalize(extract_slice(intensity, 30)), atlas), "em")
        tumour = extract_slice(gt, 30).data > 0
        assert not np.any(lm.labels == 5)
        assert tumour.sum() == 1215
        assert np.array_equal(lm.labels == 4, tumour)
        assert extract_tumor_map(lm).used_class == 4

    def test_requires_five_classes(self):
        lm = LabelMap(labels=np.zeros((4, 4), dtype=np.int32), k=3, brain_pixels=0)
        with pytest.raises(ValidationError):
            extract_tumor_map(lm, ExtractParams())


class TestDiskMask:
    @pytest.mark.parametrize(
        "center, radius",
        [
            ((10.0, 12.0), 5.0),  # pixels exactly on the circle
            ((7.25, 12.5), 2.5),
            ((0.0, 0.0), 5.3),  # image corner
            ((19.7, 0.2), 3.0),  # bottom edge
            ((10.0, 23.0), 30.0),  # larger than the image
            ((10.5, 10.5), 0.4),  # radius < 1, between pixels
            ((3.0, 17.0), 0.0),
            ((19.0, 23.0), 0.99),
        ],
    )
    def test_matches_whole_grid_expression(self, center, radius):
        got = pipeline._disk_mask((20, 24), center, radius)
        assert got.dtype == bool and np.array_equal(got, disk_mask_reference((20, 24), center, radius))


class TestQuadrantVotes:
    def test_all_empty(self):
        maps = [tumor_map_from(np.zeros((10, 10)), i) for i in range(6)]
        assert fuse_maps(maps).votes == (0, 0, 0, 0)

    def test_exactly_three_maps_mark_quadrant_two(self):
        maps = []
        for i in range(6):
            mask = np.zeros((10, 10), dtype=bool)
            if i < 3:
                mask[1, 8] = True  # rows < 5, cols >= 5: quadrant 2
            maps.append(tumor_map_from(mask, i))
        votes = fuse_maps(maps).votes
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
        votes = fuse_maps(maps).votes
        assert votes[2] >= 2 and votes[3] >= 2
        assert votes[0] == 0 and votes[1] == 0

    def test_odd_dims_ceil_split(self):
        # 5x5: rows 0..2 are "top", cols 0..2 are "left"
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        votes = fuse_maps([tumor_map_from(mask)]).votes
        assert votes == (1, 0, 0, 0)

    def test_votes_monotone_in_added_pixels(self):
        rng = np.random.default_rng(77)
        base = [tumor_map_from(rng.random((8, 8)) < 0.1, i) for i in range(6)]
        votes_before = fuse_maps(base).votes
        grown = []
        for m in base:
            mask = m.mask.copy()
            mask[rng.integers(0, 8), rng.integers(0, 8)] = True
            grown.append(tumor_map_from(mask, m.slice_index))
        votes_after = fuse_maps(grown).votes
        assert all(a >= b for a, b in zip(votes_after, votes_before))

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            fuse_maps([tumor_map_from(np.zeros((4, 4))), tumor_map_from(np.zeros((5, 5)))])


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

    def test_strict_mode_raises_on_no_winner(self, caplog):
        # strict keeps nothing when no quadrant wins; the box step then raises
        maps = [tumor_map_from(np.zeros((10, 10)), i) for i in range(6)]
        maps[0] = tumor_map_from(blob_mask((10, 10), 1, 8, 1), 0)
        fused = fuse_maps(maps, ExtractParams(strict=True))
        assert fused.fused.is_empty
        assert fused.votes == (0, 1, 0, 0)
        assert fused.winners == ()
        assert not fused.fallback_used
        assert "vote threshold 2 (votes (0, 1, 0, 0))" in caplog.text
        assert "falling back" not in caplog.text
        with pytest.raises(NoTumorDetectedError):
            bounding_box(fused.fused)

    def test_marks_are_per_map_and_sum_to_votes(self):
        rng = np.random.default_rng(78)
        maps = [tumor_map_from(rng.random((9, 7)) < 0.05, i) for i in range(6)]
        fused = fuse_maps(maps)
        assert fused.marks == tuple(pipeline.quadrant_marks(m) for m in maps)
        assert fused.votes == tuple(int(v) for v in np.sum(fused.marks, axis=0))

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

    def test_strict_no_winner_times_fuse_and_names_votes(self, phantom_cases, phantom_atlases):
        spec, vol, gt = phantom_cases[0]
        params = ExtractParams(
            representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0, vote_threshold=7, strict=True
        )
        with pytest.raises(NoTumorDetectedError) as err:
            run_pipeline(vol, phantom_atlases, method="kmeans", params=params)
        report = err.value.report
        assert "fuse" in report.timings_ms
        assert "bounding_box" in report.timings_ms
        assert str(err.value) == f"fused tumor map is empty (votes {report.votes})"

    def test_quadrant_marks_once_per_slice(self, phantom_cases, phantom_atlases, monkeypatch):
        calls = []
        real = pipeline.quadrant_marks

        def spy(tumor_map):
            calls.append(tumor_map.slice_index)
            return real(tumor_map)

        monkeypatch.setattr(pipeline, "quadrant_marks", spy)
        spec, vol, gt = phantom_cases[0]
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        run_pipeline(vol, phantom_atlases, method="kmeans", params=params)
        assert sorted(calls) == sorted(PHANTOM_REP_SLICES)

    def test_deterministic_bbox_and_report(self, phantom_cases, phantom_atlases):
        spec, vol, gt = phantom_cases[1]
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        a = run_pipeline(vol, phantom_atlases, method="em", params=params)
        b = run_pipeline(vol, phantom_atlases, method="em", params=params)
        assert a.bbox == b.bbox
        dict_a, dict_b = a.report.to_dict(), b.report.to_dict()
        dict_a.pop("timings_ms"), dict_b.pop("timings_ms")
        assert dict_a == dict_b

    @pytest.mark.parametrize("method", ["em", "kmeans"])
    def test_int16_file_volume_matches_its_float64_copy(self, tmp_path, phantom_cases, phantom_atlases, method):
        spec, vol, gt = phantom_cases[3]
        write_mha(Volume(data=np.rint(vol.data * 1000).astype(np.int16), element_type="MET_SHORT"),
                  tmp_path / "flair.mha")
        stored = read_mha(tmp_path / "flair.mha")
        assert stored.data.dtype == np.int16
        params = ExtractParams(representative_slices=PHANTOM_REP_SLICES, radius_margin=1.0)
        a = run_pipeline(stored, phantom_atlases, method=method, params=params)
        b = run_pipeline(Volume(data=stored.data.astype(np.float64)), phantom_atlases, method=method, params=params)
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

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, count):
        vol = Volume(data=np.ones((155, 4, 4), dtype=np.int16), kind="label")
        with pytest.raises(ValidationError):
            select_representatives([vol], count=count)

    @pytest.mark.parametrize("min_slice", [0, -3])
    def test_window_below_slice_one_rejected(self, min_slice):
        # per_slice[n - 1] would wrap to the volume's last slices
        vol = Volume(data=np.ones((24, 4, 4), dtype=np.int16), kind="label")
        with pytest.raises(ValidationError, match=f"min_slice must be >= 1 .*, got {min_slice}"):
            select_representatives([vol], count=2, min_slice=min_slice, max_slice=5)


class TestExtractParamsValidation:
    def test_bounds(self):
        with pytest.raises(ValidationError):
            ExtractParams(area_min=0)
        with pytest.raises(ValidationError):
            ExtractParams(radius_margin=0.5)
        with pytest.raises(ValidationError):
            ExtractParams(vote_threshold=0)
        with pytest.raises(ValidationError):
            ExtractParams(representative_slices=())
        with pytest.raises(ValidationError):
            ExtractParams(representative_slices=(5, 5))

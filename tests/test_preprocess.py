import io
import re
import zipfile

import numpy as np
import pytest

from oracles import (
    atlas_counts_loop,
    brain_mean_loop,
    enhance_loop,
    enhance_reference,
    normalize_loop,
    normalize_reference,
)
from conftest import make_slice

from tumorbox.cli import _atlas_filename
from tumorbox.errors import FormatError, ValidationError
from tumorbox.preprocess import (
    Atlas,
    brain_threshold,
    build_atlas,
    enhance_contrast,
    load_atlas,
    normalize,
    save_atlas,
)
from tumorbox.volume import Slice


class TestNormalize:
    def test_three_values(self):
        out = normalize(make_slice([[2.0, 4.0, 6.0]]))
        assert out.data.tolist() == [[0.0, 0.5, 1.0]]

    def test_constant_slice_goes_to_zero(self):
        out = normalize(make_slice(np.full((3, 3), 7.0)))
        assert np.all(out.data == 0.0)

    def test_matches_loop_oracle_and_hits_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            data = rng.random((9, 11)) * rng.uniform(1, 50) + rng.uniform(-5, 5)
            out = normalize(make_slice(data))
            assert out.data.min() == 0.0
            assert out.data.max() == 1.0
            assert np.allclose(out.data, normalize_loop(data), atol=1e-15)

    def test_idempotent_on_unit_range(self):
        rng = np.random.default_rng(3)
        data = rng.random((6, 6))
        data.flat[0] = 0.0
        data.flat[-1] = 1.0
        once = normalize(make_slice(data))
        twice = normalize(once)
        assert np.max(np.abs(twice.data - once.data)) <= 1e-12

    @pytest.mark.parametrize("dtype", [np.int16, np.uint16, np.float32, np.float64])
    def test_bit_identical_to_float_copy_then_divide(self, dtype):
        rng = np.random.default_rng(22)
        varied = (rng.random((12, 9)) * 3000).astype(dtype)
        for data in (varied, np.full((4, 5), 7, dtype=dtype)):
            out = normalize(Slice(data=data, index=3))
            want = normalize_reference(data)
            assert out.data.dtype == np.float64 and out.data.tobytes() == want.tobytes()
            assert out.index == 3

    def test_preserves_extremum_positions(self):
        rng = np.random.default_rng(4)
        data = rng.random((8, 8))
        out = normalize(make_slice(data))
        assert np.array_equal(out.data == out.data.max(), data == data.max())
        assert np.array_equal(out.data == out.data.min(), data == data.min())


class TestBrainThreshold:
    def test_mean_over_nonzero_only(self):
        data = np.zeros((4, 4))
        data[:2] = 0.8
        assert brain_threshold(make_slice(data)) == pytest.approx(0.8)

    def test_all_zero_slice(self):
        assert brain_threshold(make_slice(np.zeros((4, 4)))) == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        data = rng.random((12, 12))
        data[data < 0.4] = 0.0
        assert brain_threshold(make_slice(data)) == pytest.approx(brain_mean_loop(data))

    def test_strictly_above_threshold_is_proper_subset(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            data = rng.random((10, 10))
            data[data < rng.uniform(0, 0.6)] = 0.0
            positives = int((data > 0).sum())
            if positives == 0:
                continue
            above = int((data > brain_threshold(make_slice(data))).sum())
            values = data[data > 0]
            if np.unique(values).size > 1:
                assert above < positives


class TestBuildAtlas:
    def test_single_patient_equals_binary_mask(self):
        rng = np.random.default_rng(2)
        mask = (rng.random((6, 6)) > 0.5).astype(np.int16) * 4
        atlas = build_atlas([Slice(data=mask, index=50)])
        assert np.array_equal(atlas.counts, (mask != 0).astype(np.int32))
        assert atlas.num_patients == 1
        assert atlas.slice_index == 50

    def test_disjoint_masks_union(self):
        a = np.zeros((4, 4)); a[0, 0] = 1
        b = np.zeros((4, 4)); b[3, 3] = 2
        atlas = build_atlas([Slice(data=a, index=1), Slice(data=b, index=1)])
        assert atlas.counts.max() == 1
        assert atlas.counts.sum() == 2

    def test_ten_random_slices_match_popcount_oracle(self):
        rng = np.random.default_rng(31)
        slices = [(rng.random((7, 9)) > 0.6).astype(np.float64) for _ in range(10)]
        atlas = build_atlas([Slice(data=s, index=3) for s in slices])
        assert np.array_equal(atlas.counts, atlas_counts_loop(slices))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(32)
        slices = [Slice(data=(rng.random((5, 5)) > 0.5).astype(float), index=2) for _ in range(6)]
        fwd = build_atlas(slices)
        rev = build_atlas(slices[::-1])
        assert np.array_equal(fwd.counts, rev.counts)

    def test_mixed_dims_or_index_rejected(self):
        with pytest.raises(ValidationError):
            build_atlas([make_slice(np.zeros((3, 3))), make_slice(np.zeros((4, 4)))])
        with pytest.raises(ValidationError):
            build_atlas([make_slice(np.zeros((3, 3)), index=1), make_slice(np.zeros((3, 3)), index=2)])
        with pytest.raises(ValidationError):
            build_atlas([])


class TestEnhanceContrast:
    def test_zero_atlas_dims_every_brain_pixel(self):
        data = np.array([[0.0, 0.4], [0.9, 0.0]])
        atlas = Atlas(slice_index=1, num_patients=1, counts=np.zeros((2, 2), dtype=np.int32))
        out = enhance_contrast(make_slice(data), atlas)
        assert out.data[0, 0] == 0.0
        assert out.data[0, 1] == pytest.approx(0.4 * 0.8)
        assert out.data[1, 0] == pytest.approx(0.9 * 0.8)

    def test_clamp_at_one(self):
        data = np.array([[1.0, 0.2]])
        atlas = Atlas(slice_index=1, num_patients=3, counts=np.array([[3, 0]], dtype=np.int32))
        out = enhance_contrast(make_slice(data), atlas)
        assert out.data[0, 0] == 1.0

    def test_two_region_fixture_matches_loop_oracle(self):
        rng = np.random.default_rng(17)
        data = np.where(rng.random((10, 10)) > 0.5, 0.7, 0.2)
        data[0] = 0.0
        counts = (rng.random((10, 10)) > 0.4).astype(np.int32) * 2
        atlas = Atlas(slice_index=4, num_patients=2, counts=counts)
        out = enhance_contrast(make_slice(data, index=4), atlas)
        expected = enhance_loop(data, counts, 1, 1.25, 0.8)
        assert np.allclose(out.data, expected, atol=1e-15)

    def test_never_turns_zero_pixels_on_and_stays_in_range(self):
        rng = np.random.default_rng(18)
        data = rng.random((12, 12))
        data[data < 0.3] = 0.0
        counts = rng.integers(0, 3, size=(12, 12)).astype(np.int32)
        atlas = Atlas(slice_index=1, num_patients=2, counts=counts)
        out = enhance_contrast(make_slice(data), atlas)
        assert np.all(out.data[data == 0] == 0.0)
        assert out.data.min() >= 0.0
        assert out.data.max() <= 1.0

    def test_monotone_within_strata(self):
        rng = np.random.default_rng(19)
        data = rng.random((14, 14))
        counts = rng.integers(0, 2, size=(14, 14)).astype(np.int32)
        atlas = Atlas(slice_index=1, num_patients=1, counts=counts)
        slc = make_slice(data)
        out = enhance_contrast(slc, atlas)
        t = brain_threshold(slc)
        for eligible in (True, False):
            for above in (True, False):
                sel = (counts >= 1) == eligible
                sel &= (data > t) == above
                sel &= data > 0
                vin, vout = data[sel], out.data[sel]
                order = np.argsort(vin)
                assert np.all(np.diff(vout[order]) >= -1e-15)

    def test_bit_identical_to_two_where_passes(self):
        # Brain mean 0.5 exactly: pixels at the threshold with and without
        # atlas support, zeros, and 0.875 * 1.25 clipped at 1.
        data = np.array([[0.0, 0.25, 0.5, 0.75], [0.5, 0.875, 0.125, 0.0]])
        counts = np.array([[1, 1, 1, 0], [0, 1, 2, 2]], dtype=np.int32)
        assert brain_threshold(make_slice(data)) == 0.5
        rng = np.random.default_rng(23)
        random = rng.random((30, 30))
        random[random < 0.3] = 0.0
        for values, atlas_counts in ((data, counts), (random, rng.integers(0, 3, size=(30, 30)).astype(np.int32))):
            slc = make_slice(values)
            out = enhance_contrast(slc, Atlas(slice_index=1, num_patients=2, counts=atlas_counts))
            want = enhance_reference(values, atlas_counts, brain_threshold(slc), 1.25, 0.8)
            assert out.data.dtype == want.dtype and out.data.tobytes() == want.tobytes()
            assert out.data.max() == 1.0

    def test_dim_and_index_mismatch(self):
        atlas = Atlas(slice_index=2, num_patients=1, counts=np.zeros((3, 3), dtype=np.int32))
        with pytest.raises(ValidationError):
            enhance_contrast(make_slice(np.zeros((4, 4)), index=2), atlas)
        with pytest.raises(ValidationError):
            enhance_contrast(make_slice(np.zeros((3, 3)), index=1), atlas)


def write_npz(path, **members):
    """An .npz holding ``members`` as np.savez writes it."""
    np.savez(path, **members)
    return path


# Writers of files that are not an atlas as save_atlas writes it.
MALFORMED_ATLASES = {
    "empty": lambda p: p.write_bytes(b""),
    "truncated": lambda p: p.write_bytes(saved_atlas_bytes(p)[:200]),
    "bare-npy": lambda p: p.write_bytes(npy_bytes(np.zeros((2, 2), dtype=np.int32))),
    "text": lambda p: p.write_text("slice_index,num_patients\n1,2\n"),
    "object-counts": lambda p: write_npz(
        p, counts=np.array([[1, None]], dtype=object), num_patients=1, slice_index=1
    ),
    "no-slice-index": lambda p: write_npz(p, counts=np.zeros((2, 2), dtype=np.int32), num_patients=1),
    "extra-member": lambda p: write_npz(
        p, counts=np.zeros((2, 2), dtype=np.int32), num_patients=1, slice_index=1, width=2
    ),
    "1-d-counts": lambda p: write_npz(p, counts=np.zeros(4, dtype=np.int32), num_patients=1, slice_index=1),
    "float-counts": lambda p: write_npz(p, counts=np.zeros((2, 2)), num_patients=1, slice_index=1),
    "bool-counts": lambda p: write_npz(p, counts=np.zeros((2, 2), dtype=bool), num_patients=1, slice_index=1),
    "array-num-patients": lambda p: write_npz(
        p, counts=np.zeros((2, 2), dtype=np.int32), num_patients=[1], slice_index=1
    ),
    "float-slice-index": lambda p: write_npz(
        p, counts=np.zeros((2, 2), dtype=np.int32), num_patients=1, slice_index=1.0
    ),
    "raw-member": lambda p: write_raw_member_npz(p),
}


def saved_atlas_bytes(path):
    save_atlas(Atlas(slice_index=1, num_patients=1, counts=np.ones((8, 8), dtype=np.int32)), path)
    return path.read_bytes()


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def write_raw_member_npz(path):
    """An archive of the right member names whose ``slice_index`` is not an .npy."""
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("counts.npy", npy_bytes(np.zeros((2, 2), dtype=np.int32)))
        archive.writestr("num_patients.npy", npy_bytes(np.int64(1)))
        archive.writestr("slice_index", b"1")
    return path


class TestAtlasIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        counts = rng.integers(0, 6, size=(5, 7)).astype(np.int32)
        atlas = Atlas(slice_index=87, num_patients=5, counts=counts)
        path = tmp_path / _atlas_filename(87)
        save_atlas(atlas, path)
        back = load_atlas(path)
        assert back.slice_index == 87
        assert back.num_patients == 5
        assert back.counts.dtype == np.int32
        assert np.array_equal(back.counts, counts)

    def test_brats_size_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(220)
        counts = rng.integers(0, 221, size=(240, 240)).astype(np.int32)
        counts[0, 0], counts[0, 1] = 0, 220
        path = tmp_path / _atlas_filename(110)
        save_atlas(Atlas(slice_index=110, num_patients=220, counts=counts), path)
        back = load_atlas(path)
        assert (back.slice_index, back.num_patients) == (110, 220)
        assert back.counts.dtype == np.int32
        assert np.array_equal(back.counts, counts)

    def test_file_is_an_uncompressed_npz_of_three_members(self, tmp_path):
        counts = np.array([[0, 1, 2]], dtype=np.int32)
        path = tmp_path / _atlas_filename(3)
        save_atlas(Atlas(slice_index=3, num_patients=2, counts=counts), path)
        with np.load(path, allow_pickle=False) as archive:
            assert sorted(archive.files) == ["counts", "num_patients", "slice_index"]
            assert archive["counts"].dtype == np.int32
            assert np.array_equal(archive["counts"], counts)
            assert archive["num_patients"].shape == () and int(archive["num_patients"]) == 2
            assert archive["slice_index"].shape == () and int(archive["slice_index"]) == 3
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                assert info.compress_type == zipfile.ZIP_STORED
                assert info.date_time == (1980, 1, 1, 0, 0, 0)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / _atlas_filename(87)
        save_atlas(Atlas(slice_index=87, num_patients=1, counts=np.ones((2, 2), dtype=np.int32)), path)
        before = path.read_bytes()

        def fail_midway(fp, array, **kwargs):
            fp.write(b"\x93NUMPY\x01\x00")
            raise OSError("disk full")

        monkeypatch.setattr(np.lib.format, "write_array", fail_midway)
        with pytest.raises(OSError, match="disk full"):
            save_atlas(Atlas(slice_index=87, num_patients=2, counts=np.zeros((2, 2), dtype=np.int32)), path)
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_counts_above_num_patients_rejected(self, tmp_path):
        path = write_npz(
            tmp_path / "bad.npz", counts=np.array([[3, 0]], dtype=np.int32), num_patients=2, slice_index=1
        )
        with pytest.raises(ValidationError, match="0..num_patients"):
            load_atlas(path)

    @pytest.mark.parametrize("kind", sorted(MALFORMED_ATLASES))
    def test_malformed_npz_is_format_error(self, tmp_path, kind):
        path = tmp_path / _atlas_filename(7)
        MALFORMED_ATLASES[kind](path)
        with pytest.raises(FormatError, match=re.escape(str(path))):
            load_atlas(path)

    def test_malformed_json_is_format_error(self, tmp_path):
        # an atlas as earlier versions wrote it
        path = tmp_path / "atlas_slice_001.json"
        path.write_text('{"counts": [1, 0], "height": 1, "num_patients": 1, "slice_index": 1, "width": 2}\n')
        with pytest.raises(FormatError, match=re.escape(str(path))):
            load_atlas(path)

    def test_missing_field_is_format_error(self, tmp_path):
        path = write_npz(tmp_path / "missing.npz", counts=np.array([[1, 0]], dtype=np.int32), slice_index=1)
        with pytest.raises(FormatError, match="num_patients"):
            load_atlas(path)

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"slice_index": 1, "width": null, "height": 1, "num_patients": 1, "counts": [1, 0]}',
    ], ids=["array", "null-width"])
    def test_wrong_json_shape_is_format_error(self, tmp_path, text):
        path = tmp_path / "odd.json"
        path.write_text(text)
        with pytest.raises(FormatError, match=str(path)):
            load_atlas(path)

    def test_six_atlases_from_five_phantoms_round_trip_against_oracle(self, tmp_path, phantom_cases):
        from conftest import PHANTOM_REP_SLICES
        from tumorbox.volume import extract_slice

        assert len(phantom_cases) == 5
        for n in PHANTOM_REP_SLICES:
            gts = [extract_slice(gt, n) for _, _, gt in phantom_cases]
            atlas = build_atlas(gts)
            path = tmp_path / _atlas_filename(n)
            save_atlas(atlas, path)
            back = load_atlas(path)
            assert back.num_patients == 5
            assert np.array_equal(back.counts, atlas_counts_loop([g.data for g in gts]))

import os
import threading
import warnings

import numpy as np
import pytest

import tumorbox.mha
import tumorbox.volume
from tumorbox.errors import (
    FormatError,
    TruncatedDataError,
    UnsupportedFeatureError,
    ValidationError,
)
from tumorbox.mha import read_mha, write_mha
from tumorbox.volume import Volume


def build_mha_bytes(
    dims=(4, 4, 3),
    element_type="MET_SHORT",
    payload=None,
    msb=False,
    extra_lines=(),
    data_file="LOCAL",
    compressed=None,
):
    width, height, depth = dims
    lines = [
        "ObjectType = Image",
        "NDims = 3",
        "BinaryData = True",
        f"BinaryDataByteOrderMSB = {msb}",
    ]
    if compressed is not None:
        lines.append(f"CompressedData = {compressed}")
    lines += list(extra_lines)
    lines += [
        "ElementSpacing = 1 1 1",
        f"DimSize = {width} {height} {depth}",
        f"ElementType = {element_type}",
        f"ElementDataFile = {data_file}",
    ]
    header = ("\n".join(lines) + "\n").encode("ascii")
    return header + (payload if payload is not None else b"")


def int16_payload(dims, msb=False, seed=3):
    width, height, depth = dims
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 1000, size=(depth, height, width), dtype=np.int16)
    dt = np.dtype(np.int16).newbyteorder(">" if msb else "<")
    return values, values.astype(dt).tobytes()


def test_read_hand_built_fixture(tmp_path):
    values, payload = int16_payload((4, 4, 3))
    path = tmp_path / "fixture.mha"
    path.write_bytes(build_mha_bytes(payload=payload))
    vol = read_mha(path)
    assert vol.dims == (4, 4, 3)
    assert np.array_equal(vol.data, values.astype(np.float64))


def test_read_single_voxel_value_seven(tmp_path):
    payload = np.array([[[7]]], dtype=np.int16).tobytes()
    path = tmp_path / "one.mha"
    path.write_bytes(build_mha_bytes(dims=(1, 1, 1), payload=payload))
    vol = read_mha(path)
    assert vol.data.tolist() == [[[7.0]]]


def test_read_brats_sized_header(tmp_path):
    dims = (240, 240, 155)
    payload = np.zeros((155, 240, 240), dtype=np.int16).tobytes()
    path = tmp_path / "brats.mha"
    path.write_bytes(build_mha_bytes(dims=dims, payload=payload))
    vol = read_mha(path)
    assert vol.dims == (240, 240, 155)


def test_write_then_read_payload_byte_identical(tmp_path):
    # hand-built fixture -> read -> write: payload bytes must round trip
    values, payload = int16_payload((4, 4, 3))
    src = tmp_path / "src.mha"
    src.write_bytes(build_mha_bytes(payload=payload))
    vol = read_mha(src)
    out = tmp_path / "out.mha"
    write_mha(vol, out)
    raw = out.read_bytes()
    marker = b"ElementDataFile = LOCAL\n"
    assert raw[raw.index(marker) + len(marker):] == payload


def test_big_endian_payload_honoured(tmp_path):
    values, payload = int16_payload((5, 3, 2), msb=True)
    path = tmp_path / "be.mha"
    path.write_bytes(build_mha_bytes(dims=(5, 3, 2), payload=payload, msb=True))
    vol = read_mha(path)
    assert np.array_equal(vol.data, values.astype(np.float64))
    # written back little-endian, the values survive the round trip
    out = tmp_path / "be_out.mha"
    write_mha(vol, out)
    assert b"BinaryDataByteOrderMSB = False\n" in out.read_bytes()
    assert np.array_equal(read_mha(out).data, values)


def test_element_byte_order_key_honoured(tmp_path):
    # ElementByteOrderMSB is the older spelling of the byte-order key
    values, payload = int16_payload((3, 3, 2), msb=True)
    raw = build_mha_bytes(dims=(3, 3, 2), payload=payload, msb=False).replace(
        b"BinaryDataByteOrderMSB = False", b"ElementByteOrderMSB = True"
    )
    path = tmp_path / "older.mha"
    path.write_bytes(raw)
    vol = read_mha(path)
    assert np.array_equal(vol.data, values.astype(np.float64))


def test_non_image_object_type_rejected(tmp_path):
    raw = build_mha_bytes(dims=(2, 2, 2), payload=b"").replace(
        b"ObjectType = Image", b"ObjectType = Transform"
    )
    path = tmp_path / "t.mha"
    path.write_bytes(raw)
    with pytest.raises(UnsupportedFeatureError):
        read_mha(path)


def test_sibling_raw_file(tmp_path):
    values, payload = int16_payload((4, 2, 2))
    (tmp_path / "vol.raw").write_bytes(payload)
    header = build_mha_bytes(dims=(4, 2, 2), data_file="vol.raw")
    path = tmp_path / "vol.mhd"
    path.write_bytes(header)
    vol = read_mha(path)
    assert np.array_equal(vol.data, values.astype(np.float64))


def test_label_volume_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    data = rng.integers(0, 5, size=(6, 7, 8)).astype(np.int16)
    vol = Volume(data=data, kind="label")
    path = tmp_path / "gt.mha"
    write_mha(vol, path)
    back = read_mha(path, kind="label")
    assert back.data.dtype == np.int16
    assert np.array_equal(back.data, data)


def test_random_intensity_round_trip(tmp_path):
    # float32-representable values survive write/read losslessly
    rng = np.random.default_rng(9)
    data = rng.random((155, 240, 240), dtype=np.float32).astype(np.float64)
    vol = Volume(data=data)
    path = tmp_path / "big.mha"
    write_mha(vol, path)
    back = read_mha(path)
    assert back.dims == (240, 240, 155)
    assert np.array_equal(back.data, data)


def test_missing_dimsize_is_named(tmp_path):
    raw = (
        b"ObjectType = Image\nNDims = 3\nElementType = MET_SHORT\n"
        b"ElementDataFile = LOCAL\n"
    )
    path = tmp_path / "bad.mha"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="DimSize"):
        read_mha(path)


def test_unparseable_dimsize_is_named(tmp_path):
    values, payload = int16_payload((2, 2, 2))
    raw = build_mha_bytes(dims=(2, 2, 2), payload=payload).replace(
        b"DimSize = 2 2 2", b"DimSize = two 2 2"
    )
    path = tmp_path / "bad.mha"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="DimSize"):
        read_mha(path)


@pytest.mark.parametrize("spacing", ["1 1", "1 1 1 1", "nan 1 1", "0 1 1", "1 -1 1", "1 1 inf"])
def test_bad_element_spacing_rejected(tmp_path, spacing):
    _, payload = int16_payload((2, 2, 2))
    raw = build_mha_bytes(dims=(2, 2, 2), payload=payload).replace(
        b"ElementSpacing = 1 1 1", f"ElementSpacing = {spacing}".encode()
    )
    path = tmp_path / "bad.mha"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="ElementSpacing"):
        read_mha(path)


def test_compressed_data_rejected(tmp_path):
    path = tmp_path / "z.mha"
    path.write_bytes(build_mha_bytes(dims=(2, 2, 2), compressed="True", payload=b""))
    with pytest.raises(UnsupportedFeatureError):
        read_mha(path)


def test_truncated_payload_detected(tmp_path):
    _, payload = int16_payload((4, 4, 3))
    path = tmp_path / "short.mha"
    path.write_bytes(build_mha_bytes(payload=payload[:-10]))
    with pytest.raises(TruncatedDataError):
        read_mha(path)


def test_trailing_payload_bytes_warn_and_read_equal_data(tmp_path, caplog):
    # Three trailing bytes: not a whole int16, so the read must stop at the
    # voxel count instead of viewing the whole payload.
    values, payload = int16_payload((4, 4, 3))
    path = tmp_path / "long.mha"
    path.write_bytes(build_mha_bytes(payload=payload + b"\x01\x02\x03"))
    with caplog.at_level("WARNING"):
        vol = read_mha(path)
    assert np.array_equal(vol.data, values.astype(np.float64))
    assert any("3 trailing payload bytes" in rec.message for rec in caplog.records)


def test_ndims_other_than_3_rejected(tmp_path):
    raw = build_mha_bytes(dims=(2, 2, 2), payload=b"").replace(b"NDims = 3", b"NDims = 2")
    path = tmp_path / "nd2.mha"
    path.write_bytes(raw)
    with pytest.raises(UnsupportedFeatureError):
        read_mha(path)


def test_unsupported_element_type(tmp_path):
    path = tmp_path / "d.mha"
    path.write_bytes(build_mha_bytes(dims=(2, 2, 2), element_type="MET_DOUBLE", payload=b""))
    with pytest.raises(UnsupportedFeatureError):
        read_mha(path)


def test_unknown_keys_logged_not_fatal(tmp_path, caplog):
    values, payload = int16_payload((4, 4, 3))
    path = tmp_path / "extra.mha"
    path.write_bytes(
        build_mha_bytes(payload=payload, extra_lines=("TransformMatrix = 1 0 0 0 1 0 0 0 1",))
    )
    with caplog.at_level("WARNING"):
        vol = read_mha(path)
    assert vol.dims == (4, 4, 3)
    assert any("TransformMatrix" in rec.message for rec in caplog.records)


def test_element_data_file_list_rejected(tmp_path):
    path = tmp_path / "list.mha"
    path.write_bytes(build_mha_bytes(dims=(2, 2, 2), data_file="LIST", payload=b""))
    with pytest.raises(UnsupportedFeatureError):
        read_mha(path)


def test_unwritable_path_raises_oserror(tmp_path):
    vol = Volume(data=np.zeros((1, 1, 1)))
    with pytest.raises(OSError):
        write_mha(vol, tmp_path / "missing_dir" / "x.mha")


# The payload is read once, sized from the header, from after the header
# (LOCAL) or from a sibling raw file; both layouts must behave alike.
LAYOUTS = ("LOCAL", "raw")


def write_layout(tmp_path, layout, payload, dims=(4, 4, 3), element_type="MET_SHORT", msb=False):
    if layout == "LOCAL":
        path = tmp_path / "vol.mha"
        path.write_bytes(build_mha_bytes(dims=dims, element_type=element_type, payload=payload, msb=msb))
    else:
        (tmp_path / "vol.raw").write_bytes(payload)
        path = tmp_path / "vol.mhd"
        path.write_bytes(build_mha_bytes(dims=dims, element_type=element_type, msb=msb, data_file="vol.raw"))
    return path


def payload_warnings(caplog):
    return [rec.getMessage() for rec in caplog.records if rec.name == "tumorbox.mha"]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_exact_payload_reads_without_warning(tmp_path, caplog, layout):
    values, payload = int16_payload((4, 4, 3))
    path = write_layout(tmp_path, layout, payload)
    with caplog.at_level("WARNING"):
        vol = read_mha(path)
    assert vol.data.dtype == np.int16 and vol.data.dtype.isnative
    assert np.array_equal(vol.data, values)
    assert payload_warnings(caplog) == []


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("extra", [1, 3, 4096])
def test_trailing_bytes_warn_with_their_count(tmp_path, caplog, layout, extra):
    values, payload = int16_payload((4, 4, 3))
    path = write_layout(tmp_path, layout, payload + b"\x07" * extra)
    with caplog.at_level("WARNING"):
        vol = read_mha(path)
    assert np.array_equal(vol.data, values.astype(np.float64))
    assert payload_warnings(caplog) == [f"ignoring {extra} trailing payload bytes in {path}"]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("keep", [0, 1, 86])
def test_short_payload_names_both_sizes(tmp_path, layout, keep):
    _, payload = int16_payload((4, 4, 3))
    path = write_layout(tmp_path, layout, payload[:keep])
    with pytest.raises(TruncatedDataError) as info:
        read_mha(path)
    assert str(info.value) == f"payload has {keep} bytes, 96 expected for 4x4x3 MET_SHORT"


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("element_type,dtype", [
    ("MET_SHORT", np.int16), ("MET_USHORT", np.uint16), ("MET_FLOAT", np.float32),
])
def test_big_endian_payload_in_both_layouts(tmp_path, layout, element_type, dtype):
    rng = np.random.default_rng(21)
    values = (rng.random((3, 2, 5)) * 3000).astype(dtype)
    payload = values.astype(np.dtype(dtype).newbyteorder(">")).tobytes()
    path = write_layout(tmp_path, layout, payload, dims=(5, 2, 3), element_type=element_type, msb=True)
    vol = read_mha(path)
    assert vol.data.dtype == dtype and vol.data.dtype.isnative
    assert np.array_equal(vol.data, values)


def test_overstated_dimsize_is_truncated_before_allocating(tmp_path):
    # 4 PB of MET_FLOAT claimed, 96 bytes present: the file size settles it
    _, payload = int16_payload((4, 4, 3))
    path = tmp_path / "huge.mha"
    path.write_bytes(build_mha_bytes(dims=(100000, 100000, 100000), element_type="MET_FLOAT", payload=payload))
    with pytest.raises(TruncatedDataError) as info:
        read_mha(path)
    assert str(info.value) == (
        "payload has 96 bytes, 4000000000000000 expected for 100000x100000x100000 MET_FLOAT"
    )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("extra,keep", [(0, 96), (3, 96), (0, 50)])
def test_payload_from_a_pipe(tmp_path, caplog, layout, extra, keep):
    # A pipe has no size to ask for (``tumorbox extract <(gunzip -c x.mha.gz)``):
    # it is read to its end, with the same warning and error as a file.
    values, payload = int16_payload((4, 4, 3))
    body = payload[:keep] + b"\x07" * extra
    if layout == "LOCAL":
        path = fifo = tmp_path / "vol.mha"
        body = build_mha_bytes(payload=body)
    else:
        fifo = tmp_path / "vol.raw"
        path = tmp_path / "vol.mhd"
        path.write_bytes(build_mha_bytes(data_file="vol.raw"))
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(body,), daemon=True)
    writer.start()
    try:
        with caplog.at_level("WARNING"):
            if keep < len(payload):
                with pytest.raises(TruncatedDataError, match=f"payload has {keep} bytes, 96 expected"):
                    read_mha(path)
            else:
                vol = read_mha(path)
                assert np.array_equal(vol.data, values.astype(np.float64))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    expected = [f"ignoring {extra} trailing payload bytes in {path}"] if extra else []
    assert payload_warnings(caplog) == expected


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("cut", [0, 7], ids=["whole", "short"])
def test_written_volume_read_from_a_pipe(tmp_path, cut):
    # write_mha's own bytes, fed through a pipe by a writer thread.
    rng = np.random.default_rng(29)
    vol = Volume(data=rng.random((3, 4, 5)).astype(np.float32).astype(np.float64))
    written = tmp_path / "written.mha"
    write_mha(vol, written)
    body = written.read_bytes()
    fifo = tmp_path / "pipe.mha"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(body[:len(body) - cut],), daemon=True)
    writer.start()
    try:
        if cut:
            with pytest.raises(TruncatedDataError, match=f"payload has {240 - cut} bytes, 240 expected"):
                read_mha(fifo)
        else:
            assert np.array_equal(read_mha(fifo).data, vol.data)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


# Label payloads are checked as stored.
@pytest.mark.parametrize("element_type,dtype,bad,named", [
    ("MET_FLOAT", np.float32, 2.5, "[2.5]"),
    ("MET_FLOAT", np.float32, np.nan, "[nan]"),
    ("MET_FLOAT", np.float32, -1.0, "[-1.0]"),
    ("MET_USHORT", np.uint16, 65535, "[65535]"),
    ("MET_SHORT", np.int16, -1, "[-1]"),
    ("MET_SHORT", np.int16, 7, "[7]"),
])
def test_label_payload_checked_as_stored(tmp_path, element_type, dtype, bad, named):
    values = np.tile(np.arange(5), 6).reshape(3, 2, 5).astype(dtype)
    values[1, 1, 2] = bad
    path = tmp_path / "gt.mha"
    path.write_bytes(build_mha_bytes(dims=(5, 2, 3), element_type=element_type, payload=values.tobytes()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # NaN must not reach the cast
        with pytest.raises(ValidationError) as info:
            read_mha(path, kind="label")
    assert str(info.value) == f"label volume contains values outside 0..4: {named}"


@pytest.mark.parametrize("element_type,dtype", [
    ("MET_FLOAT", np.float32), ("MET_USHORT", np.uint16), ("MET_SHORT", np.int16),
])
@pytest.mark.parametrize("msb", [False, True])
def test_integral_label_payload_reads_as_stored(tmp_path, element_type, dtype, msb):
    values = np.tile(np.arange(5), 6).reshape(3, 2, 5).astype(dtype)
    if dtype is np.float32:
        values[0, 0, 0] = -0.0
    payload = values.astype(np.dtype(dtype).newbyteorder(">" if msb else "<")).tobytes()
    path = tmp_path / "gt.mha"
    path.write_bytes(build_mha_bytes(dims=(5, 2, 3), element_type=element_type, payload=payload, msb=msb))
    vol = read_mha(path, kind="label")
    assert vol.data.dtype == dtype and vol.data.dtype.isnative
    assert np.array_equal(vol.data, values)


def test_label_read_checks_labels_once(tmp_path, monkeypatch):
    calls = []
    check = tumorbox.volume.check_labels

    def counted(data):
        calls.append(data.dtype)
        check(data)

    monkeypatch.setattr(tumorbox.volume, "check_labels", counted)
    # Also catch a check that mha.py would make under its own name.
    monkeypatch.setattr(tumorbox.mha, "check_labels", counted, raising=False)
    values = np.tile(np.arange(5), 6).reshape(3, 2, 5).astype(np.uint16)
    path = tmp_path / "gt.mha"
    path.write_bytes(build_mha_bytes(dims=(5, 2, 3), element_type="MET_USHORT", payload=values.tobytes()))
    read_mha(path, kind="label")
    assert calls == [np.dtype(np.uint16)]

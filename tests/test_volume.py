import math

import numpy as np
import pytest

from oracles import volume_check_reference
from tumorbox.errors import ValidationError
from tumorbox.volume import Slice, Volume, extract_slice


def test_volume_dims_follow_array_shape():
    vol = Volume(data=np.zeros((155, 240, 240)))
    assert vol.dims == (240, 240, 155)
    assert vol.depth == 155


def test_intensity_volume_rejects_negative_and_nonfinite():
    with pytest.raises(ValidationError):
        Volume(data=np.full((2, 2, 2), -1.0))
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        Volume(data=bad)


def test_label_volume_rejects_values_outside_brats_set():
    with pytest.raises(ValidationError):
        Volume(data=np.full((2, 2, 2), 7, dtype=np.int16), kind="label")
    # all five legal values are fine
    data = np.zeros((1, 1, 5), dtype=np.int16)
    data[0, 0] = [0, 1, 2, 3, 4]
    Volume(data=data, kind="label")


CHECK_DTYPES = (np.int16, np.uint16, np.int32, np.float32, np.float64)
SPECIAL_VALUES = (math.nan, math.inf, -math.inf, -0.0, -1.0, -3.5, 5.0, 7.0, 65535.0, 2.5, 2.0)


def representable(value: float, dtype) -> bool:
    """True when ``value`` survives a cast to ``dtype`` unchanged."""
    dtype = np.dtype(dtype)
    if dtype.kind == "f":
        return True
    info = np.iinfo(dtype)
    return math.isfinite(value) and value.is_integer() and info.min <= value <= info.max


def legal_labels(dtype) -> np.ndarray:
    """Every label 0..4, twice over, in a (2, 1, 5) grid."""
    return np.tile(np.arange(5), 2).reshape(2, 1, 5).astype(dtype)


def assert_check_matches_reference(data: np.ndarray, kind: str) -> None:
    expected = volume_check_reference(data, kind)
    if expected is None:
        Volume(data=data, kind=kind)
        return
    with pytest.raises(ValidationError) as info:
        Volume(data=data, kind=kind)
    got = str(info.value)
    if "nan" not in expected:
        assert got == expected
        return
    # The reference sorts a set holding NaN, which has no defined order, so
    # it may name NaN anywhere; the check names it last.
    head, _, listed = expected.partition("[")
    named = got.removeprefix(head).strip("[]").split(", ")
    assert got.startswith(head + "[")
    assert sorted(named) == sorted(listed.strip("[]").split(", "))
    assert named[-1] == "nan"


def special_cases():
    """One voxel of a legal 0..4 grid replaced by each special value, and
    pairs of them (NaN with a negative, a fraction with 7, ...)."""
    pairs = [(v,) for v in SPECIAL_VALUES] + [
        (math.nan, -1.0), (-1.0, math.nan), (math.inf, math.nan), (2.5, 7.0),
        (-0.0, 4.0), (math.inf, -math.inf), (65535.0, 5.0), (-3.5, 2.5),
    ]
    for dtype in CHECK_DTYPES:
        yield pytest.param(dtype, (), id=f"{np.dtype(dtype).name}-legal")
        for values in pairs:
            if all(representable(v, dtype) for v in values):
                yield pytest.param(dtype, values, id=f"{np.dtype(dtype).name}-{values}")


@pytest.mark.parametrize("kind", ["intensity", "label"])
@pytest.mark.parametrize("dtype,values", list(special_cases()))
def test_value_checks_match_reference(dtype, values, kind):
    data = legal_labels(dtype)
    for i, v in enumerate(values):
        data.flat[3 + 4 * i] = v
    assert_check_matches_reference(data, kind)


@pytest.mark.parametrize("dtype", CHECK_DTYPES)
def test_value_checks_match_reference_on_random_grids(dtype):
    pool = np.array(
        [v for v in SPECIAL_VALUES + (0.0, 1.0, 3.0, 4.0) if representable(v, dtype)]
    ).astype(dtype)
    rng = np.random.default_rng(13)
    for _ in range(150):
        data = rng.choice(pool, size=(1, 2, int(rng.integers(1, 7))))
        for kind in ("intensity", "label"):
            assert_check_matches_reference(data, kind)


def test_volume_must_be_3d():
    with pytest.raises(ValidationError):
        Volume(data=np.zeros((4, 4)))


def test_extract_slice_carries_one_based_index():
    vol = Volume(data=np.zeros((155, 8, 8)))
    assert extract_slice(vol, 50).index == 50


@pytest.mark.parametrize("index", [0, 156])
def test_extract_slice_bounds(index):
    vol = Volume(data=np.zeros((155, 4, 4)))
    with pytest.raises(IndexError):
        extract_slice(vol, index)


def test_extract_slice_constant_plane_per_index():
    # slice k filled with value k: exercises the index arithmetic directly
    depth, height, width = 9, 5, 7
    data = np.zeros((depth, height, width))
    for k in range(1, depth + 1):
        data[k - 1] = k
    vol = Volume(data=data)
    for k in range(1, depth + 1):
        assert np.all(extract_slice(vol, k).data == k)


def test_extract_slice_x_fastest_flat_order():
    rng = np.random.default_rng(11)
    depth, height, width = 4, 5, 6
    vol = Volume(data=rng.random((depth, height, width)))
    flat = vol.data.ravel()
    for k in (1, 2, 4):
        slc = extract_slice(vol, k)
        slab = slc.data.ravel()
        for j in range(height):
            for i in range(width):
                assert slab[i + j * width] == flat[i + j * width + (k - 1) * width * height]


def test_extract_slice_is_a_copy():
    vol = Volume(data=np.zeros((3, 2, 2)))
    slc = extract_slice(vol, 2)
    slc.data[0, 0] = 99.0
    assert vol.data[1, 0, 0] == 0.0


def test_slice_validation():
    with pytest.raises(ValidationError):
        Slice(data=np.zeros(4), index=1)
    with pytest.raises(ValidationError):
        Slice(data=np.zeros((2, 2)), index=-1)

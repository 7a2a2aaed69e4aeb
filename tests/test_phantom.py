import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import generate_phantom_reference
from tumorbox.errors import FormatError, ValidationError
from tumorbox.phantom import (
    PhantomSpec,
    generate_phantom,
    load_spec,
    save_spec,
    spec_from_dict,
)


def small_spec(**overrides):
    base = dict(
        dims=(40, 40, 24),
        brain_center=(20.0, 20.0, 12.0),
        brain_radii=(16.0, 17.0, 10.0),
        tumor_center=(20.0, 20.0, 12.0),
        tumor_radius=4.0,
        seed=42,
    )
    base.update(overrides)
    return PhantomSpec(**base)


def test_same_spec_same_seed_bit_identical():
    a_int, a_gt = generate_phantom(small_spec())
    b_int, b_gt = generate_phantom(small_spec())
    assert np.array_equal(a_int.data, b_int.data)
    assert np.array_equal(a_gt.data, b_gt.data)


def test_different_seed_changes_noise():
    a_int, _ = generate_phantom(small_spec(seed=1))
    b_int, _ = generate_phantom(small_spec(seed=2))
    assert not np.array_equal(a_int.data, b_int.data)


def test_zero_noise_zero_offset_keeps_gt():
    spec = small_spec(noise_sigma=0.0, tumor_offset=0.0)
    intensity, gt = generate_phantom(spec)
    inside = intensity.data[intensity.data > 0]
    assert np.allclose(inside, spec.tissue_intensity)  # tumor invisible
    assert gt.data.sum() > 0  # but still marked


def test_gt_box_is_cube_of_side_21_for_radius_10():
    spec = PhantomSpec(
        dims=(64, 64, 48),
        brain_center=(32.0, 32.0, 24.0),
        brain_radii=(28.0, 28.0, 20.0),
        tumor_center=(32.0, 32.0, 24.0),
        tumor_radius=10.0,
        noise_sigma=0.0,
        seed=0,
    )
    _, gt = generate_phantom(spec)
    ks, is_, js = np.nonzero(gt.data)
    for axis, center in ((ks, 24), (is_, 32), (js, 32)):
        assert axis.min() == center - 10
        assert axis.max() == center + 10


def test_gt_positive_voxels_inside_brain():
    spec = small_spec()
    intensity, gt = generate_phantom(spec)
    z, y, x = np.nonzero(gt.data)
    bx, by, bz = spec.brain_center
    rx, ry, rz = spec.brain_radii
    scaled = ((x - bx) / rx) ** 2 + ((y - by) / ry) ** 2 + ((z - bz) / rz) ** 2
    assert np.all(scaled <= 1.0)
    # and those voxels are non-zero in the intensity volume's brain mask
    assert np.all(intensity.data[gt.data == 0][intensity.data[gt.data == 0] == 0] == 0)


def test_background_exactly_zero():
    intensity, _ = generate_phantom(small_spec())
    z = np.arange(intensity.depth)[:, None, None]
    y = np.arange(intensity.height)[None, :, None]
    x = np.arange(intensity.width)[None, None, :]
    spec = small_spec()
    bx, by, bz = spec.brain_center
    rx, ry, rz = spec.brain_radii
    outside = ((x - bx) / rx) ** 2 + ((y - by) / ry) ** 2 + ((z - bz) / rz) ** 2 > 1.0
    assert np.all(intensity.data[outside] == 0)


def test_blob_outside_brain_rejected():
    with pytest.raises(ValidationError):
        small_spec(tumor_center=(36.0, 20.0, 12.0))


def test_negative_sigma_rejected():
    with pytest.raises(ValidationError):
        small_spec(noise_sigma=-0.1)


def test_negative_seed_rejected():
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        PhantomSpec(seed=-1)


@pytest.mark.parametrize("field, value", [
    ("brain_center", (float("nan"), 20.0, 12.0)),
    ("brain_radii", (16.0, float("inf"), 10.0)),
    ("tumor_center", (20.0, 20.0, float("-inf"))),
    ("tumor_radius", float("nan")),
    ("tumor_offset", float("inf")),
    ("tissue_intensity", float("inf")),
    ("noise_sigma", float("nan")),
    ("dims", (40, 40, float("inf"))),
])
def test_non_finite_field_rejected(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        small_spec(**{field: value})


@st.composite
def phantom_specs(draw):
    """Valid specs over odd and even dims, with and without noise, a zero
    or negative offset, signed-zero levels and tumours up against the brain
    edge."""
    dims = tuple(draw(st.integers(1, 25)) for _ in range(3))
    brain_center = tuple(d / 2 + draw(st.floats(-1.0, 1.0)) for d in dims)
    brain_radii = tuple(draw(st.floats(0.5, 0.6 * d + 1.0)) for d in dims)
    # tumour centre at scaled distance ``s`` from the brain's, radius a
    # fraction ``fill`` of the room left to the edge (fill -> 1 touches it)
    s = draw(st.floats(0.0, 0.7))
    direction = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    norm = float(np.linalg.norm(direction))
    unit = direction / norm if norm > 1e-3 else np.array([1.0, 0.0, 0.0])
    tumor_center = tuple(float(b + s * r * u) for b, r, u in zip(brain_center, brain_radii, unit))
    fill = draw(st.sampled_from([1.0 - 1e-9, 0.999]) | st.floats(0.05, 0.999))
    level = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 2.0)
    try:
        spec = PhantomSpec(
            dims=dims,
            brain_center=brain_center,
            brain_radii=brain_radii,
            tumor_center=tumor_center,
            tumor_radius=(1.0 - s) * min(brain_radii) * fill,
            tumor_offset=draw(level | st.floats(-1.0, 1.0)),
            tissue_intensity=draw(level),
            noise_sigma=draw(st.just(0.0) | st.floats(1e-3, 0.5)),
            seed=draw(st.integers(0, 2**32 - 1)),
        )
    except ValidationError:
        assume(False)
    return spec


@settings(max_examples=300, deadline=None)
@given(phantom_specs())
def test_matches_whole_volume_reference(spec):
    intensity, gt = generate_phantom(spec)
    ref_values, ref_labels = generate_phantom_reference(spec)
    assert intensity.data.dtype == ref_values.dtype == np.float64
    assert gt.data.dtype == ref_labels.dtype == np.int16
    assert intensity.data.tobytes() == ref_values.tobytes()
    assert gt.data.tobytes() == ref_labels.tobytes()


def test_peak_memory_is_the_returned_volumes():
    spec = PhantomSpec(
        dims=(96, 96, 60),
        brain_center=(48.0, 48.0, 30.0),
        brain_radii=(38.0, 42.0, 26.0),
        tumor_center=(50.0, 46.0, 32.0),
        tumor_radius=12.0,
        seed=3,
    )
    tracemalloc.start()
    try:
        intensity, gt = generate_phantom(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = intensity.data.nbytes + gt.data.nbytes
    assert peak <= 1.25 * returned, (peak, returned)


def test_spec_json_round_trip(tmp_path):
    spec = small_spec()
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    assert load_spec(path) == spec


def test_spec_missing_field_is_format_error():
    payload = asdict(small_spec())
    del payload["tumor_radius"]
    with pytest.raises(FormatError, match="tumor_radius"):
        spec_from_dict(payload)

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import components_reference, flood_fill_components, row_runs_loop, run_roots_reference

from tumorbox.components import _row_runs, _run_roots, connected_components
from tumorbox.errors import ValidationError


def pixel_sets(comps):
    return {frozenset(map(tuple, c.pixels.tolist())) for c in comps}


def test_diagonal_pair_eight_connected():
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 0] = mask[1, 1] = True
    comps = connected_components(mask, connectivity=8)
    assert len(comps) == 1
    assert comps[0].area == 2


def test_diagonal_pair_four_connected():
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 0] = mask[1, 1] = True
    comps = connected_components(mask, connectivity=4)
    assert len(comps) == 2
    assert all(c.area == 1 for c in comps)


@pytest.mark.parametrize("connectivity", [4, 8])
def test_random_masks_match_flood_fill(connectivity):
    rng = np.random.default_rng(55)
    for _ in range(20):
        mask = rng.random((64, 64)) < 0.3
        comps = connected_components(mask, connectivity=connectivity)
        assert pixel_sets(comps) == flood_fill_components(mask, connectivity)


@pytest.mark.parametrize("connectivity", [4, 8])
def test_components_read_in_any_order_match_eager_reference(connectivity):
    rng = np.random.default_rng(57)
    for density in (0.2, 0.45, 0.6):
        mask = rng.random((40, 56)) < density
        expected = components_reference(mask, connectivity)
        comps = connected_components(mask, connectivity=connectivity)
        assert len(comps) == len(expected)
        for i in [*rng.permutation(len(comps)), 0, -1]:
            pixels, centroid = expected[i]
            assert np.array_equal(comps[i].pixels, pixels)
            assert comps[i].pixels.dtype == np.int64
            assert comps[i].centroid == centroid


def test_sorted_by_area_then_topleft():
    mask = np.zeros((6, 10), dtype=bool)
    mask[0, 7:9] = True   # area 2, anchor (0, 7)
    mask[3, 0:2] = True   # area 2, anchor (3, 0)
    mask[5, 4:9] = True   # area 5
    comps = connected_components(mask, connectivity=8)
    assert [c.area for c in comps] == [5, 2, 2]
    assert comps[1].anchor == (0, 7)
    assert comps[2].anchor == (3, 0)


def test_centroid_is_pixel_mean():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 1] = mask[1, 2] = mask[2, 1] = mask[2, 2] = True
    comps = connected_components(mask)
    assert comps[0].centroid == (1.5, 1.5)


def test_empty_mask_gives_empty_list():
    assert connected_components(np.zeros((5, 5), dtype=bool)) == []


def test_connectivity_validation():
    with pytest.raises(ValidationError):
        connected_components(np.zeros((2, 2), dtype=bool), connectivity=6)


def spiral_mask(size: int, gap: int) -> np.ndarray:
    """A square spiral of 1-pixel-wide arms, ``gap`` free pixels apart."""
    mask = np.zeros((size, size), dtype=bool)
    r = c = size // 2
    step = gap + 1
    length = step
    dr, dc = 0, 1
    while True:
        for _ in range(2):
            for _ in range(length):
                if not (0 <= r < size and 0 <= c < size):
                    return mask
                mask[r, c] = True
                r, c = r + dr, c + dc
            dr, dc = dc, -dr
        length += step


def u_shapes_mask(size: int) -> np.ndarray:
    """Nested U shapes and a comb: arms that meet only at their bottom row,
    so their runs merge late in the scan."""
    mask = np.zeros((size, size), dtype=bool)
    for depth, half in enumerate(range(50, 10, -8)):
        top, bottom = 10 + 4 * depth, 110 - 4 * depth
        left, right = 60 - half, 60 + half
        mask[top:bottom, left] = mask[top:bottom, right] = True
        mask[bottom - 1, left:right + 1] = True
    mask[130:200, 20:220:4] = True        # comb teeth
    mask[199, 20:217] = True              # joined by the last row
    mask[140:150, 150] = False            # tooth cut into two pieces
    mask[210:230, 100:140] = True         # solid block touching nothing
    mask[230, 140] = True                 # diagonal neighbour of the block
    return mask


def scipy_components(mask, connectivity):
    """(anchor -> (area, centroid, row-major pixels)) from scipy.ndimage.label."""
    ndimage = pytest.importorskip("scipy.ndimage")
    structure = ndimage.generate_binary_structure(2, 1 if connectivity == 4 else 2)
    labels, count = ndimage.label(mask, structure=structure)
    coords = np.argwhere(labels)  # row-major
    order = np.argsort(labels[labels > 0], kind="stable")
    groups = np.split(coords[order], np.cumsum(np.bincount(labels.ravel())[1:])[:-1])
    return {
        tuple(pixels[0].tolist()): (len(pixels), tuple(pixels.mean(axis=0).tolist()), pixels)
        for pixels in groups
    }


def cross_check_masks():
    rng = np.random.default_rng(240)
    yield u_shapes_mask(240)
    yield spiral_mask(240, 1)
    yield spiral_mask(240, 2)
    for density in (0.05, 0.3, 0.55):
        yield rng.random((240, 240)) < density
    blobs = np.zeros((240, 240), dtype=bool)
    yy, xx = np.mgrid[:240, :240]
    for cy, cx, rad in rng.integers((20, 20, 3), (220, 220, 30), size=(12, 3)):
        blobs |= (yy - cy) ** 2 + (xx - cx) ** 2 <= rad * rad
    yield blobs
    yield np.ones((240, 240), dtype=bool)


@pytest.mark.parametrize("connectivity", [4, 8])
def test_matches_scipy_label_on_240_masks(connectivity):
    for mask in cross_check_masks():
        expected = scipy_components(mask, connectivity)
        comps = connected_components(mask, connectivity=connectivity)
        assert sorted(c.anchor for c in comps) == sorted(expected)
        keys = [(-c.area, c.anchor) for c in comps]
        assert keys == sorted(keys)
        for c in comps:
            area, centroid, pixels = expected[c.anchor]
            assert c.area == area
            assert c.centroid == centroid
            # same pixels, in row-major scan order
            assert np.array_equal(c.pixels, pixels)



def serpentine_mask(size: int) -> np.ndarray:
    """One snake of rows joined alternately at the right and left ends."""
    mask = np.zeros((size, size), dtype=bool)
    mask[::2] = True
    mask[1::4, -1] = True
    mask[3::4, 0] = True
    return mask


def comb_mask(size: int) -> np.ndarray:
    """One-pixel teeth that meet only in the last row."""
    mask = np.zeros((size, size), dtype=bool)
    mask[:, ::2] = True
    mask[-1] = True
    return mask


def staircase_mask(size: int, down_left: bool) -> np.ndarray:
    """A one-pixel diagonal: one component at 8-connectivity, single pixels
    at 4-connectivity."""
    mask = np.eye(size, dtype=bool)
    return mask[:, ::-1] if down_left else mask


def assert_runs_and_roots_match_reference(mask):
    runs = _row_runs(mask)
    for got, want in zip(runs, row_runs_loop(mask)):
        assert np.array_equal(got, want)
    for reach in (0, 1):
        assert np.array_equal(
            _run_roots(*runs, reach, mask.shape[1]),
            run_roots_reference(*runs, reach, mask.shape[1]),
        )


@st.composite
def random_masks(draw):
    height, width = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    density = draw(st.floats(0.05, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random((height, width)) < density


class TestRunRootsMatchUnionFind:
    @settings(max_examples=200, deadline=None)
    @given(random_masks())
    def test_random_masks(self, mask):
        assert_runs_and_roots_match_reference(mask)

    @pytest.mark.parametrize(
        "mask",
        [
            serpentine_mask(63),
            comb_mask(64),
            staircase_mask(64, down_left=False),
            staircase_mask(64, down_left=True),
        ],
        ids=["serpentine", "comb", "staircase", "staircase-down-left"],
    )
    def test_shaped_masks(self, mask):
        assert_runs_and_roots_match_reference(mask)

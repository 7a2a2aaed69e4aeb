"""Connected-component labeling on binary masks.

Run-based labeling (He, Chao & Suzuki 2008): one numpy pass finds the
horizontal runs of every row, and the runs that touch a run in the row above
are merged by array-wide hooking and pointer jumping (Shiloach & Vishkin
1982), so no Python loop goes over runs or pixels. Supports 4- and
8-connectivity. Components come back sorted largest first, as a sequence
that builds each `Component` only when it is read.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class Component:
    """One connected group of set pixels.

    pixels is an (area, 2) array of (row, col) coordinates in row-major scan
    order; centroid is the real-valued (row, col) mean.
    """

    pixels: np.ndarray
    centroid: tuple[float, float]

    @property
    def area(self) -> int:
        return self.pixels.shape[0]


def _row_runs(mask: np.ndarray):
    """Horizontal runs of set pixels in row-major order: (row, start, stop)."""
    height, width = mask.shape
    stride = width + 2
    padded = np.zeros((height, stride), dtype=bool)
    padded[:, 1:-1] = mask
    # The zero border closes every run inside its row, so the transitions of
    # the flattened mask come in (start, stop) pairs.
    edges = np.flatnonzero(np.diff(padded.ravel()))
    rows = edges[0::2] // stride
    return rows, edges[0::2] - rows * stride, edges[1::2] - rows * stride


def _ranges(firsts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(f, f + n)`` over pairs of firsts and lengths."""
    return np.arange(lengths.sum()) + np.repeat(firsts - (np.cumsum(lengths) - lengths), lengths)


def _run_roots(rows, starts, stops, reach: int, width: int) -> np.ndarray:
    """Each run's root, the first run of its component in scan order: a run
    joins every run in the row above that overlaps it once widened by
    ``reach`` columns."""
    # Runs sorted by (row, column) keys; the runs of row r-1 touching run
    # [start, stop) of row r are one contiguous index range.
    stride = width + 2
    start_keys = rows * stride + starts
    stop_keys = rows * stride + stops
    above = (rows - 1) * stride
    lo = np.searchsorted(stop_keys, above + starts - reach, side="right")
    hi = np.searchsorted(start_keys, above + stops + reach, side="left")
    n_links = np.maximum(hi - lo, 0)
    lower = np.repeat(np.arange(rows.size), n_links)
    upper = _ranges(lo, n_links)

    # Every label is at most its own index. Each round hooks the larger root
    # of every unmerged link onto the smaller, then jumps pointers until each
    # label is a root; a component's root is thus its smallest run.
    roots = np.arange(rows.size)
    while upper.size:
        a, b = roots[upper], roots[lower]
        np.minimum.at(roots, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = roots[roots]
            if np.array_equal(jumped, roots):
                break
            roots = jumped
        apart = roots[upper] != roots[lower]
        upper, lower = upper[apart], lower[apart]
    return roots


class Components(Sequence):
    """Components largest first, held as their runs; ``[i]`` builds the i-th.

    The largest is found by one pass over the areas; the full area order is
    sorted only when a later component is read."""

    def __init__(self, rows, starts, lengths, roots, firsts, areas):
        self._rows, self._starts, self._lengths = rows, starts, lengths
        self._roots = roots  # each run's root run
        self._firsts, self._areas = firsts, areas  # root runs in scan order, their areas

    @cached_property
    def _order(self) -> np.ndarray:
        """Root runs by component area descending; roots are first runs, so
        a stable sort keeps scan order among equal areas."""
        return self._firsts[np.argsort(-self._areas, kind="stable")]

    def __len__(self) -> int:
        return self._firsts.size

    def __getitem__(self, i: int) -> Component:
        # argmax gives the first of equal areas, as the stable sort does.
        root = self._firsts[np.argmax(self._areas)] if i == 0 else self._order[i]
        runs = np.flatnonzero(self._roots == root)  # in scan order
        rows, starts, lengths = self._rows[runs], self._starts[runs], self._lengths[runs]
        pixels = np.stack([np.repeat(rows, lengths), _ranges(starts, lengths)], axis=1)
        # Coordinate sums are integers, so the centroid is the exact
        # per-component pixel mean.
        area = int(lengths.sum())
        row_sum = int((rows * lengths).sum())
        col_sum = int(((2 * starts + lengths - 1) * lengths // 2).sum())
        return Component(pixels=pixels.astype(np.int64, copy=False), centroid=(row_sum / area, col_sum / area))


def connected_components(mask, connectivity: int = 8) -> Sequence[Component]:
    """Partition the set pixels of ``mask`` into maximal connected groups.

    Returns components sorted by area descending, ties broken by the smaller
    (row, col) of the topmost-leftmost pixel. An empty mask gives an empty
    list.
    """
    if connectivity not in (4, 8):
        raise ValidationError(f"connectivity must be 4 or 8, got {connectivity}")
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValidationError(f"mask must be 2-D, got shape {mask.shape}")

    rows, starts, stops = _row_runs(mask)
    if rows.size == 0:
        return []
    roots = _run_roots(rows, starts, stops, 1 if connectivity == 8 else 0, mask.shape[1])
    lengths = stops - starts
    firsts = np.flatnonzero(roots == np.arange(rows.size))
    areas = np.bincount(roots, weights=lengths)[firsts]
    return Components(rows, starts, lengths, roots, firsts, areas)

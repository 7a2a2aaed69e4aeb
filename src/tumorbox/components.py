"""Connected-component labeling on binary masks.

Run-based labeling (He, Chao & Suzuki 2008): the horizontal runs of each row
are found with numpy, and union-find merges runs that touch a run in the row
above, so the merge loop goes over runs rather than pixels. Supports 4- and
8-connectivity. Components come back sorted largest first.
"""

from dataclasses import dataclass

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

    @property
    def anchor(self) -> tuple[int, int]:
        """Topmost-leftmost pixel, used as a deterministic tie-breaker."""
        return (int(self.pixels[0, 0]), int(self.pixels[0, 1]))


def _row_runs(mask: np.ndarray):
    """Horizontal runs of set pixels in row-major order: (row, start, stop)."""
    height, width = mask.shape
    padded = np.zeros((height, width + 2), dtype=np.int8)
    padded[:, 1:-1] = mask
    edges = np.diff(padded, axis=1)
    rows, starts = np.nonzero(edges == 1)
    _, stops = np.nonzero(edges == -1)
    return rows, starts, stops


def _ranges(firsts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(f, f + n)`` over pairs of firsts and lengths."""
    return np.arange(lengths.sum()) + np.repeat(firsts - (np.cumsum(lengths) - lengths), lengths)


def _run_roots(rows, starts, stops, reach: int, width: int) -> np.ndarray:
    """Union-find over runs: a run joins every run in the row above that
    overlaps it once widened by ``reach`` columns. Each run's root is the
    first run of its component in scan order."""
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

    parent = list(range(rows.size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(upper.tolist(), lower.tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            # keep the smaller root so roots stay in scan order
            parent[max(ra, rb)] = min(ra, rb)
    # Every parent index is at most its own, so pointer jumping ends at roots.
    roots = np.array(parent, dtype=np.intp)
    while True:
        jumped = roots[roots]
        if np.array_equal(jumped, roots):
            return roots
        roots = jumped


def connected_components(mask, connectivity: int = 8) -> list[Component]:
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
    # Roots are first runs, so component ids follow the anchors' scan order.
    _, comp = np.unique(roots, return_inverse=True)
    lengths = stops - starts

    # Every pixel of every run, in row-major order; a stable sort by
    # component keeps that order within each component.
    run_of = np.repeat(np.arange(rows.size), lengths)
    pixels = np.stack([rows[run_of], _ranges(starts, lengths)], axis=1).astype(np.int64)
    pixels = pixels[np.argsort(comp[run_of], kind="stable")]

    # Coordinate sums are integers, exact in float64, so the centroids equal
    # the per-component pixel means.
    areas = np.bincount(comp, weights=lengths).astype(np.int64)
    row_sums = np.bincount(comp, weights=rows * lengths)
    col_sums = np.bincount(comp, weights=(starts + stops - 1) * lengths // 2)
    bounds = np.concatenate([[0], np.cumsum(areas)]).tolist()
    centroids = list(zip((row_sums / areas).tolist(), (col_sums / areas).tolist()))
    return [
        Component(pixels=pixels[bounds[c]:bounds[c + 1]], centroid=centroids[c])
        for c in np.argsort(-areas, kind="stable").tolist()
    ]

"""The six-stage bounding-box pipeline.

For each representative slice: extract, normalise, enhance, segment, and
reduce to a binary tumor map (largest suitable bright component plus a
safety disk). The six maps then vote per image quadrant; the union of
detections inside winning quadrants is the final tumor map whose minimal
rectangle is the output.
"""

import logging
import time
from dataclasses import asdict, dataclass, field
from math import ceil, floor, pi, sqrt
from typing import Iterable, Mapping

import numpy as np

from .clustering import ClusterConfig, LabelMap, segment_slice
# Unused here; benchmark/tracing.py wraps these names as its debug_recluster span.
from .clustering import em_gmm_1d, kmeans_1d  # noqa: F401
from .components import connected_components
from .errors import ConfigurationError, NoTumorDetectedError, ValidationError
from .preprocess import Atlas, enhance_contrast, normalize
from .volume import Volume, extract_slice

log = logging.getLogger(__name__)

REPRESENTATIVE_SLICES = (50, 66, 87, 89, 92, 110)

# Slice-selection search window: slices 1..31 and 119..155 hold no brain.
SELECT_MIN_SLICE = 32
SELECT_MAX_SLICE = 118

# A component larger than this fraction of its slice's brain pixels is not
# suitable: the ceiling rejects a whole-brain "component" on bright slices.
AREA_MAX_FRACTION = 0.5


@dataclass(frozen=True)
class ExtractParams:
    """Tumor-map extraction and fusion knobs.

    A component is suitable when its area lies between ``area_min`` and
    AREA_MAX_FRACTION of the slice's brain-pixel count. A map marks a
    quadrant when the quadrant holds any of its detections. The safety disk
    radius is radius_margin times the component's equivalent radius.
    ``strict`` drops the no-winning-quadrant fallback: the fused map is then
    empty, which the box step rejects.
    """

    area_min: float = 50.0
    radius_margin: float = 1.5
    vote_threshold: int = 2
    representative_slices: tuple[int, ...] = REPRESENTATIVE_SLICES
    bbox_margin: int = 0
    strict: bool = False

    def __post_init__(self):
        if self.area_min <= 0:
            raise ValidationError(f"area_min must be > 0, got {self.area_min}")
        if self.radius_margin < 1:
            raise ValidationError(f"radius_margin must be >= 1, got {self.radius_margin}")
        if self.vote_threshold < 1:
            raise ValidationError(f"vote_threshold must be >= 1, got {self.vote_threshold}")
        if self.bbox_margin < 0:
            raise ValidationError(f"bbox_margin must be >= 0, got {self.bbox_margin}")
        if not self.representative_slices:
            raise ValidationError("representative_slices must not be empty")
        if len(set(self.representative_slices)) != len(self.representative_slices):
            raise ValidationError("representative_slices must be unique")
        if any(s < 1 for s in self.representative_slices):
            raise ValidationError("representative_slices are 1-based (>= 1)")


@dataclass(frozen=True, eq=False)
class TumorMap:
    """Binary per-slice detection mask; slice_index 0 marks a fused map."""

    mask: np.ndarray
    slice_index: int = 0
    used_class: int | None = None

    @property
    def is_empty(self) -> bool:
        return not bool(self.mask.any())

    @property
    def pixel_count(self) -> int:
        return int(self.mask.sum())


@dataclass(frozen=True)
class BBox:
    """Inclusive 0-based pixel rectangle, the pipeline's final output."""

    row_min: int
    col_min: int
    row_max: int
    col_max: int
    margin_applied: int = 0

    def __post_init__(self):
        if self.row_min > self.row_max or self.col_min > self.col_max:
            raise ValidationError(f"degenerate bounding box: {self}")
        if min(self.row_min, self.col_min) < 0:
            raise ValidationError(f"bounding box outside image bounds: {self}")

    @property
    def area(self) -> int:
        return (self.row_max - self.row_min + 1) * (self.col_max - self.col_min + 1)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_csv_row(self) -> str:
        return (
            f"{self.row_min},{self.col_min},{self.row_max},{self.col_max},"
            f"{self.margin_applied}"
        )


def mask_bbox(mask: np.ndarray, margin: int = 0) -> BBox:
    """Minimal rectangle over the set pixels, grown by ``margin`` and clamped."""
    mask = np.asarray(mask, dtype=bool)
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        raise NoTumorDetectedError("mask has no set pixels")
    height, width = mask.shape
    return BBox(
        row_min=max(int(rows[0]) - margin, 0),
        col_min=max(int(cols[0]) - margin, 0),
        row_max=min(int(rows[-1]) + margin, height - 1),
        col_max=min(int(cols[-1]) + margin, width - 1),
        margin_applied=margin,
    )


def bounding_box(tumor_map: TumorMap, margin: int = 0) -> BBox:
    """Smallest rectangle containing the tumor map, plus a safety margin.

    Raises NoTumorDetectedError when the map is empty.
    """
    return mask_bbox(tumor_map.mask, margin)


def _disk_mask(shape: tuple[int, int], center: tuple[float, float], radius: float) -> np.ndarray:
    """Pixels whose squared distance from ``center`` is at most radius**2.

    Only the disk's bounding square, widened by a pixel on each side, is
    evaluated: a pixel farther out than that has one squared offset above
    radius**2 even after rounding, so it is outside for the whole-grid
    expression too.
    """
    mask = np.zeros(shape, dtype=bool)
    lo = [max(0, floor(c - radius) - 1) for c in center]
    hi = [min(size, ceil(c + radius) + 2) for c, size in zip(center, shape)]
    rows = np.arange(lo[0], hi[0], dtype=np.float64)[:, None]
    cols = np.arange(lo[1], hi[1], dtype=np.float64)[None, :]
    mask[lo[0]:hi[0], lo[1]:hi[1]] = (rows - center[0]) ** 2 + (cols - center[1]) ** 2 <= radius**2
    return mask


def extract_tumor_map(label_map: LabelMap, params: ExtractParams | None = None) -> TumorMap:
    """Reduce a 5-class label map to a binary tumor map.

    Cascade: take the largest 8-connected component of class 5; if its area
    is suitable (from area_min up to AREA_MAX_FRACTION of the slice's brain
    pixels), the map is that component united with the safety disk around
    its centroid; otherwise retry with class 4; if neither class yields a
    suitable component the map is black, which simply means no tumor was
    detected in this slice.
    """
    params = params or ExtractParams()
    if label_map.k != 5:
        raise ValidationError(
            f"tumor map extraction expects 5 classes, label map has k={label_map.k}"
        )
    labels = label_map.labels
    area_max = AREA_MAX_FRACTION * label_map.brain_pixels

    for cls in (5, 4):
        comps = connected_components(labels == cls, connectivity=8)
        if not comps:
            continue
        largest = comps[0]
        if params.area_min <= largest.area <= area_max:
            radius = params.radius_margin * sqrt(largest.area / pi)
            mask = _disk_mask(labels.shape, largest.centroid, radius)
            mask[largest.pixels[:, 0], largest.pixels[:, 1]] = True
            return TumorMap(mask=mask, slice_index=label_map.slice_index, used_class=cls)

    return TumorMap(
        mask=np.zeros(labels.shape, dtype=bool),
        slice_index=label_map.slice_index,
        used_class=None,
    )


def _quadrant_slices(height: int, width: int) -> list[tuple[slice, slice]]:
    """(rows, cols) of quadrants 1..4 = TL, TR, BL, BR; odd sizes give the
    extra row/column to the top/left blocks (ceil split)."""
    row_split = ceil(height / 2)
    col_split = ceil(width / 2)
    return [
        (rows, cols)
        for rows in (slice(0, row_split), slice(row_split, height))
        for cols in (slice(0, col_split), slice(col_split, width))
    ]


def _check_same_dims(maps: Iterable[TumorMap]) -> tuple[int, int]:
    shapes = {m.mask.shape for m in maps}
    if len(shapes) != 1:
        raise ValidationError(f"tumor maps have mixed dims: {sorted(shapes)}")
    return shapes.pop()


def quadrant_marks(tumor_map: TumorMap) -> tuple[bool, bool, bool, bool]:
    """Which quadrants hold at least one of this map's detections."""
    quadrants = _quadrant_slices(*tumor_map.mask.shape)
    return tuple(int(np.count_nonzero(tumor_map.mask[rows, cols])) > 0 for rows, cols in quadrants)


@dataclass(frozen=True, eq=False)
class FuseResult:
    fused: TumorMap
    marks: tuple[tuple[bool, bool, bool, bool], ...]  # quadrant_marks per input map
    votes: tuple[int, int, int, int]
    winners: tuple[int, ...]  # winning quadrant numbers, 1-based
    fallback_used: bool


def fuse_maps(maps: list[TumorMap], params: ExtractParams | None = None) -> FuseResult:
    """Combine per-slice maps: each map marks the quadrants it covers, the
    marks are counted as votes, and detections inside quadrants whose vote
    reaches ``vote_threshold`` are kept.

    If no quadrant wins, the union of all maps is kept with a warning; in
    strict mode the fused map is empty instead.
    """
    params = params or ExtractParams()
    if not maps:
        raise ValidationError("fuse_maps needs at least one map")
    height, width = _check_same_dims(maps)
    marks = tuple(quadrant_marks(m) for m in maps)
    votes = tuple(sum(column) for column in zip(*marks))
    winners = tuple(q + 1 for q in range(4) if votes[q] >= params.vote_threshold)

    union = np.zeros((height, width), dtype=bool)
    for tumor_map in maps:
        union |= tumor_map.mask

    fallback = not winners and not params.strict
    if fallback:
        fused_mask = union
    else:
        quadrants = _quadrant_slices(height, width)
        fused_mask = np.zeros((height, width), dtype=bool)
        for q in winners:
            rows, cols = quadrants[q - 1]
            fused_mask[rows, cols] = union[rows, cols]
    if not winners:
        log.warning(
            "no quadrant reached the vote threshold %d (votes %s)%s",
            params.vote_threshold,
            votes,
            "; falling back to the union of all maps" if fallback else "",
        )

    return FuseResult(
        fused=TumorMap(mask=fused_mask, slice_index=0),
        marks=marks,
        votes=votes,
        winners=winners,
        fallback_used=fallback,
    )


@dataclass
class SliceReport:
    slice_index: int
    tumor_pixels: int
    used_class: int | None
    degenerate_segmentation: bool
    empty: bool
    quadrants_marked: tuple[bool, bool, bool, bool]
    fit: dict | None = None  # LabelMap.fit of the slice

    def to_dict(self) -> dict:
        return {
            "slice_index": self.slice_index,
            "tumor_pixels": self.tumor_pixels,
            "used_class": self.used_class,
            "degenerate_segmentation": self.degenerate_segmentation,
            "empty": self.empty,
            "quadrants_marked": list(self.quadrants_marked),
            "fit": None if self.fit is None
            else {k: v for k, v in self.fit.items() if not k.endswith("_trace")},
        }


@dataclass
class PipelineReport:
    method: str
    slices: list[SliceReport]
    votes: tuple[int, int, int, int]
    winners: tuple[int, ...]
    fallback_used: bool
    bbox: BBox | None
    timings_ms: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "slices": [s.to_dict() for s in self.slices],
            "votes": list(self.votes),
            "winning_quadrants": list(self.winners),
            "fallback_used": self.fallback_used,
            "bbox": self.bbox.to_dict() if self.bbox else None,
            "timings_ms": {k: round(v, 3) for k, v in self.timings_ms.items()},
        }

    def unconverged_slices(self) -> list[int]:
        """Slices whose EM fit stopped at max_iter without converging."""
        return [s.slice_index for s in self.slices if s.fit and s.fit.get("converged") is False]


@dataclass
class PipelineResult:
    bbox: BBox
    report: PipelineReport


def run_pipeline(
    volume: Volume,
    atlases: Mapping[int, Atlas],
    method: str = "em",
    cluster_cfg: ClusterConfig | None = None,
    params: ExtractParams | None = None,
) -> PipelineResult:
    """Run the full pipeline on one volume and return the bounding box.

    Each representative slice is clustered over its brain, the pixels > 0.
    ``atlases`` maps slice index to Atlas and must cover every
    representative slice. Raises NoTumorDetectedError, with the report
    attached, when the fused map is empty (in strict mode, also when no
    quadrant wins the vote).
    """
    cluster_cfg = cluster_cfg or ClusterConfig()
    params = params or ExtractParams()

    slices = params.representative_slices
    if volume.depth < max(slices):
        raise ConfigurationError(
            f"volume depth {volume.depth} is smaller than representative slice {max(slices)}"
        )
    missing = [n for n in slices if n not in atlases]
    if missing:
        raise ConfigurationError(
            f"no atlas for representative slice(s): {', '.join(map(str, missing))}"
        )

    timings: dict[str, float] = {}

    def timed(stage, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            timings[stage] = timings.get(stage, 0.0) + (time.perf_counter() - start) * 1000

    maps: list[TumorMap] = []
    fits: list[tuple[bool, dict | None]] = []  # (degenerate, fit) per slice
    for n in slices:
        raw = timed("extract", extract_slice, volume, n)
        norm = timed("normalize", normalize, raw)
        enhanced = timed("enhance", enhance_contrast, norm, atlases[n])
        label_map = timed("segment", segment_slice, enhanced, method, cluster_cfg)
        maps.append(timed("tumor_map", extract_tumor_map, label_map, params))
        fits.append((label_map.degenerate, label_map.fit))

    fusion = timed("fuse", fuse_maps, maps, params)
    try:
        bbox = timed("bounding_box", bounding_box, fusion.fused, params.bbox_margin)
    except NoTumorDetectedError:
        bbox = None
    report = PipelineReport(
        method=method,
        slices=[
            SliceReport(
                slice_index=tumor_map.slice_index,
                tumor_pixels=tumor_map.pixel_count,
                used_class=tumor_map.used_class,
                degenerate_segmentation=degenerate,
                empty=tumor_map.is_empty,
                quadrants_marked=marks,
                fit=fit,
            )
            for tumor_map, marks, (degenerate, fit) in zip(maps, fusion.marks, fits)
        ],
        votes=fusion.votes,
        winners=fusion.winners,
        fallback_used=fusion.fallback_used,
        bbox=bbox,
        timings_ms=timings,
    )
    if bbox is None:
        raise NoTumorDetectedError(f"fused tumor map is empty (votes {fusion.votes})", report=report)
    return PipelineResult(bbox=bbox, report=report)


def select_representatives(
    gt_volumes: Iterable[Volume],
    count: int = 6,
    min_slice: int = SELECT_MIN_SLICE,
    max_slice: int = SELECT_MAX_SLICE,
) -> list[int]:
    """Pick the ``count`` slice indices with the largest summed tumor-pixel
    counts across patients, restricted to the brain-bearing slice window.

    Ties prefer the smaller index; the result is ascending.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if min_slice < 1:
        raise ValidationError(f"min_slice must be >= 1 (slices are numbered from 1), got {min_slice}")
    totals: dict[int, int] = {}
    any_volume = False
    for vol in gt_volumes:
        any_volume = True
        per_slice = (vol.data != 0).sum(axis=(1, 2))
        hi = min(max_slice, vol.depth)
        for n in range(min_slice, hi + 1):
            totals[n] = totals.get(n, 0) + int(per_slice[n - 1])
    if not any_volume:
        raise ValidationError("select_representatives needs at least one volume")
    if len(totals) < count:
        raise ValidationError(
            f"slice window {min_slice}..{max_slice} has only {len(totals)} candidates, "
            f"{count} requested"
        )
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return sorted(n for n, _ in ranked[:count])

"""3-D volume and 2-D slice containers.

Volumes store their samples as a ``(depth, height, width)`` array so that the
x axis is fastest in memory, matching the raw layout of BraTS MetaImage
exports. Slice numbering is 1-based everywhere user-visible (slices 1..155
for a BraTS case); index 0 is reserved for derived planes such as the
cumulative ground-truth projection.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

KIND_INTENSITY = "intensity"
KIND_LABEL = "label"

# BraTS 2015 ground-truth label set: 0 background, 1 necrosis, 2 edema,
# 3 non-enhancing tumor, 4 enhancing tumor.
LABEL_VALUES = frozenset({0, 1, 2, 3, 4})


def check_labels(data: np.ndarray) -> None:
    """Raise ValidationError unless every value of ``data`` is a BraTS label.

    The label set is the integer range 0..4, so a min/max pass decides for
    integer data. Other dtypes must also hold integral values (2.0 is label
    2, 2.5 is not); NaN fails the range test. ``np.unique`` sorts the data
    only to name the offending values, as stored, in the error: ascending,
    with NaN last.
    """
    lo, hi = data.min(), data.max()
    legal = 0 <= lo and hi <= 4
    if legal and data.dtype.kind not in "biu":
        legal = np.array_equal(data, np.rint(data))
    if not legal:
        bad = [v for v in np.unique(data).tolist() if v not in LABEL_VALUES]
        raise ValidationError(f"label volume contains values outside 0..4: {bad}")


@dataclass(frozen=True, eq=False)
class Volume:
    """Immutable 3-D scalar grid, either an intensity image or a label map.

    Construction checks the data in O(n) without sorting it: an intensity
    volume must be finite and non-negative, a label volume must hold only the
    BraTS labels 0..4 (see :func:`check_labels`). Either failure raises
    ValidationError.

    Attributes:
        data: array of shape (depth, height, width) in its stored element
            type; ``normalize`` casts each slice it reads to float64.
            Treated as read-only.
        kind: "intensity" or "label".
        element_type: preferred MetaImage element type when written back to
            disk (kept from the source file so round trips are lossless).
    """

    data: np.ndarray
    kind: str = KIND_INTENSITY
    element_type: str | None = None

    def __post_init__(self):
        if self.kind not in (KIND_INTENSITY, KIND_LABEL):
            raise ValidationError(f"unknown volume kind: {self.kind!r}")
        if self.data.ndim != 3:
            raise ValidationError(
                f"volume data must be 3-D (depth, height, width), got shape {self.data.shape}"
            )
        if self.data.size == 0:
            raise ValidationError("volume has no voxels")
        if self.kind == KIND_INTENSITY:
            # NaN propagates through min and max, and an infinity lands in
            # one of them, so two passes decide both rules without a mask.
            lo, hi = self.data.min(), self.data.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValidationError("intensity volume contains non-finite values")
            if lo < 0:
                raise ValidationError("intensity volume contains negative values")
        else:
            check_labels(self.data)

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def depth(self) -> int:
        return self.data.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        """(width, height, depth), the order used by MetaImage DimSize."""
        return (self.width, self.height, self.depth)


@dataclass(frozen=True, eq=False)
class Slice:
    """A single axial plane.

    ``data`` has shape (height, width); ``index`` is the 1-based slice number
    within the source volume (0 for derived planes).
    """

    data: np.ndarray
    index: int

    def __post_init__(self):
        if self.data.ndim != 2:
            raise ValidationError(f"slice data must be 2-D, got shape {self.data.shape}")
        if self.index < 0:
            raise ValidationError(f"slice index must be >= 0, got {self.index}")


def extract_slice(volume: Volume, index: int) -> Slice:
    """Return the axial plane at 1-based ``index`` as an independent copy.

    Raises IndexError when the index is outside 1..depth.
    """
    if not 1 <= index <= volume.depth:
        raise IndexError(
            f"slice index {index} out of range 1..{volume.depth}"
        )
    return Slice(data=volume.data[index - 1].copy(), index=index)

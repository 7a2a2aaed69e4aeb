"""Slice preprocessing: min-max normalisation, the per-slice tumor location
atlas, and the atlas-guided threshold-gated contrast enhancement.

The location atlas for slice n counts, per pixel, how many training patients
had tumor there. Pixels with a non-zero count, tumor in at least one training
patient, are the "likely tumor" pixels whose contrast gets stretched around
the brain-mean threshold; everything else in the brain is dimmed.

Atlases are stored as uncompressed ``.npz`` files (see ``save_atlas``).
"""

import zipfile
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .errors import FormatError, ValidationError
from .volume import Slice

# The members of a saved atlas and the ndim of each.
_ATLAS_NDIM = {"counts": 2, "num_patients": 0, "slice_index": 0}


# Contrast enhancement gains: likely-tumor pixels above the slice threshold
# are brightened by GAIN_UP, every other brain pixel is dimmed by GAIN_DOWN.
# Their magnitudes are artifact choices that keep one application from
# saturating mid-range pixels.
GAIN_UP = 1.25
GAIN_DOWN = 0.8


@dataclass(frozen=True, eq=False)
class Atlas:
    """Per-pixel tumor-occurrence counts for one slice index.

    counts[i, j] is the number of training patients whose ground truth marks
    pixel (i, j) as tumor in this slice; 0 <= counts <= num_patients.
    """

    slice_index: int
    num_patients: int
    counts: np.ndarray

    def __post_init__(self):
        if self.counts.ndim != 2:
            raise ValidationError("atlas counts must be 2-D")
        if self.num_patients < 1:
            raise ValidationError("atlas needs at least one patient")
        if np.any(self.counts < 0) or np.any(self.counts > self.num_patients):
            raise ValidationError("atlas counts must lie in 0..num_patients")


def normalize(slc: Slice) -> Slice:
    """Min-max normalise a slice to [0, 1].

    A constant slice (max == min) maps to all zeros: it carries no contrast
    information and this avoids the division by zero.
    """
    # The extremes of the stored values, as float64, are those of the
    # float64 copy; the subtraction makes that copy and the division works
    # in place on it.
    lo = np.float64(slc.data.min())
    hi = np.float64(slc.data.max())
    if hi == lo:
        return Slice(data=np.zeros(slc.data.shape), index=slc.index)
    data = np.subtract(slc.data, lo, dtype=np.float64)
    data /= hi - lo
    return Slice(data=data, index=slc.index)


def brain_threshold(slc: Slice) -> float:
    """Mean intensity over brain pixels (value > 0); 0 if there are none.

    Valid as a brain mask because volumes arrive skull-stripped with an
    exactly-zero background.
    """
    data = slc.data
    positive = data[data > 0]
    if positive.size == 0:
        return 0.0
    return float(positive.mean())


def build_atlas(gt_slices: list[Slice]) -> Atlas:
    """Accumulate binary ground-truth slices of one slice index into an atlas.

    Any non-zero pixel counts as tumor, so raw label slices work as well as
    pre-binarised ones.
    """
    if not gt_slices:
        raise ValidationError("cannot build an atlas from an empty slice list")
    first = gt_slices[0]
    counts = np.zeros(first.data.shape, dtype=np.int32)
    for slc in gt_slices:
        if slc.data.shape != first.data.shape:
            raise ValidationError(
                f"mixed slice dims in atlas input: {slc.data.shape} vs {first.data.shape}"
            )
        if slc.index != first.index:
            raise ValidationError(
                f"mixed slice indices in atlas input: {slc.index} vs {first.index}"
            )
        counts += (slc.data != 0).astype(np.int32)
    return Atlas(slice_index=first.index, num_patients=len(gt_slices), counts=counts)


def enhance_contrast(slc: Slice, atlas: Atlas) -> Slice:
    """Stretch likely-tumor contrast around the slice's brain-mean threshold.

    Likely-tumor pixels (atlas count > 0) above the threshold are multiplied
    by GAIN_UP, those at or below it by GAIN_DOWN; remaining brain pixels are
    dimmed by GAIN_DOWN; the zero background is untouched. Output is clamped
    to [0, 1].
    """
    if atlas.counts.shape != slc.data.shape:
        raise ValidationError(f"atlas dims {atlas.counts.shape} do not match slice {slc.data.shape}")
    if atlas.slice_index != slc.index:
        raise ValidationError(
            f"atlas slice index {atlas.slice_index} does not match slice {slc.index}"
        )
    values = slc.data
    threshold = brain_threshold(slc)
    # Pixels at or below 0 end at 0 after the clip, and the threshold is at
    # least 0, so only brain pixels are brightened. (Only a -0.0 or NaN
    # pixel, which normalize never gives, keeps its sign or NaN.)
    out = values * GAIN_DOWN
    np.multiply(values, GAIN_UP, out=out, where=(atlas.counts > 0) & (values > threshold))
    np.clip(out, 0.0, 1.0, out=out)
    return Slice(data=out, index=slc.index)


def save_atlas(atlas: Atlas, path) -> None:
    """Write ``atlas`` atomically as an uncompressed ``.npz`` of the members
    ``counts`` (int32, H x W), ``num_patients`` and ``slice_index`` (integer
    scalars). Each member carries the zip format's fixed default date,
    1980-01-01, so an atlas always gives the same bytes; ``np.savez`` would
    stamp the current time.
    """
    members = {
        "counts": atlas.counts.astype(np.int32, copy=False),
        "num_patients": np.array(atlas.num_patients, dtype=np.int64),
        "slice_index": np.array(atlas.slice_index, dtype=np.int64),
    }
    with atomic_open(path, "wb") as fh, zipfile.ZipFile(fh, "w") as archive:
        for name, array in members.items():
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w") as member:
                np.lib.format.write_array(member, array, allow_pickle=False)


def load_atlas(path) -> Atlas:
    """Read an atlas written by :func:`save_atlas`.

    Anything but an ``.npz`` of exactly those three members, with integer
    dtypes, 2-D counts and scalar metadata, raises FormatError naming the
    path; counts outside 0..num_patients raise ValidationError.
    """
    try:
        archive = np.load(path, allow_pickle=False)
        if isinstance(archive, np.ndarray):
            raise FormatError(f"atlas file {path} is a bare .npy array, not an .npz archive")
        with archive:
            if sorted(archive.files) != sorted(_ATLAS_NDIM):
                raise FormatError(
                    f"atlas file {path} must hold exactly {sorted(_ATLAS_NDIM)}, not {sorted(archive.files)}"
                )
            members = {name: archive[name] for name in _ATLAS_NDIM}
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise FormatError(f"malformed atlas file {path}: {exc}") from exc
    for name, ndim in _ATLAS_NDIM.items():
        value = members[name]
        if not (isinstance(value, np.ndarray) and value.ndim == ndim and value.dtype.kind in "iu"):
            expected = "an integer scalar" if ndim == 0 else f"a {ndim}-D integer array"
            raise FormatError(f"atlas file {path}: {name} must be {expected}")
    return Atlas(
        slice_index=int(members["slice_index"]),
        num_patients=int(members["num_patients"]),
        counts=members["counts"],
    )

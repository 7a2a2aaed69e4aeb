"""Synthetic skull-stripped phantom volumes with analytic ground truth.

A phantom is an ellipsoidal "brain" of constant tissue intensity on a zero
background, with a spherical "tumor" blob of raised intensity and optional
Gaussian noise inside the brain. The paired label volume marks the blob, so
every pipeline stage can be tested without the restricted dataset.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .atomic import write_json
from .errors import ValidationError
from .volume import KIND_LABEL, Volume


@dataclass(frozen=True)
class PhantomSpec:
    """Deterministic description of one phantom case.

    ``dims`` is (width, height, depth); centers and radii are in voxels with
    coordinates ordered (x, y, z). ``tumor_offset`` is added on top of
    ``tissue_intensity`` inside the blob. All randomness (the noise) flows
    from ``seed``. The spec is checked when it is built.
    """

    dims: tuple[int, int, int] = (128, 128, 64)
    brain_center: tuple[float, float, float] = (64.0, 64.0, 32.0)
    brain_radii: tuple[float, float, float] = (50.0, 56.0, 28.0)
    tumor_center: tuple[float, float, float] = (64.0, 64.0, 32.0)
    tumor_radius: float = 14.0
    tumor_offset: float = 0.4
    tissue_intensity: float = 0.5
    noise_sigma: float = 0.03
    seed: int = 0

    def __post_init__(self):
        # NaN fails every comparison below, so it would pass them all. The
        # seed is an integer of any size, so it is only checked for sign.
        for name, value in asdict(self).items():
            if name != "seed" and not all(math.isfinite(v) for v in np.ravel(value)):
                raise ValidationError(f"{name} must be finite, got {value}")
        if len(self.dims) != 3 or any(int(d) <= 0 for d in self.dims):
            raise ValidationError(f"dims must be three positive integers, got {self.dims}")
        if any(r <= 0 for r in self.brain_radii):
            raise ValidationError("brain radii must be positive")
        if self.tumor_radius <= 0:
            raise ValidationError("tumor radius must be positive")
        if self.noise_sigma < 0:
            raise ValidationError("noise sigma must be >= 0")
        if self.tissue_intensity < 0:
            raise ValidationError("tissue intensity must be >= 0")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        # Sufficient condition for the blob lying strictly inside the brain:
        # the ellipsoid norm is 1/min(radii)-Lipschitz in Euclidean distance.
        scaled = math.sqrt(
            sum(
                ((t - b) / r) ** 2
                for t, b, r in zip(self.tumor_center, self.brain_center, self.brain_radii)
            )
        )
        if scaled + self.tumor_radius / min(self.brain_radii) >= 1.0:
            raise ValidationError(
                "tumor blob is not strictly inside the brain ellipsoid "
                f"(scaled center distance {scaled:.3f}, radius {self.tumor_radius})"
            )


def save_spec(spec: PhantomSpec, path) -> None:
    """Write ``spec`` as JSON, a record of the case; the write is atomic."""
    write_json(path, asdict(spec))


def generate_phantom(spec: PhantomSpec) -> tuple[Volume, Volume]:
    """Generate (intensity volume, label volume) for ``spec``.

    Outside the brain ellipsoid the intensity is exactly zero (the
    skull-stripped analogue the rest of the package relies on). Noise is
    zero-mean Gaussian, applied inside the brain only, and the result is
    clipped at zero. Bit-identical for identical specs.

    The noise draw is the output buffer, filled one z-plane at a time, so
    the only full-volume arrays are the two returned. Each plane sums its
    terms in the order ``(x + y) + z`` that broadcasting over the whole grid
    would use, which keeps the volumes identical to that formulation.
    """
    width, height, depth = (int(v) for v in spec.dims)
    shape = (depth, height, width)
    noisy = spec.noise_sigma > 0
    if noisy:
        values = np.random.default_rng(spec.seed).normal(0.0, spec.noise_sigma, size=shape)
    else:
        values = np.empty(shape)
    labels = np.empty(shape, dtype=np.int16)

    z = np.arange(depth, dtype=np.float64)
    y = np.arange(height, dtype=np.float64)[:, None]
    x = np.arange(width, dtype=np.float64)

    bx, by, bz = spec.brain_center
    rx, ry, rz = spec.brain_radii
    brain_xy = ((x - bx) / rx) ** 2 + ((y - by) / ry) ** 2
    brain_z = ((z - bz) / rz) ** 2

    tx, ty, tz = spec.tumor_center
    tumor_xy = (x - tx) ** 2 + (y - ty) ** 2
    tumor_z = (z - tz) ** 2
    tumor_r2 = spec.tumor_radius**2

    for k in range(depth):
        brain = brain_xy + brain_z[k] <= 1.0
        tumor = tumor_xy + tumor_z[k] <= tumor_r2
        plane = values[k]
        signal = np.where(brain, spec.tissue_intensity, 0.0) + np.where(tumor, spec.tumor_offset, 0.0)
        if noisy:
            plane += signal
        else:
            plane[...] = signal  # adding to a zero buffer would turn -0.0 into +0.0
        np.maximum(plane, 0.0, out=plane)
        plane[~brain] = 0.0
        # Quantise to float32 so MetaImage round trips are exact.
        plane[...] = plane.astype(np.float32)
        labels[k] = tumor

    intensity = Volume(data=values)
    ground_truth = Volume(data=labels, kind=KIND_LABEL)
    return intensity, ground_truth

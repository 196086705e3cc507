"""Pinhole intrinsics, their text files, and canonical/real depth-space transforms.

Coordinate conventions (OpenCV style): the camera looks along +Z,
u grows to the right, v grows downward, (cx, cy) is the principal point
in pixels. Depth values are metric distances along the optical axis.

A depth value d is *valid* when it is finite and strictly positive;
anything else is treated as an invalid-pixel sentinel and passed through
transforms untouched.

An intrinsics file gives the four fields of :class:`CameraIntrinsics`
and nothing else. The canonical focal length is no part of it: the
canonical transforms take a :class:`CanonicalSpec` from their caller.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import InvalidIntrinsicsError
from .io import read_key_values, write_key_values

DEFAULT_CANONICAL_FOCAL = 1000.0


@dataclass(frozen=True)
class CameraIntrinsics:
    """Intrinsic parameters of a pinhole camera, all in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (math.isfinite(self.fx) and self.fx > 0):
            raise InvalidIntrinsicsError(f"fx must be finite and > 0, got {self.fx}")
        if not (math.isfinite(self.fy) and self.fy > 0):
            raise InvalidIntrinsicsError(f"fy must be finite and > 0, got {self.fy}")
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise InvalidIntrinsicsError(f"cx/cy must be finite, got ({self.cx}, {self.cy})")


@dataclass(frozen=True)
class CanonicalSpec:
    """Canonical focal length defining the normalized depth space."""

    f_c: float = DEFAULT_CANONICAL_FOCAL

    def __post_init__(self):
        if not (math.isfinite(self.f_c) and self.f_c > 0):
            raise InvalidIntrinsicsError(f"f_c must be finite and > 0, got {self.f_c}")


def valid_depth_mask(depth):
    """Boolean mask of valid depth pixels (finite and > 0)."""
    depth = np.asarray(depth)
    return np.isfinite(depth) & (depth > 0)


def canonical_scale(intr: CameraIntrinsics, spec: CanonicalSpec) -> float:
    """Scale factor s = f_c / f_eff, with f_eff the mean of fx and fy.

    Multiplying real-space depths by s expresses them as if captured at
    the canonical focal length.
    """
    f_eff = (intr.fx + intr.fy) / 2.0
    return spec.f_c / f_eff


def _rescale(depth, op, s):
    """A new float raster: ``op(depth, s)`` on the valid pixels of ``depth``,
    the pixel as it is elsewhere."""
    depth = np.asarray(depth)
    if not np.issubdtype(depth.dtype, np.floating):
        depth = depth.astype(np.float64)
    return np.where(valid_depth_mask(depth), op(depth, s), depth)


def to_canonical(depth, intr: CameraIntrinsics, spec: CanonicalSpec):
    """Rescale a depth raster into canonical space.

    Valid pixels are multiplied by ``canonical_scale``; invalid pixels
    (non-finite or <= 0) keep their original value.
    """
    return _rescale(depth, np.multiply, canonical_scale(intr, spec))


def from_canonical(depth_c, intr: CameraIntrinsics, spec: CanonicalSpec):
    """Inverse of :func:`to_canonical`: divide valid pixels by the scale."""
    return _rescale(depth_c, np.divide, canonical_scale(intr, spec))


def read_intrinsics(path):
    """Parse a plain-text intrinsics file into a :class:`CameraIntrinsics`.

    One ``key=value`` per line, one for each field of the dataclass (fx,
    fy, cx, cy) and every one required; ``#`` starts a comment, and any
    other key is an error.
    """
    names = [f.name for f in fields(CameraIntrinsics)]
    values = read_key_values(path, dict.fromkeys(names, float), names)
    try:
        return CameraIntrinsics(**values)
    except InvalidIntrinsicsError as exc:
        raise InvalidIntrinsicsError(f"{path}: {exc}") from None


def write_intrinsics(path, intr: CameraIntrinsics):
    """Write an intrinsics file readable by :func:`read_intrinsics`."""
    write_key_values(path, asdict(intr))

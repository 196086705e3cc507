"""Pinhole intrinsics, their text files, and the depth validity rule.

Coordinate conventions (OpenCV style): the camera looks along +Z,
u grows to the right, v grows downward, (cx, cy) is the principal point
in pixels. Depth values are metric distances along the optical axis.

A depth value d is *valid* when it is finite and strictly positive;
anything else is treated as an invalid-pixel sentinel.

An intrinsics file gives the four fields of :class:`CameraIntrinsics`
and nothing else.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import InvalidIntrinsicsError
from .io import read_key_values, write_key_values


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


def valid_depth_mask(depth):
    """Boolean mask of valid depth pixels (finite and > 0)."""
    depth = np.asarray(depth)
    return np.isfinite(depth) & (depth > 0)


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

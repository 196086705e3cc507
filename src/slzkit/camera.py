"""Pinhole intrinsics and canonical/real depth-space transforms.

Coordinate conventions (OpenCV style): the camera looks along +Z,
u grows to the right, v grows downward, (cx, cy) is the principal point
in pixels. Depth values are metric distances along the optical axis.

A depth value d is *valid* when it is finite and strictly positive;
anything else is treated as an invalid-pixel sentinel and passed through
transforms untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidIntrinsicsError
from .io import read_key_values

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

    def to_matrix(self):
        """3x3 intrinsic matrix K."""
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


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


def _as_float(depth):
    depth = np.asarray(depth)
    if not np.issubdtype(depth.dtype, np.floating):
        depth = depth.astype(np.float64)
    return depth


def to_canonical(depth, intr: CameraIntrinsics, spec: CanonicalSpec):
    """Rescale a depth raster into canonical space.

    Valid pixels are multiplied by ``canonical_scale``; invalid pixels
    (non-finite or <= 0) keep their original value.
    """
    depth = _as_float(depth)
    s = canonical_scale(intr, spec)
    valid = valid_depth_mask(depth)
    out = depth.copy()
    out[valid] = depth[valid] * s
    return out


def from_canonical(depth_c, intr: CameraIntrinsics, spec: CanonicalSpec):
    """Inverse of :func:`to_canonical`: divide valid pixels by the scale."""
    depth_c = _as_float(depth_c)
    s = canonical_scale(intr, spec)
    valid = valid_depth_mask(depth_c)
    out = depth_c.copy()
    out[valid] = depth_c[valid] / s
    return out


def read_intrinsics(path):
    """Parse a plain-text intrinsics file.

    One ``key=value`` per line with keys fx, fy, cx, cy and optional f_c;
    ``#`` starts a comment. Returns ``(CameraIntrinsics, f_c or None)``.
    """
    values = read_key_values(path, {"fx": float, "fy": float, "cx": float, "cy": float,
                                    "f_c": lambda text: CanonicalSpec(float(text)).f_c})
    missing = [k for k in ("fx", "fy", "cx", "cy") if k not in values]
    if missing:
        raise ValueError(f"{path}: missing required keys: {', '.join(missing)}")
    intr = CameraIntrinsics(values["fx"], values["fy"], values["cx"], values["cy"])
    return intr, values.get("f_c")


def write_intrinsics(path, intr: CameraIntrinsics, f_c=None):
    """Write an intrinsics file readable by :func:`read_intrinsics`."""
    lines = [f"fx={intr.fx!r}", f"fy={intr.fy!r}", f"cx={intr.cx!r}", f"cy={intr.cy!r}"]
    if f_c is not None:
        lines.append(f"f_c={float(f_c)!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")

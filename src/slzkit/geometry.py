"""Backprojection, normals from depth, and tilt-corrected area sums.

Normals follow the camera-facing convention: the camera looks along +Z,
so a valid unit normal always has n_z <= 0 (a fronto-parallel ground
plane yields (0, 0, -1)). Invalid pixels carry the all-zero vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .camera import CameraIntrinsics, valid_depth_mask
from .errors import ShapeMismatchError

# Pixels with |n_z| below this are excluded from area sums: the per-pixel
# area diverges as |n_z| -> 0 and such surfaces are never landable.
DEFAULT_NZ_MIN = 0.1


class Point3(NamedTuple):
    x: float
    y: float
    z: float


@dataclass(frozen=True)
class AreaReport:
    """Result of summing per-pixel areas over a region."""

    total_area: float  # m^2
    pixel_count: int  # pixels that contributed to the sum
    excluded_count: int  # region pixels skipped (invalid depth or |n_z| < threshold)


def backproject(u, v, d, intr: CameraIntrinsics) -> Point3:
    """Lift pixel (u, v) at depth d to a 3D point in camera coordinates."""
    if not (math.isfinite(d) and d > 0):
        raise ValueError(f"invalid depth {d}: must be finite and > 0")
    x = (u - intr.cx) * d / intr.fx
    y = (v - intr.cy) * d / intr.fy
    return Point3(x, y, d)


def project(p, intr: CameraIntrinsics):
    """Perspective-project a camera-frame point back to (u, v, depth)."""
    x, y, z = p
    if z <= 0:
        raise ValueError(f"point behind camera (z={z})")
    return x * intr.fx / z + intr.cx, y * intr.fy / z + intr.cy, z


def ray_grid(height, width, intr: CameraIntrinsics):
    """Per-pixel ray directions ((u-cx)/fx, (v-cy)/fy, 1), shape (H, W, 3)."""
    xs = (np.arange(width, dtype=np.float64) - intr.cx) / intr.fx
    ys = (np.arange(height, dtype=np.float64) - intr.cy) / intr.fy
    rays = np.empty((height, width, 3), dtype=np.float64)
    rays[..., 0] = xs[None, :]
    rays[..., 1] = ys[:, None]
    rays[..., 2] = 1.0
    return rays


def backproject_grid(depth, intr: CameraIntrinsics):
    """Backproject a full depth raster; invalid pixels yield garbage points.

    Callers must mask with :func:`slzkit.camera.valid_depth_mask`.
    """
    d = np.asarray(depth, dtype=np.float64)
    if d.ndim != 2:
        raise ShapeMismatchError(f"depth must be 2-D, got shape {d.shape}")
    return d[..., None] * ray_grid(d.shape[0], d.shape[1], intr)


def _neighbor_valid(valid):
    """Validity of the central/one-sided difference stencils per axis."""
    vu = np.empty_like(valid)
    vu[:, 1:-1] = valid[:, :-2] & valid[:, 2:]
    vu[:, 0] = valid[:, 0] & valid[:, 1]
    vu[:, -1] = valid[:, -2] & valid[:, -1]
    vv = np.empty_like(valid)
    vv[1:-1, :] = valid[:-2, :] & valid[2:, :]
    vv[0, :] = valid[0, :] & valid[1, :]
    vv[-1, :] = valid[-2, :] & valid[-1, :]
    return vu, vv


def _normal_pipeline(depth, intr: CameraIntrinsics):
    """Forward pass of the depth->normal conversion with intermediates.

    Returns (normals, ok, rays, tu, tv, cross, norm, sign); the extras feed
    the analytic gradient of the depth-normal consistency loss.
    """
    d = np.asarray(depth, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] < 3 or d.shape[1] < 3:
        raise ShapeMismatchError(f"need at least a 3x3 depth raster, got shape {d.shape}")
    valid = valid_depth_mask(d)
    rays = ray_grid(d.shape[0], d.shape[1], intr)
    pts = d[..., None] * rays
    # np.gradient: central differences /2 in the interior, one-sided at borders.
    tu = np.gradient(pts, axis=1)
    tv = np.gradient(pts, axis=0)
    cross = np.cross(tu, tv)
    norm = np.linalg.norm(cross, axis=-1)
    vu, vv = _neighbor_valid(valid)
    ok = valid & vu & vv & (norm > 0)
    sign = np.where(cross[..., 2] > 0, -1.0, 1.0)
    normals = np.zeros_like(pts)
    nz = norm[ok]
    normals[ok] = cross[ok] * (sign[ok] / nz)[:, None]
    return normals, ok, rays, tu, tv, cross, norm, sign


def normals_from_depth(depth, intr: CameraIntrinsics):
    """Per-pixel unit surface normals derived from a depth raster.

    Tangent vectors come from central differences of the backprojected
    point grid (one-sided at borders); the normal is their normalized
    cross product, oriented so n_z <= 0. Pixels whose stencil touches an
    invalid depth are marked invalid (zero vector).
    """
    normals, _, _, _, _, _, _, _ = _normal_pipeline(depth, intr)
    return normals


def pixel_area(d, n_z, intr: CameraIntrinsics, n_z_min=DEFAULT_NZ_MIN):
    """Ground area covered by one pixel: d^2 / (fx * fy * |n_z|).

    Returns None when |n_z| < n_z_min (pixel excluded from area sums).
    """
    if not (math.isfinite(d) and d > 0):
        raise ValueError(f"invalid depth {d}: must be finite and > 0")
    if abs(n_z) < n_z_min:
        return None
    return d * d / (intr.fx * intr.fy * abs(n_z))


def _region_to_mask(region, shape):
    region = np.asarray(region)
    if region.dtype == bool:
        if region.shape != shape:
            raise ShapeMismatchError(f"region shape {region.shape} != raster shape {shape}")
        return region
    if region.ndim == 2 and region.shape[1] == 2:
        mask = np.zeros(shape, dtype=bool)
        if region.shape[0]:
            rows, cols = region[:, 0], region[:, 1]
            if rows.min() < 0 or cols.min() < 0 or rows.max() >= shape[0] or cols.max() >= shape[1]:
                raise ShapeMismatchError("region pixel coordinates fall outside the raster")
            mask[rows, cols] = True
        return mask
    raise ShapeMismatchError("region must be a boolean mask or an (N, 2) array of (row, col)")


def pixel_areas(depth, normals, intr: CameraIntrinsics, n_z_min=DEFAULT_NZ_MIN):
    """``(areas, included)``: d^2 / (fx fy |n_z|) per pixel where depth is
    valid and |n_z| >= n_z_min (``included``), 0 elsewhere."""
    d = np.asarray(depth, dtype=np.float64)
    n = np.asarray(normals, dtype=np.float64)
    if d.ndim != 2:
        raise ShapeMismatchError(f"depth must be 2-D, got shape {d.shape}")
    if n.shape != d.shape + (3,):
        raise ShapeMismatchError(f"normals shape {n.shape} incompatible with depth {d.shape}")
    nz = np.abs(n[..., 2])
    included = valid_depth_mask(d) & (nz >= n_z_min)
    areas = np.divide(d * d, intr.fx * intr.fy * nz, out=np.zeros_like(d), where=included)
    return areas, included


def region_area(region, depth, normals, intr: CameraIntrinsics, n_z_min=DEFAULT_NZ_MIN):
    """Sum per-pixel tilt-corrected areas over a pixel region.

    `region` is a boolean inclusion mask or an (N, 2) array of (row, col)
    pixels. Pixels with invalid depth or |n_z| < n_z_min are skipped and
    reported in ``excluded_count``. Summation runs in row-major raster
    order over float64 values (numpy pairwise reduction), which is
    deterministic across runs; area identities are therefore asserted to
    1e-6 relative rather than bitwise.
    """
    areas, included = pixel_areas(depth, normals, intr, n_z_min)
    mask = _region_to_mask(region, areas.shape)
    included &= mask
    region_count = int(mask.sum())
    pixel_count = int(included.sum())
    total = float(areas[included].sum())
    return AreaReport(total_area=total, pixel_count=pixel_count,
                      excluded_count=region_count - pixel_count)

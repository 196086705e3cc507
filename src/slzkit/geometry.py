"""Normals from depth and tilt-corrected area sums.

Normals follow the camera-facing convention: the camera looks along +Z,
so a valid unit normal always has n_z <= 0 (a fronto-parallel ground
plane yields (0, 0, -1)). Invalid pixels carry the all-zero vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .camera import CameraIntrinsics, valid_depth_mask
from .errors import ShapeMismatchError

# Pixels with |n_z| below this are excluded from area sums: the per-pixel
# area diverges as |n_z| -> 0 and such surfaces are never landable.
DEFAULT_NZ_MIN = 0.1


@dataclass(frozen=True)
class AreaReport:
    """Result of summing per-pixel areas over a region."""

    total_area: float  # m^2
    pixel_count: int  # pixels that contributed to the sum
    excluded_count: int  # region pixels skipped (invalid depth or |n_z| < threshold)


def _ray_xy(u, v, intr: CameraIntrinsics):
    """x and y components of the rays through float pixel coordinates u and v."""
    return (u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy


def _backproject_pixels(depth, rows, cols, intr: CameraIntrinsics):
    """Camera-frame float64 points, shape rows.shape + (3,), of the given
    pixels of a depth raster; invalid depths yield garbage points."""
    d = depth[rows, cols].astype(np.float64)
    xs, ys = _ray_xy(cols.astype(np.float64), rows.astype(np.float64), intr)
    return np.stack([d * xs, d * ys, d], axis=-1)


def _cross_plane(a, b, c, d):
    """a * b - c * d, one plane of a cross product."""
    out = a * b
    out -= c * d
    return out


def _cross(a, b):
    """a x b for vectors given as (x, y, z) planes; the arithmetic of np.cross."""
    return tuple(_cross_plane(a[i], b[j], a[j], b[i]) for i, j in ((1, 2), (2, 0), (0, 1)))


class _NormalPlanes(NamedTuple):
    """Forward pass of the depth -> normal conversion, one (H, W) float64
    plane per vector component, (b, H, W) for a stack of depth rasters.
    The extras feed :func:`_cross_to_depth`."""

    rays: tuple  # x, y, z ray components: (W,) per column, (H, 1) per row, 1.0
    cross: tuple  # tu x tv: x, y, z planes
    ok: np.ndarray  # pixels with a defined normal
    scale: np.ndarray  # orientation sign / |tu x tv| where ok, NaN elsewhere


def _along(p, axis):
    """View of p with the row (axis 0) or column (axis 1) axis of its
    trailing (H, W) pair moved first."""
    return p.swapaxes(axis - 2, 0)


def _difference(p, axis):
    """np.gradient(p, axis=axis - 2) of a p whose trailing two axes are
    (H, W): central differences / 2 inside, one-sided ones at the borders,
    written into one new array."""
    g = np.empty_like(p)
    src, dst = _along(p, axis), _along(g, axis)
    np.subtract(src[2:], src[:-2], out=dst[1:-1])
    dst[1:-1] /= 2.0
    dst[0], dst[-1] = src[1] - src[0], src[-1] - src[-2]
    return g


def _difference_adjoint(g, axis, acc):
    """acc += the transpose of :func:`_difference` along `axis` applied to g;
    returns acc."""
    src, dst = _along(g, axis), _along(acc, axis)
    half = 0.5 * src[1:-1]
    dst[2:] += half
    dst[:-2] -= half
    dst[1] += src[0]
    dst[0] -= src[0]
    dst[-1] += src[-1]
    dst[-2] -= src[-1]
    return acc


def _tangents(d, ray):
    """Tangents along u (columns) and v (rows) of the points depth * ray, as
    float64 planes for any depth dtype."""
    p = np.multiply(d, ray, dtype=np.float64)
    return _difference(p, 1), _difference(p, 0)


def _normal_planes(depth, intr: CameraIntrinsics):
    """The planes of an (H, W) depth raster, or of each raster of a (b, H, W)
    stack, whose planes then are (b, H, W) as well."""
    d = np.asarray(depth)
    if d.ndim not in (2, 3) or min(d.shape[-2:]) < 3:
        raise ShapeMismatchError(f"need at least a 3x3 depth raster, got shape {d.shape}")
    rays = _ray_xy(np.arange(d.shape[-1], dtype=np.float64),
                   np.arange(d.shape[-2], dtype=np.float64)[:, None], intr) + (1.0,)
    # Each plane of tu x tv comes from the tangents of the other two
    # components. Those of x are computed twice, so that at most four tangent
    # planes are alive at once.
    ux, vx = _tangents(d, rays[0])
    uy, vy = _tangents(d, rays[1])
    cz = _cross_plane(ux, vy, uy, vx)
    del ux, vx
    uz, vz = _tangents(d, rays[2])
    cx = _cross_plane(uy, vz, uz, vy)
    del uy, vy
    ux, vx = _tangents(d, rays[0])
    cy = _cross_plane(uz, vx, ux, vz)
    del ux, vx, uz, vz
    # summed left to right, as np.linalg.norm reduces a last axis of 3
    norm = cx * cx
    norm += cy * cy
    norm += cz * cz
    np.sqrt(norm, out=norm)
    valid = valid_depth_mask(d)
    # a normal needs every depth its difference stencils read
    ok = valid & (norm > 0)
    ok[..., 1:] &= valid[..., :-1]
    ok[..., :-1] &= valid[..., 1:]
    ok[..., 1:, :] &= valid[..., :-1, :]
    ok[..., :-1, :] &= valid[..., 1:, :]
    # the orientation sign makes n_z <= 0; NaN off the normals keeps every
    # product with the scale there quiet
    norm[~ok] = np.nan
    scale = np.divide(np.where(cz > 0, -1.0, 1.0), norm, out=norm)
    return _NormalPlanes(rays, (cx, cy, cz), ok, scale)


def _cross_to_depth(depth, f: _NormalPlanes, g_cross, m):
    """Gradient w.r.t. the depth raster of a loss whose gradient w.r.t. the
    planes of ``f.cross`` is ``g_cross``, zero outside the pixel mask m.

    Chains through the cross product, the difference stencils and the rays
    (point = depth * ray). A pixel outside m adds exactly 0, also where its
    tangents are not finite.
    """
    tu, tv = zip(*(_tangents(np.asarray(depth), ray) for ray in f.rays))
    g_tu = [np.where(m, g, 0.0) for g in _cross(tv, g_cross)]
    g_tv = [np.where(m, g, 0.0) for g in _cross(g_cross, tu)]
    # per point component, the u stencil's adjoint and then the v stencil's
    # add into one zero plane
    g_p = [_difference_adjoint(gv, 0, _difference_adjoint(gu, 1, np.zeros(m.shape)))
           for gu, gv in zip(g_tu, g_tv)]
    return g_p[0] * f.rays[0] + g_p[1] * f.rays[1] + g_p[2] * f.rays[2]


def normals_from_depth(depth, intr: CameraIntrinsics):
    """Per-pixel unit surface normals derived from a depth raster.

    Tangent vectors come from central differences of the backprojected
    point grid (one-sided at borders); the normal is their normalized
    cross product, oriented so n_z <= 0. Pixels whose stencil touches an
    invalid depth are marked invalid (zero vector). A (b, H, W) stack of
    depth rasters gives the (b, H, W, 3) normals of each.
    """
    f = _normal_planes(depth, intr)
    normals = np.zeros(f.ok.shape + (3,))
    for k, c in enumerate(f.cross):
        np.multiply(c, f.scale, out=normals[..., k], where=f.ok)
    return normals


def _check_n_z_min(n_z_min):
    if not 0 < n_z_min <= 1:
        raise ValueError(f"n_z_min must be in (0, 1], got {n_z_min}")


def _region_to_mask(region, shape):
    region = np.asarray(region)
    if region.dtype == bool:
        if region.shape != shape:
            raise ShapeMismatchError(f"region shape {region.shape} != raster shape {shape}")
        return region
    if region.ndim == 2 and region.shape[1] == 2:
        if region.dtype.kind not in "iu":
            raise ShapeMismatchError(f"region pixel coordinates must be integers, got {region.dtype}")
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
    valid and |n_z| >= n_z_min (``included``), 0 elsewhere. n_z_min must be
    in (0, 1]."""
    _check_n_z_min(n_z_min)
    d = np.asarray(depth, dtype=np.float64)
    n = np.asarray(normals)
    if d.ndim != 2:
        raise ShapeMismatchError(f"depth must be 2-D, got shape {d.shape}")
    if n.shape != d.shape + (3,):
        raise ShapeMismatchError(f"normals shape {n.shape} incompatible with depth {d.shape}")
    nz = np.abs(n[..., 2], dtype=np.float64)  # the one plane of the normals in use
    included = valid_depth_mask(d) & (nz >= n_z_min)
    nz *= intr.fx * intr.fy
    areas = np.divide(d * d, nz, out=np.zeros_like(d), where=included)
    return areas, included


def _area_sums(ids, bins, areas, included):
    """``(area, pixel_count, excluded_count)`` arrays of ids 1 .. bins - 1
    of an (H, W) id plane, 0 = no region, from the planes of
    :func:`pixel_areas`.

    Each id's area adds its pixels' areas one at a time in flat row-major
    order: the one summation rule of every region area.
    """
    flat = ids.ravel()
    area = np.bincount(flat, weights=areas.ravel(), minlength=bins)[1:]
    size = np.bincount(flat, minlength=bins)[1:]
    excluded = np.bincount(flat[~included.ravel()], minlength=bins)[1:]
    return area, size - excluded, excluded


def region_area(region, depth, normals, intr: CameraIntrinsics, n_z_min=DEFAULT_NZ_MIN):
    """Sum per-pixel tilt-corrected areas over a pixel region.

    `region` is a boolean inclusion mask or an (N, 2) array of (row, col)
    pixels. Pixels with invalid depth or |n_z| < n_z_min are skipped and
    reported in ``excluded_count``. The area adds the pixels' float64
    areas one at a time in row-major raster order, as
    :func:`slzkit.slz.region_stats` does for each region.
    """
    areas, included = pixel_areas(depth, normals, intr, n_z_min)
    area, count, excluded = _area_sums(_region_to_mask(region, areas.shape), 2, areas, included)
    return AreaReport(float(area[0]), int(count[0]), int(excluded[0]))

"""Normals from depth and tilt-corrected area sums.

Normals follow the camera-facing convention: the camera looks along +Z,
so a valid unit normal always has n_z <= 0 (a fronto-parallel ground
plane yields (0, 0, -1)). Invalid pixels carry the all-zero vector.

The normal kernel and the per-pixel area planes run on bands of rows
(:func:`_row_bands`), bit for bit the whole frame. A raster they read may
be an array or an :class:`slzkit.io.RasterRows`, of which they ask only
``.shape`` and row slices, so a frame read from files is never held whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .camera import CameraIntrinsics, valid_depth_mask
from .errors import ShapeMismatchError
from .io import _row_source
from .settings import DEFAULT_NZ_MIN


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
    pixels of a depth raster, which may be an io.RasterRows: its depths are
    gathered a band of rows (:func:`_row_bands`) at a time, each band reading
    only its own pixels from one sort of the rows. Invalid depths yield
    garbage points."""
    depth = _row_source(depth)
    flat_rows, flat_cols = rows.ravel(), cols.ravel()
    order = np.argsort(flat_rows)
    sorted_rows = flat_rows[order]
    d = np.empty(flat_rows.shape)
    for band in _row_bands(depth.shape):
        lo, hi = np.searchsorted(sorted_rows, (band.start, band.stop))
        if lo < hi:
            at = order[lo:hi]
            d[at] = depth[band][flat_rows[at] - band.start, flat_cols[at]]
    d = d.reshape(rows.shape)
    xs, ys = _ray_xy(cols.astype(np.float64), rows.astype(np.float64), intr)
    return np.stack([d * xs, d * ys, d], axis=-1)


def _cross_plane(a, b, c, d):
    """a * b - c * d, one plane of a cross product."""
    out = a * b
    out -= c * d
    return out


# the two components that plane i of a cross product reads
_CROSS = ((1, 2), (2, 0), (0, 1))

# float64 elements of one plane of a row band of the normal kernel: about 25
# rows at 1280 columns. At 720p, min of 7 calls in ms for 2^13 / 2^14 / 2^15 /
# 2^16 / 2^17 / one band: the derived n_z plane alone 30 / 28 / 24 / 24 / 27 /
# 53, the DNCL value 44 / 39 / 38 / 41 / 44 / 70 (2-core x86-64 VM)
_BAND_ELEMENTS = 2 ** 15


class _NormalPlanes(NamedTuple):
    """Forward pass of the depth -> normal conversion over a band of rows,
    one (rows, W) float64 plane per vector component, (b, rows, W) for a
    stack of depth rasters, bit for bit those rows of the whole frame's
    planes. ``rays`` and ``cross`` feed :func:`_cross_to_depth`, which
    forms the band's tangents again rather than keep them here."""

    rays: tuple  # x, y, z ray components: (W,) per column, (rows, 1) per row, 1.0
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
    g = np.empty(p.shape)
    src, dst = _along(p, axis), _along(g, axis)
    # One subtraction over the flat arrays, its neighbours `step` elements
    # apart, is about twice as fast as a 2-D pass along the rows. What it forms
    # across two rows (or two rasters of a stack) lands on the borders, which
    # are set after it. x * 0.5 is x / 2 bit for bit, and quicker.
    step = p.shape[-1] if axis == 0 else 1
    flat, out = p.reshape(-1), g.reshape(-1)[step:-step]
    np.subtract(flat[2 * step:], flat[:-2 * step], out=out)
    out *= 0.5
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


def _depth_stack(depth):
    """depth as a row source (see :func:`slzkit.io._row_source`): an (H, W)
    raster, which may be an io.RasterRows, or a (b, H, W) stack of them."""
    d = _row_source(depth)
    if len(d.shape) not in (2, 3) or min(d.shape[-2:]) < 3:
        raise ShapeMismatchError(f"need at least a 3x3 depth raster, got shape {d.shape}")
    if math.prod(d.shape) == 0:
        raise ShapeMismatchError(f"need at least one depth raster, got shape {d.shape}")
    return d


def _normal_planes(d, intr: CameraIntrinsics, rows: slice):
    """The planes of frame rows ``rows`` (a slice with step 1) of a depth
    raster from :func:`_depth_stack`, or of each raster of a stack, whose
    planes then are (b, rows, W).

    They read the depth of one more row on each side, so they are bit for
    bit those rows of the whole frame's planes: the one-sided differences
    apply only at the frame's first and last rows.
    """
    lo, hi = max(rows.start - 1, 0), min(rows.stop + 1, d.shape[-2])
    d = d[lo:hi] if len(d.shape) == 2 else d[:, lo:hi]
    rays = _ray_xy(np.arange(d.shape[-1], dtype=np.float64),
                   np.arange(lo, hi, dtype=np.float64)[:, None], intr) + (1.0,)
    # Plane i of tu x tv comes from the tangents of the other two components,
    # each computed once. An infinite depth makes NaN there, as NaN does.
    with np.errstate(invalid="ignore"):
        t = [_tangents(d, ray) for ray in rays]
        cross = tuple(_cross_plane(t[j][0], t[k][1], t[k][0], t[j][1]) for j, k in _CROSS)
    del t
    # summed left to right, as np.linalg.norm reduces a last axis of 3
    cx, cy, cz = cross
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
    # product with the scale there quiet. A zero norm is off the normals.
    with np.errstate(divide="ignore"):
        scale = np.divide(1.0, norm, out=norm)
    np.negative(scale, out=scale, where=cz > 0)
    np.copyto(scale, np.nan, where=~ok)
    keep = (..., slice(rows.start - lo, rows.stop - lo), slice(None))  # drop the halo rows
    return _NormalPlanes((rays[0], rays[1][keep[1:]], 1.0), tuple(c[keep] for c in cross),
                         ok[keep], scale[keep])


def _row_bands(shape):
    """Slices of successive bands of the rows of an (H, W) plane, or of a
    (b, H, W) stack of them, about ``_BAND_ELEMENTS`` elements a band; they
    tile the H rows in order (none for H = 0, one band for rows of no
    elements). Every banded kernel cuts its rows here."""
    height = shape[-2]
    row = math.prod(shape[:-2]) * shape[-1]  # elements of one row
    step = max(1, _BAND_ELEMENTS // max(row, 1))
    for start in range(0, height, step):
        yield slice(start, min(start + step, height))


def _bands(d, intr: CameraIntrinsics, halo=0):
    """``(rows, cover, planes)`` of the :func:`_row_bands` of a depth raster
    from :func:`_depth_stack`. ``cover`` is ``rows`` widened by ``halo``
    rows on each side and clipped to the frame, and ``planes`` (see
    :func:`_normal_planes`) hold the frame rows ``cover``. A halo of 2 is
    what :func:`_cross_to_depth` needs to be exact on ``rows``."""
    height = d.shape[-2]
    for rows in _row_bands(d.shape):
        cover = slice(max(rows.start - halo, 0), min(rows.stop + halo, height))
        yield rows, cover, _normal_planes(d, intr, cover)


def _cross_to_depth(depth, rays, g_cross, m):
    """Gradient w.r.t. the depth rows of a band of a loss whose gradient
    w.r.t. the planes of tu x tv is ``g_cross`` on the pixel mask m.
    ``depth``, ``g_cross`` and m hold the same frame rows, and ``rays`` are
    the ``_NormalPlanes.rays`` of those rows.

    The band's six tangent planes come from its own depth, so they are
    one-sided at its first and last rows; as the row stencil's adjoint at a row
    reads the rows beside it, the result has the whole frame's bits on every
    row but the first two and the last two, which are right only where they
    are the frame's own. So the ``cover`` of :func:`_bands` with ``halo=2``
    gives the whole frame's bits on the band's ``rows``, and two halo rows
    are enough. ``g_cross`` may hold any value outside m: this is
    the one place that applies the mask. Chains through the cross product,
    the difference stencils and the rays (point = depth * ray), one point
    component at a time. A pixel outside m adds exactly 0, also where its
    tangents or ``g_cross`` are not finite.
    """
    outside = ~m
    grad = None
    with np.errstate(invalid="ignore"):
        t = [_tangents(depth, ray) for ray in rays]
        for i, (j, k) in enumerate(_CROSS):
            (uj, vj), (uk, vk) = t[j], t[k]
            g_u = _cross_plane(vj, g_cross[k], vk, g_cross[j])  # plane i of tv x g
            g_v = _cross_plane(g_cross[j], uk, g_cross[k], uj)  # plane i of g x tu
            np.copyto(g_u, 0.0, where=outside)
            np.copyto(g_v, 0.0, where=outside)
            # the u stencil's adjoint and then the v stencil's add into one zero plane
            g_p = _difference_adjoint(g_v, 0, _difference_adjoint(g_u, 1, np.zeros(m.shape)))
            del g_u, g_v
            # the components add left to right: g_p . ray
            g_p *= rays[i]
            grad = g_p if grad is None else np.add(grad, g_p, out=grad)
            del g_p
    return grad


def normals_from_depth(depth, intr: CameraIntrinsics):
    """Per-pixel unit surface normals derived from a depth raster.

    Tangent vectors come from central differences of the backprojected
    point grid (one-sided at borders); the normal is their normalized
    cross product, oriented so n_z <= 0. Pixels whose stencil touches an
    invalid depth are marked invalid (zero vector). A (b, H, W) stack of
    depth rasters gives the (b, H, W, 3) normals of each, written band by
    band.
    """
    d = _depth_stack(depth)
    out = np.zeros(d.shape + (3,))
    for rows, _, f in _bands(d, intr):
        band = out[..., rows, :, :]
        for i in range(3):
            np.multiply(f.cross[i], f.scale, out=band[..., i], where=f.ok)
    return out


def pixel_areas(depth, normals, intr: CameraIntrinsics, n_z_min=DEFAULT_NZ_MIN):
    """``(areas, included)``: d^2 / (fx fy |n_z|) per pixel where depth is
    valid and |n_z| >= n_z_min (``included``), 0 elsewhere. ``normals`` are
    the (H, W, 3) normals of the depth raster, or None for those derived
    from the depth, bit for bit :func:`normals_from_depth`. n_z_min must be
    in (0, 1]. This is the one home of the area rule: :func:`region_area`
    takes its two planes, and the region kernels of :mod:`slzkit.slz` take
    them a band of rows at a time from :func:`_area_bands`.

    The planes are formed a band of rows at a time, as are the derived
    normals, and depth and ``normals`` may be io.RasterRows, read by rows:
    no whole-frame normals, |n_z| or float64 depth plane is held.
    """
    d, normals = _area_sources(depth, normals, n_z_min)
    areas, included = np.empty(d.shape), np.empty(d.shape, dtype=bool)
    for rows in _row_bands(d.shape):
        areas[rows], included[rows] = _area_band(d, normals, intr, n_z_min, rows)
    return areas, included


def _area_bands(depth, normals, intr: CameraIntrinsics, n_z_min=DEFAULT_NZ_MIN):
    """The ``(areas, included)`` planes of :func:`pixel_areas`, one pair for
    each band of :func:`_row_bands`, top to bottom, each formed when the
    iterator reaches it; the inputs are checked now. No plane of the whole
    frame is held."""
    d, normals = _area_sources(depth, normals, n_z_min)
    return (_area_band(d, normals, intr, n_z_min, rows) for rows in _row_bands(d.shape))


def _area_sources(depth, normals, n_z_min):
    """The depth and normals of :func:`pixel_areas` as row sources, checked."""
    d = _depth_stack(depth) if normals is None else _row_source(depth)
    if not 0 < n_z_min <= 1:
        raise ValueError(f"n_z_min must be in (0, 1], got {n_z_min}")
    if len(d.shape) != 2:
        raise ShapeMismatchError(f"depth must be 2-D, got shape {d.shape}")
    if normals is not None:
        normals = _row_source(normals)
        if normals.shape != d.shape + (3,):
            raise ShapeMismatchError(
                f"normals shape {normals.shape} incompatible with depth {d.shape}")
    return d, normals


def _area_band(d, normals, intr, n_z_min, rows):
    """The (areas, included) planes of frame rows ``rows``."""
    if normals is None:
        # a derived n_z is NaN off the normals (see _NormalPlanes.scale),
        # which fails the n_z_min test as normals_from_depth's 0 does
        f = _normal_planes(d, intr, rows)
        nz = np.abs(f.cross[2] * f.scale)
    else:
        nz = np.abs(normals[rows][..., 2], dtype=np.float64)
    d_b = d[rows]
    inc = np.logical_and(valid_depth_mask(d_b), nz >= n_z_min)
    nz *= intr.fx * intr.fy
    # d^2, divided in place where included and zeroed elsewhere
    a = np.square(d_b, dtype=np.float64)
    np.divide(a, nz, out=a, where=inc)
    a[~inc] = 0.0
    return a, inc


def _area_sums(bins, bands):
    """``(area, pixel_count, excluded_count)`` arrays of ids 1 .. bins - 1
    from ``(ids, areas, included)`` triples of successive bands of rows:
    the band's id plane, 0 = no region, and the planes of
    :func:`pixel_areas` for its rows, which must be of its shape.

    Each id's area adds its pixels' areas one at a time in flat row-major
    order, band after band (``np.add.at``): the one summation rule of
    every region area, whatever the bands.
    """
    area = np.zeros(bins)
    size, excluded = np.zeros(bins, np.intp), np.zeros(bins, np.intp)
    for ids, areas, included in bands:
        areas, included = np.asarray(areas), np.asarray(included)
        if areas.shape != ids.shape:
            raise ShapeMismatchError(f"areas must be a plane of shape {ids.shape}, "
                                     f"got shape {areas.shape}")
        if included.dtype != bool or included.shape != ids.shape:
            raise ShapeMismatchError(f"included must be a boolean plane of shape {ids.shape}, "
                                     f"got {included.dtype} of shape {included.shape}")
        flat = ids.ravel()
        np.add.at(area, flat, areas.ravel())
        size += np.bincount(flat, minlength=bins)
        excluded += np.bincount(flat[~included.ravel()], minlength=bins)
    return area[1:], size[1:] - excluded[1:], excluded[1:]


def region_area(region, areas, included):
    """Sum per-pixel tilt-corrected areas over a pixel region.

    ``areas`` and ``included`` are the planes of :func:`pixel_areas`.
    `region` is a boolean inclusion mask of their shape; for (N, 2)
    (row, col) pixels, build it with ``m[tuple(pixels.T)] = True``.
    Pixels outside ``included`` (invalid depth or |n_z| < n_z_min) are
    skipped and reported in ``excluded_count``. The area adds the pixels'
    float64 areas one at a time in row-major raster order, as
    :func:`slzkit.slz.region_stats` does for each region: the whole frame
    is one band of its reduction.
    """
    region, shape = np.asarray(region), np.shape(areas)
    if region.dtype != bool or region.shape != shape:
        raise ShapeMismatchError(f"region must be a boolean mask of shape {shape}, "
                                 f"got {region.dtype} of shape {region.shape}")
    area, count, excluded = _area_sums(2, [(region.view(np.uint8), areas, included)])
    return AreaReport(float(area[0]), int(count[0]), int(excluded[0]))

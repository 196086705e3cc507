"""Safe/unsafe mask post-processing and landing-candidate extraction.

Masks are uint8 grids with 0 = safe, 1 = unsafe. Safety decisions stay
conservative throughout: binarization breaks ties toward unsafe, and
regions use 4-connectivity so diagonal-only contact never merges two
landing surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .camera import CameraIntrinsics
from .errors import ShapeMismatchError
from .geometry import DEFAULT_NZ_MIN, AreaReport, pixel_areas

SAFE = 0
UNSAFE = 1


@dataclass(frozen=True)
class Region:
    """One 4-connected component of safe pixels."""

    region_id: int
    pixels: np.ndarray  # (N, 2) array of (row, col), row-major order
    bbox: tuple  # (min_row, min_col, max_row, max_col), inclusive


@dataclass(frozen=True)
class LandingCandidate:
    region_id: int
    pixels: np.ndarray
    bbox: tuple
    area: AreaReport


@dataclass(frozen=True, eq=False)
class RegionStats:
    """Every safe region of a mask from one labelling pass; entry i is region id i + 1."""

    labels: np.ndarray  # (H, W) labels of the safe pixels, 0 = unsafe
    label_of: np.ndarray  # (R,) label of each region id
    bbox: np.ndarray  # (R, 4) min_row, min_col, max_row, max_col, inclusive
    area: np.ndarray  # (R,) float64 m^2
    pixel_count: np.ndarray  # (R,) pixels that contributed to the area
    excluded_count: np.ndarray  # (R,) region pixels skipped

    def pixels(self, i):
        """(N, 2) array of the (row, col) pixels of region id i + 1, row-major."""
        r0, c0, r1, c1 = self.bbox[i]
        pixels = np.argwhere(self.labels[r0:r1 + 1, c0:c1 + 1] == self.label_of[i])
        pixels += (r0, c0)
        return pixels


def _check_mask(mask):
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ShapeMismatchError(f"mask must be 2-D, got shape {m.shape}")
    if not np.isin(m, (SAFE, UNSAFE)).all():
        raise ValueError("mask values must be 0 (safe) or 1 (unsafe)")
    return m.astype(np.uint8)


def binarize(logits):
    """Argmax over the 2 logit channels; ties go to unsafe."""
    z = np.asarray(logits)
    if z.ndim != 3 or z.shape[2] != 2:
        raise ShapeMismatchError(f"logits must be (H, W, 2), got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    return (z[..., UNSAFE] >= z[..., SAFE]).astype(np.uint8)


def _label(m):
    """Safe-pixel labels, the label of each region id and each region's bbox."""
    labels, count = ndimage.label(m == SAFE, output=np.intp)
    flat = labels.ravel()
    # rank labels by the flat index of their first pixel (row-major discovery)
    first_index = np.full(count + 1, flat.size, dtype=np.int64)
    idx = np.flatnonzero(flat)
    np.minimum.at(first_index, flat[idx], idx)
    label_of = np.argsort(first_index[1:], kind="stable") + 1
    boxes = [(r.start, c.start, r.stop - 1, c.stop - 1) for r, c in ndimage.find_objects(labels)]
    return labels, label_of, np.array(boxes, dtype=np.int64).reshape(-1, 4)[label_of - 1]


def connected_components(mask):
    """4-connected components of the safe pixels, ids in row-major discovery order."""
    m = _check_mask(mask)
    labels, label_of, bbox = _label(m)
    flat = labels.ravel()
    idx = np.flatnonzero(flat)
    # one stable sort groups the pixels by label, each group in row-major order
    grouped = idx[np.argsort(flat[idx], kind="stable")]
    coords = np.column_stack(np.divmod(grouped, m.shape[1]))
    counts = np.bincount(flat, minlength=len(label_of) + 1)[1:]
    ends = np.cumsum(counts)
    starts = ends - counts
    return [Region(region_id=new_id, pixels=coords[starts[lab - 1]:ends[lab - 1]],
                   bbox=tuple(box))
            for new_id, (lab, box) in enumerate(zip(label_of.tolist(), bbox.tolist()), start=1)]


def region_stats(mask, depth, normals, intr: CameraIntrinsics, n_z_min=DEFAULT_NZ_MIN):
    """Area, pixel counts and bbox of every safe region, from one labelling pass.

    Region ids and pixel inclusion are those of :func:`connected_components`
    and :func:`slzkit.geometry.region_area`. Each region's area is summed in
    flat row-major order, so it may differ from ``region_area`` in the last bits.
    """
    m = _check_mask(mask)
    d = np.asarray(depth)
    if d.shape != m.shape:
        raise ShapeMismatchError(f"depth shape {d.shape} != mask shape {m.shape}")
    labels, label_of, bbox = _label(m)
    areas, included = pixel_areas(d, normals, intr, n_z_min)
    flat = labels.ravel()
    bins = len(label_of) + 1
    area = np.bincount(flat, weights=areas.ravel(), minlength=bins)[label_of]
    size = np.bincount(flat, minlength=bins)[label_of]
    excluded = np.bincount(flat[~included.ravel()], minlength=bins)[label_of]
    return RegionStats(labels, label_of, bbox, area, size - excluded, excluded)


def top_k_candidates(mask, depth, normals, intr: CameraIntrinsics, k,
                     n_z_min=DEFAULT_NZ_MIN):
    """Safe components ranked by estimated area (descending, id breaks ties)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    stats = region_stats(mask, depth, normals, intr, n_z_min=n_z_min)
    # a stable sort on -area keeps equal areas in ascending id order
    best = np.argsort(-stats.area, kind="stable")[:k]
    return [LandingCandidate(i + 1, stats.pixels(i), tuple(stats.bbox[i].tolist()),
                             AreaReport(float(stats.area[i]), int(stats.pixel_count[i]),
                                        int(stats.excluded_count[i])))
            for i in best.tolist()]


def dilate_unsafe(mask, radius):
    """Grow the unsafe set by a square (Chebyshev) element of radius `radius`."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    m = _check_mask(mask)
    if radius == 0:
        return m.copy()
    size = 2 * int(radius) + 1
    return ndimage.maximum_filter(m, size=size, mode="constant", cval=SAFE)

"""Safe/unsafe mask post-processing and landing-candidate extraction.

Masks are uint8 grids with 0 = safe, 1 = unsafe. Safety decisions stay
conservative throughout: binarization breaks ties toward unsafe, and
regions use 4-connectivity so diagonal-only contact never merges two
landing surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .camera import CameraIntrinsics
from .errors import ShapeMismatchError
from .geometry import DEFAULT_NZ_MIN, AreaReport, _area_sums, pixel_areas
from .io import _check_mask

SAFE = 0
UNSAFE = 1


@dataclass(frozen=True)
class Region:
    """One 4-connected component of safe pixels; a landing candidate also
    carries its area."""

    region_id: int
    pixels: np.ndarray  # (N, 2) array of (row, col), row-major order
    bbox: tuple  # (min_row, min_col, max_row, max_col), inclusive
    area: AreaReport | None = None


@dataclass(frozen=True, eq=False)
class RegionStats:
    """Every safe region of a mask from one labelling pass; entry i is region id i + 1."""

    shape: tuple  # (H, W) of the mask
    runs: np.ndarray  # (4, N) int32: row, start col, stop col (exclusive), region id per run
    bbox: np.ndarray  # (R, 4) int32 min_row, min_col, max_row, max_col, inclusive
    area: np.ndarray  # (R,) float64 m^2
    pixel_count: np.ndarray  # (R,) pixels that contributed to the area
    excluded_count: np.ndarray  # (R,) region pixels skipped

    def labels(self):
        """(H, W) region id of each safe pixel, 0 = unsafe."""
        return _paint(*self.runs, self.shape)

    def pixels(self, i):
        """(N, 2) array of the (row, col) pixels of region id i + 1, row-major."""
        r0, _, r1, _ = self.bbox[i]
        # the runs of the bbox's rows are one slice of the row-major table;
        # int32 keys keep searchsorted from casting the whole row column
        lo, hi = np.searchsorted(self.runs[0], (r0, r1 + 1))
        runs = self.runs[:, lo:hi]
        return _run_pixels(*runs[:3, runs[3] == i + 1])


def _run_pixels(row, start, stop):
    """(N, 2) array of the (row, col) pixels of the given runs, run by run."""
    n = stop - start
    cols = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - start, n)
    return np.column_stack((np.repeat(row, n), cols))


def _paint(row, start, stop, label, shape):
    """(H, W) intp plane of the runs' region ids, 0 = unsafe."""
    # +id at each run start and -id at its stop, then one running sum
    plane = np.zeros(shape[0] * shape[1] + 1, np.intp)
    base = row * np.intp(shape[1])
    plane[base + start] = label
    plane[base + stop] -= label
    return np.cumsum(plane, out=plane)[:-1].reshape(shape)


def binarize(logits):
    """Argmax over the 2 logit channels; ties go to unsafe."""
    z = np.asarray(logits)
    if z.ndim != 3 or z.shape[2] != 2:
        raise ShapeMismatchError(f"logits must be (H, W, 2), got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("logits must be finite")
    return (z[..., UNSAFE] >= z[..., SAFE]).astype(np.uint8)


def _label(m):
    """The run table of the safe pixels and each region's bbox.

    Run-based two-pass labelling: find the row runs of safe pixels, link each
    run to the runs it overlaps in the row above, then merge linked runs by
    min-hooking and pointer jumping. The (4, N) int32 table holds the row,
    start column, stop column (exclusive) and region id of each run, in
    row-major order; region id i + 1 is bbox row i. int32 holds every
    value of a frame of fewer than 2**31 pixels.
    """
    h, w = m.shape
    # the unsafe pad column ends every run within its row
    safe = np.zeros((h, w + 1), bool)
    safe[:, :w] = m == SAFE
    change = np.flatnonzero(np.diff(safe.ravel(), prepend=False))
    start, stop = change.reshape(-1, 2).T  # padded flat index, stop exclusive
    row = start // (w + 1)
    # the runs above that overlap run j are one contiguous range [lo_j, hi_j)
    lo = np.searchsorted(stop, start - (w + 1), side="right")
    hi = np.searchsorted(start, stop - (w + 1), side="left")
    links = np.maximum(hi - lo, 0)
    a = np.repeat(np.arange(len(start)), links)
    b = np.arange(len(a)) + np.repeat(lo - (np.cumsum(links) - links), links)
    # every run points at a smaller one or at itself, so each root is its
    # component's first run in row-major order
    parent = np.arange(len(start))
    while not np.array_equal(ra := parent[a], rb := parent[b]):
        # hook each root under the smallest root it links to, then jump pointers
        # until every run points at its root
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(up := parent[parent], parent):
            parent = up
    root = parent == np.arange(len(parent))
    first = row * (w + 1)
    runs = np.array([row, start - first, stop - first, np.cumsum(root)[parent]], np.int32)
    row, start, stop, label = runs
    bbox = np.zeros((int(root.sum()), 4), np.int32)
    bbox[:, 0] = row[root]
    bbox[:, 1] = w
    np.minimum.at(bbox[:, 1], label - 1, start)
    np.maximum.at(bbox[:, 2], label - 1, row)
    np.maximum.at(bbox[:, 3], label - 1, stop - 1)
    return runs, bbox


def connected_components(mask):
    """4-connected components of the safe pixels, ids in row-major discovery order."""
    runs, bbox = _label(_check_mask(mask))
    # one stable sort groups the runs by region, each group in row-major order
    runs = runs[:, np.argsort(runs[3], kind="stable")]
    ends = np.cumsum(runs[2] - runs[1])[np.flatnonzero(np.diff(runs[3], append=0))].tolist()
    pixels = _run_pixels(*runs[:3])
    return [Region(i, pixels[s:e], tuple(box))
            for i, (s, e, box) in enumerate(zip([0] + ends, ends, bbox.tolist()), start=1)]


def region_stats(mask, depth, normals, intr: CameraIntrinsics, n_z_min=DEFAULT_NZ_MIN):
    """Area, pixel counts and bbox of every safe region, from one labelling pass.

    Region ids are those of :func:`connected_components`; each region's
    area, pixel count and excluded count equal those of
    :func:`slzkit.geometry.region_area` over its pixels, bit for bit.
    """
    m = _check_mask(mask)
    if np.shape(depth) != m.shape:
        raise ShapeMismatchError(f"depth shape {np.shape(depth)} != mask shape {m.shape}")
    runs, bbox = _label(m)
    # the areas come before the painted id plane, which keeps the peak low
    areas, included = pixel_areas(depth, normals, intr, n_z_min)
    sums = _area_sums(_paint(*runs, m.shape), len(bbox) + 1, areas, included)
    return RegionStats(m.shape, runs, bbox, *sums)


def top_k_candidates(mask, depth, normals, intr: CameraIntrinsics, k,
                     n_z_min=DEFAULT_NZ_MIN):
    """Safe components ranked by estimated area (descending, id breaks ties)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    stats = region_stats(mask, depth, normals, intr, n_z_min=n_z_min)
    # a stable sort on -area keeps equal areas in ascending id order
    best = np.argsort(-stats.area, kind="stable")[:k]
    return [Region(i + 1, stats.pixels(i), tuple(stats.bbox[i].tolist()),
                   AreaReport(float(stats.area[i]), int(stats.pixel_count[i]),
                              int(stats.excluded_count[i])))
            for i in best.tolist()]


def dilate_unsafe(mask, radius):
    """Grow the unsafe set by a square (Chebyshev) element of radius `radius`."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    m = _check_mask(mask).astype(np.uint8)
    # the square element is separable: a running max along each axis in turn,
    # over windows padded with SAFE (0)
    for axis in (0, 1):
        # a radius past the axis length covers it all; the cap bounds the padding
        r = min(int(radius), m.shape[axis])
        pad = [(0, 0), (0, 0)]
        pad[axis] = (r, r)
        win = sliding_window_view(np.pad(m, pad), 2 * r + 1, axis=axis)
        # reducing over a leading window axis walks whole rows, not 2r+1 strided bytes
        m = np.maximum.reduce(np.moveaxis(win, -1, 0))
    return m

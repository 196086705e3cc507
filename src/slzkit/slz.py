"""Safe/unsafe mask post-processing and landing-candidate extraction.

Masks are uint8 grids with 0 = safe, 1 = unsafe. Safety decisions stay
conservative throughout: binarization breaks ties toward unsafe, and
regions use 4-connectivity so diagonal-only contact never merges two
landing surfaces.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeMismatchError
from .geometry import _area_sums, _row_bands
from .io import _check_mask, _row_source

SAFE = 0
UNSAFE = 1


@dataclass(frozen=True, eq=False)
class Labelling:
    """The 4-connected safe regions of a mask from one labelling pass; row i is region id i + 1."""

    shape: tuple  # (H, W) of the mask
    runs: np.ndarray  # (4, N) int32: row, start col, stop col (exclusive), region id per run
    bbox: np.ndarray  # (R, 4) int32 min_row, min_col, max_row, max_col, inclusive

    def __len__(self):
        """The number of regions."""
        return len(self.bbox)

    def labels(self):
        """(H, W) region id of each safe pixel, 0 = unsafe."""
        return _paint(*self.runs, self.shape)


@dataclass(frozen=True, eq=False)
class RegionStats(Labelling):
    """A labelling with the area columns of its regions; entry i is region id i + 1."""

    area: np.ndarray  # (R,) float64 m^2
    pixel_count: np.ndarray  # (R,) pixels that contributed to the area
    excluded_count: np.ndarray  # (R,) region pixels skipped


def _paint(row, start, stop, label, shape):
    """(H, W) intp plane of the runs' region ids, 0 = unsafe."""
    # +id at each run start and -id at its stop, then one running sum
    plane = np.zeros(shape[0] * shape[1] + 1, np.intp)
    base = row * np.intp(shape[1])
    plane[base + start] = label
    plane[base + stop] -= label
    return np.cumsum(plane, out=plane)[:-1].reshape(shape)


def binarize(logits):
    """Argmax over the 2 logit channels; ties go to unsafe. The (H, W, 2)
    logits, which may be an io.RasterRows, are read a band of rows at a
    time into the (H, W) uint8 mask."""
    z = _row_source(logits)
    if len(z.shape) != 3 or z.shape[2] != 2:
        raise ShapeMismatchError(f"logits must be (H, W, 2), got shape {z.shape}")
    mask = np.empty(z.shape[:2], np.uint8)
    for rows in _row_bands(mask.shape):
        band = z[rows]
        if not np.isfinite(band).all():
            raise ValueError("logits must be finite")
        mask[rows] = band[..., UNSAFE] >= band[..., SAFE]
    return mask


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
    m = _check_mask(mask)
    return Labelling(m.shape, *_label(m))


def region_stats(mask, planes):
    """Area, pixel counts and bbox of every safe region, from one labelling pass.

    ``planes`` are the ``(areas, included)`` planes of
    :func:`slzkit.geometry.pixel_areas` in bands of whole rows of the mask,
    top to bottom: an iterable of pairs, each band's height that of its
    ``areas``. A whole-frame pair is one band (``[pixel_areas(...)]``).
    Each band's region ids are painted in turn, so no plane of the whole
    frame is held beyond the mask. Region ids are those of
    :func:`connected_components`; each region's area, pixel count and
    excluded count equal those of :func:`slzkit.geometry.region_area` over
    its pixels, bit for bit, however the rows are banded.
    """
    lab = connected_components(mask)
    (height, width), row = lab.shape, lab.runs[0]

    def bands():
        top = 0
        for areas, included in planes:
            stop = min(top + len(areas), height)
            lo, hi = np.searchsorted(row, (top, stop))
            run_rows, start, end, label = lab.runs[:, lo:hi]
            yield _paint(run_rows - top, start, end, label, (stop - top, width)), areas, included
            top = stop
        if top != height:
            raise ShapeMismatchError(f"the area planes cover {top} rows of the mask's {height}")

    sums = _area_sums(len(lab) + 1, bands())
    return RegionStats(lab.shape, lab.runs, lab.bbox, *sums)


def top_k_candidates(mask, planes, k):
    """``(order, stats)``: the :func:`region_stats` of the mask and its area
    planes, and the rows of its k largest regions by area (descending, id
    breaks ties); row i is region id i + 1."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    stats = region_stats(mask, planes)
    # a stable sort on -area keeps equal areas in ascending id order
    return np.argsort(-stats.area, kind="stable")[:k], stats


def _check_radius(radius, name="radius"):
    """`radius` as an int, checked to be a whole number >= 0: a fractional
    radius would round to another element without saying so."""
    try:
        r = operator.index(radius)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {radius}") from None
    if r < 0:
        raise ValueError(f"{name} must be >= 0, got {r}")
    return r


def dilate_unsafe(mask, radius):
    """Grow the unsafe set by a square (Chebyshev) element of radius `radius`,
    a whole number of pixels."""
    radius = _check_radius(radius)
    m = _check_mask(mask).astype(np.uint8)
    # the square element is separable: a running max along each axis in turn,
    # over windows padded with SAFE (0)
    for axis in (0, 1):
        # a radius past the axis length covers it all; the cap bounds the padding
        r = min(radius, m.shape[axis])
        pad = [(0, 0), (0, 0)]
        pad[axis] = (r, r)
        win = sliding_window_view(np.pad(m, pad), 2 * r + 1, axis=axis)
        # reducing over a leading window axis walks whole rows, not 2r+1 strided bytes
        m = np.maximum.reduce(np.moveaxis(win, -1, 0))
    return m

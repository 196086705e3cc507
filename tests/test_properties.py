"""Property tests of the geometric identities behind the region areas, the
pooled confusion counts and the synthetic scenes' closed-form areas."""

import math

import numpy as np
import oracles
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import evaluate_dataset

from slzkit.camera import CameraIntrinsics
from slzkit.geometry import pixel_areas
from slzkit.metrics import confusion, evaluate, to_csv_rows
from slzkit.slz import region_stats
from slzkit.synth import Scene, render_scene

frames = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "height": st.integers(1, 24),
    "width": st.integers(1, 24),
    "unsafe_fraction": st.floats(0.0, 0.9),
})
intrinsics = st.builds(CameraIntrinsics,
                       fx=st.floats(50.0, 2000.0), fy=st.floats(50.0, 2000.0),
                       cx=st.floats(-50.0, 50.0), cy=st.floats(-50.0, 50.0))


def _frame(seed, height, width, unsafe_fraction):
    """Mask, depth and normals with invalid-depth and steep-normal pixels."""
    rng = np.random.default_rng(seed)
    mask = (rng.uniform(size=(height, width)) < unsafe_fraction).astype(np.uint8)
    depth = rng.uniform(0.5, 50.0, (height, width))
    depth[rng.uniform(size=(height, width)) < 0.1] = 0.0
    normals = rng.normal(size=(height, width, 3))
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    normals[..., 2] = -np.abs(normals[..., 2])
    return mask, depth, normals


def _components(stats):
    labels = stats.labels()
    return {frozenset(map(tuple, np.argwhere(labels == i + 1).tolist()))
            for i in range(len(stats.area))}


@settings(max_examples=60, deadline=None)
@given(frame=frames, intr=intrinsics, s=st.floats(0.05, 20.0))
def test_depth_scale_scales_every_region_area_by_s_squared(frame, intr, s):
    mask, depth, normals = _frame(**frame)
    base = region_stats(mask, [pixel_areas(depth, normals, intr)])
    scaled = region_stats(mask, [pixel_areas(s * depth, normals, intr)])
    assert np.array_equal(scaled.bbox, base.bbox)
    assert np.array_equal(scaled.pixel_count, base.pixel_count)
    assert np.array_equal(scaled.excluded_count, base.excluded_count)
    assert _components(scaled) == _components(base)
    np.testing.assert_allclose(scaled.area, s * s * base.area, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(frame=frames, intr=intrinsics)
def test_transpose_with_swapped_axes_keeps_total_area_and_components(frame, intr):
    mask, depth, normals = _frame(**frame)
    base = region_stats(mask, [pixel_areas(depth, normals, intr)])
    swapped = CameraIntrinsics(fx=intr.fy, fy=intr.fx, cx=intr.cy, cy=intr.cx)
    flipped = region_stats(mask.T, [pixel_areas(depth.T, normals.swapaxes(0, 1), swapped)])
    assert _components(flipped) == {frozenset((c, r) for r, c in comp)
                                    for comp in _components(base)}
    assert flipped.pixel_count.sum() == base.pixel_count.sum()
    assert flipped.excluded_count.sum() == base.excluded_count.sum()
    assert flipped.area.sum() == pytest.approx(base.area.sum(), rel=1e-12, abs=0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 8), height=st.integers(1, 12),
       width=st.integers(1, 12), data=st.data())
def test_confusion_counts_add_up_across_any_split_of_the_pairs(seed, count, height, width,
                                                               data):
    rng = np.random.default_rng(seed)
    pairs = [tuple((rng.uniform(size=(2, height, width)) < rng.uniform()).astype(np.uint8))
             for _ in range(count)]
    part = data.draw(st.lists(st.integers(0, 2), min_size=count, max_size=count))
    split = sum(sum((confusion(p, g) for (p, g), k in zip(pairs, part) if k == j),
                    np.zeros((2, 2), dtype=np.int64)) for j in range(3))
    preds, gts = zip(*pairs)
    whole = confusion(np.vstack(preds), np.vstack(gts))
    assert np.array_equal(split, whole)
    assert np.array_equal(whole, oracles.confusion_ref(np.vstack(preds), np.vstack(gts)))
    assert to_csv_rows(evaluate_dataset(pairs)) == to_csv_rows(evaluate(whole))


@settings(max_examples=60, deadline=None)
@given(height=st.integers(3, 40), width=st.integers(3, 40), intr=intrinsics,
       a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0), c=st.floats(0.1, 100.0))
@example(height=24, width=32, intr=CameraIntrinsics(50.0, 50.0, 15.5, 11.3), a=0.3, b=5.0, c=10.0)
@example(height=24, width=32, intr=CameraIntrinsics(50.0, 50.0, 15.5, 11.3), a=0.0, b=5.0, c=10.0)
@example(height=24, width=32, intr=CameraIntrinsics(50.0, 50.0, 15.3, 11.5), a=-4.0, b=3.0, c=1.0)
def test_synth_total_area_matches_the_plane_patch_over_random_planes(height, width, intr,
                                                                     a, b, c):
    # A cell sees the plane when g > 0 at its four corners. The other cells
    # reach the horizon, where the area diverges, and add nothing to the sums.
    def g(u, v):
        return 1.0 - a * (u - intr.cx) / intr.fx - b * (v - intr.cy) / intr.fy

    corner_g = np.array([[g(u - 0.5, v - 0.5) for u in range(width + 1)]
                         for v in range(height + 1)])
    assume(np.abs(corner_g).min() > 1e-4)
    sees = np.minimum(np.minimum(corner_g[:-1, :-1], corner_g[:-1, 1:]),
                      np.minimum(corner_g[1:, :-1], corner_g[1:, 1:])) > 0
    # the cells that see the plane form one run per row (g is affine)
    ref = 0.0
    for v, row in enumerate(sees):
        cols = np.flatnonzero(row)
        if cols.size:
            assert cols[-1] - cols[0] + 1 == cols.size
            run = CameraIntrinsics(intr.fx, intr.fy, intr.cx - cols[0], intr.cy - v)
            ref += oracles.plane_patch_area_ref(1, cols.size, run, a, b, c)
    render = render_scene(Scene(width, height, intr, (a, b, c)))
    total = render.sidecar["analytic_total_area"]
    assert math.isfinite(total) and total >= 0
    assert total == pytest.approx(ref, rel=1e-9)
    assert render.sidecar["analytic_safe_area"] == total
    assert render.sidecar.get("horizon_cells", 0) == sees.size - sees.sum()

"""Property tests of the geometric identities behind the region areas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slzkit.camera import CameraIntrinsics
from slzkit.slz import region_stats

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
    return {frozenset(map(tuple, stats.pixels(i).tolist())) for i in range(len(stats.area))}


@settings(max_examples=60, deadline=None)
@given(frame=frames, intr=intrinsics, s=st.floats(0.05, 20.0))
def test_depth_scale_scales_every_region_area_by_s_squared(frame, intr, s):
    mask, depth, normals = _frame(**frame)
    base = region_stats(mask, depth, normals, intr)
    scaled = region_stats(mask, s * depth, normals, intr)
    assert np.array_equal(scaled.bbox, base.bbox)
    assert np.array_equal(scaled.pixel_count, base.pixel_count)
    assert np.array_equal(scaled.excluded_count, base.excluded_count)
    assert _components(scaled) == _components(base)
    np.testing.assert_allclose(scaled.area, s * s * base.area, rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(frame=frames, intr=intrinsics)
def test_transpose_with_swapped_axes_keeps_total_area_and_components(frame, intr):
    mask, depth, normals = _frame(**frame)
    base = region_stats(mask, depth, normals, intr)
    swapped = CameraIntrinsics(fx=intr.fy, fy=intr.fx, cx=intr.cy, cy=intr.cx)
    flipped = region_stats(mask.T, depth.T, normals.transpose(1, 0, 2)[..., [1, 0, 2]],
                           swapped)
    assert _components(flipped) == {frozenset((c, r) for r, c in comp)
                                    for comp in _components(base)}
    assert flipped.pixel_count.sum() == base.pixel_count.sum()
    assert flipped.excluded_count.sum() == base.excluded_count.sum()
    assert flipped.area.sum() == pytest.approx(base.area.sum(), rel=1e-12, abs=0)

import numpy as np
import pytest

import oracles
from slzkit.camera import CameraIntrinsics
from slzkit.errors import ShapeMismatchError
from slzkit.geometry import normals_from_depth, region_area
from slzkit.slz import binarize, connected_components, dilate_unsafe, top_k_candidates

INTR = CameraIntrinsics(100, 100, 10, 10)


def test_binarize_argmax_and_tie_break():
    logits = np.array([[[2.0, -1.0], [0.5, 0.5], [-3.0, 1.0]]])
    mask = binarize(logits)
    assert mask.tolist() == [[0, 1, 1]]


def test_binarize_constant_safe():
    logits = np.zeros((4, 4, 2))
    logits[..., 0] = 5.0
    assert not binarize(logits).any()


def test_binarize_errors():
    with pytest.raises(ShapeMismatchError):
        binarize(np.zeros((4, 4, 3)))
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        binarize(bad)


def test_components_diagonal_pixels_split():
    mask = np.ones((4, 4), np.uint8)
    mask[1, 1] = 0
    mask[2, 2] = 0
    regions = connected_components(mask)
    assert len(regions) == 2


def test_components_all_safe():
    regions = connected_components(np.zeros((3, 3), np.uint8))
    assert len(regions) == 1
    assert len(regions[0].pixels) == 9
    assert regions[0].bbox == (0, 0, 2, 2)


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mask = (rng.uniform(size=(8, 8)) > 0.55).astype(np.uint8)
        regions = connected_components(mask)
        ref = oracles.flood_fill_components(mask)
        assert len(regions) == len(ref)
        for region, ref_pixels in zip(regions, ref):
            assert [tuple(p) for p in region.pixels] == ref_pixels


def test_components_ids_are_row_major_first_pixel_order():
    mask = np.ones((5, 5), np.uint8)
    mask[4, 0] = 0  # later in scan order
    mask[0, 3] = 0
    mask[2, 2] = 0
    regions = connected_components(mask)
    firsts = [tuple(r.pixels[0]) for r in regions]
    assert firsts == [(0, 3), (2, 2), (4, 0)]
    assert [r.region_id for r in regions] == [1, 2, 3]


def _random_frame(seed, unsafe_fraction, size=64):
    """Seeded mask, depth and normals with invalid-depth and steep-normal pixels."""
    rng = np.random.default_rng(seed)
    mask = (rng.uniform(size=(size, size)) < unsafe_fraction).astype(np.uint8)
    depth = rng.uniform(1.0, 30.0, (size, size))
    depth[rng.uniform(size=(size, size)) < 0.05] = 0.0
    depth[rng.uniform(size=(size, size)) < 0.02] = np.nan
    normals = rng.normal(size=(size, size, 3))
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    normals[..., 2] = -np.abs(normals[..., 2])
    return mask, depth, normals


# from sparse unsafe pixels (a few large regions) to speckle (hundreds)
MASK_CASES = [(seed, fraction) for fraction in (0.02, 0.3, 0.45, 0.55, 0.7)
              for seed in range(3)]


@pytest.mark.parametrize("seed,unsafe_fraction", MASK_CASES)
def test_components_match_flood_fill_oracle_on_random_masks(seed, unsafe_fraction):
    mask, _, _ = _random_frame(seed, unsafe_fraction)
    regions = connected_components(mask)
    ref = oracles.flood_fill_components(mask)
    assert [r.region_id for r in regions] == list(range(1, len(ref) + 1))
    for region, ref_pixels in zip(regions, ref):
        assert [tuple(p) for p in region.pixels] == ref_pixels
        rows, cols = zip(*ref_pixels)
        assert region.bbox == (min(rows), min(cols), max(rows), max(cols))


@pytest.mark.parametrize("seed,unsafe_fraction", MASK_CASES)
def test_candidates_match_region_area_per_oracle_component(seed, unsafe_fraction):
    mask, depth, normals = _random_frame(seed, unsafe_fraction)
    ref = oracles.flood_fill_components(mask)
    if unsafe_fraction >= 0.45:
        assert len(ref) > 100
    cands = top_k_candidates(mask, depth, normals, INTR, k=len(ref) + 1)
    assert sorted(c.region_id for c in cands) == list(range(1, len(ref) + 1))
    assert [c.region_id for c in cands] == [
        c.region_id for c in sorted(cands, key=lambda c: (-c.area.total_area, c.region_id))]
    for c in cands:
        ref_pixels = ref[c.region_id - 1]
        want = region_area(np.array(ref_pixels), depth, normals, INTR)
        assert [tuple(p) for p in c.pixels] == ref_pixels
        rows, cols = zip(*ref_pixels)
        assert c.bbox == (min(rows), min(cols), max(rows), max(cols))
        assert c.area.pixel_count == want.pixel_count
        assert c.area.excluded_count == want.excluded_count
        assert c.area.total_area == pytest.approx(want.total_area, rel=1e-6)


def test_top_k_fewer_components_than_k():
    mask = np.ones((8, 8), np.uint8)
    mask[0:2, 0:2] = 0
    mask[4:6, 4:6] = 0
    mask[7, 0] = 0
    depth = np.full((8, 8), 2.0)
    normals = normals_from_depth(depth, INTR)
    cands = top_k_candidates(mask, depth, normals, INTR, k=5)
    assert len(cands) == 3


def test_top_k_depth_ranks_equal_pixel_counts():
    mask = np.ones((8, 8), np.uint8)
    mask[0:2, 0:2] = 0  # shallow blob, depth 2
    mask[5:7, 5:7] = 0  # deep blob, depth 4
    depth = np.full((8, 8), 2.0)
    depth[5:7, 5:7] = 4.0
    normals = np.zeros((8, 8, 3))
    normals[..., 2] = -1.0
    cands = top_k_candidates(mask, depth, normals, INTR, k=5)
    assert [tuple(c.pixels[0]) for c in cands] == [(5, 5), (0, 0)]
    assert cands[0].area.total_area == pytest.approx(4.0 * cands[1].area.total_area, rel=1e-9)
    assert cands[0].bbox == (5, 5, 6, 6)


def test_top_k_empty_safe_set_and_k_zero():
    depth = np.full((4, 4), 2.0)
    normals = normals_from_depth(depth, INTR)
    assert top_k_candidates(np.ones((4, 4), np.uint8), depth, normals, INTR, 5) == []
    mask = np.zeros((4, 4), np.uint8)
    assert top_k_candidates(mask, depth, normals, INTR, 0) == []


def test_top_k_candidates_disjoint_and_safe():
    rng = np.random.default_rng(1)
    mask = (rng.uniform(size=(12, 12)) > 0.45).astype(np.uint8)
    depth = 3.0 + rng.uniform(-0.5, 0.5, (12, 12))
    normals = normals_from_depth(depth, INTR)
    cands = top_k_candidates(mask, depth, normals, INTR, k=100)
    seen = set()
    for c in cands:
        for r, col in c.pixels:
            assert mask[r, col] == 0
            assert (r, col) not in seen
            seen.add((r, col))
    areas = [c.area.total_area for c in cands]
    assert areas == sorted(areas, reverse=True)


def test_top_k_shape_mismatch():
    depth = np.full((4, 4), 2.0)
    normals = normals_from_depth(depth, INTR)
    with pytest.raises(ShapeMismatchError):
        top_k_candidates(np.zeros((5, 4), np.uint8), depth, normals, INTR, 3)


def test_dilate_radius_zero_is_identity():
    rng = np.random.default_rng(2)
    mask = (rng.uniform(size=(9, 9)) > 0.5).astype(np.uint8)
    assert np.array_equal(dilate_unsafe(mask, 0), mask)


def test_dilate_single_pixel():
    mask = np.zeros((5, 5), np.uint8)
    mask[2, 2] = 1
    out = dilate_unsafe(mask, 1)
    expected = np.zeros((5, 5), np.uint8)
    expected[1:4, 1:4] = 1
    assert np.array_equal(out, expected)


def test_dilate_saturated():
    mask = np.ones((4, 6), np.uint8)
    assert np.array_equal(dilate_unsafe(mask, 3), mask)


def test_dilate_matches_reference_and_is_monotone():
    rng = np.random.default_rng(3)
    for _ in range(10):
        mask = (rng.uniform(size=(10, 10)) > 0.8).astype(np.uint8)
        for radius in (1, 2):
            out = dilate_unsafe(mask, radius)
            assert np.array_equal(out, oracles.dilate_ref(mask, radius))
            assert (out >= mask).all()


def test_dilate_semigroup():
    rng = np.random.default_rng(4)
    for _ in range(25):
        mask = (rng.uniform(size=(12, 12)) > 0.85).astype(np.uint8)
        two_step = dilate_unsafe(dilate_unsafe(mask, 1), 2)
        assert np.array_equal(two_step, dilate_unsafe(mask, 3))


def test_dilate_rejects_negative_radius():
    with pytest.raises(ValueError):
        dilate_unsafe(np.zeros((3, 3), np.uint8), -1)

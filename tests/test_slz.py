import numpy as np
import pytest

import oracles
from slzkit.camera import CameraIntrinsics
from slzkit.errors import ShapeMismatchError
from slzkit.geometry import normals_from_depth, region_area
from slzkit.slz import (
    binarize,
    connected_components,
    dilate_unsafe,
    region_stats,
    top_k_candidates,
)

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
    lab = connected_components(np.zeros((3, 3), np.uint8))
    assert len(lab) == 1
    assert len(lab.pixels(0)) == 9
    assert tuple(lab.bbox[0]) == (0, 0, 2, 2)


def _assert_flood_fill(lab, mask):
    """Row i of the labelling holds the pixels and bbox of the oracle's component i."""
    ref = oracles.flood_fill_components(mask)
    assert len(lab) == len(ref)
    for i, ref_pixels in enumerate(ref):
        assert [tuple(p) for p in lab.pixels(i)] == ref_pixels
        rows, cols = zip(*ref_pixels)
        assert tuple(lab.bbox[i]) == (min(rows), min(cols), max(rows), max(cols))


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        mask = (rng.uniform(size=(8, 8)) > 0.55).astype(np.uint8)
        _assert_flood_fill(connected_components(mask), mask)


def test_components_ids_are_row_major_first_pixel_order():
    mask = np.ones((5, 5), np.uint8)
    mask[4, 0] = 0  # later in scan order
    mask[0, 3] = 0
    mask[2, 2] = 0
    lab = connected_components(mask)
    firsts = [tuple(lab.pixels(i)[0]) for i in range(len(lab))]
    assert firsts == [(0, 3), (2, 2), (4, 0)]
    assert [lab.labels()[p] for p in firsts] == [1, 2, 3]


def test_pixels_rejects_a_row_outside_the_labelling():
    # safe where row + col is even: six one-pixel regions, the last at (2, 2)
    lab = connected_components((np.add.outer(np.arange(3), np.arange(4)) % 2).astype(np.uint8))
    assert lab.pixels(5).tolist() == [[2, 2]]
    for i in (-1, len(lab)):
        with pytest.raises(IndexError, match=f"region row {i} out of range for 6 regions"):
            lab.pixels(i)


def test_runs_at_a_row_end_and_the_next_row_start_stay_apart():
    mask = np.ones((3, 4), np.uint8)
    mask[0, 3] = 0  # ends at column W - 1
    mask[1, 0] = 0  # starts at column 0 of the next row, one flat index later
    lab = connected_components(mask)
    assert [lab.pixels(i).tolist() for i in range(len(lab))] == [[[0, 3]], [[1, 0]]]
    sides = np.ones((5, 6), np.uint8)
    sides[:, [0, 5]] = 0
    assert connected_components(sides).bbox.tolist() == [[0, 0, 4, 0], [0, 5, 4, 5]]


# Adversarial masks for the run labeller; each builds an (h, w) mask.

def _spiral(h, w):
    """One safe corridor winding inward, one unsafe pixel between its turns."""
    mask = np.ones((h, w), np.uint8)
    r = c = 0
    mask[0, 0] = 0
    for i, (dr, dc) in enumerate([(0, 1), (1, 0), (0, -1), (-1, 0)] * max(h, w)):
        n = (w - 1 if i == 0 else w + 1 - i) if i % 2 == 0 else h - i
        if n <= 0:
            break
        r1, c1 = r + dr * n, c + dc * n
        mask[min(r, r1):max(r, r1) + 1, min(c, c1):max(c, c1) + 1] = 0
        r, c = r1, c1
    return mask


def _comb(h, w, spine_row):
    """Teeth on every other column, joined by a spine along one edge row."""
    mask = np.ones((h, w), np.uint8)
    mask[:, ::2] = 0
    mask[spine_row, :] = 0
    return mask


def _serpentine(h, w):
    """Safe rows joined at alternate ends into one path."""
    mask = np.ones((h, w), np.uint8)
    mask[::2, :] = 0
    for r in range(1, h, 2):
        mask[r, -1 if r % 4 == 1 else 0] = 0
    return mask


def _speckle(h, w, seed=61):
    return (np.random.default_rng(seed).uniform(size=(h, w)) < 0.5).astype(np.uint8)


ADVERSARIAL = {
    "spiral": _spiral,
    "comb-from-top": lambda h, w: _comb(h, w, 0),
    "comb-from-bottom": lambda h, w: _comb(h, w, -1),
    "checkerboard": lambda h, w: (np.add.outer(np.arange(h), np.arange(w)) % 2).astype(np.uint8),
    "serpentine": _serpentine,
    "all-safe": lambda h, w: np.zeros((h, w), np.uint8),
    "all-unsafe": lambda h, w: np.ones((h, w), np.uint8),
    "speckle": _speckle,
}
# regions at 720p, where the structure fixes the count
REGIONS_720P = {"spiral": 1, "comb-from-top": 1, "comb-from-bottom": 1, "checkerboard": 460800,
                "serpentine": 1, "all-safe": 1, "all-unsafe": 0}


@pytest.mark.parametrize("name", ADVERSARIAL)
def test_adversarial_720p_labels_and_bboxes_match_ndimage(name):
    mask = ADVERSARIAL[name](720, 1280)
    depth = np.full(mask.shape, 2.0)
    normals = np.zeros(mask.shape + (3,))
    normals[..., 2] = -1.0
    stats = region_stats(mask, depth, normals, INTR)
    labels, bbox = oracles.label_ref(mask)
    assert len(stats.bbox) == REGIONS_720P.get(name, len(bbox))
    if name == "speckle":
        assert len(bbox) > 60000
    assert np.array_equal(stats.labels(), labels)
    assert np.array_equal(stats.bbox, bbox)
    assert stats.pixel_count.sum() == np.count_nonzero(mask == 0)


@pytest.mark.parametrize("build", [
    pytest.param(lambda m, d, n: connected_components(m), id="connected_components"),
    pytest.param(lambda m, d, n: region_stats(m, d, n, INTR), id="region_stats"),
])
def test_region_stats_keep_runs_not_a_label_plane(build):
    # the 720p checkerboard is the worst case: one run per safe pixel
    mask = ADVERSARIAL["checkerboard"](720, 1280)
    depth = np.full(mask.shape, 2.0)
    normals = np.zeros(mask.shape + (3,))
    normals[..., 2] = -1.0
    lab = build(mask, depth, normals)
    assert len(lab) == REGIONS_720P["checkerboard"]
    shape, *columns = vars(lab).values()
    assert shape == mask.shape
    # arrays, not one Python object per region, and no (H, W) plane
    assert all(isinstance(c, np.ndarray) and c.dtype != object and c.shape != mask.shape
               for c in columns)
    assert lab.runs.nbytes <= 8 * mask.size
    assert np.array_equal(lab.labels(), oracles.label_ref(mask)[0])


@pytest.mark.parametrize("name", ADVERSARIAL)
@pytest.mark.parametrize("shape", [(1, 1), (1, 23), (23, 1), (2, 2), (7, 9), (12, 5)])
def test_adversarial_small_masks_match_flood_fill(name, shape):
    mask = ADVERSARIAL[name](*shape)
    _assert_flood_fill(connected_components(mask), mask)


@pytest.mark.parametrize("shape", [(1, 1280), (720, 1)])
@pytest.mark.parametrize("name", ["speckle", "all-safe", "all-unsafe", "checkerboard"])
def test_strips_match_ndimage(shape, name):
    mask = ADVERSARIAL[name](*shape)
    lab = connected_components(mask)
    labels, bbox = oracles.label_ref(mask)
    assert lab.bbox.tolist() == bbox.tolist()
    for i in range(len(lab)):
        assert np.array_equal(lab.pixels(i), np.argwhere(labels == i + 1))


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
    _assert_flood_fill(connected_components(mask), mask)


@pytest.mark.parametrize("seed,unsafe_fraction", MASK_CASES)
def test_region_bbox_matches_find_objects(seed, unsafe_fraction):
    mask, depth, normals = _random_frame(seed, unsafe_fraction)
    stats = region_stats(mask, depth, normals, INTR)
    labels, bbox = oracles.label_ref(mask)
    assert np.array_equal(stats.labels(), labels)
    assert np.array_equal(stats.bbox, bbox)


@pytest.mark.parametrize("seed,unsafe_fraction", MASK_CASES)
def test_candidates_match_region_area_per_oracle_component(seed, unsafe_fraction):
    mask, depth, normals = _random_frame(seed, unsafe_fraction)
    ref = oracles.flood_fill_components(mask)
    if unsafe_fraction >= 0.45:
        assert len(ref) > 100
    order, stats = top_k_candidates(mask, depth, normals, INTR, k=len(ref) + 1)
    order = order.tolist()
    assert sorted(order) == list(range(len(ref)))
    assert order == sorted(order, key=lambda i: (-stats.area[i], i))
    _assert_flood_fill(stats, mask)
    for i in order:
        want = region_area(np.array(ref[i]), depth, normals, INTR)
        assert stats.pixel_count[i] == want.pixel_count
        assert stats.excluded_count[i] == want.excluded_count
        assert stats.area[i] == want.total_area


def test_top_k_fewer_components_than_k():
    mask = np.ones((8, 8), np.uint8)
    mask[0:2, 0:2] = 0
    mask[4:6, 4:6] = 0
    mask[7, 0] = 0
    depth = np.full((8, 8), 2.0)
    normals = normals_from_depth(depth, INTR)
    order, _ = top_k_candidates(mask, depth, normals, INTR, k=5)
    assert len(order) == 3


def test_top_k_depth_ranks_equal_pixel_counts():
    mask = np.ones((8, 8), np.uint8)
    mask[0:2, 0:2] = 0  # shallow blob, depth 2
    mask[5:7, 5:7] = 0  # deep blob, depth 4
    depth = np.full((8, 8), 2.0)
    depth[5:7, 5:7] = 4.0
    normals = np.zeros((8, 8, 3))
    normals[..., 2] = -1.0
    order, stats = top_k_candidates(mask, depth, normals, INTR, k=5)
    assert [tuple(stats.pixels(i)[0]) for i in order] == [(5, 5), (0, 0)]
    area = stats.area[order]
    assert area[0] == pytest.approx(4.0 * area[1], rel=1e-9)
    assert tuple(stats.bbox[order[0]]) == (5, 5, 6, 6)


def test_top_k_empty_safe_set_and_k_zero():
    depth = np.full((4, 4), 2.0)
    normals = normals_from_depth(depth, INTR)
    order, stats = top_k_candidates(np.ones((4, 4), np.uint8), depth, normals, INTR, 5)
    assert len(order) == len(stats) == 0
    order, stats = top_k_candidates(np.zeros((4, 4), np.uint8), depth, normals, INTR, 0)
    assert len(order) == 0 and len(stats) == 1


def test_top_k_candidates_disjoint_and_safe():
    rng = np.random.default_rng(1)
    mask = (rng.uniform(size=(12, 12)) > 0.45).astype(np.uint8)
    depth = 3.0 + rng.uniform(-0.5, 0.5, (12, 12))
    normals = normals_from_depth(depth, INTR)
    order, stats = top_k_candidates(mask, depth, normals, INTR, k=100)
    seen = set()
    for i in order:
        for r, col in stats.pixels(i):
            assert mask[r, col] == 0
            assert (r, col) not in seen
            seen.add((r, col))
    areas = stats.area[order].tolist()
    assert areas == sorted(areas, reverse=True)


@pytest.mark.parametrize("k", [1, 5, -1])
def test_top_k_ranks_ties_across_the_kth_place_by_id(k):
    # 60 runs of 1 to 3 pixels on a fronto-parallel plane: only three
    # distinct areas, so equal areas straddle every k-th place
    rng = np.random.default_rng(3)
    mask = np.ones((12, 40), np.uint8)
    for r in range(0, 12, 2):
        for c in range(0, 40, 4):
            mask[r, c:c + rng.integers(1, 4)] = 0
    depth = np.full(mask.shape, 2.0)
    normals = np.broadcast_to([0.0, 0.0, -1.0], mask.shape + (3,))
    area = region_stats(mask, depth, normals, INTR).area
    k %= len(area)
    want = np.argsort(-area, kind="stable")
    assert area[want[k - 1]] == area[want[k]]
    order, stats = top_k_candidates(mask, depth, normals, INTR, k)
    assert order.tolist() == want[:k].tolist()
    assert stats.area[order].tolist() == area[want[:k]].tolist()


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


def _maximum_filter(mask, radius):
    from scipy import ndimage

    return ndimage.maximum_filter(mask, size=2 * radius + 1, mode="constant", cval=0)


@pytest.mark.parametrize("radius", range(6))
def test_dilate_matches_maximum_filter_bitwise(radius):
    rng = np.random.default_rng(40 + radius)
    for shape in ((17, 23), (40, 31), (64, 64)):
        for fraction in (0.02, 0.2):
            mask = (rng.uniform(size=shape) < fraction).astype(np.uint8)
            out = dilate_unsafe(mask, radius)
            assert out.dtype == np.uint8
            assert np.array_equal(out, _maximum_filter(mask, radius))


@pytest.mark.parametrize("shape", [(1, 1), (1, 13), (13, 1), (2, 3), (4, 2), (3, 9)])
@pytest.mark.parametrize("radius", [1, 2, 5])
def test_dilate_thin_and_sub_window_masks(shape, radius):
    rng = np.random.default_rng(shape[0] * 31 + shape[1] + radius)
    for _ in range(4):
        mask = (rng.uniform(size=shape) < 0.25).astype(np.uint8)
        out = dilate_unsafe(mask, radius)
        assert out.shape == mask.shape
        assert np.array_equal(out, _maximum_filter(mask, radius))


def test_dilate_radius_beyond_the_mask_covers_it():
    mask = np.zeros((5, 7), np.uint8)
    mask[4, 0] = 1
    for radius in (6, 7, 10**9):  # 10**9 must not pad 10**9 rows
        assert np.array_equal(dilate_unsafe(mask, radius), np.ones_like(mask))
    assert np.array_equal(dilate_unsafe(mask, 4), _maximum_filter(mask, 4))


def test_dilate_semigroup():
    rng = np.random.default_rng(4)
    for _ in range(25):
        mask = (rng.uniform(size=(12, 12)) > 0.85).astype(np.uint8)
        two_step = dilate_unsafe(dilate_unsafe(mask, 1), 2)
        assert np.array_equal(two_step, dilate_unsafe(mask, 3))


def test_dilate_rejects_negative_radius():
    with pytest.raises(ValueError):
        dilate_unsafe(np.zeros((3, 3), np.uint8), -1)

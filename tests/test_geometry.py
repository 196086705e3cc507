import re

import numpy as np
import pytest

import oracles
from slzkit.camera import CameraIntrinsics
from slzkit import io as sio
from slzkit.errors import ShapeMismatchError
from slzkit.geometry import (
    AreaReport,
    _backproject_pixels,
    _difference,
    _difference_adjoint,
    normals_from_depth,
    pixel_areas,
    region_area,
)
from slzkit.synth import plane_depth, plane_unit_normal

INTR = CameraIntrinsics(100, 100, 50, 50)


def _backproject(u, v, d):
    """The package's point of integer pixel (u, v) at depth d."""
    depth = np.zeros((v + 1, u + 1))
    depth[v, u] = d
    return tuple(_backproject_pixels(depth, np.array([v]), np.array([u]), INTR)[0])


def test_backproject_principal_point():
    assert _backproject(50, 50, 5.0) == (0.0, 0.0, 5.0)
    assert oracles.backproject_ref(50, 50, 5.0, INTR) == (0.0, 0.0, 5.0)


def test_backproject_hand_value():
    assert _backproject(150, 50, 2.0) == (2.0, 0.0, 2.0)
    assert oracles.backproject_ref(150, 50, 2.0, INTR) == (2.0, 0.0, 2.0)
    rng = np.random.default_rng(0)
    for u, v in rng.integers(0, 200, (50, 2)).tolist():
        d = rng.uniform(0.1, 50)
        assert _backproject(u, v, d) == pytest.approx(oracles.backproject_ref(u, v, d, INTR),
                                                      rel=1e-15)


def test_backproject_invalid_depth():
    # the reference refuses a depth the package's kernels leave out
    with pytest.raises(ValueError):
        oracles.backproject_ref(10, 10, 0.0, INTR)
    with pytest.raises(ValueError):
        oracles.backproject_ref(10, 10, np.nan, INTR)


def test_normals_constant_depth():
    n = normals_from_depth(np.full((9, 9), 10.0), INTR)
    assert np.abs(n[1:-1, 1:-1] - np.array([0.0, 0.0, -1.0])).max() <= 1e-5


def test_normals_analytic_plane():
    a, b, c = 0.3, -0.15, 6.0
    depth = plane_depth(32, 32, INTR, a, b, c)
    n = normals_from_depth(depth, INTR)
    target = plane_unit_normal(a, b)
    assert np.abs(n[1:-1, 1:-1] - target).max() <= 1e-3


def test_normals_unit_norm_and_orientation():
    rng = np.random.default_rng(1)
    depth = 5.0 + rng.uniform(-0.2, 0.2, (16, 16))
    n = normals_from_depth(depth, INTR)
    norms = np.linalg.norm(n, axis=-1)
    valid = norms > 0
    assert valid.all()
    assert np.abs(norms[valid] - 1.0).max() <= 1e-4
    assert (n[valid][:, 2] <= 0).all()


def test_normals_too_small():
    with pytest.raises(ShapeMismatchError):
        normals_from_depth(np.full((2, 2), 1.0), INTR)


@pytest.mark.parametrize("shape", [(3, 3), (3, 8), (7, 4), (10, 11), (16, 16), (17, 9)])
@pytest.mark.parametrize("axis", [0, 1])
def test_difference_adjoint_is_the_transpose_of_the_stencil(shape, axis):
    # <D p, g> = <p, D^T g>: the DNCL gradient chains through D^T
    rng = np.random.default_rng(10 * shape[0] + shape[1] + axis)
    p, g = rng.normal(size=shape), rng.normal(size=shape)
    adjoint = _difference_adjoint(g, axis, np.zeros(shape))
    assert np.vdot(_difference(p, axis), g) == pytest.approx(np.vdot(p, adjoint), rel=1e-12,
                                                             abs=1e-12)
    # it adds into the plane it is given
    base = rng.normal(size=shape)
    added = _difference_adjoint(g, axis, base.copy())
    assert np.allclose(added - base, adjoint, rtol=0, atol=1e-12)


def test_normals_invalid_neighbor_propagation():
    depth = np.full((7, 7), 4.0)
    depth[3, 3] = -1.0  # invalid sentinel
    n = normals_from_depth(depth, INTR)
    norms = np.linalg.norm(n, axis=-1)
    for r, c in [(3, 3), (2, 3), (4, 3), (3, 2), (3, 4)]:
        assert norms[r, c] == 0.0
    assert norms[1, 1] > 0.99


def _pixel_area(d, n_z, n_z_min=0.1):
    """The package's area of one pixel at depth d with normal z component n_z."""
    areas, included = pixel_areas(np.array([[d]]), np.array([[(0.0, 0.0, n_z)]]), INTR, n_z_min)
    return float(areas[0, 0]) if included[0, 0] else None


def test_pixel_area_hand_value():
    assert _pixel_area(2.0, -1.0) == pytest.approx(4e-4, rel=1e-12)
    assert _pixel_area(2.0, -1.0) == oracles.pixel_area_ref(2.0, -1.0, INTR)


def test_pixel_area_tilt_scaling():
    a_flat = _pixel_area(3.0, -1.0)
    a_tilt = _pixel_area(3.0, -0.5)
    assert a_tilt == 2.0 * a_flat == 2.0 * oracles.pixel_area_ref(3.0, -1.0, INTR)


def test_pixel_area_exclusions():
    assert _pixel_area(2.0, 0.0) is None is oracles.pixel_area_ref(2.0, 0.0, INTR)
    assert _pixel_area(2.0, -0.05) is None is oracles.pixel_area_ref(2.0, -0.05, INTR)
    assert _pixel_area(-1.0, -1.0) is None
    with pytest.raises(ValueError):
        oracles.pixel_area_ref(-1.0, -1.0, INTR)


@pytest.mark.parametrize("n_z_min", [0.0, -1.0, float("nan"), 1.5])
def test_n_z_min_outside_0_1_is_rejected(n_z_min):
    # at n_z_min <= 0 a pixel with a zero normal would divide by 0; NaN excludes every pixel
    depth, normals = np.full((4, 5), 2.0), np.zeros((4, 5, 3))
    with pytest.raises(ValueError, match=r"n_z_min must be in \(0, 1\]"):
        pixel_areas(depth, normals, INTR, n_z_min=n_z_min)


def test_n_z_min_of_1_keeps_only_fronto_parallel_pixels():
    normals = np.array([[(0.0, 0.0, -1.0), (0.6, 0.0, -0.8)]])
    areas, included = pixel_areas(np.full((1, 2), 2.0), normals, INTR, n_z_min=1.0)
    assert included.tolist() == [[True, False]]
    assert areas[0, 0] == oracles.pixel_area_ref(2.0, -1.0, INTR, n_z_min=1.0)
    assert areas[0, 1] == 0.0
    assert oracles.pixel_area_ref(2.0, -0.8, INTR, n_z_min=1.0) is None


def test_region_area_fronto_parallel_closed_form():
    depth = np.full((24, 20), 3.0)
    normals = normals_from_depth(depth, INTR)
    rep = region_area(np.ones((24, 20), bool), *pixel_areas(depth, normals, INTR))
    expected = 24 * 20 * 9.0 / (100 * 100)
    assert rep.pixel_count == 480 and rep.excluded_count == 0
    assert rep.total_area == pytest.approx(expected, rel=1e-6)


def test_region_area_empty_region():
    depth = np.full((8, 8), 2.0)
    normals = normals_from_depth(depth, INTR)
    rep = region_area(np.zeros((8, 8), bool), *pixel_areas(depth, normals, INTR))
    assert rep == AreaReport(0.0, 0, 0)


def test_region_area_shape_mismatch(tmp_path):
    depth = np.full((8, 8), 2.0)
    normals = normals_from_depth(depth, INTR)
    planes = pixel_areas(depth, normals, INTR)
    with pytest.raises(ShapeMismatchError):
        region_area(np.ones((9, 8), bool), *planes)
    # the area takes the (H, W, 3) normals of the depth's frame: an (H, W)
    # n_z plane, two components or another frame size, given as an array
    # or as a reader of its file, raise naming their shape
    for i, bad in enumerate((normals[..., 2], normals[..., :2], normals[:7], normals[:, :7])):
        sio.write_raster(bad, tmp_path / f"{i}.f32r")
        for given in (bad, sio.RasterRows(tmp_path / f"{i}.f32r")):
            with pytest.raises(ShapeMismatchError, match=re.escape(
                    f"normals shape {bad.shape} incompatible with depth (8, 8)")):
                pixel_areas(depth, given, INTR)
    with pytest.raises(ShapeMismatchError, match="got float64"):
        region_area(np.array([[1.0, 2.0]]), *planes)
    # a pixel list or a 0/1 mask of another dtype is not a region
    expected = re.escape("region must be a boolean mask of shape (8, 8), got ")
    with pytest.raises(ShapeMismatchError, match=expected + re.escape("int64 of shape (3, 2)")):
        region_area(np.array([[0, 0], [1, 2], [7, 7]]), *planes)
    with pytest.raises(ShapeMismatchError, match=expected + re.escape("uint8 of shape (8, 8)")):
        region_area(np.ones((8, 8), np.uint8), *planes)


def test_pixel_areas_of_given_normals_takes_one_depth_raster():
    # derived normals take a stack of depth rasters; given ones take one raster
    depth = np.full((8, 8), 2.0)
    normals = normals_from_depth(depth, INTR)
    with pytest.raises(ShapeMismatchError) as exc:
        pixel_areas(np.stack([depth, depth]), normals, INTR)
    assert str(exc.value) == "depth must be 2-D, got shape (2, 8, 8)"


def test_region_area_additive_over_disjoint_regions():
    rng = np.random.default_rng(3)
    depth = 5.0 + rng.uniform(-1, 1, (16, 16))
    normals = normals_from_depth(depth, INTR)
    split = rng.uniform(size=(16, 16)) > 0.5
    left = region_area(split, *pixel_areas(depth, normals, INTR))
    right = region_area(~split, *pixel_areas(depth, normals, INTR))
    union = region_area(np.ones((16, 16), bool), *pixel_areas(depth, normals, INTR))
    assert left.total_area + right.total_area == pytest.approx(union.total_area, rel=1e-12)
    assert left.pixel_count + right.pixel_count == union.pixel_count


def test_region_area_quadratic_depth_scaling():
    rng = np.random.default_rng(4)
    depth = 3.0 + rng.uniform(-0.3, 0.3, (16, 16))
    normals = normals_from_depth(depth, INTR)
    base = region_area(np.ones((16, 16), bool), *pixel_areas(depth, normals, INTR))
    scaled = region_area(np.ones((16, 16), bool), *pixel_areas(2.5 * depth, normals, INTR))
    assert scaled.total_area == pytest.approx(2.5**2 * base.total_area, rel=1e-6)


def test_region_area_counts_excluded_pixels():
    depth = np.full((6, 6), 2.0)
    normals = np.zeros((6, 6, 3))
    normals[..., 2] = -1.0
    normals[2, 2] = (0.999, 0.0, -0.04)  # steeper than the n_z cutoff
    depth[4, 4] = np.nan  # invalid depth
    rep = region_area(np.ones((6, 6), bool), *pixel_areas(depth, normals, INTR))
    assert rep.pixel_count == 34
    assert rep.excluded_count == 2

import numpy as np
import pytest

import oracles
from slzkit.camera import CameraIntrinsics
from slzkit.synth import Box, Scene, exact_plane_cell_areas, parse_scene, plane_depth, render_scene

INTR = CameraIntrinsics(100, 100, 31.5, 31.5)


def test_flat_plane_render():
    scene = Scene(64, 64, INTR, (0.0, 0.0, 5.0))
    r = render_scene(scene)
    assert np.all(r.depth == 5.0)
    assert not r.mask.any()
    assert np.allclose(r.normals, [0, 0, -1])
    assert np.allclose(r.exact_area, 25.0 / (100 * 100))
    assert r.sidecar["analytic_total_area"] == pytest.approx(64 * 64 * 25.0 / 1e4, rel=1e-12)


def test_box_carves_footprint_and_buffer():
    scene = Scene(64, 64, INTR, (0.0, 0.0, 5.0),
                  boxes=(Box(20, 24, 30, 28, 2.0),), buffer_radius=2)
    r = render_scene(scene)
    assert np.all(r.depth[24:29, 20:31] == 3.0)
    assert r.depth[0, 0] == 5.0
    # footprint plus 2-pixel Chebyshev buffer is unsafe, one pixel beyond is safe
    assert r.mask[24 - 2, 20 - 2] == 1
    assert r.mask[24 - 3, 20 - 3] == 0
    assert np.all(r.mask[22:31, 18:33] == 1)
    assert np.allclose(r.normals[24:29, 20:31], [0, 0, -1])
    assert r.sidecar["box0_top_area"] == pytest.approx(11 * 5 * 9.0 / 1e4, rel=1e-12)


def test_exact_cell_areas_match_corner_projection_oracle():
    for a, b in [(0.2, 0.1), (0.15, 0.0), (0.0, -0.2), (0.0, 0.0), (-0.3, 0.25)]:
        cells, _ = exact_plane_cell_areas(48, 40, INTR, a, b, 6.0)
        total = float(cells.sum())
        ref = oracles.plane_patch_area_ref(48, 40, INTR, a, b, 6.0)
        assert total == pytest.approx(ref, rel=1e-9), (a, b)


def test_plane_depth_satisfies_plane_equation():
    a, b, c = 0.2, -0.1, 5.0
    depth = plane_depth(16, 16, INTR, a, b, c)
    rng = np.random.default_rng(0)
    for _ in range(20):
        i, j = rng.integers(0, 16, 2)
        d = depth[i, j]
        x = (j - INTR.cx) * d / INTR.fx
        y = (i - INTR.cy) * d / INTR.fy
        assert d == pytest.approx(a * x + b * y + c, rel=1e-12)


def test_sidecar_area_equals_patch_area_over_cos_tilt():
    # Total surface area is the Z-projected (horizontal-plane) patch area
    # divided by cos(tilt); the oracle computes it from corner geometry.
    a, b, c = 0.25, 0.1, 4.0
    scene = Scene(32, 32, INTR, (a, b, c))
    r = render_scene(scene)
    ref = oracles.plane_patch_area_ref(32, 32, INTR, a, b, c)
    assert r.sidecar["analytic_total_area"] == pytest.approx(ref, rel=1e-9)


def test_scene_validation():
    with pytest.raises(ValueError):
        Scene(2, 2, INTR, (0, 0, 5.0))
    with pytest.raises(ValueError):
        Scene(32, 32, INTR, (0, 0, -1.0))
    with pytest.raises(ValueError):
        Scene(32, 32, INTR, (0, 0, 5.0), boxes=(Box(0, 0, 40, 4, 1.0),))
    # 0.5 rendered with no buffer, and the sidecar still said buffer_radius=0.5
    with pytest.raises(ValueError, match=r"buffer radius must be an integer, got 0.5$"):
        Scene(32, 32, INTR, (0, 0, 5.0), buffer_radius=0.5)
    with pytest.raises(ValueError):
        Box(5, 5, 4, 9, 1.0)
    with pytest.raises(ValueError):
        Box(0, 0, 3, 3, -2.0)


def test_box_taller_than_plane_depth_rejected():
    scene = Scene(32, 32, INTR, (0.0, 0.0, 2.0), boxes=(Box(4, 4, 8, 8, 3.0),))
    with pytest.raises(ValueError):
        render_scene(scene)


SPEC = """\
# desk fixture
[scene]
width=48
height=40
fx=100
fy=100
cx=23.5
cy=19.5
buffer=1

[plane]
a=0.1
b=0.0
c=5.0

[box]
u0=10
v0=10
u1=14
v1=13
height=1.0

[box]
u0=30
v0=20
u1=40
v1=30
height=2.0
"""


def test_parse_scene_round_trip(tmp_path):
    path = tmp_path / "scene.txt"
    path.write_text(SPEC)
    scene = parse_scene(path)
    assert (scene.width, scene.height) == (48, 40)
    assert scene.intr.cx == 23.5
    assert scene.plane == (0.1, 0.0, 5.0)
    assert len(scene.boxes) == 2
    assert scene.boxes[1].height == 2.0
    assert scene.buffer_radius == 1
    render_scene(scene)  # renders without error


@pytest.mark.parametrize("mutant", [
    lambda s: s.replace("[plane]", "[slope]"),
    lambda s: s.replace("a=0.1\n", ""),
    lambda s: s.replace("width=48", "width=oops"),
    lambda s: s + "\n[plane]\na=1\nb=1\nc=1\n",
    lambda s: s.replace("[scene]", "stray=1\n[scene]"),
])
def test_parse_scene_errors(tmp_path, mutant):
    path = tmp_path / "scene.txt"
    path.write_text(mutant(SPEC))
    with pytest.raises(ValueError):
        parse_scene(path)

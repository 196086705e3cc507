"""Synthetic scene fixtures: tilted ground plane plus box obstacles.

The ground surface is the plane Z = a*X + b*Y + c in camera coordinates,
rendered through the pinhole model. Obstacles are image-aligned pillars:
a pixel rectangle whose top face sits at a constant depth `height`
meters closer to the camera than the plane at the rectangle's center.
Keeping obstacles pixel-aligned with flat tops means every ground-truth
quantity (depths, normals, per-pixel surface areas) has a closed form.

Scene-spec files are plain text: a [scene] block with resolution,
intrinsics and the unsafe buffer radius, a [plane] block with a/b/c, and
zero or more [box] blocks with u0/v0/u1/v1/height. Any other section or
key is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .camera import CameraIntrinsics
from .geometry import _ray_xy
from .io import read_sections
from .slz import SAFE, UNSAFE, _check_radius, dilate_unsafe


@dataclass(frozen=True)
class Box:
    """Image-aligned obstacle: inclusive pixel rect raised above the plane."""

    u0: int
    v0: int
    u1: int
    v1: int
    height: float

    def __post_init__(self):
        if not (0 <= self.u0 <= self.u1 and 0 <= self.v0 <= self.v1):
            raise ValueError(f"degenerate box rect ({self.u0},{self.v0})-({self.u1},{self.v1})")
        if not (math.isfinite(self.height) and self.height > 0):
            raise ValueError(f"box height must be finite and > 0, got {self.height}")


@dataclass(frozen=True)
class Scene:
    width: int
    height: int
    intr: CameraIntrinsics
    plane: tuple  # (a, b, c): ground plane Z = a X + b Y + c
    boxes: tuple = ()
    buffer_radius: int = 0

    def __post_init__(self):
        if self.width < 3 or self.height < 3:
            raise ValueError(f"scene must be at least 3x3, got {self.width}x{self.height}")
        a, b, c = self.plane
        if not all(math.isfinite(v) for v in (a, b, c)) or c <= 0:
            raise ValueError(f"plane needs finite a, b and c > 0, got {self.plane}")
        _check_radius(self.buffer_radius, "buffer radius")
        for box in self.boxes:
            if box.u1 >= self.width or box.v1 >= self.height:
                raise ValueError(f"box {box} exceeds the {self.width}x{self.height} frame")


@dataclass
class SceneRender:
    depth: np.ndarray  # (H, W) float64, 0 where the ray misses the scene
    normals: np.ndarray  # (H, W, 3) float64 analytic unit normals
    mask: np.ndarray  # (H, W) uint8 safe/unsafe
    exact_area: np.ndarray  # (H, W) float64 exact per-pixel surface area, m^2
    sidecar: dict = field(default_factory=dict)


def plane_depth(height, width, intr: CameraIntrinsics, a, b, c):
    """Pinhole depth raster of the plane Z = a X + b Y + c; 0 beyond the horizon."""
    xs, ys = _ray_xy(np.arange(width, dtype=np.float64), np.arange(height, dtype=np.float64), intr)
    g = 1.0 - a * xs[None, :] - b * ys[:, None]
    return np.divide(c, g, out=np.zeros_like(g), where=g > 0)


def plane_unit_normal(a, b):
    """Camera-facing unit normal of Z = a X + b Y + c."""
    n = np.array([a, b, -1.0]) / math.sqrt(a * a + b * b + 1.0)
    return n


def exact_plane_cell_areas(height, width, intr: CameraIntrinsics, a, b, c):
    """``(cells, horizon)``: the exact surface area of the plane patch seen
    by each whole pixel, and the mask of the cells that reach the horizon.

    Integrates the area element c^2 sqrt(1+a^2+b^2) / (fx fy g^3) in
    closed form over each pixel cell [u-1/2, u+1/2] x [v-1/2, v+1/2].
    With g at the cell corners, the integral of 1/g^3 is
    (g++ + g--) / (2 g++ g+- g-+ g--), which has no cancellation however
    small the tilt. A cell with any corner at g <= 0 reaches the horizon,
    where the integral diverges, and gets 0.
    """
    alpha = a / intr.fx
    beta = b / intr.fy
    us = np.arange(width, dtype=np.float64) - intr.cx
    vs = np.arange(height, dtype=np.float64) - intr.cy
    # g = 1 - alpha u - beta v at a cell corner is r - q: a column term r at
    # u + 1/2 or u - 1/2, and a row term q at v + 1/2 or v - 1/2
    rp, rm = (1.0 - alpha * (us + 0.5))[None, :], (1.0 - alpha * (us - 0.5))[None, :]
    qp, qm = (beta * (vs + 0.5))[:, None], (beta * (vs - 0.5))[:, None]
    # rounding is monotone, so the least corner is min r - max q
    horizon = np.subtract(np.minimum(rp, rm), np.maximum(qp, qm)) <= 0

    # (g++ + g--) / (2 g++ g+- g-+ g--) in three planes: g++, the product and
    # one corner at a time
    gpp = np.subtract(rp, qp)
    den = gpp * 2.0
    corner = np.empty_like(gpp)
    with np.errstate(divide="ignore", invalid="ignore"):
        for r, q in ((rp, qm), (rm, qp), (rm, qm)):
            den *= np.subtract(r, q, out=corner)
        gpp += corner  # g++ + g--
        cell = np.divide(gpp, den, out=gpp)
    del den, corner

    cell *= c * c * math.sqrt(a * a + b * b + 1.0) / (intr.fx * intr.fy)
    cell[horizon] = 0.0
    return cell, horizon


def render_scene(scene: Scene) -> SceneRender:
    """Depth, analytic normals, safe mask and exact per-pixel areas."""
    a, b, c = scene.plane
    intr = scene.intr
    depth = plane_depth(scene.height, scene.width, intr, a, b, c)
    ground_visible = depth > 0
    # what each pixel sees: 0 nothing, 1 the ground, 2 a box top
    kind = ground_visible.astype(np.uint8)
    exact, horizon = exact_plane_cell_areas(scene.height, scene.width, intr, a, b, c)

    footprint = np.zeros((scene.height, scene.width), dtype=np.uint8)
    box_areas = []
    for box in scene.boxes:
        rx, ry = _ray_xy((box.u0 + box.u1) / 2.0, (box.v0 + box.v1) / 2.0, intr)
        g_center = 1.0 - a * rx - b * ry
        if g_center <= 0:
            raise ValueError(f"box {box} centered past the plane horizon")
        z_top = c / g_center - box.height
        if z_top <= 0:
            raise ValueError(f"box {box} top would sit behind the camera")
        win = np.s_[box.v0:box.v1 + 1, box.u0:box.u1 + 1]
        wins = ~ground_visible[win] | (z_top < depth[win])
        depth[win][wins] = z_top
        kind[win][wins] = 2
        exact[win][wins] = z_top * z_top / (intr.fx * intr.fy)
        footprint[win] = 1
        box_areas.append(float(exact[win][wins].sum()))

    normals = np.take(np.array([(0.0, 0.0, 0.0), plane_unit_normal(a, b), (0.0, 0.0, -1.0)]),
                      kind, axis=0)
    visible = kind > 0
    mask = dilate_unsafe(footprint, scene.buffer_radius)
    mask[~visible] = UNSAFE

    sidecar = {
        "plane_a": a, "plane_b": b, "plane_c": c,
        "buffer_radius": scene.buffer_radius,
        "analytic_total_area": float(exact[visible].sum()),
        "analytic_safe_area": float(exact[visible & (mask == SAFE)].sum()),
    }
    if horizon.any():
        sidecar["horizon_cells"] = int(horizon.sum())
    for i, area in enumerate(box_areas):
        sidecar[f"box{i}_top_area"] = area
    return SceneRender(depth=depth, normals=normals, mask=mask,
                       exact_area=exact, sidecar=sidecar)


_SCENE_KEYS = {
    "scene": {"width": int, "height": int, "fx": float, "fy": float, "cx": float, "cy": float,
              "buffer": int},
    "plane": {"a": float, "b": float, "c": float},
    "box": {"u0": int, "v0": int, "u1": int, "v1": int, "height": float},
}


def parse_scene(path) -> Scene:
    """Parse a scene-spec file (see module docstring for the format)."""
    sections = read_sections(path, _SCENE_KEYS,
                             {name: [k for k in keys if k != "buffer"]
                              for name, keys in _SCENE_KEYS.items()})
    names = [name for name, _ in sections]
    for name in ("scene", "plane"):
        if names.count(name) != 1:
            raise ValueError(f"{path}: expected one [{name}] section, got {names.count(name)}")
    scene_kv = sections[names.index("scene")][1]
    plane_kv = sections[names.index("plane")][1]
    try:
        return Scene(width=scene_kv["width"], height=scene_kv["height"],
                     intr=CameraIntrinsics(*(scene_kv[k] for k in ("fx", "fy", "cx", "cy"))),
                     plane=(plane_kv["a"], plane_kv["b"], plane_kv["c"]),
                     boxes=tuple(Box(**kv) for name, kv in sections if name == "box"),
                     buffer_radius=scene_kv.get("buffer", 0))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

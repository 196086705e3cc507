"""Golden pins of the `area` and `candidates` CSVs.

Each case runs one CLI call in-process on seeded inputs built here and
compares its exit code, the SHA-256 of its stdout and its stderr with
``golden.json``. These CSVs come from IEEE add, multiply, divide and sqrt
and a sequential ``np.bincount`` only, so the bytes are the same on every
machine. A change that alters any of them, even in the last printed
digit, fails here.

After a deliberate output change, regenerate the manifest with

    PYTHONPATH=src python tests/test_golden.py

and review the entries that changed in the diff.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from slzkit import io as sio
from slzkit.camera import CameraIntrinsics, write_intrinsics
from slzkit.cli import main
from slzkit.synth import plane_depth

MANIFEST = Path(__file__).with_name("golden.json")
H, W = 120, 200
INTR = CameraIntrinsics(150.0, 150.0, (W - 1) / 2, (H - 1) / 2)


# Depths of a run whose areas, under fronto-parallel normals and INTR, are
# a = 10.16015625 (an even last mantissa bit, a decimal midpoint at 9 digits)
# and twice half an ulp of a. Summed in row-major order, both halves round
# away (ties to even) and the row prints 10.1601562; in any other order
# they add up to one ulp first and it prints 10.1601563.
ORDER_DEPTHS = (478.125, 150.0 * 2.0 ** -25, 150.0 * 2.0 ** -25)


def _unit(v):
    """Rows of v over their norms, summed in x, y, z order."""
    return v / np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]
                       + v[..., 2] * v[..., 2])[..., None]


def build_inputs(root):
    """Write the seeded rasters, masks and intrinsics into root."""
    rng = np.random.Generator(np.random.PCG64(20251))
    write_intrinsics(root / "intr.txt", INTR)
    # a tilted plane whose last rows lie past the horizon (depth 0), with
    # noise and NaN holes
    tilted = plane_depth(H, W, INTR, 0.2, 2.8, 6.0) * (1.0 + rng.uniform(-1e-3, 1e-3, (H, W)))
    tilted[rng.uniform(size=(H, W)) < 0.01] = np.nan
    sio.write_raster(tilted, root / "tilted.f32r")
    # random camera-facing normals; about a tenth are steeper than n_z_min
    normals = _unit(rng.normal(size=(H, W, 3)))
    normals[..., 2] = -np.abs(normals[..., 2])
    sio.write_raster(normals, root / "normals.f32r")
    # a fronto-parallel frame: equal-sized regions have equal areas
    sio.write_raster(np.full((H, W), 5.0), root / "flat.f32r")
    flat_normals = np.zeros((H, W, 3))
    flat_normals[..., 2] = -1.0
    sio.write_raster(flat_normals, root / "flat_normals.f32r")
    # 120 safe rectangles, 10 rows of 12
    grid = np.ones((H, W), np.uint8)
    for r in range(10):
        for c in range(12):
            grid[12 * r + 2:12 * r + 10, 16 * c + 3:16 * c + 14] = 0
    sio.write_mask(grid, root / "grid.pgm")
    speckle = (rng.uniform(size=(H, W)) < 0.5).astype(np.uint8)
    sio.write_mask(speckle, root / "speckle.pgm")
    # logits that mark the grid safe, blurred by noise
    logits = rng.normal(size=(H, W, 2))
    logits[..., 0] += 1.5 * (grid == 0)
    sio.write_raster(logits, root / "logits.f32r")
    # one safe run of three pixels whose area sum shows the summation order
    order = np.full((3, 8), 5.0)
    order[1, 2:5] = ORDER_DEPTHS
    sio.write_raster(order, root / "order.f32r")
    sio.write_raster(flat_normals[:3, :8], root / "order_normals.f32r")
    order_mask = np.ones((3, 8), np.uint8)
    order_mask[1, 2:5] = 0
    sio.write_mask(order_mask, root / "order.pgm")


def _frame(depth, normals=None):
    return ["--depth", depth + ".f32r", "--intrinsics", "intr.txt",
            *(["--normals", normals + ".f32r"] if normals else ["--derive-normals"])]


CASES = {
    "area-grid-normals": ["area", *_frame("tilted", "normals"), "--mask", "grid.pgm"],
    "area-grid-derived": ["area", *_frame("tilted"), "--mask", "grid.pgm"],
    "area-speckle-normals": ["area", *_frame("tilted", "normals"), "--mask", "speckle.pgm"],
    "area-speckle-derived": ["area", *_frame("tilted"), "--mask", "speckle.pgm"],
    "area-speckle-flat": ["area", *_frame("flat", "flat_normals"), "--mask", "speckle.pgm"],
    "area-grid-region-id": ["area", *_frame("tilted", "normals"), "--mask", "grid.pgm",
                            "--region-id", "7"],
    "area-speckle-region-id": ["area", *_frame("tilted"), "--mask", "speckle.pgm",
                               "--region-id", "500"],
    "area-missing-region-id": ["area", *_frame("tilted", "normals"), "--mask", "grid.pgm",
                               "--region-id", "121"],
    "area-row-major-sum": ["area", *_frame("order", "order_normals"), "--mask", "order.pgm"],
    "candidates-grid-normals": ["candidates", *_frame("tilted", "normals"), "--mask", "grid.pgm",
                                "--k", "5"],
    "candidates-grid-flat": ["candidates", *_frame("flat", "flat_normals"), "--mask", "grid.pgm",
                             "--k", "5"],
    "candidates-speckle-flat": ["candidates", *_frame("flat", "flat_normals"),
                                "--mask", "speckle.pgm", "--k", "5"],
    "candidates-speckle-derived": ["candidates", *_frame("tilted"), "--mask", "speckle.pgm",
                                   "--k", "5"],
    "candidates-logits-dilate": ["candidates", *_frame("tilted"), "--logits", "logits.f32r",
                                 "--dilate", "2"],
    "candidates-row-major-sum": ["candidates", *_frame("order", "order_normals"),
                                "--mask", "order.pgm"],
    "candidates-logits-dilate-normals": ["candidates", *_frame("tilted", "normals"),
                                         "--logits", "logits.f32r", "--dilate", "2"],
}


def run_case(root, name):
    """Exit code, stdout SHA-256 and stderr of one case, run in root."""
    argv = [str(root / a) if a.endswith((".f32r", ".pgm", ".txt")) else a for a in CASES[name]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    build_inputs(path)
    return path


def test_inputs_exercise_exclusions_and_many_regions(root):
    from slzkit.slz import connected_components

    speckle = sio.read_mask(root / "speckle.pgm")
    assert len(connected_components(speckle)) > 1000
    assert len(connected_components(sio.read_mask(root / "grid.pgm"))) == 120
    normals = sio.read_raster(root / "normals.f32r")
    assert (np.abs(normals[..., 2]) < 0.1).any()
    tilted = sio.read_raster(root / "tilted.f32r")
    assert np.isnan(tilted).any() and (tilted == 0).any()


def test_order_run_prints_its_summation_order():
    a, b, c = (d * d / (INTR.fx * INTR.fy) for d in ORDER_DEPTHS)
    assert f"{a + b + c:.9g}" == "10.1601562" and f"{c + b + a:.9g}" == "10.1601563"


def test_manifest_covers_every_case():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_golden_pin(root, name):
    want = json.loads(MANIFEST.read_text())[name]
    assert run_case(root, name) == want


def regenerate():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        build_inputs(root)
        pins = {name: run_case(root, name) for name in CASES}
    MANIFEST.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {os.path.relpath(MANIFEST)}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()

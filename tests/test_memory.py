"""Peak memory of the frame-sized CLI calls and gradients, in float64 (H, W) planes.

Each call runs in-process under tracemalloc on a seeded 360x640 frame. The
bounds hold the float32 frames and the few float64 planes the arithmetic
needs at once, with one and a half planes or so to spare; a whole-raster float64 copy
of an input, or a kernel that keeps its intermediates alive, goes past them.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from slzkit import io as sio
from slzkit.camera import CameraIntrinsics, read_intrinsics, write_intrinsics
from slzkit.cli import main
from slzkit.geometry import normals_from_depth
from slzkit.losses import depth_normal_consistency_grad, slz_loss_grad
from slzkit.synth import plane_depth

H, W = 360, 640
PLANE = H * W * 8  # bytes of one float64 (H, W) plane
STEPS = 5


@pytest.fixture(scope="module")
def frame(tmp_path_factory):
    """Paths of a seeded frame: a tilted noisy plane, its normals, a mask,
    logits, and five steps of depth, confidence and logit predictions."""
    root = tmp_path_factory.mktemp("frame")
    rng = np.random.default_rng(9)
    intr = CameraIntrinsics(500.0, 500.0, 319.5, 179.5)
    depth = plane_depth(H, W, intr, 0.1, -0.2, 8.0) * (1.0 + rng.uniform(-1e-3, 1e-3, (H, W)))
    mask = np.ones((H, W), np.uint8)
    for r0, c0 in rng.integers(0, (H - 40, W - 40), (12, 2)):
        mask[r0:r0 + 40, c0:c0 + 40] = 0
    paths = {"intrinsics": root / "intrinsics.txt", "depth": root / "depth.f32r",
             "normals": root / "normals.f32r", "mask": root / "mask.pgm",
             "logits": root / "logits.f32r", "gt_conf": root / "gt_conf.f32r"}
    write_intrinsics(paths["intrinsics"], intr)
    sio.write_raster(depth, paths["depth"])
    sio.write_raster(normals_from_depth(depth, intr), paths["normals"])
    sio.write_mask(mask, paths["mask"])
    sio.write_raster(rng.normal(size=(H, W, 2)), paths["logits"])
    sio.write_raster(rng.uniform(size=(H, W)), paths["gt_conf"])
    for kind in ("pred", "conf", "logits"):
        paths[kind + "s"] = []
        for t in range(STEPS):
            path = root / f"{kind}{t}.f32r"
            shape = (H, W, 2) if kind == "logits" else (H, W)
            raster = rng.uniform(size=shape) if kind == "conf" else rng.normal(size=shape)
            sio.write_raster(depth + 0.05 * raster if kind == "pred" else raster, path)
            paths[kind + "s"].append(path)
    return {k: v if isinstance(v, list) else str(v) for k, v in paths.items()}


def _frame_args(f):
    return ["--depth", f["depth"], "--intrinsics", f["intrinsics"], "--derive-normals"]


CALLS = {  # name -> (argv of the frame, bound in planes)
    # every pixel valid: the draws are the flat pixel indices, 1.55 planes
    # measured; an intp index of the valid pixels brought the peak to 2.2
    # planes and an (N, 2) array of their coordinates to 5.2
    "loss vnl": (lambda f: ["loss", "vnl", "--pred", f["preds"][0], "--gt", f["depth"],
                            "--intrinsics", f["intrinsics"], "--samples", "1000"], 2.0),
    # the value builds its dot plane and pixel mask a band of rows at a time;
    # whole-frame tangent and cross planes brought the peak to 10.2 planes
    "loss dncl": (lambda f: ["loss", "dncl", "--depth", f["depth"], "--normals", f["normals"],
                             "--intrinsics", f["intrinsics"]], 6.75),
    # the losses read step t when they reach it and drop it before step t + 1;
    # every step read up front brought the peaks to 9.6 and 9.3 planes. The
    # SLZ softmax runs on row bands into one term plane, 2.83 planes measured
    # (4.55 with three whole planes); one residual plane serves both sequential
    # inputs, 2.74 planes measured (3.74 with one for each)
    "loss slz": (lambda f: ["loss", "slz", "--logits", *f["logitss"], "--labels", f["mask"]],
                 4.25),
    "loss sequential": (lambda f: ["loss", "sequential", "--preds", *f["preds"],
                                   "--confs", *f["confs"], "--gt-depth", f["depth"],
                                   "--gt-conf", f["gt_conf"]], 3.5),
    # the derived normals are one float64 n_z plane, 3.9 planes measured; the
    # (H, W, 3) float64 normals brought the peak to 5.9 planes
    "area": (lambda f: ["area", *_frame_args(f), "--mask", f["mask"]], 5.5),
    # the float32 depth and normals are freed once the area planes are
    # formed, before region_stats paints its (H, W) id plane: 4.4 planes
    # measured; a label plane kept beside them brought the peak to 7.4
    "area --normals": (lambda f: ["area", "--depth", f["depth"], "--intrinsics", f["intrinsics"],
                                  "--normals", f["normals"], "--mask", f["mask"]], 6.0),
    "candidates": (lambda f: ["candidates", *_frame_args(f), "--logits", f["logits"],
                              "--dilate", "2", "--k", "5"], 5.5),
}


@pytest.mark.parametrize("name", CALLS)
def test_peak_memory_of_a_frame_call_is_bounded(capsys, frame, name):
    argv, bound = CALLS[name]
    argv = [str(a) for a in argv(frame)]
    gc.collect()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0 and out
    assert peak / PLANE <= bound, f"{name}: peak {peak / PLANE:.2f} planes > {bound}"


def test_peak_memory_of_the_slz_gradient_is_bounded(frame):
    # five returned (H, W, 2) gradients are 10 planes of the 11.70 measured,
    # each written band by band; whole-plane softmax terms brought the peak to
    # 15.38 planes, and a per-step stack of the probabilities and of the
    # one-hot labels, zeroed outside the valid set afterwards, to 19.5
    logits = [sio.read_raster(p) for p in frame["logitss"]]
    labels = sio.read_mask(frame["mask"])
    gc.collect()
    tracemalloc.start()
    try:
        _, grads = slz_loss_grad(logits, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grads) == STEPS
    assert peak / PLANE <= 13.0, f"peak {peak / PLANE:.2f} planes > 13.0"


def test_peak_memory_of_the_dncl_gradient_is_bounded(frame):
    # the gradient runs in the value's row bands, each with two halo rows:
    # 3.59 planes measured (the value pass alone 3.21): the returned plane, the
    # pixel mask and one band's planes. The whole frame as one band measured
    # 13.45, and all six tangent planes and six masked tangent gradients of the
    # adjoint alive at once over the whole frame 32.3
    intr = read_intrinsics(frame["intrinsics"])
    depth = sio.read_raster(frame["depth"]).astype(np.float64)
    depth[100, 200], depth[250, 400] = np.nan, np.inf
    normals = sio.read_raster(frame["normals"]).astype(np.float64)
    gc.collect()
    tracemalloc.start()
    try:
        loss, grad = depth_normal_consistency_grad(depth, normals, intr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss) and np.isfinite(grad).all()
    assert peak / PLANE <= 4.0, f"peak {peak / PLANE:.2f} planes > 4.0"


def test_peak_memory_of_refine_demo_does_not_grow_with_its_steps(capsys, tmp_path):
    # the run holds one state at a time: 4.31 and 4.35 MiB measured at T = 4
    # and 16; holding all T + 1 states brought them to 5.52 and 9.20 MiB
    def argv(steps):
        return ["refine-demo", "--base", "224", "--hidden", "8", "--T", str(steps),
                "--out", str(tmp_path / f"T{steps}")]

    assert main(argv(0)) == 0  # the modules it imports, outside the traced calls
    peaks = []
    for steps in (4, 16):
        gc.collect()
        tracemalloc.start()
        try:
            code = main(argv(steps))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    capsys.readouterr()
    assert peaks[1] - peaks[0] <= 0.5 * 2 ** 20, f"peaks {[p / 2 ** 20 for p in peaks]} MiB"


def test_peak_memory_of_the_x4_zoom_is_bounded():
    # refine-demo's *_full rasters: the returned raster and one more at output
    # size, 2.27 of them measured; products and a sum per axis that were not
    # formed in place brought the peak to 3.27
    from slzkit.cli import _bilinear_x4

    raster = np.random.default_rng(0).normal(size=(112, 112, 3)).astype(np.float32)
    out_bytes = 448 * 448 * 3 * 8
    tracemalloc.start()
    try:
        out = _bilinear_x4(raster)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (448, 448, 3) and out.nbytes == out_bytes
    assert peak / out_bytes <= 2.5, f"peak {peak / out_bytes:.2f} output rasters > 2.5"

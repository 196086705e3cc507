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

from slzkit import geometry
from slzkit import io as sio
from slzkit.camera import CameraIntrinsics, read_intrinsics, write_intrinsics
from slzkit.cli import _fill_defaults, _read_frame, build_parser, main
from slzkit import refinement
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
    # Every bound but that of loss dncl sits less than one plane above its
    # measured peak, so a kernel that keeps one whole float64 plane fails.
    # The VNL valid mask is formed and each batch's depths gathered a band of
    # rows at a time from both rasters, and every pixel valid makes the draws
    # the flat pixel indices: 0.38 planes measured; whole float32 rasters read
    # up front brought the peak to 1.55 planes, an intp index of the valid
    # pixels to 2.2 and an (N, 2) array of their coordinates to 5.2
    "loss vnl": (lambda f: ["loss", "vnl", "--pred", f["preds"][0], "--gt", f["depth"],
                            "--intrinsics", f["intrinsics"], "--samples", "1000"], 1.0),
    # the value builds its dot plane and pixel mask a band of rows at a time,
    # reading both rasters by rows: 3.34 planes measured; whole float32
    # rasters read up front brought the peak to 5.26 planes, and whole-frame
    # tangent and cross planes to 10.2
    "loss dncl": (lambda f: ["loss", "dncl", "--depth", f["depth"], "--normals", f["normals"],
                             "--intrinsics", f["intrinsics"]], 4.75),
    # The losses read step t a band of rows at a time when they reach it, the
    # ground truths too, and average through a streamed pairwise mean, so
    # no float64 plane of the frame exists: 1.04 planes measured for the SLZ
    # loss and 0.67 for the sequential loss. Whole float32 step rasters, a
    # whole float64 term or residual plane and a gather of its kept values
    # brought them to 2.83 and 2.74; every step read up front to 9.6 and 9.3
    "loss slz": (lambda f: ["loss", "slz", "--logits", *f["logitss"], "--labels", f["mask"]],
                 1.75),
    "loss sequential": (lambda f: ["loss", "sequential", "--preds", *f["preds"],
                                   "--confs", *f["confs"], "--gt-depth", f["depth"],
                                   "--gt-conf", f["gt_conf"]], 1.5),
    # The region sums add each band's area planes as they are formed, with
    # the band's region ids painted from the run table, so neither a float64
    # area plane nor an intp id plane of the frame exists: 2.03 planes
    # measured with derived normals (one band of the normal kernel is most
    # of it at 640 columns) and 0.89 with given ones. Whole area planes and
    # a whole id plane brought them to 3.67 and 2.43, whole float32 rasters
    # to 4.4 and a label plane kept beside them to 7.4
    "area": (lambda f: ["area", *_frame_args(f), "--mask", f["mask"]], 2.75),
    "area --normals": (lambda f: ["area", "--depth", f["depth"], "--intrinsics", f["intrinsics"],
                                  "--normals", f["normals"], "--mask", f["mask"]], 1.5),
    "candidates": (lambda f: ["candidates", *_frame_args(f), "--logits", f["logits"],
                              "--dilate", "2", "--k", "5"], 2.75),
}


@pytest.mark.parametrize("normals,bound", [("--derive-normals", 4.25), ("--normals", 2.5)])
def test_peak_memory_of_reading_a_frame_is_bounded(frame, normals, bound):
    # the mask and one band's planes, each band's area planes dropped
    # before the next: 1.84 planes measured with derived normals, 0.70 with
    # given ones. Whole area planes brought the peaks to 3.63 and 1.86,
    # whole float32 rasters and a whole float64 n_z plane to 3.88 and 4.38.
    argv = ["area", "--depth", frame["depth"], "--intrinsics", frame["intrinsics"],
            "--mask", frame["mask"], normals] + ([frame["normals"]] if normals == "--normals" else [])
    args = build_parser().parse_args(argv)
    _fill_defaults(args)
    gc.collect()
    tracemalloc.start()
    try:
        mask, bands = _read_frame(args)
        rows = 0
        for areas, included in bands:
            assert areas.shape == included.shape == (len(areas), W)
            rows += len(areas)
        del areas, included
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mask.shape == (H, W) and rows == H
    assert peak / PLANE <= bound, f"{normals}: peak {peak / PLANE:.2f} planes > {bound}"


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


@pytest.mark.parametrize("name", ["loss slz", "loss sequential"])
def test_a_loss_reads_every_row_of_each_step_once_step_by_step(capsys, monkeypatch, frame, name):
    # bands of 50 rows, so that each step raster is read in 8 bands
    monkeypatch.setattr(geometry, "_BAND_ELEMENTS", 50 * W)
    reads = []
    read = sio.RasterRows.__getitem__
    monkeypatch.setattr(sio.RasterRows, "__getitem__",
                        lambda self, rows: reads.append((self.path, rows)) or read(self, rows))
    argv, _ = CALLS[name]
    assert main([str(a) for a in argv(frame)]) == 0 and capsys.readouterr().out
    step_of = {str(p): t for kind in ("preds", "confs", "logitss") for t, p in enumerate(frame[kind])}
    steps = [(step_of[path], path, rows) for path, rows in reads if path in step_of]
    assert [t for t, _, _ in steps] == sorted(t for t, _, _ in steps)  # step t before t + 1
    paths = {path for _, path, _ in steps}
    assert len(paths) == STEPS * (2 if name == "loss sequential" else 1)
    for path in paths:
        bands = [rows.indices(H) for _, p, rows in steps if p == path]
        assert len(bands) == 8
        assert [i for start, stop, _ in bands for i in range(start, stop)] == list(range(H))


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


def test_peak_memory_of_refine_demo_drops_its_workspace_before_the_full_rasters(
        capsys, tmp_path):
    # 17.27 MiB measured at base 448 with 16 hidden channels; a run whose
    # im2col workspace (10.57 MiB) stays live through the x4 zoom of the
    # *_full rasters read 23.57
    def argv(steps):
        return ["refine-demo", "--base", "448", "--hidden", "16", "--T", str(steps),
                "--out", str(tmp_path / f"T{steps}")]

    assert main(argv(0)) == 0  # the modules it imports, outside the traced call
    gc.collect()
    tracemalloc.start()
    try:
        code = main(argv(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    capsys.readouterr()
    assert peak <= 20 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB > 20"


def test_peak_memory_of_one_refinement_step_is_bounded():
    # One step at base 448 with 16 hidden channels, above its entry memory, in
    # (112, 112, 16) float32 hidden planes once one patch matrix (12.4 planes)
    # is taken off: the im2col workspace and the rest of the step, 6.79
    # planes measured. A padded copy, a concatenated input and a second bias
    # output for each conv brought it to 10.51
    weights = refinement.init_weights(hidden_channels=16, seed=1)
    state = refinement.demo_state(base=448, hidden_channels=16, seed=1)
    gc.collect()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        out = refinement.refinement_step(state, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.t == 1
    plane = 112 * 112 * 16 * 4
    patch_matrix = 112 * 112 * 9 * (16 + refinement.SLZ_INPUT_CHANNELS) * 4
    extra = (peak - entry - patch_matrix) / plane
    assert extra <= 7.5, f"{extra:.2f} hidden planes above entry and one patch matrix > 7.5"


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

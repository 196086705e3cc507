"""Acceptance suite: ten go/no-go checks covering the whole package.

Each test prints one `[criterion N] PASS/FAIL` line (visible with
`pytest -s tests/test_acceptance.py` or in captured output).
"""

import functools
import struct
import time

import numpy as np
import pytest

import oracles
from slzkit import io as sio
from slzkit import refinement
from slzkit.camera import CameraIntrinsics, write_intrinsics
from slzkit.cli import main as cli_main
from slzkit.geometry import normals_from_depth, region_area
from slzkit.losses import (
    ClassWeights,
    LossWeights,
    depth_normal_consistency,
    depth_normal_consistency_grad,
    fine_tune_loss,
    grad_check,
    sequential_depth_loss,
    sequential_depth_loss_grad,
    slz_loss,
    slz_loss_grad,
    virtual_normal_loss,
)
from slzkit.metrics import evaluate
from slzkit.slz import connected_components, dilate_unsafe, top_k_candidates
from slzkit.synth import Box, Scene, plane_depth, plane_unit_normal, render_scene

INTR = CameraIntrinsics(100, 100, 63.5, 63.5)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:2d}] FAIL - {desc}")
                raise
            print(f"[criterion {num:2d}] PASS - {desc}")
        return wrapper
    return deco


@criterion(1, "tilted-plane area within 1%, fronto-parallel exact to 1e-6, < 1 s")
def test_c01_geometry_oracle():
    start = time.perf_counter()
    scene = Scene(128, 128, INTR, (0.2, 0.1, 5.0))
    render = render_scene(scene)
    region = np.zeros((128, 128), dtype=bool)
    region[32:96, 32:96] = True
    analytic = float(render.exact_area[region].sum())
    derived = normals_from_depth(render.depth, INTR)
    estimate = region_area(region, render.depth, derived, INTR)
    assert abs(estimate.total_area - analytic) / analytic <= 0.01

    flat = np.full((128, 128), 5.0)
    flat_normals = normals_from_depth(flat, INTR)
    rep = region_area(np.ones((128, 128), dtype=bool), flat, flat_normals, INTR)
    closed_form = 128 * 128 * 25.0 / (100.0 * 100.0)
    assert abs(rep.total_area - closed_form) / closed_form <= 1e-6
    assert time.perf_counter() - start < 1.0


@criterion(2, "plane normals within 1e-3 per component, unit norm within 1e-4")
def test_c02_normals_oracle():
    a, b, c = 0.25, -0.15, 6.0
    depth = plane_depth(128, 128, INTR, a, b, c)
    normals = normals_from_depth(depth, INTR)
    target = plane_unit_normal(a, b)
    assert np.abs(normals[1:-1, 1:-1] - target).max() <= 1e-3
    norms = np.linalg.norm(normals, axis=-1)
    valid = norms > 0
    assert valid.all()
    assert np.abs(norms[valid] - 1.0).max() <= 1e-4


@criterion(3, "all five losses <= 1e-6 on perfect inputs; default weights give 0.71")
def test_c03_loss_zero_points():
    depth = plane_depth(16, 16, INTR, 0.1, 0.05, 4.0)
    conf = np.full((16, 16), 0.75)
    assert virtual_normal_loss(depth, depth, INTR, 50, seed=0) <= 1e-6
    assert sequential_depth_loss([depth], [conf], depth, conf) <= 1e-6
    assert depth_normal_consistency(depth, normals_from_depth(depth, INTR), INTR) <= 1e-6
    labels = np.zeros((16, 16), dtype=np.uint8)
    confident = np.zeros((16, 16, 2))
    confident[..., 0] = 40.0
    assert slz_loss([confident], labels) <= 1e-6
    assert fine_tune_loss(0.0, 0.0, 0.0, LossWeights()) <= 1e-6
    assert abs(fine_tune_loss(1.0, 1.0, 1.0, LossWeights()) - 0.71) <= 1e-12


@criterion(4, "analytic gradients match finite differences (1e-4; dncl 1e-3), < 10 s")
def test_c04_gradient_checks():
    start = time.perf_counter()
    rng = np.random.default_rng(42)

    labels = (rng.uniform(size=(4, 4)) > 0.5).astype(np.uint8)
    seq = [rng.normal(size=(4, 4, 2)) for _ in range(2)]
    _, slz_grads = slz_loss_grad(seq, labels, ClassWeights(), 0.9)
    for i in range(2):
        def f_slz(x, i=i):
            return slz_loss([x if j == i else z for j, z in enumerate(seq)], labels)

        assert grad_check(f_slz, seq[i], slz_grads[i], eps=1e-5) <= 1e-4

    gt = 3.0 + rng.uniform(-0.5, 0.5, (6, 6))
    cgt = rng.uniform(0.2, 0.8, (6, 6))
    preds = [gt + rng.uniform(0.2, 0.6, (6, 6)), gt - rng.uniform(0.2, 0.6, (6, 6))]
    confs = [cgt + 0.1, cgt - 0.2]
    w = 0.9  # gamma
    _, gd, gc = sequential_depth_loss_grad(preds, confs, gt, cgt, w)
    for i in range(2):
        def f_d(x, i=i):
            return sequential_depth_loss([x if j == i else p for j, p in enumerate(preds)],
                                         confs, gt, cgt, w)

        def f_c(x, i=i):
            return sequential_depth_loss(preds,
                                         [x if j == i else cc for j, cc in enumerate(confs)],
                                         gt, cgt, w)

        assert grad_check(f_d, preds[i], gd[i], eps=1e-5) <= 1e-4
        assert grad_check(f_c, confs[i], gc[i], eps=1e-5) <= 1e-4

    d_pred = 4.0 + rng.uniform(-0.3, 0.3, (8, 8))
    target = np.zeros((8, 8, 3))
    target[..., 2] = -1.0
    _, grad = depth_normal_consistency_grad(d_pred, target, INTR)
    err = grad_check(lambda x: depth_normal_consistency(x, target, INTR),
                     d_pred, grad, eps=1e-5)
    assert err <= 1e-3
    assert time.perf_counter() - start < 10.0


@criterion(5, "refinement: fixed point, bitwise resume, exact closed gate, oracle within 1e-5")
def test_c05_refinement_invariants():
    weights = refinement.init_weights(hidden_channels=8, seed=21)
    state = refinement.demo_state(base=56, hidden_channels=8, seed=21)

    zeroed = refinement.zero_projection_heads(weights)
    for s in refinement.run_refinement(state, zeroed, 4):
        assert np.array_equal(s.depth, state.depth)
        assert np.array_equal(s.normal, state.normal)
        assert np.array_equal(s.slz, state.slz)

    direct = refinement.run_refinement(state, weights, 4)
    half = refinement.run_refinement(state, weights, 2)
    resumed = half[:-1] + refinement.run_refinement(half[-1], weights, 2)
    for a, b in zip(direct, resumed):
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.slz, b.slz)
        assert np.array_equal(a.hidden_quarter, b.hidden_quarter)

    hidden = np.random.default_rng(0).uniform(0.1, 1.0, (4, 4, 2)).astype(np.float32)
    x_in = np.random.default_rng(1).uniform(-1, 1, (4, 4, 2)).astype(np.float32)
    closed = refinement.ConvGruWeights(
        wz=np.zeros((3, 3, 4, 2), np.float32), bz=np.full(2, -60.0, np.float32),
        wr=np.zeros((3, 3, 4, 2), np.float32), br=np.zeros(2, np.float32),
        wh=np.zeros((3, 3, 4, 2), np.float32), bh=np.zeros(2, np.float32))
    assert np.array_equal(refinement.conv_gru_step(closed, hidden, x_in), hidden)

    stepped = refinement.slz_flow_step(refinement.depth_normal_flow_step(state, weights),
                                       weights)
    ref_d, ref_n, ref_s = oracles.refinement_iteration_ref(state, weights)
    assert np.abs(stepped.depth - ref_d).max() <= 1e-5
    assert np.abs(stepped.normal - ref_n).max() <= 1e-5
    assert np.abs(stepped.slz - ref_s).max() <= 1e-5


@criterion(6, "temporal decay: T=1 totals 1.9L to 1e-12; gamma=1 gives plain sums")
def test_c06_temporal_decay():
    gt = np.full((8, 8), 2.0)
    cgt = np.full((8, 8), 1.0)
    preds = [gt + 0.4, gt + 0.4]
    confs = [cgt - 0.1, cgt - 0.1]
    per_step = 0.5
    total = sequential_depth_loss(preds, confs, gt, cgt, gamma=0.9)
    assert abs(total - 1.9 * per_step) <= 1e-12

    labels = np.zeros((8, 8), dtype=np.uint8)
    logits = np.zeros((8, 8, 2))
    ce_step = 2.0 * np.log(2.0)
    assert abs(slz_loss([logits, logits], labels, gamma=0.9) - 1.9 * ce_step) <= 1e-12

    rng = np.random.default_rng(7)
    preds = [gt + rng.uniform(-1, 1, (8, 8)) for _ in range(4)]
    confs = [cgt + rng.uniform(-1, 1, (8, 8)) for _ in range(4)]
    plain = sequential_depth_loss(preds, confs, gt, cgt, gamma=1.0)
    direct = sum(np.abs(p - gt).mean() + np.abs(c - cgt).mean()
                 for p, c in zip(preds, confs))
    assert abs(plain - direct) <= 1e-12 * max(1.0, direct)
    seq = [rng.normal(size=(8, 8, 2)) for _ in range(3)]
    lab = (rng.uniform(size=(8, 8)) > 0.5).astype(np.uint8)
    plain_ce = slz_loss(seq, lab, gamma=1.0)
    direct_ce = sum(slz_loss([z], lab, gamma=1.0) for z in seq)
    assert abs(plain_ce - direct_ce) <= 1e-12 * max(1.0, direct_ce)


@criterion(7, "metrics: mDice == mFscore on 1000 random matrices; hand example matches")
def test_c07_metrics_suite():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        rep = evaluate(rng.integers(1, 1000, (2, 2)))
        assert abs(rep.mDice - rep.mFscore) <= 1e-12

    hand = evaluate(np.array([[2, 1], [1, 4]]))
    assert round(hand.mIoU, 2) == 58.33
    assert round(hand.aAcc, 2) == 75.00

    perfect = evaluate(np.array([[11, 0], [0, 23]]))
    for value in (perfect.aAcc, perfect.mIoU, perfect.mAcc, perfect.mDice,
                  perfect.mFscore, perfect.mPrecision, perfect.mRecall):
        assert value == 100.0


@criterion(8, "dilation semigroup on 100 masks; top-k matches brute-force sort; 4-connectivity")
def test_c08_post_processing():
    rng = np.random.default_rng(31)
    for _ in range(100):
        mask = (rng.uniform(size=(12, 12)) > 0.85).astype(np.uint8)
        r1, r2 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        lhs = dilate_unsafe(dilate_unsafe(mask, r1), r2)
        assert np.array_equal(lhs, dilate_unsafe(mask, r1 + r2))

    mask = np.ones((32, 32), np.uint8)
    mask[2:6, 2:6] = 0
    mask[10:20, 10:20] = 0
    mask[25:28, 25:31] = 0
    depth = np.full((32, 32), 4.0)
    depth[2:6, 2:6] = 8.0  # small blob made large by depth
    normals = np.zeros((32, 32, 3))
    normals[..., 2] = -1.0
    order, stats = top_k_candidates(mask, depth, normals, INTR, k=5)
    brute = []
    for pixels in oracles.flood_fill_components(mask):
        area = sum(depth[r, c] ** 2 / (100.0 * 100.0) for r, c in pixels)
        brute.append((area, pixels[0]))
    brute.sort(key=lambda t: -t[0])
    assert len(order) == len(brute)
    for i, (area, first_pixel) in zip(order, brute):
        assert tuple(stats.pixels(i)[0]) == first_pixel
        assert stats.area[i] == pytest.approx(area, rel=1e-9)

    diag = np.ones((4, 4), np.uint8)
    diag[1, 1] = 0
    diag[2, 2] = 0
    assert len(connected_components(diag)) == 2


@criterion(9, "I/O round trips bitwise incl. non-finite; truncated files exit 2")
def test_c09_io(tmp_path, capsys):
    nan_payload = struct.unpack("<f", struct.pack("<I", 0x7FA0BEEF))[0]
    raster = np.array([[0.0, -0.0], [np.inf, nan_payload]], dtype=np.float32)
    sio.write_raster(raster, tmp_path / "r.f32r")
    back = sio.read_raster(tmp_path / "r.f32r")
    assert np.array_equal(raster.view(np.uint32), back.view(np.uint32))

    mask = (np.random.default_rng(5).uniform(size=(9, 9)) > 0.5).astype(np.uint8)
    sio.write_mask(mask, tmp_path / "m.pgm")
    assert np.array_equal(sio.read_mask(tmp_path / "m.pgm"), mask)

    write_intrinsics(tmp_path / "intr.txt", INTR)
    (tmp_path / "trunc.f32r").write_bytes(b"F32R 4 4 1\n" + b"\x00" * 10)
    code = cli_main(["area", "--depth", str(tmp_path / "trunc.f32r"),
                     "--mask", str(tmp_path / "m.pgm"),
                     "--derive-normals",
                     "--intrinsics", str(tmp_path / "intr.txt")])
    assert code == 2
    (tmp_path / "trunc.pgm").write_bytes(b"P5\n4 4\n255\n\x00")
    sio.write_raster(np.full((9, 9), 2.0, np.float32), tmp_path / "d.f32r")
    code = cli_main(["area", "--depth", str(tmp_path / "d.f32r"),
                     "--mask", str(tmp_path / "trunc.pgm"),
                     "--derive-normals",
                     "--intrinsics", str(tmp_path / "intr.txt")])
    assert code == 2
    capsys.readouterr()


@criterion(10, "steep-edge scenes: estimate with n_z_min is conservative (<= analytic)")
def test_c10_conservative_estimate():
    # Depth steps at obstacle rims give derived normals nearly perpendicular
    # to the viewing ray; with the rims close to the optical axis those
    # normals fall under the n_z cutoff, so the estimate drops their true
    # area and lands below the analytic value.
    rng = np.random.default_rng(97)
    intr = CameraIntrinsics(300, 300, 63.5, 63.5)
    for _ in range(10):
        a = float(rng.uniform(-0.2, 0.2))
        b = float(rng.uniform(-0.2, 0.2))
        c = float(rng.uniform(4.0, 8.0))
        boxes = []
        for _ in range(int(rng.integers(1, 3))):
            cu = 63 + int(rng.integers(-10, 11))
            cv = 63 + int(rng.integers(-10, 11))
            hu = int(rng.integers(4, 11))
            hv = int(rng.integers(4, 11))
            boxes.append(Box(cu - hu, cv - hv, cu + hu, cv + hv,
                             float(rng.uniform(1.0, 2.5))))
        scene = Scene(128, 128, intr, (a, b, c), boxes=tuple(boxes))
        render = render_scene(scene)
        derived = normals_from_depth(render.depth, intr)
        estimate = region_area(np.ones((128, 128), dtype=bool), render.depth, derived, intr)
        analytic = render.sidecar["analytic_total_area"]
        assert estimate.excluded_count > 0  # the depth steps really do exclude pixels
        assert estimate.total_area <= analytic

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from scipy.special import log_softmax

import oracles
from slzkit import losses
from slzkit.camera import CameraIntrinsics
from slzkit.errors import DegenerateInputError, ShapeMismatchError
from slzkit.geometry import normals_from_depth
from slzkit.losses import (
    ClassWeights,
    LossWeights,
    depth_normal_consistency,
    depth_normal_consistency_grad,
    fine_tune_loss,
    grad_check,
    sample_triplets,
    sequential_depth_loss,
    sequential_depth_loss_grad,
    slz_loss,
    slz_loss_grad,
    virtual_normal_loss,
)
from slzkit.synth import plane_depth, plane_unit_normal

INTR = CameraIntrinsics(100, 100, 15.5, 15.5)


# --- virtual normal loss ------------------------------------------------------


def test_vnl_zero_on_identical_depths():
    depth = plane_depth(16, 16, INTR, 0.1, 0.2, 4.0)
    assert virtual_normal_loss(depth, depth, INTR, 40, seed=3) == 0.0


def test_vnl_matches_brute_force_over_shared_triplets():
    d_gt = np.full((16, 16), 4.0)
    d_pred = plane_depth(16, 16, INTR, 0.25, -0.1, 4.0)
    value = virtual_normal_loss(d_pred, d_gt, INTR, 64, seed=11)

    triplets = sample_triplets(d_pred, d_gt, INTR, 64, seed=11)
    dists = []
    for tri in triplets:
        def unit_normal(depth):
            p = [np.array(oracles.backproject_ref(c, r, depth[r, c], INTR)) for r, c in tri]
            cr = np.cross(p[1] - p[0], p[2] - p[0])
            return cr / np.linalg.norm(cr)

        dists.append(np.linalg.norm(unit_normal(d_pred) - unit_normal(d_gt)))
    assert value == pytest.approx(float(np.mean(dists)), abs=1e-7)


def test_vnl_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(0)
    d_gt = 4.0 + rng.uniform(-0.5, 0.5, (12, 12))
    d_pred = d_gt + rng.uniform(0, 0.3, (12, 12))
    a = virtual_normal_loss(d_pred, d_gt, INTR, 50, seed=5)
    b = virtual_normal_loss(d_pred, d_gt, INTR, 50, seed=5)
    c = virtual_normal_loss(d_pred, d_gt, INTR, 50, seed=6)
    assert a == b
    assert a != c


def test_vnl_global_scale_invariance():
    rng = np.random.default_rng(1)
    d_gt = 5.0 + rng.uniform(-1, 1, (12, 12))
    d_pred = d_gt + rng.uniform(0, 0.5, (12, 12))
    a = virtual_normal_loss(d_pred, d_gt, INTR, 50, seed=9)
    b = virtual_normal_loss(3.0 * d_pred, 3.0 * d_gt, INTR, 50, seed=9)
    assert b == pytest.approx(a, abs=1e-6)


def test_vnl_argument_errors():
    depth = np.full((8, 8), 2.0)
    # a sample count below 1 is a bad argument (CLI exit 2), not degenerate data
    with pytest.raises(ValueError, match=r"n_samples must be >= 1, got 0") as exc:
        virtual_normal_loss(depth, depth, INTR, 0, seed=0)
    assert not isinstance(exc.value, DegenerateInputError)
    with pytest.raises(DegenerateInputError):
        virtual_normal_loss(np.full((8, 8), -1.0), depth, INTR, 4, seed=0)
    with pytest.raises(ShapeMismatchError):
        virtual_normal_loss(depth, np.full((8, 9), 2.0), INTR, 4, seed=0)


def test_vnl_degenerate_when_all_triplets_collinear():
    # A single constant-depth row: every backprojected triplet is collinear.
    row = np.full((1, 40), 3.0)
    with pytest.raises(DegenerateInputError):
        virtual_normal_loss(row, row, INTR, 2, seed=0)


# --- sequential depth loss ----------------------------------------------------


def test_sequential_zero_on_perfect_predictions():
    gt = np.full((6, 6), 2.0)
    conf = np.full((6, 6), 0.7)
    assert sequential_depth_loss([gt], [conf], gt, conf) == 0.0


def test_sequential_decay_sum_hand_value():
    gt = np.full((4, 4), 2.0)
    cgt = np.full((4, 4), 1.0)
    # constant per-step loss L = 0.3 + 0.2 = 0.5
    preds = [gt + 0.3, gt + 0.3]
    confs = [cgt - 0.2, cgt - 0.2]
    total = sequential_depth_loss(preds, confs, gt, cgt, gamma=0.9)
    assert total == pytest.approx(1.9 * 0.5, abs=1e-12)


def test_sequential_gamma_one_is_plain_sum():
    rng = np.random.default_rng(2)
    gt = 3.0 + rng.uniform(-1, 1, (5, 5))
    cgt = rng.uniform(0, 1, (5, 5))
    preds = [gt + rng.uniform(-1, 1, (5, 5)) for _ in range(4)]
    confs = [cgt + rng.uniform(-1, 1, (5, 5)) for _ in range(4)]
    total = sequential_depth_loss(preds, confs, gt, cgt, gamma=1.0)
    direct = sum(np.abs(p - gt).mean() + np.abs(c - cgt).mean()
                 for p, c in zip(preds, confs))
    assert total == pytest.approx(direct, rel=1e-12)


def test_sequential_valid_mask_and_errors():
    gt = np.full((4, 4), 2.0)
    cgt = np.ones((4, 4))
    preds = [gt + 1.0]
    confs = [cgt]
    valid = np.zeros((4, 4), np.uint8)
    valid[0, 0] = 1
    assert sequential_depth_loss(preds, confs, gt, cgt, valid=valid) == pytest.approx(1.0)
    with pytest.raises(DegenerateInputError):
        sequential_depth_loss(preds, confs, gt, cgt, valid=np.zeros((4, 4), np.uint8))
    with pytest.raises(ShapeMismatchError):
        sequential_depth_loss(preds, confs, gt, cgt[:3])


@pytest.mark.parametrize("loss", [sequential_depth_loss, sequential_depth_loss_grad])
def test_sequential_takes_its_step_count_from_the_sequence(loss):
    gt = np.full((4, 4), 2.0)
    cgt = np.ones((4, 4))
    with pytest.raises(ShapeMismatchError, match="2 depth steps != 1 confidence steps"):
        loss([gt, gt], [cgt], gt, cgt)
    with pytest.raises(DegenerateInputError, match="empty prediction sequence"):
        loss([], [], gt, cgt)
    # three steps decay as gamma^2, gamma, 1
    total = loss([gt + 1.0, gt, gt + 1.0], [cgt] * 3, gt, cgt, gamma=0.5)
    assert (total[0] if isinstance(total, tuple) else total) == 0.25 + 1.0


# --- depth-normal consistency -------------------------------------------------


def test_dncl_self_consistency():
    depth = plane_depth(12, 12, INTR, 0.2, 0.1, 5.0)
    derived = normals_from_depth(depth, INTR)
    assert depth_normal_consistency(depth, derived, INTR) <= 1e-6


def test_dncl_antipodal_bound():
    depth = plane_depth(12, 12, INTR, 0.2, 0.1, 5.0)
    derived = normals_from_depth(depth, INTR)
    value = depth_normal_consistency(depth, -derived, INTR)
    assert value == pytest.approx(2.0, abs=1e-6)


def test_dncl_analytic_plane():
    a, b = 0.3, -0.2
    depth = plane_depth(16, 16, INTR, a, b, 5.0)
    target = np.broadcast_to(plane_unit_normal(a, b), (16, 16, 3)).copy()
    assert depth_normal_consistency(depth, target, INTR) <= 1e-3


def test_dncl_errors():
    depth = np.full((8, 8), 2.0)
    with pytest.raises(DegenerateInputError):
        depth_normal_consistency(depth, np.zeros((8, 8, 3)), INTR)
    with pytest.raises(ShapeMismatchError):
        depth_normal_consistency(depth, np.zeros((8, 9, 3)), INTR)


# --- slz loss -------------------------------------------------------------------


def test_slz_confident_correct_prediction():
    labels = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    logits = np.where(np.stack([labels == 0, labels == 1], axis=-1), 30.0, 0.0)
    assert slz_loss([logits], labels) <= 1e-9


def test_slz_uniform_logits_all_safe():
    labels = np.zeros((4, 4), dtype=np.uint8)
    logits = np.zeros((4, 4, 2))
    value = slz_loss([logits], labels, ClassWeights(w_safe=2.0, w_unsafe=1.0))
    assert value == pytest.approx(2.0 * np.log(2.0), abs=1e-9)


def test_slz_decay_sum():
    labels = np.zeros((4, 4), dtype=np.uint8)
    logits = np.zeros((4, 4, 2))
    per_step = 2.0 * np.log(2.0)
    total = slz_loss([logits, logits], labels, gamma=0.9)
    assert total == pytest.approx(1.9 * per_step, rel=1e-12)


def test_slz_unweighted_matches_independent_cross_entropy():
    rng = np.random.default_rng(3)
    labels = (rng.uniform(size=(6, 6)) > 0.5).astype(np.uint8)
    seq = [rng.normal(scale=3.0, size=(6, 6, 2)) for _ in range(3)]
    ours = slz_loss(seq, labels, ClassWeights(1.0, 1.0), gamma=0.9)
    ref = 0.0
    for t, z in enumerate(seq):
        logp = log_softmax(z, axis=-1)
        picked = np.take_along_axis(logp, labels[..., None].astype(int), axis=-1)[..., 0]
        ref += 0.9 ** (len(seq) - 1 - t) * -picked.mean()
    assert ours == pytest.approx(ref, abs=1e-9)


def test_slz_gamma_one_is_plain_sum():
    rng = np.random.default_rng(4)
    labels = (rng.uniform(size=(5, 5)) > 0.3).astype(np.uint8)
    seq = [rng.normal(size=(5, 5, 2)) for _ in range(4)]
    total = slz_loss(seq, labels, gamma=1.0)
    direct = sum(slz_loss([z], labels, gamma=1.0) for z in seq)
    assert total == pytest.approx(direct, rel=1e-12)


def test_slz_errors():
    labels = np.zeros((3, 3), dtype=np.uint8)
    with pytest.raises(DegenerateInputError):
        slz_loss([], labels)
    with pytest.raises(DegenerateInputError):
        slz_loss([np.zeros((3, 3, 2))], labels, valid=np.zeros((3, 3), np.uint8))
    with pytest.raises(ShapeMismatchError):
        slz_loss([np.zeros((3, 4, 2))], labels)


# --- combined loss --------------------------------------------------------------


def test_fine_tune_default_weights():
    assert fine_tune_loss(1.0, 1.0, 1.0, LossWeights()) == pytest.approx(0.71, abs=1e-12)


def test_fine_tune_zeros():
    assert fine_tune_loss(0.0, 0.0, 0.0, LossWeights()) == 0.0
    zeroed = LossWeights(lambda1=0.0, lambda2=0.0, lambda3=0.0)
    assert fine_tune_loss(3.0, 7.0, 11.0, zeroed) == 0.0


def test_fine_tune_rejects_non_finite():
    with pytest.raises(ValueError):
        fine_tune_loss(np.inf, 0.0, 0.0, LossWeights())


@pytest.mark.parametrize("gamma", [-1.0, 0.0, np.nan, np.inf, 1.5])
@pytest.mark.parametrize("loss", [
    slz_loss, slz_loss_grad,
    lambda seq, labels, gamma: sequential_depth_loss([labels], [labels], labels, labels, gamma),
    pytest.param(lambda seq, labels, gamma: sequential_depth_loss_grad(
        [labels], [labels], labels, labels, gamma), id="sequential_depth_loss_grad")])
def test_decayed_losses_reject_gamma_outside_0_1(loss, gamma):
    with pytest.raises(ValueError, match=rf"gamma must be in \(0, 1\], got {gamma}"):
        loss([np.zeros((3, 3, 2))], np.zeros((3, 3), np.uint8), gamma=gamma)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["w_safe", "w_unsafe", "lambda1", "lambda2", "lambda3"])
def test_weights_reject_a_non_finite_value_naming_it(name, bad):
    weights = ClassWeights if name.startswith("w_") else LossWeights
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        weights(**{name: bad})


def test_loss_weights_hold_only_the_three_balancing_coefficients():
    assert [f.name for f in dataclasses.fields(LossWeights)] == ["lambda1", "lambda2", "lambda3"]


def test_weight_validation():
    with pytest.raises(ValueError):
        LossWeights(lambda1=-0.1)
    with pytest.raises(ValueError):
        ClassWeights(0.0, 1.0)


# --- gradient checks -------------------------------------------------------------


def test_grad_check_quadratic():
    x = np.random.default_rng(5).normal(size=(4, 4))
    err = grad_check(lambda v: (v**2).sum(axis=(-2, -1)), x, 2 * x, eps=1e-4)
    assert err <= 1e-6


def test_grad_check_slz():
    rng = np.random.default_rng(6)
    labels = (rng.uniform(size=(4, 4)) > 0.5).astype(np.uint8)
    seq = [rng.normal(size=(4, 4, 2)) for _ in range(2)]
    _, grads = slz_loss_grad(seq, labels)
    for i in range(2):
        def f(x, i=i):
            trial = [x if j == i else z for j, z in enumerate(seq)]
            return slz_loss(trial, labels)

        assert grad_check(f, seq[i], grads[i], eps=1e-5) <= 1e-4


def test_grad_check_sequential():
    rng = np.random.default_rng(7)
    gt = 3.0 + rng.uniform(-0.5, 0.5, (4, 4))
    cgt = rng.uniform(0.2, 0.8, (4, 4))
    # keep residuals away from the |.| kink
    preds = [gt + rng.uniform(0.2, 0.6, (4, 4)), gt - rng.uniform(0.2, 0.6, (4, 4))]
    confs = [cgt + 0.1, cgt - 0.15]
    _, gd, gc = sequential_depth_loss_grad(preds, confs, gt, cgt)
    for i in range(2):
        def fd(x, i=i):
            return sequential_depth_loss([x if j == i else p for j, p in enumerate(preds)],
                                         confs, gt, cgt)

        def fc(x, i=i):
            return sequential_depth_loss(preds,
                                         [x if j == i else c for j, c in enumerate(confs)],
                                         gt, cgt)

        assert grad_check(fd, preds[i], gd[i], eps=1e-5) <= 1e-4
        assert grad_check(fc, confs[i], gc[i], eps=1e-5) <= 1e-4


def test_grad_check_dncl():
    rng = np.random.default_rng(8)
    depth = 4.0 + rng.uniform(-0.3, 0.3, (8, 8))
    target = np.zeros((8, 8, 3))
    target[..., 2] = -1.0
    _, grad = depth_normal_consistency_grad(depth, target, INTR)
    err = grad_check(lambda x: depth_normal_consistency(x, target, INTR), depth, grad, eps=1e-5)
    assert err <= 1e-3


def test_grad_check_api_errors():
    x = np.zeros((2, 2))
    with pytest.raises(ValueError):
        grad_check(lambda v: np.zeros(len(v)), x, x, eps=0.0)
    with pytest.raises(ShapeMismatchError):
        grad_check(lambda v: np.zeros(len(v)), x, np.zeros((3, 3)))
    with pytest.raises(DegenerateInputError):
        grad_check(lambda v: np.full(len(v), np.nan), x, x)
    with pytest.raises(DegenerateInputError, match="non-finite analytic gradient at element 0"):
        grad_check(lambda v: np.zeros(len(v)), x, np.full((2, 2), np.nan))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_grad_check_rejects_a_non_finite_analytic_element(bad):
    x = np.random.default_rng(9).normal(size=(3, 4))
    grad = 2 * x
    grad[1, 2] = bad
    with pytest.raises(DegenerateInputError, match="non-finite analytic gradient at element 6"):
        grad_check(lambda v: (v**2).sum(axis=(-2, -1)), x, grad)


def test_stacks_of_one_call_share_their_size_and_gradients_take_one_raster():
    gt, cgt = np.full((4, 4), 2.0), np.ones((4, 4))
    two, three = np.full((2, 4, 4), 2.5), np.full((3, 4, 4), 2.5)
    assert sequential_depth_loss([two, gt], [cgt, two], gt, cgt).shape == (2,)
    with pytest.raises(ShapeMismatchError, match=r"step 1: depth shape \(3, 4, 4\)"):
        sequential_depth_loss([two, three], [cgt, cgt], gt, cgt)
    with pytest.raises(ShapeMismatchError, match=r"step 0: confidence shape \(3, 4, 4\)"):
        sequential_depth_loss([two], [three], gt, cgt)
    with pytest.raises(ShapeMismatchError, match=r"step 0: depth shape \(1, 2, 4, 4\)"):
        sequential_depth_loss([two[None]], [cgt], gt, cgt)
    with pytest.raises(ShapeMismatchError, match=r"step 0: depth shape \(2, 4, 4\), expected \(4, 4\)$"):
        sequential_depth_loss_grad([two], [cgt], gt, cgt)
    labels = np.zeros((4, 4), np.uint8)
    with pytest.raises(ShapeMismatchError, match=r"step 1: logits shape \(3, 4, 4, 2\)"):
        slz_loss([np.zeros((2, 4, 4, 2)), np.zeros((3, 4, 4, 2))], labels)
    with pytest.raises(ShapeMismatchError, match=r"step 0: logits shape \(2, 4, 4, 2\)"):
        slz_loss_grad([np.zeros((2, 4, 4, 2))], labels)
    depth, target = np.full((8, 8), 2.0), np.zeros((8, 8, 3))
    target[..., 2] = -1.0
    with pytest.raises(ShapeMismatchError, match="the gradient takes one depth raster"):
        depth_normal_consistency_grad(np.stack([depth, depth]), target, INTR)
    with pytest.raises(ShapeMismatchError, match="at least a 3x3 depth raster"):
        depth_normal_consistency(depth[None, None], target, INTR)


def _crop_checks():
    """A noisy 24x24 ground-plane crop seen from afar, as the benchmark's."""
    rng = np.random.default_rng(16)
    depth = plane_depth(24, 24, INTR, 0.1, -0.2, 40.0) * (1.0 + rng.uniform(-5e-4, 5e-4, (24, 24)))
    target = np.broadcast_to(plane_unit_normal(0.1, -0.2), (24, 24, 3)).copy()
    grad = depth_normal_consistency_grad(depth, target, INTR)[1]
    return [(lambda x: depth_normal_consistency(x, target, INTR), depth, grad)]


def _nan_hole_checks():
    rng = np.random.default_rng(8)
    depth = 4.0 + rng.uniform(-0.3, 0.3, (10, 10))
    depth[4, 5] = np.nan
    target = np.zeros((10, 10, 3))
    target[..., 2] = -1.0
    grad = depth_normal_consistency_grad(depth, target, INTR)[1]
    return [(lambda x: depth_normal_consistency(x, target, INTR), depth, grad)]


def _slz_checks(with_valid):
    rng = np.random.default_rng(6)
    labels = (rng.uniform(size=(5, 6)) > 0.5).astype(np.uint8)
    seq = [rng.normal(size=(5, 6, 2)) for _ in range(2)]
    valid = (rng.uniform(size=(5, 6)) > 0.3).astype(np.uint8) if with_valid else None
    grads = slz_loss_grad(seq, labels, valid=valid)[1]
    return [(lambda x, i=i: slz_loss([x if j == i else z for j, z in enumerate(seq)], labels,
                                     valid=valid), seq[i], grads[i]) for i in range(2)]


def _sequential_checks():
    rng = np.random.default_rng(7)
    gt = 3.0 + rng.uniform(-0.5, 0.5, (5, 6))
    cgt = rng.uniform(0.2, 0.8, (5, 6))
    preds = [gt + rng.uniform(0.2, 0.6, (5, 6)), gt - rng.uniform(0.2, 0.6, (5, 6))]
    confs = [cgt + 0.1, cgt - 0.15]
    valid = (rng.uniform(size=(5, 6)) > 0.3).astype(np.uint8)
    _, gd, gc = sequential_depth_loss_grad(preds, confs, gt, cgt, valid=valid)
    checks = []
    for i in range(2):
        checks.append((lambda x, i=i: sequential_depth_loss(
            [x if j == i else p for j, p in enumerate(preds)], confs, gt, cgt, valid=valid),
            preds[i], gd[i]))
        checks.append((lambda x, i=i: sequential_depth_loss(
            preds, [x if j == i else c for j, c in enumerate(confs)], gt, cgt, valid=valid),
            confs[i], gc[i]))
    return checks


GRAD_CHECK_CASES = {
    "dncl-crop-24x24": _crop_checks,
    "dncl-nan-hole": _nan_hole_checks,
    "slz-two-steps": lambda: _slz_checks(False),
    "slz-two-steps-valid": lambda: _slz_checks(True),
    "sequential-valid": _sequential_checks,
}


@pytest.mark.parametrize("per_call", [None, 1, 7, "all"])
@pytest.mark.parametrize("case", GRAD_CHECK_CASES)
def test_grad_check_equals_the_per_element_oracle(monkeypatch, case, per_call):
    # per_call elements perturbed per call of f; 7 divides none of the sizes,
    # so the last chunk is short
    for f, x, grad in GRAD_CHECK_CASES[case]():
        assert x.size % 7
        if per_call is not None:
            k = x.size if per_call == "all" else per_call
            monkeypatch.setattr(losses, "_GRAD_CHECK_ELEMENTS", 2 * k * x.size)
        assert grad_check(f, x, grad) == oracles.grad_check_ref(f, x, grad)


@pytest.mark.parametrize("per_call", [None, 1, 7])
@pytest.mark.parametrize("sign", [1, -1])
def test_grad_check_names_the_first_non_finite_element_in_flat_order(monkeypatch, per_call, sign):
    x = np.random.default_rng(3).normal(size=(6, 6))
    if per_call is not None:
        monkeypatch.setattr(losses, "_GRAD_CHECK_ELEMENTS", 2 * per_call * x.size)

    def f(v):  # NaN where element 17 or 30 moves by sign * eps
        moved = (v.reshape(len(v), -1) - x.reshape(-1)) * sign > 0
        return np.where(moved[:, 17] | moved[:, 30], np.nan, (v**2).sum(axis=(-2, -1)))

    with pytest.raises(DegenerateInputError, match=r"non-finite loss at element 17$"):
        grad_check(f, x, 2 * x)


@pytest.mark.parametrize("result", [
    lambda v: float((v**2).sum()),  # one scalar for the whole stack
    lambda v: (v**2).sum(axis=-1),  # (b, H)
    lambda v: (v**2).sum(axis=(-2, -1))[:-1],  # one value short
    lambda v: (v**2).sum(axis=(-2, -1))[:, None],  # (b, 1)
])
def test_grad_check_rejects_an_f_of_another_shape(result):
    x = np.random.default_rng(4).normal(size=(3, 4))
    with pytest.raises(ShapeMismatchError, match=r"f returned shape .* expected \("):
        grad_check(result, x, 2 * x)


def test_grad_check_memory_is_bounded_by_its_element_budget():
    # A stack of perturbed rasters holds _GRAD_CHECK_ELEMENTS float64
    # elements, and the consistency loss keeps about 9 arrays of its size
    # alive; one whole (2N, N) stack of a 40x40 raster is 160 of them.
    side = 40
    rng = np.random.default_rng(10)
    depth = 4.0 + rng.uniform(-0.3, 0.3, (side, side))
    target = np.zeros((side, side, 3))
    target[..., 2] = -1.0
    grad = depth_normal_consistency_grad(depth, target, INTR)[1]
    gc.collect()
    tracemalloc.start()
    try:
        grad_check(lambda x: depth_normal_consistency(x, target, INTR), depth, grad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = 8 * losses._GRAD_CHECK_ELEMENTS
    assert 2 * side**2 * side**2 * 8 > 100 * stack
    assert peak <= 12 * stack, f"peak {peak / stack:.1f} stacks of the element budget"


def test_dncl_gradient_is_zero_outside_the_loss_for_an_invalid_depth_pixel():
    # the loss skips the NaN pixel and the pixels whose stencils touch it; their
    # non-finite tangents must not carry NaN into the neighbours' gradient
    rng = np.random.default_rng(8)
    depth = 4.0 + rng.uniform(-0.3, 0.3, (10, 10))
    depth[4, 5] = np.nan
    target = np.zeros((10, 10, 3))
    target[..., 2] = -1.0
    value, grad = depth_normal_consistency_grad(depth, target, INTR)
    assert np.isfinite(value) and np.isfinite(grad).all()
    assert grad[4, 5] == 0.0  # every pixel it reaches is outside the loss
    err = grad_check(lambda x: depth_normal_consistency(x, target, INTR), depth, grad, eps=1e-5)
    assert err <= 1e-3

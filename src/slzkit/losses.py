"""Fine-tuning loss stack and a finite-difference gradient checker.

Five pieces: virtual-normal loss over sampled point triplets, temporally
decayed sequential depth+confidence L1, depth-normal consistency,
temporally decayed weighted cross-entropy for the safe/unsafe branch,
and the weighted combination of the first three.

Everything is pure numpy, computed in float64, and deterministic given a
seed. Analytic gradients (w.r.t. the prediction inputs) are provided for
the sequential, consistency, and cross-entropy losses; the checker
verifies them against central differences.

The sequential, consistency and cross-entropy values also take a (b, ...)
stack of prediction rasters and return one value per raster, each equal
bit for bit to the value of that raster alone; the checker hands them its
perturbed rasters that way. Their gradients take one raster per input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics, valid_depth_mask
from .errors import DegenerateInputError, ShapeMismatchError
from .geometry import _backproject_pixels, _cross_to_depth, _normal_planes
from .io import _check_mask

DEFAULT_GAMMA = 0.9  # temporal decay of the sequential and safe-zone losses
_LOG_FLOOR = 1e-12
# Scale-free triplet degeneracy test: reject when the plane normal is
# shorter than this fraction of the product of the edge lengths.
_COLLINEAR_TOL = 1e-6
# float64 elements in one stack of perturbed rasters that grad_check hands to
# its loss: 32-64 rasters a stack measured fastest on 24x24 and 18x18x2 checks
_GRAD_CHECK_ELEMENTS = 2 ** 15


@dataclass(frozen=True)
class LossWeights:
    """Balancing coefficients of the vnl, sequential and dncl components."""

    lambda1: float = 0.2
    lambda2: float = 0.5
    lambda3: float = 0.01

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class ClassWeights:
    """Per-class weights for the safe/unsafe cross-entropy."""

    w_safe: float = 2.0
    w_unsafe: float = 1.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")


def _decays(gamma, T):
    """The weights gamma^(T-t) of steps t = 0..T of a temporally decayed loss."""
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    return [gamma ** (T - t) for t in range(T + 1)]


def _valid_set(valid, shape):
    """``(mask, count, index)`` of the pixels a loss averages over: those
    nonzero in `valid`, or all of them when it is None. The index gathers
    them from a raveled raster; when every pixel is valid it is a slice,
    which skips the boolean gather."""
    v = np.ones(shape, dtype=bool) if valid is None else np.asarray(valid) != 0
    if v.shape != shape:
        raise ShapeMismatchError(f"valid mask shape {v.shape} != raster shape {shape}")
    n = int(v.sum())
    if n == 0:
        raise DegenerateInputError("empty valid set")
    return v, n, slice(None) if n == v.size else v.ravel()


def _batch(x, shape, lead, what):
    """The batch shape of a prediction input x: () for one raster of
    `shape`, (b,) for a stack of b of them. `lead` is the batch shape of
    the call's inputs so far, which a stack must match; None allows no
    stack (the gradients take one raster)."""
    got = x.shape[:max(x.ndim - len(shape), 0)]
    stack_ok = lead is not None and len(got) == 1 and lead in ((), got)
    if x.shape[len(got):] != shape or got and not stack_ok:
        raise ShapeMismatchError(f"{what} shape {x.shape}, expected {shape}"
                                 + ("" if lead is None else f" or a stack of b {shape}"))
    return got or lead


def _mean(x, kept):
    """Mean of the kept pixels (see :func:`_valid_set`) over x's trailing
    (H, W) axes: a float64 for one raster, one per raster of a stack. A
    stack's gather is made row-contiguous, so that each row is summed
    pairwise as one raster is; a column-major gather sums it sequentially."""
    rows = x.reshape(x.shape[:-2] + (-1,))[..., kept]
    return np.ascontiguousarray(rows).mean(axis=-1)


def _value(total):
    """A loss value: a float for one raster, the (b,) array of a stack."""
    return float(total) if np.ndim(total) == 0 else total


def _collinear(pts):
    """Near-collinear test of (k, 3, 3) point triplets."""
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    cr = np.cross(e1, e2)
    lhs = np.linalg.norm(cr, axis=1)
    rhs = _COLLINEAR_TOL * np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
    out = lhs <= rhs
    # The norm of one 3-vector runs a BLAS dot, which may fuse multiply-adds and
    # so round differently from the axis norm above. Decide the triplets within
    # rounding of the threshold with the one-vector norm, so that the accepted
    # stream does not depend on the batching.
    for i in np.flatnonzero(np.abs(lhs - rhs) <= 1e-12 * rhs).tolist():
        out[i] = (np.linalg.norm(cr[i])
                  <= _COLLINEAR_TOL * np.linalg.norm(e1[i]) * np.linalg.norm(e2[i]))
    return out


def sample_triplets(d_pred, d_gt, intr: CameraIntrinsics, n_samples, seed):
    """Draw accepted pixel triplets for the virtual-normal loss.

    Sampling is uniform over pixels valid in both rasters, from a
    counter-based Philox stream keyed by `seed`, so the exact sequence can
    be replayed by an independent checker. Triplets whose backprojected
    points are near-collinear in either raster are rejected and redrawn.

    Returns an (n_samples, 3, 2) int array of (row, col) coordinates.
    """
    dp, dg = np.asarray(d_pred), np.asarray(d_gt)
    if dp.shape != dg.shape or dp.ndim != 2:
        raise ShapeMismatchError(f"depth shapes differ: {dp.shape} vs {dg.shape}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    pixels = np.flatnonzero(valid_depth_mask(dp) & valid_depth_mask(dg))
    if pixels.size == 0:
        raise DegenerateInputError("no pixel is valid in both depth rasters")
    rng = np.random.Generator(np.random.Philox(seed))
    limit = 100 * n_samples
    batches = []
    accepted = attempts = 0
    while accepted < n_samples:
        if attempts >= limit:
            raise DegenerateInputError(
                f"no non-collinear triplet found in {limit} attempts")
        # One draw of 3k indices is the same stream as k draws of 3, so the
        # batches replay the one-triplet-at-a-time sequence; they double in
        # size while rejections leave triplets missing.
        k = min(limit - attempts, max(n_samples - accepted, attempts))
        drawn = pixels[rng.integers(0, pixels.size, size=3 * k)]
        tri = np.stack(np.divmod(drawn, dp.shape[1]), axis=-1).reshape(k, 3, 2)
        attempts += k
        rows, cols = tri[..., 0], tri[..., 1]
        rejected = (_collinear(_backproject_pixels(dg, rows, cols, intr))
                    | _collinear(_backproject_pixels(dp, rows, cols, intr)))
        tri = tri[~rejected][:n_samples - accepted]
        batches.append(tri)
        accepted += len(tri)
    return np.concatenate(batches)


def _plane_normals(pts):
    """Unit plane normals for (n, 3, 3) stacked point triplets."""
    cr = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
    return cr / np.linalg.norm(cr, axis=1, keepdims=True)


def virtual_normal_loss(d_pred, d_gt, intr: CameraIntrinsics, n_samples, seed):
    """Mean distance between unit plane normals of sampled point triplets.

    Each triplet of pixels is backprojected through both the predicted and
    the ground-truth depth; the loss compares the normals of the two planes.
    """
    tri = sample_triplets(d_pred, d_gt, intr, n_samples, seed)
    rows, cols = tri[..., 0], tri[..., 1]
    n_p = _plane_normals(_backproject_pixels(np.asarray(d_pred), rows, cols, intr))
    n_g = _plane_normals(_backproject_pixels(np.asarray(d_gt), rows, cols, intr))
    return float(np.mean(np.linalg.norm(n_p - n_g, axis=1)))


def sequential_depth_loss(d_preds, conf_preds, d_gt, c_gt, gamma=DEFAULT_GAMMA, valid=None):
    """Temporally decayed sum of per-step depth and confidence L1 losses.

    Step t of T+1 contributes gamma^(T-t) * (mean |D_t - D_gt| + mean |C_t - C_gt|)
    over the valid pixels; t=0 is the initial (pre-refinement) prediction.
    """
    return _sequential(d_preds, conf_preds, d_gt, c_gt, gamma, valid, need_grad=False)[0]


def sequential_depth_loss_grad(d_preds, conf_preds, d_gt, c_gt, gamma=DEFAULT_GAMMA, valid=None):
    """Loss plus analytic gradients w.r.t. each step's depth and confidence."""
    return _sequential(d_preds, conf_preds, d_gt, c_gt, gamma, valid, need_grad=True)


def _sequential(d_preds, conf_preds, d_gt, c_gt, gamma, valid, need_grad):
    if len(d_preds) != len(conf_preds):
        raise ShapeMismatchError(
            f"{len(d_preds)} depth steps != {len(conf_preds)} confidence steps")
    if len(d_preds) == 0:
        raise DegenerateInputError("empty prediction sequence")
    dg, cg = np.asarray(d_gt), np.asarray(c_gt)
    if dg.shape != cg.shape:
        raise ShapeMismatchError(f"d_gt shape {dg.shape} != c_gt shape {cg.shape}")
    v, n, kept = _valid_set(valid, dg.shape)

    # the total turns into one value per raster at the first stacked step
    total = 0.0
    lead = None if need_grad else ()
    grads_d, grads_c = [], []
    for t, decay in enumerate(_decays(gamma, len(d_preds) - 1)):
        dp, cp = np.asarray(d_preds[t]), np.asarray(conf_preds[t])
        lead = _batch(dp, dg.shape, lead, f"step {t}: depth")
        lead = _batch(cp, dg.shape, lead, f"step {t}: confidence")
        # residuals in float64, with no float64 copy of the inputs
        rd = np.subtract(dp, dg, dtype=np.float64)
        rc = np.subtract(cp, cg, dtype=np.float64)
        if need_grad:
            gd = np.zeros(dg.shape)
            gc = np.zeros(dg.shape)
            gd[v] = decay * np.sign(rd[v]) / n
            gc[v] = decay * np.sign(rc[v]) / n
            grads_d.append(gd)
            grads_c.append(gc)
        total += decay * (_mean(np.abs(rd, out=rd), kept) + _mean(np.abs(rc, out=rc), kept))
    return _value(total), grads_d, grads_c


def depth_normal_consistency(d_pred, n_pred, intr: CameraIntrinsics):
    """Mean (1 - cos) disagreement between depth-derived and predicted normals."""
    return _depth_normal_consistency(d_pred, n_pred, intr, need_grad=False)[0]


def depth_normal_consistency_grad(d_pred, n_pred, intr: CameraIntrinsics):
    """Loss plus analytic gradient w.r.t. the predicted depth raster.

    The gradient chains through normalization, the tangent cross product,
    the difference stencils, and the backprojection rays. The valid-pixel
    set and orientation signs are held fixed (they are locally constant).
    """
    return _depth_normal_consistency(d_pred, n_pred, intr, need_grad=True)


def _depth_normal_consistency(d_pred, n_pred, intr, need_grad):
    if need_grad and np.ndim(d_pred) != 2:
        raise ShapeMismatchError(f"the gradient takes one depth raster, got shape {np.shape(d_pred)}")
    f = _normal_planes(d_pred, intr)
    hw = f.ok.shape[-2:]
    n_in = np.asarray(n_pred)
    if n_in.shape != hw + (3,):
        raise ShapeMismatchError(f"normal raster shape {n_in.shape} != {hw + (3,)}")
    # One float64 plane of the predicted normals at a time. Sums run left to
    # right over x, y, z, as numpy reduces a last axis of 3: |target|^2, once
    # for a stack of depths, and derived . target with derived = cross * scale
    # (NaN off the normals).
    sq, t = np.zeros(hw), np.empty(hw)
    dot, term = np.zeros_like(f.scale), np.empty_like(f.scale)
    for k, c in enumerate(f.cross):
        np.copyto(t, n_in[..., k])
        np.multiply(c, f.scale, out=term)
        term *= t
        dot += term
        t *= t
        sq += t
    del t, term
    m = f.ok & (np.sqrt(sq, out=sq) > 1e-6)
    del sq
    kept = m.reshape(-1, hw[0] * hw[1])  # the pixels of each raster's mean
    counts = kept.sum(axis=1)
    if not counts.all():
        raise DegenerateInputError("no pixel with both a derived and a predicted normal")
    np.subtract(1.0, dot, out=dot)
    if m.ndim == 2 or (kept == kept[0]).all():  # one gather serves every raster
        loss = _value(_mean(dot, kept[0]))
    else:  # a depth of some raster left the valid range: one gather each
        loss = np.array([_mean(row, k) for row, k in zip(dot, kept)])
    if not need_grad:
        return loss, None
    count = int(counts[0])

    # d loss / d cross at the masked pixels.
    c = [p[m] for p in f.cross]
    target = [n_in[..., k][m].astype(np.float64) for k in range(3)]
    nn = np.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
    cn = c[0] * target[0] + c[1] * target[1] + c[2] * target[2]
    q = cn / nn**3
    # the orientation sign of each normal is that of its scale
    a = np.copysign(1.0, f.scale[m]) * (-1.0 / count)
    g_c = []
    for ck, tk in zip(c, target):
        plane = np.zeros(m.shape)
        plane[m] = (tk / nn - ck * q) * a
        g_c.append(plane)
    return loss, _cross_to_depth(d_pred, f, g_c, m)


def slz_loss(logit_seq, labels, cw: ClassWeights = ClassWeights(), gamma=DEFAULT_GAMMA,
             valid=None):
    """Temporally decayed weighted cross-entropy over a logit sequence.

    Each step holds (H, W, 2) logits for the safe(0)/unsafe(1) classes;
    probabilities come from a max-stabilized softmax with the log floored
    at 1e-12 so saturated wrong predictions stay finite.
    """
    return _slz(logit_seq, labels, cw, gamma, valid, need_grad=False)[0]


def slz_loss_grad(logit_seq, labels, cw: ClassWeights = ClassWeights(), gamma=DEFAULT_GAMMA,
                  valid=None):
    """Loss plus analytic gradient w.r.t. each step's logits."""
    return _slz(logit_seq, labels, cw, gamma, valid, need_grad=True)


def _slz(logit_seq, labels, cw, gamma, valid, need_grad):
    if len(logit_seq) == 0:
        raise DegenerateInputError("empty logit sequence")
    lab = _check_mask(labels, "labels")
    v, n, kept = _valid_set(valid, lab.shape)
    decays = _decays(gamma, len(logit_seq) - 1)
    safe = lab == 0
    w = np.where(safe, cw.w_safe, cw.w_unsafe)
    # the total turns into one value per raster at the first stacked step
    total = 0.0
    lead = None if need_grad else ()
    grads = []
    # three float64 planes serve every step of one shape: the logits become
    # their exponentials in place, and the larger logit the sum
    e0 = e1 = s = np.empty(0)
    for t, (logits, decay) in enumerate(zip(logit_seq, decays)):
        z = np.asarray(logits)
        lead = _batch(z, lab.shape + (2,), lead, f"step {t}: logits")
        if e0.shape != z.shape[:-1]:
            e0, e1, s = (np.empty(z.shape[:-1]) for _ in range(3))
        # two-class softmax, stabilized by the larger logit
        np.copyto(e0, z[..., 0])
        np.copyto(e1, z[..., 1])
        np.maximum(e0, e1, out=s)
        e0 -= s
        np.exp(e0, out=e0)
        e1 -= s
        np.exp(e1, out=e1)
        np.add(e0, e1, out=s)
        if need_grad:
            p = np.stack([e0 / s, e1 / s], axis=-1)
            onehot = np.stack([safe, ~safe], axis=-1)
            g = (decay / n) * w[..., None] * (p - onehot)
            g[~v] = 0.0
            grads.append(g)
        # w * log(max(p_true, floor)) per pixel, into e0; the loss is minus its mean
        np.copyto(e0, e1, where=~safe)
        e0 /= s
        np.log(np.maximum(e0, _LOG_FLOOR, out=e0), out=e0)
        e0 *= w
        total -= decay * _mean(e0, kept)
    return _value(total), grads


def fine_tune_loss(vnl, sequential, dncl, weights: LossWeights = LossWeights()):
    """Weighted combination of the three fine-tuning components.

    `sequential` is the already decay-summed sequential loss value.
    """
    for name, val in (("vnl", vnl), ("sequential", sequential), ("dncl", dncl)):
        if not math.isfinite(val):
            raise ValueError(f"non-finite {name} component: {val}")
    return weights.lambda1 * vnl + weights.lambda2 * sequential + weights.lambda3 * dncl


def grad_check(f, x, analytic_grad, eps=1e-5):
    """Max relative error between central differences of f and a gradient.

    f maps a (b, *x.shape) stack of rasters to its b loss values, as the
    sequential, consistency and cross-entropy values do for a stack of
    prediction rasters. The check perturbs each element of x by +eps and
    by -eps and hands f these copies of x a chunk at a time, about 2^15
    float64 elements a stack (two rasters for a larger x), so its memory
    does not grow with x.size^2. The relative error per element uses
    max(|fd|, |analytic|, 1e-8) as denominator.

    f must return a finite value for each perturbed raster, and every
    analytic element must be finite; otherwise the check raises
    DegenerateInputError naming the first offending element in flat
    order. An f that returns any shape other than (b,) raises
    ShapeMismatchError.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    shape = np.shape(x)
    flat_x = np.asarray(x, dtype=np.float64).reshape(-1)
    g = np.asarray(analytic_grad, dtype=np.float64)
    if g.shape != shape:
        raise ShapeMismatchError(f"gradient shape {g.shape} != parameter shape {shape}")
    flat_g = g.reshape(-1)
    bad = np.flatnonzero(~np.isfinite(flat_g))
    if bad.size:
        raise DegenerateInputError(f"non-finite analytic gradient at element {bad[0]}")
    n = flat_x.size
    per = max(1, _GRAD_CHECK_ELEMENTS // max(2 * n, 1))  # elements perturbed per call of f
    max_err = 0.0
    for start in range(0, n, per):
        k = min(per, n - start)
        # row r < k adds eps to element start + r, row k + r subtracts it
        rows = np.arange(k)
        stack = np.tile(flat_x, (2 * k, 1))
        stack[rows, start + rows] += eps
        stack[k + rows, start + rows] -= eps
        values = np.asarray(f(stack.reshape((2 * k,) + shape)), dtype=np.float64)
        if values.shape != (2 * k,):
            raise ShapeMismatchError(
                f"f returned shape {values.shape} for a stack of {2 * k} rasters, expected ({2 * k},)")
        fp, fm = values[:k], values[k:]
        bad = np.flatnonzero(~(np.isfinite(fp) & np.isfinite(fm)))
        if bad.size:
            raise DegenerateInputError(f"non-finite loss at element {start + bad[0]}")
        fd = (fp - fm) / (2.0 * eps)
        gi = flat_g[start:start + k]
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(gi)), 1e-8)
        max_err = max(max_err, float((np.abs(fd - gi) / denom).max()))
    return max_err

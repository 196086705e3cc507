"""Fine-tuning loss stack and a finite-difference gradient checker.

Five pieces: virtual-normal loss over sampled point triplets, temporally
decayed sequential depth+confidence L1, depth-normal consistency,
temporally decayed weighted cross-entropy for the safe/unsafe branch,
and the weighted combination of the first three.

Everything is pure numpy, computed in float64, and deterministic given a
seed. Analytic gradients (w.r.t. the prediction inputs) are provided for
the sequential, consistency, and cross-entropy losses; the checker
verifies them against central differences.
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

    total = 0.0
    grads_d, grads_c = [], []
    for t, decay in enumerate(_decays(gamma, len(d_preds) - 1)):
        dp, cp = np.asarray(d_preds[t]), np.asarray(conf_preds[t])
        if dp.shape != dg.shape or cp.shape != dg.shape:
            raise ShapeMismatchError(f"step {t}: prediction shape mismatch")
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
        total += decay * (np.abs(rd, out=rd).ravel()[kept].mean()
                          + np.abs(rc, out=rc).ravel()[kept].mean())
    return float(total), grads_d, grads_c


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
    f = _normal_planes(d_pred, intr)
    n_in = np.asarray(n_pred)
    if n_in.shape != f.ok.shape + (3,):
        raise ShapeMismatchError(f"normal raster shape {n_in.shape} != {f.ok.shape + (3,)}")
    # One float64 plane of the predicted normals at a time. Sums run left to
    # right over x, y, z, as numpy reduces a last axis of 3: |target|^2, and
    # derived . target with derived = cross * scale (NaN off the normals).
    sq, dot = np.zeros_like(f.scale), np.zeros_like(f.scale)
    t, term = np.empty_like(f.scale), np.empty_like(f.scale)
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
    count = int(m.sum())
    if count == 0:
        raise DegenerateInputError("no pixel with both a derived and a predicted normal")
    loss = float(np.mean(np.subtract(1.0, dot, out=dot)[m]))
    if not need_grad:
        return loss, None

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
    total = 0.0
    grads = []
    # three float64 planes serve every step: the logits become their
    # exponentials in place, and the larger logit the sum
    e0, e1, s = np.empty(lab.shape), np.empty(lab.shape), np.empty(lab.shape)
    for t, (logits, decay) in enumerate(zip(logit_seq, decays)):
        z = np.asarray(logits)
        if z.shape != lab.shape + (2,):
            raise ShapeMismatchError(f"step {t}: logits shape {z.shape}, expected {lab.shape + (2,)}")
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
        total -= decay * float(e0.ravel()[kept].mean())
    return float(total), grads


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

    The relative error per element uses max(|fd|, |analytic|, 1e-8) as
    denominator. f must return a finite scalar for each perturbed raster,
    and every analytic element must be finite; otherwise the check raises
    DegenerateInputError naming the first offending element.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64)).copy()
    g = np.asarray(analytic_grad, dtype=np.float64)
    if g.shape != x.shape:
        raise ShapeMismatchError(f"gradient shape {g.shape} != parameter shape {x.shape}")
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    bad = np.flatnonzero(~np.isfinite(flat_g))
    if bad.size:
        raise DegenerateInputError(f"non-finite analytic gradient at element {bad[0]}")
    max_err = 0.0
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        fp = f(x)
        flat_x[i] = orig - eps
        fm = f(x)
        flat_x[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise DegenerateInputError(f"non-finite loss at element {i}")
        fd = (fp - fm) / (2.0 * eps)
        denom = max(abs(fd), abs(flat_g[i]), 1e-8)
        max_err = max(max_err, abs(fd - flat_g[i]) / denom)
    return max_err

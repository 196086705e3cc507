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
from .geometry import _normal_pipeline, backproject_grid
from .io import _is_binary

_LOG_FLOOR = 1e-12
# Scale-free triplet degeneracy test: reject when the plane normal is
# shorter than this fraction of the product of the edge lengths.
_COLLINEAR_TOL = 1e-6


@dataclass(frozen=True)
class LossWeights:
    """Balancing coefficients, temporal decay, and step count."""

    lambda1: float = 0.2
    lambda2: float = 0.5
    lambda3: float = 0.01
    gamma: float = 0.9
    T: int = 4

    def __post_init__(self):
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ValueError("loss weights must be >= 0")
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.T < 0:
            raise ValueError(f"T must be >= 0, got {self.T}")


@dataclass(frozen=True)
class ClassWeights:
    """Per-class weights for the safe/unsafe cross-entropy."""

    w_safe: float = 2.0
    w_unsafe: float = 1.0

    def __post_init__(self):
        if self.w_safe <= 0 or self.w_unsafe <= 0:
            raise ValueError("class weights must be > 0")


def _as_valid_mask(valid, shape):
    if valid is None:
        return np.ones(shape, dtype=bool)
    v = np.asarray(valid)
    if v.shape != shape:
        raise ShapeMismatchError(f"valid mask shape {v.shape} != raster shape {shape}")
    return v != 0


def _degenerate_triplet(pts):
    e1 = pts[1] - pts[0]
    e2 = pts[2] - pts[0]
    cr = np.cross(e1, e2)
    return np.linalg.norm(cr) <= _COLLINEAR_TOL * np.linalg.norm(e1) * np.linalg.norm(e2)


def sample_triplets(d_pred, d_gt, intr: CameraIntrinsics, n_samples, seed):
    """Draw accepted pixel triplets for the virtual-normal loss.

    Sampling is uniform over pixels valid in both rasters, from a
    counter-based Philox stream keyed by `seed`, so the exact sequence can
    be replayed by an independent checker. Triplets whose backprojected
    points are near-collinear in either raster are rejected and redrawn.

    Returns an (n_samples, 3, 2) int array of (row, col) coordinates.
    """
    dp = np.asarray(d_pred, dtype=np.float64)
    dg = np.asarray(d_gt, dtype=np.float64)
    if dp.shape != dg.shape or dp.ndim != 2:
        raise ShapeMismatchError(f"depth shapes differ: {dp.shape} vs {dg.shape}")
    if n_samples < 1:
        raise DegenerateInputError(f"n_samples must be >= 1, got {n_samples}")
    coords = np.argwhere(valid_depth_mask(dp) & valid_depth_mask(dg))
    if coords.shape[0] == 0:
        raise DegenerateInputError("no pixel is valid in both depth rasters")
    pts_p = backproject_grid(dp, intr)
    pts_g = backproject_grid(dg, intr)
    rng = np.random.Generator(np.random.Philox(seed))
    limit = 100 * n_samples
    accepted = []
    attempts = 0
    while len(accepted) < n_samples:
        if attempts >= limit:
            raise DegenerateInputError(
                f"no non-collinear triplet found in {limit} attempts")
        attempts += 1
        tri = coords[rng.integers(0, coords.shape[0], size=3)]
        rows, cols = tri[:, 0], tri[:, 1]
        if _degenerate_triplet(pts_g[rows, cols]) or _degenerate_triplet(pts_p[rows, cols]):
            continue
        accepted.append(tri)
    return np.asarray(accepted)


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
    n_p = _plane_normals(backproject_grid(np.asarray(d_pred, np.float64), intr)[rows, cols])
    n_g = _plane_normals(backproject_grid(np.asarray(d_gt, np.float64), intr)[rows, cols])
    return float(np.mean(np.linalg.norm(n_p - n_g, axis=1)))


def sequential_depth_loss(d_preds, conf_preds, d_gt, c_gt, weights: LossWeights, valid=None):
    """Temporally decayed sum of per-step depth and confidence L1 losses.

    Step t contributes gamma^(T-t) * (mean |D_t - D_gt| + mean |C_t - C_gt|)
    over the valid pixels; t=0 is the initial (pre-refinement) prediction.
    """
    total, _, _ = sequential_depth_loss_grad(d_preds, conf_preds, d_gt, c_gt, weights, valid)
    return total


def sequential_depth_loss_grad(d_preds, conf_preds, d_gt, c_gt, weights: LossWeights, valid=None):
    """Loss plus analytic gradients w.r.t. each step's depth and confidence."""
    T = weights.T
    if len(d_preds) != T + 1 or len(conf_preds) != T + 1:
        raise ShapeMismatchError(
            f"expected {T + 1} prediction steps, got {len(d_preds)} depth / {len(conf_preds)} confidence")
    dg = np.asarray(d_gt, dtype=np.float64)
    cg = np.asarray(c_gt, dtype=np.float64)
    if dg.shape != cg.shape:
        raise ShapeMismatchError(f"d_gt shape {dg.shape} != c_gt shape {cg.shape}")
    v = _as_valid_mask(valid, dg.shape)
    n = int(v.sum())
    if n == 0:
        raise DegenerateInputError("empty valid set")

    total = 0.0
    grads_d, grads_c = [], []
    for t in range(T + 1):
        dp = np.asarray(d_preds[t], dtype=np.float64)
        cp = np.asarray(conf_preds[t], dtype=np.float64)
        if dp.shape != dg.shape or cp.shape != dg.shape:
            raise ShapeMismatchError(f"step {t}: prediction shape mismatch")
        decay = weights.gamma ** (T - t)
        rd = dp - dg
        rc = cp - cg
        total += decay * (np.abs(rd[v]).mean() + np.abs(rc[v]).mean())
        gd = np.zeros_like(dp)
        gc = np.zeros_like(cp)
        gd[v] = decay * np.sign(rd[v]) / n
        gc[v] = decay * np.sign(rc[v]) / n
        grads_d.append(gd)
        grads_c.append(gc)
    return float(total), grads_d, grads_c


def depth_normal_consistency(d_pred, n_pred, intr: CameraIntrinsics):
    """Mean (1 - cos) disagreement between depth-derived and predicted normals."""
    loss, _ = depth_normal_consistency_grad(d_pred, n_pred, intr)
    return loss


def depth_normal_consistency_grad(d_pred, n_pred, intr: CameraIntrinsics):
    """Loss plus analytic gradient w.r.t. the predicted depth raster.

    The gradient chains through normalization, the tangent cross product,
    the difference stencils, and the backprojection rays. The valid-pixel
    set and orientation signs are held fixed (they are locally constant).
    """
    derived, ok, rays, tu, tv, cross, norm, sign = _normal_pipeline(d_pred, intr)
    n_in = np.asarray(n_pred, dtype=np.float64)
    if n_in.shape != derived.shape:
        raise ShapeMismatchError(f"normal raster shape {n_in.shape} != {derived.shape}")
    m = ok & (np.linalg.norm(n_in, axis=-1) > 1e-6)
    count = int(m.sum())
    if count == 0:
        raise DegenerateInputError("no pixel with both a derived and a predicted normal")

    loss = float(np.mean(1.0 - (derived[m] * n_in[m]).sum(axis=-1)))

    # d loss / d cross  at the masked pixels.
    c = cross[m]
    nn = norm[m]
    target = n_in[m]
    cn = (c * target).sum(axis=-1)
    g = (target / nn[:, None] - c * (cn / nn**3)[:, None])
    g *= (sign[m] * (-1.0 / count))[:, None]
    g_c = np.zeros_like(cross)
    g_c[m] = g

    # Through the cross product: cross = tu x tv.
    g_tu = np.cross(tv, g_c)
    g_tv = np.cross(g_c, tu)

    # Adjoint of the difference stencils (central /2 interior, one-sided borders).
    g_p = np.zeros_like(g_c)
    g_p[:, 2:] += 0.5 * g_tu[:, 1:-1]
    g_p[:, :-2] -= 0.5 * g_tu[:, 1:-1]
    g_p[:, 1] += g_tu[:, 0]
    g_p[:, 0] -= g_tu[:, 0]
    g_p[:, -1] += g_tu[:, -1]
    g_p[:, -2] -= g_tu[:, -1]
    g_p[2:, :] += 0.5 * g_tv[1:-1, :]
    g_p[:-2, :] -= 0.5 * g_tv[1:-1, :]
    g_p[1, :] += g_tv[0, :]
    g_p[0, :] -= g_tv[0, :]
    g_p[-1, :] += g_tv[-1, :]
    g_p[-2, :] -= g_tv[-1, :]

    # Points are depth * ray, so d point / d depth = ray.
    grad_d = (g_p * rays).sum(axis=-1)
    return loss, grad_d


def _softmax2(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def slz_loss(logit_seq, labels, cw: ClassWeights = ClassWeights(), gamma=0.9, valid=None):
    """Temporally decayed weighted cross-entropy over a logit sequence.

    Each step holds (H, W, 2) logits for the safe(0)/unsafe(1) classes;
    probabilities come from a max-stabilized softmax with the log floored
    at 1e-12 so saturated wrong predictions stay finite.
    """
    total, _ = slz_loss_grad(logit_seq, labels, cw, gamma, valid)
    return total


def slz_loss_grad(logit_seq, labels, cw: ClassWeights = ClassWeights(), gamma=0.9, valid=None):
    """Loss plus analytic gradient w.r.t. each step's logits."""
    if len(logit_seq) == 0:
        raise DegenerateInputError("empty logit sequence")
    lab = np.asarray(labels)
    if lab.ndim != 2 or not _is_binary(lab):
        raise ShapeMismatchError("labels must be a 2-D mask of 0/1 values")
    v = _as_valid_mask(valid, lab.shape)
    n = int(v.sum())
    if n == 0:
        raise DegenerateInputError("empty valid set")

    T = len(logit_seq) - 1
    w = np.where(lab == 0, cw.w_safe, cw.w_unsafe)
    onehot = np.stack([lab == 0, lab == 1], axis=-1).astype(np.float64)
    total = 0.0
    grads = []
    for t, logits in enumerate(logit_seq):
        z = np.asarray(logits, dtype=np.float64)
        if z.shape != lab.shape + (2,):
            raise ShapeMismatchError(f"step {t}: logits shape {z.shape}, expected {lab.shape + (2,)}")
        p = _softmax2(z)
        p_true = np.take_along_axis(p, lab[..., None].astype(np.intp), axis=-1)[..., 0]
        decay = gamma ** (T - t)
        total += decay * float((w[v] * -np.log(np.maximum(p_true[v], _LOG_FLOOR))).mean())
        g = (decay / n) * w[..., None] * (p - onehot)
        g[~v] = 0.0
        grads.append(g)
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
    denominator. f must return a finite scalar for each perturbed raster.
    """
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64)).copy()
    g = np.asarray(analytic_grad, dtype=np.float64)
    if g.shape != x.shape:
        raise ShapeMismatchError(f"gradient shape {g.shape} != parameter shape {x.shape}")
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
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

"""Fine-tuning loss stack and a finite-difference gradient checker.

Four pieces: virtual-normal loss over sampled point triplets, temporally
decayed sequential depth+confidence L1, depth-normal consistency and
temporally decayed weighted cross-entropy for the safe/unsafe branch.
Their weighted combination, ``settings.fine_tune_loss``, is plain Python
and lives with the paper's other settings.

Everything is pure numpy, computed in float64, and deterministic given a
seed. Analytic gradients (w.r.t. the prediction inputs) are provided for
the sequential, consistency, and cross-entropy losses; the checker
verifies them against central differences.

The sequential, consistency and cross-entropy values also take a (b, ...)
stack of prediction rasters and return one value per raster, each equal
bit for bit to the value of that raster alone; the checker hands them its
perturbed rasters that way. Their gradients take one raster per input.
The consistency loss reads its depth and normal rasters by rows, so they
may also be :class:`slzkit.io.RasterRows`.

The sequential and cross-entropy losses take their steps as any sequence
with len and indexing. They index step t once, when they reach it, and drop
its arrays before step t + 1, so a sequence that reads each raster from its
file when indexed holds one step at a time. Both add their per-step means
with `decayed_sum`.
"""

from __future__ import annotations

import numpy as np

from .camera import CameraIntrinsics, valid_depth_mask
from .errors import DegenerateInputError, ShapeMismatchError
from .geometry import _backproject_pixels, _bands, _cross_to_depth, _depth_stack, _row_bands
from .io import _check_mask, _row_source
from .settings import DEFAULT_GAMMA, ClassWeights

_LOG_FLOOR = 1e-12
# Scale-free triplet degeneracy test: reject when the plane normal is
# shorter than this fraction of the product of the edge lengths.
_COLLINEAR_TOL = 1e-6
# float64 elements in one stack of perturbed rasters that grad_check hands to
# its loss: 32-64 rasters a stack measured fastest on 24x24 and 18x18x2 checks
_GRAD_CHECK_ELEMENTS = 2 ** 15


def _decays(gamma, T):
    """The weights gamma^(T-t) of steps t = 0..T of a temporally decayed loss."""
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    return [gamma ** (T - t) for t in range(T + 1)]


def decayed_sum(values, gamma):
    """The temporally decayed sum of per-step values: gamma^(T-t) * values[t]
    over t = 0..T, T = len(values) - 1, added from 0.0 left to right.

    A plain loop, not ``sum()``, whose float rounding is compensated from
    Python 3.12 on. A value may be the (b,) array of a stack.
    """
    total = 0.0
    for decay, value in zip(_decays(gamma, len(values) - 1), values):
        total += decay * value
    return total


def _kept(mask, count):
    """The index that gathers the `count` pixels set in a boolean mask
    from a raveled raster of its shape. When that is every pixel it is a
    slice, so no index array is built and no boolean gather runs."""
    return slice(None) if count == mask.size else mask.ravel()


def _valid_set(valid, shape):
    """``(mask, count, index)`` of the pixels a loss averages over: those
    nonzero in `valid`, or all of them when it is None; the index is
    :func:`_kept`'s."""
    v = np.ones(shape, dtype=bool) if valid is None else np.asarray(valid) != 0
    if v.shape != shape:
        raise ShapeMismatchError(f"valid mask shape {v.shape} != raster shape {shape}")
    n = int(v.sum())
    if n == 0:
        raise DegenerateInputError("empty valid set")
    return v, n, _kept(v, n)


def _batch(x, shape, lead, what):
    """The batch shape of a prediction input x: () for one raster of
    `shape`, (b,) for a stack of b of them. `lead` is the batch shape of
    the call's inputs so far, which a stack must match; None allows no
    stack (the gradients take one raster)."""
    got = x.shape[:max(x.ndim - len(shape), 0)]
    stack_ok = lead is not None and len(got) == 1 and got[0] > 0 and lead in ((), got)
    if x.shape[len(got):] != shape or got and not stack_ok:
        raise ShapeMismatchError(f"{what} shape {x.shape}, expected {shape}"
                                 + ("" if lead is None else f" or a stack of b >= 1 {shape}"))
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
    valid = valid_depth_mask(dp) & valid_depth_mask(dg)
    n = int(np.count_nonzero(valid))
    if n == 0:
        raise DegenerateInputError("no pixel is valid in both depth rasters")
    # the flat indices of the valid pixels; draws index them, or are them
    pixels = None if n == valid.size else np.flatnonzero(valid)
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
        drawn = rng.integers(0, n, size=3 * k)
        if pixels is not None:
            drawn = pixels[drawn]
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

    lead = None if need_grad else ()
    means, grads_d, grads_c = [], [], []
    # one float64 residual plane serves both inputs of every step: the
    # residual of each input as read, with no float64 copy of it
    r = np.empty(0)
    for t, decay in enumerate(_decays(gamma, len(d_preds) - 1)):
        step = []
        for preds, gt, what, grads in ((d_preds, dg, "depth", grads_d),
                                       (conf_preds, cg, "confidence", grads_c)):
            x = np.asarray(preds[t])
            lead = _batch(x, dg.shape, lead, f"step {t}: {what}")
            if r.shape != x.shape:
                r = np.empty(x.shape)
            np.subtract(x, gt, out=r, dtype=np.float64)
            del x  # before the next read
            if need_grad:
                grads.append(np.where(v, decay * np.sign(r) / n, 0.0))
            step.append(_mean(np.abs(r, out=r), kept))
        means.append(step[0] + step[1])
    return _value(decayed_sum(means, gamma)), grads_d, grads_c


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
    if need_grad and len(np.shape(d_pred)) != 2:
        raise ShapeMismatchError(f"the gradient takes one depth raster, got shape {np.shape(d_pred)}")
    d = _depth_stack(d_pred)
    hw = d.shape[-2:]
    n_in = _row_source(n_pred)
    if n_in.shape != hw + (3,):
        raise ShapeMismatchError(f"normal raster shape {n_in.shape} != {hw + (3,)}")
    # the value needs only the dot plane and the pixel mask, band by band
    dot, m = np.zeros(d.shape), np.empty(d.shape, dtype=bool)
    for rows, _, f in _bands(d, intr):
        # One float64 plane of the predicted normals at a time. Sums run left
        # to right over x, y, z, as numpy reduces a last axis of 3: |target|^2,
        # once for a stack of depths, and derived . target with derived =
        # cross * scale (NaN off the normals).
        sq, t = np.zeros(f.ok.shape[-2:]), np.empty(f.ok.shape[-2:])
        band, term, n_b = dot[..., rows, :], np.empty_like(f.scale), n_in[rows]
        for k, c in enumerate(f.cross):
            np.copyto(t, n_b[..., k])
            np.multiply(c, f.scale, out=term)
            term *= t
            band += term
            t *= t
            sq += t
        np.logical_and(f.ok, np.sqrt(sq, out=sq) > 1e-6, out=m[..., rows, :])
        del sq, t, band, term, n_b
    kept = m.reshape(-1, hw[0] * hw[1])  # the pixels of each raster's mean
    counts = kept.sum(axis=1)
    if not counts.all():
        raise DegenerateInputError("no pixel with both a derived and a predicted normal")
    np.subtract(1.0, dot, out=dot)
    if m.ndim == 2 or (kept == kept[0]).all():  # one gather serves every raster
        loss = _value(_mean(dot, _kept(kept[0], counts[0])))
    else:  # a depth of some raster left the valid range: one gather each
        loss = np.array([_mean(row, _kept(k, c)) for row, k, c in zip(dot, kept, counts)])
    if not need_grad:
        return loss, None
    del dot

    # The gradient is a second pass over the bands, now that m and counts[0]
    # are fixed. Each band's planes cover two more rows on each side (see
    # _cross_to_depth), and the band keeps its own rows of the result.
    grad = np.empty(hw)
    for rows, cover, (rays, c, _, scale) in _bands(d, intr, halo=2):
        n_b = n_in[cover]
        # d loss / d cross, reading the predicted normals one plane at a
        # time; _cross_to_depth keeps the pixels in m
        with np.errstate(divide="ignore", invalid="ignore"):
            nn = c[0] * c[0]
            nn += c[1] * c[1]
            nn += c[2] * c[2]
            np.sqrt(nn, out=nn)
            q = c[0] * n_b[..., 0]
            q += c[1] * n_b[..., 1]
            q += c[2] * n_b[..., 2]
            np.divide(q, nn ** 3, out=q)  # (c . target) / |c|^3
            # the orientation sign of each normal is that of its scale
            a = np.copysign(1.0, scale, out=scale)
            a *= -1.0 / counts[0]
            g_c = []
            for k, ck in enumerate(c):
                g = np.divide(n_b[..., k], nn)
                g -= ck * q
                g *= a
                g_c.append(g)
        del c, nn, q, a, scale
        g_d = _cross_to_depth(d[cover], rays, g_c, m[cover])
        grad[rows] = g_d[rows.start - cover.start:rows.stop - cover.start]
        del g_c, g_d  # before the next band's planes
    return loss, grad


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


def _class_weighted(x, safe, unsafe, w_safe, w_unsafe):
    """x times w_safe on the safe pixels and w_unsafe on the others, in place."""
    np.multiply(x, w_safe, out=x, where=safe)
    np.multiply(x, w_unsafe, out=x, where=unsafe)
    return x


def _slz(logit_seq, labels, cw, gamma, valid, need_grad):
    if len(logit_seq) == 0:
        raise DegenerateInputError("empty logit sequence")
    lab = _check_mask(labels, "labels")
    v, n, kept = _valid_set(valid, lab.shape)
    decays = _decays(gamma, len(logit_seq) - 1)
    safe = lab == 0
    unsafe = ~safe
    lead = None if need_grad else ()
    means, grads = [], []
    # One float64 term plane serves every step of one shape, and two band
    # buffers serve every row band (geometry._row_bands) of it. In a band the
    # logits become their exponentials in place, the first in the term
    # plane's rows, and the larger logit their sum.
    term = np.empty(0)
    for t, decay in enumerate(decays):
        z = np.asarray(logit_seq[t])
        lead = _batch(z, lab.shape + (2,), lead, f"step {t}: logits")
        if term.shape != z.shape[:-1]:
            term = np.empty(z.shape[:-1])
            bands = list(_row_bands(term.shape))
            e1_buf, s_buf = (np.empty(term[..., bands[0], :].shape) for _ in range(2))
        if need_grad:
            grads.append(np.empty(z.shape))
        for rows in bands:
            e0 = term[..., rows, :]
            e1, s = e1_buf[..., :e0.shape[-2], :], s_buf[..., :e0.shape[-2], :]
            safe_b, unsafe_b = safe[rows], unsafe[rows]
            # two-class softmax, stabilized by the larger logit
            np.copyto(e0, z[..., rows, :, 0])
            np.copyto(e1, z[..., rows, :, 1])
            np.maximum(e0, e1, out=s)
            e0 -= s
            np.exp(e0, out=e0)
            e1 -= s
            np.exp(e1, out=e1)
            np.add(e0, e1, out=s)
            if need_grad:
                # d loss / d z_c = (decay / n) w (p_c - [c is the label]) on the valid pixels
                for c, (e, label) in enumerate(((e0, safe_b), (e1, unsafe_b))):
                    g = np.divide(e, s, out=grads[-1][rows, :, c])
                    g -= label
                    np.copyto(g, 0.0, where=~v[rows])
                    _class_weighted(g, safe_b, unsafe_b,
                                    (decay / n) * cw.w_safe, (decay / n) * cw.w_unsafe)
            # w * log(max(p_true, floor)) per pixel, into e0
            np.copyto(e0, e1, where=unsafe_b)
            e0 /= s
            np.log(np.maximum(e0, _LOG_FLOOR, out=e0), out=e0)
            _class_weighted(e0, safe_b, unsafe_b, cw.w_safe, cw.w_unsafe)
        del z  # before the next step's read
        means.append(-_mean(term, kept))  # the loss is minus the term's mean
    return _value(decayed_sum(means, gamma)), grads


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
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps}")
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

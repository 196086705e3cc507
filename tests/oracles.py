"""Independent brute-force reference implementations used by the tests.

Everything here recomputes results through a different code path than
the package (explicit loops, float64, no shared kernels) so that tests
compare two independent routes to the same value.

The loss references at the end are earlier package implementations kept
verbatim: the (H, W, 3) normal pipeline with the depth-normal consistency
value and gradient, the one-triplet-per-iteration VNL sampler, the slz
and sequential loss values, and the one-element-at-a-time gradient check.
The package computes the same arithmetic in another layout, so the tests
compare the two bit for bit.
"""

import math

import numpy as np
from scipy import ndimage
from scipy.special import expit


def conv2d_ref(x, kernel, bias):
    """Direct-loop same-padding cross-correlation in float64."""
    x = np.asarray(x, dtype=np.float64)
    k = np.asarray(kernel, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    height, width, _ = x.shape
    kh, kw, cin, cout = k.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((height, width, cout))
    for i in range(height):
        for j in range(width):
            for d in range(cout):
                acc = b[d]
                for di in range(kh):
                    for dj in range(kw):
                        ii, jj = i + di - ph, j + dj - pw
                        if 0 <= ii < height and 0 <= jj < width:
                            for c in range(cin):
                                acc += x[ii, jj, c] * k[di, dj, c, d]
                out[i, j, d] = acc
    return out


def conv_gru_ref(w, h, x):
    """Gate equations spelled out with the loop convolution."""
    h = np.asarray(h, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    hx = np.concatenate([h, x], axis=-1)
    z = expit(conv2d_ref(hx, w.wz, w.bz))
    r = expit(conv2d_ref(hx, w.wr, w.br))
    cand = np.tanh(conv2d_ref(np.concatenate([r * h, x], axis=-1), w.wh, w.bh))
    return (1.0 - z) * h + z * cand


def project_ref(head, h):
    mid = conv2d_ref(h, head.w1, head.b1)
    mid = np.where(mid > 0, mid, 0.0)
    return conv2d_ref(mid, head.w2, head.b2)


def resize_nearest_ref(x, out_h, out_w):
    h, w = x.shape[:2]
    out = np.zeros((out_h, out_w) + x.shape[2:], dtype=np.float64)
    for i in range(out_h):
        for j in range(out_w):
            out[i, j] = x[i * h // out_h, j * w // out_w]
    return out


def refinement_iteration_ref(state, weights):
    """One full depth-normal + slz iteration recomputed independently.

    Returns (depth, normal, slz) in float64.
    """
    x_q = np.concatenate([np.asarray(state.depth, np.float64)[..., None],
                          np.asarray(state.normal, np.float64)], axis=-1)
    h7, w7 = state.hidden_seventh.shape[:2]
    h14, w14 = state.hidden_fourteenth.shape[:2]
    h4, w4 = state.hidden_quarter.shape[:2]

    new_f = conv_gru_ref(weights.gru_fourteenth, state.hidden_fourteenth,
                         resize_nearest_ref(x_q, h14, w14))
    new_s = conv_gru_ref(weights.gru_seventh,
                         np.asarray(state.hidden_seventh, np.float64)
                         + resize_nearest_ref(new_f, h7, w7),
                         resize_nearest_ref(x_q, h7, w7))
    new_q = conv_gru_ref(weights.gru_quarter,
                         np.asarray(state.hidden_quarter, np.float64)
                         + resize_nearest_ref(new_s, h4, w4),
                         x_q)
    depth = np.asarray(state.depth, np.float64) + project_ref(weights.proj_depth, new_q)[..., 0]
    normal = np.asarray(state.normal, np.float64) + project_ref(weights.proj_normal, new_q)

    x_slz = np.concatenate([depth[..., None], normal,
                            np.asarray(state.slz, np.float64)], axis=-1)
    new_h = conv_gru_ref(weights.gru_slz, state.slz_hidden, x_slz)
    slz_out = np.asarray(state.slz, np.float64) + project_ref(weights.proj_slz, new_h)
    return depth, normal, slz_out


def flood_fill_components(mask):
    """4-connected safe components via explicit BFS over python sets.

    Returns a list of sorted pixel lists, ordered by first pixel in
    row-major scan order.
    """
    height, width = mask.shape
    seen = set()
    components = []
    for i in range(height):
        for j in range(width):
            if mask[i, j] != 0 or (i, j) in seen:
                continue
            stack = [(i, j)]
            seen.add((i, j))
            pixels = []
            while stack:
                r, c = stack.pop()
                pixels.append((r, c))
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if 0 <= rr < height and 0 <= cc < width \
                            and mask[rr, cc] == 0 and (rr, cc) not in seen:
                        seen.add((rr, cc))
                        stack.append((rr, cc))
            components.append(sorted(pixels))
    return components


def label_ref(mask):
    """4-connected safe components from ``ndimage.label`` and ``find_objects``.

    Returns the (H, W) labels renumbered so that label i + 1 is the i-th
    component by first pixel in row-major scan order, and the (R, 4)
    inclusive bboxes (min_row, min_col, max_row, max_col) in that order.
    """
    labels, count = ndimage.label(np.asarray(mask) == 0)
    values, first = np.unique(labels.ravel(), return_index=True)
    order = values[values > 0][np.argsort(first[values > 0], kind="stable")]
    renumber = np.zeros(count + 1, labels.dtype)
    renumber[order] = np.arange(1, count + 1)
    boxes = ndimage.find_objects(labels)
    bbox = np.array([(boxes[lab - 1][0].start, boxes[lab - 1][1].start,
                      boxes[lab - 1][0].stop - 1, boxes[lab - 1][1].stop - 1)
                     for lab in order.tolist()], dtype=np.int64).reshape(-1, 4)
    return renumber[labels], bbox


def dilate_ref(mask, radius):
    """Chebyshev dilation by explicit neighborhood max."""
    height, width = mask.shape
    out = np.zeros_like(mask)
    for i in range(height):
        for j in range(width):
            lo_r, hi_r = max(0, i - radius), min(height, i + radius + 1)
            lo_c, hi_c = max(0, j - radius), min(width, j + radius + 1)
            out[i, j] = mask[lo_r:hi_r, lo_c:hi_c].max()
    return out


def confusion_ref(pred, gt, ignore=None):
    cm = np.zeros((2, 2), dtype=np.int64)
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            if ignore is None or ignore[i, j] == 0:
                cm[int(gt[i, j]), int(pred[i, j])] += 1
    return cm


def backproject_ref(u, v, d, intr):
    """Pinhole lift of pixel (u, v) at depth d to a camera-frame (x, y, z)."""
    if not (math.isfinite(d) and d > 0):
        raise ValueError(f"invalid depth {d}: must be finite and > 0")
    return (u - intr.cx) * d / intr.fx, (v - intr.cy) * d / intr.fy, d


def pixel_area_ref(d, n_z, intr, n_z_min=0.1):
    """Ground area of one pixel, d^2 / (fx * fy * |n_z|); None when
    |n_z| < n_z_min (the pixel is left out of area sums)."""
    if not (math.isfinite(d) and d > 0):
        raise ValueError(f"invalid depth {d}: must be finite and > 0")
    if abs(n_z) < n_z_min:
        return None
    return d * d / (intr.fx * intr.fy * abs(n_z))


def plane_patch_area_ref(height, width, intr, a, b, c):
    """Exact area of the full-frame plane patch via corner projection.

    The patch boundary maps to straight 3D lines, so projecting the four
    cell-boundary corners along Z and applying the shoelace formula in
    the XY plane gives the projected area exactly; dividing by
    cos(tilt) = 1/sqrt(1+a^2+b^2) recovers the surface area.
    """
    corners_uv = [(-0.5, -0.5), (width - 0.5, -0.5),
                  (width - 0.5, height - 0.5), (-0.5, height - 0.5)]
    pts = []
    for u, v in corners_uv:
        rx = (u - intr.cx) / intr.fx
        ry = (v - intr.cy) / intr.fy
        g = 1.0 - a * rx - b * ry
        d = c / g
        pts.append((rx * d, ry * d))
    shoelace = 0.0
    for k in range(4):
        x0, y0 = pts[k]
        x1, y1 = pts[(k + 1) % 4]
        shoelace += x0 * y1 - x1 * y0
    projected = abs(shoelace) / 2.0
    return projected * np.sqrt(a * a + b * b + 1.0)


# --- bitwise loss references ----------------------------------------------------

_COLLINEAR_TOL = 1e-6
_LOG_FLOOR = 1e-12


def _valid_depth(d):
    return np.isfinite(d) & (d > 0)


def _rays(height, width, intr):
    xs = (np.arange(width, dtype=np.float64) - intr.cx) / intr.fx
    ys = (np.arange(height, dtype=np.float64) - intr.cy) / intr.fy
    rays = np.empty((height, width, 3), dtype=np.float64)
    rays[..., 0] = xs[None, :]
    rays[..., 1] = ys[:, None]
    rays[..., 2] = 1.0
    return rays


def _neighbor_valid(valid):
    vu = np.empty_like(valid)
    vu[:, 1:-1] = valid[:, :-2] & valid[:, 2:]
    vu[:, 0] = valid[:, 0] & valid[:, 1]
    vu[:, -1] = valid[:, -2] & valid[:, -1]
    vv = np.empty_like(valid)
    vv[1:-1, :] = valid[:-2, :] & valid[2:, :]
    vv[0, :] = valid[0, :] & valid[1, :]
    vv[-1, :] = valid[-2, :] & valid[-1, :]
    return vu, vv


def normal_pipeline_ref(depth, intr):
    """(normals, ok, rays, tu, tv, cross, norm, sign) on (H, W, 3) arrays."""
    d = np.asarray(depth, dtype=np.float64)
    valid = _valid_depth(d)
    rays = _rays(d.shape[0], d.shape[1], intr)
    pts = d[..., None] * rays
    tu = np.gradient(pts, axis=1)
    tv = np.gradient(pts, axis=0)
    cross = np.cross(tu, tv)
    norm = np.linalg.norm(cross, axis=-1)
    vu, vv = _neighbor_valid(valid)
    ok = valid & vu & vv & (norm > 0)
    sign = np.where(cross[..., 2] > 0, -1.0, 1.0)
    normals = np.zeros_like(pts)
    nz = norm[ok]
    normals[ok] = cross[ok] * (sign[ok] / nz)[:, None]
    return normals, ok, rays, tu, tv, cross, norm, sign


def dncl_grad_ref(d_pred, n_pred, intr):
    """Depth-normal consistency value and its gradient w.r.t. depth."""
    derived, ok, rays, tu, tv, cross, norm, sign = normal_pipeline_ref(d_pred, intr)
    n_in = np.asarray(n_pred, dtype=np.float64)
    m = ok & (np.linalg.norm(n_in, axis=-1) > 1e-6)
    count = int(m.sum())
    loss = float(np.mean(1.0 - (derived[m] * n_in[m]).sum(axis=-1)))
    c = cross[m]
    nn = norm[m]
    target = n_in[m]
    cn = (c * target).sum(axis=-1)
    g = (target / nn[:, None] - c * (cn / nn**3)[:, None])
    g *= (sign[m] * (-1.0 / count))[:, None]
    g_c = np.zeros_like(cross)
    g_c[m] = g
    g_tu = np.cross(tv, g_c)
    g_tv = np.cross(g_c, tu)
    g_tu[~m] = 0.0  # pixels outside the loss contribute nothing
    g_tv[~m] = 0.0
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
    grad_d = (g_p * rays).sum(axis=-1)
    return loss, grad_d


def _degenerate_triplet(pts):
    e1 = pts[1] - pts[0]
    e2 = pts[2] - pts[0]
    cr = np.cross(e1, e2)
    return np.linalg.norm(cr) <= _COLLINEAR_TOL * np.linalg.norm(e1) * np.linalg.norm(e2)


def sample_triplets_ref(d_pred, d_gt, intr, n_samples, seed):
    """One Philox triplet draw per iteration, rejecting near-collinear ones.

    Raises ValueError when `100 * n_samples` attempts are not enough.
    """
    dp = np.asarray(d_pred, dtype=np.float64)
    dg = np.asarray(d_gt, dtype=np.float64)
    coords = np.argwhere(_valid_depth(dp) & _valid_depth(dg))
    rays = _rays(dp.shape[0], dp.shape[1], intr)
    pts_p = dp[..., None] * rays
    pts_g = dg[..., None] * rays
    rng = np.random.Generator(np.random.Philox(seed))
    limit = 100 * n_samples
    accepted = []
    attempts = 0
    while len(accepted) < n_samples:
        if attempts >= limit:
            raise ValueError(f"no non-collinear triplet found in {limit} attempts")
        attempts += 1
        tri = coords[rng.integers(0, coords.shape[0], size=3)]
        rows, cols = tri[:, 0], tri[:, 1]
        if _degenerate_triplet(pts_g[rows, cols]) or _degenerate_triplet(pts_p[rows, cols]):
            continue
        accepted.append(tri)
    return np.asarray(accepted)


def slz_loss_ref(logit_seq, labels, w_safe=2.0, w_unsafe=1.0, gamma=0.9, valid=None):
    """Decayed weighted cross-entropy through a last-axis softmax."""
    lab = np.asarray(labels)
    v = np.ones(lab.shape, bool) if valid is None else np.asarray(valid) != 0
    T = len(logit_seq) - 1
    w = np.where(lab == 0, w_safe, w_unsafe)
    total = 0.0
    for t, logits in enumerate(logit_seq):
        z = np.asarray(logits, dtype=np.float64)
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=-1, keepdims=True)
        p_true = np.take_along_axis(p, lab[..., None].astype(np.intp), axis=-1)[..., 0]
        decay = gamma ** (T - t)
        total += decay * float((w[v] * -np.log(np.maximum(p_true[v], _LOG_FLOOR))).mean())
    return float(total)


def sequential_loss_ref(d_preds, conf_preds, d_gt, c_gt, gamma, valid=None):
    """Decayed depth + confidence L1 over the valid pixels, T = len - 1."""
    dg = np.asarray(d_gt, dtype=np.float64)
    cg = np.asarray(c_gt, dtype=np.float64)
    v = np.ones(dg.shape, bool) if valid is None else np.asarray(valid) != 0
    T = len(d_preds) - 1
    total = 0.0
    for t in range(T + 1):
        rd = np.asarray(d_preds[t], dtype=np.float64) - dg
        rc = np.asarray(conf_preds[t], dtype=np.float64) - cg
        total += gamma ** (T - t) * (np.abs(rd[v]).mean() + np.abs(rc[v]).mean())
    return float(total)


def grad_check_ref(f, x, analytic_grad, eps=1e-5):
    """Max relative error of central differences, two scalar calls of f per
    element of x; raises ValueError on a non-finite loss or gradient."""
    x = np.array(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = np.asarray(analytic_grad, dtype=np.float64).reshape(-1)
    if not np.isfinite(flat_g).all():
        raise ValueError("non-finite analytic gradient")
    max_err = 0.0
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        fp = f(x)
        flat_x[i] = orig - eps
        fm = f(x)
        flat_x[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError(f"non-finite loss at element {i}")
        fd = (fp - fm) / (2.0 * eps)
        denom = max(abs(fd), abs(flat_g[i]), 1e-8)
        max_err = max(max_err, abs(fd - flat_g[i]) / denom)
    return max_err

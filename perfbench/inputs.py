"""Seeded benchmark inputs, file codecs and numpy references.

Everything here is plain numpy: the benchmark builds its inputs and the
expected outputs of its checks without importing slzkit, so a bug in the
program cannot hide behind the same bug in the reference.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

WIDTH, HEIGHT = 1280, 720
BUFFER = 3  # unsafe buffer radius rendered into the synth masks
DILATE = 2  # --dilate given to `candidates`
K = 5  # --k given to `candidates`
N_Z_MIN = 0.1
GAMMA = 0.9
STEPS = 4  # prediction steps t = 0..STEPS in the loss inputs
VNL_SAMPLES = 1000
CROP_NOISE = 5e-4  # relative depth noise of the dncl gradient-check crop
CROP_SCALE = 10.0  # and its depth scale (the normals do not change with it)
W_SAFE, W_UNSAFE = 2.0, 1.0


# --- file codecs (the formats README.md documents) ------------------------

def write_f32r(path, arr):
    arr = np.asarray(arr, dtype="<f4")
    if arr.ndim == 2:
        arr = arr[..., None]
    h, w, c = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"F32R {w} {h} {c}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(arr).tobytes())


def read_f32r(path):
    with open(path, "rb") as fh:
        data = fh.read()
    nl = data.index(b"\n")
    _, w, h, c = data[:nl].split()
    w, h, c = int(w), int(h), int(c)
    arr = np.frombuffer(data[nl + 1:nl + 1 + w * h * c * 4], dtype="<f4").reshape(h, w, c)
    return arr[..., 0] if c == 1 else arr


def write_pgm(path, mask):
    h, w = mask.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write((mask.astype(np.uint8) * 255).tobytes())


def read_pgm(path):
    """Decode the P5 files slzkit writes (no header comments)."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, w, h, maxval, payload = data.split(maxsplit=4)
    assert magic == b"P5" and maxval == b"255"
    w, h = int(w), int(h)
    return (np.frombuffer(payload[:w * h], dtype=np.uint8).reshape(h, w) >= 128).astype(np.uint8)


def read_intrinsics(path):
    out = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            key, _, val = line.partition("=")
            out[key.strip()] = float(val)
    return out


def write_intrinsics(path, intr):
    with open(path, "w", encoding="ascii") as fh:
        for key in ("fx", "fy", "cx", "cy"):
            fh.write(f"{key}={intr[key]!r}\n")


def fsync_tree(root):
    """Flush the files under `root` to disk, so that their writeback does not
    land in the timing of later calls."""
    for dirpath, _, files in os.walk(root):
        for name in files:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def sha256_tree(root):
    """sha256 of every file under `root`, keyed by its relative path."""
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    h.update(block)
            digests[os.path.relpath(path, root)] = h.hexdigest()
    return dict(sorted(digests.items()))


# --- raster helpers --------------------------------------------------------

def smooth_field(rng, shape, grid=(5, 9)):
    """Bilinear upsampling of a coarse uniform(-1, 1) grid to `shape`."""
    coarse = rng.uniform(-1.0, 1.0, grid)

    def axis(n, g):
        pos = np.linspace(0.0, g - 1.0, n)
        lo = np.minimum(pos.astype(np.int64), g - 2)
        return lo, pos - lo

    r0, fr = axis(shape[0], grid[0])
    c0, fc = axis(shape[1], grid[1])
    top = coarse[r0][:, c0] * (1 - fc) + coarse[r0][:, c0 + 1] * fc
    bot = coarse[r0 + 1][:, c0] * (1 - fc) + coarse[r0 + 1][:, c0 + 1] * fc
    return top * (1 - fr)[:, None] + bot * fr[:, None]


def binarize(logits):
    return (logits[..., 1] >= logits[..., 0]).astype(np.uint8)


def dilate_unsafe(mask, radius):
    """Grow the unsafe (1) set by a (2r+1)^2 square; outside the frame is safe."""
    out = mask.copy()
    h, w = mask.shape
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            src = mask[max(dr, 0):h + min(dr, 0), max(dc, 0):w + min(dc, 0)]
            dst = out[max(-dr, 0):h + min(-dr, 0), max(-dc, 0):w + min(-dc, 0)]
            np.maximum(dst, src, out=dst)
    return out


def logits_from_mask(mask, field_, flip_gain):
    """Two-channel logits whose argmax is `mask`, except where the smooth field
    outweighs the margin (`flip_gain` > 1 lets whole blobs flip)."""
    margin = np.where(mask == 1, 1.0, -1.0)
    diff = margin * (1.0 + 0.25 * np.abs(field_)) + flip_gain * field_
    return np.stack([-0.5 * diff, 0.5 * diff], axis=-1).astype(np.float32)


# --- scenes ----------------------------------------------------------------

def camera(rng):
    fx = float(rng.uniform(850.0, 1050.0))
    return {"fx": fx, "fy": fx * float(rng.uniform(0.98, 1.02)),
            "cx": WIDTH / 2 + float(rng.uniform(-20, 20)),
            "cy": HEIGHT / 2 + float(rng.uniform(-20, 20))}


def _ray_g(intr, a, b, u, v):
    return 1.0 - a * (u - intr["cx"]) / intr["fx"] - b * (v - intr["cy"]) / intr["fy"]


def landing_spec(rng, horizon, walls, n_boxes=6):
    """Scene-spec text: tilted plane, `walls` full-height pillars that split
    the ground into walls+1 safe components, and `n_boxes` small boxes.
    With `horizon` the plane tilts up steeply enough for sky (depth 0) to
    fill the top rows of the frame."""
    intr = camera(rng)
    a = float(rng.uniform(-0.15, 0.15))
    b = float(rng.uniform(-4.5, -3.2)) if horizon else float(rng.uniform(-0.6, -0.1))
    c = float(rng.uniform(6.0, 20.0))
    lines = ["[scene]", f"width={WIDTH}", f"height={HEIGHT}"]
    lines += [f"{k}={v!r}" for k, v in intr.items()] + [f"buffer={BUFFER}"]
    lines += ["[plane]", f"a={a!r}", f"b={b!r}", f"c={c!r}"]
    boxes = []
    cols = np.sort(rng.choice(np.arange(1, walls + 1) * (WIDTH // (walls + 1)), walls,
                              replace=False)) if walls else []
    for col in cols:
        u0 = int(col + rng.integers(-60, 60))
        boxes.append((u0, 0, u0 + int(rng.integers(16, 40)), HEIGHT - 1))
    while len(boxes) < walls + n_boxes:
        w, h = (int(x) for x in rng.integers(40, 160, 2))
        u0 = int(rng.integers(0, WIDTH - w))
        v0 = int(rng.integers(0, HEIGHT - h))
        # the box centre must see the plane well below the horizon
        if _ray_g(intr, a, b, u0 + w / 2, v0 + h / 2) > 0.3:
            boxes.append((u0, v0, u0 + w - 1, v0 + h - 1))
    for u0, v0, u1, v1 in boxes:
        # the top sits 10-50 % closer to the camera than the plane below it
        g = _ray_g(intr, a, b, (u0 + u1) / 2, (v0 + v1) / 2)
        height = float(rng.uniform(0.1, 0.5)) * c / g
        lines += ["[box]", f"u0={u0}", f"v0={v0}", f"u1={u1}", f"v1={v1}",
                  f"height={height!r}"]
    return "\n".join(lines) + "\n"


def flat_spec(rng):
    """Scene-spec text for an obstacle-free tilted plane with no horizon."""
    intr = camera(rng)
    lines = ["[scene]", f"width={WIDTH}", f"height={HEIGHT}"]
    lines += [f"{k}={v!r}" for k, v in intr.items()] + ["buffer=0"]
    lines += ["[plane]", f"a={float(rng.uniform(-0.15, 0.15))!r}",
              f"b={float(rng.uniform(-0.6, -0.1))!r}", f"c={float(rng.uniform(6.0, 20.0))!r}"]
    return "\n".join(lines) + "\n"


def rect_grid_mask(rng, rows, cols):
    """All-unsafe mask with one safe rectangle per grid cell.

    Rectangles keep at least one unsafe pixel between each other and three
    from the frame edge, and are at least 10 px a side, so after a radius-2
    unsafe dilation each is still one component, shrunk by 2 px per side.
    Returns the mask and the rectangles (r0, c0, r1, c1), inclusive.
    """
    mask = np.ones((HEIGHT, WIDTH), dtype=np.uint8)
    rects = []
    ch, cw = (HEIGHT - 6) // rows, (WIDTH - 6) // cols
    for i in range(rows):
        for j in range(cols):
            top, left = 3 + i * ch, 3 + j * cw
            h = int(rng.integers(10, ch))
            w = int(rng.integers(10, cw))
            r0 = top + int(rng.integers(0, ch - h))
            c0 = left + int(rng.integers(0, cw - w))
            rects.append((r0, c0, r0 + h - 1, c0 + w - 1))
            mask[r0:r0 + h, c0:c0 + w] = 0
    return mask, rects


# --- references --------------------------------------------------------------

def derived_normals(depth, intr):
    """Normals from depth by central differences of the backprojected grid,
    oriented toward the camera; (normals, ok) with ok marking pixels whose
    stencil saw only valid depth."""
    d = np.asarray(depth, dtype=np.float64)
    h, w = d.shape
    rays = np.ones((h, w, 3))
    rays[..., 0] = ((np.arange(w) - intr["cx"]) / intr["fx"])[None, :]
    rays[..., 1] = ((np.arange(h) - intr["cy"]) / intr["fy"])[:, None]
    pts = d[..., None] * rays
    cross = np.cross(np.gradient(pts, axis=1), np.gradient(pts, axis=0))
    norm = np.linalg.norm(cross, axis=-1)
    valid = np.isfinite(d) & (d > 0)
    ok = valid.copy()
    pad = np.pad(valid, 1, constant_values=True)
    # interior stencils read both neighbours; border stencils read one
    ok &= pad[1:-1, :-2] & pad[1:-1, 2:] & pad[:-2, 1:-1] & pad[2:, 1:-1]
    ok &= norm > 0
    sign = np.where(cross[..., 2] > 0, -1.0, 1.0)
    normals = np.zeros_like(pts)
    normals[ok] = cross[ok] * (sign[ok] / norm[ok])[:, None]
    return normals, ok


def pixel_areas(depth, nz, intr, safe):
    """(included, areas): safe, valid pixels with |n_z| >= N_Z_MIN, and their
    areas d^2 / (fx fy |n_z|) (zero elsewhere)."""
    d = np.asarray(depth, dtype=np.float64)
    anz = np.abs(nz)
    included = safe & np.isfinite(d) & (d > 0) & (anz >= N_Z_MIN)
    areas = np.zeros_like(d)
    areas[included] = d[included] ** 2 / (intr["fx"] * intr["fy"] * anz[included])
    return included, areas


def sequential_loss(preds, confs, gt_d, gt_c):
    steps = len(preds) - 1
    return sum(GAMMA ** (steps - t) * (np.abs(p - gt_d).mean() + np.abs(c - gt_c).mean())
               for t, (p, c) in enumerate(zip(preds, confs)))


def dncl_loss(depth, normals_in, intr):
    derived, ok = derived_normals(depth, intr)
    m = ok & (np.linalg.norm(normals_in, axis=-1) > 1e-6)
    return float(np.mean(1.0 - (derived[m] * normals_in[m]).sum(axis=-1)))


def slz_loss(logit_seq, labels):
    steps = len(logit_seq) - 1
    w = np.where(labels == 0, W_SAFE, W_UNSAFE)
    total = 0.0
    for t, z in enumerate(logit_seq):
        z = z - z.max(axis=-1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=-1, keepdims=True)
        p_true = np.where(labels == 0, p[..., 0], p[..., 1])
        total += GAMMA ** (steps - t) * float((w * -np.log(np.maximum(p_true, 1e-12))).mean())
    return total


def confusion(pred, gt):
    return np.array([[np.sum((gt == g) & (pred == p)) for p in (0, 1)] for g in (0, 1)],
                    dtype=np.int64)


def evaluate_rows(cm):
    """The `evaluate` CSV body as floats (None for undefined entries)."""
    tp = np.diag(cm).astype(np.float64)
    fn = cm.sum(axis=1) - tp
    fp = cm.sum(axis=0) - tp

    def ratio(num, den):
        return [n / d * 100.0 if d > 0 else None for n, d in zip(num, den)]

    def mean(vals):
        vals = [v for v in vals if v is not None]
        return sum(vals) / len(vals) if vals else None

    dice = ratio(2 * tp, 2 * tp + fp + fn)
    rows = {"aAcc": [None, None, tp.sum() / cm.sum() * 100.0]}
    for name, vals in (("IoU", ratio(tp, tp + fp + fn)), ("Acc", ratio(tp, tp + fn)),
                       ("Dice", dice), ("Fscore", dice),
                       ("Precision", ratio(tp, tp + fp)), ("Recall", ratio(tp, tp + fn))):
        rows[name] = vals + [mean(vals)]
    return rows


# --- frames ----------------------------------------------------------------

@dataclass
class Frame:
    """One 720p frame: what `area`, `candidates` and `evaluate` read."""

    name: str
    dir: str
    derive_normals: bool
    rects: list = field(default_factory=list)  # many-regions: expected regions
    expect: dict = field(default_factory=dict)  # filled by Workload.references and checks

    def path(self, name):
        return os.path.join(self.dir, name)


@dataclass
class LossFrame:
    """Fine-tune step inputs derived from one synth frame."""

    dir: str
    src: str  # the synth frame it derives from
    expect: dict = field(default_factory=dict)

    def path(self, name):
        return os.path.join(self.dir, name)


def finish_frame(frame, rng, gt_mask, flip_gain, pred_dir, gt_dir):
    """Write the logits, the masks `evaluate` compares and the mask that
    `candidates` effectively uses (binarized logits, then dilated)."""
    logits = logits_from_mask(gt_mask, smooth_field(rng, gt_mask.shape), flip_gain)
    write_f32r(frame.path("logits.f32r"), logits)
    pred = binarize(logits)
    write_pgm(os.path.join(pred_dir, frame.name + ".pgm"), pred)
    write_pgm(os.path.join(gt_dir, frame.name + ".pgm"), gt_mask)
    write_pgm(frame.path("cand_mask.pgm"), dilate_unsafe(pred, DILATE))


def build_loss_frame(rng, src, out):
    """Seeded predictions around a synth frame for one fine-tune step, plus
    the small rasters the gradient checks run on."""
    os.makedirs(out, exist_ok=True)
    depth = read_f32r(os.path.join(src, "depth.f32r")).astype(np.float64)
    normals = read_f32r(os.path.join(src, "normals.f32r"))
    labels = read_pgm(os.path.join(src, "mask.pgm"))
    write_f32r(os.path.join(out, "gt_conf.f32r"), np.ones_like(depth))
    for t in range(STEPS + 1):
        scale = 0.2 * 0.6 ** t
        write_f32r(os.path.join(out, f"pred{t}.f32r"),
                   depth * (1.0 + scale * smooth_field(rng, depth.shape)))
        write_f32r(os.path.join(out, f"conf{t}.f32r"),
                   0.75 + 0.25 * smooth_field(rng, depth.shape))
        write_f32r(os.path.join(out, f"logits{t}.f32r"),
                   logits_from_mask(labels, smooth_field(rng, labels.shape), 1.5 * 0.6 ** t))
    # gradient-check rasters, sized so today's exhaustive check takes about
    # half a second: a 24x24 depth crop and two 18x18 logit steps. The
    # dncl loss jumps where a derived normal's orientation sign flips, so
    # the depth crop must keep every normal far from horizontal: it is a
    # window that sees only the ground plane, with 0.05 % noise (|n_z|
    # stays above about 0.35). The check steps depth by a fixed 1e-5,
    # whose truncation error grows as (step / pixel footprint)^2; at
    # ground depths of 5-20 m it reaches 4e-3 of the smallest gradient
    # entries, so the crop is seen from 10x as far, which leaves the
    # normals and the loss unchanged.
    intr = read_intrinsics(os.path.join(src, "intrinsics.txt"))
    r0, c0 = ground_window(labels, 24)
    crop = (slice(r0, r0 + 24), slice(c0, c0 + 24))
    write_intrinsics(os.path.join(out, "crop_intrinsics.txt"),
                     dict(intr, cx=intr["cx"] - c0, cy=intr["cy"] - r0))
    crop_depth = CROP_SCALE * depth[crop] * (1.0 + CROP_NOISE * rng.uniform(-1, 1, (24, 24)))
    crop_intr = read_intrinsics(os.path.join(out, "crop_intrinsics.txt"))
    min_nz = np.abs(derived_normals(crop_depth, crop_intr)[0][..., 2]).min()
    if min_nz < 0.2:
        raise RuntimeError(f"set-up: a normal of the dncl crop is near horizontal (|n_z| {min_nz:.3g})")
    write_f32r(os.path.join(out, "crop_depth.f32r"), crop_depth)
    write_f32r(os.path.join(out, "crop_normals.f32r"), normals[crop])
    for t in range(2):
        write_f32r(os.path.join(out, f"crop_logits{t}.f32r"), rng.normal(0.0, 1.0, (18, 18, 2)))
    lr, lc = HEIGHT - 40, WIDTH // 2 - 12  # labels come from the bottom centre
    write_pgm(os.path.join(out, "crop_labels.pgm"), labels[lr:lr + 18, lc:lc + 18])


def ground_window(labels, size):
    """Top-left corner of the size x size window nearest the bottom centre
    (on a grid of half-window steps over the lower half) whose pixels, and
    a one-pixel ring around them, are all safe: boxes and their buffers
    are unsafe, so the window sees only the ground plane."""
    step = size // 2
    corners = [(r, c) for r in range(1, HEIGHT - size, step)
               for c in range(1, WIDTH - size, step) if r >= HEIGHT // 2]
    corners.sort(key=lambda rc: (HEIGHT - size - rc[0]) ** 2
                 + (WIDTH // 2 - size // 2 - rc[1]) ** 2)
    for r, c in corners:
        if not labels[r - 1:r + size + 1, c - 1:c + size + 1].any():
            return r, c
    raise RuntimeError("set-up: no window of the landing frame sees only the ground")

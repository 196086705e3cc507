"""Dual-flow iterative refinement over a three-scale hidden pyramid.

One iteration, `refinement_step`, runs two residual updates in order,
all float32:

* depth-normal flow: three ConvGRU sub-blocks update hidden features at
  1/4, 1/7 and 1/14 of the base resolution (coarse to fine, with the
  upsampled coarser hidden added into the finer block's incoming hidden
  state); two projection heads read the 1/4 hidden state and emit depth
  and normal residuals.
* safe-zone flow: a single ConvGRU with its own 1/4-scale hidden state
  consumes the depth/normal the first flow just updated plus the current
  logits and emits a logit residual.

Everything is deterministic given weights and inputs; keeping the whole
state in float32 makes save/resume round trips bitwise.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import io as slzio
from .errors import ShapeMismatchError

DN_INPUT_CHANNELS = 4  # depth (1) + normal (3)
SLZ_INPUT_CHANNELS = 6  # depth (1) + normal (3) + logits (2)

_GRU_INPUT_CHANNELS = {
    "gru_quarter": DN_INPUT_CHANNELS,
    "gru_seventh": DN_INPUT_CHANNELS,
    "gru_fourteenth": DN_INPUT_CHANNELS,
    "gru_slz": SLZ_INPUT_CHANNELS,
}
_HEAD_OUTPUT_CHANNELS = {"proj_depth": 1, "proj_normal": 3, "proj_slz": 2}


class _Im2col:
    """An im2col workspace: a patch matrix and a zero-bordered input buffer,
    allocated once at the size of the largest conv they serve and reused by
    every conv of one kernel size that fits in them.

    Both are views of one numpy buffer, which is not zeroed: `input` zeroes
    the border of each input it lays out, and a conv reads only the patches
    it has just written. `run_refinement` makes one for all the 3x3 convs of
    its steps; `refinement_step`, `conv_gru_step` and `conv2d` called without
    one make their own.
    """

    def __init__(self, height, width, channels, kh=3, kw=3, dtype=np.float32):
        self._kh, self._kw = kh, kw
        patches = height * width * kh * kw * channels
        buf = np.empty(patches + (height + kh - 1) * (width + kw - 1) * channels, dtype)
        self._patches, self._padded = buf[:patches], buf[patches:]
        self._bordered = self._interior = None

    def input(self, height, width, channels):
        """The (height, width, channels) interior of the bordered input buffer,
        its border zeroed, for the caller to fill before its conv."""
        kh, kw = self._kh, self._kw
        padded = self._padded[:(height + kh - 1) * (width + kw - 1) * channels].reshape(
            height + kh - 1, width + kw - 1, channels)
        ph, pw = kh // 2, kw // 2
        padded[:ph] = padded[ph + height:] = 0
        padded[:, :pw] = padded[:, pw + width:] = 0
        self._bordered = padded
        self._interior = padded[ph:ph + height, pw:pw + width]
        return self._interior

    def patches(self, x):
        """The C-contiguous (H*W, kh*kw*cin) patch matrix of `x`, whose rows are
        windows in (kh, kw, cin) order; `x` is copied into the input buffer
        unless it is the interior that `input` last returned."""
        height, width, cin = x.shape
        if x is not self._interior:
            np.copyto(self.input(height, width, cin), x)
        kh, kw = self._kh, self._kw
        out = self._patches[:height * width * kh * kw * cin]
        np.copyto(out.reshape(height, width, 1, kh, kw, cin),
                  sliding_window_view(self._bordered, (kh, kw, cin)))
        return out.reshape(height * width, kh * kw * cin)


def conv2d(x, kernel, bias, workspace=None):
    """Same-padding 2-D cross-correlation; kernel is (kh, kw, cin, cout) with
    odd kh and kw, bias is (cout,).

    im2col: one (H*W, kh*kw*cin) patch matrix times the (kh*kw*cin, cout)
    kernel matrix, a single GEMM, with the bias added in place. A kh x kw
    kernel above 1 x 1 builds its patch matrix in `workspace`, an `_Im2col`
    for that kernel size, or in one of its own when none is given.
    """
    x = np.asarray(x)
    kh, kw, cin, cout = kernel.shape
    if x.ndim != 3 or x.shape[2] != cin:
        raise ShapeMismatchError(f"input shape {x.shape} incompatible with kernel {kernel.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeMismatchError(f"kernel {kernel.shape} has an even side: no same padding")
    if np.shape(bias) != (cout,):
        raise ShapeMismatchError(
            f"bias shape {np.shape(bias)} incompatible with kernel {kernel.shape}: "
            f"expected ({cout},)")
    height, width = x.shape[:2]
    if kh == kw == 1:
        patches = x.reshape(height * width, cin)
    else:
        if workspace is None:
            workspace = _Im2col(height, width, cin, kh, kw, x.dtype)
        patches = workspace.patches(x)
    out = patches @ kernel.reshape(-1, cout)
    out += bias
    return out.reshape(height, width, cout)


def sigmoid(v, out=None):
    """Logistic function without overflow: saturates to exactly 0 and 1.

    0.5 + 0.5 tanh(v / 2), formed in `out` (which may be `v`) when given."""
    out = np.asarray(np.multiply(v, 0.5, out=out))
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


@dataclass(frozen=True)
class ConvGruWeights:
    """Kernels and biases for the update, reset and candidate gates."""

    wz: np.ndarray
    bz: np.ndarray
    wr: np.ndarray
    br: np.ndarray
    wh: np.ndarray
    bh: np.ndarray

    def __post_init__(self):
        shape = self.wz.shape
        if self.wr.shape != shape or self.wh.shape != shape:
            raise ShapeMismatchError("gate kernels must share one shape")
        cout = shape[3]
        for b in (self.bz, self.br, self.bh):
            if b.shape != (cout,):
                raise ShapeMismatchError(f"gate bias shape {b.shape}, expected ({cout},)")


@dataclass(frozen=True)
class ProjectionHead:
    """Two-layer head (3x3 conv, relu, 1x1 conv) mapping hidden -> residual."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass(frozen=True)
class RefinementWeights:
    gru_quarter: ConvGruWeights
    gru_seventh: ConvGruWeights
    gru_fourteenth: ConvGruWeights
    gru_slz: ConvGruWeights
    proj_depth: ProjectionHead
    proj_normal: ProjectionHead
    proj_slz: ProjectionHead

    @property
    def hidden_channels(self):
        return self.gru_quarter.wz.shape[3]


@dataclass(frozen=True)
class RefinementState:
    """Hidden pyramid plus current predictions, all at their own scales.

    `depth`, `normal` and `slz` live at 1/4 of the base resolution; `t`
    counts the completed iterations.
    """

    hidden_quarter: np.ndarray
    hidden_seventh: np.ndarray
    hidden_fourteenth: np.ndarray
    slz_hidden: np.ndarray
    depth: np.ndarray
    normal: np.ndarray
    slz: np.ndarray
    t: int = 0


def conv_gru_step(w: ConvGruWeights, h, x, workspace=None):
    """One gated update: h' = (1-z) h + z tanh(conv([r*h, x])).

    [h, x] is written into the input buffer of `workspace` (an `_Im2col` of
    at least this level's size and channels; one of its own when none is
    given), and r*h then over its h channels, so neither is concatenated.
    """
    h = np.asarray(h, dtype=np.float32)
    x = np.asarray(x, dtype=np.float32)
    if h.ndim != 3 or x.ndim != 3 or h.shape[:2] != x.shape[:2]:
        raise ShapeMismatchError(f"hidden {h.shape} and input {x.shape} must share HxW")
    hc, channels = h.shape[2], w.wz.shape[2]
    if hc + x.shape[2] != channels:
        raise ShapeMismatchError(
            f"gate kernels expect {channels} channels, got {hc}+{x.shape[2]}")
    if workspace is None:
        workspace = _Im2col(*h.shape[:2], channels)
    hx = workspace.input(*h.shape[:2], channels)
    hx[..., :hc] = h
    hx[..., hc:] = x
    # z and r read the same input: one conv with both gates' 2*hc outputs
    zr = conv2d(hx, np.concatenate([w.wz, w.wr], axis=-1), np.concatenate([w.bz, w.br]),
                workspace=workspace)
    sigmoid(zr, out=zr)
    z = zr[..., :hc].copy()
    np.multiply(zr[..., hc:], h, out=hx[..., :hc])
    del zr  # freed before the candidate conv's output is made
    cand = conv2d(hx, w.wh, w.bh, workspace=workspace)
    np.tanh(cand, out=cand)
    # (1 - z) h + z cand, formed in z
    cand *= z
    np.subtract(1.0, z, out=z)
    z *= h
    z += cand
    return z


def project(head: ProjectionHead, h, workspace=None):
    """The head's residual of hidden state `h`; its 3x3 conv builds its patch
    matrix in `workspace` when one is given."""
    mid = conv2d(np.asarray(h, dtype=np.float32), head.w1, head.b1, workspace=workspace)
    np.maximum(mid, 0.0, out=mid)
    return conv2d(mid, head.w2, head.b2)


def _resize_nearest(x, like):
    """Nearest-neighbour resize of `x` to the (H, W) of the level `like`."""
    h, w = x.shape[:2]
    out_h, out_w = like.shape[:2]
    rows = np.arange(out_h) * h // out_h
    cols = np.arange(out_w) * w // out_w
    return x[rows[:, None], cols[None, :]]


def _step_workspace(state, weights):
    """The `_Im2col` that every 3x3 conv of a step from `state` fits in: the
    1/4 level with hidden + SLZ_INPUT_CHANNELS channels."""
    return _Im2col(*state.depth.shape, weights.hidden_channels + SLZ_INPUT_CHANNELS)


def refinement_step(state: RefinementState, weights: RefinementWeights,
                    workspace=None) -> RefinementState:
    """One iteration: the depth-normal flow, then the safe-zone flow on its updated geometry.

    Every 3x3 conv of the step (the fused z/r and the candidate conv of each
    of the four GRUs, and the first conv of each of the three heads) builds
    its patch matrix in one `_Im2col`: `workspace` when given, which must be
    at least the size of the largest conv (`_step_workspace`), and one of
    its own when not. Each conv is still one whole-matrix GEMM, so the bits
    are those of separate buffers, whatever the workspace held before.
    """
    ws = _step_workspace(state, weights) if workspace is None else workspace
    x_q = np.concatenate([state.depth[..., None], state.normal], axis=-1)
    new_f = conv_gru_step(weights.gru_fourteenth, state.hidden_fourteenth,
                          _resize_nearest(x_q, state.hidden_fourteenth), workspace=ws)
    new_s = conv_gru_step(weights.gru_seventh,
                          state.hidden_seventh + _resize_nearest(new_f, state.hidden_seventh),
                          _resize_nearest(x_q, state.hidden_seventh), workspace=ws)
    new_q = conv_gru_step(weights.gru_quarter,
                          state.hidden_quarter + _resize_nearest(new_s, state.hidden_quarter),
                          x_q, workspace=ws)
    depth = state.depth + project(weights.proj_depth, new_q, workspace=ws)[..., 0]
    normal = state.normal + project(weights.proj_normal, new_q, workspace=ws)

    new_h = conv_gru_step(weights.gru_slz, state.slz_hidden,
                          np.concatenate([depth[..., None], normal, state.slz], axis=-1),
                          workspace=ws)
    return replace(state,
                   hidden_quarter=new_q, hidden_seventh=new_s, hidden_fourteenth=new_f,
                   slz_hidden=new_h, depth=depth, normal=normal,
                   slz=state.slz + project(weights.proj_slz, new_h, workspace=ws),
                   t=state.t + 1)


def run_refinement(init: RefinementState, weights: RefinementWeights, steps: int):
    """An iterator over the states t = t0 .. t0+steps of `steps` iterations of
    `refinement_step`, from `init`. `steps` is checked at the call; each state
    is computed when the iterator reaches it, and ``list(...)`` holds them all.

    Every step runs in one `_Im2col` workspace, built at the call, which the
    iterator holds until it is dropped.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    ws = _step_workspace(init, weights)
    return itertools.accumulate(
        range(steps), lambda state, _: refinement_step(state, weights, ws), initial=init)


def _layout(hc):
    """The weight bundle, one conv at a time in `init_weights` draw order.

    Yields (block, entry name, kernel field, bias field, kernel shape) for
    `hc` hidden channels; init, save and load all walk this table.
    """
    for block, cin in _GRU_INPUT_CHANNELS.items():
        for gate in "zrh":
            yield block, f"{block}.{gate}", "w" + gate, "b" + gate, (3, 3, hc + cin, hc)
    for block, cout in _HEAD_OUTPUT_CHANNELS.items():
        yield block, f"{block}.conv1", "w1", "b1", (3, 3, hc, hc)
        yield block, f"{block}.conv2", "w2", "b2", (1, 1, hc, cout)


def _assemble(hc, pairs):
    """RefinementWeights from (kernel, bias) pairs given in layout order."""
    blocks = {}
    for (block, _, kernel_field, bias_field, _), pair in zip(_layout(hc), pairs):
        fields = blocks.setdefault(block, {})
        fields[kernel_field], fields[bias_field] = pair
    return RefinementWeights(**{
        block: (ConvGruWeights if block in _GRU_INPUT_CHANNELS else ProjectionHead)(**fields)
        for block, fields in blocks.items()})


def init_weights(hidden_channels=8, seed=0) -> RefinementWeights:
    """Seeded demo weights, uniform in [-0.1, 0.1] (float32)."""
    if hidden_channels < 1:
        raise ValueError(f"hidden_channels must be >= 1, got {hidden_channels}")
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.1, 0.1, shape).astype(np.float32)

    return _assemble(hidden_channels, ((u(*shape), u(shape[3]))
                                       for *_, shape in _layout(hidden_channels)))


def demo_state(base=56, hidden_channels=8, seed=0) -> RefinementState:
    """Seeded synthetic initial state for a square base resolution.

    The draw order below is part of the contract: a given seed always
    produces the same state.
    """
    if base % 28 != 0 or base <= 0:
        raise ValueError(f"base resolution must be a positive multiple of 28, got {base}")
    rng = np.random.default_rng(seed)
    h4 = base // 4
    shapes = _state_shapes(h4, h4, hidden_channels)

    def u(lo, hi, *shape):
        return rng.uniform(lo, hi, shape).astype(np.float32)

    hidden = {name: u(-0.1, 0.1, *shapes[name]) for name in
              ("hidden_quarter", "hidden_seventh", "hidden_fourteenth", "slz_hidden")}
    depth = u(1.0, 5.0, h4, h4)
    tilt = u(-0.3, 0.3, h4, h4, 2)
    normal = np.concatenate([tilt, -np.ones((h4, h4, 1), dtype=np.float32)], axis=-1)
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    slz = u(-1.0, 1.0, h4, h4, 2)
    return RefinementState(depth=depth, normal=normal.astype(np.float32), slz=slz, **hidden)


# --- serialization -----------------------------------------------------------

def _bundle_shapes(hc):
    """Stored shape of every weight-bundle entry, in layout order.

    A kh x kw kernel with cin inputs and cout outputs is a kh x kw raster
    of cin*cout channels, and its bias a 1-row raster of cout values.
    """
    shapes = {}
    for _, name, _, _, (kh, kw, cin, cout) in _layout(hc):
        shapes[name + ".kernel"] = (kh, kw, cin * cout)
        shapes[name + ".bias"] = (1, cout, 1)
    return shapes


def _state_shapes(h, w, c):
    """Stored shape of every state entry for an h x w 1/4-scale level and
    c hidden channels; the 1/7 and 1/14 levels are 4/7 and 2/7 of it."""
    return {"hidden_quarter": (h, w, c),
            "hidden_seventh": (4 * h // 7, 4 * w // 7, c),
            "hidden_fourteenth": (2 * h // 7, 2 * w // 7, c),
            "slz_hidden": (h, w, c), "depth": (h, w), "normal": (h, w, 3), "slz": (h, w, 2)}


_STATE_ENTRIES = tuple(_state_shapes(0, 0, 0))


def _save_dir(dirpath, entries, meta):
    """Write a directory of rasters, then its meta.txt.

    meta.txt is removed before the first raster and written after the last,
    so a save that stops midway leaves a directory that fails to load
    instead of one that mixes the old and the new contents.
    """
    os.makedirs(dirpath, exist_ok=True)
    meta_path = os.path.join(dirpath, "meta.txt")
    with contextlib.suppress(FileNotFoundError):
        os.remove(meta_path)
    for name, arr in entries.items():
        slzio.write_raster(arr, os.path.join(dirpath, name + ".f32r"))
    slzio.write_key_values(meta_path, meta)


def _load_dir(dirpath, key, least, names, shapes):
    """The integer `key` of a saved directory's meta.txt, which must be >=
    `least`, and its `names` entries, each in the shape that
    `shapes(value, entries)` gives.

    `shapes` returns a name -> stored shape table and the basis of those
    shapes, which an error names. A one-channel entry, which reads back
    2-D, is returned in its stored shape. Files not in `names` are not read.
    """
    path = os.path.join(dirpath, "meta.txt")
    if not os.path.exists(path):
        raise slzio.MissingEntryError(f"{path}: missing")
    value = slzio.read_key_values(path, {key: int}, (key,))[key]
    if value < least:
        raise slzio.ParseError(f"{path}: {key}={value} must be >= {least}")
    paths = {name: os.path.join(dirpath, name + ".f32r") for name in names}
    missing = [name for name, p in paths.items() if not os.path.exists(p)]
    if missing:
        raise slzio.MissingEntryError(f"{dirpath}: missing entries: {', '.join(missing)}")
    entries = {name: slzio.read_raster(p) for name, p in paths.items()}
    table, basis = shapes(value, entries)
    for name, shape in table.items():
        arr = entries[name]
        if arr.shape != shape and arr.shape + (1,) != shape:
            raise slzio.ParseError(f"{dirpath}: {name} has shape {arr.shape}, "
                                   f"expected {shape} from {basis}")
        entries[name] = arr.reshape(shape)
    return value, entries


def save_weights(weights: RefinementWeights, dirpath):
    """Write a weight bundle: one F32R per kernel/bias plus meta.txt."""
    hc = weights.hidden_channels
    # each conv's kernel, then its bias, in layout order
    arrays = (getattr(getattr(weights, block), field)
              for block, _, *fields, _ in _layout(hc) for field in fields)
    entries = {name: arr.reshape(shape) for (name, shape), arr
               in zip(_bundle_shapes(hc).items(), arrays)}
    _save_dir(dirpath, entries, {"hidden_channels": hc})


def load_weights(dirpath) -> RefinementWeights:
    """Load a weight bundle; raises MissingEntryError naming absent keys and
    ParseError naming an entry of the wrong shape."""
    hc, entries = _load_dir(dirpath, "hidden_channels", 1, _bundle_shapes(1),
                            lambda hc, _: (_bundle_shapes(hc), f"hidden_channels={hc}"))
    return _assemble(hc, ((entries[name + ".kernel"].reshape(shape),
                           entries[name + ".bias"].reshape(shape[3]))
                          for _, name, _, _, shape in _layout(hc)))


def save_state(state: RefinementState, dirpath):
    """Persist a refinement state (float32, bitwise) for later resumption."""
    _save_dir(dirpath, {name: getattr(state, name) for name in _STATE_ENTRIES}, {"t": state.t})


def load_state(dirpath, hidden_channels) -> RefinementState:
    """Load a saved state of `hidden_channels` hidden channels; raises
    ParseError naming an entry whose shape does not fit the depth raster's
    (H, W) and that channel count."""
    t, entries = _load_dir(dirpath, "t", 0, _STATE_ENTRIES, lambda _, read: (
        _state_shapes(*read["depth"].shape[:2], hidden_channels),
        f"depth {read['depth'].shape} and hidden_channels={hidden_channels}"))
    return RefinementState(t=t, **entries)

"""Dual-flow iterative refinement over a three-scale hidden pyramid.

One iteration runs two residual updates at desk scale, all float32:

* depth-normal flow: three ConvGRU sub-blocks update hidden features at
  1/4, 1/7 and 1/14 of the base resolution (coarse to fine, with the
  upsampled coarser hidden added into the finer block's incoming hidden
  state); two projection heads read the 1/4 hidden state and emit depth
  and normal residuals.
* safe-zone flow: a single ConvGRU with its own 1/4-scale hidden state
  consumes the *updated* depth/normal plus the current logits and emits
  a logit residual.

Everything is deterministic given weights and inputs; keeping the whole
state in float32 makes save/resume round trips bitwise.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from . import io as slzio
from .errors import ProtocolError, ShapeMismatchError

DN_INPUT_CHANNELS = 4  # depth (1) + normal (3)
SLZ_INPUT_CHANNELS = 6  # depth (1) + normal (3) + logits (2)

_GRU_INPUT_CHANNELS = {
    "gru_quarter": DN_INPUT_CHANNELS,
    "gru_seventh": DN_INPUT_CHANNELS,
    "gru_fourteenth": DN_INPUT_CHANNELS,
    "gru_slz": SLZ_INPUT_CHANNELS,
}
_HEAD_OUTPUT_CHANNELS = {"proj_depth": 1, "proj_normal": 3, "proj_slz": 2}


def conv2d(x, kernel, bias):
    """Same-padding 2-D cross-correlation; kernel is (kh, kw, cin, cout)."""
    x = np.asarray(x)
    kh, kw, cin, _ = kernel.shape
    if x.ndim != 3 or x.shape[2] != cin:
        raise ShapeMismatchError(f"input shape {x.shape} incompatible with kernel {kernel.shape}")
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((ph, ph), (pw, pw), (0, 0))) if ph or pw else x
    win = sliding_window_view(xp, (kh, kw), axis=(0, 1))
    return np.einsum("hwcij,ijcd->hwd", win, kernel) + bias


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

    `depth`, `normal` and `slz` live at 1/4 of the base resolution;
    `pending_slz` tracks that a depth-normal step awaits its paired
    safe-zone step before `t` may advance.
    """

    hidden_quarter: np.ndarray
    hidden_seventh: np.ndarray
    hidden_fourteenth: np.ndarray
    slz_hidden: np.ndarray
    depth: np.ndarray
    normal: np.ndarray
    slz: np.ndarray
    t: int = 0
    pending_slz: bool = False


def conv_gru_step(w: ConvGruWeights, h, x):
    """One gated update: h' = (1-z) h + z tanh(conv([r*h, x]))."""
    h = np.asarray(h, dtype=np.float32)
    x = np.asarray(x, dtype=np.float32)
    if h.ndim != 3 or x.ndim != 3 or h.shape[:2] != x.shape[:2]:
        raise ShapeMismatchError(f"hidden {h.shape} and input {x.shape} must share HxW")
    if h.shape[2] + x.shape[2] != w.wz.shape[2]:
        raise ShapeMismatchError(
            f"gate kernels expect {w.wz.shape[2]} channels, got {h.shape[2]}+{x.shape[2]}")
    hx = np.concatenate([h, x], axis=-1)
    z = expit(conv2d(hx, w.wz, w.bz))
    r = expit(conv2d(hx, w.wr, w.br))
    cand = np.tanh(conv2d(np.concatenate([r * h, x], axis=-1), w.wh, w.bh))
    return (1.0 - z) * h + z * cand


def project(head: ProjectionHead, h):
    mid = conv2d(np.asarray(h, dtype=np.float32), head.w1, head.b1)
    np.maximum(mid, 0.0, out=mid)
    return conv2d(mid, head.w2, head.b2)


def _resize_nearest(x, out_h, out_w):
    h, w = x.shape[:2]
    rows = np.arange(out_h) * h // out_h
    cols = np.arange(out_w) * w // out_w
    return x[rows[:, None], cols[None, :]]


def depth_normal_flow_step(state: RefinementState, weights: RefinementWeights) -> RefinementState:
    """Update the hidden pyramid from (D_t, N_t) and apply depth/normal residuals."""
    if state.pending_slz:
        raise ProtocolError("slz_flow_step must complete the previous iteration first")
    x_q = np.concatenate([state.depth[..., None], state.normal], axis=-1)
    h7, w7 = state.hidden_seventh.shape[:2]
    h14, w14 = state.hidden_fourteenth.shape[:2]
    h4, w4 = state.hidden_quarter.shape[:2]

    new_f = conv_gru_step(weights.gru_fourteenth, state.hidden_fourteenth,
                          _resize_nearest(x_q, h14, w14))
    new_s = conv_gru_step(weights.gru_seventh,
                          state.hidden_seventh + _resize_nearest(new_f, h7, w7),
                          _resize_nearest(x_q, h7, w7))
    new_q = conv_gru_step(weights.gru_quarter,
                          state.hidden_quarter + _resize_nearest(new_s, h4, w4),
                          x_q)
    delta_d = project(weights.proj_depth, new_q)[..., 0]
    delta_n = project(weights.proj_normal, new_q)
    return replace(state,
                   hidden_quarter=new_q, hidden_seventh=new_s, hidden_fourteenth=new_f,
                   depth=state.depth + delta_d, normal=state.normal + delta_n,
                   pending_slz=True)


def slz_flow_step(state: RefinementState, weights: RefinementWeights) -> RefinementState:
    """Update the safe-zone hidden state from the refreshed geometry and apply the logit residual."""
    if not state.pending_slz:
        raise ProtocolError("depth_normal_flow_step must run before slz_flow_step")
    x = np.concatenate([state.depth[..., None], state.normal, state.slz], axis=-1)
    new_h = conv_gru_step(weights.gru_slz, state.slz_hidden, x)
    delta = project(weights.proj_slz, new_h)
    return replace(state, slz_hidden=new_h, slz=state.slz + delta,
                   t=state.t + 1, pending_slz=False)


def run_refinement(init: RefinementState, weights: RefinementWeights, steps: int):
    """Run `steps` paired flow updates; returns all states t = t0 .. t0+steps."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    states = [init]
    state = init
    for _ in range(steps):
        state = slz_flow_step(depth_normal_flow_step(state, weights), weights)
        states.append(state)
    return states


def init_weights(hidden_channels=8, seed=0) -> RefinementWeights:
    """Seeded demo weights, uniform in [-0.1, 0.1] (float32)."""
    rng = np.random.default_rng(seed)

    def u(*shape):
        return rng.uniform(-0.1, 0.1, shape).astype(np.float32)

    def gru(cin):
        cin_total = hidden_channels + cin
        return ConvGruWeights(
            wz=u(3, 3, cin_total, hidden_channels), bz=u(hidden_channels),
            wr=u(3, 3, cin_total, hidden_channels), br=u(hidden_channels),
            wh=u(3, 3, cin_total, hidden_channels), bh=u(hidden_channels),
        )

    def head(cout):
        return ProjectionHead(
            w1=u(3, 3, hidden_channels, hidden_channels), b1=u(hidden_channels),
            w2=u(1, 1, hidden_channels, cout), b2=u(cout),
        )

    return RefinementWeights(
        gru_quarter=gru(DN_INPUT_CHANNELS),
        gru_seventh=gru(DN_INPUT_CHANNELS),
        gru_fourteenth=gru(DN_INPUT_CHANNELS),
        gru_slz=gru(SLZ_INPUT_CHANNELS),
        proj_depth=head(1), proj_normal=head(3), proj_slz=head(2),
    )


def zero_projection_heads(weights: RefinementWeights) -> RefinementWeights:
    """Copy of `weights` with every projection head zeroed (residuals vanish)."""

    def zeroed(head):
        return ProjectionHead(np.zeros_like(head.w1), np.zeros_like(head.b1),
                              np.zeros_like(head.w2), np.zeros_like(head.b2))

    return replace(weights, proj_depth=zeroed(weights.proj_depth),
                   proj_normal=zeroed(weights.proj_normal),
                   proj_slz=zeroed(weights.proj_slz))


def demo_state(base=56, hidden_channels=8, seed=0) -> RefinementState:
    """Seeded synthetic initial state for a square base resolution.

    The draw order below is part of the contract: a given seed always
    produces the same state.
    """
    if base % 28 != 0 or base <= 0:
        raise ValueError(f"base resolution must be a positive multiple of 28, got {base}")
    rng = np.random.default_rng(seed)
    h4, h7, h14 = base // 4, base // 7, base // 14

    def u(lo, hi, *shape):
        return rng.uniform(lo, hi, shape).astype(np.float32)

    hidden_q = u(-0.1, 0.1, h4, h4, hidden_channels)
    hidden_s = u(-0.1, 0.1, h7, h7, hidden_channels)
    hidden_f = u(-0.1, 0.1, h14, h14, hidden_channels)
    slz_hidden = u(-0.1, 0.1, h4, h4, hidden_channels)
    depth = u(1.0, 5.0, h4, h4)
    tilt = u(-0.3, 0.3, h4, h4, 2)
    normal = np.concatenate([tilt, -np.ones((h4, h4, 1), dtype=np.float32)], axis=-1)
    normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
    slz = u(-1.0, 1.0, h4, h4, 2)
    return RefinementState(hidden_quarter=hidden_q, hidden_seventh=hidden_s,
                           hidden_fourteenth=hidden_f, slz_hidden=slz_hidden,
                           depth=depth, normal=normal.astype(np.float32), slz=slz)


# --- serialization -----------------------------------------------------------

def required_entry_names():
    names = []
    for gru in _GRU_INPUT_CHANNELS:
        for gate in ("z", "r", "h"):
            names += [f"{gru}.{gate}.kernel", f"{gru}.{gate}.bias"]
    for head in _HEAD_OUTPUT_CHANNELS:
        for layer in ("conv1", "conv2"):
            names += [f"{head}.{layer}.kernel", f"{head}.{layer}.bias"]
    return names


def _write_meta(path, mapping):
    with open(path, "w", encoding="ascii") as fh:
        for key, val in mapping.items():
            fh.write(f"{key}={val}\n")


def _read_meta(dirpath, key):
    """The integer `key` of a directory's meta.txt."""
    path = os.path.join(dirpath, "meta.txt")
    if not os.path.exists(path):
        raise slzio.MissingEntryError(f"{path}: missing")
    meta = slzio.read_key_values(path, {key: int})
    if key not in meta:
        raise slzio.ParseError(f"{dirpath}: meta.txt lacks a valid {key}")
    return meta[key]


def save_weights(weights: RefinementWeights, dirpath):
    """Write a weight bundle: one F32R per kernel/bias plus meta.txt."""
    entries = {}
    for name in _GRU_INPUT_CHANNELS:
        gru = getattr(weights, name)
        for gate, (k, b) in (("z", (gru.wz, gru.bz)), ("r", (gru.wr, gru.br)),
                             ("h", (gru.wh, gru.bh))):
            entries[f"{name}.{gate}.kernel"] = k.reshape(k.shape[0], k.shape[1], -1)
            entries[f"{name}.{gate}.bias"] = b.reshape(1, -1)
    for name in _HEAD_OUTPUT_CHANNELS:
        head = getattr(weights, name)
        for layer, (k, b) in (("conv1", (head.w1, head.b1)), ("conv2", (head.w2, head.b2))):
            entries[f"{name}.{layer}.kernel"] = k.reshape(k.shape[0], k.shape[1], -1)
            entries[f"{name}.{layer}.bias"] = b.reshape(1, -1)
    slzio.write_raster_dir(dirpath, entries)
    _write_meta(os.path.join(dirpath, "meta.txt"), {"hidden_channels": weights.hidden_channels})


def load_weights(dirpath) -> RefinementWeights:
    """Load a weight bundle; raises MissingEntryError naming absent keys."""
    hc = _read_meta(dirpath, "hidden_channels")
    entries = slzio.read_raster_dir(dirpath, required=required_entry_names())

    def kernel(name, cin, cout):
        arr = entries[name]
        want = arr.shape[0] * arr.shape[1] * cin * cout
        if arr.size != want:
            raise slzio.ParseError(f"{dirpath}: {name} has {arr.size} values, expected {want}")
        return np.ascontiguousarray(arr).reshape(arr.shape[0], arr.shape[1], cin, cout)

    def bias(name, cout):
        arr = entries[name]
        if arr.size != cout:
            raise slzio.ParseError(f"{dirpath}: {name} has {arr.size} values, expected {cout}")
        return np.ascontiguousarray(arr).reshape(cout)

    def gru(name):
        cin = hc + _GRU_INPUT_CHANNELS[name]
        return ConvGruWeights(
            wz=kernel(f"{name}.z.kernel", cin, hc), bz=bias(f"{name}.z.bias", hc),
            wr=kernel(f"{name}.r.kernel", cin, hc), br=bias(f"{name}.r.bias", hc),
            wh=kernel(f"{name}.h.kernel", cin, hc), bh=bias(f"{name}.h.bias", hc),
        )

    def head(name):
        cout = _HEAD_OUTPUT_CHANNELS[name]
        return ProjectionHead(
            w1=kernel(f"{name}.conv1.kernel", hc, hc), b1=bias(f"{name}.conv1.bias", hc),
            w2=kernel(f"{name}.conv2.kernel", hc, cout), b2=bias(f"{name}.conv2.bias", cout),
        )

    return RefinementWeights(
        gru_quarter=gru("gru_quarter"), gru_seventh=gru("gru_seventh"),
        gru_fourteenth=gru("gru_fourteenth"), gru_slz=gru("gru_slz"),
        proj_depth=head("proj_depth"), proj_normal=head("proj_normal"),
        proj_slz=head("proj_slz"),
    )


_STATE_ENTRIES = ("hidden_quarter", "hidden_seventh", "hidden_fourteenth",
                  "slz_hidden", "depth", "normal", "slz")


def save_state(state: RefinementState, dirpath):
    """Persist a refinement state (float32, bitwise) for later resumption."""
    if state.pending_slz:
        raise ProtocolError("cannot save a state mid-iteration")
    entries = {name: getattr(state, name) for name in _STATE_ENTRIES}
    slzio.write_raster_dir(dirpath, entries)
    _write_meta(os.path.join(dirpath, "meta.txt"), {"t": state.t})


def load_state(dirpath) -> RefinementState:
    t = _read_meta(dirpath, "t")
    entries = slzio.read_raster_dir(dirpath, required=_STATE_ENTRIES)
    for name in ("hidden_quarter", "hidden_seventh", "hidden_fourteenth", "slz_hidden"):
        if entries[name].ndim == 2:  # single hidden channel reads back 2-D
            entries[name] = entries[name][..., None]
    return RefinementState(t=t, **{name: entries[name] for name in _STATE_ENTRIES})

import hashlib
import os
import re
from dataclasses import replace

import numpy as np
import pytest

import oracles
from oracles import zero_projection_heads
from slzkit import io as sio
from slzkit import refinement
from slzkit.errors import ShapeMismatchError
from slzkit.losses import sequential_depth_loss, slz_loss
from slzkit.refinement import (
    ConvGruWeights,
    conv2d,
    conv_gru_step,
    demo_state,
    init_weights,
    load_state,
    load_weights,
    refinement_step,
    run_refinement,
    save_state,
    save_weights,
    sigmoid,
)


def _gru_weights(hidden, cin, fill=0.0, bz=0.0, bh=0.0, seed=None):
    total = hidden + cin
    if seed is None:
        k = np.full((3, 3, total, hidden), fill, dtype=np.float32)
        kz = k.copy()
        kr = k.copy()
        kh = k.copy()
    else:
        rng = np.random.default_rng(seed)
        kz, kr, kh = (rng.uniform(-0.5, 0.5, (3, 3, total, hidden)).astype(np.float32)
                      for _ in range(3))
    return ConvGruWeights(
        wz=kz, bz=np.full(hidden, bz, dtype=np.float32),
        wr=kr, br=np.zeros(hidden, dtype=np.float32),
        wh=kh, bh=np.full(hidden, bh, dtype=np.float32),
    )


def test_conv_gru_closed_gate_is_bitwise_identity():
    # sigma(-60) underflows against 1.0 in float32, so h' == h exactly.
    w = _gru_weights(hidden=2, cin=2, fill=0.0, bz=-60.0)
    rng = np.random.default_rng(0)
    h = rng.uniform(0.1, 1.0, (4, 4, 2)).astype(np.float32)
    x = rng.uniform(-1.0, 1.0, (4, 4, 2)).astype(np.float32)
    out = conv_gru_step(w, h, x)
    assert np.array_equal(out, h)


def test_conv_gru_full_overwrite_gate():
    # z == 1 and a zeroed candidate conv drive the hidden state to zero.
    w = _gru_weights(hidden=2, cin=2, fill=0.0, bz=100.0, bh=0.0)
    rng = np.random.default_rng(1)
    h = rng.uniform(0.1, 1.0, (4, 4, 2)).astype(np.float32)
    x = rng.uniform(-1.0, 1.0, (4, 4, 2)).astype(np.float32)
    out = conv_gru_step(w, h, x)
    assert np.array_equal(out, np.zeros_like(h))


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 4, 2)).astype(np.float32)
    k = rng.normal(size=(3, 3, 2, 3)).astype(np.float32)
    b = rng.normal(size=3).astype(np.float32)
    ours = conv2d(x, k, b)
    ref = oracles.conv2d_ref(x, k, b)
    assert np.abs(ours - ref).max() <= 1e-6


def test_conv_gru_matches_loop_oracle():
    w = _gru_weights(hidden=2, cin=2, seed=3)
    rng = np.random.default_rng(4)
    h = rng.uniform(-1, 1, (4, 4, 2)).astype(np.float32)
    x = rng.uniform(-1, 1, (4, 4, 2)).astype(np.float32)
    ours = conv_gru_step(w, h, x)
    ref = oracles.conv_gru_ref(w, h, x)
    assert np.abs(ours - ref).max() <= 1e-6


def _demo_quarter(base, seed):
    """The quarter-scale GRU weights and its [hidden, depth, normal] input."""
    weights = init_weights(hidden_channels=8, seed=seed)
    state = demo_state(base=base, hidden_channels=8, seed=seed)
    x = np.concatenate([state.depth[..., None], state.normal], axis=-1)
    return weights, state.hidden_quarter, x


def test_fused_gate_conv2d_matches_loop_oracle_at_demo_scale():
    # the z|r conv of the quarter block at base 224: 56x56, 12 -> 16 channels
    weights, h, x = _demo_quarter(224, seed=11)
    w = weights.gru_quarter
    hx = np.concatenate([h, x], axis=-1)
    k = np.concatenate([w.wz, w.wr], axis=-1)
    b = np.concatenate([w.bz, w.br])
    assert hx.shape == (56, 56, 12) and k.shape == (3, 3, 12, 16)
    ours = conv2d(hx, k, b)
    assert ours.dtype == np.float32 and ours.shape == (56, 56, 16)
    assert np.abs(ours - oracles.conv2d_ref(hx, k, b)).max() <= 1e-6


def test_conv2d_1x1_head_matches_loop_oracle():
    weights, h, _ = _demo_quarter(56, seed=12)
    head = weights.proj_normal
    ours = conv2d(h, head.w2, head.b2)
    assert ours.shape == (14, 14, 3)
    assert np.abs(ours - oracles.conv2d_ref(h, head.w2, head.b2)).max() <= 1e-6


def test_fused_gate_conv_gru_matches_loop_oracle_at_demo_channels():
    weights, h, x = _demo_quarter(56, seed=13)
    for w in (weights.gru_quarter,
              _gru_weights(hidden=8, cin=4, seed=14)):  # larger, +-0.5 weights too
        ours = conv_gru_step(w, h, x)
        assert ours.dtype == np.float32
        assert np.abs(ours - oracles.conv_gru_ref(w, h, x)).max() <= 1e-6


def test_sigmoid_saturates_without_overflow():
    from scipy.special import expit

    v = np.concatenate([np.linspace(-1e4, 1e4, 200001, dtype=np.float32),
                        np.array([-np.finfo(np.float32).max, np.finfo(np.float32).max,
                                  0.0, -0.0], dtype=np.float32)])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        s = sigmoid(v)
    assert s.dtype == np.float32
    assert ((s >= 0.0) & (s <= 1.0)).all()
    assert s[0] == 0.0 and s[200000] == 1.0 and s[-1] == 0.5
    assert (np.diff(s[:200001]) >= 0).all()
    assert np.abs(s.astype(np.float64) - expit(v.astype(np.float64))).max() <= 1.2e-7


def test_conv_gru_shape_errors():
    w = _gru_weights(hidden=2, cin=2)
    with pytest.raises(ShapeMismatchError):
        conv_gru_step(w, np.zeros((4, 4, 2), np.float32), np.zeros((4, 5, 2), np.float32))
    with pytest.raises(ShapeMismatchError):
        conv_gru_step(w, np.zeros((4, 4, 2), np.float32), np.zeros((4, 4, 3), np.float32))


def test_conv2d_and_gate_weights_reject_mismatched_shapes():
    w = _gru_weights(hidden=2, cin=2)  # (3, 3, 4, 2) gate kernels
    with pytest.raises(ShapeMismatchError, match=re.escape(
            "input shape (4, 4, 3) incompatible with kernel (3, 3, 4, 2)")):
        conv2d(np.zeros((4, 4, 3), np.float32), w.wz, w.bz)
    # an even side has no same padding; numpy used to fail on the reshape or the matmul
    for side in ((2, 2), (4, 4), (3, 2)):
        with pytest.raises(ShapeMismatchError, match=re.escape(
                f"kernel {(*side, 4, 2)} has an even side: no same padding")):
            conv2d(np.zeros((4, 4, 4), np.float32), np.zeros((*side, 4, 2), np.float32), w.bz)
    for bias in (np.zeros(3, np.float32), np.zeros((1, 2), np.float32)):
        with pytest.raises(ShapeMismatchError, match=re.escape(
                f"bias shape {bias.shape} incompatible with kernel (3, 3, 4, 2): expected (2,)")):
            conv2d(np.zeros((4, 4, 4), np.float32), w.wz, bias)
    with pytest.raises(ShapeMismatchError, match="gate kernels must share one shape"):
        replace(w, wr=w.wr[:, :, :3])
    with pytest.raises(ShapeMismatchError, match=re.escape("gate bias shape (3,), expected (2,)")):
        replace(w, bh=np.zeros(3, np.float32))


def test_zeroed_projection_heads_fix_predictions():
    weights = zero_projection_heads(init_weights(hidden_channels=8, seed=5))
    state = demo_state(base=56, hidden_channels=8, seed=5)
    step = refinement_step(state, weights)
    assert np.array_equal(step.depth, state.depth)
    assert np.array_equal(step.normal, state.normal)
    assert np.array_equal(step.slz, state.slz)
    # hidden features still evolve
    assert not np.array_equal(step.hidden_quarter, state.hidden_quarter)


def test_shape_preservation():
    for base in (28, 56, 84):
        weights = init_weights(hidden_channels=4, seed=6)
        state = demo_state(base=base, hidden_channels=4, seed=6)
        out = refinement_step(state, weights)
        q = base // 4
        assert out.depth.shape == (q, q)
        assert out.normal.shape == (q, q, 3)
        assert out.slz.shape == (q, q, 2)
        assert out.hidden_quarter.shape == (q, q, 4)
        assert out.hidden_seventh.shape == (base // 7, base // 7, 4)
        assert out.hidden_fourteenth.shape == (base // 14, base // 14, 4)


def test_full_iteration_matches_independent_recomputation():
    weights = init_weights(hidden_channels=8, seed=7)
    state = demo_state(base=56, hidden_channels=8, seed=7)
    stepped = refinement_step(state, weights)
    ref_depth, ref_normal, ref_slz = oracles.refinement_iteration_ref(state, weights)
    assert np.abs(stepped.depth - ref_depth).max() <= 1e-5
    assert np.abs(stepped.normal - ref_normal).max() <= 1e-5
    assert np.abs(stepped.slz - ref_slz).max() <= 1e-5


def test_slz_hidden_depends_on_updated_depth():
    weights = init_weights(hidden_channels=8, seed=8)
    state = demo_state(base=56, hidden_channels=8, seed=8)
    out = refinement_step(state, weights)
    x = np.concatenate([out.depth[..., None], out.normal, state.slz], axis=-1)
    assert not np.array_equal(out.depth, state.depth)
    assert np.array_equal(out.slz_hidden, conv_gru_step(weights.gru_slz, state.slz_hidden, x))


def test_run_refinement_lengths_and_t():
    weights = init_weights(hidden_channels=4, seed=10)
    state = demo_state(base=28, hidden_channels=4, seed=10)
    assert [s.t for s in run_refinement(state, weights, 0)] == [0]
    states = run_refinement(state, weights, 3)
    assert [s.t for s in states] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        run_refinement(state, weights, -1)


def test_run_refinement_computes_each_state_when_it_is_reached(monkeypatch):
    weights = init_weights(hidden_channels=4, seed=10)
    state = demo_state(base=28, hidden_channels=4, seed=10)
    calls, real = [], refinement_step
    monkeypatch.setattr(refinement, "refinement_step",
                        lambda s, w, ws: calls.append(s.t) or real(s, w, ws))
    states = run_refinement(state, weights, 3)
    assert next(states) is state and calls == []
    assert next(states).t == 1 and calls == [0]
    assert [s.t for s in states] == [2, 3] and calls == [0, 1, 2]


def test_run_refinement_builds_one_workspace_for_all_its_steps(monkeypatch):
    weights = init_weights(hidden_channels=4, seed=10)
    state = demo_state(base=56, hidden_channels=4, seed=10)
    built = []

    class Counted(refinement._Im2col):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(refinement, "_Im2col", Counted)
    assert [s.t for s in run_refinement(state, weights, 4)] == [0, 1, 2, 3, 4]
    assert built == [(14, 14, 4 + refinement.SLZ_INPUT_CHANNELS)]


def test_zero_heads_fixed_point_for_t4():
    weights = zero_projection_heads(init_weights(hidden_channels=4, seed=11))
    state = demo_state(base=28, hidden_channels=4, seed=11)
    for s in run_refinement(state, weights, 4):
        assert np.array_equal(s.depth, state.depth)
        assert np.array_equal(s.normal, state.normal)
        assert np.array_equal(s.slz, state.slz)


def test_resume_is_bitwise_identical():
    weights = init_weights(hidden_channels=8, seed=12)
    state = demo_state(base=56, hidden_channels=8, seed=12)
    direct = list(run_refinement(state, weights, 4))
    first = list(run_refinement(state, weights, 2))
    rest = list(run_refinement(first[-1], weights, 2))
    resumed = first[:-1] + rest
    for a, b in zip(direct, resumed):
        assert a.t == b.t
        for field in ("depth", "normal", "slz", "hidden_quarter",
                      "hidden_seventh", "hidden_fourteenth", "slz_hidden"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


def test_determinism_across_runs():
    a = list(run_refinement(demo_state(56, 8, seed=13), init_weights(8, seed=13), 2))
    b = list(run_refinement(demo_state(56, 8, seed=13), init_weights(8, seed=13), 2))
    assert np.array_equal(a[-1].slz, b[-1].slz)
    assert np.array_equal(a[-1].depth, b[-1].depth)


def test_sequence_feeds_losses_without_nans():
    weights = init_weights(hidden_channels=8, seed=14)
    states = list(run_refinement(demo_state(56, 8, seed=14), weights, 4))
    side = states[0].depth.shape[0]
    gt = np.full((side, side), 2.0)
    conf = np.ones((side, side))
    seq = sequential_depth_loss([s.depth for s in states], [conf] * 5, gt, conf)
    labels = np.zeros((side, side), np.uint8)
    ce = slz_loss([s.slz for s in states], labels)
    assert np.isfinite(seq) and np.isfinite(ce)


def test_demo_state_validates_base():
    with pytest.raises(ValueError):
        demo_state(base=30)
    with pytest.raises(ValueError):
        demo_state(base=0)


@pytest.mark.parametrize("hidden", [1, 8])
def test_weight_bundle_round_trip(tmp_path, hidden):
    weights = init_weights(hidden_channels=hidden, seed=15)
    save_weights(weights, tmp_path / "bundle")
    if hidden == 1:  # single-channel rasters read back 2-D
        for name in ("proj_depth.conv2.kernel", "proj_normal.conv1.kernel", "gru_slz.h.bias"):
            assert sio.read_raster(tmp_path / "bundle" / f"{name}.f32r").ndim == 2
    back = load_weights(tmp_path / "bundle")
    for gru in ("gru_quarter", "gru_seventh", "gru_fourteenth", "gru_slz"):
        for attr in ("wz", "bz", "wr", "br", "wh", "bh"):
            assert np.array_equal(getattr(getattr(weights, gru), attr),
                                  getattr(getattr(back, gru), attr))
    for head in ("proj_depth", "proj_normal", "proj_slz"):
        for attr in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(getattr(weights, head), attr),
                                  getattr(getattr(back, head), attr))


def test_seeded_weight_bundle_bytes_are_pinned(tmp_path):
    # the draw order of init_weights and the bundle layout are part of the
    # contract: a seed always gives the same files
    save_weights(init_weights(8, seed=0), tmp_path)
    names = sorted(os.listdir(tmp_path))
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode())
        digest.update((tmp_path / name).read_bytes())
    assert len(names) == 37
    assert digest.hexdigest() == "67df9dd6b8bc81eb040098c46cdf06bcb78485a90ba9724ce3fc1b52389bdc0f"


def test_weight_bundle_rejects_a_kernel_raster_of_the_wrong_shape(tmp_path):
    save_weights(init_weights(hidden_channels=8, seed=20), tmp_path / "bundle")
    for gate in "zrh":  # the same values as 1x9 rasters
        path = tmp_path / "bundle" / f"gru_quarter.{gate}.kernel.f32r"
        sio.write_raster(sio.read_raster(path).reshape(1, 9, -1), path)
    with pytest.raises(sio.ParseError, match=r"gru_quarter\.z\.kernel has shape \(1, 9, 96\)"):
        load_weights(tmp_path / "bundle")


def test_weight_bundle_rejects_a_bias_stored_as_a_column(tmp_path):
    save_weights(init_weights(hidden_channels=4, seed=20), tmp_path / "bundle")
    path = tmp_path / "bundle" / "gru_slz.z.bias.f32r"
    sio.write_raster(sio.read_raster(path).reshape(4, 1), path)
    with pytest.raises(sio.ParseError, match=r"gru_slz\.z\.bias has shape \(4, 1\), "
                                             r"expected \(1, 4, 1\) from hidden_channels=4"):
        load_weights(tmp_path / "bundle")


def _state_pair():
    weights = init_weights(hidden_channels=4, seed=21)
    states = list(run_refinement(demo_state(28, 4, seed=21), weights, 2))
    return save_state, lambda d: load_state(d, 4), states[1], states[2]


def _weights_pair():
    return save_weights, load_weights, init_weights(4, seed=22), init_weights(4, seed=23)


@pytest.mark.parametrize("pair", [_state_pair, _weights_pair], ids=["state", "weights"])
def test_a_save_that_stops_midway_leaves_a_directory_that_does_not_load(tmp_path, monkeypatch,
                                                                       pair):
    save, load, old, new = pair()
    save(old, tmp_path / "d")
    write_raster, calls = sio.write_raster, []

    def failing_write_raster(raster, path):
        calls.append(path)
        if len(calls) == 4:
            raise OSError(f"{path}: no space left on device")
        write_raster(raster, path)

    monkeypatch.setattr(sio, "write_raster", failing_write_raster)
    with pytest.raises(OSError):
        save(new, tmp_path / "d")
    monkeypatch.undo()
    with pytest.raises(sio.MissingEntryError, match="meta.txt"):
        load(tmp_path / "d")
    save(new, tmp_path / "d")  # a whole save over the torn one leaves no trace of it
    save(new, tmp_path / "whole")
    assert ({f.name: f.read_bytes() for f in (tmp_path / "d").iterdir()}
            == {f.name: f.read_bytes() for f in (tmp_path / "whole").iterdir()})


def test_weight_bundle_missing_entry_is_named(tmp_path):
    save_weights(init_weights(hidden_channels=4, seed=16), tmp_path / "bundle")
    (tmp_path / "bundle" / "proj_slz.conv2.bias.f32r").unlink()
    with pytest.raises(sio.MissingEntryError, match="proj_slz.conv2.bias"):
        load_weights(tmp_path / "bundle")


@pytest.mark.parametrize("kind,key,value", [("weights", "hidden_channels", 0),
                                            ("weights", "hidden_channels", -4),
                                            ("state", "t", -1), ("state", "t", -3)])
def test_meta_value_below_its_least_is_a_parse_error(tmp_path, kind, key, value):
    weights = init_weights(hidden_channels=4, seed=20)
    if kind == "weights":
        save_weights(weights, tmp_path / kind)
    else:
        save_state(list(run_refinement(demo_state(28, 4, seed=20), weights, 1))[-1],
                   tmp_path / kind)
    (tmp_path / kind / "meta.txt").write_text(f"{key}={value}\n")
    load = load_weights if kind == "weights" else lambda d: load_state(d, 4)
    with pytest.raises(sio.ParseError, match=rf"meta\.txt: {key}={value} must be >= "):
        load(tmp_path / kind)


@pytest.mark.parametrize("base,hidden", [(224, 8), (448, 16), (28, 1)])
def test_state_round_trip(tmp_path, base, hidden):
    weights = init_weights(hidden_channels=hidden, seed=17)
    state = list(run_refinement(demo_state(base, hidden, seed=17), weights, 2))[-1]
    save_state(state, tmp_path / "st")
    back = load_state(tmp_path / "st", hidden)
    assert back.t == 2
    for field in ("depth", "normal", "slz", "hidden_quarter",
                  "hidden_seventh", "hidden_fourteenth", "slz_hidden"):
        assert np.array_equal(getattr(back, field), getattr(state, field))


def test_state_of_another_channel_count_is_a_parse_error_naming_the_entry(tmp_path):
    weights = init_weights(hidden_channels=4, seed=17)
    save_state(list(run_refinement(demo_state(56, 4, seed=17), weights, 1))[-1], tmp_path / "st")
    with pytest.raises(sio.ParseError, match=re.escape(
            "st: hidden_quarter has shape (14, 14, 4), expected (14, 14, 8) "
            "from depth (14, 14) and hidden_channels=8")):
        load_state(tmp_path / "st", 8)


def test_state_round_trip_single_hidden_channel(tmp_path):
    weights = init_weights(hidden_channels=1, seed=19)
    state = list(run_refinement(demo_state(28, 1, seed=19), weights, 1))[-1]
    save_state(state, tmp_path / "st")
    back = load_state(tmp_path / "st", 1)
    assert back.hidden_quarter.shape == state.hidden_quarter.shape
    assert np.array_equal(list(run_refinement(back, weights, 1))[-1].slz,
                          list(run_refinement(state, weights, 1))[-1].slz)


@pytest.mark.parametrize("hidden", [0, -2])
def test_init_weights_rejects_a_channel_count_below_1(hidden):
    with pytest.raises(ValueError, match=rf"hidden_channels must be >= 1, got {hidden}"):
        init_weights(hidden_channels=hidden)

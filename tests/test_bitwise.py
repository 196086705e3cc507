"""The planar normal kernel, the value-only losses and the batched VNL
sampler against the earlier implementations kept in oracles.py.

The arithmetic is the same operation for operation, so every comparison
is on bit patterns (NaN payloads included), with no tolerance.
"""

import warnings

import numpy as np
import pytest

import oracles
from slzkit.camera import CameraIntrinsics
from slzkit.errors import DegenerateInputError
from slzkit import geometry
from slzkit.geometry import normals_from_depth, pixel_areas
from slzkit.losses import (
    ClassWeights,
    _collinear,
    depth_normal_consistency,
    depth_normal_consistency_grad,
    sample_triplets,
    sequential_depth_loss,
    sequential_depth_loss_grad,
    slz_loss,
    slz_loss_grad,
    virtual_normal_loss,
)
from slzkit import io as sio
from slzkit.camera import write_intrinsics
from slzkit.cli import _fill_defaults, _read_frame, build_parser
from slzkit.slz import binarize, region_stats
from slzkit.synth import plane_depth

INTR = CameraIntrinsics(100.0, 110.0, 15.5, 12.25)
SEEDS = range(12)


def same_bits(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def depth_case(seed):
    """A tilted plane with noise, a horizon of invalid rows on odd seeds and
    scattered invalid pixels (0, negative, NaN, inf)."""
    rng = np.random.default_rng(seed)
    height, width = (int(x) for x in rng.integers(3, 33, 2))
    depth = plane_depth(height, width, INTR, *rng.uniform(-0.3, 0.3, 2), 5.0)
    depth *= 1.0 + rng.uniform(-0.02, 0.02, depth.shape)
    if seed % 2:
        depth[:max(1, height // 4)] = np.nan if seed % 4 == 1 else 0.0
    holes = rng.uniform(size=depth.shape) < 0.05
    depth[holes] = rng.choice([0.0, -1.0, np.nan, np.inf], size=int(holes.sum()))
    return depth


def normals_case(rng, shape):
    normals = rng.normal(size=shape + (3,))
    normals[rng.uniform(size=shape) < 0.1] = 0.0  # no predicted normal there
    return normals


def valid_case(rng, shape, seed):
    """None (every pixel) on even seeds, else a partial 0/1 mask."""
    if seed % 2 == 0:
        return None
    valid = (rng.uniform(size=shape) < 0.7).astype(np.uint8)
    valid.flat[0] = 1
    return valid


@pytest.fixture(autouse=True)
def _quiet():
    # invalid depth makes NaN on both sides; the warnings are expected
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


@pytest.mark.parametrize("seed", SEEDS)
def test_normals_match_aos_pipeline(seed):
    depth = depth_case(seed)
    want = oracles.normal_pipeline_ref(depth, INTR)[0]
    assert same_bits(normals_from_depth(depth, INTR), want)


@pytest.mark.parametrize("seed", SEEDS)
def test_dncl_value_and_gradient_match_aos_pipeline(seed):
    depth = depth_case(seed)
    normals = normals_case(np.random.default_rng(100 + seed), depth.shape)
    want_loss, want_grad = oracles.dncl_grad_ref(depth, normals, INTR)
    loss, grad = depth_normal_consistency_grad(depth, normals, INTR)
    assert same_bits(loss, want_loss)
    assert same_bits(grad, want_grad)
    assert same_bits(depth_normal_consistency(depth, normals, INTR), want_loss)


@pytest.mark.parametrize("seed", SEEDS)
def test_slz_value_matches_softmax_reference(seed):
    rng = np.random.default_rng(200 + seed)
    shape = tuple(int(x) for x in rng.integers(1, 20, 2))
    labels = (rng.uniform(size=shape) < 0.4).astype(np.uint8)
    seq = [rng.normal(scale=6.0, size=shape + (2,)) for _ in range(int(rng.integers(1, 5)))]
    seq[0].flat[:2] = (60.0, -60.0)  # a saturated step hits the log floor
    valid = valid_case(rng, shape, seed)
    cw = ClassWeights(2.0, 1.0)
    want = oracles.slz_loss_ref(seq, labels, cw.w_safe, cw.w_unsafe, 0.9, valid)
    assert same_bits(slz_loss(seq, labels, cw, 0.9, valid), want)
    loss, grads = slz_loss_grad(seq, labels, cw, 0.9, valid)
    assert same_bits(loss, want)
    want_grads = oracles.slz_grad_ref(seq, labels, cw.w_safe, cw.w_unsafe, 0.9, valid)
    assert len(grads) == len(want_grads)
    assert all(same_bits(g, w) for g, w in zip(grads, want_grads))


@pytest.mark.parametrize("seed", SEEDS)
def test_sequential_value_matches_gather_reference(seed):
    rng = np.random.default_rng(300 + seed)
    shape = tuple(int(x) for x in rng.integers(1, 20, 2))
    steps = int(rng.integers(1, 5))
    gt, cgt = 4.0 + rng.normal(size=shape), rng.uniform(size=shape)
    preds = [gt + rng.normal(size=shape) for _ in range(steps)]
    confs = [rng.uniform(size=shape) for _ in range(steps)]
    valid = valid_case(rng, shape, seed)
    gamma = 0.8
    want = oracles.sequential_loss_ref(preds, confs, gt, cgt, gamma, valid)
    assert same_bits(sequential_depth_loss(preds, confs, gt, cgt, gamma, valid), want)
    loss, grads_d, grads_c = sequential_depth_loss_grad(preds, confs, gt, cgt, gamma, valid)
    assert same_bits(loss, want)
    want_d, want_c = oracles.sequential_grad_ref(preds, confs, gt, cgt, gamma, valid)
    assert len(grads_d) == len(grads_c) == steps
    assert all(same_bits(g, w) for g, w in zip(grads_d + grads_c, want_d + want_c))


# --- row bands: every band height gives the whole frame's bits -----------------

BAND_H, BAND_W = 23, 17


def band_edge_depth(rows, holes=True):
    """A noisy tilted plane with a NaN, +inf or 0 depth on the first and last
    rows of every band of `rows` rows, the frame's first and last rows
    included; with no such holes when `holes` is false."""
    rng = np.random.default_rng(700 + rows)
    depth = plane_depth(BAND_H, BAND_W, INTR, 0.1, -0.2, 5.0)
    depth *= 1.0 + rng.uniform(-0.02, 0.02, depth.shape)
    edges = [r for r in range(BAND_H) if holes and (r % rows in (0, rows - 1) or r == BAND_H - 1)]
    for i, r in enumerate(edges):
        depth[r, (5 * i + 3) % BAND_W] = (np.nan, np.inf, 0.0)[i % 3]
    return depth


@pytest.mark.parametrize("b", [None, 3], ids=["raster", "stack"])
@pytest.mark.parametrize("rows", [1, 2, 7, BAND_H - 1, BAND_H])
def test_row_bands_give_the_whole_frame_bits(monkeypatch, tmp_path, rows, b):
    # NaN, +inf and 0 depths on the band edges, then every pixel valid, in
    # both rasters of the VNL and in the normals of the DNCL, whose mean then
    # keeps every pixel and takes it as a slice rather than a gather. The SLZ
    # mean keeps every pixel in the first case and gathers in the second.
    for holes in (True, False):
        check_row_bands(monkeypatch, tmp_path, rows, b, holes)


def streamed(read, files):
    """The area planes of given and of derived n_z, the binarized logits, and
    the DNCL value and gradient, of the frame's files as `read` gives them:
    whole arrays (io.read_raster) or rows read as a kernel asks
    (io.RasterRows)."""
    d, n, z = (read(files[name]) for name in ("depth", "normals", "logits"))
    n_z = n.channel(2) if isinstance(n, sio.RasterRows) else n[..., 2]
    return (*pixel_areas(d, n_z, INTR), *pixel_areas(d, None, INTR), binarize(z),
            depth_normal_consistency(d, n, INTR), *depth_normal_consistency_grad(d, n, INTR))


def read_frames(files):
    """cli._read_frame's (mask, areas, included) of the frame's files with
    given and derived normals, and a mask or logits: four calls."""
    frames = []
    for normals in (["--normals", files["normals"]], ["--derive-normals"]):
        for source in (["--mask", files["mask"]], ["--logits", files["logits"]]):
            args = build_parser().parse_args([
                "candidates", "--depth", str(files["depth"]), "--intrinsics",
                str(files["intrinsics"]), *map(str, normals + source)])
            _fill_defaults(args)
            mask, planes = _read_frame(args)
            frames.append((mask, *planes))
    return frames


def check_row_bands(monkeypatch, tmp_path, rows, b, holes):
    depth = band_edge_depth(rows, holes)
    rng = np.random.default_rng(800 + rows)
    if b is not None:
        depth = depth * (1.0 + rng.uniform(-1e-3, 1e-3, (b, BAND_H, BAND_W)))
    normals = normals_case(np.random.default_rng(900 + rows), (BAND_H, BAND_W))
    if not holes:
        normals[(normals == 0).all(axis=-1)] = (0.1, -0.2, -1.0)
    gt = band_edge_depth(rows, holes) * (1.0 + rng.uniform(0.0, 0.1, (BAND_H, BAND_W)))
    labels = (rng.uniform(size=(BAND_H, BAND_W)) < 0.4).astype(np.uint8)
    logits = [rng.normal(scale=6.0, size=depth.shape + (2,)) for _ in range(3)]
    logits[0].flat[:2] = (60.0, -60.0)  # a saturated step hits the log floor
    valid = None if holes else (rng.uniform(size=labels.shape) < 0.7).astype(np.uint8)
    cw = ClassWeights(2.0, 1.0)
    # the frame (a stack's first raster) as float32 files, which the
    # streamed kernels read by rows
    files = {name: tmp_path / f"{name}.f32r" for name in ("depth", "normals", "logits")}
    rasters = (depth, normals, logits[0]) if b is None else (depth[0], normals, logits[0][0])
    for name, raster in zip(files, rasters):
        sio.write_raster(raster, files[name])
    files["mask"], files["intrinsics"] = tmp_path / "mask.pgm", tmp_path / "intr.txt"
    sio.write_mask(labels, files["mask"])
    write_intrinsics(files["intrinsics"], INTR)

    def run(read):
        got = (normals_from_depth(depth, INTR), depth_normal_consistency(depth, normals, INTR),
               slz_loss(logits, labels, cw, 0.9, valid))
        if b is None:  # the gradients take one raster, DNCL's in bands with two halo rows
            got += depth_normal_consistency_grad(depth, normals, INTR)
            loss, grads = slz_loss_grad(logits, labels, cw, 0.9, valid)
            got += (loss, *grads, virtual_normal_loss(depth, gt, INTR, 60, 4))
            got += (*pixel_areas(depth, normals[..., 2], INTR), *pixel_areas(depth, None, INTR))
        return got + streamed(read, files)

    monkeypatch.setattr(geometry, "_BAND_ELEMENTS", depth.size)  # the whole frame, one band
    want = run(sio.read_raster)
    monkeypatch.setattr(geometry, "_BAND_ELEMENTS", rows * depth.size // BAND_H)
    bands = [r for r, *_ in geometry._bands(depth, INTR)]
    assert [(r.start, r.stop) for r in bands] == [
        (start, min(start + rows, BAND_H)) for start in range(0, BAND_H, rows)]
    assert list(geometry._row_bands(depth.shape)) == bands
    got = run(sio.RasterRows)
    assert len(got) == len(want) and all(same_bits(g, w) for g, w in zip(got, want))
    # the CLI's frame, read by rows, against the kernels on whole arrays
    areas, included, derived, derived_in, binarized = want[-8:-3]
    for frame, expect in zip(read_frames(files), [(labels, areas, included),
                                                  (binarized, areas, included),
                                                  (labels, derived, derived_in),
                                                  (binarized, derived, derived_in)]):
        assert frame[0].dtype == np.uint8 and np.array_equal(frame[0], expect[0])
        assert all(same_bits(g, w) for g, w in zip(frame[1:], expect[1:]))
    alone = depth[None] if b is None else depth
    for r in range(len(alone)):
        # the SLZ value of each raster of a stack is that raster's own
        steps = [z[r] if b is not None else z for z in logits]
        want_slz = oracles.slz_loss_ref(steps, labels, cw.w_safe, cw.w_unsafe, 0.9, valid)
        assert same_bits(got[2] if b is None else got[2][r], want_slz)
    if b is None:
        assert same_bits(got[0], oracles.normal_pipeline_ref(depth, INTR)[0])
        # the area planes of the derived n_z are those of normal_z's plane
        assert all(same_bits(g, w) for g, w in zip(
            got[12:14], pixel_areas(depth, geometry.normal_z(depth, INTR), INTR)))
        want_loss, want_grad = oracles.dncl_grad_ref(depth, normals, INTR)
        assert same_bits(got[3], want_loss) and same_bits(got[4], want_grad)
        assert np.isfinite(want_loss)
        want_grads = oracles.slz_grad_ref(logits, labels, cw.w_safe, cw.w_unsafe, 0.9, valid)
        assert same_bits(got[5], want_slz)
        assert all(same_bits(g, w) for g, w in zip(got[6:9], want_grads))
        assert np.array_equal(sample_triplets(depth, gt, INTR, 60, 4),
                              oracles.sample_triplets_ref(depth, gt, INTR, 60, 4))
    if not holes:  # every pixel is in the DNCL mean and the VNL draw
        n_z = normals_from_depth(alone, INTR)[..., 2]
        assert (n_z != 0).all() and np.isfinite(gt).all()


@pytest.mark.parametrize("b", [None, 3], ids=["raster", "stack"])
@pytest.mark.parametrize("rows", [1, 2, 7, BAND_H - 1, BAND_H])
def test_normal_z_is_the_z_plane_of_the_normals_for_every_band_cut(monkeypatch, rows, b):
    depth = band_edge_depth(rows)
    depth[BAND_H // 2, 2:6] = (-1.0, np.nan, np.inf, 0.0)
    if b is not None:
        rng = np.random.default_rng(1000 + rows)
        depth = depth * (1.0 + rng.uniform(-1e-3, 1e-3, (b, BAND_H, BAND_W)))
    monkeypatch.setattr(geometry, "_BAND_ELEMENTS", rows * depth.size // BAND_H)
    n_z = geometry.normal_z(depth, INTR)
    assert same_bits(n_z, normals_from_depth(depth, INTR)[..., 2])
    for raster, plane in zip(depth.reshape(-1, BAND_H, BAND_W), n_z.reshape(-1, BAND_H, BAND_W)):
        assert same_bits(plane, oracles.normal_pipeline_ref(raster, INTR)[0][..., 2])



@pytest.mark.parametrize("halo", [0, 1, 2])
@pytest.mark.parametrize("rows", [1, 2, 7, BAND_H - 1, BAND_H])
def test_bands_tile_the_frame_and_cover_their_halo_rows(monkeypatch, rows, halo):
    depth = band_edge_depth(rows)
    whole = geometry._normal_planes(depth, INTR, slice(0, BAND_H))
    monkeypatch.setattr(geometry, "_BAND_ELEMENTS", rows * depth.size // BAND_H)
    bands = list(geometry._bands(depth, INTR, halo))
    assert [(r.start, r.stop) for r, _, _ in bands] == [
        (start, min(start + rows, BAND_H)) for start in range(0, BAND_H, rows)]
    for r, cover, planes in bands:
        assert (cover.start, cover.stop) == (max(r.start - halo, 0), min(r.stop + halo, BAND_H))
        assert same_bits(planes.scale, whole.scale[cover])
        assert all(same_bits(c, w[cover]) for c, w in zip(planes.cross, whole.cross))

# --- a stack of prediction rasters: each row as the raster alone ---------------

BATCHES = [1, 2, 7, 64]


def rows_match(got, b, alone):
    """got is one value per row of a b-stack, each with the bits of alone(row)."""
    return got.shape == (b,) and all(same_bits(v, alone(r)) for r, v in enumerate(got))


@pytest.mark.parametrize("b", BATCHES)
@pytest.mark.parametrize("seed", range(4))
def test_dncl_rows_of_a_stack_equal_the_one_raster_value(seed, b):
    depth = depth_case(seed)
    rng = np.random.default_rng(400 + seed)
    normals = normals_case(rng, depth.shape)
    stack = depth * (1.0 + rng.uniform(-1e-3, 1e-3, (b,) + depth.shape))
    got = depth_normal_consistency(stack, normals, INTR)
    assert rows_match(got, b, lambda r: depth_normal_consistency(stack[r], normals, INTR))
    assert same_bits(normals_from_depth(stack, INTR),
                     np.stack([normals_from_depth(row, INTR) for row in stack]))


@pytest.mark.parametrize("b", BATCHES[1:])
def test_dncl_row_whose_pixel_set_differs_is_gathered_alone(b):
    depth = depth_case(2)
    normals = normals_case(np.random.default_rng(402), depth.shape)
    stack = np.repeat(depth[None], b, axis=0)
    r, c = np.argwhere(np.isfinite(depth) & (depth > 0))[len(depth) // 2]
    stack[1, r, c] = -1e-5  # this row loses the pixels whose stencils read it
    alone = [depth_normal_consistency(row, normals, INTR) for row in stack]
    assert alone[1] != alone[0]
    assert rows_match(depth_normal_consistency(stack, normals, INTR), b, alone.__getitem__)


@pytest.mark.parametrize("b", BATCHES)
@pytest.mark.parametrize("seed", range(4))
def test_sequential_rows_of_a_stack_equal_the_one_raster_value(seed, b):
    rng = np.random.default_rng(500 + seed)
    shape = tuple(int(x) for x in rng.integers(1, 20, 2))
    steps = 3
    gt, cgt = 4.0 + rng.normal(size=shape), rng.uniform(size=shape)
    preds = [gt + rng.normal(size=shape) for _ in range(steps)]
    confs = [rng.uniform(size=shape) for _ in range(steps)]
    valid = valid_case(rng, shape, seed)  # odd seeds gather a partial mask
    # one stacked depth step and one stacked confidence step among plain ones
    kd, kc = seed % steps, (seed + 1) % steps
    d_stack = gt + rng.normal(size=(b,) + shape)
    c_stack = rng.uniform(size=(b,) + shape)

    def call(d, c):
        ds = [d if t == kd else p for t, p in enumerate(preds)]
        cs = [c if t == kc else p for t, p in enumerate(confs)]
        return sequential_depth_loss(ds, cs, gt, cgt, 0.8, valid)

    assert rows_match(call(d_stack, c_stack), b, lambda r: call(d_stack[r], c_stack[r]))


@pytest.mark.parametrize("b", BATCHES)
@pytest.mark.parametrize("seed", range(4))
def test_slz_rows_of_a_stack_equal_the_one_raster_value(seed, b):
    rng = np.random.default_rng(600 + seed)
    shape = tuple(int(x) for x in rng.integers(1, 20, 2))
    labels = (rng.uniform(size=shape) < 0.4).astype(np.uint8)
    seq = [rng.normal(scale=6.0, size=shape + (2,)) for _ in range(3)]
    valid = valid_case(rng, shape, seed)
    k = seed % 3
    stack = rng.normal(scale=6.0, size=(b,) + shape + (2,))
    stack[0].flat[:2] = (60.0, -60.0)  # a saturated row hits the log floor
    cw = ClassWeights(2.0, 1.0)

    def call(z):
        return slz_loss([z if t == k else p for t, p in enumerate(seq)], labels, cw, 0.9, valid)

    assert rows_match(call(stack), b, lambda r: call(stack[r]))


def float32_and_cast(a):
    """A float32 raster and its float64 cast, which holds the same values."""
    a32 = np.asarray(a, dtype=np.float32)
    return a32, a32.astype(np.float64)


@pytest.mark.parametrize("seed", SEEDS)
def test_normals_and_areas_of_float32_rasters_match_their_float64_cast(seed):
    rng = np.random.default_rng(500 + seed)
    d32, d64 = float32_and_cast(depth_case(seed))
    n32, n64 = float32_and_cast(normals_case(rng, d32.shape))
    n32[0, 0], n64[0, 0] = np.nan, np.nan
    assert same_bits(normals_from_depth(d32, INTR), normals_from_depth(d64, INTR))
    areas32, included32 = pixel_areas(d32, n32[..., 2], INTR)
    areas64, included64 = pixel_areas(d64, n64[..., 2], INTR)
    assert same_bits(areas32, areas64) and np.array_equal(included32, included64)
    mask = (rng.uniform(size=d32.shape) < 0.3).astype(np.uint8)
    got = region_stats(mask, *pixel_areas(d32, n32[..., 2], INTR))
    want = region_stats(mask, *pixel_areas(d64, n64[..., 2], INTR))
    assert np.array_equal(got.labels(), want.labels()) and np.array_equal(got.bbox, want.bbox)
    assert same_bits(got.area, want.area)
    assert np.array_equal(got.pixel_count, want.pixel_count)
    assert np.array_equal(got.excluded_count, want.excluded_count)


@pytest.mark.parametrize("seed", SEEDS)
def test_dncl_of_float32_rasters_matches_their_float64_cast(seed):
    d32, d64 = float32_and_cast(depth_case(seed))
    n32, n64 = float32_and_cast(normals_case(np.random.default_rng(100 + seed), d32.shape))
    loss, grad = depth_normal_consistency_grad(d32, n32, INTR)
    want_loss, want_grad = depth_normal_consistency_grad(d64, n64, INTR)
    assert grad.dtype == np.float64
    assert same_bits(loss, want_loss) and same_bits(grad, want_grad)
    assert same_bits(depth_normal_consistency(d32, n32, INTR), want_loss)
    # float64 depth with float32 normals, as a caller may mix them
    assert same_bits(depth_normal_consistency_grad(d64, n32, INTR)[1], want_grad)


@pytest.mark.parametrize("seed", SEEDS)
def test_slz_of_float32_logits_matches_their_float64_cast(seed):
    rng = np.random.default_rng(200 + seed)
    shape = tuple(int(x) for x in rng.integers(1, 20, 2))
    labels = (rng.uniform(size=shape) < 0.4).astype(np.uint8)
    seq = [rng.normal(scale=6.0, size=shape + (2,)) for _ in range(int(rng.integers(1, 5)))]
    seq[0].flat[:2] = (60.0, -60.0)  # a saturated step hits the log floor
    if seed % 3 == 0:  # non-finite logits, in the loss on even seeds
        seq[-1].flat[-3:] = (np.nan, np.inf, -np.inf)[:seq[-1].size]
    seq32, seq64 = zip(*map(float32_and_cast, seq))
    valid = valid_case(rng, shape, seed)
    cw = ClassWeights(2.0, 1.0)
    loss, grads = slz_loss_grad(list(seq32), labels, cw, 0.9, valid)
    want_loss, want_grads = slz_loss_grad(list(seq64), labels, cw, 0.9, valid)
    assert same_bits(loss, want_loss)
    assert all(g.dtype == np.float64 and same_bits(g, w) for g, w in zip(grads, want_grads))
    assert same_bits(slz_loss(list(seq32), labels, cw, 0.9, valid), want_loss)


@pytest.mark.parametrize("seed", SEEDS)
def test_sequential_of_float32_rasters_matches_their_float64_cast(seed):
    rng = np.random.default_rng(300 + seed)
    gt = depth_case(seed)
    steps = int(rng.integers(1, 5))
    preds = [gt * rng.uniform(0.9, 1.1, gt.shape) for _ in range(steps)]
    confs = [rng.uniform(size=gt.shape) for _ in range(steps)]
    cgt = rng.uniform(size=gt.shape)
    # the holes make the loss NaN unless the valid mask leaves them out
    valid = np.isfinite(gt).astype(np.uint8) if seed % 2 else None
    preds32, preds64 = zip(*map(float32_and_cast, preds))
    confs32, confs64 = zip(*map(float32_and_cast, confs))
    gamma = 0.8
    got = sequential_depth_loss_grad(preds32, confs32, gt.astype(np.float32), cgt, gamma, valid)
    want = sequential_depth_loss_grad(preds64, confs64, float32_and_cast(gt)[1], cgt, gamma, valid)
    assert same_bits(got[0], want[0])
    for g, wg in zip(got[1] + got[2], want[1] + want[2]):
        assert g.dtype == np.float64 and same_bits(g, wg)
    assert same_bits(sequential_depth_loss(preds32, confs32, gt.astype(np.float32), cgt, gamma,
                                           valid), want[0])


def _triplet_cases():
    rng = np.random.default_rng(400)
    cases = []
    for seed in SEEDS:
        d_gt = depth_case(seed)
        d_pred = d_gt * (1.0 + rng.uniform(0.0, 0.1, d_gt.shape))
        cases.append((f"plane-{seed}", d_pred, d_gt, int(rng.integers(1, 400))))
    # constant depth on two rows: every triplet within one row is collinear
    flat = np.full((2, 30), 3.0)
    cases.append(("two-rows", flat, flat, 150))
    # nearly collinear: a 3-pixel-high strip with a tiny depth ripple
    strip = 3.0 + 1e-9 * np.random.default_rng(401).normal(size=(3, 40))
    cases.append(("ripple-strip", strip, np.full((3, 40), 3.0), 200))
    return cases


TRIPLET_CASES = _triplet_cases()


@pytest.mark.parametrize("name,d_pred,d_gt,n_samples", TRIPLET_CASES,
                         ids=[c[0] for c in TRIPLET_CASES])
def test_sample_triplets_match_loop_sampler(name, d_pred, d_gt, n_samples):
    for seed in (0, 1, 12345):
        want = oracles.sample_triplets_ref(d_pred, d_gt, INTR, n_samples, seed)
        got = sample_triplets(d_pred, d_gt, INTR, n_samples, seed)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_sample_triplets_attempt_limit_matches_loop_sampler():
    row = np.full((1, 40), 3.0)  # every triplet collinear
    with pytest.raises(ValueError, match="in 300 attempts"):
        oracles.sample_triplets_ref(row, row, INTR, 3, 0)
    with pytest.raises(DegenerateInputError, match="no non-collinear triplet found in 300 attempts"):
        sample_triplets(row, row, INTR, 3, 0)


# Triplets whose |e1 x e2| lies within rounding of 1e-6 |e1| |e2|. For each
# of them, on an x86-64 OpenBLAS build, the axis norm and the one-vector norm
# (a BLAS dot with fused multiply-adds) decide differently: the sampler must
# follow the one-vector decision of the loop sampler.
THRESHOLD_EDGES = [
    (("0x1.f6fb46ac81a2ap-3", "-0x1.715f7d50e2510p-6", "-0x1.94243d3e6c818p+0"),
     ("0x1.f6fa8c6b644a9p-3", "-0x1.7162b2cbc9afcp-6", "-0x1.942440aeb9178p+0")),
    (("0x1.7bacdef5a0629p-1", "0x1.dd41cd2505219p-4", "-0x1.d5ac60bd0e145p-3"),
     ("0x1.7bace79735167p-1", "0x1.dd417443d5e4ap-4", "-0x1.d5ac07ae3f5d6p-3")),
    (("0x1.bec3a9d33607cp-1", "0x1.b2e6187dce105p-6", "-0x1.254e276adabf1p-6"),
     ("0x1.bec3aa8f32814p-1", "0x1.b2e5842e7d928p-6", "-0x1.254a89f507d4bp-6")),
    (("-0x1.2edea35b3f491p-1", "-0x1.f3b59619590a0p-2", "-0x1.61a5d4c19399ap-1"),
     ("-0x1.2edeb89ef5cc5p-1", "-0x1.f3b55f79fe7a4p-2", "-0x1.61a5d5d729760p-1")),
    (("0x1.0fd4ac36f053ap-1", "-0x1.ca479e8b72627p-1", "-0x1.307a8f596545ap-3"),
     ("0x1.0fd4c77924567p-1", "-0x1.ca478c3c6315cp-1", "-0x1.307ac2e41c9aap-3")),
    (("-0x1.4fb250f66d4dbp-3", "-0x1.baf5656e106a3p-2", "0x1.dbd3272faea98p+0"),
     ("-0x1.4fb1556da85ecp-3", "-0x1.baf55040d2d82p-2", "0x1.dbd32b30f0c1bp+0")),
    (("-0x1.fd7b2276b7b01p-6", "0x1.9c2c51c49970bp-1", "0x1.3d0b8e71b7f21p-1"),
     ("-0x1.fd7f569161c24p-6", "0x1.9c2c5452544d3p-1", "0x1.3d0b896f8622dp-1")),
    (("0x1.167691102e1e6p+0", "-0x1.46b357b67adf8p-1", "-0x1.b98b29eaa9cb0p-1"),
     ("0x1.167685f2e43b6p+0", "-0x1.46b385883a93bp-1", "-0x1.b98b240d60840p-1")),
]


def test_collinear_test_matches_loop_sampler_at_the_threshold():
    edges = np.array([[[float.fromhex(x) for x in e] for e in pair] for pair in THRESHOLD_EDGES])
    pts = np.concatenate([np.zeros((len(edges), 1, 3)), edges], axis=1)
    want = [bool(oracles._degenerate_triplet(p)) for p in pts]
    assert _collinear(pts).tolist() == want

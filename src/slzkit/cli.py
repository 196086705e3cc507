"""Command-line front end.

Subcommands: area, candidates, evaluate, refine-demo, loss, synth.
stdout carries machine-parseable CSV / key=value output, stderr carries
human-readable messages. Exit codes: 0 success, 2 input/parse errors
(an allocation too large for the machine too), 3 shape/consistency
errors, 4 numeric degeneracy.

Each setting in DEFAULTS resolves once per call: flag, else the --config
file, else the default. The paper's settings are the library's own
defaults (settings.LossWeights, settings.DEFAULT_GAMMA,
settings.ClassWeights, settings.DEFAULT_NZ_MIN); ``slzkit --help`` lists
them. ``loss vnl --samples`` is a flag only, with its default (100) in its
own help.

At module level this file imports only the standard library, settings and
errors. Each command imports the modules it runs, so ``--help``, a usage
error, ``loss combined`` and ``evaluate`` load no numpy.
"""

from __future__ import annotations

import argparse
import csv
import gc
import math
import os
import re
import sys
import warnings
from collections.abc import Sequence

from . import settings
from .errors import DegenerateInputError, ShapeMismatchError

EXIT_INPUT = 2
EXIT_SHAPE = 3
EXIT_NUMERIC = 4

DEFAULTS = {
    **settings.LossWeights()._asdict(),
    "gamma": settings.DEFAULT_GAMMA,
    "T": 4,
    **settings.ClassWeights()._asdict(),
    "n_z_min": settings.DEFAULT_NZ_MIN,
    "k": 5,
    "dilate": 0,
    "seed": 0,
    "hidden": 8,
    "base": 56,
}


def _fill_defaults(args):
    """Set each DEFAULTS flag of the command that was not given, from --config or DEFAULTS.

    Flags that the command rejects together are checked first, while an
    unset flag still reads None; the resolved seed is checked last.
    """
    for flag, others in getattr(args, "conflicts", {}).items():
        for other in others:
            if getattr(args, flag) is not None and getattr(args, other) is not None:
                raise ValueError(f"--{other} cannot be combined with --{flag}")
    config = {}
    if args.config is not None:
        from . import io as slzio

        config = slzio.read_key_values(args.config, {k: type(v) for k, v in DEFAULTS.items()})
    for key, default in DEFAULTS.items():
        if getattr(args, key, default) is None:
            setattr(args, key, config.get(key, default))
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")


def _channels(raster, path, what, channels):
    """The raster (an array or an io.RasterRows), checked to have `channels`
    channels: shape (H, W) for one, else (H, W, channels)."""
    got = raster.shape[2] if len(raster.shape) == 3 else 1
    if got != channels:
        kind = "single" if channels == 1 else channels
        raise ShapeMismatchError(
            f"{path}: {what} must be {kind}-channel, got {got} channel{'s' * (got > 1)}")
    return raster


def _read_plane(path, what, channels=1):
    """An F32R raster of `channels` channels, read whole: (H, W) for one,
    else (H, W, channels)."""
    from . import io as slzio

    return _channels(slzio.read_raster(path), path, what, channels)


def _open_plane(path, what, channels=1):
    """:func:`_read_plane` as an io.RasterRows, whose rows the banded
    kernels read as they reach them; its header is checked now."""
    from . import io as slzio

    return _channels(slzio.RasterRows(path), path, what, channels)


def _read_frame(args):
    """The mask (--mask or binarized --logits) of a frame and the
    ``(areas, included)`` planes of :func:`geometry.pixel_areas`.

    The depth, normals and logits are read a band of rows at a time, so
    no whole input raster is held: the labeller paints its (H, W) id plane
    beside the mask and the area planes alone."""
    from . import camera, geometry, slz
    from . import io as slzio

    intr = camera.read_intrinsics(args.intrinsics)
    depth = _open_plane(args.depth, "depth")
    if getattr(args, "logits", None) is not None:
        mask = slz.binarize(_open_plane(args.logits, "logits", 2))
    else:
        mask = slzio.read_mask(args.mask)
    if mask.shape != depth.shape:
        raise ShapeMismatchError(f"mask shape {mask.shape} != depth shape {depth.shape}")
    n_z = None if args.derive_normals else _open_plane(args.normals, "normals", 3).channel(2)
    return mask, geometry.pixel_areas(depth, n_z, intr, args.n_z_min)


def _csv_out(rows):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for row in rows:
        writer.writerow(row)


def _region_rows(stats, sel, *columns):
    """CSV rows of the regions at rows `sel` of `stats`: id, the given
    per-row columns, pixels, excluded, area."""
    return zip((sel + 1).tolist(), *(c.tolist() for c in columns),
               stats.pixel_count[sel].tolist(), stats.excluded_count[sel].tolist(),
               (f"{a:.9g}" for a in stats.area[sel].tolist()))


def cmd_area(args):
    import numpy as np

    from . import slz

    mask, planes = _read_frame(args)
    stats = slz.region_stats(mask, *planes)
    sel = np.arange(len(stats))
    if args.region_id is not None:
        if not 1 <= args.region_id <= len(sel):
            raise ValueError(f"no safe region with id {args.region_id}")
        sel = sel[args.region_id - 1:args.region_id]
    area = stats.area[sel]
    # the total adds the region rows left to right in id order
    total = float(np.cumsum(area)[-1]) if len(area) else 0.0
    _csv_out([("region", "pixels", "excluded", "area_m2"), *_region_rows(stats, sel),
              ("total", int(stats.pixel_count[sel].sum()), int(stats.excluded_count[sel].sum()),
               f"{total:.9g}")])
    return 0


def cmd_candidates(args):
    from . import slz

    mask, planes = _read_frame(args)
    if args.dilate:
        mask = slz.dilate_unsafe(mask, args.dilate)
    order, stats = slz.top_k_candidates(mask, *planes, args.k)
    _csv_out([("region", "min_row", "min_col", "max_row", "max_col", "pixels", "excluded",
               "area_m2"), *_region_rows(stats, order, *stats.bbox[order].T)])
    return 0


def cmd_evaluate(args):
    from . import io as slzio
    from . import metrics

    def mask_names(d):
        if not os.path.isdir(d):
            raise ValueError(f"{d}: not a directory")
        return sorted(f for f in os.listdir(d) if f.endswith(".pgm"))

    pred_names = mask_names(args.pred_dir)
    gt_names = mask_names(args.gt_dir)
    if not pred_names and not gt_names:
        raise ValueError("no .pgm mask files found in either directory")
    for names, others, side in ((pred_names, gt_names, "ground-truth"),
                                (gt_names, pred_names, "prediction")):
        missing = set(names).difference(others)
        if missing:
            raise ValueError(f"missing {side} counterpart for {min(missing)}")

    def counts():
        # the gray bytes of each pair, counted without decoding them to
        # arrays, read into two buffers that every pair reuses
        bufs = bytearray(), bytearray()
        for n in pred_names:
            (pred_shape, pred), (gt_shape, gt) = (
                slzio._read_pgm(os.path.join(d, n), buf)
                for d, buf in zip((args.pred_dir, args.gt_dir), bufs))
            if pred_shape != gt_shape:
                raise ShapeMismatchError(f"{n}: pred shape {pred_shape} != gt shape {gt_shape}")
            counted = metrics._counts(pred, gt)
            del pred, gt  # the next pair's read may grow the buffers
            yield counted

    rows = metrics.to_csv_rows(metrics.evaluate(metrics._pooled(counts())))
    _csv_out(rows)
    # the mean column; a per-class metric's mean is m-prefixed, aAcc has no classes
    means = (f"{'m' if safe else ''}{name}={mean}" for name, safe, _, mean in rows[1:])
    print(f"{len(pred_names)} pairs: {' '.join(means)}", file=sys.stderr)
    return 0


def _bilinear_x4(raster):
    """Linear x4 zoom of the first two axes on the pixel-centre grid, edges
    clamped: ndimage.zoom(order=1, grid_mode=True, mode="nearest")."""
    import numpy as np

    arr = np.asarray(raster, dtype=np.float64)
    for axis in (0, 1):
        n = arr.shape[axis]
        pos = (np.arange(4 * n) + 0.5) / 4 - 0.5  # output centres in input pixels
        lo = np.floor(pos)
        t = np.expand_dims(pos - lo, tuple(range(1, arr.ndim - axis)))
        lo = lo.astype(np.intp)
        # below * (1 - t) + above * t, in place: two planes at output size at a time
        below = np.take(arr, np.clip(lo, 0, n - 1), axis=axis)
        below *= 1 - t
        above = np.take(arr, np.clip(lo + 1, 0, n - 1), axis=axis)
        above *= t
        below += above
        del above
        arr = below
    return arr


_STEP_RASTER = re.compile(r"(depth|normal|slz)_t-?\d+\.f32r")


def cmd_refine_demo(args):
    import numpy as np

    from . import io as slzio
    from . import losses, refinement

    if args.resume is not None:
        weights = refinement.load_weights(os.path.join(args.resume, "weights"))
        init = refinement.load_state(os.path.join(args.resume, "state"), weights.hidden_channels)
    else:
        weights = (refinement.load_weights(args.weights) if args.weights is not None
                   else refinement.init_weights(hidden_channels=args.hidden, seed=args.seed))
        init = refinement.demo_state(base=args.base, hidden_channels=weights.hidden_channels,
                                     seed=args.seed)

    # --T and gamma are checked before the first write, so that a setting
    # they reject leaves --out as it was
    states = refinement.run_refinement(init, weights, args.T)
    losses._decays(args.gamma, args.T)
    steps, shape = range(init.t, init.t + args.T + 1), init.depth.shape
    del init  # the run holds one state at a time

    # Per-step losses against a fixed synthetic target (constant depth 2.5,
    # unit confidence, all-safe labels). Demo confidences are identically 1,
    # so a one-step sequential loss is the step's depth L1.
    gt_depth = np.full(shape, 2.5)
    ones = np.ones(shape)
    labels = np.zeros(shape, dtype=np.uint8)
    kinds = ("depth", "normal", "slz")
    os.makedirs(args.out, exist_ok=True)
    # drop the per-step rasters an earlier run left in --out: they would pass for this run's
    ours = {f"{kind}_t{t}.f32r" for t in steps for kind in kinds}
    for name in os.listdir(args.out):
        if _STEP_RASTER.fullmatch(name) and name not in ours:
            os.remove(os.path.join(args.out, name))
    rows = []
    for state in states:
        rows.append((state.t, losses.sequential_depth_loss([state.depth], [ones], gt_depth, ones),
                     losses.slz_loss([state.slz], labels)))
        for kind in kinds:
            slzio.write_raster(getattr(state, kind),
                               os.path.join(args.out, f"{kind}_t{state.t}.f32r"))
    for kind in kinds:
        slzio.write_raster(_bilinear_x4(getattr(state, kind)),
                           os.path.join(args.out, f"{kind}_full.f32r"))
    # the pair that --resume reads, after the last step: a run that stops midway
    # leaves an earlier run's pair as it was
    refinement.save_weights(weights, os.path.join(args.out, "weights"))
    refinement.save_state(state, os.path.join(args.out, "state"))
    _, l1s, ces = zip(*rows)
    with open(os.path.join(args.out, "losses.csv"), "w", encoding="ascii", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([
            ("t", "depth_l1", "slz_wce"), *((t, f"{l1:.9g}", f"{ce:.9g}") for t, l1, ce in rows),
            ("sequential_total", f"{losses.decayed_sum(l1s, args.gamma):.9g}", ""),
            ("slz_total", f"{losses.decayed_sum(ces, args.gamma):.9g}", "")])
    print(f"wrote t={steps[0]}..{state.t} rasters to {args.out}", file=sys.stderr)
    return 0


def _print_loss(value):
    if not math.isfinite(value):
        raise DegenerateInputError(f"loss is {value}, not a finite number")
    print(f"loss={value:.12g}")


def cmd_loss_vnl(args):
    from . import camera, losses

    intr = camera.read_intrinsics(args.intrinsics)
    pred, gt = _read_plane(args.pred, "depth"), _read_plane(args.gt, "depth")
    value = losses.virtual_normal_loss(pred, gt, intr, args.samples, args.seed)
    _print_loss(value)
    return 0


class _Steps(Sequence):
    """The rasters of a step sequence's files, each read when indexed, so
    that a loss holds one step at a time."""

    def __init__(self, paths, what, channels=1):
        self._paths, self._what, self._channels = paths, what, channels

    def __len__(self):
        return len(self._paths)

    def __getitem__(self, t):
        return _read_plane(self._paths[t], self._what, self._channels)


def _read_valid(args):
    from . import io as slzio

    return None if args.valid is None else slzio.read_mask(args.valid)


def _print_loss_and_check(args, loss, grads, *seqs):
    """Print the loss of parallel step sequences and, with --grad-check, the
    max grad_check error over their rasters; returns the exit code 0.

    ``loss(*seqs)`` is the loss value, one per raster where an entry is a
    stack, and ``grads(*seqs)[j][i]`` its analytic gradient with respect to
    ``seqs[j][i]``. Without --grad-check the loss reads each sequence's
    steps as it reaches them; with it, every step is read first.
    """
    from . import losses

    if args.grad_check:
        seqs = [list(seq) for seq in seqs]
    _print_loss(loss(*seqs))
    if not args.grad_check:
        return 0
    analytic = grads(*seqs)
    err = 0.0
    for i, step in enumerate(zip(*seqs)):
        for j, x in enumerate(step):
            def f(trial):
                trial_seqs = [list(seq) for seq in seqs]
                trial_seqs[j][i] = trial
                return loss(*trial_seqs)

            err = max(err, losses.grad_check(f, x, analytic[j][i]))
    print(f"grad_check_max_rel_err={err:.6g}")
    return 0


def cmd_loss_sequential(args):
    from . import losses

    gt_d = _read_plane(args.gt_depth, "depth")
    gt_c = _read_plane(args.gt_conf, "confidence")
    valid = _read_valid(args)
    return _print_loss_and_check(
        args, lambda d, c: losses.sequential_depth_loss(d, c, gt_d, gt_c, args.gamma, valid),
        lambda d, c: losses.sequential_depth_loss_grad(d, c, gt_d, gt_c, args.gamma, valid)[1:],
        _Steps(args.preds, "depth"), _Steps(args.confs, "confidence"))


def cmd_loss_dncl(args):
    from . import camera, losses

    intr = camera.read_intrinsics(args.intrinsics)
    # the value reads both rasters a band of rows at a time; the check
    # perturbs whole depth rasters
    read = _read_plane if args.grad_check else _open_plane
    depth = read(args.depth, "depth")
    normals = read(args.normals, "normals", 3)
    return _print_loss_and_check(
        args, lambda d: losses.depth_normal_consistency(d[0], normals, intr),
        lambda d: [[losses.depth_normal_consistency_grad(d[0], normals, intr)[1]]], [depth])


def cmd_loss_slz(args):
    from . import io as slzio
    from . import losses

    labels = slzio.read_mask(args.labels)
    cw = settings.ClassWeights(args.w_safe, args.w_unsafe)
    valid = _read_valid(args)
    return _print_loss_and_check(
        args, lambda z: losses.slz_loss(z, labels, cw, args.gamma, valid),
        lambda z: losses.slz_loss_grad(z, labels, cw, args.gamma, valid)[1:],
        _Steps(args.logits, "logits", 2))


def cmd_loss_combined(args):
    w = settings.LossWeights(lambda1=args.lambda1, lambda2=args.lambda2, lambda3=args.lambda3)
    _print_loss(settings.fine_tune_loss(args.vnl, args.seq, args.dncl, w))
    return 0


def cmd_synth(args):
    from . import camera, synth
    from . import io as slzio

    scene = synth.parse_scene(args.spec)
    render = synth.render_scene(scene)
    os.makedirs(args.out, exist_ok=True)
    slzio.write_raster(render.depth, os.path.join(args.out, "depth.f32r"))
    slzio.write_raster(render.normals, os.path.join(args.out, "normals.f32r"))
    slzio.write_mask(render.mask, os.path.join(args.out, "mask.pgm"))
    camera.write_intrinsics(os.path.join(args.out, "intrinsics.txt"), scene.intr)
    slzio.write_key_values(os.path.join(args.out, "sidecar.txt"), render.sidecar)
    print(f"wrote scene rasters to {args.out}", file=sys.stderr)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slzkit",
        description="Safe-landing-zone geometry, losses, refinement and evaluation.",
        epilog="Defaults (a flag wins over --config, which wins over these): "
               + ", ".join(f"{key}={val}" for key, val in DEFAULTS.items()) + ".")
    sub = parser.add_subparsers(dest="command", required=True)

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="key=value defaults file (flags win)")
    frame = argparse.ArgumentParser(add_help=False, parents=[config])
    frame.add_argument("--depth", required=True)
    frame.add_argument("--intrinsics", required=True)
    normals = frame.add_mutually_exclusive_group(required=True)
    normals.add_argument("--normals")
    normals.add_argument("--derive-normals", action="store_true",
                         help="derive normals from the depth raster")
    frame.add_argument("--n-z-min", type=float)

    p = sub.add_parser("area", parents=[frame], help="tilt-corrected areas of safe regions")
    p.add_argument("--mask", required=True)
    p.add_argument("--region-id", type=int)
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("candidates", parents=[frame], help="top-k landing candidates by area")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--logits")
    group.add_argument("--mask")
    p.add_argument("--k", type=int, help="max candidates")
    p.add_argument("--dilate", type=int, help="unsafe buffer radius in pixels")
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("evaluate", parents=[config],
                       help="segmentation metrics over mask directories")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("refine-demo", parents=[config], help="seeded dual-flow refinement run")
    p.add_argument("--out", required=True)
    p.add_argument("--base", type=int, help="base resolution, a multiple of 28")
    p.add_argument("--seed", type=int)
    p.add_argument("--T", type=int, help="refinement iterations")
    p.add_argument("--hidden", type=int, help="hidden channels")
    p.add_argument("--weights", help="weight bundle directory to load")
    p.add_argument("--resume", help="previous output directory to continue from")
    p.add_argument("--gamma", type=float)
    # the run takes these settings from the --resume directory or the --weights bundle
    p.set_defaults(func=cmd_refine_demo, conflicts={"resume": ("weights", "hidden", "base", "seed"),
                                                    "weights": ("hidden",)})

    p = sub.add_parser("loss", help="compute one loss (optionally gradient-checked)")
    kinds = p.add_subparsers(dest="kind", required=True)

    q = kinds.add_parser("vnl", parents=[config], help="virtual-normal loss over sampled triplets")
    q.add_argument("--pred", required=True)
    q.add_argument("--gt", required=True)
    q.add_argument("--intrinsics", required=True)
    q.add_argument("--samples", type=int, default=100,
                   help="triplets to sample (default 100; a flag only, no config key)")
    q.add_argument("--seed", type=int)
    q.set_defaults(func=cmd_loss_vnl)

    q = kinds.add_parser("sequential", parents=[config],
                         help="decayed depth+confidence L1 over steps")
    q.add_argument("--preds", nargs="+", required=True)
    q.add_argument("--confs", nargs="+", required=True)
    q.add_argument("--gt-depth", required=True)
    q.add_argument("--gt-conf", required=True)
    q.add_argument("--gamma", type=float)
    q.add_argument("--valid", help="PGM validity mask (255 = use pixel)")
    q.add_argument("--grad-check", action="store_true")
    q.set_defaults(func=cmd_loss_sequential)

    q = kinds.add_parser("dncl", parents=[config], help="depth-normal consistency")
    q.add_argument("--depth", required=True)
    q.add_argument("--normals", required=True)
    q.add_argument("--intrinsics", required=True)
    q.add_argument("--grad-check", action="store_true")
    q.set_defaults(func=cmd_loss_dncl)

    q = kinds.add_parser("slz", parents=[config],
                         help="decayed weighted cross-entropy over logit steps")
    q.add_argument("--logits", nargs="+", required=True)
    q.add_argument("--labels", required=True)
    q.add_argument("--gamma", type=float)
    q.add_argument("--w-safe", type=float)
    q.add_argument("--w-unsafe", type=float)
    q.add_argument("--valid")
    q.add_argument("--grad-check", action="store_true")
    q.set_defaults(func=cmd_loss_slz)

    q = kinds.add_parser("combined", parents=[config],
                         help="weighted sum of the three fine-tune components")
    q.add_argument("--vnl", type=float, required=True)
    q.add_argument("--seq", type=float, required=True)
    q.add_argument("--dncl", type=float, required=True)
    q.add_argument("--lambda1", type=float)
    q.add_argument("--lambda2", type=float)
    q.add_argument("--lambda3", type=float)
    q.set_defaults(func=cmd_loss_combined)

    p = sub.add_parser("synth", parents=[config],
                       help="render a synthetic scene with analytic ground truth")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # a warning prints as one line, like an error, without its source location
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            _fill_defaults(args)
            return args.func(args)
        except ShapeMismatchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SHAPE
        except DegenerateInputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        except (OSError, ValueError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT


def run(argv=None):
    """The process entry of ``python -m slzkit.cli`` and the ``slzkit``
    script: :func:`main`, then ``gc.freeze()`` before the exit code goes
    back, argparse's own exits included.

    Interpreter shutdown runs full collections over every tracked object,
    some 22k after the numpy import, and finds almost nothing to free: a
    command frees its arrays by reference counting. Frozen objects sit in
    the permanent generation, which those collections do not traverse. The
    collector stays on while the command runs, so the reference cycles the
    imports leave are freed as before and no call holds more memory.
    """
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())

"""Command-line front end.

Subcommands: area, candidates, evaluate, refine-demo, loss, synth.
stdout carries machine-parseable CSV / key=value output, stderr carries
human-readable messages. Exit codes: 0 success, 2 input/parse errors
(an allocation too large for the machine too), 3 shape/consistency
errors, 4 numeric degeneracy.

Each setting in DEFAULTS resolves once per call: flag, else the --config
file, else the default. The paper's settings are the library's own
defaults (losses.LossWeights, losses.DEFAULT_GAMMA, losses.ClassWeights,
geometry.DEFAULT_NZ_MIN);
``slzkit --help`` lists every default.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import re
import sys
import warnings

import numpy as np

from . import camera, geometry, losses, metrics, refinement, slz, synth
from . import io as slzio
from .errors import DegenerateInputError, ShapeMismatchError

EXIT_INPUT = 2
EXIT_SHAPE = 3
EXIT_NUMERIC = 4

DEFAULTS = {
    **dataclasses.asdict(losses.LossWeights()),
    "gamma": losses.DEFAULT_GAMMA,
    "T": 4,
    **dataclasses.asdict(losses.ClassWeights()),
    "n_z_min": geometry.DEFAULT_NZ_MIN,
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
        config = slzio.read_key_values(args.config, {k: type(v) for k, v in DEFAULTS.items()})
    for key, default in DEFAULTS.items():
        if getattr(args, key, default) is None:
            setattr(args, key, config.get(key, default))
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")


def _read_depth(path):
    d = slzio.read_raster(path)
    if d.ndim != 2:
        raise ShapeMismatchError(f"{path}: depth must be single-channel, got {d.shape[2]} channels")
    return d


def _read_frame(args):
    """Intrinsics, depth, mask (--mask or binarized --logits) and normals of a frame."""
    intr, _ = camera.read_intrinsics(args.intrinsics)
    depth = _read_depth(args.depth)
    if getattr(args, "logits", None) is not None:
        mask = slz.binarize(slzio.read_raster(args.logits))
    else:
        mask = slzio.read_mask(args.mask)
    if mask.shape != depth.shape:
        raise ShapeMismatchError(f"mask shape {mask.shape} != depth shape {depth.shape}")
    if args.derive_normals:
        return intr, depth, mask, geometry.normals_from_depth(depth, intr)
    n = slzio.read_raster(args.normals)
    if n.ndim != 3 or n.shape[2] != 3:
        raise ShapeMismatchError(f"{args.normals}: normals must be 3-channel, got shape {n.shape}")
    return intr, depth, mask, n


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
    intr, depth, mask, normals = _read_frame(args)
    stats = slz.region_stats(mask, depth, normals, intr, n_z_min=args.n_z_min)
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
    intr, depth, mask, normals = _read_frame(args)
    if args.dilate:
        mask = slz.dilate_unsafe(mask, args.dilate)
    order, stats = slz.top_k_candidates(mask, depth, normals, intr, args.k, n_z_min=args.n_z_min)
    _csv_out([("region", "min_row", "min_col", "max_row", "max_col", "pixels", "excluded",
               "area_m2"), *_region_rows(stats, order, *stats.bbox[order].T)])
    return 0


def cmd_evaluate(args):
    def mask_names(d):
        if not os.path.isdir(d):
            raise ValueError(f"{d}: not a directory")
        return sorted(f for f in os.listdir(d) if f.endswith(".pgm"))

    pred_names = mask_names(args.pred_dir)
    gt_names = mask_names(args.gt_dir)
    if not pred_names and not gt_names:
        raise ValueError("no .pgm mask files found in either directory")
    for name in pred_names:
        if name not in gt_names:
            raise ValueError(f"missing ground-truth counterpart for {name}")
    for name in gt_names:
        if name not in pred_names:
            raise ValueError(f"missing prediction counterpart for {name}")

    def pairs():
        for n in pred_names:
            pred, gt = (slzio.read_mask(os.path.join(d, n)) for d in (args.pred_dir, args.gt_dir))
            if pred.shape != gt.shape:
                raise ShapeMismatchError(f"{n}: pred shape {pred.shape} != gt shape {gt.shape}")
            yield pred, gt

    report = metrics.evaluate_dataset(pairs())
    rows = metrics.to_csv_rows(report)
    _csv_out(rows)
    # the mean column; a per-class metric's mean is m-prefixed, aAcc has no classes
    means = (f"{'m' if safe else ''}{name}={mean}" for name, safe, _, mean in rows[1:])
    print(f"{len(pred_names)} pairs: {' '.join(means)}", file=sys.stderr)
    return 0


def _bilinear_x4(raster):
    """Linear x4 zoom of the first two axes on the pixel-centre grid, edges
    clamped: ndimage.zoom(order=1, grid_mode=True, mode="nearest")."""
    arr = np.asarray(raster, dtype=np.float64)
    for axis in (0, 1):
        n = arr.shape[axis]
        pos = (np.arange(4 * n) + 0.5) / 4 - 0.5  # output centres in input pixels
        lo = np.floor(pos)
        t = np.expand_dims(pos - lo, tuple(range(1, arr.ndim - axis)))
        lo = lo.astype(np.intp)
        arr = (np.take(arr, np.clip(lo, 0, n - 1), axis=axis) * (1 - t)
               + np.take(arr, np.clip(lo + 1, 0, n - 1), axis=axis) * t)
    return arr


_STEP_RASTER = re.compile(r"(depth|normal|slz)_t-?\d+\.f32r")


def cmd_refine_demo(args):
    if args.resume is not None:
        weights = refinement.load_weights(os.path.join(args.resume, "weights"))
        init = refinement.load_state(os.path.join(args.resume, "state"), weights.hidden_channels)
    else:
        weights = (refinement.load_weights(args.weights) if args.weights is not None
                   else refinement.init_weights(hidden_channels=args.hidden, seed=args.seed))
        init = refinement.demo_state(base=args.base, hidden_channels=weights.hidden_channels,
                                     seed=args.seed)

    states = refinement.run_refinement(init, weights, args.T)
    final = states[-1]

    # Per-step losses against a fixed synthetic target (constant depth 2.5,
    # unit confidence, all-safe labels). Demo confidences are identically 1,
    # so a one-step sequential loss is the step's depth L1. They come before
    # the first write, so that a setting they reject leaves --out as it was.
    side = final.depth.shape[0]
    gt_depth = np.full((side, side), 2.5)
    ones = np.ones((side, side))
    labels = np.zeros((side, side), dtype=np.uint8)
    seq_total = losses.sequential_depth_loss(
        [s.depth for s in states], [ones] * len(states), gt_depth, ones, args.gamma)
    slz_total = losses.slz_loss([s.slz for s in states], labels, gamma=args.gamma)
    table = [("t", "depth_l1", "slz_wce")]
    for state in states:
        l1 = losses.sequential_depth_loss([state.depth], [ones], gt_depth, ones)
        ce = losses.slz_loss([state.slz], labels, gamma=args.gamma)
        table.append((state.t, f"{l1:.9g}", f"{ce:.9g}"))
    table.append(("sequential_total", f"{seq_total:.9g}", ""))
    table.append(("slz_total", f"{slz_total:.9g}", ""))

    rasters = {f"{kind}_t{state.t}.f32r": getattr(state, kind)
               for state in states for kind in ("depth", "normal", "slz")}
    os.makedirs(args.out, exist_ok=True)
    # drop the per-step rasters an earlier run left in --out: they would pass for this run's
    for name in os.listdir(args.out):
        if _STEP_RASTER.fullmatch(name) and name not in rasters:
            os.remove(os.path.join(args.out, name))
    refinement.save_weights(weights, os.path.join(args.out, "weights"))
    refinement.save_state(final, os.path.join(args.out, "state"))
    for name, raster in rasters.items():
        slzio.write_raster(raster, os.path.join(args.out, name))
    slzio.write_raster(_bilinear_x4(final.depth), os.path.join(args.out, "depth_full.f32r"))
    slzio.write_raster(_bilinear_x4(final.normal), os.path.join(args.out, "normal_full.f32r"))
    slzio.write_raster(_bilinear_x4(final.slz), os.path.join(args.out, "slz_full.f32r"))
    with open(os.path.join(args.out, "losses.csv"), "w", encoding="ascii", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)
    print(f"wrote t={states[0].t}..{final.t} rasters to {args.out}", file=sys.stderr)
    return 0


def _print_loss(value):
    if not np.isfinite(value):
        raise DegenerateInputError(f"loss is {value}, not a finite number")
    print(f"loss={value:.12g}")


def cmd_loss_vnl(args):
    intr, _ = camera.read_intrinsics(args.intrinsics)
    value = losses.virtual_normal_loss(_read_depth(args.pred), _read_depth(args.gt),
                                       intr, args.samples, args.seed)
    _print_loss(value)
    return 0


def _read_valid(args):
    return None if args.valid is None else slzio.read_mask(args.valid)


def _print_grad_check(loss, seqs, grads):
    """Print the max grad_check error over the rasters of parallel step sequences.

    ``loss(*seqs)`` is the loss value, one per raster where an entry is a
    stack, and ``grads[j][i]`` its analytic gradient with respect to
    ``seqs[j][i]``.
    """
    err = 0.0
    for i, step in enumerate(zip(*seqs)):
        for j, x in enumerate(step):
            def f(trial):
                trial_seqs = [list(seq) for seq in seqs]
                trial_seqs[j][i] = trial
                return loss(*trial_seqs)

            err = max(err, losses.grad_check(f, x, grads[j][i]))
    print(f"grad_check_max_rel_err={err:.6g}")


def cmd_loss_sequential(args):
    preds = [_read_depth(p) for p in args.preds]
    confs = [slzio.read_raster(p) for p in args.confs]
    gt_d = _read_depth(args.gt_depth)
    gt_c = slzio.read_raster(args.gt_conf)
    valid = _read_valid(args)
    _print_loss(losses.sequential_depth_loss(preds, confs, gt_d, gt_c, args.gamma, valid))
    if args.grad_check:
        _, gd, gc = losses.sequential_depth_loss_grad(preds, confs, gt_d, gt_c, args.gamma, valid)
        _print_grad_check(
            lambda d, c: losses.sequential_depth_loss(d, c, gt_d, gt_c, args.gamma, valid),
            [preds, confs], [gd, gc])
    return 0


def cmd_loss_dncl(args):
    intr, _ = camera.read_intrinsics(args.intrinsics)
    depth = _read_depth(args.depth)
    normals = slzio.read_raster(args.normals)
    _print_loss(losses.depth_normal_consistency(depth, normals, intr))
    if args.grad_check:
        _, grad = losses.depth_normal_consistency_grad(depth, normals, intr)
        _print_grad_check(lambda d: losses.depth_normal_consistency(d[0], normals, intr),
                          [[depth]], [[grad]])
    return 0


def cmd_loss_slz(args):
    logit_seq = [slzio.read_raster(p) for p in args.logits]
    labels = slzio.read_mask(args.labels)
    cw = losses.ClassWeights(args.w_safe, args.w_unsafe)
    valid = _read_valid(args)
    _print_loss(losses.slz_loss(logit_seq, labels, cw, args.gamma, valid))
    if args.grad_check:
        _, grads = losses.slz_loss_grad(logit_seq, labels, cw, args.gamma, valid)
        _print_grad_check(lambda z: losses.slz_loss(z, labels, cw, args.gamma, valid),
                          [logit_seq], [grads])
    return 0


def cmd_loss_combined(args):
    w = losses.LossWeights(lambda1=args.lambda1, lambda2=args.lambda2, lambda3=args.lambda3)
    _print_loss(losses.fine_tune_loss(args.vnl, args.seq, args.dncl, w))
    return 0


def cmd_synth(args):
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
    q.add_argument("--samples", type=int, default=100)
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


if __name__ == "__main__":
    sys.exit(main())

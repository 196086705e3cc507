"""Command-line front end.

Subcommands: area, candidates, evaluate, refine-demo, loss, synth.
stdout carries machine-parseable CSV / key=value output, stderr carries
human-readable messages. Exit codes: 0 success, 2 input/parse errors,
3 shape/consistency errors, 4 numeric degeneracy.

Numeric defaults (overridable by --config file, then flags):
T=4, gamma=0.9, lambda1/2/3=0.2/0.5/0.01, class weights safe=2 unsafe=1,
n_z_min=0.1, f_c=1000, k=5, dilation radius 0.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np
from scipy import ndimage

from . import camera, geometry, losses, metrics, refinement, slz, synth
from . import io as slzio
from .errors import DegenerateInputError, ShapeMismatchError

EXIT_INPUT = 2
EXIT_SHAPE = 3
EXIT_NUMERIC = 4

DEFAULTS = {
    "T": 4,
    "gamma": 0.9,
    "lambda1": 0.2,
    "lambda2": 0.5,
    "lambda3": 0.01,
    "w_safe": 2.0,
    "w_unsafe": 1.0,
    "n_z_min": geometry.DEFAULT_NZ_MIN,
    "f_c": camera.DEFAULT_CANONICAL_FOCAL,
    "k": 5,
    "dilate": 0,
    "seed": 0,
    "hidden": 8,
    "base": 56,
}

_CASTS = {"T": int, "k": int, "dilate": int, "seed": int, "hidden": int, "base": int}


def _load_config(path):
    """Typed values of a --config file; unknown keys and bad values are errors."""
    if path is None:
        return {}
    return slzio.read_key_values(path, {key: _CASTS.get(key, float) for key in DEFAULTS})


def _resolve(args, key):
    """Flag > config file > built-in default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return args.config_values.get(key, DEFAULTS[key])


def _read_depth(path):
    d = slzio.read_raster(path)
    if d.ndim != 2:
        raise ShapeMismatchError(f"{path}: depth must be single-channel, got {d.shape[2]} channels")
    return d.astype(np.float64)


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
    if args.normals is None:
        raise ValueError("either --normals or --derive-normals is required")
    n = slzio.read_raster(args.normals)
    if n.ndim != 3 or n.shape[2] != 3:
        raise ShapeMismatchError(f"{args.normals}: normals must be 3-channel, got shape {n.shape}")
    return intr, depth, mask, n.astype(np.float64)


def _csv_out(rows):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for row in rows:
        writer.writerow(row)


def cmd_area(args):
    intr, depth, mask, normals = _read_frame(args)
    stats = slz.region_stats(mask, depth, normals, intr, n_z_min=_resolve(args, "n_z_min"))
    sel = np.arange(len(stats.area))
    if args.region_id is not None:
        if not 1 <= args.region_id <= len(sel):
            raise ValueError(f"no safe region with id {args.region_id}")
        sel = sel[args.region_id - 1:args.region_id]
    area, pixels, excluded = stats.area[sel], stats.pixel_count[sel], stats.excluded_count[sel]
    # the total adds the region rows left to right in id order
    total = float(np.cumsum(area)[-1]) if len(area) else 0.0
    _csv_out([("region", "pixels", "excluded", "area_m2"),
              *zip((sel + 1).tolist(), pixels.tolist(), excluded.tolist(),
                   (f"{a:.9g}" for a in area.tolist())),
              ("total", int(pixels.sum()), int(excluded.sum()), f"{total:.9g}")])
    return 0


def cmd_candidates(args):
    intr, depth, mask, normals = _read_frame(args)
    radius = _resolve(args, "dilate")
    if radius:
        mask = slz.dilate_unsafe(mask, radius)
    k = _resolve(args, "k")
    cands = slz.top_k_candidates(mask, depth, normals, intr, k,
                                 n_z_min=_resolve(args, "n_z_min"))
    rows = [("region", "min_row", "min_col", "max_row", "max_col",
             "pixels", "excluded", "area_m2")]
    for c in cands:
        rows.append((c.region_id, *c.bbox, c.area.pixel_count, c.area.excluded_count,
                     f"{c.area.total_area:.9g}"))
    _csv_out(rows)
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

    pairs = ((slzio.read_mask(os.path.join(args.pred_dir, n)),
              slzio.read_mask(os.path.join(args.gt_dir, n))) for n in pred_names)
    report = metrics.evaluate_dataset(pairs)
    _csv_out(metrics.to_csv_rows(report))
    print(f"{len(pred_names)} pairs: aAcc={report.aAcc:.2f} mIoU={report.mIoU:.2f} "
          f"mAcc={report.mAcc:.2f} mDice={report.mDice:.2f} mFscore={report.mFscore:.2f} "
          f"mPrecision={report.mPrecision:.2f} mRecall={report.mRecall:.2f}",
          file=sys.stderr)
    return 0


def _bilinear_x4(raster):
    arr = np.asarray(raster, dtype=np.float64)
    zoom = (4, 4) if arr.ndim == 2 else (4, 4, 1)
    return ndimage.zoom(arr, zoom, order=1, grid_mode=True, mode="nearest")


def cmd_refine_demo(args):
    seed = _resolve(args, "seed")
    steps = _resolve(args, "T")
    base = _resolve(args, "base")
    os.makedirs(args.out, exist_ok=True)

    if args.resume is not None:
        weights = refinement.load_weights(os.path.join(args.resume, "weights"))
        init = refinement.load_state(os.path.join(args.resume, "state"))
    else:
        hidden = _resolve(args, "hidden")
        if args.weights is not None:
            weights = refinement.load_weights(args.weights)
        else:
            weights = refinement.init_weights(hidden_channels=hidden, seed=seed)
        init = refinement.demo_state(base=base, hidden_channels=weights.hidden_channels,
                                     seed=seed)

    states = refinement.run_refinement(init, weights, steps)
    refinement.save_weights(weights, os.path.join(args.out, "weights"))
    refinement.save_state(states[-1], os.path.join(args.out, "state"))
    for state in states:
        slzio.write_raster(state.depth, os.path.join(args.out, f"depth_t{state.t}.f32r"))
        slzio.write_raster(state.normal, os.path.join(args.out, f"normal_t{state.t}.f32r"))
        slzio.write_raster(state.slz, os.path.join(args.out, f"slz_t{state.t}.f32r"))
    final = states[-1]
    slzio.write_raster(_bilinear_x4(final.depth), os.path.join(args.out, "depth_full.f32r"))
    slzio.write_raster(_bilinear_x4(final.normal), os.path.join(args.out, "normal_full.f32r"))
    slzio.write_raster(_bilinear_x4(final.slz), os.path.join(args.out, "slz_full.f32r"))

    # Per-step losses against a fixed synthetic target (constant depth 2.5,
    # unit confidence, all-safe labels). Demo confidences are identically 1.
    gamma = _resolve(args, "gamma")
    side = final.depth.shape[0]
    gt_depth = np.full((side, side), 2.5)
    gt_conf = np.ones((side, side))
    labels = np.zeros((side, side), dtype=np.uint8)
    ones = np.ones((side, side))
    w = losses.LossWeights(gamma=gamma, T=len(states) - 1)
    seq_total, _, _ = losses.sequential_depth_loss_grad(
        [s.depth for s in states], [ones] * len(states), gt_depth, gt_conf, w)
    slz_total = losses.slz_loss([s.slz for s in states], labels, gamma=gamma)
    with open(os.path.join(args.out, "losses.csv"), "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("t", "depth_l1", "slz_wce"))
        for state in states:
            l1 = float(np.abs(state.depth.astype(np.float64) - gt_depth).mean())
            ce = losses.slz_loss([state.slz], labels, gamma=gamma)
            writer.writerow((state.t, f"{l1:.9g}", f"{ce:.9g}"))
        writer.writerow(("sequential_total", f"{seq_total:.9g}", ""))
        writer.writerow(("slz_total", f"{slz_total:.9g}", ""))
    print(f"wrote t={states[0].t}..{final.t} rasters to {args.out}", file=sys.stderr)
    return 0


def _print_loss(value):
    print(f"loss={value:.12g}")


def cmd_loss_vnl(args):
    intr, _ = camera.read_intrinsics(args.intrinsics)
    value = losses.virtual_normal_loss(_read_depth(args.pred), _read_depth(args.gt),
                                       intr, args.samples, _resolve(args, "seed"))
    _print_loss(value)
    return 0


def _read_valid(args):
    if getattr(args, "valid", None) is None:
        return None
    return slzio.read_mask(args.valid)


def cmd_loss_sequential(args):
    preds = [_read_depth(p) for p in args.preds]
    confs = [slzio.read_raster(p).astype(np.float64) for p in args.confs]
    gt_d = _read_depth(args.gt_depth)
    gt_c = slzio.read_raster(args.gt_conf).astype(np.float64)
    w = losses.LossWeights(gamma=_resolve(args, "gamma"), T=len(preds) - 1)
    valid = _read_valid(args)
    total, gd, gc = losses.sequential_depth_loss_grad(preds, confs, gt_d, gt_c, w, valid)
    _print_loss(total)
    if args.grad_check:
        err = 0.0
        for i in range(len(preds)):
            def f_d(x, i=i):
                trial = list(preds)
                trial[i] = x
                return losses.sequential_depth_loss(trial, confs, gt_d, gt_c, w, valid)

            def f_c(x, i=i):
                trial = list(confs)
                trial[i] = x
                return losses.sequential_depth_loss(preds, trial, gt_d, gt_c, w, valid)

            err = max(err, losses.grad_check(f_d, preds[i], gd[i]),
                      losses.grad_check(f_c, confs[i], gc[i]))
        print(f"grad_check_max_rel_err={err:.6g}")
    return 0


def cmd_loss_dncl(args):
    intr, _ = camera.read_intrinsics(args.intrinsics)
    depth = _read_depth(args.depth)
    normals = slzio.read_raster(args.normals).astype(np.float64)
    value, grad = losses.depth_normal_consistency_grad(depth, normals, intr)
    _print_loss(value)
    if args.grad_check:
        err = losses.grad_check(
            lambda x: losses.depth_normal_consistency(x, normals, intr), depth, grad)
        print(f"grad_check_max_rel_err={err:.6g}")
    return 0


def cmd_loss_slz(args):
    logit_seq = [slzio.read_raster(p).astype(np.float64) for p in args.logits]
    labels = slzio.read_mask(args.labels)
    cw = losses.ClassWeights(_resolve(args, "w_safe"), _resolve(args, "w_unsafe"))
    gamma = _resolve(args, "gamma")
    valid = _read_valid(args)
    total, grads = losses.slz_loss_grad(logit_seq, labels, cw, gamma, valid)
    _print_loss(total)
    if args.grad_check:
        err = 0.0
        for i in range(len(logit_seq)):
            def f(x, i=i):
                trial = list(logit_seq)
                trial[i] = x
                return losses.slz_loss(trial, labels, cw, gamma, valid)

            err = max(err, losses.grad_check(f, logit_seq[i], grads[i]))
        print(f"grad_check_max_rel_err={err:.6g}")
    return 0


def cmd_loss_combined(args):
    w = losses.LossWeights(lambda1=_resolve(args, "lambda1"),
                           lambda2=_resolve(args, "lambda2"),
                           lambda3=_resolve(args, "lambda3"))
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
    with open(os.path.join(args.out, "sidecar.txt"), "w", encoding="ascii") as fh:
        for key, val in render.sidecar.items():
            fh.write(f"{key}={val!r}\n" if isinstance(val, float) else f"{key}={val}\n")
    print(f"wrote scene rasters to {args.out}", file=sys.stderr)
    return 0


def _add_common(p):
    p.add_argument("--config", help="key=value defaults file (flags win)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="slzkit",
        description="Safe-landing-zone geometry, losses, refinement and evaluation.",
        epilog="Built-in defaults: T=4, gamma=0.9, lambda1/2/3=0.2/0.5/0.01, "
               "class weights safe=2 unsafe=1, n_z_min=0.1, f_c=1000.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("area", help="tilt-corrected areas of safe regions")
    p.add_argument("--depth", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--normals")
    p.add_argument("--derive-normals", action="store_true",
                   help="derive normals from the depth raster")
    p.add_argument("--region-id", type=int)
    p.add_argument("--n-z-min", dest="n_z_min", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_area)

    p = sub.add_parser("candidates", help="top-k landing candidates by area")
    p.add_argument("--depth", required=True)
    p.add_argument("--intrinsics", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--logits")
    group.add_argument("--mask")
    p.add_argument("--normals")
    p.add_argument("--derive-normals", action="store_true")
    p.add_argument("--k", type=int, help="max candidates (default 5)")
    p.add_argument("--dilate", type=int, help="unsafe buffer radius in pixels (default 0)")
    p.add_argument("--n-z-min", dest="n_z_min", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("evaluate", help="segmentation metrics over mask directories")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--gt-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("refine-demo", help="seeded dual-flow refinement run")
    p.add_argument("--out", required=True)
    p.add_argument("--base", type=int, help="base resolution, multiple of 28 (default 56)")
    p.add_argument("--seed", type=int)
    p.add_argument("--T", dest="T", type=int, help="refinement iterations (default 4)")
    p.add_argument("--hidden", type=int, help="hidden channels (default 8)")
    p.add_argument("--weights", help="weight bundle directory to load")
    p.add_argument("--resume", help="previous output directory to continue from")
    p.add_argument("--gamma", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_refine_demo)

    p = sub.add_parser("loss", help="compute one loss (optionally gradient-checked)")
    kinds = p.add_subparsers(dest="kind", required=True)

    q = kinds.add_parser("vnl", help="virtual-normal loss over sampled triplets")
    q.add_argument("--pred", required=True)
    q.add_argument("--gt", required=True)
    q.add_argument("--intrinsics", required=True)
    q.add_argument("--samples", type=int, default=100)
    q.add_argument("--seed", type=int)
    _add_common(q)
    q.set_defaults(func=cmd_loss_vnl)

    q = kinds.add_parser("sequential", help="decayed depth+confidence L1 over steps")
    q.add_argument("--preds", nargs="+", required=True)
    q.add_argument("--confs", nargs="+", required=True)
    q.add_argument("--gt-depth", required=True)
    q.add_argument("--gt-conf", required=True)
    q.add_argument("--gamma", type=float)
    q.add_argument("--valid", help="PGM validity mask (255 = use pixel)")
    q.add_argument("--grad-check", action="store_true")
    _add_common(q)
    q.set_defaults(func=cmd_loss_sequential)

    q = kinds.add_parser("dncl", help="depth-normal consistency")
    q.add_argument("--depth", required=True)
    q.add_argument("--normals", required=True)
    q.add_argument("--intrinsics", required=True)
    q.add_argument("--grad-check", action="store_true")
    _add_common(q)
    q.set_defaults(func=cmd_loss_dncl)

    q = kinds.add_parser("slz", help="decayed weighted cross-entropy over logit steps")
    q.add_argument("--logits", nargs="+", required=True)
    q.add_argument("--labels", required=True)
    q.add_argument("--gamma", type=float)
    q.add_argument("--w-safe", dest="w_safe", type=float)
    q.add_argument("--w-unsafe", dest="w_unsafe", type=float)
    q.add_argument("--valid")
    q.add_argument("--grad-check", action="store_true")
    _add_common(q)
    q.set_defaults(func=cmd_loss_slz)

    q = kinds.add_parser("combined", help="weighted sum of the three fine-tune components")
    q.add_argument("--vnl", type=float, required=True)
    q.add_argument("--seq", type=float, required=True)
    q.add_argument("--dncl", type=float, required=True)
    q.add_argument("--lambda1", type=float)
    q.add_argument("--lambda2", type=float)
    q.add_argument("--lambda3", type=float)
    _add_common(q)
    q.set_defaults(func=cmd_loss_combined)

    p = sub.add_parser("synth", help="render a synthetic scene with analytic ground truth")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.config_values = _load_config(args.config)
        return args.func(args)
    except ShapeMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except DegenerateInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

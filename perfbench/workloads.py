"""The benchmark workloads: seeded set-up, references and the calls of one
round, each call with the check its output must pass.

A round runs every command once or more, so every end-to-end metric is
measured on every workload; the workload's inputs decide where the time
goes (see README.md).
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import inputs as inp

# landing: 720p synth scenes with derived normals (every other one has a
# horizon); the first also feeds the fine-tune loss step. grids: (rows,
# cols) of safe rectangles, one many-regions frame each, all with the same
# region count so their calls time alike. Every frame goes through `area`
# and `candidates`. refine: (base, hidden channels) of the refine-demo
# runs; the first config also runs the T=2 + resume check.
WORKLOADS = {
    "landing-frames": {"landing": 2, "grids": [], "refine": [(224, 8), (448, 16)]},
    "many-regions": {"landing": 1, "grids": [(10, 12), (10, 12)], "refine": [(224, 8)]},
}


def interleave(base, extra):
    """`base` with the items of `extra` spread evenly between its items."""
    out = list(base)
    for k, item in enumerate(extra):
        out.insert(int((k + 0.5) * len(base) / len(extra)) + k, item)
    return out


@dataclass
class Op:
    """One CLI call: `family` names the metric its wall time feeds."""

    family: str
    argv: list
    check: object  # callable(stdout) -> error string or None
    group: str = ""  # calls sharing a group id sum to one loss_step_s or grad_check_s sample
    writes: str = ""  # output directory, flushed to disk after the call, untimed


@dataclass
class Setup:
    frames: list = field(default_factory=list)
    loss_frame: object = None
    unit_seconds: list = field(default_factory=list)
    seconds: list = field(default_factory=list)  # one whole set-up each


def _csv(stdout):
    return list(csv.reader(stdout.splitlines()))


def _rel_close(got, want, rel):
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def _loss_value(stdout, key="loss"):
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return float(line.split("=", 1)[1])
    return None


def _state_digest(out_dir):
    h = hashlib.sha256()
    state = os.path.join(out_dir, "state")
    for name in sorted(os.listdir(state)):
        h.update(name.encode())
        with open(os.path.join(state, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Workload:
    def __init__(self, name, seed, work, call):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.call = call  # callable(argv) -> Result, used for set-up synth calls
        self.setup = Setup()
        self.pred_dir = os.path.join(work, "inputs", "pred")
        self.gt_dir = os.path.join(work, "inputs", "gt")
        self.expect_eval = None
        self.refine_digests = {}  # (base, key) -> state digest

    def rng(self, *salt):
        return np.random.default_rng([self.seed, *salt])

    # --- set-up ----------------------------------------------------------

    def _synth(self, spec_text, out):
        os.makedirs(out, exist_ok=True)
        spec = os.path.join(out, "scene.txt")
        with open(spec, "w", encoding="ascii") as fh:
            fh.write(spec_text)
        res = self.call(["synth", "--spec", spec, "--out", out])
        if res.rc != 0:
            raise RuntimeError(f"set-up: synth failed for {out}: {res.err.strip()}")

    def build(self, repeats=1):
        """Build every input from the seed `repeats` times over, into the
        same files, timing each whole set-up and, within it, each frame's
        set-up and that of the loss rasters as one unit."""
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._build_once()
            self.setup.seconds.append(time.perf_counter() - t0)

    def _build_once(self):
        os.makedirs(self.pred_dir, exist_ok=True)
        os.makedirs(self.gt_dir, exist_ok=True)
        s = self.setup
        s.frames, s.loss_frame = [], None
        for i in range(self.spec["landing"]):
            t0 = time.perf_counter()
            rng = self.rng(1, i)
            frame = inp.Frame(f"landing{i}", os.path.join(self.work, "inputs", f"landing{i}"),
                              derive_normals=True)
            self._synth(inp.landing_spec(rng, horizon=i % 2 == 1, walls=i % 3), frame.dir)
            gt = inp.read_pgm(frame.path("mask.pgm"))
            inp.finish_frame(frame, rng, gt, 1.6, self.pred_dir, self.gt_dir)
            s.frames.append(frame)
            s.unit_seconds.append(time.perf_counter() - t0)
            if i == 0:  # the loss rasters are a set-up unit of their own
                t0 = time.perf_counter()
                s.loss_frame = inp.LossFrame(os.path.join(self.work, "inputs", "loss"), frame.dir)
                inp.build_loss_frame(rng, frame.dir, s.loss_frame.dir)
                s.unit_seconds.append(time.perf_counter() - t0)
        for j, (rows, cols) in enumerate(self.spec["grids"]):
            t0 = time.perf_counter()
            rng = self.rng(2, j)
            frame = inp.Frame(f"grid{j}", os.path.join(self.work, "inputs", f"grid{j}"),
                              derive_normals=False)
            self._synth(inp.flat_spec(rng), frame.dir)
            mask, rects = inp.rect_grid_mask(rng, rows, cols)
            inp.finish_frame(frame, rng, mask, 0.0, self.pred_dir, self.gt_dir)
            d = inp.DILATE
            frame.rects = sorted((r0 + d, c0 + d, r1 - d, c1 - d) for r0, c0, r1, c1 in rects)
            s.frames.append(frame)
            s.unit_seconds.append(time.perf_counter() - t0)

    def fingerprint(self):
        """sha256 of every input file; also flushes them to disk."""
        inp.fsync_tree(os.path.join(self.work, "inputs"))
        return inp.sha256_tree(os.path.join(self.work, "inputs"))

    # --- references ----------------------------------------------------------

    def references(self):
        """Expected outputs, computed with numpy from the generated files."""
        for f in self.setup.frames:
            intr = inp.read_intrinsics(f.path("intrinsics.txt"))
            depth = inp.read_f32r(f.path("depth.f32r")).astype(np.float64)
            if f.derive_normals:
                nz = inp.derived_normals(depth, intr)[0][..., 2]
            else:
                nz = inp.read_f32r(f.path("normals.f32r"))[..., 2].astype(np.float64)
            safe = inp.read_pgm(f.path("cand_mask.pgm")) == 0
            included, areas = inp.pixel_areas(depth, nz, intr, safe)
            f.expect["total"] = (int(included.sum()), int(safe.sum() - included.sum()),
                                 float(areas[included].sum()))
            f.expect["regions"] = [
                ((r1 - r0 + 1) * (c1 - c0 + 1), float(areas[r0:r1 + 1, c0:c1 + 1].sum()))
                for r0, c0, r1, c1 in f.rects]
        cm = np.zeros((2, 2), dtype=np.int64)
        for f in self.setup.frames:
            cm += inp.confusion(inp.read_pgm(os.path.join(self.pred_dir, f.name + ".pgm")),
                                inp.read_pgm(os.path.join(self.gt_dir, f.name + ".pgm")))
        self.expect_eval = inp.evaluate_rows(cm)
        lf = self.setup.loss_frame
        gt_d = inp.read_f32r(os.path.join(lf.src, "depth.f32r")).astype(np.float64)
        gt_n = inp.read_f32r(os.path.join(lf.src, "normals.f32r")).astype(np.float64)
        labels = inp.read_pgm(os.path.join(lf.src, "mask.pgm"))
        preds = [inp.read_f32r(lf.path(f"pred{t}.f32r")).astype(np.float64)
                 for t in range(inp.STEPS + 1)]
        confs = [inp.read_f32r(lf.path(f"conf{t}.f32r")).astype(np.float64)
                 for t in range(inp.STEPS + 1)]
        intr = inp.read_intrinsics(os.path.join(lf.src, "intrinsics.txt"))
        lf.expect["sequential"] = inp.sequential_loss(preds, confs, gt_d, np.ones_like(gt_d))
        lf.expect["dncl"] = inp.dncl_loss(preds[-1], gt_n, intr)
        lf.expect["slz"] = inp.slz_loss(
            [inp.read_f32r(lf.path(f"logits{t}.f32r")).astype(np.float64)
             for t in range(inp.STEPS + 1)], labels)
        lf.expect["crop_dncl"] = inp.dncl_loss(
            inp.read_f32r(lf.path("crop_depth.f32r")).astype(np.float64),
            inp.read_f32r(lf.path("crop_normals.f32r")).astype(np.float64),
            inp.read_intrinsics(lf.path("crop_intrinsics.txt")))
        lf.expect["crop_slz"] = inp.slz_loss(
            [inp.read_f32r(lf.path(f"crop_logits{t}.f32r")).astype(np.float64)
             for t in range(2)], inp.read_pgm(lf.path("crop_labels.pgm")))

    # --- checks ----------------------------------------------------------------

    def check_area(self, f, stdout):
        rows = _csv(stdout)
        if not rows or rows[0] != ["region", "pixels", "excluded", "area_m2"] or rows[-1][0] != "total":
            return "area: bad CSV layout"
        body = rows[1:-1]
        pixels, excluded, area = f.expect["total"]
        total = rows[-1]
        if (int(total[1]), int(total[2])) != (pixels, excluded):
            return f"area {f.name}: total counts {total[1:3]} != {pixels}, {excluded}"
        if not _rel_close(float(total[3]), area, 1e-6):
            return f"area {f.name}: total area {total[3]} != {area!r}"
        if sum(int(r[1]) for r in body) != pixels:
            return f"area {f.name}: region pixel counts do not add up to the total"
        if f.rects:
            if len(body) != len(f.rects):
                return f"area {f.name}: {len(body)} regions, built {len(f.rects)}"
            for row, (n, a) in zip(body, f.expect["regions"]):
                if int(row[1]) != n or int(row[2]) != 0 or not _rel_close(float(row[3]), a, 1e-6):
                    return f"area {f.name}: region {row[0]} {row[1:]} != ({n}, 0, {a!r})"
        f.expect["area_rows"] = body
        f.expect["regions_seen"] = len(body)
        return None

    def check_candidates(self, f, stdout):
        rows = _csv(stdout)
        if not rows or rows[0] != ["region", "min_row", "min_col", "max_row", "max_col",
                                   "pixels", "excluded", "area_m2"]:
            return "candidates: bad CSV header"
        area_rows = f.expect.get("area_rows")
        if area_rows is None:
            return f"candidates {f.name}: no checked area output to compare with"
        want = sorted(area_rows, key=lambda r: (-float(r[3]), int(r[0])))[:inp.K]
        got = [[r[0], *r[5:]] for r in rows[1:]]
        if got != want:
            return f"candidates {f.name}: rows are not the {inp.K} largest area rows"
        for r in rows[1:]:
            if f.rects and tuple(int(x) for x in r[1:5]) != f.rects[int(r[0]) - 1]:
                return f"candidates {f.name}: region {r[0]} bbox {r[1:5]} != built rectangle"
        return None

    def check_evaluate(self, stdout):
        rows = _csv(stdout)
        if not rows or rows[0] != ["metric", "safe", "unsafe", "mean"]:
            return "evaluate: bad CSV header"
        got = {r[0]: r[1:] for r in rows[1:]}
        if set(got) != set(self.expect_eval):
            return f"evaluate: metrics {sorted(got)}"
        for name, want in self.expect_eval.items():
            for g, w in zip(got[name], want):
                if w is None:
                    if g not in ("", "nan"):
                        return f"evaluate: {name} = {g}, expected undefined"
                elif abs(float(g) - w) > 0.0051:
                    return f"evaluate: {name} = {g}, expected {w:.4f}"
        return None

    def check_loss(self, stdout, want, rel=1e-8):
        got = _loss_value(stdout)
        if got is None or not _rel_close(got, want, rel):
            return f"loss {got} != {want!r}"
        return None

    def check_grad(self, stdout, want, tol):
        err = self.check_loss(stdout, want)
        if err:
            return err
        g = _loss_value(stdout, "grad_check_max_rel_err")
        if g is None or not g <= tol:
            return f"grad_check_max_rel_err={g} above {tol}"
        return None

    def check_vnl(self, stdout):
        got = _loss_value(stdout)
        return None if got == 0.0 else f"vnl with pred = gt gave {got}, expected 0"

    def check_refine(self, base, key, out_dir, t_expected):
        """Same state bytes as the same call earlier in the run, and fresh T=4
        equal to fresh T=2 followed by a T=2 resume."""
        with open(os.path.join(out_dir, "state", "meta.txt"), encoding="ascii") as fh:
            if fh.read().strip() != f"t={t_expected}":
                return f"refine {out_dir}: state t != {t_expected}"
        digest = _state_digest(out_dir)
        if self.refine_digests.setdefault((base, key), digest) != digest:
            return f"refine base {base}: {key} state differs from the same call earlier"
        pair = {"T4": "T2+resume", "T2+resume": "T4"}.get(key)
        other = self.refine_digests.get((base, pair))
        if other is not None and other != digest:
            return f"refine base {base}: T=4 state != T=2 + resume T=2 state"
        return None

    # --- the calls of one round ----------------------------------------------

    def startup_op(self):
        return Op("startup", ["loss", "combined", "--vnl", "1", "--seq", "1", "--dncl", "1"],
                  lambda out: None if _loss_value(out) == 0.71 else f"loss combined: {out!r}")

    def frame_ops(self, f):
        normals = ["--derive-normals"] if f.derive_normals else ["--normals", f.path("normals.f32r")]
        common = ["--depth", f.path("depth.f32r"), "--intrinsics", f.path("intrinsics.txt"), *normals]
        return [
            Op("area", ["area", *common, "--mask", f.path("cand_mask.pgm")],
               lambda out: self.check_area(f, out)),
            Op("candidates", ["candidates", *common, "--logits", f.path("logits.f32r"),
                              "--dilate", str(inp.DILATE), "--k", str(inp.K)],
               lambda out: self.check_candidates(f, out)),
        ]

    def refine_ops(self, base, hidden):
        """Two units: a fresh T=4 run and a fresh T=2 run, each followed by a
        T=2 resume. The check wants the T=2 + resume state byte-identical to
        the T=4 state."""
        root = os.path.join(self.work, "refine", str(base))
        units = []
        for t in (4, 2):
            fresh, resumed = os.path.join(root, f"T{t}"), os.path.join(root, f"T{t}+resume")
            for d in (fresh, resumed):
                shutil.rmtree(d, ignore_errors=True)
            units.append([
                Op("refine", ["refine-demo", "--out", fresh, "--base", str(base), "--hidden",
                              str(hidden), "--T", str(t), "--seed", str(self.seed % 100000)],
                   lambda out, t=t, fresh=fresh: self.check_refine(base, f"T{t}", fresh, t),
                   writes=fresh),
                Op("refine", ["refine-demo", "--out", resumed, "--resume", fresh, "--T", "2"],
                   lambda out, t=t, resumed=resumed: self.check_refine(
                       base, f"T{t}+resume", resumed, t + 2), writes=resumed),
            ])
        return units

    def loss_ops(self, group):
        """One fine-tune step's losses on the loss frame. `loss vnl` compares
        the ground truth with itself, so its check has an exact answer."""
        lf = self.setup.loss_frame
        src = lf.src
        steps = range(inp.STEPS + 1)
        return [
            Op("loss", ["loss", "vnl", "--pred", os.path.join(src, "depth.f32r"),
                        "--gt", os.path.join(src, "depth.f32r"),
                        "--intrinsics", os.path.join(src, "intrinsics.txt"),
                        "--samples", str(inp.VNL_SAMPLES), "--seed", str(self.seed % 100000)],
               self.check_vnl, group),
            Op("loss", ["loss", "sequential", "--preds", *[lf.path(f"pred{t}.f32r") for t in steps],
                        "--confs", *[lf.path(f"conf{t}.f32r") for t in steps],
                        "--gt-depth", os.path.join(src, "depth.f32r"),
                        "--gt-conf", lf.path("gt_conf.f32r")],
               lambda out: self.check_loss(out, lf.expect["sequential"]), group),
            Op("loss", ["loss", "dncl", "--depth", lf.path(f"pred{inp.STEPS}.f32r"),
                        "--normals", os.path.join(src, "normals.f32r"),
                        "--intrinsics", os.path.join(src, "intrinsics.txt")],
               lambda out: self.check_loss(out, lf.expect["dncl"]), group),
            Op("loss", ["loss", "slz", "--logits", *[lf.path(f"logits{t}.f32r") for t in steps],
                        "--labels", os.path.join(src, "mask.pgm")],
               lambda out: self.check_loss(out, lf.expect["slz"]), group),
        ]

    def grad_ops(self, group):
        lf = self.setup.loss_frame
        return [
            Op("grad_check", ["loss", "dncl", "--depth", lf.path("crop_depth.f32r"),
                              "--normals", lf.path("crop_normals.f32r"),
                              "--intrinsics", lf.path("crop_intrinsics.txt"), "--grad-check"],
               lambda out: self.check_grad(out, lf.expect["crop_dncl"], 1e-3), group),
            Op("grad_check", ["loss", "slz", "--logits", lf.path("crop_logits0.f32r"),
                              lf.path("crop_logits1.f32r"), "--labels",
                              lf.path("crop_labels.pgm"), "--grad-check"],
               lambda out: self.check_grad(out, lf.expect["crop_slz"], 1e-4), group),
        ]

    def round_units(self, rnd):
        """The calls of round `rnd`, in units that belong together. Each kind
        of call recurs across the round, so that every median sees the
        machine over the whole run rather than over one stretch of it."""
        evaluate = [Op("evaluate", ["evaluate", "--pred-dir", self.pred_dir, "--gt-dir",
                                    self.gt_dir], self.check_evaluate)]
        (base, hidden), *more = self.spec["refine"]
        t4, t2 = self.refine_ops(base, hidden)
        startup = [self.startup_op()]
        units = [startup, evaluate, t4, startup, self.grad_ops(f"grad.{rnd}.a"), evaluate,
                 self.loss_ops(f"loss.{rnd}"), startup, t2, evaluate,
                 self.grad_ops(f"grad.{rnd}.b"), startup, evaluate]
        units += [self.refine_ops(b, h)[0] for b, h in more]
        return interleave(units, [self.frame_ops(f) for f in self.setup.frames])

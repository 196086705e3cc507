"""Golden pins of the `area`, `candidates`, `evaluate`, `synth`, `loss` and
`refine-demo` outputs.

Each case runs one CLI call in-process on seeded inputs built here and
compares its exit code, the SHA-256 of its stdout (a `loss` call's stdout
itself), its stderr (with the input directory written as ``<root>``) and
the SHA-256 of every file it writes under ``--out`` with ``golden.json``.
The `area`, `candidates`, `evaluate`, `synth` and `loss combined` outputs
come from IEEE add, multiply, divide and sqrt, integer counts and
fixed-order sums only, so the bytes are the same on every machine. A
change that alters any of them, even in the last printed digit, fails here.

The other `loss` and the `refine-demo` outputs also go through exp, log,
BLAS and SIMD-dispatched reductions, so their bytes hold for one numpy
build. The manifest records that build's fingerprint: on the same build
they are compared byte for byte, on another by value at the tolerances the
oracle tests use, and a resumed refinement must still equal the direct run.

After a deliberate output change, regenerate the manifest with

    PYTHONPATH=src python tests/test_golden.py

which prints the names of the pins that differ from the manifest (or
``no pin changed``) and rewrites it only when some pin changed; review
those entries in the diff. A build fingerprint other than the manifest's
is printed, one line for each part that differs, and alone rewrites
nothing.
"""

import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from slzkit import io as sio
from slzkit.camera import CameraIntrinsics, write_intrinsics
from slzkit.cli import main
from slzkit.synth import plane_depth

# a numpy overflow or invalid-value warning in a pinned call is an error,
# not a message that pytest would capture out of the compared stderr
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MANIFEST = Path(__file__).with_name("golden.json")
H, W = 120, 200
INTR = CameraIntrinsics(150.0, 150.0, (W - 1) / 2, (H - 1) / 2)


# Depths of a run whose areas, under fronto-parallel normals and INTR, are
# a = 10.16015625 (an even last mantissa bit, a decimal midpoint at 9 digits)
# and twice half an ulp of a. Summed in row-major order, both halves round
# away (ties to even) and the row prints 10.1601562; in any other order
# they add up to one ulp first and it prints 10.1601563.
ORDER_DEPTHS = (478.125, 150.0 * 2.0 ** -25, 150.0 * 2.0 ** -25)


def _unit(v):
    """Rows of v over their norms, summed in x, y, z order."""
    return v / np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]
                       + v[..., 2] * v[..., 2])[..., None]


def build_inputs(root):
    """Write the seeded rasters, masks and intrinsics into root."""
    rng = np.random.Generator(np.random.PCG64(20251))
    write_intrinsics(root / "intr.txt", INTR)
    # a tilted plane whose last rows lie past the horizon (depth 0), with
    # noise and NaN holes
    tilted = plane_depth(H, W, INTR, 0.2, 2.8, 6.0) * (1.0 + rng.uniform(-1e-3, 1e-3, (H, W)))
    tilted[rng.uniform(size=(H, W)) < 0.01] = np.nan
    sio.write_raster(tilted, root / "tilted.f32r")
    # random camera-facing normals; about a tenth are steeper than n_z_min
    normals = _unit(rng.normal(size=(H, W, 3)))
    normals[..., 2] = -np.abs(normals[..., 2])
    sio.write_raster(normals, root / "normals.f32r")
    # a fronto-parallel frame: equal-sized regions have equal areas
    sio.write_raster(np.full((H, W), 5.0), root / "flat.f32r")
    flat_normals = np.zeros((H, W, 3))
    flat_normals[..., 2] = -1.0
    sio.write_raster(flat_normals, root / "flat_normals.f32r")
    # 120 safe rectangles, 10 rows of 12
    grid = np.ones((H, W), np.uint8)
    for r in range(10):
        for c in range(12):
            grid[12 * r + 2:12 * r + 10, 16 * c + 3:16 * c + 14] = 0
    sio.write_mask(grid, root / "grid.pgm")
    speckle = (rng.uniform(size=(H, W)) < 0.5).astype(np.uint8)
    sio.write_mask(speckle, root / "speckle.pgm")
    # logits that mark the grid safe, blurred by noise
    logits = rng.normal(size=(H, W, 2))
    logits[..., 0] += 1.5 * (grid == 0)
    sio.write_raster(logits, root / "logits.f32r")
    # one safe run of three pixels whose area sum shows the summation order
    order = np.full((3, 8), 5.0)
    order[1, 2:5] = ORDER_DEPTHS
    sio.write_raster(order, root / "order.f32r")
    sio.write_raster(flat_normals[:3, :8], root / "order_normals.f32r")
    order_mask = np.ones((3, 8), np.uint8)
    order_mask[1, 2:5] = 0
    sio.write_mask(order_mask, root / "order.pgm")
    # evaluation pairs: three predictions against their ground truth, and an
    # all-safe ground truth whose unsafe ratios are undefined
    blocks = np.kron(speckle[:12, :20], np.ones((10, 10), np.uint8))
    truth = {"grid": grid, "speckle": speckle, "blocks": blocks}
    for name, gt in truth.items():
        flip = rng.uniform(size=(H, W)) < 0.1
        for sub, mask in (("gt", gt), ("pred", np.where(flip, 1 - gt, gt))):
            (root / sub).mkdir(exist_ok=True)
            sio.write_mask(mask, root / sub / f"{name}.pgm")
    for sub, mask in (("safe_gt", np.zeros((H, W), np.uint8)), ("safe_pred", speckle)):
        (root / sub).mkdir()
        sio.write_mask(mask, root / sub / "frame.pgm")
    for name, spec in SCENES.items():
        (root / f"{name}.txt").write_text(spec)
    build_loss_inputs(root)


def build_loss_inputs(root):
    """Write small seeded crops for the `loss` cases into root."""
    rng = np.random.Generator(np.random.PCG64(20252))
    gt = plane_depth(H, W, INTR, 0.1, 0.4, 5.0)[40:64, 60:100]
    sio.write_raster(gt, root / "vnl_gt.f32r")
    sio.write_raster(gt * (1.0 + rng.uniform(-0.05, 0.05, gt.shape)), root / "vnl_pred.f32r")
    # the grad-check cases perturb every element, so their crops are 6x8
    crop = gt[:6, :8]
    sio.write_raster(crop, root / "crop_gt.f32r")
    sio.write_raster(rng.uniform(0.5, 1.0, crop.shape), root / "crop_conf.f32r")
    for t in range(3):
        sio.write_raster(crop + rng.normal(0, 0.2, crop.shape), root / f"seq_depth{t}.f32r")
        sio.write_raster(rng.uniform(0.2, 1.0, crop.shape), root / f"seq_conf{t}.f32r")
        sio.write_raster(rng.normal(size=(6, 8, 2)), root / f"slz_logits{t}.f32r")
    sio.write_mask((rng.uniform(size=crop.shape) < 0.8).astype(np.uint8), root / "crop_valid.pgm")
    sio.write_mask((rng.uniform(size=crop.shape) < 0.4).astype(np.uint8), root / "crop_labels.pgm")
    sio.write_raster(_unit(rng.normal([0.0, 0.0, -3.0], 1.0, (6, 8, 3))), root / "crop_normals.f32r")


_SCENE = f"[scene]\nwidth={W}\nheight={H}\nfx=150\nfy=150\ncx={(W - 1) / 2}\ncy={(H - 1) / 2}\n"


def _spec(buffer, plane, *boxes):
    return (_SCENE + f"buffer={buffer}\n[plane]\na={plane[0]}\nb={plane[1]}\nc={plane[2]}\n"
            + "".join(f"[box]\nu0={u0}\nv0={v0}\nu1={u1}\nv1={v1}\nheight={h}\n"
                      for u0, v0, u1, v1, h in boxes))


# scene specs: overlapping boxes, boxes on the frame edge, a box across the
# horizon (its top covers cells that see no ground) and one centred past it
SCENES = {
    "scene-plain": _spec(0, (0, 0, 4)),
    "scene-boxes": _spec(2, (0.1, 0.3, 5), (20, 10, 60, 50, 1.5), (40, 30, 90, 70, 0.5),
                         (0, 100, 30, 119, 2), (150, 0, 199, 15, 0.25), (120, 60, 120, 60, 1)),
    "scene-horizon": _spec(1, (0.2, 2.8, 6), (30, 100, 70, 118, 2), (100, 20, 140, 60, 3),
                           (110, 40, 160, 90, 1), (180, 5, 199, 25, 0.75)),
    "scene-past-horizon": _spec(0, (0.2, 2.8, 6), (190, 110, 199, 119, 1)),
}


def _frame(depth, normals=None):
    return ["--depth", depth + ".f32r", "--intrinsics", "intr.txt",
            *(["--normals", normals + ".f32r"] if normals else ["--derive-normals"])]


CASES = {
    "area-grid-normals": ["area", *_frame("tilted", "normals"), "--mask", "grid.pgm"],
    "area-grid-derived": ["area", *_frame("tilted"), "--mask", "grid.pgm"],
    "area-speckle-normals": ["area", *_frame("tilted", "normals"), "--mask", "speckle.pgm"],
    "area-speckle-derived": ["area", *_frame("tilted"), "--mask", "speckle.pgm"],
    "area-speckle-flat": ["area", *_frame("flat", "flat_normals"), "--mask", "speckle.pgm"],
    "area-grid-region-id": ["area", *_frame("tilted", "normals"), "--mask", "grid.pgm",
                            "--region-id", "7"],
    "area-speckle-region-id": ["area", *_frame("tilted"), "--mask", "speckle.pgm",
                               "--region-id", "500"],
    "area-missing-region-id": ["area", *_frame("tilted", "normals"), "--mask", "grid.pgm",
                               "--region-id", "121"],
    "area-row-major-sum": ["area", *_frame("order", "order_normals"), "--mask", "order.pgm"],
    "candidates-grid-normals": ["candidates", *_frame("tilted", "normals"), "--mask", "grid.pgm",
                                "--k", "5"],
    "candidates-grid-flat": ["candidates", *_frame("flat", "flat_normals"), "--mask", "grid.pgm",
                             "--k", "5"],
    "candidates-speckle-flat": ["candidates", *_frame("flat", "flat_normals"),
                                "--mask", "speckle.pgm", "--k", "5"],
    "candidates-speckle-derived": ["candidates", *_frame("tilted"), "--mask", "speckle.pgm",
                                   "--k", "5"],
    "candidates-logits-dilate": ["candidates", *_frame("tilted"), "--logits", "logits.f32r",
                                 "--dilate", "2"],
    "candidates-row-major-sum": ["candidates", *_frame("order", "order_normals"),
                                "--mask", "order.pgm"],
    "candidates-logits-dilate-normals": ["candidates", *_frame("tilted", "normals"),
                                         "--logits", "logits.f32r", "--dilate", "2"],
    "evaluate-pairs": ["evaluate", "--pred-dir", "pred/", "--gt-dir", "gt/"],
    "evaluate-all-safe-truth": ["evaluate", "--pred-dir", "safe_pred/", "--gt-dir", "safe_gt/"],
    "evaluate-missing-counterpart": ["evaluate", "--pred-dir", "pred/", "--gt-dir", "safe_gt/"],
    **{f"synth-{name[6:]}": ["synth", "--spec", f"{name}.txt", "--out", f"out-{name}/"]
       for name in SCENES},
    "loss-vnl": ["loss", "vnl", "--pred", "vnl_pred.f32r", "--gt", "vnl_gt.f32r",
                 "--intrinsics", "intr.txt", "--samples", "200", "--seed", "3"],
    "loss-sequential": ["loss", "sequential", "--preds", *(f"seq_depth{t}.f32r" for t in range(3)),
                        "--confs", *(f"seq_conf{t}.f32r" for t in range(3)),
                        "--gt-depth", "crop_gt.f32r", "--gt-conf", "crop_conf.f32r",
                        "--valid", "crop_valid.pgm", "--grad-check"],
    "loss-dncl": ["loss", "dncl", "--depth", "seq_depth0.f32r", "--normals", "crop_normals.f32r",
                  "--intrinsics", "intr.txt", "--grad-check"],
    "loss-slz": ["loss", "slz", "--logits", *(f"slz_logits{t}.f32r" for t in range(3)),
                 "--labels", "crop_labels.pgm", "--valid", "crop_valid.pgm", "--grad-check"],
    "loss-combined": ["loss", "combined", "--vnl", "0.3", "--seq", "1.7", "--dncl", "0.25",
                      "--lambda2", "0.35"],
    "refine-demo": ["refine-demo", "--base", "56", "--T", "4", "--out", "refine-direct/"],
    # resumed into the directory it continues: the t0 and t1 rasters there go
    "refine-demo-resume": ["refine-demo", "--resume", "refine-half/", "--T", "2",
                           "--out", "refine-half/"],
    "refine-demo-T16-gamma": ["refine-demo", "--base", "56", "--T", "16", "--gamma", "0.5",
                              "--out", "refine-t16/"],
    "refine-demo-T16-gamma-resume": ["refine-demo", "--resume", "refine-t16-first/", "--T", "16",
                                     "--gamma", "0.5", "--out", "refine-t16-resumed/"],
}

# calls run, their output unpinned, before a case
BEFORE = {"refine-demo-resume": ["refine-demo", "--base", "56", "--T", "2", "--out", "refine-half/"],
          "refine-demo-T16-gamma-resume": ["refine-demo", "--base", "56", "--T", "16",
                                           "--gamma", "0.5", "--out", "refine-t16-first/"]}

# cases whose bytes hold for one numpy build only
BUILD_BOUND = {"loss-vnl", "loss-sequential", "loss-dncl", "loss-slz", "refine-demo",
               "refine-demo-resume", "refine-demo-T16-gamma", "refine-demo-T16-gamma-resume"}
# the oracle tests' tolerances: loss values against their loop oracles, the
# grad-check bound of each loss, a refinement step against its oracle
LOSS_TOL = 1e-9
GRAD_CHECK_BOUND = {"loss-sequential": 1e-4, "loss-dncl": 1e-3, "loss-slz": 1e-4}
REFINE_TOL = 1e-5


def build_fingerprint():
    """The numpy version, BLAS and SIMD targets that the build-bound bytes depend on."""
    config = np.show_config(mode="dicts")
    return {"numpy": np.__version__, "blas": config["Build Dependencies"]["blas"]["name"],
            "simd": config["SIMD Extensions"]}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _call(root, args):
    argv = [str(root / a) if a.endswith((".f32r", ".pgm", ".txt", "/")) else a for a in args]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return argv, code, out.getvalue(), err.getvalue().replace(str(root), "<root>")


def run_case(root, name):
    """Exit code, stdout (or its SHA-256), stderr and the SHA-256 of each
    file written under --out of one case, run in root."""
    if name in BEFORE:
        _call(root, BEFORE[name])
    argv, code, out, err = _call(root, CASES[name])
    pin = {"code": code, "stderr": err}
    if argv[0] == "loss":
        pin["stdout"] = out
    else:
        pin["stdout_sha256"] = _sha256(out.encode())
    if "--out" in argv:
        written = Path(argv[argv.index("--out") + 1])
        pin["files"] = {p.relative_to(written).as_posix(): _sha256(p.read_bytes())
                        for p in sorted(written.rglob("*")) if p.is_file()}
        if (written / "losses.csv").exists():
            pin["losses_csv"] = (written / "losses.csv").read_text()
    return pin


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    build_inputs(path)
    return path


def test_inputs_exercise_exclusions_and_many_regions(root):
    from slzkit.slz import connected_components

    speckle = sio.read_mask(root / "speckle.pgm")
    assert len(connected_components(speckle)) > 1000
    assert len(connected_components(sio.read_mask(root / "grid.pgm"))) == 120
    normals = sio.read_raster(root / "normals.f32r")
    assert (np.abs(normals[..., 2]) < 0.1).any()
    tilted = sio.read_raster(root / "tilted.f32r")
    assert np.isnan(tilted).any() and (tilted == 0).any()


def test_order_run_prints_its_summation_order():
    a, b, c = (d * d / (INTR.fx * INTR.fy) for d in ORDER_DEPTHS)
    assert f"{a + b + c:.9g}" == "10.1601562" and f"{c + b + a:.9g}" == "10.1601563"


def test_manifest_covers_every_case():
    assert sorted(json.loads(MANIFEST.read_text())) == sorted([*CASES, "fingerprint"])


def test_regeneration_rewrites_the_manifest_only_for_a_changed_pin():
    fingerprint = {"numpy": "2.4.6", "blas": "scipy-openblas", "simd": {"found": ["AVX2"]}}
    old = {"area-grid": {"code": 0, "stdout_sha256": "a"}, "loss-vnl": {"code": 0, "stdout": "loss=0\n"},
           "fingerprint": fingerprint}
    # the same pins on the same build: nothing to write
    assert manifest_update(old, json.loads(json.dumps(old))) == (None, ["no pin changed"])
    # another build whose pins are all byte-equal: each differing part of
    # the fingerprint on its own line, and still nothing to write
    other = dict(old, fingerprint=dict(fingerprint, simd={"found": ["AVX2", "AVX512_SPR"]},
                                       numpy="2.4.7"))
    assert manifest_update(old, other) == (None, [
        "fingerprint numpy: manifest '2.4.6', this build '2.4.7'",
        "fingerprint simd: manifest {'found': ['AVX2']}, this build "
        "{'found': ['AVX2', 'AVX512_SPR']}",
        "no pin changed"])
    # a changed, a new and a dropped pin: the whole new manifest is written
    pins = dict(old, **{"area-grid": {"code": 0, "stdout_sha256": "b"}, "evaluate": {"code": 2}})
    del pins["loss-vnl"]
    assert manifest_update(old, pins) == (pins, ["changed: area-grid, evaluate, loss-vnl"])
    # a first regeneration, with no manifest, writes every pin
    assert manifest_update({}, old)[0] == old


def _key_values(text):
    return dict(line.split("=", 1) for line in text.splitlines())


def assert_same_values(name, got, want):
    """Compare a build-bound pin made on another numpy build by value."""
    assert (got["code"], got["stderr"]) == (want["code"], want["stderr"])
    if "stdout" in want:
        got_kv, want_kv = _key_values(got["stdout"]), _key_values(want["stdout"])
        assert got_kv.keys() == want_kv.keys()
        assert float(got_kv["loss"]) == pytest.approx(float(want_kv["loss"]),
                                                      rel=LOSS_TOL, abs=LOSS_TOL)
        if "grad_check_max_rel_err" in want_kv:
            assert float(got_kv["grad_check_max_rel_err"]) <= GRAD_CHECK_BOUND[name]
    if "files" in want:
        assert sorted(got["files"]) == sorted(want["files"])
        got_rows, want_rows = (list(csv.reader(io.StringIO(pin["losses_csv"])))
                               for pin in (got, want))
        assert [r[0] for r in got_rows] == [r[0] for r in want_rows]
        for g, w in zip(got_rows[1:], want_rows[1:]):
            assert [float(v) for v in g[1:] if v] == pytest.approx(
                [float(v) for v in w[1:] if v], rel=REFINE_TOL, abs=REFINE_TOL)


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_golden_pin(root, name):
    manifest = json.loads(MANIFEST.read_text())
    got, want = run_case(root, name), manifest[name]
    if name in BUILD_BOUND and manifest["fingerprint"] != build_fingerprint():
        assert_same_values(name, got, want)
    else:
        assert got == want


def test_resumed_refinement_equals_the_direct_run(root):
    direct = run_case(root, "refine-demo")["files"]
    resumed = run_case(root, "refine-demo-resume")["files"]
    shared = sorted(set(direct) & set(resumed) - {"losses.csv"})
    assert {"depth_t4.f32r", "slz_full.f32r", "state/meta.txt", "weights/meta.txt"} <= set(shared)
    assert [direct[n] for n in shared] == [resumed[n] for n in shared]


def manifest_update(old, pins):
    """``(manifest, lines)`` of a regeneration: the manifest to write, None
    when every pin of ``pins`` (the cases and this build's ``fingerprint``)
    equals that of the manifest ``old``, the fingerprint aside, and the
    lines to print: one for each part of the fingerprint that differs,
    then the changed pins or ``no pin changed``."""
    want, got = old.get("fingerprint", {}), pins["fingerprint"]
    lines = [f"fingerprint {key}: manifest {want.get(key)!r}, this build {got.get(key)!r}"
             for key in sorted(want.keys() | got.keys()) if want.get(key) != got.get(key)]
    changed = sorted(name for name in (pins.keys() | old.keys()) - {"fingerprint"}
                     if pins.get(name) != old.get(name))
    lines.append(f"changed: {', '.join(changed)}" if changed else "no pin changed")
    return (pins if changed else None), lines


def regenerate():
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        build_inputs(root)
        pins = {name: run_case(root, name) for name in CASES}
    pins["fingerprint"] = build_fingerprint()
    manifest, lines = manifest_update(old, pins)
    if manifest is not None:
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        lines.insert(0, f"wrote {len(manifest)} pins to {os.path.relpath(MANIFEST)}")
    for line in lines:
        print(line, file=sys.stderr)


if __name__ == "__main__":
    regenerate()

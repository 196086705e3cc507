import argparse
import ast
import csv
import gc
import io as std_io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slzkit
from oracles import evaluate_dataset, zero_projection_heads
from slzkit import io as sio
from slzkit import refinement
from slzkit.camera import CameraIntrinsics, read_intrinsics, write_intrinsics
from slzkit.cli import DEFAULTS, build_parser, main
from slzkit.metrics import to_csv_rows
from slzkit.synth import parse_scene

# a numpy overflow or invalid-value warning in a pinned call is an error,
# not a message that pytest would capture out of the compared stderr
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

INTR = CameraIntrinsics(100, 100, 31.5, 31.5)


def run_cli(capsys, *argv):
    """Exit code, stdout and stderr of one call, argparse's own exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(std_io.StringIO(text)))


@pytest.fixture
def flat_scene(tmp_path):
    """Fronto-parallel plane fixture: depth 5 everywhere, all safe."""
    write_intrinsics(tmp_path / "intr.txt", INTR)
    depth = np.full((64, 64), 5.0, dtype=np.float32)
    normals = np.zeros((64, 64, 3), dtype=np.float32)
    normals[..., 2] = -1.0
    sio.write_raster(depth, tmp_path / "depth.f32r")
    sio.write_raster(normals, tmp_path / "normals.f32r")
    sio.write_mask(np.zeros((64, 64), np.uint8), tmp_path / "mask.pgm")
    return tmp_path


def test_area_fronto_parallel_matches_closed_form(capsys, flat_scene):
    code, out, _ = run_cli(capsys, "area",
                           "--depth", str(flat_scene / "depth.f32r"),
                           "--mask", str(flat_scene / "mask.pgm"),
                           "--normals", str(flat_scene / "normals.f32r"),
                           "--intrinsics", str(flat_scene / "intr.txt"))
    assert code == 0
    rows = parse_csv(out)
    total = next(r for r in rows if r[0] == "total")
    assert float(total[3]) == pytest.approx(64 * 64 * 25.0 / 1e4, rel=1e-6)


def test_area_derive_normals(capsys, flat_scene):
    code, out, _ = run_cli(capsys, "area",
                           "--depth", str(flat_scene / "depth.f32r"),
                           "--mask", str(flat_scene / "mask.pgm"),
                           "--derive-normals",
                           "--intrinsics", str(flat_scene / "intr.txt"))
    assert code == 0
    total = next(r for r in parse_csv(out) if r[0] == "total")
    assert float(total[3]) == pytest.approx(64 * 64 * 25.0 / 1e4, rel=1e-5)


def test_area_all_unsafe_mask_is_zero_total(capsys, flat_scene):
    sio.write_mask(np.ones((64, 64), np.uint8), flat_scene / "unsafe.pgm")
    code, out, _ = run_cli(capsys, "area",
                           "--depth", str(flat_scene / "depth.f32r"),
                           "--mask", str(flat_scene / "unsafe.pgm"),
                           "--normals", str(flat_scene / "normals.f32r"),
                           "--intrinsics", str(flat_scene / "intr.txt"))
    assert code == 0
    rows = parse_csv(out)
    assert rows[-1] == ["total", "0", "0", "0"]


def test_area_shape_mismatch_exits_3(capsys, flat_scene):
    sio.write_mask(np.zeros((32, 32), np.uint8), flat_scene / "small.pgm")
    code, _, err = run_cli(capsys, "area",
                           "--depth", str(flat_scene / "depth.f32r"),
                           "--mask", str(flat_scene / "small.pgm"),
                           "--normals", str(flat_scene / "normals.f32r"),
                           "--intrinsics", str(flat_scene / "intr.txt"))
    assert code == 3
    assert "shape" in err


def test_area_parse_error_exits_2(capsys, flat_scene):
    (flat_scene / "bad.f32r").write_bytes(b"F32R 4 4 1\n\x00\x00")
    code, _, err = run_cli(capsys, "area",
                           "--depth", str(flat_scene / "bad.f32r"),
                           "--mask", str(flat_scene / "mask.pgm"),
                           "--normals", str(flat_scene / "normals.f32r"),
                           "--intrinsics", str(flat_scene / "intr.txt"))
    assert code == 2


def _three_blob_fixture(tmp_path):
    write_intrinsics(tmp_path / "intr.txt", INTR)
    mask = np.ones((32, 32), np.uint8)
    mask[2:6, 2:6] = 0     # 16 px
    mask[10:20, 10:20] = 0  # 100 px
    mask[25:28, 25:31] = 0  # 18 px
    depth = np.full((32, 32), 4.0, dtype=np.float32)
    normals = np.zeros((32, 32, 3), dtype=np.float32)
    normals[..., 2] = -1.0
    sio.write_mask(mask, tmp_path / "mask.pgm")
    sio.write_raster(depth, tmp_path / "depth.f32r")
    sio.write_raster(normals, tmp_path / "normals.f32r")


def test_candidates_three_blobs_sorted(capsys, tmp_path):
    _three_blob_fixture(tmp_path)
    code, out, _ = run_cli(capsys, "candidates",
                           "--depth", str(tmp_path / "depth.f32r"),
                           "--mask", str(tmp_path / "mask.pgm"),
                           "--normals", str(tmp_path / "normals.f32r"),
                           "--intrinsics", str(tmp_path / "intr.txt"),
                           "--k", "5")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4  # header + 3 candidates
    pixel_counts = [int(r[5]) for r in rows[1:]]
    assert pixel_counts == [100, 18, 16]
    areas = [float(r[7]) for r in rows[1:]]
    assert areas == sorted(areas, reverse=True)


def test_candidates_k_zero_header_only(capsys, tmp_path):
    _three_blob_fixture(tmp_path)
    code, out, _ = run_cli(capsys, "candidates",
                           "--depth", str(tmp_path / "depth.f32r"),
                           "--mask", str(tmp_path / "mask.pgm"),
                           "--normals", str(tmp_path / "normals.f32r"),
                           "--intrinsics", str(tmp_path / "intr.txt"),
                           "--k", "0")
    assert code == 0
    assert len(parse_csv(out)) == 1


def test_candidates_from_logits_with_dilation(capsys, tmp_path):
    _three_blob_fixture(tmp_path)
    mask = sio.read_mask(tmp_path / "mask.pgm")
    logits = np.zeros((32, 32, 2), dtype=np.float32)
    logits[..., 1] = np.where(mask == 1, 4.0, -4.0)
    sio.write_raster(logits, tmp_path / "logits.f32r")
    code, out, _ = run_cli(capsys, "candidates",
                           "--depth", str(tmp_path / "depth.f32r"),
                           "--logits", str(tmp_path / "logits.f32r"),
                           "--normals", str(tmp_path / "normals.f32r"),
                           "--intrinsics", str(tmp_path / "intr.txt"),
                           "--k", "5", "--dilate", "1")
    assert code == 0
    rows = parse_csv(out)
    # dilation shrinks every blob by its one-pixel rim
    assert [int(r[5]) for r in rows[1:]] == [64, 4, 4]


def test_candidates_config_precedence(capsys, tmp_path):
    _three_blob_fixture(tmp_path)
    (tmp_path / "cfg.txt").write_text("k=1\n")
    argv = ["candidates",
            "--depth", str(tmp_path / "depth.f32r"),
            "--mask", str(tmp_path / "mask.pgm"),
            "--normals", str(tmp_path / "normals.f32r"),
            "--intrinsics", str(tmp_path / "intr.txt"),
            "--config", str(tmp_path / "cfg.txt")]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and len(parse_csv(out)) == 2  # config k=1
    code, out, _ = run_cli(capsys, *argv, "--k", "2")
    assert code == 0 and len(parse_csv(out)) == 3  # flag wins


def test_evaluate_identical_dirs_all_100(capsys, tmp_path):
    pred = tmp_path / "pred"
    gt = tmp_path / "gt"
    pred.mkdir()
    gt.mkdir()
    rng = np.random.default_rng(0)
    for i in range(3):
        m = (rng.uniform(size=(8, 8)) > 0.5).astype(np.uint8)
        sio.write_mask(m, pred / f"img{i}.pgm")
        sio.write_mask(m, gt / f"img{i}.pgm")
    code, out, err = run_cli(capsys, "evaluate", "--pred-dir", str(pred), "--gt-dir", str(gt))
    assert code == 0
    rows = parse_csv(out)
    for row in rows[1:]:
        assert row[-1] == "100.00"
    assert "mIoU=100.00" in err


def test_evaluate_crafted_pair_matches_hand_computation(capsys, tmp_path):
    pred = tmp_path / "pred"
    gt = tmp_path / "gt"
    pred.mkdir()
    gt.mkdir()
    # pooled confusion [[2,1],[1,4]] split across two one-row images
    sio.write_mask(np.array([[0, 0, 1, 1]], np.uint8), pred / "a.pgm")
    sio.write_mask(np.array([[0, 0, 0, 1]], np.uint8), gt / "a.pgm")
    sio.write_mask(np.array([[0, 1, 1, 1]], np.uint8), pred / "b.pgm")
    sio.write_mask(np.array([[1, 1, 1, 1]], np.uint8), gt / "b.pgm")
    code, out, _ = run_cli(capsys, "evaluate", "--pred-dir", str(pred), "--gt-dir", str(gt))
    assert code == 0
    rows = {r[0]: r for r in parse_csv(out)}
    assert rows["aAcc"][3] == "75.00"
    assert rows["IoU"] == ["IoU", "50.00", "66.67", "58.33"]


def test_evaluate_missing_counterpart_exits_2(capsys, tmp_path):
    pred = tmp_path / "pred"
    gt = tmp_path / "gt"
    pred.mkdir()
    gt.mkdir()
    sio.write_mask(np.zeros((4, 4), np.uint8), pred / "only.pgm")
    code, _, err = run_cli(capsys, "evaluate", "--pred-dir", str(pred), "--gt-dir", str(gt))
    assert code == 2
    assert "only.pgm" in err



def test_evaluate_pairs_thousands_of_names_before_reading_a_file(capsys, tmp_path):
    # zero-byte masks: a read of any of them would exit 2 with "not a P5 PGM file"
    names = [f"m{i:05d}.pgm" for i in range(3000)]
    for side, drop in (("pred", 7), ("gt", 11)):
        (tmp_path / side).mkdir()
        for i, name in enumerate(names):
            if i % drop:
                (tmp_path / side / name).touch()
    code, out, err = run_cli(capsys, "evaluate", "--pred-dir", str(tmp_path / "pred"),
                             "--gt-dir", str(tmp_path / "gt"))
    # both sides lack names; the first prediction name without a ground truth is m00011
    assert (code, out) == (2, "")
    assert "missing ground-truth counterpart for m00011.pgm" in err
    assert "not a P5" not in err

def test_evaluate_shape_mismatch_names_the_pair(capsys, tmp_path):
    for d in ("pred", "gt"):
        (tmp_path / d).mkdir()
        sio.write_mask(np.zeros((4, 4), np.uint8), tmp_path / d / "a.pgm")
    sio.write_mask(np.zeros((4, 4), np.uint8), tmp_path / "pred" / "b.pgm")
    sio.write_mask(np.zeros((5, 4), np.uint8), tmp_path / "gt" / "b.pgm")
    code, out, err = run_cli(capsys, "evaluate", "--pred-dir", str(tmp_path / "pred"),
                             "--gt-dir", str(tmp_path / "gt"))
    assert (code, out, err) == (3, "", "error: b.pgm: pred shape (4, 4) != gt shape (5, 4)\n")


def test_a_warning_prints_one_line_without_its_source(capsys, flat_scene):
    path = flat_scene / "mask.pgm"
    path.write_bytes(path.read_bytes() + b"\0\0")
    code, _, err = run_cli(capsys, "area", "--depth", str(flat_scene / "depth.f32r"),
                           "--mask", str(path), "--normals", str(flat_scene / "normals.f32r"),
                           "--intrinsics", str(flat_scene / "intr.txt"))
    assert (code, err) == (0, f"warning: {path}: 2 trailing bytes ignored\n")


def _write_gray(path, gray, header=None):
    """A P5 PGM of the uint8 plane `gray`, with its header as given."""
    height, width = gray.shape
    head = header or f"P5\n{width} {height}\n255\n"
    path.write_bytes(head.encode("ascii") + gray.tobytes())


def test_evaluate_counts_the_gray_bytes_as_read_mask_decodes_them(capsys, tmp_path):
    # evaluate counts the payload bytes without decoding them to arrays; its
    # CSV is the library's over the read_mask arrays, and a header comment
    # is skipped as read_mask skips it
    rng = np.random.default_rng(11)
    for d in ("pred", "gt"):
        (tmp_path / d).mkdir()
    for name, (h, w) in {"a": (1, 1), "b": (7, 1), "c": (1, 9), "d": (181, 183)}.items():
        for d in ("pred", "gt"):
            gray = rng.choice(np.array([0, 127, 128, 255, 1, 254], np.uint8), (h, w))
            header = f"P5 # {name}\n#  a comment line\n{w} {h}\n255\n" if name == "d" else None
            _write_gray(tmp_path / d / f"{name}.pgm", gray, header)
    pairs = [tuple(sio.read_mask(tmp_path / d / f"{name}.pgm") for d in ("pred", "gt"))
             for name in "abcd"]
    code, out, err = run_cli(capsys, "evaluate", "--pred-dir", str(tmp_path / "pred"),
                             "--gt-dir", str(tmp_path / "gt"))
    assert code == 0, err
    assert parse_csv(out) == [list(r) for r in to_csv_rows(evaluate_dataset(pairs))]
    assert err.startswith("4 pairs: aAcc=")


def test_evaluate_counts_pairs_that_shrink_as_read_mask_decodes_them(capsys, tmp_path):
    # every pair after the first is smaller: the read buffers hold the bytes
    # of a larger pair past each payload, which are neither counted nor
    # warned of as trailing bytes
    rng = np.random.default_rng(12)
    for d in ("pred", "gt"):
        (tmp_path / d).mkdir()
        for name, shape in {"a": (181, 183), "b": (1, 9), "c": (7, 1), "d": (1, 1)}.items():
            _write_gray(tmp_path / d / f"{name}.pgm", rng.integers(0, 256, shape, dtype=np.uint8))
    pairs = [tuple(sio.read_mask(tmp_path / d / f"{name}.pgm") for d in ("pred", "gt"))
             for name in "abcd"]
    code, out, err = run_cli(capsys, "evaluate", "--pred-dir", str(tmp_path / "pred"),
                             "--gt-dir", str(tmp_path / "gt"))
    assert code == 0, err
    assert parse_csv(out) == [list(r) for r in to_csv_rows(evaluate_dataset(pairs))]
    assert err.startswith("4 pairs: aAcc=") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--pred-dir", "--gt-dir"])
def test_evaluate_given_a_file_for_a_directory_exits_2_naming_it(capsys, tmp_path, flag):
    for d in ("pred", "gt"):
        (tmp_path / d).mkdir()
    argv = {"--pred-dir": str(tmp_path / "pred"), "--gt-dir": str(tmp_path / "gt")}
    argv[flag] = str(tmp_path / "a.pgm")
    sio.write_mask(np.zeros((4, 4), np.uint8), tmp_path / "a.pgm")
    code, out, err = run_cli(capsys, "evaluate", *(a for pair in argv.items() for a in pair))
    assert (code, out, err) == (2, "", f"error: {tmp_path / 'a.pgm'}: not a directory\n")


def test_evaluate_warns_once_of_a_files_trailing_bytes(capsys, tmp_path):
    for d in ("pred", "gt"):
        (tmp_path / d).mkdir()
        sio.write_mask(np.eye(5, dtype=np.uint8), tmp_path / d / "a.pgm")
    argv = ["evaluate", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(tmp_path / "gt")]
    _, want, summary = run_cli(capsys, *argv)
    path = tmp_path / "gt" / "a.pgm"
    path.write_bytes(path.read_bytes() + b"\xff\xff\xff")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (0, want)
    assert err == f"warning: {path}: 3 trailing bytes ignored\n" + summary


def test_evaluate_empty_dirs_exit_2(capsys, tmp_path):
    (tmp_path / "pred").mkdir()
    (tmp_path / "gt").mkdir()
    code, _, _ = run_cli(capsys, "evaluate",
                         "--pred-dir", str(tmp_path / "pred"),
                         "--gt-dir", str(tmp_path / "gt"))
    assert code == 2


def test_refine_demo_deterministic_bytes(capsys, tmp_path):
    for name in ("a", "b"):
        code, _, _ = run_cli(capsys, "refine-demo", "--out", str(tmp_path / name),
                             "--seed", "9", "--T", "2")
        assert code == 0
    for fn in ("depth_t2.f32r", "slz_t2.f32r", "normal_t2.f32r", "losses.csv"):
        assert (tmp_path / "a" / fn).read_bytes() == (tmp_path / "b" / fn).read_bytes()


def test_refine_demo_resume_matches_direct(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "full"),
                         "--seed", "4", "--T", "4")
    assert code == 0
    code, _, _ = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "half"),
                         "--seed", "4", "--T", "2")
    assert code == 0
    code, _, _ = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "rest"),
                         "--resume", str(tmp_path / "half"), "--T", "2")
    assert code == 0
    assert (tmp_path / "full" / "depth_t4.f32r").read_bytes() == \
        (tmp_path / "rest" / "depth_t4.f32r").read_bytes()
    assert (tmp_path / "full" / "slz_t4.f32r").read_bytes() == \
        (tmp_path / "rest" / "slz_t4.f32r").read_bytes()


@pytest.fixture
def finished_run(capsys, tmp_path):
    """Output directory of a short refine-demo run, for --resume."""
    code, _, _ = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "a"), "--T", "1")
    assert code == 0
    return tmp_path / "a"


@pytest.mark.parametrize("flag,value", [("--weights", "/nonexistent"), ("--hidden", "16"),
                                        ("--base", "112"), ("--seed", "9")])
def test_refine_demo_resume_rejects_flags_it_would_ignore(capsys, tmp_path, finished_run,
                                                          flag, value):
    code, out, err = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "b"),
                             "--resume", str(finished_run), flag, value)
    assert code == 2 and out == ""
    assert f"{flag} cannot be combined with --resume" in err
    assert not (tmp_path / "b").exists()


def test_refine_demo_weights_rejects_hidden(capsys, tmp_path, finished_run):
    code, _, err = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "b"),
                           "--weights", str(finished_run / "weights"), "--hidden", "16")
    assert code == 2
    assert "--hidden cannot be combined with --weights" in err


def test_refine_demo_resume_takes_config_values_as_defaults(capsys, tmp_path, finished_run):
    (tmp_path / "cfg.txt").write_text("hidden=16\nbase=112\nseed=9\n")
    for name, extra in (("plain", []), ("config", ["--config", str(tmp_path / "cfg.txt")])):
        code, _, _ = run_cli(capsys, "refine-demo", "--out", str(tmp_path / name),
                             "--resume", str(finished_run), *extra)
        assert code == 0
    for fn in ("depth_t5.f32r", "state/meta.txt", "weights/meta.txt", "losses.csv"):
        assert (tmp_path / "config" / fn).read_bytes() == (tmp_path / "plain" / fn).read_bytes()


def test_refine_demo_resume_of_a_reshaped_gate_kernel_exits_2(capsys, tmp_path, finished_run):
    for gate in "zrh":  # the same values as 1x9 rasters
        path = finished_run / "weights" / f"gru_quarter.{gate}.kernel.f32r"
        sio.write_raster(sio.read_raster(path).reshape(1, 9, -1), path)
    code, _, err = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "b"),
                           "--resume", str(finished_run))
    assert code == 2
    assert "gru_quarter.z.kernel has shape (1, 9, 96)" in err


@pytest.mark.parametrize("entry,edit,named", [
    pytest.param("normal", lambda a: a[..., :2], "normal has shape (14, 14, 2)", id="normal"),
    pytest.param("depth", lambda a: a[:-1], "depth (13, 14)", id="depth"),
    pytest.param("slz", lambda a: a[..., 0], "slz has shape (14, 14)", id="slz"),
    pytest.param("slz_hidden", lambda a: a[:, :-1], "slz_hidden has shape (14, 13, 8)",
                 id="slz_hidden"),
    pytest.param("hidden_seventh", lambda a: a[..., :4], "hidden_seventh has shape (8, 8, 4)",
                 id="hidden_seventh"),
    pytest.param("hidden_fourteenth", lambda a: a[..., 0], "hidden_fourteenth has shape (4, 4)",
                 id="hidden_fourteenth"),
    pytest.param("hidden_seventh", lambda a: a[:3, :3],
                 "hidden_seventh has shape (3, 3, 8), expected (8, 8, 8)", id="hidden_seventh_3x3"),
    pytest.param("hidden_fourteenth", lambda a: np.resize(a, (5, 2, 8)),
                 "hidden_fourteenth has shape (5, 2, 8), expected (4, 4, 8)",
                 id="hidden_fourteenth_5x2"),
])
def test_refine_demo_resume_of_a_malformed_state_entry_exits_2(capsys, tmp_path, finished_run,
                                                               entry, edit, named):
    path = finished_run / "state" / f"{entry}.f32r"
    sio.write_raster(edit(sio.read_raster(path)), path)
    code, _, err = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "b"),
                           "--resume", str(finished_run))
    assert code == 2
    assert named in err


def test_refine_demo_resume_reads_only_the_named_entries(capsys, tmp_path, finished_run):
    code, _, _ = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "plain"),
                         "--resume", str(finished_run))
    assert code == 0
    for sub in ("weights", "state"):
        (finished_run / sub / "junk.f32r").write_bytes(b"F32R 2 2 1\nshort")
    code, _, _ = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "junk"),
                         "--resume", str(finished_run))
    assert code == 0
    files = sorted(p.relative_to(tmp_path / "plain") for p in (tmp_path / "plain").rglob("*"))
    assert files == sorted(p.relative_to(tmp_path / "junk") for p in (tmp_path / "junk").rglob("*"))
    for rel in files:
        if (tmp_path / "plain" / rel).is_file():
            assert (tmp_path / "junk" / rel).read_bytes() == (tmp_path / "plain" / rel).read_bytes()


def test_refine_demo_resume_of_a_state_with_another_channel_count_exits_2(capsys, tmp_path):
    for name, hidden in (("a", "4"), ("b", "8")):
        code, _, _ = run_cli(capsys, "refine-demo", "--out", str(tmp_path / name),
                             "--hidden", hidden, "--T", "1")
        assert code == 0
    shutil.rmtree(tmp_path / "a" / "weights")
    shutil.copytree(tmp_path / "b" / "weights", tmp_path / "a" / "weights")
    code, out, err = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "c"),
                             "--resume", str(tmp_path / "a"))
    assert (code, out) == (2, "")
    assert err == (f"error: {tmp_path / 'a' / 'state'}: hidden_quarter has shape (14, 14, 4), "
                   "expected (14, 14, 8) from depth (14, 14) and hidden_channels=8\n")
    assert not (tmp_path / "c").exists()


def test_refine_demo_resume_of_a_non_square_state(capsys, tmp_path):
    rng = np.random.default_rng(3)

    def u(*shape):
        return rng.uniform(-0.1, 0.1, shape).astype(np.float32)

    state = refinement.RefinementState(
        hidden_quarter=u(14, 21, 4), hidden_seventh=u(8, 12, 4), hidden_fourteenth=u(4, 6, 4),
        slz_hidden=u(14, 21, 4), depth=u(14, 21) + np.float32(2.5), normal=u(14, 21, 3),
        slz=u(14, 21, 2))
    refinement.save_state(state, tmp_path / "a" / "state")
    refinement.save_weights(refinement.init_weights(4), tmp_path / "a" / "weights")
    code, out, _ = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "b"),
                           "--resume", str(tmp_path / "a"), "--T", "2")
    assert (code, out) == (0, "")
    table = parse_csv((tmp_path / "b" / "losses.csv").read_text())
    assert [row[0] for row in table] == ["t", "0", "1", "2", "sequential_total", "slz_total"]
    assert sio.read_raster(tmp_path / "b" / "depth_t2.f32r").shape == (14, 21)


@pytest.mark.parametrize("entry,line", [("state", "t=-3"), ("weights", "hidden_channels=0")])
def test_refine_demo_resume_of_a_meta_value_out_of_range_exits_2(capsys, tmp_path, finished_run,
                                                                  entry, line):
    (finished_run / entry / "meta.txt").write_text(line + "\n")
    code, _, err = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "b"),
                           "--resume", str(finished_run))
    assert code == 2
    assert f"meta.txt: {line} must be >= " in err
    assert not list((tmp_path / "b").glob("*.f32r"))


def test_refine_demo_removes_the_step_rasters_of_an_earlier_run(capsys, tmp_path):
    out = tmp_path / "x"
    code, _, _ = run_cli(capsys, "refine-demo", "--T", "4", "--out", str(out))
    assert code == 0
    keep = ["depth_t12.f32r.bak", "depth_t.f32r", "notes_t3.f32r", "slz_t3.f32r.txt",
            "depth_t-1.f32r", "slz_t007.f32r"]
    for name in keep:
        (out / name).write_text("mine\n")
    code, _, _ = run_cli(capsys, "refine-demo", "--T", "2", "--seed", "5", "--out", str(out))
    assert code == 0
    code, _, _ = run_cli(capsys, "refine-demo", "--T", "2", "--seed", "5",
                         "--out", str(tmp_path / "fresh"))
    assert code == 0
    steps = {f"{kind}_t{t}.f32r" for kind in ("depth", "normal", "slz") for t in range(3)}
    assert {p.name for p in out.glob("*_t*")} == steps | set(keep)
    for name in keep:
        assert (out / name).read_text() == "mine\n"
    for name in [*steps, "losses.csv"]:
        assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def _tree(out):
    """The bytes of every file under out, by relative path."""
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def _assert_rejected_setting_leaves_out_as_it_was(capsys, tmp_path, flag, value, message):
    out = tmp_path / "x"
    code, _, _ = run_cli(capsys, "refine-demo", "--T", "4", "--seed", "1", "--out", str(out))
    assert code == 0
    before = _tree(out)
    for target in (out, tmp_path / "fresh"):
        # the last of a repeated flag wins
        code, stdout, err = run_cli(capsys, "refine-demo", "--T", "2", "--seed", "5", flag, value,
                                    "--out", str(target))
        assert code == 2 and stdout == ""
        assert message in err
    assert _tree(out) == before
    assert not (tmp_path / "fresh").exists()


def test_refine_demo_rejected_gamma_leaves_out_as_it_was(capsys, tmp_path):
    _assert_rejected_setting_leaves_out_as_it_was(capsys, tmp_path, "--gamma", "-1",
                                                  "gamma must be in (0, 1], got -1.0")


def test_refine_demo_rejected_step_count_leaves_out_as_it_was(capsys, tmp_path):
    _assert_rejected_setting_leaves_out_as_it_was(capsys, tmp_path, "--T", "-1",
                                                  "steps must be >= 0, got -1")


def test_refine_demo_stopped_midway_keeps_the_earlier_runs_weights_and_state(
        capsys, tmp_path, monkeypatch):
    out = tmp_path / "x"
    code, _, _ = run_cli(capsys, "refine-demo", "--T", "4", "--seed", "1", "--out", str(out))
    assert code == 0
    before = {name: _tree(out / name) for name in ("weights", "state")}
    calls, real = [], refinement.refinement_step

    def step(state, weights, workspace):
        calls.append(state.t)
        if len(calls) == 2:
            raise MemoryError("out of memory at the second step")
        return real(state, weights, workspace)

    monkeypatch.setattr(refinement, "refinement_step", step)
    code, stdout, err = run_cli(capsys, "refine-demo", "--T", "3", "--seed", "5",
                                "--out", str(out))
    assert code == 2 and stdout == ""
    assert err == "error: out of memory at the second step\n"
    assert calls == [0, 1]
    assert {name: _tree(out / name) for name in ("weights", "state")} == before
    # the steps that finished wrote their rasters as they came
    monkeypatch.setattr(refinement, "refinement_step", real)
    code, _, _ = run_cli(capsys, "refine-demo", "--T", "3", "--seed", "5",
                         "--out", str(tmp_path / "whole"))
    assert code == 0
    for name in ("depth_t0.f32r", "slz_t1.f32r"):
        assert (out / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


@pytest.mark.parametrize("steps", [1, 4, 16])
def test_refine_demo_totals_are_the_decayed_losses_of_the_whole_run(capsys, tmp_path, steps):
    from slzkit import losses

    code, _, _ = run_cli(capsys, "refine-demo", "--T", str(steps), "--gamma", "0.5",
                         "--out", str(tmp_path / "x"))
    assert code == 0
    rows = parse_csv((tmp_path / "x" / "losses.csv").read_text())
    states = list(refinement.run_refinement(refinement.demo_state(56, 8, seed=0),
                                            refinement.init_weights(8, seed=0), steps))
    side = states[0].depth.shape
    gt, ones, labels = np.full(side, 2.5), np.ones(side), np.zeros(side, np.uint8)
    seq = losses.sequential_depth_loss([s.depth for s in states], [ones] * len(states), gt,
                                       ones, gamma=0.5)
    ce = losses.slz_loss([s.slz for s in states], labels, gamma=0.5)
    # the decayed sum of the table's one-step values is the whole run's value, bit for bit
    l1s = [losses.sequential_depth_loss([s.depth], [ones], gt, ones) for s in states]
    ces = [losses.slz_loss([s.slz], labels) for s in states]
    assert (losses.decayed_sum(l1s, 0.5), losses.decayed_sum(ces, 0.5)) == (seq, ce)
    assert rows[1:-2] == [[str(s.t), f"{a:.9g}", f"{b:.9g}"] for s, a, b in zip(states, l1s, ces)]
    assert rows[-2:] == [["sequential_total", f"{seq:.9g}", ""], ["slz_total", f"{ce:.9g}", ""]]


def test_refine_demo_zero_weight_bundle_is_fixed_point(capsys, tmp_path):
    weights = zero_projection_heads(refinement.init_weights(8, seed=2))
    refinement.save_weights(weights, tmp_path / "bundle")
    code, _, _ = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "out"),
                         "--seed", "2", "--T", "3", "--weights", str(tmp_path / "bundle"))
    assert code == 0
    t0 = (tmp_path / "out" / "depth_t0.f32r").read_bytes()
    for t in (1, 2, 3):
        assert (tmp_path / "out" / f"depth_t{t}.f32r").read_bytes() == t0


def test_refine_demo_bad_base_exits_2(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "x"), "--base", "30")
    assert code == 2


def _loss_argvs(tmp_path):
    """argv of each `loss` kind on perfect fixtures (every loss is 0)."""
    write_intrinsics(tmp_path / "intr.txt", INTR)
    depth = np.full((12, 12), 3.0, dtype=np.float32)
    conf = np.full((12, 12), 0.5, dtype=np.float32)
    sio.write_raster(depth, tmp_path / "d.f32r")
    sio.write_raster(conf, tmp_path / "c.f32r")
    from slzkit.geometry import normals_from_depth
    sio.write_raster(normals_from_depth(depth, INTR).astype(np.float32), tmp_path / "n.f32r")
    labels = np.zeros((12, 12), np.uint8)
    sio.write_mask(labels, tmp_path / "lab.pgm")
    logits = np.zeros((12, 12, 2), dtype=np.float32)
    logits[..., 0] = 40.0
    sio.write_raster(logits, tmp_path / "z.f32r")

    checks = [
        ("vnl", ["--pred", "d.f32r", "--gt", "d.f32r", "--intrinsics", "intr.txt",
                 "--samples", "20", "--seed", "1"]),
        ("sequential", ["--preds", "d.f32r", "--confs", "c.f32r",
                        "--gt-depth", "d.f32r", "--gt-conf", "c.f32r"]),
        ("dncl", ["--depth", "d.f32r", "--normals", "n.f32r", "--intrinsics", "intr.txt"]),
        ("slz", ["--logits", "z.f32r", "--labels", "lab.pgm"]),
        ("combined", ["--vnl", "0", "--seq", "0", "--dncl", "0"]),
    ]
    return {kind: ["loss", kind] + [a if a.startswith("--") or not a.endswith((".f32r", ".pgm", ".txt"))
                                    else str(tmp_path / a) for a in extra]
            for kind, extra in checks}


def test_loss_perfect_fixtures_are_zero(capsys, tmp_path):
    for kind, argv in _loss_argvs(tmp_path).items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, kind
        value = float(out.split("loss=")[1].split()[0])
        assert value <= 1e-6, kind


@pytest.mark.parametrize("kind,grad_fn", [
    ("sequential", "sequential_depth_loss_grad"),
    ("dncl", "depth_normal_consistency_grad"),
    ("slz", "slz_loss_grad"),
])
def test_loss_computes_gradient_only_under_grad_check(capsys, tmp_path, monkeypatch, kind, grad_fn):
    from slzkit import losses

    calls = []
    real = getattr(losses, grad_fn)

    def counted(*args, **kwargs):
        calls.append(grad_fn)
        return real(*args, **kwargs)

    monkeypatch.setattr(losses, grad_fn, counted)
    argv = _loss_argvs(tmp_path)[kind]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.startswith("loss=")
    assert calls == []
    code, checked, _ = run_cli(capsys, *argv, "--grad-check")
    assert code == 0
    assert calls == [grad_fn]
    assert checked.splitlines()[0] == out.strip()


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "1.5"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("kind", ["slz", "sequential"])
def test_loss_gamma_outside_0_1_exits_2(capsys, tmp_path, kind, source, value):
    (tmp_path / "cfg.txt").write_text(f"gamma={value}\n")
    setting = (["--gamma", value] if source == "flag"
               else ["--config", str(tmp_path / "cfg.txt")])
    code, out, err = run_cli(capsys, *_loss_argvs(tmp_path)[kind], *setting)
    assert code == 2 and out == ""
    assert f"gamma must be in (0, 1], got {float(value)}" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("kind,key", [("slz", "w_safe"), ("slz", "w_unsafe"),
                                      ("combined", "lambda1"), ("combined", "lambda2"),
                                      ("combined", "lambda3")])
def test_loss_non_finite_weight_exits_2_naming_it(capsys, tmp_path, kind, key, source, value):
    (tmp_path / "cfg.txt").write_text(f"{key}={value}\n")
    setting = ([f"--{key.replace('_', '-')}", value] if source == "flag"
               else ["--config", str(tmp_path / "cfg.txt")])
    code, out, err = run_cli(capsys, *_loss_argvs(tmp_path)[kind], *setting)
    assert code == 2 and out == ""
    assert f"{key} must be finite" in err


def test_loss_combined_default_weights(capsys):
    code, out, _ = run_cli(capsys, "loss", "combined", "--vnl", "1", "--seq", "1", "--dncl", "1")
    assert code == 0
    assert abs(float(out.strip().split("=")[1]) - 0.71) <= 1e-12


def test_loss_slz_grad_check(capsys, tmp_path):
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(4, 4, 2)).astype(np.float32)
    labels = (rng.uniform(size=(4, 4)) > 0.5).astype(np.uint8)
    sio.write_raster(logits, tmp_path / "z.f32r")
    sio.write_mask(labels, tmp_path / "lab.pgm")
    code, out, _ = run_cli(capsys, "loss", "slz",
                           "--logits", str(tmp_path / "z.f32r"),
                           "--labels", str(tmp_path / "lab.pgm"),
                           "--grad-check")
    assert code == 0
    err = float(out.split("grad_check_max_rel_err=")[1])
    assert err <= 1e-4


@pytest.mark.parametrize("kind", ["sequential", "slz"])
def test_loss_valid_help_states_the_mask_rule(capsys, kind):
    code, out, _ = run_cli(capsys, "loss", kind, "--help")
    assert code == 0
    # read_mask's threshold: a gray value >= 128 decodes to 1, a used pixel
    assert "--valid VALID PGM validity mask: a gray value >= 128 marks a pixel as used" \
        in " ".join(out.split())


def test_loss_numeric_degeneracy_exits_4(capsys, tmp_path):
    write_intrinsics(tmp_path / "intr.txt", INTR)
    invalid = np.full((8, 8), -1.0, dtype=np.float32)
    sio.write_raster(invalid, tmp_path / "bad.f32r")
    code, _, _ = run_cli(capsys, "loss", "vnl",
                         "--pred", str(tmp_path / "bad.f32r"),
                         "--gt", str(tmp_path / "bad.f32r"),
                         "--intrinsics", str(tmp_path / "intr.txt"),
                         "--samples", "4", "--seed", "0")
    assert code == 4


@pytest.mark.parametrize("kind", ["sequential", "slz"])
def test_loss_valid_mask_of_another_frame_size_exits_3(capsys, tmp_path, kind):
    argv = _loss_argvs(tmp_path)[kind]
    sio.write_mask(np.zeros((11, 12), np.uint8), tmp_path / "v.pgm")
    code, out, err = run_cli(capsys, *argv, "--valid", str(tmp_path / "v.pgm"))
    assert (code, out) == (3, "")
    assert err == "error: valid mask shape (11, 12) != raster shape (12, 12)\n"


@pytest.mark.parametrize("flag", ["--confs", "--gt-conf"])
def test_loss_sequential_multi_channel_confidence_exits_3(capsys, tmp_path, flag):
    argv = _loss_argvs(tmp_path)["sequential"]
    stack = tmp_path / "c3.f32r"
    sio.write_raster(np.full((3, 12, 12), 0.5, dtype=np.float32), stack)
    argv[argv.index(flag) + 1] = str(stack)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: {stack}: confidence must be single-channel, got 12 channels\n"


@pytest.mark.parametrize("argv,flag,channels,message", [
    ("area --mask lab.pgm --normals n.f32r", "--normals", 1,
     "normals must be 3-channel, got 1 channel"),
    ("candidates --logits z.f32r --normals n.f32r", "--logits", 3,
     "logits must be 2-channel, got 3 channels"),
    ("loss dncl --normals n.f32r", "--normals", 1, "normals must be 3-channel, got 1 channel"),
    ("loss slz --logits z.f32r --labels lab.pgm", "--logits", 3,
     "logits must be 2-channel, got 3 channels"),
])
def test_a_raster_with_the_wrong_channel_count_exits_3_naming_its_file(
        capsys, tmp_path, argv, flag, channels, message):
    _loss_argvs(tmp_path)  # writes the 12x12 fixtures
    argv = [str(tmp_path / a) if a.endswith((".f32r", ".pgm")) else a for a in argv.split()]
    if argv[0] != "loss" or argv[1] == "dncl":
        argv += ["--depth", str(tmp_path / "d.f32r"), "--intrinsics", str(tmp_path / "intr.txt")]
    bad = tmp_path / "bad.f32r"
    sio.write_raster(np.zeros((12, 12, channels), dtype=np.float32), bad)
    argv[argv.index(flag) + 1] = str(bad)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("cmd", ["area", "candidates"])
def test_a_normals_raster_of_another_frame_size_exits_3(capsys, tmp_path, cmd):
    _loss_argvs(tmp_path)  # writes the 12x12 fixtures
    bad = tmp_path / "bad.f32r"
    sio.write_raster(np.zeros((12, 13, 3), dtype=np.float32), bad)
    code, out, err = run_cli(capsys, cmd, "--depth", str(tmp_path / "d.f32r"),
                             "--intrinsics", str(tmp_path / "intr.txt"),
                             "--mask", str(tmp_path / "lab.pgm"), "--normals", str(bad))
    assert (code, out) == (3, "")
    assert err == "error: normals shape (12, 13, 3) incompatible with depth (12, 12)\n"


def test_every_slzkit_exception_maps_to_an_exit_code():
    """main handles ValueError, OSError and MemoryError; any other exception is a traceback."""
    from slzkit import errors

    defined = [cls for mod in (errors, sio) for cls in vars(mod).values()
               if isinstance(cls, type) and issubclass(cls, BaseException)
               and cls.__module__ == mod.__name__]
    assert defined
    for cls in defined:
        assert issubclass(cls, (ValueError, OSError, MemoryError)), cls.__name__


def test_synth_command_round_trip(capsys, tmp_path):
    spec = tmp_path / "scene.txt"
    spec.write_text("[scene]\nwidth=32\nheight=32\nfx=100\nfy=100\ncx=15.5\ncy=15.5\n"
                    "buffer=1\n\n[plane]\na=0\nb=0\nc=4\n\n[box]\nu0=10\nv0=10\nu1=14\n"
                    "v1=14\nheight=1\n")
    code, _, _ = run_cli(capsys, "synth", "--spec", str(spec), "--out", str(tmp_path / "scene"))
    assert code == 0
    depth = sio.read_raster(tmp_path / "scene" / "depth.f32r")
    mask = sio.read_mask(tmp_path / "scene" / "mask.pgm")
    assert depth.shape == (32, 32) and depth[12, 12] == 3.0
    assert mask[12, 12] == 1 and mask[0, 0] == 0
    sidecar = (tmp_path / "scene" / "sidecar.txt").read_text()
    assert "analytic_safe_area=" in sidecar


def test_synth_malformed_spec_exits_2(capsys, tmp_path):
    spec = tmp_path / "scene.txt"
    spec.write_text("[scene]\nwidth=32\n")
    code, _, _ = run_cli(capsys, "synth", "--spec", str(spec), "--out", str(tmp_path / "x"))
    assert code == 2


def test_synth_depth_past_the_float32_range_exits_2_writing_no_raster(capsys, tmp_path):
    spec = tmp_path / "scene.txt"
    spec.write_text("[scene]\nwidth=8\nheight=8\nfx=10\nfy=10\ncx=3.5\ncy=3.5\n"
                    "[plane]\na=0\nb=0\nc=1e39\n")
    out = tmp_path / "x"
    code, stdout, err = run_cli(capsys, "synth", "--spec", str(spec), "--out", str(out))
    assert code == 2 and stdout == ""
    assert err == f"error: {out / 'depth.f32r'}: a value exceeds the float32 range\n"
    assert not list(out.iterdir())


def _console_script(*argv, then=""):
    """Run the [project.scripts] entry as the wrapper an install generates
    runs it, with `then` run after the entry returns or exits, in the
    environment of `_fresh_python`."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+; 3.10 is still supported
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        module, func = tomllib.load(fh)["project"]["scripts"]["slzkit"].split(":")
    wrapper = (f"import sys\nfrom {module} import {func}\ntry:\n    code = {func}()\n"
               f"except SystemExit as exc:\n    code = exc.code\n{then}\nsys.exit(code)\n")
    return subprocess.run([sys.executable, "-c", wrapper, *argv],
                          capture_output=True, text=True, env=_child_env())


def test_console_script_smoke():
    proc = _console_script("loss", "combined", "--vnl", "1", "--seq", "1", "--dncl", "1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "loss=0.71"


def _speckle_scene(tmp_path, size, seed=0):
    """Speckled safe mask (many regions) over a noisy depth with some exclusions."""
    rng = np.random.default_rng(seed)
    mask = (rng.uniform(size=size) < 0.5).astype(np.uint8)
    depth = rng.uniform(2.0, 9.0, size).astype(np.float32)
    depth[rng.uniform(size=size) < 0.03] = 0.0
    normals = rng.normal(size=size + (3,)).astype(np.float32)
    normals /= np.linalg.norm(normals, axis=-1, keepdims=True)
    normals[..., 2] = -np.abs(normals[..., 2])
    write_intrinsics(tmp_path / "intr.txt", INTR)
    sio.write_mask(mask, tmp_path / "mask.pgm")
    sio.write_raster(depth, tmp_path / "depth.f32r")
    sio.write_raster(normals, tmp_path / "normals.f32r")
    return mask, depth.astype(np.float64), normals.astype(np.float64)


def _area_argv(tmp_path, *extra):
    return ["area", "--depth", str(tmp_path / "depth.f32r"), "--mask", str(tmp_path / "mask.pgm"),
            "--normals", str(tmp_path / "normals.f32r"),
            "--intrinsics", str(tmp_path / "intr.txt"), *extra]


def test_area_region_rows_add_up_to_total(capsys, tmp_path):
    mask, _, _ = _speckle_scene(tmp_path, (64, 64))
    code, out, _ = run_cli(capsys, *_area_argv(tmp_path))
    assert code == 0
    rows = parse_csv(out)
    body, total = rows[1:-1], rows[-1]
    assert len(body) > 100
    assert [int(r[0]) for r in body] == list(range(1, len(body) + 1))
    assert sum(int(r[1]) for r in body) == int(total[1])
    assert sum(int(r[2]) for r in body) == int(total[2])
    assert int(total[1]) + int(total[2]) == int((mask == 0).sum())
    assert sum(float(r[3]) for r in body) == pytest.approx(float(total[3]), rel=1e-6)


def test_area_region_id_selects_one_row(capsys, tmp_path):
    _speckle_scene(tmp_path, (64, 64))
    _, out, _ = run_cli(capsys, *_area_argv(tmp_path))
    rows = parse_csv(out)
    code, out, _ = run_cli(capsys, *_area_argv(tmp_path, "--region-id", "7"))
    assert code == 0
    assert parse_csv(out) == [rows[0], rows[7], ["total", *rows[7][1:]]]


@pytest.mark.parametrize("region_id", ["0", "-1", "100000"])
def test_area_missing_region_id_exits_2(capsys, tmp_path, region_id):
    _speckle_scene(tmp_path, (64, 64))
    code, out, err = run_cli(capsys, *_area_argv(tmp_path, "--region-id", region_id))
    assert code == 2
    assert out == ""
    assert f"no safe region with id {region_id}" in err


def test_area_speckle_720p_totals(capsys, tmp_path):
    # tens of thousands of regions: guards against per-region full-frame work
    mask, depth, normals = _speckle_scene(tmp_path, (720, 1280), seed=1)
    code, out, _ = run_cli(capsys, *_area_argv(tmp_path))
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) - 2 > 30000
    nz = np.abs(normals[..., 2])
    included = (mask == 0) & (depth > 0) & (nz >= 0.1)
    want = (depth[included] ** 2 / (INTR.fx * INTR.fy * nz[included])).sum()
    assert int(rows[-1][1]) == int(included.sum())
    assert int(rows[-1][2]) == int((mask == 0).sum() - included.sum())
    assert float(rows[-1][3]) == pytest.approx(want, rel=1e-6)


def _dests(parser):
    """Dests of the parser's flags and of those of all its subcommands."""
    dests = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                dests |= _dests(sub)
        else:
            dests.add(action.dest)
    return dests


def test_every_default_is_the_dest_of_a_subcommand_flag():
    assert sorted(set(DEFAULTS) - _dests(build_parser())) == []


def test_defaults_are_pinned_in_order():
    # the --help epilog and the --config value types come from this table
    want = [("lambda1", 0.2), ("lambda2", 0.5), ("lambda3", 0.01), ("gamma", 0.9), ("T", 4),
            ("w_safe", 2.0), ("w_unsafe", 1.0), ("n_z_min", 0.1), ("k", 5), ("dilate", 0),
            ("seed", 0), ("hidden", 8), ("base", 56)]
    assert [(k, v, type(v)) for k, v in DEFAULTS.items()] == [(k, v, type(v)) for k, v in want]


def test_grad_check_of_a_nan_depth_hole_exits_0(capsys, tmp_path):
    write_intrinsics(tmp_path / "intr.txt", CameraIntrinsics(100, 100, 4.5, 4.5))
    depth = np.full((10, 10), 4.0, dtype=np.float32)
    depth[4, 5] = np.nan
    normals = np.zeros((10, 10, 3), dtype=np.float32)
    normals[..., 2] = -1.0
    sio.write_raster(depth, tmp_path / "d.f32r")
    sio.write_raster(normals, tmp_path / "n.f32r")
    code, out, err = run_cli(capsys, "loss", "dncl", "--depth", str(tmp_path / "d.f32r"),
                             "--normals", str(tmp_path / "n.f32r"),
                             "--intrinsics", str(tmp_path / "intr.txt"), "--grad-check")
    assert code == 0, err
    assert out.startswith("loss=") and "grad_check_max_rel_err=" in out


@pytest.mark.parametrize("argv", [
    "area --derive-normals --mask mask.pgm",
    "candidates --derive-normals --logits z.f32r",
    "loss dncl --normals n.f32r",
    "loss dncl --normals n.f32r --grad-check",
])
def test_an_infinite_depth_pixel_runs_as_a_nan_one(capsys, tmp_path, argv):
    """Both are invalid depth: the same stdout, and no numpy warning on stderr."""
    write_intrinsics(tmp_path / "intr.txt", CameraIntrinsics(100, 110, 11.5, 12.0))
    depth = np.add.outer(np.linspace(4.0, 5.0, 24), np.linspace(0.0, 0.3, 24)).astype(np.float32)
    normals = np.zeros((24, 24, 3), dtype=np.float32)
    normals[..., 2] = -1.0
    logits = np.zeros((24, 24, 2), dtype=np.float32)
    logits[..., 0] = 4.0
    sio.write_raster(normals, tmp_path / "n.f32r")
    sio.write_raster(logits, tmp_path / "z.f32r")
    sio.write_mask(np.zeros((24, 24), np.uint8), tmp_path / "mask.pgm")
    argv = [str(tmp_path / a) if "." in a else a for a in argv.split()]
    argv += ["--depth", str(tmp_path / "d.f32r"), "--intrinsics", str(tmp_path / "intr.txt")]
    runs = []
    for hole in (np.nan, np.inf):
        depth[10, 10] = hole
        sio.write_raster(depth, tmp_path / "d.f32r")
        runs.append(run_cli(capsys, *argv))
    assert runs[0][0] == 0 and runs[0][2] == ""
    assert runs[1] == runs[0]


def test_config_unknown_key_exits_2(capsys, tmp_path):
    # no command reads a canonical focal length, from a config or an intrinsics file
    for text, line, key in (("# weights\nlambda1=0.3\nlamda1=5\n", 3, "lamda1"),
                            ("gamma=0.9\nf_c=1000\n", 2, "f_c")):
        (tmp_path / "cfg.txt").write_text(text)
        code, out, err = run_cli(capsys, "loss", "combined", "--vnl", "1", "--seq", "1",
                                 "--dncl", "1", "--config", str(tmp_path / "cfg.txt"))
        assert code == 2
        assert out == ""
        assert f"{tmp_path / 'cfg.txt'}:{line}: unknown key {key!r}" in err


@pytest.mark.parametrize("text,line", [("k=2\nk=two\n", 2), ("gamma 0.5\n", 1)])
def test_config_malformed_line_exits_2(capsys, tmp_path, text, line):
    _three_blob_fixture(tmp_path)
    (tmp_path / "cfg.txt").write_text(text)
    code, _, err = run_cli(capsys, "candidates",
                           "--depth", str(tmp_path / "depth.f32r"),
                           "--mask", str(tmp_path / "mask.pgm"),
                           "--normals", str(tmp_path / "normals.f32r"),
                           "--intrinsics", str(tmp_path / "intr.txt"),
                           "--config", str(tmp_path / "cfg.txt"))
    assert code == 2
    assert f"cfg.txt:{line}:" in err


def test_intrinsics_f_c_is_an_unknown_key_exits_2(capsys, flat_scene):
    # a canonical focal length was read, checked and then ignored by every command
    (flat_scene / "intr.txt").write_text("fx=100\nfy=100\ncx=31.5\ncy=31.5\nf_c=1000\n")
    code, out, err = run_cli(capsys, *_area_argv(flat_scene))
    assert code == 2
    assert out == ""
    assert f"{flat_scene / 'intr.txt'}:5: unknown key 'f_c'\n" in err


@pytest.mark.parametrize("section,line", [("scene", "zoom=7"), ("plane", "bogus=1"),
                                          ("box", "colour=red")])
def test_synth_unknown_key_exits_2(capsys, tmp_path, section, line):
    spec = tmp_path / "scene.txt"
    spec.write_text("[scene]\nwidth=32\nheight=32\nfx=100\nfy=100\ncx=15.5\ncy=15.5\n"
                    "[plane]\na=0\nb=0\nc=4\n[box]\nu0=10\nv0=10\nu1=14\nv1=14\nheight=1\n"
                    .replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    lineno = spec.read_text().splitlines().index(line) + 1
    code, out, err = run_cli(capsys, "synth", "--spec", str(spec), "--out", str(tmp_path / "x"))
    assert code == 2
    assert out == ""
    assert f"{spec}:{lineno}: unknown key {line.split('=')[0]!r}" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("case", ["intrinsics", "config", "scene", "state"])
def test_a_key_given_twice_exits_2_naming_the_file_and_line(capsys, flat_scene, case):
    # the later value used to win silently
    if case == "intrinsics":
        path, key, text = flat_scene / "intr.txt", "fx", "fx=100\nfy=100\ncx=31.5\nfx=5\ncy=31.5\n"
        argv = _area_argv(flat_scene)
    elif case == "config":
        path, key, text = flat_scene / "cfg.txt", "seed", "seed=1\n# again\nseed=2\n"
        argv = [*_loss_argvs(flat_scene)["vnl"], "--config", str(path)]
    elif case == "scene":
        path, key = flat_scene / "scene.txt", "width"
        text = "[scene]\nwidth=8\nheight=6\nfx=10\nfy=10\ncx=4\ncy=3\nwidth=9\n[plane]\na=0\nb=0\nc=4\n"
        argv = ["synth", "--spec", str(path), "--out", str(flat_scene / "x")]
    else:
        assert main(["refine-demo", "--out", str(flat_scene / "a"), "--T", "1"]) == 0
        path, key, text = flat_scene / "a" / "state" / "meta.txt", "t", "t=1\nt=1\n"
        argv = ["refine-demo", "--resume", str(flat_scene / "a"), "--out", str(flat_scene / "b")]
    path.write_text(text)
    lineno = max(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(key + "="))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"{path}:{lineno}: duplicate key {key!r}" in err


@pytest.mark.parametrize("case", ["intrinsics", "scene", "state"])
def test_a_missing_required_key_exits_2_naming_the_file_block_and_keys(capsys, flat_scene,
                                                                         case):
    if case == "intrinsics":
        path, text, missing = flat_scene / "intr.txt", "fx=100\nfy=100\ncx=31.5\n", ": cy"
        argv = _area_argv(flat_scene)
    elif case == "scene":
        path, missing = flat_scene / "scene.txt", " in [box]: v1, height"
        text = "[scene]\nwidth=8\nheight=6\nfx=10\nfy=10\ncx=4\ncy=3\n[plane]\na=0\nb=0\nc=4\n" \
               "[box]\nu0=1\nv0=1\nu1=2\n"
        argv = ["synth", "--spec", str(path), "--out", str(flat_scene / "x")]
    else:
        assert main(["refine-demo", "--out", str(flat_scene / "a"), "--T", "1"]) == 0
        path, text, missing = flat_scene / "a" / "state" / "meta.txt", "# no t\n", ": t"
        argv = ["refine-demo", "--resume", str(flat_scene / "a"), "--out", str(flat_scene / "b")]
    load = {"intrinsics": lambda: read_intrinsics(path), "scene": lambda: parse_scene(path),
            "state": lambda: refinement.load_state(path.parent, 8)}[case]
    path.write_text(text)
    message = f"{path}: missing required keys{missing}"
    with pytest.raises(sio.ParseError) as exc:
        load()
    assert str(exc.value) == message
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message + "\n" in err


# the variables OpenBLAS reads its thread count from
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# the process's thread count (None off Linux) and which of _BLAS_VARS are set
_BLAS_REPORT = f"""
import os
print("threads:", len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
      file=sys.stderr)
print("blas thread variables:", {{k: os.environ[k] for k in {_BLAS_VARS!r} if k in os.environ}},
      file=sys.stderr)
"""

# Runs `python -m slzkit.cli ARGV` in a fresh interpreter, then reports the
# scipy modules, whether numpy is loaded, which of dataclasses and inspect
# are loaded, the slzkit submodules loaded, the collector's state, the
# collections the call ran, by generation, and _BLAS_REPORT, by the time
# the command returned. cli itself runs as __main__, as under -m.
_PROBE = """
import gc, runpy, sys
sys.argv[0] = "slzkit"
passes = [g["collections"] for g in gc.get_stats()]
try:
    runpy.run_module("slzkit.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
else:
    code = 0
print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
      file=sys.stderr)
print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
print("dataclasses or inspect loaded:", sorted({"dataclasses", "inspect"} & set(sys.modules)),
      file=sys.stderr)
print("slzkit modules:", sorted(m for m in sys.modules if m.startswith("slzkit.")),
      file=sys.stderr)
print("gc enabled, heap frozen:", (gc.isenabled(), gc.get_freeze_count() > 0), file=sys.stderr)
print("collections by generation:",
      [g["collections"] - n for g, n in zip(gc.get_stats(), passes)], file=sys.stderr)
""" + _BLAS_REPORT + """
sys.exit(code)
"""


def _child_env(env=None):
    """This environment with this slzkit first on PYTHONPATH, none of
    _BLAS_VARS, and then `env`."""
    src = str(Path(slzkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    return {**base, "PYTHONPATH": path, **(env or {})}


def _fresh_python(*args, env=None):
    """Run a new interpreter that imports this slzkit, in `_child_env(env)`."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_child_env(env))


def _probe_line(proc, what):
    """The value the probe printed after `what:`, evaluated."""
    line = next(ln for ln in proc.stderr.splitlines() if ln.startswith(f"{what}: "))
    return ast.literal_eval(line.split(": ", 1)[1])


def test_import_loads_no_scipy():
    proc = _fresh_python("-c", "import sys, slzkit, slzkit.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _command_argv(tmp_path, command):
    """argv of one command of the probes on small fixtures."""
    fixed = {"help": ["--help"], "area-help": ["area", "--help"],
             "usage-error": ["area", "--mask", "m.pgm"]}
    if command in fixed:
        return fixed[command]
    if command.startswith(("area", "candidates")):
        _three_blob_fixture(tmp_path)
        frame = ["--depth", str(tmp_path / "depth.f32r"),
                 "--intrinsics", str(tmp_path / "intr.txt")]
        logits = np.zeros((32, 32, 2), dtype=np.float32)
        logits[..., 1] = np.where(sio.read_mask(tmp_path / "mask.pgm") == 1, 1.0, -1.0)
        sio.write_raster(logits, tmp_path / "logits.f32r")
        return {"area": ["area", *frame, "--mask", str(tmp_path / "mask.pgm"),
                         "--normals", str(tmp_path / "normals.f32r")],
                "area-derive-normals": ["area", *frame, "--mask", str(tmp_path / "mask.pgm"),
                                        "--derive-normals"],
                "candidates-logits-dilate": ["candidates", *frame,
                                             "--logits", str(tmp_path / "logits.f32r"),
                                             "--normals", str(tmp_path / "normals.f32r"),
                                             "--dilate", "2"]}[command]
    if command == "evaluate":
        for sub in ("pred", "gt"):
            (tmp_path / sub).mkdir()
            sio.write_mask(np.eye(8, dtype=np.uint8), tmp_path / sub / "a.pgm")
        return ["evaluate", "--pred-dir", str(tmp_path / "pred"), "--gt-dir", str(tmp_path / "gt")]
    if command == "refine-demo":
        return ["refine-demo", "--out", str(tmp_path / "run"), "--T", "2"]
    if command == "refine-demo-resume":
        assert main(["refine-demo", "--out", str(tmp_path / "a"), "--T", "1"]) == 0
        return ["refine-demo", "--resume", str(tmp_path / "a"), "--out", str(tmp_path / "b"),
                "--T", "1"]
    if command == "synth-buffer":
        spec = tmp_path / "scene.txt"
        spec.write_text("[scene]\nwidth=32\nheight=24\nfx=100\nfy=100\ncx=15.5\ncy=11.5\n"
                        "buffer=2\n[plane]\na=0\nb=0\nc=4\n"
                        "[box]\nu0=10\nv0=8\nu1=14\nv1=12\nheight=1\n")
        return ["synth", "--spec", str(spec), "--out", str(tmp_path / "scene")]
    if command == "combined-config":
        (tmp_path / "cfg.txt").write_text("lambda1=0.2\n")
        return _loss_argvs(tmp_path)["combined"] + ["--config", str(tmp_path / "cfg.txt")]
    return _loss_argvs(tmp_path)[command]


@pytest.mark.parametrize("command", ["combined", "vnl", "sequential", "dncl", "slz", "evaluate",
                                     "refine-demo", "refine-demo-resume", "synth-buffer",
                                     "area", "area-derive-normals", "candidates-logits-dilate"])
def test_command_without_scipy_code_loads_no_scipy(tmp_path, command):
    proc = _fresh_python("-c", _PROBE, *_command_argv(tmp_path, command))
    assert proc.returncode == 0, proc.stderr
    assert "scipy modules: []" in proc.stderr


_FRAME = {"camera", "errors", "geometry", "io", "settings", "slz"}
_LOSSES = {"camera", "errors", "geometry", "io", "losses", "settings"}


# command -> (exit code, the slzkit submodules it loads, whether it loads numpy)
@pytest.mark.parametrize("command,code,modules,numpy", [
    ("help", 0, {"errors", "settings"}, False),
    ("area-help", 0, {"errors", "settings"}, False),
    ("usage-error", 2, {"errors", "settings"}, False),
    ("combined", 0, {"errors", "settings"}, False),
    ("combined-config", 0, {"errors", "io", "settings"}, False),
    ("area", 0, _FRAME, True),
    ("area-derive-normals", 0, _FRAME, True),
    ("candidates-logits-dilate", 0, _FRAME, True),
    ("evaluate", 0, {"errors", "io", "metrics", "settings"}, False),
    ("vnl", 0, _LOSSES, True),
    ("sequential", 0, _LOSSES, True),
    ("dncl", 0, _LOSSES, True),
    ("slz", 0, _LOSSES, True),
    ("refine-demo", 0, _LOSSES | {"refinement"}, True),
    ("refine-demo-resume", 0, _LOSSES | {"refinement"}, True),
    ("synth-buffer", 0, _FRAME | {"synth"}, True),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command, code, modules, numpy):
    proc = _fresh_python("-c", _PROBE, *_command_argv(tmp_path, command))
    assert proc.returncode == code, proc.stderr
    assert _probe_line(proc, "slzkit modules") == sorted(f"slzkit.{m}" for m in modules)
    assert _probe_line(proc, "numpy loaded") is numpy


@pytest.mark.parametrize("command", ["help", "usage-error", "combined", "evaluate"])
def test_numpy_free_commands_load_neither_dataclasses_nor_inspect(tmp_path, command):
    # together about 10 ms of a bare interpreter's import time
    proc = _fresh_python("-c", _PROBE, *_command_argv(tmp_path, command))
    assert proc.returncode == (2 if command == "usage-error" else 0), proc.stderr
    assert _probe_line(proc, "dataclasses or inspect loaded") == []


# a success, argparse's exit on a usage error and an input error that main returns
_EXITS = {"success": (["loss", "combined", "--vnl", "1", "--seq", "1", "--dncl", "1"], 0),
          "usage-error": (["area", "--mask", "m.pgm"], 2),
          "input-error": (["loss", "combined", "--vnl", "1", "--seq", "1", "--dncl", "1",
                           "--config", "no-such-config.txt"], 2)}


@pytest.mark.parametrize("case", _EXITS)
def test_a_fresh_call_ends_with_the_heap_frozen_and_the_collector_on(case):
    argv, code = _EXITS[case]
    proc = _fresh_python("-c", _PROBE, *argv)
    assert proc.returncode == code, proc.stderr
    assert _probe_line(proc, "gc enabled, heap frozen") == (True, True)


@pytest.mark.parametrize("case", _EXITS)
def test_the_console_script_ends_with_the_heap_frozen_and_the_collector_on(case):
    argv, code = _EXITS[case]
    proc = _console_script(*argv, then="import gc\nprint((gc.isenabled(), gc.get_freeze_count()))")
    assert proc.returncode == code, proc.stderr
    enabled, frozen = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert enabled and frozen > 0


def test_a_fresh_numpy_command_collects_while_it_runs(tmp_path):
    # the reference cycles the numpy import leaves are freed during the
    # command, as without the entry, not held until the exit: the import
    # runs over ten young-generation passes and so a pass over the middle one
    proc = _fresh_python("-c", _PROBE, "refine-demo", "--out", str(tmp_path / "run"), "--T", "1")
    assert proc.returncode == 0, proc.stderr
    assert _probe_line(proc, "numpy loaded") is True
    assert _probe_line(proc, "collections by generation")[1] > 0


@pytest.mark.parametrize("case", _EXITS)
def test_main_in_process_leaves_the_collector_as_it_was(capsys, case):
    argv, code = _EXITS[case]
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            frozen = gc.get_freeze_count()
            assert run_cli(capsys, *argv)[0] == code
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _tree(root):
    """{relative path: bytes} of every file under root."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_a_fresh_call_writes_the_bytes_of_an_in_process_call(capsys, tmp_path):
    # so no output depends on a collection, at shutdown or during the run
    spec = tmp_path / "scene.txt"
    spec.write_text("[scene]\nwidth=40\nheight=30\nfx=60\nfy=60\ncx=19.5\ncy=14.5\n"
                    "buffer=1\n[plane]\na=0.05\nb=-0.1\nc=4\n"
                    "[box]\nu0=10\nv0=8\nu1=16\nv1=13\nheight=0.5\n")
    assert run_cli(capsys, "synth", "--spec", str(spec), "--out", str(tmp_path / "scene"))[0] == 0
    scene = {name: str(tmp_path / "scene" / name)
             for name in ("depth.f32r", "normals.f32r", "mask.pgm", "intrinsics.txt")}
    depth = sio.read_raster(scene["depth.f32r"])
    rng = np.random.default_rng(17)
    files = {"pred": depth * (1 + rng.uniform(-0.02, 0.02, depth.shape)),
             "conf": rng.uniform(size=depth.shape),
             "logits": rng.normal(scale=3.0, size=depth.shape + (2,))}
    for name, raster in files.items():
        sio.write_raster(raster.astype(np.float32), tmp_path / f"{name}.f32r")
    pred, conf, logits = (str(tmp_path / f"{name}.f32r") for name in files)
    frame = ["--depth", scene["depth.f32r"], "--intrinsics", scene["intrinsics.txt"]]
    calls = [
        ["synth", "--spec", str(spec), "--out", "{out}/scene"],
        ["refine-demo", "--out", "{out}/run", "--T", "4", "--seed", "3"],
        ["refine-demo", "--resume", "{out}/run", "--out", "{out}/rest", "--T", "2"],
        ["area", *frame, "--mask", scene["mask.pgm"], "--normals", scene["normals.f32r"]],
        ["candidates", *frame, "--mask", scene["mask.pgm"], "--derive-normals", "--k", "3"],
        ["loss", "vnl", "--pred", pred, "--gt", scene["depth.f32r"],
         "--intrinsics", scene["intrinsics.txt"], "--samples", "50", "--seed", "2"],
        ["loss", "sequential", "--preds", pred, scene["depth.f32r"], "--confs", conf, conf,
         "--gt-depth", scene["depth.f32r"], "--gt-conf", conf],
        ["loss", "dncl", "--depth", pred, "--normals", scene["normals.f32r"],
         "--intrinsics", scene["intrinsics.txt"]],
        ["loss", "slz", "--logits", logits, logits, "--labels", scene["mask.pgm"]],
    ]
    for argv in calls:
        sides = {}
        for side in ("in-process", "fresh"):
            out = tmp_path / side
            args = [a.replace("{out}", str(out)) for a in argv]
            if side == "fresh":
                proc = _fresh_python("-m", "slzkit.cli", *args)
                result = proc.returncode, proc.stdout, proc.stderr
            else:
                result = run_cli(capsys, *args)
            sides[side] = [r.replace(str(out), "{out}") if isinstance(r, str) else r
                           for r in result]
        assert sides["fresh"] == sides["in-process"], argv
        assert sides["fresh"][0] == 0, argv
    assert _tree(tmp_path / "fresh") == _tree(tmp_path / "in-process")
    assert {"scene/depth.f32r", "run/losses.csv", "rest/state/meta.txt"} <= set(
        _tree(tmp_path / "fresh"))


_LINUX_THREADS = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                    reason="counts the threads in /proc/self/task (Linux)")


@_LINUX_THREADS
@pytest.mark.parametrize("command", ["area", "refine-demo"])
def test_a_fresh_call_runs_one_blas_thread(tmp_path, command):
    proc = _fresh_python("-c", _PROBE, *_command_argv(tmp_path, command))
    assert proc.returncode == 0, proc.stderr
    assert _probe_line(proc, "numpy loaded") is True
    assert _probe_line(proc, "threads") == 1
    assert _probe_line(proc, "blas thread variables") == {"OPENBLAS_NUM_THREADS": "1"}


@pytest.mark.parametrize("given", [{"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2"},
                                   {"GOTO_NUM_THREADS": "2"}])
def test_a_blas_thread_count_the_caller_set_is_left_alone(tmp_path, given):
    # OPENBLAS_NUM_THREADS outranks OMP_NUM_THREADS, so adding it would
    # override a caller's OMP_NUM_THREADS
    proc = _fresh_python("-c", _PROBE, *_command_argv(tmp_path, "refine-demo"), env=given)
    assert proc.returncode == 0, proc.stderr
    assert _probe_line(proc, "blas thread variables") == given
    if os.path.isdir("/proc/self/task") and len(os.sched_getaffinity(0)) >= 2:
        assert _probe_line(proc, "threads") == 2


@_LINUX_THREADS
def test_the_console_script_runs_one_blas_thread(tmp_path):
    proc = _console_script("refine-demo", "--out", str(tmp_path / "run"), "--T", "1",
                           then=_BLAS_REPORT)
    assert proc.returncode == 0, proc.stderr
    assert _probe_line(proc, "threads") == 1
    assert _probe_line(proc, "blas thread variables") == {"OPENBLAS_NUM_THREADS": "1"}


def test_importing_slzkit_and_calling_main_set_no_blas_thread_variable():
    proc = _fresh_python("-c", "import sys, slzkit, slzkit.cli\n"
                         "slzkit.cli.main(['loss', 'combined', '--vnl', '1', '--seq', '1', "
                         "'--dncl', '1'])" + _BLAS_REPORT)
    assert proc.returncode == 0, proc.stderr
    assert _probe_line(proc, "blas thread variables") == {}


def test_refine_demo_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at --base 448 OpenBLAS splits the convolution GEMMs across threads;
    # smaller ones run on one thread whatever the count
    for threads in ("1", "2"):
        out = tmp_path / threads
        for argv in (["--base", "448", "--hidden", "16", "--T", "4", "--out", str(out / "run")],
                     ["--resume", str(out / "run"), "--out", str(out / "rest"), "--T", "2"]):
            proc = _fresh_python("-m", "slzkit.cli", "refine-demo", *argv,
                                 env={"OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
    assert {"run/depth_t4.f32r", "rest/depth_t6.f32r"} <= set(_tree(tmp_path / "1"))
    assert _tree(tmp_path / "1") == _tree(tmp_path / "2")


def test_loss_vnl_output_does_not_depend_on_the_blas_thread_count(tmp_path):
    rng = np.random.default_rng(36)
    gt = rng.uniform(4.0, 6.0, (360, 640)).astype(np.float32)
    sio.write_raster(gt, tmp_path / "gt.f32r")
    sio.write_raster(gt * rng.uniform(0.98, 1.02, gt.shape).astype(np.float32),
                     tmp_path / "pred.f32r")
    write_intrinsics(tmp_path / "intr.txt", CameraIntrinsics(500, 500, 319.5, 179.5))
    argv = ["loss", "vnl", "--pred", str(tmp_path / "pred.f32r"), "--gt", str(tmp_path / "gt.f32r"),
            "--intrinsics", str(tmp_path / "intr.txt"), "--samples", "5000", "--seed", "4"]
    outs = []
    for threads in ("1", "2"):
        proc = _fresh_python("-m", "slzkit.cli", *argv, env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].startswith("loss=") and outs[0] == outs[1]


def test_import_slzkit_loads_no_submodule_and_no_numpy():
    proc = _fresh_python("-c", "import sys, slzkit; print(sorted(m for m in sys.modules "
                         "if m.split('.')[0] in ('slzkit', 'numpy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['slzkit']"


_NAMESPACE_PROBE = """
import json, sys, slzkit
public = slzkit.__all__
bound_at_import = [n for n in public if n in vars(slzkit)]
star = {}
exec("from slzkit import *", star)
print(json.dumps({
    "bound_at_import": bound_at_import,
    "unbound_by_star": [n for n in public if n not in star],
    "not_cached": [n for n in public if vars(slzkit).get(n) is not star.get(n)],
    "not_from_its_module": [n for n in public
                            if getattr(sys.modules[star[n].__module__], n) is not star[n]],
    "not_in_dir": [n for n in public if n not in dir(slzkit)],
}))
"""


def test_public_names_resolve_on_first_access_and_are_cached():
    proc = _fresh_python("-c", _NAMESPACE_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "bound_at_import": [], "unbound_by_star": [], "not_cached": [],
        "not_from_its_module": [], "not_in_dir": []}


def test_an_unknown_public_name_is_an_attribute_error_naming_slzkit():
    with pytest.raises(AttributeError, match="module 'slzkit' has no attribute 'no_such_name'"):
        getattr(slzkit, "no_such_name")


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _module_level_imports(tree):
    """The modules that a module's import statements outside function bodies
    name: absolute names as written, a package-relative one as slzkit.<name>."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module
            elif node.module is not None:
                yield f"slzkit.{node.module}"
            else:
                yield from (f"slzkit.{alias.name}" for alias in node.names)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy():
    # static twin of the probes above: a lazy import inside any function counts too
    modules = sorted(Path(slzkit.__file__).parent.rglob("*.py"))
    assert len(modules) > 5
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = [name for name in _imported_modules(tree) if name.split(".")[0] == "scipy"]
        assert imported == [], f"{path.name} imports {imported}"


def test_the_numpy_free_modules_import_no_numpy_module_at_module_level():
    # static twin of the module-table probe: a numpy user is a slzkit module
    # that imports numpy anywhere, even inside a function
    package = Path(slzkit.__file__).parent
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in package.glob("*.py")}
    numpy_users = {f"slzkit.{stem}" for stem, tree in trees.items()
                   if any(name.split(".")[0] == "numpy" for name in _imported_modules(tree))}
    assert {"slzkit.io", "slzkit.losses", "slzkit.cli"} <= numpy_users
    for stem in ("__init__", "cli", "settings", "errors", "io", "metrics"):
        imported = [name for name in _module_level_imports(trees[stem])
                    if name.split(".")[0] == "numpy" or name in numpy_users]
        assert imported == [], f"{stem}.py imports {imported} at module level"


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (14, 14), (56, 56),
                                   (1, 1, 3), (14, 9, 3), (56, 56, 2)])
def test_bilinear_x4_matches_ndimage_zoom_bitwise(shape):
    from scipy import ndimage

    from slzkit.cli import _bilinear_x4

    rng = np.random.default_rng(sum(shape))
    raster = rng.uniform(-3.0, 3.0, shape).astype(np.float32)
    zoom = (4, 4) + (1,) * (raster.ndim - 2)
    want = ndimage.zoom(raster.astype(np.float64), zoom, order=1, grid_mode=True, mode="nearest")
    got = _bilinear_x4(raster)
    assert got.shape == want.shape == (4 * shape[0], 4 * shape[1]) + shape[2:]
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("value", ["0", "-1", "nan", "1.5"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["area", "candidates"])
def test_n_z_min_outside_0_1_exits_2(capsys, flat_scene, command, source, value):
    # at 0 or below, a pixel with a derived zero normal gave an infinite area
    # with exit 0; at nan every pixel was excluded
    depth = np.full((64, 64), 5.0, dtype=np.float32)
    depth[:8] = np.nan  # a horizon: zero normals along its edge
    sio.write_raster(depth, flat_scene / "horizon.f32r")
    (flat_scene / "cfg.txt").write_text(f"n_z_min={value}\n")
    setting = (["--n-z-min", value] if source == "flag"
               else ["--config", str(flat_scene / "cfg.txt")])
    code, out, err = run_cli(capsys, command, "--depth", str(flat_scene / "horizon.f32r"),
                             "--mask", str(flat_scene / "mask.pgm"), "--derive-normals",
                             "--intrinsics", str(flat_scene / "intr.txt"), *setting)
    assert code == 2 and out == ""
    assert f"n_z_min must be in (0, 1], got {float(value)}" in err


@pytest.mark.parametrize("hidden", ["0", "-2"])
def test_refine_demo_hidden_below_1_exits_2_naming_it(capsys, tmp_path, hidden):
    code, out, err = run_cli(capsys, "refine-demo", "--out", str(tmp_path / "x"),
                             "--hidden", hidden)
    assert code == 2 and out == ""
    assert f"hidden_channels must be >= 1, got {hidden}" in err
    assert not list((tmp_path / "x").glob("*.f32r"))


OUT_OF_RANGE = [  # (command, flag, value, the flag or setting the message names)
    ("candidates", "--k", "-1", "k must be >= 0, got -1"),
    ("candidates", "--dilate", "-1", "radius must be >= 0, got -1"),
    ("area", "--region-id", "0", "no safe region with id 0"),
    *[("area", "--n-z-min", v, "n_z_min must be in (0, 1]") for v in ("0", "1.5", "nan")],
    *[("vnl", "--samples", v, f"n_samples must be >= 1, got {v}") for v in ("0", "-3")],
    ("vnl", "--seed", "-1", "seed must be >= 0, got -1"),
    ("refine-demo", "--seed", "-1", "seed must be >= 0, got -1"),
    ("refine-demo", "--T", "-1", "steps must be >= 0, got -1"),
    *[("refine-demo", "--base", v, "base resolution must be a positive multiple of 28")
      for v in ("0", "30")],
    ("refine-demo", "--hidden", "0", "hidden_channels must be >= 1, got 0"),
    *[(kind, "--gamma", v, "gamma must be in (0, 1]")
      for kind in ("refine-demo", "slz", "sequential") for v in ("0", "nan")],
]


@pytest.mark.parametrize("command,flag,value,named", OUT_OF_RANGE)
def test_out_of_range_numeric_flag_exits_2_naming_it(capsys, flat_scene, command, flag, value,
                                                     named):
    if command in ("area", "candidates"):
        argv = [command, "--depth", str(flat_scene / "depth.f32r"),
                "--mask", str(flat_scene / "mask.pgm"),
                "--normals", str(flat_scene / "normals.f32r"),
                "--intrinsics", str(flat_scene / "intr.txt")]
    elif command == "refine-demo":
        argv = [command, "--out", str(flat_scene / "out")]
    else:
        argv = _loss_argvs(flat_scene)[command]
    code, out, err = run_cli(capsys, *argv, flag, value)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("case", ["vnl-samples", "synth-size"])
def test_an_allocation_too_large_exits_2_without_a_traceback(capsys, tmp_path, case):
    # Both ask for more than the 128 TiB user address space (4.26 PiB of
    # triplets and 728 TiB), which fails at once whatever the overcommit policy.
    if case == "vnl-samples":
        argv = [*_loss_argvs(tmp_path)["vnl"], "--samples", "100000000000000"]
    else:
        spec = tmp_path / "scene.txt"
        spec.write_text("[scene]\nwidth=10000000\nheight=10000000\nfx=100\nfy=100\ncx=5\ncy=5\n"
                        "[plane]\na=0\nb=0\nc=4\n")
        argv = ["synth", "--spec", str(spec), "--out", str(tmp_path / "x")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("normals", [["--normals", "missing.f32r", "--derive-normals"], []],
                         ids=["both", "neither"])
@pytest.mark.parametrize("command", ["area", "candidates"])
def test_normals_and_derive_normals_are_one_required_choice(capsys, flat_scene, command,
                                                            normals):
    # --normals beside --derive-normals used to be ignored, a missing file with exit 0
    code, out, err = run_cli(capsys, command, "--depth", str(flat_scene / "depth.f32r"),
                             "--mask", str(flat_scene / "mask.pgm"),
                             "--intrinsics", str(flat_scene / "intr.txt"),
                             *[str(flat_scene / a) if a.endswith(".f32r") else a
                               for a in normals])
    assert code == 2 and out == ""
    assert "--normals" in err and "--derive-normals" in err


@pytest.mark.parametrize("grad_check", [[], ["--grad-check"]])
@pytest.mark.parametrize("kind,raster", [("sequential", "p.f32r"), ("slz", "z.f32r")])
def test_a_non_finite_loss_exits_4_before_any_output(capsys, tmp_path, kind, raster,
                                                     grad_check):
    argv = _loss_argvs(tmp_path)
    # one NaN in a depth prediction, or in one logit
    if kind == "sequential":
        bad = np.full((12, 12), 3.0, dtype=np.float32)
        argv[kind][argv[kind].index("--preds") + 1] = str(tmp_path / raster)
    else:
        bad = sio.read_raster(tmp_path / raster)
    bad.flat[100] = np.nan
    sio.write_raster(bad, tmp_path / raster)
    code, out, err = run_cli(capsys, *argv[kind], *grad_check)
    assert code == 4 and out == ""
    assert err == "error: loss is nan, not a finite number\n"


def _three_steps(tmp_path, argv, *flags):
    """argv with each of the step flags given three step rasters, copies of
    its one fixture raster: the paths of each flag's steps."""
    steps = {}
    for flag in flags:
        i = argv.index(flag)
        src = Path(argv[i + 1])
        steps[flag] = [tmp_path / f"{flag[2:]}{t}.f32r" for t in range(3)]
        for path in steps[flag]:
            shutil.copyfile(src, path)
        argv[i + 1:i + 2] = [str(p) for p in steps[flag]]
    return steps


@pytest.mark.parametrize("grad_check", [[], ["--grad-check"]])
@pytest.mark.parametrize("kind,flags", [("sequential", ("--preds", "--confs")),
                                        ("slz", ("--logits",))])
def test_a_truncated_third_step_raster_exits_2_naming_it(capsys, tmp_path, kind, flags,
                                                         grad_check):
    argv = _loss_argvs(tmp_path)[kind]
    third = _three_steps(tmp_path, argv, *flags)[flags[0]][2]
    third.write_bytes(third.read_bytes()[:-5])
    code, out, err = run_cli(capsys, *argv, *grad_check)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {third}: ") and err.count("\n") == 1


@pytest.mark.parametrize("grad_check", [[], ["--grad-check"]])
@pytest.mark.parametrize("kind,flags", [("sequential", ("--preds", "--confs")),
                                        ("slz", ("--logits",))])
def test_a_loss_reads_each_step_raster_once(capsys, tmp_path, monkeypatch, kind, flags,
                                            grad_check):
    argv = _loss_argvs(tmp_path)[kind]
    code, one_step, _ = run_cli(capsys, *argv)
    steps = _three_steps(tmp_path, argv, *flags)
    reads = []
    read = sio.RasterRows.__getitem__
    monkeypatch.setattr(sio.RasterRows, "__getitem__",
                        lambda self, rows: reads.append(Path(self.path)) or read(self, rows))
    code, out, err = run_cli(capsys, *argv, *grad_check)
    assert code == 0, err
    step_reads = [p for p in reads if any(p in paths for paths in steps.values())]
    assert sorted(step_reads) == sorted(p for paths in steps.values() for p in paths)
    if not grad_check:  # step t of every flag, then step t + 1
        assert step_reads == [paths[t] for t in range(3) for paths in steps.values()]
    assert out.splitlines()[0] == one_step.strip()  # every fixture loss is 0


def test_unequal_step_counts_exit_3_before_a_missing_step_file_is_read(capsys, tmp_path):
    # the steps are read when the loss reaches them, after it has counted them
    argv = _loss_argvs(tmp_path)["sequential"]
    i = argv.index("--preds")
    argv[i + 1:i + 2] = [str(tmp_path / "missing0.f32r"), str(tmp_path / "missing1.f32r")]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "error: 2 depth steps != 1 confidence steps\n"

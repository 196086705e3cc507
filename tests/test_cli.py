import csv
import io as std_io
import shutil
import subprocess

import numpy as np
import pytest

from slzkit import io as sio
from slzkit import refinement
from slzkit.camera import CameraIntrinsics, write_intrinsics
from slzkit.cli import main

INTR = CameraIntrinsics(100, 100, 31.5, 31.5)


def run_cli(capsys, *argv):
    code = main(list(argv))
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


def test_refine_demo_zero_weight_bundle_is_fixed_point(capsys, tmp_path):
    weights = refinement.zero_projection_heads(refinement.init_weights(8, seed=2))
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


def test_loss_perfect_fixtures_are_zero(capsys, tmp_path):
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
    for kind, extra in checks:
        argv = ["loss", kind] + [a if a.startswith("--") or not a.endswith((".f32r", ".pgm", ".txt"))
                                 else str(tmp_path / a) for a in extra]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, kind
        value = float(out.split("loss=")[1].split()[0])
        assert value <= 1e-6, kind


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


@pytest.mark.skipif(shutil.which("slzkit") is None, reason="console script not installed")
def test_console_script_smoke():
    proc = subprocess.run(["slzkit", "loss", "combined", "--vnl", "1", "--seq", "1",
                           "--dncl", "1"], capture_output=True, text=True)
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


def test_config_unknown_key_exits_2(capsys, tmp_path):
    (tmp_path / "cfg.txt").write_text("# weights\nlambda1=0.3\nlamda1=5\n")
    code, out, err = run_cli(capsys, "loss", "combined", "--vnl", "1", "--seq", "1",
                             "--dncl", "1", "--config", str(tmp_path / "cfg.txt"))
    assert code == 2
    assert out == ""
    assert f"{tmp_path / 'cfg.txt'}:3: unknown key 'lamda1'" in err


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


def test_intrinsics_bad_fc_exits_2(capsys, flat_scene):
    (flat_scene / "intr.txt").write_text("fx=100\nfy=100\ncx=31.5\ncy=31.5\nf_c=-5\n")
    code, out, err = run_cli(capsys, *_area_argv(flat_scene))
    assert code == 2
    assert out == ""
    assert "intr.txt:5: bad value for f_c: f_c must be finite and > 0" in err

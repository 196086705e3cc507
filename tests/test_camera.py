import math

import numpy as np
import pytest

from slzkit.camera import (
    CameraIntrinsics,
    CanonicalSpec,
    canonical_scale,
    from_canonical,
    read_intrinsics,
    to_canonical,
    write_intrinsics,
)
from slzkit.errors import InvalidIntrinsicsError


def test_scale_identity_when_focals_match():
    intr = CameraIntrinsics(1000, 1000, 500, 400)
    assert canonical_scale(intr, CanonicalSpec(1000)) == 1.0


def test_scale_hand_value():
    # f_eff = (800 + 1200) / 2 = 1000
    intr = CameraIntrinsics(800, 1200, 500, 400)
    assert canonical_scale(intr, CanonicalSpec(500)) == 0.5


def test_invalid_intrinsics_rejected():
    with pytest.raises(InvalidIntrinsicsError):
        CameraIntrinsics(0, 1000, 500, 400)
    with pytest.raises(InvalidIntrinsicsError):
        CameraIntrinsics(1000, -5, 500, 400)
    with pytest.raises(InvalidIntrinsicsError):
        CameraIntrinsics(1000, 1000, math.nan, 400)
    with pytest.raises(InvalidIntrinsicsError):
        CanonicalSpec(0)


def test_scale_covariance():
    spec = CanonicalSpec(750)
    s1 = canonical_scale(CameraIntrinsics(600, 800, 0, 0), spec)
    s2 = canonical_scale(CameraIntrinsics(1200, 1600, 0, 0), spec)
    assert s2 == pytest.approx(s1 / 2, rel=1e-15)


def test_to_canonical_hand_value():
    intr = CameraIntrinsics(1000, 1000, 0, 0)
    out = to_canonical(np.array([[4.0]]), intr, CanonicalSpec(500))
    assert out[0, 0] == 2.0


def test_to_canonical_identity_scale():
    intr = CameraIntrinsics(1000, 1000, 0, 0)
    depth = np.random.default_rng(0).uniform(0.5, 30, (6, 7))
    out = to_canonical(depth, intr, CanonicalSpec(1000))
    assert np.array_equal(out, depth)


def test_invalid_pixels_pass_through():
    intr = CameraIntrinsics(1000, 1000, 0, 0)
    spec = CanonicalSpec(500)
    depth = np.array([[4.0, -1.0], [0.0, np.inf]])
    out = to_canonical(depth, intr, spec)
    assert out[0, 0] == 2.0
    assert out[0, 1] == -1.0
    assert out[1, 0] == 0.0
    assert np.isinf(out[1, 1])
    back = from_canonical(out, intr, spec)
    assert back[0, 1] == -1.0 and back[1, 0] == 0.0


def test_round_trip_bitwise_for_power_of_two_scale():
    intr = CameraIntrinsics(1000, 1000, 0, 0)
    spec = CanonicalSpec(500)  # s = 0.5
    depth = np.random.default_rng(1).uniform(0.1, 100, (16, 16))
    assert np.array_equal(from_canonical(to_canonical(depth, intr, spec), intr, spec), depth)


def test_round_trip_relative_error():
    intr = CameraIntrinsics(711, 937, 0, 0)
    spec = CanonicalSpec(1000)
    depth = np.random.default_rng(2).uniform(1e-3, 1e3, (32, 32))
    back = from_canonical(to_canonical(depth, intr, spec), intr, spec)
    assert np.max(np.abs(back - depth) / depth) <= 1e-6
    out = from_canonical(np.array([[2.0]]), CameraIntrinsics(1000, 1000, 0, 0), CanonicalSpec(500))
    assert out[0, 0] == 4.0


def test_to_canonical_accepts_integer_rasters():
    intr = CameraIntrinsics(1000, 1000, 0, 0)
    out = to_canonical(np.array([[4, 2]]), intr, CanonicalSpec(500))
    assert out.tolist() == [[2.0, 1.0]]


def test_to_canonical_is_linear():
    intr = CameraIntrinsics(800, 900, 10, 20)
    spec = CanonicalSpec()
    depth = np.random.default_rng(3).uniform(0.5, 10, (8, 8))
    lhs = to_canonical(3.0 * depth, intr, spec)
    rhs = 3.0 * to_canonical(depth, intr, spec)
    assert np.allclose(lhs, rhs, rtol=1e-15, atol=0)


def test_intrinsics_file_round_trip(tmp_path):
    path = tmp_path / "cam.txt"
    write_intrinsics(path, CameraIntrinsics(800.5, 1200.25, 320.0, 240.0), f_c=900.0)
    intr, f_c = read_intrinsics(path)
    assert intr == CameraIntrinsics(800.5, 1200.25, 320.0, 240.0)
    assert f_c == 900.0


def test_intrinsics_file_comments_and_default_fc(tmp_path):
    path = tmp_path / "cam.txt"
    path.write_text("# rig A\nfx=100 # px\nfy=110\ncx=50\ncy=40\n")
    intr, f_c = read_intrinsics(path)
    assert intr.fy == 110.0
    assert f_c is None


@pytest.mark.parametrize("text", [
    "fx=100\nfy=110\ncx=50\n",          # missing cy
    "fx=abc\nfy=110\ncx=50\ncy=40\n",   # bad float
    "fx=100\nfy=110\ncx=50\ncy=40\nzoom=2\n",  # unknown key
    "fx 100\n",                          # not key=value
])
def test_intrinsics_file_errors(tmp_path, text):
    path = tmp_path / "cam.txt"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_intrinsics(path)


@pytest.mark.parametrize("value", ["-5", "0", "nan", "inf"])
def test_intrinsics_file_rejects_bad_fc(tmp_path, value):
    path = tmp_path / "cam.txt"
    path.write_text(f"fx=100\nfy=110\nf_c={value}\ncx=50\ncy=40\n")
    with pytest.raises(ValueError, match=r"cam.txt:3: bad value for f_c: f_c must be finite and > 0"):
        read_intrinsics(path)

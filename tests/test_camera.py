import math

import numpy as np
import pytest

from slzkit.camera import CameraIntrinsics, read_intrinsics, write_intrinsics
from slzkit.errors import InvalidIntrinsicsError


def test_invalid_intrinsics_rejected():
    with pytest.raises(InvalidIntrinsicsError):
        CameraIntrinsics(0, 1000, 500, 400)
    with pytest.raises(InvalidIntrinsicsError):
        CameraIntrinsics(1000, -5, 500, 400)
    with pytest.raises(InvalidIntrinsicsError):
        CameraIntrinsics(1000, 1000, math.nan, 400)


def test_intrinsics_file_round_trip(tmp_path):
    path = tmp_path / "cam.txt"
    write_intrinsics(path, CameraIntrinsics(800.5, 1200.25, 320.0, 240.0))
    assert path.read_text() == "fx=800.5\nfy=1200.25\ncx=320.0\ncy=240.0\n"
    assert read_intrinsics(path) == CameraIntrinsics(800.5, 1200.25, 320.0, 240.0)


def test_intrinsics_file_comments(tmp_path):
    path = tmp_path / "cam.txt"
    path.write_text("# rig A\nfx=100 # px\nfy=110\ncx=50\ncy=40\n")
    assert read_intrinsics(path) == CameraIntrinsics(100.0, 110.0, 50.0, 40.0)


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


@pytest.mark.parametrize("value", ["-5", "0", "nan", "inf", "1000"])
def test_intrinsics_file_rejects_bad_fc(tmp_path, value):
    # no command reads a canonical focal length, so a file that gives one is
    # rejected whatever its value, rather than read and ignored
    path = tmp_path / "cam.txt"
    path.write_text(f"fx=100\nfy=110\nf_c={value}\ncx=50\ncy=40\n")
    with pytest.raises(ValueError, match=r"cam.txt:3: unknown key 'f_c'$"):
        read_intrinsics(path)


def test_intrinsics_file_round_trips_numpy_scalars(tmp_path):
    path = tmp_path / "cam.txt"
    intr = CameraIntrinsics(np.float64(500.0), np.float32(0.1), np.int64(320), np.float16(2.5))
    write_intrinsics(path, intr)
    assert path.read_text() == "fx=500.0\nfy=0.10000000149011612\ncx=320\ncy=2.5\n"
    assert read_intrinsics(path) == CameraIntrinsics(500.0, float(np.float32(0.1)), 320.0, 2.5)

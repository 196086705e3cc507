"""Property tests of the file formats: F32R round trips every float32 bit
pattern, and every parser rejects malformed bytes with a ValueError (a
ParseError for rasters and masks) that the CLI turns into exit code 2."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from slzkit import io as sio
from slzkit.camera import CameraIntrinsics, read_intrinsics, write_intrinsics
from slzkit.cli import main
from slzkit.synth import parse_scene

SPECIAL_BITS = [
    0x00000000, 0x80000000,  # +0.0, -0.0
    0x7F800000, 0xFF800000,  # +inf, -inf
    0x7FC00000, 0xFFC00000, 0x7FC00001, 0x7FFFFFFF,  # quiet NaNs with payloads
    0x7F800001, 0xFFA00001,  # signalling NaNs
    0x00000001, 0x807FFFFF, 0x00400000,  # subnormals
    0x7F7FFFFF, 0x00800000,  # largest finite, smallest normal
]


bit_patterns = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**32 - 1))
# (height, width, channels) arrays of float32 bit patterns
raster_bits = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(bit_patterns, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))
    .map(lambda bits: np.array(bits, dtype=np.uint32).reshape(shape)))


@settings(max_examples=150, deadline=None)
@given(bits=raster_bits)
@example(bits=np.array(SPECIAL_BITS, dtype=np.uint32).reshape(1, -1, 1))
def test_f32r_round_trips_every_float32_bit_pattern(tmp_path_factory, bits):
    raster = bits.view(np.float32)
    if raster.shape[2] == 1:
        raster = raster[..., 0]
    path = tmp_path_factory.mktemp("f32r") / "r.f32r"
    sio.write_raster(raster, path)
    back = sio.read_raster(path)
    assert back.dtype == np.float32 and back.shape == raster.shape
    assert np.array_equal(back.view(np.uint32), raster.view(np.uint32))


_PGM_WS = st.sampled_from([b" ", b"\t", b"\r", b"\n"])
# what may come before a PGM header field: whitespace, then whitespace and
# comments running to the end of their line
_PGM_GAP = st.tuples(_PGM_WS, st.lists(st.one_of(
    _PGM_WS, st.binary(max_size=8).map(lambda c: b"#" + c.replace(b"\n", b"") + b"\n")),
    max_size=4)).map(lambda gap: gap[0] + b"".join(gap[1]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pgm_header_gaps_read_the_payload_thresholded(tmp_path_factory, data):
    height, width = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    fields = [b"0" * data.draw(st.integers(0, 2)) + b"%d" % v for v in (width, height, 255)]
    payload = data.draw(st.binary(min_size=height * width, max_size=height * width))
    blob = (b"P5" + b"".join(data.draw(_PGM_GAP) + field for field in fields)
            + data.draw(_PGM_WS) + payload)
    path = tmp_path_factory.mktemp("pgm") / "m.pgm"
    path.write_bytes(blob)
    mask = sio.read_mask(path)
    assert mask.dtype == np.uint8 and mask.flags.writeable
    assert np.array_equal(mask, np.frombuffer(payload, np.uint8).reshape(height, width) >= 128)


# --- fuzzed files ----------------------------------------------------------------

TOKENS = [b"0", b"-1", b"255", b"256", b"nan", b"inf", b"-inf", b"1e999", b"99999999999",
          b" ", b"\n", b"\r", b"\t", b"=", b"#", b"[", b"]", b"[box]", b"[scene]", b"\x00",
          b"\xff", b"P5", b"F32R", b"1" * 5000]


@st.composite
def mutated(draw, seed):
    """`seed` with a few bytes or tokens replaced, inserted or deleted, or cut short."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 6))):
        pos = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("replace", "insert", "delete", "truncate")))
        chunk = draw(st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=3)))
        if op == "replace":
            data[pos:pos + len(chunk)] = chunk
        elif op == "insert":
            data[pos:pos] = chunk
        elif op == "delete":
            del data[pos:pos + draw(st.integers(1, 4))]
        else:
            del data[pos:]
    return bytes(data)


def _f32r_bytes():
    return b"F32R 3 2 1\n" + np.arange(6, dtype="<f4").tobytes()


def _pgm_bytes():
    return b"P5\n# comment\n3 2\n255\n" + bytes([0, 255, 127, 128, 0, 0])


INTRINSICS = b"fx=100.0\nfy=110.0  # focal\ncx=1.5\ncy=2.5\n"
SCENE = (b"[scene]\nwidth=8\nheight=6\nfx=10\nfy=10\ncx=4\ncy=3\nbuffer=1\n"
         b"[plane]\na=0.1\nb=-0.2\nc=5\n[box]\nu0=1\nv0=1\nu1=2\nv1=2\nheight=0.5\n")

# parser, a valid file, the file name, and the CLI call that reads it first
FORMATS = {
    "f32r": (sio.read_raster, _f32r_bytes(), "fuzz.f32r",
             ["loss", "vnl", "--pred", "{f}", "--gt", "{f}", "--intrinsics", "{intr}"]),
    "pgm": (sio.read_mask, _pgm_bytes(), "fuzz.pgm",
            ["area", "--depth", "{depth}", "--mask", "{f}", "--intrinsics", "{intr}",
             "--derive-normals"]),
    "intrinsics": (read_intrinsics, INTRINSICS, "fuzz.txt",
                   ["loss", "vnl", "--pred", "{depth}", "--gt", "{depth}", "--intrinsics", "{f}"]),
    "scene": (parse_scene, SCENE, "fuzz_scene.txt", ["synth", "--spec", "{f}", "--out", "{out}"]),
}


def _parse(parser, path):
    """None if the parser accepts the file, else the exception it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # trailing bytes only warn
        try:
            parser(path)
        except ValueError as exc:
            return exc
    return None


@pytest.mark.parametrize("fmt", FORMATS)
def test_valid_seed_files_parse(tmp_path, fmt):
    parser, seed, name, _ = FORMATS[fmt]
    (tmp_path / name).write_bytes(seed)
    assert _parse(parser, tmp_path / name) is None


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_parser_rejects_fuzzed_bytes_with_value_error_and_cli_exit_2(tmp_path, capsys, fmt, data):
    parser, seed, name, argv = FORMATS[fmt]
    blob = data.draw(st.one_of(mutated(seed), st.binary(max_size=64)), label="bytes")
    path = tmp_path / name
    path.write_bytes(blob)
    error = _parse(parser, path)  # anything but a ValueError fails the test here
    if error is None:
        return  # accepted; the CLI call could render a huge scene, so stop here
    assert name in str(error)

    write_intrinsics(tmp_path / "intr.txt", CameraIntrinsics(100.0, 100.0, 1.0, 1.0))
    sio.write_raster(np.full((2, 3), 4.0, dtype=np.float32), tmp_path / "depth.f32r")
    values = {"f": str(path), "intr": str(tmp_path / "intr.txt"),
              "depth": str(tmp_path / "depth.f32r"), "out": str(tmp_path / "out")}
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([a.format(**values) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and name in err


# malformed inputs pinned so that every run checks them, one per rejection path
# the fuzzing reaches only now and then: each fails with a ValueError naming the file
MALFORMED = {
    "f32r-long-dimension": ("f32r", b"F32R " + b"1" * 5000 + b" 2 1\n" + bytes(8)),
    "pgm-long-dimension": ("pgm", b"P5\n" + b"1" * 5000 + b" 2\n255\n" + bytes(8)),
    "intrinsics-not-ascii": ("intrinsics", b"fx=100\xff\nfy=100\ncx=1\ncy=1\n"),
    "intrinsics-zero-fx": ("intrinsics", INTRINSICS.replace(b"fx=100.0", b"fx=0")),
    "scene-degenerate-box": ("scene", SCENE.replace(b"u1=2", b"u1=0")),
    "scene-too-narrow": ("scene", SCENE.replace(b"width=8", b"width=2")),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_file_error_names_the_file(tmp_path, case):
    fmt, blob = MALFORMED[case]
    parser, _, name, _ = FORMATS[fmt]
    (tmp_path / name).write_bytes(blob)
    error = _parse(parser, tmp_path / name)
    assert error is not None and name in str(error)

import os
import re
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from slzkit import io as sio
from slzkit.camera import CameraIntrinsics
from slzkit.errors import ShapeMismatchError
from slzkit.geometry import pixel_areas
from slzkit.losses import slz_loss
from slzkit.metrics import confusion
from slzkit.slz import connected_components, dilate_unsafe, region_stats, top_k_candidates


def _nan_with_payload():
    # Quiet NaN with a non-default payload; must survive a round trip bitwise.
    return struct.unpack("<f", struct.pack("<I", 0x7FC00ABC))[0]


def test_raster_round_trip_bitwise(tmp_path):
    path = tmp_path / "r.f32r"
    values = np.array([[0.0, -0.0, 1e-30], [np.inf, -np.inf, _nan_with_payload()]],
                      dtype=np.float32)
    sio.write_raster(values, path)
    back = sio.read_raster(path)
    assert back.dtype == np.float32
    assert np.array_equal(values.view(np.uint32), back.view(np.uint32))


def test_raster_multichannel_round_trip(tmp_path):
    path = tmp_path / "r.f32r"
    arr = np.random.default_rng(0).normal(size=(5, 7, 3)).astype(np.float32)
    sio.write_raster(arr, path)
    back = sio.read_raster(path)
    assert back.shape == (5, 7, 3)
    assert np.array_equal(arr, back)


def test_raster_of_non_finite_float64_values_round_trips_bitwise(tmp_path):
    # inf, -inf, NaN and the float32 extremes cast without overflow
    path = tmp_path / "r.f32r"
    big = float(np.finfo(np.float32).max)
    values = np.array([[np.inf, -np.inf, np.nan], [big, -big, 1e-50]])
    sio.write_raster(values, path)
    assert np.array_equal(sio.read_raster(path).view(np.uint32),
                          values.astype(np.float32).view(np.uint32))


@pytest.mark.parametrize("value", [1e39, -1e39, 3.5e38])
def test_raster_value_past_the_float32_range_is_rejected_before_the_file(tmp_path, value):
    path = tmp_path / "r.f32r"
    with pytest.raises(ValueError, match=r"r\.f32r: a value exceeds the float32 range"):
        sio.write_raster(np.array([[1.0, value]]), path)
    assert not path.exists()


def test_writing_a_float32_raster_makes_no_copy_of_it(tmp_path):
    raster = np.random.default_rng(3).uniform(size=(720, 1280, 3)).astype(np.float32)
    tracemalloc.start()
    try:
        sio.write_raster(raster, tmp_path / "r.f32r")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < raster.nbytes / 10
    # a strided view writes the bytes of its contiguous copy
    sio.write_raster(raster[::2, ::-3], tmp_path / "view.f32r")
    sio.write_raster(raster[::2, ::-3].copy(), tmp_path / "copy.f32r")
    assert (tmp_path / "view.f32r").read_bytes() == (tmp_path / "copy.f32r").read_bytes()
    assert np.array_equal(sio.read_raster(tmp_path / "view.f32r"), raster[::2, ::-3])


def test_hand_constructed_header(tmp_path):
    path = tmp_path / "r.f32r"
    payload = struct.pack("<4f", 1.5, -2.0, 0.25, 8.0)
    path.write_bytes(b"F32R 2 2 1\n" + payload)
    arr = sio.read_raster(path)
    assert arr.shape == (2, 2)
    assert arr[0, 1] == -2.0 and arr[1, 1] == 8.0


def test_truncated_payload(tmp_path):
    path = tmp_path / "r.f32r"
    path.write_bytes(b"F32R 2 2 1\n" + b"\x00" * 15)
    with pytest.raises(sio.TruncatedError):
        sio.read_raster(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "r.f32r"
    path.write_bytes(b"R32F 2 2 1\n" + b"\x00" * 16)
    with pytest.raises(sio.BadMagicError):
        sio.read_raster(path)


@pytest.mark.parametrize("header", [
    b"F32R 2 2\n",            # missing channels
    b"F32R 2 2 1 9\n",        # extra field
    b"F32R  2 2 1\n",         # double space
    b"F32R 2 -2 1\n",         # sign
    b"F32R 0 2 1\n",          # zero dim
    b"F32R 99999999 99999999 4\n",  # overflow
])
def test_malformed_headers(tmp_path, header):
    path = tmp_path / "r.f32r"
    path.write_bytes(header + b"\x00" * 64)
    with pytest.raises(sio.DimensionError):
        sio.read_raster(path)


def test_trailing_bytes_warn_not_fail(tmp_path):
    path = tmp_path / "r.f32r"
    path.write_bytes(b"F32R 1 1 1\n" + b"\x00" * 4 + b"junk")
    with pytest.warns(UserWarning, match="trailing"):
        arr = sio.read_raster(path)
    assert arr.shape == (1, 1)


def test_trailing_bytes_warning_counts_them(tmp_path):
    path = tmp_path / "r.f32r"
    path.write_bytes(b"F32R 2 1 1\n" + struct.pack("<2f", 1.5, -2.0) + b"junk!")
    with pytest.warns(UserWarning, match=re.escape(f"{path}: 5 trailing bytes ignored")):
        arr = sio.read_raster(path)
    assert arr.tolist() == [[1.5, -2.0]]


def test_truncated_payload_message_gives_both_byte_counts(tmp_path):
    path = tmp_path / "r.f32r"
    path.write_bytes(b"F32R 2 2 3\n" + b"\x00" * 47)
    with pytest.raises(sio.TruncatedError,
                       match=re.escape(f"{path}: payload has 47 bytes, header declares 48")):
        sio.read_raster(path)


@pytest.mark.parametrize("blob", [b"", b"F32R", b"F32R 2 2 1"])
def test_a_file_without_a_newline_is_bad_magic(tmp_path, blob):
    path = tmp_path / "r.f32r"
    path.write_bytes(blob)
    with pytest.raises(sio.BadMagicError, match=re.escape(f"{path}: not an F32R file")):
        sio.read_raster(path)


def test_an_over_long_header_line_is_a_dimension_error_naming_the_file(tmp_path):
    path = tmp_path / "r.f32r"
    path.write_bytes(b"F32R 2 2 1" + b" " * 10_000 + b"\n" + b"\x00" * 16)
    with pytest.raises(sio.DimensionError, match=re.escape(f"{path}: malformed header")):
        sio.read_raster(path)


def test_an_f32r_line_with_no_newline_in_64_bytes_is_a_malformed_header(tmp_path):
    # a valid header line has at most 62 bytes, so 64 with no newline are
    # too long to be one, not the end of the file
    path = tmp_path / "r.f32r"
    path.write_bytes(b"F32R 1 1 1" + b"\x00" * 64)
    with pytest.raises(sio.DimensionError, match=re.escape(f"{path}: malformed header")):
        sio.read_raster(path)


def test_a_header_with_no_newline_is_read_in_bounded_memory(tmp_path):
    # 16 MiB of payload-like bytes and no newline: the whole file as one
    # header line peaked at 34 MB
    path = tmp_path / "r.f32r"
    path.write_bytes(b"F32R" + b"\x01" * (16 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(sio.DimensionError, match=re.escape(f"{path}: malformed header")):
            sio.RasterRows(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"


def test_a_long_header_line_is_echoed_in_a_short_message(tmp_path):
    # a header line of 2 MB of digits was echoed whole in its message
    path = tmp_path / "r.f32r"
    path.write_bytes(b"F32R " + b"7" * 2_000_000 + b" 1 1\n" + b"\x00" * 16)
    with pytest.raises(sio.DimensionError, match=re.escape(f"{path}: malformed header")) as exc:
        sio.read_raster(path)
    assert len(str(exc.value)) < 200


@pytest.mark.parametrize("shape,read_shape", [((3, 4), (3, 4)), ((3, 4, 1), (3, 4)),
                                              ((3, 4, 2), (3, 4, 2))])
def test_read_raster_returns_a_writeable_array(tmp_path, shape, read_shape):
    path = tmp_path / "r.f32r"
    arr = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
    sio.write_raster(arr, path)
    back = sio.read_raster(path)
    assert back.shape == read_shape and back.flags.writeable
    back += 1.0
    assert np.array_equal(back, (arr + 1.0).reshape(read_shape))


@pytest.mark.parametrize("shape", [(5, 4), (5, 4, 1), (5, 4, 3)])
def test_raster_rows_read_the_rows_of_the_whole_raster_bitwise(tmp_path, shape):
    path = tmp_path / "r.f32r"
    arr = np.random.default_rng(1).normal(size=shape).astype(np.float32)
    arr.flat[[0, 3, 5, 9]] = (np.nan, _nan_with_payload(), np.inf, -0.0)
    sio.write_raster(arr, path)
    rows, whole = sio.RasterRows(path), sio.read_raster(path)
    assert rows.shape == whole.shape
    for key in (slice(None), slice(0, 1), slice(1, 4), slice(3, None), slice(-2, None),
                slice(4, 99), slice(4, 2)):
        assert np.array_equal(rows[key].view(np.uint32), whole[key].view(np.uint32))
    for key in (slice(None, None, 2), 1):
        with pytest.raises(ValueError, match="rows must be a slice of step 1"):
            rows[key]


def test_mask_round_trip(tmp_path):
    path = tmp_path / "m.pgm"
    mask = np.array([[0, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=np.uint8)
    sio.write_mask(mask, path)
    assert np.array_equal(sio.read_mask(path), mask)


def test_mask_threshold_boundary(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes([127, 128]))
    mask = sio.read_mask(path)
    assert mask[0, 0] == 0 and mask[0, 1] == 1


def test_mask_all_zero(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n4 2\n255\n" + bytes(8))
    assert not sio.read_mask(path).any()


def test_mask_comments_in_header(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 2\n# and a comment\n255\n" + bytes([0, 255, 255, 0]))
    assert np.array_equal(sio.read_mask(path), [[0, 1], [1, 0]])


def test_mask_errors(tmp_path):
    # each file against the exact class it raises; every message names the file
    cases = {
        "p6": (b"P6\n1 1\n255\n\x00\x00\x00", sio.BadMagicError),
        "leading-space": (b" P5\n1 1\n255\n\x00", sio.BadMagicError),
        "badmax": (b"P5\n1 1\n254\n\x00", sio.ParseError),
        "short": (b"P5\n2 2\n255\n\x00", sio.TruncatedError),
        "comment-after-magic": (b"P5#c\n1 1\n255\n\x00", sio.DimensionError),
        "comment-after-field": (b"P5\n2#c\n 1\n255\n\x00\x00", sio.DimensionError),
        "19-digit-field": (b"P5\n" + b"1" * 19 + b" 1\n255\n\x00", sio.DimensionError),
        "header-cut-short": (b"P5\n2 2\n", sio.DimensionError),
        "no-separator": (b"P5 1 1 255\xff", sio.DimensionError),
        "zero-width": (b"P5\n0 1\n255\n", sio.DimensionError),
    }
    for name, (blob, error) in cases.items():
        path = tmp_path / f"{name}.pgm"
        path.write_bytes(blob)
        with pytest.raises(error, match=re.escape(str(path))) as info:
            sio.read_mask(path)
        assert info.type is error, name


def test_write_mask_rejects_other_values(tmp_path):
    with pytest.raises(ValueError):
        sio.write_mask(np.array([[0, 3]]), tmp_path / "m.pgm")


@pytest.mark.parametrize("shape", [(5,), (1, 2, 3, 4), (0, 3), (2, 0, 1)])
def test_write_raster_of_a_shape_it_cannot_store_names_the_callers_shape(tmp_path, shape):
    rule = "dimensions must be >= 1" if len(shape) in (2, 3) else "must be 2-D or 3-D"
    with pytest.raises(ValueError) as exc:
        sio.write_raster(np.ones(shape), tmp_path / "r.f32r")
    assert str(exc.value) == f"raster {rule}, got shape {shape}"
    assert not (tmp_path / "r.f32r").exists()


def _gray_file(path, shape, seed):
    """A P5 PGM of random gray values at `path`."""
    gray = np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8)
    path.write_bytes(f"P5\n{shape[1]} {shape[0]}\n255\n".encode("ascii") + gray.tobytes())
    return path


def _decoded(read):
    """The {0, 1} mask of a ``(shape, gray)`` read, decoded as read_mask decodes it."""
    shape, gray = read
    return (np.frombuffer(gray, np.uint8).reshape(shape) >= 128).view(np.uint8)


def test_a_reused_pgm_buffer_reads_smaller_files_after_a_larger_one(tmp_path):
    # the bytes a larger file left in the buffer past a smaller file's
    # payload are neither decoded nor counted as trailing bytes
    buf = bytearray()
    for i, shape in enumerate([(181, 183), (1, 1), (7, 1)]):
        path = _gray_file(tmp_path / f"{i}.pgm", shape, i)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _decoded(sio._read_pgm(path, buf))
        assert np.array_equal(got, sio.read_mask(path)) and got.shape == shape
    assert len(buf) >= 181 * 183


def test_a_mask_served_through_a_fifo_is_read_past_its_stat_size(tmp_path):
    # a FIFO stats as 0 bytes, so the whole file comes from the read past that size
    blob = _gray_file(tmp_path / "m.pgm", (9, 13), 3).read_bytes()
    want = sio.read_mask(tmp_path / "m.pgm")
    stale = bytearray(b"\xff" * 4096)
    for i, read in enumerate((sio.read_mask, lambda path: _decoded(sio._read_pgm(path, stale)))):
        fifo = tmp_path / f"m{i}.fifo"
        os.mkfifo(fifo)
        # a daemon writer: if the read fails before it opens the FIFO, the
        # blocked writer does not hold up the exit
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,), daemon=True)
        writer.start()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(read(fifo), want)
        writer.join(timeout=10)


def test_one_buffer_reading_a_fifo_again_and_again_stays_at_the_file_size(tmp_path):
    # the bytes read past a FIFO's stat size of 0 go over the buffer's stale
    # ones: inserted in front of them, they grew it by the file on every read
    path = _gray_file(tmp_path / "m.pgm", (100, 100), 5)
    blob, want = path.read_bytes(), sio.read_mask(path)
    fifo = tmp_path / "m.fifo"
    os.mkfifo(fifo)
    buf = bytearray()
    for _ in range(5):
        # a daemon writer, as above
        writer = threading.Thread(target=fifo.write_bytes, args=(blob,), daemon=True)
        writer.start()
        got = _decoded(sio._read_pgm(fifo, buf))
        writer.join(timeout=10)
        assert len(buf) == len(blob) == 10_015
        assert np.array_equal(got, want)


_OK = np.zeros((4, 4), np.uint8)
_DEPTH = np.full((4, 4), 2.0)
_NORMALS = np.broadcast_to([0.0, 0.0, -1.0], (4, 4, 3))
_INTR = CameraIntrinsics(100, 100, 1.5, 1.5)
_PLANES = pixel_areas(_DEPTH, _NORMALS, _INTR)

# consumer -> (the argument it names, a call that passes the mask there)
MASK_CONSUMERS = {
    "connected_components": ("mask", connected_components),
    "region_stats": ("mask", lambda m: region_stats(m, [_PLANES])),
    "top_k_candidates": ("mask", lambda m: top_k_candidates(m, [_PLANES], 3)),
    "dilate_unsafe": ("mask", lambda m: dilate_unsafe(m, 1)),
    "confusion-pred": ("pred", lambda m: confusion(m, _OK)),
    "confusion-gt": ("gt", lambda m: confusion(_OK, m)),
    "slz_loss": ("labels", lambda m: slz_loss([np.zeros((4, 4, 2))], m)),
    "write_mask": ("mask", lambda m: sio.write_mask(m, os.devnull)),
}
_NOT_BINARY = np.zeros((4, 4), np.uint8)
_NOT_BINARY[1, 2] = 2
BAD_MASKS = {
    "3-D": (np.zeros((4, 4, 1), np.uint8), ShapeMismatchError, "{} must be 2-D, got shape (4, 4, 1)"),
    "holds 2": (_NOT_BINARY, ValueError, "{} values must be 0 (safe) or 1 (unsafe)"),
}


@pytest.mark.parametrize("bad", BAD_MASKS)
@pytest.mark.parametrize("consumer", MASK_CONSUMERS)
def test_every_mask_consumer_rejects_a_bad_mask_naming_its_argument(consumer, bad):
    name, call = MASK_CONSUMERS[consumer]
    mask, error, message = BAD_MASKS[bad]
    with pytest.raises(ValueError) as exc:
        call(mask)
    assert type(exc.value) is error
    assert str(exc.value) == message.format(name)


SECTION_CASTS = {"scene": {"w": int}, "box": {"u": int, "h": float}}


def test_read_sections_keeps_order_and_repeats(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text("# spec\n[Scene]\nw = 4\n\n[box]\nu=1\nh=2.5 # top\n[box]\nu=3\n")
    assert sio.read_sections(path, SECTION_CASTS) == [
        ("scene", {"w": 4}), ("box", {"u": 1, "h": 2.5}), ("box", {"u": 3})]


@pytest.mark.parametrize("text,message", [
    ("w=4\n[scene]\n", "1: expected a [section] before 'w'"),
    ("[scene]\nw=4\n[slope]\n", "3: unknown section [slope]"),
    ("[scene]\nw=4\n[box]\nw=4\n", "4: unknown key 'w'"),
    ("[scene]\n\nw=4.5\n", "3: bad value for w:"),
    ("[scene]\nw\n", "2: expected key=value, got 'w'"),
])
def test_read_sections_errors_name_the_line(tmp_path, text, message):
    path = tmp_path / "spec.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{message}")):
        sio.read_sections(path, SECTION_CASTS)



def test_key_values_round_trip_floats_exactly(tmp_path):
    path = tmp_path / "kv.txt"
    values = {"a": 0.1, "b": np.float64(1 / 3), "c": np.float32(0.1), "n": np.int64(7), "t": 4}
    sio.write_key_values(path, values)
    assert path.read_text() == ("a=0.1\nb=0.3333333333333333\nc=0.10000000149011612\n"
                                "n=7\nt=4\n")
    back = sio.read_key_values(path, {"a": float, "b": float, "c": float, "n": int, "t": int})
    assert back == {key: type(back[key])(val) for key, val in values.items()}

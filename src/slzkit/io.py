"""Portable raster and mask file formats.

F32R raster format::

    F32R <width> <height> <channels>\\n
    <width*height*channels little-endian float32, row-major, channel-interleaved>

The header is a single ASCII line with single spaces. Round trips are
bitwise, including NaN payloads and infinities.

Masks travel as binary PGM (P5, maxval 255): pixel < 128 decodes to
class 0 (safe), >= 128 to class 1 (unsafe); encoding writes 0/255.
"""

from __future__ import annotations

import os
import re
import warnings

import numpy as np

# W*H*C*4 above this is rejected as a corrupt header rather than attempted.
_MAX_PAYLOAD_BYTES = 1 << 33

_HEADER_RE = re.compile(rb"^F32R ([0-9]+) ([0-9]+) ([0-9]+)$")
_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


class ParseError(ValueError):
    """Malformed raster/mask file."""


class BadMagicError(ParseError):
    """File does not start with the expected magic."""


class TruncatedError(ParseError):
    """Payload shorter than the header declares."""


class DimensionError(ParseError):
    """Header dimensions are zero, malformed, or implausibly large."""


class MissingEntryError(ParseError):
    """A weight bundle lacks a required named raster."""


def read_raster(path):
    """Read an F32R file into a float32 array, shape (H, W) or (H, W, C)."""
    with open(path, "rb") as fh:
        data = fh.read()
    nl = data.find(b"\n")
    if nl < 0 or not data.startswith(b"F32R"):
        raise BadMagicError(f"{path}: not an F32R file")
    m = _HEADER_RE.match(data[:nl])
    if m is None:
        raise DimensionError(f"{path}: malformed header {data[:nl]!r}")
    width, height, channels = (int(g) for g in m.groups())
    if width < 1 or height < 1 or channels < 1:
        raise DimensionError(f"{path}: dimensions must be >= 1, got {width}x{height}x{channels}")
    nbytes = width * height * channels * 4
    if nbytes > _MAX_PAYLOAD_BYTES:
        raise DimensionError(f"{path}: payload of {nbytes} bytes exceeds sanity limit")
    payload = data[nl + 1:]
    if len(payload) < nbytes:
        raise TruncatedError(f"{path}: payload has {len(payload)} bytes, header declares {nbytes}")
    if len(payload) > nbytes:
        warnings.warn(f"{path}: {len(payload) - nbytes} trailing bytes ignored", stacklevel=2)
    arr = np.frombuffer(payload[:nbytes], dtype="<f4").reshape(height, width, channels).copy()
    if channels == 1:
        return arr[..., 0]
    return arr


def write_raster(raster, path):
    """Write a 2-D or 3-D array as F32R (values are stored as float32)."""
    arr = np.asarray(raster)
    if arr.ndim == 2:
        arr = arr[..., None]
    if arr.ndim != 3:
        raise ValueError(f"raster must be 2-D or 3-D, got shape {arr.shape}")
    height, width, channels = arr.shape
    if height < 1 or width < 1 or channels < 1:
        raise ValueError(f"raster dimensions must be >= 1, got shape {arr.shape}")
    header = f"F32R {width} {height} {channels}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _pgm_token(data, pos, path):
    while pos < len(data):
        c = data[pos]
        if c in b" \t\r\n":
            pos += 1
        elif c == ord("#"):
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise TruncatedError(f"{path}: unterminated comment in header")
            pos = nl + 1
        else:
            break
    start = pos
    while pos < len(data) and data[pos] not in b" \t\r\n":
        pos += 1
    if start == pos:
        raise TruncatedError(f"{path}: unexpected end of header")
    return data[start:pos], pos


def read_mask(path):
    """Read a P5 PGM into a {0, 1} uint8 mask (threshold at 128)."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _pgm_token(data, 0, path)
    if magic != b"P5":
        raise BadMagicError(f"{path}: expected P5 magic, got {magic!r}")
    fields = []
    for _ in range(3):
        tok, pos = _pgm_token(data, pos, path)
        if not tok.isdigit():
            raise ParseError(f"{path}: non-numeric header field {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval != 255:
        raise ParseError(f"{path}: maxval must be 255, got {maxval}")
    if width < 1 or height < 1:
        raise DimensionError(f"{path}: dimensions must be >= 1, got {width}x{height}")
    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or data[pos] not in b" \t\r\n":
        raise ParseError(f"{path}: missing separator after maxval")
    payload = data[pos + 1:]
    if len(payload) < width * height:
        raise TruncatedError(f"{path}: payload has {len(payload)} bytes, expected {width * height}")
    if len(payload) > width * height:
        warnings.warn(f"{path}: {len(payload) - width * height} trailing bytes ignored", stacklevel=2)
    gray = np.frombuffer(payload[:width * height], dtype=np.uint8).reshape(height, width)
    return (gray >= 128).astype(np.uint8)


def write_mask(mask, path):
    """Write a {0, 1} mask as P5 PGM (0 -> 0, 1 -> 255)."""
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {arr.shape}")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("mask values must be 0 (safe) or 1 (unsafe)")
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write((arr.astype(np.uint8) * 255).tobytes())


def write_raster_dir(dirpath, entries):
    """Write a name -> array mapping as a directory of F32R files."""
    os.makedirs(dirpath, exist_ok=True)
    for name, arr in entries.items():
        if not _NAME_RE.match(name):
            raise ValueError(f"bad bundle entry name {name!r}")
        write_raster(arr, os.path.join(dirpath, name + ".f32r"))


def read_raster_dir(dirpath, required=()):
    """Read every F32R file in a directory into a name -> array dict."""
    if not os.path.isdir(dirpath):
        raise ParseError(f"{dirpath}: not a directory")
    entries = {}
    for fn in sorted(os.listdir(dirpath)):
        if fn.endswith(".f32r"):
            entries[fn[:-len(".f32r")]] = read_raster(os.path.join(dirpath, fn))
    missing = [name for name in required if name not in entries]
    if missing:
        raise MissingEntryError(f"{dirpath}: missing entries: {', '.join(missing)}")
    return entries


def read_key_values(path, casts):
    """Parse a text file of ``key=value`` lines into ``{key: casts[key](value)}``.

    ``#`` starts a comment. A line without ``=``, a key not in ``casts`` or
    a value its cast rejects raises ``ValueError`` naming the file and line.
    """
    out = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = (part.strip() for part in line.partition("="))
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            if key not in casts:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = casts[key](val)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return out


def read_weight_bundle(path):
    """Load a refinement weight bundle directory (see slzkit.refinement)."""
    from . import refinement

    return refinement.load_weights(path)


def write_weight_bundle(weights, path):
    """Serialize refinement weights as a bundle directory."""
    from . import refinement

    refinement.save_weights(weights, path)

"""Portable raster and mask file formats.

F32R raster format::

    F32R <width> <height> <channels>\\n
    <width*height*channels little-endian float32, row-major, channel-interleaved>

The header is a single ASCII line with single spaces, at most 62 bytes
long; :class:`RasterRows` reads at most 64 bytes of it. Round trips are
bitwise, including NaN payloads and infinities. The payload is raw rows,
so :class:`RasterRows` reads any band of rows by one seek past the header;
:func:`read_raster` is its whole-range read, and the banded kernels of
geometry, losses and slz take a reader where they take an array.

Masks travel as binary PGM (P5, maxval 255): pixel < 128 decodes to
class 0 (safe), >= 128 to class 1 (unsafe); encoding writes 0/255. The
file starts with ``P5``; width, height and maxval follow, each after
whitespace and ``#`` comments (which run to the end of their line and
start only where whitespace could), and one whitespace byte ends the
header. The PGM reader reads into the caller's bytearray, grown to the
file's stat size when shorter, so one buffer serves file after file;
bytes read past it, as from a pipe, go over its stale ones.

numpy is imported by the functions that make or take arrays, so the PGM
decode of ``_read_pgm`` and the ``key=value`` readers run without it.
"""

from __future__ import annotations

import os
import re
import warnings

from .errors import ShapeMismatchError

# W*H*C*4 above this is rejected as a corrupt header rather than attempted.
_MAX_PAYLOAD_BYTES = 1 << 33

# at most 18 digits per dimension: int() of a much longer field is slow or fails
_HEADER_RE = re.compile(rb"^F32R ([0-9]{1,18}) ([0-9]{1,18}) ([0-9]{1,18})$")
# Netpbm P5: width, height and maxval, each after whitespace or "#...\n"
# comments that start where a field could, then one whitespace byte
_PGM_RE = re.compile(rb"P5" + rb"(?=[ \t\r\n])(?:[ \t\r\n]|#[^\n]*\n)+([0-9]{1,18})" * 3
                     + rb"[ \t\r\n]")


class ParseError(ValueError):
    """Malformed raster/mask file."""


class BadMagicError(ParseError):
    """File does not start with the expected magic."""


class TruncatedError(ParseError):
    """Payload shorter than the header declares."""


class DimensionError(ParseError):
    """Header dimensions are zero, malformed, or implausibly large."""


class MissingEntryError(ParseError):
    """A saved weight or state directory lacks a required file."""


def _check_payload(path, size, nbytes):
    """Raise TruncatedError if a payload of ``size`` bytes is shorter than
    the ``nbytes`` its header declares; warn if it is longer."""
    if size < nbytes:
        raise TruncatedError(f"{path}: payload has {size} bytes, header declares {nbytes}")
    if size > nbytes:
        warnings.warn(f"{path}: {size - nbytes} trailing bytes ignored", stacklevel=3)


class RasterRows:
    """An F32R file opened for reading by rows.

    Opening reads the header and makes every check of :func:`read_raster`:
    the magic, the dimensions, a payload shorter than the header declares
    (an error) or longer (one warning). ``shape`` is that of the array
    :func:`read_raster` returns, and ``r[a:b]``, a slice of step 1, reads
    those rows from the file into a new float32 array; ``r[:]`` is the
    whole raster. Each read opens the file again, so a reader holds no open
    file; a file cut short since it was opened raises TruncatedError.
    """

    def __init__(self, path):
        with open(path, "rb") as fh:
            # a valid header line has at most 62 bytes; 64 with no newline
            # are a malformed header, of which 63 are echoed
            line = fh.readline(64)
            if not line.startswith(b"F32R") or not (line.endswith(b"\n") or len(line) == 64):
                raise BadMagicError(f"{path}: not an F32R file")
            m = _HEADER_RE.match(line[:-1])
            if m is None:
                raise DimensionError(f"{path}: malformed header {line[:-1]!r}")
            width, height, channels = (int(g) for g in m.groups())
            if width < 1 or height < 1 or channels < 1:
                raise DimensionError(
                    f"{path}: dimensions must be >= 1, got {width}x{height}x{channels}")
            nbytes = width * height * channels * 4
            if nbytes > _MAX_PAYLOAD_BYTES:
                raise DimensionError(f"{path}: payload of {nbytes} bytes exceeds sanity limit")
            _check_payload(path, os.fstat(fh.fileno()).st_size - len(line), nbytes)
        self.path, self._start, self._row = path, len(line), (width, channels)
        self.shape = (height, width) if channels == 1 else (height, width, channels)

    def __getitem__(self, rows):
        import numpy as np

        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise ValueError(f"{self.path}: rows must be a slice of step 1, got {rows!r}")
        start, stop, _ = rows.indices(self.shape[0])
        width, channels = self._row
        # the payload goes straight into the array: no copy of the file is held
        out = np.empty((max(stop - start, 0), width, channels), dtype="<f4")
        skip = start * width * channels * 4
        with open(self.path, "rb") as fh:
            fh.seek(self._start + skip)
            got = fh.readinto(out)
        if got < out.nbytes:
            raise TruncatedError(f"{self.path}: payload has {skip + got} bytes, "
                                 f"header declares {self.shape[0] * width * channels * 4}")
        return out[..., 0] if channels == 1 else out


def read_raster(path):
    """Read an F32R file into a float32 array, shape (H, W) or (H, W, C):
    the whole-range read of a :class:`RasterRows`."""
    return RasterRows(path)[:]


def _row_source(x):
    """``x`` itself if it is a :class:`RasterRows`, else ``np.asarray(x)``:
    what a banded kernel reads its (H, W[, C]) inputs through, asking
    only for ``.shape`` and row slices."""
    import numpy as np

    return x if isinstance(x, RasterRows) else np.asarray(x)


def write_raster(raster, path):
    """Write a 2-D or 3-D array as F32R (values are stored as float32)."""
    import numpy as np

    arr = np.asarray(raster)
    if arr.ndim not in (2, 3):
        raise ValueError(f"raster must be 2-D or 3-D, got shape {arr.shape}")
    if not all(arr.shape):
        raise ValueError(f"raster dimensions must be >= 1, got shape {arr.shape}")
    height, width, channels = arr.shape if arr.ndim == 3 else (*arr.shape, 1)
    try:  # a finite value past the float32 range would be stored as inf
        with np.errstate(over="raise"):
            payload = np.ascontiguousarray(arr, dtype="<f4")
    except FloatingPointError:
        raise ValueError(f"{path}: a value exceeds the float32 range") from None
    with open(path, "wb") as fh:
        fh.write(f"F32R {width} {height} {channels}\n".encode("ascii"))
        fh.write(payload)


def _read_pgm(path, buf):
    """Read a P5 PGM into ``((height, width), gray)``, ``gray`` the row-major
    payload bytes: a memoryview of the file's bytes as read into ``buf``, a
    bytearray grown to the file's stat size when it is shorter, so a caller
    that passes one buffer for file after file faults its pages in once.
    Bytes past the first read (a pipe stats as 0 bytes) are written over
    the stale ones after it. The buffer can grow only while no view of
    it is alive: such a caller drops each ``gray`` before its next read."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if len(buf) < size:
            buf += bytes(size - len(buf))
        n = fh.readinto(buf)
        rest = fh.read()  # past the buffer or a short read: a pipe, or a file grown since
    buf[n:n + len(rest)] = rest
    data = memoryview(buf)[:n + len(rest)]
    if data[:2] != b"P5":
        raise BadMagicError(f"{path}: not a P5 PGM file")
    m = _PGM_RE.match(data)
    if m is None:
        raise DimensionError(f"{path}: malformed header {bytes(data[:32])!r}")
    width, height, maxval = (int(g) for g in m.groups())
    if maxval != 255:
        raise ParseError(f"{path}: maxval must be 255, got {maxval}")
    if width < 1 or height < 1:
        raise DimensionError(f"{path}: dimensions must be >= 1, got {width}x{height}")
    _check_payload(path, len(data) - m.end(), width * height)
    return (height, width), data[m.end():m.end() + width * height]


def read_mask(path):
    """Read a P5 PGM into a {0, 1} uint8 mask (threshold at 128)."""
    import numpy as np

    shape, gray = _read_pgm(path, bytearray())
    return (np.frombuffer(gray, np.uint8).reshape(shape) >= 128).view(np.uint8)


def _check_mask(mask, name="mask"):
    """The mask as an array, checked to be a 2-D grid of 0 (safe) and 1
    (unsafe) values; ``name`` is the argument the errors name."""
    import numpy as np

    m = np.asarray(mask)
    if m.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got shape {m.shape}")
    # much cheaper than np.isin
    if not ((m == 0) | (m == 1)).all():
        raise ValueError(f"{name} values must be 0 (safe) or 1 (unsafe)")
    return m


def write_mask(mask, path):
    """Write a {0, 1} mask as P5 PGM (0 -> 0, 1 -> 255)."""
    import numpy as np

    arr = _check_mask(mask)
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write((arr.astype(np.uint8) * 255).tobytes())


def read_sections(path, casts, required=None):
    """Parse ``[name]`` blocks of ``key=value`` lines into ``[(name, {key: value}), ...]``.

    ``casts`` maps each known section name to ``{key: cast}``; the name ``""``
    holds the keys allowed before the first ``[name]`` line, and its block
    comes first in the result when present. Section names are
    case-insensitive and ``#`` starts a comment. A line that is neither, an
    unknown section or key, a key given twice in one block, or a value its
    cast rejects raises ``ValueError`` naming the file and line.
    ``required`` maps a section name to the keys each of its blocks must
    give; a block that lacks any raises one ParseError naming them all.
    """
    sections = [("", {})]
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not ASCII text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if not name or name not in casts:
                raise ValueError(f"{path}:{lineno}: unknown section [{name}]")
            sections.append((name, {}))
            continue
        key, sep, val = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        name, values = sections[-1]
        if name not in casts:
            raise ValueError(f"{path}:{lineno}: expected a [section] before {key!r}")
        if key not in casts[name]:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            value = casts[name][key](val)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    for name, values in sections:
        missing = [key for key in (required or {}).get(name, ()) if key not in values]
        if missing:
            block = f" in [{name}]" if name else ""
            raise ParseError(f"{path}: missing required keys{block}: {', '.join(missing)}")
    return sections if "" in casts else sections[1:]


def read_key_values(path, casts, required=()):
    """Parse a text file of ``key=value`` lines into ``{key: casts[key](value)}``.

    Errors are those of :func:`read_sections`; a ``[name]`` line is one, and
    so is a missing key of ``required``.
    """
    return read_sections(path, {"": casts}, {"": required})[0][1]


def write_key_values(path, mapping):
    """Write ``mapping`` as ``key=value`` lines that :func:`read_key_values` reads back.

    Floating values (numpy scalars too) are written as ``repr(float(v))``,
    which round trips exactly; other values with ``str``.
    """
    import numpy as np

    with open(path, "w", encoding="ascii") as fh:
        for key, val in mapping.items():
            fh.write(f"{key}={float(val)!r}\n" if isinstance(val, (float, np.floating))
                     else f"{key}={val}\n")

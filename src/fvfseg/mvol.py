"""Reader/writer for the .mvol exchange format.

An .mvol file is a short ASCII header followed by a raw little-endian
payload:

    MVOL1
    dims nx ny nz
    spacing sx sy sz
    dtype scalar32|mask8
    encoding raw-le
    <blank line>
    <payload bytes>

``scalar32`` stores one IEEE-754 32-bit float per voxel, ``mask8`` one byte
per voxel holding 0 or 1.  Payload voxels are laid out x-fastest (x, then y,
then z).

There is one reader and one writer.  ``read_volume`` and ``decode`` (for
bytes in memory) both read the header line by line up to its blank line,
whatever its length, check the payload's size against the stream's before
they allocate anything, and read the payload straight into the volume's
Fortran-ordered array, so a read holds one payload-sized buffer.  The
payload is then checked: finite floats, or mask bytes of 0 and 1, which
the mask views as bool.  ``write_volume`` and ``encode`` (to bytes) both
take the header and the payload as one flat x-fastest array, a view of
the volume's data when it is already float32 (or a mask) in Fortran
order, else its one converted copy.

Writes are atomic against a crashing process: the file appears under its
final name, with the mode ``open`` would give it, only after the full
payload has been written to a temp file beside it.  They are not fsynced,
so a power loss is not covered.
"""

from __future__ import annotations

import io
import math
import os
import re

import numpy as np

from .errors import MvolFormatError
from .volume import BinaryMask, ScalarVolume

_MAGIC = "MVOL1"
# Planes of x per slab when a C-ordered volume is cast to the x-fastest
# payload: at 128^3 a float64 slab and its float32 copy take 1.5 MB.
_CAST_SLAB = 8
# the numpy type of each payload dtype: little-endian either way
_PAYLOAD_TYPES = {"scalar32": "<f4", "mask8": np.uint8}
# The number syntax of header values.  Python's int() and float() also take
# digit-group underscores ("1_0" is 10), and float() takes "inf" and "nan";
# the format does not.  Exponents stay legal: spacings are written ".17g".
_PLAIN_NUMBER = {
    int: re.compile(r"[+-]?[0-9]+"),
    float: re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"),
}


def _atomic_write(path, pieces) -> None:
    """Write the byte buffers ``pieces`` in turn to ``path`` via a
    same-directory temp file + rename.

    The temp file is created with mode 0o666 less the umask, as
    ``open(path, "wb")`` would create ``path``, and the rename keeps it.
    Nothing is fsynced: a crashing process never leaves a partial file
    under ``path``, but a power loss may.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(6).hex()}.part")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    _atomic_write(path, (text.encode("utf-8"),))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _x_fastest_f4(data) -> np.ndarray:
    """``data`` as an x-fastest little-endian float32 array.  An x-fastest
    (Fortran-ordered) source is one astype, a view when it is float32
    already.  A C-ordered source is cast _CAST_SLAB planes of x at a time,
    so each slab's transpose stays in cache; values are cast alike
    either way."""
    if data.flags.f_contiguous or not data.flags.c_contiguous:
        return data.astype("<f4", order="F", copy=False)
    out = np.empty(data.shape, dtype="<f4", order="F")
    for x in range(0, data.shape[0], _CAST_SLAB):
        out[x : x + _CAST_SLAB] = data[x : x + _CAST_SLAB]
    return out


def _serialize(vol) -> tuple[bytes, np.ndarray]:
    """The header bytes of ``vol`` and its payload as one flat x-fastest
    array: a view of the data when its layout and type already match, else
    its one converted copy (_x_fastest_f4).  Checked before anything is
    written."""
    if isinstance(vol, BinaryMask):
        dtype = "mask8"
        payload = vol.data.view(np.uint8)
    elif isinstance(vol, ScalarVolume):
        dtype = "scalar32"
        with np.errstate(over="ignore"):
            payload = _x_fastest_f4(vol.data)
        # min and max are infinite if any cast value overflowed, with no
        # grid-sized temporary
        if not (math.isfinite(payload.min()) and math.isfinite(payload.max())):
            raise ValueError("volume has values not representable as finite float32")
    else:
        raise TypeError(f"cannot encode {type(vol).__name__}")
    nx, ny, nz = vol.dims
    sx, sy, sz = vol.spacing
    header = (
        f"{_MAGIC}\n"
        f"dims {nx} {ny} {nz}\n"
        f"spacing {_fmt(sx)} {_fmt(sy)} {_fmt(sz)}\n"
        f"dtype {dtype}\n"
        f"encoding raw-le\n"
        f"\n"
    )
    return header.encode("ascii"), payload.ravel(order="F")


def encode(vol) -> bytes:
    """Serialize a ScalarVolume or BinaryMask to .mvol bytes."""
    return b"".join(_serialize(vol))


def _header_field(line: str, key: str, n_values: int, kind=str) -> list:
    """The values of header line ``key``, each converted by ``kind``."""
    parts = line.split()
    if len(parts) != n_values + 1 or parts[0] != key:
        raise MvolFormatError(f"bad header line {line!r}, expected '{key}' with {n_values} values")
    syntax = _PLAIN_NUMBER.get(kind)
    if syntax is not None and not all(syntax.fullmatch(v) for v in parts[1:]):
        raise MvolFormatError(
            f"bad header line {line!r}, '{key}' values must be plain decimal {kind.__name__}s"
        )
    return [kind(v) for v in parts[1:]]


def _parse_header(head: bytes):
    """(dims, spacing, dtype, payload offset) of the .mvol bytes ``head``,
    which must hold the header's closing blank line."""
    end = head.find(b"\n\n")
    if end < 0:
        raise MvolFormatError("missing blank line after header")
    try:
        lines = head[:end].decode("ascii").split("\n")
    except UnicodeDecodeError as exc:
        raise MvolFormatError("header is not ASCII") from exc
    if len(lines) != 5:
        raise MvolFormatError(f"expected 5 header lines, got {len(lines)}")
    if lines[0] != _MAGIC:
        raise MvolFormatError(f"bad magic {lines[0]!r}")
    dims = tuple(_header_field(lines[1], "dims", 3, int))
    if any(n < 1 for n in dims):
        raise MvolFormatError(f"dims must be positive, got {dims}")
    spacing = tuple(_header_field(lines[2], "spacing", 3, float))
    if any(not math.isfinite(s) or s <= 0 for s in spacing):
        raise MvolFormatError(f"spacing must be positive and finite, got {spacing}")
    (dtype,) = _header_field(lines[3], "dtype", 1)
    (encoding,) = _header_field(lines[4], "encoding", 1)
    if encoding != "raw-le":
        raise MvolFormatError(f"unsupported encoding {encoding!r}")
    if dtype not in _PAYLOAD_TYPES:
        raise MvolFormatError(f"unsupported dtype {dtype!r}")
    return dims, spacing, dtype, end + 2


def _payload_array(dims, dtype: str, size: int) -> np.ndarray:
    """An empty flat array for the payload of a ``dtype`` volume of
    ``dims``, once the payload's ``size`` in bytes is checked against it."""
    n_vox = dims[0] * dims[1] * dims[2]
    item = np.dtype(_PAYLOAD_TYPES[dtype])
    if size != n_vox * item.itemsize:
        raise MvolFormatError(
            f"payload holds {size} bytes, {dtype} volume of dims {dims} needs {n_vox * item.itemsize}"
        )
    return np.empty(n_vox, dtype=item)


def _volume(flat: np.ndarray, dims, spacing, dtype: str):
    """The volume of the checked payload ``flat``, which it takes over:
    a float32 ScalarVolume, or a BinaryMask viewing the 0/1 bytes as bool."""
    data = flat.reshape(dims, order="F")
    if dtype == "scalar32":
        try:
            return ScalarVolume(data, spacing)
        except ValueError as exc:  # dims and spacing hold, so only its finiteness check
            raise MvolFormatError("scalar payload contains non-finite values") from exc
    if flat.max() > 1:
        raise MvolFormatError("mask payload contains bytes other than 0/1")
    return BinaryMask(data.view(np.bool_), spacing)


def _read(fh, size: int):
    """The volume in the binary stream ``fh`` of ``size`` bytes.

    The header is read line by line up to its closing blank line, or to
    the end of the stream when it has none, and parsed; the payload's size
    is checked against ``size`` before the payload is read straight into
    the volume's array: one payload-sized buffer."""
    lines = []
    for line in iter(fh.readline, b""):
        lines.append(line)
        if line == b"\n" and len(lines) > 1:
            break
    dims, spacing, dtype, start = _parse_header(b"".join(lines))
    flat = _payload_array(dims, dtype, size - start)
    if fh.readinto(flat) != flat.nbytes or fh.read(1):
        raise MvolFormatError(f"{fh.name} changed size while it was read")
    return _volume(flat, dims, spacing, dtype)


def decode(blob: bytes):
    """Parse .mvol bytes into a ScalarVolume or BinaryMask."""
    return _read(io.BytesIO(blob), len(blob))


def write_volume(vol, path) -> None:
    """Write a ScalarVolume or BinaryMask to ``path`` atomically."""
    _atomic_write(path, _serialize(vol))


def read_volume(path):
    """Read an .mvol file into a ScalarVolume or BinaryMask."""
    with open(path, "rb") as fh:
        return _read(fh, os.fstat(fh.fileno()).st_size)

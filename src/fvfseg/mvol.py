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
then z).  Writes are atomic: the file appears under its final name only
after the full payload has been written.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .errors import MvolFormatError
from .volume import BinaryMask, ScalarVolume

_MAGIC = "MVOL1"


def atomic_write_bytes(path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` via a same-directory temp file + rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def encode(vol) -> bytes:
    """Serialize a ScalarVolume or BinaryMask to .mvol bytes."""
    if isinstance(vol, BinaryMask):
        dtype = "mask8"
        payload = vol.data.astype(np.uint8).ravel(order="F").tobytes()
    elif isinstance(vol, ScalarVolume):
        dtype = "scalar32"
        with np.errstate(over="ignore"):
            cast = vol.data.astype("<f4")
        if not np.isfinite(cast).all():
            raise ValueError("volume has values not representable as finite float32")
        payload = cast.ravel(order="F").tobytes()
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
    return header.encode("ascii") + payload


def _header_field(line: str, key: str, n_values: int, kind=str) -> list:
    """The values of header line ``key``, each converted by ``kind``."""
    parts = line.split()
    if len(parts) != n_values + 1 or parts[0] != key:
        raise MvolFormatError(f"bad header line {line!r}, expected '{key}' with {n_values} values")
    try:
        return [kind(v) for v in parts[1:]]
    except ValueError:
        raise MvolFormatError(
            f"bad header line {line!r}, '{key}' values must be of type {kind.__name__}"
        ) from None


def decode(blob: bytes):
    """Parse .mvol bytes into a ScalarVolume or BinaryMask."""
    end = blob.find(b"\n\n")
    if end < 0:
        raise MvolFormatError("missing blank line after header")
    try:
        lines = blob[:end].decode("ascii").split("\n")
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
    payload = blob[end + 2 :]
    n_vox = dims[0] * dims[1] * dims[2]
    if dtype == "scalar32":
        expected = 4 * n_vox
        if len(payload) != expected:
            raise MvolFormatError(
                f"payload holds {len(payload)} bytes, scalar32 volume of dims {dims} needs {expected}"
            )
        flat = np.frombuffer(payload, dtype="<f4").copy()
        data = flat.reshape(dims, order="F")
        if not np.isfinite(data).all():
            raise MvolFormatError("scalar payload contains non-finite values")
        return ScalarVolume(data, spacing)
    if dtype == "mask8":
        if len(payload) != n_vox:
            raise MvolFormatError(
                f"payload holds {len(payload)} bytes, mask8 volume of dims {dims} needs {n_vox}"
            )
        flat = np.frombuffer(payload, dtype=np.uint8)
        if flat.max() > 1:
            raise MvolFormatError("mask payload contains bytes other than 0/1")
        return BinaryMask(flat.copy().reshape(dims, order="F"), spacing)
    raise MvolFormatError(f"unsupported dtype {dtype!r}")


def write_volume(vol, path) -> None:
    atomic_write_bytes(path, encode(vol))


def read_volume(path):
    with open(path, "rb") as fh:
        return decode(fh.read())

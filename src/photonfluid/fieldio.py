"""PFLD field binary format: lossless storage of complex 2D fields.

Layout (little-endian throughout):

    offset  size  content
    0       4     magic "PFLD"
    4       4     format version (u32, currently 1)
    8       4     endianness sentinel (u32, 0x01020304)
    12      4     reserved (zero)
    16      8     nx (u64)
    24      8     ny (u64)
    32      8     dx (f64)
    40      8     dy (f64)
    48      8     unit tag, NUL-padded ASCII (e.g. "natural", "SI")
    56      4     CRC32 of the data block (u32)
    60      4     reserved (zero)
    64      ...   nx·ny complex128 values, C order (y fastest)

File size is exactly 64 + 16·nx·ny bytes.  An optional JSON sidecar
(`<path>.json`) carries run parameters; writing is atomic (temp file +
rename) so readers never observe a torn file.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

from .errors import FieldFormatError
from .fluid import ComplexField2D, Grid

__all__ = ["write_field", "read_field", "HEADER_SIZE", "MAGIC"]

MAGIC = b"PFLD"
VERSION = 1
ENDIAN_SENTINEL = 0x01020304
HEADER_SIZE = 64
_HEADER_FMT = "<4sII4xQQdd8sI4x"
assert struct.calcsize(_HEADER_FMT) == HEADER_SIZE


def write_field(path, field: ComplexField2D, sidecar: dict | None = None) -> None:
    """Write a field (and optional JSON sidecar) atomically.

    No copy of the data is made: the CRC and the write both read a byte
    view of the contiguous little-endian complex128 array (a field of
    another layout or dtype is converted once).
    """
    data = memoryview(np.ascontiguousarray(field.data, dtype="<c16")).cast("B")
    units = str(field.meta.get("units", "natural")).encode()[:8]
    g = field.grid
    header = struct.pack(
        _HEADER_FMT, MAGIC, VERSION, ENDIAN_SENTINEL, g.nx, g.ny, g.dx, g.dy,
        units.ljust(8, b"\x00"), zlib.crc32(data),
    )
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(data)
    os.replace(tmp, path)
    if sidecar is not None:
        stmp = f"{path}.json.tmp"
        with open(stmp, "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
        os.replace(stmp, f"{path}.json")


def read_field(path) -> ComplexField2D:
    """Read a PFLD file, validating magic, version, endianness, length and
    checksum; raises FieldFormatError on any mismatch."""
    with open(path, "rb") as fh:
        header = fh.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE:
            raise FieldFormatError("truncated file: header incomplete")
        magic, version, endian, nx, ny, dx, dy, units, crc = struct.unpack(
            _HEADER_FMT, header
        )
        if magic != MAGIC:
            raise FieldFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise FieldFormatError(f"unsupported version {version}")
        if endian != ENDIAN_SENTINEL:
            raise FieldFormatError(
                f"endianness marker wrong (0x{endian:08x}); file written on an "
                "incompatible producer"
            )
        # an empty side makes nx·ny·16 = 0 whatever the other side forges
        if nx == 0 or ny == 0:
            raise FieldFormatError(f"empty grid {nx} x {ny}")
        # size the data block from the file, never from the header alone:
        # a forged nx·ny must not drive the read
        expect = nx * ny * 16
        have = os.fstat(fh.fileno()).st_size - HEADER_SIZE
        if have < expect:
            raise FieldFormatError(
                f"truncated file: expected {expect} data bytes, got {have}"
            )
        if have > expect:
            raise FieldFormatError("trailing bytes after data block")
        data = fh.read(expect)
        if zlib.crc32(data) != crc:
            raise FieldFormatError("checksum mismatch: data block corrupted")

    arr = np.frombuffer(data, dtype="<c16").reshape(nx, ny).astype(np.complex128)
    meta = {"units": units.rstrip(b"\x00").decode(errors="replace")}
    sidecar = f"{path}.json"
    if os.path.exists(sidecar):
        with open(sidecar) as fh:
            try:
                meta["sidecar"] = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise FieldFormatError(f"corrupt sidecar {sidecar}: {exc}") from exc
    try:
        return ComplexField2D(Grid(int(nx), int(ny), float(dx), float(dy)),
                              arr, meta)
    except ValueError as exc:
        raise FieldFormatError(f"invalid field: {exc}") from exc

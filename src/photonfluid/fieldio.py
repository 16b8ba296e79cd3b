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

`write_field` stores any real or complex array of the grid's shape, of any
strides: C-contiguous little-endian complex128 data is written from a byte
view of the array, and any other dtype or layout is widened to complex128
through one fixed buffer of at most 64 KB, so no field-sized copy is made.
"""

from __future__ import annotations

import contextlib
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


# elements of the conversion buffer: 64 KB of complex128
_CHUNK = 4096


def write_field(path, field: ComplexField2D, sidecar: dict | None = None) -> None:
    """Write a field (and optional JSON sidecar) atomically.

    `field` is a `ComplexField2D` or any object with its `grid`, `data` and
    `meta` attributes.  C-contiguous complex128 `data` (every
    `ComplexField2D`, finite by construction) is written as it stands: the
    CRC and the write both read a byte view of the array.  Real data, or
    data of another complex dtype or layout, is converted to complex128
    chunk by chunk through one 64 KB buffer, bit-identical to writing
    `data.astype(complex)`, and checked for non-finite entries as it goes.
    A `ValueError` for a shape other than the grid's or for a non-finite
    entry leaves no file behind.
    """
    g = field.grid
    data = np.asarray(field.data)
    if data.shape != g.shape:
        raise ValueError(f"data shape {data.shape} != {g.shape}")
    units = str(field.meta.get("units", "natural")).encode()[:8]
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(bytes(HEADER_SIZE))
            if data.dtype == np.dtype("<c16") and data.flags.c_contiguous:
                view = memoryview(data).cast("B")
                fh.write(view)
                crc = zlib.crc32(view)
            else:
                crc = _write_converted(fh, data)
            fh.seek(0)
            fh.write(struct.pack(
                _HEADER_FMT, MAGIC, VERSION, ENDIAN_SENTINEL, g.nx, g.ny,
                g.dx, g.dy, units.ljust(8, b"\x00"), crc))
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)
    if sidecar is not None:
        stmp = f"{path}.json.tmp"
        with open(stmp, "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
        os.replace(stmp, f"{path}.json")


def _write_converted(fh, data: np.ndarray) -> int:
    """Write a 2D array as C-order complex128 through one `_CHUNK` buffer,
    in blocks of whole rows (or of one row's pieces, for rows longer than
    the buffer); returns the CRC32 of the bytes written."""
    buf = np.empty(_CHUNK, dtype="<c16")
    nx, ny = data.shape
    rows, cols = max(1, _CHUNK // ny), min(ny, _CHUNK)
    crc = 0
    for i in range(0, nx, rows):
        for j in range(0, ny, cols):
            part = data[i:i + rows, j:j + cols]
            out = buf[:part.size].reshape(part.shape)
            np.copyto(out, part)
            if not np.isfinite(out).all():
                raise ValueError("field contains non-finite entries")
            crc = zlib.crc32(out, crc)
            fh.write(out)
    return crc


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

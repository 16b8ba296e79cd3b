"""PFLD field binary format: lossless storage of real and complex 2D fields.

Layout (little-endian throughout):

    offset  size  content
    0       4     magic "PFLD"
    4       4     format version (u32): 1 for complex data, 2 for real
    8       4     endianness sentinel (u32, 0x01020304)
    12      4     reserved (zero)
    16      8     nx (u64)
    24      8     ny (u64)
    32      8     dx (f64)
    40      8     dy (f64)
    48      8     unit tag, NUL-padded ASCII (e.g. "natural", "SI")
    56      4     CRC32 of the data block (u32)
    60      4     reserved (zero)
    64      ...   nx·ny values, C order (y fastest): complex128 in
                  version 1, float64 in version 2

The version names the element type, so the file size is exactly
64 + 16·nx·ny bytes in version 1 and 64 + 8·nx·ny in version 2.
`read_field` reads both and returns complex128 data; a version 2 field
reads back as its values with zero imaginary parts, bit-identical to the
version 1 file of the same values widened to complex.  An optional JSON
sidecar (`<path>.json`) carries run parameters; every file is written
atomically (temp file + rename) so readers never observe a torn file.

`write_field` stores any real or complex array of the grid's shape, of any
strides, zero-stride (broadcast) views included: real data as version 2,
complex data as version 1.  Each file's bytes are written once, in order:
the CRC of the data is taken before the header is formed, the header is
written (and hashed) before the data, and the writer returns the SHA-256
and length of every file it wrote, so no caller re-reads a file to
checksum it.  Both passes over the data (the finiteness check and CRC,
then the hash and write) go in blocks of at most 64 KB: C-contiguous
little-endian float64 or complex128 data as views of the array itself,
any other dtype or layout converted into one fixed buffer, so no
field-sized copy is made.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
import zlib

import numpy as np

from .errors import FieldFormatError
from .fluid import ComplexField2D, Grid

__all__ = ["write_field", "write_bytes", "read_field", "HEADER_SIZE", "MAGIC"]

MAGIC = b"PFLD"
# format version -> element type of the data block
ELEMENTS = {1: np.dtype("<c16"), 2: np.dtype("<f8")}
ENDIAN_SENTINEL = 0x01020304
HEADER_SIZE = 64
_HEADER_FMT = "<4sII4xQQdd8sI4x"
assert struct.calcsize(_HEADER_FMT) == HEADER_SIZE

# bytes of each block of data, and of the conversion buffer
_CHUNK_BYTES = 1 << 16


def write_bytes(path, data: bytes) -> tuple[str, int]:
    """Write `data` to `path` atomically; returns its SHA-256 hex digest and
    its length."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
    return hashlib.sha256(data).hexdigest(), len(data)


def write_field(path, field: ComplexField2D,
                sidecar: dict | None = None) -> dict[str, tuple[str, int]]:
    """Write a field (and optional JSON sidecar) atomically; returns the
    SHA-256 hex digest and byte count of each file written, by path.

    `field` is a `ComplexField2D` or any object with its `grid`, `data` and
    `meta` attributes.  Real `data` is stored as float64 (version 2) and
    complex `data` as complex128 (version 1); either is bit-identical to
    writing its C-order cast, `data.astype(float)` or `data.astype(complex)`.
    A `ValueError` for a shape other than the grid's or for a non-finite
    entry leaves no file behind.
    """
    path, g = os.fspath(path), field.grid
    data = np.asarray(field.data)
    if data.shape != g.shape:
        raise ValueError(f"data shape {data.shape} != {g.shape}")
    version = 1 if np.iscomplexobj(data) else 2
    element = ELEMENTS[version]
    units = str(field.meta.get("units", "natural")).encode()[:8]
    # formed before the field is written, so a sidecar that cannot be
    # serialized leaves no file behind either
    text = None if sidecar is None else \
        json.dumps(sidecar, indent=2, sort_keys=True).encode()
    blocks = _blocks(data, element)
    crc = 0
    for block in blocks():
        if not np.isfinite(block).all():
            raise ValueError("field contains non-finite entries")
        crc = zlib.crc32(block, crc)
    header = struct.pack(_HEADER_FMT, MAGIC, version, ENDIAN_SENTINEL, g.nx,
                         g.ny, g.dx, g.dy, units.ljust(8, b"\x00"), crc)
    h = hashlib.sha256(header)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for block in blocks():
                h.update(block)
                fh.write(block)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)
    size = HEADER_SIZE + data.size * element.itemsize
    written = {path: (h.hexdigest(), size)}
    if text is not None:
        written[f"{path}.json"] = write_bytes(f"{path}.json", text)
    return written


def _blocks(data: np.ndarray, element: np.dtype):
    """A function whose every call yields a 2D array as C-order `element`
    in blocks of at most `_CHUNK_BYTES`: whole rows, or one row's pieces
    for rows longer than that.  C-contiguous `element` data is yielded as
    views of itself; any other dtype or layout is cast into one buffer,
    which each block overwrites."""
    size = _CHUNK_BYTES // element.itemsize
    nx, ny = data.shape
    rows, cols = max(1, size // ny), min(ny, size)
    buf = None
    if not (data.dtype == element and data.flags.c_contiguous):
        buf = np.empty(size, dtype=element)

    def blocks():
        for i in range(0, nx, rows):
            for j in range(0, ny, cols):
                part = data[i:i + rows, j:j + cols]
                if buf is not None:
                    np.copyto(buf[:part.size].reshape(part.shape), part)
                    part = buf[:part.size]
                yield part

    return blocks


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
        if version not in ELEMENTS:
            raise FieldFormatError(f"unsupported version {version}")
        element = ELEMENTS[version]
        if endian != ENDIAN_SENTINEL:
            raise FieldFormatError(
                f"endianness marker wrong (0x{endian:08x}); file written on an "
                "incompatible producer"
            )
        # an empty side makes an empty data block whatever the other side
        # forges
        if nx == 0 or ny == 0:
            raise FieldFormatError(f"empty grid {nx} x {ny}")
        # size the data block from the file, never from the header alone:
        # a forged nx·ny must not drive the read
        expect = nx * ny * element.itemsize
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

    arr = np.frombuffer(data, dtype=element).reshape(nx, ny).astype(np.complex128)
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

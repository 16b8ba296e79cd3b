"""PFLD binary format: lossless round trips and corruption detection."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from photonfluid.errors import FieldFormatError
from photonfluid.fieldio import HEADER_SIZE, read_field, write_field
from photonfluid.fluid import ComplexField2D


def random_field(rng, nx=16, ny=8, dx=0.5, dy=0.25):
    data = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))
    return ComplexField2D(nx, ny, dx, dy, data, {"units": "natural"})


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(11)
    f = random_field(rng)
    path = tmp_path / "f.pfld"
    write_field(path, f, sidecar={"note": "round trip"})
    g = read_field(path)
    assert g.nx == f.nx and g.ny == f.ny
    assert g.dx == f.dx and g.dy == f.dy
    assert g.data.tobytes() == f.data.tobytes()
    assert g.meta["units"] == "natural"
    assert g.meta["sidecar"] == {"note": "round trip"}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_round_trip_property(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    f = random_field(rng, nx=8, ny=4)
    path = tmp_path_factory.mktemp("fio") / "f.pfld"
    write_field(path, f)
    assert read_field(path).data.tobytes() == f.data.tobytes()


def test_file_size_arithmetic(tmp_path):
    f = ComplexField2D(128, 128, 0.5, 0.5, np.zeros((128, 128), complex))
    path = tmp_path / "grid.pfld"
    write_field(path, f)
    assert path.stat().st_size == HEADER_SIZE + 128 * 128 * 16
    assert HEADER_SIZE == 64


def test_bad_magic_rejected(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "f.pfld"
    write_field(path, random_field(rng))
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(raw)
    with pytest.raises(FieldFormatError, match="magic"):
        read_field(path)


def test_endianness_marker_checked(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "f.pfld"
    write_field(path, random_field(rng))
    raw = bytearray(path.read_bytes())
    raw[8:12] = raw[8:12][::-1]          # byte-swapped sentinel
    path.write_bytes(raw)
    with pytest.raises(FieldFormatError, match="endianness"):
        read_field(path)


def test_truncation_detected(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "f.pfld"
    write_field(path, random_field(rng))
    raw = path.read_bytes()
    path.write_bytes(raw[:-7])
    with pytest.raises(FieldFormatError, match="truncated"):
        read_field(path)
    path.write_bytes(raw[:40])
    with pytest.raises(FieldFormatError, match="truncated"):
        read_field(path)


def test_checksum_detects_payload_corruption(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "f.pfld"
    write_field(path, random_field(rng))
    raw = bytearray(path.read_bytes())
    raw[HEADER_SIZE + 33] ^= 0x01
    path.write_bytes(raw)
    with pytest.raises(FieldFormatError, match="checksum"):
        read_field(path)


def test_trailing_bytes_rejected(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "f.pfld"
    write_field(path, random_field(rng))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FieldFormatError, match="trailing"):
        read_field(path)


def _forge_sides(path, nx, ny):
    raw = bytearray(path.read_bytes())
    raw[16:32] = struct.pack("<QQ", nx, ny)
    path.write_bytes(raw)


def test_forged_sides_checked_against_file_size(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "f.pfld"
    write_field(path, random_field(rng))          # 16 x 8 = 128 elements
    _forge_sides(path, 2**62, 4)                  # 16·nx·ny overflows any read
    with pytest.raises(FieldFormatError, match="truncated"):
        read_field(path)
    _forge_sides(path, 129, 1)                    # one element past the data
    with pytest.raises(FieldFormatError, match="truncated"):
        read_field(path)


def test_forged_sides_the_field_cannot_take(tmp_path):
    # size and checksum agree, but 3 is not an FFT-friendly side
    data = np.zeros(12, "<c16").tobytes()
    header = struct.pack("<4sII4xQQdd8sI4x", b"PFLD", 1, 0x01020304, 3, 4,
                         0.5, 0.5, b"natural\x00", zlib.crc32(data))
    path = tmp_path / "f.pfld"
    path.write_bytes(header + data)
    with pytest.raises(FieldFormatError, match="powers of two"):
        read_field(path)


def test_corrupt_sidecar_raises_field_format_error(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "f.pfld"
    write_field(path, random_field(rng, nx=4, ny=4))
    sidecar = tmp_path / "f.pfld.json"
    for junk in (b'{"t": 1', b"\xff\xfe{}"):
        sidecar.write_bytes(junk)
        with pytest.raises(FieldFormatError, match="corrupt sidecar"):
            read_field(path)


_SIDES = st.one_of(st.integers(0, 9), st.sampled_from([2**32, 2**62, 2**63]),
                   st.integers(0, 2**64 - 1))
_SPACINGS = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 0.5, float("nan"),
                                       float("inf")]), st.floats())


@given(nx=_SIDES, ny=_SIDES, dx=_SPACINGS, dy=_SPACINGS,
       version=st.sampled_from([1, 0, 2, 2**32 - 1]),
       endian=st.sampled_from([0x01020304, 0x04030201, 0]),
       units=st.binary(min_size=8, max_size=8),
       extra=st.integers(-40, 40), fill=st.integers(0, 255))
# an empty side makes nx·ny·16 = 0 match an empty data block whatever the
# other side says
@example(nx=2**63, ny=0, dx=0.5, dy=0.5, version=1, endian=0x01020304,
         units=b"natural\x00", extra=0, fill=0)
@example(nx=0, ny=2**63, dx=0.5, dy=0.5, version=1, endian=0x01020304,
         units=b"natural\x00", extra=0, fill=0)
@settings(max_examples=200)
def test_forged_headers_raise_only_field_format_error(
        tmp_path_factory, nx, ny, dx, dy, version, endian, units, extra, fill):
    # data blocks short or long of nx·ny·16 by `extra` bytes (the exact size
    # only where it is small), always with a matching checksum
    size = nx * ny * 16 if nx * ny <= 64 else 0
    data = bytes([fill]) * max(0, size + extra)
    header = struct.pack("<4sII4xQQdd8sI4x", b"PFLD", version, endian,
                         nx, ny, dx, dy, units, zlib.crc32(data))
    path = tmp_path_factory.mktemp("fuzz") / "f.pfld"
    path.write_bytes(header + data)
    try:
        field = read_field(path)
    except FieldFormatError:
        return
    assert (field.nx, field.ny) == (nx, ny)
    assert field.data.shape == (nx, ny)

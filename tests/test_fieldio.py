"""PFLD binary format: lossless round trips and corruption detection."""

import hashlib
import struct
import tracemalloc
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from photonfluid.errors import FieldFormatError
from photonfluid.fieldio import HEADER_SIZE, read_field, write_field
from photonfluid.fluid import ComplexField2D, Grid


def random_field(rng, nx=16, ny=8, dx=0.5, dy=0.25):
    data = rng.standard_normal((nx, ny)) + 1j * rng.standard_normal((nx, ny))
    return ComplexField2D(Grid(nx, ny, dx, dy), data, {"units": "natural"})


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(11)
    f = random_field(rng)
    path = tmp_path / "f.pfld"
    write_field(path, f, sidecar={"note": "round trip"})
    g = read_field(path)
    assert g.grid.nx == f.grid.nx and g.grid.ny == f.grid.ny
    assert g.grid.dx == f.grid.dx and g.grid.dy == f.grid.dy
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


def test_write_makes_no_copy_of_the_data(tmp_path):
    # the CRC and the write read a byte view of the array: the tracemalloc
    # peak stays far below one field (a tobytes() copy would be 1.0)
    f = random_field(np.random.default_rng(5), nx=256, ny=256)
    path = tmp_path / "big.pfld"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_field(path, f)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / f.data.nbytes < 0.1
    assert read_field(path).data.tobytes() == f.data.tobytes()


def _real_field(data, dx=0.5, dy=0.25):
    # the grid, data and meta a writer reads; data need not be complex
    return SimpleNamespace(grid=Grid(*data.shape, dx, dy), data=data,
                           meta={"units": "n"})


_REAL = np.random.default_rng(9).standard_normal((64, 32))


@pytest.mark.parametrize("data", [
    _REAL,                                   # C order, whole rows per chunk
    np.asfortranarray(_REAL),
    _REAL[::2, ::-1],                        # strided and reversed
    _REAL.astype(np.float32),
    np.random.default_rng(10).standard_normal((2, 16384)),  # rows > chunk
    (_REAL + 1j * _REAL[::-1]).astype(np.complex64),
    np.broadcast_to(1.3, _REAL.shape),       # a constant profile's view
    np.broadcast_to(_REAL[:, 0][:, None], _REAL.shape),   # a column's view
], ids=["c-order", "fortran", "strided", "float32", "long-rows", "complex64",
        "zero-stride", "column-view"])
def test_converted_write_equals_the_complex_cast(tmp_path, data):
    # real data of any layout or dtype is stored as its C-order float64
    # cast, complex data as its complex128 cast; either reads back as the
    # complex cast
    path, ref = tmp_path / "conv.pfld", tmp_path / "ref.pfld"
    cast = np.ascontiguousarray(
        data, dtype=complex if np.iscomplexobj(data) else float)
    write_field(path, _real_field(data))
    write_field(ref, _real_field(cast))
    assert path.read_bytes() == ref.read_bytes()
    back = read_field(path)
    assert back.data.tobytes() == data.astype(complex).tobytes()
    assert back.meta["units"] == "n"


def test_widened_version_1_file_reads_as_the_real_version_2_file(tmp_path):
    # a real field stored widened to complex128 (version 1, as every real
    # field was before version 2) and stored as float64 (version 2) read
    # back bit-identical
    v1, v2 = tmp_path / "v1.pfld", tmp_path / "v2.pfld"
    write_field(v1, _real_field(_REAL.astype(complex)))
    write_field(v2, _real_field(_REAL))
    assert struct.unpack_from("<I", v1.read_bytes(), 4) == (1,)
    assert struct.unpack_from("<I", v2.read_bytes(), 4) == (2,)
    a, b = read_field(v1), read_field(v2)
    assert a.grid == b.grid and a.meta == b.meta
    assert a.data.tobytes() == b.data.tobytes() == \
        _REAL.astype(complex).tobytes()


def test_real_file_size_arithmetic(tmp_path):
    data = np.random.default_rng(13).standard_normal((128, 128))
    path = tmp_path / "real.pfld"
    write_field(path, _real_field(data))
    assert path.stat().st_size == HEADER_SIZE + 8 * 128 * 128


def test_write_returns_the_checksum_and_size_of_each_file(tmp_path):
    path = tmp_path / "f.pfld"
    written = write_field(path, _real_field(_REAL[::2]), sidecar={"t": 1.5})
    assert list(written) == [str(path), f"{path}.json"]
    for name, (sha256, size) in written.items():
        raw = Path(name).read_bytes()
        assert (sha256, size) == (hashlib.sha256(raw).hexdigest(), len(raw))


def test_non_finite_real_data_is_refused_and_leaves_no_file(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        data = np.ones((256, 256))
        data[200, 7] = bad                   # far past the first chunk
        path = tmp_path / "bad.pfld"
        with pytest.raises(ValueError, match="field contains non-finite entries"):
            write_field(path, _real_field(data))
        assert list(tmp_path.iterdir()) == []


def test_non_finite_complex_data_is_refused_and_leaves_no_file(tmp_path):
    # C-contiguous complex128 is checked from a view of the array itself
    for bad in (complex(np.nan, 0), complex(0, np.inf), complex(-np.inf, 1)):
        data = np.ones((256, 256), complex)
        data[200, 7] = bad
        path = tmp_path / "bad.pfld"
        with pytest.raises(ValueError, match="field contains non-finite entries"):
            write_field(path, _real_field(data))
        assert list(tmp_path.iterdir()) == []


def test_data_off_the_grid_shape_is_refused(tmp_path):
    field = SimpleNamespace(grid=Grid(8, 8, 1.0, 1.0), data=np.ones((8, 4)),
                            meta={})
    with pytest.raises(ValueError, match="shape"):
        write_field(tmp_path / "f.pfld", field)
    assert list(tmp_path.iterdir()) == []


def test_real_write_makes_no_field_sized_copy(tmp_path):
    # real data is widened through one fixed 64 KB buffer: the peak stays
    # far below the complex field written (an astype(complex) copy is 1.0)
    data = np.random.default_rng(12).standard_normal((256, 256))
    path = tmp_path / "real.pfld"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_field(path, _real_field(data))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak / (16 * data.size) < 0.1
    assert read_field(path).data.tobytes() == data.astype(complex).tobytes()


def test_file_size_arithmetic(tmp_path):
    f = ComplexField2D(Grid(128, 128, 0.5, 0.5), np.zeros((128, 128), complex))
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
# an empty side makes an empty data block match whatever the other side
# says
@example(nx=2**63, ny=0, dx=0.5, dy=0.5, version=1, endian=0x01020304,
         units=b"natural\x00", extra=0, fill=0)
@example(nx=0, ny=2**63, dx=0.5, dy=0.5, version=1, endian=0x01020304,
         units=b"natural\x00", extra=0, fill=0)
# a well-formed version 2 file reads
@example(nx=4, ny=4, dx=0.5, dy=0.5, version=2, endian=0x01020304,
         units=b"natural\x00", extra=0, fill=0)
@settings(max_examples=200)
def test_forged_headers_raise_only_field_format_error(
        tmp_path_factory, nx, ny, dx, dy, version, endian, units, extra, fill):
    # data blocks short or long of nx·ny elements by `extra` bytes (the
    # exact size only where it is small), always with a matching checksum;
    # version 2 elements are float64, every other version's complex128
    size = nx * ny * (8 if version == 2 else 16) if nx * ny <= 64 else 0
    data = bytes([fill]) * max(0, size + extra)
    header = struct.pack("<4sII4xQQdd8sI4x", b"PFLD", version, endian,
                         nx, ny, dx, dy, units, zlib.crc32(data))
    path = tmp_path_factory.mktemp("fuzz") / "f.pfld"
    path.write_bytes(header + data)
    try:
        field = read_field(path)
    except FieldFormatError:
        return
    assert (field.grid.nx, field.grid.ny) == (nx, ny)
    assert field.data.shape == (nx, ny)

import struct

import numpy as np
import pytest

from nsmaxwell.grid import Grid
from nsmaxwell.snapshots import (
    FORMAT_VERSION,
    SnapshotError,
    read_snapshot,
    write_snapshot,
)

from conftest import random_field


def test_roundtrip_bit_exact(grid2, tmp_path):
    # The reader keeps the real part of the file's field; a field whose
    # self-mirrored columns m_d = 0, n/2 are Hermitian is that part itself.
    f = random_field(grid2, seed=40)
    f.enforce_hermitian()
    path = tmp_path / "field.nsmw"
    write_snapshot(path, f, time=0.375)
    g, t = read_snapshot(path)
    assert t == 0.375
    assert g.grid.d == grid2.d and g.grid.n == grid2.n
    assert g.grid.box_length == grid2.box_length
    assert np.array_equal(g.coeffs, f.coeffs)
    write_snapshot(tmp_path / "again.nsmw", g, time=0.375)
    assert (tmp_path / "again.nsmw").read_bytes() == path.read_bytes()


def test_rewrite_is_deterministic(grid2, tmp_path):
    f = random_field(grid2, seed=41)
    p1, p2 = tmp_path / "a.nsmw", tmp_path / "b.nsmw"
    write_snapshot(p1, f, time=1.0)
    write_snapshot(p2, f, time=1.0)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(grid2, tmp_path):
    f = random_field(grid2, seed=42)
    path = tmp_path / "field.nsmw"
    write_snapshot(path, f)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="magic"):
        read_snapshot(path)


def test_unknown_version(grid2, tmp_path):
    f = random_field(grid2, seed=43)
    path = tmp_path / "field.nsmw"
    write_snapshot(path, f)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotError, match="version"):
        read_snapshot(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "short.nsmw"
    path.write_bytes(b"NSMW\x01")
    with pytest.raises(SnapshotError, match="header"):
        read_snapshot(path)


def test_truncated_payload(grid2, tmp_path):
    f = random_field(grid2, seed=44)
    path = tmp_path / "field.nsmw"
    write_snapshot(path, f)
    raw = path.read_bytes()
    for cut in (16, 5):  # one whole element; the middle of one
        path.write_bytes(raw[: len(raw) - cut])
        with pytest.raises(SnapshotError, match="payload"):
            read_snapshot(path)


def _write_full_layout(path, grid, coeffs, time):
    """A version-1 file as written before the half-spectrum layout: the
    header, then the full FFT layout of every mode."""
    header = struct.pack("<4sIII dd", b"NSMW", 1, grid.d, grid.n, grid.box_length, time)
    path.write_bytes(header + np.ascontiguousarray(coeffs, dtype="<c16").tobytes())


@pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
def test_full_layout_file_reads_to_half_spectrum(d, n, tmp_path):
    grid = Grid(d, n, 3.0)
    values = np.random.default_rng(45 + d).standard_normal((3,) + grid.shape)
    full = np.fft.fftn(values, axes=grid.spatial_axes) / n**d
    path = tmp_path / "old.nsmw"
    _write_full_layout(path, grid, full, 0.5)
    got, t = read_snapshot(path)
    assert t == 0.5 and got.grid == grid
    assert got.coeffs.shape == (3,) + grid.spectral_shape
    want = full[..., : n // 2 + 1]
    assert np.max(np.abs(got.coeffs - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
def test_written_file_holds_conjugate_mirrors(d, n, tmp_path):
    grid = Grid(d, n)
    f = random_field(grid, seed=46)
    path = tmp_path / "field.nsmw"
    write_snapshot(path, f, time=2.0)
    raw = path.read_bytes()
    data = np.frombuffer(raw[32:], dtype="<c16")
    assert data.size == 3 * n**d and len(raw) == 32 + 16 * 3 * n**d
    full = data.reshape((3,) + grid.shape)
    h = n // 2 + 1
    assert np.array_equal(full[..., :h], f.coeffs)
    neg = (-np.arange(n)) % n
    mirror = np.conj(full[(slice(None),) + np.ix_(*([neg] * d))])
    assert np.array_equal(full[..., h:], mirror[..., h:])


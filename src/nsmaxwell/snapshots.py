"""Binary field snapshot format.

Layout (all little-endian):
    magic   4 bytes  b"NSMW"
    version u32      currently 1
    d       u32
    n       u32
    L       f64      box period
    time    f64
    data    3 * n^d complex128, row-major with the first spatial axis
            slowest, components consecutive: every mode in numpy FFT order.

This is the one place that holds the full n-column layout.  The writer
fills the columns m_d < 0 of the half spectrum (see ``grid``) with the
conjugate mirrors conj(c(-k)); the reader keeps the half spectrum of the
file's real part (c(k) + conj c(-k)) / 2, as older files need.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .grid import Grid, SpectralField, _reflection

__all__ = ["write_snapshot", "read_snapshot", "SnapshotError"]

MAGIC = b"NSMW"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIII dd")


class SnapshotError(ValueError):
    pass


def write_snapshot(path, field: SpectralField, time: float = 0.0) -> None:
    grid = field.grid
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, grid.d, grid.n,
                          grid.box_length, time)
    h = grid.n // 2 + 1
    data = np.empty((3,) + grid.shape, dtype="<c16")
    data[..., :h] = field.coeffs
    # Columns m_d = -n/2+1 .. -1 are conj(c(-k)) of the columns n/2-1 .. 1.
    np.conjugate(field.coeffs[_reflection(grid, grid.d - 1) + (slice(h - 2, 0, -1),)],
                 out=data[..., h:])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes(order="C"))


def read_snapshot(path):
    """Returns (field, time); a defect of the file raises SnapshotError."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise SnapshotError("truncated snapshot header")
        magic, version, d, n, L, time = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise SnapshotError(f"bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise SnapshotError(f"unknown snapshot version {version}")
        try:
            grid = Grid(d, n, L)
        except ValueError as exc:
            raise SnapshotError(f"bad snapshot header: {exc}") from None
        size = 3 * n**d * 16
        if os.fstat(fh.fileno()).st_size - fh.tell() < size:
            raise SnapshotError("truncated snapshot payload")
        data = np.frombuffer(fh.read(size), dtype="<c16")
    full = data.reshape((3,) + grid.shape).astype(np.complex128)
    h = n // 2 + 1
    real = 0.5 * (full[..., :h] + np.conj(full[_reflection(grid, d)][..., :h]))
    return SpectralField(grid, real), time

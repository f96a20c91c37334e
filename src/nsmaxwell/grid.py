"""Periodic spectral grid and R^3-valued Fourier fields in d = 2 or 3.

Fields are real and are stored as the complex Fourier amplitudes of the
half spectrum ``c[comp, m1, ..., md]``, m_d = 0 .. n/2, of the real
transforms ``scipy.fft.rfftn`` / ``irfftn``, the other axes in numpy FFT
order, with ``u(x) = sum_k c(k) exp(i k.x)`` and ``k = (2 pi / L) m``.  The
columns m_d < 0 are the mirrors c(-k) = conj(c(k)) and are not stored, so
Parseval counts each column ``Grid._half_count`` times
(``Grid._parseval_weight``); only the columns m_d = 0 and n/2 (the Nyquist
mode, stored as -n/2 like the other axes' Nyquist rows) hold both a mode
and its mirror.  Only the snapshot file keeps the full n-column layout.
Time stacks (``system``) keep only the 2/3 rule's K modes (``_pack``).

All fields are R^3-valued regardless of the spatial dimension; in d=2 the
derivative convention is ``grad = (d1, d2, 0)`` and
``curl F = (d2 F3, -d1 F3, d1 F2 - d2 F1)``.  A grid builds its
wavevectors and masks once, as cached properties that are read, not
called; the arrays it hands out are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

__all__ = [
    "Grid",
    "SpectralField",
    "gradient_component",
    "divergence",
    "curl",
    "leray_project",
    "pointwise_product",
    "lp_norm_physical",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """d-dimensional periodic grid with n points per axis and period L."""

    d: int
    n: int
    box_length: float = 2.0 * np.pi

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.d}")
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError(f"n must be a power of two >= 8, got {self.n}")
        if not (np.isfinite(self.box_length) and self.box_length > 0):
            raise ValueError(f"box_length must be finite and positive, got {self.box_length}")

    @property
    def shape(self) -> tuple:
        """Shape of the physical values of one component."""
        return (self.n,) * self.d

    @property
    def spectral_shape(self) -> tuple:
        """Shape of the stored amplitudes of one component: the half
        spectrum (n, ..., n, n/2+1)."""
        return (self.n,) * (self.d - 1) + (self.n // 2 + 1,)

    @property
    def spatial_axes(self) -> tuple:
        return tuple(range(1, self.d + 1))

    @property
    def k0(self) -> float:
        """Smallest positive wavevector magnitude, 2 pi / L."""
        return 2.0 * np.pi / self.box_length

    # Geometry, built on first use and then shared by every caller.

    @cached_property
    def _axis_modes(self) -> tuple:
        """The integer modes m of each axis in storage order."""
        m = np.fft.fftfreq(self.n, d=1.0 / self.n)
        return (m,) * (self.d - 1) + (m[: self.n // 2 + 1],)

    @cached_property
    def wavevectors(self) -> tuple:
        """Per-axis wavevector arrays (k1, k2, k3) broadcast over the stored
        modes; in d=2 k3 is identically zero (the 2D convention
        grad = (d1, d2, 0))."""
        # Broadcast views of the 1-D mode arrays: no storage.
        ks = list(np.meshgrid(*(m * self.k0 for m in self._axis_modes),
                              indexing="ij", copy=False))
        if self.d == 2:
            ks.append(np.broadcast_to(0.0, self.spectral_shape))
        return tuple(_read_only(k) for k in ks)

    @cached_property
    def k_squared(self) -> np.ndarray:
        k1, k2, k3 = self.wavevectors
        return _read_only(k1**2 + k2**2 + k3**2)

    @cached_property
    def k_magnitude(self) -> np.ndarray:
        return _read_only(np.sqrt(self.k_squared))

    @cached_property
    def _unit_wavevectors(self) -> np.ndarray:
        """k / |k| over the d axes (no k3 in 2D), 0 at k = 0, as complex128."""
        kmag = np.where(self.k_magnitude == 0, 1.0, self.k_magnitude)
        return _read_only((np.stack(self.wavevectors[: self.d]) / kmag).astype(np.complex128))

    def _axis_mask(self, bad) -> np.ndarray:
        """True where the per-axis mode predicate ``bad`` holds on any axis."""
        mask = np.zeros(self.spectral_shape, dtype=bool)
        for ax, m in enumerate(self._axis_modes):
            shape = [1] * self.d
            shape[ax] = len(m)
            mask |= bad(m).reshape(shape)
        return _read_only(mask)

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """Boolean mask, True on modes with m = -n/2 along any axis."""
        return self._axis_mask(lambda m: m == -self.n // 2)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean mask, True on modes killed by the 2/3 rule (|m| > n/3)."""
        return self._axis_mask(lambda m: np.abs(m) > self.n / 3.0)

    @cached_property
    def _half_keep(self) -> np.ndarray:
        """1 on the modes the 2/3 rule keeps, else 0, as complex128."""
        return _read_only((~self.dealias_mask).astype(np.complex128))

    @cached_property
    def _kept(self) -> np.ndarray:
        """Flat indices of the K modes ``~dealias_mask``, k = 0 first."""
        return _read_only(np.flatnonzero(~self.dealias_mask))

    @cached_property
    def _half_ik(self) -> np.ndarray:
        """i k times the 2/3 truncation, axes stacked (3, *spectral_shape);
        the third row is 0 in 2D."""
        return _read_only(1j * np.stack(self.wavevectors) * self._half_keep)

    @cached_property
    def _half_count(self) -> np.ndarray:
        """How often each column m_d = 0 .. n/2 stands for a mode of the
        whole lattice: twice (itself and its conjugate mirror m_d < 0)
        for 0 < m_d < n/2, once for m_d = 0 and n/2."""
        count = np.full(self.n // 2 + 1, 2.0)
        count[[0, -1]] = 1.0
        return _read_only(count)

    @cached_property
    def _parseval_weight(self) -> np.ndarray:
        """Box volume times ``_half_count`` on every stored mode: the sum of
        weight |c|^2 is the squared L^2 norm of the real field."""
        weight = self.box_length**self.d * self._half_count
        return _read_only(np.broadcast_to(weight, self.spectral_shape).copy())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _reflection(grid: Grid, axes: int) -> tuple:
    """Index of (components, spatial...) arrays that reflects the first
    ``axes`` spatial axes, m -> -m, and keeps the rest."""
    neg = (-np.arange(grid.n)) % grid.n
    return (slice(None),) + np.ix_(*([neg] * axes))


@dataclass
class SpectralField:
    """R^3-valued real field as complex Fourier amplitudes on a Grid.

    ``coeffs`` has shape (3, *grid.spectral_shape), the half spectrum of the
    module docstring.  Nyquist rows are kept identically zero.
    """

    grid: Grid
    coeffs: np.ndarray

    @classmethod
    def zeros(cls, grid: Grid) -> "SpectralField":
        return cls(grid, np.zeros((3,) + grid.spectral_shape, dtype=np.complex128))

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        """Forward transform of real physical values, shape (3, n, ..., n)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (3,) + grid.shape:
            raise ValueError(f"expected shape {(3,) + grid.shape}, got {values.shape}")
        f = cls(grid, scipy.fft.rfftn(values, axes=grid.spatial_axes, norm="forward"))
        f.zero_nyquist()
        return f

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())

    def to_physical(self) -> np.ndarray:
        """Inverse transform: the real values, shape (3, n, ..., n)."""
        return _half_physical(self.grid, self.coeffs)

    def zero_nyquist(self) -> None:
        self.coeffs[:, self.grid.nyquist_mask] = 0.0

    def dealias(self) -> None:
        self.coeffs[:, self.grid.dealias_mask] = 0.0

    def _planes(self) -> tuple:
        """The self-mirrored columns m_d = 0 and n/2 and their mirrors c(-k)."""
        planes = self.coeffs[..., [0, self.grid.n // 2]]
        return planes, planes[_reflection(self.grid, self.grid.d - 1)]

    def enforce_hermitian(self) -> None:
        """c(k) -> (c(k) + conj c(-k)) / 2 on the columns m_d = 0 and n/2,
        the only ones that hold both a mode and its mirror."""
        planes, mirror = self._planes()
        self.coeffs[..., [0, self.grid.n // 2]] = 0.5 * (planes + np.conj(mirror))

    def hermitian_defect(self) -> float:
        planes, mirror = self._planes()
        return float(np.max(np.abs(planes - np.conj(mirror))))

    def mean(self) -> np.ndarray:
        """The k=0 amplitude triple (spatial mean of the field)."""
        zero = (0,) * self.grid.d
        return self.coeffs[(slice(None),) + zero].real.copy()

    def set_mean(self, value) -> None:
        zero = (0,) * self.grid.d
        self.coeffs[(slice(None),) + zero] = np.asarray(value, dtype=np.complex128)

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def _check_same_grid(a: SpectralField, b: SpectralField) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def gradient_component(f: SpectralField, axis: int) -> SpectralField:
    """d_axis applied componentwise (axis in {0,1,2}; d3 = 0 in 2D)."""
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    k = f.grid.wavevectors[axis]
    return SpectralField(f.grid, 1j * k * f.coeffs)


def divergence(f: SpectralField) -> SpectralField:
    """Divergence; the scalar result is stored in component 0."""
    ks = f.grid.wavevectors
    d = f.grid.d
    div = np.zeros(f.grid.spectral_shape, dtype=np.complex128)
    for i in range(d):
        div += 1j * ks[i] * f.coeffs[i]
    out = np.zeros_like(f.coeffs)
    out[0] = div
    return SpectralField(f.grid, out)


def curl(f: SpectralField) -> SpectralField:
    """curl F = i k x F with k3 = 0 in d=2, which reproduces the 2D
    convention curl F = (d2 F3, -d1 F3, d1 F2 - d2 F1)."""
    k1, k2, k3 = f.grid.wavevectors
    c1, c2, c3 = f.coeffs
    out = np.empty_like(f.coeffs)
    out[0] = 1j * (k2 * c3 - k3 * c2)
    out[1] = 1j * (k3 * c1 - k1 * c3)
    out[2] = 1j * (k1 * c2 - k2 * c1)
    return SpectralField(f.grid, out)


def leray_project(f: SpectralField) -> SpectralField:
    """Per-mode projection c -> c - k (k.c)/|k|^2; k=0 mode unchanged.

    In d=2 the wavevector has k3=0, so only the first two components
    participate and the third passes through, matching the 2D divergence
    convention.  ``f.coeffs`` is (..., 3, *spectral_shape), leading axes (a
    batch of states) allowed.
    """
    grid = f.grid
    ks = grid.wavevectors[: grid.d]
    ksq = grid.k_squared
    c = np.moveaxis(f.coeffs, -grid.d - 1, 0)
    kdotc = sum(k * cj for k, cj in zip(ks, c))
    factor = kdotc / np.where(ksq == 0, 1.0, ksq)
    out = f.coeffs.copy()
    for k, oj in zip(ks, np.moveaxis(out, -grid.d - 1, 0)):
        oj -= k * factor
    return SpectralField(grid, out)


def _cross(a: np.ndarray, b: np.ndarray, axis: int = 0) -> np.ndarray:
    """Pointwise a x b, components along ``axis``: of physical values, or
    of amplitudes mode by mode (i k x c)."""
    a1, a2, a3 = np.moveaxis(a, axis, 0)
    b1, b2, b3 = np.moveaxis(b, axis, 0)
    return np.stack([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1],
                    axis=axis)


def _half_physical(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Real values of amplitudes (..., *spectral_shape): one ``irfftn`` over
    the last d axes, leading axes (components, times) kept.  Amplitudes
    whose columns m_d = 0, n/2 are not Hermitian are taken as the real
    field the transform makes of them."""
    return scipy.fft.irfftn(half, s=grid.shape, axes=tuple(range(-grid.d, 0)),
                            norm="forward")


def _pack(grid: Grid, half: np.ndarray) -> np.ndarray:
    """Amplitudes (..., *spectral_shape) on the kept modes only, (..., K)."""
    return np.take(half.reshape(half.shape[:half.ndim - grid.d] + (-1,)), grid._kept, axis=-1)


def _unpack(grid: Grid, kept: np.ndarray) -> np.ndarray:
    """``_pack`` undone: (..., K) to (..., *spectral_shape), 0 on killed modes."""
    half = np.zeros(kept.shape[:-1] + grid.spectral_shape, np.complex128)
    half.reshape(kept.shape[:-1] + (-1,))[..., grid._kept] = kept
    return half


def _half_spectral(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Amplitudes of real values (..., *shape), truncated by the 2/3 rule:
    one ``rfftn`` over the last d axes."""
    half = scipy.fft.rfftn(values, axes=tuple(range(-grid.d, 0)), norm="forward")
    half *= grid._half_keep
    return half


def _dealiased_physical(f: SpectralField) -> np.ndarray:
    """The 2/3-truncated field in physical space."""
    grid = f.grid
    return _half_physical(grid, f.coeffs * grid._half_keep)


def _sup_series(half: np.ndarray, grid: Grid) -> np.ndarray:
    """sup_x |u(t, x)| per time, one ``irfftn`` of amplitudes
    (times, components, *spectral_shape).

    The reduction runs in the transform's output, so no full-size
    temporary is allocated: the values are squared in place and the
    components added into the first one, (u_1^2 + u_2^2) + u_3^2, before
    the max over space."""
    u = _half_physical(grid, half)
    np.multiply(u, u, out=u)
    total = u[:, 0]
    for c in range(1, u.shape[1]):
        total += u[:, c]
    return np.sqrt(np.max(total, axis=tuple(range(1, grid.d + 1))))


# A chunk of time samples, stacked for one array operation, holds about this
# many elements, so temporaries stay small however many times are sampled.
_CHUNK_ELEMENTS = 2**16


# Callers count 3 * n**d per time on purpose; half-spectrum chunks raised peak RSS.
def _time_chunks(samples, per_time: int) -> list:
    """Consecutive slices of ``samples`` of about _CHUNK_ELEMENTS / per_time."""
    step = max(1, _CHUNK_ELEMENTS // max(per_time, 1))
    return [samples[i:i + step] for i in range(0, len(samples), step)]


def pointwise_product(a: SpectralField, b: SpectralField) -> SpectralField:
    """Dealiased cross product a x b, the one product the system forms
    (v x B, E x B, (v x B) x B) and the product laws measure.

    Inputs are truncated by the 2/3 rule before transforming and the result
    is truncated again, so products of resolved fields are alias-free.
    """
    _check_same_grid(a, b)
    grid = a.grid
    prod = _cross(_dealiased_physical(a), _dealiased_physical(b))
    return SpectralField(grid, _half_spectral(grid, prod))


def lp_norm_physical(f: SpectralField, p) -> float:
    """L^p norm over the box, p in {2, inf}.

    p=2 via Parseval on coefficients (``Grid._parseval_weight``); p=inf by
    ``_sup_series``, the max of the pointwise Euclidean norm of the R^3
    value.
    """
    if p == 2:
        c = f.coeffs
        return float(np.sqrt(np.sum(f.grid._parseval_weight * (c.real**2 + c.imag**2))))
    if p == np.inf:
        return float(_sup_series(f.coeffs[None], f.grid)[0])
    raise ValueError(f"unsupported exponent {p!r}")

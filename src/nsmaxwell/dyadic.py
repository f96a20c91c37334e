"""Dyadic frequency localization, paraproducts, and the hybrid norms.

The partition is built from a smooth radial bump phi supported in
[3/4, 8/3] (exp(-1/x) transition), rescaled to the physical wavevectors
k = (2 pi / L) m, so that |k| = 1 separates "low" (q <= 0) from "high"
(q > 0) shells.  Boundary shells absorb the truncated telescoping tails so
that the partition of unity is exact on every resolved nonzero mode.
The weights live on the grid's stored modes, the half spectrum (see
``grid``); ``DyadicPartition.shell_matrix`` carries the Parseval weight of
each mode, so every shell norm read from the half spectrum is the norm of
the real field.  ``build_partition`` builds a grid's shell weights once
and keeps them on that grid; every function here reads the partition of
its field's grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Grid,
    SpectralField,
    _read_only,
    _sup_series,
    _time_chunks,
    pointwise_product,
)

__all__ = [
    "DyadicPartition",
    "NormSpec",
    "smooth_step",
    "chi_profile",
    "phi_profile",
    "build_partition",
    "block",
    "low_pass",
    "bony_decompose",
    "norm_hst",
    "norm_besov",
    "ShellSeries",
    "shell_series",
    "time_lebesgue",
    "spacetime_norm_from_series",
]

# Support edges of the radial profile before dyadic scaling.
PHI_LO = 0.75
PHI_HI = 8.0 / 3.0
CHI_LO = 0.75
CHI_HI = 4.0 / 3.0


def smooth_step(t):
    """C-infinity step: 0 for t<=0, 1 for t>=1, exp(-1/t) transition.

    The exponentials are evaluated only inside the band 0 < t < 1 (NaN
    stays NaN); outside it the result is an exact 0 or 1.  The band's
    temporaries are overwritten in place (``out=``), with the same
    operations in the same order as f / (f + g).
    """
    t = np.asarray(t, dtype=np.float64)
    high = t >= 1.0
    out = np.where(high, 1.0, 0.0)
    band = ~(high | (t <= 0.0))
    tb = t[band]  # a copy, which g overwrites
    with np.errstate(over="ignore"):  # -1/t for subnormal t; exp gives 0
        f = np.divide(-1.0, tb)
        np.exp(f, out=f)
        g = np.subtract(1.0, tb, out=tb)
        np.divide(-1.0, g, out=g)
        np.exp(g, out=g)
    g += f  # f + g, which is g + f bit for bit
    out[band] = np.divide(f, g, out=f)
    return out[()]


def chi_profile(r):
    """Smooth cutoff: 1 for r <= 3/4, 0 for r >= 4/3."""
    r = np.asarray(r, dtype=np.float64)
    t = np.subtract(r, CHI_LO)
    t /= CHI_HI - CHI_LO
    s = np.asarray(smooth_step(t))
    return np.subtract(1.0, s, out=s)[()]


def phi_profile(r):
    """Radial bump phi(r) = chi(r/2) - chi(r), supported in [3/4, 8/3]."""
    r = np.asarray(r, dtype=np.float64)
    return chi_profile(r / 2.0) - chi_profile(r)


@dataclass
class DyadicPartition:
    """Tabulated shell weights w_q(k) with exact partition of unity.

    Interior shells carry phi(2^-q |k|); the boundary shells q_min and
    q_max absorb the telescoping tails (sum_{j<=q_min} and sum_{j>=q_max}),
    so sum_q w_q(k) = 1 exactly for every nonzero resolved k.  ``stack``
    holds w_q at index q - q_min, read-only.
    """

    grid: Grid
    q_min: int
    q_max: int
    stack: np.ndarray = field(repr=False)

    def shells(self) -> range:
        return range(self.q_min, self.q_max + 1)

    def weight(self, q: int) -> np.ndarray:
        if q < self.q_min or q > self.q_max:
            raise ValueError(f"shell index {q} outside [{self.q_min}, {self.q_max}]")
        return self.stack[q - self.q_min]

    def lowpass_weight(self, q: int) -> np.ndarray:
        """Multiplier of S_q = sum_{j<q} Delta_j plus the k=0 mode."""
        w = np.sum(self.stack[: max(q - self.q_min, 0)], axis=0)
        w[(0,) * self.grid.d] = 1.0
        return w

    def partition_sum(self) -> np.ndarray:
        return np.sum(self.stack, axis=0)

    def shell_matrix(self, modes=slice(None)) -> np.ndarray:
        """w_q^2 times ``Grid._parseval_weight`` on the flat ``modes``,
        (modes x shells).  Built per call: a cached copy would double the
        partition's memory."""
        w2 = self.stack.reshape(len(self.stack), -1)[:, modes].T ** 2
        w2 *= self.grid._parseval_weight.reshape(-1, 1)[modes]
        return w2


def build_partition(grid: Grid) -> DyadicPartition:
    """The partition of ``grid``.  Its shell range and read-only weight
    stack are built on first use and kept on that instance, as the grid
    keeps its geometry, so all partitions of one grid share one stack.  The
    grid keeps the weights rather than the partition, which refers to the
    grid: a reference cycle would leave every dropped grid, geometry and
    weights included, to the cycle collector."""
    shells = grid.__dict__.get("_shells")
    if shells is not None:
        return DyadicPartition(grid, *shells)
    kmag = grid.k_magnitude
    resolved = ~grid.nyquist_mask
    resolved[(0,) * grid.d] = False
    if not np.any(resolved):
        raise ValueError("grid has no resolved nonzero modes")
    k_lo = float(np.min(kmag[resolved]))
    k_hi = float(np.max(kmag[resolved]))

    # Smallest shell reaching k_lo, largest shell starting below k_hi.
    q_min = math.ceil(math.log2(k_lo / PHI_HI))
    q_max = math.floor(math.log2(k_hi / PHI_LO))
    if q_max < q_min + 1:
        raise ValueError("grid too small to host two disjoint dyadic shells")

    stack = np.empty((q_max - q_min + 1,) + grid.spectral_shape)
    for i, q in enumerate(range(q_min, q_max + 1)):
        if q == q_min:
            w = chi_profile(kmag / 2.0**(q + 1))
        elif q == q_max:
            w = 1.0 - chi_profile(kmag / 2.0**q)
        else:
            w = phi_profile(kmag / 2.0**q)
        stack[i] = np.where(resolved, w, 0.0)
    # Stored as ``cached_property`` stores, past the frozen dataclass's setattr.
    shells = grid.__dict__["_shells"] = (q_min, q_max, _read_only(stack))
    return DyadicPartition(grid, *shells)


def block(u: SpectralField, q: int) -> SpectralField:
    """Delta_q u: per-mode multiply by the tabulated shell weight."""
    return SpectralField(u.grid, u.coeffs * build_partition(u.grid).weight(q))


def low_pass(u: SpectralField, q: int) -> SpectralField:
    """S_q u: sum of blocks below q plus the mean mode."""
    return SpectralField(u.grid, u.coeffs * build_partition(u.grid).lowpass_weight(q))


def bony_decompose(u: SpectralField, v: SpectralField):
    """Bony split of the (dealiased) cross product u x v into (T_u v, T_v u, R).

    T_u v = sum_q S_{q-1} u Delta_q v and R = sum_q Delta_q u
    (Delta_{q-1} + Delta_q + Delta_{q+1}) v, with shell indices clipped to
    the resolved range.  Both paraproducts keep the argument order u-then-v
    (the second is sum_q Delta_q u S_{q-1} v), so the antisymmetric cross
    product reconstructs exactly.  The mean-mean product is folded into R's
    k=0 mode so the three parts reconstruct the dealiased product exactly.
    """
    if u.grid != v.grid:
        raise ValueError("fields live on different grids")
    grid = u.grid
    part = build_partition(grid)
    t_uv = SpectralField.zeros(grid)
    t_vu = SpectralField.zeros(grid)
    r_uv = SpectralField.zeros(grid)
    for q in part.shells():
        dq_v = block(v, q)
        dq_u = block(u, q)
        t_uv = t_uv + pointwise_product(low_pass(u, q - 1), dq_v)
        t_vu = t_vu + pointwise_product(dq_u, low_pass(v, q - 1))
        tilde = SpectralField.zeros(grid)
        for j in (q - 1, q, q + 1):
            if part.q_min <= j <= part.q_max:
                tilde = tilde + block(v, j)
        r_uv = r_uv + pointwise_product(dq_u, tilde)
    # Mean-mean cross term is covered by none of the three sums.
    zero = (0,) * grid.d
    r_uv.coeffs[(slice(None),) + zero] += np.cross(u.mean(), v.mean())
    return t_uv, t_vu, r_uv


@dataclass(frozen=True)
class NormSpec:
    """Parameters selecting one of the hybrid / Besov / space-time norms.

    s: low-frequency regularity (shells q <= 0)
    t: high-frequency regularity (shells q > 0)
    alpha: logarithmic weight power on high shells
    time_exponent: r' in {1, 2, inf} for space-time norms
    tilde: per-shell time norm before the shell sum (Chemin-Lerner)
    """

    s: float
    t: float
    alpha: float = 0.0
    time_exponent: float = np.inf
    tilde: bool = False

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")

    @classmethod
    def sobolev(cls, s: float, **kw) -> "NormSpec":
        """Shorthand H^s = H^{s,s}_0."""
        return cls(s=s, t=s, alpha=0.0, **kw)

    @classmethod
    def sobolev_log(cls, s: float, **kw) -> "NormSpec":
        """Shorthand H^s_log = H^{s,s}_1."""
        return cls(s=s, t=s, alpha=1.0, **kw)

    def shell_weight_sq(self, q):
        """Squared weight of shell q (an int or an array of them) in the
        two-sum norm formula."""
        q = np.asarray(q, dtype=np.float64)
        return np.where(q <= 0, 4.0 ** (q * self.s),
                        np.abs(q) ** self.alpha * 4.0 ** (q * self.t))


def _shell_l2(power: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """||Delta_q u||_{L^2} per shell from the per-mode power (... x modes)
    and rows of ``DyadicPartition.shell_matrix`` (modes x shells)."""
    return np.sqrt(power @ weights)


def _mode_power(amps: np.ndarray) -> np.ndarray:
    """sum_c |a_c|^2 of amplitudes (..., 3, modes)."""
    return np.sum(amps.real**2 + amps.imag**2, axis=-2)


def _weighted_l2(rows: np.ndarray, q_values, spec: NormSpec):
    """sqrt(sum_q shell_weight_sq(q) rows_q^2) along the last axis: the
    hybrid norm ``spec`` from shell L^2 norms, of the grid or the lattice."""
    return np.sqrt(rows**2 @ spec.shell_weight_sq(q_values))


def _besov_l1(rows: np.ndarray, q_values, s: float) -> float:
    """sum_q 2^{qs} rows_q: the B^s_{2,1} norm from shell L^2 norms, of
    the grid or the lattice."""
    qs = np.asarray(q_values, dtype=float)
    return float(np.sum(2.0 ** (qs * s) * rows))


def _block_l2(u: SpectralField) -> np.ndarray:
    """Array of ||Delta_q u||_{L^2} over the shell range."""
    return _shell_l2(_mode_power(u.coeffs.reshape(3, -1)),
                     build_partition(u.grid).shell_matrix())


def norm_hst(u: SpectralField, spec: NormSpec) -> float:
    """The hybrid Sobolev norm: sqrt of
    sum_{q<=0} 2^{2qs} ||Delta_q u||^2 + sum_{q>0} q^alpha 2^{2qt} ||Delta_q u||^2,
    with the k=0 mode excluded (homogeneous norm)."""
    return float(_weighted_l2(_block_l2(u), build_partition(u.grid).shells(), spec))


def norm_besov(u: SpectralField, s: float) -> float:
    """Homogeneous Besov norm B^s_{2,1}: the sum over shells of
    2^{qs} ||Delta_q u||_{L^2}."""
    return _besov_l1(_block_l2(u), build_partition(u.grid).shells(), s)


# ---------------------------------------------------------------------------
# Space-time norms over shell-norm time series.


@dataclass
class ShellSeries:
    """Per-shell L^2 block norms sampled on a uniform time grid.

    ``block_l2`` has shape (n_times, n_shells); ``linf`` optionally carries
    the physical sup-norm time series for mixed L^r_T L^infty norms.
    """

    times: np.ndarray
    q_values: np.ndarray
    block_l2: np.ndarray
    linf: np.ndarray | None = None


def shell_series(amps: np.ndarray, times, grid: Grid, with_linf: bool = False) -> ShellSeries:
    """Reduce samples of a real field on ``grid``, stacked amplitudes
    (times, 3, *spectral_shape), to per-shell norm time series.  Per chunk
    of times the reduction is one product with ``shell_matrix`` and, with
    ``with_linf``, one ``grid._sup_series``."""
    times = np.asarray(times, dtype=float)
    if len(amps) != len(times) or len(times) < 2:
        raise ValueError("need >= 2 samples with matching times")
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-10, atol=1e-14):
        raise ValueError("time grid must be uniform")
    part = build_partition(grid)
    rows = []
    weights = part.shell_matrix()
    for chunk in _time_chunks(amps, 3 * grid.n**grid.d):
        rows.append(_shell_rows(chunk, grid, weights, with_linf))
    return _series_of_rows(times, part.shells(), rows)


def _shell_rows(amps: np.ndarray, grid: Grid, weights: np.ndarray, with_linf: bool):
    """(block_l2, linf) rows of one chunk of stacked amplitudes
    (times, 3, *spectral_shape): one product with ``weights``, the grid's
    ``shell_matrix``, and with ``with_linf`` one ``grid._sup_series``
    (else None)."""
    rows = _shell_l2(_mode_power(amps.reshape(len(amps), 3, -1)), weights)
    return rows, (_sup_series(amps, grid) if with_linf else None)


def _series_of_rows(times: np.ndarray, shells: range, rows: list) -> ShellSeries:
    """The ``ShellSeries`` of consecutive chunks' ``_shell_rows`` over
    ``shells``, a partition's shell range."""
    block_l2, linf = zip(*rows)
    return ShellSeries(
        times=times,
        q_values=np.array(shells),
        block_l2=np.vstack(block_l2),
        linf=None if linf[0] is None else np.concatenate(linf),
    )


def time_lebesgue(values: np.ndarray, times: np.ndarray, r):
    """L^r norm in time by trapezoidal quadrature (max for r = inf) along
    the first axis: a float for one series, one norm per column for a
    (times x shells) table."""
    values = np.asarray(values, dtype=float)
    if r == np.inf:
        out = np.max(values, axis=0)
    elif r == 1:
        out = np.trapezoid(values, times, axis=0)
    elif r == 2:
        out = np.sqrt(np.trapezoid(values**2, times, axis=0))
    else:
        raise ValueError(f"unsupported time exponent {r!r}")
    return float(out) if out.ndim == 0 else out


def spacetime_norm_from_series(series: ShellSeries, spec: NormSpec) -> float:
    """Space-time norm from a shell series.

    tilde=True: time norm per shell, then the weighted l^2 shell sum.
    tilde=False: spatial norm per sample, then the time norm.
    """
    r = spec.time_exponent
    if spec.tilde:
        per_shell = time_lebesgue(series.block_l2, series.times, r)
        return float(_weighted_l2(per_shell, series.q_values, spec))
    spatial = _weighted_l2(series.block_l2, series.q_values, spec)
    return time_lebesgue(spatial, series.times, r)

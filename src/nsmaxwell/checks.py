"""Numerical checkers for the norm inequalities the solver relies on.

Each checker measures both sides of one inequality on concrete data and
reports the ratio LHS/RHS; implicit constants are measured, never assumed.
Time-dependent inputs for the product-law and decay checkers are
*separable* trajectories u(t, x) = e^{-rate t} U(x), so every space-time
norm factorizes into (spatial norm) x (closed-form envelope integral) and
arbitrarily long windows cost nothing.  The decaying envelope also makes
all time integrals converge within t = O(1), so a window sweep
T in {1, 10, 100} probes the T-independence of the constants rather than
the convergence of the integrals.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Grid,
    SpectralField,
    _dealiased_physical,
    _half_spectral,
    _sup_series,
    _time_chunks,
    leray_project,
    lp_norm_physical,
    pointwise_product,
)
from .dyadic import (
    DyadicPartition,
    NormSpec,
    ShellSeries,
    _block_l2,
    _mode_power,
    _shell_l2,
    _weighted_l2,
    bony_decompose,
    build_partition,
    low_pass,
    norm_besov,
    norm_hst,
    spacetime_norm_from_series,
    time_lebesgue,
)
from .propagators import PropagatorTable, _maxwell_coefficients, _maxwell_modes, _trapezoid
from .system import step_count
from .ensembles import FieldEnsembleSpec, gen_field
from .latticeblocks import (
    besov_norm as lattice_besov,
    hst_from_shells,
    hst_norm as lattice_hst,
    l2_norm as lattice_l2,
    bony_paraproducts,
    criticality_packets,
    real_pair,
    remainder_cluster_stats,
    shell_norms as lattice_shell_norms,
)

__all__ = [
    "EstimateReport",
    "SeparableTrajectory",
    "envelope_time_norm",
    "separable_product",
    "check_l2linfty",
    "concentrated_packet",
    "check_maxwell_energy_decay",
    "check_product_law",
    "product_law_report",
    "log_criticality_experiment",
    "fast_eigenmode_state",
    "heat_forced_coeffs",
    "write_reports_jsonl",
    "write_reports_csv",
    "fit_growth_exponent",
]


# ---------------------------------------------------------------------------
# Reports.


@dataclass
class EstimateReport:
    """Measured LHS/RHS pairs for one inequality on one ensemble."""

    estimate_id: str
    params: dict
    lhs: list = field(default_factory=list)
    rhs: list = field(default_factory=list)
    bound: float | None = None

    def add_sample(self, lhs: float, rhs: float) -> None:
        if lhs < 0 or rhs < 0:
            raise ValueError("norms must be nonnegative")
        self.lhs.append(float(lhs))
        self.rhs.append(float(rhs))

    @property
    def ratios(self) -> list:
        out = []
        for l, r in zip(self.lhs, self.rhs):
            if r == 0.0:
                if l != 0.0:
                    raise ValueError("nonzero LHS with zero RHS")
                continue
            out.append(l / r)
        return out

    @property
    def max_ratio(self) -> float:
        # np.max, not max: a NaN ratio must fail the bound wherever it sits.
        rs = self.ratios
        return float(np.max(rs)) if rs else 0.0

    @property
    def median_ratio(self) -> float:
        rs = self.ratios
        return statistics.median(rs) if rs else 0.0

    @property
    def passed(self) -> bool:
        return self.bound is None or self.max_ratio <= self.bound

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "estimate_id": self.estimate_id,
                "params": self.params,
                "lhs": self.lhs,
                "rhs": self.rhs,
                "max_ratio": self.max_ratio,
                "median_ratio": self.median_ratio,
                "bound": self.bound,
                "pass": self.passed,
            },
            sort_keys=True,
        )

    def csv_row(self) -> str:
        params = ";".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        bound = "" if self.bound is None else repr(self.bound)
        return (
            f"{self.estimate_id},{params},{self.max_ratio!r},"
            f"{bound},{int(self.passed)}"
        )


CSV_HEADER = "estimate_id,params,max_ratio,bound,pass"


def write_reports_jsonl(reports, path) -> None:
    with open(path, "w") as fh:
        for r in reports:
            fh.write(r.to_json_line() + "\n")


def write_reports_csv(reports, path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in reports:
            fh.write(r.csv_row() + "\n")


# ---------------------------------------------------------------------------
# Separable trajectories.

# The decay rate of every separable trajectory built from one field; the
# pinned product-law bounds were measured at it.
SEPARABLE_RATE = 2.0


def envelope_time_norm(rate: float, T: float, p) -> float:
    """L^p(0, T) norm of e^{-rate t} in closed form, for any real rate."""
    if p == np.inf:
        return max(1.0, math.exp(-rate * T))
    if rate == 0:
        if p == 1:
            return T
        if p == 2:
            return math.sqrt(T)
        raise ValueError(f"unsupported time exponent {p!r}")
    if p == 1:
        return (1.0 - math.exp(-rate * T)) / rate
    if p == 2:
        return math.sqrt((1.0 - math.exp(-2.0 * rate * T)) / (2.0 * rate))
    raise ValueError(f"unsupported time exponent {p!r}")


@dataclass
class SeparableTrajectory:
    """u(t, x) = e^{-rate t} field(x); norms factorize exactly.

    Both the plain and the Chemin-Lerner space-time norms of a separable
    trajectory equal (spatial norm) x (envelope L^p(0,T) norm), so
    ``spacetime`` evaluates either in closed form.
    """

    field: SpectralField
    rate: float = SEPARABLE_RATE

    def spacetime(self, spec: NormSpec, T: float) -> float:
        return norm_hst(self.field, spec) * envelope_time_norm(
            self.rate, T, spec.time_exponent
        )

    def besov_spacetime(self, s: float, time_p, T: float) -> float:
        return norm_besov(self.field, s) * envelope_time_norm(
            self.rate, T, time_p
        )

    def linf_spacetime(self, time_p, T: float) -> float:
        return lp_norm_physical(self.field, np.inf) * envelope_time_norm(
            self.rate, T, time_p
        )


def separable_product(a: SeparableTrajectory, b: SeparableTrajectory) -> SeparableTrajectory:
    """Cross product of separable trajectories (rates add)."""
    return SeparableTrajectory(
        field=pointwise_product(a.field, b.field),
        rate=a.rate + b.rate,
    )


# ---------------------------------------------------------------------------
# Forced heat flow (closed-form per mode, no quadrature error in the solve).
# Closed-form time axes: a linear flow that is exact per mode is evaluated at
# a chunk of sample times per array operation (``grid._time_chunks``).


def _heat_forced(ksq, u0, forcings, t):
    """Per-mode solution at time t of u_t + ksq u = sum_i e^{-rate_i t} F_i
    with u(0) = u0; ``forcings`` holds (amplitudes, rate) pairs.  All
    arguments broadcast, so ``t`` may carry a time axis.

    e^{-t ksq} is exponentiated once, in place, and serves the decay of u0
    and the factor of every forcing,
    (e^{-rate t} - e^{-t ksq}) / (ksq - rate), or t e^{-t ksq} where
    ksq = rate; the forcing terms are added into the result in place."""
    decay = np.multiply(-t, ksq)
    np.exp(decay, out=decay)
    out = u0 * decay
    for F, lam in forcings:
        denom = ksq - lam
        near = np.abs(denom) < 1e-12
        factor = np.exp(-lam * t) - decay
        factor /= np.where(near, 1.0, denom)
        if near.any():
            np.copyto(factor, t * decay, where=near)
        out += F * factor
    return out


def heat_forced_coeffs(u0: SpectralField, forcings, t: float) -> SpectralField:
    """Solution at time t of u_t - Lap u = sum_i e^{-rate_i t} F_i.

    ``forcings`` is a list of (SpectralField, rate) pairs.  Per mode the
    Duhamel integral of an exponential envelope has a closed form, so the
    solve is exact.
    """
    amps = [(F.coeffs, lam) for F, lam in forcings]
    return SpectralField(u0.grid, _heat_forced(u0.grid.k_squared(), u0.coeffs, amps, t))


def concentrated_packet(grid: Grid, q: int) -> SpectralField:
    """Real modulated Gaussian wave packet at shell ~q in the third
    component: one spatial bump per box, spectrum centered at
    |k| = 1.25 * 2^q with width 0.25 * 2^q.

    Unlike a random shell field (which fills the box), the packet is the
    periodization of a single dilated bump, so all of its norms scale as
    they do on the whole space: ||.||_{L^inf} ~ 2^{qd/2} ||.||_{L^2}
    (Bernstein saturated).  The box must resolve the packet: the lattice
    spacing 2*pi/L should be well below 0.25 * 2^q.
    """
    ks = grid.wavevectors()
    c = np.zeros(grid.d)
    c[0] = 1.25 * 2.0**q
    sigma = 0.25 * 2.0**q

    def bump(sign):  # the Gaussian g(sign k)
        return np.exp(-sum((sign * ks[a] - c[a]) ** 2 for a in range(grid.d))
                      / (2.0 * sigma**2))

    coeffs = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
    coeffs[2] = 0.5 * (bump(1.0) + bump(-1.0))  # the real part of g
    f = SpectralField(grid, coeffs)
    f.dealias()
    return f


def check_l2linfty(u0: SpectralField, f1, f2, T: float, dt: float = 0.01,
                   part: DyadicPartition | None = None) -> EstimateReport:
    """Smoothing estimate ||u||_{L^2_T L^inf} against the three data norms.

    f1, f2 are None or (SpectralField, rate): forcing pieces measured in
    L^1_T H^{d/2-1} and tilde-L^2_T B^{d/2-2}_{2,1} respectively; the heat
    solve sees their sum.

    The sup series at t_n = n dt (T must be a multiple of dt) comes from
    the closed-form solution, a chunk of times per ``_sup_series``.  Only
    the components that are nonzero in u0 or in some forcing are
    transformed: the heat flow acts componentwise, so the others stay
    zero.  ``part``, if given, must be a partition of u0's grid.
    """
    grid = u0.grid
    d = grid.d
    if part is not None and part.grid != grid:
        raise ValueError(f"the partition lies on {part.grid}, the data on {grid}")
    forcings = [f for f in (f1, f2) if f is not None]
    times = np.arange(step_count(T, dt) + 1) * dt
    data = [u0] + [F for F, _ in forcings]
    comps = [c for c in range(3) if any(np.any(f.coeffs[c]) for f in data)] or [0]
    ksq = grid.k_squared()
    amps = [(F.coeffs[comps], lam) for F, lam in forcings]
    sup_series = np.concatenate([
        _sup_series(_heat_forced(ksq, u0.coeffs[comps], amps,
                                 t.reshape((-1,) + (1,) * (d + 1))), grid)
        for t in _time_chunks(times, len(comps) * ksq.size)
    ])
    lhs = time_lebesgue(sup_series, times, 2)

    spec = NormSpec.sobolev(d / 2.0 - 1.0)
    rhs = norm_hst(u0, spec)
    if f1 is not None:
        F, lam = f1
        rhs += norm_hst(F, spec) * envelope_time_norm(lam, T, 1)
    if f2 is not None:
        F, lam = f2
        rhs += norm_besov(F, d / 2.0 - 2.0) * envelope_time_norm(lam, T, 2)
    report = EstimateReport("l2-linfty", {"T": T, "dt": dt, "d": d})
    report.add_sample(lhs, rhs)
    return report


# ---------------------------------------------------------------------------
# Damped Maxwell energy / decay.


def fast_eigenmode_state(grid: Grid, rng: np.random.Generator,
                         k_max: float = 0.3):
    """Random (E, B) supported on modes |k| < 1/2, projected per mode onto
    the faster-decaying eigenvector of the damped transverse system.

    Every excited mode then decays with rate >= 3/4, so all time integrals
    of the evolution converge within t = O(1); window sweeps probe
    constants, not unconverged integrals.  Requires a box large enough to
    resolve |k| < 1/2.
    """
    # The selected modes of the whole lattice in FFT index order, which
    # fixes the order of the random draws.
    k_axis, k_cut = grid._axis_modes[0] * grid.k0, min(k_max, 0.499)
    near = np.flatnonzero((np.abs(k_axis) < k_cut) & (np.arange(grid.n) != grid.n // 2))
    idx = np.array(list(itertools.product(near, repeat=grid.d)), dtype=int)
    kvec = np.zeros((len(idx), 3))
    kvec[:, : grid.d] = k_axis[idx]
    kmag = np.sqrt(kvec[:, 0] ** 2 + kvec[:, 1] ** 2 + kvec[:, 2] ** 2)
    sel = (kmag > 0) & (kmag < k_cut)
    if not np.any(sel):
        raise ValueError("box too small: no modes with |k| < 1/2")
    E = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
    Bc = np.zeros_like(E)
    for ind, kv, k in zip(idx[sel], kvec[sel], kmag[sel]):
        lam = -0.5 - math.sqrt(0.25 - k * k)
        kh = kv / k
        # Random transverse polarization (complex, orthogonal to k).
        p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p -= kh * np.dot(kh, p)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        F = (1.0 + lam) * amp * p
        # The real part: half the amplitude at k, half its conjugate at -k.
        for out, value in ((E, k * amp * p), (Bc, 1j * np.cross(kh, F))):
            for at, c in ((ind, value), (-ind % grid.n, np.conj(value))):
                if at[-1] <= grid.n // 2:
                    out[(slice(None),) + tuple(at)] += 0.5 * c
    Ef = SpectralField(grid, E)
    Bf = SpectralField(grid, Bc)
    for f in (Ef, Bf):
        f.dealias()
    return Ef, leray_project(Bf)


def _free_maxwell_rows(E0: SpectralField, B0: SpectralField, times: np.ndarray):
    """Shell rows ||Delta_q E(t)||, ||Delta_q B(t)|| of the unforced
    damped-Maxwell group at ``times`` (times[0] = 0), from its exact
    per-mode solution.

    Row 0 is the data itself, longitudinal part of B0 included; the group
    drops that part from later rows.  No selected mode is k = 0, which no
    shell weighs.
    """
    grid, part = E0.grid, build_partition(E0.grid)
    # The modes with power in E0 or B0 and weight in some shell.
    power = _mode_power(E0.coeffs.reshape(3, -1)) + _mode_power(B0.coeffs.reshape(3, -1))
    idx = np.flatnonzero((power > 0) & (part.partition_sum().ravel() > 0))
    khat, E, B = (c.reshape(len(c), -1)[:, idx]
                  for c in (grid._unit_wavevectors, E0.coeffs, B0.coeffs))
    ksq, w2 = grid.k_squared().ravel()[idx], part.shell_matrix(idx)
    rows_E, rows_B = [_block_l2(E0)[None]], [_block_l2(B0)[None]]
    for t in _time_chunks(times[1:], 3 * ksq.size):
        a11, a12, a22 = _maxwell_coefficients(ksq, t[:, None])
        E_t, B_t = _maxwell_modes(khat, E, B, a11, 1j * a12, a22, np.exp(-t)[:, None])
        rows_E.append(_shell_l2(_mode_power(E_t), w2))
        rows_B.append(_shell_l2(_mode_power(B_t), w2))
    return np.vstack(rows_E), np.vstack(rows_B)


def check_maxwell_energy_decay(E0: SpectralField, B0: SpectralField, G,
                               T: float, dt: float, alpha: float,
                               part: DyadicPartition | None = None):
    """Damped Maxwell with forcing G(t) = e^{-rate t} G0 in the E equation.

    Returns (energy_report, decay_report): the first bounds
    ||E||_{tilde-Linf ^ L2} + ||B||_{tilde-Linf} in H^{d/2-1}_alpha, the
    second bounds ||B||_{L2 H^{d/2, d/2-1}_alpha}; both against
    ||(E0,B0)||_{H^{d/2-1}_alpha} + ||G||_{L2_T H^{d/2-1}_alpha}.

    The shell norms are sampled at t_n = n dt; T must be a multiple of dt.
    Without forcing they come from the exact group at every t_n at once;
    with forcing the group is stepped and the Duhamel integral of G taken
    by the exponential trapezoid rule, one ``_trapezoid`` per step.
    ``part``, if given, must be a partition of E0's grid.
    """
    grid = E0.grid
    d = grid.d
    if part is not None and part.grid != grid:
        raise ValueError(f"the partition lies on {part.grid}, the data on {grid}")
    n_steps = step_count(T, dt)
    times = np.arange(n_steps + 1) * dt

    if G is None:
        rows_E, rows_B = _free_maxwell_rows(E0, B0, times)
    else:
        G0, rate = G
        table = PropagatorTable.build(grid, dt)
        E, B, g = E0.coeffs.copy(), B0.coeffs.copy(), G0.coeffs
        weights = build_partition(grid).shell_matrix()
        rows = [(_block_l2(E0), _block_l2(B0))]
        for n in range(n_steps):
            # The exponential trapezoid for the forcing Duhamel integral.
            _trapezoid(table.apply_maxwell, (E, B),
                       (g * (0.5 * dt * math.exp(-rate * times[n])),),
                       (g * (0.5 * dt * math.exp(-rate * times[n + 1])),), (E, B))
            rows.append(tuple(_shell_l2(_mode_power(a.reshape(3, -1)), weights)
                              for a in (E, B)))
        rows_E, rows_B = np.array(rows).transpose(1, 0, 2)
    q_values = np.array(build_partition(grid).shells())
    series_E, series_B = (ShellSeries(times, q_values, r) for r in (rows_E, rows_B))
    spec_data = NormSpec(d / 2.0 - 1.0, d / 2.0 - 1.0, alpha, np.inf, tilde=True)
    spec_l2 = NormSpec(d / 2.0 - 1.0, d / 2.0 - 1.0, alpha, 2, tilde=True)
    spec_decay = NormSpec(d / 2.0, d / 2.0 - 1.0, alpha, 2, tilde=True)

    lhs_energy = (spacetime_norm_from_series(series_E, spec_data)
                  + spacetime_norm_from_series(series_E, spec_l2)
                  + spacetime_norm_from_series(series_B, spec_data))
    lhs_decay = spacetime_norm_from_series(series_B, spec_decay)

    rhs = math.sqrt(
        norm_hst(E0, spec_data) ** 2 + norm_hst(B0, spec_data) ** 2
    )
    if G is not None:
        rhs += norm_hst(G0, spec_data) * envelope_time_norm(rate, T, 2)

    params = {"T": T, "dt": dt, "alpha": alpha, "d": d}
    energy = EstimateReport("maxwell-energy", dict(params))
    energy.add_sample(lhs_energy, rhs)
    decay = EstimateReport("maxwell-b-decay", dict(params))
    decay.add_sample(lhs_decay, rhs)
    return energy, decay


# ---------------------------------------------------------------------------
# Product laws.

PRODUCT_LAW_IDS = (
    "est1-2D",
    "est4-2D",
    "est3-uB-2D",
    "est1-3D",
    "est4-3D",
    "est3-uB-3D",
)

# Regression-pinned ratio bounds: first measured max ratio x 1.5 safety
# factor, on the reference ensembles (seed 0, 20 samples, slope 2,
# n = 128 in 2D / 64 in 3D, T = 100, separable rate 2).
PINNED_BOUNDS = {
    "est1-2D": 0.307918,
    "est4-2D": 0.149395,
    "est3-uB-2D": 0.112186,
    "est1-3D": 0.0205801,
    "est4-3D": 0.0575577,
    "est3-uB-3D": 0.00814992,
}


def _tensor_gradient_power(u: SpectralField, v: SpectralField) -> np.ndarray:
    """Sum over i,j,l of |FT[d_l(u_i v_j)]|^2 per mode (dealiased)."""
    grid = u.grid
    up, vp = _dealiased_physical(u), _dealiased_physical(v)
    power = np.zeros(grid.spectral_shape)
    for i in range(3):
        c = _half_spectral(grid, up[i] * vp)
        power += np.sum(np.abs(c) ** 2, axis=0)
    return grid.k_squared() * power


def _power_l2(power: np.ndarray, grid: Grid) -> float:
    """L^2 norm from the per-mode power, by Parseval."""
    return math.sqrt(float(np.sum(grid._parseval_weight * power)))


def check_product_law(estimate_id: str, T: float, a: SeparableTrajectory,
                      b: SeparableTrajectory) -> EstimateReport:
    """One sample of one of the six bilinear estimates on the factors
    (a, b): (u, v) for est1, (E, B) for est4 and (u, B) for est3-uB.
    LHS sum-space norms use the paraproduct-induced split (an upper bound
    for the true infimum, and the split the estimates are proved through);
    the norm of an intersection space is the sum of its pieces."""
    if estimate_id not in PRODUCT_LAW_IDS:
        raise ValueError(f"unknown estimate id {estimate_id!r}")
    grid = a.field.grid
    d = grid.d
    report = EstimateReport(estimate_id, {"T": T, "d": d})

    if estimate_id.startswith("est1"):
        power = _tensor_gradient_power(a.field, b.field)
        env = envelope_time_norm(a.rate + b.rate, T, 1)
        if d == 2:
            lhs = _power_l2(power, grid) * env
            s_high = 1.0
        else:
            part = build_partition(grid)
            rows = _shell_l2(power.ravel(), part.shell_matrix())
            lhs = float(_weighted_l2(rows, part.shells(), NormSpec.sobolev(0.5))) * env
            s_high = 1.5
        rhs = 1.0
        for traj in (a, b):
            rhs *= (traj.linf_spacetime(2, T)
                    + traj.spacetime(NormSpec.sobolev(s_high, time_exponent=2), T))
        report.add_sample(lhs, rhs)
        return report

    if estimate_id.startswith("est4"):
        if d == 2:
            t_eb, t_be, r = bony_decompose(a.field, b.field)
            rate = a.rate + b.rate
            env2 = envelope_time_norm(rate, T, 2)
            env1 = envelope_time_norm(rate, T, 1)
            lhs = (
                norm_besov(t_eb + t_be, -1.0) * env2
                + lp_norm_physical(low_pass(r, 2), 2) * env1
                + norm_besov(r - low_pass(r, 2), -1.0) * env2
            )
            rhs = a.spacetime(NormSpec.sobolev_log(0.0, time_exponent=2), T) * (
                b.spacetime(NormSpec.sobolev_log(0.0), T)
                + b.spacetime(NormSpec(1.0, 0.0, 0.0, time_exponent=2), T)
            )
        else:
            prod = separable_product(a, b)
            lhs = prod.besov_spacetime(-0.5, 2, T)
            rhs = a.spacetime(NormSpec.sobolev(0.5, time_exponent=2), T) * (
                b.spacetime(NormSpec.sobolev(0.5), T)
            )
        report.add_sample(lhs, rhs)
        return report

    # est3-uB
    prod = separable_product(a, b)
    if d == 2:
        lhs = prod.spacetime(NormSpec.sobolev_log(0.0, time_exponent=2), T)
        rhs = (a.linf_spacetime(2, T)
               + a.spacetime(NormSpec.sobolev(1.0, time_exponent=2), T)
               ) * b.spacetime(NormSpec.sobolev_log(0.0), T)
    else:
        lhs = prod.spacetime(NormSpec.sobolev(0.5, time_exponent=2), T)
        rhs = (a.linf_spacetime(2, T)
               + a.spacetime(NormSpec.sobolev(1.5, time_exponent=2), T)
               ) * b.spacetime(NormSpec.sobolev(0.5), T)
    report.add_sample(lhs, rhs)
    return report


def product_law_report(estimate_id: str, spec: FieldEnsembleSpec, T: float,
                       bound: float | None = None) -> EstimateReport:
    """Ensemble version: pairs of random fields as separable trajectories
    at ``SEPARABLE_RATE``."""
    rng = np.random.default_rng(spec.seed)
    merged = EstimateReport(
        estimate_id,
        {"T": T, "seed": spec.seed, "count": spec.count, "slope": spec.slope},
        bound=bound,
    )
    for _ in range(spec.count):
        a = SeparableTrajectory(gen_field(spec.grid, rng, spec.slope, None, True))
        b = SeparableTrajectory(gen_field(spec.grid, rng, spec.slope, None, False))
        sample = check_product_law(estimate_id, T, a, b)
        merged.add_sample(sample.lhs[0], sample.rhs[0])
    return merged


# ---------------------------------------------------------------------------
# Logarithmic criticality (2D): sparse-lattice route, shells up to q = 12+.


def log_criticality_experiment(q_values, seed: int | None = 0,
                               T: float = 100.0) -> list:
    """Ratio curves of the 2D cross-product estimate over a shell sweep,
    both factors decaying at ``SEPARABLE_RATE``.

    For each q, both factors are superpositions of shell-q wave packets
    whose pairwise products are localized bumps with flat spectra spread
    evenly over all output scales — the interaction that drives the
    logarithmic loss.  Returns rows of (q, lhs, rhs_unweighted,
    rhs_weighted, ratio_unweighted, ratio_weighted).  All norms are exact
    lattice sums; no grid, no aliasing.
    """
    rng = None if seed is None else np.random.default_rng(seed)
    env2 = envelope_time_norm(2.0 * SEPARABLE_RATE, T, 2)
    env1 = envelope_time_norm(2.0 * SEPARABLE_RATE, T, 1)
    envf2 = envelope_time_norm(SEPARABLE_RATE, T, 2)
    rows = []
    for q in q_values:
        p_list, b_list = criticality_packets(q, rng)
        t_ab, t_ba = bony_paraproducts(p_list, b_list)
        s2r, comp = remainder_cluster_stats(p_list, b_list,
                                            t_blocks=t_ab + t_ba)
        lhs = (
            lattice_besov(t_ab + t_ba, -1.0) * env2
            + s2r * env1
            + sum(2.0 ** (-j) * v for j, v in comp.items()) * env2
        )
        a_blocks = [blk for pb in p_list for blk in real_pair(pb)]
        b_blocks = [blk for qb in b_list for blk in real_pair(qb)]
        b_shells = lattice_shell_norms(b_blocks)
        b_h10 = hst_from_shells(b_shells, 1.0, 0.0, 0.0)
        rhs_unw = envf2 * lattice_l2(a_blocks) * (
            lattice_l2(b_blocks) + envf2 * b_h10
        )
        rhs_w = (
            envf2
            * lattice_hst(a_blocks, 0.0, 0.0, 1.0)
            * (hst_from_shells(b_shells, 0.0, 0.0, 1.0) + envf2 * b_h10)
        )
        rows.append((q, lhs, rhs_unw, rhs_w, lhs / rhs_unw, lhs / rhs_w))
    return rows


def fit_growth_exponent(q_values, ratios) -> float:
    """Slope of log(ratio) against log(q): > 0 means superconstant growth.
    Raises ValueError on fewer than two distinct q, which fix no slope."""
    x = np.log(np.asarray(q_values, dtype=float))
    if np.unique(x).size < 2:
        raise ValueError("a growth exponent needs at least two distinct shells")
    y = np.log(np.asarray(ratios, dtype=float))
    return float(np.polyfit(x, y, 1)[0])

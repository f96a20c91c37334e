"""The coupled Navier-Stokes-Maxwell system: nonlinearity, Ohm's law,
energy diagnostics, the time-stepping driver, the fixed-point (Picard)
iteration with Z-norm bookkeeping, and the frequency splitting of initial
data."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import (
    SpectralField,
    Grid,
    _dealiased_physical,
    _dealiased_spectral,
    _phys_cross,
    leray_project,
    lp_norm_physical,
    pointwise_product,
)
from .dyadic import (
    DyadicPartition,
    NormSpec,
    build_partition,
    low_pass,
    norm_hst,
    shell_series,
    spacetime_norm_from_series,
    time_lebesgue,
)
from .propagators import PropagatorTable, duhamel_step

__all__ = [
    "MhdState",
    "Trajectory",
    "ZNorm",
    "ohm_current",
    "nonlinearity",
    "energy_report",
    "march",
    "simulate",
    "step_count",
    "picard_iterate",
    "z_norm",
    "split_initial_data",
    "taylor_green_velocity",
]

SIGMA = 1.0
NU = 1.0


class InconsistentStateError(ValueError):
    pass


@dataclass
class MhdState:
    """The triple (v, E, B) at one time; v and B divergence-free."""

    v: SpectralField
    E: SpectralField
    B: SpectralField
    time: float = 0.0

    @property
    def grid(self) -> Grid:
        return self.v.grid

    @classmethod
    def zeros(cls, grid: Grid, time: float = 0.0) -> "MhdState":
        return cls(
            v=SpectralField.zeros(grid),
            E=SpectralField.zeros(grid),
            B=SpectralField.zeros(grid),
            time=time,
        )

    def prepared(self) -> "MhdState":
        """Sanitized copy for use as initial data: Hermitian symmetry and
        Nyquist zeroing enforced, v and B projected, mean of v removed."""
        out = MhdState(self.v.copy(), self.E.copy(), self.B.copy(), self.time)
        for f in (out.v, out.E, out.B):
            f.enforce_hermitian()
            f.zero_nyquist()
            f.dealias()
        out.v = leray_project(out.v)
        out.v.set_mean((0.0, 0.0, 0.0))
        out.B = leray_project(out.B)
        return out

    def divergence_defect(self) -> float:
        """max(||div v||, ||div B||) / max(||v||, ||B||) from the coefficients."""
        ks = self.grid.wavevectors()[: self.grid.d]
        div = [sum(k * c for k, c in zip(ks, f.coeffs)) for f in (self.v, self.B)]
        div_sq = max(np.vdot(c, c).real for c in div)
        norm_sq = max(np.vdot(f.coeffs, f.coeffs).real for f in (self.v, self.B))
        return math.sqrt(div_sq) / max(math.sqrt(norm_sq), 1e-300)

    def scaled(self, factor: float) -> "MhdState":
        return MhdState(factor * self.v, factor * self.E, factor * self.B, self.time)


@dataclass
class Trajectory:
    """Uniformly sampled states; per-step diagnostics on first read."""

    times: np.ndarray
    states: list

    @cached_property
    def diagnostics(self) -> list:
        return [_diagnostics(state) for state in self.states]

    @property
    def grid(self) -> Grid:
        return self.states[0].grid

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def __len__(self) -> int:
        return len(self.states)


@dataclass
class ZNorm:
    """Components of the composite fixed-point norm."""

    u: float
    E: float
    B: float

    @property
    def total(self) -> float:
        return self.u + self.E + self.B


def ohm_current(state: MhdState) -> SpectralField:
    """Ohm's law j = sigma (E + v x B), dealiased."""
    vxB = pointwise_product(state.v, state.B, "cross")
    return SpectralField(state.grid, SIGMA * (state.E.coeffs + vxB.coeffs))


def _divergence_form_advection(v: SpectralField) -> SpectralField:
    """div(v (x) v): component i is sum_j d_j (v_j v_i), dealiased."""
    grid = v.grid
    ks = grid.wavevectors()
    vphys = _dealiased_physical(v)
    coeffs = np.zeros_like(v.coeffs)
    for j in range(grid.d):
        coeffs += 1j * ks[j] * _dealiased_spectral(grid, vphys[j] * vphys).coeffs
    return SpectralField(grid, coeffs)


def nonlinearity(state: MhdState, velocity_form: str = "advection",
                 div_tol: float = 1e-8) -> MhdState:
    """N(Gamma) = (P[-(v.grad)v + E x B + (v x B) x B], -v x B, 0).

    ``velocity_form`` selects the advection form (v.grad)v or the divergence
    form div(v (x) v); the two agree for divergence-free v.

    One pass in physical space: v, E, B and d_i v are transformed back once
    each (2/3-truncated), v x B is transformed forward once for the E slot
    and its truncation transformed back for (v x B) x B, and the momentum
    forcing is summed before its single forward transform.  Each product is
    thus dealiased exactly as a separate ``pointwise_product`` would be.
    """
    defect = state.divergence_defect()
    if defect > div_tol:
        raise InconsistentStateError(
            f"divergence defect {defect:.3e} exceeds {div_tol:.1e}"
        )
    if velocity_form not in ("advection", "divergence"):
        raise ValueError(f"unknown velocity form {velocity_form!r}")
    grid = state.grid
    v, E, B = (_dealiased_physical(f) for f in (state.v, state.E, state.B))
    vxB = _dealiased_spectral(grid, _phys_cross(v, B))
    force = SIGMA * (_phys_cross(E, B) + _phys_cross(_dealiased_physical(vxB), B))
    if velocity_form == "advection":
        for i in range(grid.d):
            force -= v[i] * _dealiased_physical(state.v, i)
        mom = _dealiased_spectral(grid, force)
    else:
        mom = _dealiased_spectral(grid, force) - _divergence_form_advection(state.v)
    return MhdState(
        v=leray_project(mom),
        E=SpectralField(grid, -SIGMA * vxB.coeffs),
        B=SpectralField.zeros(grid),
        time=state.time,
    )


def energy_report(state: MhdState):
    """(energy, enstrophy dissipation, ohmic dissipation):
    1/2 (||v||^2 + ||E||^2 + ||B||^2), ||grad v||^2, ||j||^2."""
    e = 0.5 * (
        lp_norm_physical(state.v, 2) ** 2
        + lp_norm_physical(state.E, 2) ** 2
        + lp_norm_physical(state.B, 2) ** 2
    )
    vol = state.grid.box_length**state.grid.d
    grad_sq = vol * float(
        np.sum(state.grid.k_squared() * np.sum(np.abs(state.v.coeffs) ** 2, axis=0))
    )
    j = ohm_current(state)
    j_sq = lp_norm_physical(j, 2) ** 2
    return e, grad_sq, j_sq


def step_count(T: float, dt: float) -> int:
    """Number of steps of size dt that reach T; ValueError unless
    0 < dt <= T and T is an integer multiple of dt."""
    if not 0 < dt <= T:
        raise ValueError(f"dt = {dt} is not positive or exceeds T = {T}")
    n_steps = round(T / dt)
    if abs(n_steps * dt - T) > 1e-9 * T:
        raise ValueError(f"T = {T} is not an integer multiple of dt = {dt}")
    return n_steps


def march(initial: MhdState, T: float, dt: float, scheme: str = "exp-trapezoid",
          nonlinear: bool = True, velocity_form: str = "advection"):
    """Yield the prepared initial state, then the state after each of the
    T/dt steps of the Duhamel integral equation with exact propagators.

    A nonlinear step is ``duhamel_step``, whose ``BlowupError`` passes out
    of the generator; a linear step is the exact group e^{dt A}.  Raises
    ValueError unless T is an integer multiple of dt.
    """
    n_steps = step_count(T, dt)
    state = initial.prepared()
    grid = state.grid
    if nonlinear:
        # Advisory CFL check only: the exponential integrator is
        # unconditionally linearly stable.
        vmax = lp_norm_physical(state.v, np.inf)
        h = grid.box_length / grid.n
        if vmax * dt > h:
            import warnings

            warnings.warn(f"dt * max|v| = {vmax * dt:.3e} exceeds grid spacing {h:.3e}")

        def nl(s):
            return nonlinearity(s, velocity_form=velocity_form)

    table = PropagatorTable.build(grid, dt)
    yield state
    for step in range(n_steps):
        if nonlinear:
            state = duhamel_step(state, nl, dt, scheme=scheme, table=table,
                                 step_index=step)
        else:
            state = table.apply(state)
        yield state


def simulate(initial: MhdState, T: float, dt: float, scheme: str = "exp-trapezoid",
             nonlinear: bool = True, velocity_form: str = "advection") -> Trajectory:
    """Every state of ``march`` as one trajectory."""
    states = list(march(initial, T, dt, scheme, nonlinear, velocity_form))
    return Trajectory(times=np.array([s.time for s in states]), states=states)


def _diagnostics(state: MhdState) -> dict:
    e, grad_sq, j_sq = energy_report(state)
    return {"time": state.time, "energy": e, "grad_v_sq": grad_sq, "j_sq": j_sq}


# ---------------------------------------------------------------------------
# Fixed-point norms.


def _z_specs(d: int):
    alpha = 1.0 if d == 2 else 0.0
    half = d / 2.0
    return alpha, half


def z_norm(traj: Trajectory, d: int, part: DyadicPartition | None = None) -> ZNorm:
    """The composite solution-space norm with alpha = 1 (d=2) / 0 (d=3):

    Z^u = ||u||_{L2_T H^{d/2}} + ||u||_{L2_T Linf} + ||u||_{tilde-Linf_T H^{d/2-1}}
    Z^E = ||E||_{tilde-Linf_T H^{d/2-1}_a} + ||E||_{L2_T H^{d/2-1}_a}
    Z^B = ||B||_{tilde-Linf_T H^{d/2-1}_a} + ||B||_{L2_T H^{d/2, d/2-1}_a}
    """
    grid = traj.grid
    if grid.d != d:
        raise ValueError("dimension does not match the trajectory grid")
    if part is None:
        part = build_partition(grid)
    alpha, half = _z_specs(d)

    sv = shell_series([s.v for s in traj.states], traj.times, part, with_linf=True)
    se = shell_series([s.E for s in traj.states], traj.times, part)
    sb = shell_series([s.B for s in traj.states], traj.times, part)

    zu = (
        spacetime_norm_from_series(sv, NormSpec.sobolev(half, time_exponent=2, tilde=False))
        + time_lebesgue(sv.linf, sv.times, 2)
        + spacetime_norm_from_series(sv, NormSpec.sobolev(half - 1, time_exponent=np.inf, tilde=True))
    )
    ze = (
        spacetime_norm_from_series(se, NormSpec(half - 1, half - 1, alpha, np.inf, True))
        + spacetime_norm_from_series(se, NormSpec(half - 1, half - 1, alpha, 2, False))
    )
    zb = (
        spacetime_norm_from_series(sb, NormSpec(half - 1, half - 1, alpha, np.inf, True))
        + spacetime_norm_from_series(sb, NormSpec(half, half - 1, alpha, 2, False))
    )
    return ZNorm(u=zu, E=ze, B=zb)


def initial_data_norm(state: MhdState, part: DyadicPartition | None = None) -> float:
    """Norm of Gamma0 in H^{d/2-1} x H^{d/2-1}_a x H^{d/2-1}_a."""
    grid = state.grid
    if part is None:
        part = build_partition(grid)
    alpha, half = _z_specs(grid.d)
    nv = norm_hst(state.v, part, NormSpec.sobolev(half - 1))
    ne = norm_hst(state.E, part, NormSpec(half - 1, half - 1, alpha))
    nb = norm_hst(state.B, part, NormSpec(half - 1, half - 1, alpha))
    return nv + ne + nb


# ---------------------------------------------------------------------------
# Picard iteration around the free evolution.


def _difference_trajectory(a: Trajectory, b: Trajectory) -> Trajectory:
    states = [
        MhdState(sa.v - sb.v, sa.E - sb.E, sa.B - sb.B, sa.time)
        for sa, sb in zip(a.states, b.states)
    ]
    return Trajectory(times=a.times, states=states)


def _apply_phi(free: Trajectory, pert: Trajectory, table: PropagatorTable,
               velocity_form: str = "advection") -> Trajectory:
    """One application of the fixed-point map: quadrature of the Duhamel
    integral of N(free + pert) with exact propagator factors.

    Uses the recursion Phi_n = e^{dt A} (Phi_{n-1} + dt/2 N_{n-1})
    + dt/2 N_n, one propagator apply per step, equivalent to the composite
    trapezoid sum_j w_j e^{(t_n - t_j) A} N_j because the propagators form
    a group.  N_n is evaluated as the recursion reaches t_n, so only
    N_{n-1} and N_n are held.
    """
    h = 0.5 * free.dt

    def n_at(i):
        f, p = free.states[i], pert.states[i]
        return nonlinearity(
            MhdState(f.v + p.v, f.E + p.E, f.B + p.B, free.times[i]),
            velocity_form=velocity_form,
        )

    acc = MhdState.zeros(free.grid, free.times[0])
    out_states = [acc]
    n_prev = n_at(0)
    for i in range(1, len(free)):
        n_cur = n_at(i)
        prev = table.apply(MhdState(acc.v + h * n_prev.v, acc.E + h * n_prev.E,
                                    acc.B + h * n_prev.B, acc.time))
        acc = MhdState(prev.v + h * n_cur.v, prev.E + h * n_cur.E,
                       prev.B + h * n_cur.B, free.times[i])
        out_states.append(acc)
        n_prev = n_cur
    return Trajectory(times=free.times, states=out_states)


def picard_iterate(initial: MhdState, T: float, dt: float, n_iters: int,
                   velocity_form: str = "advection",
                   part: DyadicPartition | None = None):
    """Iterate the fixed-point map starting from the zero perturbation.

    Returns (iterates, contraction_ratios).  Iterates are perturbation
    trajectories around the free evolution; the physical solution is
    free + iterate.  Ratios r_m = ||G^{m+1} - G^m||_Z / ||G^m - G^{m-1}||_Z;
    a ratio >= 1 is reported, not raised.

    Once successive differences fall below machine roundoff relative to
    the first iterate, further ratios are quotients of floating-point
    noise and are dropped rather than reported: a ratio is kept only when
    both its numerator and its denominator lie above that floor.

    A non-finite difference stops the iteration and is reported as an
    infinite ratio, also when it is the first difference, so that
    divergence never reads as the empty ratio list of zero data.
    """
    if n_iters < 2:
        raise ValueError("need at least two iterations")
    grid = initial.grid
    if part is None:
        part = build_partition(grid)
    table = PropagatorTable.build(grid, dt)
    free = simulate(initial, T, dt, nonlinear=False)

    zero = Trajectory(
        times=free.times,
        states=[MhdState.zeros(grid, t) for t in free.times],
    )
    iterates = [zero]
    diffs = []
    for _ in range(n_iters):
        nxt = _apply_phi(free, iterates[-1], table, velocity_form)
        diff = z_norm(_difference_trajectory(nxt, iterates[-1]), grid.d, part).total
        if not math.isfinite(diff):
            diff = math.inf
        diffs.append(diff)
        iterates.append(nxt)
        if not math.isfinite(diff):
            # Genuine divergence: stop iterating, report the infinite ratio.
            break
    ratios = [] if math.isfinite(diffs[0]) else [math.inf]
    floor = 1e3 * np.finfo(np.float64).eps * diffs[0] if diffs and diffs[0] > 0 else 0.0
    for m in range(1, len(diffs)):
        if diffs[m] <= floor or diffs[m - 1] <= floor:
            break
        ratios.append(diffs[m] / diffs[m - 1])
    return iterates, ratios


def picard_solution(free: Trajectory, perturbation: Trajectory) -> Trajectory:
    """The physical solution e^{t A} Gamma0 + perturbation."""
    states = [
        MhdState(f.v + p.v, f.E + p.E, f.B + p.B, f.time)
        for f, p in zip(free.states, perturbation.states)
    ]
    return Trajectory(times=free.times, states=states)


# ---------------------------------------------------------------------------
# Initial-data splitting (Fourier cutoff).


def split_initial_data(initial: MhdState, delta_target: float,
                       part: DyadicPartition | None = None):
    """Split Gamma0 = S_Q Gamma0 + (I - S_Q) Gamma0 with Q the smallest
    shell making the tail smaller than delta_target in
    H^{d/2-1} x H^{d/2-1}_a x H^{d/2-1}_a.

    If no resolved Q reaches the target, the largest cutoff is returned
    with ``achieved`` recording the attainable minimum.
    """
    if delta_target <= 0:
        raise ValueError("delta_target must be positive")
    grid = initial.grid
    if part is None:
        part = build_partition(grid)

    def tail_state(Q: int) -> MhdState:
        return MhdState(
            v=initial.v - low_pass(initial.v, part, Q),
            E=initial.E - low_pass(initial.E, part, Q),
            B=initial.B - low_pass(initial.B, part, Q),
            time=initial.time,
        )

    best_q, best_norm = None, np.inf
    for Q in range(part.q_min, part.q_max + 2):
        tail = tail_state(Q)
        norm = initial_data_norm(tail, part)
        if norm < best_norm:
            best_q, best_norm = Q, norm
        if norm < delta_target:
            regular = MhdState(
                low_pass(initial.v, part, Q),
                low_pass(initial.E, part, Q),
                low_pass(initial.B, part, Q),
                initial.time,
            )
            return regular, tail, Q, norm
    Q = best_q
    tail = tail_state(Q)
    regular = MhdState(
        low_pass(initial.v, part, Q),
        low_pass(initial.E, part, Q),
        low_pass(initial.B, part, Q),
        initial.time,
    )
    return regular, tail, Q, best_norm


# ---------------------------------------------------------------------------
# Built-in initial data.


def taylor_green_velocity(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """Divergence-free Taylor-Green-type velocity field."""
    n = grid.n
    x = np.linspace(0.0, grid.box_length, n, endpoint=False)
    scale = 2.0 * np.pi / grid.box_length
    if grid.d == 2:
        X, Y = np.meshgrid(x, x, indexing="ij")
        u = np.zeros((3, n, n))
        u[0] = np.sin(scale * X) * np.cos(scale * Y)
        u[1] = -np.cos(scale * X) * np.sin(scale * Y)
    else:
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        u = np.zeros((3, n, n, n))
        u[0] = np.sin(scale * X) * np.cos(scale * Y) * np.cos(scale * Z)
        u[1] = -np.cos(scale * X) * np.sin(scale * Y) * np.cos(scale * Z)
    return SpectralField.from_physical(grid, amplitude * u)

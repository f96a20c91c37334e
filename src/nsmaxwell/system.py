"""The coupled Navier-Stokes-Maxwell system: nonlinearity, Ohm's law,
energy diagnostics, the time-stepping driver, the fixed-point (Picard)
iteration with Z-norm bookkeeping, and the frequency splitting of initial
data.

Every field is held as the half spectrum of the real field (see ``grid``).
The nonlinearity is one kernel, ``nonlinearity``, on amplitudes with a
leading batch axis; ``march`` runs it on batches of one state, the Picard
map on chunks of times.  It makes six real transforms: the Lorentz force
is one j x B with the Ohm current j, and the advection term (v.grad)v is
the Leray-projected w x v, w = curl v, its one form.

``march`` is the one time loop and the one nonlinear run.  It holds the
amplitudes of the current state, steps them by ``duhamel_step`` and yields
each state, as views of them, with its Ohm current, read off the N(G_n)
that the next step takes (j = sigma E - N_E), so a diagnostics row
(``energy_report``) costs no transform of its own: an exp-trapezoid step
and its row make 12 real transforms.

A ``Trajectory`` holds time stacks (times, 3, K) of v, E and B on the K
modes the 2/3 rule keeps (``grid._pack``): the free evolution
(``free_evolution``) and every Picard iterate, whose data are dealiased
and whose N is truncated.  The free evolution and the Picard map step them
slot into slot with ``PropagatorTable.kept`` and unpack (``grid._unpack``)
a chunk of times only for the kernel and the shell rows.  States,
snapshots and ``march`` keep the half spectrum.  Picard holds one iterate:
each map rebuilds the free evolution chunk by chunk (``_free_chunks``),
overwrites G^m with G^{m+1} and reduces G^{m+1} - G^m to the shell rows
that ``z_norm`` combines, as it goes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    SpectralField,
    Grid,
    _half_physical,
    _half_spectral,
    _cross,
    _pack,
    _unpack,
    _time_chunks,
    leray_project,
    lp_norm_physical,
    pointwise_product,
)
from .dyadic import (
    NormSpec,
    ShellSeries,
    _series_of_rows,
    _shell_rows,
    build_partition,
    low_pass,
    norm_hst,
    shell_series,
    spacetime_norm_from_series,
    time_lebesgue,
)
from .propagators import PropagatorTable, _trapezoid, duhamel_step

__all__ = [
    "InconsistentStateError",
    "MhdState",
    "Trajectory",
    "ZNorm",
    "ohm_current",
    "nonlinearity",
    "energy_report",
    "march",
    "free_evolution",
    "step_count",
    "picard_iterate",
    "picard_solution",
    "z_norm",
    "initial_data_norm",
    "split_initial_data",
    "taylor_green_velocity",
]

# Ohm's law j = SIGMA (E + v x B); the linear propagators hard-code sigma = 1
# (``propagators._maxwell_coefficients`` and ``PropagatorTable.e_damp``).
SIGMA = 1.0
# Largest divergence defect a state may carry into the nonlinearity.
DIV_TOL = 1e-8


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
    def zeros(cls, grid: Grid) -> "MhdState":
        return cls(
            v=SpectralField.zeros(grid),
            E=SpectralField.zeros(grid),
            B=SpectralField.zeros(grid),
        )

    def prepared(self) -> "MhdState":
        """Sanitized copy for use as initial data: Hermitian symmetry and
        the 2/3 truncation enforced, v and B projected, mean of v removed."""
        out = MhdState(self.v.copy(), self.E.copy(), self.B.copy(), self.time)
        for f in (out.v, out.E, out.B):
            f.enforce_hermitian()
            f.dealias()
        out.v = leray_project(out.v)
        out.v.set_mean((0.0, 0.0, 0.0))
        out.B = leray_project(out.B)
        return out

    def divergence_defect(self) -> float:
        """max(||div v||, ||div B||) / max(||v||, ||B||) from the coefficients."""
        return float(_divergence_defects(self.grid, self.v.coeffs[None],
                                         self.B.coeffs[None])[0])

    def l2_squared(self) -> float:
        """||v||^2 + ||E||^2 + ||B||^2, twice the energy."""
        return (lp_norm_physical(self.v, 2) ** 2 + lp_norm_physical(self.E, 2) ** 2
                + lp_norm_physical(self.B, 2) ** 2)

    def scaled(self, factor: float) -> "MhdState":
        return MhdState(factor * self.v, factor * self.E, factor * self.B, self.time)


@dataclass
class Trajectory:
    """Uniformly sampled states held as time stacks ``kept`` = (v, E, B),
    each (times, 3, K) on the kept modes (``grid._pack``): the free
    evolution and the Picard iterates."""

    grid: Grid
    times: np.ndarray
    kept: tuple

    def __len__(self) -> int:
        return len(self.times)


def _divergence_defects(grid: Grid, v: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``MhdState.divergence_defect`` per state of amplitudes v, B
    (states, 3, *spectral_shape), by Parseval (``Grid._parseval_weight``)."""
    weight = grid._parseval_weight.reshape(-1)
    ks = grid.wavevectors[: grid.d]

    def power(a):  # squared L^2 norm per state
        return ((a.real**2 + a.imag**2).reshape(len(a), -1, weight.size) @ weight).sum(axis=1)

    div_sq = np.maximum(*(power(sum(k * f[:, j] for j, k in enumerate(ks)))
                          for f in (v, B)))
    norm_sq = np.maximum(power(v), power(B))
    return np.sqrt(div_sq) / np.maximum(np.sqrt(norm_sq), 1e-300)


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
    vxB = pointwise_product(state.v, state.B)
    return SpectralField(state.grid, SIGMA * (state.E.coeffs + vxB.coeffs))


def nonlinearity(grid: Grid, v: np.ndarray, E: np.ndarray, B: np.ndarray):
    """(N_v, N_E) of N(Gamma) = (P[-(v.grad)v + j x B], -sigma v x B, 0),
    with the Ohm current j = sigma (E + v x B), on the amplitudes
    (states, 3, *spectral_shape) of a batch of states; N_B = 0.

    The advection term is computed as P[(v.grad)v] = P[w x v] with
    w = curl v.  Raises InconsistentStateError when the divergence defect
    of any state of the batch exceeds ``DIV_TOL``.  One pass in physical
    space of six real transforms in 2D and 3D.  Back, each 2/3-truncated:
    v, B, j / sigma = E + v x B and the vorticity w = i k x v, formed on the
    half spectrum.  Forward: v x B, and the momentum forcing
    sigma (j / sigma) x B + v x w, which is then Leray-projected.

    Both shortcuts are exact in exact arithmetic.  E and v x B are merged
    before their transform back by linearity.  (v.grad)v = w x v
    + grad(|v|^2 / 2) holds pointwise for the truncated fields, and the
    2/3 rule keeps each grid product alias-free, so it holds for the
    truncated amplitudes too; the Leray projection removes the gradient
    mode by mode.  In 2D (grad = (d1, d2, 0), v_3 allowed) the identity
    and the projection hold alike.  The tests check this form against the
    divergence form div(v (x) v), which transforms its own products v_j v.
    """
    defects = _divergence_defects(grid, v, B)
    bad = np.flatnonzero(defects > DIV_TOL)
    if bad.size:
        raise InconsistentStateError(
            f"divergence defect {defects[bad[0]]:.3e} exceeds {DIV_TOL:.1e}"
        )
    vp, Bp = (_half_physical(grid, f * grid._half_keep) for f in (v, B))
    vxB = _half_spectral(grid, _cross(vp, Bp, axis=1))
    # In-place sums and the early release of B keep few physical arrays
    # alive at once; the peak of a 3D step's resident memory depends on it.
    force = _cross(_half_physical(grid, E * grid._half_keep + vxB), Bp, axis=1)
    del Bp
    force *= SIGMA
    force += _cross(vp, _half_physical(grid, _cross(grid._half_ik[None], v, axis=1)),
                    axis=1)
    mom = _half_spectral(grid, force)
    vxB *= -SIGMA
    return leray_project(SpectralField(grid, mom)).coeffs, vxB


def energy_report(state: MhdState, j: SpectralField):
    """(energy, enstrophy dissipation, ohmic dissipation):
    1/2 (||v||^2 + ||E||^2 + ||B||^2), ||grad v||^2, ||j||^2, with ``j``
    the Ohm current of ``state`` that ``march`` yields with it."""
    e = 0.5 * state.l2_squared()
    grid = state.grid
    v = state.v.coeffs
    grad_sq = float(np.sum(grid._parseval_weight * grid.k_squared
                           * (v.real**2 + v.imag**2)))
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


def march(initial: MhdState, T: float, dt: float, scheme: str = "exp-trapezoid"):
    """Yield ``(state, current)`` for the prepared initial state, then for
    the state after each of the T/dt nonlinear steps (``duhamel_step``) of
    the Duhamel integral equation with exact propagators.

    ``current`` is the Ohm current j = sigma (E + v x B) of ``state``, the
    one ``energy_report`` takes.  N(G_n) is evaluated before G_n is
    yielded: j = sigma E - N_E is read off its E slot, and the same N(G_n)
    goes into the step.  The last state, which no step follows, takes j
    from ``ohm_current``.

    ``BlowupError`` passes out of the generator from the step after the
    last state yielded.  Raises ValueError unless T is an integer multiple
    of dt.
    """
    n_steps = step_count(T, dt)
    state = initial.prepared()
    del initial  # freed here unless the caller keeps it
    grid = state.grid
    # Advisory CFL check only: the exponential integrator is
    # unconditionally linearly stable.
    vmax = lp_norm_physical(state.v, np.inf)
    h = grid.box_length / grid.n
    if vmax * dt > h:
        import warnings

        warnings.warn(f"dt * max|v| = {vmax * dt:.3e} exceeds grid spacing {h:.3e}")

    table = PropagatorTable.build(grid, dt)

    def kernel(v, E, B):  # one state as a batch of one
        return [n[0] for n in nonlinearity(grid, v[None], E[None], B[None])]

    amps = (state.v.coeffs, state.E.coeffs, state.B.coeffs)
    for step in range(n_steps):
        n0 = kernel(*amps)
        current = np.multiply(amps[1], SIGMA)
        current -= n0[1]  # N_E = -sigma v x B
        yield state, SpectralField(grid, current)
        amps = duhamel_step(amps, n0, kernel, table, scheme, step_index=step)
        state = MhdState(*(SpectralField(grid, a) for a in amps), time=state.time + dt)
    yield state, ohm_current(state)


def _sample_times(t0: float, T: float, dt: float) -> np.ndarray:
    return np.cumsum(np.r_[t0, np.full(step_count(T, dt), dt)])  # t_i = t_{i-1} + dt


def _free_chunks(state: MhdState, table: PropagatorTable, count: int):
    """Yield (chunk, stacks) per chunk (``grid._time_chunks``) of ``count``
    times: e^{t A} Gamma0 of the prepared ``state``, one ``table.apply`` per
    step of the ``PropagatorTable.kept`` ``table``, as kept stacks (v, E, B)
    in one buffer that the caller may overwrite."""
    chunks = _time_chunks(range(count), 3 * table.grid.n**table.grid.d)
    buf = tuple(np.repeat(_pack(table.grid, f.coeffs)[None], len(chunks[0]), axis=0)
                for f in (state.v, state.E, state.B))
    prev = tuple(a[0] for a in buf)
    for chunk in chunks:
        stacks = tuple(a[:len(chunk)] for a in buf)
        for j in range(chunk.start == 0, len(chunk)):  # the first slot is ``state``
            prev = table.apply(*prev, out=tuple(a[j] for a in stacks))
        prev = tuple(a.copy() for a in prev)  # the next chunk steps from here
        yield chunk, stacks


def free_evolution(initial: MhdState, T: float, dt: float) -> Trajectory:
    """The free evolution e^{t A} Gamma0 of the prepared ``initial`` at
    the T/dt + 1 sample times, as one trajectory: the propagator recursion
    of ``_free_chunks``, stacked on the kept modes."""
    table, state = PropagatorTable.build(initial.grid, dt).kept(), initial.prepared()
    times = _sample_times(state.time, T, dt)
    kept = tuple(np.empty((len(times), 3, state.grid._kept.size), np.complex128)
                 for _ in range(3))
    for chunk, stacks in _free_chunks(state, table, len(times)):
        for a, b in zip(kept, stacks):
            a[chunk.start:chunk.stop] = b
    return Trajectory(state.grid, times, kept)


# ---------------------------------------------------------------------------
# Fixed-point norms.


def _z_specs(d: int):
    alpha = 1.0 if d == 2 else 0.0
    half = d / 2.0
    return alpha, half


def _field_space(d: int) -> NormSpec:
    """X = H^{d/2-1}_alpha, the field space of the Z-norm and the product laws."""
    alpha, half = _z_specs(d)
    return NormSpec(half - 1, half - 1, alpha)


def z_norm(traj: Trajectory) -> ZNorm:
    """The composite solution-space norm with alpha = 1 (d=2) / 0 (d=3):

    Z^u = ||u||_{L2_T H^{d/2}} + ||u||_{L2_T Linf} + ||u||_{tilde-Linf_T H^{d/2-1}}
    Z^E = ||E||_{tilde-Linf_T H^{d/2-1}_a} + ||E||_{L2_T H^{d/2-1}_a}
    Z^B = ||B||_{tilde-Linf_T H^{d/2-1}_a} + ||B||_{L2_T H^{d/2, d/2-1}_a}

    Each field's stack goes through ``shell_series``, unpacked one at a time.
    """
    grid = traj.grid
    return _z_from_series(grid.d, *(
        shell_series(_unpack(grid, a), traj.times, grid, with_linf=c == 0)
        for c, a in enumerate(traj.kept)))


def _z_from_series(d: int, sv: ShellSeries, se: ShellSeries, sb: ShellSeries) -> ZNorm:
    """``z_norm`` from the shell series of v (with its sup series), E and B."""
    alpha, half = _z_specs(d)
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


def initial_data_norm(state: MhdState) -> float:
    """Norm of Gamma0 in H^{d/2-1} x H^{d/2-1}_a x H^{d/2-1}_a."""
    X = _field_space(state.grid.d)
    nv = norm_hst(state.v, NormSpec.sobolev(X.s))
    return nv + norm_hst(state.E, X) + norm_hst(state.B, X)


# ---------------------------------------------------------------------------
# Picard iteration around the free evolution.


def _apply_phi(state: MhdState, times: np.ndarray, pert: Trajectory | None,
               table: PropagatorTable):
    """One application of the fixed-point map on trajectory stacks:
    quadrature of the Duhamel integral of N(free + pert) with exact
    propagator factors, around the free evolution of the prepared ``state``
    at ``times``.  ``pert`` None is the zero perturbation: N is then
    evaluated on the free states themselves.  ``table`` is a
    ``PropagatorTable.kept``, and the stacks hold the kept modes.

    Returns (iterate, series): the new iterate, written into the stacks of
    ``pert`` (new stacks when ``pert`` is None), and the three
    ``ShellSeries`` of v, E and B of the difference iterate - pert, v's with
    its sup series, which ``_z_from_series`` turns into its Z-norm.

    Uses the recursion Phi_n = e^{dt A} (Phi_{n-1} + dt/2 N_{n-1})
    + dt/2 N_n, one ``_trapezoid`` update per step, equivalent to the
    composite trapezoid sum_j w_j e^{(t_n - t_j) A} N_j because the
    propagators form a group.  The map runs per chunk of ``_free_chunks``
    (the chunks of ``shell_series``), so one chunk of N is held at a time.
    Per chunk: pert's slots added to the free states in place, N on them
    unpacked by one ``nonlinearity`` call, a copy of pert's slots, the
    recursion over the slots, and the difference formed in the copy and
    reduced, unpacked, to its shell rows (``dyadic._shell_rows``).  Each
    update writes into the slot of Phi_n; N_B = 0, so B is only propagated
    from slot n - 1.
    """
    grid, h = table.grid, 0.5 * table.dt
    out = (tuple(np.empty((len(times), 3, grid._kept.size), np.complex128)
                 for _ in range(3)) if pert is None else pert.kept)
    part = build_partition(grid)
    weights = part.shell_matrix()
    rows = ([], [], [])
    prev = None
    for chunk, fields in _free_chunks(state, table, len(times)):
        at = slice(chunk.start, chunk.stop)
        if pert is not None:
            for a, b in zip(fields, out):
                a += b[at]
        n_v, n_E = (h * _pack(grid, n)
                    for n in nonlinearity(grid, *(_unpack(grid, a) for a in fields)))
        # Copied after N, so the copy and the kernel's temporaries never meet.
        old = None if pert is None else tuple(a[at].copy() for a in out)
        for j, i in enumerate(chunk):
            slots = tuple(a[i] for a in out)
            if prev is None:
                for a in slots:
                    a[...] = 0.0
            else:
                _trapezoid(table.apply, tuple(a[i - 1] for a in out), prev,
                           (n_v[j], n_E[j]), slots)
            prev = n_v[j], n_E[j]
        diff = (tuple(a[at] for a in out) if old is None
                else tuple(np.subtract(a[at], b, out=b) for a, b in zip(out, old)))
        for c, (r, d) in enumerate(zip(rows, diff)):
            r.append(_shell_rows(_unpack(grid, d), grid, weights, c == 0))
    series = tuple(_series_of_rows(times, part.shells(), r) for r in rows)
    return Trajectory(grid, times, out), series


def picard_iterate(initial: MhdState, T: float, dt: float, n_iters: int):
    """Iterate the fixed-point map starting from the zero perturbation.

    Returns (last_iterate, contraction_ratios, differences).  Iterates are
    perturbation trajectories around the free evolution; the physical
    solution is free + iterate.  differences[m] = ||G^{m+1} - G^m||_Z, one
    per map applied, with G^0 = 0; ratios r_m = differences[m] /
    differences[m-1]; a ratio >= 1 is reported, not raised.

    One ``PropagatorTable.kept`` serves every map and the free evolution
    each map rebuilds per chunk.  Only one iterate, on kept stacks, is
    alive: each map after the first writes G^{m+1} over G^m chunk by chunk,
    and streams the shell rows of G^{m+1} - G^m, which ``_z_from_series``
    combines into the Z-norm.  The last iterate is returned packed.

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
    table, state = PropagatorTable.build(initial.grid, dt).kept(), initial.prepared()
    times = _sample_times(state.time, T, dt)
    it, diffs = None, []  # None: the zero perturbation
    for _ in range(n_iters):
        it, series = _apply_phi(state, times, it, table)
        diff = _z_from_series(state.grid.d, *series).total
        diffs.append(diff if math.isfinite(diff) else math.inf)
        if not math.isfinite(diff):
            # Genuine divergence: stop iterating, report the infinite ratio.
            break
    ratios = [] if math.isfinite(diffs[0]) else [math.inf]
    floor = 1e3 * np.finfo(np.float64).eps * diffs[0] if diffs[0] > 0 else 0.0
    for m in range(1, len(diffs)):
        if diffs[m] <= floor or diffs[m - 1] <= floor:
            break
        ratios.append(diffs[m] / diffs[m - 1])
    return it, ratios, diffs


def picard_solution(free: Trajectory, perturbation: Trajectory) -> Trajectory:
    """The physical solution e^{t A} Gamma0 + perturbation: one sum of kept
    stacks per field."""
    return Trajectory(free.grid, free.times,
                      tuple(f + p for f, p in zip(free.kept, perturbation.kept)))


# ---------------------------------------------------------------------------
# Initial-data splitting (Fourier cutoff).


def split_initial_data(initial: MhdState, delta_target: float):
    """Split Gamma0 = S_Q Gamma0 + (I - S_Q) Gamma0 with Q the smallest
    shell making the tail smaller than delta_target in
    H^{d/2-1} x H^{d/2-1}_a x H^{d/2-1}_a.

    If no resolved Q reaches the target, the largest cutoff is returned
    with ``achieved`` recording the attainable minimum.
    """
    if delta_target <= 0:
        raise ValueError("delta_target must be positive")
    part = build_partition(initial.grid)

    def split_at(Q: int):
        regular = MhdState(*(low_pass(f, Q) for f in (initial.v, initial.E, initial.B)),
                           time=initial.time)
        tail = MhdState(initial.v - regular.v, initial.E - regular.E,
                        initial.B - regular.B, time=initial.time)
        return regular, tail

    best_q, best_norm = None, np.inf
    for Q in range(part.q_min, part.q_max + 2):
        regular, tail = split_at(Q)
        norm = initial_data_norm(tail)
        if norm < best_norm:
            best_q, best_norm = Q, norm
        if norm < delta_target:
            return regular, tail, Q, norm
    return (*split_at(best_q), best_q, best_norm)


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

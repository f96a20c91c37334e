import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from nsmaxwell.grid import (
    Grid,
    SpectralField,
    _time_chunks,
    _unpack,
    divergence,
    gradient_component,
    leray_project,
    lp_norm_physical,
    pointwise_product,
)
from nsmaxwell.dyadic import low_pass
from nsmaxwell.ensembles import gen_field
from nsmaxwell.propagators import PropagatorTable, heat_apply, maxwell_apply
from nsmaxwell.system import (
    MhdState,
    energy_report,
    free_evolution,
    initial_data_norm,
    march,
    nonlinearity,
    ohm_current,
    picard_iterate,
    picard_solution,
    split_initial_data,
    step_count,
    taylor_green_velocity,
    z_norm,
)
from nsmaxwell.system import (
    SIGMA,
    InconsistentStateError,
    Trajectory,
    _apply_phi,
    _z_from_series,
)

from conftest import (
    advection_product,
    apply_state,
    count_transforms,
    count_trapezoids,
    random_field,
    scalar_product,
    single_mode_field,
    states_of,
    trajectory_of,
)


def _constant_state(grid, v=None, E=None, B=None):
    state = MhdState.zeros(grid)
    if v is not None:
        state.v.set_mean(v)
    if E is not None:
        state.E.set_mean(E)
    if B is not None:
        state.B.set_mean(B)
    return state


def _random_state(grid, seed=0, amp=1.0):
    v = leray_project(random_field(grid, seed=seed))
    E = random_field(grid, seed=seed + 1)
    B = leray_project(random_field(grid, seed=seed + 2))
    return MhdState(v, E, B).prepared().scaled(amp)


# ---------------------------------------------------------------------------
# Ohm's law and nonlinearity.


def _state_nonlinearity(state):
    """``nonlinearity`` on one state as a batch of one: N_v and N_E as
    fields (N_B = 0)."""
    grid = state.grid
    return [SpectralField(grid, n[0]) for n in nonlinearity(
        grid, *(f.coeffs[None] for f in (state.v, state.E, state.B)))]

def test_ohm_constant_fields(grid2):
    state = _constant_state(grid2, v=(1, 0, 0), B=(0, 0, 1))
    j = ohm_current(state).to_physical()
    assert np.allclose(j[0], 0.0) and np.allclose(j[2], 0.0)
    assert np.allclose(j[1], -1.0)


def test_ohm_degenerate_cases(grid2):
    E = random_field(grid2, seed=40)
    state = MhdState(SpectralField.zeros(grid2), E, SpectralField.zeros(grid2))
    j = ohm_current(state)
    assert np.max(np.abs(j.coeffs - E.coeffs)) < 1e-14 * np.max(np.abs(E.coeffs))
    zero = MhdState.zeros(grid2)
    assert np.max(np.abs(ohm_current(zero).coeffs)) == 0.0


def test_nonlinearity_zero_state(grid2):
    for f in _state_nonlinearity(MhdState.zeros(grid2)):
        assert np.max(np.abs(f.coeffs)) == 0.0


def test_nonlinearity_zero_velocity(grid2):
    E = random_field(grid2, seed=41)
    B = leray_project(random_field(grid2, seed=42))
    state = MhdState(SpectralField.zeros(grid2), E, B)
    n_v, n_E = _state_nonlinearity(state)
    expect = leray_project(pointwise_product(E, B))
    scale = np.max(np.abs(expect.coeffs)) + 1e-300
    assert np.max(np.abs(n_v.coeffs - expect.coeffs)) < 1e-13 * scale
    assert np.max(np.abs(n_E.coeffs)) == 0.0


def _divergence_form_reference(v):
    """div(v (x) v) = sum_j d_j (v_j v), each v_j v one scalar product."""
    grid = v.grid
    adv = SpectralField.zeros(grid)
    for j in range(grid.d):
        vj = SpectralField(grid, np.broadcast_to(v.coeffs[j], v.coeffs.shape))
        adv = adv + gradient_component(scalar_product(vj, v), j)
    return adv


def _four_product_nonlinearity(state, velocity_form):
    """N from one product per bilinear term (no fused pass), the advection
    term in the advection form (v.grad)v or the divergence form
    div(v (x) v); the two agree for divergence-free v."""
    vxB = pointwise_product(state.v, state.B)
    ExB = pointwise_product(state.E, state.B)
    vxBxB = pointwise_product(SIGMA * vxB, state.B)
    if velocity_form == "advection":
        adv = advection_product(state.v, state.v)
    else:
        adv = _divergence_form_reference(state.v)
    mom = SpectralField(state.grid, -adv.coeffs + SIGMA * ExB.coeffs + vxBxB.coeffs)
    return leray_project(mom), -SIGMA * vxB


@pytest.mark.parametrize("velocity_form", ["advection", "divergence"])
@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_fused_nonlinearity_matches_four_products(grid_name, velocity_form, request):
    grid = request.getfixturevalue(grid_name)
    state = _random_state(grid, seed=47)
    out = _state_nonlinearity(state)
    for got, ref in zip(out, _four_product_nonlinearity(state, velocity_form)):
        scale = np.max(np.abs(ref.coeffs))
        assert scale > 0
        assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-12 * scale
        assert got.hermitian_defect() <= 1e-14 * np.max(np.abs(got.coeffs))


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_nonlinearity_transform_count(grid_name, request, monkeypatch):
    # v, B, j / sigma = E + v x B and the vorticity w back; v x B and the
    # momentum forcing forward: six real transforms in 2D and 3D alike.
    grid = request.getfixturevalue(grid_name)
    state = _random_state(grid, seed=48)
    calls = count_transforms(monkeypatch)
    _state_nonlinearity(state)
    assert len(calls) == 6
    assert set(calls) == {"rfftn", "irfftn"}


def _physical_state(grid, values):
    """The state with velocity of physical ``values`` (3, *shape) and
    E = B = 0."""
    zero = SpectralField.zeros(grid)
    return MhdState(SpectralField.from_physical(grid, values), zero, zero.copy())


def _coordinates(grid):
    x = np.linspace(0.0, grid.box_length, grid.n, endpoint=False)
    return np.meshgrid(*(x,) * grid.d, indexing="ij")


def _assert_steady(state):
    # A steady Euler flow: P[(v.grad)v] = 0 although w x v need not be 0.
    n_v = _state_nonlinearity(state)[0]
    scale = np.max(np.abs(state.v.coeffs)) ** 2
    assert scale > 0
    assert np.max(np.abs(n_v.coeffs)) <= 1e-14 * scale


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_shear_flow_is_steady(grid_name, request):
    # v = (sin x_2, 0, 0): (v.grad)v = 0, while w x v = -grad(sin^2 x_2 / 2)
    # is a nonzero gradient that only the Leray projection removes.
    grid = request.getfixturevalue(grid_name)
    x = _coordinates(grid)
    values = np.zeros((3,) + grid.shape)
    values[0] = np.sin(x[1])
    state = _physical_state(grid, values)
    w = np.zeros_like(values)
    w[2] = -np.cos(x[1])
    wxv = SpectralField.from_physical(grid, np.cross(w, values, axis=0))
    assert np.max(np.abs(wxv.coeffs)) > 0.1
    _assert_steady(state)


def test_abc_flow_is_steady(grid3):
    # The ABC flow is a Beltrami field, curl v = v, so w x v = 0.
    a, b, c = 1.0, 0.7, 0.4
    x1, x2, x3 = _coordinates(grid3)
    values = np.stack([a * np.sin(x3) + c * np.cos(x2),
                       b * np.sin(x1) + a * np.cos(x3),
                       c * np.sin(x2) + b * np.cos(x1)])
    _assert_steady(_physical_state(grid3, values))


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_lorentz_slot_is_ohm_current(grid_name, request):
    # N_E = -sigma v x B, so sigma E - N_E is Ohm's j = sigma (E + v x B),
    # the current whose j x B the kernel forms.
    grid = request.getfixturevalue(grid_name)
    state = _random_state(grid, seed=49)
    j = ohm_current(state).coeffs
    got = SIGMA * state.E.coeffs - _state_nonlinearity(state)[1].coeffs
    assert np.max(np.abs(got - j)) <= 1e-14 * np.max(np.abs(j))


def _stacks(states):
    return [np.stack([getattr(s, name).coeffs for s in states])
            for name in ("v", "E", "B")]


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_batched_kernel_matches_per_state_nonlinearity(grid_name, request):
    grid = request.getfixturevalue(grid_name)
    h = grid.n // 2 + 1
    states = [_random_state(grid, seed=70 + 3 * i, amp=0.5 + i) for i in range(4)]
    n_v, n_E = nonlinearity(grid, *_stacks(states))
    assert n_v.shape == n_E.shape == (4, 3) + grid.shape[:-1] + (h,)
    for i, state in enumerate(states):
        one_v, one_E = _state_nonlinearity(state)
        assert np.array_equal(n_v[i], one_v.coeffs), i
        assert np.array_equal(n_E[i], one_E.coeffs), i


@pytest.mark.parametrize("field", ["v", "B"])
@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_batched_kernel_rejects_one_divergent_state(grid_name, field, request):
    grid = request.getfixturevalue(grid_name)
    states = [_random_state(grid, seed=80 + 3 * i) for i in range(4)]
    nonlinearity(grid, *_stacks(states))  # all four consistent
    setattr(states[2], field, random_field(grid, seed=90))  # not projected
    assert states[2].divergence_defect() > 1e-3
    with pytest.raises(InconsistentStateError):
        nonlinearity(grid, *_stacks(states))


def test_nonlinearity_rejects_divergent_velocity(grid2):
    v = random_field(grid2, seed=44)  # not projected
    state = MhdState(v, SpectralField.zeros(grid2), SpectralField.zeros(grid2))
    with pytest.raises(InconsistentStateError):
        _state_nonlinearity(state)


# ---------------------------------------------------------------------------
# Energy.


def test_energy_report_zero(grid2):
    zero = MhdState.zeros(grid2)
    assert energy_report(zero, ohm_current(zero)) == (0.0, 0.0, 0.0)


def test_energy_report_single_mode(grid2):
    v = leray_project(single_mode_field(grid2, (1, 0), 0.5))
    state = MhdState(v, SpectralField.zeros(grid2), SpectralField.zeros(grid2))
    e, grad_sq, j_sq = energy_report(state, ohm_current(state))
    nv = lp_norm_physical(v, 2)
    assert abs(e - 0.5 * nv**2) < 1e-12 * nv**2
    assert abs(grad_sq - nv**2) < 1e-12 * nv**2  # |k|^2 = 1
    assert j_sq == 0.0


# ---------------------------------------------------------------------------
# march and the free evolution.


def test_simulate_linear_matches_propagators(grid2):
    # The stepped free evolution against the closed form at each t_n.
    initial = _random_state(grid2, seed=45)
    T, dt = 0.5, 0.05
    traj = free_evolution(initial, T, dt)
    assert len(traj) == 11
    states = list(states_of(traj))
    start = states[0]
    for step, a in enumerate(states):
        t = step * dt
        assert abs(traj.times[step] - t) < 1e-12
        E, B = maxwell_apply(start.E, start.B, t)
        for fa, fb in ((a.v, heat_apply(start.v, t)), (a.E, E), (a.B, B)):
            scale = np.max(np.abs(fb.coeffs)) + 1e-300
            assert np.max(np.abs(fa.coeffs - fb.coeffs)) < 1e-10 * scale


def _assert_same_states(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.time == b.time
        for name in ("v", "E", "B"):
            assert np.array_equal(getattr(a, name).coeffs, getattr(b, name).coeffs)


@pytest.mark.parametrize("scheme", ["exp-euler", "exp-trapezoid"])
@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_march_yields_ohm_current(grid_name, scheme, request):
    # Each state comes with sigma E - N_E of the N(G_n) its step takes, and
    # the last one with ohm_current itself: Ohm's current bit for bit.
    grid = request.getfixturevalue(grid_name)
    initial = _random_state(grid, seed=63, amp=0.1)
    T, dt = 0.1, 0.02
    pairs = list(march(initial, T, dt, scheme))
    assert len(pairs) == step_count(T, dt) + 1
    for state, j in pairs:
        want = ohm_current(state).coeffs
        assert np.any(want)
        assert np.array_equal(j.coeffs, want), state.time


@pytest.mark.parametrize("scheme, per_step", [("exp-euler", 6), ("exp-trapezoid", 12)])
def test_march_transform_count(scheme, per_step, grid2, monkeypatch):
    # One nonlinearity per exp-euler step and two per exp-trapezoid step,
    # six transforms each; the rows take their Ohm current from N(G_n).
    # The CFL sup-norm makes one transform, and the last state's
    # ohm_current three.
    initial = _random_state(grid2, seed=64, amp=0.1)
    n_steps = 5
    calls = count_transforms(monkeypatch)
    for state, j in march(initial, 0.1, 0.1 / n_steps, scheme):
        energy_report(state, j)
    assert len(calls) == per_step * n_steps + 4


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_simulate_linear_is_table_recursion(grid_name, request):
    # The free evolution on the stacks against one table.apply per step on
    # single states, bit for bit.
    grid = request.getfixturevalue(grid_name)
    initial = _random_state(grid, seed=62)
    table = PropagatorTable.build(grid, 0.05)
    want = [initial.prepared()]
    for _ in range(4):
        want.append(apply_state(table, want[-1]))
    _assert_same_states(list(states_of(free_evolution(initial, 0.2, 0.05))), want)


def test_free_times_are_running_sums(grid2):
    # t_i = t_{i-1} + dt, the sums of march's loop, not t0 + i dt.
    traj = free_evolution(_random_state(grid2, seed=66), 1.0, 0.01)
    want = [0.0]
    for _ in range(100):
        want.append(want[-1] + 0.01)
    assert traj.times.tolist() == want
    assert want != (np.arange(101) * 0.01).tolist()


def test_simulate_validates_time_grid(grid2):
    initial = _random_state(grid2, seed=46)
    with pytest.raises(ValueError):
        next(march(initial, 1.0, 0.3))
    with pytest.raises(ValueError):
        next(march(initial, 1.0, -0.1))


def test_free_trajectory_validates_time_grid(grid2):
    # 0.105 is not a multiple of 0.01; rounding would end the run at t = 0.1
    initial = _random_state(grid2, seed=46)
    with pytest.raises(ValueError, match="integer multiple"):
        free_evolution(initial, 0.105, 0.01)


def test_taylor_green_is_exact_2d_solution():
    # 2D Taylor-Green: the advection term is a pure gradient, so the
    # exact nonlinear solution is v0 * e^{-2t}; E, B stay zero.
    grid = Grid(2, 32)
    v0 = taylor_green_velocity(grid, 1.0)
    initial = MhdState(v0, SpectralField.zeros(grid), SpectralField.zeros(grid))
    states = [state for state, _ in march(initial, 0.5, 0.01)]
    final = states[-1]
    assert np.max(np.abs(final.E.coeffs)) < 1e-14
    assert np.max(np.abs(final.B.coeffs)) < 1e-14
    expect = math.exp(-2.0 * 0.5) * states[0].v.coeffs
    assert np.max(np.abs(final.v.coeffs - expect)) < 1e-6 * np.max(np.abs(expect))


def test_taylor_green_3d_is_divergence_free():
    # 3D Taylor-Green: sin x cos y cos z, -cos x sin y cos z, 0.
    for grid in (Grid(3, 16), Grid(3, 16, 4.0 * np.pi)):
        v = taylor_green_velocity(grid, 0.7)
        scale = grid.k0 * np.max(np.abs(v.coeffs))
        assert scale > 0.0
        assert np.max(np.abs(divergence(v).coeffs)) <= 1e-12 * scale
        assert not np.any(v.coeffs[2])


def test_simulate_preserves_reality_and_divergence(grid2):
    initial = _random_state(grid2, seed=47, amp=0.1)
    for state, _ in march(initial, 0.2, 0.02):
        assert state.divergence_defect() < 1e-10
        for f in (state.v, state.E, state.B):
            assert f.hermitian_defect() < 1e-12 * (np.max(np.abs(f.coeffs)) + 1e-300)


# ---------------------------------------------------------------------------
# Z-norm.


def test_z_norm_zero_and_single_component(grid2):
    initial = MhdState.zeros(grid2)
    traj = free_evolution(initial, 0.2, 0.1)
    z = z_norm(traj)
    assert z.total == 0.0
    v_only = MhdState(
        leray_project(random_field(grid2, seed=49)),
        SpectralField.zeros(grid2),
        SpectralField.zeros(grid2),
    ).prepared()
    states = [MhdState(v_only.v, v_only.E, v_only.B, t) for t in (0.0, 0.1, 0.2)]
    traj = trajectory_of(grid2, states)
    z = z_norm(traj)
    assert z.u > 0 and z.E == 0.0 and z.B == 0.0
    assert z.total == z.u + z.E + z.B


def test_z_norm_pinned_static_single_shell(grid2):
    # d=2 static single-shell (q=2) B of unit L2 block norm over T=1:
    # tilde-Linf piece sqrt(q^alpha * 4^{q(d/2-1)}) = sqrt(2); the
    # L2-in-time H^{d/2,d/2-1}_alpha piece has high-shell weight
    # q^alpha * 4^{q*0} = 2, so it contributes sqrt(2)*sqrt(T).
    # Total Z^B = sqrt(2) * (1 + sqrt(T)) = 2*sqrt(2) at T=1.
    vol = grid2.box_length**2
    amp = 1.0 / math.sqrt(2.0 * vol)
    B = single_mode_field(grid2, (4, 4), amp)  # |k| = 5.66: shell 2 only
    B = leray_project(B)
    assert abs(lp_norm_physical(B, 2) - 1.0) < 1e-12
    times = np.linspace(0.0, 1.0, 21)
    states = [MhdState(SpectralField.zeros(grid2), SpectralField.zeros(grid2), B, t)
              for t in times]
    traj = trajectory_of(grid2, states)
    z = z_norm(traj)
    assert abs(z.B - 2.0 * math.sqrt(2.0)) < 1e-10
    assert z.u == 0.0 and z.E == 0.0


# ---------------------------------------------------------------------------
# Initial-data splitting.


def test_split_large_target(grid2, part2):
    initial = _random_state(grid2, seed=50)
    full = initial_data_norm(initial)
    regular, tail, Q, achieved = split_initial_data(initial, 10.0 * full)
    assert Q == part2.q_min
    assert achieved < 10.0 * full
    # regular part at Q=q_min is the mean mode only (v mean is zero)
    hom = regular.v.copy()
    hom.set_mean((0, 0, 0))
    assert np.max(np.abs(hom.coeffs)) == 0.0


def test_split_band_limited(grid2, part2):
    rng = np.random.default_rng(51)
    v = gen_field(grid2, rng, 0.0, 3, True)
    E = gen_field(grid2, rng, 0.0, 3, False)
    B = gen_field(grid2, rng, 0.0, 3, True)
    initial = MhdState(v, E, B).prepared()
    regular, tail, Q, achieved = split_initial_data(initial, 1e-10)
    assert achieved < 1e-10
    assert Q <= part2.q_max + 1
    # reconstruction is exact
    for name in ("v", "E", "B"):
        a = getattr(regular, name).coeffs + getattr(tail, name).coeffs
        b = getattr(initial, name).coeffs
        assert np.max(np.abs(a - b)) < 1e-13 * (np.max(np.abs(b)) + 1e-300)


def test_split_tail_monotone(grid2, part2):
    initial = _random_state(grid2, seed=52)
    norms = []
    for Q in range(part2.q_min, part2.q_max + 2):
        tail = MhdState(
            initial.v - low_pass(initial.v, Q),
            initial.E - low_pass(initial.E, Q),
            initial.B - low_pass(initial.B, Q),
        )
        norms.append(initial_data_norm(tail))
    assert all(norms[i + 1] <= norms[i] + 1e-12 for i in range(len(norms) - 1))


def test_split_rejects_bad_target(grid2):
    with pytest.raises(ValueError):
        split_initial_data(MhdState.zeros(grid2), -1.0)


# ---------------------------------------------------------------------------
# Picard iteration.


def test_picard_zero_data(grid2):
    last, ratios, diffs = picard_iterate(MhdState.zeros(grid2), 0.2, 0.05, 3)
    assert ratios == []
    assert diffs == [0.0, 0.0, 0.0]
    for s in states_of(last):
        assert np.max(np.abs(s.v.coeffs)) == 0.0


def _copied(traj):
    return Trajectory(traj.grid, traj.times, tuple(a.copy() for a in traj.kept))


def test_picard_drops_ratios_of_roundoff_noise(grid2):
    # Five iterates take these small data to a last difference below the
    # roundoff floor; the ratio with that difference as numerator is noise.
    # The iterate chain is rebuilt here from the map and the norm.
    initial = _random_state(grid2, seed=55, amp=1e-2)
    last, ratios, got = picard_iterate(initial, 0.2, 0.05, 5)
    free = free_evolution(initial, 0.2, 0.05)
    table = PropagatorTable.build(grid2, 0.05).kept()
    chain = [Trajectory(grid2, free.times, tuple(np.zeros_like(a) for a in free.kept))]
    for m in range(5):
        chain.append(_apply_phi(initial.prepared(), free.times,
                                _copied(chain[-1]) if m else None, table)[0])
    diffs = [z_norm(Trajectory(grid2, b.times,
                           tuple(x - y for x, y in zip(b.kept, a.kept)))).total
             for a, b in zip(chain, chain[1:])]
    assert got == diffs
    assert all(np.array_equal(a, b) for a, b in zip(last.kept, chain[-1].kept))
    floor = 1e3 * np.finfo(np.float64).eps * diffs[0]
    assert diffs[-1] <= floor < diffs[-2]
    assert ratios == pytest.approx([diffs[m] / diffs[m - 1] for m in range(1, len(diffs) - 1)])


def test_apply_phi_matches_composite_trapezoid(monkeypatch):
    # The one-apply recursion against sum_j w_j e^{(t_n - t_j) A} N_j with
    # trapezoid weights, each term propagated from t_j by heat_apply and
    # maxwell_apply.  N is evaluated in chunks of three times, so the
    # recursion carries N_{n-1} across two chunk boundaries.
    from nsmaxwell import grid as grid_module

    grid = Grid(2, 16)
    dt, steps = 0.05, 6
    monkeypatch.setattr(grid_module, "_CHUNK_ELEMENTS", 3 * 3 * grid.n**2)
    assert [len(c) for c in grid_module._time_chunks(range(steps + 1),
                                                     3 * grid.n**2)] == [3, 3, 1]
    initial = _random_state(grid, seed=57)
    free = free_evolution(initial, steps * dt, dt)
    pert = trajectory_of(grid, [_random_state(grid, seed=60 + i, amp=0.3)
                                for i in range(steps + 1)])
    got, _ = _apply_phi(initial.prepared(), free.times, _copied(pert),
                        PropagatorTable.build(grid, dt).kept())
    got = list(states_of(got))
    ns = [_state_nonlinearity(MhdState(f.v + p.v, f.E + p.E, f.B + p.B))
          for f, p in zip(states_of(free), states_of(pert))]
    for n in range(1, steps + 1):
        want = MhdState.zeros(grid)
        for j in range(n + 1):
            w = dt / 2 if j in (0, n) else dt
            t = free.times[n] - free.times[j]
            n_v, n_E = ns[j]
            E, B = maxwell_apply(n_E, SpectralField.zeros(grid), t)
            want = MhdState(want.v + w * heat_apply(n_v, t), want.E + w * E,
                            want.B + w * B)
        for name in ("v", "E", "B"):
            a = getattr(got[n], name).coeffs
            b = getattr(want, name).coeffs
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), (n, name)


def test_picard_applies_one_propagator_per_step(grid2, monkeypatch):
    # Each map rebuilds the S steps of the free evolution and makes S
    # steps of its own: 2 S applies per map, and no free stack is held.
    calls = []
    apply = PropagatorTable.apply

    def counted(self, *args, **kwargs):
        calls.append(args)
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(PropagatorTable, "apply", counted)
    updates = count_trapezoids(monkeypatch)
    iters, steps, dt = 3, 4, 0.05
    picard_iterate(_random_state(grid2, seed=56, amp=1e-2), steps * dt, dt, iters)
    assert len(calls) == 2 * iters * steps
    # Each map's own steps are exponential-trapezoid updates; the free
    # evolution's are plain applies.
    assert updates == [3] * (iters * steps)


def test_picard_calls_the_public_kernel_per_chunk(grid2, monkeypatch):
    # Each map evaluates N by one call of ``nonlinearity`` per chunk of
    # times, so wrapping the public name sees every kernel call.
    from nsmaxwell import grid as grid_module
    from nsmaxwell import system

    calls = []
    kernel = system.nonlinearity

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(system, "nonlinearity", counted)
    monkeypatch.setattr(grid_module, "_CHUNK_ELEMENTS", 3 * 3 * grid2.n**2)
    iters, steps, dt = 3, 6, 0.05
    chunks = [len(c) for c in _time_chunks(range(steps + 1), 3 * grid2.n**2)]
    assert chunks == [3, 3, 1]
    initial = _random_state(grid2, seed=56, amp=1e-2)
    _, _, diffs = picard_iterate(initial, steps * dt, dt, iters)
    assert len(diffs) == iters
    assert calls == chunks * iters


def test_picard_builds_one_propagator_table(grid2, monkeypatch):
    # Every map, and the free evolution it rebuilds, share the table of one
    # build.
    calls = []
    build = PropagatorTable.build

    def counted(grid, dt):
        calls.append(dt)
        return build(grid, dt)

    monkeypatch.setattr(PropagatorTable, "build", counted)
    _, _, diffs = picard_iterate(_random_state(grid2, seed=56, amp=1e-2), 0.2, 0.05, 3)
    assert calls == [0.05]
    assert len(diffs) == 3


def _out_of_place_phi(free, pert, table):
    # The map into new stacks, pert left untouched: per chunk N on
    # free + pert, then the recursion of ``_apply_phi``.
    grid, h = free.grid, 0.5 * table.dt
    free_half, pert_half = ([_unpack(grid, a) for a in t.kept] for t in (free, pert))
    out = tuple(np.zeros_like(a) for a in free_half)
    prev = None
    for chunk in _time_chunks(range(len(free)), 3 * grid.n**grid.d):
        at = slice(chunk.start, chunk.stop)
        n_v, n_E = (h * n for n in nonlinearity(
            grid, *(a[at] + b[at] for a, b in zip(free_half, pert_half))))
        for j, i in enumerate(chunk):
            if prev is not None:
                v, E, B = (a[i] for a in out)
                np.add(out[0][i - 1], prev[0], out=v)
                np.add(out[1][i - 1], prev[1], out=E)
                table.apply(v, E, out[2][i - 1], out=(v, E, B))
                v += n_v[j]
                E += n_E[j]
            prev = n_v[j], n_E[j]
    return out


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_streamed_difference_norm_matches_z_norm(grid_name, request, monkeypatch):
    # The map writes into pert's kept stacks and streams the shell rows of
    # new - old.  Against a map on the half spectrum into new stacks and
    # z_norm of the difference formed explicitly, both bit for bit, on
    # chunks of three times that leave a one-slot last chunk.
    from nsmaxwell import grid as grid_module

    grid = request.getfixturevalue(grid_name)
    dt, steps = 0.02, 6
    monkeypatch.setattr(grid_module, "_CHUNK_ELEMENTS", 3 * 3 * grid.n**grid.d)
    assert [len(c) for c in _time_chunks(range(steps + 1),
                                         3 * grid.n**grid.d)] == [3, 3, 1]
    table = PropagatorTable.build(grid, dt)
    initial = _random_state(grid, seed=61)
    free = free_evolution(initial, steps * dt, dt)
    pert = trajectory_of(grid, [_random_state(grid, seed=70 + i, amp=0.3)
                                for i in range(steps + 1)])
    old = _copied(pert)
    want = _out_of_place_phi(free, old, table)
    got, series = _apply_phi(initial.prepared(), free.times, pert, table.kept())
    assert all(got_a is a for got_a, a in zip(got.kept, pert.kept))
    assert all(np.array_equal(_unpack(grid, a), b) for a, b in zip(got.kept, want))
    diff = Trajectory(grid, free.times,
                      tuple(np.subtract(a, b) for a, b in zip(got.kept, old.kept)))
    assert _z_from_series(grid.d, *series) == z_norm(diff)


def test_picard_holds_one_iterate(grid2, monkeypatch):
    # Every map after the first writes into the first map's stacks, and no
    # earlier output stays alive: Picard holds one iterate however many
    # maps it applies.
    from nsmaxwell import system

    outputs, alive_at_map, first = [], [], []
    apply_phi = system._apply_phi

    def alive():
        gc.collect()
        return [i for i, ref in enumerate(outputs) if ref() is not None]

    def watched(*args, **kwargs):
        alive_at_map.append(alive())
        out, series = apply_phi(*args, **kwargs)
        if not first:
            first.extend(weakref.ref(a) for a in out.kept)
        assert all(np.shares_memory(a, ref()) for a, ref in zip(out.kept, first))
        outputs.append(weakref.ref(out))
        return out, series

    monkeypatch.setattr(system, "_apply_phi", watched)
    result = picard_iterate(_random_state(grid2, seed=59, amp=1e-2), 0.2, 0.05, 6)
    assert alive_at_map == [[]] + [[m - 1] for m in range(1, 6)]
    last, _, diffs = result
    del result
    assert len(diffs) == 6
    assert alive() == [5]
    del last
    assert alive() == [] and all(ref() is None for ref in first)


def _picard_peak_in_trajectories():
    # The traced peak of three maps at 2D n = 32, T = 2, dt = 0.01, in
    # units of one trajectory's stacks on the half spectrum; and the last
    # iterate.
    grid = Grid(2, 32)
    T, dt = 2.0, 0.01
    initial = _random_state(grid, seed=62, amp=1e-2)
    stacks = 3 * (step_count(T, dt) + 1) * 3 * math.prod(grid.spectral_shape) * 16
    tracemalloc.start()
    try:
        last = picard_iterate(initial, T, dt, 3)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / stacks, last


def test_picard_peak_memory_below_three_trajectories():
    # A free evolution and two iterates alone would fill three
    # trajectories' stacks.
    peak, _ = _picard_peak_in_trajectories()
    assert peak < 3, peak


def test_picard_peak_memory_below_two_trajectories():
    # One iterate and a chunk's temporaries: each map rebuilds the free
    # evolution chunk by chunk, so a free stack beside the iterate would
    # fill two trajectories' stacks.
    peak, _ = _picard_peak_in_trajectories()
    assert peak < 2, peak


def test_picard_peak_memory_below_one_trajectory():
    # The iterate lives on the modes the 2/3 rule keeps (42% of the half
    # spectrum at n = 32), and so do the free chunks; an iterate on the
    # half spectrum alone would fill one trajectory's stacks.  The last
    # iterate comes back on kept stacks, not unpacked.
    peak, last = _picard_peak_in_trajectories()
    assert peak < 1, peak
    assert all(a.shape == (len(last), 3, last.grid._kept.size) for a in last.kept)


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_map_streams_the_free_evolution(grid_name, request, monkeypatch):
    # The states each map hands to the kernel are the free evolution of
    # free_evolution, then free + pert, bit for bit, on chunks
    # of three times that leave a one-slot last chunk: the streamed
    # recursion crosses each chunk boundary from the free state, not from
    # the sum written into the chunk buffer.
    from nsmaxwell import grid as grid_module
    from nsmaxwell import system

    grid = request.getfixturevalue(grid_name)
    dt, steps = 0.02, 6
    monkeypatch.setattr(grid_module, "_CHUNK_ELEMENTS", 3 * 3 * grid.n**grid.d)
    assert [len(c) for c in _time_chunks(range(steps + 1),
                                         3 * grid.n**grid.d)] == [3, 3, 1]
    initial = _random_state(grid, seed=65)
    free = free_evolution(initial, steps * dt, dt)
    seen = []
    kernel = system.nonlinearity

    def watched(grid, v, E, B):
        seen.append(tuple(a.copy() for a in (v, E, B)))
        return kernel(grid, v, E, B)

    monkeypatch.setattr(system, "nonlinearity", watched)
    table = PropagatorTable.build(grid, dt).kept()
    first, _ = _apply_phi(initial.prepared(), free.times, None, table)
    old = _copied(first)
    _apply_phi(initial.prepared(), free.times, first, table)
    assert len(seen) == 6
    for m, plus in enumerate((None, old)):
        got = [np.concatenate([s[c] for s in seen[3 * m:3 * m + 3]]) for c in range(3)]
        want = [_unpack(grid, a) for a in free.kept]
        if plus is not None:
            want = [a + _unpack(grid, b) for a, b in zip(want, plus.kept)]
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))


def test_picard_iterates_are_lazy_half_stacks(grid2):
    # Each iterate holds only (times, 3, K) stacks on the kept modes; a
    # state is unpacked to the half spectrum (3, n, n/2+1) when it is read,
    # one at a time, and is a real field.
    last, _, _ = picard_iterate(_random_state(grid2, seed=58, amp=1e-2), 0.2, 0.05, 3)
    h = grid2.n // 2 + 1
    assert [f.name for f in dataclasses.fields(last)] == ["grid", "times", "kept"]
    for a in last.kept:
        assert a.shape == (5, 3, grid2._kept.size)
    assert len(last) == 5
    for i, state in enumerate(states_of(last)):
        for a, f in zip(last.kept, (state.v, state.E, state.B)):
            assert f.coeffs.shape == (3, grid2.n, h)
            assert np.array_equal(f.coeffs, _unpack(grid2, a)[i])
            assert f.hermitian_defect() <= 1e-14 * np.max(np.abs(a[i]))


def test_picard_requires_two_iterations(grid2):
    with pytest.raises(ValueError):
        picard_iterate(MhdState.zeros(grid2), 0.1, 0.05, 1)


def test_picard_matches_simulate_small_data(grid2):
    initial = _random_state(grid2, seed=53, amp=1e-3)
    T, dt = 0.3, 0.01
    last, ratios, _ = picard_iterate(initial, T, dt, 4)
    assert all(r < 1.0 for r in ratios)
    free = free_evolution(initial, T, dt)
    fixed = picard_solution(free, last)
    ref = [state for state, _ in march(initial, T, dt)]
    scale = initial_data_norm(initial)
    worst = max(
        max(
            lp_norm_physical(a.v - b.v, 2),
            lp_norm_physical(a.E - b.E, 2),
            lp_norm_physical(a.B - b.B, 2),
        )
        for a, b in zip(states_of(fixed), ref)
    )
    assert worst <= 10.0 * dt**2 * scale


def test_picard_ratio_scales_with_epsilon(grid2):
    base = _random_state(grid2, seed=54)
    eps = [1e-3, 1e-2, 1e-1]
    worst = []
    for e in eps:
        _, ratios, _ = picard_iterate(base.scaled(e), 0.2, 0.02, 3)
        worst.append(max(ratios))
    # approximately linear scaling of the first contraction ratio in eps
    slopes = np.diff(np.log(worst)) / np.diff(np.log(eps))
    assert np.all(slopes > 0.5), slopes
    assert worst[0] < worst[1] < worst[2]

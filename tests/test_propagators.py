import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from nsmaxwell.checks import heat_forced_coeffs
from nsmaxwell.grid import Grid, SpectralField, _pack, leray_project, lp_norm_physical
from nsmaxwell.propagators import (
    BlowupError,
    PropagatorTable,
    _maxwell_coefficients,
    _maxwell_modes,
    duhamel_step,
    maxwell_apply,
    maxwell_apply_undamped,
    maxwell_wave_route,
    phi_multipliers,
)
from nsmaxwell.system import MhdState

from conftest import apply_state, count_trapezoids, random_field


def _random_state(grid, seed=0):
    v = leray_project(random_field(grid, seed=seed))
    E = random_field(grid, seed=seed + 1)
    B = leray_project(random_field(grid, seed=seed + 2))
    return MhdState(v, E, B).prepared()


# ---------------------------------------------------------------------------
# Phi multipliers.


def test_phi_at_zero_time():
    p1, p2 = phi_multipliers(0.0, np.array([0.0, 0.1, 0.25, 9.0]))
    assert np.allclose(p1, 1.0) and np.allclose(p2, 0.0)


def test_phi_branch_point():
    for t in (0.3, 2.0, 7.0):
        p1, p2 = phi_multipliers(t, 0.25)
        assert abs(p1 - math.exp(-t / 2)) < 1e-12
        assert abs(p2 - t * math.exp(-t / 2)) < 1e-12


def test_phi_zero_frequency():
    for t in (0.1, 1.0, 5.0):
        p1, p2 = phi_multipliers(t, 0.0)
        assert abs(p1 - 0.5 * (1.0 + math.exp(-t))) < 1e-12
        assert abs(p2 - (1.0 - math.exp(-t))) < 1e-12


def test_phi_taylor_branch_continuity():
    # the series branch must join the exact branches smoothly
    t = 1.0
    for ksq in (0.25 - 1e-10, 0.25 + 1e-10):
        p1, p2 = phi_multipliers(t, ksq)
        q1, q2 = phi_multipliers(t, 0.25)
        assert abs(p1 - q1) < 1e-9 and abs(p2 - q2) < 1e-9


def test_phi_large_time_no_overflow():
    p1, p2 = phi_multipliers(np.array([500.0, 2000.0]), 0.01)
    assert np.all(np.isfinite(p1)) and np.all(np.isfinite(p2))
    # slow branch decays like e^{-ksq t} for small ksq
    assert p1[0] > 0 and p1[1] < p1[0]


def test_phi_negative_inputs_rejected():
    with pytest.raises(ValueError):
        phi_multipliers(-1.0, 0.1)
    with pytest.raises(ValueError):
        phi_multipliers(1.0, -0.1)


def test_phi_oscillatory_decay_rate():
    # |xi| >= 2: both multipliers decay like e^{-ct} with c in (0, 1)
    t = np.linspace(1e-3, 10.0, 2001)
    for xi in (2.0, 5.0, 10.0):
        p1, p2 = phi_multipliers(t, xi**2)
        c1 = np.min(-np.log(np.abs(p1) + 1e-300) / t)
        c2 = np.min(-np.log(xi * np.abs(p2) + 1e-300) / t)
        assert 0.0 < min(c1, c2) < 1.0


def test_phi_shell_l1_exact_integral():
    # closed form: integral of Phi_q^1 = Phi_1(t, 2^{2(q-1)}) over (0, inf)
    # equals 2 * 2^{-2q}
    for q in (-3, -5):
        val, _ = quad(lambda s: phi_multipliers(s, 4.0 ** (q - 1))[0], 0, np.inf, limit=400)
        assert abs(val - 2.0 * 4.0 ** (-q)) < 1e-6 * 4.0 ** (-q)


def test_phi_shell_lr_bounds():
    # measured ratios ||Phi_q^i||_{L^r} / 2^{-2q/r}, Phi_q^i(t) = Phi_i(t, 2^{2(q-1)});
    # global C pinned at 4.0
    worst = 0.0
    for q in (-3, -4, -6):
        ksq = 4.0 ** (q - 1)
        for i in (1, 2):
            for r in (1, 2):
                if r == 1:
                    val, _ = quad(lambda s: abs(phi_multipliers(s, ksq)[i - 1]), 0, np.inf,
                                  limit=400)
                else:
                    v2, _ = quad(lambda s: phi_multipliers(s, ksq)[i - 1] ** 2, 0, np.inf,
                                 limit=400)
                    val = math.sqrt(v2)
                worst = max(worst, val / 2.0 ** (-2 * q / r))
    assert worst <= 4.0 + 1e-6


# ---------------------------------------------------------------------------
# Heat semigroup.


def test_heat_factor(grid2):
    f = SpectralField.zeros(grid2)
    f.coeffs[0][(2, 0)] = 1.0  # |k|^2 = 4
    g = heat_forced_coeffs(f, [], 0.5)
    assert abs(g.coeffs[0][(2, 0)] - math.exp(-2.0)) < 1e-12


def test_heat_semigroup(grid2):
    f = random_field(grid2, seed=20)
    a = heat_forced_coeffs(heat_forced_coeffs(f, [], 0.3), [], 0.45)
    b = heat_forced_coeffs(f, [], 0.75)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-13 * np.max(np.abs(f.coeffs))


# ---------------------------------------------------------------------------
# Maxwell group.


def test_maxwell_identity_at_zero(grid2):
    E = random_field(grid2, seed=21)
    B = leray_project(random_field(grid2, seed=22))
    E1, B1 = maxwell_apply(E, B, 0.0)
    scale = max(np.max(np.abs(E.coeffs)), np.max(np.abs(B.coeffs)))
    assert np.max(np.abs(E1.coeffs - E.coeffs)) < 1e-12 * scale
    assert np.max(np.abs(B1.coeffs - B.coeffs)) < 1e-12 * scale


def test_maxwell_mean_mode(grid2):
    E = SpectralField.zeros(grid2)
    B = SpectralField.zeros(grid2)
    E.set_mean((1.0, 2.0, 3.0))
    B.set_mean((0.5, 0.0, -0.5))
    t = 0.7
    E1, B1 = maxwell_apply(E, B, t)
    assert np.allclose(E1.mean(), math.exp(-t) * np.array([1.0, 2.0, 3.0]))
    assert np.allclose(B1.mean(), B.mean())


def test_maxwell_routes_agree(grid2, grid3):
    # Both grids: the fused Maxwell pass has a separate 2D branch.
    for grid in (grid2, grid3):
        E = random_field(grid, seed=23)
        B = leray_project(random_field(grid, seed=24))
        for t in (0.1, 1.0, 3.0):
            _, B_eig = maxwell_apply(E, B, t)
            B_wave = maxwell_wave_route(E, B, t)
            scale = np.max(np.abs(B_eig.coeffs)) + 1e-300
            assert np.max(np.abs(B_eig.coeffs - B_wave.coeffs)) < 1e-10 * scale


def test_maxwell_group_property(grid2, grid3):
    for grid in (grid2, grid3):
        state = _random_state(grid, seed=25)
        dt = 0.2
        t1 = PropagatorTable.build(grid, dt)
        t2 = PropagatorTable.build(grid, 2 * dt)
        once = apply_state(t1, apply_state(t1, state))
        twice = apply_state(t2, state)
        for name in ("v", "E", "B"):
            a = getattr(once, name).coeffs
            b = getattr(twice, name).coeffs
            assert np.max(np.abs(a - b)) < 1e-10 * (np.max(np.abs(b)) + 1e-300)


def _maxwell_generator(k):
    """The 6x6 per-mode generator of E' = -E + i k x B, B' = -i k x E."""
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.block([[-np.eye(3), 1j * K], [-1j * K, np.zeros((3, 3))]])


@pytest.mark.parametrize("d", [2, 3])
def test_maxwell_group_matches_matrix_exponential(d):
    # Every mode of a table apply, k = 0 included, against expm of the
    # generator on (E, B_perp): B carries a longitudinal part, which the
    # group drops (k . B is conserved, and zero on the physical sector).
    grid = Grid(d, 8)
    rng = np.random.default_rng(40 + d)
    shape = (3,) + grid.spectral_shape
    E = SpectralField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    B = SpectralField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    B_perp = leray_project(B)
    assert np.max(np.abs(B.coeffs - B_perp.coeffs)) > 0.1
    t = 0.7
    E_t, B_t = PropagatorTable.build(grid, t).apply_maxwell(E.coeffs, B.coeffs)
    got = np.concatenate([E_t, B_t]).reshape(6, -1)
    data = np.concatenate([E.coeffs, B_perp.coeffs]).reshape(6, -1)
    ks = np.stack([k.ravel() for k in grid.wavevectors], axis=1)
    want = np.stack([expm(t * _maxwell_generator(k)) @ data[:, m]
                     for m, k in enumerate(ks)], axis=1)
    assert np.all(ks[0] == 0)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


# Step sizes of the k = 0 guards: dt = 0 and 1e-9 take the Taylor branch
# of _maxwell_coefficients at k = 0, 0.01 leaves its a11 an ulp off e^{-dt}.
K0_STEPS = (0.0, 1e-9, 0.0025, 0.01, 0.05, 0.1)


@pytest.mark.parametrize("d", [2, 3])
def test_table_is_exact_at_k0(d):
    # The mean decouples, E0' = -E0 and B0' = 0, and the table holds that
    # group to the bit at k = 0, on the half spectrum and on the kept modes
    # (k = 0 first): the fused pass needs no k = 0 patch.
    grid = Grid(d, 16)
    for dt in K0_STEPS:
        table = PropagatorTable.build(grid, dt)
        for t, origin in ((table, (0,) * d), (table.kept(), 0)):
            got = (t.a11[origin], t.i_a12[origin], t.a22[origin])
            want = (np.exp(-dt), 0.0, 1.0)
            assert [np.complex128(a).tobytes() for a in got] == \
                [np.complex128(a).tobytes() for a in want], dt


def _patched_maxwell(table, E, B):
    """The fused pass with k = 0 (index 0 of the modes) overwritten by the
    mean's own group: E scaled by ``e_damp``, B kept."""
    origin = (slice(None),) + (0,) * (E.ndim - 1)
    E_t, B_t = _maxwell_modes(table.khat, E, B, table.a11, table.i_a12, table.a22,
                              table.e_damp)
    E_t[origin] = table.e_damp * E[origin]
    B_t[origin] = B[origin]
    return E_t, B_t


@pytest.mark.parametrize("d, n", [(2, 16), (2, 64), (3, 16), (3, 32)])
def test_apply_matches_k0_patch_reference(d, n):
    # Random amplitudes, k = 0 included: the table's apply, on the half
    # spectrum and on the kept modes, makes the bits of the patched pass.
    grid = Grid(d, n)
    rng = np.random.default_rng(70 + 10 * d + n)
    shape = (3,) + grid.spectral_shape
    half = tuple(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                 for _ in range(3))
    kept = tuple(_pack(grid, a) for a in half)
    for dt in K0_STEPS:
        table = PropagatorTable.build(grid, dt)
        for t, (v, E, B) in ((table, half), (table.kept(), kept)):
            got = t.apply(v, E, B)
            want = (t.apply_heat(v), *_patched_maxwell(t, E, B))
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want], dt


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_apply_in_place_matches_out_of_place(grid_name, request):
    # The slots of an in-place apply are its inputs; the pass forms every
    # product of E and B before its first write, so the results are the
    # same bits.
    grid = request.getfixturevalue(grid_name)
    state = _random_state(grid, seed=41)
    origin = (slice(None),) + (0,) * grid.d
    state.E.coeffs[origin] = (0.3, -0.2, 0.1)
    state.B.coeffs[origin] = (0.1, 0.4, -0.5)
    table = PropagatorTable.build(grid, 0.05)
    v, E, B = (f.coeffs.copy() for f in (state.v, state.E, state.B))
    want = table.apply(v, E, B)
    assert all(np.array_equal(a, f.coeffs) for a, f in zip((v, E, B), (state.v, state.E, state.B)))
    got = table.apply(v, E, B, out=(v, E, B))
    assert all(a is b for a, b in zip(got, (v, E, B)))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    E, B = state.E.coeffs.copy(), state.B.coeffs.copy()
    want = table.apply_maxwell(E, B)
    got = table.apply_maxwell(E, B, out=(E, B))
    assert got[0] is E and got[1] is B
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert not np.array_equal(E[origin], state.E.coeffs[origin])


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_complex_factors_match_real_factor_route(grid_name, request):
    # The table's a11, a22 and the grid's khat and 2/3 mask are held as
    # complex128 with zero imaginary part, the values numpy casts real
    # factors to: the pass on the real factors gives the same bits.
    grid = request.getfixturevalue(grid_name)
    state = _random_state(grid, seed=42)
    table = PropagatorTable.build(grid, 0.05)
    for a in (table.a11, table.a22, grid._unit_wavevectors, grid._half_keep):
        assert a.dtype == np.complex128 and not np.any(a.imag)
    E, B = state.E.coeffs, leray_project(state.B).coeffs
    got = table.apply_maxwell(E, B)
    a11, a12, a22 = _maxwell_coefficients(grid.k_squared, table.dt)
    want = _maxwell_modes(grid._unit_wavevectors.real, E, B, a11, 1j * a12, a22,
                          np.exp(-table.dt))
    assert a11.dtype == np.float64 and np.any(got[1])
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_kept_table_is_the_full_table_on_the_kept_modes(grid_name, request):
    # The gathered table's apply, in place on packed amplitudes, makes the
    # bits of the full table's apply on the same modes, k = 0 included.
    grid = request.getfixturevalue(grid_name)
    state = _random_state(grid, seed=43)
    table = PropagatorTable.build(grid, 0.05)
    kept = table.kept()
    assert kept.khat.shape == (grid.d, grid._kept.size) and kept.e_damp == table.e_damp
    amps = tuple(f.coeffs.copy() for f in (state.v, state.E, state.B))
    want = table.apply(*amps, out=amps)
    slots = tuple(_pack(grid, f.coeffs) for f in (state.v, state.E, state.B))
    got = kept.apply(*slots, out=slots)
    assert all(a is b for a, b in zip(got, slots))
    assert np.any(got[1][:, 0]) and np.any(got[2][:, 0])  # k = 0 is stepped too
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.int64), _pack(grid, b).view(np.int64))


def test_undamped_variant_conserves_energy(grid2):
    E = random_field(grid2, seed=26)
    E = leray_project(E)  # transverse sector only
    B = leray_project(random_field(grid2, seed=27))
    e0 = lp_norm_physical(E, 2) ** 2 + lp_norm_physical(B, 2) ** 2
    dt = 0.01
    for _ in range(1000):
        E, B = maxwell_apply_undamped(E, B, dt)
    e1 = lp_norm_physical(E, 2) ** 2 + lp_norm_physical(B, 2) ** 2
    assert abs(e1 - e0) < 1e-10 * e0


def test_damped_energy_law():
    # ||E(t)||^2 + ||B(t)||^2 + 2 int_0^t ||E||^2 is conserved
    grid = Grid(2, 16)
    E = random_field(grid, seed=28)
    B = leray_project(random_field(grid, seed=29))
    total0 = lp_norm_physical(E, 2) ** 2 + lp_norm_physical(B, 2) ** 2
    dt = 2e-5
    n_steps = 10_000
    table = PropagatorTable.build(grid, dt)
    e_sq = [lp_norm_physical(E, 2) ** 2]
    for _ in range(n_steps):
        E, B = (SpectralField(grid, a) for a in table.apply_maxwell(E.coeffs, B.coeffs))
        e_sq.append(lp_norm_physical(E, 2) ** 2)
    times = np.arange(n_steps + 1) * dt
    total1 = (
        lp_norm_physical(E, 2) ** 2
        + lp_norm_physical(B, 2) ** 2
        + 2.0 * np.trapezoid(e_sq, times)
    )
    assert abs(total1 - total0) < 1e-8 * total0


# ---------------------------------------------------------------------------
# Duhamel stepping.


def _amps(state):
    return state.v.coeffs, state.E.coeffs, state.B.coeffs


def _constant_forcing(forcing):
    """The nonlinearity of ``duhamel_step`` that returns the (v, E) slots
    of ``forcing`` whatever the state."""
    return lambda v, E, B: (forcing.v.coeffs, forcing.E.coeffs)


def _step(amps, nonlinearity, table, **kwargs):
    """``duhamel_step`` given N(G_n), evaluated here as ``march`` does."""
    return duhamel_step(amps, nonlinearity(*amps), nonlinearity, table, **kwargs)


def test_duhamel_linear_is_exact(grid2):
    state = _random_state(grid2, seed=30)
    table = PropagatorTable.build(grid2, 0.25)
    stepped = _step(_amps(state), _constant_forcing(MhdState.zeros(grid2)), table)
    exact = apply_state(table, state)
    for a, b in zip(stepped, _amps(exact)):
        assert np.max(np.abs(a - b)) < 1e-13 * (np.max(np.abs(b)) + 1e-300)


def test_duhamel_trapezoid_order():
    # constant forcing: fitted convergence order in [1.9, 2.1]
    grid = Grid(2, 16)
    state0 = _random_state(grid, seed=31)
    nl = _constant_forcing(_random_state(grid, seed=32))

    def solve(dt, T=0.5):
        amps, table = _amps(state0), PropagatorTable.build(grid, dt)
        for i in range(round(T / dt)):
            amps = _step(amps, nl, table, scheme="exp-trapezoid")
        return amps

    ref = solve(0.5 / 256)
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        got = solve(dt)
        errs.append(max(np.max(np.abs(a - b)) for a, b in zip(got, ref)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.9 <= o <= 2.1 for o in orders), orders


@pytest.mark.parametrize("scheme, applies", [("exp-euler", 1), ("exp-trapezoid", 2)])
def test_duhamel_applies_one_propagator_per_evaluation(grid2, monkeypatch, scheme, applies):
    # G* = e^{dt A}(G + dt N0); the trapezoid adds e^{dt A}(G + dt/2 N0).
    calls = []
    apply = PropagatorTable.apply

    def counted(self, *args, **kwargs):
        calls.append(args)
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(PropagatorTable, "apply", counted)
    updates = count_trapezoids(monkeypatch)
    _step(_amps(_random_state(grid2, seed=36)),
          _constant_forcing(_random_state(grid2, seed=35)),
          PropagatorTable.build(grid2, 0.1), scheme=scheme)
    assert len(calls) == applies
    assert len(updates) == applies  # one _trapezoid update per apply


def test_duhamel_commutes_with_leray(grid2):
    f = random_field(grid2, seed=33)
    table = PropagatorTable.build(grid2, 0.3)
    a = table.apply_heat(leray_project(f).coeffs)
    b = leray_project(SpectralField(grid2, table.apply_heat(f.coeffs))).coeffs
    assert np.max(np.abs(a - b)) < 1e-13 * np.max(np.abs(f.coeffs))


def test_blowup_detection(grid2):
    state = _random_state(grid2, seed=34)
    bad = MhdState.zeros(grid2)
    bad.v.coeffs[0][(1, 1)] = np.nan

    with pytest.raises(BlowupError) as exc:
        _step(_amps(state), _constant_forcing(bad), PropagatorTable.build(grid2, 0.1),
              step_index=7)
    assert exc.value.step == 7


def test_table_at_zero_dt(grid2):
    table = PropagatorTable.build(grid2, 0.0)
    assert np.allclose(table.heat, 1.0)
    phi1, phi2 = phi_multipliers(0.0, grid2.k_squared)
    assert np.allclose(phi1, 1.0) and np.allclose(phi2, 0.0)
    assert np.allclose(table.i_a12, 0.0)


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_per_mode_operators_on_half_spectrum(grid_name, request):
    # Every per-mode operator keeps a real field real: its result is a half
    # spectrum whose columns m_d = 0 and n/2, the ones that hold both k and
    # -k, stay Hermitian; k = 0 carries a real mean.
    grid = request.getfixturevalue(grid_name)
    state = _random_state(grid, seed=60)
    state.E.coeffs[(slice(None),) + (0,) * grid.d] = (0.3, -0.2, 0.1)
    state.B.coeffs[(slice(None),) + (0,) * grid.d] = (0.1, 0.4, -0.5)
    for f in (state.v, state.E, state.B):
        assert f.hermitian_defect() == 0.0
    table = PropagatorTable.build(grid, 0.05)
    stepped = apply_state(table, state)
    assert stepped.time == state.time + 0.05
    got = [leray_project(state.E), SpectralField(grid, table.apply_heat(state.v.coeffs)),
           stepped.v, stepped.E, stepped.B]
    for group in (maxwell_apply, maxwell_apply_undamped):
        got += group(state.E, state.B, 0.37)
    assert len(got) == 9
    for f in got:
        assert f.coeffs.shape == (3,) + grid.spectral_shape
        assert f.hermitian_defect() <= 1e-15 * np.max(np.abs(f.coeffs))

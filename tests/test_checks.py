import json
import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from nsmaxwell.checks import (
    CSV_HEADER,
    PINNED_BOUNDS,
    PRODUCT_LAW_IDS,
    EstimateReport,
    SeparableTrajectory,
    _heat_forced,
    check_l2linfty,
    check_maxwell_energy_decay,
    check_product_law,
    concentrated_packet,
    envelope_time_norm,
    fast_eigenmode_state,
    fit_growth_exponent,
    heat_forced_coeffs,
    log_criticality_experiment,
    product_law_report,
    separable_product,
    write_reports_csv,
    write_reports_jsonl,
)
from nsmaxwell.dyadic import (
    NormSpec,
    _mode_power,
    _shell_l2,
    block,
    build_partition,
    norm_besov,
    norm_hst,
    shell_series,
    spacetime_norm_from_series,
    time_lebesgue,
)
from nsmaxwell.ensembles import FieldEnsembleSpec, gen_field
from nsmaxwell.grid import (
    _CHUNK_ELEMENTS,
    Grid,
    SpectralField,
    _time_chunks,
    gradient_component,
    lp_norm_physical,
)
from nsmaxwell.system import step_count

from conftest import count_transforms, count_trapezoids, random_field, single_mode_field


# ---------------------------------------------------------------------------
# Reports.


def test_report_ratio_bookkeeping():
    rep = EstimateReport("demo", {"T": 1.0}, bound=2.0)
    rep.add_sample(1.0, 2.0)
    rep.add_sample(3.0, 2.0)
    rep.add_sample(0.0, 0.0)  # 0/0 pairs are skipped
    assert rep.ratios == [0.5, 1.5]
    assert rep.max_ratio == 1.5
    assert rep.median_ratio == 1.0
    assert rep.passed


def test_report_zero_rhs_nonzero_lhs_raises():
    rep = EstimateReport("demo", {})
    rep.add_sample(1.0, 0.0)
    with pytest.raises(ValueError):
        rep.ratios
    with pytest.raises(ValueError):
        rep.add_sample(-1.0, 1.0)


def test_report_bound_gate():
    rep = EstimateReport("demo", {}, bound=1.0)
    rep.add_sample(2.0, 1.0)
    assert not rep.passed
    empty = EstimateReport("demo", {}, bound=0.5)
    assert empty.passed and empty.max_ratio == 0.0


@pytest.mark.parametrize("order", [1, -1], ids=["nan_last", "nan_first"])
def test_report_nan_ratio_fails_its_bound(order):
    # Python's max keeps whichever item comes first when NaN is compared.
    rep = EstimateReport("demo", {}, bound=0.5)
    for lhs in (0.1, math.nan)[::order]:
        rep.add_sample(lhs, 1.0)
    assert math.isnan(rep.max_ratio)
    assert not rep.passed


def test_report_serialization(tmp_path):
    rep = EstimateReport("demo", {"T": 1.0, "d": 2}, bound=1.0)
    rep.add_sample(0.25, 1.0)
    jpath = tmp_path / "r.jsonl"
    cpath = tmp_path / "r.csv"
    write_reports_jsonl([rep], jpath)
    write_reports_csv([rep], cpath)
    row = json.loads(jpath.read_text().strip())
    assert row["estimate_id"] == "demo" and row["pass"] is True
    assert row["max_ratio"] == 0.25
    lines = cpath.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("demo,")


# ---------------------------------------------------------------------------
# Separable trajectories.


def test_envelope_time_norm_vs_quadrature():
    for rate in (0.0, 0.7, 2.0):
        for p in (1, 2):
            direct, _ = quad(lambda t: math.exp(-rate * t) ** p, 0.0, 5.0)
            direct = direct ** (1.0 / p)
            assert abs(envelope_time_norm(rate, 5.0, p) - direct) < 1e-10
    assert envelope_time_norm(3.0, 5.0, np.inf) == 1.0
    with pytest.raises(ValueError):
        envelope_time_norm(1.0, 1.0, 4)


def test_envelope_time_norm_of_a_growing_envelope(grid2):
    # A negative rate is an envelope that grows: at rate -1, T = 1 the norms
    # are e - 1, sqrt((e^2 - 1) / 2) and e, not the 1 of a constant.
    for rate in (-1.0, -0.3):
        for T in (1.0, 5.0):
            for p in (1, 2):
                direct = quad(lambda t: math.exp(-rate * t) ** p, 0.0, T)[0] ** (1.0 / p)
                assert abs(envelope_time_norm(rate, T, p) - direct) < 1e-12 * direct
            assert envelope_time_norm(rate, T, np.inf) == math.exp(-rate * T)
    assert abs(envelope_time_norm(-1.0, 1.0, 1) - (math.e - 1.0)) < 1e-15
    assert abs(envelope_time_norm(-1.0, 1.0, 2) - math.sqrt((math.e**2 - 1.0) / 2.0)) < 1e-15
    # The L^1_T H^{d/2-1} forcing term of check_l2linfty takes that norm.
    u0 = random_field(grid2, seed=58, slope=1.5)
    F = random_field(grid2, seed=59, slope=1.0)
    spec = NormSpec.sobolev(0.0)
    rep = check_l2linfty(u0, (F, -1.0), None, T=1.0, dt=0.05)
    expect = norm_hst(u0, spec) + norm_hst(F, spec) * (math.e - 1.0)
    assert abs(rep.rhs[0] - expect) < 1e-13 * expect


def test_separable_trajectory_matches_sampled_norm(grid2):
    f = random_field(grid2, seed=50, slope=1.0)
    traj = SeparableTrajectory(f, rate=1.3)
    T = 2.0
    times = np.linspace(0.0, T, 801)
    series = shell_series(np.stack([f.coeffs * math.exp(-1.3 * t) for t in times]),
                          times, grid2)
    for p in (2, np.inf):
        spec = NormSpec.sobolev(0.5, time_exponent=p, tilde=True)
        sampled = spacetime_norm_from_series(series, spec)
        closed = traj.spacetime(spec, T)
        assert abs(sampled - closed) < 2e-5 * closed


def test_separable_product_rates_add(grid2):
    a = SeparableTrajectory(random_field(grid2, seed=51), rate=1.0)
    b = SeparableTrajectory(random_field(grid2, seed=52), rate=2.5)
    prod = separable_product(a, b)
    assert prod.rate == 3.5
    assert prod.field.grid == grid2


# ---------------------------------------------------------------------------
# Bernstein.


def _bernstein_report(grid, seed, count, q, shell=None):
    """Both-sided first-derivative bound on the shell-q blocks of ``count``
    random fields drawn from ``seed`` (``gen_field``, restricted to
    ``shell`` if given).

    Per sample: max_axis ||d_axis Delta_q f|| / (2^q ||Delta_q f||).  The
    report's LHS/RHS carry the ratio and 1 so the empirical two-sided
    constant is max(max_ratio, 1/min nonzero ratio); we store both
    orientations as separate samples.
    """
    report = EstimateReport("bernstein", {"q": q, "seed": seed})
    rng = np.random.default_rng(seed)
    for _ in range(count):
        bq = block(gen_field(grid, rng, shell=shell), q)
        base = lp_norm_physical(bq, 2)
        if base == 0.0:
            raise ValueError(f"shell {q} empty for this ensemble")
        best = max(lp_norm_physical(gradient_component(bq, axis), 2)
                   for axis in range(grid.d))
        ratio = best / (2.0**q * base)
        report.add_sample(ratio, 1.0)
        report.add_sample(1.0, ratio)
    return report


def test_bernstein_single_mode_ratio_is_exact():
    # one mode at |k| = 2^q exactly: derivative along its axis gives
    # ratio |k| / 2^q = 1
    grid = Grid(2, 64)
    rep = _bernstein_report(grid, seed=0, count=1, q=2)
    assert rep.ratios  # ensemble route ran
    f = single_mode_field(grid, (4, 0), 1.0)
    bq = block(f, 2)
    g = gradient_component(bq, 0)
    ratio = lp_norm_physical(g, 2) / (4.0 * lp_norm_physical(bq, 2))
    assert abs(ratio - 1.0) < 1e-12


def test_bernstein_random_shells_bounded():
    # measured two-sided constants on random shell data (regression range)
    for q in (1, 2, 3):
        rep = _bernstein_report(Grid(2, 64), seed=3, count=8, q=q)
        vals = rep.ratios[0::2]
        assert 0.7 < min(vals) and max(vals) < 2.7, (q, vals)


def test_bernstein_empty_shell_raises():
    with pytest.raises(ValueError):
        _bernstein_report(Grid(2, 64), seed=0, count=1, q=4, shell=2)


# ---------------------------------------------------------------------------
# Forced heat flow.


def test_heat_forced_coeffs_vs_ode_oracle(grid2):
    u0 = random_field(grid2, seed=53, slope=1.0)
    F1 = random_field(grid2, seed=54, slope=1.0)
    F2 = random_field(grid2, seed=55, slope=1.0)
    rates = (0.8, 3.0)
    t_end = 0.7
    got = heat_forced_coeffs(u0, [(F1, rates[0]), (F2, rates[1])], t_end)

    ksq = grid2.k_squared().ravel()
    y0 = u0.coeffs.reshape(3, -1)

    def rhs(t, y):
        y = y.reshape(3, -1)
        out = -ksq * y
        out = out + F1.coeffs.reshape(3, -1) * math.exp(-rates[0] * t)
        out = out + F2.coeffs.reshape(3, -1) * math.exp(-rates[1] * t)
        return out.ravel()

    sol = solve_ivp(
        rhs, (0.0, t_end), y0.ravel(), rtol=1e-11, atol=1e-13, method="DOP853"
    )
    oracle = sol.y[:, -1].reshape(got.coeffs.shape)
    scale = np.max(np.abs(oracle)) + 1e-300
    assert np.max(np.abs(got.coeffs - oracle)) < 1e-8 * scale


def test_heat_forced_resonant_mode():
    # forcing rate equal to |k|^2 hits the t e^{-|k|^2 t} resonance branch
    grid = Grid(2, 16)
    u0 = SpectralField.zeros(grid)
    F = single_mode_field(grid, (1, 0), 1.0)
    got = heat_forced_coeffs(u0, [(F, 1.0)], 0.5)
    expect = 0.5 * math.exp(-0.5)
    assert abs(got.coeffs[2][(1, 0)] - expect) < 1e-12


def _parabolic_smoothing_report(u0, forcing, T, p, s, r, dt=0.01):
    """Heat regularization in Besov-(2,1) scale.

    LHS = sup_t ||u(t)||_{B^s_{2,1}} + tilde-L^p_T B^{s+2/p}_{2,1};
    RHS = ||u0||_{B^s_{2,1}} + tilde-L^r_T B^{s-2+2/r}_{2,1} of the forcing.
    ``forcing`` is None or (SpectralField, rate).  The shell norms at all
    sample times t_n = n dt come from the closed-form solution of
    ``checks._heat_forced`` on the modes with power and shell weight, a
    chunk of times at once; T must be a multiple of dt.
    """
    grid = u0.grid
    part = build_partition(grid)
    forcings = [] if forcing is None else [forcing]
    times = np.arange(step_count(T, dt) + 1) * dt
    power = sum(_mode_power(f.coeffs.reshape(3, -1)) for f in [u0] + [F for F, _ in forcings])
    idx = np.flatnonzero((power > 0) & (part.partition_sum().ravel() > 0))
    ksq, w2 = grid.k_squared().ravel()[idx], part.shell_matrix(idx)

    def sel(c):
        return c.reshape(3, -1)[:, idx]

    amps = [(sel(F.coeffs), lam) for F, lam in forcings]
    rows = np.vstack([
        _shell_l2(_mode_power(_heat_forced(ksq, sel(u0.coeffs), amps, t[:, None, None])),
                  w2)
        for t in _time_chunks(times, 3 * ksq.size)
    ])
    q_values = np.array(part.shells(), dtype=float)

    sup_besov = time_lebesgue(rows @ 2.0 ** (s * q_values), times, np.inf)
    # tilde-L^p_T B^{s+2/p}_{2,1}: time norm per shell, then the l^1 sum.
    smoothed = float(2.0 ** (q_values * (s + 2.0 / p)) @ time_lebesgue(rows, times, p))
    lhs = sup_besov + smoothed

    rhs = norm_besov(u0, s)
    if forcing is not None:
        F, lam = forcing
        rhs += norm_besov(F, s - 2.0 + 2.0 / r) * envelope_time_norm(lam, T, r)
    report = EstimateReport(
        "parabolic-smoothing", {"s": s, "p": p, "r": r, "T": T, "dt": dt}
    )
    report.add_sample(lhs, rhs)
    return report


def test_parabolic_smoothing_zero_data(grid2):
    rep = _parabolic_smoothing_report(
        SpectralField.zeros(grid2), None, T=1.0, p=2, s=0.5, r=2
    )
    assert rep.lhs == [0.0] and rep.rhs == [0.0]
    assert rep.ratios == []


def test_parabolic_smoothing_ratio_dt_stable(grid2):
    # the measured ratio converges as dt -> 0 (time quadrature converges)
    u0 = random_field(grid2, seed=56, slope=1.5)
    F = random_field(grid2, seed=57, slope=1.0)
    vals = []
    for dt in (0.02, 0.01, 0.005):
        rep = _parabolic_smoothing_report(u0, (F, 1.0), T=2.0, p=1, s=0.0, r=1,
                                        dt=dt)
        vals.append(rep.max_ratio)
    assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[1]) + 1e-12
    assert abs(vals[0] - vals[2]) < 0.02 * vals[2]


def test_parabolic_smoothing_matches_per_time_reference(grid2, part2):
    # the batched closed form against one _block_l2 per sample time
    from nsmaxwell.dyadic import _block_l2

    u0 = random_field(grid2, seed=56, slope=1.5)
    F = random_field(grid2, seed=57, slope=1.0)
    q_values = list(part2.shells())
    for forcing, p, s in (((F, 1.0), 1, 0.0), (None, 2, 0.5)):
        T, dt = 2.0, 0.01
        times = np.arange(0.0, T + dt / 2, dt)
        forcings = [] if forcing is None else [forcing]
        rows = np.array(
            [_block_l2(heat_forced_coeffs(u0, forcings, t)) for t in times]
        )
        sup = max(
            sum(2.0 ** (q * s) * rows[i, j] for j, q in enumerate(q_values))
            for i in range(len(times))
        )
        col_norm = np.trapezoid(rows**p, times, axis=0) ** (1.0 / p)
        ref = sup + sum(2.0 ** (q * (s + 2.0 / p)) * col_norm[j]
                        for j, q in enumerate(q_values))
        rep = _parabolic_smoothing_report(u0, forcing, T=T, p=p, s=s, r=1, dt=dt)
        assert abs(rep.lhs[0] - ref) <= 1e-12 * ref


@pytest.mark.parametrize("data", ["three-component", "single-component"])
def test_l2linfty_matches_per_time_reference(grid2, data):
    # the chunked half-spectrum transforms against one full inverse
    # transform per sample time
    if data == "three-component":
        u0 = gen_field(grid2, np.random.default_rng(1), slope=1.5)
        f1 = (gen_field(grid2, np.random.default_rng(2), slope=1.0), 1.0)
        f2 = (gen_field(grid2, np.random.default_rng(3), slope=1.0), 2.0)
    else:
        u0 = single_mode_field(grid2, (2, 1), 0.3 + 0.4j, component=1)
        f1 = (single_mode_field(grid2, (1, 3), 0.5, component=1), 1.0)
        f2 = (single_mode_field(grid2, (1, 0), 0.2j, component=1), 1.0)
    T, dt = 3.0, 0.01
    times = np.arange(0.0, T + dt / 2, dt)
    sup = [lp_norm_physical(heat_forced_coeffs(u0, [f1, f2], t), np.inf)
           for t in times]
    ref = math.sqrt(np.trapezoid(np.square(sup), times))
    rep = check_l2linfty(u0, f1, f2, T=T, dt=dt)
    assert abs(rep.lhs[0] - ref) <= 1e-13 * ref


@pytest.mark.parametrize("checker", ["l2linfty", "parabolic"])
@pytest.mark.parametrize("T, dt, message", [(1.0, 0.3, "integer multiple"),
                                            (1.0, 0.0, "not positive"),
                                            (1.0, -0.1, "not positive")])
def test_heat_checkers_validate_time_grid(grid2, checker, T, dt, message):
    # T = 1, dt = 0.3 would sample up to t = 0.9 while the forcing norms
    # run to T; dt <= 0 would sample nothing.
    u0 = single_mode_field(grid2, (2, 1), 0.3 + 0.4j)
    with pytest.raises(ValueError, match=message):
        if checker == "l2linfty":
            check_l2linfty(u0, None, None, T, dt)
        else:
            _parabolic_smoothing_report(u0, None, T, 2, 0.0, 1, dt)


@pytest.mark.parametrize("data, comps", [("three-component", 3), ("single-component", 1)])
def test_l2linfty_transforms_once_per_time_chunk(grid2, data, comps, monkeypatch):
    # One inverse transform of the sampled components per chunk of times,
    # and no forward transform: the right-hand side is spectral.
    if data == "three-component":
        u0 = gen_field(grid2, np.random.default_rng(1), slope=1.5)
        f1 = (gen_field(grid2, np.random.default_rng(2), slope=1.0), 1.0)
    else:
        u0 = single_mode_field(grid2, (2, 1), 0.3 + 0.4j, component=1)
        f1 = (single_mode_field(grid2, (1, 3), 0.5, component=1), 1.0)
    T, dt = 3.0, 0.01
    per_chunk = _CHUNK_ELEMENTS // (comps * math.prod(grid2.spectral_shape))
    calls = count_transforms(monkeypatch)
    check_l2linfty(u0, f1, None, T, dt)
    assert calls == ["irfftn"] * math.ceil((round(T / dt) + 1) / per_chunk)


def test_l2linfty_bounded(grid2):
    u0 = gen_field(grid2, np.random.default_rng(1), slope=1.5)
    F1 = gen_field(grid2, np.random.default_rng(2), slope=1.0)
    F2 = gen_field(grid2, np.random.default_rng(3), slope=1.0)
    rep = check_l2linfty(u0, (F1, 1.0), (F2, 2.0), T=3.0)
    assert 0.0 < rep.max_ratio < 1.0
    # dropping a forcing can only shrink the solution's LHS contribution path
    rep0 = check_l2linfty(u0, None, None, T=3.0)
    assert rep0.max_ratio > 0.0


def test_concentrated_packet_saturates_bernstein():
    # L^inf / (2^{qd/2} L^2) for the packet stays within a modest factor
    # across shells, and beats a box-filling random shell field
    grid = Grid(2, 256, 16.0 * np.pi)
    sats = []
    for q in (3, 4):
        f = concentrated_packet(grid, q)
        sats.append(lp_norm_physical(f, np.inf) / (2.0**q * lp_norm_physical(f, 2)))
    assert 0.3 < sats[1] / sats[0] < 1.2
    rng = np.random.default_rng(4)
    rand = gen_field(grid, rng, shell=4)
    sat_rand = lp_norm_physical(rand, np.inf) / (2.0**4 * lp_norm_physical(rand, 2))
    assert sats[1] > 3.0 * sat_rand


# ---------------------------------------------------------------------------
# Damped Maxwell energy / decay.


def test_fast_eigenmode_state_decays_fast():
    # every excited mode decays at rate >= 3/4: total energy after t=4
    # is below e^{-2*3/4*4} of the initial energy (with margin)
    from nsmaxwell.propagators import maxwell_apply

    grid = Grid(2, 32, 16.0 * np.pi)
    rng = np.random.default_rng(5)
    E, B = fast_eigenmode_state(grid, rng, k_max=0.3)
    e0 = lp_norm_physical(E, 2) ** 2 + lp_norm_physical(B, 2) ** 2
    E4, B4 = maxwell_apply(E, B, 4.0)
    e4 = lp_norm_physical(E4, 2) ** 2 + lp_norm_physical(B4, 2) ** 2
    assert e4 < math.exp(-1.5 * 4.0) * e0 * 1.1


def test_fast_eigenmode_state_deterministic():
    grid = Grid(2, 32, 16.0 * np.pi)
    E1, B1 = fast_eigenmode_state(grid, np.random.default_rng(6))
    E2, B2 = fast_eigenmode_state(grid, np.random.default_rng(6))
    assert np.array_equal(E1.coeffs, E2.coeffs)
    assert np.array_equal(B1.coeffs, B2.coeffs)
    with pytest.raises(ValueError):
        fast_eigenmode_state(Grid(2, 16), np.random.default_rng(0))


def test_maxwell_energy_decay_vs_quadrature_oracle():
    # single slow transverse mode, no forcing: rebuild both report LHS
    # values from the exact mode evolution with adaptive quadrature
    from nsmaxwell.dyadic import _block_l2
    from nsmaxwell.propagators import maxwell_apply

    grid = Grid(2, 16, 16.0 * np.pi)
    E0 = single_mode_field(grid, (1, 0), 0.5)  # k = 0.125, transverse pol
    B0 = single_mode_field(grid, (1, 0), 0.25j)
    from nsmaxwell.grid import leray_project

    B0 = leray_project(B0)
    T, dt, alpha = 6.0, 0.002, 1.0
    energy, decay = check_maxwell_energy_decay(E0, B0, None, T, dt, alpha)

    q_values = list(build_partition(grid).shells())
    spec_data = NormSpec(0.0, 0.0, alpha)
    spec_decay = NormSpec(1.0, 0.0, alpha)

    def rows_at(t):
        E, B = maxwell_apply(E0, B0, t)
        return _block_l2(E), _block_l2(B)

    # tilde-Linf per shell via dense sampling, tilde-L2 via quad
    tgrid = np.linspace(0.0, T, 2401)
    all_E = np.array([rows_at(t)[0] for t in tgrid])
    all_B = np.array([rows_at(t)[1] for t in tgrid])
    wE = np.array([spec_data.shell_weight_sq(q) for q in q_values])
    wD = np.array([spec_decay.shell_weight_sq(q) for q in q_values])

    def linf_part(rows, w):
        return math.sqrt(float(np.sum(w * np.max(rows, axis=0) ** 2)))

    def l2_part(idx_fn, w):
        total = 0.0
        for i, q in enumerate(q_values):
            if w[i] == 0.0:
                continue
            val, _ = quad(lambda t: idx_fn(t)[i] ** 2, 0.0, T, limit=200)
            total += w[i] * val
        return math.sqrt(total)

    lhs_energy_oracle = (
        linf_part(all_E, wE)
        + l2_part(lambda t: rows_at(t)[0], wE)
        + linf_part(all_B, wE)
    )
    lhs_decay_oracle = l2_part(lambda t: rows_at(t)[1], wD)
    assert abs(energy.lhs[0] - lhs_energy_oracle) < 1e-6 * lhs_energy_oracle
    assert abs(decay.lhs[0] - lhs_decay_oracle) < 1e-6 * lhs_decay_oracle
    # RHS: pure data norm
    rhs_direct = math.sqrt(
        norm_hst(E0, spec_data) ** 2 + norm_hst(B0, spec_data) ** 2
    )
    assert abs(energy.rhs[0] - rhs_direct) < 1e-12 * rhs_direct


@pytest.mark.parametrize("data", ["dense-3d", "eigenmode-2d"])
def test_free_maxwell_rows_match_closed_form(data):
    # the batched rows against maxwell_apply at every sample time; the
    # dense case spans several chunks and ends on a partial one
    from nsmaxwell.checks import _free_maxwell_rows
    from nsmaxwell.grid import _CHUNK_ELEMENTS
    from nsmaxwell.dyadic import _block_l2
    from nsmaxwell.propagators import maxwell_apply

    if data == "dense-3d":
        grid = Grid(3, 16)
        E0 = random_field(grid, seed=61)
        B0 = random_field(grid, seed=62)  # longitudinal part kept at t = 0
        times = np.arange(41) * 0.05
    else:
        grid = Grid(2, 32, 16.0 * np.pi)
        E0, B0 = fast_eigenmode_state(grid, np.random.default_rng(63), k_max=0.2)
        times = np.arange(201) * 0.05
    part = build_partition(grid)
    modes = np.count_nonzero(np.sum(np.abs(E0.coeffs) + np.abs(B0.coeffs), axis=0)
                             * sum(part.weight(q) for q in part.shells()))
    assert (len(times) - 1) % (_CHUNK_ELEMENTS // (3 * modes)) != 0
    rows_E, rows_B = _free_maxwell_rows(E0, B0, times)
    assert np.array_equal(rows_E[0], _block_l2(E0))
    assert np.array_equal(rows_B[0], _block_l2(B0))
    for rows, which in ((rows_E, 0), (rows_B, 1)):
        ref = np.array([_block_l2(maxwell_apply(E0, B0, t)[which])
                        for t in times[1:]])
        scale = np.max(rows, axis=0)
        assert np.all(np.abs(rows[1:] - ref) <= 1e-12 * scale)


def test_maxwell_energy_decay_validates_time_grid():
    grid = Grid(2, 16, 16.0 * np.pi)
    E0 = single_mode_field(grid, (1, 0), 0.5)
    with pytest.raises(ValueError, match="integer multiple"):
        check_maxwell_energy_decay(E0, SpectralField.zeros(grid), None, 0.105,
                                   0.01, 1.0)


def test_checkers_reject_a_partition_of_another_grid():
    # The partition a caller passes must be one of the data's grid: that of
    # the default box would weigh the 16 pi box's modes on the wrong shells.
    grid, other = Grid(2, 32, 16.0 * np.pi), Grid(2, 32)
    wrong = build_partition(other)
    E0, B0 = fast_eigenmode_state(grid, np.random.default_rng(5), k_max=0.2)
    packet = concentrated_packet(grid, 0)
    with pytest.raises(ValueError, match="partition"):
        check_maxwell_energy_decay(E0, B0, None, 1.0, 0.01, 1.0, wrong)
    with pytest.raises(ValueError, match="partition"):
        check_l2linfty(packet, None, None, 1.0, 0.01, wrong)
    right = build_partition(Grid(2, 32, 16.0 * np.pi))
    assert (check_l2linfty(packet, None, None, 1.0, 0.01, right).rhs
            == check_l2linfty(packet, None, None, 1.0, 0.01).rhs)


def test_maxwell_energy_decay_with_forcing_bounded():
    grid = Grid(2, 64, 16.0 * np.pi)
    rng = np.random.default_rng(2)
    E0, B0 = fast_eigenmode_state(grid, rng, k_max=0.2)
    G0 = gen_field(grid, rng, slope=1.0)
    energy, decay = check_maxwell_energy_decay(
        E0, B0, (G0, 1.0), T=8.0, dt=0.02, alpha=1.0
    )
    assert 0.0 < energy.max_ratio < 3.0
    assert 0.0 < decay.max_ratio < 1.0


def test_maxwell_energy_decay_with_forcing_second_order():
    # The stepped group with the exponential trapezoid for the forcing:
    # the decay LHS converges at second order in dt.
    grid = Grid(2, 32, 16.0 * np.pi)
    rng = np.random.default_rng(7)
    E0, B0 = fast_eigenmode_state(grid, rng)
    G0 = gen_field(grid, rng, slope=1.0)

    def lhs(dt):
        _, decay = check_maxwell_energy_decay(E0, B0, (G0, 1.0), 4.0, dt, 1.0)
        return decay.lhs[0]

    ref = lhs(0.0025)
    errs = [abs(lhs(dt) - ref) for dt in (0.08, 0.04, 0.02)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(1.9 <= o <= 2.1 for o in orders), orders


def test_maxwell_energy_decay_with_forcing_applies_group_once_per_step(monkeypatch):
    # One exponential-trapezoid update per step propagates the state and
    # the forcing term together: one group apply per step.
    from nsmaxwell.propagators import PropagatorTable

    calls = []
    apply_maxwell = PropagatorTable.apply_maxwell

    def counted(self, *args, **kwargs):
        calls.append(args)
        return apply_maxwell(self, *args, **kwargs)

    monkeypatch.setattr(PropagatorTable, "apply_maxwell", counted)
    updates = count_trapezoids(monkeypatch)
    grid = Grid(2, 32, 16.0 * np.pi)
    rng = np.random.default_rng(7)
    E0, B0 = fast_eigenmode_state(grid, rng)
    G0 = gen_field(grid, rng, slope=1.0)
    check_maxwell_energy_decay(E0, B0, (G0, 1.0), 1.0, 0.1, 1.0)
    assert len(calls) == 10
    assert updates == [2] * 10  # (E, B) slots


# ---------------------------------------------------------------------------
# Product laws.


def test_product_law_unknown_id(grid2):
    live = SeparableTrajectory(random_field(grid2, seed=60, slope=1.0), 2.0)
    with pytest.raises(ValueError):
        check_product_law("nope", 1.0, live, live)


@pytest.mark.parametrize("estimate_id", ["est1-2D", "est4-2D", "est3-uB-2D"])
def test_product_law_zero_factor_gives_zero_lhs(grid2, estimate_id):
    zero = SeparableTrajectory(SpectralField.zeros(grid2), 2.0)
    live = SeparableTrajectory(random_field(grid2, seed=60, slope=1.0), 2.0)
    rep = check_product_law(estimate_id, 10.0, zero, live)
    assert rep.lhs == [0.0]


def test_product_law_report_smoke_2d():
    spec = FieldEnsembleSpec(seed=1, count=3, grid=Grid(2, 32), slope=2.0)
    for estimate_id in ("est1-2D", "est4-2D", "est3-uB-2D"):
        rep = product_law_report(estimate_id, spec, T=10.0, bound=10.0)
        assert len(rep.ratios) == 3
        assert rep.max_ratio > 0.0
        assert rep.passed


def test_product_law_report_smoke_3d():
    spec = FieldEnsembleSpec(seed=1, count=2, grid=Grid(3, 16), slope=2.0)
    for estimate_id in ("est1-3D", "est4-3D", "est3-uB-3D"):
        rep = product_law_report(estimate_id, spec, T=10.0)
        assert len(rep.ratios) == 2
        assert rep.max_ratio > 0.0


def test_pinned_bounds_table_consistent():
    assert set(PINNED_BOUNDS) == set(PRODUCT_LAW_IDS)
    assert all(b > 0 for b in PINNED_BOUNDS.values())


# ---------------------------------------------------------------------------
# Logarithmic criticality.


def test_log_criticality_smoke():
    rows = log_criticality_experiment((2, 3), seed=0, T=10.0)
    assert [r[0] for r in rows] == [2, 3]
    for q, lhs, rhs_unw, rhs_w, ratio_unw, ratio_w in rows:
        assert lhs > 0 and rhs_unw > 0 and rhs_w > 0
        assert abs(ratio_unw - lhs / rhs_unw) < 1e-12
        # the log-weighted norm is larger on these shell-q fields,
        # so its ratio is smaller
        assert ratio_w < ratio_unw


def test_fit_growth_exponent_on_power_law():
    qs = np.array([2.0, 4.0, 8.0, 16.0])
    ratios = 3.0 * qs**1.25
    assert abs(fit_growth_exponent(qs, ratios) - 1.25) < 1e-12


def test_fit_growth_exponent_needs_two_shells():
    with pytest.raises(ValueError, match="two distinct"):
        fit_growth_exponent([3], [1.5])
    with pytest.raises(ValueError, match="two distinct"):
        fit_growth_exponent([3, 3], [1.5, 1.6])

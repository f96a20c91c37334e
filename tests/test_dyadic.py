import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsmaxwell.grid import Grid, SpectralField, lp_norm_physical, pointwise_product
from nsmaxwell.dyadic import (
    NormSpec,
    _block_l2,
    bony_decompose,
    block,
    build_partition,
    chi_profile,
    low_pass,
    norm_besov,
    norm_hst,
    phi_profile,
    shell_series,
    smooth_step,
    spacetime_norm_from_series,
)

from conftest import random_field, single_mode_field


def test_profile_supports():
    r = np.array([0.0, 0.74, 0.7499, 2.7, 3.0])
    assert np.all(phi_profile(r[:3]) == 0.0)
    assert np.all(phi_profile(r[3:]) == 0.0)
    assert phi_profile(1.0) > 0.0
    assert chi_profile(0.74) == 1.0
    assert chi_profile(4.0 / 3.0 + 1e-9) == 0.0


def _smooth_step_closed_form(t):
    # exp(-1/t) / (exp(-1/t) + exp(-1/(1-t))), with each exponential set
    # to 0 where its argument is not positive, over the whole array
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        g = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return f / (f + g)


def test_smooth_step_bitwise_closed_form():
    edges = [0.0, 1.0, np.inf, -np.inf, np.nextafter(0.0, 1.0),
             np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), -1e-300]
    t = np.concatenate([np.linspace(-0.5, 1.5, 100000), edges])
    assert np.array_equal(smooth_step(t).view(np.int64),
                          _smooth_step_closed_form(t).view(np.int64))
    for x in edges + [0.25, 0.5, 0.75]:
        y = smooth_step(x)
        assert np.ndim(y) == 0
        assert np.float64(y).tobytes() == _smooth_step_closed_form([x])[0].tobytes()
    assert np.array_equal(smooth_step(t.reshape(2, -1)), smooth_step(t).reshape(2, -1))
    r = np.linspace(0.0, 2.0, 100001)
    assert np.array_equal(chi_profile(r).view(np.int64),
                          (1.0 - _smooth_step_closed_form((r - 0.75) / (4.0 / 3.0 - 0.75)))
                          .view(np.int64))


def test_partition_is_built_once_per_grid():
    # A grid keeps its partition's weights as it keeps its geometry: one
    # read-only stack per instance, and nothing of it in the grid's value.
    grid, twin = Grid(2, 32), Grid(2, 32)
    part = build_partition(grid)
    assert build_partition(grid).stack is part.stack and part.grid is grid
    assert build_partition(twin).stack is not part.stack
    assert np.array_equal(build_partition(twin).stack, part.stack)
    assert not part.stack.flags.writeable
    with pytest.raises(ValueError):
        part.stack[0] = 0.0
    assert grid == twin and hash(grid) == hash(twin) == hash(Grid(2, 32))
    assert repr(grid) == repr(Grid(2, 32)) == f"Grid(d=2, n=32, box_length={2.0 * np.pi!r})"


def test_dropped_grid_is_freed_without_the_cycle_collector():
    # The grid keeps its weights and the partition refers to the grid, with
    # no cycle between them: reference counting alone frees a dropped grid.
    gc.disable()
    try:
        grid = Grid(3, 16)
        norm_hst(random_field(grid), NormSpec.sobolev(0.5))
        held = weakref.ref(grid)
        del grid
        assert held() is None
    finally:
        gc.enable()


def test_partition_of_unity(grid2, part2):
    total = part2.partition_sum()
    resolved = ~grid2.nyquist_mask()
    resolved[(0, 0)] = False
    assert np.max(np.abs(total[resolved] - 1.0)) < 1e-12
    assert total[(0, 0)] == 0.0


def test_shell_disjointness(part2):
    for q in part2.shells():
        for j in part2.shells():
            if abs(q - j) >= 2:
                prod = part2.weight(q) * part2.weight(j)
                assert np.max(np.abs(prod)) == 0.0


def test_block_out_of_range(grid2, part2):
    f = random_field(grid2)
    with pytest.raises(ValueError):
        block(f, part2.q_max + 1)


def test_blocks_reconstruct(grid2):
    f = random_field(grid2, seed=11)
    f.set_mean((0.3, -0.1, 0.2))
    rec = SpectralField.zeros(grid2)
    for q in build_partition(grid2).shells():
        rec = rec + block(f, q)
    mean_removed = f.copy()
    mean_removed.set_mean((0.0, 0.0, 0.0))
    scale = np.max(np.abs(f.coeffs))
    assert np.max(np.abs(rec.coeffs - mean_removed.coeffs)) < 1e-12 * scale


def test_low_pass_limits(grid2, part2):
    f = random_field(grid2, seed=12)
    f.set_mean((1.0, 0.0, 0.0))
    lo = low_pass(f, part2.q_min)
    assert np.allclose(lo.mean(), f.mean())
    nonmean = lo.copy()
    nonmean.set_mean((0.0, 0.0, 0.0))
    assert np.max(np.abs(nonmean.coeffs)) == 0.0
    full = low_pass(f, part2.q_max + 1)
    assert np.max(np.abs(full.coeffs - f.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))


def test_norm_hst_pinned_single_shell():
    # Field supported where only shell q=3 is active (phi weight exactly 1),
    # unit block norm: Definition weight sqrt(q^alpha 2^{2qt}) with
    # (t=1/2, alpha=1) gives sqrt(3 * 2^3) = sqrt(24).
    grid = Grid(2, 64)
    vol = grid.box_length**2
    amp = 1.0 / math.sqrt(2.0 * vol)
    f = single_mode_field(grid, (11, 0), amp)
    assert abs(lp_norm_physical(f, 2) - 1.0) < 1e-12
    b3 = block(f, 3)
    assert abs(lp_norm_physical(b3, 2) - 1.0) < 1e-12
    val = norm_hst(f, NormSpec(s=0.0, t=0.5, alpha=1.0))
    assert abs(val - math.sqrt(24.0)) < 1e-12


def test_norm_hst_vs_direct_sobolev_sum(grid2):
    f = random_field(grid2, seed=13, slope=1.0)
    s = 0.7
    val = norm_hst(f, NormSpec.sobolev(s))
    kmag = grid2.k_magnitude()
    power = np.sum(np.abs(f.coeffs) ** 2, axis=0)
    vol = grid2.box_length**2
    direct = math.sqrt(vol * float(np.sum(np.where(kmag > 0, kmag ** (2 * s), 0.0) * power)))
    ratio = val / direct
    assert 0.5 <= ratio <= 2.0


def test_besov_22_equals_hst(grid2, part2):
    # B^s_{2,2} = H^s: the l^2 sum over shells of 2^{qs} ||Delta_q f||.
    f = random_field(grid2, seed=14)
    s = -0.5
    qs = np.array(part2.shells(), dtype=float)
    besov_22 = math.sqrt(np.sum((2.0 ** (qs * s) * _block_l2(f)) ** 2))
    assert abs(besov_22 - norm_hst(f, NormSpec.sobolev(s))) < 1e-12 * norm_hst(
        f, NormSpec.sobolev(s))


def test_besov_zero_and_exponent_validation(grid2):
    assert norm_besov(SpectralField.zeros(grid2), 1.0) == 0.0
    with pytest.raises(ValueError):
        NormSpec(0.0, 0.0, alpha=-1.0)


def test_besov_d2_embedding_dominates_linf(grid2):
    # || . ||_{B^{d/2}_{2,1}} controls L^inf: measure the min ratio.
    ratios = []
    for seed in range(5):
        f = random_field(grid2, seed=100 + seed, slope=1.5)
        f.set_mean((0.0, 0.0, 0.0))
        ratios.append(
            norm_besov(f, 1.0) / lp_norm_physical(f, np.inf)
        )
    assert min(ratios) > 0.05


def test_bony_reconstruction(grid2):
    u = random_field(grid2, seed=15)
    v = random_field(grid2, seed=16)
    u.set_mean((0.2, 0.0, 0.0))
    v.set_mean((0.0, 0.1, 0.0))
    t_uv, t_vu, r = bony_decompose(u, v)
    total = t_uv + t_vu + r
    direct = pointwise_product(u, v)
    scale = np.max(np.abs(direct.coeffs)) + 1e-300
    assert np.max(np.abs(total.coeffs - direct.coeffs)) < 1e-12 * scale


def test_bony_separated_shells_land_in_one_paraproduct(grid2):
    grid = grid2
    # v on another component than u: the cross product of parallel fields is 0
    u = single_mode_field(grid, (1, 0), 1.0, component=0)   # shell ~0
    v = single_mode_field(grid, (8, 0), 1.0, component=1)   # shell ~3
    t_uv, t_vu, r = bony_decompose(u, v)
    direct = pointwise_product(u, v)
    scale = np.max(np.abs(direct.coeffs))
    assert np.max(np.abs(t_uv.coeffs - direct.coeffs)) < 1e-12 * scale
    assert np.max(np.abs(t_vu.coeffs)) < 1e-12 * scale
    assert np.max(np.abs(r.coeffs)) < 1e-12 * scale


def _static_series(f, T=1.0, samples=11):
    times = np.linspace(0.0, T, samples)
    return shell_series(np.stack([f.coeffs] * samples), times, f.grid)


def test_spacetime_constant_in_time(grid2):
    f = random_field(grid2, seed=17)
    series = _static_series(f)
    static = norm_hst(f, NormSpec.sobolev(0.5))
    for tilde in (True, False):
        spec = NormSpec.sobolev(0.5, time_exponent=np.inf, tilde=tilde)
        assert abs(spacetime_norm_from_series(series, spec) - static) < 1e-12 * static


def test_spacetime_single_shell_tilde_equals_plain(grid2):
    grid = grid2
    amps = np.stack([
        single_mode_field(grid, (4, 4), 0.5 * math.exp(-0.3 * i)).coeffs for i in range(9)
    ])
    series = shell_series(amps, np.linspace(0, 1, 9), grid)
    for r in (1, 2, np.inf):
        a = spacetime_norm_from_series(series, NormSpec.sobolev(0.3, time_exponent=r, tilde=True))
        b = spacetime_norm_from_series(series, NormSpec.sobolev(0.3, time_exponent=r, tilde=False))
        assert abs(a - b) < 1e-12 * max(a, 1e-300)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_tilde_linf_dominates_plain_linf(seed):
    grid = Grid(2, 16)
    rng = np.random.default_rng(seed)
    amps = []
    for i in range(6):
        f = SpectralField.from_physical(grid, rng.standard_normal((3,) + grid.shape))
        f.dealias()
        f.zero_nyquist()
        amps.append(f.coeffs)
    series = shell_series(np.stack(amps), np.linspace(0, 1, 6), grid)
    spec = NormSpec.sobolev(0.5, time_exponent=np.inf, tilde=True)
    tilde = spacetime_norm_from_series(series, spec)
    plain = spacetime_norm_from_series(
        series, NormSpec.sobolev(0.5, time_exponent=np.inf, tilde=False)
    )
    assert plain <= tilde * (1.0 + 1e-12)


def test_shell_series_validation(grid2):
    c = random_field(grid2).coeffs
    with pytest.raises(ValueError):
        shell_series(c[None], [0.0], grid2)
    with pytest.raises(ValueError):
        shell_series(np.stack([c, c, c]), [0.0, 0.1, 0.3], grid2)


def test_partition_weights_bitwise_profile_formulas():
    # the stacked weights against the profile formulas shell by shell, and
    # the slice sums against the sequential sums they replaced
    for grid in (Grid(2, 32), Grid(3, 16), Grid(2, 64, 16.0 * np.pi)):
        part = build_partition(grid)
        kmag = grid.k_magnitude()
        resolved = ~grid.nyquist_mask()
        resolved[(0,) * grid.d] = False
        assert not part.stack.flags.writeable
        total = np.zeros(grid.spectral_shape)
        for q in part.shells():
            if q == part.q_min:
                w = chi_profile(kmag / 2.0**(q + 1))
            elif q == part.q_max:
                w = 1.0 - chi_profile(kmag / 2.0**q)
            else:
                w = phi_profile(kmag / 2.0**q)
            expected = np.where(resolved, w, 0.0)
            assert np.array_equal(part.weight(q).view(np.int64), expected.view(np.int64))
            assert np.shares_memory(part.weight(q), part.stack)
            low = total.copy()
            low[(0,) * grid.d] = 1.0
            assert np.array_equal(part.lowpass_weight(q).view(np.int64), low.view(np.int64))
            total += expected
        assert np.array_equal(part.partition_sum().view(np.int64), total.view(np.int64))


@pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
def test_shell_series_matches_per_shell_and_sup_references(d, n, monkeypatch):
    # rows against the L^2 norm of each block's physical values shell by
    # shell and linf against the inverse transform, on a nonlinear
    # trajectory cut into chunks of three states with a partial last chunk
    from nsmaxwell import grid as grid_module
    from nsmaxwell.ensembles import gen_field
    from nsmaxwell.system import MhdState, march

    grid = Grid(d, n)
    part = build_partition(grid)
    rng = np.random.default_rng(7)
    initial = MhdState(*(5.0 * gen_field(grid, rng, 2.0, None, div_free)
                         for div_free in (True, False, True)))
    states = [state for state, _ in march(initial, 0.1, 0.01)]
    times = np.array([state.time for state in states])
    per_state = 3 * grid.n**d
    monkeypatch.setattr(grid_module, "_CHUNK_ELEMENTS", 3 * per_state)
    chunks = grid_module._time_chunks(states, per_state)
    assert [len(c) for c in chunks] == [3, 3, 3, 2]
    vol = grid.box_length**d
    for name in ("v", "E", "B"):
        fields = [getattr(state, name) for state in states]
        series = shell_series(np.stack([f.coeffs for f in fields]), times, grid,
                              with_linf=True)
        rows = np.array([
            [math.sqrt(vol / grid.n**d * float(np.sum(block(f, q).to_physical() ** 2)))
             for q in part.shells()]
            for f in fields
        ])
        linf = np.array([lp_norm_physical(f, np.inf) for f in fields])
        assert np.all(np.abs(series.block_l2 - rows) <= 1e-13 * rows), name
        assert np.all(np.abs(series.linf - linf) <= 1e-13 * linf), name


@pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
def test_half_spectrum_shell_weights_match_full_layout(d, n):
    # shell_matrix on the half spectrum carries each column's Parseval
    # count: its weights sum to those of the whole lattice, tabulated here
    # from the profile formulas on every mode m.  The series' rows are the
    # _block_l2 rows.
    grid = Grid(d, n)
    part = build_partition(grid)
    h = n // 2 + 1
    fields = [random_field(grid, seed=100 + i, slope=0.5 * i) for i in range(5)]
    weights = part.shell_matrix()
    assert weights.shape == (n ** (d - 1) * h, len(part.shells()))
    m = np.fft.fftfreq(n, d=1.0 / n)
    kmag = np.sqrt(sum(k**2 for k in np.meshgrid(*([m * grid.k0] * d), indexing="ij")))
    resolved = np.ones(kmag.shape, dtype=bool)
    for ax in range(d):
        resolved &= np.moveaxis(np.broadcast_to(m != -n // 2, kmag.shape), -1, ax)
    resolved[(0,) * d] = False
    full = 0.0
    for q in part.shells():
        if q == part.q_min:
            w = chi_profile(kmag / 2.0**(q + 1))
        elif q == part.q_max:
            w = 1.0 - chi_profile(kmag / 2.0**q)
        else:
            w = phi_profile(kmag / 2.0**q)
        full += grid.box_length**d * np.sum(np.where(resolved, w, 0.0) ** 2)
    assert np.isclose(np.sum(weights), full, rtol=1e-14, atol=0)
    times = np.linspace(0.0, 1.0, len(fields))
    series = shell_series(np.stack([f.coeffs for f in fields]), times, grid)
    rows = np.array([_block_l2(f) for f in fields])
    assert np.count_nonzero(rows) > rows.size // 2
    assert np.all(np.abs(series.block_l2 - rows) <= 1e-14 * rows)

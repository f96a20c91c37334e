import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsmaxwell.grid import (
    Grid,
    SpectralField,
    _pack,
    _sup_series,
    _unpack,
    curl,
    divergence,
    gradient_component,
    leray_project,
    lp_norm_physical,
    pointwise_product,
)

from conftest import advection_product, random_field, single_mode_field


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 32)
    with pytest.raises(ValueError):
        Grid(2, 33)
    with pytest.raises(ValueError):
        Grid(2, 4)
    with pytest.raises(ValueError):
        Grid(2, 32, -1.0)


@pytest.mark.parametrize("box_length", [np.nan, np.inf, -np.inf])
def test_grid_rejects_non_finite_box(box_length):
    # NaN passes every comparison, box_length <= 0 included.
    with pytest.raises(ValueError, match="finite and positive"):
        Grid(2, 16, box_length)


@pytest.mark.parametrize("d", [2, 3])
def test_dealias_mask_covers_nyquist_mask(d):
    # The Nyquist mode m = -n/2 has |m| = n/2 > n/3, so the 2/3 rule kills
    # it on every grid: dealias() needs no zero_nyquist() beside it.
    for n in (8, 16, 32, 64, 128, 256, 512) if d == 2 else (8, 16, 32, 64, 128, 256):
        grid = Grid(d, n)
        nyquist = grid.nyquist_mask()
        assert nyquist.any() and not np.any(nyquist & ~grid.dealias_mask()), n


@pytest.mark.parametrize("d", [2, 3])
def test_geometry_built_once_and_read_only(d):
    grid = Grid(d, 16)
    for name in ("k_squared", "k_magnitude", "dealias_mask", "nyquist_mask"):
        arr = getattr(grid, name)()
        assert getattr(grid, name)() is arr, name
        with pytest.raises(ValueError):
            arr[(0,) * d] = 1
    first, second = grid.wavevectors(), grid.wavevectors()
    for a, b in zip(first, second):
        assert a is b
        with pytest.raises(ValueError):
            a += 1.0


@pytest.mark.parametrize("grid_name", ["grid2", "grid3"])
def test_pack_unpack_round_trip(grid_name, request):
    # Packing keeps the K modes of the 2/3 rule, k = 0 first; unpacking a
    # packed stack of dealiased amplitudes gives back its bits, the zeros
    # of the killed modes included.
    grid = request.getfixturevalue(grid_name)
    assert grid._kept[0] == 0
    assert grid._kept.size == np.count_nonzero(~grid.dealias_mask())
    stack = np.stack([random_field(grid, seed=s).coeffs for s in (71, 72)])
    kept = _pack(grid, stack)
    assert kept.shape == (2, 3, grid._kept.size)
    assert np.array_equal(kept[:, :, 0], stack[(slice(None),) * 2 + (0,) * grid.d])
    back = _unpack(grid, kept)
    assert back.shape == stack.shape
    assert np.array_equal(back.view(np.int64), stack.view(np.int64))


def test_roundtrip_transform(grid2):
    f = random_field(grid2, seed=1)
    g = SpectralField.from_physical(grid2, f.to_physical())
    assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-13 * np.max(np.abs(f.coeffs))


def test_curl_2d_formula(grid2):
    # F = (0, 0, sin x1) -> curl F = (0, -cos x1, 0)
    n = grid2.n
    x = np.linspace(0.0, grid2.box_length, n, endpoint=False)
    X, _ = np.meshgrid(x, x, indexing="ij")
    vals = np.zeros((3, n, n))
    vals[2] = np.sin(X)
    F = SpectralField.from_physical(grid2, vals)
    c = curl(F).to_physical()
    assert np.max(np.abs(c[0])) < 1e-12
    assert np.max(np.abs(c[1] + np.cos(X))) < 1e-12
    assert np.max(np.abs(c[2])) < 1e-12


def test_div_grad_is_laplacian(grid2):
    p = random_field(grid2, seed=2)
    grad = SpectralField.zeros(grid2)
    for ax in range(2):
        grad.coeffs[ax] = gradient_component(p, ax).coeffs[0]
    lhs = divergence(grad).coeffs[0]
    rhs = -grid2.k_squared() * p.coeffs[0]
    scale = np.max(np.abs(rhs)) + 1e-300
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


def test_curl_of_gradient_vanishes(grid3):
    p = random_field(grid3, seed=3)
    grad = SpectralField.zeros(grid3)
    for ax in range(3):
        grad.coeffs[ax] = gradient_component(p, ax).coeffs[0]
    c = curl(grad)
    assert np.max(np.abs(c.coeffs)) < 1e-12 * np.max(np.abs(p.coeffs))


def test_leray_kills_parallel_mode(grid2):
    # coefficient parallel to k (first two components) is annihilated
    c = np.zeros((3,) + grid2.spectral_shape, dtype=np.complex128)
    c[0][(3, 4)] = 3.0
    c[1][(3, 4)] = 4.0
    f = SpectralField(grid2, c)
    g = leray_project(f)
    assert np.max(np.abs(g.coeffs)) < 1e-14


def test_leray_identity_on_divergence_free(grid2):
    f = leray_project(random_field(grid2, seed=5))
    g = leray_project(f)
    assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-14 * np.max(np.abs(f.coeffs))


def test_leray_output_divergence_free(grid3):
    f = leray_project(random_field(grid3, seed=6))
    d = divergence(f)
    assert np.max(np.abs(d.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))


def test_cross_product_constants(grid2):
    a = SpectralField.zeros(grid2)
    b = SpectralField.zeros(grid2)
    a.coeffs[0][(0, 0)] = 1.0
    b.coeffs[2][(0, 0)] = 1.0
    p = pointwise_product(a, b).to_physical()
    assert np.allclose(p[0], 0.0) and np.allclose(p[2], 0.0)
    assert np.allclose(p[1], -1.0)


def test_cross_antisymmetry(grid2):
    a = random_field(grid2, seed=7)
    p = pointwise_product(a, a)
    assert np.max(np.abs(p.coeffs)) < 1e-13 * lp_norm_physical(a, 2)


def test_plancherel(grid2):
    f = random_field(grid2, seed=8)
    vol = grid2.box_length**grid2.d
    phys = f.to_physical()
    direct = np.sqrt(np.sum(phys**2) * vol / grid2.n**grid2.d)
    assert abs(lp_norm_physical(f, 2) - direct) < 1e-12 * direct


def test_dealiased_product_exact_vs_double_resolution(grid2):
    # fields supported in |m| <= n/3 multiply alias-free; verify against
    # the same product computed on a double-resolution grid.
    big = Grid(2, 64)
    rng = np.random.default_rng(9)
    fields = []
    for _ in range(2):
        f = SpectralField.from_physical(
            grid2, rng.standard_normal((3,) + grid2.shape)
        )
        f.dealias()
        f.zero_nyquist()
        fields.append(f)

    # Small-grid mode (m1, m2) sits at (m1 mod 64, m2) on the big grid; the
    # small grid's last column, its Nyquist mode, is zero.
    n = grid2.n
    m = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    ix = np.ix_(range(3), m % big.n, np.arange(n // 2 + 1))

    def lift(f):
        g = SpectralField.zeros(big)
        g.coeffs[ix] = f.coeffs
        return g

    small = pointwise_product(fields[0], fields[1])
    large = pointwise_product(lift(fields[0]), lift(fields[1]))
    sub = large.coeffs[ix].copy()
    sub[:, grid2.dealias_mask()] = 0.0
    scale = np.max(np.abs(sub)) + 1e-300
    assert np.max(np.abs(small.coeffs - sub)) < 1e-12 * scale


def test_lp_norms(grid2):
    assert lp_norm_physical(SpectralField.zeros(grid2), 2) == 0.0
    # cos(k.x) on one component: L^inf norm is 1
    f = single_mode_field(grid2, (2, 1), 0.5)
    assert abs(lp_norm_physical(f, np.inf) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        lp_norm_physical(f, 4)


@pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
@pytest.mark.parametrize("comps", [1, 3])
def test_sup_series_against_numpy_transform(d, n, comps):
    # An oracle outside the module: numpy's inverse transform and the
    # Euclidean norm over the components, for a batch of four times.
    grid = Grid(d, n)
    half = np.stack([random_field(grid, seed=seed).coeffs[:comps] for seed in range(4)])
    axes = tuple(range(-d, 0))
    u = np.fft.irfftn(half, s=grid.shape, axes=axes, norm="forward")
    ref = np.max(np.linalg.norm(u, axis=1), axis=axes)
    sup = _sup_series(half, grid)
    assert sup.shape == (4,)
    assert np.all(np.abs(sup - ref) <= 1e-14 * ref)


def test_advection_combiner(grid2):
    # (a . grad) b for a = constant e1, b = (0,0,sin x1) -> (0,0,cos x1)
    a = SpectralField.zeros(grid2)
    a.coeffs[0][(0, 0)] = 1.0
    n = grid2.n
    x = np.linspace(0.0, grid2.box_length, n, endpoint=False)
    X, _ = np.meshgrid(x, x, indexing="ij")
    vals = np.zeros((3, n, n))
    vals[2] = np.sin(X)
    b = SpectralField.from_physical(grid2, vals)
    p = advection_product(a, b).to_physical()
    assert np.max(np.abs(p[2] - np.cos(X))) < 1e-12


def test_grid_mismatch_rejected(grid2, grid3):
    f = SpectralField.zeros(grid2)
    g = SpectralField.zeros(Grid(2, 64))
    with pytest.raises(ValueError):
        pointwise_product(f, g)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_hermitian_fields_are_real(seed):
    grid = Grid(2, 16)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((3,) + grid.spectral_shape) + 1j * rng.standard_normal(
        (3,) + grid.spectral_shape
    )
    f = SpectralField(grid, c)
    f.enforce_hermitian()
    f.zero_nyquist()
    assert f.hermitian_defect() < 1e-12 * (np.max(np.abs(f.coeffs)) + 1e-300)
    # The real values transform back to a Hermitian spectrum, f itself.
    g = SpectralField.from_physical(grid, f.to_physical())
    assert g.hermitian_defect() < 1e-10 * (np.max(np.abs(g.coeffs)) + 1e-300)
    assert np.max(np.abs(g.coeffs - f.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_leray_idempotent_property(seed):
    grid = Grid(2, 16)
    f = random_field(grid, seed=seed)
    once = leray_project(f)
    twice = leray_project(once)
    scale = np.max(np.abs(once.coeffs)) + 1e-300
    assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-13 * scale

import math

import numpy as np

from nsmaxwell.dyadic import block, build_partition
from nsmaxwell.ensembles import FieldEnsembleSpec, gen_ensemble, gen_field
from nsmaxwell.grid import Grid, divergence


def test_seed_repeatability():
    spec = FieldEnsembleSpec(seed=5, count=3, grid=Grid(2, 32), slope=1.0)
    a = gen_ensemble(spec)
    b = gen_ensemble(spec)
    assert len(a) == len(b) == 3
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.coeffs, fb.coeffs)
    # different seeds differ
    c = gen_ensemble(FieldEnsembleSpec(seed=6, count=3, grid=Grid(2, 32), slope=1.0))
    assert not np.array_equal(a[0].coeffs, c[0].coeffs)


def test_divergence_free_option():
    spec = FieldEnsembleSpec(seed=7, count=2, grid=Grid(2, 32), divergence_free=True)
    for f in gen_ensemble(spec):
        d = divergence(f)
        assert np.max(np.abs(d.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))


def test_shell_restriction():
    grid = Grid(2, 64)
    rng = np.random.default_rng(8)
    f = gen_field(grid, rng, shell=3)
    for q in build_partition(grid).shells():
        if abs(q - 3) >= 2:
            assert np.max(np.abs(block(f, q).coeffs)) < 1e-12


def test_power_law_slope_recovered():
    # shell-averaged amplitudes of a slope-s ensemble fit |k|^{-s} within 0.2
    grid = Grid(2, 64)
    slope = 1.5
    rng = np.random.default_rng(9)
    fields = [gen_field(grid, rng, slope=slope) for _ in range(24)]
    kmag = grid.k_magnitude()
    centers, amps = [], []
    for q in (1, 2, 3):
        lo, hi = 2.0 ** (q - 0.5), 2.0 ** (q + 0.5)
        mask = (kmag >= lo) & (kmag < hi)
        power = np.mean(
            [np.mean(np.abs(f.coeffs[:, mask]) ** 2) for f in fields]
        )
        centers.append(math.log(2.0**q))
        amps.append(0.5 * math.log(power))
    fit = np.polyfit(centers, amps, 1)[0]
    assert abs(fit + slope) < 0.2


def test_mean_mode_always_zero():
    grid = Grid(2, 16)
    rng = np.random.default_rng(10)
    f = gen_field(grid, rng, slope=0.5)
    assert np.allclose(f.mean(), 0.0)

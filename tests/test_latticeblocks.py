import math

import numpy as np
import pytest

from nsmaxwell.dyadic import (
    DyadicBlocks,
    NormSpec,
    build_partition,
    chi_profile,
    norm_besov,
    norm_hst,
    phi_profile,
)
from nsmaxwell import latticeblocks
from nsmaxwell.grid import Grid, lp_norm_physical, pointwise_product
from nsmaxwell.latticeblocks import (
    BlockField,
    _shell_sums,
    besov_norm,
    block_convolve,
    bony_paraproducts,
    blocks_to_grid_field,
    criticality_packets,
    gaussian_packet,
    hst_norm,
    l2_norm,
    lowpass_blocks,
    lowpass_l2,
    packet_pair,
    paraproduct_pieces,
    real_pair,
    real_product_blocks,
    remainder_cluster_stats,
    shell_norms,
)


def test_block_validation():
    with pytest.raises(ValueError):
        BlockField((0, 0), np.zeros(4), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        BlockField((0, 0), np.zeros((2, 2)), np.array([1.0, 0.0]))


def test_conj_mirror_is_involution():
    rng = np.random.default_rng(0)
    b = BlockField(
        (3, -2),
        rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)),
        np.array([0.0, 1.0, 0.5]),
    )
    back = b.conj_mirror().conj_mirror()
    assert back.origin == b.origin
    assert np.array_equal(back.values, b.values)


def test_real_pair_grid_field_is_real():
    grid = Grid(2, 32)
    b = gaussian_packet((4, 3), 2, np.array([0.0, 0.0, 1.0]))
    f = blocks_to_grid_field(real_pair(b), grid)
    assert f.hermitian_defect() < 1e-12


def test_block_convolve_matches_grid_product():
    # exact lattice convolution agrees with the dealias-free grid product
    grid = Grid(2, 128)
    rng = np.random.default_rng(1)
    p = gaussian_packet((5, 4), 2, np.array([0.0, 0.0, 1.0]), rng)
    q = gaussian_packet((-6, 2), 2, np.array([1.0, 0.0, 0.0]), rng)
    prod_blocks = real_product_blocks(p, q)
    fp = blocks_to_grid_field(real_pair(p), grid)
    fq = blocks_to_grid_field(real_pair(q), grid)
    direct = pointwise_product(fp, fq, "cross")
    via_blocks = blocks_to_grid_field(prod_blocks, grid)
    scale = np.max(np.abs(direct.coeffs)) + 1e-300
    assert np.max(np.abs(via_blocks.coeffs - direct.coeffs)) < 1e-8 * scale


def test_lattice_norms_match_grid_route():
    grid = Grid(2, 128)
    part = build_partition(grid)
    rng = np.random.default_rng(2)
    p, q = packet_pair(3, rng)
    blocks = real_product_blocks(p, q)
    f = blocks_to_grid_field(blocks, grid)
    # L^2 (the lattice norm drops the k=0 mode by convention)
    f_nomean = f.copy()
    f_nomean.set_mean((0.0, 0.0, 0.0))
    assert abs(l2_norm(blocks) - lp_norm_physical(f_nomean, 2)) < 1e-8 * lp_norm_physical(
        f_nomean, 2
    )
    # per-shell L^2
    grid_blocks = DyadicBlocks.decompose(f, part)
    lattice_shells = shell_norms(blocks)
    for s_q, val in lattice_shells.items():
        if part.q_min <= s_q <= part.q_max and val > 1e-10:
            gval = lp_norm_physical(grid_blocks.blocks[s_q], 2)
            assert abs(val - gval) < 1e-8 * max(gval, 1e-300), s_q
    # Besov and heat-Sobolev style norms
    b_lat = besov_norm(blocks, 0.5)
    b_grid = norm_besov(f, part, 0.5, 2, 1)
    assert abs(b_lat - b_grid) < 1e-7 * b_grid
    h_lat = hst_norm(blocks, 0.0, 0.5, alpha=1.0)
    h_grid = norm_hst(f, part, NormSpec(s=0.0, t=0.5, alpha=1.0))
    assert abs(h_lat - h_grid) < 1e-7 * h_grid


def _shell_sums_reference(r, power, lowpass_shell):
    # one phi_profile sweep per shell over every point
    low = 0.0
    if lowpass_shell is not None:
        w_low = chi_profile(r / 2.0**lowpass_shell)
        low = float(np.sum(w_low**2 * power))
        power = (1.0 - w_low) ** 2 * power
    sums = {}
    for q in range(-3, 15):
        s = float(np.sum(phi_profile(r / 2.0**q) ** 2 * power))
        if s > 0.0:
            sums[q] = s
    return sums, low


@pytest.mark.parametrize("q", [2, 5, 9])
@pytest.mark.parametrize("lowpass_shell", [None, 2, 4])
def test_shell_sums_match_per_shell_profiles(q, lowpass_shell):
    rng = np.random.default_rng(100 + q)
    # a random lattice canvas reaching shell q, plus radii on and next to
    # both ends of every chi transition band 3/4 * 2^j and 4/3 * 2^j
    n = 3 * 2**q
    o1, o2 = rng.integers(-n, n // 2, size=2)
    rows = (o1 + np.arange(rng.integers(n // 2, n))).astype(float)
    cols = (o2 + np.arange(rng.integers(n // 2, n))).astype(float)
    edges = []
    for j in range(-1, q + 3):
        for x in (0.75 * 2.0**j, 2.0**j * 4.0 / 3.0):
            edges += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    r = np.concatenate([np.hypot(rows[:, None], cols[None, :]).ravel(), edges])
    r = r[r > 0.0]
    power = rng.random(r.size)
    sums, low = _shell_sums(r, power, lowpass_shell)
    ref_sums, ref_low = _shell_sums_reference(r, power, lowpass_shell)
    assert list(sums) == list(ref_sums)
    for s_q, val in ref_sums.items():
        assert abs(sums[s_q] - val) <= 1e-12 * val, s_q
    assert abs(low - ref_low) <= 1e-12 * ref_low


def test_zero_polarization_block_does_not_hide_overlapping_blocks():
    zero = BlockField((4, 4), np.ones((3, 3)), np.zeros(3))
    b = BlockField((5, 5), np.ones((3, 3)), np.array([0.0, 0.0, 1.0]))
    assert shell_norms([zero, b]) == shell_norms([b]) == shell_norms([b, zero])
    assert l2_norm([zero, b]) == l2_norm([b])


def test_paraproduct_reconstruction():
    rng = np.random.default_rng(3)
    p, q = packet_pair(3, rng)
    t_ab, t_ba, rem = paraproduct_pieces(p, q)
    full = real_product_blocks(p, q)
    grid = Grid(2, 128)
    total = blocks_to_grid_field(
        t_ab + t_ba + rem, grid
    )
    direct = blocks_to_grid_field(full, grid)
    scale = np.max(np.abs(direct.coeffs)) + 1e-300
    assert np.max(np.abs(total.coeffs - direct.coeffs)) < 1e-6 * scale


def test_remainder_cluster_stats_matches_exact_route():
    rng = np.random.default_rng(4)
    p_list, b_list = criticality_packets(4, rng)
    t_ab, t_ba = bony_paraproducts(p_list, b_list)
    s_low, comp = remainder_cluster_stats(
        p_list, b_list, t_blocks=t_ab + t_ba, lowpass_shell=2
    )
    # exact route: full product minus paraproducts, measured block-wise
    full = real_product_blocks(p_list, b_list)
    rem = full + [b.scaled(-1.0) for b in t_ab + t_ba]
    s_low_exact = lowpass_l2(rem, 2)
    assert abs(s_low - s_low_exact) < 5e-5 * max(s_low_exact, 1e-300)
    comp_exact = shell_norms(lowpass_blocks(rem, 2, complement=True))
    for s_q, val in comp.items():
        if val > 1e-6 * s_low_exact:
            assert abs(val - comp_exact.get(s_q, 0.0)) < 5e-5 * val, s_q


def test_criticality_packets_structure():
    rng = np.random.default_rng(5)
    p_list, b_list = criticality_packets(5, rng)
    assert len(p_list) == 1
    # distinct centers, all on shell ~5 (|m| ~ 1.75 * 32)
    centers = set()
    for b in b_list:
        h = (b.shape[0] - 1) // 2
        c = (b.origin[0] + h, b.origin[1] + h)
        assert c not in centers
        centers.add(c)
        r = math.hypot(*c)
        assert 0.8 * 1.75 * 32 < r < 1.2 * 1.75 * 32


def test_gaussian_packet_profile():
    b = gaussian_packet((10, -4), 3, np.array([0.0, 0.0, 1.0]))
    assert b.shape == (7, 7)
    assert b.origin == (7, -7)
    # peak at the center
    assert np.argmax(np.abs(b.values)) == np.ravel_multi_index((3, 3), (7, 7))


def test_radius_range_corners():
    b = BlockField((-1, 2), np.ones((3, 2)), np.array([0.0, 0.0, 1.0]))
    lo, hi = b.radius_range()
    assert lo == 2.0  # rows straddle 0, cols start at 2
    assert hi == math.hypot(1, 3)


def test_convolution_polarization_is_cross():
    a = BlockField((1, 0), np.ones((1, 1)), np.array([1.0, 0.0, 0.0]))
    b = BlockField((0, 1), np.ones((1, 1)), np.array([0.0, 1.0, 0.0]))
    c = block_convolve(a, b)
    assert c.origin == (1, 1)
    assert np.allclose(c.pol, [0.0, 0.0, 1.0])


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("q", range(2, 8))
def test_remainder_cluster_stats_matches_one_canvas_reference(q, seed):
    # the half-plane route against pasting the whole remainder and measuring
    p_list, b_list = criticality_packets(q, np.random.default_rng(seed))
    t_ab, t_ba = bony_paraproducts(p_list, b_list)
    s_low, comp = remainder_cluster_stats(
        p_list, b_list, t_blocks=t_ab + t_ba, lowpass_shell=2
    )
    rem = real_product_blocks(p_list, b_list) + [b.scaled(-1.0) for b in t_ab + t_ba]
    s_low_ref = lowpass_l2(rem, 2)
    comp_ref = shell_norms(lowpass_blocks(rem, 2, complement=True))
    scale = max(comp_ref.values())
    assert abs(s_low - s_low_ref) <= 1e-12 * scale
    for s_q in set(comp) | set(comp_ref):
        assert abs(comp.get(s_q, 0.0) - comp_ref.get(s_q, 0.0)) <= 1e-12 * scale, s_q


def test_remainder_cluster_stats_rejects_unmirrored_block():
    p_list, b_list = criticality_packets(4, np.random.default_rng(0))
    lone = gaussian_packet((3, 5), 1, np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="conjugate mirroring"):
        remainder_cluster_stats(p_list, b_list, t_blocks=[lone])
    # the same block with its mirror is a real field and is accepted
    remainder_cluster_stats(p_list, b_list, t_blocks=real_pair(lone))


def _counting(monkeypatch, name):
    calls = []
    original = getattr(latticeblocks, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(latticeblocks, name, wrapper)
    return calls


@pytest.mark.parametrize("q", [4, 5, 6])
def test_remainder_cluster_stats_convolves_each_product_once(q, monkeypatch):
    p_list, b_list = criticality_packets(q, np.random.default_rng(1))
    t_ab, t_ba = bony_paraproducts(p_list, b_list)
    calls = _counting(monkeypatch, "block_convolve")
    remainder_cluster_stats(p_list, b_list, t_blocks=t_ab + t_ba)
    assert len(calls) == 2 * len(p_list) * len(b_list) == 12


@pytest.mark.parametrize("q, sizes", [(2, (20, 20)), (3, (24, 20)),
                                      (4, (0, 0)), (5, (0, 0)), (6, (0, 0))])
def test_bony_paraproducts_skips_empty_terms_unevaluated(q, sizes, monkeypatch):
    p_list, b_list = criticality_packets(q, np.random.default_rng(3))
    calls = _counting(monkeypatch, "radial_multiply")
    t_ab, t_ba = bony_paraproducts(p_list, b_list)
    assert (len(t_ab), len(t_ba)) == sizes
    assert (len(calls) == 0) == (sizes == (0, 0))

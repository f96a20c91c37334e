import math
import tracemalloc

import numpy as np
import pytest

from nsmaxwell.dyadic import (
    NormSpec,
    block,
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
    packet_pair,
    radial_multiply,
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
    direct = pointwise_product(fp, fq)
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
    lattice_shells = shell_norms(blocks)
    for s_q, val in lattice_shells.items():
        if part.q_min <= s_q <= part.q_max and val > 1e-10:
            gval = lp_norm_physical(block(f, s_q), 2)
            assert abs(val - gval) < 1e-8 * max(gval, 1e-300), s_q
    # Besov and heat-Sobolev style norms
    b_lat = besov_norm(blocks, 0.5)
    b_grid = norm_besov(f, 0.5)
    assert abs(b_lat - b_grid) < 1e-7 * b_grid
    h_lat = hst_norm(blocks, 0.0, 0.5, alpha=1.0)
    h_grid = norm_hst(f, NormSpec(s=0.0, t=0.5, alpha=1.0))
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


def _shell_sums_plain(r, power, lowpass_shell):
    # _shell_sums without out= buffers: the same operations in the same order
    scale = np.rint(np.log2(r))
    c = chi_profile(r / np.exp2(scale))
    J = scale.astype(np.int64)
    low = 0.0
    if lowpass_shell is not None:
        w_low = np.where(J < lowpass_shell, 1.0,
                         np.where(J == lowpass_shell, c, 0.0))
        low = float(np.sum(w_low**2 * power))
        power = (1.0 - w_low) ** 2 * power
    q0, size = int(J.min()) - 1, int(J.max() - J.min()) + 2
    sums = (np.bincount(J - 1 - q0, c**2 * power, minlength=size)
            + np.bincount(J - q0, (1.0 - c) ** 2 * power, minlength=size))
    return {q0 + i: float(s) for i, s in enumerate(sums) if s > 0.0}, low


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
    assert repr((sums, low)) == repr(_shell_sums_plain(r, power, lowpass_shell))
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


def test_remainder_cluster_stats_matches_exact_route():
    rng = np.random.default_rng(4)
    p_list, b_list = criticality_packets(4, rng)
    t_ab, t_ba = bony_paraproducts(p_list, b_list)
    s_low, comp = remainder_cluster_stats(p_list, b_list, t_blocks=t_ab + t_ba)
    # exact route: full product minus paraproducts, measured block-wise
    full = real_product_blocks(p_list, b_list)
    rem = full + [b.scaled(-1.0) for b in t_ab + t_ba]
    s_low_exact = l2_norm(lowpass_blocks(rem, 2))
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


@pytest.mark.parametrize("complex_a, complex_b",
                         [(False, False), (True, False), (False, True), (True, True)])
@pytest.mark.parametrize("shape_a, shape_b", [
    ((1, 5), (4, 1)),  # no FFT axis: the broadcast product
    ((6, 1), (4, 7)),  # FFT on axis 0 only
    ((1, 1), (5, 3)),
    ((5, 8), (3, 4)),  # FFT on both axes, each padded past s1 + s2 - 1
])
def test_block_convolve_matches_direct_sum(shape_a, shape_b, complex_a, complex_b):
    rng = np.random.default_rng(7)

    def profile(shape, is_complex):
        vals = rng.standard_normal(shape)
        return vals + 1j * rng.standard_normal(shape) if is_complex else vals

    x, y = profile(shape_a, complex_a), profile(shape_b, complex_b)
    want = np.zeros((shape_a[0] + shape_b[0] - 1, shape_a[1] + shape_b[1] - 1),
                    dtype=np.result_type(x, y))
    for i, j in np.ndindex(*shape_a):
        for k, l in np.ndindex(*shape_b):
            want[i + k, j + l] += x[i, j] * y[k, l]
    pol = np.array([0.0, 0.0, 1.0])
    got = block_convolve(BlockField((2, -3), x, pol), BlockField((-1, 4), y, pol))
    assert got.origin == (1, 1)
    assert got.values.dtype == (np.complex128 if complex_a or complex_b else np.float64)
    assert got.values.flags.c_contiguous
    assert got.values.shape == want.shape
    assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("q", range(2, 8))
def test_remainder_cluster_stats_matches_one_canvas_reference(q, seed):
    # the half-plane route against pasting the whole remainder and measuring
    p_list, b_list = criticality_packets(q, np.random.default_rng(seed))
    t_ab, t_ba = bony_paraproducts(p_list, b_list)
    s_low, comp = remainder_cluster_stats(p_list, b_list, t_blocks=t_ab + t_ba)
    rem = real_product_blocks(p_list, b_list) + [b.scaled(-1.0) for b in t_ab + t_ba]
    s_low_ref = l2_norm(lowpass_blocks(rem, 2))
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


def _counting(monkeypatch, name, record=lambda *args: None):
    calls = []
    original = getattr(latticeblocks, name)

    def wrapper(*args, **kwargs):
        calls.append(record(*args))
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


def test_real_profiles_stay_real():
    e_pol, b_pol = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    p = gaussian_packet((6, 5), 2, e_pol, np.random.default_rng(0))
    q = gaussian_packet((-7, 3), 2, b_pol)
    real = [p, p.conj_mirror(), radial_multiply(p, lambda r: 1.0 / (1.0 + r)),
            p.scaled(-1), block_convolve(p, q), block_convolve(p, q.conj_mirror())]
    assert all(b.values.dtype == np.float64 for b in real)
    assert all(b.pol.dtype == np.complex128 for b in real)
    box = (-8, 8, -7, 7)
    canvas = latticeblocks._paste([(p, False), (p, True), (p.scaled(-2.0), False)], box)
    assert canvas.values.dtype == np.float64
    # a complex profile or a complex polarization scale makes a complex canvas
    turned = p.scaled(1j)
    assert turned.values.dtype == np.complex128
    for piece in (turned, BlockField(p.origin, p.values, 1j * p.pol)):
        canvas = latticeblocks._paste([(p, False), (piece, False), (p, True)], box)
        assert canvas.values.dtype == np.complex128
        at = (slice(p.origin[0] - box[0], p.origin[0] - box[0] + p.shape[0]),
              slice(p.origin[1] - box[2], p.origin[1] - box[2] + p.shape[1]))
        assert np.array_equal(canvas.values[at], (1.0 + 1j) * p.values)


def _vector_canvas(blocks):
    """A block sum as 3-vector coefficients on one complex canvas, with the
    lattice coordinates of its rows and columns."""
    r0 = min(b.origin[0] for b in blocks)
    c0 = min(b.origin[1] for b in blocks)
    r1 = max(b.origin[0] + b.shape[0] for b in blocks)
    c1 = max(b.origin[1] + b.shape[1] for b in blocks)
    canvas = np.zeros((3, r1 - r0, c1 - c0), dtype=np.complex128)
    for b in blocks:
        i, j = b.origin[0] - r0, b.origin[1] - c0
        canvas[:, i : i + b.shape[0], j : j + b.shape[1]] += b.pol[:, None, None] * b.values
    return canvas, np.arange(r0, r1), np.arange(c0, c1)


def _one_canvas_reference(blocks):
    """Per-shell L^2 norms and the L^2 norm (k = 0 dropped) of a block sum
    on ``_vector_canvas``, by one phi_profile sweep per shell."""
    canvas, rows, cols = _vector_canvas(blocks)
    power = np.sum(np.abs(canvas) ** 2, axis=0)
    r = np.hypot(rows[:, None], cols[None, :]).astype(float)
    keep = r > 0.0
    sums, _ = _shell_sums_reference(r[keep], power[keep], None)
    shells = {s_q: math.sqrt(latticeblocks.BOX_VOLUME_2D * s) for s_q, s in sums.items()}
    return shells, math.sqrt(latticeblocks.BOX_VOLUME_2D * float(np.sum(power[keep])))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_complex_phases_match_one_canvas_reference(q):
    # a unit phase e^{i theta} on every block makes every profile and canvas
    # complex; the real field is still block + conjugate mirror
    rng = np.random.default_rng(20 + q)
    p_list, b_list = (
        [b.scaled(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))) for b in blocks]
        for blocks in criticality_packets(q, rng)
    )
    t_ab, t_ba = bony_paraproducts(p_list, b_list)
    assert all(b.values.dtype == np.complex128 for b in t_ab + t_ba)
    s_low, comp = remainder_cluster_stats(p_list, b_list, t_blocks=t_ab + t_ba)
    rem = real_product_blocks(p_list, b_list) + [b.scaled(-1.0) for b in t_ab + t_ba]
    assert all(b.values.dtype == np.complex128 for b in rem)
    _, s_low_ref = _one_canvas_reference(lowpass_blocks(rem, 2))
    high = lowpass_blocks(rem, 2, complement=True)
    comp_ref, _ = _one_canvas_reference(high)
    scale = max(comp_ref.values())
    assert abs(s_low - s_low_ref) <= 1e-12 * scale
    shells = shell_norms(high)
    for s_q in set(comp) | set(comp_ref) | set(shells):
        want = comp_ref.get(s_q, 0.0)
        assert abs(comp.get(s_q, 0.0) - want) <= 1e-12 * scale, s_q
        assert abs(shells.get(s_q, 0.0) - want) <= 1e-12 * scale, s_q


def _points_received(monkeypatch):
    # the radii of every point given to _shell_sums, whose power must be > 0
    def record(r, power, *rest):
        assert r.shape == power.shape
        assert np.all(r > 0.0) and np.all(power > 0.0)
        return r
    return _counting(monkeypatch, "_shell_sums", record)


def test_shell_norms_measure_only_covered_points(monkeypatch):
    # two overlapping blocks leave 12 of their 36-point union box uncovered;
    # of the 24 covered points, k = 0 is dropped and one holds an exact zero
    pol = np.array([0.0, 1.0, 0.0])
    a = BlockField((-2, -2), np.ones((3, 3)), pol)
    vals = np.arange(1.0, 17.0).reshape(4, 4)
    vals[2, 1] = 0.0
    b = BlockField((0, 0), vals, 2.0 * pol)
    points = {(m1, m2) for m1 in range(-2, 1) for m2 in range(-2, 1)}
    points |= {(m1, m2) for m1 in range(4) for m2 in range(4)}
    points -= {(0, 0), (2, 1)}
    received = _points_received(monkeypatch)
    shell_norms([a, b])
    assert len(received) == 1
    want = np.sort([math.hypot(m1, m2) for m1, m2 in points])
    assert np.array_equal(np.sort(received[0]), want)
    power = 4.0 * (np.sum(vals**2) - 1.0) + 8.0  # b's points but k = 0, a's 8 others
    assert l2_norm([a, b]) == pytest.approx(math.sqrt(latticeblocks.BOX_VOLUME_2D * power),
                                            rel=1e-15)


@pytest.mark.parametrize("q", [4, 5])
def test_remainder_cluster_stats_measures_only_covered_points(q, monkeypatch):
    p_list, b_list = criticality_packets(q, np.random.default_rng(1))
    t_ab, t_ba = bony_paraproducts(p_list, b_list)
    canvas_sizes = _counting(monkeypatch, "_paste", lambda pieces, box:
                             (box[1] + 1 - box[0]) * (box[3] + 1 - box[2]))
    received = _points_received(monkeypatch)
    remainder_cluster_stats(p_list, b_list, t_blocks=t_ab + t_ba)
    n_received = sum(r.size for r in received)
    # every nonzero-power point with r > 0 of the whole remainder, counted
    # on one canvas, is a measured point or the mirror of one
    rem = real_product_blocks(p_list, b_list) + [b.scaled(-1.0) for b in t_ab + t_ba]
    canvas, rows, cols = _vector_canvas(rem)
    covered = np.any(canvas != 0.0, axis=0)
    covered[-rows[0], -cols[0]] = False  # k = 0
    assert 2 * n_received == int(np.sum(covered))
    assert n_received < sum(canvas_sizes)  # the measured canvases had gaps


def _chunked_measurements(p_list, b_list):
    t_blocks = [b for piece in bony_paraproducts(p_list, b_list) for b in piece]
    product = real_product_blocks(p_list, b_list)
    s_low, comp = remainder_cluster_stats(p_list, b_list, t_blocks=t_blocks)
    return [s_low, l2_norm(product)], [comp, shell_norms(product)]


@pytest.mark.parametrize("chunk_points", [1, 40, 97])
def test_chunk_edges_do_not_change_results(chunk_points, monkeypatch):
    # chunks of one to a few rows of the 17-wide product blocks: the row
    # m1 = 0, where k = 0 and (on a half-plane canvas) m2 < 0 are zeroed,
    # starts a chunk or sits inside one
    p_list, b_list = criticality_packets(4, np.random.default_rng(2))
    calls = _counting(monkeypatch, "_shell_sums")
    monkeypatch.setattr(latticeblocks, "_CHUNK_POINTS", 2**40)  # one chunk per canvas
    want_norms, want_shells = _chunked_measurements(p_list, b_list)
    n_canvases = len(calls)
    monkeypatch.setattr(latticeblocks, "_CHUNK_POINTS", chunk_points)
    norms, shells = _chunked_measurements(p_list, b_list)
    assert len(calls) - n_canvases > 4 * n_canvases
    assert norms == pytest.approx(want_norms, rel=1e-13, abs=0.0)
    for got, want in zip(shells, want_shells):
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_measurement_memory_follows_the_chunk():
    # two blocks on the opposite corners of a 16-chunk box, overlapping in a
    # 2 x 2 patch, are pasted on one canvas and measured: the peak is the
    # canvas plus temporaries bounded by the chunk, not by the canvas
    chunk = latticeblocks._CHUNK_POINTS
    n_cols = 512
    n_rows = 16 * chunk // n_cols
    rng = np.random.default_rng(5)
    pol = np.array([0.0, 0.0, 1.0])
    h_rows, h_cols = n_rows // 2 + 1, n_cols // 2 + 1
    a = BlockField((-n_rows // 2, -7), rng.random((h_rows, h_cols)), pol)
    b = BlockField((-1, h_cols - 9), rng.random((h_rows, h_cols)), pol)
    canvas_bytes = n_rows * n_cols * 8
    tracemalloc.start()
    try:
        shells = shell_norms([a, b])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(shells) > 5
    assert peak < canvas_bytes + 16 * chunk * 8

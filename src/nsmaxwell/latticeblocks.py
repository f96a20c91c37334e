"""Exact paraproduct analysis on the integer frequency lattice, no grid.

A field is a collection of rectangular *blocks* of Fourier modes: a
scalar profile on a patch of the 2D lattice times a fixed complex
polarization vector.  Products are exact block convolutions (FFT-based),
so there is no aliasing and no resolution ceiling — dyadic shells far
beyond any affordable FFT grid are reachable as long as the fields are
frequency-localized.  Shell weights are evaluated analytically from the
same radial profiles as the grid partition, using the full telescoping
family (the lattice is unbounded, so no boundary absorption is needed).
Only shell norms and L^2 norms are measured here; the Besov and hybrid
norms built from them are the shell sums of ``dyadic``, as on the grid.

Real profiles stay real: a profile is stored as float64 unless it is
complex, and packets, conjugate mirrors, radial multipliers, real
scalings and the convolutions of real profiles (``block_convolve`` runs
those on real FFTs of ``scipy.fft``) keep it so; only a complex profile or
a complex polarization scale makes a complex canvas.

Real fields are represented as a block plus its conjugate mirror; shell
norms merge overlapping blocks on a canvas before summing power, so the
results are exact for arbitrary block overlap.  A canvas is measured in
row chunks of about 2^15 points, so each float64 temporary of a chunk is
256 KB (written with ``out=`` where a buffer can be reused) and comes back
from the allocator's heap instead of being mapped and faulted in afresh.
Only the covered points count: the points of zero power, which no block
reaches, and k = 0 are dropped before any radius is formed.  Each covered
point is assigned its shells once: phi_q = chi(./2^{q+1}) - chi(./2^q)
and the chi transition bands (3/4, 4/3) * 2^j are disjoint, so a point at
radius r meets only shells J - 1 and J (J = round(log2 r)), with weights
c and 1 - c from the single value c = chi(r / 2^J).  The per-shell sums
are two bincounts over the covered points, not one profile sweep per
shell.

A real field's coefficients satisfy f(-m) = conj(f(m)), so its power is
mirror-symmetric and the remainder route measures only the Hermitian
half-plane: each distinct convolution is computed once and its conjugate
mirror pasted by index, one cluster of every conjugate-mirror pair is
measured and counted twice, and a cluster that is its own mirror is
pasted and measured on m1 > 0, or m1 = 0 and m2 > 0, also counted twice
(the origin is dropped with every k = 0 mode).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .dyadic import chi_profile, phi_profile, CHI_HI, PHI_LO, PHI_HI

__all__ = [
    "BlockField",
    "real_pair",
    "block_convolve",
    "radial_multiply",
    "real_product_blocks",
    "bony_paraproducts",
    "shell_norms",
    "l2_norm",
    "lowpass_blocks",
    "remainder_cluster_stats",
    "gaussian_packet",
    "criticality_packets",
    "blocks_to_grid_field",
]

BOX_VOLUME_2D = (2.0 * math.pi) ** 2
# Relative slack on the profile cuts: corner radii and per-point radii may
# round differently, and a term is skipped only where its profile is 0.
_CUT_SLACK = 1e-12
# Canvas points per measured chunk: bounds the shell-sum temporaries.  At
# 2^15 points each float64 temporary is 256 KB, and the allocator reuses
# them from chunk to chunk; at 2^18 (2 MB each) every chunk mapped and
# faulted them in afresh.  Measured over 2^13..2^18 (2-core Xeon, one
# thread, q = 2..9 sweeps of ``log_criticality_experiment``): 2^15 made the
# fewest page faults (2.4 K per sweep against 23 K at 2^18) and ran as fast
# as 2^13 and 2^14, whose extra chunks add Python overhead and no savings.
_CHUNK_POINTS = 2**15
# Packet centres of ``criticality_packets`` sit at
# m0 = round(PACKET_CENTER_SCALE * 2^q) on both axes, radius ~1.75 * 2^q.
PACKET_CENTER_SCALE = 1.2375


@dataclass
class BlockField:
    """A patch of lattice Fourier modes: values[i, j] sits at lattice point
    (origin[0] + i, origin[1] + j), with a common polarization vector."""

    origin: tuple
    values: np.ndarray
    pol: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        self.values = values.astype(
            np.complex128 if np.iscomplexobj(values) else np.float64, copy=False)
        self.pol = np.asarray(self.pol, dtype=np.complex128)
        if self.values.ndim != 2:
            raise ValueError("block profile must be a 2D array")
        if self.pol.shape != (3,):
            raise ValueError("polarization must be a 3-vector")

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + np.arange(self.shape[axis])

    def radius(self) -> np.ndarray:
        m1 = self.axis_coords(0)[:, None].astype(float)
        m2 = self.axis_coords(1)[None, :].astype(float)
        return np.hypot(m1, m2)

    def radius_range(self) -> tuple:
        """Min/max |m| over the block's bounding box (corner arithmetic)."""
        los, his = [], []
        for axis in range(2):
            a = self.origin[axis]
            b = self.origin[axis] + self.shape[axis] - 1
            his.append(max(abs(a), abs(b)))
            los.append(0.0 if a <= 0 <= b else min(abs(a), abs(b)))
        return math.hypot(*los), math.hypot(*his)

    def conj_mirror(self) -> "BlockField":
        """Block carrying the conjugate coefficients at mirrored modes."""
        o = (
            -(self.origin[0] + self.shape[0] - 1),
            -(self.origin[1] + self.shape[1] - 1),
        )
        return BlockField(o, np.conj(self.values[::-1, ::-1]), np.conj(self.pol))

    def scaled(self, factor: complex) -> "BlockField":
        return BlockField(self.origin, factor * self.values, self.pol)


def real_pair(block: BlockField) -> list:
    """The block together with its conjugate mirror: a real field."""
    return [block, block.conj_mirror()]


def block_convolve(a: BlockField, b: BlockField) -> BlockField:
    """Full linear convolution of two blocks, with cross-product
    polarization, by the steps of ``scipy.signal.fftconvolve``: FFTs on
    the axes where neither profile has length 1 (the others broadcast),
    padded to ``next_fast_len(s1 + s2 - 1)``, real FFTs for two real
    profiles; the result is cropped to s1 + s2 - 1 and copied."""
    x, y = a.values, b.values
    shape = tuple(p + q - 1 for p, q in zip(x.shape, y.shape))
    axes = [i for i in range(2) if x.shape[i] != 1 and y.shape[i] != 1]
    if axes:
        real = not (np.iscomplexobj(x) or np.iscomplexobj(y))
        fft, ifft = ((scipy.fft.rfftn, scipy.fft.irfftn) if real
                     else (scipy.fft.fftn, scipy.fft.ifftn))
        fshape = [scipy.fft.next_fast_len(shape[i], real) for i in axes]
        vals = ifft(fft(x, fshape, axes=axes) * fft(y, fshape, axes=axes), fshape, axes=axes)
    else:
        vals = x * y
    vals = vals[: shape[0], : shape[1]].copy()
    origin = (a.origin[0] + b.origin[0], a.origin[1] + b.origin[1])
    return BlockField(origin, vals, np.cross(a.pol, b.pol))


def radial_multiply(f: BlockField, fn) -> BlockField:
    """Apply a radial Fourier multiplier fn(|m|) to a block."""
    return BlockField(f.origin, f.values * fn(f.radius()), f.pol)


def _shell_weight_fn(q: int):
    return lambda r: phi_profile(r / 2.0**q)


def _lowpass_fn(q: int):
    # chi(0) = 1: the low-pass keeps k = 0, as the grid's S_q does.
    return lambda r: chi_profile(r / 2.0**q)


def _shell_span(r_lo: float, r_hi: float) -> range:
    """All shells q with phi(2^-q r) possibly nonzero for r in [r_lo, r_hi]."""
    if r_hi <= 0:
        return range(0)
    lo = math.ceil(math.log2(max(r_lo, 1.0) / PHI_HI))
    hi = math.floor(math.log2(r_hi / PHI_LO))
    return range(lo, hi + 1)


def real_product_blocks(p, q) -> list:
    """Blocks of the cross product of two real fields.

    ``p``, ``q`` are lists of the positive-half blocks; each
    real field is the blocks plus their conjugate mirrors.  Half of the
    convolutions are conjugate mirrors of the other half, so only half
    are computed.
    """
    out = []
    for pb in p:
        for qb in q:
            c = block_convolve(pb, qb)
            d = block_convolve(pb, qb.conj_mirror())
            out += [c, c.conj_mirror(), d, d.conj_mirror()]
    return out


def _nonzero(block: BlockField) -> bool:
    return float(np.max(np.abs(block.values))) > 0.0


def _paraproduct(lows, highs, low_first: bool) -> list:
    """Terms S_{q-1} low * Delta_q high, in (shell, high, low) order.

    The corner radii of ``radius_range`` drop, before their profiles are
    evaluated, the low blocks on which chi(. / 2^{q-1}) vanishes and the
    high blocks outside the support of phi(. / 2^q); a shell with no
    low-pass left is skipped whole.  The cuts carry a relative slack, so
    only blocks whose profile is exactly 0 are dropped and the terms are
    those of the full sweep.
    """
    out = []
    low_min = [b.radius_range()[0] for b in lows]
    high_ranges = [b.radius_range() for b in highs]
    r_lo = min(lo for lo, _ in high_ranges)
    r_hi = max(hi for _, hi in high_ranges)
    for shell in _shell_span(r_lo, r_hi):
        chi_cut = CHI_HI * 2.0 ** (shell - 1) * (1.0 + _CUT_SLACK)
        low_parts = [radial_multiply(lb, _lowpass_fn(shell - 1))
                     for lb, r in zip(lows, low_min) if r < chi_cut]
        low_parts = [lo for lo in low_parts if _nonzero(lo)]
        if not low_parts:
            continue
        phi_lo = PHI_LO * 2.0**shell * (1.0 - _CUT_SLACK)
        phi_hi = PHI_HI * 2.0**shell * (1.0 + _CUT_SLACK)
        for hb, (r_min, r_max) in zip(highs, high_ranges):
            if r_max <= phi_lo or r_min >= phi_hi:
                continue
            hi = radial_multiply(hb, _shell_weight_fn(shell))
            if not _nonzero(hi):
                continue
            for lo in low_parts:
                out.append(
                    block_convolve(lo, hi) if low_first
                    else block_convolve(hi, lo)
                )
    return out


def bony_paraproducts(p, q) -> tuple:
    """The two paraproduct pieces (T_a b, T_b a) of the real product.

    Cheap when the factors are frequency-separated from zero: low-pass
    truncations that vanish are skipped before any convolution, so no
    full-product blocks are materialized.  Polarization order is a x b
    in both pieces.
    """
    a_blocks = [blk for pb in p for blk in real_pair(pb)]
    b_blocks = [blk for qb in q for blk in real_pair(qb)]
    t_ab = _paraproduct(a_blocks, b_blocks, low_first=True)
    t_ba = _paraproduct(b_blocks, a_blocks, low_first=False)
    return t_ab, t_ba


# ---------------------------------------------------------------------------
# Norms over block collections (canvas merge handles overlaps exactly).


def _bbox(origin: tuple, shape: tuple) -> tuple:
    return (
        origin[0],
        origin[0] + shape[0] - 1,
        origin[1],
        origin[1] + shape[1] - 1,
    )


def _overlap_groups(boxes: list) -> list:
    """Index groups of the connected components of bounding-box overlap;
    a box is (row_lo, row_hi, col_lo, col_hi), inclusive."""
    parent = list(range(len(boxes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            a, b = boxes[i], boxes[j]
            if a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]:
                parent[find(i)] = find(j)
    groups: dict = {}
    for i in range(len(boxes)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _union_box(boxes) -> tuple:
    return (
        min(b[0] for b in boxes),
        max(b[1] for b in boxes),
        min(b[2] for b in boxes),
        max(b[3] for b in boxes),
    )


def _mirror_box(box: tuple) -> tuple:
    return (-box[1], -box[0], -box[3], -box[2])


def _paste(pieces, box: tuple) -> BlockField:
    """Sum blocks onto one canvas covering ``box``, each clipped to it.

    ``pieces`` yields ``(block, mirrored)`` pairs, taken one at a time from
    any iterable; a mirrored block is pasted as its conjugate mirror, by
    index.  Requires a shared polarization direction; amplitudes relative
    to the first block's are folded into the scalar.  The canvas is real
    while every piece and every polarization scale is, and turns complex
    at the first complex contribution.
    """
    r0, r1, c0, c1 = box
    canvas = np.zeros((r1 + 1 - r0, c1 + 1 - c0))
    pol = None
    for b, mirrored in pieces:
        vals, b_pol, (o0, o1) = b.values, b.pol, b.origin
        if mirrored:
            vals, b_pol = vals[::-1, ::-1], np.conj(b_pol)
            o0, o1 = -(o0 + b.shape[0] - 1), -(o1 + b.shape[1] - 1)
        if pol is None:
            pol = b_pol
        i0, i1 = max(o0, r0), min(o0 + vals.shape[0], r1 + 1)
        j0, j1 = max(o1, c0), min(o1 + vals.shape[1], c1 + 1)
        if i0 < i1 and j0 < j1:
            vals = vals[i0 - o0 : i1 - o0, j0 - o1 : j1 - o1]
            scale = _pol_scale(b_pol, pol)
            term = (scale.real if scale.imag == 0.0 else scale) * (
                np.conj(vals) if mirrored else vals)
            if np.iscomplexobj(term) and not np.iscomplexobj(canvas):
                canvas = canvas.astype(np.complex128)
            canvas[i0 - r0 : i1 - r0, j0 - c0 : j1 - c0] += term
            del term
        del b, vals  # a generator's next block is made while these would still live
    return BlockField((r0, c0), canvas, pol)


def _merged(blocks: list):
    """The nonzero blocks, pasted onto one canvas per connected component
    of bounding-box overlap."""
    blocks = [b for b in blocks if _nonzero(b) and np.any(b.pol)]
    boxes = [_bbox(b.origin, b.shape) for b in blocks]
    for idxs in _overlap_groups(boxes):
        if len(idxs) == 1:
            yield blocks[idxs[0]]
        else:
            yield _paste(((blocks[i], False) for i in idxs),
                         _union_box([boxes[i] for i in idxs]))


def _pol_scale(p: np.ndarray, ref: np.ndarray) -> complex:
    """Express polarization p as a multiple of ref (must be parallel)."""
    denom = complex(np.vdot(ref, ref))
    coef = complex(np.vdot(ref, p)) / denom
    if float(np.max(np.abs(p - coef * ref))) > 1e-9 * float(np.max(np.abs(p)) + 1e-300):
        raise ValueError("blocks with non-parallel polarizations overlap")
    return coef


def _shell_sums(r: np.ndarray, power: np.ndarray, lowpass_shell=None) -> tuple:
    """Per-shell sums of phi(r / 2^q)^2 * power over points with r > 0,
    by the shell assignment of the module docstring (r / 2^J lies in
    [2/3, 3/2], which keeps chi(r / 2^{J+1}) = 1 and chi(r / 2^{J-1}) = 0).
    With ``lowpass_shell`` L, the low-pass weight chi(r / 2^L), which is
    1, c or 0 as J is below, equal to or above L, takes its share of the
    power first.  Returns ``(sums, low)``: the positive shell sums in
    increasing shell order, and the low-pass sum (0 without L)."""
    if r.size == 0:
        return {}, 0.0
    scale = np.log2(r)
    np.rint(scale, out=scale)
    x = np.exp2(scale)
    c = chi_profile(np.divide(r, x, out=x))
    J = scale.astype(np.int64)
    low = 0.0
    if lowpass_shell is not None:
        w_low = np.where(J == lowpass_shell, c, 0.0)
        np.copyto(w_low, 1.0, where=J < lowpass_shell)
        w = np.square(w_low)
        low = float(np.sum(np.multiply(w, power, out=w)))
        np.subtract(1.0, w_low, out=w_low)
        power = np.multiply(np.square(w_low, out=w_low), power, out=w_low)
    q0, size = int(J.min()) - 1, int(J.max() - J.min()) + 2
    J -= q0 + 1  # the index of shell J - 1
    w = np.square(c)
    sums = np.bincount(J, np.multiply(w, power, out=w), minlength=size)
    J += 1
    np.subtract(1.0, c, out=c)
    sums += np.bincount(J, np.multiply(np.square(c, out=c), power, out=c), minlength=size)
    return {q0 + i: float(s) for i, s in enumerate(sums) if s > 0.0}, low


def _covered_points(block: BlockField, half: bool = False):
    """``(r, power)`` of the block's points with nonzero power, in row
    chunks of about ``_CHUNK_POINTS`` points (at least one row), so the
    measurement's temporaries scale with the chunk and not the canvas; the
    constant's comment gives the measurement behind its size.  Points no
    box covers carry no power; k = 0 is given none, and with ``half`` so is
    the row m1 = 0 at m2 < 0, which leaves the Hermitian half-plane.  r is
    the sqrt of the exact integer m1^2 + m2^2, formed at the kept points
    only."""
    pol_sq = float(np.sum(np.abs(block.pol) ** 2))
    (r0, c0), (n_rows, n_cols) = block.origin, block.shape
    cols_sq = np.arange(c0, c0 + n_cols, dtype=float) ** 2
    chunk = max(1, _CHUNK_POINTS // n_cols)
    for row0 in range(0, n_rows, chunk):
        power = np.abs(block.values[row0 : row0 + chunk])
        np.square(power, out=power)
        power *= pol_sq
        row = -r0 - row0  # the chunk's row m1 = 0
        if 0 <= row < len(power):
            power[row, 0 if half else max(0, -c0) : max(0, 1 - c0)] = 0.0
        keep = power > 0.0
        rows_sq = np.arange(r0 + row0, r0 + row0 + len(power), dtype=float) ** 2
        r = (rows_sq[:, None] + cols_sq[None, :])[keep]
        yield np.sqrt(r, out=r), power[keep]


def shell_norms(blocks: list) -> dict:
    """||Delta_q (sum of blocks)||_{L^2} per occupied shell (k=0 dropped),
    in increasing shell order."""
    acc = Counter()
    for merged in _merged(blocks):
        for r, power in _covered_points(merged):
            acc.update(_shell_sums(r, power)[0])
    return {q: math.sqrt(BOX_VOLUME_2D * s) for q, s in sorted(acc.items())}


def l2_norm(blocks: list) -> float:
    """||sum of blocks||_{L^2} (k=0 dropped)."""
    total = sum(float(np.sum(power)) for merged in _merged(blocks)
                for _, power in _covered_points(merged))
    return math.sqrt(BOX_VOLUME_2D * total)


def lowpass_blocks(blocks: list, q: int, complement: bool = False) -> list:
    """S_q of each block, or (I - S_q) with ``complement``."""
    fn = _lowpass_fn(q)
    weight = (lambda r: 1.0 - fn(r)) if complement else fn
    return [radial_multiply(b, weight) for b in blocks]


# ---------------------------------------------------------------------------
# Wave packets: the product of two opposite packets saturates the
# low-frequency Bernstein bound on every output shell at once, which is
# exactly the interaction behind the two-dimensional logarithmic loss.


def gaussian_packet(center: tuple, half_width: int, pol,
                    rng: np.random.Generator | None = None) -> BlockField:
    """Gaussian amplitude profile on a (2h+1)^2 patch around ``center``.

    With rng given, amplitudes get mild random jitter (keeps ensembles
    nondegenerate without destroying the packet's spatial coherence).
    """
    h = int(half_width)
    x = np.arange(-h, h + 1, dtype=float)
    sigma = max(h / 2.0, 1.0)
    prof = np.exp(-0.5 * (x / sigma) ** 2)
    vals = np.outer(prof, prof)
    if rng is not None:
        vals = vals * (1.0 + 0.1 * rng.standard_normal(vals.shape))
    return BlockField((center[0] - h, center[1] - h), vals, pol)


def criticality_packets(q: int, rng: np.random.Generator | None = None):
    """Shell-q field pair whose product spreads evenly over shells -1..q.

    The first field is a full wave packet at c = (m0, m0) with half width
    0.16 * 2^q + 1.5; the second is the opposite packet at -c plus packets
    of the same width at rotated positions -R(theta_j) c on the same
    circle, with chord lengths 2^{j-3} * 2^q, j = 0..4.  The opposite
    pair's product is a spatially coherent bump whose flat spectrum
    saturates the low-frequency Bernstein bound on every shell up to the
    packet bandwidth at once; the rotated packets place equally saturated
    bumps on the top shells the bandwidth misses.  The chord ladder is
    scale-invariant, so each shell receives a comparable share at every
    q — the extremal configuration for the 2D product estimate.  All
    modes of both fields lie at radius ~1.75 * 2^q (shell q).
    """
    radius = PACKET_CENTER_SCALE * math.sqrt(2.0) * 2.0**q
    m0 = int(round(PACKET_CENTER_SCALE * 2.0**q))
    h = max(2, int(round(0.16 * 2.0**q + 1.5)))
    h = min(h, m0 - 1)  # keep every packet away from k = 0
    base_angle = math.atan2(m0, m0)
    e_pol = np.array([0.0, 0.0, 1.0])
    b_pol = np.array([1.0, 0.0, 0.0])
    p = gaussian_packet((m0, m0), h, e_pol, rng)
    centers = {(-m0, -m0)}
    b_blocks = [gaussian_packet((-m0, -m0), h, b_pol, rng)]
    for c in (0.125, 0.25, 0.5, 1.0, 2.0):
        # Chord over diameter is c / 3.5 <= 4/7 < 1: asin is defined for every c.
        theta = base_angle + 2.0 * math.asin(c * 2.0**q / (2.0 * radius))
        ctr = (
            -int(round(radius * math.cos(theta))),
            -int(round(radius * math.sin(theta))),
        )
        if ctr in centers:  # lattice rounding collapsed this chord
            continue
        centers.add(ctr)
        b_blocks.append(gaussian_packet(ctr, h, b_pol, rng))
    return [p], b_blocks


def _conv_box(a: BlockField, b: BlockField) -> tuple:
    origin = (a.origin[0] + b.origin[0], a.origin[1] + b.origin[1])
    return _bbox(origin, (a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))


def remainder_cluster_stats(p, q, t_blocks=()) -> tuple:
    """Streaming norms of R = (product of two real fields) - (given blocks).

    Equivalent to pasting ``real_product_blocks(p, q)`` plus the negated
    ``t_blocks`` on one canvas and measuring, but clusters of overlapping
    contributions are materialized one at a time so the peak memory is a
    single cluster canvas instead of every convolution at once.  Returns
    ``(s_low_l2, complement_shell_l2)``: the L^2 norm of the low-pass S_2 R
    and a dict of per-shell L^2 norms of the complementary part, in
    increasing shell order.  All polarizations must be parallel.

    R must be real, so ``t_blocks`` must be closed under conjugate
    mirroring, as ``bony_paraproducts`` returns them.  Then the power of R
    is mirror-symmetric, and the measurement covers the Hermitian
    half-plane of the module docstring: each distinct convolution is
    computed once, one cluster of every mirror pair is measured, a
    self-mirror cluster only on its half-plane, and every measured point
    counts twice.  A cluster whose mirror cluster is missing raises
    ``ValueError``.
    """
    products = [(pb, hi) for pb in p for qb in q
                for hi in (qb, qb.conj_mirror())]
    t_blocks = list(t_blocks)
    n_jobs = 2 * len(products)  # job 2k pastes product k, job 2k + 1 its mirror
    boxes = []
    for pb, hi in products:
        box = _conv_box(pb, hi)
        boxes += [box, _mirror_box(box)]
    boxes += [_bbox(tb.origin, tb.shape) for tb in t_blocks]

    def pieces(idxs: set):
        for i in sorted(idxs):
            if i >= n_jobs:
                yield t_blocks[i - n_jobs].scaled(-1.0), False
        for k in sorted({i // 2 for i in idxs if i < n_jobs}):
            blk = block_convolve(*products[k])
            for mirrored in (False, True):
                if 2 * k + mirrored in idxs:
                    yield blk, mirrored
            del blk

    groups = _overlap_groups(boxes)
    keys = [tuple(sorted(boxes[i] for i in idxs)) for idxs in groups]
    where = {key: n for n, key in enumerate(keys)}
    mirrors = [where.get(tuple(sorted(map(_mirror_box, key)))) for key in keys]
    if None in mirrors:
        raise ValueError("remainder blocks are not closed under conjugate mirroring")

    s_low_sq = 0.0
    comp_sq = Counter()
    for n, idxs in enumerate(groups):
        if mirrors[n] < n:
            continue  # measured as its mirror cluster
        box = _union_box(keys[n])
        half = mirrors[n] == n
        if half:
            box = (0,) + box[1:]  # rows m1 >= 0; row m1 = 0 counts m2 > 0 only
        merged = _paste(pieces(set(idxs)), box)
        for r, power in _covered_points(merged, half):
            sums, low = _shell_sums(r, power, 2)
            s_low_sq += low
            comp_sq.update(sums)
        del merged
    # each measured point stands for itself and its mirror
    s_low = math.sqrt(2.0 * BOX_VOLUME_2D * s_low_sq)
    comp = {qv: math.sqrt(2.0 * BOX_VOLUME_2D * sq) for qv, sq in sorted(comp_sq.items())}
    return s_low, comp


def blocks_to_grid_field(blocks: list, grid):
    """Paste real-field blocks onto a periodic FFT grid (for small shells,
    to cross-check the lattice route against the grid route); only the
    stored modes m2 >= 0 of their real field are pasted."""
    from .grid import SpectralField

    coeffs = np.zeros((3,) + grid.spectral_shape, dtype=np.complex128)
    half = grid.n // 2
    for b in blocks:
        for i in range(b.shape[0]):
            m1 = b.origin[0] + i
            if not (-half < m1 <= half):
                raise ValueError("block mode outside grid range")
            for j in range(b.shape[1]):
                m2 = b.origin[1] + j
                if not (-half < m2 <= half):
                    raise ValueError("block mode outside grid range")
                if m2 >= 0:
                    coeffs[:, m1 % grid.n, m2] += b.values[i, j] * b.pol
    f = SpectralField(grid, coeffs)
    f.zero_nyquist()
    return f

"""End-to-end acceptance gate: ten numbered criteria, one pass/fail line each.

Each test prints exactly one summary line (visible with ``pytest -s`` or on
failure) and then asserts the stated tolerances.
"""

import filecmp
import math
import os

import numpy as np
from scipy.integrate import quad, simpson

from nsmaxwell.checks import (
    check_l2linfty,
    check_maxwell_energy_decay,
    concentrated_packet,
    fast_eigenmode_state,
    fit_growth_exponent,
    log_criticality_experiment,
    product_law_report,
)
from nsmaxwell.cli import main as cli_main
from nsmaxwell.dyadic import bony_decompose, build_partition
from nsmaxwell.ensembles import gen_field
from nsmaxwell.grid import Grid, SpectralField, lp_norm_physical, pointwise_product
from nsmaxwell.propagators import maxwell_apply, maxwell_wave_route, phi_multipliers
from nsmaxwell.system import (
    MhdState,
    energy_report,
    free_evolution,
    initial_data_norm,
    march,
    picard_iterate,
    picard_solution,
    taylor_green_velocity,
    z_norm,
)

from conftest import states_of


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# 1. Propagator exactness against a 4th-order ODE oracle.


def test_criterion_01_propagator_oracle():
    rng = np.random.default_rng(42)
    kmags = [0.0, 0.1, 0.5, 1.0, 2.0, 10.0]
    cases, E0s, B0s, ks = [], [], [], []
    for kmag in kmags:
        per = 15 if kmag == 0.0 else 17
        if kmag == 0.0:
            grid = Grid(3, 8, 2 * np.pi)
            mode = (0, 0, 0)
            k = np.zeros(3)
        else:
            grid = Grid(3, 8, 2 * np.pi / kmag)
            mode = (1, 0, 0)
            k = np.array([kmag, 0.0, 0.0])
        E0 = rng.standard_normal((per, 3)) + 1j * rng.standard_normal((per, 3))
        B0 = rng.standard_normal((per, 3)) + 1j * rng.standard_normal((per, 3))
        if kmag > 0:
            kh = k / np.linalg.norm(k)
            B0 = B0 - np.outer(B0 @ kh, kh)  # div-free
        cases += [(grid, mode)] * per
        E0s.append(E0)
        B0s.append(B0)
        ks.append(np.broadcast_to(k, (per, 3)))
    E0s, B0s, kb = np.concatenate(E0s), np.concatenate(B0s), np.concatenate(ks)

    # classical RK4 on y = (E, B), dE = ik x B - E, dB = -ik x E, one row
    # per mode: every |k| advances in the same loop
    def f(y):
        E, B = y[:, :3], y[:, 3:]
        return np.concatenate(
            [-E + 1j * np.cross(kb, B), -1j * np.cross(kb, E)], axis=1
        )

    y = np.concatenate([E0s, B0s], axis=1)
    dt = 1e-4
    for _ in range(10_000):
        k1 = f(y)
        k2 = f(y + dt / 2 * k1)
        k3 = f(y + dt / 2 * k2)
        k4 = f(y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    worst = 0.0
    n_modes = 0
    for s, (grid, mode) in enumerate(cases):
        Ef = SpectralField.zeros(grid)
        Bf = SpectralField.zeros(grid)
        Ef.coeffs[(slice(None),) + mode] = E0s[s]
        Bf.coeffs[(slice(None),) + mode] = B0s[s]
        E1, B1 = maxwell_apply(Ef, Bf, 1.0)
        B2 = maxwell_wave_route(Ef, Bf, 1.0)
        scale = max(np.max(np.abs(y[s])), 1e-300)
        err = max(
            np.max(np.abs(E1.coeffs[(slice(None),) + mode] - y[s, :3])),
            np.max(np.abs(B1.coeffs[(slice(None),) + mode] - y[s, 3:])),
            np.max(np.abs(B2.coeffs[(slice(None),) + mode] - y[s, 3:])),
        ) / scale
        worst = max(worst, err)
        n_modes += 1
    ok = n_modes == 100 and worst <= 1e-8
    _report(1, "propagator vs ODE oracle", ok,
            f"{n_modes} modes, worst rel err {worst:.3e} (tol 1e-8)")
    assert ok


# ---------------------------------------------------------------------------
# 2. Damped-wave multiplier regime bounds.


def test_criterion_02_multiplier_bounds():
    # (a) exponential decay rate c in (0,1) for |xi| >= 2 over t in [0, 10]
    t = np.linspace(1e-3, 10.0, 4001)
    c_fits = []
    for xi in (2.0, 3.0, 5.0, 10.0, 50.0):
        p1, p2 = phi_multipliers(t, xi**2)
        c1 = np.min(-np.log(np.abs(p1) + 1e-300) / t)
        c2 = np.min(-np.log(xi * np.abs(p2) + 1e-300) / t)
        c_fits.append(min(c1, c2))
    c = min(c_fits)
    ok_decay = 0.0 < c < 1.0

    # (b) low-shell L^r bounds with one global constant, on the envelopes
    # Phi_q^i(t) = Phi_i(t, 2^{2(q-1)})
    worst = 0.0
    for q in range(-8, -2):
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
    C = 4.0
    ok_lr = worst <= C + 1e-6
    ok = ok_decay and ok_lr
    _report(2, "multiplier regime bounds", ok,
            f"fitted c = {c:.3f} in (0,1); L^r constant {worst:.3f} <= {C}")
    assert ok


# ---------------------------------------------------------------------------
# 3. Discrete energy identity: order and absolute residual.


def test_criterion_03_energy_identity():
    grid = Grid(2, 64)
    rng = np.random.default_rng(3)
    v = taylor_green_velocity(grid, 1.0)
    E = 0.5 * gen_field(grid, rng, 0.0, 2, False)
    B = 0.5 * gen_field(grid, rng, 0.0, 2, True)
    initial = MhdState(v, E, B).prepared()
    res = {}
    for dt in (4e-3, 2e-3, 1e-3):
        rows = np.array([(state.time, *energy_report(state, current))
                         for state, current in march(initial, 1.0, dt)])
        times, en, diss = rows[:, 0], rows[:, 1], rows[:, 2] + rows[:, 3]
        res[dt] = abs(en[-1] - en[0] + simpson(diss, x=times)) / en[0]
    orders = (
        math.log2(res[4e-3] / res[2e-3]),
        math.log2(res[2e-3] / res[1e-3]),
    )
    order = min(orders)
    ok = order >= 1.9 and res[1e-3] <= 1e-6
    _report(3, "energy identity residual", ok,
            f"fitted orders {orders[0]:.2f}/{orders[1]:.2f} (>= 1.9), "
            f"finest residual {res[1e-3]:.3e} (<= 1e-6)")
    assert ok


# ---------------------------------------------------------------------------
# 4. Bony reconstruction and partition of unity.


def test_criterion_04_bony_and_partition():
    grid = Grid(2, 32)
    part = build_partition(grid)
    resolved = ~grid.nyquist_mask
    resolved[(0, 0)] = False
    part_defect = float(np.max(np.abs(part.partition_sum()[resolved] - 1.0)))
    rng = np.random.default_rng(11)
    fields = [gen_field(grid, rng, slope=0.5) for _ in range(20)]
    worst = 0.0
    for i in range(0, 20, 2):
        u, v = fields[i], fields[i + 1]
        t_uv, t_vu, r = bony_decompose(u, v)
        total = t_uv + t_vu + r
        direct = pointwise_product(u, v)
        scale = np.max(np.abs(direct.coeffs)) + 1e-300
        worst = max(worst, float(np.max(np.abs(total.coeffs - direct.coeffs)) / scale))
    ok = part_defect <= 1e-12 and worst <= 1e-12
    _report(4, "partition + paraproduct exactness", ok,
            f"partition defect {part_defect:.2e}, reconstruction defect "
            f"{worst:.2e} (both <= 1e-12)")
    assert ok


# ---------------------------------------------------------------------------
# 5. Fixed-point contraction in the weighted norm.


def test_criterion_05_picard_contraction():
    grid = Grid(2, 64)
    rng = np.random.default_rng(7)
    v = gen_field(grid, rng, 2.0, None, True)
    E = gen_field(grid, rng, 2.0, None, False)
    B = gen_field(grid, rng, 2.0, None, True)
    base = MhdState(v, E, B, 0.0).prepared()

    T, dt = 1.0, 0.01
    free = free_evolution(base, T, dt)
    eps = 0.9e-2 / z_norm(free).total
    small = base.scaled(eps)
    free_s = free_evolution(small, T, dt)
    z_small = z_norm(free_s).total
    last, ratios, _ = picard_iterate(small, T, dt, 6)
    assert ratios, "no contraction ratio above the roundoff floor"
    contracting = all(r < 1 for r in ratios)

    fixed = picard_solution(free_s, last)
    ref = [state for state, _ in march(small, T, dt)]
    err = max(
        max(
            lp_norm_physical(sa.v - sb.v, 2),
            lp_norm_physical(sa.E - sb.E, 2),
            lp_norm_physical(sa.B - sb.B, 2),
        )
        for sa, sb in zip(states_of(fixed), ref)
    )
    tol = 10.0 * dt**2 * initial_data_norm(small)
    first_half = z_small <= 1e-2 and contracting and err <= tol

    # Second half: where contraction is lost.  The paper proves contraction
    # for data small against the inverse of its product-law constants and
    # fixes no amplitude at which it must fail on a window T = 1.  What it
    # does fix is the structure: N is quadratic at leading order, so the
    # Lipschitz constant of the map, and with it the first ratio, grows in
    # proportion to the data.  The x100 data must show that scaling, and the
    # amplitude s* at which the linear prediction from the small-data ratio
    # reaches 1 must leave the contraction regime: some ratio >= 1, or the
    # iteration stops on a non-finite difference.
    big = small.scaled(100.0)
    _, big_ratios, _ = picard_iterate(big, T, dt, 6)
    linear = bool(big_ratios) and 0.5 <= big_ratios[0] / (100.0 * ratios[0]) <= 2.0
    s_star = 1.0 / ratios[0]
    _, lost_ratios, lost_diffs = picard_iterate(small.scaled(s_star), T, dt, 6)
    lost = any(r >= 1.0 for r in lost_ratios) or len(lost_diffs) < 6

    def first(rs):
        return f"{rs[0]:.3e}" if rs else "none"

    ok = first_half and linear and lost
    _report(5, "contraction regime", ok,
            f"Z_free {z_small:.3e} <= 1e-2, ratios max "
            f"{max(ratios):.3e} < 1, fixed-point err {err:.2e} <= {tol:.2e}; "
            f"first ratio x1 {first(ratios)}, x100 {first(big_ratios)} "
            f"(100x within 2: {linear}), x s* = {s_star:.4g} {first(lost_ratios)} "
            f"(>= 1 somewhere: {lost})")
    assert first_half
    assert linear, "x100 first ratio is not 100 times the x1 first ratio within a factor 2"
    assert lost, f"no ratio >= 1 at the linear-prediction amplitude s* = {s_star:.4g}"


# ---------------------------------------------------------------------------
# 6. Product-law constants independent of the time window.


def test_criterion_06_product_law_T_stability():
    drifts = {}
    for est in ("est4-2D", "est3-uB-2D"):
        vals = [
            product_law_report(est, Grid(2, 64), 0, 20, 2.0, T).max_ratio
            for T in (1.0, 10.0, 100.0)
        ]
        drifts[est] = max(vals) / min(vals) - 1.0
    ok = all(d < 0.10 for d in drifts.values())
    detail = ", ".join(f"{k} drift {v:.2%}" for k, v in drifts.items())
    _report(6, "product-law T-independence", ok, detail + " (< 10%)")
    assert ok


# ---------------------------------------------------------------------------
# 7. Logarithmic growth of the unweighted constant; log weight flattens it.


def test_criterion_07_log_criticality():
    rows = log_criticality_experiment(range(2, 13), seed=0, T=100.0)
    unw = {q: r_unw for q, _, _, _, r_unw, _ in rows}
    wgt = {q: r_w for q, _, _, _, _, r_w in rows}
    growth = unw[12] / unw[2]
    rel = [wgt[q] / wgt[2] for q in range(2, 13)]
    exponent = fit_growth_exponent(list(unw), list(unw.values()))
    ok = growth >= 2.0 and all(1.0 / 1.5 <= r <= 1.5 for r in rel)
    _report(7, "logarithmic criticality", ok,
            f"unweighted q12/q2 = {growth:.2f} (>= 2), growth exponent "
            f"{exponent:.2f}, weighted/q2 in [{min(rel):.3f}, {max(rel):.3f}] "
            f"(within [1/1.5, 1.5])")
    assert ok


# ---------------------------------------------------------------------------
# 8. Damped Maxwell decay estimate: finite and T-stable ratios.


def test_criterion_08_maxwell_decay_T_stability():
    def dt_for(T):
        return min(0.0025 * T, 0.05)

    details = []
    ok = True
    for d, alpha, n in ((2, 1.0, 32), (3, 0.0, 16)):
        grid = Grid(d, n, 16.0 * np.pi)
        de, dd = [], []
        for s in range(20):
            rng = np.random.default_rng(100 + s)
            E0, B0 = fast_eigenmode_state(grid, rng, k_max=0.2)
            ve, vd = [], []
            for T in (1.0, 10.0, 100.0):
                er, dr = check_maxwell_energy_decay(
                    E0, B0, None, T, dt=dt_for(T), alpha=alpha
                )
                ve.append(er.max_ratio)
                vd.append(dr.max_ratio)
            if not all(np.isfinite(ve + vd)):
                ok = False
            de.append(max(ve) / min(ve) - 1.0)
            dd.append(max(vd) / min(vd) - 1.0)
        ok = ok and max(de) < 0.10 and max(dd) < 0.10
        details.append(
            f"d={d}/alpha={alpha:g}: energy {max(de):.2%}, decay {max(dd):.2%}"
        )
    _report(8, "Maxwell decay T-stability", ok, "; ".join(details) + " (< 10%)")
    assert ok


# ---------------------------------------------------------------------------
# 9. Heat smoothing into L^2_t L^inf_x: scale invariance across shells.


def test_criterion_09_l2linfty_shell_sweep():
    spreads = {}
    for variant in ("u0", "f1", "f2"):
        ratios = []
        for q in range(0, 7):
            s = max(0, 4 - q)
            grid = Grid(2, 8 * 2 ** (q + s), 2.0 * np.pi * 2.0**s)
            f = concentrated_packet(grid, q)
            T = 6.0 * 4.0 ** (-q)
            dt = T / 400
            zero = SpectralField.zeros(grid)
            if variant == "u0":
                rep = check_l2linfty(f, None, None, T, dt)
            elif variant == "f1":
                rep = check_l2linfty(zero, (f, 4.0**q), None, T, dt)
            else:
                rep = check_l2linfty(zero, None, (f, 4.0**q), T, dt)
            ratios.append(rep.max_ratio)
        spreads[variant] = max(ratios) / min(ratios)
    ok = all(s < 2.0 for s in spreads.values())
    detail = ", ".join(f"{k} spread {v:.3f}" for k, v in spreads.items())
    _report(9, "L2-Linf shell-sweep scale invariance", ok, detail + " (< 2)")
    assert ok


# ---------------------------------------------------------------------------
# 10. Determinism of the batch front end.


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n = 16\nT = 0.1\ndt = 0.01\ninit = random\nslope = 1.0\nseed = 12\n"
        "norms = v_l2, B_l2log\n"
    )
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli_main(["simulate", str(cfg), "--out-dir", str(out)]) == 0
        assert cli_main(["split", str(cfg), "--out-dir", str(out)]) == 0
    names = sorted(os.listdir(outs[0]))
    identical = all(
        filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False)
        for name in names
    )
    ok = identical and len(names) > 2
    _report(10, "CLI determinism", ok,
            f"{len(names)} output files bit-identical across repeated runs")
    assert ok

"""The four benchmark workloads: inputs, operations and reference checks.

A workload builds its inputs once (``setup``), then yields *rounds*: fixed
lists of ``(units, operation)`` pairs.  Throughput is work units per second
of a whole round, so a round is the smallest repeat that keeps the mix of
operations the same.  Each operation's outputs are compared against the
reference recorded for the same inputs in ``references/<workload>.json``.

Inputs come from the run's seed: a run with seed ``s`` uses reference input
``s % REFERENCE_SEEDS``, so every run has a recorded answer to meet.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import shutil

REFERENCE_SEEDS = 16
HERE = os.path.dirname(os.path.abspath(__file__))


def reference_path(name: str) -> str:
    return os.path.join(HERE, "references", f"{name}.json")


def mismatches(got, ref, rel: float, where: str = "") -> list:
    """Describe every place where ``got`` differs from ``ref``; floats may
    differ by ``rel`` relative to the larger magnitude."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(ref):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(ref)}"]
        return [m for k in ref for m in mismatches(got[k], ref[k], rel, f"{where}.{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{where}: {got!r} != {ref!r}"]
        return [m for i, (g, r) in enumerate(zip(got, ref))
                for m in mismatches(g, r, rel, f"{where}[{i}]")]
    if isinstance(ref, float) or isinstance(got, float):
        g, r = float(got), float(ref)
        if g == r or (math.isfinite(g) and abs(g - r) <= rel * max(abs(g), abs(r))):
            return []
        return [f"{where}: {g!r} != {r!r} (rel tol {rel:g})"]
    return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]


class Workload:
    name = ""
    # Relative tolerance against the reference, and why it is that wide.
    rel_tol = 0.0
    tol_reason = ""
    # Rounds a traced run (and its untraced twin) measures: fixed, so that
    # counts repeat exactly from run to run.
    trace_rounds = 1

    def setup(self, seed: int, smoke: bool, workdir: str) -> None:
        raise NotImplementedError

    def round(self) -> list:
        """[(units, operation)]; operation() returns what ``outputs`` reads."""
        raise NotImplementedError

    def outputs(self, index: int, result):
        """JSON-ready outputs of operation ``index`` of the round."""
        return result

    def invariants(self, index: int, outputs) -> list:
        """Problems that fail the operation whatever the reference says."""
        return []


def _write_config(path: str, values: dict) -> None:
    with open(path, "w") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value}\n")


def _cli_setup(values: dict, seed: int, workdir: str):
    """Write the run's config, then build what the command builds first."""
    from nsmaxwell.cli import build_initial_state
    from nsmaxwell.config import parse_config
    from nsmaxwell.dyadic import build_partition
    from nsmaxwell.propagators import PropagatorTable

    path = os.path.join(workdir, "run.cfg")
    _write_config(path, dict(values, seed=seed))
    with open(path) as fh:
        cfg = parse_config(fh.read())
    initial = build_initial_state(cfg)
    build_partition(initial.grid)
    PropagatorTable.build(initial.grid, cfg.dt)
    return path, cfg


def _read_csv_rows(path: str) -> list:
    with open(path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return [[float(x) for x in r] for r in rows[1:]]


class SimulateWorkload(Workload):
    """``nsmw simulate`` on random 3D data; one work unit is one time step."""

    name = "simulate-3d"
    rel_tol = 1e-9
    tol_reason = ("diagnostics after 20 nonlinear steps; scipy.fft in place of numpy.fft "
                  "moved them by 4e-16 relative, while a flipped sign on (v x B) x B or "
                  "a 1e-4 change in the heat factor fails the gate")
    trace_rounds = 2
    FULL = {"d": 3, "n": 32, "T": 0.2}
    SMOKE = {"d": 2, "n": 16, "T": 0.02}

    def setup(self, seed, smoke, workdir):
        size = self.SMOKE if smoke else self.FULL
        values = dict(size, init="random", slope=2.0, dt=0.01, scheme="exp-trapezoid",
                      norms="v_l2, B_l2log", stride=10)
        self.config, cfg = _cli_setup(values, seed, workdir)
        self.steps = round(cfg.T / cfg.dt)
        self.out_dir = os.path.join(workdir, "out")

    def _run(self):
        from nsmaxwell.cli import main

        return main(["simulate", self.config, "--out-dir", self.out_dir])

    def round(self):
        return [(self.steps, self._run)]

    def outputs(self, index, rc):
        snaps = {f: os.path.getsize(os.path.join(self.out_dir, f))
                 for f in sorted(os.listdir(self.out_dir)) if f.endswith(".nsmw")}
        rows = _read_csv_rows(os.path.join(self.out_dir, "diagnostics.csv"))
        shutil.rmtree(self.out_dir)  # the next operation starts from nothing
        return {"rc": rc, "diagnostics": rows, "snapshots": snaps}


class PicardWorkload(Workload):
    """``nsmw picard`` on random 2D data; one work unit is one Picard
    iteration at one epsilon."""

    name = "picard-2d"
    rel_tol = 1e-8
    tol_reason = ("ratios are quotients of Z-norms of iterate differences, which at "
                  "eps=0.01 are 2e-4 of the iterate; scipy.fft in place of numpy.fft "
                  "moved them by 2.3e-13 relative")
    trace_rounds = 1
    FULL = {"d": 2, "n": 64, "T": 1.0}
    SMOKE = {"d": 2, "n": 16, "T": 0.1}
    ITERS = 3

    def setup(self, seed, smoke, workdir):
        import nsmaxwell.cli as cli

        size = self.SMOKE if smoke else self.FULL
        values = dict(size, init="random", slope=2.0, dt=0.01,
                      epsilons="0.01, 0.1, 1", picard_iters=self.ITERS)
        self.config, cfg = _cli_setup(values, seed, workdir)
        self.units = len(cfg.epsilons) * cfg.picard_iters
        self.out_dir = os.path.join(workdir, "out")
        # picard.csv keeps only the largest ratio; the number of ratios
        # shows whether an epsilon stopped early.
        self.ratio_counts = []
        iterate = getattr(cli.picard_iterate, "__wrapped__", cli.picard_iterate)

        @functools.wraps(iterate)
        def counted(*args, **kwargs):
            result = iterate(*args, **kwargs)
            self.ratio_counts.append(len(result[1]))
            return result

        cli.picard_iterate = counted

    def _run(self):
        from nsmaxwell.cli import main

        self.ratio_counts.clear()
        return main(["picard", self.config, "--out-dir", self.out_dir])

    def round(self):
        return [(self.units, self._run)]

    def outputs(self, index, rc):
        rows = _read_csv_rows(os.path.join(self.out_dir, "picard.csv"))
        shutil.rmtree(self.out_dir)
        return {"rc": rc, "picard": rows, "ratio_counts": list(self.ratio_counts)}

    def invariants(self, index, out):
        problems = [f"eps {eps!r}: {n} ratios, expected {self.ITERS - 1} (stopped early)"
                    for (eps, _), n in zip(out["picard"], out["ratio_counts"])
                    if n != self.ITERS - 1]
        problems += [f"eps {eps!r}: ratio {r!r} >= 1" for eps, r in out["picard"] if r >= 1]
        return problems


class CriticalityWorkload(Workload):
    """``log_criticality_experiment`` over shells 2..Q on the exact lattice;
    one work unit is one full q-sweep."""

    name = "criticality-lattice"
    rel_tol = 1e-6
    tol_reason = ("remainder_cluster_stats pastes onto a complex64 canvas; measured "
                  "against complex128 at q<=9 (seeds 0-3) every column moves by at "
                  "most 2.3e-8 relative, so restoring float64 must not fail the gate")
    trace_rounds = 2
    FULL_Q = 9
    SMOKE_Q = 4

    def setup(self, seed, smoke, workdir):
        from nsmaxwell.checks import log_criticality_experiment

        self.run_sweep = log_criticality_experiment
        self.q_values = range(2, (self.SMOKE_Q if smoke else self.FULL_Q) + 1)
        self.seed = seed

    def round(self):
        return [(1, lambda: self.run_sweep(self.q_values, self.seed))]

    def outputs(self, index, rows):
        return [[int(r[0])] + [float(x) for x in r[1:]] for r in rows]


class ChecksLinearWorkload(Workload):
    """The linear checkers: damped-Maxwell energy decay on fast-eigenmode
    data and the heat L2-Linf estimate on concentrated packets; one work
    unit is one checker call."""

    name = "checks-linear"
    rel_tol = 1e-8
    tol_reason = ("norms of up to 2000 exact propagator steps; a batched time axis "
                  "changes rounding only, while a 1e-4 change in the heat factor of "
                  "heat_forced_coeffs fails the gate")
    trace_rounds = 1
    # (d, n, alpha) on a box of side 16 pi, as in acceptance criterion 8
    FULL_DECAY = ((2, 32, 1.0), (3, 16, 0.0))
    SMOKE_DECAY = ((2, 16, 1.0),)
    FULL_WINDOWS = (1.0, 10.0, 100.0)
    SMOKE_WINDOWS = (1.0,)
    # Shells of the L2-Linf sweep; q=6 needs n=512 and alone takes 15 s.
    FULL_SHELLS = range(0, 6)
    SMOKE_SHELLS = range(0, 1)

    def setup(self, seed, smoke, workdir):
        import numpy as np
        from nsmaxwell.checks import (
            check_l2linfty,
            check_maxwell_energy_decay,
            concentrated_packet,
            fast_eigenmode_state,
        )
        from nsmaxwell.dyadic import build_partition
        from nsmaxwell.grid import Grid

        self.ops = []
        for d, n, alpha in self.SMOKE_DECAY if smoke else self.FULL_DECAY:
            grid = Grid(d, n, 16.0 * np.pi)
            part = build_partition(grid)
            E0, B0 = fast_eigenmode_state(grid, np.random.default_rng(seed), k_max=0.2)
            for T in self.SMOKE_WINDOWS if smoke else self.FULL_WINDOWS:
                dt = min(0.0025 * T, 0.05)
                self.ops.append(lambda E0=E0, B0=B0, T=T, dt=dt, alpha=alpha, part=part:
                                check_maxwell_energy_decay(E0, B0, None, T, dt, alpha, part))
        for q in self.SMOKE_SHELLS if smoke else self.FULL_SHELLS:
            # Smoke mode shrinks the box padding to keep the grid at n=16.
            s = 1 if smoke else max(0, 4 - q)
            grid = Grid(2, 8 * 2 ** (q + s), 2.0 * np.pi * 2.0**s)
            part = build_partition(grid)
            packet = concentrated_packet(grid, q)
            T = 6.0 * 4.0 ** (-q)
            self.ops.append(lambda f=packet, T=T, part=part:
                            check_l2linfty(f, None, None, T, T / 400, part))

    def round(self):
        return [(1, op) for op in self.ops]

    def outputs(self, index, result):
        reports = result if isinstance(result, tuple) else (result,)
        return [[r.lhs[0], r.rhs[0], r.max_ratio] for r in reports]


WORKLOADS = {w.name: w for w in (SimulateWorkload, PicardWorkload,
                                 CriticalityWorkload, ChecksLinearWorkload)}


def load_reference(name: str, smoke: bool, seed: int):
    with open(reference_path(name)) as fh:
        ref = json.load(fh)
    return ref["smoke" if smoke else "full"][str(seed)]

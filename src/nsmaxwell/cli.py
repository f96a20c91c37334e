"""Batch front end: simulate / picard / verify / split / norms.

Exit codes: 0 success, 1 numerical blowup (partial outputs flushed with a
truncation record), 2 configuration error.  Diagnostics go to standard
error; data only to files.  Identical config + seed produce bit-identical
outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from .checks import (
    PINNED_BOUNDS,
    product_law_report,
    write_reports_csv,
    write_reports_jsonl,
)
from .config import ConfigError, RunConfig, apply_flags, parse_config
from .dyadic import NormSpec, build_partition, norm_hst
from .ensembles import FieldEnsembleSpec, gen_field
from .grid import Grid, SpectralField, lp_norm_physical
from .propagators import BlowupError
from .snapshots import SnapshotError, read_snapshot, write_snapshot
from .system import (
    MhdState,
    energy_report,
    march,
    picard_iterate,
    split_initial_data,
    taylor_green_velocity,
)

__all__ = ["main", "build_initial_state", "run_subcommand"]

DIAG_COLUMNS = ("time", "energy", "grad_v_sq", "j_sq")


def build_initial_state(cfg: RunConfig) -> MhdState:
    grid = Grid(cfg.d, cfg.n, cfg.box_length)
    if cfg.init == "taylor-green":
        v = taylor_green_velocity(grid, cfg.amplitude)
        E = SpectralField.zeros(grid)
        B = SpectralField.zeros(grid)
    elif cfg.init in ("random", "shell"):
        rng = np.random.default_rng(cfg.seed)
        shell = cfg.shell if cfg.init == "shell" else None
        part = build_partition(grid)
        if shell is not None and shell not in part.shells():
            raise ConfigError([f"shell: shell index {shell} outside "
                               f"[{part.q_min}, {part.q_max}] for n = {cfg.n}"])
        v = gen_field(grid, rng, cfg.slope, shell, True)
        E = gen_field(grid, rng, cfg.slope, shell, False)
        B = gen_field(grid, rng, cfg.slope, shell, True)
        for f in (v, E, B):
            f.coeffs *= cfg.amplitude
    else:  # file: one snapshot per field, <prefix>_v/_E/_B.nsmw
        try:
            v, t0 = read_snapshot(cfg.init_file + "_v.nsmw")
            E, _ = read_snapshot(cfg.init_file + "_E.nsmw")
            B, _ = read_snapshot(cfg.init_file + "_B.nsmw")
        except (OSError, SnapshotError) as exc:
            raise ConfigError([f"init_file: {exc}"]) from exc
        for name, f in zip("vEB", (v, E, B)):
            if f.grid != grid:
                raise ConfigError([f"init_file: the {name} snapshot lies on {f.grid}, "
                                   f"the config on {grid}"])
        # One grid instance for the run, which keeps the partition's weights.
        return MhdState(*(SpectralField(grid, f.coeffs) for f in (v, E, B)),
                        time=t0).prepared()
    return MhdState(v, E, B, time=0.0).prepared()


def _norm_column(state: MhdState, name: str) -> float:
    field = {"v": state.v, "E": state.E, "B": state.B}[name.split("_")[0]]
    kind = name.split("_", 1)[1]
    if kind == "l2":
        return lp_norm_physical(field, 2)
    if kind == "h1":
        return norm_hst(field, NormSpec.sobolev(1.0))
    return norm_hst(field, NormSpec.sobolev_log(0.0))  # l2log


def _march_to_csv(cfg: RunConfig, csv_name: str, norms: tuple,
                  snapshots: bool) -> int:
    """March the configured run, writing one CSV row per state (and, with
    ``snapshots``, every ``stride``-th state) as it arrives; each row's
    ohmic term takes the Ohm current that ``march`` yields with the state.
    On blowup the CSV ends with a truncation record and the exit code is
    1."""
    # No name holds the initial state: ``march`` keeps only its prepared copy.
    states = march(build_initial_state(cfg), cfg.T, cfg.dt, scheme=cfg.scheme)
    with open(os.path.join(cfg.out_dir, csv_name), "w") as fh:
        fh.write(",".join(DIAG_COLUMNS + norms) + "\n")
        try:
            for idx, (state, current) in enumerate(states):
                row = (state.time, *energy_report(state, current),
                       *(_norm_column(state, name) for name in norms))
                fh.write(",".join(map(repr, row)) + "\n")
                if snapshots and idx % cfg.stride == 0:
                    _write_snapshot(cfg, idx, state)
        except BlowupError as exc:
            # The failed step starts from the last state written, whose time
            # counts from the initial state's (a snapshot's t0).
            print(f"blowup at step {exc.step}", file=sys.stderr)
            fh.write(f"# truncated: blowup at step {exc.step} (t = {state.time!r})\n")
            return 1
    return 0


def _write_snapshot(cfg: RunConfig, idx: int, state: MhdState) -> None:
    stem = os.path.join(cfg.out_dir, f"snap_{idx:06d}")
    for name, fld in (("v", state.v), ("E", state.E), ("B", state.B)):
        write_snapshot(f"{stem}_{name}.nsmw", fld, time=state.time)


def _cmd_simulate(cfg: RunConfig) -> int:
    return _march_to_csv(cfg, "diagnostics.csv", cfg.norms, snapshots=True)


def _cmd_picard(cfg: RunConfig) -> int:
    base = build_initial_state(cfg)
    path = os.path.join(cfg.out_dir, "picard.csv")
    rows = []
    for eps in cfg.epsilons:
        initial = base.scaled(eps)
        # Only the ratios: holding the last iterate would keep it alive
        # beside the next epsilon's iterate.
        ratios = picard_iterate(initial, cfg.T, cfg.dt, cfg.picard_iters)[1]
        worst = max(ratios) if ratios else 0.0
        rows.append((eps, worst))
    with open(path, "w") as fh:
        fh.write("epsilon,max_contraction_ratio\n")
        for eps, worst in rows:
            fh.write(f"{eps!r},{worst!r}\n")
    diverged = [eps for eps, worst in rows if not math.isfinite(worst)]
    if diverged:
        print(f"blowup: Picard iteration diverged at epsilon = "
              f"{', '.join(map(repr, diverged))}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    reports, grids = [], {}
    for est in cfg.estimates:
        d = 2 if est.endswith("2D") else 3
        # One grid, geometry and partition, per dimension; n and box_length
        # apply to the config's own dimension only.
        if d not in grids:
            grids[d] = (Grid(d, cfg.n, cfg.box_length) if d == cfg.d
                        else Grid(d, 128 if d == 2 else 64))
        spec = FieldEnsembleSpec(seed=cfg.seed, count=cfg.count, grid=grids[d],
                                 slope=cfg.slope)
        reports.append(
            product_law_report(est, spec, T=cfg.T, bound=PINNED_BOUNDS[est])
        )
    write_reports_jsonl(reports, os.path.join(cfg.out_dir, "reports.jsonl"))
    write_reports_csv(reports, os.path.join(cfg.out_dir, "summary.csv"))
    return 0


def _cmd_split(cfg: RunConfig) -> int:
    initial = build_initial_state(cfg)
    regular, tail, Q, achieved = split_initial_data(initial, cfg.delta_target)
    payload = {
        "cutoff_shell": Q,
        "delta_target": cfg.delta_target,
        "achieved_tail_norm": achieved,
        "reached_target": achieved < cfg.delta_target,
        "regular_energy": regular.l2_squared(),
        "tail_energy": tail.l2_squared(),
    }
    with open(os.path.join(cfg.out_dir, "split.json"), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0


def _cmd_norms(cfg: RunConfig) -> int:
    norms = cfg.norms or ("v_l2", "E_l2", "B_l2", "v_h1", "E_l2log", "B_l2log")
    return _march_to_csv(cfg, "norms.csv", norms, snapshots=False)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "picard": _cmd_picard,
    "verify": _cmd_verify,
    "split": _cmd_split,
    "norms": _cmd_norms,
}


def run_subcommand(cmd: str, cfg: RunConfig) -> int:
    """Run ``cmd`` on ``cfg``, whose ``out_dir`` exists."""
    return _COMMANDS[cmd](cfg)


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def _config_error(messages) -> int:
    for message in messages:
        print(f"config error: {message}", file=sys.stderr)
    return 2


class _ArgumentParser(argparse.ArgumentParser):
    """A rejected command line is one ``config error`` line, not a usage
    block: ``main`` catches the ``ConfigError``."""

    def error(self, message):
        raise ConfigError([message])


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="nsmw",
        description="Pseudo-spectral simulator and estimate verifier "
                    "for the viscous fluid / damped Maxwell system.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("config", help="path to a key=value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--stride", type=int, default=None)
    try:
        args = parser.parse_args(argv)
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        return _config_error([str(exc)])
    except ConfigError as exc:
        return _config_error(exc.errors)
    try:
        cfg = apply_flags(cfg, {"seed": args.seed, "out_dir": args.out_dir,
                                "stride": args.stride})
        os.makedirs(cfg.out_dir, exist_ok=True)
    except ConfigError as exc:
        return _config_error(exc.errors)
    except OSError as exc:
        key = "out_dir" if args.out_dir is None else "--out-dir"
        return _config_error([f"{key}: cannot create {cfg.out_dir!r}: {exc.strerror}"])

    # Warnings that reach stderr (the advisory CFL check) take one line.
    formatwarning, warnings.formatwarning = warnings.formatwarning, _one_line_warning
    try:
        # Divergence is detected by the non-finite checks of the time loop
        # and the Picard ratios, not by floating-point warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return run_subcommand(args.command, cfg)
    except ConfigError as exc:  # unreadable input files
        return _config_error(exc.errors)
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())

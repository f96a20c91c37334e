#!/usr/bin/env python3
"""Map of the fixed-point iteration's contraction behavior over (eps, T).

For each amplitude scale eps and window T, runs the iteration around the
free evolution and records the worst contraction ratio and the weighted
data norm of the free trajectory.  Output: one CSV row per (eps, T).
The iteration holds one iterate and rebuilds the free evolution chunk by
chunk in each map; the free trajectory of the norm is dropped before it
starts.  The wall time and the process's peak RSS of the map go to stderr.
"""

import argparse
import csv
import resource
import sys
import time

import numpy as np

from nsmaxwell.ensembles import gen_field
from nsmaxwell.grid import Grid
from nsmaxwell.system import MhdState, free_evolution, picard_iterate, z_norm


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--slope", type=float, default=2.0)
    ap.add_argument("--dt", type=float, default=0.01)
    ap.add_argument("--iters", type=int, default=6)
    ap.add_argument("--epsilons", type=float, nargs="+",
                    default=[1e-3, 1e-2, 1e-1, 1.0])
    ap.add_argument("--windows", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    ap.add_argument("--out", default="contraction_map.csv")
    args = ap.parse_args(argv)

    grid = Grid(2, args.n)
    rng = np.random.default_rng(args.seed)
    v = gen_field(grid, rng, args.slope, None, True)
    E = gen_field(grid, rng, args.slope, None, False)
    B = gen_field(grid, rng, args.slope, None, True)
    base = MhdState(v, E, B).prepared()

    start = time.perf_counter()
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["eps", "T", "z_free", "max_ratio", "contracting"])
        for eps in args.epsilons:
            state = base.scaled(eps)
            for T in args.windows:
                free = free_evolution(state, T, args.dt)
                z = z_norm(free).total
                del free
                # Only the ratios: the last iterate would stay alive while
                # the next run iterates.
                ratios = picard_iterate(state, T, args.dt, args.iters)[1]
                worst = max(ratios) if ratios else 0.0
                w.writerow([repr(eps), repr(T), repr(z), repr(worst),
                            int(bool(ratios) and worst < 1.0)])
                print(f"eps={eps:g} T={T:g}  Z={z:.3e}  max ratio {worst:.3e}",
                      file=sys.stderr)
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    print(f"contraction map: {wall:.2f} s, peak RSS {peak_mb:.1f} MB", file=sys.stderr)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

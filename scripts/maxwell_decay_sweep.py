#!/usr/bin/env python3
"""Window sweep of the damped-Maxwell energy and decay estimates.

Uses fast-eigenvector ensembles (every mode decays at rate >= 3/4, so all
time integrals converge by t = O(1)); reports per-sample drift of the
measured ratios across windows.
"""

import argparse
import csv
import sys

import numpy as np

from nsmaxwell.checks import check_maxwell_energy_decay, fast_eigenmode_state
from nsmaxwell.grid import Grid


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=2, choices=(2, 3))
    ap.add_argument("--n", type=int, default=32)
    ap.add_argument("--box-length", type=float, default=16.0 * np.pi)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--k-max", type=float, default=0.2)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--windows", type=float, nargs="+", default=[1.0, 10.0, 100.0])
    ap.add_argument("--out", default="maxwell_decay_sweep.csv")
    args = ap.parse_args(argv)

    grid = Grid(args.d, args.n, args.box_length)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["sample", "T", "energy_ratio", "decay_ratio"])
        worst_e = worst_d = 0.0
        for s in range(args.count):
            rng = np.random.default_rng(args.seed + s)
            E0, B0 = fast_eigenmode_state(grid, rng, k_max=args.k_max)
            ve, vd = [], []
            for T in args.windows:
                dt = min(0.0025 * T, 0.05)
                er, dr = check_maxwell_energy_decay(E0, B0, None, T, dt=dt,
                                                    alpha=args.alpha)
                ve.append(er.max_ratio)
                vd.append(dr.max_ratio)
                w.writerow([s, repr(T), repr(er.max_ratio), repr(dr.max_ratio)])
            worst_e = max(worst_e, max(ve) / min(ve) - 1.0)
            worst_d = max(worst_d, max(vd) / min(vd) - 1.0)
        print(f"worst drift: energy {worst_e:.2%}, decay {worst_d:.2%}",
              file=sys.stderr)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

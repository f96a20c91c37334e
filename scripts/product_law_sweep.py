#!/usr/bin/env python3
"""Window sweep of the bilinear estimate constants.

Runs each selected estimate on a fixed random ensemble across several time
windows and reports the measured max ratio per window plus the relative
drift (a T-independent constant should drift by ~0).
"""

import argparse
import csv
import sys

from nsmaxwell.checks import PRODUCT_LAW_IDS, estimate_dimension, product_law_report
from nsmaxwell.grid import Grid


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--estimates", nargs="+", default=["est4-2D", "est3-uB-2D"],
                    choices=list(PRODUCT_LAW_IDS))
    ap.add_argument("--windows", type=float, nargs="+", default=[1.0, 10.0, 100.0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--slope", type=float, default=2.0)
    ap.add_argument("--out", default="product_law_sweep.csv")
    args = ap.parse_args(argv)

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["estimate_id", "T", "max_ratio", "median_ratio"])
        for est in args.estimates:
            grid = Grid(estimate_dimension(est), args.n)
            vals = []
            for T in args.windows:
                rep = product_law_report(est, grid, args.seed, args.count, args.slope, T)
                vals.append(rep.max_ratio)
                w.writerow([est, repr(T), repr(rep.max_ratio),
                            repr(rep.median_ratio)])
            drift = max(vals) / min(vals) - 1.0
            print(f"{est}: max ratios {['%.5g' % v for v in vals]} "
                  f"drift {drift:.2%}", file=sys.stderr)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

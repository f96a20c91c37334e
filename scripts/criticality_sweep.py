#!/usr/bin/env python3
"""Shell sweep of the 2D cross-product estimate on the frequency lattice.

Measures the unweighted and log-weighted ratio curves over dyadic shells
(wave-packet extremal data; exact block convolutions, no grid), fits the
growth exponent of the unweighted curve (over two or more shells), and
writes one CSV row per shell.
The sweep's wall time and minor page faults (``ru_minflt``) and the
process's peak RSS go to stderr.
"""

import argparse
import csv
import resource
import sys
import time

from nsmaxwell.checks import fit_growth_exponent, log_criticality_experiment


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q-min", type=int, default=2)
    ap.add_argument("--q-max", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--T", type=float, default=100.0)
    ap.add_argument("--out", default="criticality.csv")
    args = ap.parse_args(argv)

    q_values = range(args.q_min, args.q_max + 1)
    # one call: the q values share one rng stream, so timing each q apart
    # would change the data
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    rows = log_criticality_experiment(q_values, seed=args.seed, T=args.T)
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
    print(f"log_criticality_experiment: {wall:.2f} s, "
          f"{usage.ru_minflt - faults} minor page faults, peak RSS {peak_mb:.1f} MB",
          file=sys.stderr)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["q", "lhs", "rhs_unweighted", "rhs_weighted",
                    "ratio_unweighted", "ratio_weighted"])
        for row in rows:
            w.writerow([repr(x) for x in row])
            print("q=%2d  ratio_unw=%.4f  ratio_w=%.4f"
                  % (row[0], row[4], row[5]), file=sys.stderr)
    try:
        exponent = fit_growth_exponent([r[0] for r in rows], [r[4] for r in rows])
        print(f"unweighted growth exponent: {exponent:.3f}", file=sys.stderr)
    except ValueError:
        print("unweighted growth exponent: not fitted (one shell)", file=sys.stderr)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

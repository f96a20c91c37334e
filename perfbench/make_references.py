"""Record the reference outputs the benchmark's correctness gate compares with.

    python3 perfbench/make_references.py --workload picard-2d

runs one round of the workload, full size and smoke size, for each of the
``REFERENCE_SEEDS`` inputs, and writes ``references/<workload>.json``.  The
tolerance the gate allows, and the reason for it, belong to the workload
class in ``workloads.py``.  Record
references only at a commit whose outputs are known to be right: a gate
compared against a re-recorded wrong answer checks nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from worker import ROOT, import_package, environment
from workloads import REFERENCE_SEEDS, WORKLOADS, reference_path


def record(name: str) -> dict:
    out = {"workload": name}
    for mode in ("smoke", "full"):
        out[mode] = {}
        for seed in range(REFERENCE_SEEDS):
            workload = WORKLOADS[name]()
            workdir = tempfile.mkdtemp(prefix="ref-", dir=os.path.join(ROOT, ".perfbench"))
            try:
                workload.setup(seed, mode == "smoke", workdir)
                outs = [workload.outputs(i, op()) for i, (_, op) in enumerate(workload.round())]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            for i, o in enumerate(outs):
                problems = workload.invariants(i, o)
                if problems:
                    raise SystemExit(f"{name} {mode} seed {seed}: {problems}")
            out[mode][str(seed)] = outs
            print(name, mode, seed, file=sys.stderr, flush=True)
    out["recorded_with"] = environment()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    args = parser.parse_args()
    import_package()
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    data = record(args.workload)
    os.makedirs(os.path.dirname(reference_path(args.workload)), exist_ok=True)
    with open(reference_path(args.workload), "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

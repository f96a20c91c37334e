"""One benchmark process: set up a workload, run it, check it, report.

Started by ``run.py``, never by hand.  It imports nsmaxwell from the
``src`` directory of the checkout it lives in, builds the workload's inputs
and prints ``READY``; the parent times set-up from its spawn to that line.
Unless ``--setup-only``, it then runs whole rounds of the workload, either
for ``--seconds`` or for exactly ``--rounds``, compares every operation's
outputs with the recorded reference and prints one JSON line with the
timings, failures, resource usage and (with ``--trace``) the layer totals.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package():
    sys.path.insert(0, SRC)
    import nsmaxwell

    if not os.path.abspath(nsmaxwell.__file__).startswith(SRC + os.sep):
        raise ImportError(f"nsmaxwell imported from {nsmaxwell.__file__}, not {SRC}")
    return nsmaxwell


def git_commit() -> str:
    """HEAD of the checkout, read from its own .git directory if present."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class SpeedProbe:
    """Times a fixed mix of FFTs and small-array arithmetic: the machine's
    speed at the moment, independent of the program under test.

    The benchmark shares its machine with other work, and the probe's time
    swings by a third from minute to minute.  Dividing each measured time
    by the probe times taken right before and after it, and multiplying by
    ``REFERENCE_S``, removes most of that swing.  The FFT entry points are
    captured when the probe is built, before any tracing is installed.
    """

    # The probe's time on a quiet 2-core Xeon machine (Python 3.11,
    # numpy 2.4), so scaled times read as seconds on that machine.
    REFERENCE_S = 0.1

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.fftn, self.ifftn = np.fft.fftn, np.fft.ifftn
        self.big = rng.standard_normal((3, 32, 32, 32))
        self.small = rng.standard_normal((3, 16, 16)) + 0j

    def __call__(self) -> float:
        np, axes = self.np, (1, 2, 3)
        t0 = time.perf_counter()
        a = self.big
        for _ in range(12):
            a = self.ifftn(self.fftn(a, axes=axes) * 0.999, axes=axes).real
        s = self.small
        for _ in range(5000):
            s = s * 0.9999 + np.abs(s) * 1e-6
        return time.perf_counter() - t0

    def steady(self) -> float:
        return statistics.median(self() for _ in range(3))


def run_rounds(workload, reference, seconds, rounds, tracer, probe, before):
    """Run whole rounds, timing each operation between two speed probes.

    ``before`` is the probe time just before the first operation.  Returns
    per-round ``(units, seconds, scaled seconds)``, the number of operations
    attempted and a list of failure messages.
    """
    from workloads import mismatches

    measured, failures, attempted = [], [], 0
    start = time.perf_counter()
    while True:
        if rounds is not None:
            if len(measured) >= rounds:
                break
        elif measured:
            elapsed = time.perf_counter() - start
            # Start another round only if it would end nearer the deadline.
            if elapsed + 0.5 * elapsed / len(measured) >= seconds:
                break
        units = busy = scaled = 0.0
        for index, (work, operation) in enumerate(workload.round()):
            if tracer is not None:
                tracer.op = attempted
            gc.collect()
            t0 = time.perf_counter()
            try:
                result = operation()
                problems = None
            except Exception:  # an operation that raises counts as failed
                problems = [traceback.format_exc(limit=3)]
            spent = time.perf_counter() - t0
            after = probe()
            busy += spent
            scaled += spent * probe.REFERENCE_S / (0.5 * (before + after))
            before = after
            if problems is None:
                try:
                    out = workload.outputs(index, result)
                    problems = workload.invariants(index, out)
                    problems += mismatches(out, reference[index], workload.rel_tol)
                except Exception:  # unreadable outputs fail the operation
                    problems = [traceback.format_exc(limit=3)]
            if problems:
                failures.append(f"op {attempted}: " + "; ".join(problems[:5]))
            else:
                units += work
            attempted += 1
        measured.append((units, busy, scaled))
    return measured, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the trace's spans here (JSON lines)")
    args = parser.parse_args(argv)

    import_package()
    probe = SpeedProbe()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import REFERENCE_SEEDS, WORKLOADS, load_reference

    workload = WORKLOADS[args.workload]()
    input_seed = args.seed % REFERENCE_SEEDS
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        workload.setup(input_seed, args.smoke, workdir)
        print("READY", flush=True)
        setup_probe = probe.steady()
        if args.setup_only:
            print(json.dumps({"setup_probe": setup_probe}), flush=True)
            return 0
        reference = load_reference(workload.name, args.smoke, input_seed)
        rounds, attempted, failures = run_rounds(
            workload, reference, args.seconds, args.rounds, tracer, probe, setup_probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "rounds": rounds,
        "attempted": attempted,
        "failures": failures,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "input_seed": input_seed,
        "setup_probe": setup_probe,
        "env": environment(),
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["transforms_by_layer"] = dict(tracer.transform_layers)
        report["trace_missing"] = tracer.missing
        report["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

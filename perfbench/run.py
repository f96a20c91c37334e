"""Benchmark of the nsmaxwell solver and verifier.

Usage, from the repository root:

    python3 perfbench/run.py --workload simulate-3d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # every workload
    python3 perfbench/run.py --smoke                                # seconds-long self-test

Every process run.py starts is a fresh interpreter running
``worker.py`` with OMP, OpenBLAS and MKL limited to one thread; workloads
run one at a time.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
time from spawning a process to its ``READY`` line (import nsmaxwell, build
the workload's inputs) over several set-ups.  ``throughput`` is the median
over whole rounds of work units per second of operation time, with the
unit of work fixed per workload.  Both are scaled to the machine's speed
measured by ``worker.SpeedProbe`` around each timing, so they read as
seconds on the reference machine; the raw times are in the record.
``peak_rss_mb`` is the peak resident size of the measuring process.

``--trace 1`` runs a fixed number of rounds twice, untraced and traced, and
reports the per-layer metrics of the traced run (raw seconds), the untraced
run's CPU time and the ratio of the two (scaled) throughputs.  The spans
themselves are written to ``.perfbench/spans/``.

Every operation's outputs are compared with the reference recorded for its
inputs; an exception, a nonzero exit code or an output outside tolerance is
a failed operation.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a full record
with the environment goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from metrics import END_TO_END, PER_LAYER
from worker import SpeedProbe
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 4  # set-up only processes, besides the measuring process
TIME_LIMIT = 170.0  # seconds for one invocation, all processes included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def spawn(args: list, deadline: float):
    """Run one worker; returns (seconds from spawn to READY, its report)."""
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - start), proc.kill)
    timer.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            else:
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return ready, (json.loads(last) if last else None)


def tail_percentile(samples: list):
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            return p, cut[round(p * 10) - 1]
    return None


def rate(rounds: list) -> float:
    """Work units per scaled second over all rounds."""
    units = sum(r[0] for r in rounds)
    seconds = sum(r[2] for r in rounds)
    return units / seconds if seconds > 0 else 0.0


def measure(name: str, seed: int, seconds, trace: bool, smoke: bool) -> dict:
    """One benchmark run of one workload; returns the result record."""
    deadline = time.perf_counter() + TIME_LIMIT
    os.makedirs(STATE, exist_ok=True)
    base = ["--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    record = {"workload": name, "seed": seed, "trace": int(trace), "smoke": smoke}
    reports = []
    if not trace:
        setups = [spawn(base + ["--setup-only"], deadline)
                  for _ in range(1 if smoke else SETUP_PROBES)]
        span = ["--rounds", "1"] if smoke else ["--seconds", repr(float(seconds))]
        ready, report = spawn(base + span, deadline)
        setups.append((ready, report))
        reports.append(report)
        scaled_setups = [t * SpeedProbe.REFERENCE_S / r["setup_probe"] for t, r in setups]
        rates = [r[0] / r[2] for r in report["rounds"] if r[2] > 0]
        metrics = {
            "setup_s": statistics.median(scaled_setups),
            "throughput": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": report["maxrss_kb"] / 1024.0,
        }
        units = dict((n, u) for n, u, _ in END_TO_END)
        record["samples"] = {"setup_s": scaled_setups, "throughput": rates}
        record["raw"] = {
            "setup_s": [t for t, _ in setups],
            "setup_probe_s": [r["setup_probe"] for _, r in setups],
            "rounds": report["rounds"],  # units, seconds, scaled seconds
        }
        record["tails"] = {k: tail_percentile(v) for k, v in record["samples"].items()}
    else:
        rounds = str(1 if smoke else WORKLOADS[name].trace_rounds)
        _, plain = spawn(base + ["--rounds", rounds], deadline)
        spans = os.path.join(STATE, "spans", f"{name}-seed{seed}.jsonl")
        _, traced = spawn(base + ["--rounds", rounds, "--trace", "--spans", spans], deadline)
        reports += [plain, traced]
        metrics = dict(traced["layers"])
        metrics["proc.cpu_s"] = plain["cpu_s"]
        plain_rate = rate(plain["rounds"])
        metrics["proc.trace_overhead"] = (rate(traced["rounds"]) / plain_rate
                                          if plain_rate else 0.0)
        units = dict((n, u) for n, u, _ in PER_LAYER)
        record["transforms_by_layer"] = traced["transforms_by_layer"]
        record["trace_missing"] = traced["trace_missing"]
        record["spans"] = traced["spans"]
    attempted = sum(r["attempted"] for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    record.update(
        env=reports[-1]["env"],
        input_seed=reports[-1]["input_seed"],
        failures=failures,
        result={
            "correct": not failures and attempted > 0,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
    )
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    path = os.path.join(STATE, "results", f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def summary(record: dict) -> str:
    env = record["env"]
    res = record["result"]
    lines = [
        f"{record['workload']} seed={record['seed']} (input {record['input_seed']}) "
        f"trace={record['trace']} | python {env['python']} numpy {env['numpy']} "
        f"scipy {env['scipy']} nproc {env['nproc']} cpu {env['cpu_model']!r} "
        f"commit {env['commit']}",
        f"  failed_frac {res['failed'] / res['attempted']:.3g} "
        f"({res['failed']} of {res['attempted']} operations failed)",
    ]
    for key, metric in res["metrics"].items():
        line = f"  {key:<42} {metric['value']:<14.6g} {metric['unit']}"
        samples = record.get("samples", {}).get(key)
        if samples is not None:
            tail = record["tails"][key]
            line += f"  (median of {len(samples)}" + (
                f", p{tail[0]:g} {tail[1]:.6g})" if tail else
                "; no percentile has 10 samples beyond it)")
        lines.append(line)
    raw = record.get("raw")
    if raw:
        rates = [r[0] / r[1] for r in raw["rounds"] if r[1] > 0]
        lines.append(
            f"  unscaled: setup_s {statistics.median(raw['setup_s']):.6g} s, throughput "
            f"{statistics.median(rates) if rates else 0.0:.6g} 1/s, speed probe "
            f"{statistics.median(raw['setup_probe_s']):.4g} s "
            f"(reference {SpeedProbe.REFERENCE_S:g} s)")
    lines += [f"  FAILED {f.strip()}" for f in record["failures"]]
    return "\n".join(lines)


def check_benchmark_json() -> list:
    """Differences between BENCHMARK.json and this benchmark's metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if theirs != list(ours):
            problems.append(f"{key} in BENCHMARK.json differs from metrics.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from workloads.py")
    return problems


def smoke() -> int:
    problems = check_benchmark_json()
    for name in WORKLOADS:
        for trace in (False, True):
            record = measure(name, 0, None, trace, smoke=True)
            print(summary(record))
            res = record["result"]
            if not res["correct"]:
                problems.append(f"{name} trace={int(trace)}: outputs not correct")
            if trace and record["trace_missing"]:
                problems.append(f"{name}: trace targets missing {record['trace_missing']}")
    for p in problems:
        print("SMOKE FAIL:", p)
    print("smoke:", "ok" if not problems else "FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size, untraced and traced")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nsmaxwell", "__init__.py")):
        print(f"perfbench: no nsmaxwell sources under {ROOT}/src", file=sys.stderr)
        return 1
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace), smoke=False)
            print(summary(record), flush=True)
            results[name] = record["result"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

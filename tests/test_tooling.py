"""The benchmark's span tracer (perfbench/tracing.py) wraps functions of the
package by name; a rename must fail here, not only in a benchmark run."""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_trace_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    missing = []
    for _, module, path in tracing.TARGETS:
        owner = importlib.import_module(f"nsmaxwell.{module}")
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"nsmaxwell.{module}.{path}")
    assert tracing.TARGETS and not missing

"""Span tracer that wraps nsmaxwell's public functions from outside.

Every target is wrapped under each module attribute bound to it, because
modules import names from one another (``system`` and ``checks`` bind
``grid.pointwise_product`` directly, ``latticeblocks`` binds
``dyadic.phi_profile``).  Methods are wrapped on their class, keeping the
descriptor kind (plain, classmethod or cached_property), so caching the
grid geometry in cached properties still traces.

Spans stay in memory as tuples and are written when the run ends.  A span's
self time is its duration minus the durations of its direct children.

Transforms: every n-D forward and inverse FFT from ``numpy.fft`` or
``scipy.fft`` is one ``grid.transform`` span, whatever library the program
uses, so a move from one to the other changes the count but not its meaning.
Transforms running inside a ``latticeblocks`` span (the FFT convolutions of
the lattice route) are not grid transforms: they pass through untraced and
stay in the self time of the lattice span.  ``bytes`` is computed from array
sizes (input plus output), not measured traffic.

Profiles: ``phi_profile`` calls ``chi_profile``, which calls ``smooth_step``;
only the outermost profile call is a span, and its ``points`` is the number
of elements it was asked to evaluate.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

from metrics import LAYER_SPANS

TRANSFORMS = ("fftn", "ifftn", "rfftn", "irfftn", "fft2", "ifft2", "rfft2", "irfft2")

# (span name, module, attribute path inside the module)
TARGETS = (
    ("grid.pointwise_product", "grid", "pointwise_product"),
    ("grid.leray_project", "grid", "leray_project"),
    ("grid.lp_norm_physical", "grid", "lp_norm_physical"),
    ("grid.geometry", "grid", "Grid.wavevectors"),
    ("grid.geometry", "grid", "Grid.k_squared"),
    ("grid.geometry", "grid", "Grid.k_magnitude"),
    ("grid.geometry", "grid", "Grid.dealias_mask"),
    ("grid.geometry", "grid", "Grid.nyquist_mask"),
    ("propagators.table_build", "propagators", "PropagatorTable.build"),
    ("propagators.apply", "propagators", "PropagatorTable.apply"),
    ("propagators.apply", "propagators", "PropagatorTable.apply_heat"),
    ("propagators.apply", "propagators", "PropagatorTable.apply_maxwell"),
    ("propagators.duhamel_step", "propagators", "duhamel_step"),
    ("system.nonlinearity", "system", "nonlinearity"),
    ("system.energy_report", "system", "energy_report"),
    ("system.divergence_defect", "system", "MhdState.divergence_defect"),
    ("system.z_norm", "system", "z_norm"),
    ("dyadic.build_partition", "dyadic", "build_partition"),
    ("dyadic.block_l2", "dyadic", "_block_l2"),
    ("dyadic.shell_series", "dyadic", "shell_series"),
    ("dyadic.profile", "dyadic", "phi_profile"),
    ("dyadic.profile", "dyadic", "chi_profile"),
    ("dyadic.profile", "dyadic", "smooth_step"),
    ("latticeblocks.block_convolve", "latticeblocks", "block_convolve"),
    ("latticeblocks.bony_paraproducts", "latticeblocks", "bony_paraproducts"),
    ("latticeblocks.remainder_cluster_stats", "latticeblocks", "remainder_cluster_stats"),
    ("latticeblocks.shell_norms", "latticeblocks", "shell_norms"),
    ("checks.check_maxwell_energy_decay", "checks", "check_maxwell_energy_decay"),
    ("checks.check_l2linfty", "checks", "check_l2linfty"),
    ("checks.heat_forced_coeffs", "checks", "heat_forced_coeffs"),
    ("checks.log_criticality_experiment", "checks", "log_criticality_experiment"),
    ("snapshots.write_snapshot", "snapshots", "write_snapshot"),
)

PROFILE = "dyadic.profile"
TRANSFORM = "grid.transform"


def _profile_points(args, kwargs, result):
    return int(np.size(args[0] if args else next(iter(kwargs.values()))))


def _transform_bytes(args, kwargs, result):
    source = args[0] if args else kwargs.get("x")
    return int(getattr(source, "nbytes", 0)) + int(getattr(result, "nbytes", 0))


def _convolve_points(args, kwargs, result):
    return int(result.values.size)


def _snapshot_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


_SIZE_OF = {
    PROFILE: _profile_points,
    TRANSFORM: _transform_bytes,
    "latticeblocks.block_convolve": _convolve_points,
    "snapshots.write_snapshot": _snapshot_bytes,
}


class Tracer:
    """Collects spans; ``op`` is the id of the operation now running
    (-1 during set-up) and is stored with every span."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, op, start, end)
        self.stack = []  # open spans: [id, name, child seconds]
        self.totals = defaultdict(lambda: [0, 0.0, 0])  # calls, self_s, size
        self.transform_layers = defaultdict(int)  # innermost layer -> count
        self.lattice_depth = 0
        self.op = -1
        self.missing = []
        self._next_id = 0

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn):
        size_of = _SIZE_OF.get(name)
        lattice = name.startswith("latticeblocks.")
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == TRANSFORM and self.lattice_depth:
                return fn(*args, **kwargs)
            if name == PROFILE and stack and stack[-1][1] == PROFILE:
                return fn(*args, **kwargs)  # phi -> chi -> smooth_step
            parent = stack[-1] if stack else None
            if name == TRANSFORM:
                layer = parent[1].split(".", 1)[0] if parent else "none"
                self.transform_layers[layer] += 1
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            self.lattice_depth += lattice
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.lattice_depth -= lattice
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                total = self.totals[name]
                total[0] += 1
                total[1] += duration - frame[2]
                self.spans.append((span_id, parent[0] if parent else None,
                                   name, self.op, start, end))
            if size_of is not None:
                total[2] += size_of(args, kwargs, result)
            return result

        return traced

    def _rebind(self, modules, old, new):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is old:
                    setattr(module, key, new)

    def install(self):
        """Wrap every target and every FFT entry point in this process."""
        import numpy.fft
        import scipy.fft

        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "nsmaxwell" or key.startswith("nsmaxwell."))]
        for lib in (numpy.fft, scipy.fft):
            for attr in TRANSFORMS:
                old = getattr(lib, attr, None)
                if old is None:
                    continue
                new = self._wrap(TRANSFORM, old)
                setattr(lib, attr, new)
                self._rebind(modules, old, new)
        for name, module_name, path in TARGETS:
            owner = sys.modules.get("nsmaxwell." + module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"nsmaxwell.{module_name}.{path}")
                continue
            if isinstance(owner, type):
                setattr(owner, attr, self._wrap_descriptor(name, raw, owner, attr))
            else:
                self._rebind(modules, raw, self._wrap(name, raw))
        if self.missing:
            print("perfbench: trace targets not found: " + ", ".join(self.missing),
                  file=sys.stderr)

    def _wrap_descriptor(self, name, raw, owner, attr):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(name, raw.__func__))
        if isinstance(raw, functools.cached_property):
            wrapped = functools.cached_property(self._wrap(name, raw.func))
            wrapped.__set_name__(owner, attr)
            return wrapped
        return self._wrap(name, raw)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        out = {}
        for span, fields in LAYER_SPANS:
            calls, self_s, size = self.totals.get(span, (0, 0.0, 0))
            for fld in fields:
                out[f"{span}.{fld}"] = (calls if fld == "calls"
                                        else self_s if fld == "self_s" else size)
        return out

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

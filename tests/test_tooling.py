"""The benchmark's span tracer (perfbench/tracing.py) wraps functions of the
package by name, and the scripts in scripts/ call the package's public API;
a rename must fail here, not only in a benchmark or script run.  Every run
pays the package's import, so its import graph is checked here too, every
defaulted parameter of the package must have a caller that sets it, every
public function that only tests call is registered with what it checks, and
no function but two takes the dyadic partition that its data's grid holds.
Each module's ``__all__`` names exactly its public functions and classes,
and the package root re-exports none of them: it only loads the modules."""

import ast
import csv
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import nsmaxwell

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SCRIPTS = os.path.join(ROOT, "scripts")

# Arguments small enough that each run takes a few seconds at most.
SCRIPT_ARGS = {
    "contraction_map.py": ["--n", "16", "--epsilons", "0.01", "--windows", "0.1",
                           "--dt", "0.05", "--iters", "2"],
    "criticality_sweep.py": ["--q-min", "2", "--q-max", "3"],
    "maxwell_decay_sweep.py": ["--n", "16", "--count", "1", "--windows", "1.0"],
    "product_law_sweep.py": ["--estimates", "est4-2D", "--windows", "1.0",
                             "--count", "1", "--n", "16"],
}


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


def test_import_alone_loads_every_traced_module(monkeypatch):
    # The benchmark's worker installs its tracer right after ``import
    # nsmaxwell``; a traced module that the root does not load is missed.
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nsmaxwell.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run(
        [sys.executable, "-c", "import sys, nsmaxwell; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    traced = {f"nsmaxwell.{module}" for _, module, _ in tracing.TARGETS}
    assert sorted(traced - set(run.stdout.split())) == []


def test_all_lists_exactly_the_public_functions_and_classes():
    mismatched = {}
    for path, tree in _python_files(os.path.join("src", "nsmaxwell")):
        module = os.path.basename(path)[:-3]
        public = sorted(node.name for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_"))
        name = "nsmaxwell" if module == "__init__" else f"nsmaxwell.{module}"
        listed = sorted(getattr(importlib.import_module(name), "__all__", []))
        if listed != public:
            mismatched[module] = (listed, public)
    assert mismatched == {}
    # The root defines no public name of its own.
    assert [name for name, value in vars(nsmaxwell).items()
            if not name.startswith("_") and not inspect.ismodule(value)] == []


# Signatures fixed by a protocol, not by this package's callers.
UNSET_PARAMETER_ALLOWLIST = {"cli._one_line_warning(line)"}


def _python_files(*dirs):
    for top in dirs:
        for folder, _, names in os.walk(os.path.join(ROOT, top)):
            for name in sorted(names):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    with open(path) as fh:
                        yield path, ast.parse(fh.read())


def _sets(call, names, shift, param, index, default) -> bool:
    """Whether ``call`` may set ``param`` (at positional ``index``, or None
    when keyword-only) of a function called by one of ``names`` to other
    than its ``default``; a ``*args`` or ``**kwargs`` call sets everything."""
    func = call.func
    if (getattr(func, "id", None) or getattr(func, "attr", None)) not in names:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return True
    value = next((k.value for k in call.keywords if k.arg == param), None)
    if value is None and index is not None and shift + len(call.args) > index:
        value = call.args[index - shift]
    return value is not None and ast.dump(value) != ast.dump(default)


def test_every_defaulted_parameter_is_set_by_a_caller():
    # A parameter that every call leaves at its default, or passes its
    # default literal, is a constant in disguise.  Calls are matched by the
    # called name alone, so a method call counts for every method of that
    # name; the class name counts as a call of its __init__.
    calls = [node for _, tree in _python_files("src", "tests", "scripts", "perfbench")
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unset = []
    for path, tree in _python_files(os.path.join("src", "nsmaxwell")):
        module = os.path.basename(path)[:-3]
        owners = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                  for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owners.get(id(fn))
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            shift = 1 if cls is not None and not static else 0
            names = {fn.name} | ({cls.name} if fn.name == "__init__" else set())
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = [(p.arg, i, d) for i, (p, d) in
                      enumerate(zip(positional[first:], args.defaults), first)]
            params += [(p.arg, None, d) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            qualname = f"{module}.{cls.name + '.' if cls else ''}{fn.name}"
            unset += [f"{qualname}({param})" for param, index, default in params
                      if not any(_sets(c, names, shift, param, index, default)
                                 for c in calls)]
    assert sorted(set(unset) - UNSET_PARAMETER_ALLOWLIST) == []


# The benchmark's checks-linear workload (perfbench/workloads.py) passes
# these two a partition; they check it against the data's grid.
PART_PARAMETER_ALLOWLIST = {"checks.check_l2linfty", "checks.check_maxwell_energy_decay"}


def test_partition_comes_from_the_grid():
    # Each grid builds its partition once (dyadic.build_partition), so a
    # function reads it from its data's grid and takes no ``part``.
    taking = []
    for path, tree in _python_files(os.path.join("src", "nsmaxwell")):
        module = os.path.basename(path)[:-3]
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = fn.args
                if "part" in {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}:
                    taking.append(f"{module}.{fn.name}")
    assert sorted(set(taking) - PART_PARAMETER_ALLOWLIST) == []


# Public functions and methods of the package that nothing in src/,
# scripts/ or perfbench/ calls, each with the production route it checks or
# the acceptance criterion it serves.  The benchmark's tracer names two of
# them (perfbench/tracing.py), which wraps but does not call them.
TEST_ONLY_REGISTRY = {
    "checks.heat_forced_coeffs": "checks._heat_forced against the ODE oracle "
                                 "(criterion 9's route); a benchmark trace target",
    "grid.divergence": "leray_project and ensembles.gen_field: divergence-free output",
    "grid.gradient_component": "system.nonlinearity's advection: the advection-form "
                               "and divergence-form references of test_system",
    "grid.SpectralField.to_physical": "grid._half_physical, the kernel's inverse transform",
    "grid.SpectralField.hermitian_defect": "the half-spectrum layout: nonlinearity, "
                                           "PropagatorTable.apply and march keep fields real",
    "latticeblocks.real_product_blocks": "remainder_cluster_stats",
    "latticeblocks.lowpass_blocks": "remainder_cluster_stats",
    "latticeblocks.packet_pair": "the lattice route checked against the grid route",
    "latticeblocks.blocks_to_grid_field": "the lattice route checked against the grid route",
    "propagators.phi_shell": "criterion 2",
    "propagators.heat_apply": "PropagatorTable.apply and the Picard map's trapezoid "
                              "(the heat factor in closed form)",
    "propagators.maxwell_apply": "criterion 1",
    "propagators.maxwell_wave_route": "criterion 1",
    "propagators.maxwell_apply_undamped": "propagators._maxwell_modes, the transverse "
                                          "rotation of PropagatorTable",
    "system.picard_solution": "criterion 5",
    "system.MhdState.divergence_defect": "system._divergence_defects, the gate of "
                                         "nonlinearity; a benchmark trace target",
}


def _referenced_names(tree):
    """(name, enclosing function nodes) for every name and attribute in
    ``tree``; a name imported under another (``import a as b``) also counts
    as its own."""
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for a in node.names if a.asname}
    out = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing + (node,)
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)):
            out.append((aliases.get(name, name), enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, ())
    return out


def test_every_test_only_public_function_is_registered():
    # Matched by name alone, as in the defaulted-parameter test: a method
    # call or attribute read counts for every function of that name.  A use
    # inside the function's own body is no caller.
    refs = [r for _, tree in _python_files("src", "scripts", "perfbench")
            for r in _referenced_names(tree)]
    found = []
    for path, tree in _python_files(os.path.join("src", "nsmaxwell")):
        module = os.path.basename(path)[:-3]
        owners = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                  for f in c.body}
        for fn in ast.walk(tree):
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not fn.name.startswith("_")
                    and not any(name == fn.name and fn not in enclosing
                                for name, enclosing in refs)):
                cls = owners.get(id(fn))
                found.append(f"{module}.{cls.name + '.' if cls else ''}{fn.name}")
    unlisted = sorted(set(found) - set(TEST_ONLY_REGISTRY))
    stale = sorted(set(TEST_ONLY_REGISTRY) - set(found))
    assert (unlisted, stale) == ([], [])


def test_import_loads_no_heavy_scipy_subpackage():
    # The package needs numpy and scipy.fft only; scipy.signal alone would
    # pull in the rest of this list and most of the import time and memory
    # of every nsmw run.
    heavy = ["scipy." + name for name in ("signal", "integrate", "interpolate", "linalg",
                                          "ndimage", "optimize", "sparse", "spatial",
                                          "stats")]
    src = os.path.dirname(os.path.dirname(os.path.abspath(nsmaxwell.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, nsmaxwell, nsmaxwell.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert sorted(set(run.stdout.split()) & set(heavy)) == []


def test_every_script_has_smoke_arguments():
    assert sorted(f for f in os.listdir(SCRIPTS) if f.endswith(".py")) == sorted(SCRIPT_ARGS)


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], os.path.join(SCRIPTS, name))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("name", sorted(SCRIPT_ARGS))
def test_script_main_runs(name, tmp_path):
    script = _load_script(name)
    out = tmp_path / "out.csv"
    assert script.main(SCRIPT_ARGS[name] + ["--out", str(out)]) == 0
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert rows and all(len(row) == len(header) for row in rows)


def test_criticality_sweep_of_one_shell_fits_no_exponent(tmp_path, capsys):
    script = _load_script("criticality_sweep.py")
    out = tmp_path / "one.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert script.main(["--q-min", "3", "--q-max", "3", "--out", str(out)]) == 0
    assert not [w for w in caught if issubclass(w.category, np.exceptions.RankWarning)]
    with open(out, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(rows) == 1 and rows[0][0] == "3" and len(rows[0]) == len(header)
    assert "unweighted growth exponent: not fitted (one shell)" in capsys.readouterr().err


def test_contraction_map_reports_its_cost(tmp_path, capsys):
    script = _load_script("contraction_map.py")
    out = tmp_path / "map.csv"
    assert script.main(SCRIPT_ARGS["contraction_map.py"] + ["--out", str(out)]) == 0
    assert re.search(r"contraction map: [0-9.]+ s, peak RSS [0-9.]+ MB",
                     capsys.readouterr().err)


@pytest.mark.parametrize("seed", [0, 5])
def test_picard_workload_meets_its_contract(seed, monkeypatch, tmp_path):
    # The picard-2d workload counts the ratios at index 1 of what
    # picard_iterate returns; a change to that layout must fail here.
    # Seed 5's smoke reference sits closest to the 1e-8 tolerance (its
    # eps = 0.01 ratio deviates by about 4e-9), so a kernel change that
    # uses up the margin fails here too.
    import nsmaxwell.cli as cli

    monkeypatch.setattr(cli, "picard_iterate", cli.picard_iterate)  # setup rebinds it
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    workload = workloads.PicardWorkload()
    workload.setup(seed, True, str(tmp_path))
    [(_, operation)] = workload.round()
    out = workload.outputs(0, operation())
    assert workload.invariants(0, out) == []
    assert out["ratio_counts"] == [2, 2, 2]
    reference = workloads.load_reference(workload.name, True, seed)[0]
    assert workloads.mismatches(out, reference, workload.rel_tol) == []


@pytest.mark.parametrize("seed", range(4))
def test_simulate_workload_meets_its_contract(seed, monkeypatch, tmp_path):
    # The simulate-3d workload's diagnostics must stay within its tolerance
    # of the recorded references; a kernel change that moves them fails here.
    monkeypatch.syspath_prepend(PERFBENCH)
    workloads = importlib.import_module("workloads")
    workload = workloads.SimulateWorkload()
    workload.setup(seed, True, str(tmp_path))
    [(_, operation)] = workload.round()
    out = workload.outputs(0, operation())
    assert workload.invariants(0, out) == []
    reference = workloads.load_reference(workload.name, True, seed)[0]
    assert workloads.mismatches(out, reference, workload.rel_tol) == []

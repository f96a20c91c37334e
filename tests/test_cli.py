import filecmp
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import nsmaxwell
from nsmaxwell import system
from nsmaxwell.cli import DIAG_COLUMNS, build_initial_state, main
from nsmaxwell.config import NORM_COLUMNS, parse_config
from nsmaxwell.grid import Grid, SpectralField, lp_norm_physical
from nsmaxwell.snapshots import read_snapshot, write_snapshot


def _write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASE = "n = 16\nT = 0.1\ndt = 0.01\namplitude = 0.5\n"


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_config_reports_every_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "d = 7\nn = 33\nscheme = rk4\n")
    assert main(["simulate", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("config error:") == 3


def test_bad_stride_flag(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, BASE)
    assert main(["simulate", cfg, "--stride", "0"]) == 2
    assert "--stride" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["simulate", "run.cfg", "--seed", "-1"], "--seed: must be nonnegative, got -1"),
    (["simulate", "run.cfg", "--out-dir", ""], "--out-dir: must not be empty"),
    (["simulate", "run.cfg", "--out-dir", "blocker/out"], "--out-dir: cannot create "),
    (["simulate", "run.cfg", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["simulate", "run.cfg", "--stride", "x"], "argument --stride: invalid int value: 'x'"),
    (["frobnicate", "run.cfg"], "argument command: invalid choice: 'frobnicate'"),
    (["simulate"], "the following arguments are required: config"),
    (["simulate", "run.cfg", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
], ids=["negative_seed", "empty_out_dir", "out_dir_under_file", "non_integer_seed",
        "non_integer_stride", "unknown_command", "missing_config_path", "unknown_flag"])
def test_bad_flag_exits_2_with_one_line(tmp_path, capsys, monkeypatch, args, message):
    # The flags obey the rules of the file's keys; an out-dir below a
    # regular file cannot be created; a command line that argparse rejects
    # is one line, not a usage block.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocker").write_text("a regular file\n")
    _write_cfg(tmp_path, BASE + "init = random\n")
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: " + message), err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: nsmw")


@pytest.mark.parametrize("flags, code, stderr", [
    ([], 0, []),
    (["--seed", "abc"], 2, ["config error: argument --seed: invalid int value: 'abc'"]),
], ids=["clean_run", "bad_flag"])
def test_module_entry_point_stderr(tmp_path, flags, code, stderr):
    # ``python -m nsmaxwell.cli`` in a fresh interpreter with default warning
    # filters: no runpy warning, nothing on stderr for a clean run.
    cfg = _write_cfg(tmp_path, BASE)
    src = os.path.dirname(os.path.dirname(os.path.abspath(nsmaxwell.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run(
        [sys.executable, "-m", "nsmaxwell.cli", "simulate", cfg,
         "--out-dir", str(tmp_path / "out")] + flags,
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == code
    assert run.stderr.splitlines() == stderr


def test_simulate_taylor_green_monotone_energy(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, BASE + "norms = v_l2\n")
    assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "time,energy,grad_v_sq,j_sq,v_l2"
    rows = [list(map(float, l.split(","))) for l in lines[1:]]
    energies = [r[1] for r in rows]
    assert all(a > b for a, b in zip(energies, energies[1:]))
    # stride-10 snapshots: indices 0 and 10 for an 11-state trajectory
    assert (out / "snap_000000_v.nsmw").exists()
    assert (out / "snap_000010_v.nsmw").exists()
    assert not (out / "snap_000005_v.nsmw").exists()


def test_simulate_deterministic_outputs(tmp_path):
    cfg = _write_cfg(tmp_path, BASE + "init = random\nslope = 1.0\nseed = 4\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", cfg, "--out-dir", str(out1)]) == 0
    assert main(["simulate", cfg, "--out-dir", str(out2)]) == 0
    for name in os.listdir(out1):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False), name


def test_simulate_blowup_streams_partial_outputs(tmp_path, capsys, monkeypatch):
    # Amplitude 1e8 turns non-finite in step 2.  The states before it are
    # written as they arrive, and the integration is not run a second time.
    calls = []
    step = system.duhamel_step

    def counted(*args, **kwargs):
        calls.append(kwargs.get("step_index"))
        return step(*args, **kwargs)

    monkeypatch.setattr(system, "duhamel_step", counted)
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "d = 2\nn = 16\nT = 0.1\ndt = 0.01\ninit = random\nslope = 1\n"
        "seed = 3\namplitude = 1e8\nstride = 2\n",
    )
    with np.errstate(all="ignore"), pytest.warns(UserWarning, match="grid spacing"):
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [l for l in err if "blowup" in l] == ["blowup at step 2"]
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "time,energy,grad_v_sq,j_sq"
    assert [float(l.split(",")[0]) for l in lines[1:-1]] == [0.0, 0.01, 0.02]
    assert lines[-1] == "# truncated: blowup at step 2 (t = 0.02)"
    snaps = sorted(os.listdir(out))
    assert snaps == ["diagnostics.csv"] + [
        f"snap_{i:06d}_{f}.nsmw" for i in (0, 2) for f in ("B", "E", "v")
    ]
    assert calls == [0, 1, 2]


def test_restarted_blowup_records_the_time_of_its_last_row(tmp_path, capsys):
    # A run from snapshots at t0 = 3 counts its times from t0; the
    # truncation record carries the time of the last row, from which the
    # failed step starts, not the step count times dt.
    blowup = "d = 2\nn = 16\nT = 0.1\ndt = 0.01\nslope = 1\nseed = 3\namplitude = 1e8\n"
    state = build_initial_state(parse_config(blowup + "init = random\n"))
    stem = str(tmp_path / "restart")
    for name, fld in (("v", state.v), ("E", state.E), ("B", state.B)):
        write_snapshot(f"{stem}_{name}.nsmw", fld, time=3.0)
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, blowup + f"init = file\ninit_file = {stem}\n")
    with np.errstate(all="ignore"), pytest.warns(UserWarning, match="grid spacing"):
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 1
    assert "blowup at step 2" in capsys.readouterr().err
    lines = (out / "diagnostics.csv").read_text().splitlines()
    times = [3.0, 3.0 + 0.01, 3.0 + 0.01 + 0.01]
    assert [l.split(",")[0] for l in lines[1:-1]] == [repr(t) for t in times]
    assert lines[-1] == f"# truncated: blowup at step 2 (t = {times[-1]!r})"


def test_simulate_rows_are_energy_reports_of_march(tmp_path):
    # One diagnostics route: each row of diagnostics.csv is the state's time
    # and energy_report on the (state, current) pair that march yields.
    text = "d = 2\nn = 16\nT = 0.05\ndt = 0.01\ninit = random\nslope = 1\nseed = 6\n"
    out = tmp_path / "out"
    assert main(["simulate", _write_cfg(tmp_path, text), "--out-dir", str(out)]) == 0
    cfg = parse_config(text)
    want = [",".join(map(repr, (state.time, *system.energy_report(state, current))))
            for state, current in system.march(build_initial_state(cfg), cfg.T, cfg.dt)]
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(want) == 6 and lines[1:] == want


def test_norms_blowup_writes_truncated_csv(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "d = 2\nn = 16\nT = 0.1\ndt = 0.01\ninit = random\nslope = 1\n"
        "seed = 3\namplitude = 1e8\nnorms = v_l2\n",
    )
    with np.errstate(all="ignore"), pytest.warns(UserWarning):
        assert main(["norms", cfg, "--out-dir", str(out)]) == 1
    assert "blowup at step 2" in capsys.readouterr().err
    lines = (out / "norms.csv").read_text().splitlines()
    assert lines[0] == "time,energy,grad_v_sq,j_sq,v_l2"
    assert len(lines) == 5 and lines[-1].startswith("# truncated: blowup at step 2")
    assert sorted(os.listdir(out)) == ["norms.csv"]


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write_cfg(tmp_path, BASE + "init = random\nseed = 4\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", cfg, "--out-dir", str(out1)]) == 0
    assert main(["simulate", cfg, "--out-dir", str(out2), "--seed", "5"]) == 0
    a, _ = read_snapshot(out1 / "snap_000000_v.nsmw")
    b, _ = read_snapshot(out2 / "snap_000000_v.nsmw")
    assert not np.array_equal(a.coeffs, b.coeffs)


def test_picard_ratios_increase_with_epsilon(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "n = 16\nT = 0.2\ndt = 0.02\ninit = random\nslope = 2.0\nseed = 1\n"
        "amplitude = 0.05\npicard_iters = 3\nepsilons = 0.1, 1.0, 10.0\n",
    )
    assert main(["picard", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "picard.csv").read_text().splitlines()
    assert lines[0] == "epsilon,max_contraction_ratio"
    ratios = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(ratios) == 3
    assert ratios[0] < ratios[1] < ratios[2]


def test_picard_divergence_exits_1(tmp_path, capsys):
    # At epsilon = 1e150 the first iterate difference overflows: the run
    # reports an infinite ratio and blowup, not the 0.0 of zero data.
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "n = 16\nT = 0.1\ninit = random\nslope = 2\npicard_iters = 3\n"
        "epsilons = 1, 1e150\n",
    )
    with np.errstate(all="ignore"):
        assert main(["picard", cfg, "--out-dir", str(out)]) == 1
    assert "blowup" in capsys.readouterr().err
    lines = (out / "picard.csv").read_text().splitlines()
    assert lines[0] == "epsilon,max_contraction_ratio"
    rows = [l.split(",") for l in lines[1:]]
    assert [float(eps) for eps, _ in rows] == [1.0, 1e150]
    assert 0.0 < float(rows[0][1]) < 1.0
    assert rows[1][1] == "inf"


def test_picard_divergence_writes_one_stderr_line(tmp_path):
    # A fresh interpreter with default warning filters, as the nsmw entry
    # point runs: the overflow of the 1e150 run must not reach stderr.
    cfg = _write_cfg(
        tmp_path,
        "n = 16\nT = 0.1\ninit = random\nslope = 2\npicard_iters = 3\n"
        "epsilons = 1, 1e150\n",
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(nsmaxwell.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys; from nsmaxwell.cli import main; sys.exit(main(sys.argv[1:]))",
         "picard", cfg, "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 1
    assert run.stderr.splitlines() == [
        "blowup: Picard iteration diverged at epsilon = 1e+150"
    ]


def test_cfl_warning_writes_one_stderr_line(tmp_path):
    # A fresh interpreter, as the nsmw entry point runs: the advisory CFL
    # warning of the amplitude-1e8 run is one line, then the blowup line.
    cfg = _write_cfg(
        tmp_path,
        "d = 2\nn = 16\nT = 0.1\ndt = 0.01\ninit = random\nslope = 1\n"
        "seed = 3\namplitude = 1e8\n",
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(nsmaxwell.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys; from nsmaxwell.cli import main; sys.exit(main(sys.argv[1:]))",
         "simulate", cfg, "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert run.returncode == 1
    warning, blowup = run.stderr.splitlines()
    assert re.fullmatch(r"warning: dt \* max\|v\| = \S+ exceeds grid spacing \S+",
                        warning), warning
    assert blowup == "blowup at step 2"


def test_time_grid_mismatch_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "n = 16\nT = 0.105\ndt = 0.01\n")
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: line 3: dt:")
    assert "integer multiple" in err[0]


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "n = 16\nT = 0.1\ndt = 0.01\namplitude = nan\n")
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: line 4: amplitude: cannot parse 'nan' as a finite float"]


@pytest.mark.parametrize("command, line, message", [
    ("verify", "estimates =", "estimates: must not be empty"),
    ("verify", "estimates = est4-2D, est4-2D", "estimates: repeated entry 'est4-2D'"),
    ("picard", "epsilons = 0.1, 0.1", "epsilons: repeated entry 0.1"),
    ("norms", "norms = v_l2, v_l2", "norms: repeated entry 'v_l2'"),
], ids=["empty_estimates", "repeated_estimate", "repeated_epsilon", "repeated_norm"])
def test_empty_or_repeated_list_exits_2(tmp_path, capsys, command, line, message):
    # An empty estimates list wrote a summary of only its header line, and
    # a repeated norm two CSV columns of one name; neither writes anything now.
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, BASE + line + "\n")
    assert main([command, cfg, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: line 5: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("defect", ["missing", "truncated", "cut_payload", "bad_dimension",
                                    "mixed_grids", "config_grid_mismatch", "nan_box_length",
                                    "nan_time"])
def test_unreadable_init_file_exits_2(tmp_path, capsys, defect):
    stem = str(tmp_path / "ic")
    for name in ("v", "E", "B"):
        path = tmp_path / f"ic_{name}.nsmw"
        if defect == "truncated":
            path.write_bytes(b"NSMW")
        elif defect == "mixed_grids":  # E on a finer grid than v and B
            write_snapshot(path, SpectralField.zeros(Grid(2, 32 if name == "E" else 16)))
        elif defect == "config_grid_mismatch":  # all 2D n = 32; the config says 3D n = 16
            write_snapshot(path, SpectralField.zeros(Grid(2, 32)))
        elif defect != "missing":
            write_snapshot(path, SpectralField.zeros(Grid(2, 16)))
            raw = path.read_bytes()
            if defect == "cut_payload":  # ends in the middle of an element
                path.write_bytes(raw[:-5])
            elif defect == "nan_box_length":  # the header's L, then its time
                path.write_bytes(raw[:16] + struct.pack("<d", np.nan) + raw[24:])
            elif defect == "nan_time":
                path.write_bytes(raw[:24] + struct.pack("<d", np.nan) + raw[32:])
            else:  # the header's d = 5 names no grid
                path.write_bytes(raw[:8] + (5).to_bytes(4, "little") + raw[12:])
    d = 3 if defect == "config_grid_mismatch" else 2
    cfg = _write_cfg(tmp_path, f"d = {d}\nn = 16\nT = 0.1\ninit = file\ninit_file = {stem}\n")
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: init_file:")
    if defect == "config_grid_mismatch":
        assert "Grid(d=2, n=32" in err[0] and "Grid(d=3, n=16" in err[0]
    if defect.startswith("nan_"):
        assert err[0].startswith("config error: init_file: bad snapshot header:")


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    # A UTF-16 file starts with the bytes ff fe, which are no UTF-8 text.
    path = tmp_path / "x.cfg"
    path.write_bytes("n = 16\n".encode("utf-16"))
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: {path}: not UTF-8 text (invalid start byte at byte 0)"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, name, flag", [
    ("simulate", "diagnostics.csv", True),
    ("simulate", "snap_000000_v.nsmw", True),
    ("picard", "picard.csv", False),
], ids=["simulate_csv", "simulate_snapshot", "picard_csv"])
def test_unwritable_output_exits_2(tmp_path, capsys, command, name, flag):
    # A directory where an output file goes: one line that names the file,
    # not a traceback with exit code 1, which means numerical blowup.
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    text = BASE + "init = random\npicard_iters = 2\nepsilons = 0.1\n"
    if flag:
        args = ["--out-dir", str(out)]
    else:
        args, text = [], text + f"out_dir = {out}\n"
    assert main([command, _write_cfg(tmp_path, text)] + args) == 2
    err = capsys.readouterr().err.splitlines()
    key = "--out-dir" if flag else "out_dir"
    assert len(err) == 1, err
    assert err[0].startswith(f"config error: {key}: cannot write {str(out / name)!r}: "), err


def test_unwritable_snapshot_truncates_the_csv(tmp_path, capsys):
    # A snapshot that cannot be written in the middle of a run ends the CSV
    # with a record of where the outputs stop, and the run still exits 2.
    out = tmp_path / "out"
    bad = out / "snap_000010_v.nsmw"
    bad.mkdir(parents=True)
    text = BASE + "d = 2\ninit = random\nstride = 1\n"
    assert main(["simulate", _write_cfg(tmp_path, text), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"config error: --out-dir: cannot write {str(bad)!r}: "), err
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(lines) == 13  # the header, rows 0 ... 10 and the record
    time = lines[-2].split(",")[0]
    assert lines[-1] == f"# truncated: cannot write {str(bad)!r} at step 10 (t = {time})"
    assert not (out / "snap_000010_E.nsmw").exists()


def test_picard_zero_data_reads_zero(tmp_path):
    stem = str(tmp_path / "zero")
    zero = SpectralField.zeros(Grid(2, 16))
    for name in ("v", "E", "B"):
        write_snapshot(f"{stem}_{name}.nsmw", zero, time=0.0)
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        f"n = 16\nT = 0.1\ninit = file\ninit_file = {stem}\npicard_iters = 3\n"
        "epsilons = 1\n",
    )
    assert main(["picard", cfg, "--out-dir", str(out)]) == 0
    assert (out / "picard.csv").read_text().splitlines()[1] == "1.0,0.0"


def test_grid_below_minimum_size_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "n = 4\n")
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error:") and ">= 8" in err[0]


def test_single_picard_iteration_exits_2(tmp_path, capsys):
    # One iteration yields no contraction ratio; picard_iterate needs two.
    cfg = _write_cfg(tmp_path, "n = 16\nT = 0.1\npicard_iters = 1\n")
    assert main(["picard", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: line 3: picard_iters:")


def test_shell_outside_partition_exits_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "n = 16\nT = 0.1\ninit = shell\nshell = 9\n")
    assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: shell:") and "9" in err[0]


def test_split_json_payload(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "n = 32\ninit = random\nslope = 2.0\nseed = 2\ndelta_target = 0.5\n",
    )
    assert main(["split", cfg, "--out-dir", str(out)]) == 0
    payload = json.loads((out / "split.json").read_text())
    assert set(payload) == {
        "cutoff_shell",
        "delta_target",
        "achieved_tail_norm",
        "reached_target",
        "regular_energy",
        "tail_energy",
    }
    assert payload["delta_target"] == 0.5
    assert payload["achieved_tail_norm"] >= 0.0
    assert payload["tail_energy"] >= 0.0


def test_norms_csv_default_columns(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, BASE)
    assert main(["norms", cfg, "--out-dir", str(out)]) == 0
    lines = (out / "norms.csv").read_text().splitlines()
    assert lines[0] == (
        "time,energy,grad_v_sq,j_sq,v_l2,E_l2,B_l2,v_h1,E_l2log,B_l2log"
    )
    # The default columns are the config's one list of norm columns.
    assert lines[0] == ",".join(DIAG_COLUMNS + NORM_COLUMNS)
    # Taylor-Green start: E and B stay at zero, v decays
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[5]) == 0.0 and float(first[6]) == 0.0
    assert float(last[4]) < float(first[4])


def test_verify_subcommand_small_ensemble(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(
        tmp_path,
        "n = 32\nT = 10\ndt = 0.01\nslope = 2.0\ncount = 2\n"
        "estimates = est1-2D\n",
    )
    assert main(["verify", cfg, "--out-dir", str(out)]) == 0
    rows = [
        json.loads(l) for l in (out / "reports.jsonl").read_text().splitlines()
    ]
    assert [r["estimate_id"] for r in rows] == ["est1-2D"]
    assert len(rows[0]["lhs"]) == 2
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("estimate_id,")
    assert summary[1].startswith("est1-2D,")


def test_verify_uses_the_box_length_of_the_config(tmp_path):
    # box_length, like n, sets the grid of the config's own dimension: the
    # ensembles on a 4 pi box are measured on other wavevectors than those
    # of the default 2 pi box, which an explicit 2 pi reproduces.
    base = "n = 32\nT = 10\ndt = 0.01\nslope = 2.0\ncount = 2\nestimates = est4-2D\n"
    reports = {}
    for name, extra in (("default", ""), ("two_pi", f"box_length = {2 * np.pi!r}\n"),
                        ("four_pi", f"box_length = {4 * np.pi!r}\n")):
        out = tmp_path / name
        cfg = _write_cfg(tmp_path, base + extra, name=f"{name}.cfg")
        assert main(["verify", cfg, "--out-dir", str(out)]) == 0
        reports[name] = (out / "reports.jsonl").read_text()
    assert reports["two_pi"] == reports["default"]
    assert reports["four_pi"] != reports["default"]


def test_file_preset_roundtrip(tmp_path):
    # build a state, snapshot it, reload through init = file
    src_cfg = parse_config("n = 16\ninit = random\nseed = 9\nslope = 1.0\n")
    state = build_initial_state(src_cfg)
    stem = str(tmp_path / "ic")
    for name, fld in (("v", state.v), ("E", state.E), ("B", state.B)):
        write_snapshot(f"{stem}_{name}.nsmw", fld, time=0.25)
    cfg = parse_config(f"n = 16\ninit = file\ninit_file = {stem}\n")
    loaded = build_initial_state(cfg)
    assert loaded.time == 0.25
    assert np.max(np.abs(loaded.v.coeffs - state.v.coeffs)) < 1e-14
    assert lp_norm_physical(loaded.B, 2) == pytest.approx(
        lp_norm_physical(state.B, 2)
    )

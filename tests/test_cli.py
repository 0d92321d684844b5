"""Config parsing, artifact layout, exit codes, and determinism."""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import photon_work
from photon_work import cli
from photon_work.analysis import compare_equivalences
from photon_work.cli import _BLOCK, RunConfig, _write_csv, main, parse_config
from photon_work.dynamics import full_cycle_grid
from photon_work.model import make_pulse, make_system
from photon_work.oracle import make_mode_grid
from photon_work.thermo import photon_report


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert cfg.deltaL == 0.0
    assert cfg.mode == "single"
    assert cfg.step == 1e-3
    assert cfg.cycle_tol == 1e-12
    assert cfg.rho0 == pytest.approx(1.0 / (2.0 * math.pi))


def test_parse_laser_frequency_forms():
    assert parse_config("mode=single\ndelta=1.0").deltaL == 0.0
    assert parse_config("deltaL=0.5").deltaL == 0.5
    # Stored as given: no bit below ulp(omega0) is lost.
    detuning = parse_config("deltaL=-0.2169875550466755\nomega0=50").deltaL
    assert detuning == -0.2169875550466755
    cfg = parse_config("# full comment\n\ndelta=2.0  # trailing comment\n")
    assert cfg.delta == 2.0
    cfg = parse_config("deltaL_values=-0.2, 0.2,1")
    assert cfg.deltaL_values == (-0.2, 0.2, 1.0)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("delta=-1", "delta must be positive (line 1)"),
        ("mode=detuning", "unknown mode 'detuning' (line 1)"),
        ("bogus=3", "unknown key 'bogus' (line 1)"),
        ("delta=1\ndelta=2", "duplicate key 'delta' (line 2)"),
        ("omegaL=100.2\ndeltaL=0.2", "unknown key 'omegaL' (line 1)"),
        ("step=0", "step must be positive (line 1)"),
        ("cycle_tol=2", "cycle_tol must be in (0, 1) (line 1)"),
        ("delta=abc", "invalid value for delta: 'abc' (line 1)"),
        ("traj_stride=0", "traj_stride must be at least 1 (line 1)"),
        ("n_modes=2", "n_modes must be at least 3 (line 1)"),
        ("delta_values=0.1,-0.2", "delta_values must be positive (line 1)"),
        ("deltaL_values=", "invalid value for deltaL_values: '' (line 1)"),
        ("gamma0=1\nrho0=0", "rho0 must be positive (line 2)"),
        ("justtext", "expected key=value (line 1)"),
    ],
)
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(ValueError) as excinfo:
        parse_config(text)
    assert fragment in str(excinfo.value)


_FLOAT_KEYS = sorted(f.name for f in fields(RunConfig) if f.type in ("float", "tuple"))


@pytest.mark.parametrize("key", _FLOAT_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_values_are_refused(key, value):
    if key.endswith("_values"):
        value = f"0.1,{value}"
    with pytest.raises(ValueError, match=rf"^{key} must be finite \(line 2\)$"):
        parse_config(f"mode=single\n{key}={value}\n")


def test_non_finite_t_max_is_refused_in_oracle_mode(workdir, capsys):
    cfg = _write(workdir, "mode=oracle_check\nt_max=inf\n")
    assert main([cfg]) == 1
    assert "error: t_max must be finite (line 2)" in capsys.readouterr().err


def test_non_finite_delta_is_refused_in_single_mode(workdir, capsys):
    cfg = _write(workdir, "mode=single\ndelta=inf\n")
    assert main([cfg]) == 1
    assert "error: delta must be finite (line 2)" in capsys.readouterr().err


def test_readme_keys_table_names_every_config_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("### Keys", 1)[1].split("\n\n", 2)[1]
    documented = {
        key
        for row in table.splitlines()[2:]
        for key in re.findall(r"`(\w+)`", row.split("|")[1])
    }
    assert documented == {f.name for f in fields(RunConfig)}
    for key in documented:
        try:
            parse_config(f"{key}=1")
        except ValueError as exc:
            assert "unknown key" not in str(exc)


def test_readme_python_api_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Python API", 1)[1].split("```python\n", 1)[1]
    exec(block.split("```", 1)[0], {})
    assert capsys.readouterr().out.count("\n") == 3


def test_readme_synopsis_names_every_option(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    synopsis = next(
        line for line in readme.splitlines() if line.startswith("photon-work CONFIG [")
    )
    with pytest.raises(SystemExit):
        main(["--help"])
    printed = set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}
    assert set(re.findall(r"--[\w-]+", synopsis)) == printed


def _csv_lines(columns) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            _write_csv(path, columns)
        with open(path, newline="") as fh:
            return fh.read().split("\n")


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
def test_float_format_round_trips(values):
    lines = _csv_lines({"x": np.array(values), "y": values[::-1]})
    assert lines[0] == "x,y" and lines[-1] == ""
    rows = [[float(f) for f in line.split(",")] for line in lines[1:-1]]
    assert rows == [list(pair) for pair in zip(values, values[::-1])]


def test_format_ints_and_bools():
    # One row past a block: flags are 0/1, integers print as integers.
    k = np.arange(_BLOCK + 1)
    lines = _csv_lines({"k": k, "even": k % 2 == 0, "flag": [True] * k.size})
    assert lines[0] == "k,even,flag"
    assert lines[1:-1] == [f"{i},{1 - i % 2},1" for i in k]


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write(workdir, text, name="cfg.txt"):
    path = workdir / name
    path.write_text(text)
    return str(path)


def test_single_mode_artifacts(workdir, capsys):
    cfg = _write(workdir, "mode=single\ndelta=1.0\nout=case\ntraj_stride=100\n")
    assert main([cfg]) == 0
    out = capsys.readouterr().out
    assert "wrote case_trajectory.csv" in out
    assert "wrote case_summary.csv" in out

    summary = (workdir / "case_summary.csv").read_text().splitlines()
    assert summary[0].startswith("W1,Q1,Q1_abs,Q1_em")
    vals = dict(zip(summary[0].split(","), (float(v) for v in summary[1].split(","))))
    assert vals["W1"] == 0.0  # resonant run does no work
    assert vals["Q1_abs"] == pytest.approx(100.0, abs=1e-2)
    assert vals["Q1_em"] == pytest.approx(-100.0, abs=1e-2)

    traj = (workdir / "case_trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,psi_re,psi_im,pop,delta_eff,gamma_t,h_int,valid"
    assert len(traj) > 100  # strided but still resolving the cycle


def test_configured_detuning_reaches_the_run(workdir):
    # The summary's W1 is that of the configured detuning, to the bit.
    deltaL = -0.2169875550466755
    text = f"mode=single\ndelta=0.3\ndeltaL={deltaL!r}\ntraj_stride=1000\nout=dl\n"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([_write(workdir, text)]) == 0
    lines = (workdir / "dl_summary.csv").read_text().splitlines()
    assert lines[0].startswith("W1,")
    w1 = float(lines[1].split(",")[0])
    assert w1 == photon_report(make_system(), make_pulse(0.3, deltaL)).W1


def test_single_mode_prints_the_grid_it_used(workdir, capsys):
    cfg = _write(workdir, "mode=single\ndelta=0.5\ndeltaL=0.3\ntraj_stride=500\n")
    assert main([cfg]) == 0
    system = make_system()
    grid = full_cycle_grid(system, make_pulse(0.5, 0.3))
    lines = capsys.readouterr().out.splitlines()
    assert f"trapezoid n={grid.n} spacing={grid.spacing:.6g}" in lines


def test_rerun_is_byte_identical(workdir):
    text = "mode=single\ndelta=0.5\ndeltaL=0.3\nout=rep\ntraj_stride=50\n"
    cfg = _write(workdir, text)
    assert main([cfg]) == 0
    first = (workdir / "rep_trajectory.csv").read_bytes()
    first_sum = (workdir / "rep_summary.csv").read_bytes()
    assert main([cfg]) == 0
    assert (workdir / "rep_trajectory.csv").read_bytes() == first
    assert (workdir / "rep_summary.csv").read_bytes() == first_sum
    assert b"\r" not in first  # LF only, also on replays


def test_stride_controls_row_count(workdir):
    base = "mode=single\ndelta=4.0\nout=s{n}\ntraj_stride={n}\n"
    assert main([_write(workdir, base.format(n=1), "a.txt")]) == 0
    assert main([_write(workdir, base.format(n=7), "b.txt")]) == 0
    rows1 = len((workdir / "s1_trajectory.csv").read_bytes().splitlines()) - 1
    rows7 = len((workdir / "s7_trajectory.csv").read_bytes().splitlines()) - 1
    assert rows7 == math.ceil(rows1 / 7)


def test_overrides_replace_config_values(workdir, capsys):
    cfg = _write(workdir, "mode=single\ndelta=1.0\ntraj_stride=200\nout=orig\n")
    assert main([cfg, "--out", "alt"]) == 0
    assert "wrote alt_summary.csv" in capsys.readouterr().out
    assert not (workdir / "orig_summary.csv").exists()


def test_stdin_config(workdir, monkeypatch, capsys):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("mode=single\ndelta=2.0\nout=piped\ntraj_stride=100\n")
    )
    assert main(["-"]) == 0
    assert "wrote piped_summary.csv" in capsys.readouterr().out


def test_exit_1_on_config_and_io_errors(workdir, capsys):
    bad = _write(workdir, "delta=-1\n")
    assert main([bad]) == 1
    assert "delta must be positive (line 1)" in capsys.readouterr().err
    assert main([str(workdir / "missing.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1


def test_exit_2_names_violated_residual(workdir, capsys):
    # An absurdly tight tolerance turns rounding noise into a violation.
    cfg = _write(
        workdir,
        "mode=single\ndelta=0.5\ndeltaL=0.7\nresidual_tol=1e-18\ntraj_stride=500\n",
    )
    assert main([cfg]) == 2
    err = capsys.readouterr().err
    assert "residual violation:" in err and "exceeds" in err


@pytest.mark.parametrize(
    "body",
    [
        "mode=single\ndeltaL=0.3\ntraj_stride=500\n",
        "mode=detuning_scan\ndeltaL_values=-0.3,0.3\n",
    ],
    ids=["single", "detuning_scan"],
)
def test_nan_residual_exits_2(workdir, capsys, body):
    # At this omega0 the heats overflow, dU is inf and the first-law and
    # heat-split residuals are inf - inf = nan: a NaN never passes a gate.
    cfg = _write(workdir, body + "omega0=1.5e308\ndelta=0.5\n")
    assert main([cfg]) == 2
    err = capsys.readouterr().err
    assert "residual violation: res_first_law=nan exceeds" in err
    assert "residual violation: res_q_split=nan exceeds" in err
    assert "res_w_split" not in err


def test_equivalence_mode_exit_2_names_violated_residual(workdir, capsys):
    # Both reports' residuals and the drive's split residual are rounding
    # noise, far above 1e-18 at this detuning (the drive's decomposition
    # residual rounds to exactly 0 at some others, deltaL = 0.2 among them).
    cfg = _write(
        workdir, "mode=equivalence\ndelta=0.05\ndeltaL=0.5\nresidual_tol=1e-18\n"
    )
    assert main([cfg]) == 2
    err = capsys.readouterr().err
    assert "residual violation: res_first_law=" in err
    assert "residual violation: res_decomposition=" in err
    assert "residual violation: split_residual=" in err
    assert " at delta=0.05" in err


def test_detuning_scan_mode(workdir, capsys):
    cfg = _write(
        workdir,
        "mode=detuning_scan\ndelta=0.5\ndeltaL_values=-0.4,0.4\ncycle_tol=1e-10\n",
    )
    assert main([cfg]) == 0
    out = capsys.readouterr().out
    assert "antisymmetry |W1(0.4) + W1(-0.4)| = 0.000e+00" in out
    lines = (workdir / "run_scan.csv").read_text().splitlines()
    assert lines[0] == "deltaL,W1,Q1,Q1_abs,Q1_em"
    assert len(lines) == 3


def test_detuning_scan_mode_exit_2_names_violated_residual(workdir, capsys):
    cfg = _write(
        workdir,
        "mode=detuning_scan\ndelta=0.5\ndeltaL_values=-0.4,0.4\nresidual_tol=1e-18\n",
    )
    assert main([cfg]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines
    assert all(line.startswith("residual violation: res_") for line in lines)
    assert all(" at deltaL=" in line for line in lines)
    assert any(line.endswith(" at deltaL=-0.4") for line in lines)
    assert any(line.endswith(" at deltaL=0.4") for line in lines)


def test_equivalence_mode_off_regime_is_not_enforced(workdir, capsys):
    cfg = _write(workdir, "mode=equivalence\ndelta=0.05\ndeltaL=0.2\nout=eq\n")
    assert main([cfg]) == 0  # out of regime: reported, never enforced
    out = capsys.readouterr().out
    assert "in_regime=0" in out
    lines = (workdir / "eq_equivalence.csv").read_text().splitlines()
    assert lines[0].startswith("delta,w1,w_reac_alpha")
    assert lines[1].endswith(",0")  # in_regime column


def test_equivalence_mode_in_regime_errors_are_enforced(workdir, capsys):
    # In regime at delta = 0.01; the three relative errors read 2.2e-2,
    # 1.6e-2 and 1.6e-2, inside the default 0.05 but not inside 1e-3.
    body = "mode=equivalence\ndelta=0.01\ndeltaL=0.2\n"
    assert main([_write(workdir, body)]) == 0
    assert "in_regime=1" in capsys.readouterr().out
    assert main([_write(workdir, body + "equiv_tol=1e-3\n")]) == 2
    err = capsys.readouterr().err
    for name in ("work_reactive", "heat_absorbed", "heat_emitted"):
        assert f"residual violation: rel_err_{name}=" in err
    assert err.count("exceeds 1.000000e-03 at delta=0.01") == 3


def test_equivalence_mode_default_step_is_the_library_default(workdir):
    # Without a step the comparison uses its own cap, as a library call does.
    cfg = _write(workdir, "mode=equivalence\ndelta=0.1\ndeltaL=0.2\nout=eqd\n")
    assert main([cfg]) == 0
    system = make_system()
    rep = compare_equivalences(system, make_pulse(0.1, 0.2))
    expected = [
        0.1,
        rep.photon.W1,
        rep.drive.W_reac,
        rep.photon.Q1_abs,
        rep.drive.W_abs,
        rep.photon.Q1_em,
        rep.drive.Q_alpha,
        rep.rel_err_work_reactive,
        rep.rel_err_heat_absorbed,
        rep.rel_err_heat_emitted,
        rep.regime.delta_over_gamma0,
        rep.regime.max_pop_quantum,
        rep.regime.max_pop_semiclassical,
        rep.regime.in_regime,
    ]
    lines = (workdir / "eqd_equivalence.csv").read_text().splitlines()
    assert [float(field) for field in lines[1].split(",")] == expected


def test_single_mode_default_step_is_the_library_default(workdir, capsys):
    # deltaL = 30 puts 0.02 / rate = 6.7e-4 below the 1e-3 cap.  The
    # trajectory runs on that grid; the summary is the grid-free report.
    cfg = _write(
        workdir, "mode=single\ndeltaL=30\ntraj_stride=1000\nout=sd\n"
    )
    assert main([cfg]) == 0
    system = make_system()
    pulse = make_pulse(1.0, 30.0)
    grid = full_cycle_grid(system, pulse, cycle_tol=1e-12)
    assert f"trapezoid n={grid.n} spacing={grid.spacing:.6g}" in capsys.readouterr().out
    rep = photon_report(system, pulse)
    expected = [
        rep.W1,
        rep.Q1,
        rep.Q1_abs,
        rep.Q1_em,
        rep.W1_int,
        rep.W1_reac,
        rep.dU,
        rep.residual_first_law,
        rep.residual_Q_split,
        rep.residual_W_split,
    ]
    lines = (workdir / "sd_summary.csv").read_text().splitlines()
    assert [float(field) for field in lines[1].split(",")] == expected


@pytest.mark.parametrize(
    "base,keys,artifact,rows",
    [
        (
            "mode=detuning_scan\ndelta=0.5\ndeltaL_values=-0.4,0.4,3\n",
            "step=1e-3\ncycle_tol=1e-10\n",
            "scan",
            3,
        ),
        (
            "mode=equivalence\ndelta=0.1\ndeltaL=0.2\n",
            "step=5e-4\ncycle_tol=1e-10\n",
            "equivalence",
            1,
        ),
    ],
    ids=["detuning_scan", "equivalence"],
)
def test_detuning_mode_ignores_step_and_cycle_tol(workdir, capsys, base, keys, artifact, rows):
    # The sweep is grid-free and the drive's head takes a spacing of its
    # own: both keys are accepted, change nothing on stdout or in the CSV,
    # and each gets one note on stderr.
    assert main([_write(workdir, base + "out=plain\n", "a.txt")]) == 0
    plain_out = capsys.readouterr()
    assert main([_write(workdir, base + keys + "out=keyed\n", "b.txt")]) == 0
    keyed_out = capsys.readouterr()
    plain = (workdir / f"plain_{artifact}.csv").read_bytes()
    assert (workdir / f"keyed_{artifact}.csv").read_bytes() == plain
    assert len(plain.splitlines()) == rows + 1
    mode = base.split("\n")[0].split("=")[1]
    assert plain_out.err == ""
    assert keyed_out.err.splitlines() == [
        f"note: step has no effect in mode={mode} (line 4)",
        f"note: cycle_tol has no effect in mode={mode} (line 5)",
    ]
    assert keyed_out.out.replace("keyed", "plain") == plain_out.out


def test_oracle_mode_notes_cycle_tol(workdir, capsys):
    cfg = _write(workdir, "mode=oracle_check\nn_modes=201\nt_max=0.5\ncycle_tol=1e-9\n")
    assert main([cfg]) == 0
    err = capsys.readouterr().err
    assert err == "note: cycle_tol has no effect in mode=oracle_check (line 4)\n"


def test_oversized_grid_exits_1_with_a_message(workdir, capsys):
    # The sample times alone would exceed the 128 TiB x86-64 user address
    # space, so the allocation is refused without touching memory.
    system = make_system()
    grid = full_cycle_grid(
        system, make_pulse(1.0), cycle_tol=1e-12, max_step=1e-12
    )
    assert grid.n * 8 > 2**47
    cfg = _write(workdir, "mode=single\nstep=1e-12\n")
    assert main([cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "allocate" in err


def test_bandwidth_scan_mode(workdir):
    cfg = _write(
        workdir, "mode=bandwidth_scan\ndelta_values=0.5,0.25\ndeltaL=0.3\nout=bw\n"
    )
    assert main([cfg]) == 0
    lines = (workdir / "bw_equivalence.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0.5"


def test_oracle_mode_clamps_step(workdir, capsys):
    cfg = _write(
        workdir,
        "mode=oracle_check\nhalf_width=100\nn_modes=1001\nt_max=1.0\n"
        "traj_stride=100\nout=orc\n",
    )
    assert main([cfg]) == 0
    out = capsys.readouterr().out
    # The expansion is exact in time, so the default 1e-3 step needs no
    # clamp to the window rate.
    assert "recurrence_ok = 1" in out
    drift = float(out.split("max_norm_drift = ")[1].split()[0])
    assert drift < 1e-9
    assert (workdir / "orc_oracle.csv").exists()


def test_oracle_rows_follow_the_requested_step(workdir):
    # t_max = 1 at the default 1e-3 step is 1001 samples; every 100th is
    # a row: t = 0, 0.1, ..., 1.
    cfg = _write(
        workdir,
        "mode=oracle_check\nhalf_width=100\nn_modes=1001\nt_max=1.0\n"
        "traj_stride=100\nout=orc\n",
    )
    assert main([cfg]) == 0
    rows = (workdir / "orc_oracle.csv").read_text().splitlines()[1:]
    assert len(rows) == 11
    times = [float(row.split(",")[0]) for row in rows]
    np.testing.assert_allclose(times, np.arange(11) * 0.1, rtol=0.0, atol=1e-12)


def test_oracle_mode_drift_violation_exits_2(workdir, capsys):
    cfg = _write(
        workdir,
        "mode=oracle_check\nhalf_width=100\nn_modes=1001\nt_max=1.0\n"
        "drift_tol=1e-16\n",
    )
    assert main([cfg]) == 2
    assert "norm_drift" in capsys.readouterr().err


def test_oracle_printed_drift_is_the_gated_drift(workdir, capsys):
    """A tolerance twice the printed drift passes and half of it fails,
    so the printed value is the one the gate compares; the CSV column
    carries the same value."""
    body = "mode=oracle_check\nhalf_width=100\nn_modes=1001\nt_max=1.0\nout=orc\n"
    assert main([_write(workdir, body)]) == 0
    printed = capsys.readouterr().out.split("max_norm_drift = ")[1].split()[0]
    drift = float(printed)
    assert drift > 0.0
    rows = (workdir / "orc_oracle.csv").read_text().splitlines()[1:]
    column = max(float(row.split(",")[-1]) for row in rows)
    assert f"{column:.6e}" == printed
    assert main([_write(workdir, body + f"drift_tol={2.0 * drift!r}\n")]) == 0
    assert main([_write(workdir, body + f"drift_tol={0.5 * drift!r}\n")]) == 2
    assert "norm_drift" in capsys.readouterr().err


def test_oracle_mode_past_revival_exits_2(workdir, capsys):
    # Comb spacing 0.2: the discrete continuum revives at 2 pi/0.2 = 31.4.
    cfg = _write(
        workdir,
        "mode=oracle_check\nhalf_width=10\nn_modes=101\nt_max=35\nout=rev\n",
    )
    assert main([cfg]) == 2
    captured = capsys.readouterr()
    assert "recurrence_ok = 0" in captured.out
    assert "residual violation: recurrence" in captured.err
    assert (workdir / "rev_oracle.csv").exists()


def test_oracle_recurrence_gate_is_the_printed_flag(workdir, capsys):
    """recurrence_ok is strict: a horizon on the revival time reads 0 and
    fails the recurrence gate, one a float below reads 1 and passes it
    (both runs fail abs_err, 2.3e-2 on this coarse comb)."""
    spacing = make_mode_grid(make_system(), 10.0, 101).spacing
    revival = 2.0 * math.pi / spacing
    body = "mode=oracle_check\nhalf_width=10\nn_modes=101\n"
    for t_max, flag in ((revival, 0), (math.nextafter(revival, 0.0), 1)):
        # One step: the horizon is t_max to the bit.
        cfg = _write(workdir, body + f"t_max={t_max!r}\nstep={t_max!r}\n")
        assert main([cfg]) == 2
        captured = capsys.readouterr()
        assert f"recurrence_ok = {flag}" in captured.out
        assert ("residual violation: recurrence=" in captured.err) == (flag == 0)
        assert "residual violation: abs_err=" in captured.err


def test_oracle_mode_error_past_tolerance_exits_2(workdir, capsys):
    # Under the revival time (31.4) but on a coarse comb: |psi| is off by
    # 2.5e-2, past criterion 4's 1e-2.
    cfg = _write(
        workdir,
        "mode=oracle_check\nhalf_width=10\nn_modes=101\nt_max=20\nout=err\n",
    )
    assert main([cfg]) == 2
    captured = capsys.readouterr()
    assert "recurrence_ok = 1" in captured.out
    max_abs_err = float(captured.out.split("max_abs_err = ")[1].split()[0])
    assert max_abs_err > 1e-2
    assert "residual violation: abs_err" in captured.err
    assert "recurrence" not in captured.err


def test_oracle_gate_catches_a_conjugated_amplitude(workdir, capsys, monkeypatch):
    """An oracle psi of the wrong phase convention has the right modulus,
    so max_abs_err stays small, but the gate on the complex difference
    exits 2."""
    propagate = cli.propagate

    def conjugated(*args, **kwargs):
        traj = propagate(*args, **kwargs)
        return replace(traj, psi=traj.psi.conj())

    body = (
        "mode=oracle_check\ndeltaL=0.5\nhalf_width=100\nn_modes=1001\n"
        "t_max=1.0\nout=orc\n"
    )
    assert main([_write(workdir, body)]) == 0
    honest = capsys.readouterr().out
    monkeypatch.setattr(cli, "propagate", conjugated)
    assert main([_write(workdir, body)]) == 2
    captured = capsys.readouterr()
    assert captured.out == honest
    assert float(captured.out.split("max_abs_err = ")[1].split()[0]) < 1e-2
    assert "residual violation: abs_err" in captured.err


def test_oracle_csv_abs_err_is_the_difference_of_its_columns(workdir):
    # Detuned, so psi is complex and every column takes a modulus.
    cfg = _write(
        workdir,
        "mode=oracle_check\ndeltaL=0.5\nhalf_width=100\nn_modes=1001\n"
        "t_max=1.0\nout=orc\n",
    )
    assert main([cfg]) == 0
    lines = (workdir / "orc_oracle.csv").read_text().splitlines()
    assert lines[0] == "t,psi_abs,psi_closed_abs,abs_err,norm_drift"
    for line in lines[1:]:
        _, psi_abs, closed_abs, abs_err, _ = map(float, line.split(","))
        assert abs_err == abs(psi_abs - closed_abs)


def test_cli_import_leaves_scipy_signal_unloaded():
    # No scipy module at all: scipy.special and scipy.optimize took about
    # six times as long to import as numpy, and no CLI mode needs scipy.
    code = (
        "import sys, photon_work.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(photon_work.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "config",
    [
        "mode=bandwidth_scan\ndelta_values=0.1,0.01\ndeltaL=0.2\n",
        "mode=equivalence\ndelta=1.0\ndeltaL=-0.5\n",
    ],
    ids=["bandwidth_scan", "equivalence"],
)
def test_drive_modes_run_without_scipy(workdir, config):
    # The import check above cannot see a function that imports scipy
    # when it runs, so the drive's whole path runs here, head and tail.
    code = (
        "import sys\n"
        "from photon_work.cli import main\n"
        "assert main([sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(photon_work.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code, _write(workdir, config)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"

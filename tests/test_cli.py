"""Config parsing, artifact layout, exit codes, and determinism."""

from __future__ import annotations

import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import photon_work
from photon_work.analysis import compare_equivalences
from photon_work.cli import RunConfig, _fmt, main, parse_config
from photon_work.model import make_pulse, make_system


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    # omegaL resolves to resonance; everything else is the field default.
    assert cfg == RunConfig(omegaL=100.0)
    assert cfg.mode == "single"
    assert cfg.step is None
    assert cfg.cycle_tol == 1e-12
    assert cfg.rho0 == pytest.approx(1.0 / (2.0 * math.pi))


def test_parse_laser_frequency_forms():
    assert parse_config("mode=single\ndelta=1.0\nomegaL=100").omegaL == 100.0
    assert parse_config("deltaL=0.5").omegaL == 100.5
    assert parse_config("deltaL=-0.5\nomega0=50").omegaL == 49.5
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
        ("omegaL=100.2\ndeltaL=0.2", "omegaL and deltaL are exclusive (line 2)"),
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


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_format_round_trips(x):
    assert float(_fmt(x)) == x


def test_format_ints_and_bools():
    assert _fmt(True) == "1" and _fmt(False) == "0"
    assert _fmt(7) == "7"


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
    cfg = _write(workdir, "mode=single\ndelta=1.0\ntraj_stride=200\n")
    assert main([cfg, "--out", "alt", "--step", "2e-3"]) == 0
    out = capsys.readouterr().out
    assert "wrote alt_summary.csv" in out
    assert "spacing=0.002" in out


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
    good = _write(workdir, "mode=single\n", "good.txt")
    assert main([good, "--step", "-1"]) == 1
    assert "step must be positive" in capsys.readouterr().err


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


def test_equivalence_mode_off_regime_is_not_enforced(workdir, capsys):
    cfg = _write(workdir, "mode=equivalence\ndelta=0.05\ndeltaL=0.2\nout=eq\n")
    assert main([cfg]) == 0  # out of regime: reported, never enforced
    out = capsys.readouterr().out
    assert "in_regime=0" in out
    lines = (workdir / "eq_equivalence.csv").read_text().splitlines()
    assert lines[0].startswith("delta,w1,w_reac_alpha")
    assert lines[1].endswith(",0")  # in_regime column


def test_equivalence_mode_default_step_is_the_library_default(workdir):
    # Without a step the comparison uses its own cap, as a library call does.
    cfg = _write(workdir, "mode=equivalence\ndelta=0.1\ndeltaL=0.2\nout=eqd\n")
    assert main([cfg]) == 0
    system = make_system()
    rep = compare_equivalences(system, make_pulse(0.1, 100.2, system))
    expected = (
        0.1,
        rep.w1,
        rep.w_reac_alpha,
        rep.q1_abs,
        rep.w_abs_alpha,
        rep.q1_em,
        rep.q_alpha,
        rep.rel_err_work_reactive,
        rep.rel_err_heat_absorbed,
        rep.rel_err_heat_emitted,
        rep.regime.delta_over_gamma0,
        rep.regime.max_pop_quantum,
        rep.regime.max_pop_semiclassical,
        rep.regime.in_regime,
    )
    lines = (workdir / "eqd_equivalence.csv").read_text().splitlines()
    assert lines[1] == ",".join(_fmt(v) for v in expected)


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
    # The default 1e-3 step would trip the propagation guard; the mode
    # clamps to the window rate instead of failing.
    assert "recurrence_ok = 1" in out
    drift = float(out.split("max_norm_drift = ")[1].split()[0])
    assert drift < 1e-9
    assert (workdir / "orc_oracle.csv").exists()


def test_oracle_mode_drift_violation_exits_2(workdir, capsys):
    cfg = _write(
        workdir,
        "mode=oracle_check\nhalf_width=100\nn_modes=1001\nt_max=1.0\n"
        "drift_tol=1e-16\n",
    )
    assert main([cfg]) == 2
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


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal is slow to import and no CLI mode needs it.
    code = "import sys, photon_work.cli; print('scipy.signal' in sys.modules)"
    src = str(Path(photon_work.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "False"

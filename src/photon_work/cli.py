"""Batch front end: flat key=value configs in, CSV artifacts out.

One config describes one run mode:

    single          full-cycle trajectory + energy summary (grid-free)
    detuning_scan   thermo functionals over a laser-detuning sweep (grid-free)
    bandwidth_scan  quantum/semiclassical comparison over bandwidths (the
                    drive's head ends at 80/gamma0, or at the shorter
                    full cycle of the default tolerance from delta ~ 0.8
                    gamma0 at deltaL = 0, ~ 0.5 gamma0 at deltaL = 40;
                    at a spacing of its own)
    equivalence     the same comparison at a single bandwidth
    oracle_check    discretized-continuum eigen-expansion vs closed form,
                    sampled at the requested step

step and cycle_tol have no effect in detuning_scan, bandwidth_scan and
equivalence, nor cycle_tol in oracle_check: a config that sets one there
gets a note on stderr naming the key and its line, and runs as without it.

Numbers are serialized with 17 significant digits (lossless float64
round trip) and LF line endings, so identical configs give byte-identical
files.  Exit status: 0 on success, 1 for config or I/O errors, 2 when a
gate fails, named on stderr.  A gate is a (name, value, limit) record
that passes only when |value| <= limit, so a NaN value fails:

    every mode but oracle_check, at each point: res_first_law and
        res_q_split at residual_tol * omega0, res_w_split at residual_tol
    bandwidth_scan and equivalence, at each point: the drive's
        res_decomposition and split_residual (between its head and its
        series tail) at residual_tol; rel_err_* at equiv_tol, in regime
    oracle_check: recurrence (t_max below the comb revival time
        2 pi/d_omega) and abs_err (max |psi - psi_closed|, at
        ORACLE_ABS_TOL); propagate checks norm_drift at drift_tol
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .analysis import compare_equivalences, detuning_scan
from .dynamics import (
    DEFAULT_CYCLE_TOL,
    closed_form_psi,
    closed_form_trajectory,
    full_cycle_grid,
)
from .model import DEFAULT_STEP_CAP, SystemParams, make_pulse, make_system, uniform_grid
from .oracle import (
    DEFAULT_DRIFT_TOL,
    NormDriftError,
    init_single_photon,
    make_mode_grid,
    propagate,
)
from .thermo import ThermoReport, effective_trajectory, photon_report

__all__ = ["RunConfig", "parse_config", "run", "main"]

_MODES = ("single", "detuning_scan", "bandwidth_scan", "equivalence", "oracle_check")
_DEFAULT_DELTAL_VALUES = (-1.0, -0.5, -0.2, 0.0, 0.2, 0.5, 1.0)
_DEFAULT_DELTA_VALUES = (
    0.031622776601683794,
    0.01,
    0.0031622776601683794,
    0.001,
)


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; every field has a working default."""

    mode: str = "single"
    gamma0: float = 1.0
    omega0: float = 100.0
    rho0: float = 1.0 / (2.0 * math.pi)
    delta: float = 1.0
    deltaL: float = 0.0
    step: float = DEFAULT_STEP_CAP
    cycle_tol: float = DEFAULT_CYCLE_TOL
    out: str = "run"
    traj_stride: int = 1
    deltaL_values: tuple = _DEFAULT_DELTAL_VALUES
    delta_values: tuple = _DEFAULT_DELTA_VALUES
    half_width: float = 100.0
    n_modes: int = 4001
    t_max: float = 10.0
    residual_tol: float = 1e-8
    equiv_tol: float = 0.05
    drift_tol: float = DEFAULT_DRIFT_TOL


def _floats(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


# Parser of each config key, by annotation.
_PARSERS = {"str": str, "int": int, "float": float, "tuple": _floats}
_KEY_PARSERS = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}

# Range of each constrained key.  The library checks six of them again
# (make_mode_grid, full_cycle_grid, uniform_grid, make_pulse), but only
# parsing can cite the config line.
_LIMITS = {
    "step": (lambda v: v > 0.0, "must be positive"),
    "half_width": (lambda v: v > 0.0, "must be positive"),
    "t_max": (lambda v: v > 0.0, "must be positive"),
    "residual_tol": (lambda v: v > 0.0, "must be positive"),
    "equiv_tol": (lambda v: v > 0.0, "must be positive"),
    "drift_tol": (lambda v: v > 0.0, "must be positive"),
    "cycle_tol": (lambda v: 0.0 < v < 1.0, "must be in (0, 1)"),
    "traj_stride": (lambda v: v >= 1, "must be at least 1"),
    "n_modes": (lambda v: v >= 3, "must be at least 3"),
    "delta_values": (lambda v: not any(d <= 0 for d in v), "must be positive"),
}

# Keys that a mode never reads.
_NO_EFFECT = {
    "detuning_scan": ("step", "cycle_tol"),
    "bandwidth_scan": ("step", "cycle_tol"),
    "equivalence": ("step", "cycle_tol"),
    "oracle_check": ("cycle_tol",),
}

# Criterion 4: the oracle's psi within this of the closed form, in
# modulus and in phase.
ORACLE_ABS_TOL = 1e-2

# Rows formatted per string operation by _write_csv.
_BLOCK = 4096


def _with_line(message: str, line: int | None) -> str:
    if line is None:
        return message
    return f"{message} (line {line})"


def _check_range(key: str, value, line: int | None = None) -> None:
    if _KEY_PARSERS[key] in (float, _floats) and not np.all(np.isfinite(value)):
        raise ValueError(_with_line(f"{key} must be finite", line))
    limit = _LIMITS.get(key)
    if limit is not None and not limit[0](value):
        raise ValueError(_with_line(f"{key} {limit[1]}", line))


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key=value config.

    Lines are `key=value` pairs; '#' starts a comment; blank lines are
    skipped.  Unknown or duplicate keys, unparsable or non-finite
    values, and constraint violations all raise ValueError naming the
    offending line.  Empty text yields the all-defaults resonant single run.
    A key that the mode never reads gets one note on stderr.
    """
    values: dict = {}
    lines: dict[str, int] = {}
    for i, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"expected key=value (line {i})")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEY_PARSERS:
            raise ValueError(f"unknown key '{key}' (line {i})")
        if key in values:
            raise ValueError(f"duplicate key '{key}' (line {i})")
        try:
            values[key] = _KEY_PARSERS[key](val)
        except ValueError:
            raise ValueError(f"invalid value for {key}: '{val}' (line {i})") from None
        _check_range(key, values[key], i)
        lines[key] = i

    if values.get("mode", RunConfig.mode) not in _MODES:
        raise ValueError(_with_line(f"unknown mode '{values['mode']}'", lines["mode"]))
    config = RunConfig(**values)

    try:
        make_system(config.gamma0, omega0=config.omega0, rho0=config.rho0)
        make_pulse(config.delta, config.deltaL)
    except ValueError as exc:
        key = str(exc).split()[0]
        raise ValueError(_with_line(str(exc), lines.get(key))) from None
    for key in _NO_EFFECT.get(config.mode, ()):
        if key in lines:
            note = f"note: {key} has no effect in mode={config.mode}"
            print(_with_line(note, lines[key]), file=sys.stderr)
    return config


def _write_csv(path: str, columns: dict) -> None:
    """Write equal-length columns under their names as a CSV file.

    Values are written with 17 significant digits (flags as 0/1) and LF
    line endings, a block of rows per string operation.
    """
    arrays = [np.asarray(c) for c in columns.values()]
    row = ",".join(["%.17g"] * len(arrays)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, len(arrays[0]), _BLOCK):
            block = np.column_stack([a[lo : lo + _BLOCK] for a in arrays])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
    print(f"wrote {path}")


def _ledger_bounds(report: ThermoReport, omega0: float, tol: float) -> list:
    """(name, value, limit) of the first-law, heat-split and work-split
    residuals of one photon ledger."""
    return [
        ("res_first_law", report.residual_first_law, tol * omega0),
        ("res_q_split", report.residual_Q_split, tol * omega0),
        ("res_w_split", report.residual_W_split, tol),
    ]


def _violations(bounds, where: str = "") -> list:
    """Messages of the (name, value, limit) records whose |value| is not
    within their limit; a NaN value fails."""
    return [
        f"{name}={value:.6e} exceeds {limit:.6e}{where}"
        for name, value, limit in bounds
        if not abs(value) <= limit
    ]


def _exit_status(violations: list) -> int:
    for v in violations:
        print(f"residual violation: {v}", file=sys.stderr)
    return 2 if violations else 0


def _run_single(config: RunConfig, system: SystemParams) -> int:
    pulse = make_pulse(config.delta, config.deltaL)
    grid = full_cycle_grid(
        system, pulse, cycle_tol=config.cycle_tol, max_step=config.step
    )
    traj = closed_form_trajectory(system, pulse, grid)
    eff = effective_trajectory(traj)
    rep = photon_report(system, pulse)
    print(
        f"mode=single gamma0={system.gamma0:g} omega0={system.omega0:g} "
        f"delta={pulse.delta:g} deltaL={pulse.deltaL:g}"
    )
    print(f"trapezoid n={grid.n} spacing={grid.spacing:.6g}")

    rows = slice(None, None, config.traj_stride)
    trajectory = {
        "t": grid.times(),
        "psi_re": traj.psi.real,
        "psi_im": traj.psi.imag,
        "pop": eff.pop,
        "delta_eff": eff.delta_eff,
        "gamma_t": eff.gamma_t,
        "h_int": eff.h_int,
        "valid": eff.valid_mask,
    }
    _write_csv(
        f"{config.out}_trajectory.csv",
        {name: col[rows] for name, col in trajectory.items()},
    )
    bounds = _ledger_bounds(rep, system.omega0, config.residual_tol)
    summary = {
        "W1": rep.W1,
        "Q1": rep.Q1,
        "Q1_abs": rep.Q1_abs,
        "Q1_em": rep.Q1_em,
        "W1_int": rep.W1_int,
        "W1_reac": rep.W1_reac,
        "dU": rep.dU,
    } | {name: value for name, value, _ in bounds}
    _write_csv(
        f"{config.out}_summary.csv", {name: [v] for name, v in summary.items()}
    )
    for name, val in summary.items():
        print(f"{name} = {val:.9g}")
    return _exit_status(_violations(bounds))


def _run_detuning(config: RunConfig, system: SystemParams) -> int:
    scan = detuning_scan(system, config.delta, config.deltaL_values)
    print(
        f"mode=detuning_scan delta={config.delta:g} "
        f"points={len(scan.deltaL)}"
    )
    values = ("W1", "Q1", "Q1_abs", "Q1_em")
    _write_csv(
        f"{config.out}_scan.csv",
        {"deltaL": scan.deltaL}
        | {name: [getattr(rep, name) for rep in scan.reports] for name in values},
    )
    for d, resid in scan.antisymmetry:
        print(f"antisymmetry |W1({d:g}) + W1({-d:g})| = {resid:.3e}")
    violations = []
    for d, rep in zip(scan.deltaL, scan.reports):
        bounds = _ledger_bounds(rep, system.omega0, config.residual_tol)
        violations += _violations(bounds, f" at deltaL={d:g}")
    return _exit_status(violations)


def _run_equivalence(config: RunConfig, system: SystemParams, deltas) -> int:
    errors = ("rel_err_work_reactive", "rel_err_heat_absorbed", "rel_err_heat_emitted")
    tol = config.residual_tol
    columns: dict = {}
    violations = []
    for d in deltas:
        rep = compare_equivalences(system, make_pulse(d, config.deltaL))
        row = {
            "delta": d,
            "w1": rep.photon.W1,
            "w_reac_alpha": rep.drive.W_reac,
            "q1_abs": rep.photon.Q1_abs,
            "w_abs_alpha": rep.drive.W_abs,
            "q1_em": rep.photon.Q1_em,
            "q_alpha": rep.drive.Q_alpha,
            **{name: getattr(rep, name) for name in errors},
            "delta_over_gamma0": rep.regime.delta_over_gamma0,
            "max_pop_quantum": rep.regime.max_pop_quantum,
            "max_pop_semiclassical": rep.regime.max_pop_semiclassical,
            "in_regime": rep.regime.in_regime,
        }
        for name, val in row.items():
            columns.setdefault(name, []).append(val)
        print(
            f"delta={d:g}: "
            + " ".join(f"{name}={row[name]:.4g}" for name in errors)
            + f" in_regime={int(rep.regime.in_regime)}"
            + f" split_residual={rep.drive.split_residual:.3e}"
        )
        bounds = _ledger_bounds(rep.photon, system.omega0, tol) + [
            ("res_decomposition", rep.drive.residual_decomposition, tol),
            ("split_residual", rep.drive.split_residual, tol),
        ]
        if rep.regime.in_regime:
            bounds += [(name, row[name], config.equiv_tol) for name in errors]
        violations += _violations(bounds, f" at delta={d:g}")
    _write_csv(f"{config.out}_equivalence.csv", columns)
    return _exit_status(violations)


def _run_oracle(config: RunConfig, system: SystemParams) -> int:
    pulse = make_pulse(config.delta, config.deltaL)
    mode_grid = make_mode_grid(system, config.half_width, config.n_modes)
    state = init_single_photon(system, pulse, mode_grid)
    # The expansion is exact in time: the step only sets the sampling.
    grid = uniform_grid(config.t_max, config.step)
    try:
        otraj = propagate(state, mode_grid, grid, drift_tol=config.drift_tol)
    except NormDriftError as exc:
        return _exit_status([f"norm_drift: {exc}"])
    closed = closed_form_psi(system, pulse, grid.times())
    psi_abs = np.abs(otraj.psi)
    closed_abs = np.abs(closed)
    abs_err = np.abs(psi_abs - closed_abs)
    rows = slice(None, None, config.traj_stride)
    _write_csv(
        f"{config.out}_oracle.csv",
        {
            "t": grid.times()[rows],
            "psi_abs": psi_abs[rows],
            "psi_closed_abs": closed_abs[rows],
            "abs_err": abs_err[rows],
            "norm_drift": np.full(grid.n, otraj.drift)[rows],
        },
    )
    max_abs_err = float(abs_err.max())
    print(
        f"mode=oracle_check half_width={mode_grid.half_width:g} "
        f"n_modes={mode_grid.n_modes} captured_mass={state.captured_mass:.6f}"
    )
    print(
        f"max_abs_err = {max_abs_err:.6e}  "
        f"max_norm_drift = {otraj.drift:.6e}  "
        f"window_ok = {int(state.window_ok)}  "
        f"recurrence_ok = {int(otraj.recurrence_ok)}"
    )
    # The window flag stays informational: the default window captures
    # 0.9968 of the pulse, below the oracle's 0.999 capture threshold.
    # recurrence_ok is strict, so the limit is the largest float below the
    # revival time.  The complex difference bounds the printed modulus
    # difference and also catches a wrong phase.
    revival = 2.0 * math.pi / mode_grid.spacing
    max_err = float(np.abs(otraj.psi - closed).max())
    bounds = [
        ("recurrence", grid.tf, math.nextafter(revival, 0.0)),
        ("abs_err", max_err, ORACLE_ABS_TOL),
    ]
    return _exit_status(_violations(bounds))


def run(config: RunConfig) -> int:
    """Execute one config, write artifacts next to the ``out`` prefix and
    return the exit status described in the module docstring."""
    system = make_system(config.gamma0, omega0=config.omega0, rho0=config.rho0)
    if config.mode == "single":
        return _run_single(config, system)
    if config.mode == "detuning_scan":
        return _run_detuning(config, system)
    if config.mode == "bandwidth_scan":
        return _run_equivalence(config, system, config.delta_values)
    if config.mode == "equivalence":
        return _run_equivalence(config, system, (config.delta,))
    return _run_oracle(config, system)


class _Parser(argparse.ArgumentParser):
    # Exit 1 on usage errors; 2 is reserved for residual violations.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="photon-work",
        description="Single-photon work and heat simulations (CSV output).",
    )
    parser.add_argument(
        "config", help="path to a key=value config file, or '-' for stdin"
    )
    parser.add_argument("--out", help="output path prefix (overrides config)")
    args = parser.parse_args(argv)
    try:
        if args.config == "-":
            text = sys.stdin.read()
        else:
            text = Path(args.config).read_text()
        config = parse_config(text)
        if args.out is not None:
            config = replace(config, out=args.out)
        return run(config)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

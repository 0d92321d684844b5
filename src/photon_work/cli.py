"""Batch front end: flat key=value configs in, CSV artifacts out.

One config describes one run mode:

    single          full-cycle trajectory + energy summary
    detuning_scan   thermo functionals over a laser-detuning sweep
    bandwidth_scan  quantum/semiclassical comparison over bandwidths
    equivalence     the same comparison at a single bandwidth
    oracle_check    discretized-continuum propagation vs closed form

Numbers are serialized with 17 significant digits (lossless float64
round trip) and LF line endings, so identical configs give byte-identical
files.  Exit status: 0 on success, 2 when an enforced residual exceeds
its tolerance (the violation is named on stderr), 1 for config or I/O
errors.  Residual tolerances follow the invariant units: first-law and
heat-split thresholds scale with omega0, the work-split threshold does
not.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import compare_equivalences, detuning_scan
from .dynamics import closed_form_psi, closed_form_trajectory, full_cycle_grid
from .effective import effective_trajectory
from .model import (
    DEFAULT_STEP_CAP,
    SystemParams,
    default_step,
    make_pulse,
    make_system,
    oracle_step,
    rate_scale,
    uniform_grid,
)
from .oracle import NormDriftError, init_single_photon, make_mode_grid, propagate
from .pulse import PulseEnvelope
from .thermo import ThermoReport, thermo_report

__all__ = ["RunConfig", "parse_config", "run", "main"]

_MODES = ("single", "detuning_scan", "bandwidth_scan", "equivalence", "oracle_check")
_DEFAULT_DELTAL_VALUES = (-1.0, -0.5, -0.2, 0.0, 0.2, 0.5, 1.0)
_DEFAULT_DELTA_VALUES = (
    0.031622776601683794,
    0.01,
    0.0031622776601683794,
    0.001,
)

_TRAJ_HEADER = "t,psi_re,psi_im,pop,delta_eff,gamma_t,h_int,valid"
_SUMMARY_HEADER = (
    "W1,Q1,Q1_abs,Q1_em,W1_int,W1_reac,dU,res_first_law,res_q_split,res_w_split"
)
_EQUIV_HEADER = (
    "delta,w1,w_reac_alpha,q1_abs,w_abs_alpha,q1_em,q_alpha,"
    "rel_err_work_reactive,rel_err_heat_absorbed,rel_err_heat_emitted,"
    "delta_over_gamma0,max_pop_quantum,max_pop_semiclassical,in_regime"
)


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; every field has a working default."""

    mode: str = "single"
    gamma0: float = 1.0
    omega0: float = 100.0
    rho0: float = 1.0 / (2.0 * math.pi)
    delta: float = 1.0
    omegaL: float | None = None
    step: float | None = None
    cycle_tol: float = 1e-12
    out: str = "run"
    traj_stride: int = 1
    deltaL_values: tuple = _DEFAULT_DELTAL_VALUES
    delta_values: tuple = _DEFAULT_DELTA_VALUES
    half_width: float = 100.0
    n_modes: int = 4001
    t_max: float = 10.0
    residual_tol: float = 1e-8
    equiv_tol: float = 0.05
    drift_tol: float = 1e-9


_FLOAT_KEYS = (
    "gamma0",
    "omega0",
    "rho0",
    "delta",
    "omegaL",
    "deltaL",
    "step",
    "cycle_tol",
    "half_width",
    "t_max",
    "residual_tol",
    "equiv_tol",
    "drift_tol",
)
_INT_KEYS = ("traj_stride", "n_modes")
_STR_KEYS = ("mode", "out")
_LIST_KEYS = ("deltaL_values", "delta_values")
_ALL_KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS + _LIST_KEYS


def _with_line(message: str, line: int | None) -> str:
    if line is None:
        return message
    return f"{message} (line {line})"


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key=value config.

    Lines are `key=value` pairs; '#' starts a comment; blank lines are
    skipped.  Unknown or duplicate keys, unparsable values, and
    constraint violations all raise ValueError naming the offending
    line.  Empty text yields the all-defaults resonant single run.
    """
    raw: dict[str, str] = {}
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
        if key not in _ALL_KEYS:
            raise ValueError(f"unknown key '{key}' (line {i})")
        if key in raw:
            raise ValueError(f"duplicate key '{key}' (line {i})")
        raw[key] = val
        lines[key] = i

    values: dict = {}
    for key, val in raw.items():
        i = lines[key]
        try:
            if key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key in _INT_KEYS:
                values[key] = int(val)
            elif key in _LIST_KEYS:
                parts = [p.strip() for p in val.split(",") if p.strip()]
                if not parts:
                    raise ValueError("empty list")
                values[key] = tuple(float(p) for p in parts)
            else:
                values[key] = val
        except ValueError:
            raise ValueError(
                f"invalid value for {key}: '{val}' (line {i})"
            ) from None

    mode = values.get("mode", "single")
    if mode not in _MODES:
        raise ValueError(
            _with_line(f"unknown mode '{mode}'", lines.get("mode"))
        )
    if "omegaL" in values and "deltaL" in values:
        second = max(lines["omegaL"], lines["deltaL"])
        raise ValueError(f"omegaL and deltaL are exclusive (line {second})")

    defaults = RunConfig()
    gamma0 = values.get("gamma0", defaults.gamma0)
    omega0 = values.get("omega0", defaults.omega0)
    rho0 = values.get("rho0", defaults.rho0)
    try:
        system = make_system(gamma0, omega0=omega0, rho0=rho0)
    except ValueError as exc:
        key = str(exc).split()[0]
        raise ValueError(_with_line(str(exc), lines.get(key))) from None

    delta = values.get("delta", defaults.delta)
    if "deltaL" in values:
        omegaL = omega0 + values["deltaL"]
        omegaL_line = lines["deltaL"]
    elif "omegaL" in values:
        omegaL = values["omegaL"]
        omegaL_line = lines["omegaL"]
    else:
        omegaL = omega0
        omegaL_line = None
    try:
        make_pulse(delta, omegaL, system)
    except ValueError as exc:
        msg = str(exc)
        line = lines.get("delta") if msg.startswith("delta") else omegaL_line
        raise ValueError(_with_line(msg, line)) from None

    for key, low in (
        ("step", 0.0),
        ("half_width", 0.0),
        ("t_max", 0.0),
        ("residual_tol", 0.0),
        ("equiv_tol", 0.0),
        ("drift_tol", 0.0),
    ):
        if key in values and not values[key] > low:
            raise ValueError(
                _with_line(f"{key} must be positive", lines[key])
            )
    if "cycle_tol" in values and not 0.0 < values["cycle_tol"] < 1.0:
        raise ValueError(
            _with_line("cycle_tol must be in (0, 1)", lines["cycle_tol"])
        )
    if "traj_stride" in values and values["traj_stride"] < 1:
        raise ValueError(
            _with_line("traj_stride must be at least 1", lines["traj_stride"])
        )
    if "n_modes" in values and values["n_modes"] < 3:
        raise ValueError(
            _with_line("n_modes must be at least 3", lines["n_modes"])
        )
    if "delta_values" in values and any(d <= 0 for d in values["delta_values"]):
        raise ValueError(
            _with_line("delta_values must be positive", lines["delta_values"])
        )

    return RunConfig(
        mode=mode,
        gamma0=gamma0,
        omega0=omega0,
        rho0=rho0,
        delta=delta,
        omegaL=omegaL,
        step=values.get("step", defaults.step),
        cycle_tol=values.get("cycle_tol", defaults.cycle_tol),
        out=values.get("out", defaults.out),
        traj_stride=values.get("traj_stride", defaults.traj_stride),
        deltaL_values=values.get("deltaL_values", defaults.deltaL_values),
        delta_values=values.get("delta_values", defaults.delta_values),
        half_width=values.get("half_width", defaults.half_width),
        n_modes=values.get("n_modes", defaults.n_modes),
        t_max=values.get("t_max", defaults.t_max),
        residual_tol=values.get("residual_tol", defaults.residual_tol),
        equiv_tol=values.get("equiv_tol", defaults.equiv_tol),
        drift_tol=values.get("drift_tol", defaults.drift_tol),
    )


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    print(f"wrote {path}")


def _residual_violations(rep: ThermoReport, omega0: float, tol: float) -> list:
    checks = (
        ("res_first_law", rep.residual_first_law, tol * omega0),
        ("res_q_split", rep.residual_Q_split, tol * omega0),
        ("res_w_split", rep.residual_W_split, tol),
    )
    return [
        f"{name}={val:.6e} exceeds {thr:.6e}"
        for name, val, thr in checks
        if abs(val) > thr
    ]


def _effective_omegaL(config: RunConfig) -> float:
    return config.omegaL if config.omegaL is not None else config.omega0


def _step_cap(config: RunConfig) -> float:
    # Each mode clamps this cap well inside its integrator guard, so extreme
    # detunings or bandwidths stay accurate without a hand-tuned config.
    return DEFAULT_STEP_CAP if config.step is None else config.step


def _run_single(config: RunConfig, system: SystemParams) -> int:
    pulse = make_pulse(config.delta, _effective_omegaL(config), system)
    grid = full_cycle_grid(
        system,
        pulse,
        cycle_tol=config.cycle_tol,
        step=default_step(rate_scale(system, pulse), _step_cap(config)),
    )
    traj = closed_form_trajectory(system, pulse, grid)
    eff = effective_trajectory(traj)
    rep = thermo_report(traj)
    print(
        f"mode=single gamma0={system.gamma0:g} omega0={system.omega0:g} "
        f"delta={pulse.delta:g} deltaL={pulse.deltaL:g}"
    )
    print(rep.grid_meta)

    times = grid.times()
    stride = config.traj_stride
    rows = (
        (
            times[i],
            traj.psi[i].real,
            traj.psi[i].imag,
            eff.pop[i],
            eff.delta_eff[i],
            eff.gamma_t[i],
            eff.h_int[i],
            bool(eff.valid_mask[i]),
        )
        for i in range(0, grid.n, stride)
    )
    _write_csv(f"{config.out}_trajectory.csv", _TRAJ_HEADER, rows)
    summary = (
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
    )
    _write_csv(f"{config.out}_summary.csv", _SUMMARY_HEADER, [summary])
    for name, val in zip(_SUMMARY_HEADER.split(","), summary):
        print(f"{name} = {val:.9g}")

    violations = _residual_violations(rep, system.omega0, config.residual_tol)
    for v in violations:
        print(f"residual violation: {v}", file=sys.stderr)
    return 2 if violations else 0


def _run_detuning(config: RunConfig, system: SystemParams) -> int:
    # One step for every point keeps mirrored detunings on identical
    # grids, so the antisymmetry residual is a pure physics statement.
    rate = max(
        system.gamma0,
        config.delta,
        max((abs(d) for d in config.deltaL_values), default=0.0),
    )
    scan = detuning_scan(
        system,
        config.delta,
        config.deltaL_values,
        step=default_step(rate, _step_cap(config)),
        cycle_tol=config.cycle_tol,
    )
    print(
        f"mode=detuning_scan delta={config.delta:g} "
        f"points={len(scan.deltaL)}"
    )
    rows = zip(scan.deltaL, scan.W1, scan.Q1, scan.Q1_abs, scan.Q1_em)
    _write_csv(f"{config.out}_scan.csv", "deltaL,W1,Q1,Q1_abs,Q1_em", rows)
    for d, resid in scan.antisymmetry:
        print(f"antisymmetry |W1({d:g}) + W1({-d:g})| = {resid:.3e}")

    violations = []
    thr_w0 = config.residual_tol * system.omega0
    for i, d in enumerate(scan.deltaL):
        for name, arr, thr in (
            ("res_first_law", scan.res_first_law, thr_w0),
            ("res_q_split", scan.res_q_split, thr_w0),
            ("res_w_split", scan.res_w_split, config.residual_tol),
        ):
            if abs(arr[i]) > thr:
                violations.append(
                    f"{name}={arr[i]:.6e} exceeds {thr:.6e} at deltaL={d:g}"
                )
    for v in violations:
        print(f"residual violation: {v}", file=sys.stderr)
    return 2 if violations else 0


def _run_equivalence(config: RunConfig, system: SystemParams, deltas) -> int:
    omegaL = _effective_omegaL(config)
    rows = []
    reports = []
    for d in deltas:
        pulse = make_pulse(d, omegaL, system)
        # Without a configured step the comparison picks its own, coarser
        # cap: narrowband grids are long.
        step = None
        if config.step is not None:
            step = default_step(rate_scale(system, pulse), config.step)
        rep = compare_equivalences(
            system, pulse, step=step, cycle_tol=config.cycle_tol
        )
        reports.append(rep)
        rows.append(
            (
                d,
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
        )
        print(
            f"delta={d:g}: rel_err_work_reactive={rep.rel_err_work_reactive:.4g} "
            f"rel_err_heat_absorbed={rep.rel_err_heat_absorbed:.4g} "
            f"rel_err_heat_emitted={rep.rel_err_heat_emitted:.4g} "
            f"in_regime={int(rep.regime.in_regime)}"
        )
    _write_csv(f"{config.out}_equivalence.csv", _EQUIV_HEADER, rows)

    violations = []
    for d, rep in zip(deltas, reports):
        if not rep.regime.in_regime:
            continue
        for name, val in (
            ("rel_err_work_reactive", rep.rel_err_work_reactive),
            ("rel_err_heat_absorbed", rep.rel_err_heat_absorbed),
            ("rel_err_heat_emitted", rep.rel_err_heat_emitted),
        ):
            if val > config.equiv_tol:
                violations.append(
                    f"{name}={val:.6e} exceeds {config.equiv_tol:.6e} "
                    f"at delta={d:g}"
                )
    for v in violations:
        print(f"residual violation: {v}", file=sys.stderr)
    return 2 if violations else 0


def _run_oracle(config: RunConfig, system: SystemParams) -> int:
    pulse = make_pulse(config.delta, _effective_omegaL(config), system)
    envelope = PulseEnvelope(pulse, system)
    mode_grid = make_mode_grid(system, config.half_width, config.n_modes)
    state = init_single_photon(mode_grid, envelope)
    step = min(_step_cap(config), oracle_step(mode_grid.half_width, system.gamma0))
    grid = uniform_grid(config.t_max, step)
    try:
        otraj = propagate(
            state, mode_grid, system, grid, drift_tol=config.drift_tol
        )
    except NormDriftError as exc:
        print(f"residual violation: norm_drift: {exc}", file=sys.stderr)
        return 2
    closed = closed_form_psi(system, pulse, grid.times())
    abs_err = np.abs(np.abs(otraj.psi) - np.abs(closed))
    drift = np.abs(1.0 - otraj.norm)
    times = grid.times()
    rows = (
        (times[i], abs(otraj.psi[i]), abs(closed[i]), abs_err[i], drift[i])
        for i in range(0, grid.n, config.traj_stride)
    )
    _write_csv(
        f"{config.out}_oracle.csv",
        "t,psi_abs,psi_closed_abs,abs_err,norm_drift",
        rows,
    )
    print(
        f"mode=oracle_check half_width={mode_grid.half_width:g} "
        f"n_modes={mode_grid.n_modes} captured_mass={state.captured_mass:.6f}"
    )
    print(
        f"max_abs_err = {float(abs_err.max()):.6e}  "
        f"max_norm_drift = {float(drift.max()):.6e}  "
        f"window_ok = {int(otraj.window_ok)}  "
        f"recurrence_ok = {int(otraj.recurrence_ok)}"
    )
    return 0


def run(config: RunConfig) -> int:
    """Execute one config; write artifacts next to the ``out`` prefix.

    Returns the process exit status: 0 on success, 2 when an enforced
    residual exceeds its tolerance.
    """
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
    parser.add_argument(
        "--step", type=float, help="grid step override (overrides config)"
    )
    parser.add_argument(
        "--cycle-tol",
        type=float,
        dest="cycle_tol",
        help="full-cycle population tolerance (overrides config)",
    )
    args = parser.parse_args(argv)
    try:
        if args.config == "-":
            text = sys.stdin.read()
        else:
            text = Path(args.config).read_text()
        config = parse_config(text)
        if args.out is not None:
            config = replace(config, out=args.out)
        if args.step is not None:
            if args.step <= 0:
                raise ValueError("step must be positive")
            config = replace(config, step=args.step)
        if args.cycle_tol is not None:
            if not 0.0 < args.cycle_tol < 1.0:
                raise ValueError("cycle_tol must be in (0, 1)")
            config = replace(config, cycle_tol=args.cycle_tol)
        return run(config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""The four benchmark workloads: generated configs and output checks.

Each workload draws its detunings from fixed ranges with a seeded
generator and writes one ``photon-work`` config; the program sees only
that config.  Bandwidths, steps and windows are fixed, so the amount of
work barely moves with the seed.

``check`` reads the CSV files and the captured stdout of one run and
returns a list of problems (empty when the run is correct).  Every value
is compared with :mod:`refs`, which never imports the program, or with a
property the method must have.  The tolerances and their reasons are
listed in README.md.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import refs

GAMMA0 = 1.0
OMEGA0 = 100.0
RHO0 = 1.0 / (2.0 * math.pi)

# Documented program constants the checks rely on.
VALID_ETA = 1e-12  # effective parameters are masked below eta * max(pop)
REL_ERR_FLOOR = 1e-8  # relative-error denominator floor of the equivalences
REGIME_DELTA_MAX = 0.01  # narrowband limit, in units of gamma0
REGIME_POP_MAX = 0.02  # low-excitation limit on both peak populations
ORACLE_ABS_TOL = 1e-2  # criterion 4: oracle |psi| against the closed form

# Tolerances on values the program and the references both evaluate in
# closed form: a few hundred ulps of the largest magnitude in the column.
CLOSED_FORM_RTOL = 1e-12
# Tolerance on values recomputed from other columns of the same file.
ARITH_RTOL = 1e-14


def render_config(config: dict) -> str:
    """Flat key=value text; floats use repr, which round-trips exactly."""
    lines = []
    for key, val in config.items():
        if isinstance(val, tuple):
            val = ",".join(repr(v) for v in val)
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{key}={val}")
    return "\n".join(lines) + "\n"


def _system(mode: str) -> dict:
    return {"mode": mode, "gamma0": GAMMA0, "omega0": OMEGA0, "rho0": RHO0}


def _model(config: dict, delta: float, deltaL: float) -> refs.Model:
    return refs.Model(
        config["gamma0"], config["omega0"], config["rho0"], delta, deltaL
    )


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


class Problems(list):
    """Collects one message per failed comparison."""

    def close(self, label: str, got, want, tol) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        tol = np.broadcast_to(np.asarray(tol, dtype=float), want.shape)
        if got.shape != want.shape:
            self.append(f"{label}: {got.size} values, expected {want.size}")
            return
        dev = np.abs(got - want)
        bad = ~(dev <= tol)
        if np.any(bad):
            k = int(np.flatnonzero(bad.ravel())[0])
            self.append(
                f"{label}: {int(bad.sum())} value(s) off, first at {k}: "
                f"{got.ravel()[k]!r} vs {want.ravel()[k]!r} (tol {tol.ravel()[k]:.3g})"
            )

    def require(self, label: str, ok: bool) -> None:
        if not ok:
            self.append(label)


def read_csv(path: Path) -> dict:
    """Columns of a CSV written by the program, by header name."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _columns(problems: Problems, path: Path, names) -> dict | None:
    if not path.is_file():
        problems.append(f"missing output {path.name}")
        return None
    cols = read_csv(path)
    missing = [n for n in names if n not in cols]
    if missing:
        problems.append(f"{path.name}: missing columns {missing}")
        return None
    return cols


def _stdout_value(problems: Problems, stdout: str, pattern: str):
    found = re.search(pattern, stdout)
    if found is None:
        problems.append(f"stdout lacks {pattern!r}")
        return None
    return found.group(1)


def _check_times(problems: Problems, t, stride: int, max_step: float) -> float:
    """Uniform times k * stride * h from 0; returns h."""
    rows = len(t)
    if rows < 2:
        problems.append("fewer than two rows")
        return max_step
    h = float(t[-1]) / ((rows - 1) * stride)
    want = np.arange(rows) * stride * h
    problems.close("t", t, want, 1e-12 * want + 1e-15)
    problems.require(
        f"step {h!r} exceeds the config step {max_step!r}", h <= max_step * (1 + 1e-12)
    )
    return h


def _check_effective(problems: Problems, cols: dict, m: refs.Model, t) -> None:
    """Trajectory columns against the closed form, sample by sample."""
    ps = refs.psi(m, t)
    ph = refs.phi(m, t)
    scale = float(np.max(np.abs(ps)))
    tol_psi = CLOSED_FORM_RTOL * scale
    problems.close("psi_re", cols["psi_re"], ps.real, tol_psi)
    problems.close("psi_im", cols["psi_im"], ps.imag, tol_psi)
    pop = np.abs(ps) ** 2
    problems.close("pop", cols["pop"], pop, 2.0 * tol_psi * scale)
    z = ph * np.conj(ps)
    h_int = 2.0 * m.g * z.imag
    problems.close(
        "h_int", cols["h_int"], h_int, CLOSED_FORM_RTOL * float(np.max(np.abs(h_int)))
    )

    threshold = VALID_ETA * float(pop.max())
    clear = np.abs(pop - threshold) > 1e-6 * threshold
    valid = pop >= threshold
    problems.close("valid", cols["valid"][clear], valid[clear].astype(float), 0.0)
    masked = clear & ~valid
    for name in ("delta_eff", "gamma_t"):
        problems.require(
            f"{name}: value where the population is masked",
            bool(np.all(np.isnan(cols[name][masked]))),
        )
    keep = clear & valid
    ratio = ph[keep] / ps[keep]
    # A ratio carries the closed form's rounding divided by |psi|.
    tol_ratio = CLOSED_FORM_RTOL * m.g * np.abs(ph[keep]) * scale / np.abs(ps[keep])
    problems.close("delta_eff", cols["delta_eff"][keep], m.g * ratio.imag, tol_ratio)
    problems.close(
        "gamma_t", cols["gamma_t"][keep], m.gamma0 + 2.0 * m.g * ratio.real, 2.0 * tol_ratio
    )


# --- single_trajectory ----------------------------------------------------

_SUMMARY = ("W1", "Q1", "Q1_abs", "Q1_em", "W1_int", "W1_reac", "dU")
_TRAJ = ("t", "psi_re", "psi_im", "pop", "delta_eff", "gamma_t", "h_int", "valid")


def single_config(seed: int) -> dict:
    rng = random.Random(f"single_trajectory/{seed}")
    return {
        **_system("single"),
        "delta": 0.3,
        "deltaL": _signed(rng, 0.3, 0.7),
        "step": 1e-3,
        "cycle_tol": 1e-12,
        "traj_stride": 1,
        "residual_tol": 1e-8,
    }


def single_reference(config: dict) -> dict:
    return refs.quantum_values(_model(config, config["delta"], config["deltaL"]))


def _check_residuals(problems: Problems, row: dict, config: dict) -> None:
    tol = config["residual_tol"]
    w0 = config["omega0"]
    # Each residual is the first value minus the sum of the other two.
    for name, (first, second, third), limit in (
        ("res_first_law", ("dU", "W1", "Q1"), tol * w0),
        ("res_q_split", ("Q1", "Q1_abs", "Q1_em"), tol * w0),
        ("res_w_split", ("W1", "W1_int", "W1_reac"), tol),
    ):
        value = row[name]
        want = row[first] - (row[second] + row[third])
        scale = abs(row[first]) + abs(row[second]) + abs(row[third])
        problems.close(name, value, want, ARITH_RTOL * scale)
        problems.require(f"{name} = {value!r} exceeds {limit!r}", abs(value) <= limit)


def single_check(config: dict, out: Path, stdout: str, ref: dict) -> list:
    problems = Problems()
    m = _model(config, config["delta"], config["deltaL"])
    n = _stdout_value(problems, stdout, r"trapezoid n=(\d+)")
    traj = _columns(problems, out.with_name(out.name + "_trajectory.csv"), _TRAJ)
    summ = _columns(
        problems,
        out.with_name(out.name + "_summary.csv"),
        _SUMMARY + ("res_first_law", "res_q_split", "res_w_split"),
    )
    if traj is not None and n is not None:
        stride = config["traj_stride"]
        t = traj["t"]
        problems.require(
            f"{len(t)} trajectory rows, expected ceil({n}/{stride})",
            len(t) == math.ceil(int(n) / stride),
        )
        h = _check_times(problems, t, stride, config["step"])
        t_end = (int(n) - 1) * h
        problems.require(
            "grid ends before the emitter has re-radiated",
            abs(refs.psi(m, t_end)) ** 2 <= config["cycle_tol"],
        )
        _check_effective(problems, traj, m, t)
    if summ is not None:
        if len(summ["W1"]) != 1:
            problems.append(f"summary has {len(summ['W1'])} rows")
        else:
            row = {k: float(v[0]) for k, v in summ.items()}
            for name in _SUMMARY:
                want = ref[name]
                problems.close(name, row[name], want.value, want.tolerance(config["step"]))
            _check_residuals(problems, row, config)
    return problems


# --- bandwidth_equivalence ------------------------------------------------

_EQUIV = (
    "delta",
    "w1",
    "w_reac_alpha",
    "q1_abs",
    "w_abs_alpha",
    "q1_em",
    "q_alpha",
    "rel_err_work_reactive",
    "rel_err_heat_absorbed",
    "rel_err_heat_emitted",
    "delta_over_gamma0",
    "max_pop_quantum",
    "max_pop_semiclassical",
    "in_regime",
)
_PAIRS = (
    ("rel_err_work_reactive", "w1", "w_reac_alpha"),
    ("rel_err_heat_absorbed", "q1_abs", "w_abs_alpha"),
    ("rel_err_heat_emitted", "q1_em", "q_alpha"),
)


def bandwidth_config(seed: int) -> dict:
    rng = random.Random(f"bandwidth_equivalence/{seed}")
    return {
        **_system("bandwidth_scan"),
        "delta_values": (0.1, 10.0**-1.5, 0.01),
        "deltaL": _signed(rng, 0.15, 0.3),
        "step": 1e-2,
        "cycle_tol": 1e-12,
        "equiv_tol": 0.05,
    }


@dataclass(frozen=True)
class BandPoint:
    quantum: dict
    peak: refs.Peak
    drive: refs.DriveReference


def bandwidth_reference(config: dict) -> list:
    points = []
    for delta in config["delta_values"]:
        m = _model(config, delta, config["deltaL"])
        points.append(
            BandPoint(
                refs.quantum_values(m, ("W1", "Q1_abs", "Q1_em")),
                refs.quantum_peak(m),
                refs.drive_reference(m),
            )
        )
    return points


def _rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), REL_ERR_FLOOR)


def bandwidth_check(config: dict, out: Path, stdout: str, ref: list) -> list:
    problems = Problems()
    cols = _columns(problems, out.with_name(out.name + "_equivalence.csv"), _EQUIV)
    if cols is None:
        return problems
    deltas = np.array(config["delta_values"])
    if len(cols["delta"]) != len(deltas):
        problems.append(f"{len(cols['delta'])} rows, expected {len(deltas)}")
        return problems
    h = config["step"]
    problems.close("delta", cols["delta"], deltas, 0.0)
    for i, point in enumerate(ref):
        at = f" at delta={deltas[i]:g}"
        for col, key in (("w1", "W1"), ("q1_abs", "Q1_abs"), ("q1_em", "Q1_em")):
            want = point.quantum[key]
            problems.close(col + at, cols[col][i], want.value, want.tolerance(h))
        for col, want in (
            ("w_reac_alpha", point.drive.W_reac),
            ("w_abs_alpha", point.drive.W_abs),
            ("q_alpha", point.drive.Q_alpha),
        ):
            problems.close(col + at, cols[col][i], want.value, want.tolerance(h))
        for col, peak in (
            ("max_pop_quantum", point.peak),
            ("max_pop_semiclassical", point.drive.peak),
        ):
            lo, hi = peak.grid_bounds(h)
            got = float(cols[col][i])
            problems.require(f"{col}{at} = {got!r} outside [{lo!r}, {hi!r}]", lo <= got <= hi)

    for err, a, b in _PAIRS:
        want = _rel_err(cols[a], cols[b])
        problems.close(err, cols[err], want, ARITH_RTOL * want + 1e-300)
    ratio = deltas / config["gamma0"]
    problems.close("delta_over_gamma0", cols["delta_over_gamma0"], ratio, ARITH_RTOL * ratio)
    regime = (
        (cols["delta_over_gamma0"] <= REGIME_DELTA_MAX * (1.0 + 1e-12))
        & (cols["max_pop_quantum"] <= REGIME_POP_MAX)
        & (cols["max_pop_semiclassical"] <= REGIME_POP_MAX)
    )
    problems.close("in_regime", cols["in_regime"], regime.astype(float), 0.0)
    problems.require("narrowest bandwidth is not in regime", bool(cols["in_regime"][-1] == 1))

    order = np.argsort(-deltas)
    for err, _, _ in _PAIRS:
        values = cols[err]
        in_regime = cols["in_regime"] == 1
        problems.require(
            f"{err} above equiv_tol in regime",
            bool(np.all(values[in_regime] <= config["equiv_tol"])),
        )
        problems.require(
            f"{err} does not shrink with the bandwidth: {list(values[order])}",
            bool(np.all(np.diff(values[order]) < 0)),
        )
    return problems


# --- detuning_sweep -------------------------------------------------------

_SCAN = ("deltaL", "W1", "Q1", "Q1_abs", "Q1_em")


def sweep_config(seed: int) -> dict:
    rng = random.Random(f"detuning_sweep/{seed}")
    # One log-uniform detuning per bin, so the sweep always spans the range.
    edges = np.geomspace(0.05, 20.0, 9)
    mags = [
        math.exp(rng.uniform(math.log(lo), math.log(hi)))
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    return {
        **_system("detuning_scan"),
        "delta": 0.03,
        "deltaL_values": tuple(sorted([-d for d in mags] + mags)),
        "step": 1e-3,
        "cycle_tol": 1e-12,
        "residual_tol": 1e-8,
    }


def sweep_reference(config: dict) -> list:
    return [
        refs.quantum_values(_model(config, config["delta"], d), _SCAN[1:])
        for d in config["deltaL_values"]
    ]


def sweep_check(config: dict, out: Path, stdout: str, ref: list) -> list:
    problems = Problems()
    cols = _columns(problems, out.with_name(out.name + "_scan.csv"), _SCAN)
    if cols is None:
        return problems
    detunings = np.array(config["deltaL_values"])
    if len(cols["deltaL"]) != len(detunings):
        problems.append(f"{len(cols['deltaL'])} rows, expected {len(detunings)}")
        return problems
    problems.close("deltaL", cols["deltaL"], detunings, 0.0)
    h = config["step"]
    for i, values in enumerate(ref):
        for name in _SCAN[1:]:
            want = values[name]
            problems.close(
                f"{name} at deltaL={detunings[i]:g}", cols[name][i], want.value, want.tolerance(h)
            )
    # The heat split closes at rounding level on any grid.
    split = cols["Q1_abs"] + cols["Q1_em"]
    scale = np.abs(cols["Q1_abs"]) + np.abs(cols["Q1_em"])
    problems.close("Q1 - (Q1_abs + Q1_em)", cols["Q1"], split, ARITH_RTOL * scale)
    # W1 is odd in the detuning.
    for i, d in enumerate(detunings):
        j = int(np.flatnonzero(detunings == -d)[0])
        if d > 0:
            tol = ref[i]["W1"].tolerance(h) + ref[j]["W1"].tolerance(h)
            problems.close(f"W1({d:g}) + W1({-d:g})", cols["W1"][i] + cols["W1"][j], 0.0, tol)
    return problems


# --- oracle_continuum -----------------------------------------------------

_ORACLE = ("t", "psi_abs", "psi_closed_abs", "abs_err", "norm_drift")


def oracle_config(seed: int) -> dict:
    rng = random.Random(f"oracle_continuum/{seed}")
    return {
        **_system("oracle_check"),
        "delta": 0.25,
        "deltaL": _signed(rng, 0.2, 0.8),
        "half_width": 100.0,
        "n_modes": 4001,
        "t_max": 5.0,
        "step": 1e-3,
        "drift_tol": 1e-9,
        "traj_stride": 1,
    }


def oracle_reference(config: dict) -> None:
    return None


def oracle_check(config: dict, out: Path, stdout: str, ref) -> list:
    problems = Problems()
    for flag in ("window_ok", "recurrence_ok"):
        value = _stdout_value(problems, stdout, rf"{flag} = (\d+)")
        problems.require(f"{flag} = {value}", value is None or value == "1")
    cols = _columns(problems, out.with_name(out.name + "_oracle.csv"), _ORACLE)
    if cols is None:
        return problems
    t = cols["t"]
    stride = config["traj_stride"]
    h = _check_times(problems, t, stride, config["step"])
    t_max = config["t_max"]
    t_end = float(t[-1])
    problems.require(
        f"grid ends at {t_end!r}, not within one step past t_max",
        t_max * (1 - 1e-12) <= t_end < t_max + stride * h,
    )
    m = _model(config, config["delta"], config["deltaL"])
    closed = np.abs(refs.psi(m, t))
    problems.close(
        "psi_closed_abs", cols["psi_closed_abs"], closed, CLOSED_FORM_RTOL * float(closed.max())
    )
    problems.close("psi_abs", cols["psi_abs"], closed, ORACLE_ABS_TOL)
    err = np.abs(cols["psi_abs"] - cols["psi_closed_abs"])
    problems.close("abs_err", cols["abs_err"], err, ARITH_RTOL * float(closed.max()))
    drift = cols["norm_drift"]
    problems.require(
        f"norm_drift outside [0, {config['drift_tol']!r}]",
        bool(np.all((drift >= 0.0) & (drift <= config["drift_tol"]))),
    )
    for label, column in (("max_abs_err", err), ("max_norm_drift", drift)):
        printed = _stdout_value(problems, stdout, rf"{label} = (\S+)")
        if printed is not None:
            # Printed with seven significant digits.
            problems.close(label, float(printed), float(column.max()), 1e-6 * float(column.max()))
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_config: Callable[[int], dict]
    reference: Callable[[dict], object]
    check: Callable[[dict, Path, str, object], list]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "single_trajectory",
            "mode=single with a 178k-row trajectory CSV: the row writer in cli takes almost all the time",
            single_config,
            single_reference,
            single_check,
        ),
        Workload(
            "bandwidth_equivalence",
            "mode=bandwidth_scan down to the in-regime bandwidth: the pure-Python Bloch RK4 dominates",
            bandwidth_config,
            bandwidth_reference,
            bandwidth_check,
        ),
        Workload(
            "detuning_sweep",
            "mode=detuning_scan over 16 mirrored detunings: closed-form grids and thermo sums on the thread pool",
            sweep_config,
            sweep_reference,
            sweep_check,
        ),
        Workload(
            "oracle_continuum",
            "mode=oracle_check on a 4001-mode comb: oracle RK4 propagation dominates, with a 25k-row CSV",
            oracle_config,
            oracle_reference,
            oracle_check,
        ),
    )
}

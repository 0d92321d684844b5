"""Session fixtures: the randomized run set and other expensive artifacts.

The run set drives the first-law, split, and closed-form-vs-ODE checks:
run 0 is always the confluent resonant case and the remaining 49 draw
bandwidth log-uniformly over [0.01, 10] and detuning uniformly over
[-5, 5] from a fixed seed, so failures reproduce; the Hypothesis
examples are pinned the same way.  Wall-clock time is recorded per phase
(thermo, ODE comparison, Bloch decomposition) for the runtime assertions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from photon_work.analysis import compare_equivalences
from photon_work.dynamics import (
    closed_form_psi,
    closed_form_trajectory,
    full_cycle_grid,
    integrate_psi,
)
from photon_work.effective import EffectiveTrajectory, effective_trajectory
from photon_work.model import (
    PulseParams,
    SystemParams,
    make_pulse,
    make_system,
    uniform_grid,
)
from photon_work.oracle import init_single_photon, make_mode_grid, propagate
from photon_work.semiclassical import (
    SemiclassicalReport,
    head_grid,
    integrate_bloch,
    work_total_and_decomposition,
)
from photon_work.thermo import ThermoReport, thermo_report

RUN_SEED = 20240817
N_RUNS = 50

# Every run draws the same Hypothesis examples, with or without a local
# example database; each test keeps its own max_examples.
settings.register_profile("pinned", derandomize=True, database=None)
settings.load_profile("pinned")


def run_step(rate: float) -> float:
    """Step policy for the randomized set: fine enough for tight ODE
    agreement while keeping the whole set inside the runtime budget."""
    return min(4e-3, 0.02 / rate)


@dataclass(frozen=True)
class RunRecord:
    """Scalar results of one randomized run (arrays are not kept)."""

    pulse: PulseParams
    n_samples: int
    report: ThermoReport
    sreport: SemiclassicalReport
    ode_max_diff: float


@dataclass(frozen=True)
class RunSet:
    system: SystemParams
    records: tuple
    timings: dict


@pytest.fixture(scope="session")
def system() -> SystemParams:
    return make_system()


@pytest.fixture(scope="session")
def sys1(system) -> SystemParams:
    """The default system again; SystemParams is frozen, so sharing it is safe."""
    return system


@pytest.fixture(scope="session")
def run_set(system) -> RunSet:
    rng = np.random.default_rng(RUN_SEED)
    params = [(1.0, 0.0)]
    while len(params) < N_RUNS:
        params.append((float(10.0 ** rng.uniform(-2, 1)), float(rng.uniform(-5, 5))))

    records = []
    timings = {"thermo": 0.0, "ode": 0.0, "bloch": 0.0}
    for delta, deltaL in params:
        pulse = make_pulse(delta, deltaL)
        rate = max(system.gamma0, delta, abs(deltaL))
        step = run_step(rate)

        t0 = time.perf_counter()
        grid = full_cycle_grid(system, pulse, cycle_tol=1e-12, max_step=step)
        traj = closed_form_trajectory(system, pulse, grid)
        report = thermo_report(traj)
        timings["thermo"] += time.perf_counter() - t0

        t0 = time.perf_counter()
        ode = integrate_psi(system, pulse, grid)
        ode_max_diff = float(np.max(np.abs(ode.psi - traj.psi)))
        timings["ode"] += time.perf_counter() - t0
        del ode, traj

        t0 = time.perf_counter()
        btraj = integrate_bloch(system, pulse, grid)
        sreport = work_total_and_decomposition(btraj)
        timings["bloch"] += time.perf_counter() - t0
        del btraj

        records.append(
            RunRecord(
                pulse=pulse,
                n_samples=grid.n,
                report=report,
                sreport=sreport,
                ode_max_diff=ode_max_diff,
            )
        )
    return RunSet(system=system, records=tuple(records), timings=timings)


@dataclass(frozen=True)
class ConfluentRun:
    """Fine-grid confluent resonant benchmark (peak absorption case)."""

    system: SystemParams
    pulse: PulseParams
    grid: object
    traj: object
    eff: EffectiveTrajectory
    report: ThermoReport


@pytest.fixture(scope="session")
def confluent_run(system) -> ConfluentRun:
    pulse = make_pulse(1.0)
    grid = full_cycle_grid(system, pulse, cycle_tol=1e-12, max_step=1e-4)
    traj = closed_form_trajectory(system, pulse, grid)
    return ConfluentRun(
        system=system,
        pulse=pulse,
        grid=grid,
        traj=traj,
        eff=effective_trajectory(traj),
        report=thermo_report(traj),
    )


@dataclass(frozen=True)
class OracleRun:
    half_width: float
    n_modes: int
    captured_mass: float
    max_abs_err: float
    max_drift: float
    recurrence_ok: bool
    window_ok: bool
    runtime: float


def _oracle_case(system, pulse, half_width, n_modes, t_max=10.0) -> OracleRun:
    t0 = time.perf_counter()
    mode_grid = make_mode_grid(system, half_width=half_width, n_modes=n_modes)
    state = init_single_photon(system, pulse, mode_grid)
    # Sampled at 0.02 / W, the steps criterion 4 was first checked on.
    grid = uniform_grid(t_max, 0.02 / half_width)
    traj = propagate(state, mode_grid, grid)
    runtime = time.perf_counter() - t0
    closed = closed_form_psi(system, pulse, grid.times())
    return OracleRun(
        half_width=half_width,
        n_modes=n_modes,
        captured_mass=state.captured_mass,
        max_abs_err=float(np.max(np.abs(np.abs(traj.psi) - np.abs(closed)))),
        max_drift=traj.drift,
        recurrence_ok=traj.recurrence_ok,
        window_ok=state.window_ok,
        runtime=runtime,
    )


@pytest.fixture(scope="session")
def oracle_pair(system):
    """Confluent resonant oracle runs at W = 100 and the doubled window."""
    pulse = make_pulse(1.0)
    base = _oracle_case(system, pulse, 100.0, 4001)
    doubled = _oracle_case(system, pulse, 200.0, 8001)
    return base, doubled


@pytest.fixture(scope="session")
def equivalence_pair(system):
    """Equivalence reports at the narrowband point and one decade below."""
    out = {}
    timings = {}
    for delta in (0.01, 0.001):
        pulse = make_pulse(delta, 0.2)
        t0 = time.perf_counter()
        out[delta] = compare_equivalences(system, pulse)
        timings[delta] = time.perf_counter() - t0
    return out, timings


# (delta, deltaL) of the weak-drive heads; (1, 0.2) is at matched bandwidth.
WEAK_FIELD_CELLS = (
    (0.3, 1.0), (0.1, 0.2), (0.01, 0.2), (2.0, -3.0), (5.0, 0.5), (0.5, 5.0), (1.0, 0.2)
)


@pytest.fixture(scope="session")
def weak_field_heads(system):
    """W_reac, W_abs and Q_alpha over eps^2 of the drive's head and tail
    at amplitude scales eps = 2e-3 and 1e-3, by (delta, deltaL)."""
    out = {}
    for cell in WEAK_FIELD_CELLS:
        pulse = make_pulse(*cell)
        grid = head_grid(system, pulse)
        out[cell] = []
        for eps in (2e-3, 1e-3):
            rep = work_total_and_decomposition(
                integrate_bloch(system, pulse, grid, amplitude_scale=eps)
            )
            out[cell].append(np.array([rep.W_reac, rep.W_abs, rep.Q_alpha]) / eps**2)
    return out

"""Domain types: derived coupling, detuning, grids, validation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from photon_work.model import check_step, make_pulse, make_system, uniform_grid

_positive = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def test_default_coupling_is_sqrt_half():
    system = make_system(1.0, 100.0, 1.0 / (2.0 * math.pi))
    assert system.g == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_quarter_pi_density_gives_unit_coupling():
    system = make_system(1.0, 100.0, 1.0 / (4.0 * math.pi))
    assert system.g == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(gamma0=0.0), "gamma0"),
        (dict(gamma0=-1.0), "gamma0"),
        (dict(omega0=0.0), "omega0"),
        (dict(rho0=0.0), "rho0"),
        (dict(rho0=float("nan")), "rho0"),
    ],
)
def test_make_system_validation(kwargs, field):
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        make_system(**{**dict(gamma0=1.0, omega0=100.0, rho0=1.0), **kwargs})


@given(gamma0=_positive, rho0=_positive)
def test_decay_rate_coupling_relation(gamma0, rho0):
    # gamma0 = 4 pi g^2 rho0 must hold to rounding for any valid inputs.
    system = make_system(gamma0, 100.0, rho0)
    assert abs(gamma0 - 4.0 * math.pi * system.g**2 * rho0) < 1e-12 * gamma0


def test_make_pulse_detuning():
    assert make_pulse(1.0).deltaL == 0.0
    assert make_pulse(0.01, 0.5).deltaL == 0.5
    assert make_pulse(2.0, -1.0).deltaL == -1.0


def test_make_pulse_validation():
    with pytest.raises(ValueError, match="delta must be positive"):
        make_pulse(-1.0)
    with pytest.raises(ValueError, match="delta must be positive"):
        make_pulse(0.0)
    with pytest.raises(ValueError, match="deltaL must be finite"):
        make_pulse(1.0, float("inf"))


def test_params_are_immutable():
    system = make_system()
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.gamma0 = 2.0
    pulse = make_pulse(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pulse.delta = 2.0


def test_uniform_grid_shape():
    grid = uniform_grid(10.0, 0.5)
    times = grid.times()
    assert grid.n == 21
    assert grid.spacing == 0.5
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(grid.tf)
    assert np.all(np.diff(times) > 0.0)


def test_uniform_grid_rounds_horizon_up():
    # tf is stretched to a whole number of steps, never shrunk.
    grid = uniform_grid(1.0, 0.3)
    assert grid.n == 5
    assert grid.tf == pytest.approx(1.2)


def test_uniform_grid_validation():
    with pytest.raises(ValueError, match="tf must be positive"):
        uniform_grid(0.0, 0.1)
    with pytest.raises(ValueError, match="step must be positive"):
        uniform_grid(1.0, 0.0)


def test_step_guard_limit_is_a_twentieth_of_the_fastest_rate():
    # The fastest rate here is |deltaL| = 20, so the limit is 0.05 / 20.
    system = make_system()
    pulse = make_pulse(1.0, 20.0)
    check_step(0.0025, system, pulse)
    with pytest.raises(
        ValueError,
        match=r"^step 0\.0026 too large: need step <= 0\.0025 for rates "
        r"\(gamma0=1, delta=1, deltaL=20\)$",
    ):
        check_step(0.0026, system, pulse)


def test_time_rescaling_invariance():
    """Rescaling (gamma0, delta, deltaL, t) -> (s gamma0, s delta, s deltaL,
    t/s) with omega0 co-scaled leaves populations and W1/(hbar gamma0)
    invariant; checks the unit convention end to end."""
    from photon_work.dynamics import closed_form_trajectory, full_cycle_grid
    from photon_work.thermo import thermo_report

    s = 3.0
    base_sys = make_system(1.0, 100.0)
    base_pulse = make_pulse(0.5, 0.3)
    scaled_sys = make_system(s, s * 100.0)
    scaled_pulse = make_pulse(s * 0.5, s * 0.3)

    grid = full_cycle_grid(base_sys, base_pulse, cycle_tol=1e-12, max_step=1e-3)
    grid_s = full_cycle_grid(
        scaled_sys, scaled_pulse, cycle_tol=1e-12, max_step=1e-3 / s
    )
    traj = closed_form_trajectory(base_sys, base_pulse, grid)
    traj_s = closed_form_trajectory(scaled_sys, scaled_pulse, grid_s)
    n = min(grid.n, grid_s.n)
    # Same dimensionless times: t_k / s on the scaled grid.
    assert np.max(np.abs(traj.psi[:n] - traj_s.psi[:n])) < 1e-9

    w1 = thermo_report(traj).W1
    w1_s = thermo_report(traj_s).W1 / s
    assert w1_s == pytest.approx(w1, rel=1e-6, abs=1e-10)

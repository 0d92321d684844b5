"""Energy balance: work W1, generalized heat Q1, exact decompositions."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photon_work.dynamics import closed_form_trajectory, full_cycle_grid, integrate_psi
from photon_work.model import TimeGrid, make_pulse, make_system, uniform_grid
from photon_work.thermo import energy_moments, thermo_report


@pytest.fixture(scope="module")
def detuned_run(sys1):
    """A generic full cycle with both detuning and bandwidth mismatch."""
    pulse = make_pulse(0.3, 0.7)
    grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-12, max_step=1e-3)
    traj = closed_form_trajectory(sys1, pulse, grid)
    return traj, thermo_report(traj)


def test_internal_energy_at_confluent_peak(confluent_run):
    # U(2) = omega0 * 2 e^{-2}; the shift term vanishes on resonance.
    eff = confluent_run.eff

    def internal_energy(k):
        return confluent_run.system.omega0 * eff.pop[k] + 0.5 * eff.h_int[k]

    k = round(2.0 / confluent_run.grid.spacing)
    expected = 100.0 * 2.0 * math.exp(-2.0)
    assert internal_energy(k) == pytest.approx(expected, rel=1e-9)
    assert internal_energy(0) == 0.0


def test_confluent_half_cycle_heat(sys1):
    """Up to the population peak the emitter has absorbed exactly the
    internal energy it holds there: no work flows on resonance."""
    pulse = make_pulse(1.0)
    traj = closed_form_trajectory(sys1, pulse, uniform_grid(2.0, 1e-4))
    expected = 100.0 * 2.0 * math.exp(-2.0)
    rep = thermo_report(traj, allow_partial=True)
    assert rep.W1 == 0.0
    assert rep.Q1 == pytest.approx(expected, rel=1e-6)


def test_partial_grid_rejected_without_flag(sys1):
    pulse = make_pulse(1.0)
    traj = closed_form_trajectory(sys1, pulse, uniform_grid(2.0, 1e-3))
    with pytest.raises(
        ValueError, match="boundary terms not negligible.*allow_partial"
    ):
        thermo_report(traj)


def test_full_cycle_work_heat_cancel(detuned_run):
    _, rep = detuned_run
    assert rep.Q1 == pytest.approx(-rep.W1, abs=1e-5)
    assert abs(rep.dU) < 1e-5


def test_full_cycle_boundary_work_vanishes(detuned_run):
    # The interaction-energy part of W1 is a pure boundary term; what
    # remains at the step used here is quadrature error, not physics.
    _, rep = detuned_run
    assert abs(rep.W1_int) < 1e-7
    assert rep.W1 == pytest.approx(rep.W1_reac, abs=1e-7)


def test_heat_split_signs(detuned_run):
    # The photon is first absorbed, then re-emitted into free modes.
    _, rep = detuned_run
    assert rep.Q1_abs > 0.0 > rep.Q1_em


def test_report_splits_sum_to_totals(detuned_run):
    _, rep = detuned_run
    assert rep.Q1_abs + rep.Q1_em == pytest.approx(rep.Q1, abs=1e-12)
    assert rep.W1_int + rep.W1_reac == pytest.approx(rep.W1, abs=1e-12)


def test_resonant_work_is_exactly_zero(sys1):
    # deltaL = 0 keeps phi and psi in phase for any bandwidth, so the
    # work integrand is identically zero, not merely small.
    for delta in (0.37, 1.0, 4.0):
        pulse = make_pulse(delta)
        grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-12, max_step=1e-3)
        traj = closed_form_trajectory(sys1, pulse, grid)
        assert abs(thermo_report(traj).W1) < 1e-16


def test_work_antisymmetric_under_detuning_flip(sys1):
    pulse_p = make_pulse(0.1, 0.4)
    pulse_m = make_pulse(0.1, -0.4)
    grid = full_cycle_grid(sys1, pulse_p, cycle_tol=1e-12, max_step=1e-3)
    w_p = thermo_report(closed_form_trajectory(sys1, pulse_p, grid)).W1
    w_m = thermo_report(closed_form_trajectory(sys1, pulse_m, grid)).W1
    assert w_p != 0.0
    assert abs(w_p + w_m) < 1e-12


def test_work_value_converges_with_step(sys1):
    pulse = make_pulse(0.1, 0.2)
    grid_ref = full_cycle_grid(sys1, pulse, cycle_tol=1e-12, max_step=2.5e-4)
    tf = grid_ref.tf
    ref = thermo_report(closed_form_trajectory(sys1, pulse, grid_ref)).W1

    def w_at(step):
        return thermo_report(
            closed_form_trajectory(sys1, pulse, uniform_grid(tf, step)),
            allow_partial=True,
        ).W1

    # W1's error falls as h^4: at 8e-3 and 4e-3 it sits well above the
    # rounding floor (about 3e-17), so the comparison measures convergence.
    err_coarse = abs(w_at(8e-3) - ref)
    err_fine = abs(w_at(4e-3) - ref)
    assert err_fine < err_coarse
    assert err_fine < 1e-4 * abs(ref)


def test_zero_coupling_run_is_thermodynamically_silent(sys1):
    system = dataclasses.replace(sys1, g=0.0)
    pulse = make_pulse(1.0)
    traj = integrate_psi(system, pulse, uniform_grid(10.0, 1e-3))
    rep = thermo_report(traj)
    assert rep.W1 == 0.0 and rep.Q1 == 0.0 and rep.dU == 0.0


@settings(max_examples=15, deadline=None)
@given(
    delta=st.floats(min_value=0.05, max_value=5.0),
    deltaL=st.floats(min_value=-3.0, max_value=3.0),
    step=st.sampled_from([5e-3, 2e-3, 1e-3]),
)
def test_residuals_are_step_independent(delta, deltaL, step):
    """The three decomposition residuals check quadrature consistency,
    so they sit at rounding level even on deliberately coarse grids."""
    system = make_system()
    pulse = make_pulse(delta, deltaL)
    traj = closed_form_trajectory(system, pulse, uniform_grid(30.0, step))
    rep = thermo_report(traj, allow_partial=True)
    assert abs(rep.residual_first_law) < 1e-10
    assert abs(rep.residual_Q_split) < 1e-10
    assert abs(rep.residual_W_split) < 1e-10


@pytest.mark.parametrize("n", [8, 13])
@pytest.mark.parametrize("degree", range(6))
def test_end_corrected_rule_is_exact_on_polynomials(sys1, n, degree):
    # The population moment of a drive run is integral rho_ee dt: fed a
    # polynomial, the trapezoid rule with Gregory's corrections through
    # the fourth differences is exact up to degree 5, cubics included.
    grid = TimeGrid(n=n, spacing=0.37)
    t = grid.times()
    pulse = make_pulse(1.0)
    m = energy_moments(grid, sys1, pulse, np.zeros(n, complex), population=t**degree)
    exact = grid.tf ** (degree + 1) / (degree + 1)
    assert m[1:] == (0.0, 0.0, 0.0)
    assert abs(m[0] - exact) <= 2e-15 * exact


def test_grids_shorter_than_eight_samples_are_refused(sys1):
    pulse = make_pulse(1.0)
    with pytest.raises(ValueError, match="at least 8"):
        energy_moments(TimeGrid(n=7, spacing=0.1), sys1, pulse, np.zeros(7, complex))
    traj = closed_form_trajectory(sys1, pulse, TimeGrid(n=7, spacing=0.1))
    with pytest.raises(ValueError, match="at least 8"):
        thermo_report(traj, allow_partial=True)

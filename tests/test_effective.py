"""Effective emitter parameters: shift, decay rate, interaction energy."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from photon_work.dynamics import closed_form_trajectory, integrate_psi
from photon_work.model import make_pulse, uniform_grid
from photon_work.thermo import effective_trajectory


@pytest.fixture(scope="module")
def confluent(sys1):
    pulse = make_pulse(1.0)
    grid = uniform_grid(20.0, 1e-3)
    return closed_form_trajectory(sys1, pulse, grid)


def test_confluent_decay_rate_is_one_minus_two_over_t(confluent):
    # Resonant matched pulse: Gamma(t) = gamma0 - 2/t exactly.
    gamma_t = effective_trajectory(confluent).gamma_t
    assert gamma_t[100] == pytest.approx(-19.0, rel=1e-12)  # t = 0.1
    assert gamma_t[2000] == pytest.approx(0.0, abs=1e-10)  # t = 2, the zero crossing
    assert gamma_t[8000] == pytest.approx(1.0 - 0.25, rel=1e-12)  # t = 8


def test_confluent_sign_change_at_peak(confluent):
    eff = effective_trajectory(confluent)
    t = confluent.grid.times()
    inside = (t > 0.05) & (t < 1.95)
    outside = (t > 2.05) & (t < 19.0)
    assert np.all(eff.gamma_t[inside] < 0.0)
    assert np.all(eff.gamma_t[outside] > 0.0)


def test_confluent_resonant_has_no_shift(confluent):
    # phi and psi share one phase, so Im[phi psi*] vanishes identically.
    eff = effective_trajectory(confluent)
    assert np.nanmax(np.abs(eff.delta_eff)) < 1e-14
    assert np.max(np.abs(eff.h_int)) < 1e-14


def test_decay_rate_relaxes_to_gamma0(sys1):
    # Broadband pulse: once the drive is gone only spontaneous decay acts.
    pulse = make_pulse(10.0)
    traj = closed_form_trajectory(sys1, pulse, uniform_grid(10.0, 1e-3))
    assert effective_trajectory(traj).gamma_t[-1] == pytest.approx(
        sys1.gamma0, abs=1e-9
    )


def test_population_rate_equation(sys1):
    """d|psi|^2/dt = -Gamma(t) |psi|^2 holds sample by sample."""
    pulse = make_pulse(0.5, 0.7)
    grid = uniform_grid(12.0, 1e-3)
    traj = closed_form_trajectory(sys1, pulse, grid)
    eff = effective_trajectory(traj)
    t = grid.times()
    dpop = np.gradient(eff.pop, t)
    sel = (t > 0.5) & (t < 11.0)
    assert np.max(np.abs(dpop[sel] + eff.gamma_t[sel] * eff.pop[sel])) < 1e-5


def test_interaction_energy_matches_shift(sys1):
    # <H_int> = 2 hbar delta_eff |psi|^2 where both are defined.
    pulse = make_pulse(0.5, 0.7)
    traj = closed_form_trajectory(sys1, pulse, uniform_grid(12.0, 1e-3))
    eff = effective_trajectory(traj)
    sel = eff.valid_mask & (eff.pop > 0.0)
    lhs = eff.h_int[sel]
    rhs = 2.0 * eff.delta_eff[sel] * eff.pop[sel]
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    k = int(np.argmax(eff.pop))
    assert eff.h_int[k] == pytest.approx(
        2.0 * eff.delta_eff[k] * eff.pop[k], rel=1e-12
    )


def test_detuning_flip_antisymmetry(sys1):
    """Mirroring the laser detuning flips the shift and preserves the
    decay rate and population."""
    grid = uniform_grid(15.0, 1e-3)
    plus = effective_trajectory(
        closed_form_trajectory(sys1, make_pulse(0.3, 0.8), grid)
    )
    minus = effective_trajectory(
        closed_form_trajectory(sys1, make_pulse(0.3, -0.8), grid)
    )
    sel = plus.valid_mask & minus.valid_mask
    assert np.max(np.abs(plus.delta_eff[sel] + minus.delta_eff[sel])) < 1e-9
    assert np.max(np.abs(plus.gamma_t[sel] - minus.gamma_t[sel])) < 1e-9
    assert np.max(np.abs(plus.pop - minus.pop)) < 1e-15


def test_low_population_samples_are_masked(sys1):
    pulse = make_pulse(2.0)
    traj = closed_form_trajectory(sys1, pulse, uniform_grid(80.0, 1e-2))
    eff = effective_trajectory(traj)
    assert not eff.valid_mask[0]  # psi(0) = 0
    assert not eff.valid_mask[-1]  # decayed far below eta * max
    assert eff.valid_mask.any()
    assert np.isnan(eff.delta_eff[-1]) and np.isnan(eff.gamma_t[-1])
    assert np.all(np.isfinite(eff.h_int))
    assert np.isnan(eff.delta_eff[0]) and np.isnan(eff.gamma_t[0])
    assert eff.h_int[-1] == pytest.approx(0.0, abs=1e-20)


def test_zero_coupling_leaves_no_valid_samples(sys1):
    system = dataclasses.replace(sys1, g=0.0)
    pulse = make_pulse(1.0)
    traj = integrate_psi(system, pulse, uniform_grid(5.0, 1e-3))
    eff = effective_trajectory(traj)
    assert not eff.valid_mask.any()
    assert np.isnan(eff.gamma_t[100])

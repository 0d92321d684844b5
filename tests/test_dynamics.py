"""Amplitude dynamics: closed form vs RK4 integration, grids, guards."""

from __future__ import annotations

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from photon_work import dynamics
from photon_work.dynamics import (
    _exprel,
    _population_bound,
    closed_form_psi,
    closed_form_trajectory,
    full_cycle_grid,
    integrate_psi,
    peak_population,
)
from photon_work.model import make_pulse, make_system, uniform_grid


def test_initial_condition(sys1):
    pulse = make_pulse(0.7, 0.3)
    assert closed_form_psi(sys1, pulse, 0.0) == 0.0


def test_confluent_peak_population(sys1):
    # Gamma0 = Delta, deltaL = 0: |psi|^2 = (t^2/2) e^{-t}, peaking at
    # 2 e^{-2} for t = 2.
    pulse = make_pulse(1.0)
    peak = abs(closed_form_psi(sys1, pulse, 2.0)) ** 2
    assert peak == pytest.approx(2.0 * math.exp(-2.0), abs=1e-15)
    for t in (1.0, 1.9, 2.1, 4.0):
        assert abs(closed_form_psi(sys1, pulse, t)) ** 2 < peak


def test_fast_pulse_decays(sys1):
    pulse = make_pulse(2.0)
    assert abs(closed_form_psi(sys1, pulse, 80.0)) < 1e-15


def test_negative_time_rejected(sys1):
    pulse = make_pulse(1.0)
    with pytest.raises(ValueError, match="t must be >= 0"):
        closed_form_psi(sys1, pulse, -0.5)


def test_confluent_branch_is_continuous(sys1):
    """Values on either side of the old confluent switch at
    |a - b| = 1e-8 agree: the divided difference has no branch there."""
    eps = 1e-8
    ts = np.linspace(0.0, 20.0, 400)
    below = closed_form_psi(sys1, make_pulse(1.0 + 1.9 * eps), ts)
    above = closed_form_psi(sys1, make_pulse(1.0 + 2.1 * eps), ts)
    assert np.max(np.abs(below - above)) < 1e-6


def _psi_mp(gamma0, delta, deltaL, t):
    """The amplitude's defining expression at 40 digits (a != b)."""
    with mpmath.workdps(40):
        a = mpmath.mpf(gamma0) / 2
        b = mpmath.mpc(mpmath.mpf(delta) / 2, deltaL)
        amp = mpmath.sqrt(mpmath.mpf(gamma0) * delta / 2)
        t = mpmath.mpf(t)
        return complex(amp * (mpmath.exp(-a * t) - mpmath.exp(-b * t)) / (a - b))


@pytest.mark.parametrize(
    "gap,bound", [(1e-2, 1e-13), (1e-4, 2e-12), (1e-7, 1e-14), (1.01e-8, 1e-14), (0.99e-8, 1e-14)]
)
def test_closed_form_is_accurate_near_confluence(sys1, gap, bound):
    # |a - b| = gap at deltaL = 0.  A switch to t e^{-b t} below 1e-8
    # that dropped the (a - b) t term erred by 2e-7 just under it, and
    # the plain difference just over it by 4e-9.  The plain difference is
    # now kept only where |a - b| t >= 0.5.
    pulse = make_pulse(1.0 - 2.0 * gap)
    ts = np.array([0.5, 2.0, 10.0, 40.0])
    got = closed_form_psi(sys1, pulse, ts)
    want = np.array([_psi_mp(1.0, pulse.delta, 0.0, t) for t in ts])
    assert np.max(np.abs(got / want - 1.0)) < bound


@pytest.mark.parametrize(
    "delta,deltaL",
    [(0.3, 0.35), (0.3, -0.37), (0.3, 0.39), (1.0, 0.0), (1.0, 1e-3), (0.01, 0.2), (2.0, 3.0)],
)
def test_closed_form_keeps_its_first_samples(sys1, delta, deltaL):
    """psi within 1e-15 relative of 40 digits at the first 199 samples
    of a 1e-3 grid and at 50 times in [0.2, 3].  The plain difference,
    once kept down to |a - b| t = 1e-4, was 1.4e-12 off there."""
    ts = np.r_[np.arange(1, 200) * 1e-3, np.linspace(0.2, 3.0, 50)]
    got = closed_form_psi(sys1, make_pulse(delta, deltaL), ts)
    with mpmath.workdps(40):
        a = mpmath.mpf(sys1.gamma0) / 2
        b = mpmath.mpc(mpmath.mpf(delta) / 2, deltaL)
        amp = mpmath.sqrt(a * delta)
        for t, x in zip(map(mpmath.mpf, ts), got):
            z = (b - a) * t
            want = -amp * t * mpmath.exp(-b * t) * (mpmath.expm1(z) / z if z else 1)
            assert abs(x / complex(want) - 1.0) <= 1e-15


def test_exprel_components_are_accurate():
    # Both components to a few ulps, the small imaginary part included,
    # from tiny |z| up to the |z| = 0.5 that closed_form_psi stays below;
    # exprel(0) = 1.
    zs = [0.0, 1e-9 - 1e-9j, -9.9e-5 + 3e-7j, 0.3 + 1e-12j, -0.49 + 0.01j]
    got = _exprel(np.array(zs))
    for z, x in zip(zs, got):
        with mpmath.workdps(40):
            zz = mpmath.mpc(z)
            want = mpmath.mpc(1) if z == 0 else mpmath.expm1(zz) / zz
        assert abs(x.real / float(want.real) - 1.0) < 1e-15
        assert abs(x.imag - float(want.imag)) <= 1e-15 * abs(float(want.imag))


@pytest.mark.parametrize(
    "delta,deltaL", [(1.0, 0.0), (0.3, 0.7), (0.01, 0.2), (4.0, -20.0), (0.03, 100.0)]
)
def test_peak_population_is_the_continuous_maximum(sys1, delta, deltaL):
    # At deltaL = 100 the sampling stops after the first of its 97 chunks.
    pulse = make_pulse(delta, deltaL)
    peak = peak_population(sys1, pulse)
    ts = np.linspace(0.0, 80.0 / min(1.0, delta), 400001)
    sampled = np.abs(closed_form_psi(sys1, pulse, ts)) ** 2
    k = int(np.argmax(sampled))
    # No point within a sample of the best one lies higher.
    fine = np.linspace(ts[max(k - 1, 0)], ts[k + 1], 2001)
    assert np.max(np.abs(closed_form_psi(sys1, pulse, fine)) ** 2) <= peak * (1.0 + 1e-14)
    if delta == 1.0 and deltaL == 0.0:
        assert peak == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)


def _peak_mp(gamma0, delta, deltaL, t0):
    """Largest |psi|^2 at 40 digits: the zero of d|psi|^2/dt =
    2 Re(conj(psi) psi') nearest t0, with psi' = -a psi - amp e^{-b t}."""
    with mpmath.workdps(40):
        a = mpmath.mpf(gamma0) / 2
        b = mpmath.mpc(mpmath.mpf(delta) / 2, deltaL)
        amp = mpmath.sqrt(mpmath.mpf(gamma0) * delta / 2)

        def psi(t):
            if a == b:
                return -amp * t * mpmath.exp(-b * t)
            return amp * (mpmath.exp(-a * t) - mpmath.exp(-b * t)) / (a - b)

        def slope(t):
            p = psi(t)
            return mpmath.re(mpmath.conj(p) * (-a * p - amp * mpmath.exp(-b * t)))

        t = mpmath.findroot(slope, mpmath.mpf(t0))
        return float(abs(psi(t)) ** 2)


@pytest.mark.parametrize(
    "delta,deltaL", [(1.0, 0.0), (1.0, 20.0), (1.0, -20.0), (0.3, 20.0), (0.3, -20.0)]
)
def test_peak_population_matches_a_forty_digit_maximum(sys1, delta, deltaL):
    # Confluence (a = b) and fast beats; the start of the 40-digit root
    # search is the best of 400001 samples.
    pulse = make_pulse(delta, deltaL)
    ts = np.linspace(0.0, 80.0 / min(1.0, delta), 400001)
    t0 = ts[int(np.argmax(np.abs(closed_form_psi(sys1, pulse, ts))))]
    want = _peak_mp(sys1.gamma0, pulse.delta, pulse.deltaL, t0)
    assert abs(peak_population(sys1, pulse) - want) <= 2e-15 * want


@given(
    delta=st.floats(min_value=0.01, max_value=10.0),
    deltaL=st.floats(min_value=-5.0, max_value=5.0),
    t=st.floats(min_value=0.0, max_value=200.0),
)
def test_population_stays_physical(delta, deltaL, t):
    system = make_system()
    pulse = make_pulse(delta, deltaL)
    pop = abs(closed_form_psi(system, pulse, t)) ** 2
    assert 0.0 <= pop <= 1.0


def test_ode_matches_closed_form_confluent(sys1):
    pulse = make_pulse(1.0)
    grid = uniform_grid(40.0, 1e-3)
    ode = integrate_psi(sys1, pulse, grid)
    ref = closed_form_psi(sys1, pulse, grid.times())
    assert np.max(np.abs(np.abs(ode.psi) - np.abs(ref))) < 1e-8


def test_ode_matches_closed_form_narrowband(sys1):
    pulse = make_pulse(0.01, 0.3)
    grid = uniform_grid(60.0, 1e-3)
    ode = integrate_psi(sys1, pulse, grid)
    ref = closed_form_psi(sys1, pulse, grid.times())
    assert np.max(np.abs(np.abs(ode.psi) - np.abs(ref))) < 1e-8


@settings(max_examples=30, deadline=None)
@given(
    delta=st.floats(min_value=0.01, max_value=10.0),
    deltaL=st.floats(min_value=-5.0, max_value=5.0),
)
def test_ode_matches_closed_form_randomized(delta, deltaL):
    """Max-norm agreement below 1e-6 across the parameter box with the
    rate-scaled step; the closed form is the oracle for the integrator."""
    system = make_system()
    pulse = make_pulse(delta, deltaL)
    step = 1e-3 / max(1.0, delta, abs(deltaL))
    grid = full_cycle_grid(system, pulse, cycle_tol=1e-6, max_step=step)
    ode = integrate_psi(system, pulse, grid)
    ref = closed_form_psi(system, pulse, grid.times())
    assert np.max(np.abs(ode.psi - ref)) < 1e-6


def test_zero_coupling_hook_gives_no_excitation(sys1):
    system = dataclasses.replace(sys1, g=0.0)
    pulse = make_pulse(1.0)
    ode = integrate_psi(system, pulse, uniform_grid(10.0, 1e-3))
    assert np.all(ode.psi == 0.0)


def test_step_guard_refuses_coarse_grid(sys1):
    pulse = make_pulse(1.0, 20.0)  # deltaL = 20 is the fastest rate
    with pytest.raises(ValueError, match="step .* too large"):
        integrate_psi(sys1, pulse, uniform_grid(10.0, 1e-2))


def test_trajectory_carries_matching_envelope(sys1):
    pulse = make_pulse(0.5, 0.2)
    grid = uniform_grid(5.0, 1e-3)
    traj = closed_form_trajectory(sys1, pulse, grid)
    assert traj.psi.shape == (grid.n,)


def test_full_cycle_grid_reaches_floor(sys1):
    pulse = make_pulse(1.0)
    grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-12)
    # (t^2/2) e^{-t} < 1e-12 requires t of roughly 70; the horizon is
    # doubled past that point, and the end population is far below target.
    assert grid.tf > 60.0
    end_pop = abs(closed_form_psi(sys1, pulse, grid.tf)) ** 2
    assert end_pop < 1e-12


@pytest.mark.parametrize(
    "delta,deltaL,cycle_tol",
    [
        (1.0, 0.0, 1e-12),
        (0.03, 0.5, 1e-12),
        (1e-3, 0.2, 1e-12),
        (3.0, -2.0, 1e-9),
        (0.3, 20.0, 1e-6),
    ],
)
def test_full_cycle_root_meets_the_tolerance(sys1, monkeypatch, delta, deltaL, cycle_tol):
    # tf = 2 t* is passed to uniform_grid exactly; t* lies within the
    # root tolerance 1e-9 / mu of the crossing of the monotone bound.
    horizons = []

    def spy(tf, step):
        horizons.append(tf)
        return uniform_grid(tf, step)

    monkeypatch.setattr(dynamics, "uniform_grid", spy)
    pulse = make_pulse(delta, deltaL)
    full_cycle_grid(sys1, pulse, cycle_tol=cycle_tol)
    t_star = 0.5 * horizons[0]
    xtol = 1e-9 / (0.5 * min(sys1.gamma0, pulse.delta))
    assert _population_bound(sys1, pulse, t_star - xtol) > cycle_tol
    assert _population_bound(sys1, pulse, t_star + xtol) <= cycle_tol


def test_full_cycle_grid_follows_slow_rate(sys1):
    # Delta = 10: the emitter decay gamma0 dominates the tail.
    fast = full_cycle_grid(sys1, make_pulse(10.0), cycle_tol=1e-9)
    slow = full_cycle_grid(sys1, make_pulse(0.1), cycle_tol=1e-9)
    assert 30.0 < fast.tf < 150.0
    assert slow.tf > 4.0 * fast.tf


def test_full_cycle_grid_coarse_tolerance_is_short(sys1):
    pulse = make_pulse(1.0)
    assert full_cycle_grid(sys1, pulse, cycle_tol=0.5).tf < full_cycle_grid(
        sys1, pulse, cycle_tol=1e-12
    ).tf


def test_full_cycle_grid_validation(sys1):
    pulse = make_pulse(1.0)
    with pytest.raises(ValueError, match="cycle_tol"):
        full_cycle_grid(sys1, pulse, cycle_tol=0.0)
    with pytest.raises(ValueError, match="cycle_tol"):
        full_cycle_grid(sys1, pulse, cycle_tol=1.5)

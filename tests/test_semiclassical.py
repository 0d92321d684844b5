"""Coherent-drive counterpart: Bloch pair, susceptibility, drive work."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from photon_work.dynamics import closed_form_psi, full_cycle_grid
from photon_work.model import TimeGrid, make_pulse, make_system, uniform_grid
from photon_work.pulse import PulseEnvelope, normalization
from photon_work.semiclassical import (
    _CHUNK,
    integrate_bloch,
    susceptibility,
    transition_frequency_eg,
    work_absorptive,
    work_reactive,
    work_total_and_decomposition,
)


@pytest.fixture(scope="module")
def sys1():
    return make_system()


@pytest.fixture(scope="module")
def narrow_det(sys1):
    """Narrowband blue-detuned drive, integrated over a full cycle."""
    pulse = make_pulse(0.01, 100.2, sys1)
    env = PulseEnvelope(pulse, sys1)
    grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-9, step=2e-3)
    return pulse, env, grid, integrate_bloch(sys1, env, grid)


@pytest.fixture(scope="module")
def narrow_res(sys1):
    pulse = make_pulse(0.01, 100.0, sys1)
    env = PulseEnvelope(pulse, sys1)
    grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-9, step=2e-3)
    return pulse, env, grid


def test_state_stays_physical_at_strong_drive(sys1):
    # The Bloch pair starts pure and damped evolution keeps the state
    # inside the Bloch ball: |rho_eg|^2 <= rho_ee (1 - rho_ee).
    pulse = make_pulse(1.0, 100.0, sys1)
    grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-9, step=2e-3)
    bt = integrate_bloch(sys1, PulseEnvelope(pulse, sys1), grid)
    assert np.all(bt.rho_ee >= 0.0) and np.all(bt.rho_ee <= 1.0)
    excess = np.abs(bt.rho_eg) ** 2 - bt.rho_ee * (1.0 - bt.rho_ee)
    assert np.max(excess) < 1e-12


def test_low_excitation_matches_single_photon(sys1):
    """In the weak-excitation regime the Bloch solution collapses onto
    the single-photon amplitude: rho_ee -> |psi|^2, rho_eg -> psi."""
    pulse = make_pulse(0.01, 100.0, sys1)
    grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-9, step=2e-3)
    bt = integrate_bloch(sys1, PulseEnvelope(pulse, sys1), grid)
    psi = closed_form_psi(sys1, pulse, grid.times())
    assert np.max(np.abs(bt.rho_ee - np.abs(psi) ** 2)) < 1e-3
    assert np.max(np.abs(bt.rho_eg - psi)) < 1e-2


def test_matching_improves_for_narrower_bandwidth(sys1):
    pulse = make_pulse(0.001, 100.0, sys1)
    grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-9, step=5e-3)
    bt = integrate_bloch(sys1, PulseEnvelope(pulse, sys1), grid)
    psi = closed_form_psi(sys1, pulse, grid.times())
    assert np.max(np.abs(bt.rho_ee - np.abs(psi) ** 2)) < 1e-4
    assert np.max(np.abs(bt.rho_eg - psi)) < 1e-3


# Scalar step-by-step RK4 of the Bloch pair: the reference that the blocked
# scan of integrate_bloch must reproduce to rounding.
def _bloch_loop(n, h, t0, gamma0, g, amp, dec_re, dec_im, rho_eg, rho_ee, alpha):
    half = 0.5 * gamma0
    s = 0.0 + 0.0j
    pp = 0.0
    for m in range(n - 1):
        t = t0 + m * h
        th = t + 0.5 * h
        t1 = t + h
        if t < 0.0:
            a0 = 0.0 + 0.0j
        else:
            e = amp * math.exp(-dec_re * t)
            a0 = complex(e * math.cos(dec_im * t), -e * math.sin(dec_im * t))
        if th < 0.0:
            ah = 0.0 + 0.0j
        else:
            e = amp * math.exp(-dec_re * th)
            ah = complex(e * math.cos(dec_im * th), -e * math.sin(dec_im * th))
        if t1 < 0.0:
            a1 = 0.0 + 0.0j
        else:
            e = amp * math.exp(-dec_re * t1)
            a1 = complex(e * math.cos(dec_im * t1), -e * math.sin(dec_im * t1))
        alpha[m] = a0

        k1s = -half * s - g * a0 * (1.0 - 2.0 * pp)
        k1p = -gamma0 * pp - 2.0 * g * (a0.real * s.real + a0.imag * s.imag)

        s2 = s + 0.5 * h * k1s
        p2 = pp + 0.5 * h * k1p
        k2s = -half * s2 - g * ah * (1.0 - 2.0 * p2)
        k2p = -gamma0 * p2 - 2.0 * g * (ah.real * s2.real + ah.imag * s2.imag)

        s3 = s + 0.5 * h * k2s
        p3 = pp + 0.5 * h * k2p
        k3s = -half * s3 - g * ah * (1.0 - 2.0 * p3)
        k3p = -gamma0 * p3 - 2.0 * g * (ah.real * s3.real + ah.imag * s3.imag)

        s4 = s + h * k3s
        p4 = pp + h * k3p
        k4s = -half * s4 - g * a1 * (1.0 - 2.0 * p4)
        k4p = -gamma0 * p4 - 2.0 * g * (a1.real * s4.real + a1.imag * s4.imag)

        s = s + (h / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        pp = pp + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        rho_eg[m + 1] = s
        rho_ee[m + 1] = pp
        alpha[m + 1] = a1
    if n == 1:
        t = t0
        if t < 0.0:
            alpha[0] = 0.0 + 0.0j
        else:
            e = amp * math.exp(-dec_re * t)
            alpha[0] = complex(e * math.cos(dec_im * t), -e * math.sin(dec_im * t))


def _bloch_reference(system, env, grid, amplitude_scale):
    """Step-by-step scalar RK4 of the Bloch pair: rho_eg, rho_ee, alpha."""
    n = grid.n
    out = (np.zeros(n, complex), np.zeros(n), np.zeros(n, complex))
    amp = amplitude_scale * normalization(env)
    dec_re = 0.5 * env.params.delta
    dec_im = env.params.deltaL
    h = grid.spacing
    _bloch_loop(n, h, grid.t0, system.gamma0, system.g, amp, dec_re, dec_im, *out)
    return out


@pytest.mark.parametrize(
    "delta,deltaL,scale,steps",
    [
        (0.01, 0.2, 1.0, None),
        (0.3, -0.5, 1.0, None),
        (1.0, 0.0, 3.0, None),
        (0.3, -0.5, 1.0, 0),
        (0.3, -0.5, 1.0, 1),
        (0.3, -0.5, 1.0, _CHUNK + 7),
        (0.3, -0.5, 1.0, 2 * _CHUNK + 7),
    ],
    ids=[
        "narrowband",
        "broadband-detuned",
        "strong-drive",
        "n=1",
        "n=2",
        "one-chunk-boundary",
        "two-chunk-boundaries",
    ],
)
def test_scan_matches_step_by_step_rk4(sys1, delta, deltaL, scale, steps):
    """The blocked affine scan reproduces scalar RK4 to rounding: each
    array within 1e-13 of its largest magnitude."""
    pulse = make_pulse(delta, sys1.omega0 + deltaL, sys1)
    env = PulseEnvelope(pulse, sys1)
    h = 1e-2
    if steps is None:
        grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-9, step=h)
    else:
        grid = TimeGrid(t0=0.0, tf=steps * h, n=steps + 1, spacing=h)
    bt = integrate_bloch(sys1, env, grid, amplitude_scale=scale)
    ref = _bloch_reference(sys1, env, grid, scale)
    for got, want in zip((bt.rho_eg, bt.rho_ee, bt.alpha), ref):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    if scale > 1.0:
        assert ref[1].max() > 0.3


def test_susceptibility_on_resonance(sys1):
    chi = susceptibility(sys1, sys1.omega0)
    assert chi.real == 0.0
    assert chi.imag == math.sqrt(2.0)


def test_susceptibility_parity(sys1):
    off = np.linspace(0.1, 8.0, 40)
    plus = susceptibility(sys1, sys1.omega0 + off)
    minus = susceptibility(sys1, sys1.omega0 - off)
    assert np.max(np.abs(plus.real + minus.real)) < 1e-14
    assert np.max(np.abs(plus.imag - minus.imag)) < 1e-14
    assert np.all(plus.imag < math.sqrt(2.0))


def test_susceptibility_matches_fourier_transform(sys1):
    """The Lorentzian must be the half-line Fourier transform of the
    exponential response kernel chi(tau) = i g e^{-(gamma0/2 + i omega0) tau}."""
    g = sys1.g
    half = 0.5 * sys1.gamma0

    def kernel(tau):
        return g * math.exp(-half * tau)

    for omega in np.linspace(sys1.omega0 - 5.0, sys1.omega0 + 5.0, 20):
        wvar = omega - sys1.omega0
        re_part = -quad(kernel, 0.0, np.inf, weight="sin", wvar=wvar)[0]
        im_part = quad(kernel, 0.0, np.inf, weight="cos", wvar=wvar)[0]
        chi = susceptibility(sys1, omega)
        assert abs(chi.real - re_part) < 1e-6
        assert abs(chi.imag - im_part) < 1e-6


def test_reactive_work_vanishes_on_resonance(sys1):
    assert abs(work_reactive(sys1, make_pulse(0.01, 100.0, sys1))) < 1e-10
    assert abs(work_reactive(sys1, make_pulse(1.0, 100.0, sys1))) < 1e-10


def test_reactive_work_sign_and_antisymmetry(sys1):
    blue = work_reactive(sys1, make_pulse(0.01, 100.2, sys1))
    red = work_reactive(sys1, make_pulse(0.01, 99.8, sys1))
    assert blue == pytest.approx(3.3895432590480288e-3, rel=1e-6)
    assert blue > 0.0 > red
    assert blue == pytest.approx(-red, rel=1e-9)


def _quad_overlap(system, pulse, part):
    """Reference: quadrature of chi~ part against |alpha~(omega)|^2 over the
    line, in three panels with both Lorentzian peaks in the finite one."""
    g = system.gamma0
    half_g2 = (0.5 * g) ** 2
    half_d2 = (0.5 * pulse.delta) ** 2
    w0 = system.omega0
    wl = pulse.omegaL
    weight = system.rho0 * pulse.delta

    if part == "re":

        def f(w):
            return (
                system.g
                * (w0 - w)
                / (half_g2 + (w0 - w) ** 2)
                * weight
                / (half_d2 + (wl - w) ** 2)
            )

    else:

        def f(w):
            return (
                0.5
                * system.g
                * g
                / (half_g2 + (w0 - w) ** 2)
                * weight
                / (half_d2 + (wl - w) ** 2)
            )

    wc = 0.5 * (w0 + wl)
    lo = wc - 10.0 * max(g, pulse.delta, 1.0)
    hi = wc + 10.0 * max(g, pulse.delta, 1.0)
    pts = sorted({w0, wl})
    total = 0.0
    total += quad(f, -np.inf, lo, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
    total += quad(f, lo, hi, points=pts, epsabs=1e-13, epsrel=1e-11, limit=400)[0]
    total += quad(f, hi, np.inf, epsabs=1e-13, epsrel=1e-11, limit=200)[0]
    return total


@pytest.mark.parametrize("delta,deltaL", [(0.01, 0.2), (1.0, -3.0), (0.1, 20.0)])
def test_linear_response_matches_spectral_quadrature(sys1, delta, deltaL):
    """The closed-form Lorentzian overlaps agree with direct quadrature of
    the frequency-domain definitions."""
    pulse = make_pulse(delta, sys1.omega0 + deltaL, sys1)
    reactive = -pulse.delta * sys1.g * _quad_overlap(sys1, pulse, "re")
    absorptive = pulse.omegaL * 2.0 * sys1.g * _quad_overlap(sys1, pulse, "im")
    assert work_reactive(sys1, pulse) == pytest.approx(reactive, rel=1e-10, abs=0.0)
    assert work_absorptive(sys1, pulse) == pytest.approx(absorptive, rel=1e-10, abs=0.0)


def test_reactive_work_matches_quasi_steady_quadrature(sys1, narrow_det):
    """The frequency quadrature reproduces the quasi-steady level-shift
    work (bandwidth/2 times the interaction-energy integral): exactly in
    the linear-response limit, within saturation corrections at the
    matched amplitude."""
    pulse, env, grid, bt1 = narrow_det
    freq = work_reactive(sys1, pulse)

    def quasi_steady(bt, scale):
        hint = 2.0 * sys1.g * (bt.alpha * np.conj(bt.rho_eg)).imag
        return 0.5 * pulse.delta * np.trapezoid(hint, dx=grid.spacing) / scale**2

    eps = 0.05
    scaled = quasi_steady(integrate_bloch(sys1, env, grid, amplitude_scale=eps), eps)
    assert abs(scaled - freq) < 1e-3 * abs(freq)
    assert abs(quasi_steady(bt1, 1.0) - freq) < 0.05 * abs(freq)


def test_absorptive_work_analytic_value(sys1):
    # Resonant Lorentzian-on-Lorentzian overlap: 2 omegaL gamma0/(gamma0+delta).
    pulse = make_pulse(0.01, 100.0, sys1)
    assert work_absorptive(sys1, pulse) == pytest.approx(200.0 / 1.01, rel=1e-9)
    assert work_absorptive(sys1, make_pulse(0.01, 100.2, sys1)) > 0.0


def test_absorptive_work_matches_scaled_bloch(sys1, narrow_res):
    pulse, env, grid = narrow_res
    eps = 0.05
    rep = work_total_and_decomposition(
        integrate_bloch(sys1, env, grid, amplitude_scale=eps), env
    )
    freq = work_absorptive(sys1, pulse)
    assert abs(rep.W_abs / eps**2 - freq) < 1e-3 * freq


def test_drive_work_scales_quadratically(sys1, narrow_res):
    _, env, grid = narrow_res
    w = {
        eps: work_total_and_decomposition(
            integrate_bloch(sys1, env, grid, amplitude_scale=eps), env
        ).W_alpha
        for eps in (0.1, 0.2)
    }
    assert w[0.2] / w[0.1] == pytest.approx(4.0, rel=1e-2)


def test_decomposition_residual_and_energy_balance(narrow_det):
    _, env, _, bt1 = narrow_det
    rep = work_total_and_decomposition(bt1, env)
    assert abs(rep.residual_decomposition) < 1e-10
    assert abs(rep.W_int) < 1e-7  # pure boundary term over a full cycle
    assert rep.W_alpha == pytest.approx(-rep.Q_alpha, abs=1e-5)
    assert rep.W_abs > 0.0


def test_transition_frequency_locks_to_drive(narrow_det):
    pulse, _, grid, bt1 = narrow_det
    w_eg = transition_frequency_eg(bt1)
    assert np.isnan(w_eg[0])  # rho_eg(0) = 0 is masked
    t = grid.times()
    window = (t > 100.0) & (t < 1000.0)
    assert np.nanmax(np.abs(w_eg[window] - pulse.omegaL)) < 1e-5


def test_full_cycle_and_step_guards(sys1):
    pulse = make_pulse(1.0, 100.0, sys1)
    env = PulseEnvelope(pulse, sys1)
    short = integrate_bloch(sys1, env, uniform_grid(3.0, 1e-3))
    with pytest.raises(ValueError, match="boundary terms not negligible"):
        work_total_and_decomposition(short, env)
    fast = make_pulse(1.0, 120.0, sys1)
    with pytest.raises(ValueError, match="step .* too large"):
        integrate_bloch(sys1, PulseEnvelope(fast, sys1), uniform_grid(3.0, 1e-2))


def test_zero_coupling_drive_does_nothing(sys1):
    system = dataclasses.replace(sys1, g=0.0)
    pulse = make_pulse(1.0, 100.0, system)
    env = PulseEnvelope(pulse, system)
    bt = integrate_bloch(system, env, uniform_grid(5.0, 1e-3))
    assert np.all(bt.rho_ee == 0.0) and np.all(bt.rho_eg == 0.0)
    rep = work_total_and_decomposition(bt, env)
    assert rep.W_alpha == rep.W_reac == rep.W_abs == rep.Q_alpha == 0.0
    assert np.all(np.isnan(transition_frequency_eg(bt)))

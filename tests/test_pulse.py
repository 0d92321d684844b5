"""Pulse envelope: closed forms, causality, normalization, Fourier pairing."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from photon_work.model import make_pulse, make_system
from photon_work.pulse import envelope_at, normalization


def _envelope(delta: float, deltaL: float = 0.0, rho0: float = 1.0 / (2.0 * math.pi)):
    """(system, pulse) pair at omega0 = 100."""
    return make_system(1.0, 100.0, rho0), make_pulse(delta, deltaL)


def test_front_value_is_normalization():
    env = _envelope(1.0)
    assert normalization(*env) == pytest.approx(1.0, abs=1e-15)
    assert envelope_at(*env, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_causality():
    env = _envelope(1.0)
    assert envelope_at(*env, -1.0) == 0.0
    assert np.all(envelope_at(*env, np.array([-5.0, -0.1])) == 0.0)


def test_resonant_decay_value():
    env = _envelope(1.0)
    assert envelope_at(*env, 2.0) == pytest.approx(math.exp(-1.0), abs=1e-12)


@given(
    delta=st.floats(min_value=1e-3, max_value=1e3),
    deltaL=st.floats(min_value=-50.0, max_value=50.0),
    t=st.floats(min_value=0.0, max_value=50.0),
)
def test_envelope_modulus(delta, deltaL, t):
    # |phi(0,t)| = N e^{-delta t / 2}: the detuning only rotates the phase.
    env = _envelope(delta, deltaL)
    expected = normalization(*env) * math.exp(-0.5 * delta * t)
    # abs floor covers subnormal underflow of the deeply decayed tail
    assert abs(envelope_at(*env, t)) == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_single_excitation_normalization():
    # integral |phi(0, t)|^2 dt = 2 pi rho0 (= 1 at the default density):
    # one excitation in the pulse, by Parseval equal to the spectral weight.
    for delta, deltaL, rho0 in ((0.7, 0.3, 0.5 / math.pi), (2.0, -1.0, 0.4)):
        env = _envelope(delta, deltaL, rho0)
        f = lambda t: abs(envelope_at(*env, t)) ** 2
        total = quad(f, 0.0, np.inf, epsabs=1e-12, epsrel=1e-10)[0]
        assert total / (2.0 * math.pi * rho0) == pytest.approx(1.0, abs=1e-6)


def test_envelope_fourier_transform_matches_spectrum():
    """(1/sqrt(2 pi)) integral phi(0,t) e^{i nu t} dt must reproduce the
    Lorentzian spectrum sqrt(rho0 delta) / (delta/2 + i (deltaL - nu))
    at omega = omega0 + nu; checked at 50 frequencies across
    deltaL +- 10 delta."""
    delta, deltaL = 0.8, 0.6
    system, pulse = _envelope(delta, deltaL)
    horizon = 60.0 / delta  # the envelope has fallen to e^{-30}

    for nu in pulse.deltaL + delta * np.linspace(-10.0, 10.0, 50):
        part = lambda t, f: f(envelope_at(system, pulse, t) * np.exp(1j * nu * t))
        re = quad(part, 0.0, horizon, args=(np.real,), limit=400)[0]
        im = quad(part, 0.0, horizon, args=(np.imag,), limit=400)[0]
        transform = (re + 1j * im) / math.sqrt(2.0 * math.pi)
        spectrum = math.sqrt(system.rho0 * delta) / (
            0.5 * delta + 1j * (pulse.deltaL - nu)
        )
        assert transform == pytest.approx(spectrum, abs=1e-6)

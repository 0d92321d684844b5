"""The grid-free photon ledger: closed-form moments and ``photon_report``."""

from __future__ import annotations

import math

import mpmath
import pytest

from photon_work.dynamics import closed_form_trajectory, full_cycle_grid
from photon_work.model import make_pulse, make_system
from photon_work.pulse import normalization
from photon_work.thermo import (
    _ledger,
    _phase_integral,
    closed_form_moments,
    photon_report,
    thermo_report,
)

# Seed-1 detuning sweep of the benchmark (gamma0 = 1, omega0 = 100,
# rho0 = 1/2pi, delta = 0.03): deltaL, W1, Q1, Q1_abs, Q1_em, each the
# adaptive quadrature (scipy quad, epsrel 1e-12) of its definition on
# the analytic amplitude over [0, inf).
SWEEP_DELTA = 0.03
SWEEP = (
    (-10.28590059567515, -0.0013952045523408644, 0.001395204552340827, 0.43845795063868487, -0.43706274608634404),
    (-9.076468907055897, -0.0015750195960832773, 0.001575019596083265, 0.5697925490010352, -0.5682175294049518),
    (-4.465272135485051, -0.0030384011812478262, 0.0030384011812477837, 2.441548397152775, -2.4385099959715273),
    (-1.1461136015909548, -0.006553629086571322, 0.006553629086570549, 32.26326659772944, -32.25671296864287),
    (-0.9195001303621855, -0.00662375647392927, 0.006623756473927321, 45.95962426513894, -45.95300050866501),
    (-0.3766786664292091, -0.004796144666514588, 0.004796144666512692, 126.04304517233642, -126.0382490276699),
    (-0.15118258705850798, -0.002275193777710148, 0.0022751937777089836, 178.5089366324197, -178.506661438642),
    (-0.09321731687620159, -0.0014357241854197637, 0.0014357241853870139, 187.84617312029542, -187.84473739611002),
    (0.09321731687620159, 0.0014357241854197637, -0.001435724185452674, 188.18361709045823, -188.18505281464368),
    (0.15118258705850798, 0.002275193777710148, -0.0022751937777113805, 179.02917786740898, -179.0314530611867),
    (0.3766786664292091, 0.004796144666514588, -0.004796144666516771, 126.95869909304366, -126.96349523771018),
    (0.9195001303621855, 0.00662375647392927, -0.006623756473931292, 46.77422908465833, -46.78085284113226),
    (1.1461136015909548, 0.006553629086571322, -0.006553629086572187, 32.976098403508495, -32.98265203259506),
    (4.465272135485051, 0.0030384011812478262, -0.0030384011812478813, 2.6564822165902453, -2.659520617771493),
    (9.076468907055897, 0.0015750195960832773, -0.0015750195960832754, 0.6764639502524681, -0.6780389698485514),
    (10.28590059567515, 0.0013952045523408644, -0.0013952045523409043, 0.532644894260297, -0.5340400988126379),
)
# Q1 is a difference of terms 1e5 times larger than itself.
RTOL = {"W1": 1e-12, "Q1": 1e-10, "Q1_abs": 1e-12, "Q1_em": 1e-12}


@pytest.fixture(scope="module")
def sweep_reports(sys1):
    return [
        photon_report(sys1, make_pulse(SWEEP_DELTA, row[0])) for row in SWEEP
    ]


def test_sweep_values_match_the_quadrature_references(sweep_reports):
    for row, rep in zip(SWEEP, sweep_reports):
        for name, want in zip(("W1", "Q1", "Q1_abs", "Q1_em"), row[1:]):
            got = getattr(rep, name)
            assert abs(got - want) <= RTOL[name] * abs(want), (row[0], name, got, want)


def test_sweep_residuals_sit_at_rounding_level(sweep_reports):
    for rep in sweep_reports:
        for res in (rep.residual_first_law, rep.residual_Q_split, rep.residual_W_split):
            assert abs(res) <= 1e-12


def _mp_ledger(delta: float, deltaL: float) -> tuple:
    """Moments and values at 50 digits (gamma0 = 1, omega0 = 100,
    rho0 = 1/2pi, so g = sqrt(1/2) and N = sqrt(delta)).

    The three exponential moments take their undivided 1/(a - b) forms
    (the t e^{-b t} limit at a = b), the ratio moment ``mpmath.quad``.
    Each value is returned with the sum of the magnitudes of the terms its
    row adds, the scale of its rounding in double precision.
    """
    with mpmath.workdps(50):
        gamma0, omega0 = mpmath.mpf(1), mpmath.mpf(100)
        delta, deltaL = mpmath.mpf(delta), mpmath.mpf(deltaL)
        g = mpmath.sqrt(gamma0 / 2)
        n = mpmath.sqrt(delta)
        amp = g * n
        a = gamma0 / 2
        b = mpmath.mpc(delta / 2, deltaL)
        if a == b:

            def psi(t):
                return -amp * t * mpmath.exp(-b * t)

            m0 = amp**2 / (4 * a**3)
            u = -n * amp / (4 * a**2)
        else:
            d = a - b

            def psi(t):
                return amp * (mpmath.exp(-a * t) - mpmath.exp(-b * t)) / d

            m0 = amp**2 * (1 / (2 * a) + 1 / delta - 2 * mpmath.re(1 / (a + b))) / abs(d) ** 2
            u = n * amp * (1 / (a + b) - 1 / delta) / mpmath.conj(d)

        def ratio(t):
            z = n * mpmath.exp(-b * t) * mpmath.conj(psi(t))
            return mpmath.re(z) * mpmath.im(z) / abs(psi(t)) ** 2

        m = (m0, mpmath.re(u), mpmath.im(u), mpmath.quad(ratio, [0, 1, 4, 16, 64, 256]))
        rows = {
            "W1": (0, -g * deltaL, g * (gamma0 - delta) / 2, 2 * g * g),
            "Q1": (-omega0 * gamma0, -2 * g * omega0, -g * gamma0, -2 * g * g),
            "Q1_abs": (0, -2 * g * omega0, 0, -2 * g * g),
            "Q1_em": (-omega0 * gamma0, 0, -g * gamma0, 0),
        }
        values = {
            name: (
                float(sum(c * x for c, x in zip(row, m))),
                float(sum(abs(c * x) for c, x in zip(row, m))),
            )
            for name, row in rows.items()
        }
        return tuple(float(x) for x in m), values


@pytest.mark.parametrize(
    "eps,side",
    [pytest.param(e, -1, id=str(e)) for e in (1e-2, 1e-4, 1e-6, 1e-9, 0.0)]
    + [pytest.param(e, 1, id=f"{e}-above") for e in (1e-2, 1e-4, 1e-6, 1e-9)],
)
def test_near_confluent_ledger_matches_fifty_digits(sys1, eps, side):
    # delta = gamma0 + 2 side eps and deltaL = eps: a - b = -eps (side + i),
    # so delta above gamma0 (side = 1) takes the other half-plane's form of
    # the ratio moment (thermo.closed_form_moments).  The
    # undivided forms in double precision put W1 off by 2e-9, 1.6e-4 and
    # 11 (relative) at eps = 1e-2, 1e-4 and 1e-6.  W1 itself is about
    # eps^2 / 6 here, a sum of terms of order eps, so its relative error
    # grows as the terms cancel; each value is held to the rounding of
    # the terms its row adds.
    pulse = make_pulse(1.0 + 2.0 * side * eps, eps)
    moments, values = _mp_ledger(pulse.delta, pulse.deltaL)
    for got, want in zip(closed_form_moments(sys1, pulse), moments):
        assert abs(got - want) <= 1e-14 * abs(want), (got, want)
    rep = photon_report(sys1, pulse)
    for name, (want, scale) in values.items():
        got = getattr(rep, name)
        assert abs(got - want) <= 1e-14 * scale, (name, got, want, scale)
    if eps == 0.0:
        assert rep.W1 == 0.0


@pytest.mark.parametrize(
    "delta,deltaL,w1,rtol",
    [
        (0.99, 20.0, 0.000246026224010806, 1e-11),
        (0.999, 20.0, 0.000024825612798579351, 1e-11),
        (0.999, 40.0, 0.000012468766222083032364, 5e-11),
        (1.001, 20.0, -0.000024850165253156290967134, 1e-11),
        (1.001, 40.0, -0.000012481209976859026882276, 1e-11),
    ],
)
def test_near_matched_bandwidth_work_matches_thirty_digits(sys1, delta, deltaL, w1, rtol):
    # While |a - b| t << 1, psi nearly vanishes at every beat minimum and
    # its phase turns within a small fraction of a beat there.  Reference:
    # mpmath.quad at 30 digits of the ratio moment, split at every beat
    # minimum 2 pi k / deltaL.  The scan's former 5e-4 grid erred by 15 %
    # and 430 % at deltaL = 20.  W1 is about 1e-3 of the terms its row adds
    # at deltaL = 20 and 1/2000 of them (0.025) at deltaL = 40, where 5e-11
    # of W1 is 2.5e-14 of the terms.  At delta = 1.001 > gamma0 the ratio
    # moment takes its other half-plane's form, and W1 changes sign.
    rep = photon_report(sys1, make_pulse(delta, deltaL))
    assert abs(rep.W1 - w1) <= rtol * abs(w1)


@pytest.mark.parametrize("deltaL", [-1000.0, 1000.0])
def test_ratio_moment_far_from_resonance_matches_twenty_digits(sys1, deltaL):
    # Reference: mpmath.quad at 20 digits, split at every beat minimum
    # 2 pi k / |deltaL|; the digamma form at 50 digits agrees with it to
    # 1.7e-15.  A quadrature must resolve thousands of beats here.
    ratio = closed_form_moments(sys1, make_pulse(0.5, deltaL))[3]
    want = -math.copysign(3.7499995194793681e-4, deltaL)
    assert abs(ratio - want) <= 1e-13 * abs(want)


def test_phase_integral_keeps_its_digits_near_matched_bandwidth():
    # I(delta, d), d = a - b, for delta < gamma0 from 40-digit digamma
    # values.  Where Re d << |d| the two digamma values are of size
    # log|s/d| and their difference of size Re d/|d|: subtracting them
    # put Im I off by up to 8.7e-14 (delta = 0.9, deltaL = 0.05); the
    # divided difference meets every point to 1.7e-15.
    worst = 0.0
    for delta in (0.03, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999):
        for deltaL in (0.2, -0.2, 0.05, 1.0, 3.0, -5.0, 12.0):
            d = complex(0.5 - 0.5 * delta, -deltaL)
            got = _phase_integral(complex(delta), d)
            with mpmath.workdps(40):
                s, dm = mpmath.mpf(delta), mpmath.mpc(d)
                dc = mpmath.conj(dm)
                want = (mpmath.digamma((s + 2 * dm.real) / dc) - mpmath.digamma(s / dc)) / dm
                want = complex(want - dc / (dm * (s + dm)))
            worst = max(worst, abs(got.imag - want.imag) / abs(want.imag))
    assert worst <= 4e-15


@pytest.mark.parametrize("deltaL", [-20.0, -3.0, -0.2, 0.2, 3.0, 20.0])
def test_sampled_report_agrees_within_the_trapezoid_error(sys1, deltaL):
    # The trapezoid rule errs by (h^2/12)(f'(T) - f'(0)) with f'(T) ~ 0 on
    # a full cycle.  At t = 0 the moment integrands have the slopes
    # (0, -N amp, 0, -N^2 deltaL/2), so every value's f'(0) is its row on
    # that vector.  W1's h^2 terms cancel, and with the ratio integrated
    # as defined (no floor in |psi|^2) it sits at rounding: zeroing the
    # ratio at or below 1e-12 of the peak put it 2.5e-13 off.
    pulse = make_pulse(0.3, deltaL)
    grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-12, max_step=1e-3)
    sampled = thermo_report(closed_form_trajectory(sys1, pulse, grid))
    exact = photon_report(sys1, pulse)
    n = normalization(sys1, pulse)
    amp = math.sqrt(0.5 * sys1.gamma0 * pulse.delta)
    slope = _ledger(sys1, pulse, (0.0, -n * amp, 0.0, -n * n * deltaL / 2.0))
    h = grid.spacing
    for name in ("W1", "Q1", "Q1_abs", "Q1_em", "W1_int", "W1_reac", "dU"):
        v = getattr(exact, name)
        tol = h * h / 6.0 * abs(getattr(slope, name)) + 1e-9 * abs(v)
        assert abs(getattr(sampled, name) - v) <= tol, (name, getattr(sampled, name), v)
    assert abs(sampled.W1 - exact.W1) <= 1e-15, (sampled.W1, exact.W1)


def test_resonant_report_does_no_work(sys1):
    for delta in (0.37, 1.0, 4.0):
        rep = photon_report(sys1, make_pulse(delta))
        assert rep.W1 == 0.0
        assert rep.Q1_abs > 0.0 > rep.Q1_em


@pytest.mark.parametrize("gamma0", [1.0, 2.5])
@pytest.mark.parametrize("deltaL", [-3.0, -0.2, 0.2, 5.0, 40.0])
def test_matched_bandwidth_does_no_work(gamma0, deltaL):
    # At delta = gamma0, W1 = g N deltaL (amp - g N) / (delta^2 + deltaL^2)
    # with amp = g N (closed_form_moments): zero at every detuning, to
    # the rounding of terms of order one.
    rep = photon_report(make_system(gamma0=gamma0), make_pulse(gamma0, deltaL))
    assert abs(rep.W1) <= 1e-15


def test_work_changes_sign_across_matched_bandwidth(sys1):
    narrow = photon_report(sys1, make_pulse(0.9, 0.5)).W1
    broad = photon_report(sys1, make_pulse(1.1, 0.5)).W1
    assert narrow > 0.0 > broad

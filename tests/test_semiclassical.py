"""Coherent-drive counterpart: Bloch pair, susceptibility, drive work."""

from __future__ import annotations

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from photon_work.analysis import compare_equivalences
from photon_work.dynamics import closed_form_psi, full_cycle_grid
from photon_work.model import TimeGrid, make_pulse, make_system, uniform_grid
from photon_work.pulse import envelope_at, normalization
from photon_work.semiclassical import (
    _CHUNK,
    _ORDER,
    HEAD_LENGTH,
    BlochTrajectory,
    _dyson_terms,
    _series,
    _step_maps,
    head_grid,
    integrate_bloch,
    susceptibility,
    work_absorptive,
    work_reactive,
    work_total_and_decomposition,
)
from photon_work.thermo import photon_report


@pytest.fixture(scope="module")
def sys1():
    return make_system()


@pytest.fixture(scope="module")
def narrow_det(sys1):
    """Narrowband blue-detuned drive, integrated over a full cycle."""
    pulse = make_pulse(0.01, 0.2)
    grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-9, max_step=2e-3)
    return pulse, grid, integrate_bloch(sys1, pulse, grid)


@pytest.fixture(scope="module")
def narrow_res(sys1):
    pulse = make_pulse(0.01)
    grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-9, max_step=2e-3)
    return pulse, grid


def test_state_stays_physical_at_strong_drive(sys1):
    # The Bloch pair starts pure and damped evolution keeps the state
    # inside the Bloch ball: |rho_eg|^2 <= rho_ee (1 - rho_ee).
    pulse = make_pulse(1.0)
    grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-9, max_step=2e-3)
    bt = integrate_bloch(sys1, pulse, grid)
    assert np.all(bt.rho_ee >= 0.0) and np.all(bt.rho_ee <= 1.0)
    excess = np.abs(bt.rho_eg) ** 2 - bt.rho_ee * (1.0 - bt.rho_ee)
    assert np.max(excess) < 1e-12


def test_low_excitation_matches_single_photon(sys1):
    """In the weak-excitation regime the Bloch solution collapses onto
    the single-photon amplitude: rho_ee -> |psi|^2, rho_eg -> psi."""
    pulse = make_pulse(0.01)
    grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-9, max_step=2e-3)
    bt = integrate_bloch(sys1, pulse, grid)
    psi = closed_form_psi(sys1, pulse, grid.times())
    assert np.max(np.abs(bt.rho_ee - np.abs(psi) ** 2)) < 1e-3
    assert np.max(np.abs(bt.rho_eg - psi)) < 1e-2


def test_matching_improves_for_narrower_bandwidth(sys1):
    pulse = make_pulse(0.001)
    grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-9, max_step=5e-3)
    bt = integrate_bloch(sys1, pulse, grid)
    psi = closed_form_psi(sys1, pulse, grid.times())
    assert np.max(np.abs(bt.rho_ee - np.abs(psi) ** 2)) < 1e-4
    assert np.max(np.abs(bt.rho_eg - psi)) < 1e-3


def _series_maps(terms, a):
    """Laser-frame maps I + sum_j a^j Phi_j of steps whose drive starts
    at ``a`` (1-D), summed straight from the Dyson terms Phi_j."""
    return np.eye(4) + np.moveaxis(np.polynomial.polynomial.polyval(a, terms), -1, 0)


# Steps per batch of reference maps: bounds the reference's memory.
_BATCH = 4096


def _maps_reference(system, pulse, grid, amplitude_scale):
    """rho_eg, rho_ee and the drive of the Bloch pair, by the laser-frame
    step maps of ``integrate_bloch`` summed from their Dyson terms,
    applied one step at a time in a scalar loop, each state turned back
    by e^{-i deltaL t_k}."""
    h, n = grid.spacing, grid.n
    terms = _dyson_terms(h, system.gamma0, pulse.delta, pulse.deltaL, _ORDER)
    t = grid.times()
    peak = amplitude_scale * normalization(system, pulse)
    drive = peak * np.exp(-complex(0.5 * pulse.delta, pulse.deltaL) * t)
    amp = 2.0 * system.g * peak
    rho_eg, rho_ee = np.zeros(n, complex), np.zeros(n)
    x = y = p = 0.0
    for lo in range(0, n - 1, _BATCH):
        tk = t[lo : min(lo + _BATCH, n - 1)]
        maps = _series_maps(terms, amp * np.exp(-0.5 * pulse.delta * tk))
        for m, rows in enumerate(maps[:, :3].tolist(), start=lo + 1):
            x, y, p = (r[0] * x + r[1] * y + r[2] * p + r[3] for r in rows)
            rho_eg[m], rho_ee[m] = complex(x, y) * cmath.exp(-1j * pulse.deltaL * t[m]), p
    return rho_eg, rho_ee, drive


@pytest.mark.parametrize(
    "delta,deltaL,scale,steps,tol",
    [
        (0.01, 0.2, 1.0, None, 1e-13),
        (0.3, -0.5, 1.0, None, 1e-13),
        (1.0, 0.0, 3.0, None, 1e-13),
        (0.3, -0.5, 1.0, 0, 1e-13),
        (0.3, -0.5, 1.0, 1, 1e-13),
        (0.3, -0.5, 1.0, _CHUNK + 7, 1e-13),
        (0.3, -0.5, 1.0, 2 * _CHUNK + 7, 1e-13),
        (0.01, 0.2, 1.0, "head", 2e-14),
        (0.3, -0.5, 1.0, "head", 2e-14),
        (0.001, 0.2, 1.0, "head", 2e-14),
    ],
    ids=[
        "narrowband",
        "broadband-detuned",
        "strong-drive",
        "n=1",
        "n=2",
        "one-chunk-boundary",
        "two-chunk-boundaries",
        "head-narrowband",
        "head-broadband-detuned",
        "head-narrowest",
    ],
)
def test_scan_matches_step_by_step_maps(sys1, delta, deltaL, scale, steps, tol):
    """The blocked affine scan, with maps from the 7 powers of the
    drive, reproduces a scalar loop over maps summed straight from the
    Dyson terms to rounding: each array within ``tol`` of its largest
    magnitude.  The heads catch rounding that repeats at every step: with
    the identity folded into the step maps' coefficients, rho_eg sat
    3.7e-14 off on the narrowest head, and within 6e-15 here."""
    pulse = make_pulse(delta, deltaL)
    h = 1e-2
    if steps == "head":
        grid = head_grid(sys1, pulse)
    elif steps is None:
        grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-9, max_step=h)
    else:
        grid = TimeGrid(n=steps + 1, spacing=h)
    bt = integrate_bloch(sys1, pulse, grid, amplitude_scale=scale)
    ref = _maps_reference(sys1, pulse, grid, scale)
    drive = bt.amplitude_scale * envelope_at(sys1, pulse, grid.times())
    for got, want in zip((bt.rho_eg, bt.rho_ee, drive), ref):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
    if scale > 1.0:
        assert ref[1].max() > 0.3


def _dop853_states(system, pulse, times, amplitude_scale):
    """rho_eg and rho_ee of the Bloch pair at ``times`` by DOP853 at
    rtol 1e-13, atol 1e-17.  The work accumulators of
    :func:`_dop853_drive_work` stay out: they join the step control's
    error norm and put the strong drive's rho_eg 1.9e-13 off, not 4e-14."""
    g, gamma0 = system.g, system.gamma0
    n = amplitude_scale * normalization(system, pulse)
    b = complex(0.5 * pulse.delta, pulse.deltaL)

    def rates(t, y):
        s = complex(y[0], y[1])
        alpha = n * cmath.exp(-b * t)
        ds = -0.5 * gamma0 * s - g * alpha * (1.0 - 2.0 * y[2])
        u = alpha * s.conjugate()
        return [ds.real, ds.imag, -gamma0 * y[2] - 2.0 * g * u.real]

    sol = solve_ivp(
        rates,
        (0.0, times[-1]),
        [0.0] * 3,
        method="DOP853",
        t_eval=times,
        rtol=1e-13,
        atol=1e-17,
    )
    assert sol.success, sol.message
    return sol.y[0] + 1j * sol.y[1], sol.y[2]


@pytest.mark.parametrize(
    "delta,deltaL,scale", [(0.3, -0.5, 1.0), (1.0, 0.0, 3.0)], ids=["detuned", "strong-drive"]
)
def test_head_meets_a_tight_dop853_run(sys1, delta, deltaL, scale):
    """The steps are exact in time: at every 499th sample of the head,
    rho_eg and rho_ee meet DOP853 within 1e-12 of each array's largest
    magnitude, at a spacing of 0.005/(gamma0 + delta)."""
    pulse = make_pulse(delta, deltaL)
    grid = head_grid(sys1, pulse)
    bt = integrate_bloch(sys1, pulse, grid, amplitude_scale=scale)
    pick = np.arange(0, grid.n, 499)
    rho_eg, rho_ee = _dop853_states(sys1, pulse, grid.times()[pick], scale)
    for got, want in ((bt.rho_eg[pick], rho_eg), (bt.rho_ee[pick], rho_ee)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_cut_dyson_series_is_converged(sys1):
    """At the largest a h of any head the tests run (the strong drive:
    scale 3 at delta = 1), and at lesser drives, the step maps of the 7
    powers meet the series cut after a^8 to rounding: a^7 and a^8 add
    nothing."""
    pulse = make_pulse(1.0)
    h = head_grid(sys1, pulse).spacing
    a = 3.0 * 2.0 * sys1.g * normalization(sys1, pulse)
    assert a * h > 0.01
    coeffs = _dyson_terms(h, sys1.gamma0, pulse.delta, pulse.deltaL, _ORDER).reshape(-1, 16)
    drives = np.linspace(0.0, a, 9)
    got = _step_maps(coeffs, drives[None])[0]
    terms = _dyson_terms(h, sys1.gamma0, pulse.delta, pulse.deltaL, 8)
    want = _series_maps(terms, drives)
    assert np.max(np.abs(got - want)) <= 2.2e-16
    assert np.all(got[:, 3] == [0.0, 0.0, 0.0, 1.0])


def test_scan_working_memory_is_bounded(sys1):
    """Past its two output arrays, ``integrate_bloch`` allocates at most
    one chunk's working memory, however long the grid: 4.0 MiB at
    500,000 steps, where maps for the whole grid would take 61 MiB."""
    pulse = make_pulse(0.01, 0.2)
    grid = TimeGrid(n=500_001, spacing=1e-3)
    tracemalloc.start()
    try:
        bt = integrate_bloch(sys1, pulse, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - bt.rho_eg.nbytes - bt.rho_ee.nbytes < 16 * 2**20


@pytest.mark.parametrize(
    "cell", [(0.3, 1.0), (0.1, 0.2), (0.01, 0.2), (2.0, -3.0), (5.0, 0.5), (0.5, 5.0)]
)
def test_weak_drive_meets_the_photon(system, weak_field_heads, cell):
    """The drive's works over eps^2 are even in eps, so the Richardson
    value (4 G(eps/2) - G(eps)) / 3 of W_reac, W_abs and Q_alpha is their
    weak-field limit to O(eps^4): the photon's W1, Q1_abs and Q1_em,
    within 1e-12 relative (worst 5.2e-13), with no ODE solver to trust."""
    coarse, fine = weak_field_heads[cell]
    rep = photon_report(system, make_pulse(*cell))
    want = np.array([rep.W1, rep.Q1_abs, rep.Q1_em])
    assert np.all(np.abs((4.0 * fine - coarse) / 3.0 - want) <= 1e-12 * np.abs(want))


def test_weak_drive_does_no_reactive_work_at_matched_bandwidth(system, weak_field_heads):
    """At delta = gamma0 the photon's W1 vanishes: the drive's weak-field
    W_reac meets it within 1e-13 absolute (4.5e-15 here), and W_abs and
    Q_alpha meet Q1_abs and Q1_em within 1e-12 relative."""
    coarse, fine = weak_field_heads[1.0, 0.2]
    limit = (4.0 * fine - coarse) / 3.0
    rep = photon_report(system, make_pulse(1.0, 0.2))
    assert abs(limit[0]) <= 1e-13
    want = np.array([rep.Q1_abs, rep.Q1_em])
    assert np.all(np.abs(limit[1:] - want) <= 1e-12 * np.abs(want))


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
    assert abs(work_reactive(sys1, make_pulse(0.01))) < 1e-10
    assert abs(work_reactive(sys1, make_pulse(1.0))) < 1e-10


def test_reactive_work_sign_and_antisymmetry(sys1):
    blue = work_reactive(sys1, make_pulse(0.01, 0.2))
    red = work_reactive(sys1, make_pulse(0.01, -0.2))
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
    wl = w0 + pulse.deltaL
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
    pulse = make_pulse(delta, deltaL)
    reactive = -pulse.delta * sys1.g * _quad_overlap(sys1, pulse, "re")
    omegaL = sys1.omega0 + pulse.deltaL
    absorptive = omegaL * 2.0 * sys1.g * _quad_overlap(sys1, pulse, "im")
    assert work_reactive(sys1, pulse) == pytest.approx(reactive, rel=1e-10, abs=0.0)
    assert work_absorptive(sys1, pulse) == pytest.approx(absorptive, rel=1e-10, abs=0.0)


def test_reactive_work_matches_quasi_steady_quadrature(sys1, narrow_det):
    """The frequency quadrature reproduces the quasi-steady level-shift
    work (bandwidth/2 times the interaction-energy integral): exactly in
    the linear-response limit, within saturation corrections at the
    matched amplitude."""
    pulse, grid, bt1 = narrow_det
    freq = work_reactive(sys1, pulse)

    def quasi_steady(bt, scale):
        alpha = scale * envelope_at(sys1, pulse, grid.times())
        hint = 2.0 * sys1.g * (alpha * np.conj(bt.rho_eg)).imag
        return 0.5 * pulse.delta * np.trapezoid(hint, dx=grid.spacing) / scale**2

    eps = 0.05
    scaled = quasi_steady(integrate_bloch(sys1, pulse, grid, amplitude_scale=eps), eps)
    assert abs(scaled - freq) < 1e-3 * abs(freq)
    assert abs(quasi_steady(bt1, 1.0) - freq) < 0.05 * abs(freq)


def test_absorptive_work_analytic_value(sys1):
    # Resonant Lorentzian-on-Lorentzian overlap: 2 omega0 gamma0/(gamma0+delta).
    pulse = make_pulse(0.01)
    assert work_absorptive(sys1, pulse) == pytest.approx(200.0 / 1.01, rel=1e-9)
    assert work_absorptive(sys1, make_pulse(0.01, 0.2)) > 0.0


def test_absorptive_work_matches_scaled_bloch(sys1, narrow_res):
    pulse, grid = narrow_res
    eps = 0.05
    rep = work_total_and_decomposition(
        integrate_bloch(sys1, pulse, grid, amplitude_scale=eps)
    )
    freq = work_absorptive(sys1, pulse)
    assert abs(rep.W_abs / eps**2 - freq) < 1e-3 * freq


def test_drive_work_scales_quadratically(sys1, narrow_res):
    pulse, grid = narrow_res
    w = {
        eps: work_total_and_decomposition(
            integrate_bloch(sys1, pulse, grid, amplitude_scale=eps)
        ).W_alpha
        for eps in (0.1, 0.2)
    }
    assert w[0.2] / w[0.1] == pytest.approx(4.0, rel=1e-2)


def test_decomposition_residual_and_energy_balance(narrow_det):
    _, _, bt1 = narrow_det
    rep = work_total_and_decomposition(bt1)
    assert abs(rep.residual_decomposition) < 1e-10
    assert abs(rep.W_int) < 1e-7  # pure boundary term over a full cycle
    assert rep.W_alpha == pytest.approx(-rep.Q_alpha, abs=1e-5)
    assert rep.W_abs > 0.0


def test_transition_frequency_locks_to_drive(sys1, narrow_det):
    """Once the turn-on transient has died out, the coherence oscillates
    at the drive frequency: omega0 minus the phase rate of rho_eg in the
    rotating frame equals omegaL = omega0 + deltaL."""
    pulse, grid, bt1 = narrow_det
    phase = np.unwrap(np.angle(bt1.rho_eg[1:]))
    w_eg = sys1.omega0 - np.gradient(phase, grid.spacing)
    t = grid.times()[1:]
    window = (t > 100.0) & (t < 1000.0)
    assert np.max(np.abs(w_eg[window] - (sys1.omega0 + pulse.deltaL))) < 1e-5


def test_full_cycle_and_step_guards(sys1):
    pulse = make_pulse(1.0)
    short = integrate_bloch(sys1, pulse, uniform_grid(3.0, 1e-3))
    with pytest.raises(ValueError, match="boundary terms not negligible"):
        work_total_and_decomposition(short)
    fast = make_pulse(1.0, 20.0)
    with pytest.raises(ValueError, match="step .* too large"):
        integrate_bloch(sys1, fast, uniform_grid(3.0, 1e-2))


def test_zero_coupling_drive_does_nothing(sys1):
    system = dataclasses.replace(sys1, g=0.0)
    pulse = make_pulse(1.0)
    bt = integrate_bloch(system, pulse, uniform_grid(5.0, 1e-3))
    assert np.all(bt.rho_ee == 0.0) and np.all(bt.rho_eg == 0.0)
    rep = work_total_and_decomposition(bt)
    assert rep.W_alpha == rep.W_reac == rep.W_abs == rep.Q_alpha == 0.0


def _head_and_tail(system, pulse):
    head = integrate_bloch(system, pulse, head_grid(system, pulse))
    return head, work_total_and_decomposition(head)


def test_head_grid_length_is_fixed_by_gamma0(sys1):
    # The spacing is 0.005 / (gamma0 + delta) unless the library's
    # 0.02 / rate is finer, as at |deltaL| > 4 (gamma0 + delta).
    for delta in (0.1, 1e-3):
        grid = head_grid(sys1, make_pulse(delta, 0.2))
        assert grid.spacing == 0.005 / (1.0 + delta)
        assert HEAD_LENGTH <= grid.tf < HEAD_LENGTH + grid.spacing
    assert head_grid(sys1, make_pulse(0.01, 40.0)).spacing == 0.02 / 40.0


@pytest.mark.parametrize(
    "delta,deltaL",
    [
        (0.3, 1.0),
        (0.1, 0.2),
        (0.1, 0.0),
        (0.5, 0.0),
        (0.5, 0.3),
        (1.0, 0.0),
        (2.0, 0.5),
        (0.5 + 1e-9, 0.0),
        (0.5 - 1e-9, 0.0),
    ],
    ids=[
        "detuned",
        "narrow-detuned",
        "resonant-order-10",
        "resonant-order-2",
        "order-2-detuned",
        "resonant-order-1",
        "broad-detuned",
        "near-resonant-above",
        "near-resonant-below",
    ],
)
def test_head_and_tail_match_the_full_cycle_grid(sys1, delta, deltaL):
    """The head and its series tail against the same steps and the
    end-corrected trapezoid rule on a full-cycle grid of the library's
    default step (1e-3 here, finer than the head's), at points where
    a series order k meets a resonance of the recurrence (k delta = gamma0
    at deltaL = 0, or 2 gamma0) or nearly does.  Every value is finite
    and the split residual is rounding noise.  The values agree to
    1e-12 relative."""
    pulse = make_pulse(delta, deltaL)
    _, split = _head_and_tail(sys1, pulse)
    grid = full_cycle_grid(sys1, pulse, cycle_tol=1e-12)
    full = work_total_and_decomposition(integrate_bloch(sys1, pulse, grid))
    floor = 1e-16 * abs(full.W_abs)
    for name in ("W_alpha", "W_int", "W_reac", "W_abs", "Q_alpha"):
        got, want = getattr(split, name), getattr(full, name)
        assert math.isfinite(got), name
        assert abs(got - want) <= 1e-12 * abs(want) + floor, (name, got, want)
    assert abs(split.residual_decomposition) < 1e-12
    assert split.split_residual < 1e-14


def _dop853_drive_work(system, pulse):
    """W_reac, W_abs and Q_alpha of the Bloch pair by DOP853 at rtol
    1e-13, atol 1e-17, over 40 e-folds of the slower of the emitter and
    the pulse.  The integrands are accumulated with the state, as in the
    benchmark's drive reference: <H_int> (-Re[(ds/dt) / s]),
    omega_s (-2 g Re[alpha s*]) with omega_s = omega0 - Im[(ds/dt) / s]
    (omega0 and 0 at s = 0), and -gamma0 (omega0 rho_ee + <H_int>/2)."""
    g, gamma0, omega0 = system.g, system.gamma0, system.omega0
    n = normalization(system, pulse)
    b = complex(0.5 * pulse.delta, pulse.deltaL)

    def rates(t, y):
        s = complex(y[0], y[1])
        alpha = n * cmath.exp(-b * t)
        ds = -0.5 * gamma0 * s - g * alpha * (1.0 - 2.0 * y[2])
        u = alpha * s.conjugate()
        hint = 2.0 * g * u.imag
        ratio = ds / s if s else 0.0
        return [
            ds.real,
            ds.imag,
            -gamma0 * y[2] - 2.0 * g * u.real,
            hint * -ratio.real,
            (omega0 - ratio.imag) * (-2.0 * g * u.real),
            -gamma0 * (omega0 * y[2] + 0.5 * hint),
        ]

    t_end = 40.0 / min(0.5 * gamma0, 0.5 * pulse.delta)
    sol = solve_ivp(
        rates, (0.0, t_end), [0.0] * 6, method="DOP853", rtol=1e-13, atol=1e-17
    )
    assert sol.success, sol.message
    return tuple(float(v) for v in sol.y[3:, -1])


@pytest.mark.parametrize(
    "delta,deltaL",
    [(0.3, 1.0), (0.5, 0.3), (1.0, 0.2), (0.1, 0.2), (0.0316, -0.25), (0.01, 0.2)],
)
def test_reactive_work_meets_a_tight_dop853_run(sys1, delta, deltaL):
    # A head with a series tail at (0.3, 1) and (0.5, 0.3), a whole cycle
    # at (1, 0.2).  Zeroing the ratio where |rho_eg|^2 sat at or below
    # 1e-12 of its peak put W_reac 2.5e-12 to 5.5e-12 off at these points.
    # The three narrowband points carry much of the pulse in the tail: at
    # delta = 0.01, x_T = e^{-0.4}.  W_abs and Q_alpha sat within 9e-15
    # of the run at every point.
    pulse = make_pulse(delta, deltaL)
    drive = compare_equivalences(sys1, pulse).drive
    reac, absorbed, heat = _dop853_drive_work(sys1, pulse)
    assert abs(drive.W_reac - reac) <= 1e-12 * abs(reac), (drive.W_reac, reac)
    assert abs(drive.W_abs - absorbed) <= 1e-13 * abs(absorbed), (drive.W_abs, absorbed)
    assert abs(drive.Q_alpha - heat) <= 1e-13 * abs(heat), (drive.Q_alpha, heat)


@pytest.mark.parametrize(
    "delta,deltaL",
    [(0.1, 0.2), (0.01, -0.25), (0.3, 1.0), (0.1, 0.0), (0.5 - 1e-9, 0.0), (0.001, 0.2)],
)
def test_series_solves_the_laser_frame_pair(sys1, delta, deltaL):
    """The series against y' = L y + F x (M y + e), the Bloch pair in the
    laser frame (module docstring), written out here for
    y = (Re sigma, Im sigma, rho_ee).  With y' = sum (-k delta/2) c_k x^k,
    the sum to order K leaves exactly the first dropped term,
    -F x^{K+1} M c_K, at every x.  Every head here ends at 80/gamma0."""
    pulse = make_pulse(delta, deltaL)
    grid = head_grid(sys1, pulse)
    # The series reads only the grid's end, the system and the pulse.
    traj = BlochTrajectory(grid, np.zeros(0, dtype=complex), np.zeros(0), 1.0, sys1, pulse)
    sigma, rho = _series(traj)
    assert len(sigma) >= 1
    c = np.column_stack((sigma.real, sigma.imag, rho))
    gamma0, dl = sys1.gamma0, pulse.deltaL
    lin = np.array([[-0.5 * gamma0, -dl, 0.0], [dl, -0.5 * gamma0, 0.0], [0.0, 0.0, -gamma0]])
    mix = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    e = np.array([-1.0, 0.0, 0.0])
    f = sys1.g * normalization(sys1, pulse)
    k = np.arange(1, len(c) + 1)
    x_end = math.exp(-0.5 * delta * grid.tf)
    for x in x_end * np.array([0.01, 0.3, 0.6, 0.9, 1.0]):
        terms = c * x ** k[:, None]
        y = terms.sum(axis=0)
        residual = (-0.5 * delta * k) @ terms - (lin @ y + f * x * (mix @ y + e))
        dropped = -f * x ** (len(c) + 1) * (mix @ c[-1])
        scale = np.max(np.abs(terms))
        assert np.max(np.abs(residual - dropped)) <= 1e-15 * scale, (x, residual, dropped)


@pytest.mark.parametrize("delta,deltaL", [(1.0, 0.0), (2.0, 0.5), (1.0, 3.0)])
def test_no_tail_where_delta_reaches_gamma0(sys1, delta, deltaL):
    # The head is the whole cycle and ends at its own horizon, before
    # 80/gamma0: the tail adds nothing and there is no split.
    pulse = make_pulse(delta, deltaL)
    head, split = _head_and_tail(sys1, pulse)
    sigma, rho = _series(head)
    assert sigma.shape == rho.shape == (0,)
    horizon = full_cycle_grid(sys1, pulse, max_step=0.005 / (sys1.gamma0 + delta))
    assert head.grid.tf == horizon.tf < HEAD_LENGTH
    assert head.grid.spacing == horizon.spacing
    assert split.split_residual == 0.0


def test_series_terms_stay_bounded_near_resonance(sys1):
    # At delta = 0.5 - 1e-9 order 2 sits 1e-9 from the resonance
    # k delta = gamma0; the series stops before it.
    pulse = make_pulse(0.5 - 1e-9)
    head = integrate_bloch(sys1, pulse, head_grid(sys1, pulse))
    sigma, rho = _series(head)
    assert sigma.shape == rho.shape == (1,)
    assert max(abs(sigma[0]), abs(rho[0])) < 10.0


def test_tail_needs_a_full_head(sys1):
    # A grid that ends before 80/gamma0 gets no tail, so it must be a
    # whole cycle, and at delta = 0.01 a 40/gamma0 grid is not.
    pulse = make_pulse(0.01, 0.2)
    short = integrate_bloch(sys1, pulse, uniform_grid(40.0, 1e-3))
    with pytest.raises(ValueError, match="boundary terms not negligible") as excinfo:
        work_total_and_decomposition(short)
    assert "head_grid or full_cycle_grid" in str(excinfo.value)
    assert "allow_partial" not in str(excinfo.value)

"""Discretized-continuum ground truth: geometry, flags, convergence, and
the invariants of its eigen-expansion."""

from __future__ import annotations

import math

import numpy as np
import pytest

from photon_work import oracle
from photon_work.dynamics import closed_form_psi
from photon_work.model import make_pulse, make_system, uniform_grid
from photon_work.oracle import (
    GlobalState,
    NormDriftError,
    _eigenvalues,
    _expand,
    _pole_sum,
    _unit_phases,
    init_single_photon,
    make_mode_grid,
    propagate,
)

# Small combs for the expansion invariants: (half_width, n_modes, delta,
# deltaL, initial emitter amplitude): one resonant, one detuned, and one
# narrower than the linewidth, whose edge roots lie spacings beyond the comb.
SMALL_COMBS = {
    "resonant": (10.0, 41, 1.0, 0.0, 0.0),
    "detuned": (10.0, 60, 0.5, 3.0, 0.6),
    "narrow": (0.5, 21, 1.0, 0.0, 0.0),
}


@pytest.fixture(scope="module")
def pulse1(sys1):
    return make_pulse(1.0)


@pytest.fixture(scope="module")
def w50(sys1, pulse1):
    """Half-size window run shared by the convergence and heat checks."""
    mg = make_mode_grid(sys1, half_width=50.0, n_modes=2001)
    state = init_single_photon(sys1, pulse1, mg)
    grid = uniform_grid(10.0, 1e-3)
    return mg, state, grid, propagate(state, mg, grid)


def test_oracle_spectrum_is_independent_of_omega0():
    # The comb and the pulse meet only through the detuning deltaL - Delta_k.
    pulse = make_pulse(0.25, -0.37)
    states = [
        init_single_photon(system, pulse, make_mode_grid(system, 20.0, 801))
        for system in (make_system(1.0, 100.0), make_system(1.0, 1e4))
    ]
    assert np.array_equal(states[0].phi, states[1].phi)
    assert states[0].captured_mass == states[1].captured_mass


def test_mode_grid_geometry(sys1):
    mg = make_mode_grid(sys1, half_width=100.0, n_modes=4001)
    assert mg.spacing == pytest.approx(0.05, abs=1e-15)
    dets = mg.detunings()
    assert dets[0] == -100.0 and dets[-1] == pytest.approx(100.0, abs=1e-10)
    assert dets[2000] == pytest.approx(0.0, abs=1e-12)  # odd count centers a mode
    golden_rule = 2.0 * math.pi * mg.coupling**2 / mg.spacing
    assert golden_rule == pytest.approx(sys1.gamma0, rel=1e-12)


def test_mode_grid_validation(sys1):
    with pytest.raises(ValueError, match="half_width must be positive"):
        make_mode_grid(sys1, half_width=0.0)
    with pytest.raises(ValueError, match="n_modes must be at least 3"):
        make_mode_grid(sys1, n_modes=2)


def test_initial_state_split_and_capture(sys1, pulse1):
    mg = make_mode_grid(sys1, half_width=100.0, n_modes=4001)
    state = init_single_photon(sys1, pulse1, mg)
    assert state.psi == 0.0
    # The coupled (even) channel holds half of the photon's norm.
    assert float(np.sum(np.abs(state.phi) ** 2)) == pytest.approx(0.5, abs=1e-12)
    # Window capture of the Lorentzian line: (2/pi) arctan(2 W / gamma0).
    assert state.captured_mass == pytest.approx(
        2.0 / math.pi * math.atan(200.0), abs=1e-4
    )
    assert not state.window_ok  # 0.9968 sits below the 0.999 gate


def test_wide_window_is_flagged_valid(sys1, pulse1):
    mg = make_mode_grid(sys1, half_width=350.0, n_modes=2001)
    state = init_single_photon(sys1, pulse1, mg)
    assert state.captured_mass > 0.999
    assert state.window_ok
    traj = propagate(state, mg, uniform_grid(1.0, 1e-3))
    assert traj.recurrence_ok and state.window_ok
    assert traj.drift < 1e-9


def test_error_shrinks_as_window_grows(sys1, pulse1, w50, oracle_pair):
    """Truncation error of the comb falls like 1/W; already one narrow
    window reproduces the closed form to about a percent, in phase, not
    just in modulus."""
    mg25 = make_mode_grid(sys1, half_width=25.0, n_modes=1001)
    state25 = init_single_photon(sys1, pulse1, mg25)
    grid25 = uniform_grid(10.0, 1e-3)
    traj25 = propagate(state25, mg25, grid25)
    err25 = np.max(np.abs(traj25.psi - closed_form_psi(sys1, pulse1, grid25.times())))

    _, _, grid50, traj50 = w50
    err50 = np.max(np.abs(traj50.psi - closed_form_psi(sys1, pulse1, grid50.times())))

    base, _ = oracle_pair
    assert err25 < 2e-2
    assert err50 < err25
    assert base.max_abs_err < err50


def test_recurrence_flag_on_coarse_comb(sys1, pulse1):
    # Spacing 0.5 revives at 2 pi / 0.5 = 12.6, inside a 13-long run.
    mg = make_mode_grid(sys1, half_width=10.0, n_modes=41)
    state = init_single_photon(sys1, pulse1, mg)
    traj = propagate(state, mg, uniform_grid(13.0, 1e-3))
    assert not traj.recurrence_ok


def test_norm_drift_tolerance_is_enforced(sys1, pulse1):
    mg = make_mode_grid(sys1, half_width=10.0, n_modes=41)
    state = init_single_photon(sys1, pulse1, mg)
    grid = uniform_grid(13.0, 1e-3)
    # The expansion of this comb keeps norm and rebuilds its initial state
    # to about 3e-16, so only a tolerance below that trips the gate.
    with pytest.raises(NormDriftError, match="norm drift"):
        propagate(state, mg, grid, drift_tol=1e-16)


def test_any_step_samples_the_same_trajectory(sys1, pulse1):
    """The expansion is exact in time: a step of 0.1, a radian of phase
    per step at the window edge, samples the same psi as a step of 1e-3."""
    mg = make_mode_grid(sys1, half_width=10.0, n_modes=41)
    state = init_single_photon(sys1, pulse1, mg)
    coarse = propagate(state, mg, uniform_grid(2.0, 1e-1))
    fine = propagate(state, mg, uniform_grid(2.0, 1e-3))
    np.testing.assert_allclose(coarse.psi, fine.psi[::100], rtol=0.0, atol=1e-14)


def test_gate_measures_conservation_not_a_unit_total(sys1, pulse1):
    """A coupled sector of any norm passes the gate, and psi is linear in
    the state: half the photon gives half the amplitude."""
    mg = make_mode_grid(sys1)
    photon = init_single_photon(sys1, pulse1, mg)
    grid = uniform_grid(1.0, 1e-3)
    full = propagate(photon, mg, grid)
    half = propagate(GlobalState(psi=photon.psi, phi=0.5 * photon.phi), mg, grid)
    assert half.drift <= 1e-12
    np.testing.assert_allclose(half.psi, 0.5 * full.psi, rtol=0.0, atol=1e-15)


def test_emitted_fraction_matches_closed_form(sys1, pulse1, w50):
    """The spontaneously emitted fraction gamma0 integral |psi|^2 dt
    agrees with the flat-continuum closed form to better than a percent."""
    _, _, grid, traj = w50
    t = grid.times()
    emitted = sys1.gamma0 * np.trapezoid(np.abs(traj.psi) ** 2, t)
    ref = sys1.gamma0 * np.trapezoid(
        np.abs(closed_form_psi(sys1, pulse1, t)) ** 2, t
    )
    assert emitted == pytest.approx(ref, rel=1e-2)
    assert 0.9 < ref < 1.0  # nearly the whole photon has been re-emitted by t = 10


# Step-by-step RK4 of the coupled sector: the reference that the
# eigen-expansion must reproduce.
def _oracle_loop(h, gbar, dets, phi, psi, psi_out):
    steps = psi_out.shape[0] - 1
    hh = 0.5 * h
    h6 = h / 6.0
    rot = -1j * dets
    psi_out[0] = psi
    for m in range(steps):
        k1p = rot * phi + gbar * psi
        k1a = -gbar * phi.sum()
        y = phi + hh * k1p
        ya = psi + hh * k1a
        k2p = rot * y + gbar * ya
        k2a = -gbar * y.sum()
        y = phi + hh * k2p
        ya = psi + hh * k2a
        k3p = rot * y + gbar * ya
        k3a = -gbar * y.sum()
        y = phi + h * k3p
        ya = psi + h * k3a
        k4p = rot * y + gbar * ya
        k4a = -gbar * y.sum()
        phi = phi + h6 * (k1p + 2.0 * (k2p + k3p) + k4p)
        psi = psi + h6 * (k1a + 2.0 * (k2a + k3a) + k4a)
        psi_out[m + 1] = psi


def _small_comb(sys1, name):
    """Comb and a coupled-sector state; the emitter may start partly excited."""
    half_width, n_modes, delta, deltaL, psi0 = SMALL_COMBS[name]
    mg = make_mode_grid(sys1, half_width=half_width, n_modes=n_modes)
    pulse = make_pulse(delta, deltaL)
    photon = init_single_photon(sys1, pulse, mg)
    scale = math.sqrt(1.0 - psi0**2)
    return mg, GlobalState(psi=complex(psi0), phi=scale * photon.phi)


def test_closed_form_pole_sum_matches_direct_sum():
    """The digamma/cot forms of sum_k 1/(z - k) and sum_k 1/(z - k)^2
    equal the term-by-term sums within 1e-12, relative to the sum of the
    terms' moduli (the scale of the rounding of either sum)."""
    rng = np.random.default_rng(6)
    for n in (41, 60, 4001):
        anchor = rng.integers(0, n, 500)
        u = rng.uniform(-0.5, 0.5, 500)
        u[:4] = (0.5, -0.5, 1e-3, -1e-3)
        terms = 1.0 / (np.subtract.outer(anchor.astype(float), np.arange(n)) + u[:, None])
        for got, want in zip(_pole_sum(n, anchor, u), (terms, terms * terms)):
            err = np.abs(got - want.sum(axis=1))
            assert np.all(err <= 1e-12 * np.abs(want).sum(axis=1)), n


@pytest.mark.parametrize("name", sorted(SMALL_COMBS))
def test_eigenvalues_interlace_the_comb(sys1, name):
    """One eigenvalue in each gap of the comb and one beyond each edge,
    N + 1 in all, and each equals the dense eigensolver's."""
    mg, _ = _small_comb(sys1, name)
    n = mg.n_modes
    dets = mg.detunings()
    anchors, offsets, _ = _eigenvalues(mg)
    lam = dets[anchors] + mg.spacing * offsets
    assert len(lam) == n + 1
    assert lam[0] < dets[0] and lam[-1] > dets[-1]
    assert np.all((dets[:-1] < lam[1:-1]) & (lam[1:-1] < dets[1:]))
    arrow = np.diag(np.concatenate([[0.0], dets]))
    arrow[0, 1:] = arrow[1:, 0] = -mg.coupling
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(arrow), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(SMALL_COMBS))
def test_expansion_keeps_norm_and_rebuilds_the_state(sys1, name):
    """sum |c_j|^2 is the initial |chi0|^2 + ||phi0||^2, and V c rebuilds x0."""
    mg, state = _small_comb(sys1, name)
    anchors, offsets, norms = _eigenvalues(mg)
    chi0 = -1j * state.psi
    phi0 = state.phi
    weights, norm, rebuilt = _expand(mg, anchors, offsets, norms, chi0, phi0)
    norm0 = abs(chi0) ** 2 + float(np.sum(np.abs(phi0) ** 2))
    assert abs(norm0 - norm) <= 1e-12
    residual = math.sqrt(
        abs(weights.sum() - chi0) ** 2 + float(np.sum(np.abs(rebuilt - phi0) ** 2))
    )
    assert residual <= 1e-12


@pytest.mark.parametrize("name", [*sorted(SMALL_COMBS), "default"])
def test_secular_norms_are_the_row_sums(sys1, name):
    """The squared norms from the secular derivative equal the direct row
    sums 1 + sum_k v_k^2 within 1e-14 relative, on the small combs and on
    the default 4001-mode comb."""
    mg = make_mode_grid(sys1) if name == "default" else _small_comb(sys1, name)[0]
    anchors, offsets, norms = _eigenvalues(mg)
    gaps = np.subtract.outer(np.arange(mg.n_modes), anchors).T - offsets[:, None]
    rows = mg.coupling / mg.spacing / gaps
    direct = 1.0 + np.sum(rows * rows, axis=1)
    np.testing.assert_allclose(norms, direct, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n_modes", [4000, 4001])
def test_secular_roots_take_a_handful_of_passes(sys1, pulse1, monkeypatch, n_modes):
    """Newton's method finds the gap roots of the default comb, and of
    the even comb whose center root sits at the middle of its gap, in a
    handful of passes of the closed-form pole sums; bisection to adjacent
    floats took 62."""
    calls = []
    pole_sum = oracle._pole_sum

    def counted(*args):
        calls.append(1)
        return pole_sum(*args)

    monkeypatch.setattr(oracle, "_pole_sum", counted)
    mg = make_mode_grid(sys1, n_modes=n_modes)
    propagate(init_single_photon(sys1, pulse1, mg), mg, uniform_grid(1.0, 1e-2))
    assert 0 < len(calls) <= 12


def test_phase_table_is_the_complex_exponential():
    """cos and -sin written into one complex array give the same bits as
    np.exp(-1j * x), on arguments as large as the oracle's lam t."""
    x = np.random.default_rng(3).uniform(-600.0, 600.0, 100_000)
    x[:3] = (0.0, -0.0, math.pi)
    assert np.array_equal(_unit_phases(x), np.exp(-1j * x))
    table = np.multiply.outer(np.linspace(0.0, 5.0, 71), x[:500])
    assert np.array_equal(_unit_phases(table), np.exp(-1j * table))


@pytest.mark.parametrize("name", sorted(SMALL_COMBS))
def test_expansion_matches_rk4(sys1, name):
    """psi agrees with fine-step RK4 within 1e-10, a tolerance set before
    the expansion was written."""
    mg, state = _small_comb(sys1, name)
    grid = uniform_grid(2.0, 2.5e-4)
    traj = propagate(state, mg, grid)
    psi_ref = np.empty(grid.n, dtype=np.complex128)
    _oracle_loop(
        grid.spacing, mg.coupling, mg.detunings(), state.phi, complex(state.psi), psi_ref
    )
    np.testing.assert_allclose(traj.psi, psi_ref, rtol=0.0, atol=1e-10)

"""The coefficient rows of the energy ledger against the per-sample
integrands they replaced.

Before the moment core, ``thermo_report`` and
``work_total_and_decomposition`` each built their own integrand arrays
(seven for the photon, five for the drive).  Those arrays are kept here,
whole-grid and unchunked, as the reference: every report field must equal
the Gregory-corrected trapezoid rule on its integrand to rounding.
"""

from __future__ import annotations

import numpy as np
import pytest

from photon_work.dynamics import closed_form_trajectory, full_cycle_grid
from photon_work.model import envelope_at, make_pulse, make_system
from photon_work.semiclassical import integrate_bloch, work_total_and_decomposition
from photon_work.thermo import _CHUNK, thermo_report

TOL = 1e-11


def _photon_integrands(traj):
    """The seven photon integrands, named by their report fields."""
    gamma0, omega0, g = traj.system.gamma0, traj.system.omega0, traj.system.g
    delta, deltaL = traj.pulse.delta, traj.pulse.deltaL
    p = np.abs(traj.psi) ** 2
    phi = envelope_at(traj.system, traj.pulse, traj.grid.times())
    z = phi * np.conj(traj.psi)
    rez, imz = z.real, z.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(p > 0.0, rez * imz / p, 0.0)
    dp = -gamma0 * p - 2.0 * g * rez
    dhint = 2.0 * g * (-0.5 * (gamma0 + delta) * imz - deltaL * rez)
    f = -g * gamma0 * imz - 2.0 * g * g * r
    return {
        "W1": 0.5 * dhint - f,
        "Q1": omega0 * dp + f,
        "dU": omega0 * dp + 0.5 * dhint,
        "Q1_abs": -2.0 * g * omega0 * rez - 2.0 * g * g * r,
        "Q1_em": -omega0 * gamma0 * p - g * gamma0 * imz,
        "W1_int": 0.5 * dhint,
        "W1_reac": g * gamma0 * imz + 2.0 * g * g * r,
    }


def _drive_integrands(bt):
    """The five drive integrands, named by their report fields."""
    gamma0, omega0, g = bt.system.gamma0, bt.system.omega0, bt.system.g
    pp = bt.rho_ee
    mod2 = np.abs(bt.rho_eg) ** 2
    alpha = bt.amplitude_scale * envelope_at(bt.system, bt.pulse, bt.grid.times())
    u = alpha * np.conj(bt.rho_eg)
    reu, imu = u.real, u.imag
    im_adot = -0.5 * bt.pulse.delta * imu - bt.pulse.deltaL * reu
    occ = 1.0 - 2.0 * pp
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(mod2 > 0.0, reu * imu / mod2, 0.0)
    return {
        "W_alpha": 2.0 * g * (im_adot - omega0 * reu),
        "W_int": 2.0 * g * (im_adot - 0.5 * gamma0 * imu),
        "W_reac": g * gamma0 * imu + 2.0 * g * g * occ * r,
        "W_abs": -2.0 * g * omega0 * reu - 2.0 * g * g * occ * r,
        "Q_alpha": -omega0 * gamma0 * pp - g * gamma0 * imu,
    }


def _gregory(y, h):
    """``np.trapezoid`` plus Gregory's corrections on the end differences:
    h (D/12 - D^2/24 + 19 D^3/720 - 3 D^4/160) of the forward differences
    D at the left end, h (-B/12 - B^2/24 - 19 B^3/720 - 3 B^4/160) of the
    backward ones B at the right end."""
    fwd = [np.diff(y[:5], n)[0] for n in (1, 2, 3, 4)]
    bwd = [np.diff(y[-5:], n)[-1] for n in (1, 2, 3, 4)]
    left = fwd[0] / 12.0 - fwd[1] / 24.0 + 19.0 * fwd[2] / 720.0 - 3.0 * fwd[3] / 160.0
    right = -bwd[0] / 12.0 - bwd[1] / 24.0 - 19.0 * bwd[2] / 720.0 - 3.0 * bwd[3] / 160.0
    return np.trapezoid(y, dx=h) + h * (left + right)


def _assert_rows_match(report, integrands, h):
    for name, y in integrands.items():
        want = _gregory(y, h)
        got = getattr(report, name)
        assert abs(got - want) <= TOL, f"{name}: {got!r} vs {want!r}"


@pytest.mark.parametrize(
    "delta,deltaL,scale,max_step",
    [
        (1.0, 0.0, 1.0, 1e-3),
        (0.3, 0.5, 1.0, 1e-3),
        (0.03, -7.0, 1.0, 1e-3),
        (1.0, 0.5, 1.0, 2.5e-5),
        (1.0, 0.5, 3.0, 1e-3),
    ],
    ids=["confluent", "detuned", "narrow-far-detuned", "several-chunks", "strong-drive"],
)
def test_rows_equal_trapezoid_of_reference_integrands(delta, deltaL, scale, max_step):
    system = make_system()
    pulse = make_pulse(delta, deltaL)
    grid = full_cycle_grid(system, pulse, cycle_tol=1e-12, max_step=max_step)
    if max_step < 1e-4:
        assert grid.n > 2 * _CHUNK + 1

    traj = closed_form_trajectory(system, pulse, grid)
    _assert_rows_match(thermo_report(traj), _photon_integrands(traj), grid.spacing)
    del traj

    bt = integrate_bloch(system, pulse, grid, amplitude_scale=scale)
    if scale > 1.0:
        assert bt.rho_ee.max() > 0.3
    report = work_total_and_decomposition(bt)
    _assert_rows_match(report, _drive_integrands(bt), grid.spacing)

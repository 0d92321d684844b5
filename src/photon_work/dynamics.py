"""Excited-state amplitude of the driven emitter, two independent ways.

The rotating-frame amplitude obeys the linear equation

    d psi/dt = -(gamma0 / 2) psi - g * phi(0, t),    psi(0) = 0,

where ``phi(0, t)`` is the pulse envelope at the emitter.  This module
provides the closed-form solution and a fixed-step fourth-order (RK4)
integration of the same equation, so each can serve as an oracle for the
other.  Both store amplitudes in the frame rotating at ``omega0``; the
lab-frame amplitude is ``psi(t) * exp(-i omega0 t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .model import (
    DEFAULT_STEP_CAP,
    PulseParams,
    SystemParams,
    TimeGrid,
    check_step,
    default_step,
    rate_scale,
    uniform_grid,
)
from .pulse import envelope_at

__all__ = [
    "AmplitudeTrajectory",
    "closed_form_psi",
    "closed_form_trajectory",
    "integrate_psi",
    "full_cycle_grid",
    "CONFLUENT_THRESHOLD",
    "DEFAULT_CYCLE_TOL",
]

# Switch to the degenerate-denominator limit below this |(gamma0-delta)/2 - i deltaL|.
CONFLUENT_THRESHOLD = 1e-8

# Default end-population target of a full-cycle grid.
DEFAULT_CYCLE_TOL = 1e-12

_CHUNK = 1 << 20


@dataclass(frozen=True, eq=False)
class AmplitudeTrajectory:
    """Sampled rotating-frame amplitude of the emitter; the envelope that
    drove it is recomputed from ``system`` and ``pulse``, not stored.

    Attributes
    ----------
    grid : TimeGrid
    psi : ndarray
        Complex emitter amplitudes ``psi(t_k)``; ``psi[0] = 0``.
    system : SystemParams
    pulse : PulseParams
    """

    grid: TimeGrid
    psi: np.ndarray
    system: SystemParams
    pulse: PulseParams


def closed_form_psi(system: SystemParams, pulse: PulseParams, t):
    """Closed-form rotating-frame amplitude ``psi(t)``.

    For distinct decay exponents this is

        sqrt(gamma0 delta / 2) (e^{-gamma0 t/2} - e^{-(delta/2 + i deltaL) t})
            / ((gamma0 - delta)/2 - i deltaL).

    When the denominator is smaller than ``CONFLUENT_THRESHOLD * gamma0``
    the degenerate limit ``-sqrt(gamma0 delta / 2) t e^{-(delta/2 + i deltaL) t}``
    is used instead of nudging parameters; that point (gamma0 = delta,
    deltaL = 0) is the maximal-absorption case exercised by tests.

    Parameters
    ----------
    t : float or array_like
        Time(s), must be >= 0.
    """
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0):
        raise ValueError("t must be >= 0")
    a = 0.5 * system.gamma0
    b = 0.5 * pulse.delta + 1j * pulse.deltaL
    denom = a - b
    amp = math.sqrt(0.5 * system.gamma0 * pulse.delta)
    if abs(denom) < CONFLUENT_THRESHOLD * system.gamma0:
        out = -amp * tt * np.exp(-b * tt)
    else:
        out = amp * (np.exp(-a * tt) - np.exp(-b * tt)) / denom
    if np.isscalar(t) or tt.ndim == 0:
        return complex(out)
    return out


def closed_form_trajectory(
    system: SystemParams, pulse: PulseParams, grid: TimeGrid
) -> AmplitudeTrajectory:
    """Sample the closed form on a grid."""
    return AmplitudeTrajectory(
        grid=grid,
        psi=closed_form_psi(system, pulse, grid.times()),
        system=system,
        pulse=pulse,
    )


def integrate_psi(
    system: SystemParams, pulse: PulseParams, grid: TimeGrid
) -> AmplitudeTrajectory:
    """Fixed-step RK4 integration of the amplitude equation.

    The equation is linear in ``psi`` with a constant real coefficient
    ``-gamma0/2``, so one RK4 step is an affine recurrence
    ``psi[m+1] = A psi[m] + B[m]`` whose coefficients involve the drive at
    the step endpoints and midpoint.  The recurrence is evaluated with a
    C-level IIR filter; the result is bit-for-bit the classical RK4 sweep.

    Raises
    ------
    ValueError
        If ``grid.spacing`` exceeds ``0.05 / max(gamma0, delta, |deltaL|)``
        (accuracy guard), refusing a step too coarse for the fastest rate.
    """
    # scipy.signal is slow to import and no CLI mode integrates psi.
    from scipy.signal import lfilter

    h = grid.spacing
    check_step(h, system, pulse)
    mu = -0.5 * system.gamma0 * h
    # One-step amplification and drive weights of RK4 for y' = mu/h y + u(t).
    a_step = 1.0 + mu * (1.0 + mu * (0.5 + mu * (1.0 / 6.0 + mu / 24.0)))
    c_node = 1.0 + mu * (1.0 + mu * (0.5 + mu * 0.25))
    c_half = 4.0 + mu * (2.0 + mu * 0.5)

    n = grid.n
    psi = np.empty(n, dtype=complex)
    psi[0] = 0.0
    g = system.g
    zi = np.zeros(1, dtype=complex)
    for i0 in range(0, n - 1, _CHUNK):
        i1 = min(i0 + _CHUNK, n - 1)
        nodes = envelope_at(system, pulse, np.arange(i0, i1 + 1) * h)
        t_half = (np.arange(i0, i1) + 0.5) * h
        u_half = -g * envelope_at(system, pulse, t_half)
        u_lo = -g * nodes[:-1]
        u_hi = -g * nodes[1:]
        b_drive = (h / 6.0) * (c_node * u_lo + c_half * u_half + u_hi)
        seg, zi = lfilter([1.0], [1.0, -a_step], b_drive, zi=zi)
        psi[i0 + 1 : i1 + 1] = seg
    return AmplitudeTrajectory(grid=grid, psi=psi, system=system, pulse=pulse)


def _population_bound(system: SystemParams, pulse: PulseParams, t: float) -> float:
    """Monotone (for t past the peak) upper bound on |psi(t)|^2.

    Uses |e^{-a t} - e^{-b t}| <= |a - b| t e^{-min(Re a, Re b) t} together
    with the plain triangle inequality, whichever is smaller.
    """
    a = 0.5 * system.gamma0
    b_re = 0.5 * pulse.delta
    denom = abs(complex(a - b_re, -pulse.deltaL))
    amp = math.sqrt(0.5 * system.gamma0 * pulse.delta)
    mu = min(a, b_re)
    cand = t * math.exp(-mu * t)
    if denom > 0.0:
        two_exp = (math.exp(-a * t) + math.exp(-b_re * t)) / denom
        cand = min(cand, two_exp)
    return (amp * cand) ** 2


def full_cycle_grid(
    system: SystemParams,
    pulse: PulseParams,
    cycle_tol: float = DEFAULT_CYCLE_TOL,
    max_step: float | None = None,
) -> TimeGrid:
    """Grid long enough that the emitter has fully re-radiated.

    Solves ``bound(t*) = cycle_tol`` for the population bound of
    :func:`_population_bound` and returns a grid with ``tf = 2 t*``.  The
    doubled horizon makes the neglected tail exponentially small: for
    t >= t*, ``|psi(t)|^2 <= cycle_tol * e^{-mu (t - t*)}`` with
    ``mu = min(gamma0, delta)/2``, so every remaining integral
    contribution (the largest being omega0 * gamma0 * |psi|^2) is below
    ``cycle_tol * (omega0 / gamma0)`` in units of ``hbar gamma0``, with
    the factor-two margin suppressing it further by ``e^{-mu t*}``.

    Parameters
    ----------
    cycle_tol : float
        Population threshold, 0 < cycle_tol < 1.
    max_step : float, optional
        Cap on the spacing, which is ``min(max_step, 0.02 / max rate)``
        (``model.default_step``); unset, the cap is 1e-3.
    """
    if not (0.0 < cycle_tol < 1.0):
        raise ValueError("cycle_tol must be in (0, 1)")
    mu = 0.5 * min(system.gamma0, pulse.delta)
    t_lo = 1.0 / mu  # past the peak of t e^{-mu t}; bound is monotone beyond
    if _population_bound(system, pulse, t_lo) <= cycle_tol:
        t_star = t_lo
    else:
        t_hi = 2.0 * t_lo
        while _population_bound(system, pulse, t_hi) > cycle_tol:
            t_hi *= 2.0
        t_star = brentq(
            lambda t: math.log(_population_bound(system, pulse, t)) - math.log(cycle_tol),
            t_lo,
            t_hi,
            xtol=1e-9 / mu,
        )
    cap = DEFAULT_STEP_CAP if max_step is None else max_step
    return uniform_grid(2.0 * t_star, default_step(rate_scale(system, pulse), cap))

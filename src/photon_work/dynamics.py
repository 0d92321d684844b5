"""Excited-state amplitude of the driven emitter, two independent ways.

The rotating-frame amplitude obeys the linear equation

    d psi/dt = -(gamma0 / 2) psi - g * phi(0, t),    psi(0) = 0,

where ``phi(0, t)`` is the pulse envelope at the emitter.  This module
provides the closed-form solution and a fixed-step fourth-order (RK4)
integration of the same equation, so each can serve as an oracle for the
other; one divided difference of two exponentials gives both.  Both
store amplitudes in the frame rotating at ``omega0``; the lab-frame
amplitude is ``psi(t) * exp(-i omega0 t)``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    DEFAULT_STEP_CAP,
    PulseParams,
    SystemParams,
    TimeGrid,
    check_step,
    default_step,
    envelope_at,
    rate_scale,
    uniform_grid,
)

__all__ = [
    "AmplitudeTrajectory",
    "closed_form_psi",
    "closed_form_trajectory",
    "integrate_psi",
    "full_cycle_grid",
    "peak_population",
    "DEFAULT_CYCLE_TOL",
]

# Default end-population target of a full-cycle grid.
DEFAULT_CYCLE_TOL = 1e-12

# _divided_difference keeps the plain difference of exponentials where
# |p - q| t reaches this, and the exprel series below it.
_PLAIN_MIN = 0.5
# Taylor coefficients 1/(k+1)! of exprel: the 16th term is below 2e-18
# for |z| < _PLAIN_MIN.
_EXPREL_COEFFS = tuple(1.0 / math.factorial(k + 1) for k in range(16))

# peak_population's samples per beat period (and in all, at least), its
# horizon in e-folds and its chunk.
_SAMPLES_PER_BEAT = 320
_EFOLDS = 40.0
_PEAK_CHUNK = 4096
# Time tolerance of the refined peak.
_PEAK_XTOL = 1e-10


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


def _exprel(z):
    """``(e^z - 1) / z`` elementwise (1 at z = 0) by its Taylor series, with
    both components accurate to a few ulps for |z| < _PLAIN_MIN, all that
    its only caller, :func:`_divided_difference`, passes."""
    z = np.asarray(z, dtype=complex)
    acc = np.full_like(z, _EXPREL_COEFFS[-1])
    for c in reversed(_EXPREL_COEFFS[:-1]):
        acc = acc * z + c
    return acc


def _divided_difference(scale, p, q, t):
    """``scale (e^{-p t} - e^{-q t}) / (p - q)`` at the times ``t`` >= 0
    (1-D), p real and q complex.  Where |p - q| t < 0.5 it is
    ``-scale t e^{-q t} exprel(-(p - q) t)``, accurate to a few ulps as
    p -> q (the confluent limit ``-scale t e^{-q t}`` at p = q) and at
    the first samples; elsewhere the plain difference, whose factors
    never overflow, whereas ``expm1`` of (q - p) t does at Re q << p."""
    d = p - q
    if d != 0:
        out = scale * (np.exp(-p * t) - np.exp(-q * t)) / d
    else:
        out = np.zeros(t.shape, dtype=complex)
    # Both branches give 0 at t = 0.
    near = (abs(d) * t < _PLAIN_MIN) & (t > 0.0)
    if near.any():
        tn = t[near]
        out[near] = -scale * tn * np.exp(-q * tn) * _exprel(-d * tn)
    return out


def closed_form_psi(system: SystemParams, pulse: PulseParams, t):
    """Closed-form rotating-frame amplitude ``psi(t)``: with a = gamma0/2
    and b = delta/2 + i deltaL, the divided difference

        sqrt(gamma0 delta / 2) (e^{-a t} - e^{-b t}) / (a - b),

    confluent at a = b (gamma0 = delta, deltaL = 0: maximal absorption).

    Parameters
    ----------
    t : float or array_like
        Time(s), must be >= 0.
    """
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0):
        raise ValueError("t must be >= 0")
    amp = math.sqrt(0.5 * system.gamma0 * pulse.delta)
    b = complex(0.5 * pulse.delta, pulse.deltaL)
    out = _divided_difference(amp, 0.5 * system.gamma0, b, tt.reshape(-1))
    if np.isscalar(t) or tt.ndim == 0:
        return complex(out[0])
    return out.reshape(tt.shape)


def peak_population(system: SystemParams, pulse: PulseParams) -> float:
    """Largest |psi(t)|^2 of the closed form.

    Uniform samples of [0, 40 / (a + delta/2)], 320 to a beat period
    2 pi / |deltaL| and at least 320, are taken chunk by chunk until the
    decreasing bound (amp (e^{-a t} + e^{-delta t/2}) / |a - b|)^2 of
    :func:`_population_bound` falls below the best sample.  The best one
    seeds a safeguarded Newton iteration for the zero of d|psi|^2/dt
    between its neighbours, which holds a maximum since neither lies
    higher.
    """
    a = 0.5 * system.gamma0
    beta = 0.5 * pulse.delta
    amp = math.sqrt(a * pulse.delta)
    denom = abs(complex(a - beta, -pulse.deltaL))
    t1 = _EFOLDS / (a + beta)
    beats = abs(pulse.deltaL) * t1 / (2.0 * math.pi)
    n = max(_SAMPLES_PER_BEAT, math.ceil(_SAMPLES_PER_BEAT * beats))
    h = t1 / n
    best, t_best = -1.0, 0.0
    for k0 in range(0, n + 1, _PEAK_CHUNK):
        t = np.arange(k0, min(k0 + _PEAK_CHUNK, n + 1)) * h
        pop = np.abs(closed_form_psi(system, pulse, t)) ** 2
        k = int(np.argmax(pop))
        if pop[k] > best:
            best, t_best = float(pop[k]), float(t[k])
        if amp * (math.exp(-a * t[-1]) + math.exp(-beta * t[-1])) < denom * math.sqrt(best):
            break
    # Newton on d|psi|^2/dt = 2 Re(conj(psi) psi'), kept inside the
    # shrinking bracket by bisection.  With e = amp e^{-b t},
    # psi' = -a psi - e and psi'' = -a psi' + b e: no 1/(a - b) enters.
    b = complex(beta, pulse.deltaL)
    lo, hi = max(t_best - h, 0.0), t_best + h
    t = t_best
    while hi - lo > _PEAK_XTOL:
        p = closed_form_psi(system, pulse, t)
        e = amp * cmath.exp(-b * t)
        dp = -a * p - e
        slope = (p.conjugate() * dp).real
        if slope > 0.0:
            lo = t
        else:
            hi = t
        curve = abs(dp) ** 2 + (p.conjugate() * (b * e - a * dp)).real
        step = slope / curve if curve < 0.0 else math.inf
        t_next = t - step
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)
        t, moved = t_next, abs(t_next - t)
        if moved <= _PEAK_XTOL:
            break
    return max(best, abs(closed_form_psi(system, pulse, t)) ** 2)


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

    The equation is linear with the constant coefficient ``-gamma0/2``
    and the drive falls by Q = e^{-b h}, b = delta/2 + i deltaL, at every
    step, so one RK4 step is ``psi[m+1] = A psi[m] + B Q^m`` (A RK4's
    amplification, B its drive weight).  From psi[0] = 0 the samples are
    the recurrence's exact solution ``B (A^m - Q^m) / (A - Q)``, the
    divided difference at rates (-log A, b h) and "time" m over its value
    at m = 1, equal to the step-by-step sweep to rounding.

    Raises
    ------
    ValueError
        If ``grid.spacing`` exceeds ``0.05 / max(gamma0, delta, |deltaL|)``
        (accuracy guard), refusing a step too coarse for the fastest rate.
    """
    h = grid.spacing
    # The guard also keeps a_step > 0, so its log is defined.
    check_step(h, system, pulse)
    mu = -0.5 * system.gamma0 * h
    # One-step amplification and drive weights of RK4 for y' = mu/h y + u(t).
    a_step = 1.0 + mu * (1.0 + mu * (0.5 + mu * (1.0 / 6.0 + mu / 24.0)))
    c_node = 1.0 + mu * (1.0 + mu * (0.5 + mu * 0.25))
    c_half = 4.0 + mu * (2.0 + mu * 0.5)
    e_lo, e_half, e_hi = envelope_at(system, pulse, np.array([0.0, 0.5, 1.0]) * h)
    b_drive = (h / 6.0) * -system.g * (c_node * e_lo + c_half * e_half + e_hi)
    p, q = -math.log(a_step), complex(0.5 * pulse.delta, pulse.deltaL) * h
    b_drive /= _divided_difference(1.0, p, q, np.ones(1))[0]
    psi = _divided_difference(b_drive, p, q, np.arange(grid.n, dtype=float))
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
    max_step: float = DEFAULT_STEP_CAP,
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
    max_step : float
        Cap on the spacing, which is ``min(max_step, 0.02 / max rate)``
        (``model.default_step``).
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
        # Bisection of the monotone bound down to a bracket of 1e-9 / mu.
        lo, hi = t_lo, t_hi
        while hi - lo > 1e-9 / mu:
            mid = 0.5 * (lo + hi)
            if _population_bound(system, pulse, mid) > cycle_tol:
                lo = mid
            else:
                hi = mid
        t_star = 0.5 * (lo + hi)
    return uniform_grid(2.0 * t_star, default_step(rate_scale(system, pulse), max_step))

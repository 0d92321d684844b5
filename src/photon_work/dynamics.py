"""Excited-state amplitude of the driven emitter, two independent ways.

The rotating-frame amplitude obeys the linear equation

    d psi/dt = -(gamma0 / 2) psi - g * phi(0, t),    psi(0) = 0,

where ``phi(0, t)`` is the pulse envelope at the emitter.  This module
provides the closed-form solution and a fixed-step fourth-order (RK4)
integration of the same equation, so each can serve as an oracle for the
other.  Both store amplitudes in the frame rotating at ``omega0``; the
lab-frame amplitude is ``psi(t) * exp(-i omega0 t)``.  Grid-free
integrals of the closed form (``thermo.closed_form_moments``, the peak
population) share one Gauss-Legendre panel layout, :func:`_panels`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq, minimize_scalar

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
    "peak_population",
    "DEFAULT_CYCLE_TOL",
]

# Default end-population target of a full-cycle grid.
DEFAULT_CYCLE_TOL = 1e-12

_CHUNK = 1 << 20

# closed_form_psi keeps the plain difference of exponentials where
# |a - b| t reaches this; it then loses at most four of its digits.
_PLAIN_MIN = 1e-4
# Taylor coefficients 1/(k+1)! of exprel, used for |z| below the radius:
# the 16th term is below 2e-18 there.
_SERIES_RADIUS = 0.5
_EXPREL_COEFFS = tuple(1.0 / math.factorial(k + 1) for k in range(16))

# Gauss-Legendre panels: nodes per panel, panels per beat period, panels
# of the tail, horizon in e-folds, panels evaluated (and bisected) per
# block, and the bisection's agreement and depth (_panel_quadrature).
_GL_NODES = 20
_PANELS_PER_BEAT = 16
_TAIL_PANELS = 40
_EFOLDS = 40.0
_PANEL_BLOCK = 4096
_PANEL_TOL = 1e-13
_MAX_BISECTIONS = 40


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
    """``(e^z - 1) / z`` elementwise (1 at z = 0), with both components
    accurate to a few ulps: a Taylor series for |z| < 0.5, ``expm1(z) / z``
    beyond.  The real part of ``z`` must stay below about 709."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    small = np.abs(z) < _SERIES_RADIUS
    zs = z[small]
    acc = np.full_like(zs, _EXPREL_COEFFS[-1])
    for c in reversed(_EXPREL_COEFFS[:-1]):
        acc = acc * zs + c
    out[small] = acc
    zl = z[~small]
    out[~small] = np.expm1(zl) / zl
    return out


def closed_form_psi(system: SystemParams, pulse: PulseParams, t):
    """Closed-form rotating-frame amplitude ``psi(t)``.

    With a = gamma0/2 and b = delta/2 + i deltaL this is

        sqrt(gamma0 delta / 2) (e^{-a t} - e^{-b t}) / (a - b).

    Where |a - b| t < 1e-4 the divided difference is evaluated as
    ``-t e^{-b t} exprel(-(a - b) t)``, which stays accurate as a -> b and
    gives the confluent limit ``-sqrt(gamma0 delta / 2) t e^{-b t}`` at
    a = b (gamma0 = delta, deltaL = 0: the maximal-absorption case).
    Elsewhere the plain difference is kept: its factors never overflow,
    whereas ``expm1`` of (b - a) t does at delta << gamma0 on long grids.

    Parameters
    ----------
    t : float or array_like
        Time(s), must be >= 0.
    """
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0):
        raise ValueError("t must be >= 0")
    a = 0.5 * system.gamma0
    b = complex(0.5 * pulse.delta, pulse.deltaL)
    d = a - b
    amp = math.sqrt(0.5 * system.gamma0 * pulse.delta)
    flat = tt.reshape(-1)
    if d != 0:
        out = amp * (np.exp(-a * flat) - np.exp(-b * flat)) / d
    else:
        out = np.zeros(flat.shape, dtype=complex)
    # Both branches give 0 at t = 0, so a grid from 0 seldom needs the series.
    near = (abs(d) * flat < _PLAIN_MIN) & (flat > 0.0)
    if near.any():
        tn = flat[near]
        out[near] = -amp * tn * np.exp(-b * tn) * _exprel(-d * tn)
    if np.isscalar(t) or tt.ndim == 0:
        return complex(out[0])
    return out.reshape(tt.shape)


@functools.cache
def _unit_rule(n: int) -> tuple:
    """Gauss-Legendre nodes and weights of order ``n`` on [0, 1], read-only
    since every caller shares them."""
    x, w = leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _panels(system: SystemParams, pulse: PulseParams):
    """Starting panels of the grid-free integrals of the closed form over
    [0, T], as (left edges, widths) in blocks of at most ``_PANEL_BLOCK``.

    While both exponentials of psi are alive, up to 40/(a + delta/2),
    the panels are uniform, 16 to a beat period 2 pi/|deltaL| and at
    least 16; 40 geometric panels then reach T = 40 e-folds of
    min(a, delta/2).  For delta/2 > a, T stops where e^{(delta/2 - a) t}
    would overflow: the envelope |phi|^2 ~ e^{-delta t} has underflowed
    there long before.
    """
    a = 0.5 * system.gamma0
    beta = 0.5 * pulse.delta
    t1 = _EFOLDS / (a + beta)
    t2 = _EFOLDS / min(a, beta)
    if beta > a:
        t2 = min(t2, 700.0 / (beta - a))
    beats = abs(pulse.deltaL) * t1 / (2.0 * math.pi)
    n1 = max(_PANELS_PER_BEAT, math.ceil(_PANELS_PER_BEAT * beats))
    h = t1 / n1
    for k0 in range(0, n1, _PANEL_BLOCK):
        lo = np.arange(k0, min(k0 + _PANEL_BLOCK, n1)) * h
        yield lo, np.full(lo.size, h)
    edges = np.geomspace(t1, t2, _TAIL_PANELS + 1)
    yield edges[:-1], np.diff(edges)


def _panel_quadrature(system: SystemParams, pulse: PulseParams, f) -> float:
    """Integral over [0, T] of the vectorized ``f(t)`` on :func:`_panels`.

    Each panel takes the Gauss-Legendre rule of ``_GL_NODES`` nodes and is
    bisected until the rule of half the order agrees with it to
    ``_PANEL_TOL`` of its width times the largest |f| on it, or to 64 eps t
    times the variation of f over its nodes: each t (and the phase
    (a - b) t computed from it) is rounded by about eps t, which moves the
    integral by that much.  Bisection finds the near-zeros of psi (beat
    minima while |a - b| t << 1), where the phase of psi turns within a
    small fraction of a beat; there the rounding floor, not the relative
    agreement, ends it.  Failing panels are bisected depth first,
    ``_PANEL_BLOCK`` at a time, which bounds memory; a starting block stops
    bisecting once it has evaluated ``2 * _MAX_BISECTIONS * _PANEL_BLOCK``
    panels, which bounds time.  Panels still failing after ``_MAX_BISECTIONS`` levels or
    past that budget are kept as they are, and a ``RuntimeWarning`` gives
    their number.
    """
    x, w = _unit_rule(_GL_NODES)
    xc, wc = _unit_rule(_GL_NODES // 2)
    wobble = 64.0 * np.finfo(float).eps
    partials = []
    unconverged = 0
    for lo0, width0 in _panels(system, pulse):
        stack = [(lo0, width0, 0)]
        budget = 2 * _MAX_BISECTIONS * _PANEL_BLOCK
        while stack:
            lo, width, depth = stack.pop()
            budget -= lo.size
            fine = f(lo[:, None] + width[:, None] * x)
            value = (fine @ w) * width
            coarse = (f(lo[:, None] + width[:, None] * xc) @ wc) * width
            tol = np.maximum(
                _PANEL_TOL * width * np.abs(fine).max(axis=1),
                wobble * (lo + width) * np.abs(np.diff(fine, axis=1)).sum(axis=1),
            )
            done = np.abs(value - coarse) <= tol
            if depth == _MAX_BISECTIONS or budget < 0:
                unconverged += int((~done).sum())
                done[:] = True
            partials.append(float(value[done].sum()))
            half = 0.5 * width[~done]
            lo = np.concatenate([lo[~done], lo[~done] + half])
            width = np.concatenate([half, half])
            for k0 in range(0, lo.size, _PANEL_BLOCK):
                stack.append((lo[k0 : k0 + _PANEL_BLOCK], width[k0 : k0 + _PANEL_BLOCK], depth + 1))
    if unconverged:
        warnings.warn(
            f"{unconverged} Gauss-Legendre panels were kept unconverged at "
            f"delta={pulse.delta!r}, deltaL={pulse.deltaL!r}: the integral "
            f"over them may be inexact",
            RuntimeWarning,
            stacklevel=3,
        )
    return math.fsum(partials)


def peak_population(system: SystemParams, pulse: PulseParams) -> float:
    """Largest |psi(t)|^2 of the closed form.

    The best Gauss-Legendre node of the starting :func:`_panels` seeds a
    bounded maximization over one panel width on either side of it (a
    panel spans at most a sixteenth of a beat, so the population has one
    maximum there).
    """
    x, _ = _unit_rule(_GL_NODES)
    best = (-1.0, 0.0, 0.0)
    for lo, width in _panels(system, pulse):
        t = lo[:, None] + width[:, None] * x
        pop = np.abs(closed_form_psi(system, pulse, t)) ** 2
        p, k = np.unravel_index(int(np.argmax(pop)), pop.shape)
        if pop[p, k] > best[0]:
            best = (float(pop[p, k]), float(t[p, k]), float(width[p]))
    value, t_best, width = best
    res = minimize_scalar(
        lambda s: -abs(closed_form_psi(system, pulse, s)) ** 2,
        bounds=(max(t_best - width, 0.0), t_best + width),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return max(value, -float(res.fun))


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

"""Coherent-pulse counterpart: optical Bloch equations and linear response.

A classical drive alpha(t) equal to the photon envelope phi(0, t) replaces
the quantized field.  The reduced state obeys the full nonlinear Bloch
pair (rotating frame at omega0, s = rho_eg e^{i omega0 t}):

    ds/dt = -(gamma0/2) s - g alpha~(t) (1 - 2 rho_ee)
    d(rho_ee)/dt = -gamma0 rho_ee - 2 g Re[alpha~(t) s*]

The pair is linear in y = (Re s, Im s, rho_ee) with a known drive,
y' = A(t) y + b(t), so one classic RK4 step is exactly an affine map
y -> P y + q built from the drive at t, t + h/2 and t + h.
``integrate_bloch`` builds the maps of a fixed-size chunk of steps with
numpy and composes them by a blocked two-level prefix scan (Blelloch,
"Prefix Sums and Their Applications", CMU-CS-90-190, 1990), carrying the
last state into the next chunk.  It is the RK4 arithmetic in another
order, so results agree with step-by-step RK4 to rounding, not bitwise.

The work received from the drive, W_alpha = integral Tr[rho_s dH/dt] dt,
splits exactly into three pieces by writing rho_eg = R e^{i theta}:

    W_int  = change of <H_int>      (modulus-phase independent piece)
    W_reac = integral <H_int> (-R'/R) dt        (modulus part)
    W_abs  = integral omega_s^eg (-2 g Re[alpha rho_eg*]) dt  (phase part)

with omega_s^eg = -Im[d(rho_eg)/dt / rho_eg] the instantaneous emission
frequency.  The split is algebraic and valid for the full nonlinear
motion.  Each piece, and the heat Q_alpha = -gamma0 integral (omega0
rho_ee + <H_int>/2) dt, is one coefficient row on the moments of
``thermo.energy_moments`` (u = alpha rho_eg*, occ = 1 - 2 rho_ee).  W_reac,
W_abs and Q_alpha are the photon's W1_reac, Q1_abs and Q1_em rows
(``thermo.shared_rows``); W_alpha has a row of its own, so the residual
compares independently written rows and is rounding noise.

Linear response: the susceptibility of the dipole is a single Lorentzian

    chi~(omega) = i g / (gamma0/2 + i(omega0 - omega))

and the frequency-domain forms of the reactive and absorptive work are
overlaps of chi~' and chi~'' with the Lorentzian pulse spectrum, which
have closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PulseParams, SystemParams, TimeGrid, check_step
from .pulse import envelope_at
from .thermo import check_full_cycle, energy_moments, row_value, shared_rows

__all__ = [
    "BlochTrajectory",
    "SemiclassicalReport",
    "integrate_bloch",
    "susceptibility",
    "work_reactive",
    "work_absorptive",
    "work_total_and_decomposition",
]


@dataclass(frozen=True, eq=False)
class BlochTrajectory:
    """Bloch pair solution in the rotating frame at omega0.

    The drive applied at node k is ``amplitude_scale`` times the envelope
    of ``pulse`` at k h.  Downstream functionals recompute it from the
    same times, so they stay consistent with the integration even off the
    matched single-photon normalization.
    """

    grid: TimeGrid
    rho_eg: np.ndarray
    rho_ee: np.ndarray
    amplitude_scale: float
    system: SystemParams
    pulse: PulseParams


@dataclass(frozen=True)
class SemiclassicalReport:
    """Drive work, its three-way split, and the heat (hbar gamma0 units)."""

    W_alpha: float
    W_int: float
    W_reac: float
    W_abs: float
    Q_alpha: float
    residual_decomposition: float


# Steps per scan chunk.  Bounds the scan's working memory (a few hundred
# bytes a step) whatever the grid length; blocks are isqrt(_CHUNK) steps.
_CHUNK = 1 << 14

# Columns of the augmented identity: inputs x, y, p and the unit drive w.
_X0, _Y0, _P0, _W0 = np.eye(4)[:, :, None]


def _rk4_maps(u, h, gamma0):
    """Affine maps ``y -> P y + q`` of classic RK4 steps of the Bloch pair.

    With y = (Re s, Im s, rho_ee) and u = 2 g alpha~, the pair reads
    y' = A y + b with A = [[-gamma0/2, 0, Re u], [0, -gamma0/2, Im u],
    [-Re u, -Im u, -gamma0]] and b = -(Re u, Im u, 0)/2.  ``u`` has shape
    (3, m): the drive at t, t + h/2 and t + h of each of m steps.  The RK4
    stages run on the four columns of the augmented identity at once.  The
    result has shape (3, 4, m): P[r, c] at [r, c] for c < 3, q[r] at [r, 3].
    """
    half = 0.5 * gamma0
    ur, ui = u.real, u.imag
    w_half = 0.5 * _W0

    def deriv(x, y, p, k):
        # -g alpha~ (1 - 2 rho_ee) = u z, with the drive's -1/2 in column w.
        z = p - w_half
        return (
            ur[k] * z - half * x,
            ui[k] * z - half * y,
            -(ur[k] * x + ui[k] * y) - gamma0 * p,
        )

    k1 = deriv(_X0, _Y0, _P0, 0)
    k2 = deriv(*(s + 0.5 * h * k for s, k in zip((_X0, _Y0, _P0), k1)), 1)
    k3 = deriv(*(s + 0.5 * h * k for s, k in zip((_X0, _Y0, _P0), k2)), 1)
    k4 = deriv(*(s + h * k for s, k in zip((_X0, _Y0, _P0), k3)), 2)
    return np.stack(
        [
            s + (h / 6.0) * (k1[r] + 2.0 * k2[r] + 2.0 * k3[r] + k4[r])
            for r, s in enumerate((_X0, _Y0, _P0))
        ]
    )


def _scan(maps, state):
    """States after each of m affine maps (shape (3, 4, m)) from ``state``.

    Two-level scan over blocks of isqrt(m) steps: pass 1 composes the maps
    of every block into prefix maps (serial over a block's steps,
    vectorized across blocks), pass 2 runs the block totals from ``state``
    to each block's start (serial over blocks), and pass 3 applies every
    prefix to its block's start at once.  Returns shape (3, m).
    """
    m = maps.shape[2]
    size = math.isqrt(m)
    nblocks = -(-m // size)
    # prefix[j, :, :, b] is step j of block b; padding only feeds cut states.
    padded = np.zeros((3, 4, nblocks * size))
    padded[:, :, :m] = maps
    prefix = np.ascontiguousarray(
        padded.reshape(3, 4, nblocks, size).transpose(3, 0, 1, 2)
    )
    for j in range(1, size):
        step = prefix[j]
        prev = prefix[j - 1]
        # step after prev: (P, q) o (P', q') = (P P', P q' + q).
        comp = (
            step[:, :1] * prev[0] + step[:, 1:2] * prev[1] + step[:, 2:3] * prev[2]
        )
        comp[:, 3] += step[:, 3]
        prefix[j] = comp

    starts = []
    for total in prefix[-1].transpose(2, 0, 1).tolist():
        starts.append(state)
        x, y, p = state
        state = [row[0] * x + row[1] * y + row[2] * p + row[3] for row in total]
    start_x, start_y, start_p = np.array(starts).T

    states = (
        prefix[:, :, 0] * start_x
        + prefix[:, :, 1] * start_y
        + prefix[:, :, 2] * start_p
        + prefix[:, :, 3]
    )
    return states.transpose(1, 2, 0).reshape(3, nblocks * size)[:, :m]


def integrate_bloch(
    system: SystemParams,
    pulse: PulseParams,
    grid: TimeGrid,
    amplitude_scale: float = 1.0,
) -> BlochTrajectory:
    """Integrate the full nonlinear Bloch pair with classic RK4.

    The pair is linear in (Re s, Im s, rho_ee) with a known drive, so each
    RK4 step is exactly an affine map of the state.  The maps of a chunk of
    steps are built with numpy from the drive at t, t + h/2 and t + h and
    composed by a blocked two-level scan; the last state carries into the
    next chunk.  This is the arithmetic of step-by-step RK4 in another
    order: results agree with it to rounding, not bitwise.

    Parameters
    ----------
    system : SystemParams
    pulse : PulseParams
        Supplies the drive alpha~(t) = scale * phi~(0, t).
    grid : TimeGrid
        Uniform grid; the step guard of the amplitude integrator applies.
    amplitude_scale : float
        Multiplier on the drive.  1.0 is the matched single-photon
        envelope; other values deliberately break that normalization
        (linear-response scaling tests).
    """
    h = grid.spacing
    check_step(h, system, pulse)
    n = grid.n
    rho_eg = np.zeros(n, dtype=np.complex128)
    rho_ee = np.zeros(n, dtype=np.float64)
    state = [0.0, 0.0, 0.0]
    for lo in range(0, n - 1, _CHUNK):
        hi = min(lo + _CHUNK, n - 1)
        t = np.arange(lo, hi + 1) * h
        nodes = amplitude_scale * envelope_at(system, pulse, t)
        mid = amplitude_scale * envelope_at(system, pulse, t[:-1] + 0.5 * h)
        u = (2.0 * system.g) * np.stack((nodes[:-1], mid, nodes[1:]))
        states = _scan(_rk4_maps(u, h, system.gamma0), state)
        rho_eg.real[lo + 1 : hi + 1] = states[0]
        rho_eg.imag[lo + 1 : hi + 1] = states[1]
        rho_ee[lo + 1 : hi + 1] = states[2]
        state = states[:, -1].tolist()
    return BlochTrajectory(
        grid=grid,
        rho_eg=rho_eg,
        rho_ee=rho_ee,
        amplitude_scale=amplitude_scale,
        system=system,
        pulse=pulse,
    )


def susceptibility(system: SystemParams, omega):
    """Linear susceptibility chi~'(omega) + i chi~''(omega) of the dipole.

    Single Lorentzian of half width gamma0/2 at omega0:
    chi~' = g(omega0 - omega)/((gamma0/2)^2 + (omega0 - omega)^2),
    chi~'' = (g gamma0/2)/(same denominator).
    """
    detun = system.omega0 - np.asarray(omega, dtype=float)
    denom = (0.5 * system.gamma0) ** 2 + detun**2
    chi = (system.g * detun + 1j * (0.5 * system.g * system.gamma0)) / denom
    if np.ndim(omega) == 0:
        return complex(chi)
    return chi


def _spectral_overlaps(system: SystemParams, pulse: PulseParams):
    """Overlaps of chi~' and chi~'' with |alpha~(omega)|^2 over the line.

    Both are Lorentzian-on-Lorentzian integrals.  With a = gamma0/2,
    b = delta/2, D = deltaL and x = omega - omega0:

        integral x dx / ((a^2 + x^2)(b^2 + (x - D)^2)) = pi D / (b den)
        integral dx / ((a^2 + x^2)(b^2 + (x - D)^2)) = pi (a + b) / (a b den)

    with den = (a + b)^2 + D^2, and |alpha~|^2 = rho0 delta / (b^2 + (x - D)^2).
    """
    a = 0.5 * system.gamma0
    b = 0.5 * pulse.delta
    d = pulse.deltaL
    w = system.rho0 * pulse.delta
    den = (a + b) ** 2 + d**2
    re = -system.g * w * math.pi * d / (b * den)
    im = 0.5 * system.g * system.gamma0 * w * math.pi * (a + b) / (a * b * den)
    return re, im


def work_reactive(system: SystemParams, pulse: PulseParams) -> float:
    """Reactive drive work from linear response,
    ``-hbar delta g integral chi~'(omega) |alpha~(omega)|^2 domega``.

    Odd in the laser detuning; positive for a blue-detuned narrowband
    pulse (the spectral weight sits where chi~' < 0, and the leading
    minus sign makes the level-shift work positive)."""
    return -pulse.delta * system.g * _spectral_overlaps(system, pulse)[0]


def work_absorptive(system: SystemParams, pulse: PulseParams) -> float:
    """Absorptive drive work from linear response,
    ``hbar omegaL 2 g integral chi~''(omega) |alpha~(omega)|^2 domega``;
    equals ``2 hbar omegaL gamma0 / (gamma0 + delta)`` on resonance."""
    return pulse.omegaL * 2.0 * system.g * _spectral_overlaps(system, pulse)[1]


def work_total_and_decomposition(
    traj: BlochTrajectory, allow_partial: bool = False
) -> SemiclassicalReport:
    """Drive work W_alpha, its exact three-way split, and the heat.

    All five functionals are coefficient rows on the trajectory's
    trapezoid moments (module docstring).  The W_alpha and W_int rows use
    the exact envelope relation ``d(alpha~)/dt = -(delta/2 + i deltaL)
    alpha~``, and the drive is recomputed at the integration's times, so
    any amplitude scaling carries over.  The system and the pulse are read
    from ``traj``, so they are always those it was integrated with.
    """
    gamma0 = traj.system.gamma0
    omega0 = traj.system.omega0
    g = traj.system.g
    delta = traj.pulse.delta
    deltaL = traj.pulse.deltaL

    check_full_cycle(float(traj.rho_ee[-1]), allow_partial)
    m = energy_moments(
        traj.grid,
        traj.system,
        traj.pulse,
        traj.rho_eg,
        population=traj.rho_ee,
        amplitude_scale=traj.amplitude_scale,
    )
    reactive, absorptive, emission = shared_rows(traj.system)
    w_alpha = row_value((0.0, -2.0 * g * (omega0 + deltaL), -g * delta, 0.0), m)
    w_int = row_value((0.0, -2.0 * g * deltaL, -g * (gamma0 + delta), 0.0), m)
    w_reac = row_value(reactive, m)
    w_abs = row_value(absorptive, m)
    return SemiclassicalReport(
        W_alpha=w_alpha,
        W_int=w_int,
        W_reac=w_reac,
        W_abs=w_abs,
        Q_alpha=row_value(emission, m),
        residual_decomposition=w_alpha - (w_int + w_reac + w_abs),
    )

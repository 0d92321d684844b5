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

A drive run needs RK4 only on a head: the full-cycle grid cut at
T = 80/gamma0 (:func:`head_grid`).  In the laser frame
sigma = s e^{i deltaL t}, with x = e^{-delta t/2} and F = g alpha~(0),
the pair reads y' = L y + F x (M y + e) for
y = (Re sigma, Im sigma, rho_ee), with
L = [[-gamma0/2, -deltaL, 0], [deltaL, -gamma0/2, 0], [0, 0, -gamma0]],
M = [[0, 0, 2], [0, 0, 0], [-2, 0, 0]] and e = (-1, 0, 0).  The pulse
enters only through x, and a particular solution is the series
y_p = sum_{k>=1} c_k x^k with (-k delta/2 - L) c_1 = F e and
(-k delta/2 - L) c_k = F M c_{k-1} (Frobenius at the regular singular
point x = 0; Bender & Orszag, Advanced Mathematical Methods for
Scientists and Engineers, ch. 3).  The rest, y - y_p, solves
y' = (L + F x M) y; M is antisymmetric and L's symmetric part is at most
-gamma0/2, so it falls at least as fast as e^{-gamma0 t/2} and is below
e^{-40} past T.  There y = y_p, and the tail's moments over [T, inf)
follow from integral_T^inf x^k dt = 2 x_T^k / (k delta).  The series
stops before the orders near resonance (k delta = gamma0 at deltaL = 0,
or 2 gamma0); where delta > 0.9 gamma0 it is empty.  A head that ends
before T is a whole cycle and has no tail.  The split residual
|y_RK4(T) - y_p(T)| measures the transient left at T plus the head's
error.

The work received from the drive, W_alpha = integral Tr[rho_s dH/dt] dt,
splits exactly into three pieces by writing rho_eg = R e^{i theta}:

    W_int  = change of <H_int>      (modulus-phase independent piece)
    W_reac = integral <H_int> (-R'/R) dt        (modulus part)
    W_abs  = integral omega_s^eg (-2 g Re[alpha rho_eg*]) dt  (phase part)

with omega_s^eg = -Im[d(rho_eg)/dt / rho_eg] the instantaneous emission
frequency.  The split is algebraic and valid for the full nonlinear
motion.  Each piece, and the heat Q_alpha = -gamma0 integral (omega0
rho_ee + <H_int>/2) dt, is one coefficient row on the moments of
``thermo.energy_moments`` (u = alpha rho_eg*, occ = 1 - 2 rho_ee), plus
those of the tail where the grid reaches T.  W_reac, W_abs and Q_alpha
are the photon's W1_reac, Q1_abs and Q1_em rows (``thermo.shared_rows``);
W_alpha has a row of its own, so the residual compares independently
written rows and is rounding noise.

Linear response: the susceptibility of the dipole is a single Lorentzian

    chi~(omega) = i g / (gamma0/2 + i(omega0 - omega))

and the frequency-domain forms of the reactive and absorptive work are
overlaps of chi~' and chi~'' with the Lorentzian pulse spectrum, which
have closed forms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import full_cycle_grid
from .model import (
    PulseParams,
    SystemParams,
    TimeGrid,
    check_step,
    uniform_grid,
)
from .pulse import envelope_at, normalization
from .thermo import (
    check_full_cycle,
    energy_moments,
    ratio_integrand,
    row_value,
    shared_rows,
)

__all__ = [
    "BlochTrajectory",
    "SemiclassicalReport",
    "head_grid",
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
    split_residual: float


# Head length in units of 1/gamma0: past it the Bloch transient, which
# falls at least as fast as e^{-gamma0 t/2}, is below e^{-40}.
HEAD_LENGTH = 80.0
# The series keeps the orders k with k delta <= _ORDER_LIMIT gamma0.  The
# first order that can be resonant has k delta = gamma0; every dropped
# order carries x_T^k <= e^{-36}.
_ORDER_LIMIT = 0.9
# A term below this share of its component's largest term is negligible;
# the series ends after two such orders in a row (odd orders carry the
# coherence, even ones the population).
_SERIES_RTOL = 1e-17
# Gauss-Legendre nodes of the tail's ratio moment.
_TAIL_NODES = 60

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


def head_grid(system: SystemParams, pulse: PulseParams) -> TimeGrid:
    """Grid of the head of a drive run: ``dynamics.full_cycle_grid`` at
    its defaults cut at ``HEAD_LENGTH / gamma0``.

    The spacing is the library's default ``min(1e-3, 0.02 / rate)``: the
    head relies on that 1e-3 cap, since Q_alpha's RK4 error on the head
    needs it.  A cut grid ends at HEAD_LENGTH / gamma0 whatever the
    bandwidth, and :func:`work_total_and_decomposition` adds the series
    tail for the rest of the cycle; an uncut one is the whole cycle.
    """
    cycle = full_cycle_grid(system, pulse)
    return uniform_grid(min(HEAD_LENGTH / system.gamma0, cycle.tf), cycle.spacing)


def _series(traj: BlochTrajectory) -> np.ndarray:
    """Coefficients c_1 .. c_K (rows) of the particular solution
    y_p = sum_k c_k x^k of the Bloch pair in the laser frame (module
    docstring), truncated where the terms at the end of ``traj``'s grid
    are negligible or the orders near resonance.  Shape (K, 3); K = 0
    where delta > _ORDER_LIMIT gamma0.
    """
    gamma0 = traj.system.gamma0
    delta = traj.pulse.delta
    deltaL = traj.pulse.deltaL
    f = traj.amplitude_scale * traj.system.g * normalization(traj.system, traj.pulse)
    lin = np.array(
        [[-0.5 * gamma0, -deltaL, 0.0], [deltaL, -0.5 * gamma0, 0.0], [0.0, 0.0, -gamma0]]
    )
    x_end = math.exp(-0.5 * delta * traj.grid.tf)
    orders = math.floor(_ORDER_LIMIT * gamma0 / delta)
    coeffs = []
    lead = np.zeros(3)
    small = 0
    rhs = np.array([-f, 0.0, 0.0])  # F e
    for k in range(1, orders + 1):
        c = np.linalg.solve(-0.5 * k * delta * np.eye(3) - lin, rhs)
        coeffs.append(c)
        term = np.abs(c) * x_end**k
        lead = np.maximum(lead, term)
        small = small + 1 if np.all(term <= _SERIES_RTOL * lead) else 0
        if small == 2:
            break
        rhs = f * np.array([2.0 * c[2], 0.0, -2.0 * c[0]])  # F M c
    return np.array(coeffs).reshape(-1, 3)


def _series_state(coeffs: np.ndarray, x):
    """y_p = sum_k c_k x^k by Horner's rule; shape (3,) + shape(x)."""
    x = np.asarray(x, dtype=float)
    y = np.zeros((3,) + x.shape)
    for c in coeffs[::-1]:
        y = (y + c.reshape((3,) + (1,) * x.ndim)) * x
    return y


def _tail(traj: BlochTrajectory) -> tuple:
    """The four moments over [T, inf), T the end of the head ``traj``, on
    the series of :func:`_series`, and the split residual at T.

    With u = alpha rho_eg* = N x conj(sigma) and dt = -2 dx / (delta x),
    the three linear moments are exact sums of integral_T^inf x^k dt =
    2 x_T^k / (k delta).  The ratio moment is a Gauss-Legendre sum over
    x in [0, x_T], its integrand smooth there, with the ratio as defined
    (``thermo.ratio_integrand``), as ``energy_moments`` forms it at samples.
    """
    from numpy.polynomial.legendre import leggauss

    t_end = traj.grid.tf
    delta = traj.pulse.delta
    x_end = math.exp(-0.5 * delta * t_end)
    coeffs = _series(traj)
    y_end = _series_state(coeffs, x_end)
    sigma = complex(traj.rho_eg[-1]) * cmath.exp(1j * traj.pulse.deltaL * t_end)
    split = float(np.linalg.norm(y_end - (sigma.real, sigma.imag, traj.rho_ee[-1])))
    if y_end[2] > float(np.max(traj.rho_ee)):
        raise ValueError(f"the series' rho_ee(T) = {y_end[2]:.6e} exceeds the head's peak")

    n_amp = traj.amplitude_scale * normalization(traj.system, traj.pulse)
    k = np.arange(1, len(coeffs) + 1)
    by_k = 2.0 * x_end**k / (k * delta)
    by_k1 = 2.0 * x_end ** (k + 1) / ((k + 1) * delta)
    nodes, weights = leggauss(_TAIL_NODES)
    x = 0.5 * x_end * (nodes + 1.0)
    y = _series_state(coeffs, x)
    u = n_amp * x * (y[0] - 1j * y[1])
    r = ratio_integrand(u, y[0] ** 2 + y[1] ** 2, y[2])
    moments = (
        float(coeffs[:, 2] @ by_k),
        n_amp * float(coeffs[:, 0] @ by_k1),
        -n_amp * float(coeffs[:, 1] @ by_k1),
        0.5 * x_end * float(weights @ (r * 2.0 / (delta * x))),
    )
    return moments, split


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


def work_total_and_decomposition(traj: BlochTrajectory) -> SemiclassicalReport:
    """Drive work W_alpha, its exact three-way split, and the heat.

    All five functionals are coefficient rows on the trajectory's
    end-corrected trapezoid moments (module docstring).  The W_alpha and
    W_int rows use the exact envelope relation ``d(alpha~)/dt =
    -(delta/2 + i deltaL) alpha~``, and the drive is recomputed at the
    integration's times, so any amplitude scaling carries over.  The
    system and the pulse are read from ``traj``, so they are always those
    it was integrated with.

    A grid that reaches ``HEAD_LENGTH / gamma0`` (such as a cut
    :func:`head_grid`) is a head: the series of the module docstring adds
    the moments of [T, inf), T the grid's end, and ``split_residual`` is
    |y_RK4(T) - y_p(T)|, the transient left at T plus the head's error.
    The series must start below the head's largest rho_ee, so that the
    head holds the run's peak population; for delta > 0.9 gamma0 it is
    empty.  A shorter grid must be a full cycle; ``split_residual`` is
    then 0.
    """
    gamma0 = traj.system.gamma0
    omega0 = traj.system.omega0
    g = traj.system.g
    delta = traj.pulse.delta
    deltaL = traj.pulse.deltaL

    if traj.grid.tf * gamma0 >= HEAD_LENGTH * (1.0 - 1e-12):
        extra, split = _tail(traj)
    else:
        check_full_cycle(float(traj.rho_ee[-1]), "(head_grid or full_cycle_grid)")
        extra, split = (0.0,) * 4, 0.0
    head = energy_moments(
        traj.grid,
        traj.system,
        traj.pulse,
        traj.rho_eg,
        population=traj.rho_ee,
        amplitude_scale=traj.amplitude_scale,
    )
    m = tuple(a + b for a, b in zip(head, extra))
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
        split_residual=split,
    )

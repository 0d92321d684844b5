"""Coherent-pulse counterpart: optical Bloch equations and linear response.

A classical drive alpha(t) equal to the photon envelope phi(0, t) replaces
the quantized field.  The reduced state obeys the full nonlinear Bloch
pair (rotating frame at omega0, s = rho_eg e^{i omega0 t}):

    ds/dt = -(gamma0/2) s - g alpha~(t) (1 - 2 rho_ee)
    d(rho_ee)/dt = -gamma0 rho_ee - 2 g Re[alpha~(t) s*]

The pair is linear in y = (Re s, Im s, rho_ee) with a known drive,
y' = A(t) y + b(t), so its exact flow over one step is an affine map
y -> P y + q.  With u = 2 g alpha~ = a e^{i theta}, step k's drive is
u_k e^{-beta tau}, 0 <= tau <= h, beta = delta/2 + i deltaL, and the
pair commutes with rotations R(theta) of the coherence, so the step's
map is I + R(theta_k) D(a_k) R(theta_k)^T.  D(a) is the Dyson series
of the step in the drive's modulus, cut after a^6; its coefficients
come once per run from one matrix exponential (Van Loan, IEEE TAC
23(3), 1978; Hochbruck & Ostermann, Acta Numerica 19, 2010).  The first
dropped term is about (a h)^7 / 7!, with no gamma0, delta or deltaL in
it, so the steps are exact in time to rounding at a head's spacing.
``integrate_bloch`` builds a fixed-size chunk of these maps from one exp,
one cos/sin pair and one product with those coefficients, and composes
them by a blocked two-level prefix scan of stacked 4 x 4 matmuls
(Blelloch, "Prefix Sums and Their Applications", CMU-CS-90-190, 1990),
carrying the last state into the next chunk.  The scan applies the
maps in another order than a step-by-step loop, so the two agree to
rounding, not bitwise.

A drive run integrates only a head: the full-cycle grid cut at
T = 80/gamma0 (:func:`head_grid`), at the spacing the moments'
quadrature needs.  In the laser frame
sigma = s e^{i deltaL t}, with x = e^{-delta t/2} and F = g alpha~(0),
the pair reads y' = L y + F x (M y + e) for
y = (Re sigma, Im sigma, rho_ee), with
L = [[-gamma0/2, -deltaL, 0], [deltaL, -gamma0/2, 0], [0, 0, -gamma0]],
M = [[0, 0, 2], [0, 0, 0], [-2, 0, 0]] and e = (-1, 0, 0).  The pulse
enters only through x, and a particular solution is the series
y_p = sum_{k>=1} c_k x^k with (-k delta/2 - L) c_1 = F e and
(-k delta/2 - L) c_k = F M c_{k-1} (Frobenius at the regular singular
point x = 0; Bender & Orszag, Advanced Mathematical Methods for
Scientists and Engineers, ch. 3).  L is diagonal in (sigma, rho_ee): it
multiplies sigma by -gamma0/2 + i deltaL and rho_ee by -gamma0, so each
order is one complex and one real division,

    sigma_k = rhs_sigma / (gamma0/2 - k delta/2 - i deltaL)
    rho_k = rhs_rho / (gamma0 - k delta/2)

with F M c_{k-1} = (2 F rho_{k-1}, -2 F Re sigma_{k-1}) on the right, or
F e = (-F, 0) at k = 1.  The rest, y - y_p, solves y' = (L + F x M) y;
M is antisymmetric and L's symmetric part is at most -gamma0/2, so it
falls at least as fast as e^{-gamma0 t/2} and is below e^{-40} past T.
There y = y_p, and the tail's moments over [T, inf) follow from
integral_T^inf x^k dt = 2 x_T^k / (k delta).  The series stops before
the orders near resonance, where a denominator vanishes (k delta =
gamma0 at deltaL = 0, or 2 gamma0); where delta > 0.9 gamma0 it is
empty.  A head that ends before T is a whole cycle and has no tail.
The split residual |y_head(T) - y_p(T)| measures the transient left at
T plus the head's error.

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
the real and imaginary parts of one overlap of chi~ with the Lorentzian
pulse spectrum, which has a closed form.
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
from .pulse import normalization
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
# The series is cut after the last order whose term |c_k| x_T^k exceeds
# this share of its largest term.
_SERIES_RTOL = 1e-17
# Gauss-Legendre nodes of the tail's ratio moment.
_TAIL_NODES = 60
# Their nodes and weights, computed by the first tail (1.6 ms a rule);
# two threads that race there only compute the same rule twice.
_tail_rule = None

# Steps per scan chunk.  Bounds the scan's working memory (about 500 bytes
# a step: the 4 x 4 maps, the 16 functions they are built from, and the
# states) whatever the grid length; blocks are isqrt(_CHUNK) steps.
_CHUNK = 1 << 14

# Powers of the drive's modulus kept in a step map.  The first dropped
# term is about (a h)^7 / 7!: 1e-21 at the largest a h of a matched
# drive's head, 0.0035 (at delta = gamma0).
_ORDER = 6
# Head spacing in units of 1 / (gamma0 + delta): what the end-corrected
# trapezoid moments need once the steps are exact.
_HEAD_STEP = 0.005


def _expm1(a):
    """e^a - I of a square matrix: an 18-term Taylor series of a / 2^s,
    with s the least that brings its 1-norm to 1/2 (remainder below 1e-21
    there), squared back s times as E -> 2E + E^2, so that small entries
    never pass through I."""
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    s = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.0 else 0
    a = a / 2.0**s
    eye = np.eye(len(a))
    e = eye + a / 18.0
    for k in range(17, 1, -1):
        e = eye + (a / k) @ e
    e = a @ e
    for _ in range(s):
        e = 2.0 * e + e @ e
    return e


def _dyson_terms(h, gamma0, delta, deltaL, order):
    """Coefficients D_0 .. D_order of the map I + sum_j a^j D_j of one
    step, at drive phase 0, in the augmented layout (x, y, p, w), w = 1.

    With y = (Re s, Im s, rho_ee) and u = 2 g alpha~, the pair reads
    y' = A y + b with A = [[-gamma0/2, 0, Re u], [0, -gamma0/2, Im u],
    [-Re u, -Im u, -gamma0]] and b = -(Re u, Im u, 0)/2.  Over a step
    the drive is a e^{-(delta/2 + i deltaL) tau}, 0 <= tau <= h.  In the
    laser frame sigma = s e^{i deltaL tau} the generator is
    L + a e^{-delta tau/2} K, with L = [[-gamma0/2, -deltaL, 0, 0],
    [deltaL, -gamma0/2, 0, 0], [0, 0, -gamma0, 0], 0] and K the Re u part
    of A and b, so the map is the Dyson series Phi(a) = sum_j a^j Phi_j(h).
    Psi_j = e^{j delta tau/2} Phi_j solve the constant block-bidiagonal
    system Psi_j' = (L + j delta/2) Psi_j + K Psi_{j-1}, Psi_0(0) = I, so
    the first block column of one exponential of its generator at h holds
    every Psi_j(h) (Van Loan, IEEE TAC 23(3), 1978).  Back in the omega0
    frame D_j = R(-deltaL h) Phi_j(h), and D_0 = R(-deltaL h) e^{L h} - I
    = diag(expm1(-gamma0 h/2), expm1(-gamma0 h/2), expm1(-gamma0 h), 0)
    is set exactly.  Returns shape (order + 1, 4, 4).
    """
    lin = np.array(
        [
            [-0.5 * gamma0, -deltaL, 0.0, 0.0],
            [deltaL, -0.5 * gamma0, 0.0, 0.0],
            [0.0, 0.0, -gamma0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    # Generator part of Re u; the drive's -1/2 is in column w.
    re_u = np.array([[0, 0, 1, -0.5], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]])
    j = np.arange(order + 1)
    gen = (
        np.kron(np.eye(order + 1), lin)
        + np.kron(np.diag(0.5 * delta * j), np.eye(4))
        + np.kron(np.eye(order + 1, k=-1), re_u)
    )
    psi = _expm1(h * gen)[:, :4].reshape(order + 1, 4, 4)
    c, s = math.cos(deltaL * h), math.sin(deltaL * h)
    rot = np.array([[c, s, 0, 0], [-s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    decay = np.exp(-0.5 * delta * h * j)
    d = decay[:, None, None] * (rot @ psi)
    d[0] = np.diag([math.expm1(-0.5 * gamma0 * h)] * 2 + [math.expm1(-gamma0 * h), 0.0])
    return d


def _step_coefficients(h, gamma0, delta, deltaL):
    """Coefficients of the exact map of one step of the Bloch pair.

    A step whose drive starts at u = a e^{i theta} has the augmented map
    I + R(theta) D(a) R(theta)^T, D(a) = sum_j a^j D_j the Dyson series
    of :func:`_dyson_terms` cut after a^6: the pair commutes with
    rotations R(theta) of the coherence.  The rotation turns the part of
    D_j of charge q (0, 1 or 2) by q theta, and a^j e^{i q theta} =
    r^n u^q with r = a^2 and j = q + 2n, so R D R^T is linear in the 16
    functions r^n (n = 0 .. 3) and r^n Re u, r^n Im u, r^n Re u^2,
    r^n Im u^2 (n = 0 .. 2), in that order.  Returns their coefficients,
    shape (16, 16): row k is the 4 x 4 coefficient of function k, row by
    row, with a zero last row.
    """
    d = _dyson_terms(h, gamma0, delta, deltaL, _ORDER)

    # R(theta) = P + e^{i theta} E + e^{-i theta} conj(E), so the part of
    # D_j of charge q is C_q = sum of A D_j B^T over the parts A, B whose
    # charges add to q; it vanishes unless j = q + 2n.
    e = np.zeros((4, 4), dtype=complex)
    e[:2, :2] = [[0.5, 0.5j], [-0.5j, 0.5]]
    parts = ((0, np.diag([0.0, 0.0, 1.0, 1.0])), (1, e), (-1, e.conj()))

    def charge(dj, q):
        return sum(a @ dj @ b.T for qa, a in parts for qb, b in parts if qa + qb == q)

    rows = [charge(dj, 0).real for dj in d[0::2]]
    # 2 Re(r^n u^q C_q) = 2 r^n (Re u^q Re C_q - Im u^q Im C_q).
    for q in (1, 2):
        c = [2.0 * charge(dj, q) for dj in d[q::2]]
        rows += [cj.real for cj in c] + [-cj.imag for cj in c]
    return np.reshape(rows, (16, 16))


def _step_maps(coeffs, a, theta):
    """Augmented maps of steps whose drive at t is a e^{i theta}.

    The product of the 16 functions of :func:`_step_coefficients` with
    ``coeffs`` is R(theta) D(a) R(theta)^T, in the maps' layout.  The
    identity is added last: folded into the coefficients, the rounding
    of 1 + D would repeat at every step.  ``a`` and ``theta`` share a
    2-D shape S; returns S + (4, 4), last row (0, 0, 0, 1).
    """
    r = a * a
    powers = np.stack((np.ones_like(a), r, r * r, r * r * r))
    re, im = a * np.cos(theta), a * np.sin(theta)
    low = powers[:3]
    funcs = np.concatenate(
        (powers, low * re, low * im, low * (re * re - im * im), low * (2.0 * re * im))
    )
    # One small product per row of S: a single product over the chunk
    # would be large enough for BLAS to put a second thread on it.
    maps = np.moveaxis(funcs, 0, -1) @ coeffs
    maps[..., ::5] += 1.0
    return maps.reshape(a.shape + (4, 4))


def _scan(maps, state):
    """States after a chunk's steps from ``state`` (x, y, p).

    ``maps`` has shape (nblocks, size, 4, 4): the chunk's augmented step
    maps in order, in blocks of ``size``.  Pass 1 composes the maps of
    every block into prefix maps in place (serial over a block's steps,
    one stacked 4 x 4 matmul across blocks), pass 2 runs the block totals
    from ``state`` to each block's start (serial over blocks), and pass 3
    applies every prefix to its block's start at once, one matrix-vector
    product per block.  Returns shape (nblocks size, 4): the augmented
    state (x, y, p, 1) after each step.
    """
    nblocks, size = maps.shape[:2]
    for j in range(1, size):
        maps[:, j] = maps[:, j] @ maps[:, j - 1]
    starts = []
    for total in maps[:, -1, :3].tolist():
        starts.append(state + [1.0])
        x, y, p = state
        state = [row[0] * x + row[1] * y + row[2] * p + row[3] for row in total]
    states = maps.reshape(nblocks, 4 * size, 4) @ np.array(starts)[:, :, None]
    return states.reshape(-1, 4)


def integrate_bloch(
    system: SystemParams,
    pulse: PulseParams,
    grid: TimeGrid,
    amplitude_scale: float = 1.0,
) -> BlochTrajectory:
    """Integrate the full nonlinear Bloch pair with exact step maps.

    Each step's map is I plus the rotation by the drive's phase of the
    step's Dyson series in the drive's modulus, cut after a^6 (module
    docstring).  A chunk's maps take one exp, one cos/sin pair and one
    product with the series' coefficients, built once per run, in the
    scan's block order; a blocked two-level scan of stacked matmuls
    composes them, and the last state carries into the next chunk.  The
    result agrees with the same maps applied step by step to rounding,
    not bitwise, and with the exact solution to rounding wherever
    (a h)^7 / 7! is below it (a the drive's peak modulus,
    2 g N amplitude_scale).

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
    coeffs = _step_coefficients(h, system.gamma0, pulse.delta, pulse.deltaL)
    amp = 2.0 * system.g * amplitude_scale * normalization(system, pulse)
    rho_eg = np.zeros(n, dtype=np.complex128)
    rho_ee = np.zeros(n, dtype=np.float64)
    state = [0.0, 0.0, 0.0]
    for lo in range(0, n - 1, _CHUNK):
        m = min(_CHUNK, n - 1 - lo)
        size = math.isqrt(m)
        nblocks = -(-m // size)
        # The steps past the chunk only feed states that are cut.
        t = (lo + np.arange(nblocks * size).reshape(nblocks, size)) * h
        maps = _step_maps(coeffs, amp * np.exp(-0.5 * pulse.delta * t), -pulse.deltaL * t)
        states = _scan(maps, state)[:m]
        rho_eg.real[lo + 1 : lo + m + 1] = states[:, 0]
        rho_eg.imag[lo + 1 : lo + m + 1] = states[:, 1]
        rho_ee[lo + 1 : lo + m + 1] = states[:, 2]
        state = states[-1, :3].tolist()
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
    its default tolerance, capped at ``0.005 / (gamma0 + delta)``, cut at
    ``HEAD_LENGTH / gamma0``.

    The steps are exact, so the spacing serves only the end-corrected
    trapezoid moments, whose error grows with the drive's decay rate
    delta/2 on top of gamma0: a flat 0.005 cap put W_reac 1.2e-11 off a
    tight reference at (delta, deltaL) = (2, 0.5).  The library's
    ``0.02 / rate`` is finer where |deltaL| > 4 (gamma0 + delta), and
    rules there.  A cut grid ends at HEAD_LENGTH / gamma0 whatever the
    bandwidth, and :func:`work_total_and_decomposition` adds the series
    tail for the rest of the cycle; an uncut one is the whole cycle.
    """
    cycle = full_cycle_grid(
        system, pulse, max_step=_HEAD_STEP / (system.gamma0 + pulse.delta)
    )
    return uniform_grid(min(HEAD_LENGTH / system.gamma0, cycle.tf), cycle.spacing)


def _series(traj: BlochTrajectory) -> tuple:
    """Coefficients sigma_k and rho_k, k = 1 .. K, of the particular
    solution y_p = sum_k c_k x^k of the Bloch pair in the laser frame
    (module docstring): a complex array and a real one, one division each
    per order.  The orders run up to k delta <= _ORDER_LIMIT gamma0, and
    the arrays end at the last order whose term |c_k| x_T^k, x_T at the
    end of ``traj``'s grid, exceeds _SERIES_RTOL of the largest; K = 0
    where delta > _ORDER_LIMIT gamma0.
    """
    gamma0 = traj.system.gamma0
    delta = traj.pulse.delta
    deltaL = traj.pulse.deltaL
    f = traj.amplitude_scale * traj.system.g * normalization(traj.system, traj.pulse)
    orders = math.floor(_ORDER_LIMIT * gamma0 / delta)
    sigma, rho = [], []
    rhs_sigma, rhs_rho = -f, 0.0  # F e
    for k in range(1, orders + 1):
        sigma.append(rhs_sigma / complex(0.5 * (gamma0 - k * delta), -deltaL))
        rho.append(rhs_rho / (gamma0 - 0.5 * k * delta))
        rhs_sigma, rhs_rho = 2.0 * f * rho[-1], -2.0 * f * sigma[-1].real  # F M c_k
    sigma, rho = np.array(sigma, dtype=complex), np.array(rho)
    x_end = math.exp(-0.5 * delta * traj.grid.tf)
    term = (np.abs(sigma) + np.abs(rho)) * x_end ** np.arange(1, orders + 1)
    big = np.flatnonzero(term > _SERIES_RTOL * np.max(term, initial=0.0))
    n = big[-1] + 1 if big.size else 0
    return sigma[:n], rho[:n]


def _tail(traj: BlochTrajectory) -> tuple:
    """The four moments over [T, inf), T the end of the head ``traj``, on
    the series of :func:`_series`, and the split residual at T.

    With u = alpha rho_eg* = N x conj(sigma) and dt = -2 dx / (delta x),
    the three linear moments are exact sums of integral_T^inf x^k dt =
    2 x_T^k / (k delta) over the coefficients.  The ratio moment is a
    Gauss-Legendre sum over x in [0, x_T], its integrand smooth there,
    with the ratio as defined (``thermo.ratio_integrand``), as
    ``energy_moments`` forms it at samples.  One Horner loop sums the
    series at those nodes and at x_T.
    """
    global _tail_rule
    if _tail_rule is None:
        from numpy.polynomial.legendre import leggauss

        _tail_rule = leggauss(_TAIL_NODES)
    t_end = traj.grid.tf
    delta = traj.pulse.delta
    x_end = math.exp(-0.5 * delta * t_end)
    sigma, rho = _series(traj)
    nodes, weights = _tail_rule
    x = np.append(0.5 * x_end * (nodes + 1.0), x_end)
    s = np.zeros(x.shape, dtype=complex)
    p = np.zeros(x.shape)
    for sk, rk in zip(sigma[::-1], rho[::-1]):
        s = (s + sk) * x
        p = (p + rk) * x
    head_sigma = complex(traj.rho_eg[-1]) * cmath.exp(1j * traj.pulse.deltaL * t_end)
    split = math.hypot(abs(s[-1] - head_sigma), p[-1] - traj.rho_ee[-1])
    if p[-1] > float(np.max(traj.rho_ee)):
        raise ValueError(f"the series' rho_ee(T) = {p[-1]:.6e} exceeds the head's peak")
    x, s, p = x[:-1], s[:-1], p[:-1]

    n_amp = traj.amplitude_scale * normalization(traj.system, traj.pulse)
    k = np.arange(1, len(rho) + 1)
    by_k = 2.0 * x_end**k / (k * delta)
    by_k1 = 2.0 * x_end ** (k + 1) / ((k + 1) * delta)
    u_moment = n_amp * complex(sigma.conj() @ by_k1)
    r = ratio_integrand(n_amp * x * s.conj(), s.real**2 + s.imag**2, p)
    moments = (
        float(rho @ by_k),
        u_moment.real,
        u_moment.imag,
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


def _spectral_overlap(system: SystemParams, pulse: PulseParams) -> complex:
    """Overlap of chi~ with |alpha~(omega)|^2 over the line; its real and
    imaginary parts are those of chi~' and chi~''.

    A Lorentzian-on-Lorentzian integral.  With a = gamma0/2, b = delta/2,
    D = deltaL and x = omega - omega0, |alpha~|^2 = rho0 delta /
    (b^2 + (x - D)^2) and chi~ = i g / (a - i x), so closing the contour
    in the upper half plane around the pulse's pole x = D + i b gives

        integral chi~ |alpha~|^2 dx = i pi g rho0 delta / (b (a + b - i D)).
    """
    a = 0.5 * system.gamma0
    b = 0.5 * pulse.delta
    weight = math.pi * system.g * system.rho0 * pulse.delta
    return 1j * weight / (b * complex(a + b, -pulse.deltaL))


def work_reactive(system: SystemParams, pulse: PulseParams) -> float:
    """Reactive drive work from linear response,
    ``-hbar delta g integral chi~'(omega) |alpha~(omega)|^2 domega``.

    Odd in the laser detuning; positive for a blue-detuned narrowband
    pulse (the spectral weight sits where chi~' < 0, and the leading
    minus sign makes the level-shift work positive)."""
    return -pulse.delta * system.g * _spectral_overlap(system, pulse).real


def work_absorptive(system: SystemParams, pulse: PulseParams) -> float:
    """Absorptive drive work from linear response,
    ``hbar omegaL 2 g integral chi~''(omega) |alpha~(omega)|^2 domega``
    with ``omegaL = omega0 + deltaL``; equals ``2 hbar omega0 gamma0 /
    (gamma0 + delta)`` on resonance."""
    omegaL = system.omega0 + pulse.deltaL
    return omegaL * 2.0 * system.g * _spectral_overlap(system, pulse).imag


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
    |y_head(T) - y_p(T)|, the transient left at T plus the head's error.
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

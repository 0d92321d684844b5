"""Coherent-pulse counterpart: optical Bloch equations and linear response.

A classical drive alpha(t) equal to the photon envelope phi(0, t) replaces
the quantized field.  The reduced state obeys the full nonlinear Bloch
pair (rotating frame at omega0, s = rho_eg e^{i omega0 t}):

    ds/dt = -(gamma0/2) s - g alpha~(t) (1 - 2 rho_ee)
    d(rho_ee)/dt = -gamma0 rho_ee - 2 g Re[alpha~(t) s*]

The work received from the drive, W_alpha = integral Tr[rho_s dH/dt] dt,
splits exactly into three pieces by writing rho_eg = R e^{i theta}:

    W_int  = change of <H_int>      (modulus-phase independent piece)
    W_reac = integral <H_int> (-R'/R) dt        (modulus part)
    W_abs  = integral omega_s^eg (-2 g Re[alpha rho_eg*]) dt  (phase part)

with omega_s^eg = -Im[d(rho_eg)/dt / rho_eg] the instantaneous emission
frequency.  The split is algebraic, valid for the full nonlinear motion,
and is evaluated here in regularized product form (the two ratio terms
carry the same guarded array and cancel in the sum), so the reported
residual is rounding noise for any parameters.  Heat follows the same
table: Q_alpha = -gamma0 integral (omega0 rho_ee + <H_int>/2) dt.

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

from .effective import DEFAULT_ETA
from .model import (
    MAX_STEP_FRACTION,
    PulseParams,
    SystemParams,
    TimeGrid,
    check_step,
    rate_scale,
)
from .pulse import PulseEnvelope, normalization
from .thermo import check_full_cycle, trapezoid_sums

__all__ = [
    "BlochTrajectory",
    "SemiclassicalReport",
    "integrate_bloch",
    "susceptibility",
    "work_reactive",
    "work_absorptive",
    "work_total_and_decomposition",
    "transition_frequency_eg",
]


@dataclass(frozen=True, eq=False)
class BlochTrajectory:
    """Bloch pair solution in the rotating frame at omega0.

    ``alpha`` is the drive actually applied at each node (including any
    amplitude scaling), so downstream functionals stay consistent with
    the integration even off the matched single-photon normalization.
    """

    grid: TimeGrid
    rho_eg: np.ndarray
    rho_ee: np.ndarray
    alpha: np.ndarray
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


def _bloch_loop(n, h, t0, gamma0, g, amp, dec_re, dec_im, rho_eg, rho_ee, alpha):
    half = 0.5 * gamma0
    s = 0.0 + 0.0j
    pp = 0.0
    for m in range(n - 1):
        t = t0 + m * h
        th = t + 0.5 * h
        t1 = t + h
        if t < 0.0:
            a0 = 0.0 + 0.0j
        else:
            e = amp * math.exp(-dec_re * t)
            a0 = complex(e * math.cos(dec_im * t), -e * math.sin(dec_im * t))
        if th < 0.0:
            ah = 0.0 + 0.0j
        else:
            e = amp * math.exp(-dec_re * th)
            ah = complex(e * math.cos(dec_im * th), -e * math.sin(dec_im * th))
        if t1 < 0.0:
            a1 = 0.0 + 0.0j
        else:
            e = amp * math.exp(-dec_re * t1)
            a1 = complex(e * math.cos(dec_im * t1), -e * math.sin(dec_im * t1))
        alpha[m] = a0

        k1s = -half * s - g * a0 * (1.0 - 2.0 * pp)
        k1p = -gamma0 * pp - 2.0 * g * (a0.real * s.real + a0.imag * s.imag)

        s2 = s + 0.5 * h * k1s
        p2 = pp + 0.5 * h * k1p
        k2s = -half * s2 - g * ah * (1.0 - 2.0 * p2)
        k2p = -gamma0 * p2 - 2.0 * g * (ah.real * s2.real + ah.imag * s2.imag)

        s3 = s + 0.5 * h * k2s
        p3 = pp + 0.5 * h * k2p
        k3s = -half * s3 - g * ah * (1.0 - 2.0 * p3)
        k3p = -gamma0 * p3 - 2.0 * g * (ah.real * s3.real + ah.imag * s3.imag)

        s4 = s + h * k3s
        p4 = pp + h * k3p
        k4s = -half * s4 - g * a1 * (1.0 - 2.0 * p4)
        k4p = -gamma0 * p4 - 2.0 * g * (a1.real * s4.real + a1.imag * s4.imag)

        s = s + (h / 6.0) * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)
        pp = pp + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        rho_eg[m + 1] = s
        rho_ee[m + 1] = pp
        alpha[m + 1] = a1
    if n == 1:
        t = t0
        if t < 0.0:
            alpha[0] = 0.0 + 0.0j
        else:
            e = amp * math.exp(-dec_re * t)
            alpha[0] = complex(e * math.cos(dec_im * t), -e * math.sin(dec_im * t))


def integrate_bloch(
    system: SystemParams,
    envelope: PulseEnvelope,
    grid: TimeGrid,
    amplitude_scale: float = 1.0,
) -> BlochTrajectory:
    """Integrate the full nonlinear Bloch pair with classic RK4.

    Parameters
    ----------
    system : SystemParams
    envelope : PulseEnvelope
        Supplies the drive alpha~(t) = scale * phi~(0, t).
    grid : TimeGrid
        Uniform grid; the step guard of the amplitude integrator applies.
    amplitude_scale : float
        Multiplier on the drive.  1.0 is the matched single-photon
        envelope; other values deliberately break that normalization
        (linear-response scaling tests).
    """
    params = envelope.params
    h = grid.spacing
    check_step(
        h,
        MAX_STEP_FRACTION / rate_scale(system, params),
        gamma0=system.gamma0,
        delta=params.delta,
        deltaL=params.deltaL,
    )
    n = grid.n
    rho_eg = np.zeros(n, dtype=np.complex128)
    rho_ee = np.zeros(n, dtype=np.float64)
    alpha = np.zeros(n, dtype=np.complex128)
    amp = amplitude_scale * normalization(envelope)
    _bloch_loop(
        n,
        h,
        grid.t0,
        system.gamma0,
        system.g,
        amp,
        0.5 * params.delta,
        params.deltaL,
        rho_eg,
        rho_ee,
        alpha,
    )
    return BlochTrajectory(
        grid=grid,
        rho_eg=rho_eg,
        rho_ee=rho_ee,
        alpha=alpha,
        system=system,
        pulse=params,
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


def transition_frequency_eg(
    traj: BlochTrajectory, eta: float = DEFAULT_ETA
) -> np.ndarray:
    """Instantaneous emission frequency omega_s^eg(t) in product form.

    omega_s^eg = omega0 + g (1 - 2 rho_ee) Im[alpha rho_eg*] / |rho_eg|^2;
    NaN where |rho_eg|^2 falls below ``eta`` times its maximum.
    """
    mod2 = np.abs(traj.rho_eg) ** 2
    mmax = float(mod2.max()) if traj.grid.n else 0.0
    u = traj.alpha * np.conj(traj.rho_eg)
    occ = 1.0 - 2.0 * traj.rho_ee
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(
            mod2 > eta * mmax, traj.system.g * occ * u.imag / mod2, np.nan
        )
    return traj.system.omega0 + shift


def work_total_and_decomposition(
    traj: BlochTrajectory,
    envelope: PulseEnvelope,
    allow_partial: bool = False,
    eta: float = DEFAULT_ETA,
) -> SemiclassicalReport:
    """Drive work W_alpha, its exact three-way split, and the heat.

    All five functionals are composite trapezoids of pointwise integrands
    on the trajectory grid.  The integrands satisfy
    ``w = d<H_int>/dt + reac + abs`` exactly as array algebra (the guarded
    ratio terms cancel), so ``residual_decomposition`` is rounding noise.
    The drive derivative uses the exact envelope relation
    ``d(alpha~)/dt = -(delta/2 + i deltaL) alpha~`` applied to the stored
    drive samples, which keeps everything consistent with any amplitude
    scaling used at integration time.
    """
    params = envelope.params
    gamma0 = traj.system.gamma0
    omega0 = traj.system.omega0
    g = traj.system.g
    dec_re = 0.5 * params.delta
    dec_im = params.deltaL

    check_full_cycle(float(traj.rho_ee[-1]), allow_partial)
    mod2_full = np.abs(traj.rho_eg) ** 2
    threshold = eta * float(mod2_full.max())

    def integrands(sl):
        pp = traj.rho_ee[sl]
        mod2 = mod2_full[sl]
        u = traj.alpha[sl] * np.conj(traj.rho_eg[sl])
        reu = u.real
        imu = u.imag
        # Im[(da/dt) s*] from the exact envelope derivative.
        im_adot = -dec_re * imu - dec_im * reu
        occ = 1.0 - 2.0 * pp
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(mod2 > threshold, reu * imu / mod2, 0.0)
        yield "w", 2.0 * g * (im_adot - omega0 * reu)
        yield "dh", 2.0 * g * (im_adot - 0.5 * gamma0 * imu)
        yield "reac", g * gamma0 * imu + 2.0 * g * g * occ * r
        yield "abs", -2.0 * g * omega0 * reu - 2.0 * g * g * occ * r
        yield "q", -omega0 * gamma0 * pp - g * gamma0 * imu

    sums = trapezoid_sums(traj.grid.n, traj.grid.spacing, integrands)
    w_alpha = sums["w"]
    w_int = sums["dh"]
    w_reac = sums["reac"]
    w_abs = sums["abs"]
    return SemiclassicalReport(
        W_alpha=w_alpha,
        W_int=w_int,
        W_reac=w_reac,
        W_abs=w_abs,
        Q_alpha=sums["q"],
        residual_decomposition=w_alpha - (w_int + w_reac + w_abs),
    )

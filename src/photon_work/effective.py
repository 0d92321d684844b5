"""Time-dependent effective emitter parameters derived from amplitudes.

The driven emitter behaves like a two-level system with a shifted
transition frequency ``omega_s(t) = omega0 + delta_eff(t)`` and a
time-dependent decay rate ``Gamma(t)``:

    delta_eff(t) = g Im[phi(0,t) / psi(t)]
    Gamma(t)     = gamma0 + 2 g Re[phi(0,t) / psi(t)]

A negative ``Gamma(t)`` marks non-Markovian backflow (coherent absorption
from the pulse).  Ratios are evaluated through the conjugate product
``z = phi psi*`` divided by the population, which is numerically stable;
samples where the population is at or below ``DEFAULT_ETA`` times its
maximum are masked invalid because the ratio quantities are undefined
there.  The interaction energy ``<H_int>(t) = 2 hbar g Im[phi psi*]``
stays regular at psi = 0 and is never masked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import AmplitudeTrajectory
from .pulse import envelope_at

__all__ = [
    "EffectiveTrajectory",
    "effective_trajectory",
    "DEFAULT_ETA",
]

# Relative population threshold at or below which ratio quantities are masked.
DEFAULT_ETA = 1e-12


@dataclass(frozen=True, eq=False)
class EffectiveTrajectory:
    """Per-sample effective parameters of the driven emitter.

    ``delta_eff`` and ``gamma_t`` hold NaN at masked samples; ``h_int``
    and ``pop`` are regular everywhere.

    Attributes
    ----------
    delta_eff : ndarray
        Dynamic frequency shift ``delta_eff(t_k)``.
    gamma_t : ndarray
        Effective decay rate ``Gamma(t_k)``.
    h_int : ndarray
        Interaction energy ``<H_int>(t_k)`` (real, units hbar gamma0).
    pop : ndarray
        Excited-state population ``|psi(t_k)|^2``.
    valid_mask : ndarray
        Boolean mask, True where ``pop > DEFAULT_ETA * max(pop)``.
    """

    delta_eff: np.ndarray
    gamma_t: np.ndarray
    h_int: np.ndarray
    pop: np.ndarray
    valid_mask: np.ndarray


def effective_trajectory(traj: AmplitudeTrajectory) -> EffectiveTrajectory:
    """Derive all effective parameters from an amplitude trajectory."""
    phi = envelope_at(traj.system, traj.pulse, traj.grid.times())
    z = phi * np.conj(traj.psi)
    pop = np.abs(traj.psi) ** 2
    g = traj.system.g
    valid = pop > DEFAULT_ETA * pop.max()
    with np.errstate(divide="ignore", invalid="ignore"):
        delta_eff = np.where(valid, g * z.imag / pop, np.nan)
        gamma_t = np.where(valid, traj.system.gamma0 + 2.0 * g * z.real / pop, np.nan)
    h_int = 2.0 * g * z.imag
    return EffectiveTrajectory(
        delta_eff=delta_eff,
        gamma_t=gamma_t,
        h_int=h_int,
        pop=pop,
        valid_mask=valid,
    )

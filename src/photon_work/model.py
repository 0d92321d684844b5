"""Shared domain types, unit conventions, parameter validation, step policy.

Natural units with hbar = 1 are used throughout: the spontaneous emission
rate ``gamma0`` sets the time unit, and every energy is reported in units
of ``hbar * gamma0`` (or scaled by ``omega0`` where noted).  The emitter
to continuum coupling ``g`` is never free: it is derived from the decay
rate through ``gamma0 = 4 * pi * g**2 * rho0``.

Every fixed-step grid is sized against the fastest rate of the run,
``max(gamma0, delta, |deltaL|)``: full-cycle grids take the spacing
``min(max_step, 0.02 / rate)`` (:func:`default_step`, applied in
``dynamics.full_cycle_grid``) and the integrators refuse steps above
0.05 / rate.  A parameter named ``step`` is an exact spacing, one named
``max_step`` a cap on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemParams",
    "PulseParams",
    "TimeGrid",
    "make_system",
    "make_pulse",
    "uniform_grid",
    "rate_scale",
    "default_step",
    "check_step",
]

# Accuracy guard for the fixed-step integrators, in units of the fastest rate.
MAX_STEP_FRACTION = 0.05
# Default grid step, in units of the fastest rate, and its absolute cap.
DEFAULT_STEP_FRACTION = 0.02
DEFAULT_STEP_CAP = 1e-3


@dataclass(frozen=True)
class SystemParams:
    """Two-level emitter coupled to a flat field continuum.

    Instances should be built with :func:`make_system`, which derives ``g``
    and validates positivity.  Direct construction bypasses validation and
    is reserved for test hooks (for example ``dataclasses.replace`` with
    ``g=0`` to switch the coupling off).

    Attributes
    ----------
    gamma0 : float
        Spontaneous emission rate; sets the time unit.
    omega0 : float
        Emitter transition frequency, in units of ``gamma0``.
    rho0 : float
        Flat spectral density of the continuum (dimensionless).
    g : float
        Vacuum coupling frequency, derived from ``gamma0 = 4 pi g^2 rho0``.
    """

    gamma0: float
    omega0: float
    rho0: float
    g: float


@dataclass(frozen=True)
class PulseParams:
    """Truncated exponential pulse constants.

    The pulse enters every result only through its bandwidth and its
    detuning from the emitter, so the central frequency is never stored:
    it is ``omega0 + deltaL`` of whichever system the pulse drives.

    Attributes
    ----------
    delta : float
        Pulse bandwidth, in units of ``gamma0``.
    deltaL : float
        Laser detuning ``omegaL - omega0``, in units of ``gamma0``.
    """

    delta: float
    deltaL: float


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid of ``n`` samples ``k * spacing`` from t = 0.

    The excitation is entirely in the field at t = 0, so every evolution
    starts there; ``dynamics.full_cycle_grid`` normally sets ``n`` so that
    the emitter population has decayed below a cycle tolerance.

    Attributes
    ----------
    n : int
        Number of samples (grid points, not steps).
    spacing : float
        Uniform step between samples.
    """

    n: int
    spacing: float

    @property
    def tf(self) -> float:
        """End time, ``(n - 1) * spacing``."""
        return (self.n - 1) * self.spacing

    def times(self) -> np.ndarray:
        """Return the sample times as an array of length ``n``."""
        return np.arange(self.n) * self.spacing


def make_system(
    gamma0: float = 1.0,
    omega0: float = 100.0,
    rho0: float = 1.0 / (2.0 * math.pi),
) -> SystemParams:
    """Build validated system parameters with the coupling derived.

    Parameters
    ----------
    gamma0 : float
        Spontaneous emission rate (time unit), must be positive.
    omega0 : float
        Transition frequency in units of ``gamma0``, must be positive.
    rho0 : float
        Flat spectral density; the default 1/(2 pi) makes the coupling
        ``g = sqrt(gamma0 / 2)``.  Must be positive.

    Returns
    -------
    SystemParams
        Parameters with ``g = sqrt(gamma0 / (4 pi rho0))`` so that
        ``gamma0 = 4 pi g^2 rho0`` holds to machine precision.
    """
    if not (gamma0 > 0):
        raise ValueError("gamma0 must be positive")
    if not (omega0 > 0):
        raise ValueError("omega0 must be positive")
    if not (rho0 > 0):
        raise ValueError("rho0 must be positive")
    g = math.sqrt(gamma0 / (4.0 * math.pi * rho0))
    return SystemParams(gamma0=gamma0, omega0=omega0, rho0=rho0, g=g)


def make_pulse(delta: float, deltaL: float = 0.0) -> PulseParams:
    """Build validated pulse parameters.

    Parameters
    ----------
    delta : float
        Pulse bandwidth, must be positive.
    deltaL : float
        Laser detuning ``omegaL - omega0``, must be finite; the default
        drives the emitter on resonance.
    """
    if not (delta > 0):
        raise ValueError("delta must be positive")
    if not math.isfinite(deltaL):
        raise ValueError("deltaL must be finite")
    return PulseParams(delta=delta, deltaL=deltaL)


def uniform_grid(tf: float, step: float) -> TimeGrid:
    """Build a uniform grid on [0, tf] with the given step.

    ``tf`` is rounded up to an integer number of steps so the spacing is
    exactly ``step``.
    """
    if not (tf > 0):
        raise ValueError("tf must be positive")
    if not (step > 0):
        raise ValueError("step must be positive")
    n_steps = max(1, math.ceil(tf / step - 1e-9))
    return TimeGrid(n=n_steps + 1, spacing=step)


def rate_scale(system: SystemParams, pulse: PulseParams) -> float:
    """Fastest rate of a run, ``max(gamma0, delta, |deltaL|)``."""
    return max(system.gamma0, pulse.delta, abs(pulse.deltaL))


def default_step(rate: float, cap: float = DEFAULT_STEP_CAP) -> float:
    """Grid step ``min(cap, 0.02 / rate)``, well inside the integrator guard."""
    return min(cap, DEFAULT_STEP_FRACTION / rate)


def check_step(step: float, system: SystemParams, pulse: PulseParams) -> None:
    """Refuse a step too coarse for the fastest rate of a run.

    Raises
    ------
    ValueError
        If ``step`` exceeds ``0.05 / rate_scale(system, pulse)``; the
        message names the three rates.
    """
    limit = MAX_STEP_FRACTION / rate_scale(system, pulse)
    if step > limit:
        raise ValueError(
            f"step {step:g} too large: need step <= {limit:g} for rates "
            f"(gamma0={system.gamma0:g}, delta={pulse.delta:g}, "
            f"deltaL={pulse.deltaL:g})"
        )

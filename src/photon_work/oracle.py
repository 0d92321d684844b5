"""Brute-force discretized-continuum propagation in the one-excitation sector.

Independent ground truth for the amplitude dynamics: the continuum is
replaced by a uniform comb of modes in a window of half width W around
omega0 and the Schrodinger equation is integrated directly, with no
flat-continuum elimination.  Agreement with the closed form then checks
the Wigner-Weisskopf step itself.

The emitter decay rate gamma0 = 4 pi g^2 rho0 counts both propagation
directions of the continuum.  In the even/odd (standing-wave) mode basis
only the even channel couples to the emitter, with per-mode coupling
gbar = sqrt(gamma0 d_omega / 2 pi) (discrete golden rule equal to
gamma0), while the odd channel is exactly dark.  An incoming
one-directional photon splits equally: half its norm drives the emitter,
half rides along freely.  Both channels are carried in the state
(``phis[0]`` even, ``phis[1]`` odd); the dark channel evolves by exact
free phases, so reported norm drift measures integrator unitarity on the
coupled sector only.

Validity is tagged, not assumed: a window flag (spectral capture), a
recurrence flag (T < 2 pi / d_omega, the revival time of a discrete
comb), and a hard error on norm drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    SystemParams,
    TimeGrid,
    check_step,
    oracle_step,
    rate_scale,
    uniform_grid,
)
from .pulse import PulseEnvelope

__all__ = [
    "ModeGrid",
    "GlobalState",
    "OracleTrajectory",
    "NormDriftError",
    "make_mode_grid",
    "init_single_photon",
    "propagate",
    "oracle_grid",
]

# Spectral capture below which the window is flagged too narrow.
MIN_CAPTURED_MASS = 0.999
DEFAULT_DRIFT_TOL = 1e-6


class NormDriftError(RuntimeError):
    """Norm drift exceeded the tolerance: the step is too large."""


@dataclass(frozen=True)
class ModeGrid:
    """Uniform frequency comb of the discretized continuum.

    ``coupling`` is the per-mode coupling of the even channel,
    gbar = sqrt(gamma0 spacing / 2 pi), so the discrete golden-rule rate
    2 pi gbar^2 / spacing equals gamma0 exactly.
    """

    center: float
    half_width: float
    n_modes: int
    spacing: float
    coupling: float

    def detunings(self) -> np.ndarray:
        """Mode detunings from the center, spanning [-W, W]."""
        return -self.half_width + self.spacing * np.arange(self.n_modes)


@dataclass(frozen=True, eq=False)
class GlobalState:
    """One-excitation state: TLS amplitude and both mode channels.

    ``phis[0]`` is the even (coupled) channel, ``phis[1]`` the odd (dark)
    channel, both in the rotating frame at the window center.
    ``captured_mass`` and ``window_ok`` record how much of the photon
    spectrum the window holds.
    """

    psi: complex
    phis: np.ndarray
    captured_mass: float = 1.0
    window_ok: bool = True

    def norm(self) -> float:
        return abs(self.psi) ** 2 + float(np.sum(np.abs(self.phis) ** 2))


@dataclass(frozen=True, eq=False)
class OracleTrajectory:
    """Recorded TLS amplitude and total norm, plus the final state."""

    grid: TimeGrid
    mode_grid: ModeGrid
    psi: np.ndarray
    norm: np.ndarray
    final_state: GlobalState
    recurrence_ok: bool
    window_ok: bool

    @property
    def valid(self) -> bool:
        return self.recurrence_ok and self.window_ok

    def max_drift(self) -> float:
        return float(np.max(np.abs(1.0 - self.norm)))


def make_mode_grid(
    system: SystemParams, half_width: float = 100.0, n_modes: int = 4001
) -> ModeGrid:
    """Build a uniform comb centered on omega0.

    Parameters
    ----------
    system : SystemParams
    half_width : float
        Window half width W; modes span [omega0 - W, omega0 + W].
    n_modes : int
        Number of modes per channel; odd values place a mode exactly at
        the center.
    """
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    if n_modes < 3:
        raise ValueError("n_modes must be at least 3")
    spacing = 2.0 * half_width / (n_modes - 1)
    coupling = math.sqrt(system.gamma0 * spacing / (2.0 * math.pi))
    return ModeGrid(
        center=system.omega0,
        half_width=half_width,
        n_modes=n_modes,
        spacing=spacing,
        coupling=coupling,
    )


def init_single_photon(mode_grid: ModeGrid, envelope: PulseEnvelope) -> GlobalState:
    """Sample the pulse spectrum on the comb and renormalize to one photon.

    The photon arrives in one propagation direction, so its amplitude
    splits equally between the even and odd channels; the total norm is
    exactly 1 after renormalization.  ``captured_mass`` is the fraction
    of the continuum spectral weight inside the window before
    renormalization; below ``MIN_CAPTURED_MASS`` the state is flagged
    ``window_ok=False``.
    """
    params = envelope.params
    omega = mode_grid.center + mode_grid.detunings()
    raw = 1.0 / (0.5 * params.delta + 1j * (params.omegaL - omega))
    raw2 = np.abs(raw) ** 2
    # Continuum weight of |alpha~|^2 is 2 pi rho0; the rho0 factor cancels
    # in the captured fraction.
    captured = float(raw2.sum()) * mode_grid.spacing * params.delta / (2.0 * math.pi)
    total = math.sqrt(float(raw2.sum()))
    amps = raw / total
    window_ok = (
        captured >= MIN_CAPTURED_MASS
        and mode_grid.half_width >= 50.0 * rate_scale(envelope.system, params)
    )
    phis = np.vstack([amps, amps]) / math.sqrt(2.0)
    return GlobalState(
        psi=0.0 + 0.0j,
        phis=phis,
        captured_mass=captured,
        window_ok=window_ok,
    )


def _oracle_loop(h, gbar, dets, phi, psi, psi_out, norm_out):
    steps = psi_out.shape[0] - 1
    hh = 0.5 * h
    h6 = h / 6.0
    rot = -1j * dets
    norm_out[0] = abs(psi) ** 2 + float(np.sum(phi.real**2 + phi.imag**2))
    psi_out[0] = psi
    for m in range(steps):
        k1p = rot * phi + gbar * psi
        k1a = -gbar * phi.sum()
        y = phi + hh * k1p
        ya = psi + hh * k1a
        k2p = rot * y + gbar * ya
        k2a = -gbar * y.sum()
        y = phi + hh * k2p
        ya = psi + hh * k2a
        k3p = rot * y + gbar * ya
        k3a = -gbar * y.sum()
        y = phi + h * k3p
        ya = psi + h * k3a
        k4p = rot * y + gbar * ya
        k4a = -gbar * y.sum()
        phi = phi + h6 * (k1p + 2.0 * (k2p + k3p) + k4p)
        psi = psi + h6 * (k1a + 2.0 * (k2a + k3a) + k4a)
        psi_out[m + 1] = psi
        norm_out[m + 1] = abs(psi) ** 2 + float(np.sum(np.abs(phi) ** 2))
    return phi


def propagate(
    state: GlobalState,
    mode_grid: ModeGrid,
    system: SystemParams,
    grid: TimeGrid,
    drift_tol: float = DEFAULT_DRIFT_TOL,
) -> OracleTrajectory:
    """RK4 propagation of the coupled sector, recording psi and norm.

    The even channel obeys d(phi_k)/dt = -i Delta_k phi_k + gbar psi with
    d(psi)/dt = -gbar sum_k phi_k; the odd channel picks up exact free
    phases.  Raises :class:`NormDriftError` when the recorded total norm
    departs from 1 by more than ``drift_tol``.

    Parameters
    ----------
    state : GlobalState
        Initial state, normally from :func:`init_single_photon`.
    mode_grid : ModeGrid
    system : SystemParams
        Supplies gamma0 for the step guard.
    grid : TimeGrid
        Must start at the time of ``state`` (taken as 0).
    drift_tol : float
        Hard bound on max |1 - norm(t)|.
    """
    h = grid.spacing
    check_step(
        h,
        oracle_step(mode_grid.half_width, system.gamma0),
        half_width=mode_grid.half_width,
        gamma0=system.gamma0,
    )
    dets = mode_grid.detunings()
    dark = state.phis[1].copy()
    dark_mass = float(np.sum(np.abs(dark) ** 2))
    psi_out = np.empty(grid.n, dtype=np.complex128)
    norm_out = np.empty(grid.n, dtype=np.float64)
    phi = _oracle_loop(
        h,
        mode_grid.coupling,
        dets,
        state.phis[0],
        complex(state.psi),
        psi_out,
        norm_out,
    )
    norm_out += dark_mass
    drift = float(np.max(np.abs(1.0 - norm_out)))
    if drift > drift_tol:
        raise NormDriftError(
            f"norm drift {drift:.3e} exceeds {drift_tol:.0e}: step too large"
        )
    dark_final = dark * np.exp(-1j * dets * grid.tf)
    final = GlobalState(
        psi=complex(psi_out[-1]),
        phis=np.vstack([phi, dark_final]),
        captured_mass=state.captured_mass,
        window_ok=state.window_ok,
    )
    recurrence_ok = grid.tf < 2.0 * math.pi / mode_grid.spacing
    return OracleTrajectory(
        grid=grid,
        mode_grid=mode_grid,
        psi=psi_out,
        norm=norm_out,
        final_state=final,
        recurrence_ok=recurrence_ok,
        window_ok=state.window_ok,
    )


def oracle_grid(
    mode_grid: ModeGrid, system: SystemParams, t_max: float
) -> TimeGrid:
    """Uniform grid at the largest step the propagation guard allows."""
    return uniform_grid(t_max, oracle_step(mode_grid.half_width, system.gamma0))

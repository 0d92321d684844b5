"""Brute-force discretized-continuum propagation in the one-excitation sector.

Independent ground truth for the amplitude dynamics: the continuum is
replaced by a uniform comb of modes in a window of half width W around
omega0 and the Schrodinger equation is solved exactly, with no
flat-continuum elimination.  Agreement with the closed form then checks
the Wigner-Weisskopf step itself.

The emitter decay rate gamma0 = 4 pi g^2 rho0 counts both propagation
directions of the continuum.  In the even/odd (standing-wave) mode basis
only the even channel couples to the emitter, with per-mode coupling
gbar = sqrt(gamma0 d_omega / 2 pi) (discrete golden rule equal to
gamma0), while the odd channel is exactly dark.  An incoming
one-directional photon splits equally: half its norm drives the emitter,
half rides along freely and never meets it.  Only the coupled sector,
the emitter and the even channel, is carried; it holds half of the
photon's norm.

After the gauge psi -> -i psi the coupled sector is a real symmetric
arrowhead matrix: the mode detunings Delta_k on the diagonal, -gbar on
the border.  Its N + 1 eigenvalues solve the secular equation
lambda = gbar^2 sum_k 1/(lambda - Delta_k), one in each gap of the comb
and one beyond each edge, and each eigenvector is known in closed form,
v_k proportional to gbar/(Delta_k - lambda).  On the uniform comb the
secular sum is a difference of digammas plus pi cot, so one root-finding
sweep costs O(N).  The state is expanded once in the eigenbasis and
psi(t) is summed at any sample time, exact in time for any step.

Validity is tagged, not assumed: a window flag (spectral capture), a
recurrence flag (T < 2 pi / d_omega, the revival time of a discrete
comb), and a hard error when the expansion fails to conserve the
sector's norm or to rebuild its initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import PulseParams, SystemParams, TimeGrid, rate_scale
from .special import digamma

__all__ = [
    "ModeGrid",
    "GlobalState",
    "OracleTrajectory",
    "NormDriftError",
    "make_mode_grid",
    "init_single_photon",
    "propagate",
]

# Spectral capture below which the window is flagged too narrow.
MIN_CAPTURED_MASS = 0.999
# Bound on the expansion's norm defect and on its rebuild of the initial
# state; the larger, the rebuild, sits at 4e-15 to 8e-15 on the 4001- and
# 8001-mode combs.
DEFAULT_DRIFT_TOL = 1e-9

# Size of each eigenvector or phase table block, in bytes.
_BLOCK_BYTES = 1 << 19


class NormDriftError(RuntimeError):
    """The eigen-expansion lost norm or failed to rebuild the initial state."""


@dataclass(frozen=True)
class ModeGrid:
    """Uniform frequency comb of the discretized continuum, centered on
    the emitter frequency omega0.

    ``coupling`` is the per-mode coupling of the even channel,
    gbar = sqrt(gamma0 spacing / 2 pi), so the discrete golden-rule rate
    2 pi gbar^2 / spacing equals gamma0 exactly.
    """

    half_width: float
    n_modes: int
    spacing: float
    coupling: float

    def detunings(self) -> np.ndarray:
        """Mode detunings from omega0, spanning [-W, W]."""
        return -self.half_width + self.spacing * np.arange(self.n_modes)


@dataclass(frozen=True, eq=False)
class GlobalState:
    """One-excitation state of the coupled sector.

    ``psi`` is the TLS amplitude and ``phi`` the even channel, in the
    rotating frame at the window center.  ``captured_mass`` and
    ``window_ok`` record how much of the photon spectrum the window holds.
    """

    psi: complex
    phi: np.ndarray
    captured_mass: float = 1.0
    window_ok: bool = True


@dataclass(frozen=True, eq=False)
class OracleTrajectory:
    """Recorded TLS amplitude and the drift the expansion was gated on.

    ``drift`` is max(norm defect, rebuild residual) of the expansion, the
    value :func:`propagate` compares against its ``drift_tol``.
    """

    grid: TimeGrid
    mode_grid: ModeGrid
    psi: np.ndarray
    drift: float
    recurrence_ok: bool


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
        half_width=half_width,
        n_modes=n_modes,
        spacing=spacing,
        coupling=coupling,
    )


def init_single_photon(
    system: SystemParams, pulse: PulseParams, mode_grid: ModeGrid
) -> GlobalState:
    """Sample the pulse spectrum on the comb and renormalize to one photon.

    The photon arrives in one propagation direction, so its amplitude
    splits equally between the even and odd channels.  Only the even,
    coupled channel is returned: it holds half of the photon's norm, the
    dark odd half is not carried.  ``captured_mass`` is the fraction
    of the continuum spectral weight inside the window before
    renormalization; below ``MIN_CAPTURED_MASS`` the state is flagged
    ``window_ok=False``.
    """
    raw = 1.0 / (0.5 * pulse.delta + 1j * (pulse.deltaL - mode_grid.detunings()))
    raw2 = np.abs(raw) ** 2
    # Continuum weight of |alpha~|^2 is 2 pi rho0; the rho0 factor cancels
    # in the captured fraction.
    captured = float(raw2.sum()) * mode_grid.spacing * pulse.delta / (2.0 * math.pi)
    total = math.sqrt(float(raw2.sum()))
    amps = raw / total
    window_ok = (
        captured >= MIN_CAPTURED_MASS
        and mode_grid.half_width >= 50.0 * rate_scale(system, pulse)
    )
    return GlobalState(
        psi=0.0 + 0.0j,
        phi=amps / math.sqrt(2.0),
        captured_mass=captured,
        window_ok=window_ok,
    )


def _pole_sum(n: int, anchor: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Closed form of sum_k 1/(z - k), k < n, at z = anchor + u.

    For an integer ``anchor`` in [0, n) and 0 < |u| <= 1/2, z lies in a
    gap of the comb, the digamma arguments stay >= 1/2 and the two
    nearest poles enter through pi cot(pi u).
    """
    z = anchor + u
    # One call for both: at 4,000 entries each array operation's fixed
    # cost is a large part of its time.
    above, below = digamma(np.stack((z + 1.0, n - z)))
    return above - below + math.pi / np.tan(math.pi * u)


def _pole_sum_direct(n: int, anchor: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The same sum term by term, for z outside the comb."""
    return np.sum(1.0 / (np.subtract.outer(anchor, np.arange(n)) + u[:, None]), axis=1)


def _secular_roots(mode_grid: ModeGrid, pole_sum, anchor, lo, hi) -> np.ndarray:
    """Roots u of lambda - gbar^2 sum_k 1/(lambda - Delta_k), lambda =
    Delta_anchor + spacing u, bisected in (lo, hi) down to adjacent floats.

    The secular function rises monotonically from - to + across each
    bracket.  Every quantity is measured from the anchor pole, so a root
    close to its own pole keeps full relative precision.
    """
    n, d = mode_grid.n_modes, mode_grid.spacing
    c = mode_grid.coupling**2 / d
    base = mode_grid.detunings()[anchor]
    while True:
        u = 0.5 * (lo + hi)
        if np.all((u == lo) | (u == hi)):
            return u
        below = base + d * u - c * pole_sum(n, anchor, u) < 0.0
        lo = np.where(below, u, lo)
        hi = np.where(below, hi, u)


def _eigenvalues(mode_grid: ModeGrid):
    """All N + 1 eigenvalues as (anchor pole index, offset in spacings).

    Ordered from the lower edge root through one root per gap to the
    upper edge root.
    """
    n, d = mode_grid.n_modes, mode_grid.spacing
    c = mode_grid.coupling**2 / d
    dets = mode_grid.detunings()
    # Gap k: the sign at its midpoint tells which pole the root sits
    # nearer, and that pole becomes the anchor.
    gap = np.arange(n - 1)
    mid = dets[:-1] + 0.5 * d - c * _pole_sum(n, gap, np.full(n - 1, 0.5))
    lower = mid > 0.0
    anchor = np.where(lower, gap, gap + 1)
    u_gap = _secular_roots(
        mode_grid,
        _pole_sum,
        anchor,
        np.where(lower, 0.0, -0.5),
        np.where(lower, 0.5, 0.0),
    )
    # Beyond an edge the root lies within r spacings of the edge pole,
    # where d r^2 - |Delta| r - c N > 0 makes the sign of the secular
    # function certain.
    edge = np.array([0, n - 1])
    reach = np.abs(dets[edge])
    r = (reach + np.sqrt(reach**2 + 4.0 * d * c * n)) / (2.0 * d) + 1.0
    u_edge = _secular_roots(
        mode_grid,
        _pole_sum_direct,
        edge,
        np.array([-r[0], 0.0]),
        np.array([0.0, r[1]]),
    )
    anchors = np.concatenate([edge[:1], anchor, edge[1:]])
    offsets = np.concatenate([u_edge[:1], u_gap, u_edge[1:]])
    return anchors, offsets


def _expand(mode_grid, anchors, offsets, chi0, phi0):
    """Overlaps of the state with the eigenbasis, in blocks of rows.

    Row j of a block is the eigenvector gbar/(Delta_k - lambda_j) with
    its emitter entry 1, not yet normalized.  Returns the weights
    w_j = v_j[chi] c_j, the norm sum |c_j|^2 and the rebuilt initial
    even channel V c.  Float blocks are multiplied by real and imaginary
    parts separately, never converted to complex.
    """
    n = mode_grid.n_modes
    scale = mode_grid.coupling / mode_grid.spacing
    modes = np.arange(n, dtype=float)
    parts = np.column_stack([phi0.real, phi0.imag])
    weights = np.empty(len(anchors), dtype=np.complex128)
    norm = 0.0
    # Rows: real and imaginary parts of the rebuilt state.
    sums = np.zeros((2, n))
    rows = max(1, _BLOCK_BYTES // (8 * n))
    for lo in range(0, len(anchors), rows):
        block = slice(lo, lo + rows)
        # (Delta_k - lambda)/spacing = (k - anchor) - offset, the integer
        # part exact, so each row's own pole is subtracted exactly.
        v = np.subtract.outer(anchors[block].astype(float), modes)
        v += offsets[block, None]
        np.divide(-scale, v, out=v)
        norm2 = 1.0 + np.einsum("ij,ij->i", v, v)
        p_re, p_im = (v @ parts).T
        p = chi0 + (p_re + 1j * p_im)
        w = p / norm2
        weights[block] = w
        norm += float(np.sum(np.abs(p) ** 2 / norm2))
        sums += np.stack([w.real, w.imag]) @ v
    return weights, norm, sums[0] + 1j * sums[1]


def _phase_sums(lam: np.ndarray, weights: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """sum_j w_j exp(-i lam_j t) on every sample of the uniform grid.

    Sample m = p B + q factors as exp(-i lam q h) exp(-i lam p B h), so
    the B x P table of sums is one complex GEMM, B ~ sqrt(n), accumulated
    over chunks of eigenvalues.
    """
    h = grid.spacing
    b = math.isqrt(grid.n - 1) + 1
    p = -(-grid.n // b)
    inner_t = h * np.arange(b)
    outer_t = (b * h) * np.arange(p)
    table = np.zeros((b, p), dtype=np.complex128)
    cols = max(1, _BLOCK_BYTES // (16 * max(b, p)))
    for lo in range(0, len(lam), cols):
        chunk = lam[lo : lo + cols]
        inner = np.exp(-1j * np.multiply.outer(inner_t, chunk))
        outer = np.exp(-1j * np.multiply.outer(chunk, outer_t))
        outer *= weights[lo : lo + cols, None]
        table += inner @ outer
    return table.T.ravel()[: grid.n]


def propagate(
    state: GlobalState,
    mode_grid: ModeGrid,
    grid: TimeGrid,
    drift_tol: float = DEFAULT_DRIFT_TOL,
) -> OracleTrajectory:
    """Exact propagation of the coupled sector, recording psi.

    The even channel obeys d(phi_k)/dt = -i Delta_k phi_k + gbar psi with
    d(psi)/dt = -gbar sum_k phi_k; it is expanded once in the eigenbasis
    of that generator and summed at every sample, so any step samples
    the same trajectory.  The sector conserves its own norm, whatever it
    is (half of the photon's for a state from :func:`init_single_photon`).
    Raises :class:`NormDriftError` when the expansion's norm departs from
    the initial |psi|^2 + ||phi||^2, or its rebuild of the initial state
    from that state, by more than ``drift_tol``.

    Parameters
    ----------
    state : GlobalState
        Initial state, normally from :func:`init_single_photon`.
    mode_grid : ModeGrid
    grid : TimeGrid
        Sample times; the first is the time of ``state`` (taken as 0).
    drift_tol : float
        Hard bound on max(|norm0 - norm|, ||V c - x0||), which the
        trajectory returns as ``drift``.
    """
    anchors, offsets = _eigenvalues(mode_grid)
    lam = mode_grid.detunings()[anchors] + mode_grid.spacing * offsets
    chi0 = -1j * complex(state.psi)
    phi0 = state.phi
    weights, norm, rebuilt = _expand(mode_grid, anchors, offsets, chi0, phi0)
    norm0 = abs(chi0) ** 2 + float(np.sum(np.abs(phi0) ** 2))
    norm_residual = abs(norm0 - norm)
    rebuild_residual = math.sqrt(
        abs(complex(np.sum(weights)) - chi0) ** 2
        + float(np.sum(np.abs(rebuilt - phi0) ** 2))
    )
    drift = max(norm_residual, rebuild_residual)
    if not drift <= drift_tol:
        raise NormDriftError(
            f"norm drift {drift:.3e} exceeds {drift_tol:.0e} "
            f"(norm {norm_residual:.3e}, rebuild {rebuild_residual:.3e})"
        )
    return OracleTrajectory(
        grid=grid,
        mode_grid=mode_grid,
        psi=1j * _phase_sums(lam, weights, grid),
        drift=drift,
        recurrence_ok=grid.tf < 2.0 * math.pi / mode_grid.spacing,
    )

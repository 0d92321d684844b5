"""Work, generalized heat, and their exact decompositions for one photon run.

Definitions (units hbar = 1, energies in hbar gamma0):

    U(t)  = omega0 |psi|^2 + <H_int>/2          internal energy
    W1    = integral |psi|^2 d(omega_s)/dt dt   work (unitary part)
    Q1    = integral d(|psi|^2)/dt omega_s dt   heat (non-unitary part)

with omega_s = omega0 + delta_eff.  Every functional is linear in four
moments.  On a sampled run :func:`energy_moments` forms them with the
trapezoid rule and Gregory end corrections in one pass, for the photon
and for the coherent drive (``semiclassical``); for the closed-form photon
:func:`closed_form_moments` forms all four in closed form (the ratio
moment from I, a divided difference of digamma functions in one form
for delta <= gamma0 and another for delta > gamma0), and
:func:`photon_report` reads the rows on them:

    m = (integral p, integral Re u, integral Im u, integral occ r)

    p    population             |psi|^2      rho_ee
    u    drive times coherence  phi psi*     alpha rho_eg*
    occ  occupation factor      1            1 - 2 rho_ee
    r    Re u Im u / |coherence|^2, 0 where |coherence|^2 = 0

Each value is one coefficient row on m (g the coupling).  The first three
rows serve both reports (:func:`shared_rows`): the photon to
coherent-field correspondence.

    W1_reac, W_reac  (0, 0, g gamma0, 2 g^2)
    Q1_abs, W_abs    (0, -2 g omega0, 0, -2 g^2)
    Q1_em, Q_alpha   (-omega0 gamma0, 0, -g gamma0, 0)
    W1               (0, -g deltaL, g (gamma0 - delta)/2, 2 g^2)
    Q1               (-omega0 gamma0, -2 g omega0, -g gamma0, -2 g^2)
    dU               (-omega0 gamma0, -g (2 omega0 + deltaL), -g (gamma0 + delta)/2, 0)
    W1_int           (0, -g deltaL, -g (gamma0 + delta)/2, 0)
    W_alpha          (0, -2 g (omega0 + deltaL), -g delta, 0)
    W_int            (0, -2 g deltaL, -g (gamma0 + delta), 0)

The photon rows follow from dp/dt = -gamma0 p - 2 g Re z, d<H_int>/dt =
2 g Im[dz/dt] with dz/dt = -((gamma0+delta)/2 + i deltaL) z - g|phi|^2
(z = phi psi*) and (dp/dt) delta_eff = -g gamma0 Im z - 2 g^2 r.  No row
is a sum of other rows, so the first-law and split residuals compare
independently written rows; every rule being linear, they sit at
rounding level for any step size.  The ratio r is bounded by
|phi|^2 / 2, so it needs no guard: it is integrated as defined, and set
to 0 only where the coherence is exactly 0 (at t = 0, or with g = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import AmplitudeTrajectory
from .model import PulseParams, SystemParams, TimeGrid
from .pulse import envelope_at, normalization
from .special import digamma_divided_difference

__all__ = [
    "ThermoReport",
    "thermo_report",
    "photon_report",
    "closed_form_moments",
    "FULL_CYCLE_POP",
]

# Residual end population above which a grid is not a full cycle.
FULL_CYCLE_POP = 1e-9

_CHUNK = 1 << 20

# Gregory end weights beyond the trapezoid's, from the end sample inwards
# (energy_moments), and the fewest samples a grid may have.
_GREGORY = np.array([-245.0, 462.0, -336.0, 146.0, -27.0]) / 1440.0
GREGORY_MIN_SAMPLES = 8


@dataclass(frozen=True)
class ThermoReport:
    """Energy balance of a single run (all energies in hbar gamma0).

    ``W1`` splits into the interaction-energy boundary part ``W1_int`` and
    the reactive part ``W1_reac = integral <H_int> (Gamma(t)/2) dt``;
    ``Q1`` into the absorption ``Q1_abs = integral omega_s (-2 g Re z) dt``
    and the free emission
    ``Q1_em = integral (-gamma0 omega0 p - (gamma0/2) <H_int>) dt``.
    Each value is one coefficient row on the four moments (module
    docstring) written from its own definition, so the three residuals
    compare independently written rows, not a value against itself.
    """

    W1: float
    Q1: float
    Q1_abs: float
    Q1_em: float
    W1_int: float
    W1_reac: float
    dU: float
    residual_first_law: float
    residual_Q_split: float
    residual_W_split: float


def ratio_integrand(u, mod2, population=None):
    """occ r = occ Re u Im u / mod2, zero where ``mod2`` (|coherence|^2) is
    0; occ = 1 - 2 ``population``, or 1 for the photon (None)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(mod2 > 0.0, u.real * u.imag / mod2, 0.0)
    if population is not None:
        r *= 1.0 - 2.0 * population
    return r


def energy_moments(
    grid: TimeGrid,
    system: SystemParams,
    pulse: PulseParams,
    coherence,
    population=None,
    amplitude_scale: float = 1.0,
) -> tuple:
    """The four moments m of one run (module docstring), by the trapezoid
    rule with Gregory end corrections.

    ``coherence`` is psi or rho_eg on ``grid``; the drive (phi or alpha)
    is ``amplitude_scale`` times the envelope of ``pulse`` at the times
    k h.  ``population`` is rho_ee, or None for the photon: p = |psi|^2
    and occ = 1.  Chunks of ``_CHUNK`` steps share their end samples,
    which bounds the memory of the per-sample arrays, the drive included.
    The corrections act at the grid's two ends only, through the fourth
    differences (Fornberg, "Improving the accuracy of the trapezoidal
    rule", SIAM Review 63(1), 2021), so the rule integrates polynomials
    up to degree 5 exactly; grids of fewer than ``GREGORY_MIN_SAMPLES``
    samples are refused.
    """
    n, h = grid.n, grid.spacing
    if n < GREGORY_MIN_SAMPLES:
        raise ValueError(
            f"grid of {n} samples: the end corrections need at least "
            f"{GREGORY_MIN_SAMPLES}"
        )

    def integrands(sel, t):
        # Bound to a name before the product: numpy would otherwise write
        # the product into this temporary's buffer, and that in-place loop
        # can round differently in the last bit.
        d = amplitude_scale * envelope_at(system, pulse, t)
        c = coherence[sel]
        u = d * np.conj(c)
        m = np.abs(c) ** 2
        pop = None if population is None else population[sel]
        p = m if pop is None else pop
        return p, u.real, u.imag, ratio_integrand(u, m, pop)

    sums = [0.0] * 4
    for lo in range(0, n - 1, _CHUNK):
        hi = min(lo + _CHUNK, n - 1) + 1
        for j, y in enumerate(integrands(slice(lo, hi), np.arange(lo, hi) * h)):
            sums[j] += h * (float(y.sum()) - 0.5 * (float(y[0]) + float(y[-1])))
    # Left end: h (D/12 - D^2/24 + 19 D^3/720 - 3 D^4/160) on the forward
    # differences D; right end: h (-B/12 - B^2/24 - 19 B^3/720 - 3 B^4/160)
    # on the backward ones B.  Both are _GREGORY from the end inwards.
    w = len(_GREGORY)
    ends = np.r_[0:w, n - 1 : n - 1 - w : -1]
    for j, y in enumerate(integrands(ends, ends * h)):
        sums[j] += h * float(_GREGORY @ (y[:w] + y[w:]))
    return tuple(sums)


def _phase_integral(s: complex, d: complex) -> complex:
    """I(s, d) of :func:`closed_form_moments` for Re d >= 0 and Re s > 0
    (1 / s at d = 0), a divided difference of digamma functions
    (``special.digamma_divided_difference``) whose arguments are never
    formed: the two digamma values would cancel (Im I was off by 9e-14
    near matched bandwidth), and s / conj(d) + 1 + d / conj(d) would
    round (by 4e-11 at |d| = 1000).
    """
    if d == 0:
        return 1.0 / s
    return digamma_divided_difference(s, d, d.conjugate())


def closed_form_moments(system: SystemParams, pulse: PulseParams) -> tuple:
    """The four moments m of the closed-form photon over [0, inf), the
    vector :func:`energy_moments` forms on a grid.

    With psi = amp (e^{-a t} - e^{-b t}) / (a - b) and phi = N e^{-b t}
    (a = gamma0/2, b = delta/2 + i deltaL, amp = sqrt(gamma0 delta / 2),
    N the envelope's normalization), the 1/(a - b) cancels from

        integral |psi|^2    =  amp^2 (a + delta/2) / (a delta |a + b|^2)
        integral phi psi*   = -N amp / (delta (a + b)),

    so they hold for every a - b, a = b included.  Since psi / phi =
    -(amp / N) t X with X = exprel(-d t), d = a - b, the ratio is
    r = -(N^2 / 2) e^{-delta t} Im(X / conj X), and integral r =
    -(N^2 / 2) Im I(delta, d), where I(s, d) = integral e^{-s t} X / conj X dt
    = conj(d) sum_k 1 / ((s + k conj d) (s + d + k conj d)).  For Re d >= 0,

        I(s, d) = [digamma((s + d) / conj d) - digamma(s / conj d)] / d,

    formed as a divided difference (shifts of the sum, then the
    digamma's asymptotic series), which keeps its digits where the two
    values nearly agree.  For Re d < 0 (delta > gamma0),
    X / conj X = e^{2 i deltaL t} exprel(d t) / exprel(conj(d) t) gives
    I(delta, d) = I(delta - 2 i deltaL, -d).  At matched bandwidth,
    a = delta/2, X / conj X = e^{i deltaL t}, so integral r =
    -(N^2 / 2) deltaL / (delta^2 + deltaL^2) and the W1 row gives
    W1 = g N deltaL (amp - g N) / (delta^2 + deltaL^2) = 0: amp = g N.
    """
    a = 0.5 * system.gamma0
    beta = 0.5 * pulse.delta
    deltaL = pulse.deltaL
    amp = math.sqrt(a * pulse.delta)
    n = normalization(system, pulse)
    q = 1.0 / ((a + beta) ** 2 + deltaL * deltaL) / pulse.delta
    d = complex(a - beta, -deltaL)
    if d.real >= 0.0:
        phase = _phase_integral(complex(pulse.delta), d)
    else:
        phase = _phase_integral(complex(pulse.delta, -2.0 * deltaL), -d)
    return (
        amp * amp * (a + beta) * q / a,
        -n * amp * (a + beta) * q,
        n * amp * deltaL * q,
        -0.5 * n * n * float(phase.imag),
    )


def row_value(row, moments) -> float:
    """A coefficient row on the moments, added exactly (``math.fsum``):
    rows such as W1 and Q1 cancel terms far larger than their value."""
    return math.fsum(c * m for c, m in zip(row, moments))


def shared_rows(system: SystemParams) -> tuple:
    """Rows of reactive work (W1_reac, W_reac), absorption (Q1_abs, W_abs)
    and free emission (Q1_em, Q_alpha), shared by photon and drive."""
    g, gamma0, omega0 = system.g, system.gamma0, system.omega0
    reactive = (0.0, 0.0, g * gamma0, 2.0 * g * g)
    absorptive = (0.0, -2.0 * g * omega0, 0.0, -2.0 * g * g)
    emission = (-omega0 * gamma0, 0.0, -g * gamma0, 0.0)
    return reactive, absorptive, emission


def check_full_cycle(pop_end: float, remedy: str) -> None:
    """Refuse a grid whose end population leaves boundary terms behind;
    ``remedy`` ends the message after "extend the grid"."""
    if pop_end > FULL_CYCLE_POP:
        raise ValueError(
            "boundary terms not negligible: end population "
            f"{pop_end:.3e} exceeds {FULL_CYCLE_POP:.0e}; extend the "
            f"grid {remedy}"
        )


def _ledger(system: SystemParams, pulse: PulseParams, m) -> ThermoReport:
    """The photon's values and residuals, each a row on the moments ``m``."""
    gamma0, omega0, g = system.gamma0, system.omega0, system.g
    delta, deltaL = pulse.delta, pulse.deltaL
    reactive, absorptive, emission = shared_rows(system)
    w1 = row_value((0.0, -g * deltaL, 0.5 * g * (gamma0 - delta), 2.0 * g * g), m)
    q1 = row_value((-omega0 * gamma0, -2.0 * g * omega0, -g * gamma0, -2.0 * g * g), m)
    du = row_value(
        (-omega0 * gamma0, -g * (2.0 * omega0 + deltaL), -0.5 * g * (gamma0 + delta), 0.0), m
    )
    q1_abs = row_value(absorptive, m)
    q1_em = row_value(emission, m)
    w1_int = row_value((0.0, -g * deltaL, -0.5 * g * (gamma0 + delta), 0.0), m)
    w1_reac = row_value(reactive, m)
    return ThermoReport(
        W1=w1,
        Q1=q1,
        Q1_abs=q1_abs,
        Q1_em=q1_em,
        W1_int=w1_int,
        W1_reac=w1_reac,
        dU=du,
        residual_first_law=du - (w1 + q1),
        residual_Q_split=q1 - (q1_abs + q1_em),
        residual_W_split=w1 - (w1_int + w1_reac),
    )


def thermo_report(
    traj: AmplitudeTrajectory,
    allow_partial: bool = False,
) -> ThermoReport:
    """Full energy balance with decomposition residuals, by the
    end-corrected trapezoid rule (:func:`energy_moments`) on a sampled
    closed-form or RK4 trajectory (the closed form itself needs no grid,
    see :func:`photon_report`).

    Parameters
    ----------
    traj : AmplitudeTrajectory
    allow_partial : bool
        Accept a grid whose end population exceeds ``FULL_CYCLE_POP``
        (boundary terms are then part of the reported values).
    """
    if not allow_partial:
        check_full_cycle(
            float(np.abs(traj.psi[-1]) ** 2),
            "(full_cycle_grid) or pass allow_partial=True",
        )
    m = energy_moments(traj.grid, traj.system, traj.pulse, traj.psi)
    return _ledger(traj.system, traj.pulse, m)


def photon_report(system: SystemParams, pulse: PulseParams) -> ThermoReport:
    """Full energy balance of the closed-form photon over its whole cycle,
    on :func:`closed_form_moments`: no grid, and no step to choose."""
    return _ledger(system, pulse, closed_form_moments(system, pulse))

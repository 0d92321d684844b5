"""Work, generalized heat, and their exact decompositions for one photon run.

Definitions (units hbar = 1, energies in hbar gamma0):

    U(t)  = omega0 |psi|^2 + <H_int>/2          internal energy
    W1    = integral |psi|^2 d(omega_s)/dt dt   work (unitary part)
    Q1    = integral d(|psi|^2)/dt omega_s dt   heat (non-unitary part)

with omega_s = omega0 + delta_eff.  Every functional is reduced to an
integrand that is polynomial in (phi, psi) except for one bounded ratio
term, and all of them are integrated with the same composite trapezoid
rule on the shared uniform grid.  Because the integrands satisfy the
decomposition identities pointwise (as array algebra), the reported
residuals check quadrature consistency only and sit at rounding level
for any step size; they are carried in the report rather than silently
reconciled.

Integrand forms, with z = phi psi*, p = |psi|^2, r = Re z Im z / p:

    dp/dt        = -gamma0 p - 2 g Re z
    d<H_int>/dt  = 2 g Im[dz/dt],  dz/dt = -((gamma0+delta)/2 + i deltaL) z - g|phi|^2
    (dp/dt) delta_eff = -g gamma0 Im z - 2 g^2 r

The ratio term r is bounded by |phi|^2 / 2 and tends to 0 at psi -> 0;
it is set to 0 on samples where p falls below ``DEFAULT_ETA`` times its
maximum.
The same guarded array enters every functional that contains it, so the
guard never perturbs the decomposition residuals, and its contribution
to the values themselves is below the cycle-tolerance tail level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import AmplitudeTrajectory
from .effective import DEFAULT_ETA

__all__ = [
    "ThermoReport",
    "thermo_report",
    "FULL_CYCLE_POP",
]

# Residual end population above which a grid is not a full cycle.
FULL_CYCLE_POP = 1e-9

_CHUNK = 1 << 20


@dataclass(frozen=True)
class ThermoReport:
    """Energy balance of a single run (all energies in hbar gamma0).

    ``W1`` splits into the interaction-energy boundary part ``W1_int`` and
    the reactive part ``W1_reac = integral <H_int> (Gamma(t)/2) dt``;
    ``Q1`` into the absorption ``Q1_abs = integral omega_s (-2 g Re z) dt``
    and the free emission
    ``Q1_em = integral (-gamma0 omega0 p - (gamma0/2) <H_int>) dt``.
    ``dU`` is the quadrature of the internal-energy derivative on the same
    rule as ``W1`` and ``Q1``, so ``residual_first_law`` compares three
    independently assembled integrand arrays, not a value against itself.
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
    grid_meta: str


def _trap(h: float, y: np.ndarray) -> float:
    return h * (float(y.sum()) - 0.5 * (float(y[0]) + float(y[-1])))


def trapezoid_sums(n: int, h: float, integrands) -> dict:
    """Composite trapezoid sums of named integrands on a uniform grid.

    The ``n`` samples are walked in chunks of ``_CHUNK`` steps that share
    their end samples, which bounds the memory of the integrand arrays.
    ``integrands(sl)`` yields ``(name, values)`` pairs for the samples in
    slice ``sl``; each sum accumulates its chunks in order.
    """
    sums: dict = {}
    for i0 in range(0, max(n - 1, 1), _CHUNK):
        sl = slice(i0, min(i0 + _CHUNK, n - 1) + 1)
        for name, y in integrands(sl):
            sums[name] = sums.get(name, 0.0) + _trap(h, y)
    return sums


def check_full_cycle(pop_end: float, allow_partial: bool) -> None:
    """Refuse a grid whose end population leaves boundary terms behind,
    unless the caller accepts a partial cycle."""
    if not allow_partial and pop_end > FULL_CYCLE_POP:
        raise ValueError(
            "boundary terms not negligible: end population "
            f"{pop_end:.3e} exceeds {FULL_CYCLE_POP:.0e}; extend the "
            "grid (full_cycle_grid) or pass allow_partial=True"
        )


def thermo_report(
    traj: AmplitudeTrajectory,
    allow_partial: bool = False,
) -> ThermoReport:
    """Full energy balance with decomposition residuals.

    Parameters
    ----------
    traj : AmplitudeTrajectory
    allow_partial : bool
        Accept a grid whose end population exceeds ``FULL_CYCLE_POP``
        (boundary terms are then part of the reported values).
    """
    gamma0 = traj.system.gamma0
    omega0 = traj.system.omega0
    g = traj.system.g
    delta = traj.pulse.delta
    deltaL = traj.pulse.deltaL

    pop = np.abs(traj.psi) ** 2
    check_full_cycle(float(pop[-1]), allow_partial)
    threshold = DEFAULT_ETA * float(pop.max())

    def integrands(sl):
        p = pop[sl]
        z = traj.phi[sl] * np.conj(traj.psi[sl])
        rez = z.real
        imz = z.imag
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(p > threshold, rez * imz / p, 0.0)
        dp = -gamma0 * p - 2.0 * g * rez
        im_zdot = -0.5 * (gamma0 + delta) * imz - deltaL * rez
        dhint = 2.0 * g * im_zdot
        f = -g * gamma0 * imz - 2.0 * g * g * r
        yield "w1", 0.5 * dhint - f
        yield "q1", omega0 * dp + f
        yield "du", omega0 * dp + 0.5 * dhint
        yield "qabs", -2.0 * g * omega0 * rez - 2.0 * g * g * r
        yield "qem", -omega0 * gamma0 * p - g * gamma0 * imz
        yield "wint", 0.5 * dhint
        yield "wreac", g * gamma0 * imz + 2.0 * g * g * r

    sums = trapezoid_sums(traj.grid.n, traj.grid.spacing, integrands)
    w1 = sums["w1"]
    q1 = sums["q1"]
    du = sums["du"]
    q1_abs = sums["qabs"]
    q1_em = sums["qem"]
    w1_int = sums["wint"]
    w1_reac = sums["wreac"]
    grid = traj.grid
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
        grid_meta=f"trapezoid n={grid.n} spacing={grid.spacing:.6g}",
    )

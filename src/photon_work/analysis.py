"""Quantum vs semiclassical equivalences and detuning sweeps.

The headline comparisons pair each quantum energy current with its
coherent-drive counterpart in the narrowband low-excitation regime:

    W1      <->  reactive drive work
    Q1_abs  <->  absorptive drive work
    Q1_em   <->  drive heat

The photon's side is grid-free (``thermo.photon_report`` and
``dynamics.peak_population``).  All three drive-side values come from the
time-domain work decomposition of the Bloch pair driven by the same
envelope (``semiclassical.work_total_and_decomposition``): exact step
maps on the full cycle cut at 80/gamma0, and past the cut the exact
series in the envelope that the pair follows once its transient has died
out.
In the low-excitation regime the coherence tracks the quantum amplitude
pointwise, so the paired integrals converge as the bandwidth shrinks.
(The semiclassical module's linear-response ``work_reactive`` and
``work_absorptive`` are closed forms, overlaps of the susceptibility with
the pulse spectrum; neither pair uses them.)

Relative errors use the larger magnitude as denominator with an absolute
floor, since both members of the first pair vanish at zero detuning.
Regime indicators (bandwidth ratio and both peak populations) are always
recorded; equivalence is only a meaningful claim when the pulse is
narrowband (delta <= 0.01 gamma0) and both excitations stay below 0.02.
Detuning sweeps are grid-free too: one ``photon_report`` per detuning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import peak_population
from .model import PulseParams, SystemParams, make_pulse
from .semiclassical import (
    SemiclassicalReport,
    head_grid,
    integrate_bloch,
    work_total_and_decomposition,
)
from .thermo import ThermoReport, photon_report

__all__ = [
    "RegimeFlags",
    "EquivalenceReport",
    "DetuningScan",
    "compare_equivalences",
    "detuning_scan",
]

# Absolute floor for relative-error denominators, in hbar gamma0.
REL_ERR_FLOOR = 1e-8
REGIME_DELTA_MAX = 0.01
REGIME_POP_MAX = 0.02


@dataclass(frozen=True)
class RegimeFlags:
    """Narrowband low-excitation indicators recorded with every report."""

    delta_over_gamma0: float
    max_pop_quantum: float
    max_pop_semiclassical: float
    in_regime: bool


@dataclass(frozen=True)
class EquivalenceReport:
    """The photon's grid-free report, the drive's report on its head and
    tail, and the relative errors of the pairs W1/W_reac, Q1_abs/W_abs and
    Q1_em/Q_alpha."""

    photon: ThermoReport
    drive: SemiclassicalReport
    rel_err_work_reactive: float
    rel_err_heat_absorbed: float
    rel_err_heat_emitted: float
    regime: RegimeFlags


@dataclass(frozen=True, eq=False)
class DetuningScan:
    """Thermo reports on a laser-detuning sweep at fixed bandwidth.

    ``reports[i]`` is the report at ``deltaL[i]``.  ``antisymmetry`` lists
    (|deltaL|, |W1(+deltaL) + W1(-deltaL)|) for every detuning whose
    mirror value is also in the sweep.
    """

    deltaL: np.ndarray
    reports: tuple[ThermoReport, ...]
    antisymmetry: tuple


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), REL_ERR_FLOOR)


def compare_equivalences(system: SystemParams, pulse: PulseParams) -> EquivalenceReport:
    """Run both pipelines over a full cycle and compare the three pairs.

    The drive runs exact step maps on :func:`semiclassical.head_grid`,
    the cycle at the library's default tolerance cut at 80/gamma0, at
    the spacing its quadrature needs, and the series covers the rest of a
    cut cycle; the photon's side has no grid.  Neither side takes a
    setting.
    """
    rep = photon_report(system, pulse)
    max_pop_q = peak_population(system, pulse)

    btraj = integrate_bloch(system, pulse, head_grid(system, pulse))
    srep = work_total_and_decomposition(btraj)
    # A tail's series starts below the head's peak (checked with the tail).
    max_pop_s = float(np.max(btraj.rho_ee))
    del btraj

    ratio = pulse.delta / system.gamma0
    regime = RegimeFlags(
        delta_over_gamma0=ratio,
        max_pop_quantum=max_pop_q,
        max_pop_semiclassical=max_pop_s,
        in_regime=(
            ratio <= REGIME_DELTA_MAX * (1.0 + 1e-12)
            and max_pop_q <= REGIME_POP_MAX
            and max_pop_s <= REGIME_POP_MAX
        ),
    )
    return EquivalenceReport(
        photon=rep,
        drive=srep,
        rel_err_work_reactive=_rel_err(rep.W1, srep.W_reac),
        rel_err_heat_absorbed=_rel_err(rep.Q1_abs, srep.W_abs),
        rel_err_heat_emitted=_rel_err(rep.Q1_em, srep.Q_alpha),
        regime=regime,
    )


def detuning_scan(system: SystemParams, delta: float, deltaL_list) -> DetuningScan:
    """Grid-free thermo sweep over laser detunings at fixed bandwidth: one
    :func:`photon_report` per detuning, in list order.  Mirrored
    detunings take conjugate closed forms, so the antisymmetry defect is
    a pure physics statement.
    """
    values = [float(d) for d in deltaL_list]
    reports = tuple(photon_report(system, make_pulse(delta, d)) for d in values)
    pairs = []
    for i, d in enumerate(values):
        if d > 0 and -d in values:
            j = values.index(-d)
            pairs.append((d, abs(reports[i].W1 + reports[j].W1)))
    return DetuningScan(deltaL=np.array(values), reports=reports, antisymmetry=tuple(pairs))

"""Work and heat exchanged between a single-photon pulse and a TLS.

Quantum side: exact amplitude dynamics of a two-level emitter absorbing
and re-emitting a decaying-exponential one-photon pulse, with the energy
flow split into work (dynamic level shift) and generalized heat
(absorption and emission), all decompositions exact at quadrature level.
Semiclassical side: the same emitter under a coherent pulse of identical
envelope, via the optical Bloch equations and linear response.  A
discretized-continuum eigen-expansion provides brute-force ground truth.

The namespace is the library.  The batch front end (``photon-work`` or
``python -m photon_work.cli``), with ``RunConfig``, ``parse_config`` and
``run``, is ``photon_work.cli``, which ``import photon_work`` never loads.
"""

from .analysis import (
    DetuningScan,
    EquivalenceReport,
    RegimeFlags,
    compare_equivalences,
    detuning_scan,
)
from .dynamics import (
    AmplitudeTrajectory,
    closed_form_psi,
    closed_form_trajectory,
    full_cycle_grid,
    integrate_psi,
)
from .model import (
    PulseParams,
    SystemParams,
    TimeGrid,
    envelope_at,
    make_pulse,
    make_system,
    normalization,
    uniform_grid,
)
from .oracle import (
    GlobalState,
    ModeGrid,
    NormDriftError,
    OracleTrajectory,
    init_single_photon,
    make_mode_grid,
    propagate,
)
from .semiclassical import (
    BlochTrajectory,
    SemiclassicalReport,
    integrate_bloch,
    susceptibility,
    work_absorptive,
    work_reactive,
    work_total_and_decomposition,
)
from .thermo import (
    EffectiveTrajectory,
    ThermoReport,
    effective_trajectory,
    photon_report,
    thermo_report,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeTrajectory",
    "BlochTrajectory",
    "DetuningScan",
    "EffectiveTrajectory",
    "EquivalenceReport",
    "GlobalState",
    "ModeGrid",
    "NormDriftError",
    "OracleTrajectory",
    "PulseParams",
    "RegimeFlags",
    "SemiclassicalReport",
    "SystemParams",
    "ThermoReport",
    "TimeGrid",
    "closed_form_psi",
    "closed_form_trajectory",
    "compare_equivalences",
    "detuning_scan",
    "effective_trajectory",
    "envelope_at",
    "full_cycle_grid",
    "init_single_photon",
    "integrate_bloch",
    "integrate_psi",
    "make_mode_grid",
    "make_pulse",
    "make_system",
    "normalization",
    "photon_report",
    "propagate",
    "susceptibility",
    "thermo_report",
    "uniform_grid",
    "work_absorptive",
    "work_reactive",
    "work_total_and_decomposition",
]

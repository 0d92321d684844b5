"""Single-photon (or coherent) pulse envelope at the emitter.

The pulse is a truncated exponential: it reaches the emitter at t = 0 and
decays with bandwidth ``delta``.  Envelopes are evaluated in the frame
rotating at ``omega0``, which removes the only optical-frequency scale:
the pulse enters only through ``delta`` and its detuning ``deltaL``, and
amplitude ratios and populations are unchanged by the frame choice.
Like every pulse-driven function, these take ``(system, pulse, ...)``:
the system supplies ``rho0`` (normalization).
"""

from __future__ import annotations

import math

import numpy as np

from .model import PulseParams, SystemParams

__all__ = [
    "normalization",
    "envelope_at",
]


def normalization(system: SystemParams, pulse: PulseParams) -> float:
    """Peak amplitude ``N = sqrt(2 pi rho0 delta)`` of the envelope."""
    return math.sqrt(2.0 * math.pi * system.rho0 * pulse.delta)


def envelope_at(system: SystemParams, pulse: PulseParams, t):
    """Rotating-frame envelope value(s) at time(s) ``t``.

    Returns ``N * exp(-(delta/2 + i deltaL) t)`` for t >= 0 and 0 for
    t < 0.  At the t = 0 discontinuity the right limit ``N`` is used,
    matching the amplitude dynamics it drives.

    Parameters
    ----------
    system : SystemParams
    pulse : PulseParams
    t : float or array_like
        Time(s), finite.

    Returns
    -------
    complex or ndarray
        Complex amplitude(s); an array input returns an array.
    """
    tt = np.asarray(t, dtype=float)
    amp = normalization(system, pulse)
    decay = 0.5 * pulse.delta + 1j * pulse.deltaL
    out = np.where(tt >= 0.0, amp * np.exp(-decay * np.maximum(tt, 0.0)), 0.0 + 0.0j)
    if np.isscalar(t) or tt.ndim == 0:
        return complex(out)
    return out

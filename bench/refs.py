"""Reference values computed apart from the program under test.

Nothing here imports ``photon_work``.  Every value comes from the model's
defining equations, solved and integrated with scipy:

* Quantum side.  The amplitude obeys psi' = -(gamma0/2) psi - g phi with
  the pulse phi = N e^{-b t}, b = delta/2 + i deltaL, N = sqrt(2 pi rho0
  delta) and g = sqrt(gamma0 / (4 pi rho0)).  Its solution from psi(0) = 0
  is psi = g N (e^{-a t} - e^{-b t}) / (a - b) with a = gamma0/2, so that
  psi'(0) = -g N.  Work and heat are ``quad`` integrals of
  their definitions over [0, inf):

      W1     = int |psi|^2 d(omega_s)/dt        omega_s = omega0 + g Im(phi/psi)
      Q1     = int omega_s d|psi|^2/dt
      Q1_abs = int omega_s (-2 g Re(phi psi*))  (population gained from the pulse)
      Q1_em  = int omega_s (-gamma0 |psi|^2)    (population lost by emission)
      W1_int = int (1/2) d<H_int>/dt            <H_int> = 2 g Im(phi psi*)
      dU     = int d(omega0 |psi|^2 + <H_int>/2)/dt

* Drive side.  The Bloch pair under the coherent drive alpha = phi,
  integrated by ``solve_ivp`` (DOP853) with accumulators for the heat
  Q_alpha = -gamma0 int (omega0 rho_ee + <H_int>/2), the reactive work
  int <H_int> (-R'/R) and the absorptive work int omega_s^eg (-2 g Re(alpha
  rho_eg*)), where rho_eg = R e^{i theta} and omega_s^eg = omega0 -
  Im(rho_eg'/rho_eg).

Each value carries the slope of its integrand at t = 0.  The program
integrates on a uniform grid of step h, and a second-order rule is then
off by about (h^2/12) f'(0) (the leading Euler-Maclaurin term; f'(T) is
zero at the end of a full cycle).  The checks allow twice that.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import minimize_scalar

QUAD_EPSABS = 1e-15
QUAD_EPSREL = 1e-12
# Floor of every quadrature tolerance: relative to the value, and absolute
# in units of hbar gamma0.  The program sits about 100 times below it.
VALUE_RTOL = 1e-9
VALUE_ATOL = 1e-11
# Horizon, in e-folds of the slowest decay that still matters.
EFOLDS = 40.0


@dataclass(frozen=True)
class Model:
    """Emitter and pulse constants of one run, in units of gamma0."""

    gamma0: float
    omega0: float
    rho0: float
    delta: float
    deltaL: float

    @property
    def g(self) -> float:
        return math.sqrt(self.gamma0 / (4.0 * math.pi * self.rho0))

    @property
    def n_pulse(self) -> float:
        return math.sqrt(2.0 * math.pi * self.rho0 * self.delta)

    @property
    def a(self) -> float:
        return 0.5 * self.gamma0

    @property
    def b(self) -> complex:
        return complex(0.5 * self.delta, self.deltaL)


@dataclass(frozen=True)
class Value:
    """An exact value and the slope of its integrand at t = 0."""

    value: float
    slope0: float

    def tolerance(self, h: float) -> float:
        """Allowed deviation of a second-order quadrature with step ``h``."""
        return (h * h / 6.0) * abs(self.slope0) + VALUE_RTOL * abs(self.value) + VALUE_ATOL


def psi(m: Model, t):
    """Closed-form amplitude, scalar or array."""
    tt = np.asarray(t, dtype=float)
    k = m.g * m.n_pulse / (m.a - m.b)
    out = k * (np.exp(-m.a * tt) - np.exp(-m.b * tt))
    return complex(out) if tt.ndim == 0 else out


def phi(m: Model, t):
    tt = np.asarray(t, dtype=float)
    out = m.n_pulse * np.exp(-m.b * tt)
    return complex(out) if tt.ndim == 0 else out


def _state(m: Model, t: float):
    k = m.g * m.n_pulse / (m.a - m.b)
    ea = math.exp(-m.a * t)
    eb = cmath.exp(-m.b * t)
    ps = k * (ea - eb)
    ph = m.n_pulse * eb
    dps = -m.a * ps - m.g * ph
    return ps, ph, dps


def _quantum_integrands(m: Model):
    g = m.g
    w0 = m.omega0
    gam = m.gamma0

    def parts(t):
        ps, ph, dps = _state(m, t)
        dph = -m.b * ph
        pop = (ps * ps.conjugate()).real
        ratio = ph / ps
        omega_s = w0 + g * ratio.imag
        domega_s = g * ((dph * ps - ph * dps) / (ps * ps)).imag
        dpop = 2.0 * (dps * ps.conjugate()).real
        dhint = 2.0 * g * (dph * ps.conjugate() + ph * dps.conjugate()).imag
        absorbed = -2.0 * g * (ph * ps.conjugate()).real
        return {
            "W1": pop * domega_s,
            "Q1": omega_s * dpop,
            "Q1_abs": omega_s * absorbed,
            "Q1_em": omega_s * (-gam * pop),
            "W1_int": 0.5 * dhint,
            "W1_reac": pop * domega_s - 0.5 * dhint,
            "dU": w0 * dpop + 0.5 * dhint,
        }

    return parts


def _edges(m: Model) -> list:
    """Panels for ``quad``: fine ones while the two exponentials beat
    against each other, then geometric ones over the slow tail."""
    fast = m.a + m.b.real
    slow = min(m.a, m.b.real)
    t1 = EFOLDS / fast
    t2 = EFOLDS / slow
    beats = abs(m.deltaL) * t1 / (2.0 * math.pi)
    edges = list(np.linspace(0.0, t1, int(100 + 4 * beats) + 1))
    if t2 > t1:
        edges += list(np.geomspace(t1, t2, 41)[1:])
    return edges


def quantum_values(m: Model, names=None) -> dict:
    """Exact W1, Q1 and their parts for one pulse, as :class:`Value`."""
    parts = _quantum_integrands(m)
    names = names or ("W1", "Q1", "Q1_abs", "Q1_em", "W1_int", "W1_reac", "dU")
    edges = _edges(m)
    eps = 1e-6 / max(m.gamma0, m.delta, abs(m.deltaL))
    at_eps = parts(eps)
    out = {}
    for name in names:

        def f(t, name=name):
            return parts(t)[name]

        total = math.fsum(
            quad(f, lo, hi, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=200)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )
        out[name] = Value(total, at_eps[name] / eps)
    return out


def _maximum(fun, t_grid, values):
    k = int(np.argmax(values))
    lo = t_grid[max(k - 1, 0)]
    hi = t_grid[min(k + 1, len(t_grid) - 1)]
    res = minimize_scalar(
        lambda t: -fun(t), bounds=(lo, hi), method="bounded", options={"xatol": 1e-10}
    )
    t_star = float(res.x)
    e = 1e-2 * (hi - lo) if hi > lo else 1e-3
    curv = (fun(t_star + e) - 2.0 * fun(t_star) + fun(max(t_star - e, 0.0))) / (e * e)
    return -float(res.fun), abs(curv)


@dataclass(frozen=True)
class Peak:
    """Continuous maximum of a population and its curvature there."""

    value: float
    curvature: float

    def grid_bounds(self, h: float):
        """A grid of step h samples the maximum within h^2/8 |p''| below it."""
        slack = 1e-12 * self.value
        return self.value - (h * h / 8.0) * self.curvature - slack, self.value + slack


def quantum_peak(m: Model) -> Peak:
    t_end = EFOLDS / min(m.a, m.b.real)
    ts = np.linspace(0.0, t_end, 200001)
    pops = np.abs(psi(m, ts)) ** 2
    value, curv = _maximum(lambda t: abs(psi(m, t)) ** 2, ts, pops)
    return Peak(value, curv)


@dataclass(frozen=True)
class DriveReference:
    Q_alpha: Value
    W_reac: Value
    W_abs: Value
    peak: Peak


def drive_reference(m: Model) -> DriveReference:
    """Bloch pair under alpha = phi by DOP853, with energy accumulators."""
    g = m.g
    w0 = m.omega0
    gam = m.gamma0
    half = 0.5 * gam
    n_pulse = m.n_pulse
    b = m.b

    def rates(t, y):
        s = complex(y[0], y[1])
        rho = y[2]
        al = n_pulse * cmath.exp(-b * t)
        occ = 1.0 - 2.0 * rho
        ds = -half * s - g * al * occ
        u = al * s.conjugate()
        drho = -gam * rho - 2.0 * g * u.real
        hint = 2.0 * g * u.imag
        if s != 0:
            ratio = ds / s
            omega_s = w0 - ratio.imag
            reac = hint * -ratio.real
        else:
            # Both limits at s = 0: <H_int> vanishes faster than R'/R grows.
            omega_s = w0
            reac = 0.0
        return [
            ds.real,
            ds.imag,
            drho,
            -gam * (w0 * rho + 0.5 * hint),
            reac,
            omega_s * (-2.0 * g * u.real),
        ]

    t_end = EFOLDS / min(m.a, m.b.real)
    sol = solve_ivp(
        rates,
        (0.0, t_end),
        [0.0] * 6,
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    if not sol.success:
        raise RuntimeError(f"Bloch reference failed: {sol.message}")
    eps = 1e-3 / max(gam, m.delta, abs(m.deltaL))
    y_eps = sol.sol(eps)
    slopes = np.asarray(rates(eps, y_eps)[3:]) / eps
    q, reac, absorbed = sol.y[3:, -1]

    ts = np.linspace(0.0, EFOLDS / m.b.real, 200001)
    rho = sol.sol(ts)[2]
    value, curv = _maximum(lambda t: float(sol.sol(t)[2]), ts, rho)
    return DriveReference(
        Q_alpha=Value(float(q), float(slopes[0])),
        W_reac=Value(float(reac), float(slopes[1])),
        W_abs=Value(float(absorbed), float(slopes[2])),
        peak=Peak(value, curv),
    )

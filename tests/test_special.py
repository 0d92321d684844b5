"""The numpy-only digamma function against 40-digit mpmath values."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from photon_work.special import digamma, digamma_divided_difference

EPS = np.finfo(float).eps


def _psi_mp(z):
    with mpmath.workdps(40):
        return mpmath.digamma(mpmath.mpmathify(z))


def test_real_digamma_matches_forty_digits():
    # Both sides of the shift at 10, the positive zero 1.4616321449683623
    # and arguments up to 1e4, as the oracle's secular sum meets them.
    # The largest error, 3.5 ulps of max(1, |psi|), sits below x = 2, where
    # the ten shifts cancel against psi(x + 10).
    x = np.concatenate(
        [
            np.linspace(0.5, 12.0, 2301),
            [1.4616321449683623, np.nextafter(10.0, 0.0), 10.0],
            np.geomspace(12.0, 1e4, 400),
        ]
    )
    got = digamma(x)
    want = np.array([float(_psi_mp(float(v))) for v in x])
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert err.max() <= 6.0 * EPS, x[np.argmax(err)]


@pytest.mark.parametrize(
    "p,h,c",
    [
        (0.3 + 0j, 0.2 + 0j, 0.1 - 0.4j),
        (0.999 + 0j, 0.001 + 0j, 0.0005 + 0.2j),
        (2.0 - 1.0j, 1.5 + 0.5j, 1.5 - 0.5j),
        (50.0 + 0j, 1e-7 + 1e-7j, 1e-7 - 1e-7j),
        (0.03 + 0j, 0.97 + 0j, 0.485 + 1e4j),
    ],
)
def test_divided_difference_matches_forty_digits(p, h, c):
    # [psi((p + h)/c) - psi(p/c)] / h with both digamma values at 40
    # digits: ten shifts of the recurrence or none (the fourth case), and
    # near-cancelling digamma values (the second).
    got = digamma_divided_difference(p, h, c)
    with mpmath.workdps(40):
        pm, hm, cm = (mpmath.mpc(v) for v in (p, h, c))
        want = complex((_psi_mp((pm + hm) / cm) - _psi_mp(pm / cm)) / hm)
    assert abs(got - want) <= 4.0 * EPS * abs(want)


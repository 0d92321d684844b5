"""The digamma function in plain numpy and Python arithmetic.

Two forms serve the package: :func:`digamma` on real arrays (the oracle's
secular sum) and :func:`digamma_divided_difference` on complex scalars
(the photon ledger's ratio moment).  Both shift their arguments by the
recurrence psi(w + 1) = psi(w) + 1/w until |w| >= 10 and then sum one
asymptotic series,

    psi(w) ~ log w - 1/(2 w) - P(1/w^2),  P(y) = sum_{k=1..8} (B_2k / 2k) y^k,

whose next term is below 4e-18 of psi there.
"""

from __future__ import annotations

import numpy as np

__all__ = ["digamma", "digamma_divided_difference"]

# Bernoulli numbers B_2 .. B_16, and the coefficients B_2k / (2k) of the
# series polynomial P(y) = sum_k (B_2k / 2k) y^k, y = 1/w^2.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_SERIES = tuple(b / (2 * k) for k, b in enumerate(_BERNOULLI, start=1))
# |w| from which the series is summed instead of shifting further, and
# the real digamma's shifts, the smallest terms 1 / (x + k) first.
_ASYMPTOTIC_MIN = 10.0
_SHIFTS = np.arange(_ASYMPTOTIC_MIN - 1.0, -1.0, -1.0)
# Terms of atanh(y) / y in y^2, |y| <= 1/9: the next is below 1e-18.
_ATANH_TERMS = tuple(1.0 / (2 * k + 1) for k in range(9))


def digamma(x) -> np.ndarray:
    """psi(x) elementwise for real x >= 1/2, to a few ulps of
    max(1, |psi(x)|).  Only the entries below 10 are shifted, by ten
    steps of the recurrence each."""
    x = np.asarray(x, dtype=float)
    small = x < _ASYMPTOTIC_MIN
    xs = x[small]
    w = x
    if xs.size:
        w = x.copy()
        w[small] += _ASYMPTOTIC_MIN
    r = 1.0 / w
    y = r * r
    # 1/(2w) + P(y) by Horner's rule, in place.
    acc = _SERIES[-1] * y
    for c in _SERIES[-2::-1]:
        acc += c
        acc *= y
    acc += 0.5 * r
    out = np.log(w)
    out -= acc
    if xs.size:
        out[small] -= (1.0 / np.add.outer(xs, _SHIFTS)).sum(axis=1)
    return out


def digamma_divided_difference(p: complex, h: complex, c: complex) -> complex:
    """[psi((p + h)/c) - psi(p/c)] / h for p/c and (p + h)/c off the
    poles and |h| <= 2 |c|.

    The arguments are never formed as quotients: their difference is h/c
    exactly, so the result keeps its relative precision where the two
    digamma values nearly cancel.  Each shift adds c / (p (p + h)) with
    p -> p + c.  From |p| >= 10 |c| on, x = h/p obeys |x| <= 1/5 and

        [psi((p + h)/c) - psi(p/c)] / h = log1p(x) / (x p)
            + c / (p (p + h)) [1/2 + (u + v) P[v^2, u^2]]

    with u = c/p, v = c/(p + h) and P[., .] the divided difference of the
    series polynomial P.
    """
    acc = 0.0
    limit = _ASYMPTOTIC_MIN * abs(c)
    while abs(p) < limit:
        acc += c / (p * (p + h))
        p += c
    q = p + h
    u, v = c / p, c / q
    # The divided difference of the series polynomial P(y) between
    # y = v^2 and y = u^2 (synthetic division alongside Horner's rule),
    # times v + u = (v^2 - u^2) / (v - u).
    v2, u2 = v * v, u * u
    value, slope = 0.0, 0.0
    for coeff in _SERIES[::-1] + (0.0,):
        slope = slope * u2 + value
        value = value * v2 + coeff
    tail = 0.5 + (u + v) * slope
    # log1p(x) / x = (2 / (2 + x)) atanh(y) / y with y = x / (2 + x), a
    # series in y^2; a quotient log(1 + x) / x would cancel the small
    # imaginary part.
    x = h / p
    y = x / (2.0 + x)
    y2 = y * y
    series = 0.0
    for coeff in reversed(_ATANH_TERMS):
        series = series * y2 + coeff
    return acc + 2.0 * series / ((2.0 + x) * p) + c / (p * q) * tail

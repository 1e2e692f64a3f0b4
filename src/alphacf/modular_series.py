"""Divisor-power sums and partial sums of the boundary sine series.

The series of interest is F_k(x) = sum_n sigma_{k-1}(n) n^{-(k+1)} sin(2 pi n x)
for even k >= 2; its convergence is governed by the same denominator sums the
CF machinery produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import OutOfDomain
from .numkit import factorize


def divisor_sigma(n: int, e: int = 1) -> int:
    """sigma_e(n) = sum of d^e over divisors d of n, from n's factorization."""
    if n < 1:
        raise OutOfDomain("divisor sums need n >= 1")
    if e < 0:
        raise OutOfDomain("exponent must be >= 0")
    out = 1
    for p, a in factorize(n):
        out *= sum(p ** (e * i) for i in range(a + 1))
    return out


@dataclass
class FkPartial:
    """Partial sum of the sine series with its crude absolute tail bound."""

    value: float
    n_terms: int
    tail_bound: float


def _sin_2pi(t: Fraction) -> float:
    """sin(2 pi t) by exact phase reduction into the first quadrant.

    Lattice phases give exact 0/±1, and mirrored arguments reuse the same
    float evaluation, so sin identities like oddness hold exactly.
    """
    u = t * 2  # half-turns
    u -= 2 * (u.numerator // (2 * u.denominator))  # u in [0, 2)
    sign = 1.0
    if u > 1:
        sign, u = -1.0, 2 - u
    if u == 0:
        return 0.0
    if u == Fraction(1, 2):
        return sign
    if u > Fraction(1, 2):
        u = 1 - u
    return sign * math.sin(math.pi * float(u))


def fourier_Fk_partial(x, k: int = 2, N: int = 1000) -> FkPartial:
    """Partial sum to n = N of sigma_{k-1}(n) n^{-(k+1)} sin(2 pi n x).

    Rational x goes through exact phase reduction, so the lattice zeros
    (x = 0, 1/2, ...) come out exactly zero.  The reported tail bound is the
    crude sum of sigma_{k-1}(n)/n^{k+1} <= 2 n^{-3/2} past N.
    """
    if k < 2 or k % 2:
        raise OutOfDomain("the sine series is defined for even k >= 2")
    if N < 0:
        raise OutOfDomain("N must be >= 0")
    exact = isinstance(x, (int, Fraction))
    xf = None if exact else float(x)
    total = 0.0
    for n in range(1, N + 1):
        coeff = divisor_sigma(n, k - 1) / n ** (k + 1)
        if exact:
            s = _sin_2pi(Fraction(x) * n)
        else:
            s = math.sin(2.0 * math.pi * n * xf)
        total += coeff * s
    tail = 4.0 / math.sqrt(N) if N else float("inf")
    return FkPartial(value=total, n_terms=N, tail_bound=tail)

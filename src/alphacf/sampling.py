"""Deterministic random-input generators for audits and property suites."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .cf_core import Alpha, normalize
from .numkit import BallFloat, Surd, make_surd

_SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26]
# random_piecewise_linear's interior knots and value range
_BREAKS = 6
_SCALE = 4.0


def random_rational(rng: random.Random, max_den: int = 2 ** 64,
                    half: bool = False) -> Fraction:
    """Uniform-ish rational in (0, 1), or (0, 1/2) when half is set."""
    den = rng.randrange(3, max_den)
    num = rng.randrange(1, (den - 1) // 2 + 1 if half else den)
    return Fraction(num, den)


def random_surd(rng: random.Random, half: bool = False) -> Surd:
    """Quadratic surd normalized into (0, 1), optionally below 1/2."""
    while True:
        v = make_surd(rng.randrange(-40, 40), rng.randrange(1, 12),
                      rng.randrange(1, 40), rng.choice(_SQUAREFREE))
        if not isinstance(v, Surd):
            continue
        x, _ = normalize(v, Alpha.one())
        if not isinstance(x, Surd):
            continue
        if half and not (x < Fraction(1, 2)):
            continue
        return x


def random_dyadic_ball(rng: random.Random, bits: int = 256, prec: int = 288):
    """Random full-entropy dyadic in (0, 1) as a BallFloat."""
    return BallFloat(Fraction(rng.getrandbits(bits) | 1, 2 ** bits), prec=prec)


def random_piecewise_linear(rng: random.Random, a: float, b: float):
    """Vectorized piecewise-linear function on [a, b]: knots at a, b and
    _BREAKS uniform points, values uniform in [-_SCALE, _SCALE]."""
    xs = np.sort(np.array([a, b] + [rng.uniform(a, b)
                                    for _ in range(_BREAKS)]))
    ys = np.array([rng.uniform(-_SCALE, _SCALE) for _ in range(len(xs))])
    return lambda t: np.interp(np.asarray(t, dtype=float), xs, ys)

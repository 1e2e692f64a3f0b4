"""Reference oracles the tests check the package against.

``alpha_step`` steps the alpha-CF map on any value through its operators,
and ``apply_transfer`` applies the transfer operator (+/-) x^k f(1/x).  The
package computes neither: ``cf_core._walk`` steps exact states and ball
ends on ints, and nothing evaluates the transfer operator.  Their ``1 / x``
is ``recip``, as the package's values do not divide.
"""

import math
from fractions import Fraction
from typing import Callable

from mpmath import mp
from mpmath.libmp import mpf_mul, mpf_mul_int, mpf_pow_int, round_nearest

from alphacf.cf_core import Alpha, normalize
from alphacf.errors import DivisionByZero, OutOfDomain
from alphacf.numkit import (DEFAULT_PRECISION, BallFloat, ExactNumber, Surd,
                            make_surd, raw_mpf)


def recip(x):
    """1 / x, exactly: a Fraction natively, a Surd by its conjugate and a
    ball by its exact ends; a ball that contains 0 raises DivisionByZero."""
    if isinstance(x, Surd):
        a, b, c, d = x.a, x.b, x.c, x.d
        return make_surd(c * a, -c * b, a * a - b * b * d, d)
    if isinstance(x, BallFloat):
        lo, hi = x.ends
        if lo <= 0 <= hi:
            raise DivisionByZero("reciprocal of an interval containing zero")
        return BallFloat._raw(1 / hi, 1 / lo, x.prec)
    return 1 / x


def alpha_step(x: ExactNumber, alpha: Alpha):
    """One step of the alpha-CF map on x in (0, alpha].

    Returns (a, eps, x_next) with a = floor(1/x - alpha + 1),
    x_next = A_alpha(x) = |1/x - a| and eps the sign of 1/x - a.  The step
    uses only ``recip`` and the operators every value family speaks, so it
    is exact for Fraction and Surd, and a BallFloat raises
    AmbiguousComparison or AmbiguousFloor where its interval cannot decide a
    branch.  An exact hit 1/x = a terminates the expansion; its eps is
    recorded +1 (no successor digit exists to be signed) and x_next is an
    exact zero.  An int x is stepped as a Fraction, so its orbit stays exact.
    """
    if isinstance(x, int):
        x = Fraction(x)
    if x <= 0 or x > alpha.value:
        raise OutOfDomain("alpha_step requires 0 < x <= alpha")
    u = recip(x)
    a = math.floor(u - alpha.value + 1)
    w = u - a
    return (a, 1, w) if w >= 0 else (a, -1, -w)


def apply_transfer(f: Callable[[ExactNumber], object], k: int, alpha: Alpha,
                   x: ExactNumber, sign: int = 1,
                   prec: int = DEFAULT_PRECISION):
    """(+/-) x^k f(1/x), with 1/x reduced by Z-periodicity and evenness.

    f is any mpf-valued evaluator defined on (0, alpha]; the periodic/even
    completion is applied here, so f never sees a point outside its domain.
    """
    if sign not in (1, -1):
        raise OutOfDomain("sign must be +1 or -1")
    if x <= 0 or x >= alpha.value:
        raise OutOfDomain("apply_transfer requires 0 < x < alpha")
    t, _ = normalize(recip(x), alpha)
    # t may be an exact zero; evaluators that cannot take it raise SingularPoint
    xk = mpf_pow_int(raw_mpf(x, prec), k, prec, round_nearest)
    return mp.make_mpf(mpf_mul(mpf_mul_int(xk, sign, prec, round_nearest),
                               f(t)._mpf_, prec, round_nearest))

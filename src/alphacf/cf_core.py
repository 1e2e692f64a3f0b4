"""Alpha-continued-fraction engine.

The map A_alpha(x) = |1/x - floor(1/x - alpha + 1)| on (0, alpha] drives
everything: digit extraction, orbits and signed convergents.  The series
layer forms the beta products x_0 x_1 ... x_j from the orbit itself.
``alpha = 1`` is the regular (Gauss) continued fraction, ``alpha = 1/2`` the
nearest-integer one.  All state is immutable.  Fraction and Surd inputs are
stepped exactly on int states, (a + b*sqrt(d))/c as the ints (a, b, c) with
b = 0 for a rational, and stored as Fraction and Surd orbit points.
A BallFloat input is an interval with exact Fraction ends: both ends are
stepped exactly in lockstep, and the ball's orbit is the prefix on which
their digits agree, each point the interval between the ends' states.
``alpha_step``, which steps any value through its operators, is the
reference these exact steps are tested against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Optional, Union

from .errors import (
    ExpansionTooShort,
    OutOfDomain,
    PrecisionExhausted,
)
from .numkit import (GOLDEN, BallFloat, ExactNumber, Surd, _floor_lin,
                     _sign_lin, format_exact, parse_exact, to_mpf)

_HALF = Fraction(1, 2)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Alpha:
    """Continued-fraction parameter, an exact value in [1/2, 1]."""

    value: Union[Fraction, Surd]

    def __post_init__(self):
        v = self.value
        if isinstance(v, int):
            object.__setattr__(self, "value", Fraction(v))
            v = self.value
        if not isinstance(v, (Fraction, Surd)):
            raise OutOfDomain("alpha must be an exact rational or surd")
        if v < _HALF or v > _ONE:
            raise OutOfDomain(f"alpha = {format_exact(v)} outside [1/2, 1]")

    @classmethod
    def one(cls):
        return cls(_ONE)

    @classmethod
    def half(cls):
        return cls(_HALF)

    @classmethod
    def golden(cls):
        return cls(GOLDEN)

    @classmethod
    def parse(cls, text: str):
        v = parse_exact(text)
        if isinstance(v, BallFloat):
            raise OutOfDomain("alpha must be exact; give a rational or surd")
        return cls(v)

    def __float__(self):
        return float(self.value)

    def __str__(self):
        return format_exact(self.value)


def alpha_step(x: ExactNumber, alpha: Alpha):
    """One step of the alpha-CF map on x in (0, alpha].

    Returns (a, eps, x_next) with a = floor(1/x - alpha + 1),
    x_next = A_alpha(x) = |1/x - a| and eps the sign of 1/x - a.  The step
    uses only the operators every value family speaks, so it is exact for
    Fraction and Surd, and a BallFloat raises AmbiguousComparison or
    AmbiguousFloor where its interval cannot decide a branch.  An exact hit
    1/x = a terminates the expansion; its eps is recorded +1 (no successor
    digit exists to be signed) and x_next is an exact zero.  An int x is
    stepped as a Fraction, so its orbit stays exact.
    """
    if isinstance(x, int):
        x = Fraction(x)
    if x <= 0 or x > alpha.value:
        raise OutOfDomain("alpha_step requires 0 < x <= alpha")
    u = 1 / x
    a = math.floor(u - alpha.value + 1)
    w = u - a
    return (a, 1, w) if w >= 0 else (a, -1, -w)


@dataclass
class CFExpansion:
    """Digits and orbit of x under A_alpha, with termination/period flags.

    ``digits[i]`` is (a_{i+1}, eps_{i+1}); ``orbit[j]`` is x_j with
    orbit[0] = x. ``period = (preperiod, length)`` is detected only for Surd
    inputs, by exact repetition of canonical orbit states.  For periodic
    expansions digit/orbit access transparently cycles beyond the stored
    prefix.
    """

    x0: ExactNumber
    alpha: Alpha
    digits: list = field(default_factory=list)
    orbit: list = field(default_factory=list)
    terminated: bool = False
    period: Optional[tuple] = None
    # float orbit certified to fewer digits than asked (runtime-only flag,
    # not part of the JSON schema)
    exhausted: bool = False

    def depth(self, n: int) -> int:
        """How many of digits 1..n exist: n if periodic, else those stored."""
        return n if self.period is not None else min(n, len(self.digits))

    def _at(self, stored: list, i: int, what: str):
        """stored[i], or past the stored prefix the entry i cycles to."""
        if i < len(stored):
            return stored[i]
        if self.period is None:
            raise ExpansionTooShort(
                f"{i + 1} {what} needed, only {len(stored)} stored")
        pre, length = self.period
        return stored[pre + (i - pre) % length]

    def digit_at(self, j: int):
        """(a_j, eps_j) for 1-based j, cycling through the period if any."""
        if j < 1:
            raise IndexError("digit indices start at 1")
        return self._at(self.digits, j - 1, "digits")

    def orbit_at(self, j: int):
        """Exact orbit point x_j, cycling through the period if any."""
        if j < 0:
            raise IndexError("orbit indices start at 0")
        return self._at(self.orbit, j, "orbit points")

    def orbit_mpf(self, n: int, prec: int) -> list:
        """Orbit values x_0..x_n as mpf at working precision.

        Every stored orbit point is converted on its own, cycling through
        the period where one was detected.  Exact states are rounded once;
        float orbits are read from the certified ball orbit that ``expand``
        stored, each ball by its midpoint, so a value lies between its ball's
        ends up to one rounding.  A list shorter than n + 1 means the stored
        orbit ran out first.
        """
        if self.period is None:
            return [to_mpf(v, prec) for v in self.orbit[:n + 1]]
        m = min(n + 1, sum(self.period))  # the last stored point repeats x_pre
        vals = [to_mpf(v, prec) for v in self.orbit[:m]]
        return [self._at(vals, i, "orbit points") for i in range(n + 1)]

    def to_json(self) -> str:
        return json.dumps(
            {
                "x": format_exact(self.x0),
                "alpha": str(self.alpha),
                "digits": [[a, e] for a, e in self.digits],
                "terminated": self.terminated,
                "period": list(self.period) if self.period else None,
            },
            sort_keys=True,
        )


def _lin(v) -> tuple:
    """(a, b, c, d) with v = (a + b*sqrt(d))/c and c > 0; b = d = 0 if rational."""
    if isinstance(v, Surd):
        return v.a, v.b, v.c, v.d
    return v.numerator, 0, v.denominator, 0


def _walk(x, alpha: Alpha):
    """Yield (digit, x_next) along the orbit of an exact x, up to an exact hit.

    The state is (a + b*sqrt(d))/c with c > 0, and b = 0 if it is rational;
    alpha is (A + B*sqrt(d))/C.  By the conjugate 1/x = (U + V*sqrt(d))/W
    with W > 0, the digit is floor((UC + W(C - A) + (VC - WB)*sqrt(d))/(WC))
    and x_next = |1/x - digit|, whose sign is eps.  A surd state is reduced
    by one gcd to the canonical form make_surd gives; a rational one stays
    coprime, as gcd(U - digit*W, W) = gcd(c, a) = 1.
    """
    a, b, c, d = _lin(x)
    A, B, C, d_alpha = _lin(alpha.value)
    # a surd x and a surd alpha share d: expand's x > alpha check raised
    # MixedRadicalError otherwise
    d = d or d_alpha
    while a or b:
        if b:
            n = a * a - b * b * d
            U, V, W = (c * a, -c * b, n) if n > 0 else (-c * a, c * b, -n)
        else:
            U, V, W = c, 0, a
        k = _floor_lin(U * C + W * (C - A), V * C - W * B, W * C, d)
        r = U - k * W
        eps = 1 if _sign_lin(r, V, d) >= 0 else -1
        r, V = r * eps, V * eps
        if V:
            g = math.gcd(r, V, W)
            a, b, c = r // g, V // g, W // g
            yield (k, eps), Surd._raw(a, b, c, d)
        else:
            a, c = r, W
            yield (k, eps), Fraction(a, c)


def _expand_exact(x, alpha: Alpha, max_steps: int) -> CFExpansion:
    """At most max_steps digits of an exact x; a surd stops at a repeat."""
    e = CFExpansion(x0=x, alpha=alpha, orbit=[x])
    seen = {x: 0} if isinstance(x, Surd) else None
    for digit, y in islice(_walk(x, alpha), max_steps):
        e.digits.append(digit)
        e.orbit.append(y)
        if seen is not None:
            idx = seen.setdefault(y, len(e.digits))
            if idx < len(e.digits):
                e.period = (idx, len(e.digits) - idx)
                break
    e.terminated = not e.orbit[-1]
    return e


def _expand_ball(x: BallFloat, alpha: Alpha, max_steps: int) -> CFExpansion:
    """The certified prefix of a ball's orbit, its two ends walked in lockstep.

    On one (digit, eps) cylinder the map is a monotone Mobius map, so while
    both ends take the same digit every point between them does, and the
    image of the ball is the interval between the images of its ends.  The
    walk stops at the first digit the ends disagree on, and one digit
    before either end hits an exact zero: a float input is never certified
    rational, so a zero-width ball stops one digit before its exact hit.
    """
    e = CFExpansion(x0=x, alpha=alpha, orbit=[x])
    walks = zip(*(_walk(end, alpha) for end in set(x.ends)))
    for steps in islice(walks, max_steps):
        (digit, u), (other, v) = steps[0], steps[-1]
        if digit != other or not (u and v):
            break
        e.digits.append(digit)
        e.orbit.append(BallFloat._raw(*sorted((u, v)), x.prec))
    e.terminated = not x
    e.exhausted = not e.terminated and len(e.digits) < max_steps
    return e


def expand(x: ExactNumber, alpha: Alpha, max_steps: int,
           best_effort: bool = False) -> CFExpansion:
    """Expand x in [0, alpha] to at most max_steps digits.

    Rational inputs terminate at an exact zero; Surd inputs stop early when
    an orbit state repeats (period detected).  A BallFloat orbit keeps the
    digits both of its ends certify (see ``_expand_ball``); no precision is
    raised, as the ends are exact.  A prefix shorter than max_steps is
    returned with the ``exhausted`` flag when best_effort is set, else
    PrecisionExhausted is raised.
    """
    if max_steps < 0:
        raise OutOfDomain("max_steps must be >= 0")
    if x < 0 or x > alpha.value:
        raise OutOfDomain("expand requires 0 <= x <= alpha; apply normalize first")
    if not isinstance(x, BallFloat):
        return _expand_exact(x, alpha, max_steps)
    e = _expand_ball(x, alpha, max_steps)
    if e.exhausted and not best_effort:
        raise PrecisionExhausted(
            f"float orbit certified to {len(e.digits)} of {max_steps} digits "
            f"({x.prec}-bit input)")
    return e


@dataclass
class ConvergentSeq:
    """Signed-recurrence convergents p_j/q_j for j = -1..n.

    Seeds (p_-1, q_-1) = (1, 0), (p_0, q_0) = (0, 1) and eps_0 := +1, so a
    terminated expansion reproduces its rational exactly at the last index.
    """

    n: int
    p: list = field(default_factory=list)
    q: list = field(default_factory=list)

    def p_of(self, j: int) -> int:
        return self.p[j + 1]

    def q_of(self, j: int) -> int:
        return self.q[j + 1]


def convergents(e: CFExpansion, n: Optional[int] = None) -> ConvergentSeq:
    """Convergents up to index n (default: every stored digit)."""
    if n is None:
        n = len(e.digits)
    if e.depth(n) < n:
        raise ExpansionTooShort(f"{n} digits requested, {len(e.digits)} available")
    p = [1, 0]
    q = [0, 1]
    eps_prev = 1  # eps_0 := +1
    for j in range(1, n + 1):
        a, eps = e.digit_at(j)
        p.append(a * p[-1] + eps_prev * p[-2])
        q.append(a * q[-1] + eps_prev * q[-2])
        eps_prev = eps
    return ConvergentSeq(n=n, p=p, q=q)


def normalize(y: ExactNumber, alpha: Alpha):
    """Reduce y into [0, alpha] using Z-periodicity and evenness.

    Returns (x, reflected): x = y mod 1 when that lands in [0, alpha],
    otherwise 1 - (y mod 1) with the reflection flagged.
    """
    t = y - math.floor(y)
    if t <= alpha.value:
        return t, False
    return 1 - t, True

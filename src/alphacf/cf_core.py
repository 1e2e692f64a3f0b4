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
No value is divided: every 1/x is taken on an int state, by the conjugate.

Expansions are shared: ``expand`` keeps the last few (x, alpha, max_steps)
expansions, exact and ball alike, so callers that ask several questions of
one point walk its orbit once, and every caller must treat the returned
``CFExpansion`` as read-only.  A ball is known by its exact ends and its
precision, so equal balls built apart share one expansion.  An expansion
also keeps the tables its readers build from the orbit (see
``CFExpansion.kept``): the conversions of its stored points, and the
series layer those points with their logs, its running series passes and
the gap audit's float series and proxy terms.  A rational's finite
truncations read its alpha = 1 expansion and those tables too.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from typing import Optional, Union

from .errors import (
    ExpansionTooShort,
    OutOfDomain,
    PrecisionExhausted,
)
from .numkit import (GOLDEN, BallFloat, ExactNumber, Surd, _floor_lin,
                     _sign_lin, format_exact, parse_exact, raw_mpf)

_HALF = Fraction(1, 2)
_ONE = Fraction(1)
# expansions kept across calls; the questions asked of one point touch a
# handful of (x, alpha, max_steps) keys
_MEMO = 16


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


@dataclass
class CFExpansion:
    """Digits and orbit of x under A_alpha, with termination/period flags.

    ``digits[i]`` is (a_{i+1}, eps_{i+1}); ``orbit[j]`` is x_j with
    orbit[0] = x. ``period = (preperiod, length)`` is detected only for Surd
    inputs, by exact repetition of canonical orbit states.  For periodic
    expansions digit/orbit access transparently cycles beyond the stored
    prefix.

    An expansion may be shared between callers (see ``expand``), so it is
    read-only but for the tables ``kept`` holds in ``_tables``: ("mpf",
    prec), the raw ``point_mpf`` conversions of the stored points; ("log",
    prec), the raw pairs (x_i, log(1/x_i)) ``series_eval`` forms of them,
    both read by a series pass as they stand when it begins and run on
    once when it stops; ("run", k, start, prec), its running pass over
    x_start, x_start+1, .., each entry a term and two running totals,
    whose last entry on a rational's alpha = 1 expansion holds its finite
    truncations; and the gap audit's unsigned float terms, ("float", k),
    beta_{j-1}^k log(1/x_j), and ("proxy", k), log(q_{j+1})/q_j^k, for j =
    0, 1, ...
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
    _tables: dict = field(default_factory=dict, init=False, compare=False,
                          repr=False)

    def depth(self, n: int) -> int:
        """How many of digits 1..n exist: n if periodic, else those stored."""
        return n if self.period is not None else min(n, len(self.digits))

    def cycled(self, stored: list, start: int, stop: int) -> list:
        """stored[start:stop] of digits or orbit points, past the stored
        prefix cycling through the period, or ExpansionTooShort if none."""
        n = len(stored)
        if stop <= n:
            return stored[start:stop]
        if self.period is None:
            raise ExpansionTooShort(f"{stop} entries needed, only {n} stored")
        pre, length = self.period
        return [stored[i] if i < n else stored[pre + (i - pre) % length]
                for i in range(start, stop)]

    @property
    def points(self) -> int:
        """Stored orbit points; a periodic orbit's last is x_pre again."""
        return len(self.orbit) if self.period is None else sum(self.period)

    def orbit_at(self, j: int):
        """Exact orbit point x_j, cycling through the period if any."""
        if j < 0:
            raise IndexError("orbit indices start at 0")
        return self.cycled(self.orbit, j, j + 1)[0]

    def kept(self, key, n: int, more) -> list:
        """The table kept under key, first run on to n entries by
        more(table, n), the entries past table, if it is shorter.  The
        whole list is returned, so callers slice it.  A table is replaced,
        never extended in place, so a thread reading the old list sees it
        whole, and more continues the very list it extends."""
        table = self._tables.get(key, [])
        if len(table) < n:
            table = self._tables[key] = table + more(table, n)
        return table

    def orbit_mpf(self, n: int, prec: int) -> list:
        """Orbit values x_0..x_n as raw libmp mpfs at working precision.

        Every stored orbit point is converted on its own, cycling through
        the period where one was detected.  Exact states are rounded once;
        float orbits are read from the certified ball orbit that ``expand``
        stored, each ball by its midpoint, so a value lies between its ball's
        ends up to one rounding.  A list shorter than n + 1 means
        the stored orbit ran out first.  Each stored point is converted
        once per precision, by ``point_mpf``, once some reader reaches it.
        """
        m = min(n + 1, self.points)
        vals = self.kept(("mpf", prec), m, lambda table, stop: [
            self.point_mpf(i, prec) for i in range(len(table), stop)])
        return self.cycled(vals, 0, m if self.period is None else n + 1)

    def point_mpf(self, i: int, prec: int):
        """Stored point i as a raw mpf at prec: the ("mpf", prec) entry."""
        return raw_mpf(self.orbit[i], prec)

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
    by one gcd to the canonical form make_surd gives.  A rational one takes
    no gcd: it stays coprime, as gcd(U - digit*W, W) = gcd(c, a) = 1, and
    an exact hit has W = 1, so it is built reduced, the zero state as 0/1.
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
            y = object.__new__(Fraction)  # as _from_coprime_ints (3.12+)
            y._numerator, y._denominator = a, c
            yield (k, eps), y


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
    lo is walked first and hi second, once if they are equal.  A step with
    eps = +1 is x -> 1/x - a, which reverses order, and one with eps = -1
    is x -> a - 1/x, which keeps it, so lo's state is the lower end after
    an even number of eps = +1 steps and the upper end after an odd one.
    Only x's ends and precision are read, so balls equal in those have one
    expansion.
    """
    e = CFExpansion(x0=x, alpha=alpha, orbit=[x])
    lo, hi = x.ends
    walks = zip(_walk(lo, alpha), _walk(hi, alpha)) if lo != hi else (
        (step, step) for step in _walk(lo, alpha))
    flipped = False
    for (digit, u), (other, v) in islice(walks, max_steps):
        if digit != other or not (u and v):
            break
        flipped ^= digit[1] > 0
        e.digits.append(digit)
        e.orbit.append(BallFloat._raw(v, u, x.prec) if flipped
                       else BallFloat._raw(u, v, x.prec))
    e.terminated = not x
    e.exhausted = not e.terminated and len(e.digits) < max_steps
    return e


@lru_cache(maxsize=_MEMO, typed=True)
def _expansion(key, alpha: Alpha, max_steps: int) -> CFExpansion:
    """The expansion ``expand`` returns, memoised on (key, alpha, max_steps).

    key is an exact x itself, typed, so 0 and Fraction(0) stay apart, or a
    ball's (lo, hi, prec): a ball compares by identity and normalize builds
    a new one on every call, so a ball is keyed on the exact ends it is
    walked from, and its expansion starts from a ball rebuilt from them.  A
    hit is the expansion a fresh walk would build.
    """
    if isinstance(key, tuple):
        return _expand_ball(BallFloat._raw(*key), alpha, max_steps)
    return _expand_exact(key, alpha, max_steps)


def expand(x: ExactNumber, alpha: Alpha, max_steps: int,
           best_effort: bool = False) -> CFExpansion:
    """Expand x in [0, alpha] to at most max_steps digits.

    Rational inputs terminate at an exact zero; Surd inputs stop early when
    an orbit state repeats (period detected).  A BallFloat orbit keeps the
    digits both of its ends certify (see ``_expand_ball``); no precision is
    raised, as the ends are exact.  An expansion is shared with every
    caller that asks for the same (x, alpha, max_steps) while it stays
    among the last few asked for, so it must not be modified; a ball is the
    same x as another with equal ends and precision.  A prefix shorter than
    max_steps is returned with the ``exhausted`` flag when best_effort is
    set, else PrecisionExhausted is raised.
    """
    if max_steps < 0:
        raise OutOfDomain("max_steps must be >= 0")
    if x < 0 or x > alpha.value:
        raise OutOfDomain("expand requires 0 <= x <= alpha; apply normalize first")
    key = (*x.ends, x.prec) if isinstance(x, BallFloat) else x
    e = _expansion(key, alpha, max_steps)
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

    def q_of(self, j: int) -> int:
        return self.q[j + 1]


def convergents(e: CFExpansion, n: Optional[int] = None) -> ConvergentSeq:
    """Convergents up to index n (default: every stored digit), by the
    signed recurrence over digits 1..n, cycling through a period if any."""
    if n is None:
        n = len(e.digits)
    if e.depth(n) < n:
        raise ExpansionTooShort(f"{n} digits requested, {len(e.digits)} available")
    p, q, eps_prev = [1, 0], [0, 1], 1  # eps_0 := +1
    for a, eps in e.cycled(e.digits, 0, n):
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

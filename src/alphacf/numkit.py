"""Exact and precision-tracked number kernels.

Three interchangeable value families are the input currency of the whole
package:

* ``fractions.Fraction`` -- exact rationals,
* ``Surd``               -- quadratic irrationals (a + b*sqrt(d))/c,
* ``BallFloat``          -- certified enclosures: a closed interval with two
                            exact Fraction ends, plus the precision in bits
                            its inputs are rounded to.

Every value is immutable and every operation is pure, so values can be
shared freely between concurrent workers.  Ball arithmetic and decisions
are exact on the Fraction ends, and every conversion to an mpf
(``raw_mpf``, which ``to_mpf`` boxes) passes its
precision to ``mpmath.libmp`` explicitly and never reads or sets mpmath's
global precision, so all of them give the same bits in threads as
serially.  A conversion rounds to nearest, and once: a rational, and so
a ball's midpoint, from its exact quotient, and a surd from one exact
floor of its value scaled past prec + 1 bits.
Mixed arithmetic, order (``<``, ``<=``, ``>``, ``>=``), ``math.floor``
and truth work through the usual operator protocol, as for ``Fraction``: a
surd compared with a ball defers to the ball, whose order is certified or
raises ``AmbiguousComparison``.  Surds and balls do not divide, as
``expand`` takes every 1/x on int states.  Balls do only what ``normalize``
asks of them: ``+``, ``-``, negation, order, ``math.floor`` and truth.
Surds with different radicands are rejected rather than approximated.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import floor, gcd, isqrt
from typing import Union

from mpmath import mp
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    from_float,
    from_int,
    from_str,
    normalize1,
    round_ceiling,
    round_floor,
    round_nearest,
    to_float,
    to_rational,
    to_str,
)

from .errors import (
    AmbiguousComparison,
    AmbiguousFloor,
    DivisionByZero,
    MixedRadicalError,
)

DEFAULT_PRECISION = 256

_RND = round_nearest  # every mpf conversion rounds to nearest


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] of n >= 1, by trial division."""
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def _squarefree_split(n: int) -> tuple[int, int]:
    """Write n >= 1 as s**2 * f with f squarefree; return (s, f)."""
    s, f = 1, 1
    for p, e in factorize(n):
        s *= p ** (e // 2)
        f *= p ** (e % 2)
    return s, f


def _sign_lin(A: int, B: int, d: int) -> int:
    """Exact sign of A + B*sqrt(d) for integers A, B and squarefree d > 1.

    d is not read when B = 0.
    """
    if B == 0:
        return (A > 0) - (A < 0)
    if A == 0:
        return 1 if B > 0 else -1
    if A > 0 and B > 0:
        return 1
    if A < 0 and B < 0:
        return -1
    t = A * A - B * B * d
    if A > 0:  # B < 0: positive iff A^2 > B^2 d
        return (t > 0) - (t < 0)
    # A < 0, B > 0: positive iff B^2 d > A^2
    return (t < 0) - (t > 0)


def _floor_lin(N: int, M: int, D: int, d: int) -> int:
    """Exact floor((N + M*sqrt(d))/D) for integers, D > 0 and squarefree d > 1.

    M*sqrt(d) is irrational unless M = 0, so floor(N + M*sqrt(d)) is N plus
    isqrt(M^2 d) for M > 0 and N - isqrt(M^2 d) - 1 for M < 0; and
    floor(t/D) = floor(floor(t)/D) for any real t.  d is not read when M = 0.
    """
    if M > 0:
        return (N + isqrt(M * M * d)) // D
    if M < 0:
        return (N - isqrt(M * M * d) - 1) // D
    return N // D


def make_surd(a: int, b: int, c: int, d: int):
    """Canonical (a + b*sqrt(d))/c, degrading to Fraction when it is rational.

    The square part of d is folded into b (sqrt(8) = 2*sqrt(2)); the only
    place a radicand is split, as surd arithmetic keeps its squarefree d.
    """
    if c == 0:
        raise DivisionByZero("surd denominator c = 0")
    if d < 0:
        raise ValueError("negative radicand not supported")
    s, d = _squarefree_split(d) if d > 0 else (0, 1)
    b *= s
    if d == 1:
        a, b = a + b, 0
    return _canon(a, b, c, d)


def _canon(a: int, b: int, c: int, d: int):
    """(a + b*sqrt(d))/c, d > 1 squarefree: c > 0 and gcd 1, or a Fraction."""
    if b == 0:
        return Fraction(a, c)
    if c < 0:
        a, b, c = -a, -b, -c
    g = gcd(a, b, c)
    if g > 1:
        a, b, c = a // g, b // g, c // g
    return Surd._raw(a, b, c, d)


class _Ordered:
    """``<``, ``<=``, ``>``, ``>=`` from a three-way ``_cmp`` (-1, 0 or +1).

    ``_cmp`` returns NotImplemented for a type it cannot order against, so
    Python tries the other operand's reflected operator.
    """

    __slots__ = ()

    def __lt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c >= 0


class Surd(_Ordered):
    """Quadratic irrational (a + b*sqrt(d))/c in canonical form.

    Canonical means: d > 1 squarefree, b != 0, c > 0, gcd(a, b, c) = 1.
    Build one with :func:`make_surd`.  Surds add (a surd on the left of
    ``+``), subtract, negate, take ``abs``, order and floor: what
    ``normalize`` and the ladder audit use.  Each result keeps d and is
    canonical, or a plain Fraction when the irrational part cancels.  Surds
    do not divide: ``expand`` steps surd orbits on the ints themselves,
    through ``_floor_lin`` and ``_sign_lin``.
    """

    __slots__ = ("a", "b", "c", "d")

    @classmethod
    def _raw(cls, a, b, c, d):
        self = object.__new__(cls)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        return self

    def __setattr__(self, *_):
        raise AttributeError("Surd is immutable")

    # -- helpers ----------------------------------------------------------

    def _coerce(self, other):
        """Return (p, q, r) with other = (p + q*sqrt(d))/r, or None."""
        if isinstance(other, Surd):
            if other.d != self.d:
                raise MixedRadicalError(
                    f"sqrt({self.d}) and sqrt({other.d}) do not mix"
                )
            return other.a, other.b, other.c
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __floor__(self) -> int:
        return _floor_lin(self.a, self.b, self.c, self.d)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        po = self._coerce(other)
        if po is None:
            return NotImplemented
        p, q, r = po
        return _canon(self.a * r + p * self.c, self.b * r + q * self.c,
                      self.c * r, self.d)

    def __neg__(self):
        return Surd._raw(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        po = self._coerce(other)
        if po is None:
            return NotImplemented
        p, q, r = po
        return _canon(self.a * r - p * self.c, self.b * r - q * self.c,
                      self.c * r, self.d)

    def __rsub__(self, other):
        return (-self) + other

    def __abs__(self):
        return self if _sign_lin(self.a, self.b, self.d) > 0 else -self

    # -- comparisons -------------------------------------------------------

    def _cmp(self, other):
        po = self._coerce(other)
        if po is None:
            return NotImplemented  # a ball orders itself against a surd
        p, q, r = po
        # sign of self - other; both denominators are positive
        return _sign_lin(self.a * r - p * self.c, self.b * r - q * self.c,
                         self.d)

    def __eq__(self, other):
        if isinstance(other, Surd):
            return (self.a == other.a and self.b == other.b
                    and self.c == other.c and self.d == other.d)
        if isinstance(other, (int, Fraction)):
            return False  # a canonical surd is irrational
        return NotImplemented

    def __hash__(self):
        return hash(("Surd", self.a, self.b, self.c, self.d))

    def __float__(self):
        return to_float(raw_mpf(self, 53), rnd=_RND)

    def __repr__(self):
        return f"Surd({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        return format_exact(self)


GOLDEN = make_surd(-1, 1, 2, 5)  # (sqrt(5) - 1)/2


class BallFloat(_Ordered):
    """A real number known to lie in a closed interval with exact ends.

    ``ends`` is the pair (lo, hi) of Fraction endpoints, and ``prec`` the
    precision in bits the constructor rounds its input to.  A decimal
    string is rounded to the nearest float of prec bits, a zero-width ball;
    any other value is rounded outward, so a constructed ball has dyadic
    ends.  ``+``, ``-`` and negation are exact on the ends, after a surd
    operand is rounded outward at prec; a ball does not divide, as
    ``expand`` steps its ends on ints.  The decisions are exact and
    sound: ``<`` needs disjoint intervals (a surd is compared exactly),
    ``math.floor`` an interval inside one integer cell, and only the exact
    zero is false.  ``==`` is identity.  ``float`` and ``repr`` read the
    midpoint, as ``raw_mpf`` rounds it at prec.
    """

    __slots__ = ("ends", "prec")

    def __init__(self, value, prec: int = DEFAULT_PRECISION):
        if isinstance(value, str):
            # decimal text is parsed AT the requested precision
            value = mp.make_mpf(from_str(value, prec, _RND))
        x = _ends(value, prec)
        if x is NotImplemented:
            raise TypeError(f"cannot make a BallFloat from {type(value).__name__}")
        object.__setattr__(self, "ends", (_dyadic(x[0], prec, round_floor),
                                          _dyadic(x[1], prec, round_ceiling)))
        object.__setattr__(self, "prec", prec)

    @classmethod
    def _raw(cls, lo: Fraction, hi: Fraction, prec: int) -> "BallFloat":
        """The ball [lo, hi], lo <= hi, with its ends kept as given."""
        self = object.__new__(cls)
        object.__setattr__(self, "ends", (lo, hi))
        object.__setattr__(self, "prec", prec)
        return self

    def __setattr__(self, *_):
        raise AttributeError("BallFloat is immutable")

    def __float__(self):
        return float(to_mpf(self, self.prec))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        y = _ends(other, self.prec)
        if y is NotImplemented:
            return NotImplemented
        lo, hi = self.ends
        return BallFloat._raw(lo + y[0], hi + y[1], self.prec)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other  # a surd's bracket is symmetric under negation

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        lo, hi = self.ends
        return BallFloat._raw(-hi, -lo, self.prec)

    # -- decisions ---------------------------------------------------------

    def __floor__(self) -> int:
        lo, hi = self.ends
        n = floor(lo)
        if n != floor(hi):
            raise AmbiguousFloor(
                f"interval [{float(lo):.15g}, {float(hi):.15g}]"
                " straddles an integer")
        return n

    def _cmp(self, other):
        """-1, 0 or +1 for disjoint intervals or one and the same exact point."""
        if isinstance(other, Surd):
            a = b = other
        else:
            y = _ends(other, self.prec)
            if y is NotImplemented:
                return NotImplemented
            a, b = y
        lo, hi = self.ends
        if hi < a:
            return -1
        if b < lo:
            return 1
        if lo == hi == a == b:
            return 0
        raise AmbiguousComparison("overlapping intervals")

    def __bool__(self):
        return self.ends != (0, 0)

    def __repr__(self):
        half = _mpf((self.ends[1] - self.ends[0]) / 2, 10, round_ceiling)
        return (f"BallFloat({to_str(raw_mpf(self, self.prec), 20)} "
                f"+/- {to_str(half, 3)}, prec={self.prec})")


def ratio_mpf(p: int, q: int, prec: int, rnd=_RND):
    """p/q, q > 0, as a raw mpf rounded once in direction rnd at prec.

    The ints are taken as given, unnormalised: one divmod gives at least
    prec + 1 quotient bits, a remainder sets a sticky bit below them, and
    normalize1 rounds that odd mantissa as it rounds the exact quotient,
    so the bits are those of libmp's ``from_rational``.
    """
    extra = max(prec + q.bit_length() - p.bit_length() + 1, 0)
    quot, rem = divmod(abs(p) << extra, q)
    if rem:
        quot, extra = quot << 1 | 1, extra + 1
    return normalize1(1 if p < 0 else 0, quot, -extra, quot.bit_length(),
                      prec, rnd)


def _mpf(q: Fraction, prec: int, rnd):
    """The rational q as a raw mpf rounded in direction rnd at prec."""
    return ratio_mpf(q.numerator, q.denominator, prec, rnd)


def _dyadic(q: Fraction, prec: int, rnd) -> Fraction:
    """q rounded in direction rnd to a dyadic rational of prec bits."""
    return Fraction(*to_rational(_mpf(q, prec, rnd)))


def _ends(v, prec: int):
    """Exact Fraction ends (lo, hi) of an interval around v, or NotImplemented.

    A ball gives its own ends and a rational, float or mpf itself twice; a
    surd is rounded outward to prec bits.  NaN and infinities are refused.
    """
    if isinstance(v, BallFloat):
        return v.ends
    if isinstance(v, (int, Fraction)):
        return v, v
    if isinstance(v, Surd):
        return _surd_ends(v, prec)
    if isinstance(v, float):
        v = from_float(v)
    elif hasattr(v, "_mpf_"):
        v = v._mpf_
    else:
        return NotImplemented
    if v in (finf, fninf, fnan):
        raise ValueError("a ball needs a finite value")
    v = Fraction(*to_rational(v))
    return v, v


def _surd_floor(v: Surd, prec: int) -> tuple[int, int]:
    """(m, s) with m = floor(v 2^s) and |m| >= 2^(prec + 1).

    |a^2 - b^2 d| >= 1, so |v| >= 1/(2c max(|a|, |b| sqrt d)), and s bits
    past the binary point hold at least prec + 2 significant bits of v.
    """
    s = prec + v.c.bit_length() + 2 + max(v.a.bit_length(),
                                          v.b.bit_length() + v.d.bit_length())
    return _floor_lin(v.a << s, v.b << s, v.c, v.d), s


def _surd_ends(v: Surd, prec: int):
    """Dyadic ends of prec bits around the irrational v, from one exact floor."""
    m, s = _surd_floor(v, prec)
    return (_dyadic(Fraction(m, 1 << s), prec, round_floor),
            _dyadic(Fraction(m + 1, 1 << s), prec, round_ceiling))


ExactNumber = Union[Fraction, Surd, BallFloat]


def raw_mpf(v: ExactNumber, prec: int):
    """Numeric value of v as a raw libmp mpf rounded to nearest at prec.

    A rational is its exact quotient rounded once by ``ratio_mpf``, and a
    ball's value is its exact midpoint rounded so, from the ends'
    cross-multiplied sum over 2 lo.d hi.d: the quotient is rounded
    exactly, so the fraction need not be reduced, and the big ints are
    divided as they are, never normalised first.  A surd is rounded once
    from m | 1, m = floor(v 2^s) of ``_surd_floor``: v 2^s is irrational,
    so m | 1 is v 2^s rounded to odd with prec + 2 bits or more, which
    rounds to nearest as v does (Boldo and Melquiond, rounding to odd).
    """
    if isinstance(v, Fraction):
        return _mpf(v, prec, _RND)
    if isinstance(v, int):
        return from_int(v, prec, _RND)
    if isinstance(v, Surd):
        m, s = _surd_floor(v, prec)
        man = abs(m | 1)
        return normalize1(1 if m < 0 else 0, man, -s, man.bit_length(), prec,
                          _RND)
    if isinstance(v, BallFloat):
        lo, hi = v.ends
        return ratio_mpf(lo.numerator * hi.denominator
                         + hi.numerator * lo.denominator,
                         2 * lo.denominator * hi.denominator, prec)
    raise TypeError(f"not an ExactNumber: {type(v).__name__}")


def to_mpf(v: ExactNumber, prec: int = DEFAULT_PRECISION):
    """Numeric value of v as an mpf rounded at prec (``raw_mpf`` boxed)."""
    return mp.make_mpf(raw_mpf(v, prec))


# ---------------------------------------------------------------------------
# Text round-trip
# ---------------------------------------------------------------------------

_SURD_RE = re.compile(
    r"^\(\s*(?P<a>[+-]?\d+)\s*(?P<sgn>[+-])\s*(?P<b>\d+)\s*\*\s*"
    r"sqrt\(\s*(?P<d>\d+)\s*\)\s*\)\s*/\s*(?P<c>[+-]?\d+)$"
)
_RAT_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$")  # no zero denominator
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def parse_exact(text: str, prec: int = DEFAULT_PRECISION) -> ExactNumber:
    """Parse "p/q", "(a+b*sqrt(d))/c", or a decimal string.

    Decimal strings become BallFloat values at the requested precision;
    rationals and surds parse exactly and round-trip through format_exact.
    """
    s = text.strip().replace("−", "-")  # unicode minus
    m = _SURD_RE.match(s)
    if m:
        b = int(m.group("b"))
        if m.group("sgn") == "-":
            b = -b
        return make_surd(int(m.group("a")), b, int(m.group("c")),
                         int(m.group("d")))
    if _RAT_RE.match(s):
        return Fraction(s)
    if _FLOAT_RE.match(s):
        return BallFloat(s, prec=prec)
    raise ValueError(f"unparseable number: {text!r}")


def format_exact(v: ExactNumber) -> str:
    """Exact round-trip text for Fraction/Surd; decimal rendering for balls."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return f"{v}/1"
    if isinstance(v, Surd):
        sgn = "+" if v.b >= 0 else "-"
        return f"({v.a}{sgn}{abs(v.b)}*sqrt({v.d}))/{v.c}"
    if isinstance(v, BallFloat):
        return to_str(raw_mpf(v, v.prec), int(v.prec / 3.32) + 2)
    raise TypeError(f"not an ExactNumber: {type(v).__name__}")

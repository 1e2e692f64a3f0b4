"""Exact and precision-tracked number kernels.

Three interchangeable value families are the input currency of the whole
package:

* ``fractions.Fraction`` -- exact rationals,
* ``Surd``               -- quadratic irrationals (a + b*sqrt(d))/c,
* ``BallFloat``          -- arbitrary-precision floats carrying a certified
                            error radius: a raw libmp interval (two mpf
                            tuples, rounded outward) plus its own precision.

Every value is immutable and every operation is pure, so values can be
shared freely between concurrent workers.  Ball arithmetic and decisions,
and every conversion to an mpf (``raw_mpf``, which ``to_mpf`` boxes, and
a ball's ``value`` and ``radius`` views), pass their precision to
``mpmath.libmp`` explicitly and never read or set mpmath's global
precision, so they give the same bits in threads as serially.  A
conversion rounds to nearest with the raw calls mpmath's mpf operators
make, so it gives the bits mp-context arithmetic gives at that precision.
Mixed arithmetic, order (``<``, ``<=``, ``>``, ``>=``), ``math.floor``,
``1 / x`` and truth work through the usual operator protocol, as for
``Fraction``: a surd compared with a ball defers to the ball, whose order is
certified or raises ``AmbiguousComparison``.  Balls do only what the
alpha-CF step asks of them: ``+``, ``-``, negation, ``1 / x``, order,
``math.floor`` and truth.  Surds with different radicands are rejected
rather than approximated.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Union

from mpmath import mp
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    fnone,
    fone,
    from_float,
    from_int,
    from_str,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_pos,
    mpf_shift,
    mpf_sign,
    mpf_sqrt,
    mpf_sub,
    mpi_abs,
    mpi_add,
    mpi_div,
    mpi_from_str,
    mpi_mul,
    mpi_neg,
    mpi_sqrt,
    mpi_sub,
    round_ceiling,
    round_floor,
    round_nearest,
    to_int,
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
    ``+``), subtract, negate, take ``abs``, order, floor and divide a
    rational (``1 / x``): what ``alpha_step``, ``normalize`` and the ladder
    audit use.  Each result keeps d and is canonical, or a plain Fraction
    when the irrational part cancels.  ``expand`` steps surd orbits on the
    ints themselves, through ``_floor_lin`` and ``_sign_lin``.
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

    def __rtruediv__(self, other):
        # (p/r) c/(a + b*sqrt(d)), rationalized by the conjugate.
        po = self._coerce(other)  # never a surd: Surd / Surd is a TypeError
        if po is None:
            return NotImplemented
        p, _, r = po
        den = (self.a * self.a - self.b * self.b * self.d) * r
        return _canon(p * self.c * self.a, -p * self.c * self.b, den, self.d)

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
        return float(to_mpf(self, 96))

    def __repr__(self):
        return f"Surd({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        return format_exact(self)


GOLDEN = make_surd(-1, 1, 2, 5)  # (sqrt(5) - 1)/2


class BallFloat(_Ordered):
    """Arbitrary-precision float with a certified, outward-rounded error radius.

    Stored as a raw libmp interval ``_x = (lo, hi)`` of two mpf tuples plus
    the working precision ``prec``.  Every operation calls
    ``mpmath.libmp.libmpi`` with that precision passed explicitly, so ball
    arithmetic and decisions touch no global precision state.  ``value`` is
    the midpoint and ``radius`` half the width.  The operations are ``+``,
    ``-``, negation and ``1 / x``, which all round outward, so a zero-width
    result is exact, and the decisions order, ``math.floor`` and truth,
    which are sound: ``<`` needs disjoint intervals, ``math.floor`` an
    interval inside one integer cell, and only the exact zero is false.
    ``==`` is identity.
    """

    __slots__ = ("_x", "prec")

    def __init__(self, value=0, radius=0, prec: int = DEFAULT_PRECISION):
        if isinstance(value, str):
            # decimal text is parsed AT the requested precision: the value is
            # the nearest representable float, radius 0; radii then track
            # arithmetic error only (exact inputs go through Fraction/Surd).
            value = mp.make_mpf(from_str(value, prec, _RND))
        x = _interval_of(value, prec)
        if x is NotImplemented:
            raise TypeError(f"cannot make a BallFloat from {type(value).__name__}")
        if radius:
            r = mpi_abs(_interval_of(radius, prec), prec)
            x = mpi_add(x, mpi_mul(_UNIT_IV, r, prec), prec)
        object.__setattr__(self, "_x", x)
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, *_):
        raise AttributeError("BallFloat is immutable")

    # -- interval views ----------------------------------------------------
    # endpoints as plain mpf rounded at own precision + 4 (exact whenever
    # they fit in prec bits, as every arithmetic result does).

    @property
    def lower(self):
        return mp.make_mpf(self._end(0))

    @property
    def upper(self):
        return mp.make_mpf(self._end(1))

    def _end(self, i: int):
        return mpf_pos(self._x[i], self.prec + 4, _RND)

    def _mid(self, prec: int):
        """(lower + upper)/2 rounded to nearest at prec, as a raw mpf."""
        s = mpf_add(self._end(0), self._end(1), prec, _RND)
        return mpf_div(s, from_int(2), prec, _RND)

    def _radius(self):
        p = self.prec
        lo = self._end(0)
        r = mpf_div(mpf_sub(self._end(1), lo, p, _RND), from_int(2), p, _RND)
        # one ulp of slack: the midpoint itself was rounded
        scale = mpf_abs(lo, p, _RND)
        if mpf_gt(fone, scale):
            scale = fone
        return mpf_add(r, mpf_mul(mpf_shift(fone, -p), scale, p, _RND), p, _RND)

    @property
    def value(self):
        return mp.make_mpf(self._mid(self.prec))

    @property
    def radius(self):
        return mp.make_mpf(self._radius())

    def with_prec(self, prec: int) -> "BallFloat":
        """Same interval, different working precision (endpoints are exact)."""
        return _ball(self._x, prec)

    def __float__(self):
        return float(self.value)

    # -- arithmetic --------------------------------------------------------

    def _binop(self, other, f, reflected=False):
        y = _interval_of(other, self.prec)
        if y is NotImplemented:
            return NotImplemented
        x = f(y, self._x, self.prec) if reflected else f(self._x, y, self.prec)
        return _ball(x, self.prec)

    def __add__(self, other):
        return self._binop(other, mpi_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, mpi_sub)

    def __rsub__(self, other):
        return self._binop(other, mpi_sub, reflected=True)

    def __rtruediv__(self, other):
        if other.__class__ is not int or other != 1:
            return NotImplemented  # the alpha-CF step divides nothing else
        lo, hi = self._x
        if mpf_sign(lo) <= 0 <= mpf_sign(hi):
            raise DivisionByZero("reciprocal of an interval containing zero")
        return _ball(mpi_div(_ONE_IV, self._x, self.prec), self.prec)

    def __neg__(self):
        return _ball(mpi_neg(self._x, self.prec), self.prec)

    # -- decisions ---------------------------------------------------------

    def __floor__(self) -> int:
        lo, hi = self._x
        n = int(to_int(lo, round_floor))  # gmpy2 backend hands out mpz
        if n != to_int(hi, round_floor):
            raise AmbiguousFloor(
                f"interval [{to_str(lo, _MSG_DIGITS)}, {to_str(hi, _MSG_DIGITS)}]"
                " straddles an integer"
            )
        return n

    def _cmp(self, other):
        """-1, 0 or +1 for disjoint intervals or one and the same exact point."""
        lo, hi = self._x
        if other.__class__ is int and other == 0:  # the sign: no interval built
            if mpf_sign(lo) > 0:
                return 1
            if mpf_sign(hi) < 0:
                return -1
            wa = wb = fzero
        else:
            y = _interval_of(other, self.prec)
            if y is NotImplemented:
                return NotImplemented
            wa, wb = y
            if mpf_lt(hi, wa):
                return -1
            if mpf_lt(wb, lo):
                return 1
        if lo == hi == wa == wb:
            return 0
        raise AmbiguousComparison("overlapping intervals")

    def __bool__(self):
        return self._x != _ZERO_IV

    def __repr__(self):
        return (f"BallFloat({to_str(self._mid(self.prec), 20)}, "
                f"radius={to_str(self._radius(), 3)}, prec={self.prec})")


_ZERO_IV = (fzero, fzero)
_ONE_IV = (fone, fone)
_UNIT_IV = (fnone, fone)  # [-1, 1]
_MSG_DIGITS = 15  # endpoint digits in messages, as str(mpf) at 53 bits


def _ball(x, prec) -> BallFloat:
    """Wrap a libmp interval without conversion."""
    b = object.__new__(BallFloat)
    object.__setattr__(b, "_x", x)
    object.__setattr__(b, "prec", prec)
    return b


def _int_interval(n: int, prec: int):
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


@lru_cache(maxsize=256)
def _int_sqrt(d: int, prec: int):
    """sqrt(d) rounded to nearest at prec; memoised, as radicands recur."""
    return mpf_sqrt(from_int(d), prec, _RND)


@lru_cache(maxsize=256)
def _exact_interval(v, prec: int):
    """Enclosure of a Fraction or Surd; memoised, as alpha recurs every step."""
    if isinstance(v, Fraction):
        # two int intervals divided, not one from_rational rounding: big
        # ints round before the division, and orbits depend on it bit for bit
        return mpi_div(_int_interval(v.numerator, prec),
                       _int_interval(v.denominator, prec), prec)
    root = mpi_sqrt(_int_interval(v.d, prec), prec)
    num = mpi_add(_int_interval(v.a, prec),
                  mpi_mul(_int_interval(v.b, prec), root, prec), prec)
    return mpi_div(num, _int_interval(v.c, prec), prec)


def _interval_of(v, prec: int):
    """Outward-rounded libmp interval enclosing v at prec, or NotImplemented.

    Conversions round exactly as mpmath's ``iv`` context does at
    ``iv.prec = prec``, so results are bit-identical to it.
    """
    if isinstance(v, BallFloat):
        return v._x
    if isinstance(v, int):
        return _int_interval(v, prec)
    if isinstance(v, (Fraction, Surd)):
        return _exact_interval(v, prec)
    if isinstance(v, str):
        return mpi_from_str(v, prec)
    if isinstance(v, float):
        a, b = from_float(v, prec, round_floor), from_float(v, prec, round_ceiling)
    elif hasattr(v, "_mpf_"):
        a = b = v._mpf_
    else:
        return NotImplemented
    if a == fnan or b == fnan:
        return fninf, finf
    return a, b


ExactNumber = Union[Fraction, Surd, BallFloat]


def raw_mpf(v: ExactNumber, prec: int):
    """Numeric value of v as a raw libmp mpf rounded to nearest at prec."""
    if isinstance(v, Fraction):
        wp = prec + 8
        r = mpf_div(from_int(v.numerator, wp, _RND),
                    from_int(v.denominator, wp, _RND), wp, _RND)
        return mpf_pos(r, prec, _RND)
    if isinstance(v, int):
        return from_int(v, prec, _RND)
    if isinstance(v, Surd):
        wp = prec + max(v.a.bit_length(), v.b.bit_length(),
                        v.c.bit_length(), 16) + 32
        r = mpf_add(mpf_mul_int(_int_sqrt(v.d, wp), v.b, wp, _RND),
                    from_int(v.a), wp, _RND)
        r = mpf_div(r, from_int(v.c), wp, _RND)
        return mpf_pos(r, prec, _RND)
    if isinstance(v, BallFloat):
        return v._mid(prec)
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
_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
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
        return to_str(v._mid(v.prec), int(v.prec / 3.32) + 2)
    raise TypeError(f"not an ExactNumber: {type(v).__name__}")

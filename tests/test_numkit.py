import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, mp
from mpmath.libmp import (from_float, from_rational, round_ceiling,
                          round_down, round_floor, round_nearest, round_up,
                          to_rational)

from alphacf import numkit as nk
from alphacf.cf_core import Alpha
from alphacf.errors import (
    AmbiguousComparison,
    AmbiguousFloor,
    DivisionByZero,
    MixedRadicalError,
)
from alphacf.modular_series import divisor_sigma
from alphacf.sampling import random_surd
from oracles import recip

G = nk.GOLDEN

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=10**6
)
wide_surds = st.builds(
    nk.make_surd,
    st.integers(-2 ** 80, 2 ** 80),
    st.integers(-2 ** 40, 2 ** 40).filter(bool),
    st.integers(1, 2 ** 60),
    st.integers(2, 10 ** 6),
).filter(lambda v: isinstance(v, nk.Surd))
surd_parts = st.tuples(
    st.integers(-60, 60),
    st.integers(-20, 20).filter(lambda b: b != 0),
    st.integers(1, 40),
    st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
)


def _wide(value, rad, prec=256):
    """The ball of value at prec, each end moved out by rad."""
    lo, hi = nk.BallFloat(value, prec=prec).ends
    return nk.BallFloat._raw(lo - rad, hi + rad, prec)


def test_floor_examples():
    assert math.floor(Fraction(7, 2)) == 3
    assert math.floor(G) == 0
    phi = nk.make_surd(1, 1, 2, 5)
    assert math.floor(phi) == 1


def test_reciprocal_examples():
    # 1 / x of a surd or a ball is the test oracle's; the values do not divide
    assert recip(Fraction(2, 5)) == Fraction(5, 2)
    assert recip(G) == nk.make_surd(1, 1, 2, 5)
    with pytest.raises(DivisionByZero):
        recip(_wide(0, Fraction(1, 10 ** 40)))
    # Fraction's own error; DivisionByZero subclasses it
    with pytest.raises(ZeroDivisionError):
        recip(Fraction(0))
    for v in (G, nk.BallFloat("0.3")):
        with pytest.raises(TypeError):
            1 / v


def test_compare_examples():
    assert Fraction(2, 5) < Fraction(1, 2)
    assert G > Fraction(3, 5)
    assert Fraction(1, 3) == Fraction(1, 3)


def test_surd_divides_nothing():
    # the oracle inverts by the conjugate: 1/((3/2) g) = (2/3)(1 + g) and
    # 1/(-g/4) = -4(1 + g)
    assert recip(nk.make_surd(-3, 3, 4, 5)) == nk.make_surd(1, 1, 3, 5)
    assert recip(nk.make_surd(1, -1, 8, 5)) == nk.make_surd(-2, -2, 1, 5)
    for op in (lambda: Fraction(2, 3) / G, lambda: -4 / G, lambda: 0 / G,
               lambda: 1 / G, lambda: G / G, lambda: G / 2):
        with pytest.raises(TypeError):
            op()


@settings(max_examples=200, deadline=None)
@given(rationals)
def test_reciprocal_involution_rational(q):
    if q != 0:
        assert 1 / (1 / q) == q


@settings(max_examples=200, deadline=None)
@given(surd_parts)
def test_surd_reciprocal_involution(parts):
    a, b, c, d = parts
    v = nk.make_surd(a, b, c, d)
    if isinstance(v, nk.Surd):
        assert recip(recip(v)) == v


@settings(max_examples=200, deadline=None)
@given(surd_parts)
def test_canonicalization_idempotent(parts):
    a, b, c, d = parts
    v = nk.make_surd(a, b, c, d)
    if isinstance(v, nk.Surd):
        again = nk.make_surd(v.a, v.b, v.c, v.d)
        assert again == v
        assert v.c > 0 and v.d > 1 and v.b != 0


@settings(max_examples=100, deadline=None)
@given(surd_parts, surd_parts)
def test_surd_arithmetic_closed_same_d(p1, p2):
    a1, b1, c1, _ = p1
    a2, b2, c2, d = p2
    u = nk.make_surd(a1, b1, c1, d)
    v = nk.make_surd(a2, b2, c2, d)
    for w in (u + v, u - v):
        if isinstance(w, nk.Surd):
            assert w.d == d if isinstance(u, nk.Surd) or isinstance(v, nk.Surd) else True
            assert nk.make_surd(w.a, w.b, w.c, w.d) == w
    if isinstance(u, nk.Surd):
        assert isinstance(recip(u), nk.Surd)


def test_floor_matches_integer_division_bulk():
    rng = random.Random(20260810)
    for _ in range(10_000):
        q = rng.randrange(1, 10**6)
        p = rng.randrange(-10**7, 10**7)
        assert math.floor(Fraction(p, q)) == p // q


@settings(max_examples=150, deadline=None)
@given(surd_parts)
def test_surd_floor_against_highprec_float(parts):
    a, b, c, d = parts
    v = nk.make_surd(a, b, c, d)
    if isinstance(v, nk.Surd):
        with mp.workprec(120):
            approx = mp.floor(nk.to_mpf(v, 100))
        assert math.floor(v) == int(approx)


@settings(max_examples=150, deadline=None)
@given(surd_parts, rationals)
def test_surd_rational_order_consistent(parts, q):
    a, b, c, d = parts
    v = nk.make_surd(a, b, c, d)
    gap = float(v) - float(q)
    if abs(gap) > 1e-9:
        assert (v > q, v < q, q < v, q > v) == ((gap > 0, gap < 0) * 2)


def test_surd_has_no_public_constructor():
    with pytest.raises(TypeError):
        nk.Surd(1, 2, 3, 5)
    assert nk.GOLDEN == nk.make_surd(-1, 1, 2, 5)


def test_factorization_users_match_brute_force():
    # divisor sums by a sieve over d, square parts by the largest s with
    # s^2 | n; both read numkit.factorize
    top = 5000
    sigma = [[0] * (top + 1) for _ in range(4)]
    for d in range(1, top + 1):
        for m in range(d, top + 1, d):
            for e in range(4):
                sigma[e][m] += d ** e
    for n in range(1, top + 1):
        s = max(s for s in range(1, math.isqrt(n) + 1) if n % (s * s) == 0)
        assert nk._squarefree_split(n) == (s, n // (s * s))
        for e in range(4):
            assert divisor_sigma(n, e) == sigma[e][n]


def test_mixed_radicals_rejected():
    u = nk.make_surd(0, 1, 1, 2)
    v = nk.make_surd(0, 1, 1, 3)
    with pytest.raises(MixedRadicalError):
        _ = u + v
    with pytest.raises(MixedRadicalError):
        _ = u < v
    assert (u == v) is False


def test_surd_degrades_to_fraction():
    assert nk.make_surd(3, 0, 2, 5) == Fraction(3, 2)
    assert nk.make_surd(1, 2, 3, 4) == Fraction(5, 3)  # sqrt(4) folds in
    assert nk.make_surd(3, -1, 2, 5) + G == 1  # g^2 + g = 1 exactly


def test_ball_floor_and_ambiguity():
    assert math.floor(nk.BallFloat("1.39")) == 1
    near3 = _wide(3, Fraction(1, 10 ** 30))
    with pytest.raises(AmbiguousFloor):
        math.floor(near3)
    assert math.floor(nk.BallFloat(3)) == 3  # exact integer, zero width
    # exact dyadic balls of both signs, from 2^-300 to 2^300 in scale
    rng = random.Random(31)
    prec = 256
    values = [Fraction(n) for n in range(-3, 4)]
    while len(values) < 2400:
        man = rng.getrandbits(rng.randint(1, prec)) * rng.choice((1, -1))
        values.append(man * Fraction(2) ** rng.randint(-300, 300))
    for v in values:
        ball = nk.BallFloat(v, prec=prec)
        assert ball.ends == (v, v)  # the dyadic fits: zero width
        assert math.floor(ball) == math.floor(v)


def test_ball_comparison_soundness():
    a = nk.BallFloat("0.5")
    b = nk.BallFloat("0.5")
    assert a <= b <= a and not a < b and b is not a and a != b  # == is identity
    with pytest.raises(AmbiguousComparison):
        _ = _wide("0.5", Fraction(1, 10 ** 60)) < a
    assert nk.BallFloat("0.25") < a


def test_ball_radius_grows_outward():
    assert recip(nk.BallFloat(3)).ends == (Fraction(1, 3), Fraction(1, 3))
    r = Fraction(1, 10 ** 30)
    x = recip(_wide(3, r))
    assert x.ends == (1 / (3 + r), 1 / (3 - r))
    # the ends are exact, so 1/(1/x) is x again
    assert recip(x).ends == (3 - r, 3 + r)


def test_ball_does_not_multiply_divide_or_take_abs():
    ball = nk.BallFloat("0.3")
    for op in (lambda: ball * 2, lambda: 2 * ball, lambda: ball / 3,
               lambda: 2 / ball, lambda: Fraction(1, 2) / ball,
               lambda: abs(ball)):
        with pytest.raises(TypeError):
            op()


def test_parse_format_roundtrip():
    for text in ["2/5", "-7/3", "(-1+1*sqrt(5))/2", "(3-2*sqrt(7))/5"]:
        v = nk.parse_exact(text)
        assert nk.parse_exact(nk.format_exact(v)) == v
    b = nk.parse_exact("1.39")
    assert isinstance(b, nk.BallFloat)
    v = nk.parse_exact("−7/3")  # unicode minus
    assert v == Fraction(-7, 3)
    with pytest.raises(ValueError):
        nk.parse_exact("(0+1*sqrt(5))/2-oops")


def test_parse_refuses_a_zero_denominator():
    # a ValueError, as for any unparseable text, not Fraction's
    # ZeroDivisionError
    for text in ("1/0", "-3/00"):
        with pytest.raises(ValueError, match="unparseable"):
            nk.parse_exact(text)
    assert nk.parse_exact("3/007") == Fraction(3, 7)


def test_golden_identities():
    assert recip(G) == G + 1  # a surd adds on the left only
    assert 1 - G == nk.make_surd(3, -1, 2, 5)  # g^2
    assert G > Fraction(1, 2)
    assert G < Fraction(2, 3)


def test_compare_surd_against_ball():
    ball = nk.BallFloat("0.618", prec=192)
    assert G > ball and G >= ball and not G < ball and not G <= ball
    assert ball < G and ball <= G and not ball > G and not ball >= G
    near = nk.BallFloat(G, prec=192)  # enclosure of g itself
    with pytest.raises(AmbiguousComparison):
        _ = near < G
    with pytest.raises(AmbiguousComparison):
        _ = G < near  # the surd defers to the ball


def test_ball_sign_against_zero():
    straddle = _wide(0, Fraction(1, 10 ** 40))
    for op in (lambda: 0 < straddle, lambda: straddle > 0,
               lambda: straddle <= 0, lambda: 0 >= straddle):
        with pytest.raises(AmbiguousComparison):
            op()
    assert nk.BallFloat("1e-70") > 0 and 0 > nk.BallFloat("-1e-70")
    zero = nk.BallFloat(0)
    assert zero <= 0 <= zero and not zero < 0


def test_ball_truth_is_exact_nonzero():
    assert not nk.BallFloat(0)
    assert not nk.BallFloat(1) - 1
    assert _wide(0, Fraction(1, 10 ** 40))  # holds zero but is not exactly 0
    assert nk.BallFloat("1e-70") and nk.BallFloat(-3)


@pytest.mark.parametrize("prec", [64, 256, 2048])
def test_ball_negation_is_exact(prec):
    for x in [nk.BallFloat(Fraction(1, 3), prec=prec),
              _wide(G, Fraction(1, 2**40), prec=prec),
              nk.BallFloat("-2.71828", prec=prec)]:
        y = -x
        assert y.prec == prec
        assert y.ends == (-x.ends[1], -x.ends[0])
    lo, hi = (-nk.BallFloat(Fraction(1, 3), prec=256)).ends
    assert lo < Fraction(-1, 3) < hi and hi - lo < Fraction(1, 2 ** 250)


# -- BallFloat against exact Fractions and mpmath.iv --------------------------
# Ball arithmetic is exact on the ends, after a surd operand is rounded
# outward to its tightest prec-bit bracket; the iv context at iv.prec = prec,
# which rounds each operation outward, must enclose every result.

def _iv_of(v):
    if isinstance(v, nk.BallFloat):
        (a, b), c = v.ends, iv.prec  # rounded outward at iv.prec
        return iv.mpf([mp.make_mpf(from_rational(a.numerator, a.denominator,
                                                 c, round_floor)),
                       mp.make_mpf(from_rational(b.numerator, b.denominator,
                                                 c, round_ceiling))])
    if isinstance(v, Fraction):
        return iv.mpf(v.numerator) / iv.mpf(v.denominator)
    if isinstance(v, nk.Surd):
        return (iv.mpf(v.a) + iv.mpf(v.b) * iv.sqrt(iv.mpf(v.d))) / iv.mpf(v.c)
    return iv.mpf(v)


def _exact_ends(v, prec):
    """Ends a ball operation uses for v: a surd's prec-bit outward bracket."""
    if isinstance(v, nk.BallFloat):
        return v.ends
    if isinstance(v, nk.Surd):
        lo, hi = nk.BallFloat(v, prec=prec).ends
        assert lo < v < hi and hi - lo <= abs(lo) / 2 ** (prec - 1)
        for q in (lo, hi):  # dyadics of at most prec significant bits
            n = abs(q.numerator)
            assert q.denominator & (q.denominator - 1) == 0
            assert (n // (n & -n)).bit_length() <= prec
        return lo, hi
    return Fraction(v), Fraction(v)


def _random_ball(rng, prec):
    mid = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
    rad = rng.choice([0, Fraction(1, 2 ** rng.randint(prec // 2, prec + 8))])
    ball = _wide(mid, rad, prec)
    lo, hi = ball.ends  # rounded outward on both sides
    assert lo <= mid - rad and mid + rad <= hi
    assert hi - lo <= 2 * rad + (abs(mid) + rad) / 2 ** (prec - 2)
    return ball


def _contains(box, ball):
    a, b = box._mpi_
    lo, hi = ball.ends
    return Fraction(*to_rational(a)) <= lo and hi <= Fraction(*to_rational(b))


@pytest.mark.parametrize("prec", [64, 256, 2048])
def test_ball_arithmetic_matches_iv_oracle(prec):
    rng = random.Random(prec)
    surd = nk.make_surd(3, 1, 19, 11)
    old = iv.prec
    try:
        iv.prec = prec
        for _ in range(25):
            x = _random_ball(rng, prec)
            others = [rng.randint(-50, 50) or 7,
                      Fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6)),
                      G, surd, _random_ball(rng, prec)]
            for y in others:
                got = [x + y, y + x, x - y, y - x, recip(x), -x]
                (xa, xb), (ya, yb) = x.ends, _exact_ends(y, prec)
                want = [(xa + ya, xb + yb), (xa + ya, xb + yb),
                        (xa - yb, xb - ya), (ya - xb, yb - xa),
                        (1 / xb, 1 / xa), (-xb, -xa)]
                X, Y = _iv_of(x), _iv_of(y)
                boxes = [X + Y, X + Y, X - Y, Y - X, 1 / X, -X]
                for g, w, box in zip(got, want, boxes):
                    assert g.prec == prec
                    assert g.ends == w
                    assert _contains(box, g)
    finally:
        iv.prec = old


def test_ball_refuses_non_finite_values():
    # Fraction ends cannot hold NaN or an infinity, and a ball around one
    # would certify nothing
    for v in (float("nan"), float("inf"), -float("inf"), mp.nan, mp.inf,
              -mp.inf, "nan", "-inf"):
        with pytest.raises(ValueError):
            nk.BallFloat(v)
    with pytest.raises(ValueError):
        _ = nk.BallFloat("0.5") + float("nan")


def _ratio_int(rng) -> int:
    """An int of 1..1500 bits: random bits, or a power of two, shifted."""
    bits = rng.randint(1, 1500)
    if rng.random() < 0.2:
        return 1 << (bits - 1)
    n = rng.getrandbits(bits) | 1 << (bits - 1)
    return n << rng.randint(0, 64) if rng.random() < 0.2 else n


def test_ratio_mpf_is_from_rational_bit_for_bit():
    # the ints divided as given, one sticky bit for a remainder, against
    # libmp's from_int normalisations and mpf_div, in every rounding mode
    rng = random.Random(30)
    modes = (round_nearest, round_floor, round_ceiling, round_down, round_up)
    cases = [(0, 3, 53, round_nearest), (1, 1, 1, round_floor),
             (-(1 << 1499), 1 << 700, 1, round_up)]
    for _ in range(20000):
        p = _ratio_int(rng) * rng.choice((1, -1))
        cases.append((p, _ratio_int(rng), rng.randint(1, 800),
                      rng.choice(modes)))
    for p, q, prec, rnd in cases:
        got = nk.ratio_mpf(p, q, prec, rnd)
        assert got == from_rational(p, q, prec, rnd), (p, q, prec, rnd)
        assert type(got[0]) is int
    assert {p < 0 for p, *_ in cases} == {True, False}


@pytest.mark.parametrize("prec", [64, 256, 1000])
def test_raw_mpf_rounds_a_fraction_once(prec):
    # the correctly rounded quotient, for rationals and so for a ball's
    # midpoint: rounding at prec + 8 and then at prec moves about 1 in 500
    rng = random.Random(prec)
    for _ in range(5000):
        fr = Fraction(rng.getrandbits(64), rng.getrandbits(64) | 1)
        want = from_rational(fr.numerator, fr.denominator, prec,
                             round_nearest)
        assert nk.raw_mpf(fr, prec) == want
        assert nk.raw_mpf(nk.BallFloat._raw(fr, fr, prec), prec) == want


def _sign_minus(v, q: Fraction) -> int:
    """Exact sign of the surd v minus the rational q."""
    return nk._sign_lin(v.a * q.denominator - q.numerator * v.c,
                        v.b * q.denominator, v.d)


def _assert_nearest(v, r, prec):
    """The raw mpf r is the surd v rounded to nearest at prec: |v| lies
    within half a gap of |r| on each side, decided exactly on ints."""
    sign, man, exp, bc = r
    assert man & 1 and bc <= prec and bool(sign) == (v < 0)
    w = -v if sign else v
    t = Fraction(man) * Fraction(2) ** exp
    up = Fraction(2) ** (exp + bc - prec)  # the gap above |r|
    down = up / 2 if man == 1 else up  # below a power of 2 it halves
    assert _sign_minus(w, t - down / 2) > 0 > _sign_minus(w, t + up / 2)


def _pell_surds():
    """(x - y sqrt d)/c and its negation with x^2 - d y^2 = +-1, about
    1/(2xc): its two parts cancel in about 2 bits(x) bits."""
    out = []
    for d, x1, y1 in ((2, 1, 1), (3, 2, 1), (5, 2, 1), (13, 18, 5),
                      (61, 29718, 3805)):
        x, y = x1, y1
        for _ in range(40):
            assert abs(x * x - d * y * y) == 1
            for c in (1, 3, 2 ** 61 - 1):
                out += [nk.make_surd(x, -y, c, d), nk.make_surd(-x, y, c, d)]
            x, y = x * x1 + d * y * y1, x * y1 + y * x1
    return out


@settings(max_examples=400, deadline=None)
@given(wide_surds, st.integers(1, 1000))
def test_raw_mpf_rounds_a_surd_to_nearest(v, prec):
    _assert_nearest(v, nk.raw_mpf(v, prec), prec)


def test_raw_mpf_rounds_near_cancelling_surds_to_nearest():
    # one exact floor, however far a + b sqrt(d) cancels: a conversion
    # formed at a fixed number of guard bits loses them from x ~ 2^24 on
    rng = random.Random(35)
    surds = _pell_surds()
    assert {v < 0 for v in surds} == {True, False}
    for v in surds:
        for prec in (1, 2, 53, rng.randint(3, 1000), 1000):
            _assert_nearest(v, nk.raw_mpf(v, prec), prec)


def test_surd_float_is_the_nearest_double():
    # float rounds once, at 53 bits
    rng = random.Random(36)
    surds = [random_surd(rng) for _ in range(300)] + _pell_surds()[::7]
    surds += [-v for v in surds[:300]]
    for v in surds:
        _assert_nearest(v, from_float(float(v)), 53)
    assert float(Alpha.golden()) == float(G) == 0.6180339887498949

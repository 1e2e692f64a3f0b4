import json
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, mp
from mpmath.libmp import from_rational, round_ceiling, round_floor, to_rational

from alphacf import cf_core
from alphacf import numkit as nk
from alphacf.cf_core import (
    Alpha,
    convergents,
    expand,
    normalize,
)
from alphacf.errors import (ExpansionTooShort, MixedRadicalError, OutOfDomain,
                            PrecisionExhausted)
from alphacf.sampling import random_dyadic_ball, random_rational, random_surd
from oracles import alpha_step

G = nk.GOLDEN

unit_fractions = st.fractions(min_value=Fraction(1, 10**6), max_value=1,
                              max_denominator=10**6)


def _parts(v):
    """(a, b, c) with v = (a + b*sqrt(d))/c."""
    if isinstance(v, nk.Surd):
        return v.a, v.b, v.c
    v = Fraction(v)
    return v.numerator, 0, v.denominator


def _times(u, v):
    """Exact product of two values of one field Q(sqrt(d)).

    Surd has no multiplication of its own: the alpha-CF step never needs it.
    """
    d = next((w.d for w in (u, v) if isinstance(w, nk.Surd)), 2)
    (a, b, c), (p, q, r) = _parts(u), _parts(v)
    return nk.make_surd(a * p + b * q * d, a * q + b * p, c * r, d)


def _orbit_products(e, n):
    """[1, x_0, x_0 x_1, ..., x_0 ... x_n] from the stored orbit."""
    prods = [Fraction(1)]
    for j in range(n + 1):
        prods.append(_times(prods[-1], e.orbit_at(j)))
    return prods


def _convergent_gap(c, x, j):
    """|q_j x - p_j|, exactly."""
    return abs(_times(c.q_of(j), x) - c.p[j + 1])


def test_alpha_validation():
    Alpha(Fraction(1, 2))
    Alpha(Fraction(1))
    Alpha.golden()
    with pytest.raises(OutOfDomain):
        Alpha(Fraction(2, 5))
    with pytest.raises(OutOfDomain):
        Alpha(Fraction(11, 10))


def test_alpha_step_examples():
    assert alpha_step(Fraction(2, 5), Alpha.half()) == (3, -1, Fraction(1, 2))
    assert alpha_step(Fraction(2, 5), Alpha.one()) == (2, 1, Fraction(1, 2))
    a, eps, nxt = alpha_step(Fraction(1, 3), Alpha.one())
    assert (a, eps) == (3, 1) and nxt == 0
    with pytest.raises(OutOfDomain):
        alpha_step(Fraction(3, 5), Alpha.half())
    with pytest.raises(OutOfDomain):
        alpha_step(Fraction(0), Alpha.one())


def test_integer_is_stepped_as_fraction():
    assert alpha_step(1, Alpha.one()) == (1, 1, Fraction(0))
    e = expand(1, Alpha.one(), 5)
    assert e.orbit == [1, Fraction(0)] and isinstance(e.orbit[1], Fraction)
    assert e.terminated and e.digits == [(1, 1)]
    assert [nk.format_exact(v) for v in e.orbit] == ["1/1", "0/1"]
    assert [mp.make_mpf(v) for v in e.orbit_mpf(1, 64)] == [1, 0]


def test_branch_boundary_convention():
    # x = 1/(k+alpha) exactly belongs to the next branch: digit k+1, eps -1.
    alpha = Alpha(Fraction(3, 5))
    x = Fraction(5, 13)  # 1/(2 + 3/5)
    a, eps, nxt = alpha_step(x, alpha)
    assert (a, eps) == (3, -1)
    assert nxt == Fraction(2, 5)  # 1 - alpha adjusted: 3 - 13/5 = 2/5


def test_expand_examples():
    e = expand(G, Alpha.one(), 80)
    assert e.digits[0] == (1, 1)
    assert e.period == (0, 1)
    assert e.cycled(e.digits, 56, 57) == [(1, 1)]

    e = expand(Fraction(2, 5), Alpha.half(), 80)
    assert e.digits == [(3, -1), (2, 1)] and e.terminated

    e = expand(Fraction(5, 13), Alpha.half(), 80)
    assert e.digits == [(3, -1), (3, -1), (2, 1)] and e.terminated


def test_sqrt2_fixed_point():
    r = nk.make_surd(-1, 1, 1, 2)  # sqrt(2) - 1
    e = expand(r, Alpha.one(), 10)
    assert e.period == (0, 1)
    assert e.digits[0] == (2, 1)


def test_convergents_examples():
    e = expand(Fraction(2, 5), Alpha.half(), 10)
    c = convergents(e)
    assert c.q == [0, 1, 3, 5] and c.p == [1, 0, 1, 2]
    assert Fraction(c.p[3], c.q_of(2)) == Fraction(2, 5)

    cg = convergents(expand(G, Alpha.one(), 10), 8)
    assert cg.q[1:] == [1, 1, 2, 3, 5, 8, 13, 21, 34]

    c3 = convergents(expand(Fraction(1, 3), Alpha.one(), 5))
    assert c3.q_of(1) == 3 and c3.p[2] == 1


def test_beta_products_examples():
    e = expand(Fraction(2, 5), Alpha.one(), 10)
    prods = _orbit_products(e, 1)
    assert prods[0] == 1  # beta_{-1}
    assert prods[2] == Fraction(1, 5)
    assert _convergent_gap(convergents(e), e.x0, 1) == Fraction(1, 5)

    eg = expand(G, Alpha.one(), 10)
    power = Fraction(1)
    for b in _orbit_products(eg, 4):
        assert b == power  # beta_{j-1}(g) = g^j
        power = _times(power, G)


def test_normalize_examples():
    x, refl = normalize(nk.BallFloat("1.39"), Alpha(Fraction(3, 5)))
    assert not refl and abs(float(x) - 0.39) < 1e-15
    assert normalize(Fraction(3, 4), Alpha(Fraction(3, 5))) == (Fraction(1, 4), True)
    x, refl = normalize(-G, Alpha.one())
    assert not refl and x == 1 - G


@settings(max_examples=120, deadline=None)
@given(unit_fractions, st.sampled_from(["1/2", "3/5", "1"]))
def test_rational_roundtrip_and_beta_identity(x, alpha_text):
    alpha = Alpha(Fraction(alpha_text))
    x, _ = normalize(x, alpha)
    if x == 0:
        return
    e = expand(x, alpha, 300)
    assert e.terminated
    r = len(e.digits)
    c = convergents(e)
    # terminated expansion reproduces x exactly
    assert Fraction(c.p[r + 1], c.q_of(r)) == x
    assert math.gcd(c.p[r + 1], c.q_of(r)) == 1
    # |q_j x - p_j| = x_0 ... x_j exactly
    prods = _orbit_products(e, r - 1)
    for j in range(-1, r):
        assert prods[j + 1] == _convergent_gap(c, x, j)
    # q strictly increasing from j = 1
    for j in range(1, r):
        assert c.q_of(j + 1) > c.q_of(j)


@settings(max_examples=120, deadline=None)
@given(unit_fractions)
def test_half_alpha_digit_constraints(x):
    x, _ = normalize(x, Alpha.half())
    if x == 0:
        return
    e = expand(x, Alpha.half(), 300)
    for a, eps in e.digits:
        assert a >= 2
        if a == 2:
            assert eps == 1


@settings(max_examples=100, deadline=None)
@given(unit_fractions)
def test_termination_length_logarithmic(x):
    for alpha in (Alpha.one(), Alpha.half()):
        y, _ = normalize(x, alpha)
        if y == 0:
            continue
        e = expand(y, alpha, 1000)
        q = y.denominator
        bound = math.log(math.sqrt(5) * (q + 1)) / math.log((1 + 5 ** 0.5) / 2) + 1
        assert len(e.digits) <= bound


@settings(max_examples=80, deadline=None)
@given(unit_fractions)
def test_dirichlet_bound_alpha_one(x):
    if x in (0, 1):
        return
    e = expand(x, Alpha.one(), 300)
    r = len(e.digits)
    c = convergents(e)
    # strict below the terminal index; the terminated last step is an equality
    for j in range(0, r - 1):
        assert abs(c.p[j + 1] - c.q_of(j) * x) < Fraction(1, c.q_of(j + 1))
    assert abs(c.p[r] - c.q_of(r - 1) * x) == Fraction(1, c.q_of(r))


@settings(max_examples=80, deadline=None)
@given(unit_fractions)
def test_gauss_orbit_product_contraction(x):
    if x in (0, 1):
        return
    e = expand(x, Alpha.one(), 300)
    r = len(e.digits)
    powers = [Fraction(1)]
    while len(powers) < r:
        powers.append(_times(powers[-1], G))
    for j in range(0, r - 1):
        prod = Fraction(1)
        for i in range(j + 1, r):
            prod *= e.orbit_at(i)
        # x_{j+1} ... x_{r-1} <= g^{r-j-1}
        assert not (prod > powers[r - j - 1])


def test_ball_expansion_matches_exact_digits():
    dec = "0.372112984678341275940081"
    x = nk.BallFloat(dec, prec=256)
    exact = Fraction(dec)
    e = expand(x, Alpha.one(), 25)
    ex = expand(exact, Alpha.one(), 40)
    assert len(e.digits) == 25
    assert e.digits == ex.digits[:25]


def test_ball_expansion_precision_exhausted_near_boundary():
    # 1/2 widened by a tiny radius cannot decide the terminal Gauss branch.
    r = Fraction(1, 10 ** 70)
    x = nk.BallFloat._raw(Fraction(1, 2) - r, Fraction(1, 2) + r, 256)
    with pytest.raises(PrecisionExhausted):
        expand(x, Alpha.one(), 10)


def test_surd_orbit_periodic_and_bounded():
    x = nk.make_surd(-3, 1, 4, 19)
    x = normalize(x, Alpha.one())[0]
    e = expand(x, Alpha.one(), 400)
    assert e.period is not None
    pre, length = e.period
    assert e.orbit_at(pre) == e.orbit_at(pre + length)


def test_surd_expansion_never_factorizes(monkeypatch):
    # surd arithmetic keeps its squarefree radicand: only make_surd, on a
    # new radicand, factorizes
    rng = random.Random(1306)
    xs = [random_surd(rng, half=True) for _ in range(60)]
    calls = []
    factorize = nk.factorize
    monkeypatch.setattr(nk, "factorize",
                        lambda n: calls.append(n) or factorize(n))
    periods = [expand(x, alpha, 256).period
               for x in xs for alpha in (Alpha.one(), Alpha.half())]
    assert calls == []
    assert sum(p is not None for p in periods) > 100  # periods were keyed
    nk.make_surd(1, 1, 1, 12)
    assert calls == [12]  # the count sees make_surd's split


def _stepped(x, alpha, max_steps):
    """digits, orbit, terminated and period of x from alpha_step alone."""
    digits, orbit, period, seen = [], [x], None, {x: 0}
    while orbit[-1] and len(digits) < max_steps and period is None:
        a, eps, nxt = alpha_step(orbit[-1], alpha)
        digits.append((a, eps))
        orbit.append(nxt)
        if isinstance(nxt, nk.Surd):
            i = seen.setdefault(nxt, len(digits))
            if i < len(digits):
                period = (i, len(digits) - i)
    return digits, orbit, not orbit[-1], period


def _golden_field_surd(rng):
    """A surd of Q(sqrt(5)) in (0, g]."""
    while True:
        v = nk.make_surd(rng.randrange(-40, 40), rng.randrange(1, 12),
                         rng.randrange(1, 40), 5)
        if isinstance(v, nk.Surd):
            x, _ = normalize(v, Alpha.golden())
            if isinstance(x, nk.Surd):
                return x


def test_expand_matches_alpha_step():
    # expand steps exact states on ints; alpha_step is its reference
    rng = random.Random(1517)
    cases = []
    for alpha in [Alpha.one(), Alpha.half(), Alpha(Fraction(3, 5)),
                  Alpha(Fraction(13, 25)), Alpha(Fraction(29, 50)),
                  Alpha.golden()]:
        xs = [random_rational(rng, 2 ** 64, half=True) for _ in range(20)]
        xs += [random_surd(rng, half=True) for _ in range(20)]
        if alpha == Alpha.golden():  # one radicand per orbit
            xs = [x for x in xs if getattr(x, "d", 5) == 5]
            xs += [_golden_field_surd(rng) for _ in range(20)]
        # edge cases: zero, alpha itself, 1/2, and the exact hit 1/x = 3
        xs += [Fraction(0), alpha.value, Fraction(1, 2), Fraction(1, 3)]
        cases += [(x, alpha) for x in xs]
    cases.append((1, Alpha.one()))
    for x, alpha in cases:
        e = expand(x, alpha, 256)
        digits, orbit, terminated, period = _stepped(x, alpha, 256)
        assert e.digits == digits
        assert e.orbit == orbit
        assert [type(v) for v in e.orbit] == [type(v) for v in orbit]
        assert (e.terminated, e.period) == (terminated, period)
    kinds = {(type(x), type(alpha.value)) for x, alpha in cases}
    assert {(Fraction, Fraction), (Fraction, nk.Surd), (nk.Surd, Fraction),
            (nk.Surd, nk.Surd), (int, Fraction)} <= kinds
    with pytest.raises(MixedRadicalError):
        expand(nk.make_surd(-1, 1, 1, 2), Alpha.golden(), 10)  # sqrt(2) - 1


def test_json_roundtrip():
    e = expand(Fraction(5, 13), Alpha.half(), 10)
    obj = json.loads(e.to_json())
    assert [tuple(d) for d in obj["digits"]] == e.digits
    assert obj["terminated"] == e.terminated
    assert nk.parse_exact(obj["x"]) == e.x0
    assert obj["alpha"] == "1/2" and obj["period"] is None


def test_expansion_too_short():
    e = expand(Fraction(1, 3), Alpha.one(), 10)
    with pytest.raises(ExpansionTooShort):
        convergents(e, 5)
    with pytest.raises(ExpansionTooShort):
        e.cycled(e.digits, 3, 4)


def test_orbit_mpf_cycles_surd_period():
    e = expand(G, Alpha.one(), 5)
    vals = e.orbit_mpf(40, 128)
    assert len(vals) == 41
    gf = nk.to_mpf(G, 128)
    for v in vals:
        assert abs(mp.make_mpf(v) - gf) < 1e-30


@pytest.mark.parametrize("x, alpha, prec", [
    (nk.parse_exact("0.3183098861837907", 64), Alpha.one(), 96),
    (nk.BallFloat(Fraction(0x9E3779B97F4A7C15F39CC0605CEDC835, 2 ** 128),
                  prec=256), Alpha.half(), 160),
], ids=["repro-64bit", "dyadic-half"])
def test_orbit_mpf_inside_stored_balls(x, alpha, prec):
    # float values come from the certified orbit, not from a replay of x0
    e = expand(normalize(x, alpha)[0], alpha, 256, best_effort=True)
    vals = e.orbit_mpf(len(e.orbit) - 1, prec)
    assert len(vals) == len(e.orbit)
    for v, ball in zip(vals, e.orbit):
        q = _q(v)
        tol = abs(q) / 2 ** (prec - 1)  # one rounding to nearest at prec
        assert ball.ends[0] - tol <= q <= ball.ends[1] + tol


def test_surd_beta_identity_exact():
    # |q_j x - p_j| equals the orbit product exactly in surd arithmetic
    for x0, alpha in [(nk.make_surd(-3, 1, 4, 19), Alpha.one()),
                      (nk.make_surd(3, -1, 5, 7), Alpha.half()),
                      (_times(G, G), Alpha(Fraction(14, 25)))]:
        x, _ = normalize(x0, alpha)
        e = expand(x, alpha, 25)
        n = min(12, len(e.digits))
        c = convergents(e, n)
        prods = _orbit_products(e, n - 1)
        for j in range(-1, n):
            assert _convergent_gap(c, x, j) == prods[j + 1]


def test_orbit_convergent_consistency_alpha_one():
    # x = (p_{i-1} x_i + p_i)/(q_{i-1} x_i + q_i) for the regular CF
    for x in (Fraction(355, 613), G, nk.make_surd(1, 2, 7, 3)):
        xn, _ = normalize(x, Alpha.one())
        e = expand(xn, Alpha.one(), 20)
        n = min(10, len(e.digits) - (1 if e.terminated else 0))
        c = convergents(e, n)
        for i in range(1, n + 1):
            xi = e.orbit_at(i)
            num = _times(c.p[i], xi) + c.p[i + 1]
            den = _times(c.q_of(i - 1), xi) + c.q_of(i)
            assert num == _times(xn, den)


def test_ball_expansion_stops_before_exact_hit():
    # a 64-bit decimal is a zero-width ball whose exact orbit ends at an
    # exact hit after 37 digits: the ball certifies the 36 before it
    x = nk.parse_exact("0.3183098861837907", 64)
    e = expand(x, Alpha.one(), 256, best_effort=True)
    assert len(e.digits) == 36
    assert e.exhausted and not e.terminated
    assert e.orbit[0].prec == 64
    exact = expand(x.ends[0], Alpha.one(), 256)
    assert exact.terminated and exact.digits[:36] == e.digits
    assert len(exact.digits) == 37


def test_ball_ends_step_no_further_than_they_agree(monkeypatch):
    # the two ends are walked in lockstep: each takes at most one step past
    # the certified prefix, the step whose digits disagree
    rng = random.Random(1717)
    calls = []
    floor_lin = cf_core._floor_lin
    monkeypatch.setattr(cf_core, "_floor_lin",
                        lambda *args: calls.append(1) or floor_lin(*args))
    digits = 0
    for alpha in (Alpha.one(), Alpha.half(), Alpha(Fraction(3, 5)),
                  Alpha.golden()):
        for _ in range(6):
            x, _ = normalize(nk.BallFloat(random_surd(rng, half=True),
                                          prec=256), alpha)
            calls.clear()
            e = expand(x, alpha, 256, best_effort=True)
            assert x.ends[0] < x.ends[1] and e.exhausted
            assert len(calls) <= 2 * (len(e.digits) + 1)
            digits += len(e.digits)
    assert digits > 1000


def test_ball_expansion_same_in_threads_as_serial():
    # ball arithmetic carries its precision itself, so concurrent expansions
    # at different precisions cannot disturb each other
    rng = random.Random(2026)
    alphas = [Alpha.one(), Alpha.half(), Alpha.golden()]
    cases = []
    for i in range(80):
        bits = rng.randint(64, 256)
        x = random_dyadic_ball(rng, bits=bits, prec=bits)
        alpha = alphas[i % 3]
        if x > alpha.value:
            x = 1 - x
        cases.append((x, alpha))

    def run(case):
        e = expand(case[0], case[1], 100, best_effort=True)
        return (e.digits, e.terminated, e.exhausted, e.period,
                [(v.ends, v.prec) for v in e.orbit])

    serial = [run(c) for c in cases]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(run, cases, timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert sum(a != b for a, b in zip(serial, threaded)) == 0
    assert any(r[2] for r in serial) and any(len(r[0]) > 50 for r in serial)


# -- ball orbits against an mpmath.iv oracle ----------------------------------
# The oracle steps the alpha-map on a whole box with iv's outward rounding at
# 2048 bits and stops where a floor or a sign is undecided.  Each iv box
# holds the true image of the ball, so it must hold the exact interval
# ``expand`` stores; and as the exact ends certify every digit a box can,
# the exact prefix is never shorter.

def _q(v):
    """A raw mpf as a Fraction."""
    return Fraction(*to_rational(v))


def _iv_orbit(x, alpha, max_steps):
    """Digits and iv boxes of the ball x under A_alpha, at the current iv.prec."""
    v = alpha.value
    if isinstance(v, nk.Surd):
        A = (iv.mpf(v.a) + iv.mpf(v.b) * iv.sqrt(iv.mpf(v.d))) / iv.mpf(v.c)
    else:
        A = iv.mpf(v.numerator) / iv.mpf(v.denominator)
    lo, hi = x.ends
    X = iv.mpf([mp.make_mpf(from_rational(lo.numerator, lo.denominator,
                                          iv.prec, round_floor)),
                mp.make_mpf(from_rational(hi.numerator, hi.denominator,
                                          iv.prec, round_ceiling))])
    digits, boxes = [], [X]
    while len(digits) < max_steps and _q(X._mpi_[0]) > 0:
        U = 1 / X
        a, b = (math.floor(_q(t)) for t in (U - A + 1)._mpi_)
        if a != b:
            break
        W = U - a
        if _q(W._mpi_[0]) > 0:
            digits.append((a, 1))
        elif _q(W._mpi_[1]) < 0:
            digits.append((a, -1))
            W = -W
        else:
            break
        boxes.append(W)
        X = W
    return digits, boxes


def test_ball_orbit_matches_iv_oracle():
    rng = random.Random(1616)
    cases = []
    for alpha in (Alpha.one(), Alpha.half(), Alpha(Fraction(3, 5)),
                  Alpha.golden()):
        for _ in range(4):
            balls = [nk.BallFloat(random_surd(rng, half=True), prec=256),
                     random_dyadic_ball(rng, bits=256, prec=256),
                     nk.parse_exact(f"0.{rng.randrange(10 ** 77):077d}", 256)]
            cases += [(normalize(b, alpha)[0], alpha) for b in balls]
    old = iv.prec
    iv.prec = 2048
    try:
        oracle = [_iv_orbit(x, alpha, 256) for x, alpha in cases]
    finally:
        iv.prec = old
    zero_width = 0
    for (x, alpha), (digits, boxes) in zip(cases, oracle):
        e = expand(x, alpha, 256, best_effort=True)
        assert len(e.digits) >= len(digits)
        assert e.digits[:len(digits)] == digits
        for box, ball in zip(boxes, e.orbit):
            a, b = box._mpi_
            assert _q(a) <= ball.ends[0] <= ball.ends[1] <= _q(b)
        lo, hi = x.ends
        if lo == hi:  # stops exactly one digit before the exact hit
            exact = expand(lo, alpha, 256)
            assert exact.terminated and e.exhausted
            assert e.digits == exact.digits[:-1]
            zero_width += 1
        # alpha_step on the balls themselves takes the same digits through
        # the same intervals
        cur, orbit = x, [x]
        for d in e.digits:
            a, eps, cur = alpha_step(cur, alpha)
            assert (a, eps) == d
            orbit.append(cur)
        assert [v.ends for v in orbit] == [v.ends for v in e.orbit]
    assert zero_width == 32 and sum(len(d) for d, _ in oracle) > 3000


def test_walk_builds_rational_states_reduced():
    # _walk builds each rational state with no gcd; every one must be the
    # reduced Fraction(a, c) the constructor gives, as _classify_state and
    # the memo keys compare and hash them, and an exact hit must be 0/1
    rng = random.Random(30)
    alphas = (Alpha.one(), Alpha.half(), Alpha(Fraction(3, 5)), Alpha.golden())
    starts = [random_rational(rng, 2 ** 64, half=True) for _ in range(40)]
    for _ in range(10):
        starts += nk.BallFloat(random_surd(rng, half=True), prec=256).ends
        starts += nk.parse_exact(f"0.{rng.randrange(10 ** 77):077d}",
                                 256).ends
    states = hits = 0
    for alpha in alphas:
        for x in starts:
            x, _ = normalize(x, alpha)
            last = None
            for _, y in islice(cf_core._walk(x, alpha), 300):
                canon = Fraction(y.numerator, y.denominator)
                assert (y.numerator, y.denominator, hash(y)) == (
                    canon.numerator, canon.denominator, hash(canon))
                states, last = states + 1, y
            if last == 0:
                assert (last.numerator, last.denominator) == (0, 1)
                hits += 1
    assert states > 10000 and hits >= 4 * 40

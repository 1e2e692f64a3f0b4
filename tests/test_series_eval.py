import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import accumulate

import pytest
from mpmath import mp
from mpmath.libmp import (from_float, from_int, fzero, mpf_add, mpf_div,
                          mpf_mul, mpf_neg, mpf_pos, round_nearest)

from alphacf import cf_core, numkit as nk
from alphacf.cf_core import Alpha, convergents, expand, normalize
from alphacf import series_eval as se
from alphacf.errors import (
    DivergesAtRational,
    ExpansionTooShort,
    OutOfDomain,
    PrecisionExhausted,
    SingularPoint,
)
from alphacf.sampling import random_dyadic_ball, random_surd
import oracles
from oracles import alpha_step, apply_transfer

G = nk.GOLDEN
SQRT2M1 = nk.make_surd(-1, 1, 1, 2)


def random_surd_in_unit(rng, below_half=False):
    while True:
        d = rng.choice([2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19])
        v = nk.make_surd(rng.randrange(-30, 30), rng.randrange(1, 10),
                         rng.randrange(1, 30), d)
        if not isinstance(v, nk.Surd):
            continue
        x, _ = normalize(v, Alpha.one())
        if isinstance(x, nk.Surd) and (not below_half or x < Fraction(1, 2)):
            return x


def long_sum(x, alpha, k, signed, n, prec):
    """The n-term orbit sum of x from the oracle's terms, with no tail."""
    e = expand(normalize(x, alpha)[0], alpha, n)
    wp = prec + 32
    vals = e.orbit_mpf(n - 1, wp)
    total = oracles.orbit_sum(vals, k, signed, wp)
    return mp.make_mpf(mpf_pos(total, prec, round_nearest))


def gauss_orbit_mpf(fr, prec):
    """The points of the terminating orbit of fr in (0, 1) at alpha = 1, its
    final 0 left out, as raw mpfs at prec."""
    e = expand(fr, Alpha.one(), 2 * fr.denominator.bit_length() + 2)
    return e.orbit_mpf(len(e.digits) - 1, prec)


def kernel_pass(vals, k, prec):
    """The series kernel's running pass over the raw mpfs vals, each point
    logged once."""
    logs = [se._log_inv(v, prec) for v in vals]
    return se._pass(zip(vals, logs), k, prec, 0, se._START)


# -- fixed-point closed forms ------------------------------------------------

def test_brjuno_fixed_point_golden():
    with mp.workprec(300):
        gf = nk.to_mpf(G, 300)
        for k in (1, 2):
            got = se.brjuno_k(G, Alpha.one(), k, prec=256)
            want = mp.log(1 / gf) / (1 - gf ** k)
            assert got.rigorous_tail
            assert abs(got.value - want) < mp.mpf(10) ** -20


def test_wilton_fixed_points():
    with mp.workprec(300):
        gf = nk.to_mpf(G, 300)
        got = se.wilton(G, Alpha.one(), prec=256)
        want = mp.log(1 / gf) / (1 + gf)
        assert abs(got.value - want) < mp.mpf(10) ** -20
        s = mp.sqrt(2)
        got2 = se.wilton(SQRT2M1, Alpha.one(), prec=256)
        want2 = mp.log(1 + s) / s
        assert abs(got2.value - want2) < mp.mpf(10) ** -20


def test_series_diverges_at_rational():
    with pytest.raises(DivergesAtRational):
        se.brjuno_k(Fraction(2, 5), Alpha.one())
    with pytest.raises(DivergesAtRational):
        se.wilton(Fraction(1, 3), Alpha.one())
    with pytest.raises(SingularPoint):
        se.brjuno_k(Fraction(3), Alpha.one())


def test_closed_form_matches_long_partial_sum():
    # period-1 surds: closed-form tail equals the limit of partial sums
    for x in (G, SQRT2M1):
        closed = se.brjuno_k(x, Alpha.one(), 2, prec=192)
        partial = long_sum(x, Alpha.one(), 2, False, 400, 192)
        assert closed.rigorous_tail
        assert abs(closed.value - partial) < 1e-50


def test_preperiodic_surd_closed_form():
    # a surd with nontrivial preperiod still sums its tail exactly
    x = normalize(nk.make_surd(-3, 1, 4, 19), Alpha.one())[0]
    closed = se.wilton(x, Alpha.one(), prec=192)
    partial = long_sum(x, Alpha.one(), 1, True, 500, 192)
    assert closed.rigorous_tail
    assert abs(closed.value - partial) < 1e-45


# -- finite (rational) truncations -------------------------------------------

def test_brjuno_finite_examples():
    with mp.workprec(300):
        assert abs(se.brjuno_finite_rational(Fraction(1, 2), 1)
                   - mp.log(2)) < 1e-60
        want = mp.log(mp.mpf(5) / 2) + mp.mpf(2) / 5 * mp.log(2)
        got = se.brjuno_finite_rational(Fraction(2, 5), 1)
        assert abs(got - want) < 1e-60
    assert float(got) == pytest.approx(1.1935496040981333, abs=1e-12)
    assert se.brjuno_finite_rational(Fraction(7), 3) == 0


def test_wilton_finite_examples():
    with mp.workprec(300):
        assert abs(se.wilton_finite_rational(Fraction(1, 3))
                   - mp.log(3)) < 1e-60
        want = mp.log(mp.mpf(5) / 2) - mp.mpf(2) / 5 * mp.log(2)
        got = se.wilton_finite_rational(Fraction(2, 5))
        assert abs(got - want) < 1e-60
    assert float(got) == pytest.approx(0.639031859650177, abs=1e-12)
    assert se.wilton_finite_rational(Fraction(5)) == 0


def test_finite_values_converge_to_series_along_convergents():
    from alphacf.cf_core import convergents, expand

    e = expand(G, Alpha.one(), 30)
    c = convergents(e, 25)
    limit = se.brjuno_k(G, Alpha.one(), 1, prec=128).value
    errs = []
    for r in (5, 10, 20):
        fr = Fraction(c.p[r + 1], c.q_of(r))
        errs.append(abs(float(se.brjuno_finite_rational(fr, 1) - limit)))
    assert errs[0] > errs[1] > errs[2]
    # rate matches the truncation bound scale 2C' x_r / q_r
    assert errs[2] < 2 * float(se.c_prime(64)) * 0.62 / c.q_of(20)


def euclid_orbit(fr):
    """The terminating Gauss orbit of fr in (0, 1) as exact Fractions,
    stepped by Euclid's algorithm."""
    num, den = fr.numerator, fr.denominator
    while num:
        yield Fraction(num, den)
        num, den = den % num, num


def finite_oracle(fr, k, signed, prec):
    """The oracle's left-to-right sum over fr's Euclid orbit, each point its
    exact Fraction rounded once at prec + 16, the total rounded to prec."""
    wp = prec + 16
    vals = [nk.raw_mpf(f, wp) for f in euclid_orbit(fr)]
    return mp.make_mpf(mpf_pos(oracles.orbit_sum(vals, k, signed, wp), prec,
                               round_nearest))


def assert_finite_values_match_oracle(fr, prec):
    for k in (1, 2, 3):
        assert se.brjuno_finite_rational(fr, k, prec) == finite_oracle(
            fr, k, False, prec)
    assert se.wilton_finite_rational(fr, prec) == finite_oracle(
        fr, 1, True, prec)


def test_finite_values_past_the_working_precision():
    # q has 300 bits, past prec + 16 at prec 53 and 128, so the orbit points
    # are not exact at the working precision: each is rounded once from its
    # Fraction, where rounding both operands first gives other bits
    rng = random.Random(31)
    moved = 0
    for _ in range(4):
        q = (1 << 299) | rng.getrandbits(299)
        fr = Fraction(rng.randrange(1, q), q)
        for prec in (53, 128):
            wp = prec + 16
            exact = list(euclid_orbit(fr))
            assert gauss_orbit_mpf(fr, wp) == [nk.raw_mpf(f, wp)
                                               for f in exact]
            moved += sum(nk.raw_mpf(f, wp) != mpf_div(
                from_int(f.numerator, wp, round_nearest),
                from_int(f.denominator, wp, round_nearest), wp,
                round_nearest) for f in exact)
            assert_finite_values_match_oracle(fr, prec)
    assert moved > 0


def test_finite_values_on_the_longest_euclid_orbits():
    # F_n/F_(n+1) takes n - 1 Euclid steps, the most for its denominator;
    # the expansion's cap, 2 log_2 q + 2 digits, still ends each orbit
    fib = [0, 1]
    while len(fib) < 1002:
        fib.append(fib[-1] + fib[-2])
    for n in (2, 3, 50, 500, 1000):
        fr = Fraction(fib[n], fib[n + 1])
        e = expand(fr, Alpha.one(), 2 * fr.denominator.bit_length() + 2)
        assert e.terminated and len(e.digits) == n - 1
        assert_finite_values_match_oracle(fr, 53)
    assert_finite_values_match_oracle(Fraction(fib[1000], fib[1001]), 128)


# -- proxy sums ---------------------------------------------------------------

def test_proxy_sum_examples():
    assert se.proxy_sum(G, Alpha.one(), 1, 4) == pytest.approx(1.7789326290387004)
    assert se.proxy_sum(G, Alpha.one(), 2, 4) == pytest.approx(1.1466266874418727)
    assert se.proxy_sum(G, Alpha.one(), 1, 0) == 0.0
    with pytest.raises(ExpansionTooShort):
        se.proxy_sum(Fraction(2, 5), Alpha.one(), 1, 10)


def test_proxy_terms_past_the_float_range():
    # q_j has 20j + 1 bits, so q_j^k leaves the float range from j = 52 at
    # k = 1 and from j = 26 at k = 2; those terms carry q_j's binary
    # exponent instead of raising OverflowError
    x = nk.make_surd(-2**20, 1, 2, 2**40 + 4)
    gap = se.gap_audit([x], Alpha.one(), 1, 60)
    assert 0 < gap.sup_gap < se.proof_constant_gate(1)
    assert se.proxy_sum(x, Alpha.one(), 2, 40) == pytest.approx(
        13.862943611224123, rel=1e-15)
    e = expand(x, Alpha.one(), 60)
    q = convergents(e, 60).q
    with mp.workdps(40):
        for k, n in ((1, 60), (2, 40)):
            for j, term in enumerate(se._proxy(e, k, n)):
                want = mp.log(q[j + 2]) / mp.mpf(q[j + 1]) ** k
                assert abs(term - want) <= 1e-15 * want + 2.0 ** -1074


@pytest.mark.parametrize("call, message", [
    (lambda: se.gap_audit([G], Alpha.one(), 1, 10, mode="wiltn"),
     "unknown mode 'wiltn'"),
    (lambda: se.gap_audit([G], Alpha.one(), 0, 10), "k must be >= 1"),
    (lambda: se.proxy_sum(G, Alpha.one(), 0, 5), "k must be >= 1"),
    (lambda: se.proxy_sum(G, Alpha.one(), 0, 0), "k must be >= 1"),
    (lambda: se.functional_eq_residual(G, Alpha.one(), "brjuno", 10, k=0),
     "k must be >= 1"),
    (lambda: se.brjuno_k(G, Alpha.one(), terms=0), "terms must be >= 1"),
    (lambda: se.wilton(G, Alpha.one(), terms=0), "terms must be >= 1"),
    (lambda: se.gap_audit([G], Alpha.one(), 1, 0), "N must be >= 1"),
    (lambda: se.gap_audit([G], Alpha.one(), 1, -1), "N must be >= 1"),
    (lambda: se.proxy_sum(G, Alpha.one(), 1, -1), "N must be >= 0"),
    (lambda: se.truncation_audit(G, 0), "r_max must be >= 1"),
    (lambda: se.truncation_audit(G, -3), "r_max must be >= 1"),
    # each of these used to run on with no end, or return unrounded values
    (lambda: se.brjuno_k(G, Alpha.one(), prec=-40), "prec must be >= 1"),
    (lambda: se.brjuno_k(G, Alpha.one(), prec=0), "prec must be >= 1"),
    (lambda: se.wilton(G, Alpha.one(), prec=0), "prec must be >= 1"),
    (lambda: se.brjuno_finite_rational(Fraction(2, 5), 2, prec=0),
     "prec must be >= 1"),
    (lambda: se.wilton_finite_rational(Fraction(2, 5), prec=-1),
     "prec must be >= 1"),
    (lambda: se.functional_eq_residual(G, Alpha.one(), N=10, prec=0),
     "prec must be >= 1"),
    (lambda: se.functional_eq_residual(G, Alpha.one(), "wilton", 10, k=2),
     "the Wilton residual takes k = 1 only"),
    # a float is not read as its binary Fraction, and a surd or a ball is
    # refused as the library's own error, not a bare TypeError
    (lambda: se.brjuno_finite_rational(0.4), "not a float"),
    (lambda: se.wilton_finite_rational(SQRT2M1), "not a Surd"),
    (lambda: se.brjuno_finite_rational(nk.parse_exact("0.4")),
     "not a BallFloat"),
    (lambda: se.truncation_audit(G, 3, prec=-5), "prec must be >= 1"),
    (lambda: se.c_prime(0), "prec must be >= 1"),
], ids=["gap-mode", "gap-k0", "proxy-k0", "proxy-k0-N0", "residual-k0",
        "brjuno-terms0", "wilton-terms0", "gap-N0", "gap-N-1", "proxy-N-1",
        "trunc-r0", "trunc-r-3", "brjuno-prec-40", "brjuno-prec0",
        "wilton-prec0", "finite-prec0", "finite-wilton-prec-1",
        "residual-prec0", "residual-wilton-k2", "finite-float",
        "finite-wilton-surd", "finite-ball", "trunc-prec-5",
        "c-prime-prec0"])
def test_series_parameters_checked_like_siblings(call, message):
    with pytest.raises(OutOfDomain, match=message):
        call()


# -- transfer operator --------------------------------------------------------

def test_apply_transfer_constants():
    c = lambda t: mp.mpf(7)
    with mp.workprec(300):
        got = apply_transfer(c, 1, Alpha.one(), Fraction(1, 3))
        assert abs(got - mp.mpf(7) / 3) < 1e-70
        got = apply_transfer(lambda t: mp.mpf(1), 2, Alpha.one(),
                             Fraction(1, 2))
        assert abs(got - mp.mpf(1) / 4) < 1e-70
    with pytest.raises(OutOfDomain):
        apply_transfer(c, 1, Alpha.half(), Fraction(3, 5))


def test_transfer_reproduces_series_recursion():
    # -log x + T applied to a truncated evaluator == deeper truncation
    alpha = Alpha.one()
    x = G
    depth = 12
    f = lambda t: long_sum(t, alpha, 1, False, depth - 1, 192)
    lhs = long_sum(x, alpha, 1, False, depth, 192)
    with mp.workprec(192):
        rhs = mp.log(1 / nk.to_mpf(x, 192)) + apply_transfer(
            f, 1, alpha, x, sign=1, prec=192)
        assert abs(lhs - rhs) < 1e-40


# -- functional equation residuals -------------------------------------------

def test_residual_golden_and_sqrt2():
    res = se.functional_eq_residual(G, Alpha.one(), "brjuno", 50, 1, prec=256)
    assert abs(res) < mp.mpf(2) ** -200
    res = se.functional_eq_residual(SQRT2M1, Alpha.one(), "wilton", 50, prec=256)
    assert abs(res) < mp.mpf(2) ** -200


def test_residual_float_input():
    x = nk.BallFloat("0.39", prec=256)
    res = se.functional_eq_residual(x, Alpha(Fraction(3, 5)), "brjuno", 4, 2,
                                    prec=256)
    assert abs(res) < mp.mpf(2) ** -200
    # 0.39 parsed as a float is a dyadic whose expansion exhausts early
    with pytest.raises(PrecisionExhausted):
        se.functional_eq_residual(x, Alpha(Fraction(3, 5)), "brjuno", 30, 2)


def test_residual_random_surds_and_floats():
    # below the gate, and the bits of the oracle's independent sum
    rng = random.Random(99)
    gate = mp.mpf(2) ** -200
    for _ in range(10):
        xs = random_surd_in_unit(rng)
        for mode in ("brjuno", "wilton"):
            args = (xs, Alpha.one(), mode, 50,
                    2 if mode == "brjuno" else 1, 256)
            res = se.functional_eq_residual(*args)
            assert abs(res) < gate
            assert res._mpf_ == oracles.functional_eq_residual(*args)._mpf_
        xf = nk.BallFloat(Fraction(rng.getrandbits(256) | 1, 2 ** 256),
                          prec=288)
        args = (xf, Alpha(Fraction(3, 5)), "wilton", 50, 1, 256)
        res = se.functional_eq_residual(*args)
        assert abs(res) < gate
        assert res._mpf_ == oracles.functional_eq_residual(*args)._mpf_


def test_functional_equation_between_closed_forms():
    # B(x) and B(A x) each come from their own orbit and closed-form tail, so
    # unlike functional_eq_residual's shared orbit nothing telescopes
    rng = random.Random(7)
    series = [(lambda x, a: se.brjuno_k(x, a, 1), 1, -1),
              (lambda x, a: se.brjuno_k(x, a, 2), 2, -1),
              (se.wilton, 1, 1)]
    cases = kept = 0
    for _ in range(30):
        x0 = random_surd_in_unit(rng)
        for alpha in (Alpha.one(), Alpha.half()):
            x = normalize(x0, alpha)[0]
            ax = alpha_step(x, alpha)[2]
            for fn, k, sign in series:
                b, b_ax = fn(x, alpha), fn(ax, alpha)
                cases += 1
                # a period beyond the digit cap falls back to a tol sum
                if not (b.rigorous_tail and b_ax.rigorous_tail):
                    continue
                kept += 1
                with mp.workprec(256):
                    xm = nk.to_mpf(x, 256)
                    res = b.value + mp.log(xm) + sign * xm ** k * b_ax.value
                assert abs(res) < 1e-60
    assert kept >= 0.9 * cases


# -- truncation bound ---------------------------------------------------------

def test_c_prime_value():
    assert float(se.c_prime(64)) == pytest.approx((5 ** 0.5 + 3) / 2)


def test_truncation_bound_golden():
    at_10 = [r for r in se.truncation_audit(G, 10) if r.r == 10]
    assert [(r.k, r.mode) for r in at_10] == [
        (1, "brjuno"), (2, "brjuno"), (3, "brjuno"), (1, "wilton")]
    assert all(r.passed and r.lhs <= r.bound for r in at_10)


def test_truncation_bound_short_expansion():
    # the audit stops where the expansion does, and needs one step
    reports = se.truncation_audit(Fraction(2, 5), 10)
    assert [r.r for r in reports] == [1] * 4 + [2] * 4
    with pytest.raises(ExpansionTooShort):
        se.truncation_audit(Fraction(3), 10)


def test_truncation_audit_matches_single_checks():
    rng = random.Random(5)
    x = random_surd_in_unit(rng)
    reports = se.truncation_audit(x, 8)
    assert len(reports) == 8 * 4
    for rep in reports:
        assert rep.passed
    single = next(r for r in se.truncation_audit(x, 5, prec=160)
                  if r.r == 5 and r.k == 2 and r.mode == "brjuno")
    batched = next(r for r in reports
                   if r.r == 5 and r.k == 2 and r.mode == "brjuno")
    assert single.lhs == pytest.approx(batched.lhs, rel=1e-10, abs=1e-30)


def test_truncation_audit_precision_follows_denominators():
    # q_30 has 190 bits here: at a flat 160 bits the lhs is pure rounding and
    # four checks read as violations
    x = nk.parse_exact("(3+1*sqrt(11))/19")
    reports = se.truncation_audit(x, 30)
    assert len(reports) == 120
    assert all(r.passed for r in reports)


# -- gap audit ----------------------------------------------------------------

def test_gap_audit_golden_stable():
    res = se.gap_audit([G], Alpha.one(), 1, 60)
    assert 0 < res.sup_gap < se.proof_constant_gate(1)
    short = se.gap_audit([G], Alpha.one(), 1, 45)
    # the gap stabilizes in depth (Fibonacci proxy tail ~ 1e-8 past depth 45)
    assert res.sup_gap == pytest.approx(short.sup_gap, abs=1e-6)


def test_gap_audit_empty():
    assert se.gap_audit([], Alpha.one()).sup_gap == 0.0


def test_gap_audit_integer_sample_is_singular():
    # like proxy_sum: an integer point has no orbit, so no gap to bound
    with pytest.raises(SingularPoint):
        se.gap_audit([G, Fraction(2)], Alpha.one())
    with pytest.raises(SingularPoint):
        se.gap_audit([Fraction(1), Fraction(2)], Alpha(Fraction(3, 5)))


def test_gap_audit_batch_below_gate():
    rng = random.Random(321)
    xs = [random_surd_in_unit(rng) for _ in range(30)]
    for alpha in (Alpha.one(), Alpha.half()):
        for mode in ("brjuno", "wilton"):
            res = se.gap_audit(xs, alpha, 1, 50, mode=mode)
            assert res.sup_gap < se.proof_constant_gate(1)
            assert res.sup_gap_cross < se.proof_constant_gate(1)


def _gap_oracle(x, k, N, signed):
    """The alpha = 1 gap, from its own expansion, series and proxy."""
    e = expand(normalize(x, Alpha.one())[0], Alpha.one(), N + 1)
    depth = e.depth(N)
    c = convergents(e, depth)
    vals = [float(mp.make_mpf(v)) for v in e.orbit_mpf(depth - 1, 96)]
    beta, series, proxy, gap = 1.0, 0.0, 0.0, 0.0
    for j in range(depth):
        sterm = beta ** k * math.log(1 / vals[j])
        pterm = math.log(c.q_of(j + 1)) / c.q_of(j) ** k
        if signed and j % 2:
            sterm, pterm = -sterm, -pterm
        series += sterm
        proxy += pterm
        beta *= vals[j]
        gap = max(gap, abs(series - proxy))
    return gap


def test_gap_audit_cross_is_same_alpha_at_alpha_one():
    # at alpha = 1 the regular-CF proxy is the same-alpha proxy, so the
    # cross-alpha sup is the same-alpha sup, bit for bit
    rng = random.Random(404)
    xs = [random_surd_in_unit(rng) for _ in range(20)]
    for mode in ("brjuno", "wilton"):
        for k in (1, 2):
            want = [_gap_oracle(x, k, 60, mode == "wilton") for x in xs]
            for x, gap in zip(xs, want):
                res = se.gap_audit([x], Alpha.one(), k, 60, mode=mode)
                assert res.sup_gap == res.sup_gap_cross == gap
            res = se.gap_audit(xs, Alpha.one(), k, 60, mode=mode)
            assert res.sup_gap == res.sup_gap_cross == max(want)


# -- assorted properties -------------------------------------------------------

def test_k_monotonicity():
    rng = random.Random(17)
    for _ in range(5):
        x = random_surd_in_unit(rng)
        vals = [float(se.brjuno_k(x, Alpha.one(), k, prec=128).value)
                for k in (1, 2, 3)]
        assert vals[0] >= vals[1] >= vals[2]


def test_recursion_identity_partial_sums():
    # S_N(x) = -log x + x^k S_{N-1}(A x), checked through the residual op
    rng = random.Random(31)
    for mode in ("brjuno", "wilton"):
        for _ in range(3):
            x = random_surd_in_unit(rng)
            res = se.functional_eq_residual(
                x, Alpha.half(), mode, 30, 3 if mode == "brjuno" else 1,
                prec=192)
            assert abs(res) < mp.mpf(2) ** -150


def test_tail_estimate_flags():
    v = se.brjuno_k(G, Alpha.one(), 1, prec=128)
    assert v.rigorous_tail and v.tail_estimate == 0.0
    f = se.wilton(nk.BallFloat("0.31830988618", prec=256), Alpha.one(),
                  terms=40, tol=1e-30)
    assert not f.rigorous_tail and f.tail_estimate >= 0.0
    # exhausted only when the certified orbit, not tol or the cap, ended it
    capped = se.wilton(nk.BallFloat("0.31830988618", prec=256), Alpha.one(),
                       terms=20, tol=0.0)
    assert capped.n_terms == 20
    assert not (v.exhausted or f.exhausted or capped.exhausted)
    short = se.brjuno_k(nk.parse_exact("0.3183098861837907", 64), Alpha.one(),
                        prec=64)
    assert short.exhausted and short.n_terms == 37


def test_truncation_audit_lhs_same_at_any_prec():
    # at a flat 192 bits an mp subtraction read rounding (lhs 2.9e-58) as a
    # violation of the 5.5e-59 bound at r = 30; prec sets only the bound
    x = nk.parse_exact("(3+1*sqrt(11))/19")
    key = (30, 1, "brjuno")
    at_192, at_160 = (next(r for r in se.truncation_audit(x, 30, prec=prec)
                           if (r.r, r.k, r.mode) == key)
                      for prec in (192, 160))
    assert at_192.passed and at_192.lhs <= at_192.bound
    assert at_192.lhs == pytest.approx(at_160.lhs, rel=1e-12, abs=0)
    assert at_192.lhs == pytest.approx(1.0502931264083268e-59, rel=1e-12,
                                       abs=0)


# -- the orbit-series kernel, frozen --------------------------------------------

def _repr128(v):
    with mp.workprec(128):
        return repr(v)


def test_kernel_values_frozen():
    # literal outputs of the hand-written loops the kernel replaced
    one, half = Alpha.one(), Alpha.half()
    assert [_repr128(se.brjuno_k(G, one, k, prec=128).value)
            for k in (1, 2, 3)] == [
        "mpf('1.2598289137944102198584299113248094164834')",
        "mpf('0.7786170887348067723606709979004409933491')",
        "mpf('0.6299144568972051099292149556624047082417')",
    ]
    assert _repr128(se.wilton(G, one, prec=128).value) == \
        "mpf('0.29740526367520332486291208447607257021333')"
    dyadic = Fraction(0x9E3779B97F4A7C15F39CC0605CEDC835, 2 ** 128)
    ball = nk.BallFloat(dyadic, prec=256)
    sv = se.brjuno_k(ball, half, 2, terms=60, tol=1e-30, prec=128)
    assert (_repr128(sv.value), sv.n_terms, repr(sv.tail_estimate)) == (
        "mpf('1.1268252365056095058319087628501442230736')", 37,
        "4.788047531645242e-31")
    # the ball's orbit is certified far enough to match the exact partial
    # sum over the dyadic's own Fraction orbit, term for term
    sv = se.wilton(ball, half, terms=60, tol=1e-30, prec=128)
    orbit = expand(normalize(dyadic, half)[0], half, sv.n_terms).orbit
    with mp.workprec(256):
        beta, exact = mp.mpf(1), mp.mpf(0)
        for n in range(sv.n_terms):
            v = nk.to_mpf(orbit[n], 256)
            exact += (-1) ** n * beta * mp.log(1 / v)
            beta *= v
        assert abs(sv.value - exact) < 1e-35
    finite = {
        Fraction(2, 5): ("mpf('1.1935496040981331889504200603512816986781')",
                         "mpf('1.0271942807637463146902843512013193223395')",
                         "mpf('0.63903185965017694141663436318474044421893')"),
        Fraction(13, 31): ("mpf('1.4360851563665453124460491242427293401273')",
                           "mpf('1.0570439339112263390547819290144127263605')",
                           "mpf('0.55621134283872816116737139812648740732704')"),
    }
    for q, want in finite.items():
        assert (_repr128(se.brjuno_finite_rational(q, 1, prec=128)),
                _repr128(se.brjuno_finite_rational(q, 2, prec=128)),
                _repr128(se.wilton_finite_rational(q, prec=128))) == want
    # the residual at the values' precision, prec + 32, as the oracle sums it
    res = se.functional_eq_residual(SQRT2M1, half, "wilton", 30, prec=160)
    assert res._mpf_ == oracles.functional_eq_residual(
        SQRT2M1, half, "wilton", 30, prec=160)._mpf_
    with mp.workprec(160):
        assert repr(res) == \
            "mpf('7.9654595556622613851444019888385590279555227759631e-59')"
    lhs = {(r.r, r.k, r.mode): r.lhs for r in se.truncation_audit(G, 10)}
    assert repr(lhs[(4, 2, "brjuno")]) == "0.005653350140529961"
    assert repr(lhs[(10, 1, "wilton")]) == "0.019277399097552193"
    # the values of the earlier mp subtraction of finite value and partial sum
    assert lhs[(4, 2, "brjuno")] == pytest.approx(0.0056533501405299814,
                                                  rel=1e-12)
    assert lhs[(10, 1, "wilton")] == pytest.approx(0.019277399097552196,
                                                   rel=1e-12)


# surds (a, b, c, d) with a preperiod, drawn by random_surd at seed 7, at an
# alpha where their expansion is (pre, length) with pre >= 2, and their
# literal 128-bit B_1, B_2 and W as the closed form summed them over the
# period's own terms and points
_PREPERIODIC_FROZEN = {
    ((7, 2, 36, 5), Fraction(1)): ((2, 4), (
        "mpf('1.8642481766808412076432529102109410163069')",
        "mpf('1.3476950327082346049395734225783225145167')",
        "mpf('0.5475929873535938151209815471605370190643')")),
    ((10, 2, 31, 21), Fraction(1, 2)): ((4, 22), (
        "mpf('1.5735068568718034863725138594511471835554')",
        "mpf('1.1284905830265511945206683101850668107869')",
        "mpf('0.70500670262256398947906701287579280244606')")),
    ((-12, 8, 31, 15), Fraction(3, 5)): ((2, 8), (
        "mpf('1.5487539072561856299364301072127440049251')",
        "mpf('1.0992549650227617078976154346527613879765')",
        "mpf('0.98599489682610910789749974027762607045099')")),
    ((9, 5, 29, 2), Fraction(1)): ((3, 9), (
        "mpf('1.5945888876631555321102991525198999159266')",
        "mpf('0.96380652540809085038326119631100938870598')",
        "mpf('0.86399021778329065620200306334656888769303')")),
    ((10, 1, 20, 15), Fraction(3, 5)): ((2, 3), (
        "mpf('1.7451891164922684762594228726340268571185')",
        "mpf('1.3183678286677634582898494085998950032854')",
        "mpf('0.88959142388643595176965251171223552497771')")),
    ((0, 1, 8, 22), Fraction(1, 2)): ((2, 9), (
        "mpf('1.5428447779073813898434244553641574609988')",
        "mpf('1.0659017355711095076935049902719479113922')",
        "mpf('0.70485029084557436605772883948176769800342')")),
}


@pytest.mark.parametrize("abcd, alpha", list(_PREPERIODIC_FROZEN))
def test_preperiodic_closed_forms_frozen(abcd, alpha):
    period, want = _PREPERIODIC_FROZEN[abcd, alpha]
    x, a = nk.make_surd(*abcd), Alpha(alpha)
    e = expand(normalize(x, a)[0], a, se.DEFAULT_TERMS, best_effort=True)
    assert e.period == period
    got = (se.brjuno_k(x, a, 1, prec=128), se.brjuno_k(x, a, 2, prec=128),
           se.wilton(x, a, prec=128))
    assert all(v.rigorous_tail and v.n_terms == sum(period) for v in got)
    assert tuple(_repr128(v.value) for v in got) == want


def test_wilton_terms_negate_brjuno_terms_at_odd_n():
    # the pass's W totals chain B_1's terms, each negated at odd n, and its
    # B_1 totals the terms as they are
    vals = gauss_orbit_mpf(Fraction(0x9E3779B97F4A7C15, 2 ** 64), 160)
    entries = kernel_pass(vals, 1, 160)
    assert len(vals) > 10 and len(entries) == len(vals)
    b = w = fzero
    for n, (term, b_total, w_total, _) in enumerate(entries):
        b = mpf_add(b, term, 160, round_nearest)
        w = mpf_add(w, mpf_neg(term) if n % 2 else term, 160, round_nearest)
        assert (b_total, w_total) == (b, w)


def test_truncation_bound_check_is_its_audit_entry():
    # an audit that stops at r gives the r entries of a deeper audit, bit
    # for bit; at (3+sqrt(11))/19, r = 16, k = 2 and 3, a separate single
    # check used to differ in the bits below its working precision
    rng = random.Random(5)
    xs = [G, nk.parse_exact("(3+1*sqrt(11))/19"), random_surd_in_unit(rng)]
    for x in xs:
        deep = se.truncation_audit(x, 16, prec=192)
        assert len(deep) == 16 * 4 and all(r.passed for r in deep)
        for r in (4, 9, 16):
            single = se.truncation_audit(x, r, prec=192)[-4:]
            assert single == [rep for rep in deep if rep.r == r]


# -- thread safety ---------------------------------------------------------------

def test_series_values_same_in_threads_as_serial():
    # series sums pass their precision to libmp themselves, so concurrent
    # evaluations at 64 and 512 bits cannot disturb each other
    rng = random.Random(2027)
    cases = [(random_dyadic_ball(rng, bits=128, prec=192),
              (Alpha.one(), Alpha.half())[i % 2], (64, 512)[i // 2 % 2])
             for i in range(40)]

    def run(case):
        x, alpha, prec = case
        x = normalize(x, alpha)[0]
        values = [se.brjuno_k(x, alpha, 1, prec=prec),
                  se.wilton(x, alpha, prec=prec)]
        return [(v.value._mpf_, v.n_terms, v.tail_estimate) for v in values]

    serial = [run(c) for c in cases]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(run, cases, timeout=120))
    finally:
        sys.setswitchinterval(switch)
    assert sum(a != b for a, b in zip(serial, threaded)) == 0


# -- the mp-context kernel, frozen as an oracle ----------------------------------
# The kernel as it ran under mpmath's global precision before it moved onto
# raw libmp calls; the raw kernel must reproduce it bit for bit.

ORACLE_MODES = [(1, False), (2, False), (3, False), (1, True)]


def _oracle_orbit_terms(vals, modes):
    beta = mp.mpf(1)
    for n, v in enumerate(vals):
        lg = mp.log(1 / v)
        terms = []
        for k, signed in modes:
            t = (beta ** k) * lg
            terms.append(-t if signed and n % 2 else t)
        yield tuple(terms)
        beta *= v


def _oracle_orbit_sums(vals, modes):
    totals = [mp.mpf(0)] * len(modes)
    for terms in _oracle_orbit_terms(vals, modes):
        totals = [total + t for total, t in zip(totals, terms)]
    return totals


def _oracle_gauss_orbit(fr):
    num, den = fr.numerator % fr.denominator, fr.denominator
    while num:
        yield mp.mpf(num) / mp.mpf(den)
        num, den = den % num, num


def _oracle_truncation_audit(x, r_max, prec=160):
    # truncation_audit's reports as (r, k, mode, lhs, bound, passed)
    e = expand(x, Alpha.one(), r_max + 1)
    depth = e.depth(r_max)
    c = convergents(e, depth)
    prec = max(prec, c.q_of(depth).bit_length() + 64)
    modes = ORACLE_MODES
    reports = []
    with mp.workprec(prec):
        cp = (3 + mp.sqrt(5)) / 2
    with mp.workprec(prec + 16):
        vals = [mp.make_mpf(v) for v in e.orbit_mpf(depth, prec + 16)]
        partial = [mp.mpf(0)] * len(modes)
        for j, terms in enumerate(_oracle_orbit_terms(vals[:depth], modes)):
            r = j + 1
            partial = [p + t for p, t in zip(partial, terms)]
            q_r = c.q_of(r)
            fin = _oracle_orbit_sums(
                _oracle_gauss_orbit(Fraction(c.p[r + 1], q_r)), modes)
            x_r = vals[r] if len(vals) > r else mp.mpf(0)
            for (k, signed), f, p in zip(modes, fin, partial):
                lhs = abs(f - p)
                bound = 2 * k * cp * x_r / q_r
                reports.append((r, k, "wilton" if signed else "brjuno",
                                float(lhs), float(bound), bool(lhs <= bound)))
    return reports


def _oracle_inputs():
    rng = random.Random(909)
    orbits = []
    for _ in range(8):
        x = random_surd_in_unit(rng)
        orbits.append(expand(x, Alpha.one(), 40))
    for alpha in (Alpha.one(), Alpha.half(), Alpha(Fraction(3, 5))) * 2:
        x = normalize(random_dyadic_ball(rng, bits=128, prec=192), alpha)[0]
        orbits.append(expand(x, alpha, 40, best_effort=True))
    rationals = [Fraction(rng.getrandbits(64) | 1, 2 ** 64) for _ in range(8)]
    return orbits, rationals


def _assert_kernel_matches(raw, want, prec):
    # each oracle mode through the kernel's running pass, term for term and
    # running total for running total
    for i, (k, signed) in enumerate(ORACLE_MODES):
        entries = kernel_pass(raw, k, prec)
        got = [mpf_neg(e[0]) if signed and n % 2 else e[0]
               for n, e in enumerate(entries)]
        assert got == [terms[i] for terms in want]
        with mp.workprec(prec):
            totals = accumulate(mp.make_mpf(terms[i]) for terms in want)
            assert [e[2 if signed else 1] for e in entries] == [
                t._mpf_ for t in totals]


@pytest.mark.parametrize("prec", [176, 272, 600])
def test_raw_kernel_matches_mp_context_oracle(prec):
    orbits, rationals = _oracle_inputs()
    cases = 0
    for e in orbits:
        vals = e.orbit_mpf(39, prec)
        with mp.workprec(prec):
            want = [tuple(t._mpf_ for t in terms) for terms in
                    _oracle_orbit_terms(map(mp.make_mpf, vals), ORACLE_MODES)]
        _assert_kernel_matches(vals, want, prec)
        cases += len(want)
    for fr in rationals:
        with mp.workprec(prec):
            want_vals = [v._mpf_ for v in _oracle_gauss_orbit(fr)]
            want = [tuple(t._mpf_ for t in terms) for terms in
                    _oracle_orbit_terms(_oracle_gauss_orbit(fr), ORACLE_MODES)]
        vals = gauss_orbit_mpf(fr, prec)
        assert vals == want_vals
        _assert_kernel_matches(vals, want, prec)
        cases += len(want)
    assert cases > 500


def _assert_lhs_close(got, want, rel):
    # every lhs that is a normal float within rel of the oracle's
    normal = [(g.lhs, w[3]) for g, w in zip(got, want)
              if w[3] >= sys.float_info.min]
    assert normal
    for lhs, ref in normal:
        assert lhs == pytest.approx(ref, rel=rel, abs=0)


def test_truncation_audit_matches_mp_context_oracle():
    # verdicts and bound bits equal the oracle's; the lhs, summed from exact
    # term differences, matches the oracle run at 1500 bits
    rng = random.Random(911)
    for _ in range(5):
        x = random_surd_in_unit(rng)
        reports = se.truncation_audit(x, 30)
        got = [(r.r, r.k, r.mode, r.bound.hex(), r.passed) for r in reports]
        want = [(r, k, mode, bound.hex(), ok)
                for r, k, mode, lhs, bound, ok in _oracle_truncation_audit(x, 30)]
        assert got == want
        _assert_lhs_close(reports, _oracle_truncation_audit(x, 30, prec=1500),
                          rel=1e-9)


def test_truncation_audit_resolves_lhs_below_working_precision():
    # the mp subtraction read lhs = 0.0 at r = 30, k = 2 (1.39e-54 at 1500
    # bits): the lhs lies below 2^-176, its working precision
    x = nk.parse_exact("(1+1*sqrt(17))/16")
    got = {(r.r, r.k, r.mode): r.lhs for r in se.truncation_audit(x, 30)}
    want = {(r, k, mode): lhs for r, k, mode, lhs, _, _ in
            _oracle_truncation_audit(x, 30, prec=1500)}
    assert want[(30, 2, "brjuno")] == pytest.approx(1.39e-54, rel=1e-2, abs=0)
    for r in (28, 29, 30):
        for k in (2, 3):
            key = (r, k, "brjuno")
            assert got[key] == pytest.approx(want[key], rel=1e-9, abs=0)


def test_truncation_audit_range_safe():
    # [0; 2^40, 2^40, ..]: q_30 has 1201 bits, past the float range
    x = nk.make_surd(-2 ** 40, 1, 2, 2 ** 80 + 4)
    e = expand(x, Alpha.one(), 31)
    assert convergents(e, 30).q_of(30).bit_length() == 1201
    got = [r.passed for r in se.truncation_audit(x, 30)]
    want = [ok for *_, ok in _oracle_truncation_audit(x, 30, prec=1500)]
    assert len(got) == 120 and got == want
    # [0; 2^20, 2^20, ..]: q_30 has 601 bits; at even r the k = 2 terms
    # cancel to 2^-36..2^-40 of their absolute sum, which the mp re-sum
    # resolves
    x = nk.make_surd(-2 ** 20, 1, 2, 2 ** 40 + 4)
    e = expand(x, Alpha.one(), 31)
    assert convergents(e, 30).q_of(30).bit_length() == 601
    _assert_lhs_close(se.truncation_audit(x, 30),
                      _oracle_truncation_audit(x, 30, prec=1500), rel=1e-9)


def _continuant_q(a):
    """q_{-1}, q_0, q_1, .. of the regular CF [0; a_1, a_2, ..]."""
    q = [0, 1]
    for digit in a:
        q.append(digit * q[-1] + q[-2])
    return q


def test_one_pass_kernel_matches_the_two_pass_oracle():
    # every tuple of the one-pass kernel equals the two-pass one's, over
    # seeded digit strings, the palindromic [0; 2^20, 2^20, ..] strings
    # whose k = 2 sums the mp re-sum takes, and x_r = 0
    rng = random.Random(25)
    cases = []
    for _ in range(10000):
        a = [rng.choice((1, 1, 2, 3, rng.randrange(1, 1 << rng.randrange(
            1, 48)))) for _ in range(rng.randrange(1, 31))]
        cases.append((a, rng.random()))
    x = nk.make_surd(-2 ** 20, 1, 2, 2 ** 40 + 4)
    x_r = float(mp.make_mpf(expand(x, Alpha.one(), 31).orbit_mpf(1, 64)[1]))
    cases += [([2 ** 20] * r, x_r) for r in range(1, 31)]
    cases += [(a, 0.0) for a, _ in cases[:300]]
    for a, t in cases:
        q = _continuant_q(a)
        assert se._finite_minus_partial(a, q, t) == \
            oracles.finite_minus_partial(a, q, t)
    # the k = 2 sums at even r cancel past the float sum's error bound
    q = _continuant_q([2 ** 20] * 30)
    total, _, err, _ = se._finite_minus_partial([2 ** 20] * 30, q, x_r)[2]
    assert err > se._LHS_REL * abs(total)
    # the audits agree where the bounds fall below the normal floats too
    for x in (x, nk.make_surd(-2 ** 40, 1, 2, 2 ** 80 + 4)):
        reports = se.truncation_audit(x, 30)
        assert reports == oracles.truncation_audit(x, 30)
    assert 0 < min(r.bound for r in reports if r.bound) < sys.float_info.min
    # a rational's last point is 0, and the audit reads its kernel there
    reports = se.truncation_audit(Fraction(13, 31), 10)
    assert reports == oracles.truncation_audit(Fraction(13, 31), 10)
    assert reports[-1].lhs == 0.0 and reports[-1].bound == 0.0


def test_audits_equal_the_oracle_audits_on_the_fast_suite_samples():
    # AC3's and AC4's --fast samples at seed 0, cold and after the values
    # (whose expansion and conversion the audits then read), and the
    # truncation audit at the benchmark's q_30-sized precision too
    rng = random.Random(3)
    for i in range(100):
        x = random_surd(rng)
        if i % 2:
            se.brjuno_k(x, Alpha.one())
            se.wilton(x, Alpha.one())
        assert se.truncation_audit(x, 30) == oracles.truncation_audit(x, 30)
        if i % 10 == 0:
            e = expand(normalize(x, Alpha.one())[0], Alpha.one(), 256)
            prec = max(160, convergents(e, 30).q_of(30).bit_length() + 64)
            assert se.truncation_audit(x, 30, prec) == \
                oracles.truncation_audit(x, 30, prec)
    rng = random.Random(4)
    for i in range(100):
        x = random_surd(rng, half=True)
        if i % 2:
            se.brjuno_k(x, Alpha.one())
            se.wilton(x, Alpha.one())
        for alpha in (Alpha.one(), Alpha.half()):
            for mode in ("brjuno", "wilton"):
                assert se.gap_audit([x], alpha, 1, 60, mode=mode) == \
                    oracles.gap_audit([x], alpha, 1, 60, mode=mode)


def test_audits_on_a_ball_keep_their_certified_depth():
    # a 256-bit ball certifies the 31 digits the truncation audit needs
    # and the 61 of a gap audit at alpha = 1, but 50 of 61 at alpha = 1/2;
    # the wider cap the audits expand to changes none of it
    x = nk.BallFloat(random_surd(random.Random(2), half=True), 256)
    for values_first in (False, True):
        if values_first:
            se.brjuno_k(x, Alpha.one())
            se.wilton(x, Alpha.half())
        reports = se.truncation_audit(x, 30)
        assert len(reports) == 120
        assert reports == oracles.truncation_audit(x, 30)
        assert se.gap_audit([x], Alpha.one(), 1, 60).sup_gap == \
            0.510505788596086
        with pytest.raises(PrecisionExhausted, match="50 of 61 digits"):
            se.gap_audit([x], Alpha.half(), 1, 60)


def test_truncation_audit_verdicts_follow_lhs_over_bound(monkeypatch):
    # with C' scaled down, an entry fails exactly where lhs > bound, and one
    # whose bound exceeds its lhs by less than the sum's error bound fails
    x = random_surd_in_unit(random.Random(911))
    key = (20, 2, "brjuno")
    entry = next(r for r in se.truncation_audit(x, 30)
                 if (r.r, r.k, r.mode) == key)
    ratio = entry.lhs / entry.bound
    c_prime = se._c_prime

    def audit_with(factor):
        monkeypatch.setattr(se, "_c_prime", lambda prec: mpf_mul(
            c_prime(prec), from_float(factor), prec, round_nearest))
        return {(r.r, r.k, r.mode): r for r in se.truncation_audit(x, 30)}

    reports = audit_with(0.02).values()
    assert 0 < sum(not r.passed for r in reports) < len(reports)
    for r in reports:
        if abs(r.lhs / r.bound - 1) > 1e-9:
            assert r.passed == (r.lhs <= r.bound)
    assert audit_with(ratio * (1 + 1e-9))[key].passed
    assert not audit_with(ratio * (1 + 1e-14))[key].passed


def test_truncation_audit_runs_the_pass_only_on_cancelling_rows(
        monkeypatch):
    # the audit is O(r^2) float work: on the seeded surd every float sum
    # resolves, so it takes no mp log and runs no pass; on [0; 2^20, 2^20,
    # ..] the pass runs for the rows whose float error bound fails, the
    # even r at k = 2, and for no other
    rows = []  # (r, the ks whose float sum failed), one per row
    calls = []  # (name, r) for each mpf_log and _pass call
    fmp = se._finite_minus_partial

    def float_sum(a, q, t):
        out = fmp(a, q, t)
        rows.append((len(a), [k for k, (total, _, err, _) in out.items()
                              if err > se._LHS_REL * abs(total)]))
        return out

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append((fn.__name__, rows[-1][0]))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(se, "_finite_minus_partial", float_sum)
    monkeypatch.setattr(se, "mpf_log", counted(se.mpf_log))
    monkeypatch.setattr(se, "_pass", counted(se._pass))
    cf_core._expansion.cache_clear()
    x = random_surd_in_unit(random.Random(911))
    assert len(se.truncation_audit(x, 30)) == 120
    assert len(rows) == 30 and calls == []
    rows.clear()
    x = nk.make_surd(-2 ** 20, 1, 2, 2 ** 40 + 4)
    assert len(se.truncation_audit(x, 30)) == 120
    failed = {r: ks for r, ks in rows if ks}
    assert failed == {r: [2] for r in range(2, 31, 2)}
    assert {name for name, _ in calls} == {"mpf_log", "_pass"}
    assert {r for _, r in calls} == set(failed)


def test_truncation_audit_resums_a_ball(monkeypatch):
    # a 1500-bit ball of [0; 2^20, 2^20, ..] certifies the 31 digits the
    # audit reads (q_30 has 601 bits), and its cancelling rows are summed
    # again from its orbit balls' midpoints, as the surd's are
    x = nk.make_surd(-2 ** 20, 1, 2, 2 ** 40 + 4)
    resum = se._finite_minus_partial_resum
    resummed = []

    def counted(c, r, t, prec):
        resummed.append(r)
        return resum(c, r, t, prec)

    monkeypatch.setattr(se, "_finite_minus_partial_resum", counted)
    reports = se.truncation_audit(nk.BallFloat(x, 1500), 30)
    assert sorted(set(resummed)) == list(range(2, 31, 2))
    _assert_lhs_close(reports, _oracle_truncation_audit(x, 30, prec=1500),
                      rel=1e-9)
    assert [r.passed for r in reports] == [
        r.passed for r in se.truncation_audit(x, 30)]

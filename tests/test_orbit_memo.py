"""Orbits walked once across calls: the expansion memo and its tables.

Expansions of exact points and of balls, their per-precision pairs of
orbit points and logs, running passes and float and proxy terms are kept
across calls; a rational's finite truncations read its alpha = 1 expansion and
the tables kept on it.  These tests count the orbit walks, recurrences,
logs and terms of call sequences shaped like the benchmark's ops, check
that shared memos give the same bits in threads as serially, and compare
the memoised values with unmemoised copies of the code they replaced.
"""

import inspect
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from mpmath import mp
from mpmath.libmp import (fone, from_float, from_int, fzero, mpf_add, mpf_div,
                          mpf_log, mpf_lt, mpf_mul, mpf_neg, mpf_pos,
                          mpf_pow_int, mpf_rdiv_int, round_nearest)

from alphacf import cf_core, numkit, orbit_compare, series_eval, verify_suites
from alphacf.cf_core import Alpha, expand
from alphacf.errors import PrecisionExhausted
from alphacf.numkit import BallFloat, make_surd, parse_exact
from alphacf.sampling import random_dyadic_ball, random_rational, random_surd
from oracles import ball_mpf, functional_eq_residual, orbit_pass

ONE, HALF = Alpha.one(), Alpha.half()
BALL_ALPHAS = (ONE, HALF, Alpha(Fraction(3, 5)))
ORBIT_ALPHAS = (Alpha(Fraction(13, 25)), Alpha(Fraction(29, 50)),
                Alpha.golden())
CAP = 256
PRECS = (96, 176, 288)


def _clear_memos():
    cf_core._expansion.cache_clear()


def _count(monkeypatch, module, name) -> list:
    """Record every call of module.name from now on."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_terms(monkeypatch) -> list:
    """Record the k of every term ``series_eval._pass`` forms from now
    on."""
    formed = []
    real = series_eval._pass

    def counted(points, k, prec, n, entry, tol=None):
        entries = real(points, k, prec, n, entry, tol)
        formed.extend([k] * len(entries))
        return entries

    monkeypatch.setattr(series_eval, "_pass", counted)
    return formed


def _gauss_points(fr: Fraction) -> int:
    """Points of the Gauss orbit of fr in (0, 1), counted by Euclid."""
    num, den, n = fr.numerator, fr.denominator, 0
    while num:
        num, den, n = den % num, num, n + 1
    return n


def _surd_ball(rng):
    return BallFloat(random_surd(rng, half=True), prec=256)


def _text_ball(rng):
    return parse_exact(f"0.{rng.randrange(10 ** 77):077d}", 256)


def _ball_eval(x, alpha):
    """One ball-eval op: an expansion, two values and both residuals.

    Returns the values, the residuals' N and the expansion."""
    xn, _ = cf_core.normalize(x, alpha)
    e = expand(xn, alpha, CAP, best_effort=True)
    values = [series_eval.brjuno_k(x, alpha), series_eval.wilton(x, alpha)]
    n = min(50, len(e.digits) - 1)
    for mode in ("brjuno", "wilton"):
        series_eval.functional_eq_residual(x, alpha, mode, n)
    return values, n, e


def _exact_audit(x):
    """One exact-audit op: an expansion, two values and the audits."""
    expand(x, ONE, CAP)
    series_eval.brjuno_k(x, ONE)
    series_eval.wilton(x, ONE)
    series_eval.truncation_audit(x, 30)
    for alpha in (ONE, HALF):
        for mode in ("brjuno", "wilton"):
            series_eval.gap_audit([x], alpha, 1, 60, mode=mode)


# -- walk counts ---------------------------------------------------------------

def test_exact_audit_walks_each_orbit_once(monkeypatch):
    # (x, 1, 256) and (x, 1/2, 256): the values and both audits at 1 share
    # the op's own expansion, and the gap audits at 1/2 their cross pass
    # with the audits at 1 (4 walks when the audits expanded to r_max + 1
    # and N + 1 digits, 10 without the memo)
    rng = random.Random(1)
    for _ in range(4):
        x = random_surd(rng, half=True)
        _clear_memos()
        walks = _count(monkeypatch, cf_core, "_walk")
        _exact_audit(x)
        assert len(walks) == 2
        monkeypatch.undo()


def test_truncation_resums_keep_out_of_the_shared_memo(monkeypatch):
    # [0; 2^20, 2^20, ..] re-sums 15 rows, each from two one-shot
    # expansions; walked past the memo, they leave the op's own two
    # expansions there (33 walks, 33 misses and 16 entries when they went
    # through it and evicted the surd before its gap audit at 1)
    x = make_surd(-2 ** 20, 1, 2, 2 ** 40 + 4)
    _clear_memos()
    walks = _count(monkeypatch, cf_core, "_walk")
    _exact_audit(x)
    info = cf_core._expansion.cache_info()
    assert (len(walks), info.misses, info.currsize) == (32, 2, 2)


def test_exact_audit_converts_each_orbit_point_once(monkeypatch):
    # the values and the truncation audit read one conversion of the
    # alpha = 1 orbit, at the values' working precision (three, at 288, 176
    # and 96 bits, when each audit converted its own), each logged once
    # and kept in the values' pairs, which the audit reads; the gap audits
    # convert none at mp precision, at either alpha, as they round each
    # point to a float once.  The seeds include orbits past 31 and 61
    # digits, which every reader used to convert again
    rng = random.Random(1)
    wp, longest = series_eval._VALUES_WP, 0
    for _ in range(24):
        x = random_surd(rng, half=True)
        _clear_memos()
        converted = _count(monkeypatch, series_eval, "raw_mpf")
        logs = _count(monkeypatch, series_eval, "mpf_log")
        _exact_audit(x)
        e = expand(x, ONE, CAP)
        ours = [v for v, prec in converted if prec != 53]
        assert len(ours) == len(set(ours)) and set(ours) <= set(e.orbit)
        assert {prec for _, prec in converted} == {53, wp}
        assert len(ours) == len(logs) == len(e._tables["log", wp])
        assert {key[-1] for key in e._tables if key[0] in ("log", "run")} \
            == {wp}
        longest = max(longest, len(ours))
        monkeypatch.undo()
    assert longest > 61


def test_truncation_audit_alone_keeps_no_table(monkeypatch):
    # run alone, as AC3 runs it, the audit converts each stored point it
    # reads once, at its precision, and keeps none of the conversions, as
    # no later reader asks for them at that precision
    rng = random.Random(19)
    for _ in range(6):
        x = random_surd(rng, half=True)
        for prec in (160, 400):
            _clear_memos()
            converted = _count(monkeypatch, series_eval, "raw_mpf")
            series_eval.truncation_audit(x, 30, prec)
            monkeypatch.undo()
            e = expand(x, ONE, CAP)
            assert converted == [(v, max(prec + 16, series_eval._VALUES_WP))
                                 for v in e.orbit[:min(31, e.points)]]
            assert not e._tables


def test_gap_audits_round_each_point_once_to_a_float(monkeypatch):
    # the four gap audits of one surd read the float terms kept on its
    # expansion at each alpha, every stored point rounded once, at 53
    # bits: none is converted at the values' working precision, and the
    # alpha = 1/2 expansion keeps only its float and proxy terms
    rng = random.Random(3)
    for _ in range(8):
        x = random_surd(rng, half=True)
        _clear_memos()
        rounded = _count(monkeypatch, series_eval, "raw_mpf")
        for alpha in (ONE, HALF):
            for mode in ("brjuno", "wilton"):
                series_eval.gap_audit([x], alpha, 1, 60, mode=mode)
        monkeypatch.undo()
        e1, e2 = (expand(x, alpha, CAP, best_effort=True)
                  for alpha in (ONE, HALF))
        assert set(e2._tables) == {("float", 1), ("proxy", 1)}
        assert {prec for _, prec in rounded} == {53}
        assert len(rounded) == sum(min(e.depth(60), e.points)
                                   for e in (e1, e2))


def test_rational_orbits_walk_each_orbit_once_and_log_each_point_once(
        monkeypatch):
    # (x, 1/2, 40) is shared by the three matched traces: 4 walks, not 6;
    # the finite pair reads one alpha = 1 expansion, a fifth walk, and its
    # one log list, so one log per Gauss-orbit point
    rng = random.Random(1)
    for _ in range(4):
        x = random_rational(rng, 2 ** 64, half=True)
        _clear_memos()
        walks = _count(monkeypatch, cf_core, "_walk")
        for alpha in ORBIT_ALPHAS:
            orbit_compare.matched_orbits(x, alpha, 40)
        logs = _count(monkeypatch, series_eval, "mpf_log")
        series_eval.brjuno_finite_rational(x)
        series_eval.wilton_finite_rational(x)
        assert len(walks) == 5
        assert len(logs) == _gauss_points(x) > 10
        monkeypatch.undo()


def test_finite_pair_forms_each_gauss_term_once(monkeypatch):
    # W reads the signed total of B_1's pass, so the pair forms one term
    # per point
    rng = random.Random(4)
    for _ in range(6):
        x = random_rational(rng, 2 ** 64, half=True)
        _clear_memos()
        terms = _count_terms(monkeypatch)
        series_eval.brjuno_finite_rational(x)
        series_eval.wilton_finite_rational(x)
        assert len(terms) == _gauss_points(x) > 10
        # B_2 forms its own terms, once, and a second call forms none
        series_eval.brjuno_finite_rational(x, 2)
        series_eval.brjuno_finite_rational(x, 2)
        series_eval.wilton_finite_rational(x)
        assert len(terms) == 2 * _gauss_points(x)
        assert terms == [1] * _gauss_points(x) + [2] * _gauss_points(x)
        monkeypatch.undo()


def test_exact_audit_gap_audits_run_one_recurrence_per_expansion(
        monkeypatch):
    # the four audits read (x, 1, 256) and (x, 1/2, 256), the cross passes
    # at 1/2 read the proxy terms kept on (x, 1, 256), so the convergents of
    # each expansion are formed once
    rng = random.Random(6)
    for _ in range(4):
        x = random_surd(rng, half=True)
        _clear_memos()
        runs = _count(monkeypatch, series_eval, "convergents")
        for alpha in (ONE, HALF):
            for mode in ("brjuno", "wilton"):
                series_eval.gap_audit([x], alpha, 1, 60, mode=mode)
        assert len(runs) == 2
        assert {e.alpha for e, _ in runs} == {ONE, HALF}
        monkeypatch.undo()


@pytest.mark.parametrize("make,walks", [(_surd_ball, 2), (_text_ball, 1)],
                         ids=["surd-ball", "text-ball"])
def test_ball_eval_walks_each_orbit_once_and_logs_each_point_once(
        monkeypatch, make, walks):
    # the op's expansion, both values and both residuals share
    # (x, alpha, 256): one ball walk, one _walk per distinct end (10 and 5
    # _walk calls without the memo).  The values and the residuals read one
    # list of pairs (x_i, log(1/x_i)) at prec + 32, so a point is converted
    # and logged once, however many of them read it, and each residual adds
    # log x_0 for its head.  All four read one running pass from x_0, and the
    # residuals share one from x_1.  No point past the last one a sum reads
    # is converted, as the values' pass converts each point as it reaches it
    rng = random.Random(5)
    for i in range(6):
        x = make(rng)
        _clear_memos()
        walk_calls = _count(monkeypatch, cf_core, "_walk")
        converted = _count(monkeypatch, series_eval, "raw_mpf")
        logs = _count(monkeypatch, series_eval, "mpf_log")
        (b, w), n, e = _ball_eval(x, BALL_ALPHAS[i % 3])
        reached = max(b.n_terms, w.n_terms, n)
        assert len(walk_calls) == walks
        assert len(logs) == reached + 2
        assert [v for v, _ in converted] == e.orbit[:reached]
        assert {prec for _, prec in converted} == {288}
        assert len(e._tables["log", 288]) == reached
        assert set(e._tables) == {("log", 288), ("run", 1, 0, 288),
                                  ("run", 1, 1, 288)}
        monkeypatch.undo()


def test_ball_eval_forms_each_term_and_total_once(monkeypatch):
    # one ball-eval op forms a term, its two running totals and the next
    # beta once per entry of the passes from x_0 and x_1: 2 muls an entry,
    # and one more per residual for x_0 S_{N-1}(A x).  Summing each of the
    # four series on its own took about 2 muls a term of each
    rng = random.Random(8)
    for i in range(6):
        x = (_surd_ball if i % 2 else _text_ball)(rng)
        _clear_memos()
        muls = _count(monkeypatch, series_eval, "mpf_mul")
        (b, w), n, e = _ball_eval(x, BALL_ALPHAS[i % 3])
        from_x0, from_x1 = max(b.n_terms, w.n_terms, n), n - 1
        assert len(muls) <= 2 * (from_x0 + from_x1) + 4
        assert [len(e._tables["run", 1, start, 288]) for start in (0, 1)] \
            == [from_x0, from_x1]
        monkeypatch.undo()


def test_values_of_one_surd_log_each_point_once(monkeypatch):
    # the exact-audit op's two values read one log list; a sum that stops
    # at tol takes no log past the last term it read
    rng = random.Random(3)
    xs = [random_surd(rng, half=True) for _ in range(4)] + _over_cap_surds()
    stopped = 0
    for x in xs:
        _clear_memos()
        expand(x, ONE, CAP)
        logs = _count(monkeypatch, series_eval, "mpf_log")
        b, w = series_eval.brjuno_k(x, ONE), series_eval.wilton(x, ONE)
        assert len(logs) == max(b.n_terms, w.n_terms)
        stopped += not b.rigorous_tail and b.n_terms < CAP
        monkeypatch.undo()
    assert stopped >= 2


def test_gap_audit_suite_walks_each_orbit_once(monkeypatch):
    # AC4 audits one sample at a time, so its four audits share (x, 1, 256)
    # and (x, 1/2, 256): two walks per distinct sample, not six, over the 99
    # distinct ones among the 100 --fast samples
    _clear_memos()
    walks = _count(monkeypatch, cf_core, "_walk")
    assert verify_suites.suite_gap_audit(fast=True).passed
    assert len(walks) == 198


def test_memo_hits_are_the_fresh_expansion():
    # a hit returns the very object the first call built; keys are typed, so
    # an int and a Fraction of one value stay apart
    x, _ = cf_core.normalize(make_surd(0, 1, 1, 7), HALF)
    _clear_memos()
    e = expand(x, HALF, 40)
    assert expand(x, HALF, 40) is e
    assert expand(x, HALF, 41) is not e
    assert cf_core._expansion.__wrapped__(x, HALF, 40) == e
    zero = expand(0, ONE, 5)
    assert expand(Fraction(0), ONE, 5) is not zero
    assert type(expand(Fraction(0), ONE, 5).x0) is Fraction


def _ball_fields(e):
    """Every field of a ball expansion, each ball by its ends and prec."""
    return (e.digits, [(v.ends, v.prec) for v in e.orbit], e.terminated,
            e.period, e.exhausted, e.alpha)


def test_equal_balls_share_one_expansion():
    # a ball is keyed on its exact ends and prec, never on the object, which
    # compares by identity
    s = random_surd(random.Random(3), half=True)
    _clear_memos()
    b = BallFloat(s, prec=256)
    twin = BallFloat._raw(*b.ends, 256)
    assert twin is not b and twin != b
    e = expand(b, ONE, CAP, best_effort=True)
    assert expand(twin, ONE, CAP, best_effort=True) is e
    assert expand(cf_core.normalize(BallFloat(s, prec=256), ONE)[0], ONE,
                  CAP, best_effort=True) is e
    # another prec, alpha or max_steps is another expansion
    wide = BallFloat._raw(*b.ends, 512)
    misses = [expand(wide, ONE, CAP, best_effort=True),
              expand(b, HALF, CAP, best_effort=True),
              expand(b, ONE, 20, best_effort=True)]
    assert all(m is not e for m in misses)
    assert misses[0].digits == e.digits and misses[0].orbit[1].prec == 512
    assert cf_core._expansion.cache_info().currsize == 4
    # a hit is the expansion a fresh walk builds
    for got, key in ((e, (ONE, CAP)), (misses[1], (HALF, CAP)),
                     (misses[2], (ONE, 20))):
        fresh = cf_core._expansion.__wrapped__((*b.ends, 256), *key)
        assert _ball_fields(got) == _ball_fields(fresh)
    text = parse_exact("0.3183098861837907", 64)
    assert expand(text, ONE, 30) is expand(parse_exact("0.3183098861837907",
                                                       64), ONE, 30)
    # best_effort is read on every call, not kept with the expansion
    assert e.exhausted and len(e.digits) < CAP
    hits = cf_core._expansion.cache_info().hits
    for _ in range(2):
        with pytest.raises(PrecisionExhausted):
            expand(twin, ONE, CAP)
    assert cf_core._expansion.cache_info().hits == hits + 2


# -- same bits against the unmemoised code -----------------------------------

def _orbit_mpf_fresh(e, n, prec):
    """``series_eval._orbit_mpf`` with every point converted afresh."""
    if e.period is None:
        return [numkit.raw_mpf(v, prec) for v in e.orbit[:n + 1]]
    pre, length = e.period
    vals = [numkit.raw_mpf(v, prec) for v in e.orbit[:pre + length]]
    return [vals[i if i < pre + length else pre + (i - pre) % length]
            for i in range(n + 1)]


def _finite_rational_fresh(fr, k, signed, prec):
    """``series_eval._finite_rational`` before it shared its logs."""
    rnd = round_nearest
    wp = prec + 16
    num, den = fr.numerator % fr.denominator, fr.denominator
    total, beta, n = fzero, fone, 0
    while num:
        v = mpf_div(from_int(num, wp, rnd), from_int(den, wp, rnd), wp, rnd)
        lg = mpf_log(mpf_rdiv_int(1, v, wp, rnd), wp, rnd)
        term = mpf_mul(mpf_pow_int(beta, k, wp, rnd), lg, wp, rnd)
        total = mpf_add(total, mpf_neg(term, wp, rnd) if signed and n % 2
                        else term, wp, rnd)
        beta = mpf_mul(beta, v, wp, rnd)
        num, den, n = den % num, num, n + 1
    return mp.make_mpf(mpf_pos(total, prec, rnd))


def _expand_ball_fresh(x, alpha, max_steps):
    """``cf_core._expand_ball`` as it was when each call walked afresh."""
    e = cf_core.CFExpansion(x0=x, alpha=alpha, orbit=[x])
    walks = zip(*(cf_core._walk(end, alpha) for end in set(x.ends)))
    for steps in islice(walks, max_steps):
        (digit, u), (other, v) = steps[0], steps[-1]
        if digit != other or not (u and v):
            break
        e.digits.append(digit)
        e.orbit.append(BallFloat._raw(*sorted((u, v)), x.prec))
    e.terminated = not x
    e.exhausted = not e.terminated and len(e.digits) < max_steps
    return e


def _expansion_fresh(key, alpha, max_steps):
    """The expansion memo's walk, unmemoised, balls by the frozen copy."""
    if isinstance(key, tuple):
        return _expand_ball_fresh(BallFloat._raw(*key), alpha, max_steps)
    return cf_core._expand_exact(key, alpha, max_steps)


def _over_cap_surds():
    """Seeded surds whose period at alpha = 1 is longer than the cap."""
    rng = random.Random(1)
    found = []
    while len(found) < 2:
        x = random_surd(rng, half=True)
        if cf_core._expansion.__wrapped__(x, ONE, CAP).period is None:
            found.append(x)
    root = make_surd(0, 1, 1, 1000003)  # sqrt(1000003), period past 256
    return found + [root - 1000]


def _convergents_fresh(e, n):
    """``cf_core.convergents`` as it was before it kept its lists, with the
    digits past a periodic prefix indexed here."""
    pre, length = e.period or (0, 1)
    p, q, eps_prev = [1, 0], [0, 1], 1
    for i in range(n):
        a, eps = e.digits[i if i < len(e.digits)
                          else pre + (i - pre) % length]
        p.append(a * p[-1] + eps_prev * p[-2])
        q.append(a * q[-1] + eps_prev * q[-2])
        eps_prev = eps
    return cf_core.ConvergentSeq(n=n, p=p, q=q)


def _bits(values):
    return [v._mpf_ for v in values]


def test_orbit_mpf_keeps_the_bits_of_fresh_conversions():
    # the audit's reader keeps nothing, and reads the conversions a pass
    # kept in its pairs at one precision with the bits of fresh ones
    surds = _over_cap_surds()
    surds.append(make_surd(-1, 1, 2, 5))  # periodic, so the list cycles
    for x in surds:
        for alpha in (ONE, HALF):
            xa, _ = cf_core.normalize(x, alpha)
            _clear_memos()
            e = expand(xa, alpha, CAP)
            for with_pairs in (False, True):
                # short, long, short again, past the stored orbit
                for n in (5, 60, 20, CAP, 3 * CAP):
                    for prec in PRECS:
                        got = series_eval._orbit_mpf(e, n, prec)
                        assert got == _orbit_mpf_fresh(e, n, prec)
                assert set(e._tables) == ({("log", 176), ("run", 1, 0, 176)}
                                          if with_pairs else set())
                series_eval._run(e, 1, 0, 40, 176)
    assert any(expand(cf_core.normalize(x, ONE)[0], ONE, CAP).period is None
               for x in surds)


def test_finite_values_keep_the_bits_of_the_unshared_sum():
    rng = random.Random(7)
    rationals = [random_rational(rng, 2 ** 64) for _ in range(6)]
    rationals += [Fraction(5, 3), Fraction(-7, 2 ** 64 + 1), Fraction(3)]
    _clear_memos()
    for fr in rationals:
        for prec in (53, 128, 256):
            for k in (1, 2, 3):
                assert series_eval.brjuno_finite_rational(fr, k, prec) == \
                    _finite_rational_fresh(fr, k, False, prec)
            assert series_eval.wilton_finite_rational(fr, prec) == \
                _finite_rational_fresh(fr, 1, True, prec)


def test_kept_convergents_equal_a_fresh_recurrence():
    # every n, whether a longer or a shorter call came first: rationals,
    # balls, and periodic surds read past their stored prefix
    rng = random.Random(13)
    cases = [(random_rational(rng, 2 ** 64, half=True), a, 40)
             for a in ORBIT_ALPHAS + (HALF, ONE)]
    cases += [(_surd_ball(rng), a, CAP) for a in BALL_ALPHAS]
    cases += [(_text_ball(rng), a, CAP) for a in BALL_ALPHAS]
    periodic = [make_surd(-1, 1, 2, 5), make_surd(-1, 1, 1, 2),
                make_surd(0, 1, 1, 604) - 24]
    cases += [(cf_core.normalize(x, a)[0], a, CAP) for x in periodic
              for a in (ONE, HALF)]
    past = 0
    for x, alpha, cap in cases:
        key = (*x.ends, x.prec) if isinstance(x, BallFloat) else x
        e = cf_core._expansion.__wrapped__(key, alpha, cap)
        depth = e.depth(3 * cap)
        full = _convergents_fresh(e, depth)
        past += depth > len(e.digits)
        ns = list(range(depth + 1))
        for order in (ns, ns[::-1], rng.sample(ns, len(ns)),
                      [depth // 2, 0, depth, depth // 3]):
            e = cf_core._expansion.__wrapped__(key, alpha, cap)
            for n in order + [None]:
                m = len(e.digits) if n is None else n
                assert cf_core.convergents(e, n) == cf_core.ConvergentSeq(
                    n=m, p=full.p[:m + 2], q=full.q[:m + 2])
    assert past == 6


def _value_bits(v):
    return (v.value._mpf_, v.n_terms, v.tail_estimate, v.rigorous_tail,
            v.mode, v.exhausted)


def _ball_values(x, alpha):
    """Values and residuals of one ball, in an order that extends the logs.

    The last value and residual read the same expansions at another
    precision, which keeps its own logs.
    """
    xn, _ = cf_core.normalize(x, alpha)
    n = min(50, len(expand(xn, alpha, CAP, best_effort=True).digits) - 1)
    out = [_value_bits(series_eval.brjuno_k(x, alpha, k)) for k in (3, 1)]
    out.append(_value_bits(series_eval.wilton(x, alpha)))
    out.append(_value_bits(series_eval.brjuno_k(x, alpha, prec=160)))
    for mode, m, prec in (("brjuno", n // 2, 256), ("wilton", n, 256),
                          ("brjuno", n, 256), ("wilton", n, 160)):
        out.append(series_eval.functional_eq_residual(x, alpha, mode, m,
                                                      prec=prec)._mpf_)
    return out


def test_ball_values_keep_the_bits_of_fresh_walks_and_logs(monkeypatch):
    rng = random.Random(17)
    cases = [(_surd_ball(rng), BALL_ALPHAS[i % 3]) for i in range(120)]
    cases += [(_text_ball(rng), BALL_ALPHAS[i % 3]) for i in range(30)]
    _clear_memos()
    memo = [_ball_values(x, alpha) for x, alpha in cases]
    assert cf_core._expansion.cache_info().hits >= 3 * len(cases)
    monkeypatch.setattr(cf_core, "_expansion", _expansion_fresh)
    monkeypatch.setattr(series_eval, "_pass", orbit_pass)
    fresh = [_ball_values(x, alpha) for x, alpha in cases]
    assert memo == fresh


def _point_ball(rng, prec):
    """A zero-width ball: a dyadic point of prec bits is its own ends."""
    return BallFloat(Fraction(rng.getrandbits(prec) | 1, 1 << prec), prec)


def _ball_series(x, alpha, prec):
    """B_1..B_3 and W of a ball at prec, and the residuals of both modes."""
    xn, _ = cf_core.normalize(x, alpha)
    n = min(50, len(expand(xn, alpha, CAP, best_effort=True).digits) - 1)
    out = [_value_bits(series_eval.brjuno_k(x, alpha, k, prec=prec))
           for k in (1, 2, 3)]
    out.append(_value_bits(series_eval.wilton(x, alpha, prec=prec)))
    out += [series_eval.functional_eq_residual(x, alpha, "brjuno", n, k,
                                               prec)._mpf_ for k in (1, 2, 3)]
    out.append(series_eval.functional_eq_residual(x, alpha, "wilton", n,
                                                  prec=prec)._mpf_)
    return out


@pytest.mark.parametrize("prec", [64, 256, 1024])
def test_ball_series_keep_the_bits_of_midpoint_fractions_and_powers(
        monkeypatch, prec):
    # a ball's midpoint from its cross-multiplied ends, and beta read as it
    # is at k = 1, against the reduced Fraction midpoint and a power at
    # every k: text, surd-centred and zero-width balls at three alphas
    rng = random.Random(prec)
    balls = [parse_exact(f"0.{rng.randrange(10 ** 77):077d}", prec),
             BallFloat(random_surd(rng, half=True), prec=prec),
             _point_ball(rng, prec)]
    assert balls[2].ends[0] == balls[2].ends[1]
    cases = [(x, alpha) for x in balls for alpha in BALL_ALPHAS]
    widths = set()
    for x, alpha in cases:
        xn, _ = cf_core.normalize(x, alpha)
        for v in expand(xn, alpha, CAP, best_effort=True).orbit:
            widths.add(v.ends[0] == v.ends[1])
            for p in (prec, prec + 16, prec + 32):
                assert numkit.raw_mpf(v, p) == ball_mpf(v, p)
    assert widths == {True, False}
    _clear_memos()
    got = [_ball_series(x, alpha, prec) for x, alpha in cases]
    raw_mpf = numkit.raw_mpf
    monkeypatch.setattr(numkit, "raw_mpf", lambda v, p: ball_mpf(v, p)
                        if isinstance(v, BallFloat) else raw_mpf(v, p))
    monkeypatch.setattr(series_eval, "_pass", orbit_pass)
    _clear_memos()
    assert got == [_ball_series(x, alpha, prec) for x, alpha in cases]
    _clear_memos()


def test_values_keep_their_bits_when_the_memo_is_warm():
    # a warm memo hands back the cold run's expansion and conversions
    xs = _over_cap_surds() + [make_surd(-1, 1, 2, 5)]

    def values():
        out = []
        for x in xs:
            for alpha in (ONE, HALF):
                out += [series_eval.brjuno_k(x, alpha, 2).value,
                        series_eval.wilton(x, alpha).value,
                        series_eval.functional_eq_residual(x, alpha, N=40)]
        return _bits(out)

    _clear_memos()
    cold = values()
    assert values() == cold
    assert cf_core._expansion.cache_info().hits > 0


def test_ball_walk_orders_its_ends_by_eps_parity():
    # _expand_ball tells the lower end from the parity of the eps = +1
    # steps; the frozen copy sorts the two states it stored at every step
    rng = random.Random(23)
    balls = [BallFloat(random_surd(rng, half=True), prec=prec)
             for prec in (64, 256, 1024) for _ in range(40)]
    balls += [_text_ball(rng) for _ in range(45)]
    balls += [random_dyadic_ball(rng) for _ in range(45)]
    widths = 0
    for x in balls:
        for alpha in BALL_ALPHAS + (Alpha.golden(),):
            xn, _ = cf_core.normalize(x, alpha)
            got = cf_core._expand_ball(xn, alpha, CAP)
            assert _ball_fields(got) == _ball_fields(
                _expand_ball_fresh(xn, alpha, CAP))
            assert all(lo <= hi for lo, hi in (v.ends for v in got.orbit))
            widths += len(got.orbit) > 1 and got.orbit[1].ends[0] < \
                got.orbit[1].ends[1]
    assert widths >= 400


def test_residual_reads_the_values_expansion():
    # after brjuno_k and wilton the residuals of both modes find their
    # expansion in the memo, for a ball and for a surd; at alpha = 1/2 they
    # also read the values' pairs of points and logs and running pass from
    # x_0, and keep only the pass from x_1 that the two modes share
    rng = random.Random(9)
    for x, alpha in ((_surd_ball(rng), HALF),
                     (random_surd(rng, half=True), ONE),
                     (random_surd(rng, half=True), HALF)):
        _clear_memos()
        series_eval.brjuno_k(x, alpha)
        series_eval.wilton(x, alpha)
        misses = cf_core._expansion.cache_info().misses
        for mode in ("brjuno", "wilton"):
            series_eval.functional_eq_residual(x, alpha, mode, 50)
        assert cf_core._expansion.cache_info().misses == misses
        if alpha == HALF:
            e = expand(cf_core.normalize(x, alpha)[0], alpha, CAP,
                       best_effort=True)
            assert set(e._tables) == {("log", 288), ("run", 1, 0, 288),
                                      ("run", 1, 1, 288)}


def test_residual_keeps_the_bits_of_an_n_plus_1_expansion():
    # the 256-digit cap walks a surd past N + 1 and finds a period of 44
    # that a 2-digit cap does not; neither moves a point the residual reads
    xs = _over_cap_surds() + [make_surd(10, 7, 38, 7),
                              make_surd(0, 1, 1, 604) - 24]
    assert cf_core._expansion.__wrapped__(xs[-2], ONE, CAP).period is None
    assert cf_core._expansion.__wrapped__(xs[-1], ONE, CAP).period == (0, 44)
    for x in xs:
        for N in (1, 50, 300):
            for mode in ("brjuno", "wilton"):
                _clear_memos()
                got = series_eval.functional_eq_residual(x, ONE, mode, N)
                assert got._mpf_ == functional_eq_residual(
                    x, ONE, mode, N)._mpf_


# -- threads -----------------------------------------------------------------

def _tasks(surds, rationals, balls) -> list:
    tasks = []
    for x, alpha in balls:
        xn, _ = cf_core.normalize(x, alpha)
        e = cf_core._expansion.__wrapped__((*xn.ends, xn.prec), alpha, CAP)
        n = min(50, len(e.digits) - 1)
        tasks += [(series_eval.brjuno_k, x, alpha),
                  (series_eval.wilton, x, alpha),
                  (series_eval.brjuno_k, x, alpha, 2),
                  (series_eval.functional_eq_residual, x, alpha, "brjuno", n,
                   2)]
        for mode in ("brjuno", "wilton"):
            tasks.append((series_eval.functional_eq_residual, x, alpha, mode,
                          n))
    for x in surds:
        tasks += [(series_eval.brjuno_k, x, ONE), (series_eval.wilton, x, ONE),
                  (series_eval.brjuno_k, x, HALF),
                  (series_eval.truncation_audit, x, 30)]
        tasks += [(series_eval.functional_eq_residual, x, ONE, mode, 50)
                  for mode in ("brjuno", "wilton")]
        for alpha in (ONE, HALF):
            for mode in ("brjuno", "wilton"):
                tasks.append((series_eval.gap_audit, x, alpha, mode))
        for n in (10, 80, CAP):
            for prec in PRECS:
                tasks.append((series_eval._orbit_mpf, x, n, prec))
        for n in (30, 5, CAP):
            tasks.append(("convergents", x, ONE, CAP, n))
    for fr in rationals:
        tasks += [(series_eval.brjuno_finite_rational, fr, k)
                  for k in (1, 2, 3)]
        tasks.append((series_eval.wilton_finite_rational, fr))
        for alpha in ORBIT_ALPHAS:
            tasks.append((orbit_compare.matched_orbits, fr, alpha))
            depth = cf_core._expansion.__wrapped__(fr, alpha, 40).depth(40)
            tasks += [("convergents", fr, alpha, 40, n)
                      for n in (depth, depth // 2)]
    return tasks


def _run(task):
    fn, *args = task
    if fn is series_eval._orbit_mpf:
        x, n, prec = args
        return fn(expand(x, ONE, CAP), n, prec)
    if fn == "convergents":
        x, alpha, cap, n = args
        c = cf_core.convergents(expand(x, alpha, cap), n)
        return c.p, c.q
    if fn is series_eval.gap_audit:
        x, alpha, mode = args
        return fn([x], alpha, 1, 60, mode=mode)
    if fn is series_eval.truncation_audit:
        return fn(*args)
    if fn is orbit_compare.matched_orbits:
        trace = fn(*args, 40)
        return trace.dump_jsonl(), orbit_compare.q_difference_classify(trace)
    got = fn(*args)
    if isinstance(got, series_eval.SeriesValue):
        return _value_bits(got)
    return got._mpf_


def test_shared_memos_give_serial_bits_in_threads():
    rng = random.Random(11)
    surds = [random_surd(rng, half=True) for _ in range(4)]
    surds += _over_cap_surds()[:1]
    rationals = [random_rational(rng, 2 ** 64, half=True) for _ in range(4)]
    balls = [(_surd_ball(rng), BALL_ALPHAS[i % 3]) for i in range(3)]
    balls += [(_text_ball(rng), BALL_ALPHAS[i % 3]) for i in range(3)]
    tasks = _tasks(surds, rationals, balls)
    _clear_memos()
    serial = [_run(t) for t in tasks]

    def worker(shift):
        # each thread walks the same tasks from its own starting point, so
        # the threads race to fill the same cold memo entries
        order = tasks[shift:] + tasks[:shift]
        got = [_run(t) for t in order]
        return got[-shift:] + got[:-shift] if shift else got

    _clear_memos()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            shifts = [0, len(tasks) // 4, len(tasks) // 2, 3 * len(tasks) // 4]
            results = list(pool.map(worker, shifts, timeout=300))
    finally:
        sys.setswitchinterval(switch)
    for got in results:
        assert got == serial


def test_expansion_constructor_takes_no_memo():
    fields = inspect.signature(cf_core.CFExpansion).parameters
    assert "_tables" not in fields
    x = make_surd(-1, 1, 2, 5)
    e = expand(x, ONE, CAP)
    series_eval._orbit_mpf(e, 3, 96)
    series_eval.brjuno_k(x, ONE)
    series_eval.gap_audit([x], ONE, 2, 9)
    wp = series_eval._VALUES_WP
    assert set(e._tables) == {("log", wp), ("run", 1, 0, wp), ("float", 2),
                              ("proxy", 2)}
    assert len(e._tables["float", 2]) == len(e._tables["proxy", 2]) == 9
    assert "_tables" not in repr(e)
    fresh = cf_core._expansion.__wrapped__(x, ONE, CAP)
    assert not fresh._tables and e == fresh
    assert repr(e) == repr(fresh)


# -- the loop that feeds the pass ------------------------------------------

def _point_raw(v, prec):
    """A point rounded as its first conversion is, a ball from its reduced
    Fraction midpoint."""
    return ball_mpf(v, prec) if isinstance(v, BallFloat) else \
        numkit.raw_mpf(v, prec)


def _oracle_entries(e, k, start, n, prec):
    """n entries of the oracle pass over x_start, x_start+1, .. of e, every
    point converted and logged afresh."""
    points = [(_point_raw(e.orbit_at(j), prec), None)
              for j in range(start, start + n)]
    return orbit_pass(points, k, prec, 0, series_eval._START)


def _check_tables(e, prec):
    """The pairs kept on e are stored point j's at entry j, as many as the
    passes reached, and no more than the stored points; no other table
    holds conversions."""
    runs = [(key[2], len(t)) for key, t in e._tables.items()
            if key[0] == "run" and key[3] == prec]
    reached = min(e.points, max(start + n for start, n in runs))
    pairs = e._tables["log", prec]
    assert len(pairs) == reached
    for j, (x, log) in enumerate(pairs):
        assert x == _point_raw(e.orbit[j], prec)
        assert log == series_eval._log_inv(x, prec)
    assert {key[0] for key in e._tables} <= {"log", "run"}


def _ball_cases(rng):
    cases = [(_surd_ball(rng), a) for a in BALL_ALPHAS]
    cases += [(_text_ball(rng), a) for a in BALL_ALPHAS]
    return [(cf_core.normalize(x, a)[0], a) for x, a in cases]


def test_ball_values_keep_the_recorded_bits():
    # brjuno_k, wilton and both residuals of 12 seeded balls, surd-centred
    # and text, at alpha = 1, 1/2 and 3/5, as the code before the loop
    # that feeds the pass computed them (tests/data/ball_values.json)
    def raw(v):
        sign, man, exp, bc = v
        return sign, int(man, 16), exp, bc

    rows = json.loads((Path(__file__).parent / "data" /
                       "ball_values.json").read_text(encoding="utf-8"))
    assert len(rows) == 12
    assert {(row["kind"], row["alpha"]) for row in rows} == {
        (kind, a) for kind in ("surd", "text") for a in ("1", "1/2", "3/5")}
    for row in rows:
        x = (parse_exact(row["x"], 256) if row["kind"] == "text"
             else BallFloat(parse_exact(row["x"]), prec=256))
        alpha = Alpha.parse(row["alpha"])
        _clear_memos()
        for got, want in ((series_eval.brjuno_k(x, alpha), row["brjuno"]),
                          (series_eval.wilton(x, alpha), row["wilton"])):
            assert (got.value._mpf_, got.n_terms, got.tail_estimate,
                    got.rigorous_tail, got.exhausted) == (
                raw(want["value"]), want["n_terms"],
                float.fromhex(want["tail_estimate"]), want["rigorous_tail"],
                want["exhausted"])
        for mode in ("brjuno", "wilton"):
            assert series_eval.functional_eq_residual(
                x, alpha, mode, row["N"])._mpf_ == raw(row[f"residual_{mode}"])


def test_run_is_the_oracle_pass_in_any_order():
    # tol-stopped then fixed-length passes and the reverse, from x_0 and
    # x_1: each table is the oracle's prefix, a tol-stopped run-on ends at
    # the first term under tol past the entries kept before it, and the
    # conversions and pairs are stored point j's at entry j
    rng, wp = random.Random(29), 288
    tol = from_float(1e-40)
    for x, alpha in _ball_cases(rng):
        for order in range(3):
            _clear_memos()
            e = expand(x, alpha, CAP, best_effort=True)
            n_max, big = len(e.orbit), min(50, len(e.digits) - 1)
            calls = [(0, n_max, tol), (0, big, None), (1, big - 1, None)]
            calls = calls[order:] + calls[:order]
            for k in (1, 2):
                full = _oracle_entries(e, k, 0, n_max, wp)
                for start, n, tol_ in calls:
                    before = len(e._tables.get(("run", k, start, wp), []))
                    got = series_eval._run(e, k, start, n, wp, tol_)
                    if tol_ is None:
                        want = full if start == 0 else _oracle_entries(
                            e, k, start, n, wp)
                        assert got == want[:max(n, before)]
                        continue
                    table, begun = got
                    stop = next((j + 1 for j in range(before, n_max)
                                 if mpf_lt(full[j][0], tol)), n_max)
                    assert table == full[:max(before, stop)]
                    assert begun == before
            _check_tables(e, wp)


def test_run_reads_periodic_orbits_and_rationals_past_their_points():
    # surds read past their stored period, from x_0 and x_1, and rationals
    # read to their end: one conversion and one log per stored point
    wp = 160
    periodic = [make_surd(-1, 1, 2, 5), make_surd(0, 1, 1, 604) - 24,
                make_surd(-1, 1, 1, 2)]
    for x in periodic:
        for alpha in (ONE, HALF):
            xa, _ = cf_core.normalize(x, alpha)
            _clear_memos()
            e = expand(xa, alpha, CAP)
            assert e.period is not None
            for start, n in ((1, 3 * e.points), (0, 10), (0, 300)):
                assert series_eval._run(e, 1, start, n, wp) == \
                    _oracle_entries(e, 1, start, n, wp)
            _check_tables(e, wp)
            assert len(e._tables["log", wp]) == e.points
    rng = random.Random(31)
    for _ in range(6):
        fr = random_rational(rng, 2 ** 64)
        _clear_memos()
        e = expand(fr, ONE, 130)
        n = len(e.digits)
        for start, m in ((1, n - 1), (0, n // 2), (0, n)):
            assert series_eval._run(e, 2, start, m, wp) == \
                _oracle_entries(e, 2, start, m, wp)
        _check_tables(e, wp)


def test_periodic_orbit_logs_each_stored_point_once(monkeypatch):
    # the log list is indexed by stored point, as the conversions are, so
    # a residual read far past a short period logs each of its points once
    # and adds log x_0 (51 logs for the golden surd at N = 50 when the list
    # was indexed by orbit position)
    for x, points in ((make_surd(-1, 1, 2, 5), 1),
                      (make_surd(0, 1, 1, 604) - 24, 44)):
        for N in (50, 300):
            _clear_memos()
            logs = _count(monkeypatch, series_eval, "mpf_log")
            got = series_eval.functional_eq_residual(x, ONE, "brjuno", N)
            assert got._mpf_ == functional_eq_residual(
                x, ONE, "brjuno", N)._mpf_
            assert len(logs) == min(points, N) + 1
            monkeypatch.undo()


def test_value_sums_test_each_entry_against_tol_once(monkeypatch):
    # a value's scan skips the entries its own run-on's pass tested, and
    # tests each one a pass without tol kept, like the residual's; only a
    # run-on that reached n_max has its last entry tested again, for the
    # exhausted flag.  Only a signed sum reads the terms' monotony
    rng = random.Random(37)
    for i in range(12):
        x = (_surd_ball if i % 2 else _text_ball)(rng)
        alpha = BALL_ALPHAS[i % 3]
        for first in (0, 30):
            _clear_memos()
            e = expand(cf_core.normalize(x, alpha)[0], alpha, CAP,
                       best_effort=True)
            n_max = len(e.orbit)
            if first:
                series_eval.functional_eq_residual(x, alpha, "brjuno", first)
            lts = _count(monkeypatch, series_eval, "mpf_lt")
            gts = _count(monkeypatch, series_eval, "mpf_gt")
            b = series_eval.brjuno_k(x, alpha)
            assert len(lts) == b.n_terms + (b.n_terms == n_max > first)
            assert gts == []
            lts.clear()
            w = series_eval.wilton(x, alpha)
            assert len(lts) == w.n_terms and 1 <= len(gts) <= w.n_terms
            monkeypatch.undo()


def test_values_call_kept_a_fixed_number_of_times(monkeypatch):
    # on a fresh ball a value reads the pass kept so far, runs it on in one
    # call and publishes its pairs of points and logs once: three kept
    # calls, whatever its number of terms (about two per term when each
    # point was read through the kept tables one at a time, four when the
    # conversions were a table apart); the whole ball-eval op makes 8, or 9
    # when a residual runs the pass on past the values
    rng = random.Random(41)
    terms, ops = set(), set()
    for i in range(12):
        x = (_surd_ball if i % 2 else _text_ball)(rng)
        alpha = BALL_ALPHAS[i % 3]
        for value in (series_eval.brjuno_k, series_eval.wilton):
            _clear_memos()
            calls = _count(monkeypatch, cf_core.CFExpansion, "kept")
            terms.add(value(x, alpha).n_terms)
            assert len(calls) == 3
            monkeypatch.undo()
        _clear_memos()
        calls = _count(monkeypatch, cf_core.CFExpansion, "kept")
        _ball_eval(x, alpha)
        ops.add(len(calls))
        monkeypatch.undo()
    assert len(terms) > 5 and ops <= {8, 9}


def test_publishing_appends_past_the_tables_as_they_stand(monkeypatch):
    # another reader extends the pairs of points and logs between a pass's
    # snapshot and its publish, as a thread may: shorter than the pass
    # reaches, and longer.  Entry j stays point j, and the bits are the
    # serial run's
    rng = random.Random(43)
    real_pass, wp = series_eval._pass, 288
    for x, alpha in _ball_cases(rng):
        _clear_memos()
        serial = [_value_bits(series_eval.brjuno_k(x, alpha)),
                  _value_bits(series_eval.wilton(x, alpha, prec=256))]
        for reach in (5, CAP):
            _clear_memos()
            e = expand(x, alpha, CAP, best_effort=True)
            busy = []

            def interleaved(*args):
                if not busy:  # the outer pass, after its snapshot
                    busy.append(1)
                    series_eval._run(e, 3, 0, min(reach, len(e.orbit)), wp)
                return real_pass(*args)

            monkeypatch.setattr(series_eval, "_pass", interleaved)
            got = [_value_bits(series_eval.brjuno_k(x, alpha)),
                   _value_bits(series_eval.wilton(x, alpha, prec=256))]
            monkeypatch.undo()
            assert got == serial
            _check_tables(e, wp)


def test_value_scan_tests_what_another_pass_kept_meanwhile(monkeypatch):
    # a pass without tol runs the values' pass on past their stop between
    # the scan of the kept entries and the run-on, as another thread may:
    # the scan tests those entries itself, so the sum stops where the
    # serial one does
    rng = random.Random(47)
    real_run = series_eval._run
    for x, alpha in _ball_cases(rng):
        _clear_memos()
        serial = [_value_bits(series_eval.brjuno_k(x, alpha)),
                  _value_bits(series_eval.wilton(x, alpha))]
        for ahead in (1, 10, CAP):
            def interleaved(e, k, start, n, prec, tol=None):
                if tol is not None:
                    real_run(e, k, start, min(ahead, n), prec)
                return real_run(e, k, start, n, prec, tol)

            _clear_memos()
            monkeypatch.setattr(series_eval, "_run", interleaved)
            got = [_value_bits(series_eval.brjuno_k(x, alpha)),
                   _value_bits(series_eval.wilton(x, alpha))]
            monkeypatch.undo()
            assert got == serial

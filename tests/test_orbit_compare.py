import math
import random
from fractions import Fraction

import pytest

from alphacf import numkit as nk
from alphacf.cf_core import Alpha, expand
from alphacf.errors import OutOfDomain, OutOfRange
from alphacf.orbit_compare import (
    MatchedTrace,
    TraceStep,
    _classify_state,
    ladder,
    matched_orbits,
    q_difference_classify,
)
from alphacf.sampling import random_rational, random_surd
from oracles import alpha_step

G = nk.GOLDEN
ONE_MINUS_G = 1 - G


def test_first_divergence_relations():
    tr = matched_orbits(Fraction(39, 100), Alpha(Fraction(3, 5)), 12)
    s = tr.steps[0]
    assert s.event == "reflected"  # the orbits part at the first step
    assert s.x_half == 1 - s.x_alpha
    assert s.digit_half == (3, -1) and s.digit_alpha == (2, 1)
    assert s.digit_half[0] == s.digit_alpha[0] + 1


def test_coinciding_step():
    tr = matched_orbits(Fraction(9, 20), Alpha(Fraction(3, 5)), 3)
    assert tr.steps[0].event == "coincide"
    assert tr.steps[0].digit_half == tr.steps[0].digit_alpha == (2, 1)


def test_fixed_point_surd_never_diverges():
    tr = matched_orbits(nk.make_surd(-1, 1, 1, 2), Alpha(Fraction(3, 5)), 10)
    assert all(s.event == "coincide" for s in tr.steps)
    assert all(s.q_half == s.q_alpha for s in tr.steps)
    assert q_difference_classify(tr).ok


def test_alpha_above_golden_rejected():
    with pytest.raises(OutOfRange):
        matched_orbits(Fraction(1, 3), Alpha(Fraction(7, 10)), 5)
    # the boundary alpha = g itself is accepted
    matched_orbits(Fraction(1, 3), Alpha.golden(), 5)


def test_matched_orbits_need_one_step():
    # no step would make an empty trace that classifies as no violation
    for N in (0, -2):
        with pytest.raises(OutOfDomain, match="N must be >= 1"):
            matched_orbits(Fraction(1, 3), Alpha(Fraction(3, 5)), N)


def test_x_domain_check():
    with pytest.raises(OutOfDomain):
        matched_orbits(Fraction(3, 4), Alpha(Fraction(3, 5)), 5)


def test_ball_x_is_refused():
    # both orbits of a ball of positive width reach one shared interval, whose
    # equality no ball can certify, so a ball is refused up front
    with pytest.raises(OutOfDomain):
        matched_orbits(nk.BallFloat("0.3"), Alpha.half(), 3)


def test_classification_bulk_random():
    rng = random.Random(20260810)
    alphas = [Alpha(Fraction(13, 25)), Alpha(Fraction(29, 50)), Alpha.golden()]
    for _ in range(40):
        x = random_rational(rng, max_den=2 ** 64, half=True)
        for alpha in alphas:
            tr = matched_orbits(x, alpha, 40)
            res = q_difference_classify(tr)
            assert res.ok, res.violations
            # exact log-gap bound: ratio <= 2
            assert res.max_q_ratio <= 2


def test_q_sandwich_inequality():
    # the operative denominator bounds: q_j^(alpha) >= q_j^(1/2) - q_{j-1}^(1/2)
    # and q_j^(alpha) >= q_{j-1}^(1/2), which is what makes the log 2 gap work
    # (the literal middle link q_j^(1/2) >= 2 q_{j-1}^(1/2) fails for digit
    # patterns like (3,-1),(2,+1), where q runs 1, 3, 5)
    rng = random.Random(7)
    for _ in range(25):
        x = random_rational(rng, max_den=2 ** 40, half=True)
        tr = matched_orbits(x, Alpha(Fraction(14, 25)), 30)
        q_half_prev = 1
        for s in tr.steps:
            assert s.q_alpha >= s.q_half - q_half_prev
            assert s.q_alpha >= q_half_prev
            q_half_prev = s.q_half


def test_reflection_involution():
    tr = matched_orbits(Fraction(39, 100), Alpha(Fraction(3, 5)), 12)
    for s in tr.steps:
        if s.event == "reflected":
            assert 1 - (1 - s.x_alpha) == s.x_alpha
            assert s.x_half == 1 - s.x_alpha


def test_bridge_resolves_via_inverse_shift():
    # when a non-coinciding run returns to coincide, the step before satisfies
    # 1/x^(1/2) = 1/x^(alpha) - 1
    rng = random.Random(55)
    seen = 0
    for _ in range(60):
        x = random_rational(rng, max_den=2 ** 48, half=True)
        tr = matched_orbits(x, Alpha(Fraction(29, 50)), 40)
        for prev, cur in zip(tr.steps, tr.steps[1:]):
            if prev.event != "coincide" and cur.event == "coincide":
                lhs = 1 / prev.x_half
                rhs = 1 / prev.x_alpha - 1
                assert lhs == rhs
                seen += 1
    assert seen > 0


def test_ladder_paper_values():
    ts = [ladder(i).t for i in range(5)]
    assert ts == [Fraction(1, 2), Fraction(2, 5), Fraction(5, 13),
                  Fraction(13, 34), Fraction(34, 89)]
    rss = [ladder(i).rs for i in range(5)]
    assert rss == [Fraction(0), Fraction(1, 3), Fraction(3, 8),
                   Fraction(8, 21), Fraction(21, 55)]


def test_ladder_recurrences_under_the_maps():
    half = Alpha.half()
    for i in range(2, 8):
        lp, prev = ladder(i), ladder(i - 1)
        _, _, t_img = alpha_step(lp.t, half)
        assert t_img == prev.t
        assert lp.r == prev.s
        for alpha in (Alpha(Fraction(13, 25)), Alpha.golden()):
            _, _, rs_img = alpha_step(lp.rs, alpha)
            assert rs_img == prev.rs
        assert 2 - 1 / (1 - lp.t) == lp.rs


def test_ladder_convergence_to_one_minus_g():
    prev_t_gap = prev_rs_gap = None
    for i in range(1, 21):
        lp = ladder(i)
        t_gap = abs(lp.t - ONE_MINUS_G)
        rs_gap = abs(ONE_MINUS_G - lp.rs)
        if prev_t_gap is not None:
            assert t_gap < prev_t_gap
            assert rs_gap < prev_rs_gap
        prev_t_gap, prev_rs_gap = t_gap, rs_gap
        assert lp.t > ONE_MINUS_G > lp.rs
    assert float(prev_t_gap) < 1e-6 and float(prev_rs_gap) < 1e-6


def test_trace_jsonl_roundtrippable():
    import json

    tr = matched_orbits(Fraction(39, 100), Alpha(Fraction(3, 5)), 6)
    lines = tr.dump_jsonl().splitlines()
    assert len(lines) == len(tr.steps)
    rec = json.loads(lines[0])
    assert rec["event"] == "reflected"
    assert rec["x_half"] == "17/39"


def _classify_by_value(xh, xa):
    """Reference: the labels from exact value comparisons alone."""
    if xh == xa:
        return "coincide"
    if xh == 1 - xa:
        return "reflected"
    return "drift"


def _matched_orbits_stepwise(x, alpha, N):
    """Reference: both expansions and their q recurrences stepped by hand."""
    half = Alpha.half()
    trace = MatchedTrace(x=x, alpha=alpha)
    xh = xa = x
    qh_prev, qh = 0, 1
    qa_prev, qa = 0, 1
    eps_h_prev = eps_a_prev = 1
    for j in range(1, N + 1):
        if not xh or not xa:
            break
        ah, eh, xh = alpha_step(xh, half)
        aa, ea, xa = alpha_step(xa, alpha)
        qh_prev, qh = qh, ah * qh + eps_h_prev * qh_prev
        qa_prev, qa = qa, aa * qa + eps_a_prev * qa_prev
        eps_h_prev, eps_a_prev = eh, ea
        trace.steps.append(TraceStep(j=j, digit_half=(ah, eh),
                                     digit_alpha=(aa, ea), x_half=xh,
                                     x_alpha=xa, q_half=qh, q_alpha=qa,
                                     event=_classify_by_value(xh, xa)))
    return trace


def test_matched_orbits_match_stepwise_reference():
    rng = random.Random(20261018)
    xs = [random_rational(rng, max_den=2 ** 64, half=True) for _ in range(12)]
    xs += [random_surd(rng, half=True) for _ in range(8)]
    alphas = [Alpha(Fraction(13, 25)), Alpha(Fraction(29, 50)),
              Alpha(Fraction(3, 5)), Alpha.golden()]
    for x in xs:
        for alpha in alphas:
            if isinstance(x, nk.Surd) and alpha == Alpha.golden():
                continue  # surds of another radicand do not compare with g
            for N in (1, 7, 40):
                want = _matched_orbits_stepwise(x, alpha, N)
                got = matched_orbits(x, alpha, N)
                assert got.dump_jsonl() == want.dump_jsonl()


ORBIT_ALPHAS = (Alpha(Fraction(13, 25)), Alpha(Fraction(29, 50)), Alpha.golden())


def _short_period_surds(d, N):
    """Seeded surds of radicand d in [0, 1/2] whose 1/2- and alpha-orbits
    at each of ORBIT_ALPHAS repeat within N steps."""
    rng = random.Random(d)
    found = []
    while len(found) < 6:
        v = nk.make_surd(rng.randrange(-20, 20), rng.randrange(1, 6),
                         rng.randrange(1, 20), d)
        if not isinstance(v, nk.Surd):
            continue
        x = v - math.floor(v)
        x = x if x <= Fraction(1, 2) else 1 - x
        periods = [expand(x, a, N).period for a in (Alpha.half(),) + ORBIT_ALPHAS
                   if d == 5 or a != Alpha.golden()]
        if all(p is not None and sum(p) < N for p in periods):
            found.append(x)
    return found


def test_lockstep_traces_match_the_stepwise_reference():
    # the lockstep read of the stored lists, the kept convergents and the
    # integer classification give the reference's trace and verdicts,
    # also where a short period is cycled through to reach N steps
    rng = random.Random(24)
    N = 40
    rationals = [random_rational(rng, max_den=2 ** 64, half=True)
                 for _ in range(30)]
    rationals += [Fraction(39, 100), Fraction(9, 20), Fraction(1, 2)]
    surds = _short_period_surds(5, N) + _short_period_surds(7, N)
    cycled = 0
    for x in rationals + surds:
        for alpha in ORBIT_ALPHAS:
            if isinstance(x, nk.Surd) and x.d != 5 and alpha == Alpha.golden():
                continue
            want = _matched_orbits_stepwise(x, alpha, N)
            got = matched_orbits(x, alpha, N)
            assert got.dump_jsonl() == want.dump_jsonl()
            assert q_difference_classify(got) == q_difference_classify(want)
            cycled += isinstance(x, nk.Surd) and len(got.steps) == N
    assert cycled >= 10


def _states():
    """Fraction state pairs of every label, from traces and by construction."""
    rng = random.Random(7)
    pairs = []
    for _ in range(40):
        x = random_rational(rng, max_den=2 ** 64, half=True)
        for alpha in ORBIT_ALPHAS:
            pairs += [(s.x_half, s.x_alpha)
                      for s in matched_orbits(x, alpha, 40).steps]
    for _ in range(200):
        d = rng.randrange(2, 2 ** 40)
        a = rng.randrange(0, d)
        x = Fraction(a, d)
        y = Fraction(rng.randrange(0, d), d)  # most often equal-d drift
        pairs += [(x, x), (x, 1 - x), (1 - x, x), (x, y), (y, x),
                  (x, Fraction(a, d + 1))]
    pairs += [(Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(1)),
              (Fraction(0), Fraction(0))]
    return pairs


def test_integer_classification_agrees_with_value_comparison():
    labels = {"coincide": 0, "reflected": 0, "drift": 0}
    same_den_drift = 0
    for xh, xa in _states():
        want = _classify_by_value(xh, xa)
        assert _classify_state(xh, xa) == want
        labels[want] += 1
        same_den_drift += (want == "drift"
                           and xh.denominator == xa.denominator)
    assert min(labels.values()) >= 100 and same_den_drift >= 100

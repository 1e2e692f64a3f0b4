"""Reference oracles the tests check the package against.

``alpha_step`` steps the alpha-CF map on any value through its operators,
and ``apply_transfer`` applies the transfer operator (+/-) x^k f(1/x).  The
package computes neither: ``cf_core._walk`` steps exact states and ball
ends on ints, and nothing evaluates the transfer operator.  Their ``1 / x``
is ``recip``, as the package's values do not divide.

``finite_minus_partial``, ``truncation_audit`` and ``gap_audit`` are the
audits as they were before they read the values' expansion and kept
tables: each audit walks its own expansion to r_max + 1 (N + 1) digits,
converts the orbit at its own precision and forms every float afresh, and
the truncation kernel builds its rows in one pass and sums each k in
another.  ``finite_minus_partial_resum`` sums a row whose float terms
cancel again as the difference of two ``orbit_pass`` totals, over the
Gauss orbits of p_r/q_r and of [0; a_1, .., a_r + x_r], each stepped by
``alpha_step`` and each point rounded from its exact ratio.

``ball_mpf`` converts a ball as ``numkit.raw_mpf`` did before it
cross-multiplied the ends: from the midpoint as a reduced Fraction.
``orbit_terms`` forms the series terms as ``series_eval`` did before it
read beta itself at k = 1: a log of every point, and beta^k by
``mpf_pow_int`` at every k, k = 1 included, and ``orbit_sum`` adds them up
left to right.  ``orbit_pass`` forms the entries of ``series_eval._pass``
from those terms, each Wilton term negated before it is added.
``functional_eq_residual`` sums those terms at the values' working
precision over its own expansion, each point converted by ``ball_mpf`` or
rounded from the exact orbit.
"""

import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from mpmath import mp
from mpmath.libmp import (fone, from_int, from_rational, fzero, mpf_abs,
                          mpf_add, mpf_cmp, mpf_div, mpf_frexp, mpf_log,
                          mpf_mul, mpf_mul_int, mpf_neg, mpf_pos, mpf_pow_int,
                          mpf_rdiv_int, mpf_sub, round_nearest, to_float,
                          to_rational)

from alphacf import series_eval as se
from alphacf.cf_core import (Alpha, ConvergentSeq, convergents, expand,
                             normalize)
from alphacf.errors import (DivisionByZero, ExpansionTooShort, OutOfDomain,
                            SingularPoint)
from alphacf.numkit import (DEFAULT_PRECISION, BallFloat, ExactNumber, Surd,
                            format_exact, make_surd, raw_mpf)


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


def finite_minus_partial(a: Sequence[int], q: Sequence[int], t: float
                         ) -> dict:
    """``series_eval._finite_minus_partial`` in two passes: the rows of
    per-j factors first, then each k's terms from the rows."""
    r = len(a)
    q_r = q[r + 1]
    big_k, big_l = se._reverse_continuants(a)
    q_bits = q_r.bit_length()
    inv_q = (1 << q_bits) / q_r
    rows = []
    for j in range(r):
        kj, kj1 = big_k[j], big_k[j + 1]
        s = q_bits - kj.bit_length()
        inv_y = kj / kj1
        w = 1 + t * (big_l[j] / kj)
        sign = -1.0 if (r - j) % 2 else 1.0
        z = sign * t * (1 / (kj * kj1)) / w
        rho = q[j] * kj1 / q_r
        u = z * rho
        rows.append((sign, (kj << s) / q_r, s, rho * math.log(inv_y),
                     math.log1p(z) / z if z else 1.0, inv_y / w, u,
                     math.log1p(u)))
    s_last = rows[-1][2]
    scale = t * inv_q * inv_q
    out = {}
    for k in (1, 2, 3):
        top = max(0, (2 - k) * s_last)
        terms = []
        for sign, g, s, rho_log, psi, inv_yw, u, lp in rows:
            em = math.expm1(k * lp)
            phi = em / u if u else k
            terms.append(sign * math.ldexp(
                (phi * rho_log + psi) * inv_yw / (em + 1.0) * g ** (k - 2),
                (2 - k) * s - top))
        total_abs = math.fsum(map(abs, terms)) * scale
        err = (8 * k + 64) * 2.0 ** -52 * total_abs
        out[k] = (math.fsum(terms) * scale, total_abs, err, top - 2 * q_bits)
    return out


def _orbit_end(v: Fraction, n: int, k: int, prec: int) -> tuple:
    """The last ``orbit_pass`` entry at prec over the first n points of
    the Gauss orbit of v, or all of them where it ends sooner."""
    points = []
    while v and len(points) < n:
        points.append((from_rational(v.numerator, v.denominator, prec,
                                     round_nearest), None))
        v = alpha_step(v, Alpha.one())[2]
    return orbit_pass(points, k, prec, 0, (fzero, fzero, fzero, fone))[-1]


def finite_minus_partial_resum(p: Sequence[int], q: Sequence[int], r: int,
                               t, prec: int) -> dict:
    """F_r - P_r at k = 1, 2, 3 as the b totals of the passes over p_r/q_r
    and over (p_r + t p_{r-1})/(q_r + t q_{r-1}) at prec, t the raw mpf
    x_r taken exactly, with |w_F - w_P| as the absolute sum; returned as
    ``finite_minus_partial`` returns it."""
    rnd = round_nearest
    t = Fraction(*to_rational(t))
    y = Fraction(p[r + 1], q[r + 1])
    x = (p[r + 1] + t * p[r]) / (q[r + 1] + t * q[r])
    out = {}
    for k in (1, 2, 3):
        _, b_f, w_f, _ = _orbit_end(y, r, k, prec)
        _, b_p, w_p, _ = _orbit_end(x, r, k, prec)
        m_abs, e = mpf_frexp(mpf_abs(mpf_sub(w_f, w_p, prec, rnd)))
        m, e_total = mpf_frexp(mpf_sub(b_f, b_p, prec, rnd))
        size = to_float(mpf_add(b_f, b_p, prec, rnd), rnd=rnd)
        out[k] = (math.ldexp(to_float(m, rnd=rnd), e_total - e),
                  to_float(m_abs, rnd=rnd),
                  math.ldexp(((2 * k + 2) * r + 16) * size + 20, -prec - e), e)
    return out


def truncation_audit(x: ExactNumber, r_max: int,
                     prec: int = 160) -> list:
    """``series_eval.truncation_audit`` on its own (x, 1, r_max + 1)
    expansion, its orbit converted at prec + 16 bits."""
    rnd = round_nearest
    alpha = Alpha.one()
    xn, _ = normalize(x, alpha)
    e = expand(xn, alpha, r_max + 1)
    depth = e.depth(r_max)
    if depth < 1:
        raise ExpansionTooShort("no expansion steps available")
    c = convergents(e, depth)
    digits = [a for a, _ in e.cycled(e.digits, 0, depth)]
    wp = prec + 16
    vals = e.orbit_mpf(depth, wp)
    cp = se._c_prime(prec)
    scale = {k: mpf_mul_int(cp, 2 * k, wp, rnd) for k in (1, 2, 3)}
    cp_float = to_float(cp, rnd=rnd)
    x_text = format_exact(x)
    reports = []
    for r in range(1, depth + 1):
        q_r = c.q_of(r)
        q_bits = q_r.bit_length()
        x_r = vals[r]
        t = to_float(x_r, rnd=rnd)
        diffs = finite_minus_partial(digits[:r], c.q, t)
        sum_prec = 2 * q_bits + 128
        while (any(err > se._LHS_REL * abs(total)
                   for total, _, err, _ in diffs.values())
               and sum_prec <= 16 * (q_bits + 64)):
            t_raw = raw_mpf(e.orbit_at(r), sum_prec)
            diffs = finite_minus_partial_resum(c.p, c.q, r, t_raw, sum_prec)
            sum_prec *= 2
        raw_q = from_int(q_r)
        bounds = {k: to_float(mpf_div(mpf_mul(s, x_r, wp, rnd), raw_q, wp,
                                      rnd), rnd=rnd)
                  for k, s in scale.items()}
        for k, signed in ((1, False), (2, False), (3, False), (1, True)):
            total, total_abs, err, e_sum = diffs[k]
            lhs = total_abs if signed else abs(total)
            passed = t == 0 or math.ldexp(
                (lhs + err) * (q_r / (1 << q_bits)) / (2 * k * cp_float * t),
                e_sum + q_bits) <= 1
            reports.append(se.TruncationReport(
                x=x_text, r=r, k=k, mode="wilton" if signed else "brjuno",
                lhs=math.ldexp(lhs, e_sum), bound=bounds[k], passed=passed))
    return reports


def _proxy_terms(c: ConvergentSeq, k: int, signed: bool) -> Iterator[float]:
    for j in range(c.n):
        term = math.log(c.q_of(j + 1)) / c.q_of(j) ** k
        yield -term if (signed and j % 2) else term


def gap_audit(samples: Sequence[ExactNumber], alpha: Alpha, k: int = 1,
              N: int = 60, mode: str = "brjuno"):
    """``series_eval.gap_audit`` on its own (x, alpha, N + 1) expansions,
    its orbit converted at 96 bits and every proxy term formed afresh."""
    signed = mode == "wilton"
    sup_gap = 0.0
    sup_cross = 0.0
    one = Alpha.one()
    for x in samples:
        xa, _ = normalize(x, alpha)
        if not xa:
            raise SingularPoint("gap audit of an integer point")
        e = expand(xa, alpha, N + 1)
        depth = e.depth(N)
        c = convergents(e, depth)
        vals = [float(mp.make_mpf(v)) for v in e.orbit_mpf(depth - 1, 96)]
        beta = 1.0
        series = 0.0
        proxy = 0.0
        gap = 0.0
        series_partials = []
        for j, pterm in enumerate(_proxy_terms(c, k, signed)):
            sterm = (beta ** k) * math.log(1 / vals[j])
            if signed and j % 2:
                sterm = -sterm
            series += sterm
            proxy += pterm
            beta *= vals[j]
            series_partials.append(series)
            gap = max(gap, abs(series - proxy))
        sup_gap = max(sup_gap, gap)
        if alpha == one:
            sup_cross = sup_gap
            continue
        x1, _ = normalize(x, one)
        e1 = expand(x1, one, N + 1)
        c1 = convergents(e1, min(depth, e1.depth(N)))
        proxy1 = 0.0
        gap_cross = 0.0
        for j, pterm in enumerate(_proxy_terms(c1, k, signed)):
            proxy1 += pterm
            gap_cross = max(gap_cross, abs(series_partials[j] - proxy1))
        sup_cross = max(sup_cross, gap_cross)
    return se.GapAuditResult(sup_gap=sup_gap, sup_gap_cross=sup_cross,
                             alpha=str(alpha), k=k, N=N, mode=mode)


def ball_mpf(x: BallFloat, prec: int):
    """x's exact midpoint (lo + hi)/2, a reduced Fraction, rounded to
    nearest at prec as a raw mpf."""
    lo, hi = x.ends
    mid = (lo + hi) / 2
    return from_rational(mid.numerator, mid.denominator, prec, round_nearest)


def orbit_terms(vals, k: int, signed: bool, prec: int) -> Iterator:
    """beta_{n-1}^k * log(1/x_n) for the raw mpfs vals = x_0, x_1, .., each
    negated at odd n if signed, with its own log of every point."""
    rnd = round_nearest
    beta = fone
    for n, v in enumerate(vals):
        lg = mpf_log(mpf_rdiv_int(1, v, prec, rnd), prec, rnd)
        term = mpf_mul(mpf_pow_int(beta, k, prec, rnd), lg, prec, rnd)
        yield mpf_neg(term, prec, rnd) if signed and n % 2 else term
        beta = mpf_mul(beta, v, prec, rnd)


def orbit_sum(vals, k: int, signed: bool, prec: int):
    """Left-to-right total of the ``orbit_terms`` of vals at prec."""
    total = fzero
    for term in orbit_terms(vals, k, signed, prec):
        total = mpf_add(total, term, prec, round_nearest)
    return total


def orbit_pass(points, k: int, prec: int, n: int, entry: tuple,
               tol=None) -> list:
    """``series_eval._pass`` from the ``orbit_terms`` way of forming a term:
    its own log of every point x of the pairs (x, log) in points (the log
    is not read), beta^k by a power at
    every k, and each total the chain of its terms, a Wilton term negated
    at odd n before it is added.  Given tol, it stops after the first
    entry whose term is below tol in size."""
    rnd = round_nearest
    _, b, w, beta = entry
    out = []
    for v, _ in points:
        lg = mpf_log(mpf_rdiv_int(1, v, prec, rnd), prec, rnd)
        term = mpf_mul(mpf_pow_int(beta, k, prec, rnd), lg, prec, rnd)
        b = mpf_add(b, term, prec, rnd)
        w = mpf_add(w, mpf_neg(term, prec, rnd) if n % 2 else term, prec,
                    rnd)
        beta = mpf_mul(beta, v, prec, rnd)
        out.append((term, b, w, beta))
        if tol is not None and mpf_cmp(mpf_abs(term), tol) < 0:
            break
        n += 1
    return out


def functional_eq_residual(x: ExactNumber, alpha: Alpha, mode: str = "brjuno",
                           N: int = 50, k: int = 1,
                           prec: int = DEFAULT_PRECISION):
    """S_N(x) + log x_0 -/+ x_0^k S_{N-1}(A_alpha x) at prec + 32 bits, the
    values' working precision, rounded to prec: the points x_0..x_{N-1} of
    its own (x, alpha, N + 1) expansion, a ball's by ``ball_mpf`` and an
    exact one's rounded once, and the sums of their ``orbit_terms``."""
    rnd = round_nearest
    wp = prec + 32
    signed = mode == "wilton"
    if signed:
        k = 1
    xn, _ = normalize(x, alpha)
    e = expand(xn, alpha, N + 1, best_effort=True)
    vals = [ball_mpf(v, wp) if isinstance(v, BallFloat) else raw_mpf(v, wp)
            for v in (e.orbit_at(j) for j in range(N))]
    x0 = vals[0]
    head = mpf_add(orbit_sum(vals, k, signed, wp), mpf_log(x0, wp, rnd), wp,
                   rnd)
    shift = mpf_mul(mpf_pow_int(x0, k, wp, rnd),
                    orbit_sum(vals[1:], k, signed, wp), wp, rnd)
    res = (mpf_add if signed else mpf_sub)(head, shift, wp, rnd)
    return mp.make_mpf(mpf_pos(res, prec, rnd))

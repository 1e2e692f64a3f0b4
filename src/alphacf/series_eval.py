"""Evaluators for the k-Brjuno and Wilton series and their audits.

The k-Brjuno series sums beta_{n-1}^k * log(1/x_n) over the alpha-CF orbit
of x; the Wilton series is its alternating-sign variant.  Both satisfy a
one-step functional equation (S(x) = -log x +/- x^k S(A_alpha x)) that the
residual operation measures, and both admit exact closed-form tails on
eventually periodic (quadratic surd) orbits.  Rational points diverge; the
sanctioned rational-input API is the pair of finite truncations defined over
the regular (alpha = 1) continued fraction.

Every mp-precision sum over an orbit reads one kernel, ``_pass``: a running
pass whose entry n holds the unsigned term beta_{n-1}^k * log(1/x_n), the
running total of the terms and the running total with the Wilton sign
(-1)^n, and beta_n, so a sum reads a total instead of adding terms, and a
closed form's tail reads two totals and two betas.  A pass over an
expansion's orbit is kept on the expansion (see ``CFExpansion.kept``), one
per (k, start point, precision), and run on only as far as a reader asks, in
one call: to a given length, or for a sum that stops at tol, through its
first term under tol.  That call reads the stored points in one loop, each
as its kept pair (x_i, log(1/x_i)), else its kept conversion and one log,
else one new conversion and one log, and keeps what it formed when the pass
stops, so a point is converted and logged once per precision, and none past
a sum's stop is.  So ``brjuno_k`` at k = 1 and ``wilton`` read one pass,
and the residual works at the values' precision and reads their pass for S_N
and one pass from x_1, which its two modes share, for S_{N-1}.  The finite
truncations of a rational read its alpha = 1 expansion and the pass kept on
it, so one rational's B_1 and W read one pass's two totals.

All of it works on raw ``mpmath.libmp`` mpf tuples at a precision passed
explicitly, rounding to nearest.  Each raw call is the one mpmath's mpf
operator makes for the same expression, so the bits equal mp-context
arithmetic at that precision; results become ``mp.mpf`` only when returned.
Nothing reads or sets mpmath's global precision, so series values are the
same in threads as serially.

The audits read the values' expansion of x, and the truncation audit its
conversion at the values' working precision, so one point's orbit is
walked and converted once.  The truncation audit sums the difference,
about 1/q_r^2, of the finite value at p_r/q_r and the r-term partial sum
from exact term differences in integer continuants, a row's k = 1, 2, 3
terms in one pass, in floats whose binary exponents are carried as ints; a
row whose terms cancel it takes as the difference of the passes over
p_r/q_r and [0; a_1, .., a_r + x_r] at 2 bits(q_r) + 128 bits or more.
The gap audit sums floats: the unsigned series terms, from each orbit
point rounded once to a float, and the unsigned proxy terms, both kept on
the expansion one list per k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence

from mpmath import mp
from mpmath.libmp import (
    finf,
    fone,
    from_float,
    from_int,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_frexp,
    mpf_gt,
    mpf_log,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pos,
    mpf_pow_int,
    mpf_rdiv_int,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_float,
    to_rational,
)

from .cf_core import (
    Alpha,
    CFExpansion,
    _expand_exact,
    convergents,
    expand,
    normalize,
)
from .errors import (
    DivergesAtRational,
    ExpansionTooShort,
    OutOfDomain,
    PrecisionExhausted,
    SingularPoint,
)
from .numkit import (
    DEFAULT_PRECISION,
    ExactNumber,
    format_exact,
    raw_mpf,
)

DEFAULT_TERMS = 256
DEFAULT_TOL = 1e-40

_GOLDEN_F = (5 ** 0.5 - 1) / 2
_RND = round_nearest
# guard bits of the values' and the residual's working precision over prec
_GUARD = 32
_VALUES_WP = DEFAULT_PRECISION + _GUARD  # the audits' orbit points


def _check_prec(prec: int) -> None:
    if prec < 1:
        raise OutOfDomain("prec must be >= 1")


def _c_prime(prec: int):
    root = mpf_sqrt(from_int(5), prec, _RND)
    return mpf_div(mpf_add(root, from_int(3), prec, _RND), from_int(2), prec,
                   _RND)


def c_prime(prec: int = DEFAULT_PRECISION):
    """C' = sum of g^j = 1/(1 - g) = (3 + sqrt(5))/2, the contraction constant."""
    _check_prec(prec)
    return mp.make_mpf(_c_prime(prec))


@dataclass
class SeriesValue:
    """A truncated series evaluation with its tail bookkeeping.

    ``exhausted`` is set when the sum used every certified orbit point
    before its terms fell below tol or reached the terms cap, so the stored
    orbit, not the series, limited it.
    """

    value: object  # mpf
    n_terms: int
    tail_estimate: float
    rigorous_tail: bool
    mode: str
    exhausted: bool


@dataclass
class TruncationReport:
    """One check of the finite-vs-partial truncation bound at a convergent."""

    x: str
    r: int
    k: int
    mode: str
    lhs: float
    bound: float
    passed: bool


def _irrational(x: ExactNumber, alpha: Alpha):
    """x reduced into [0, alpha]; rational and integer points raise."""
    xn, _ = normalize(x, alpha)
    if isinstance(xn, Fraction):
        if xn == 0:
            raise SingularPoint("series evaluator at an integer point")
        raise DivergesAtRational(
            "series diverges at rationals; use the -finite variants"
        )
    if not xn:
        raise SingularPoint("series evaluator at an exact zero")
    return xn


def _prepare(x: ExactNumber, alpha: Alpha, terms: int):
    if terms < 1:
        raise OutOfDomain("terms must be >= 1")
    # the orbit of an irrational point never hits zero
    return expand(_irrational(x, alpha), alpha, terms, best_effort=True)


def _expand_to(xn: ExactNumber, alpha: Alpha, need: int) -> CFExpansion:
    """xn's expansion to max(need, DEFAULT_TERMS) digits, the values' cap,
    so after ``brjuno_k`` or ``wilton`` at xn it is the one they read.  Any
    cap of at least need gives the same first need digits and points, and
    a ball certified to fewer than need digits raises PrecisionExhausted."""
    e = expand(xn, alpha, max(need, DEFAULT_TERMS), best_effort=True)
    if e.exhausted and len(e.digits) < need:
        raise PrecisionExhausted(
            f"float orbit certified to {len(e.digits)} of {need} digits "
            f"({xn.prec}-bit input)")
    return e


def _log_inv(v, prec: int):
    """log(1/v) of a raw mpf v, rounded to nearest at prec."""
    return mpf_log(mpf_rdiv_int(1, v, prec, _RND), prec, _RND)


# the entry before a pass's first: no term, both totals 0, beta_{-1} = 1
_START = (fzero, fzero, fzero, fone)


def _pass(points: Iterable, k: int, prec: int, n: int, entry: tuple,
          tol=None) -> list:
    """Entries n, n + 1, .. of a running pass, one per pair (x, log(1/x))
    of points, continuing from entry, the pass's entry n - 1 (``_START`` at
    n = 0); given a raw mpf tol, the pass stops after the first entry whose
    term < tol, and reads no point past it.

    Entry n is (term, b, w, beta): the term beta_{n-1}^k * log(1/x_n), never
    negative as x_n is in (0, 1], the running totals b of the terms and w of
    the terms each negated at odd n (the Wilton sign), and beta_n, which the
    next term reads.  All are raw mpfs rounded to nearest at prec, and each
    total is the left-to-right chain of adds over its terms.  beta is formed
    at prec, so its first power is beta itself and k = 1 takes no power.
    """
    _, b, w, beta = entry
    out = []
    for v, log in points:
        power = beta if k == 1 else mpf_pow_int(beta, k, prec, _RND)
        term = mpf_mul(power, log, prec, _RND)
        b = mpf_add(b, term, prec, _RND)
        w = (mpf_sub if n % 2 else mpf_add)(w, term, prec, _RND)
        beta = mpf_mul(beta, v, prec, _RND)
        out.append((term, b, w, beta))
        if tol is not None and mpf_lt(term, tol):
            break
        n += 1
    return out


def _run(e: CFExpansion, k: int, start: int, n: int, prec: int, tol=None):
    """The ``_pass`` over x_start, x_start+1, .. of e at prec, kept on e
    under ("run", k, start, prec) and run on in one call to n entries or,
    given tol, through the first whose term < tol; given tol, also the
    index where this call's own pass began, n if it formed none.

    One loop feeds the pass the stored points that ``cycled`` gives: each
    point's kept pair (x_i, log(1/x_i)) from ("log", prec), else its kept
    conversion from ("mpf", prec) and one log, else one new ``point_mpf``
    conversion and one log, both tables as they stood when the call began.
    What it formed is kept once the pass stops, each table run on by the
    entries past it as it stands then.
    """
    begun = [n]  # where this call's own pass began

    def more(table, stop):
        begun[0] = len(table)
        vals = list(e._tables.get(("mpf", prec), []))
        pairs = e._tables.get(("log", prec), [])[:len(vals)]  # none past vals
        had = len(pairs)

        def points():
            for i in e.cycled(range(e.points), start + len(table),
                              start + stop):
                while len(pairs) <= i:  # a start past x_0 fills x_0 first
                    if len(vals) == len(pairs):
                        vals.append(e.point_mpf(len(vals), prec))
                    v = vals[len(pairs)]
                    pairs.append((v, _log_inv(v, prec)))
                yield pairs[i]
        entries = _pass(points(), k, prec, len(table),
                        table[-1] if table else _START, tol)
        if len(pairs) > had:
            for key, new in (("mpf", vals), ("log", pairs)):
                e.kept((key, prec), len(new),
                       lambda old, stop, new=new: new[len(old):stop])
        return entries
    table = e.kept(("run", k, start, prec), n, more)
    return table if tol is None else (table, begun[0])


def _proxy_term(log_q: float, q: int, k: int) -> float:
    """log_q / q^k; where q^k passes the float range, q's binary exponent s
    is carried apart, as log_q (2^s/q)^k 2^-sk."""
    try:
        return log_q / q ** k
    except OverflowError:
        s = q.bit_length()
        return math.ldexp(log_q * ((1 << s) / q) ** k, -s * k)


def _proxy(e: CFExpansion, k: int, n: int) -> list:
    """log(q_{j+1}) / q_j^k for j = 0..n-1 over e's convergents, unsigned;
    ExpansionTooShort if e has fewer than n digits."""
    def more(table, stop):
        q = convergents(e, stop).q  # q[j + 1] = q_j
        return [_proxy_term(math.log(q[j + 2]), q[j + 1], k)
                for j in range(len(table), stop)]
    return e.kept(("proxy", k), n, more)[:n]


def _float_terms(e: CFExpansion, k: int, n: int) -> list:
    """beta_{j-1}^k log(1/x_j) for j = 0..n-1 over e's orbit, unsigned, in
    floats, each stored point rounded once from its exact value at 53 bits;
    a longer table is formed again from x_0, with the same bits."""
    def more(table, stop):
        xs = [to_float(raw_mpf(v, 53), rnd=_RND)
              for v in e.orbit[:min(stop, e.points)]]
        beta, terms = 1.0, []
        for v in e.cycled(xs, 0, stop):
            terms.append(beta ** k * math.log(1 / v))
            beta *= v
        return terms[len(table):]
    return e.kept(("float", k), n, more)[:n]


def _partial_sums(terms: Sequence[float], signed: bool) -> list:
    """Running totals of float terms, each negated at odd j if signed, in
    plain adds left to right: sum() compensates on Python 3.12 and later."""
    return list(accumulate(-t if signed and j % 2 else t
                           for j, t in enumerate(terms)))


def _series_value(e: CFExpansion, k: int, signed: bool, terms: int, tol: float,
                  prec: int, mode: str) -> SeriesValue:
    """Left-to-right partial sum, with an exact geometric tail on periodic
    orbits whose block and ratio are the pass's at the period's two ends."""
    _check_prec(prec)
    wp = prec + _GUARD
    total_at = 2 if signed else 1  # the entry's w or b
    if e.period is not None:
        pre, length = e.period
        n_explicit = pre + length
        run = _run(e, k, 0, n_explicit, wp)
        before, end = run[pre - 1] if pre else _START, run[n_explicit - 1]
        block = mpf_sub(end[total_at], before[total_at], wp, _RND)
        ratio = mpf_pow_int(mpf_div(end[3], before[3], wp, _RND), k, wp, _RND)
        if signed and length % 2:
            ratio = mpf_neg(ratio, wp, _RND)
        tail = mpf_div(mpf_mul(block, ratio, wp, _RND),
                       mpf_sub(fone, ratio, wp, _RND), wp, _RND)
        total = mpf_add(end[total_at], tail, wp, _RND)
        return SeriesValue(value=mp.make_mpf(mpf_pos(total, prec, _RND)),
                           n_terms=n_explicit, tail_estimate=0.0,
                           rigorous_tail=True, mode=mode, exhausted=False)

    # the orbit never hits zero, so every stored point is a term
    n_max = min(terms, len(e.orbit))
    raw_tol = from_float(float(tol))
    # a run-on's pass tested the entries it formed, from begun on
    run, begun = _run(e, k, 0, 0, wp), n_max
    size, monotone, exhausted = finf, True, False
    for n in range(n_max):
        if n == len(run):  # none under tol yet: one call runs on to the stop
            run, begun = _run(e, k, 0, n_max, wp, raw_tol)
        if signed:
            monotone = monotone and not mpf_gt(run[n][0], size)
        size = run[n][0]  # a term is its own size: it is never negative
        if begun <= n < len(run) - 1:
            continue  # not under tol, as its pass went on
        if begun <= n < n_max - 1 or mpf_lt(size, raw_tol):
            break  # under tol: where a run-on stopped short of n_max
    else:
        exhausted = n_max < terms
    gk = _GOLDEN_F ** k
    last = to_float(size, rnd=_RND)
    if signed and monotone:
        tail = last  # alternating series with shrinking terms
    else:
        tail = last * gk / (1 - gk)
    return SeriesValue(value=mp.make_mpf(mpf_pos(run[n][total_at], prec,
                                                 _RND)),
                       n_terms=n + 1, tail_estimate=tail, rigorous_tail=False,
                       mode=mode, exhausted=exhausted)


def brjuno_k(x: ExactNumber, alpha: Alpha, k: int = 1, terms: int = DEFAULT_TERMS,
             tol: float = DEFAULT_TOL, prec: int = DEFAULT_PRECISION
             ) -> SeriesValue:
    """k-Brjuno value at x over the alpha-CF orbit.

    Periodic (surd) inputs get their tail summed in closed form and come back
    flagged rigorous; float inputs carry a heuristic tail estimate.  Rational
    inputs raise DivergesAtRational.
    """
    if k < 1:
        raise OutOfDomain("k must be >= 1")
    e = _prepare(x, alpha, terms)
    return _series_value(e, k, signed=False, terms=terms, tol=tol, prec=prec,
                         mode=f"brjuno({k})")


def wilton(x: ExactNumber, alpha: Alpha, terms: int = DEFAULT_TERMS,
           tol: float = DEFAULT_TOL, prec: int = DEFAULT_PRECISION
           ) -> SeriesValue:
    """Wilton value at x: the alternating-sign partner of the Brjuno series."""
    e = _prepare(x, alpha, terms)
    return _series_value(e, 1, signed=True, terms=terms, tol=tol, prec=prec,
                         mode="wilton")


def _finite_rational(fr, k: int, signed: bool, prec: int):
    """The sum over the terminating regular-CF orbit of fr - floor(fr): the
    last entry of the pass over its alpha = 1 expansion, which Euclid's
    bound ends within 2 log_2 q + 2 digits."""
    if not isinstance(fr, (int, Fraction)):
        raise OutOfDomain("finite truncations take an int or a Fraction, "
                          f"not a {type(fr).__name__}")
    _check_prec(prec)
    fr = Fraction(fr)
    e = expand(fr - math.floor(fr), Alpha.one(),
               2 * fr.denominator.bit_length() + 2)
    n = len(e.digits)
    end = _run(e, k, 0, n, prec + 16)[n - 1] if n else _START
    return mp.make_mpf(mpf_pos(end[2 if signed else 1], prec, _RND))


def brjuno_finite_rational(p_over_q: Fraction, k: int = 1,
                           prec: int = DEFAULT_PRECISION):
    """Finite k-Brjuno value of a rational over its terminating Gauss orbit.

    Integers give the empty sum 0, and anything but an int or a Fraction
    raises OutOfDomain.  The underlying expansion always uses the regular
    (alpha = 1) continued fraction with final digit >= 2, which the Gauss
    orbit of a reduced rational produces on its own.
    """
    if k < 1:
        raise OutOfDomain("k must be >= 1")
    return _finite_rational(p_over_q, k, signed=False, prec=prec)


def wilton_finite_rational(p_over_q: Fraction, prec: int = DEFAULT_PRECISION):
    """Finite Wilton value of a rational (alternating-sign finite sum)."""
    return _finite_rational(p_over_q, 1, signed=True, prec=prec)


def proxy_sum(x: ExactNumber, alpha: Alpha, k: int = 1, N: int = 20,
              alternating: bool = False) -> float:
    """sum_{j<N} (+/-1)^j log(q_{j+1}) / q_j^k over the alpha-CF denominators."""
    if k < 1:
        raise OutOfDomain("k must be >= 1")
    if N < 0:
        raise OutOfDomain("N must be >= 0")
    if N == 0:
        return 0.0
    xn, _ = normalize(x, alpha)
    if not xn:
        raise SingularPoint("proxy sum of an integer point")
    # ExpansionTooShort if the expansion ends
    return _partial_sums(_proxy(expand(xn, alpha, N), k, N), alternating)[-1]


def functional_eq_residual(x: ExactNumber, alpha: Alpha, mode: str = "brjuno",
                           N: int = 50, k: int = 1,
                           prec: int = DEFAULT_PRECISION):
    """Residual of the one-step functional equation on N-term partial sums.

    residual = S_N(x) + log x -/+ x^k S_{N-1}(A_alpha x), with k = 1 in the
    Wilton mode; algebraically zero, so the returned value measures only
    arithmetic rounding.  Both partial
    sums work at the values' precision, prec + ``_GUARD``: after
    ``brjuno_k`` or ``wilton`` at x they read the values' expansion (see
    ``_expand_to``), conversions, log list and pass, S_N as its total at
    N - 1, and take only log x_0.  S_{N-1}(A_alpha x) is the total of the
    pass from x_1, which the two modes share.
    """
    if N < 1:
        raise OutOfDomain("N must be >= 1")
    if mode not in ("brjuno", "wilton"):
        raise OutOfDomain(f"unknown mode {mode!r}")
    if k < 1:
        raise OutOfDomain("k must be >= 1")
    _check_prec(prec)
    if mode == "wilton" and k != 1:
        raise OutOfDomain("the Wilton residual takes k = 1 only")
    e = _expand_to(_irrational(x, alpha), alpha, N)
    wp = prec + _GUARD
    total_at = 2 if mode == "wilton" else 1  # the entry's w or b
    run = _run(e, k, 0, N, wp)  # entry 0's beta is x_0 itself
    s_n, x0 = run[N - 1][total_at], run[0][3]
    s_shift = (_run(e, k, 1, N - 1, wp)[N - 2][total_at] if N > 1
               else fzero)
    head = mpf_add(s_n, mpf_log(x0, wp, _RND), wp, _RND)
    if mode == "brjuno":
        res = mpf_sub(head, mpf_mul(mpf_pow_int(x0, k, wp, _RND), s_shift,
                                    wp, _RND), wp, _RND)
    else:
        res = mpf_add(head, mpf_mul(x0, s_shift, wp, _RND), wp, _RND)
    return mp.make_mpf(mpf_pos(res, prec, _RND))


# relative accuracy of a truncation audit's lhs: a float sum whose error
# bound exceeds it is summed again in mp arithmetic
_LHS_REL = 2.0 ** -32

# the audit's modes, (k, signed): k-Brjuno at k = 1, 2, 3, then Wilton
_AUDIT_MODES = ((1, False), (2, False), (3, False), (1, True))


def _reverse_continuants(a: Sequence[int]) -> tuple[list, list]:
    """K_j = K(a_{j+1..r}) and L_j = K(a_{j+1..r-1}) for j = 0..r+1.

    a holds a_1..a_r; K_r = 1, L_r = 0, and K_{r+1} = 0, L_{r+1} = 1 seed
    the backward recurrence, so K_0 = q_r and L_0 = q_{r-1}.
    """
    r = len(a)
    big_k = [0] * r + [1, 0]
    big_l = [0] * r + [0, 1]
    for j in range(r - 1, -1, -1):
        big_k[j] = a[j] * big_k[j + 1] + big_k[j + 2]
        big_l[j] = a[j] * big_l[j + 1] + big_l[j + 2]
    return big_k, big_l


def _finite_minus_partial(a: Sequence[int], q: Sequence[int], t: float
                          ) -> dict:
    """F_r - P_r for x = [0; a_1, .., a_r + t], summed from exact differences.

    F_r is the finite k-Brjuno value at p_r/q_r = [0; a_1..a_r] and P_r the
    r-term orbit sum of x.  With the reverse continuants K_j, L_j, the Gauss
    orbit of p_r/q_r is y_j = K_{j+1}/K_j with beta_{j-1}(y) = K_j/q_r, and
    x_j - y_j = (-1)^(r-j) t / (K_j (K_j + t L_j)).  Term j of F_r - P_r is
    beta_{j-1}(x)^k (expm1(k log1p u_j) log(K_j/K_{j+1}) + log1p(z_j)) with
    z_j = (x_j - y_j)/y_j, u_j = rho_j z_j and rho_j = q_{j-1} K_{j+1}/q_r,
    which equals (-1)^(r-j) t 2^((2-k) s_j) A_j / q_r^2 once K_j/q_r = g_j
    2^-s_j.  Every factor of A_j > 0 is a float of moderate size formed from
    an int ratio, so nothing overflows or loses its exponent, whatever q_r
    is.  The Wilton sign (-1)^j turns every term's sign into (-1)^r, so at
    k = 1 the Wilton |F_r - P_r| is the terms' absolute sum.

    a holds a_1..a_r and q the denominators q_{-1}, q_0, .. (q[j] =
    q_{j-1}).  Returns {k: (total, total_abs, err, e)}: F_r - P_r is total
    2^e to within err 2^e, and its terms' absolute sum is total_abs 2^e.
    """
    r = len(a)
    q_r = q[r + 1]
    big_k, big_l = _reverse_continuants(a)
    q_bits = q_r.bit_length()
    inv_q = (1 << q_bits) / q_r  # 1/q_r = inv_q 2^-q_bits
    # 2^((2-k) s_j) peaks at j = 0 (s_0 = 0) for k >= 2, and for k = 1 at
    # j = r-1, where K_{r-1} = a_r
    top = q_bits - a[-1].bit_length()
    terms1, terms2, terms3 = [], [], []
    for j in range(r):
        kj, kj1 = big_k[j], big_k[j + 1]
        s = q_bits - kj.bit_length()
        inv_y = kj / kj1
        w = 1 + t * (big_l[j] / kj)  # (K_j + t L_j) / K_j
        sign = -1.0 if (r - j) % 2 else 1.0
        z = sign * t * (1 / (kj * kj1)) / w
        rho = q[j] * kj1 / q_r
        u = z * rho
        g = (kj << s) / q_r
        rho_log = rho * math.log(inv_y)
        psi = math.log1p(z) / z if z else 1.0
        inv_yw = inv_y / w
        lp = math.log1p(u)
        # k = 1, 2, 3 in turn, with em = (1 + u)^k - 1 and phi = em/u; at
        # k = 2 the factors g^0 and 2^0 are 1
        em = math.expm1(lp)
        terms1.append(sign * math.ldexp(
            ((em / u if u else 1) * rho_log + psi) * inv_yw / (em + 1.0)
            * g ** -1, s - top))
        em = math.expm1(2 * lp)
        terms2.append(sign * (((em / u if u else 2) * rho_log + psi) * inv_yw
                              / (em + 1.0)))
        em = math.expm1(3 * lp)
        terms3.append(sign * math.ldexp(
            ((em / u if u else 3) * rho_log + psi) * inv_yw / (em + 1.0) * g,
            -s))
    scale = t * inv_q * inv_q
    out = {}
    for k, top, terms in ((1, top, terms1), (2, 0, terms2), (3, 0, terms3)):
        total_abs = math.fsum(map(abs, terms)) * scale
        # each term rounds about 30 + 3k times; fsum rounds once
        err = (8 * k + 64) * 2.0 ** -52 * total_abs
        out[k] = (math.fsum(terms) * scale, total_abs, err, top - 2 * q_bits)
    return out


def _finite_minus_partial_resum(c, r: int, x_r, prec: int) -> dict:
    """``_finite_minus_partial`` from two running passes at prec, for a row
    whose float terms cancel; c holds x's convergents.  With t the exact
    dyadic x_r rounded at prec, F_r is the last entry of the pass over y =
    p_r/q_r and P_r entry r - 1 of the pass over x' = (p_r + t p_{r-1})/(q_r
    + t q_{r-1}) = [0; a_1, .., a_r + t], the x the float kernel models.
    Their b totals give F_r - P_r, their w totals the differences' absolute
    sum, as with the Wilton sign each has the sign (-1)^r.

    With u = 2^-prec, a pass of n entries rounds each point, 1/x_j, log and
    product once: log(1/x_j) is off by 2u of itself plus 2.2u, beta_{j-1}^k
    by (2j + 1)ku, the adds by nub; as x_j x_{j+1} < 1/2 the betas^k sum to
    4 at most, so a pass is off by u(((2k + 1)n + 5)b + 9) at most.
    Rounding t moves each difference by under 4u of itself, and those sum
    to at most b_F + b_P, the passes' terms being unsigned.  So err is
    2^-prec (((2k + 2)r + 16)(b_F + b_P) + 20), and e is |w_F - w_P|'s.
    """
    t = Fraction(*to_rational(raw_mpf(x_r, prec)))
    # one-shot expansions, kept out of expand's memo; y ends within r digits
    pair = [_expand_exact(v, Alpha.one(), r) for v in (
        Fraction(c.p[r + 1], c.q[r + 1]),
        (c.p[r + 1] + t * c.p[r]) / (c.q[r + 1] + t * c.q[r]))]
    out = {}
    for k in (1, 2, 3):
        (_, b_f, w_f, _), (_, b_p, w_p, _) = (
            _run(ex, k, 0, len(ex.digits), prec)[-1] for ex in pair)
        m_abs, e = mpf_frexp(mpf_abs(mpf_sub(w_f, w_p, prec, _RND)))
        m, e_total = mpf_frexp(mpf_sub(b_f, b_p, prec, _RND))
        size = to_float(mpf_add(b_f, b_p, prec, _RND), rnd=_RND)
        out[k] = (math.ldexp(to_float(m, rnd=_RND), e_total - e),
                  to_float(m_abs, rnd=_RND),
                  math.ldexp(((2 * k + 2) * r + 16) * size + 20, -prec - e), e)
    return out


def truncation_audit(x: ExactNumber, r_max: int,
                     prec: int = 160) -> list[TruncationReport]:
    """Truncation checks |F_r - P_r| <= 2kC' x_r / q_r for r = 1..r_max.

    Stated for the regular continued fraction (alpha = 1).  Each r is
    checked for the k-Brjuno series at k = 1, 2, 3 and for the Wilton
    series, which uses the k = 1 constant, in that order.

    The lhs |F_r - P_r| (finite value at p_r/q_r minus the r-term orbit sum
    of x) is summed from its exact term differences, which
    ``_finite_minus_partial`` forms in floats from integer continuants and
    x_r, with their binary exponents carried as ints, so any q_r is in
    range and no mp log is taken.  Where the terms cancel so far that the
    float sum's error bound passes 2^-32 of it, that r is summed again by
    ``_finite_minus_partial_resum`` from two passes, at 2 bits(q_r) + 128
    bits, doubled while its own bound passes 2^-32 of it, up to 16
    (bits(q_r) + 64), so every lhs is good to about 2^-32 relative.  The
    bound 2kC' x_r / q_r is rounded to nearest at prec + 16 bits, from x_r
    as the values convert it (``_VALUES_WP``) or at prec + 16 where that is
    higher; the orbit is the values' (see ``_expand_to``).  An entry passes
    only if lhs/bound plus the sum's error bound over bound stays <= 1, so
    a near-tie reads as a violation.
    """
    if r_max < 1:
        raise OutOfDomain("r_max must be >= 1")
    _check_prec(prec)
    alpha = Alpha.one()
    xn, _ = normalize(x, alpha)
    e = _expand_to(xn, alpha, r_max + 1)
    depth = e.depth(r_max)
    if depth < 1:
        raise ExpansionTooShort("no expansion steps available")
    c = convergents(e, depth)
    digits = [a for a, _ in e.cycled(e.digits, 0, depth)]
    wp = prec + 16
    vals = e.orbit_mpf(depth, max(wp, _VALUES_WP))
    # 2kC' at k = 1 and 3, so a bound below is (2kC' * x_r) / q_r; 4C' is
    # 2C' doubled, exactly, and so is the k = 2 bound
    cp = _c_prime(prec)
    scale = {k: mpf_mul_int(cp, 2 * k, wp, _RND) for k in (1, 3)}
    cp_float = to_float(cp, rnd=_RND)
    x_text = format_exact(x)
    reports = []
    for r in range(1, depth + 1):
        q_r = c.q_of(r)
        q_bits = q_r.bit_length()
        x_r = vals[r]
        t = to_float(x_r, rnd=_RND)
        diffs = _finite_minus_partial(digits[:r], c.q, t)
        sum_prec = 2 * q_bits + 128
        while (any(err > _LHS_REL * abs(total)
                   for total, _, err, _ in diffs.values())
               and sum_prec <= 16 * (q_bits + 64)):
            diffs = _finite_minus_partial_resum(c, r, e.orbit_at(r), sum_prec)
            sum_prec *= 2
        raw_q = from_int(q_r)
        b1, b3 = (mpf_div(mpf_mul(s, x_r, wp, _RND), raw_q, wp, _RND)
                  for s in scale.values())
        bounds = {k: to_float(b, rnd=_RND)
                  for k, b in ((1, b1), (2, mpf_shift(b1, 1)), (3, b3))}
        for k, signed in _AUDIT_MODES:
            total, total_abs, err, e_sum = diffs[k]
            lhs = total_abs if signed else abs(total)
            # lhs/bound = lhs 2^e_sum q_r / (2kC' x_r)
            passed = t == 0 or math.ldexp(
                (lhs + err) * (q_r / (1 << q_bits)) / (2 * k * cp_float * t),
                e_sum + q_bits) <= 1
            reports.append(TruncationReport(
                x=x_text, r=r, k=k, mode="wilton" if signed else "brjuno",
                lhs=math.ldexp(lhs, e_sum), bound=bounds[k], passed=passed))
    return reports


@dataclass
class GapAuditResult:
    sup_gap: float
    sup_gap_cross: float
    alpha: str
    k: int
    N: int
    mode: str


def gap_audit(samples: Sequence[ExactNumber], alpha: Alpha, k: int = 1,
              N: int = 60, mode: str = "brjuno") -> GapAuditResult:
    """Sup over samples and depths <= N of |partial series - proxy sum|.

    Reports both the same-alpha gap and the cross-alpha variant against the
    regular-CF proxy; at alpha = 1 the two are the same pass.  After the
    values at x it reads their expansion (see ``_expand_to``) and the
    unsigned float series and proxy terms kept there, so the Brjuno and
    Wilton audits and the cross pass form each term, and round each orbit
    point to a float, once.
    """
    if k < 1:
        raise OutOfDomain("k must be >= 1")
    if N < 1:
        raise OutOfDomain("N must be >= 1")
    if mode not in ("brjuno", "wilton"):
        raise OutOfDomain(f"unknown mode {mode!r}")
    signed = mode == "wilton"
    sup_gap = 0.0
    sup_cross = 0.0
    one = Alpha.one()
    for x in samples:
        xa, _ = normalize(x, alpha)
        if not xa:
            raise SingularPoint("gap audit of an integer point")
        e = _expand_to(xa, alpha, N + 1)
        depth = e.depth(N)
        # partial series and proxy sums, depth by depth
        series = _partial_sums(_float_terms(e, k, depth), signed)
        proxy = _partial_sums(_proxy(e, k, depth), signed)
        sup_gap = max(sup_gap, *(abs(s - p) for s, p in zip(series, proxy)))
        if alpha == one:  # the regular-CF proxy is this pass's own
            sup_cross = sup_gap
            continue
        # cross-alpha: same partial series vs regular-CF proxy of the same x
        e1 = _expand_to(normalize(x, one)[0], one, N + 1)
        proxy = _partial_sums(_proxy(e1, k, min(depth, e1.depth(N))), signed)
        sup_cross = max(sup_cross,
                        *(abs(s - p) for s, p in zip(series, proxy)))
    return GapAuditResult(sup_gap=sup_gap, sup_gap_cross=sup_cross,
                          alpha=str(alpha), k=k, N=N, mode=mode)


def proof_constant_gate(k: int) -> float:
    """2c2 + 2(c1 + c2) + 2^{k+1} c1 with c1 = 2/e, c2 = 5 log 2 (~18.28 at k=1)."""
    c1 = 2 / math.e
    c2 = 5 * math.log(2)
    return 2 * c2 + 2 * (c1 + c2) + 2 ** (k + 1) * c1

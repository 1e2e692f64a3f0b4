"""Evaluators for the k-Brjuno and Wilton series and their audits.

The k-Brjuno series sums beta_{n-1}^k * log(1/x_n) over the alpha-CF orbit
of x; the Wilton series is its alternating-sign variant.  Both satisfy a
one-step functional equation (S(x) = -log x +/- x^k S(A_alpha x)) that the
residual operation measures, and both admit exact closed-form tails on
eventually periodic (quadratic surd) orbits.  Rational points diverge; the
sanctioned rational-input API is the pair of finite truncations defined over
the regular (alpha = 1) continued fraction.

Every mp-precision sum over an orbit runs through one kernel, one series
per pass: ``_orbit_terms`` yields the terms beta_{n-1}^k * log(1/x_n) of an
orbit, one log per point, and applies the Wilton sign (-1)^n itself when
the series is signed; ``_orbit_sum`` adds them up left to right.
``_gauss_orbit`` supplies the terminating orbit of a rational for the finite
truncations.

All of it works on raw ``mpmath.libmp`` mpf tuples at a precision passed
explicitly, rounding to nearest.  Each raw call is the one mpmath's mpf
operator makes for the same expression, so the bits equal mp-context
arithmetic at that precision; results become ``mp.mpf`` only when returned.
Nothing reads or sets mpmath's global precision, so series values are the
same in threads as serially.

The truncation audit sums no orbit at all: it never forms the finite value
at p_r/q_r or the r-term partial sum, whose difference is about 1/q_r^2.
It sums that difference from exact term differences written in integer
continuants, in floats whose binary exponents are carried as ints, and
re-sums in raw mpfs only an r whose terms cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from mpmath import mp
from mpmath.libmp import (
    finf,
    fone,
    from_float,
    from_int,
    from_rational,
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
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_float,
)

from .cf_core import (
    Alpha,
    CFExpansion,
    ConvergentSeq,
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


def _c_prime(prec: int):
    root = mpf_sqrt(from_int(5), prec, _RND)
    return mpf_div(mpf_add(root, from_int(3), prec, _RND), from_int(2), prec,
                   _RND)


def c_prime(prec: int = DEFAULT_PRECISION):
    """C' = sum of g^j = 1/(1 - g) = (3 + sqrt(5))/2, the contraction constant."""
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


def _prepare(x: ExactNumber, alpha: Alpha, terms: int):
    if terms < 1:
        raise OutOfDomain("terms must be >= 1")
    xn, _ = normalize(x, alpha)
    if isinstance(xn, Fraction):
        if xn == 0:
            raise SingularPoint("series evaluator at an integer point")
        raise DivergesAtRational(
            "series diverges at rationals; use the -finite variants"
        )
    if not xn:
        raise SingularPoint("series evaluator at an exact zero")
    e = expand(xn, alpha, terms, best_effort=True)
    if e.terminated:
        raise DivergesAtRational("orbit hit zero exactly; the point is rational")
    return e


def _orbit_terms(vals: Iterable, k: int, signed: bool, prec: int,
                 logs: Sequence | None = None) -> Iterator:
    """Per orbit point x_n, the term beta_{n-1}^k * log(1/x_n) of one series.

    vals are raw mpf tuples, and every term is a raw mpf rounded to nearest
    at prec.  A signed (Wilton) term is negated at odd n.  Lazy, so a caller
    that stops early takes no further logs.  A caller that already holds
    log(1/x_n) for each point passes them as `logs`.
    """
    beta = fone
    for n, v in enumerate(vals):
        if logs is None:
            lg = mpf_log(mpf_rdiv_int(1, v, prec, _RND), prec, _RND)
        else:
            lg = logs[n]
        term = mpf_mul(mpf_pow_int(beta, k, prec, _RND), lg, prec, _RND)
        yield mpf_neg(term, prec, _RND) if signed and n % 2 else term
        beta = mpf_mul(beta, v, prec, _RND)


def _orbit_sum(vals: Iterable, k: int, signed: bool, prec: int,
               logs: Sequence | None = None):
    """Left-to-right total of the ``_orbit_terms`` terms."""
    total = fzero
    for term in _orbit_terms(vals, k, signed, prec, logs):
        total = mpf_add(total, term, prec, _RND)
    return total


def _gauss_orbit(fr: Fraction, prec: int) -> Iterator:
    """The terminating Gauss orbit of fr - floor(fr) as raw mpfs at prec."""
    num, den = fr.numerator % fr.denominator, fr.denominator
    while num:
        yield mpf_div(from_int(num, prec, _RND), from_int(den, prec, _RND),
                      prec, _RND)
        num, den = den % num, num


def _raw_orbit(e: CFExpansion, n: int, prec: int) -> list:
    """Orbit values x_0..x_n of e as raw mpfs at prec."""
    return [v._mpf_ for v in e.orbit_mpf(n, prec)]


def _series_value(e: CFExpansion, k: int, signed: bool, terms: int, tol: float,
                  prec: int, mode: str) -> SeriesValue:
    """Left-to-right partial sum, with an exact geometric tail on periodic orbits."""
    wp = prec + 32
    if e.period is not None:
        pre, length = e.period
        n_explicit = pre + length
        vals = _raw_orbit(e, n_explicit - 1, wp)
        total = fzero
        block = fzero
        for n, term in enumerate(_orbit_terms(vals, k, signed, wp)):
            total = mpf_add(total, term, wp, _RND)
            if n >= pre:
                block = mpf_add(block, term, wp, _RND)
        rho = fone
        for n in range(pre, n_explicit):
            rho = mpf_mul(rho, vals[n], wp, _RND)
        ratio = mpf_pow_int(rho, k, wp, _RND)
        if signed and length % 2:
            ratio = mpf_neg(ratio, wp, _RND)
        tail = mpf_div(mpf_mul(block, ratio, wp, _RND),
                       mpf_sub(fone, ratio, wp, _RND), wp, _RND)
        total = mpf_add(total, tail, wp, _RND)
        return SeriesValue(value=mp.make_mpf(mpf_pos(total, prec, _RND)),
                           n_terms=n_explicit, tail_estimate=0.0,
                           rigorous_tail=True, mode=mode, exhausted=False)

    # _prepare rejects terminated orbits, so every stored point is a term
    n_max = min(terms, len(e.orbit))
    vals = _raw_orbit(e, n_max - 1, wp)
    raw_tol = from_float(float(tol))
    total = fzero
    used = 0
    last = fzero
    prev_abs = finf
    monotone = True
    exhausted = False
    for n, term in enumerate(_orbit_terms(vals, k, signed, wp)):
        total = mpf_add(total, term, wp, _RND)
        used = n + 1
        last = term
        size = mpf_abs(term, wp, _RND)
        if mpf_gt(size, prev_abs):
            monotone = False
        prev_abs = size
        if mpf_lt(size, raw_tol):
            break
    else:
        exhausted = n_max < terms
    gk = _GOLDEN_F ** k
    last_abs = to_float(mpf_abs(last, wp, _RND), rnd=_RND)
    if signed and monotone:
        tail = last_abs  # alternating series with shrinking terms
    else:
        tail = last_abs * gk / (1 - gk)
    return SeriesValue(value=mp.make_mpf(mpf_pos(total, prec, _RND)),
                       n_terms=used, tail_estimate=tail, rigorous_tail=False,
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


def _finite_rational(fr: Fraction, k: int, signed: bool, prec: int):
    """sum over the terminating Gauss orbit of fr - floor(fr)."""
    wp = prec + 16
    total = _orbit_sum(_gauss_orbit(fr, wp), k, signed, wp)
    return mp.make_mpf(mpf_pos(total, prec, _RND))


def brjuno_finite_rational(p_over_q: Fraction, k: int = 1,
                           prec: int = DEFAULT_PRECISION):
    """Finite k-Brjuno value of a rational over its terminating Gauss orbit.

    Integers give the empty sum 0.  The underlying expansion always uses the
    regular (alpha = 1) continued fraction with final digit >= 2, which the
    Gauss orbit of a reduced rational produces on its own.
    """
    if k < 1:
        raise OutOfDomain("k must be >= 1")
    return _finite_rational(Fraction(p_over_q), k, signed=False, prec=prec)


def wilton_finite_rational(p_over_q: Fraction, prec: int = DEFAULT_PRECISION):
    """Finite Wilton value of a rational (alternating-sign finite sum)."""
    return _finite_rational(Fraction(p_over_q), 1, signed=True, prec=prec)


def _proxy_terms(c: ConvergentSeq, k: int, signed: bool) -> Iterator[float]:
    """log(q_{j+1}) / q_j^k for j = 0..c.n-1, with the Wilton sign if signed."""
    for j in range(c.n):
        term = math.log(c.q_of(j + 1)) / c.q_of(j) ** k
        yield -term if (signed and j % 2) else term


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
    c = convergents(expand(xn, alpha, N), N)  # ExpansionTooShort if it ends
    total = 0.0
    # plain float adds, in order: sum() compensates on Python 3.12 and later
    for term in _proxy_terms(c, k, alternating):
        total += term
    return total


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
    t, _ = normalize(1 / x, alpha)
    # t may be an exact zero; evaluators that cannot take it raise SingularPoint
    xk = mpf_pow_int(raw_mpf(x, prec), k, prec, _RND)
    return mp.make_mpf(mpf_mul(mpf_mul_int(xk, sign, prec, _RND), f(t)._mpf_,
                               prec, _RND))


def functional_eq_residual(x: ExactNumber, alpha: Alpha, mode: str = "brjuno",
                           N: int = 50, k: int = 1,
                           prec: int = DEFAULT_PRECISION):
    """Residual of the one-step functional equation on N-term partial sums.

    residual = S_N(x) + log x -/+ x^k S_{N-1}(A_alpha x); algebraically zero,
    so the returned value measures only arithmetic rounding.  Both partial
    sums are evaluated over one shared orbit, with one log per point.
    """
    if N < 1:
        raise OutOfDomain("N must be >= 1")
    if mode not in ("brjuno", "wilton"):
        raise OutOfDomain(f"unknown mode {mode!r}")
    if k < 1:
        raise OutOfDomain("k must be >= 1")
    if mode == "wilton":
        k = 1
    e = _prepare(x, alpha, N + 1)
    if e.depth(N) < N:
        if e.exhausted:
            raise PrecisionExhausted(
                f"only {len(e.digits)} digits certifiable, N = {N} requested"
            )
        raise DivergesAtRational("orbit too short for the requested N")
    wp = prec + 16
    vals = _raw_orbit(e, N - 1, wp)
    logs = [mpf_log(mpf_rdiv_int(1, v, wp, _RND), wp, _RND) for v in vals]
    signed = mode == "wilton"
    s_n = _orbit_sum(vals, k, signed, wp, logs)
    s_shift = _orbit_sum(vals[1:], k, signed, wp, logs[1:])
    x0 = vals[0]
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
_AUDIT_KS = (1, 2, 3)


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
    rows = []
    for j in range(r):
        kj, kj1 = big_k[j], big_k[j + 1]
        s = q_bits - kj.bit_length()
        inv_y = kj / kj1
        w = 1 + t * (big_l[j] / kj)  # (K_j + t L_j) / K_j
        sign = -1.0 if (r - j) % 2 else 1.0
        z = sign * t * (1 / (kj * kj1)) / w
        rho = q[j] * kj1 / q_r
        u = z * rho
        rows.append((sign, (kj << s) / q_r, s, rho * math.log(inv_y),
                     math.log1p(z) / z if z else 1.0, inv_y / w, u,
                     math.log1p(u)))
    # 2^((2-k) s_j) peaks at j = 0 (s_0 = 0) for k >= 2, at j = r-1 for k = 1
    s_last = rows[-1][2]
    scale = t * inv_q * inv_q
    out = {}
    for k in _AUDIT_KS:
        top = max(0, (2 - k) * s_last)
        terms = []
        for sign, g, s, rho_log, psi, inv_yw, u, lp in rows:
            em = math.expm1(k * lp)
            phi = em / u if u else k
            terms.append(sign * math.ldexp(
                (phi * rho_log + psi) * inv_yw / (em + 1.0) * g ** (k - 2),
                (2 - k) * s - top))
        total_abs = math.fsum(map(abs, terms)) * scale
        # each term rounds about 30 + 3k times; fsum rounds once
        err = (8 * k + 64) * 2.0 ** -52 * total_abs
        out[k] = (math.fsum(terms) * scale, total_abs, err, top - 2 * q_bits)
    return out


def _finite_minus_partial_mp(a: Sequence[int], q: Sequence[int], t,
                             prec: int) -> dict:
    """``_finite_minus_partial`` in raw mpfs at prec, for sums that cancel.

    t is x_r as a raw mpf good to prec bits.  Each term is the same exact
    difference, good to about 2^-prec relative, so the sum resolves F_r -
    P_r down to about 2^-prec of its terms' absolute sum.  Same return
    value, with e taken from the absolute sum.
    """
    r = len(a)
    q_r = q[r + 1]
    big_k, big_l = _reverse_continuants(a)
    m0 = mpf_add(from_int(q_r), mpf_mul_int(t, big_l[0], prec, _RND), prec,
                 _RND)  # q_r + t q_{r-1}
    sums = {k: [fzero, fzero] for k in _AUDIT_KS}
    for j in range(r):
        kj, kj1 = big_k[j], big_k[j + 1]
        m = mpf_add(from_int(kj), mpf_mul_int(t, big_l[j], prec, _RND), prec,
                    _RND)  # K_j + t L_j
        z = mpf_div(t, mpf_mul_int(m, kj1, prec, _RND), prec, _RND)
        if (r - j) % 2:
            z = mpf_neg(z)
        log1p_z = mpf_log(mpf_add(fone, z), prec, _RND)  # 1 + z is exact
        log_inv_y = mpf_log(from_rational(kj, kj1, prec, _RND), prec, _RND)
        u = mpf_mul(z, from_rational(q[j] * kj1, q_r, prec, _RND), prec, _RND)
        beta = mpf_div(m, m0, prec, _RND)  # beta_{j-1}(x)
        for k in _AUDIT_KS:
            # (1 + u)^k - 1 = u sum_i C(k, i) u^(i-1), with no cancellation
            poly = fzero
            for i in range(k, 0, -1):
                poly = mpf_add(mpf_mul(poly, u, prec, _RND),
                               from_int(math.comb(k, i)), prec, _RND)
            term = mpf_mul(mpf_pow_int(beta, k, prec, _RND),
                           mpf_add(mpf_mul(mpf_mul(u, poly, prec, _RND),
                                           log_inv_y, prec, _RND),
                                   log1p_z, prec, _RND), prec, _RND)
            acc = sums[k]
            acc[0] = mpf_add(acc[0], term, prec, _RND)
            acc[1] = mpf_add(acc[1], mpf_abs(term), prec, _RND)
    out = {}
    for k in _AUDIT_KS:
        total, total_abs = sums[k]
        m_abs, e = mpf_frexp(total_abs)
        m, e_total = mpf_frexp(total)
        m_abs, m = to_float(m_abs, rnd=_RND), to_float(m, rnd=_RND)
        out[k] = (math.ldexp(m, e_total - e), m_abs,
                  math.ldexp((r + 8 * k + 64) * m_abs, 1 - prec), e)
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
    x_r, so no two O(1) values cancel and no mp log is taken.  The sums
    carry their binary exponents as ints, so any q_r is in range.  Where
    the terms themselves cancel so far that the float sum's error bound
    passes 2^-32 of it, that r is summed again in mp arithmetic at a
    precision that resolves it, so every lhs is good to about 2^-32
    relative.  The bound 2kC' x_r / q_r is rounded to nearest at prec + 16
    bits.  An entry passes only if lhs/bound plus the sum's error bound
    over bound stays <= 1, so a near-tie reads as a violation.
    """
    if r_max < 1:
        raise OutOfDomain("r_max must be >= 1")
    alpha = Alpha.one()
    xn, _ = normalize(x, alpha)
    e = expand(xn, alpha, r_max + 1)
    depth = e.depth(r_max)
    if depth < 1:
        raise ExpansionTooShort("no expansion steps available")
    c = convergents(e, depth)
    digits = [e.digit_at(j)[0] for j in range(1, depth + 1)]
    wp = prec + 16
    vals = _raw_orbit(e, depth, wp)
    # 2kC' per k, so the bound below is (2kC' * x_r) / q_r
    cp = _c_prime(prec)
    scale = {k: mpf_mul_int(cp, 2 * k, wp, _RND) for k in _AUDIT_KS}
    cp_float = to_float(cp, rnd=_RND)
    x_text = format_exact(x)
    reports = []
    for r in range(1, depth + 1):
        q_r = c.q_of(r)
        q_bits = q_r.bit_length()
        x_r = vals[r]
        t = to_float(x_r, rnd=_RND)
        diffs = _finite_minus_partial(digits[:r], c.q, t)
        sum_prec = q_bits + 128
        while (any(err > _LHS_REL * abs(total)
                   for total, _, err, _ in diffs.values())
               and sum_prec <= 8 * (q_bits + 128)):
            t_raw = raw_mpf(e.orbit_at(r), sum_prec)
            diffs = _finite_minus_partial_mp(digits[:r], c.q, t_raw, sum_prec)
            sum_prec *= 2
        raw_q = from_int(q_r)
        bounds = {k: to_float(mpf_div(mpf_mul(s, x_r, wp, _RND), raw_q, wp,
                                      _RND), rnd=_RND)
                  for k, s in scale.items()}
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
    regular-CF proxy; at alpha = 1 the two are the same pass.
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
        e = expand(xa, alpha, N + 1)
        depth = e.depth(N)
        c = convergents(e, depth)
        vals = [float(v) for v in e.orbit_mpf(depth - 1, 96)]
        # partial series and proxy, cumulatively
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
        if alpha == one:  # the regular-CF proxy is this pass's own
            sup_cross = sup_gap
            continue
        # cross-alpha: same partial series vs regular-CF proxy of the same x
        x1, _ = normalize(x, one)
        e1 = expand(x1, one, N + 1)
        c1 = convergents(e1, min(depth, e1.depth(N)))
        proxy1 = 0.0
        gap_cross = 0.0
        for j, pterm in enumerate(_proxy_terms(c1, k, signed)):
            proxy1 += pterm
            gap_cross = max(gap_cross, abs(series_partials[j] - proxy1))
        sup_cross = max(sup_cross, gap_cross)
    return GapAuditResult(sup_gap=sup_gap, sup_gap_cross=sup_cross,
                          alpha=str(alpha), k=k, N=N, mode=mode)


def proof_constant_gate(k: int) -> float:
    """2c2 + 2(c1 + c2) + 2^{k+1} c1 with c1 = 2/e, c2 = 5 log 2 (~18.28 at k=1)."""
    c1 = 2 / math.e
    c2 = 5 * math.log(2)
    return 2 * c2 + 2 * (c1 + c2) + 2 ** (k + 1) * c1

"""Evaluators for the k-Brjuno and Wilton series and their audits.

The k-Brjuno series sums beta_{n-1}^k * log(1/x_n) over the alpha-CF orbit
of x; the Wilton series is its alternating-sign variant.  Both satisfy a
one-step functional equation (S(x) = -log x +/- x^k S(A_alpha x)) that the
residual operation measures, and both admit exact closed-form tails on
eventually periodic (quadratic surd) orbits.  Rational points diverge; the
sanctioned rational-input API is the pair of finite truncations defined over
the regular (alpha = 1) continued fraction.

Every mp-precision sum here runs through one kernel: ``_orbit_terms`` yields
the terms beta_{n-1}^k * log(1/x_n) of an orbit, one log per point for all
requested modes, and applies the Wilton sign (-1)^n itself to the signed
ones; ``_orbit_sums`` adds them up left to right.  ``_gauss_orbit`` supplies
the terminating orbit of a rational for the finite truncations.

All of it works on raw ``mpmath.libmp`` mpf tuples at a precision passed
explicitly, rounding to nearest.  Each raw call is the one mpmath's mpf
operator makes for the same expression, so the bits equal mp-context
arithmetic at that precision; results become ``mp.mpf`` only when returned.
Nothing reads or sets mpmath's global precision, so series values are the
same in threads as serially.
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
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_le,
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
    is_zero,
    reciprocal,
    sign_of,
    to_mpf,
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

    def __float__(self):
        return float(self.value)


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
    xn, _ = normalize(x, alpha)
    if isinstance(xn, Fraction):
        if xn == 0:
            raise SingularPoint("series evaluator at an integer point")
        raise DivergesAtRational(
            "series diverges at rationals; use the -finite variants"
        )
    if is_zero(xn):
        raise SingularPoint("series evaluator at an exact zero")
    e = expand(xn, alpha, terms, best_effort=True)
    if e.terminated:
        raise DivergesAtRational("orbit hit zero exactly; the point is rational")
    return e


def _orbit_terms(vals: Iterable, modes: Sequence[tuple[int, bool]], prec: int,
                 logs: Sequence | None = None) -> Iterator[tuple]:
    """Per orbit point x_n, the tuple of beta_{n-1}^k * log(1/x_n) over modes.

    vals are raw mpf tuples, and every term is rounded to nearest at prec.
    Each mode is a pair (k, signed); a signed (Wilton) term is negated at odd
    n.  Each distinct k is computed once per point, so modes that share a k
    share its product.  Lazy, so a caller that stops early takes no further
    logs.  A caller that already holds log(1/x_n) for each point passes them
    as `logs`.
    """
    ks = sorted({k for k, _ in modes})
    slots = [(ks.index(k), signed) for k, signed in modes]
    beta = fone
    for n, v in enumerate(vals):
        if logs is None:
            lg = mpf_log(mpf_rdiv_int(1, v, prec, _RND), prec, _RND)
        else:
            lg = logs[n]
        by_k = [mpf_mul(mpf_pow_int(beta, k, prec, _RND), lg, prec, _RND)
                for k in ks]
        odd = n % 2
        yield tuple([mpf_neg(by_k[i], prec, _RND) if signed and odd else by_k[i]
                     for i, signed in slots])
        beta = mpf_mul(beta, v, prec, _RND)


def _orbit_sums(vals: Iterable, modes: Sequence[tuple[int, bool]], prec: int,
                logs: Sequence | None = None) -> list:
    """Left-to-right totals of the ``_orbit_terms`` terms, one per mode."""
    totals = [fzero] * len(modes)
    for terms in _orbit_terms(vals, modes, prec, logs):
        totals = [mpf_add(total, t, prec, _RND)
                  for total, t in zip(totals, terms)]
    return totals


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
                  prec: int, closed_form: bool, mode: str) -> SeriesValue:
    """Left-to-right partial sum, with an exact geometric tail on periodic orbits."""
    wp = prec + 32
    mode_k = ((k, signed),)
    if closed_form and e.period is not None:
        pre, length = e.period
        n_explicit = pre + length
        vals = _raw_orbit(e, n_explicit - 1, wp)
        total = fzero
        block = fzero
        for n, (term,) in enumerate(_orbit_terms(vals, mode_k, wp)):
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

    if e.period is not None:
        n_avail = terms
    elif e.terminated:
        n_avail = len(e.orbit) - 1
    else:
        n_avail = len(e.orbit)
    n_max = min(terms, n_avail)
    vals = _raw_orbit(e, n_max - 1, wp)
    raw_tol = from_float(float(tol))
    total = fzero
    used = 0
    last = fzero
    prev_abs = finf
    monotone = True
    exhausted = False
    for n, (term,) in enumerate(_orbit_terms(vals, mode_k, wp)):
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
             tol: float = DEFAULT_TOL, prec: int = DEFAULT_PRECISION,
             closed_form: bool = True) -> SeriesValue:
    """k-Brjuno value at x over the alpha-CF orbit.

    Periodic (surd) inputs get their tail summed in closed form and come back
    flagged rigorous; float inputs carry a heuristic tail estimate.  Rational
    inputs raise DivergesAtRational.
    """
    if k < 1:
        raise OutOfDomain("k must be >= 1")
    e = _prepare(x, alpha, terms)
    return _series_value(e, k, signed=False, terms=terms, tol=tol, prec=prec,
                         closed_form=closed_form, mode=f"brjuno({k})")


def wilton(x: ExactNumber, alpha: Alpha, terms: int = DEFAULT_TERMS,
           tol: float = DEFAULT_TOL, prec: int = DEFAULT_PRECISION,
           closed_form: bool = True) -> SeriesValue:
    """Wilton value at x: the alternating-sign partner of the Brjuno series."""
    e = _prepare(x, alpha, terms)
    return _series_value(e, 1, signed=True, terms=terms, tol=tol, prec=prec,
                         closed_form=closed_form, mode="wilton")


def _finite_rational(fr: Fraction, k: int, signed: bool, prec: int):
    """sum over the terminating Gauss orbit of fr - floor(fr)."""
    wp = prec + 16
    total, = _orbit_sums(_gauss_orbit(fr, wp), ((k, signed),), wp)
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
    if N == 0:
        return 0.0
    xn, _ = normalize(x, alpha)
    if is_zero(xn):
        raise SingularPoint("proxy sum of an integer point")
    e = expand(xn, alpha, N)
    if not e.n_digits_available(N):
        raise ExpansionTooShort(
            f"{N} digits needed, expansion terminated after {len(e.digits)}"
        )
    total = 0.0
    # plain float adds, in order: sum() compensates on Python 3.12 and later
    for term in _proxy_terms(convergents(e, N), k, alternating):
        total += term
    return total


def apply_transfer(f: Callable[[ExactNumber], object], k: int, alpha: Alpha,
                   x: ExactNumber, sign: int = 1,
                   prec: int = DEFAULT_PRECISION):
    """(+/-) x^k f(1/x), with 1/x reduced by Z-periodicity and evenness.

    f is any mpf-valued evaluator defined on (0, alpha]; the periodic/even
    completion is applied here, so f never sees a point outside its domain.
    """
    from .numkit import LT, compare

    if sign not in (1, -1):
        raise OutOfDomain("sign must be +1 or -1")
    if sign_of(x) <= 0 or compare(x, alpha.value) != LT:
        raise OutOfDomain("apply_transfer requires 0 < x < alpha")
    y = reciprocal(x)
    t, _ = normalize(y, alpha)
    # t may be an exact zero; evaluators that cannot take it raise SingularPoint
    xk = mpf_pow_int(to_mpf(x, prec)._mpf_, k, prec, _RND)
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
    if mode == "wilton":
        k = 1
    e = _prepare(x, alpha, N + 1)
    if not e.n_digits_available(N):
        if e.exhausted:
            raise PrecisionExhausted(
                f"only {len(e.digits)} digits certifiable, N = {N} requested"
            )
        raise DivergesAtRational("orbit too short for the requested N")
    wp = prec + 16
    vals = _raw_orbit(e, N - 1, wp)
    logs = [mpf_log(mpf_rdiv_int(1, v, wp, _RND), wp, _RND) for v in vals]
    modes = ((k, mode == "wilton"),)
    s_n, = _orbit_sums(vals, modes, wp, logs)
    s_shift, = _orbit_sums(vals[1:], modes, wp, logs[1:])
    x0 = vals[0]
    head = mpf_add(s_n, mpf_log(x0, wp, _RND), wp, _RND)
    if mode == "brjuno":
        res = mpf_sub(head, mpf_mul(mpf_pow_int(x0, k, wp, _RND), s_shift,
                                    wp, _RND), wp, _RND)
    else:
        res = mpf_add(head, mpf_mul(x0, s_shift, wp, _RND), wp, _RND)
    return mp.make_mpf(mpf_pos(res, prec, _RND))


def truncation_bound_check(x: ExactNumber, r: int, k: int = 1,
                           mode: str = "brjuno",
                           prec: int = 192) -> TruncationReport:
    """Check |finite value at p_r/q_r - r-term orbit sum| <= 2kC' x_r / q_r.

    Stated for the regular continued fraction (alpha = 1); the Wilton variant
    uses the k = 1 constant.  This is the r-th entry of truncation_audit.
    """
    if mode not in ("brjuno", "wilton"):
        raise OutOfDomain(f"unknown mode {mode!r}")
    wilton_mode = mode == "wilton"
    report = truncation_audit(x, r, ks=() if wilton_mode else (k,),
                              include_wilton=wilton_mode, prec=prec)[-1]
    if report.r < r:
        raise ExpansionTooShort(
            f"r = {r} needs {r} digits, expansion has {report.r}"
        )
    return report


def truncation_audit(x: ExactNumber, r_max: int, ks: Sequence[int] = (1, 2, 3),
                     include_wilton: bool = True,
                     prec: int = 160) -> list[TruncationReport]:
    """All truncation checks for r = 1..r_max and every requested mode at once.

    Shares the expansion, the convergents, and the per-r finite Gauss orbit
    across modes, which keeps large audits inside their time budget.
    """
    alpha = Alpha.one()
    xn, _ = normalize(x, alpha)
    e = expand(xn, alpha, r_max + 1)
    depth = r_max if e.n_digits_available(r_max) else len(e.digits)
    if depth < 1:
        raise ExpansionTooShort("no expansion steps available")
    c = convergents(e, depth)
    # the lhs resolves only down to ~2^-prec while the bound falls like
    # 1/q_r: work 64 bits below 1/q_depth so rounding never reads as failure
    prec = max(prec, c.q_of(depth).bit_length() + 64)
    modes = [(k, False) for k in ks] + ([(1, True)] if include_wilton else [])
    wp = prec + 16
    vals = _raw_orbit(e, depth, wp)
    # 2kC' per mode, so the bound below is (2kC' * x_r) / q_r
    cp = _c_prime(prec)
    scale = [mpf_mul_int(cp, 2 * k, wp, _RND) for k, _ in modes]
    x_text = format_exact(x)
    reports = []
    # running partial sums of the orbit series, one per mode
    partial = [fzero] * len(modes)
    for j, terms in enumerate(_orbit_terms(vals[:depth], modes, wp)):
        r = j + 1
        partial = [mpf_add(p, t, wp, _RND) for p, t in zip(partial, terms)]
        # finite values at p_r/q_r over one shared Gauss orbit
        q_r = c.q_of(r)
        fin = _orbit_sums(_gauss_orbit(Fraction(c.p_of(r), q_r), wp), modes,
                          wp)
        x_r = vals[r] if len(vals) > r else fzero
        raw_q = from_int(q_r)
        for (k, signed), s, f, p in zip(modes, scale, fin, partial):
            lhs = mpf_abs(mpf_sub(f, p, wp, _RND), wp, _RND)
            bound = mpf_div(mpf_mul(s, x_r, wp, _RND), raw_q, wp, _RND)
            reports.append(TruncationReport(
                x=x_text, r=r, k=k, mode="wilton" if signed else "brjuno",
                lhs=to_float(lhs, rnd=_RND), bound=to_float(bound, rnd=_RND),
                passed=mpf_le(lhs, bound)))
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
    regular-CF proxy.
    """
    signed = mode == "wilton"
    sup_gap = 0.0
    sup_cross = 0.0
    one = Alpha.one()
    for x in samples:
        xa, _ = normalize(x, alpha)
        e = expand(xa, alpha, N + 1)
        depth = N if e.n_digits_available(N) else len(e.digits)
        if depth < 1:
            continue
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
        # cross-alpha: same partial series vs regular-CF proxy of the same x
        if alpha == one:
            e1 = e
        else:
            x1, _ = normalize(x, one)
            e1 = expand(x1, one, N + 1)
        depth1 = min(depth, N if e1.n_digits_available(N) else len(e1.digits))
        c1 = convergents(e1, depth1)
        proxy1 = 0.0
        gap_cross = 0.0
        for j, pterm in enumerate(_proxy_terms(c1, k, signed)):
            proxy1 += pterm
            gap_cross = max(gap_cross, abs(series_partials[j] - proxy1))
        sup_gap = max(sup_gap, gap)
        sup_cross = max(sup_cross, gap_cross)
    return GapAuditResult(sup_gap=sup_gap, sup_gap_cross=sup_cross,
                          alpha=str(alpha), k=k, N=N, mode=mode)


def proof_constant_gate(k: int) -> float:
    """2c2 + 2(c1 + c2) + 2^{k+1} c1 with c1 = 2/e, c2 = 5 log 2 (~18.28 at k=1)."""
    c1 = 2 / math.e
    c2 = 5 * math.log(2)
    return 2 * c2 + 2 * (c1 + c2) + 2 ** (k + 1) * c1

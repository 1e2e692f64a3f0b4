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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from mpmath import mp

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


def c_prime(prec: int = DEFAULT_PRECISION):
    """C' = sum of g^j = 1/(1 - g) = (3 + sqrt(5))/2, the contraction constant."""
    with mp.workprec(prec):
        return (3 + mp.sqrt(5)) / 2


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


def _orbit_terms(vals: Iterable, modes: Sequence[tuple[int, bool]],
                 logs: Sequence | None = None) -> Iterator[tuple]:
    """Per orbit point x_n, the tuple of beta_{n-1}^k * log(1/x_n) over modes.

    Each mode is a pair (k, signed); a signed (Wilton) term is negated at odd
    n.  Lazy, so a caller that stops early takes no further logs; runs under
    the caller's mp precision.  A caller that already holds log(1/x_n) for
    each point passes them as `logs`.
    """
    beta = mp.mpf(1)
    for n, v in enumerate(vals):
        lg = mp.log(1 / v) if logs is None else logs[n]
        terms = []
        for k, signed in modes:
            t = (beta ** k) * lg
            terms.append(-t if signed and n % 2 else t)
        yield tuple(terms)
        beta *= v


def _orbit_sums(vals: Iterable, modes: Sequence[tuple[int, bool]],
                logs: Sequence | None = None) -> list:
    """Left-to-right totals of the ``_orbit_terms`` terms, one per mode."""
    totals = [mp.mpf(0)] * len(modes)
    for terms in _orbit_terms(vals, modes, logs):
        totals = [total + t for total, t in zip(totals, terms)]
    return totals


def _gauss_orbit(fr: Fraction) -> Iterator:
    """The terminating Gauss orbit of fr - floor(fr) as mpf values."""
    num, den = fr.numerator % fr.denominator, fr.denominator
    while num:
        yield mp.mpf(num) / mp.mpf(den)
        num, den = den % num, num


def _series_value(e: CFExpansion, k: int, signed: bool, terms: int, tol: float,
                  prec: int, closed_form: bool, mode: str) -> SeriesValue:
    """Left-to-right partial sum, with an exact geometric tail on periodic orbits."""
    with mp.workprec(prec + 32):
        if closed_form and e.period is not None:
            pre, length = e.period
            n_explicit = pre + length
            vals = e.orbit_mpf(n_explicit - 1, prec + 32)
            total = mp.mpf(0)
            block = mp.mpf(0)
            for n, (term,) in enumerate(_orbit_terms(vals, ((k, signed),))):
                total += term
                if n >= pre:
                    block += term
            rho = mp.mpf(1)
            for n in range(pre, n_explicit):
                rho *= vals[n]
            ratio = rho ** k
            if signed and length % 2:
                ratio = -ratio
            total += block * ratio / (1 - ratio)
            with mp.workprec(prec):
                return SeriesValue(value=+total, n_terms=n_explicit,
                                   tail_estimate=0.0, rigorous_tail=True,
                                   mode=mode, exhausted=False)

        if e.period is not None:
            n_avail = terms
        elif e.terminated:
            n_avail = len(e.orbit) - 1
        else:
            n_avail = len(e.orbit)
        n_max = min(terms, n_avail)
        vals = e.orbit_mpf(n_max - 1, prec + 32)
        total = mp.mpf(0)
        used = 0
        last = mp.mpf(0)
        prev_abs = mp.inf
        monotone = True
        exhausted = False
        for n, (term,) in enumerate(_orbit_terms(vals, ((k, signed),))):
            total += term
            used = n + 1
            last = term
            if abs(term) > prev_abs:
                monotone = False
            prev_abs = abs(term)
            if abs(term) < tol:
                break
        else:
            exhausted = n_max < terms
        gk = _GOLDEN_F ** k
        if signed and monotone:
            tail = float(abs(last))  # alternating series with shrinking terms
        else:
            tail = float(abs(last)) * gk / (1 - gk)
        with mp.workprec(prec):
            return SeriesValue(value=+total, n_terms=used, tail_estimate=tail,
                               rigorous_tail=False, mode=mode,
                               exhausted=exhausted)


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
    with mp.workprec(prec + 16):
        total, = _orbit_sums(_gauss_orbit(fr), ((k, signed),))
        with mp.workprec(prec):
            return +total


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

    f is any evaluator defined on (0, alpha]; the periodic/even completion is
    applied here, so f never sees a point outside its domain.
    """
    from .numkit import LT, compare

    if sign not in (1, -1):
        raise OutOfDomain("sign must be +1 or -1")
    if sign_of(x) <= 0 or compare(x, alpha.value) != LT:
        raise OutOfDomain("apply_transfer requires 0 < x < alpha")
    y = reciprocal(x)
    t, _ = normalize(y, alpha)
    # t may be an exact zero; evaluators that cannot take it raise SingularPoint
    with mp.workprec(prec):
        return sign * to_mpf(x, prec) ** k * f(t)


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
    with mp.workprec(prec + 16):
        vals = e.orbit_mpf(N - 1, prec + 16)
        logs = [mp.log(1 / v) for v in vals]
        modes = ((k, mode == "wilton"),)
        s_n, = _orbit_sums(vals, modes, logs)
        s_shift, = _orbit_sums(vals[1:], modes, logs[1:])
        x0 = vals[0]
        if mode == "brjuno":
            res = s_n + mp.log(x0) - (x0 ** k) * s_shift
        else:
            res = s_n + mp.log(x0) + x0 * s_shift
        with mp.workprec(prec):
            return +res


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
    reports = []
    with mp.workprec(prec + 16):
        vals = e.orbit_mpf(depth, prec + 16)
        cp = c_prime(prec)
        # running partial sums of the orbit series, one per mode
        partial = [mp.mpf(0)] * len(modes)
        for j, terms in enumerate(_orbit_terms(vals[:depth], modes)):
            r = j + 1
            partial = [p + t for p, t in zip(partial, terms)]
            # finite values at p_r/q_r over one shared Gauss orbit
            q_r = c.q_of(r)
            fin = _orbit_sums(_gauss_orbit(Fraction(c.p_of(r), q_r)), modes)
            x_r = vals[r] if len(vals) > r else mp.mpf(0)
            for (k, signed), f, p in zip(modes, fin, partial):
                lhs = abs(f - p)
                bound = 2 * k * cp * x_r / q_r
                reports.append(TruncationReport(
                    x=format_exact(x), r=r, k=k,
                    mode="wilton" if signed else "brjuno",
                    lhs=float(lhs), bound=float(bound),
                    passed=bool(lhs <= bound)))
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

"""One-shot verification suites binding every module to its exit criteria.

Each suite returns a CriterionResult with pass/fail, timing against its
budget, and a details dict of every computed constant tagged with where the
number comes from.  Suites are deterministic in (seed, fast); the CLI and
the acceptance test module both run exactly this code.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp

from . import bmo_lab, modular_series, orbit_compare, series_eval
from .cf_core import Alpha
from .fastgrid import wilton_grid
from .numkit import GOLDEN, to_mpf
from .sampling import (
    random_dyadic_ball,
    random_piecewise_linear,
    random_rational,
    random_surd,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    budget: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[AC{self.number}] {self.name}: {status} "
                f"({self.elapsed:.2f}s / budget {self.budget:.0f}s)")


def _result(number, name, budget, t0, passed, details):
    return CriterionResult(number=number, name=name, passed=bool(passed),
                           elapsed=time.perf_counter() - t0, budget=budget,
                           details=details)


def suite_fixed_point(seed: int = 0, fast: bool = False) -> CriterionResult:
    """Closed-form values at the golden fixed point, to 1e-20 at 256 bits."""
    t0 = time.perf_counter()
    tol = mp.mpf(10) ** -20
    devs = {}
    with mp.workprec(320):
        gf = to_mpf(GOLDEN, 320)
        for k in (1, 2):
            got = series_eval.brjuno_k(GOLDEN, Alpha.one(), k, prec=256)
            want = mp.log(1 / gf) / (1 - gf ** k)
            devs[f"brjuno_k{k}_dev"] = float(abs(got.value - want))
        gotw = series_eval.wilton(GOLDEN, Alpha.one(), prec=256)
        wantw = mp.log(1 / gf) / (1 + gf)
        devs["wilton_dev"] = float(abs(gotw.value - wantw))
    passed = all(d <= float(tol) for d in devs.values())
    devs["tolerance"] = float(tol)
    devs["provenance"] = "derived: one-step fixed-point closed forms at g"
    return _result(1, "fixed-point", 1.0, t0, passed, devs)


def suite_functional_eq(seed: int = 0, fast: bool = False) -> CriterionResult:
    """Functional-equation residuals below 2^-200 on random surd/float inputs."""
    t0 = time.perf_counter()
    rng = random.Random(seed + 2)
    n_inputs = 20 if fast else 100
    gate = mp.mpf(2) ** -200
    worst = mp.mpf(0)
    count = 0
    alphas = [Alpha.one(), Alpha.half(), Alpha(Fraction(3, 5))]
    for i in range(n_inputs):
        x = random_surd(rng) if i % 2 == 0 else random_dyadic_ball(rng)
        alpha = alphas[i % len(alphas)]
        k = 1 + (i % 2)
        for mode in ("brjuno", "wilton"):
            res = abs(series_eval.functional_eq_residual(
                x, alpha, mode, 50, k if mode == "brjuno" else 1, prec=256))
            worst = max(worst, res)
            count += 1
    passed = worst <= gate
    details = {
        "inputs": n_inputs,
        "checks": count,
        "worst_residual": float(worst),
        "gate": float(gate),
        "provenance": "derived: telescoping of the one-step recursion",
    }
    return _result(2, "functional-eq", 10.0, t0, passed, details)


def suite_lemma_trunc(seed: int = 0, fast: bool = False) -> CriterionResult:
    """Truncation bound with C_k = 2kC' over r <= 30, k in {1,2,3} + Wilton."""
    t0 = time.perf_counter()
    rng = random.Random(seed + 3)
    n_samples = 100 if fast else 1000
    violations = 0
    checks = 0
    worst_ratio = 0.0
    for _ in range(n_samples):
        x = random_surd(rng)
        for rep in series_eval.truncation_audit(x, 30):
            checks += 1
            if not rep.passed:
                violations += 1
            if rep.bound > 0:
                worst_ratio = max(worst_ratio, rep.lhs / rep.bound)
    details = {
        "samples": n_samples,
        "checks": checks,
        "violations": violations,
        "worst_lhs_over_bound": worst_ratio,
        "c_prime": float(series_eval.c_prime(64)),
        "provenance": "derived: C' = 1/(1-g); bound constant 2kC'",
    }
    return _result(3, "lemma-trunc", 60.0, t0, violations == 0, details)


def suite_gap_audit(seed: int = 0, fast: bool = False) -> CriterionResult:
    """Series-vs-proxy gaps bounded by the proof-constant sum (~18.3 at k=1)."""
    t0 = time.perf_counter()
    rng = random.Random(seed + 4)
    n_samples = 100 if fast else 1000
    samples = [random_surd(rng, half=True) for _ in range(n_samples)]
    gate = series_eval.proof_constant_gate(1)
    sups = {}
    # sample by sample, so the four audits of one x share its expansions;
    # a max over floats does not depend on the order it is taken in
    for x in samples:
        for alpha, tag in ((Alpha.one(), "alpha=1"), (Alpha.half(), "alpha=1/2")):
            for mode in ("brjuno", "wilton"):
                res = series_eval.gap_audit([x], alpha, 1, 60, mode=mode)
                for key, gap in ((f"sup_{mode}_{tag}", res.sup_gap),
                                 (f"sup_cross_{mode}_{tag}", res.sup_gap_cross)):
                    sups[key] = max(sups.get(key, 0.0), gap)
    ok = all(v < gate for v in sups.values())
    details = {
        "samples": n_samples,
        "depth": 60,
        "gate": gate,
        "gate_provenance": "derived: 2c2 + 2(c1+c2) + 2^{k+1}c1, "
                           "c1 = 2/e and c2 = 5 log 2, the proof's constants "
                           "(not audited)",
        **sups,
    }
    return _result(4, "gap-audit", 120.0, t0, ok, details)


def suite_wilton_blowup(seed: int = 0, fast: bool = False) -> CriterionResult:
    """Blow-up of the Wilton means near 0: log n + 1 within 0.5, decreasing."""
    t0 = time.perf_counter()
    points = 20_000 if fast else 100_000
    ns = [2 ** i for i in range(4, 13)]
    rows = bmo_lab.wilton_blowup_experiment(ns, points=points)
    devs = [abs(r.mean_plus - (math.log(r.n) + 1)) for r in rows]
    dev_ok = all(d <= 0.5 for d in devs)
    monotone = all(b <= a for a, b in zip(devs, devs[1:]))
    osc_ok = all(r.oscillation >= math.log(r.n) for r in rows)
    details = {
        "n_values": ns,
        "points_per_interval": points,
        "deviations": devs,
        "oscillation_minus_log_n": [r.oscillation - math.log(r.n) for r in rows],
        "mean_targets": "derived: primitive asymptotics give log n + 1",
        "rows": [
            {"n": r.n, "mean_plus": r.mean_plus, "mean_minus": r.mean_minus,
             "oscillation": r.oscillation, "quad_error": r.quad_error}
            for r in rows
        ],
    }
    return _result(5, "wilton-blowup", 600.0, t0,
                   dev_ok and monotone and osc_ok, details)


def suite_orbit_compare(seed: int = 0, fast: bool = False) -> CriterionResult:
    """Matched-orbit denominator classification with zero violations."""
    t0 = time.perf_counter()
    rng = random.Random(seed + 6)
    n_samples = 50 if fast else 500
    alphas = [Alpha(Fraction(13, 25)), Alpha(Fraction(29, 50)), Alpha.golden()]
    violations = []
    traces = 0
    for _ in range(n_samples):
        x = random_rational(rng, max_den=2 ** 64, half=True)
        for alpha in alphas:
            tr = orbit_compare.matched_orbits(x, alpha, 40)
            res = orbit_compare.q_difference_classify(tr)
            traces += 1
            violations.extend(res.violations)
    details = {
        "samples": n_samples,
        "traces": traces,
        "violations": violations[:10],
        "n_violations": len(violations),
        "log_gap_bound": "log 2, derived: difference classification",
    }
    return _result(6, "orbit-compare", 60.0, t0, not violations, details)


def suite_ladders(seed: int = 0, fast: bool = False) -> CriterionResult:
    """Ladder rationals match their listed values and converge to 1 - g."""
    t0 = time.perf_counter()
    t_expected = [Fraction(1, 2), Fraction(2, 5), Fraction(5, 13),
                  Fraction(13, 34), Fraction(34, 89)]
    rs_expected = [Fraction(0), Fraction(1, 3), Fraction(3, 8),
                   Fraction(8, 21), Fraction(21, 55)]
    pts = [orbit_compare.ladder(i) for i in range(21)]
    exact_ok = ([p.t for p in pts[:5]] == t_expected
                and [p.rs for p in pts[:5]] == rs_expected)
    target = 1 - GOLDEN
    gaps_t = [abs(p.t - target) for p in pts]
    gaps_rs = [abs(target - p.rs) for p in pts]
    mono = all(b < a for a, b in zip(gaps_t[1:], gaps_t[2:])) and \
        all(b < a for a, b in zip(gaps_rs[1:], gaps_rs[2:]))
    conv = float(gaps_t[20]) < 1e-6 and float(gaps_rs[20]) < 1e-6
    identity = all(2 - 1 / (1 - p.t) == p.rs for p in pts[1:])
    details = {
        "t_values": [str(p.t) for p in pts[:5]],
        "rs_values": [str(p.rs) for p in pts[:5]],
        "gap_t_at_20": float(gaps_t[20]),
        "gap_rs_at_20": float(gaps_rs[20]),
        "provenance": "reported: listed ladder rationals; limit 1 - g",
    }
    return _result(7, "ladders", 1.0, t0,
                   exact_ok and mono and conv and identity, details)


def suite_concat_oscil(seed: int = 0, fast: bool = False) -> CriterionResult:
    """Literal merge-identity check on random piecewise-linear integrands.

    The merge formula is provably only an upper bound for non-constant
    pieces (f(x) = x gives direct 1/4 vs formula 3/8), so the as-stated
    equality check fails for generic piecewise-linear inputs; the bracket
    checks below document what does hold.  See the acceptance notes.
    """
    t0 = time.perf_counter()
    rng = random.Random(seed + 8)
    n_funcs = 20 if fast else 100
    agree = 0
    upper_ok = 0
    lower_ok = 0
    worst_gap = 0.0
    for _ in range(n_funcs):
        f = random_piecewise_linear(rng, 0.0, 1.0)
        split = Fraction(rng.uniform(0.3, 0.7)).limit_denominator(10 ** 6)
        i1 = (Fraction(0), split)
        i2 = (split, Fraction(1))
        s1 = bmo_lab.mean_oscillation(f, i1, 3000)
        s2 = bmo_lab.mean_oscillation(f, i2, 3000)
        direct = bmo_lab.mean_oscillation(f, (Fraction(0), Fraction(1)), 6000)
        l1, l2 = float(split), float(1 - split)
        formula = bmo_lab.concat_oscillation(s1.oscillation, s2.oscillation,
                                             s1.mean, s2.mean, l1, l2)
        lower = bmo_lab.concat_lower_bound(s1.mean, s2.mean, l1, l2)
        slack = 2 * (s1.quad_error + s2.quad_error + direct.quad_error)
        gap = abs(direct.oscillation - formula)
        worst_gap = max(worst_gap, gap)
        if gap <= slack:
            agree += 1
        if direct.oscillation <= formula + slack:
            upper_ok += 1
        if direct.oscillation >= lower - slack:
            lower_ok += 1
    passed = agree == n_funcs
    details = {
        "functions": n_funcs,
        "agree_within_2x_quad_error": agree,
        "upper_bound_held": upper_ok,
        "lower_bound_held": lower_ok,
        "worst_equality_gap": worst_gap,
        "note": "merge formula is an upper bound (exact only for piecewise-"
                "constant data); the literal equality criterion cannot hold",
    }
    return _result(8, "concat-oscil", 30.0, t0, passed, details)


def suite_bmo_contrast(seed: int = 0, fast: bool = False) -> CriterionResult:
    """Dyadic-scan contrast: stable sup for alpha = 11/20, blow-up for alpha = 1."""
    t0 = time.perf_counter()
    leaf = 8 if fast else 16
    f55 = lambda xs: wilton_grid(xs, alpha=0.55)
    s12 = bmo_lab.bmo_seminorm_scan(f55, (Fraction(0), Fraction(1)), 12, leaf)
    s14 = bmo_lab.bmo_seminorm_scan(f55, (Fraction(0), Fraction(1)), 14, leaf)
    rel_change = abs(s14.sup_estimate - s12.sup_estimate) / s12.sup_estimate
    f1 = lambda xs: wilton_grid(xs, alpha=1.0)
    s10 = bmo_lab.bmo_seminorm_scan(f1, (Fraction(-1, 8), Fraction(1, 8)),
                                    10, 32)
    stable = rel_change < 0.10
    blowup = s10.sup_estimate > math.log(8)
    details = {
        "alpha_11_20_sup_depth12": s12.sup_estimate,
        "alpha_11_20_sup_depth14": s14.sup_estimate,
        "relative_change": rel_change,
        "alpha_1_sup_depth10": s10.sup_estimate,
        "alpha_1_threshold_log8": math.log(8),
        "note": "evidence only; no claim for alpha between g and 1",
    }
    return _result(9, "bmo-contrast", 600.0, t0, stable and blowup, details)


def suite_modular(seed: int = 0, fast: bool = False) -> CriterionResult:
    """Divisor-sum multiplicativity, sine-series oddness, and hand examples."""
    t0 = time.perf_counter()
    rng = random.Random(seed + 10)
    pairs = 0
    mult_ok = True
    while pairs < 1000:
        m = rng.randrange(2, 5000)
        n = rng.randrange(2, 5000)
        if math.gcd(m, n) != 1:
            continue
        e = rng.choice([0, 1, 2, 3])
        if modular_series.divisor_sigma(m * n, e) != \
                modular_series.divisor_sigma(m, e) * modular_series.divisor_sigma(n, e):
            mult_ok = False
        pairs += 1
    hand_ok = (
        modular_series.fourier_Fk_partial(Fraction(0), 2, 25).value == 0.0
        and modular_series.fourier_Fk_partial(Fraction(1, 2), 2, 25).value == 0.0
        and modular_series.fourier_Fk_partial(Fraction(1, 4), 2, 2).value == 1.0
        and modular_series.divisor_sigma(6, 1) == 12
        and modular_series.divisor_sigma(1, 4) == 1
        and modular_series.divisor_sigma(2, 3) == 9
    )
    odd_ok = True
    for _ in range(50):
        x = Fraction(rng.randrange(1, 997), 997)
        a = modular_series.fourier_Fk_partial(x, 2, 40).value
        b = modular_series.fourier_Fk_partial(1 - x, 2, 40).value
        if a != -b:
            odd_ok = False
    details = {
        "coprime_pairs": pairs,
        "multiplicative_ok": mult_ok,
        "hand_examples_exact": hand_ok,
        "oddness_exact": odd_ok,
    }
    return _result(10, "modular", 5.0, t0, mult_ok and hand_ok and odd_ok,
                   details)


SUITES = {
    "fixed-point": suite_fixed_point,
    "functional-eq": suite_functional_eq,
    "lemma-trunc": suite_lemma_trunc,
    "gap-audit": suite_gap_audit,
    "wilton-blowup": suite_wilton_blowup,
    "orbit-compare": suite_orbit_compare,
    "ladders": suite_ladders,
    "concat-oscil": suite_concat_oscil,
    "bmo-contrast": suite_bmo_contrast,
    "modular": suite_modular,
}


def run_suites(names=None, seed: int = 0, fast: bool = False) -> list:
    chosen = list(names or SUITES)
    return [SUITES[name](seed=seed, fast=fast) for name in chosen]

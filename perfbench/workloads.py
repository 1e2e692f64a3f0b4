"""The benchmark's workloads: seeded inputs, one op each, and the op's gates.

Each op calls public alphacf functions on generated values only. Its gates
are the acceptance suites' own thresholds, applied to that op's outputs.
Spans wrap the benchmark's calls into each layer; counts the per-layer
metrics need are attached to a span after its call returns.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np
from mpmath import mp

from alphacf import bmo_lab, cf_core, numkit, orbit_compare, series_eval
from alphacf.cf_core import Alpha
from alphacf.fastgrid import brjuno_grid, wilton_grid
from alphacf.numkit import BallFloat
from alphacf.sampling import random_rational, random_surd

ONE, HALF = Alpha.one(), Alpha.half()
BALL_ALPHAS = (ONE, HALF, Alpha(Fraction(3, 5)))
ORBIT_ALPHAS = (Alpha(Fraction(13, 25)), Alpha(Fraction(29, 50)), Alpha.golden())
GRID_ALPHAS = {1.0: ONE, 0.55: Alpha(Fraction(11, 20))}
GRID_KINDS = ("blowup", "mean_osc", "scan")
BALL_PREC = 256
CAP = 256  # digit cap of the exact and ball expansions

# Per-op gates: the acceptance suites' thresholds (AC2, AC3, AC4, AC5, AC6).
GAP_GATE = series_eval.proof_constant_gate(1)
RESIDUAL_GATE = mp.mpf(2) ** -200
BLOWUP_TOL = 0.5

VALUE_FNS = (series_eval.brjuno_k, series_eval.wilton)
FINITE_FNS = (series_eval.brjuno_finite_rational,
              series_eval.wilton_finite_rational)


@dataclass(frozen=True)
class Input:
    i: int          # position in the workload's rotation; the op id
    kind: str
    alphas: tuple   # labels of every alpha the op runs at
    x: object       # what the op is handed: a number, decimal text, n or j
    alpha: object = None  # the op's alpha, where the rotation picks one
    ref: object = None    # exact surd a ball is centred on


def _label(alpha: Alpha) -> str:
    return "g" if alpha.value == numkit.GOLDEN else str(alpha.value)


def _value(tr, fn, x, alpha):
    with tr.span(f"series_eval.{fn.__name__}") as rec:
        v = fn(x, alpha)
    rec.update(terms=v.n_terms, closed_form=v.rigorous_tail)


# -- exact-audit: AC3 + AC4 per-sample work on one quadratic surd -----------

def _exact_input(rng, i):
    return Input(i, "surd", ("1", "1/2"), random_surd(rng, half=True))


def _exact_op(inp, tr):
    x = inp.x
    with tr.span("cf_core.expand") as rec:
        e = cf_core.expand(x, ONE, CAP)
    rec.update(digits=len(e.digits), over_cap=e.period is None)
    for fn in VALUE_FNS:
        _value(tr, fn, x, ONE)
    # The audit resolves |finite - partial| down to about 2^-prec, and its
    # bound at r = 30 is about 1/q_30, so the working precision comes from
    # the op's own convergents: at the 160-bit default, surds whose q_30
    # passes about 2^170 report violations that are rounding.
    q30 = cf_core.convergents(e, 30).q_of(30)
    prec = max(160, q30.bit_length() + 64)
    with tr.span("series_eval.truncation_audit") as rec:
        reports = series_eval.truncation_audit(x, 30, prec=prec)
    rec["checks"] = len(reports)
    ok = all(r.passed for r in reports)
    for alpha in (ONE, HALF):
        for mode in ("brjuno", "wilton"):
            with tr.span("series_eval.gap_audit"):
                res = series_eval.gap_audit([x], alpha, 1, 60, mode=mode)
            ok = ok and res.sup_gap < GAP_GATE and res.sup_gap_cross < GAP_GATE
    return ok, {"period_over_cap": e.period is None, "audit_prec": prec > 160}


# -- ball-eval: 256-bit balls, half parsed from text, half around a surd -----

def _ball_input(rng, i):
    alpha = BALL_ALPHAS[i % len(BALL_ALPHAS)]
    if i % 2 == 0:
        text = f"0.{rng.randrange(10 ** 77):077d}"
        return Input(i, "text", (_label(alpha),), text, alpha)
    s = random_surd(rng, half=True)
    return Input(i, "surd", (_label(alpha),), BallFloat(s, prec=BALL_PREC),
                 alpha, ref=s)


def _ball_op(inp, tr):
    alpha = inp.alpha
    if inp.kind == "text":
        with tr.span("numkit.parse_exact"):
            x = numkit.parse_exact(inp.x, BALL_PREC)
    else:
        x = inp.x
    xn, _ = cf_core.normalize(x, alpha)
    with tr.span("cf_core.expand") as rec:
        e = cf_core.expand(xn, alpha, CAP, best_effort=True)
    prec = e.orbit[0].prec
    rec.update(digits=len(e.digits), exhausted=e.exhausted, prec=prec)
    for fn in VALUE_FNS:
        _value(tr, fn, x, alpha)
    # residual depth within the op's own certified prefix
    depth = min(50, len(e.digits) - 1)
    ok = True
    for mode in ("brjuno", "wilton"):
        with tr.span("series_eval.functional_eq_residual"):
            res = series_eval.functional_eq_residual(x, alpha, mode, depth)
        ok = ok and abs(res) <= RESIDUAL_GATE
    return ok, {"exhausted": e.exhausted, "final_prec": prec}


# -- grid-scan: float64 fastgrid under bmo_lab quadrature -------------------

def _grid_input(rng, i):
    kind = GRID_KINDS[i % len(GRID_KINDS)]
    if kind == "blowup":  # the experiment fixes alpha = 1 itself
        return Input(i, kind, ("1",), rng.randint(16, 4096), 1.0)
    alpha = tuple(GRID_ALPHAS)[i % len(GRID_ALPHAS)]
    j = rng.randrange(64) if kind == "mean_osc" else None
    return Input(i, kind, (_label(GRID_ALPHAS[alpha]),), j, alpha)


def _grid_op(inp, tr):
    if inp.kind == "blowup":
        n = inp.x
        with tr.span("bmo_lab.wilton_blowup_experiment") as rec:
            row, = bmo_lab.wilton_blowup_experiment([n])
        rec["quad_points"] = row.samples
        return abs(row.mean_plus - (math.log(n) + 1)) <= BLOWUP_TOL, {}
    f = tr.wrap_grid("fastgrid.wilton_grid", partial(wilton_grid, alpha=inp.alpha))
    if inp.kind == "mean_osc":
        window = (Fraction(inp.x, 64), Fraction(inp.x + 1, 64))
        with tr.span("bmo_lab.mean_oscillation") as rec:
            st = bmo_lab.mean_oscillation(f, window, 4096)
        rec["quad_points"] = st.samples
        return math.isfinite(st.mean) and st.oscillation >= 0, {}
    with tr.span("bmo_lab.bmo_seminorm_scan") as rec:
        sc = bmo_lab.bmo_seminorm_scan(f, (Fraction(0), Fraction(1)), 11)
    rec["quad_points"] = sc.total_samples
    return math.isfinite(sc.sup_estimate) and sc.sup_estimate >= 0, {}


# -- rational-orbits: matched exact orbits and finite rational values --------

def _rational_input(rng, i):
    return Input(i, "rational", tuple(_label(a) for a in ORBIT_ALPHAS),
                 random_rational(rng, 2 ** 64, half=True))


def _rational_op(inp, tr):
    ok = True
    for alpha in ORBIT_ALPHAS:
        with tr.span("orbit_compare.matched_orbits") as rec:
            trace = orbit_compare.matched_orbits(inp.x, alpha, 40)
        rec["steps"] = len(trace.steps)
        with tr.span("orbit_compare.q_difference_classify"):
            res = orbit_compare.q_difference_classify(trace)
        ok = ok and res.ok
    for fn in FINITE_FNS:
        with tr.span("series_eval.finite_rational"):
            v = fn(inp.x)
        ok = ok and bool(mp.isfinite(v))
    return ok, {}


@dataclass(frozen=True)
class Workload:
    make_input: Callable  # (rng, i) -> Input
    op: Callable          # (Input, tracer) -> (gates passed, input properties)
    kinds: int            # op kinds in the rotation; warm-up runs one of each
    pool: int             # inputs generated per run; the timed loop cycles them
    trace_ops: int        # size of the fixed op set a traced run repeats


WORKLOADS = {
    "exact-audit": Workload(_exact_input, _exact_op, 1, 1000, 20),
    "ball-eval": Workload(_ball_input, _ball_op, 2, 200, 6),
    "grid-scan": Workload(_grid_input, _grid_op, 3, 600, 6),
    "rational-orbits": Workload(_rational_input, _rational_op, 1, 8000, 120),
}


def make_inputs(name: str, seed: int, n: int, stream: str = "loop") -> list:
    """The first n inputs of a workload's rotation; equal for equal seeds."""
    rng = random.Random(f"{name}:{seed}:{stream}")
    make = WORKLOADS[name].make_input
    return [make(rng, i) for i in range(n)]


# -- per-layer metrics from the traced run -----------------------------------

LAYER_UNITS = {
    "numkit.parse_ms": "ms/op",
    "numkit.final_prec_bits_p50": "bits",
    "numkit.escalations_per_op": "1/op",
    "cf_core.expand_ms": "ms/op",
    "cf_core.digits": "count",
    "cf_core.digits_per_s": "1/s",
    "cf_core.exhausted_frac": "ratio",
    "cf_core.period_over_cap_frac": "ratio",
    "series_eval.value_ms": "ms/op",
    "series_eval.terms": "count",
    "series_eval.closed_form_frac": "ratio",
    "series_eval.trunc_audit_ms": "ms/op",
    "series_eval.trunc_checks": "count",
    "series_eval.gap_audit_ms": "ms/op",
    "series_eval.residual_ms": "ms/op",
    "series_eval.finite_rational_ms": "ms/op",
    "series_eval.ball_err_max": "abs",
    "series_eval.ball_tail_miss_frac": "ratio",
    "fastgrid.ms": "ms/op",
    "fastgrid.points": "count",
    "fastgrid.points_per_s": "1/s",
    "fastgrid.nonfinite": "count",
    "fastgrid.abs_err_p50": "abs",
    "fastgrid.abs_err_max": "abs",
    "bmo_lab.self_ms": "ms/op",
    "bmo_lab.blowup_ms": "ms/op",
    "bmo_lab.f_points_per_quad_point": "ratio",
    "orbit_compare.matched_ms": "ms/op",
    "orbit_compare.classify_ms": "ms/op",
    "orbit_compare.steps": "count",
    "orbit_compare.steps_per_s": "1/s",
    "trace_overhead_frac": "ratio",
}

VALUE_SPANS = {f"series_eval.{fn.__name__}" for fn in VALUE_FNS}
QUAD_SPANS = {"bmo_lab.mean_oscillation", "bmo_lab.bmo_seminorm_scan"}


def _pick(spans, names):
    names = {names} if isinstance(names, str) else names
    return [s for s in spans if s["name"] in names]


def _total(spans, key="ms"):
    # a span whose call raised has no counts
    return sum(s.get(key, 0) for s in spans)


def layer_metrics(spans: list, n_ops: int, first: list, n_first: int) -> dict:
    """Per-layer metrics of a traced run.

    Times are ms per op over every traced pass (``spans``, ``n_ops`` ops).
    Counts come from the first traced pass alone (``first``, ``n_first``
    ops), so they repeat exactly for a seed. A layer the workload does not
    call reads 0.
    """

    def busy(names):
        return _total(_pick(spans, names)) / n_ops

    def count(names, key):
        return _total(_pick(first, names), key)

    def per_s(names, key):
        picked = _pick(spans, names)
        ms = _total(picked)
        return 1e3 * _total(picked, key) / ms if ms else 0.0

    def share(picked, key):
        return sum(bool(s.get(key)) for s in picked) / len(picked) if picked else 0.0

    expands = _pick(first, "cf_core.expand")
    balls = [s["prec"] for s in expands if "prec" in s]
    quad_ids = {s["id"] for s in _pick(spans, QUAD_SPANS)}
    grid_in_quad = [s for s in _pick(spans, "fastgrid.wilton_grid")
                    if s["parent"] in quad_ids]
    quad_points = count(QUAD_SPANS, "quad_points")
    return {
        "numkit.parse_ms": busy("numkit.parse_exact"),
        "numkit.final_prec_bits_p50":
            float(statistics.median(balls)) if balls else 0.0,
        "numkit.escalations_per_op":
            sum(math.log2(p / BALL_PREC) for p in balls) / n_first,
        "cf_core.expand_ms": busy("cf_core.expand"),
        "cf_core.digits": count("cf_core.expand", "digits"),
        "cf_core.digits_per_s": per_s("cf_core.expand", "digits"),
        "cf_core.exhausted_frac":
            share([s for s in expands if "exhausted" in s], "exhausted"),
        "cf_core.period_over_cap_frac":
            share([s for s in expands if "over_cap" in s], "over_cap"),
        "series_eval.value_ms": busy(VALUE_SPANS),
        "series_eval.terms": count(VALUE_SPANS, "terms"),
        "series_eval.closed_form_frac":
            share(_pick(first, VALUE_SPANS), "closed_form"),
        "series_eval.trunc_audit_ms": busy("series_eval.truncation_audit"),
        "series_eval.trunc_checks": count("series_eval.truncation_audit", "checks"),
        "series_eval.gap_audit_ms": busy("series_eval.gap_audit"),
        "series_eval.residual_ms": busy("series_eval.functional_eq_residual"),
        "series_eval.finite_rational_ms": busy("series_eval.finite_rational"),
        "fastgrid.ms": busy("fastgrid.wilton_grid"),
        "fastgrid.points": count("fastgrid.wilton_grid", "points"),
        "fastgrid.points_per_s": per_s("fastgrid.wilton_grid", "points"),
        "fastgrid.nonfinite": count("fastgrid.wilton_grid", "nonfinite"),
        "bmo_lab.self_ms": busy(QUAD_SPANS) - _total(grid_in_quad) / n_ops,
        "bmo_lab.blowup_ms": busy("bmo_lab.wilton_blowup_experiment"),
        "bmo_lab.f_points_per_quad_point":
            count("fastgrid.wilton_grid", "points") / quad_points
            if quad_points else 0.0,
        "orbit_compare.matched_ms": busy("orbit_compare.matched_orbits"),
        "orbit_compare.classify_ms": busy("orbit_compare.q_difference_classify"),
        "orbit_compare.steps": count("orbit_compare.matched_orbits", "steps"),
        "orbit_compare.steps_per_s": per_s("orbit_compare.matched_orbits", "steps"),
    }


# -- output quality, measured outside the timed loop -------------------------

def quality_metrics(name: str, seed: int, pool: list) -> dict:
    """Accuracy of fastgrid and of ball values against exact-surd values.

    fastgrid is checked on grid-scan, at 40 seeded surds and both grid
    alphas; ball values on ball-eval, at the surd-centred balls among the
    first 20 inputs. Other workloads read 0. Reported, not gated.
    """
    out = {"fastgrid.abs_err_p50": 0.0, "fastgrid.abs_err_max": 0.0,
           "series_eval.ball_err_max": 0.0,
           "series_eval.ball_tail_miss_frac": 0.0}
    if name == "grid-scan":
        rng = random.Random(f"{name}:{seed}:quality")
        surds = [random_surd(rng) for _ in range(40)]
        xs = np.array([float(s) for s in surds])
        errs = []
        for alpha_f, alpha in GRID_ALPHAS.items():
            for grid, fn in ((wilton_grid, series_eval.wilton),
                             (brjuno_grid, series_eval.brjuno_k)):
                got = grid(xs, alpha=alpha_f)
                errs += [abs(g - float(fn(s, alpha).value))
                         for g, s in zip(got, surds)]
        out["fastgrid.abs_err_p50"] = statistics.median(errs)
        out["fastgrid.abs_err_max"] = max(errs)
    elif name == "ball-eval":
        errs, misses = [], 0
        for inp in pool[:20]:
            if inp.ref is None:
                continue
            for fn in VALUE_FNS:
                got = fn(inp.x, inp.alpha)
                err = float(abs(got.value - fn(inp.ref, inp.alpha).value))
                errs.append(err)
                misses += err > got.tail_estimate
        out["series_eval.ball_err_max"] = max(errs)
        out["series_eval.ball_tail_miss_frac"] = misses / len(errs)
    return out

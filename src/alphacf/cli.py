"""Command-line surface: expand, eval, verify, scan, compare.

Exit codes are fixed for CI consumption: 0 success, 1 verification criterion
failed, 2 usage/parse error, 3 domain error.  Each subcommand takes only the
options it reads.  Identical arguments produce byte-identical artifacts;
anything timing-dependent stays out of the files and goes to the console only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from fractions import Fraction

from . import bmo_lab, modular_series, orbit_compare, series_eval
from .cf_core import Alpha, expand, normalize
from .errors import AlphaCFError, OutOfDomain
from .fastgrid import (DEFAULT_GRID_TERMS, DEFAULT_GRID_TOL, brjuno_grid,
                       wilton_grid)
from .numkit import DEFAULT_PRECISION, BallFloat, format_exact, parse_exact
from .sampling import random_rational
from .verify_suites import SUITES, run_suites

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

DEFAULT_SEED = 20260810

_IRRATIONAL_OFFSET = 0.7071067811865476 % 1  # sqrt(2)/2, keeps grids off rationals


def _parse_value(text: str, flag: str, prec: int):
    try:
        return parse_exact(text, prec)
    except (ValueError, AlphaCFError) as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _parse_alpha(text: str, flag: str) -> Alpha:
    if text.strip() in ("g", "golden"):
        return Alpha.golden()
    try:
        return Alpha.parse(text)
    except OutOfDomain:
        raise
    except (ValueError, AlphaCFError) as exc:
        raise UsageError(f"{flag}: {exc}") from exc


class UsageError(Exception):
    pass


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def cmd_expand(args) -> int:
    x_raw = _parse_value(args.x, "--x", args.precision)
    alpha = _parse_alpha(args.alpha, "--alpha")
    x, reflected = normalize(x_raw, alpha)
    e = expand(x, alpha, args.steps, best_effort=True)
    obj = json.loads(e.to_json())
    obj["input"] = format_exact(x_raw)
    obj["reflected"] = reflected
    if e.exhausted:
        obj["exhausted"] = True  # float orbit certified to fewer digits
    _emit(json.dumps(obj, sort_keys=True), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _grid_points(spec: str):
    try:
        a_txt, b_txt, n_txt = spec.split(":")
        a, b, n = float(Fraction(a_txt)), float(Fraction(b_txt)), int(n_txt)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--grid expects a:b:n, got {spec!r}") from exc
    if n < 1 or not b > a:
        raise UsageError("--grid needs n >= 1 and b > a")
    step = (b - a) / n
    return [a + (i + _IRRATIONAL_OFFSET) * step for i in range(n)]


def _eval_one(fn: str, x, alpha: Alpha, args):
    """(value, n_terms, tail, rigorous, exhausted) for the scalar eval modes."""
    k = args.k
    if fn == "brjuno":
        sv = series_eval.brjuno_k(x, alpha, k, terms=args.terms, tol=args.tol,
                                  prec=args.precision)
        return (sv.value, sv.n_terms, sv.tail_estimate, sv.rigorous_tail,
                sv.exhausted)
    if fn == "wilton":
        sv = series_eval.wilton(x, alpha, terms=args.terms, tol=args.tol,
                                prec=args.precision)
        return (sv.value, sv.n_terms, sv.tail_estimate, sv.rigorous_tail,
                sv.exhausted)
    if fn == "brjuno-finite":
        v = series_eval.brjuno_finite_rational(x, k, prec=args.precision)
        return v, 0, 0.0, True, False
    if fn == "wilton-finite":
        v = series_eval.wilton_finite_rational(x, prec=args.precision)
        return v, 0, 0.0, True, False
    if fn == "proxy":
        v = series_eval.proxy_sum(x, alpha, k, args.N,
                                  alternating=args.alternating)
        return v, args.N, 0.0, False, False
    if fn == "Fk":
        res = modular_series.fourier_Fk_partial(
            x if isinstance(x, Fraction) else float(x), max(k, 2), args.N)
        return res.value, res.n_terms, res.tail_bound, False, False
    raise UsageError(f"--fn: unknown function {fn!r}")


def cmd_eval(args) -> int:
    alpha = _parse_alpha(args.alpha, "--alpha")
    if args.grid:
        pts = _grid_points(args.grid)
        rows = []
        for p in pts:
            if args.fn in ("brjuno", "wilton", "proxy"):
                # as --x reads it: a rational cut of p ends too soon
                x = BallFloat(repr(p), prec=args.precision)
                v, n, tail, rig, exh = _eval_one(args.fn, x, alpha, args)
            else:
                v, n, tail, rig, exh = _eval_one(
                    args.fn, Fraction(p).limit_denominator(10 ** 12),
                    alpha, args)
            rows.append([repr(p), repr(float(v)), n, repr(float(tail)),
                         str(rig).lower(), str(exh).lower()])
        meta = [args.precision, args.terms, repr(args.tol)]
        text = _csv_text(
            ["x", "value", "n_terms", "tail_estimate", "rigorous_tail",
             "exhausted", "precision_bits", "terms", "tol"],
            [r + meta for r in rows])
        _emit(text, args.out)
        return EXIT_OK
    if args.x is None:
        raise UsageError("eval needs --x or --grid")
    x = _parse_value(args.x, "--x", args.precision)
    v, n, tail, rig, exh = _eval_one(args.fn, x, alpha, args)
    _emit(f"value {v}\nn_terms {n}\ntail {tail}\n"
          f"rigorous {str(rig).lower()}\nexhausted {str(exh).lower()}\n",
          args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    names = args.suite or ["all"]
    if names == ["all"]:
        chosen = list(SUITES)
    else:
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise UsageError(f"--suite: unknown suite(s) {unknown}")
        chosen = names
    results = run_suites(chosen, seed=args.seed, fast=args.fast)
    for r in results:
        print(r.line())
    report = {
        "config": {
            "seed": args.seed,
            "fast": bool(args.fast),
            "suites": list(chosen),
        },
        "criteria": [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "details": r.details}
            for r in results
        ],
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=1))
    all_ok = all(r.passed for r in results)
    return EXIT_OK if all_ok else EXIT_CRITERION


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args) -> int:
    alpha = _parse_alpha(args.alpha, "--alpha")
    af = float(alpha)
    if args.fn == "wilton":
        f = lambda xs: wilton_grid(xs, alpha=af, terms=args.terms, tol=args.tol)
    elif args.fn == "brjuno":
        f = lambda xs: brjuno_grid(xs, alpha=af, k=args.k, terms=args.terms,
                                   tol=args.tol)
    else:
        raise UsageError(f"--fn: scans support wilton/brjuno, got {args.fn!r}")
    if args.blowup:
        if args.fn != "wilton" or alpha.value != 1:
            raise UsageError("--blowup is the alpha = 1 Wilton experiment")
        try:
            ns = sorted({int(tok) for tok in args.blowup.split(",")})
        except ValueError as exc:
            raise UsageError(f"--blowup expects integers, got {args.blowup!r}") from exc
        rows = bmo_lab.wilton_blowup_experiment(
            ns, points=args.points, terms=args.terms, tol=args.tol)
        text = _csv_text(
            ["n", "mean_plus", "mean_minus", "oscillation", "samples",
             "quad_error", "terms", "tol"],
            [[r.n, repr(r.mean_plus), repr(r.mean_minus), repr(r.oscillation),
              r.samples, repr(r.quad_error), r.terms, repr(r.tol)]
             for r in rows])
        _emit(text, args.out)
        return EXIT_OK
    if args.interval is None or args.depth is None:
        raise UsageError("scan needs either --blowup or --interval with --depth")
    try:
        a_txt, b_txt = args.interval.split(":")
        lo, hi = Fraction(a_txt), Fraction(b_txt)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--interval expects a:b, got {args.interval!r}") from exc
    res = bmo_lab.bmo_seminorm_scan(f, (lo, hi), args.depth,
                                    args.leaf_samples)
    obj = {
        "fn": args.fn,
        "alpha": str(alpha),
        "interval": [format_exact(lo), format_exact(hi)],
        "depth": res.depth,
        "sup_estimate": res.sup_estimate,
        "argmax": [format_exact(res.argmax_interval[0]),
                   format_exact(res.argmax_interval[1])],
        "per_level_sup": res.per_level_sup,
        "leaf_samples": res.leaf_samples,
        "total_samples": res.total_samples,
        "nonfinite": res.nonfinite,
        "terms": args.terms,
        "tol": repr(args.tol),
        "note": "evidence only for alpha in (g, 1); no verdict",
    }
    _emit(json.dumps(obj, sort_keys=True, indent=1), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    alpha = _parse_alpha(args.alpha, "--alpha")
    rng = random.Random(args.seed)
    dump_lines = []
    violations = []
    worst = Fraction(1)
    for _ in range(args.samples):
        x = random_rational(rng, max_den=2 ** 64, half=True)
        tr = orbit_compare.matched_orbits(x, alpha, args.depth)
        res = orbit_compare.q_difference_classify(tr)
        violations.extend(f"x={x}: {v}" for v in res.violations)
        worst = max(worst, res.max_q_ratio)
        if args.dump:
            dump_lines.append(tr.dump_jsonl())
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write("\n".join(line for line in dump_lines if line))
    summary = {
        "alpha": str(alpha),
        "samples": args.samples,
        "depth": args.depth,
        "seed": args.seed,
        "violations": violations[:20],
        "n_violations": len(violations),
        "max_log_q_gap": math.log(worst),
        "log2_bound": math.log(2),
    }
    _emit(json.dumps(summary, sort_keys=True, indent=1), args.out)
    return EXIT_OK if not violations else EXIT_CRITERION


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _add_out(p):
    p.add_argument("--out", help="output file (default stdout)")


def _add_series_limits(p, terms: int, tol: float):
    p.add_argument("--terms", type=int, default=terms,
                   help="series terms cap (default %(default)s)")
    p.add_argument("--tol", type=float, default=tol,
                   help="series stabilization tolerance (default %(default)s)")


def _add_precision(p):
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                   help="bits a decimal --x is rounded to, >= 64; eval also "
                        "sums its series at it (default %(default)s)")


def _add_seed(p):
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for randomized audits (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alphacf",
        description="alpha-continued fractions, Brjuno/Wilton series, and "
                    "their numerical audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="alpha-CF expansion as JSON")
    p.add_argument("--x", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--steps", type=int, default=256,
                   help="digits cap (default %(default)s)")
    _add_precision(p)
    _add_out(p)

    p = sub.add_parser("eval", help="evaluate one of the series/functions")
    p.add_argument("--fn", required=True,
                   choices=["brjuno", "wilton", "brjuno-finite",
                            "wilton-finite", "proxy", "Fk"])
    p.add_argument("--x")
    p.add_argument("--alpha", default="1")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--N", type=int, default=40)
    p.add_argument("--alternating", action="store_true")
    p.add_argument("--grid", help="a:b:n sweep emitted as CSV; write a "
                                  "negative start as --grid=-1:1:8")
    _add_precision(p)
    _add_series_limits(p, series_eval.DEFAULT_TERMS, series_eval.DEFAULT_TOL)
    _add_out(p)

    p = sub.add_parser("verify", help="run acceptance criteria suites")
    p.add_argument("--suite", action="append",
                   help="suite name or 'all' (repeatable)")
    p.add_argument("--fast", action="store_true",
                   help="reduced sample counts for smoke runs")
    p.add_argument("--report", help="write the JSON report to this path")
    _add_seed(p)

    p = sub.add_parser("scan", help="blow-up tables and dyadic BMO scans")
    p.add_argument("--fn", default="wilton")
    p.add_argument("--alpha", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--blowup", help="comma-separated n list")
    p.add_argument("--points", type=int, default=100_000)
    p.add_argument("--interval", help="a:b scan window; write a negative "
                                      "start as --interval=-1/8:1/8")
    p.add_argument("--depth", type=int)
    p.add_argument("--leaf-samples", type=int, default=16, dest="leaf_samples")
    _add_series_limits(p, DEFAULT_GRID_TERMS, DEFAULT_GRID_TOL)
    _add_out(p)

    p = sub.add_parser("compare", help="matched 1/2-vs-alpha orbit audits")
    p.add_argument("--alpha", required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--dump", help="write per-step JSONL traces here")
    _add_seed(p)
    _add_out(p)

    return parser


_COMMANDS = {
    "expand": cmd_expand,
    "eval": cmd_eval,
    "verify": cmd_verify,
    "scan": cmd_scan,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if getattr(args, "precision", 64) < 64:
            raise OutOfDomain("--precision must be >= 64")
        if getattr(args, "terms", 1) < 1:
            raise OutOfDomain("--terms must be >= 1")
        if math.isnan(getattr(args, "tol", 0.0)):
            raise OutOfDomain("--tol must be a number, not nan")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AlphaCFError as exc:
        print(f"domain error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: expand, eval, verify, scan, compare.

Exit codes are fixed for CI consumption: 0 success, 1 verification criterion
failed, 2 usage/parse error, 3 domain error.  Identical (config, seed) pairs
produce byte-identical artifacts; anything timing-dependent stays out of the
files and goes to the console only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

from . import bmo_lab, modular_series, orbit_compare, series_eval
from .cf_core import Alpha, expand, normalize
from .errors import AlphaCFError, OutOfDomain
from .fastgrid import brjuno_grid, wilton_grid
from .numkit import BallFloat, compare, format_exact, parse_exact
from .sampling import random_rational
from .verify_suites import SUITE_ORDER, SUITES, run_suites

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

PRECISION_ENV = "ALPHACF_PRECISION"

_IRRATIONAL_OFFSET = 0.7071067811865476 % 1  # sqrt(2)/2, keeps grids off rationals


@dataclass(frozen=True)
class RunConfig:
    """Knobs every command shares; precedence flags > env > file > built-ins."""

    precision_bits: int = 256
    tol: float = 1e-40
    terms: int = 256
    seed: int = 20260810
    out: str | None = None
    jobs: int = 1

    def __post_init__(self):
        if self.precision_bits < 64:
            raise OutOfDomain("precision_bits must be >= 64")
        if self.terms < 1:
            raise OutOfDomain("terms cap must be >= 1")


def _load_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            out[key] = val
    return out


def build_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        raw = _load_config_file(args.config)
        casts = {"precision_bits": int, "tol": float, "terms": int,
                 "seed": int, "out": str, "jobs": int}
        cfg = replace(cfg, **{k: casts[k](v) for k, v in raw.items()
                              if k in casts})
    env_prec = os.environ.get(PRECISION_ENV)
    if env_prec:
        cfg = replace(cfg, precision_bits=int(env_prec))
    overrides = {}
    for field_name, flag in (("precision_bits", "precision"), ("tol", "tol"),
                             ("terms", "terms"), ("seed", "seed"),
                             ("out", "out"), ("jobs", "jobs")):
        val = getattr(args, flag, None)
        if val is not None:
            overrides[field_name] = val
    return replace(cfg, **overrides)


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

def cmd_expand(args, cfg: RunConfig) -> int:
    x_raw = _parse_value(args.x, "--x", cfg.precision_bits)
    alpha = _parse_alpha(args.alpha, "--alpha")
    x, reflected = normalize(x_raw, alpha)
    e = expand(x, alpha, args.steps if args.steps is not None else cfg.terms,
               best_effort=True)
    obj = json.loads(e.to_json())
    obj["input"] = format_exact(x_raw)
    obj["reflected"] = reflected
    if e.exhausted:
        obj["exhausted"] = True  # float orbit stopped at an uncertifiable branch
    _emit(json.dumps(obj, sort_keys=True), cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _grid_points(spec: str):
    try:
        a_txt, b_txt, n_txt = spec.split(":")
        a, b, n = float(Fraction(a_txt)), float(Fraction(b_txt)), int(n_txt)
    except ValueError as exc:
        raise UsageError(f"--grid expects a:b:n, got {spec!r}") from exc
    if n < 1 or not b > a:
        raise UsageError("--grid needs n >= 1 and b > a")
    step = (b - a) / n
    return [a + (i + _IRRATIONAL_OFFSET) * step for i in range(n)]


def _eval_one(fn: str, x, alpha: Alpha, args, cfg: RunConfig):
    """(value, n_terms, tail, rigorous, exhausted) for the scalar eval modes."""
    k = args.k
    if fn == "brjuno":
        sv = series_eval.brjuno_k(x, alpha, k, terms=cfg.terms, tol=cfg.tol,
                                  prec=cfg.precision_bits)
        return (sv.value, sv.n_terms, sv.tail_estimate, sv.rigorous_tail,
                sv.exhausted)
    if fn == "wilton":
        sv = series_eval.wilton(x, alpha, terms=cfg.terms, tol=cfg.tol,
                                prec=cfg.precision_bits)
        return (sv.value, sv.n_terms, sv.tail_estimate, sv.rigorous_tail,
                sv.exhausted)
    if fn == "brjuno-finite":
        if not isinstance(x, Fraction):
            raise OutOfDomain("--fn brjuno-finite expects a rational --x")
        v = series_eval.brjuno_finite_rational(x, k, prec=cfg.precision_bits)
        return v, 0, 0.0, True, False
    if fn == "wilton-finite":
        if not isinstance(x, Fraction):
            raise OutOfDomain("--fn wilton-finite expects a rational --x")
        v = series_eval.wilton_finite_rational(x, prec=cfg.precision_bits)
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


def cmd_eval(args, cfg: RunConfig) -> int:
    alpha = _parse_alpha(args.alpha, "--alpha")
    if args.grid:
        pts = _grid_points(args.grid)
        rows = []
        for p in pts:
            if args.fn in ("brjuno", "wilton"):
                x = BallFloat(repr(p), prec=cfg.precision_bits)
                v, n, tail, rig, exh = _eval_one(args.fn, x, alpha, args, cfg)
            else:
                v, n, tail, rig, exh = _eval_one(
                    args.fn, Fraction(p).limit_denominator(10 ** 12),
                    alpha, args, cfg)
            rows.append([repr(p), repr(float(v)), n, repr(float(tail)),
                         str(rig).lower(), str(exh).lower()])
        meta = [cfg.precision_bits, cfg.terms, repr(cfg.tol)]
        text = _csv_text(
            ["x", "value", "n_terms", "tail_estimate", "rigorous_tail",
             "exhausted", "precision_bits", "terms", "tol"],
            [r + meta for r in rows])
        _emit(text, cfg.out)
        return EXIT_OK
    x = _parse_value(args.x, "--x", cfg.precision_bits)
    v, n, tail, rig, exh = _eval_one(args.fn, x, alpha, args, cfg)
    print(f"value {v}")
    print(f"n_terms {n}")
    print(f"tail {tail}")
    print(f"rigorous {str(rig).lower()}")
    print(f"exhausted {str(exh).lower()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, cfg: RunConfig) -> int:
    names = args.suite or ["all"]
    if names == ["all"]:
        chosen = SUITE_ORDER
    else:
        unknown = [n for n in names if n not in SUITES]
        if unknown:
            raise UsageError(f"--suite: unknown suite(s) {unknown}")
        chosen = names
    results = run_suites(chosen, seed=cfg.seed, fast=args.fast)
    for r in results:
        print(r.line())
    report = {
        "config": {
            "precision_bits": cfg.precision_bits,
            "terms": cfg.terms,
            "tol": repr(cfg.tol),
            "seed": cfg.seed,
            "fast": bool(args.fast),
            "suites": list(chosen),
        },
        "criteria": [
            {"number": r.number, "name": r.name, "passed": r.passed,
             "details": r.details}
            for r in results
        ],
    }
    text = json.dumps(report, sort_keys=True, indent=1)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif cfg.out:
        _emit(text, cfg.out)
    all_ok = all(r.passed for r in results)
    return EXIT_OK if all_ok else EXIT_CRITERION


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args, cfg: RunConfig) -> int:
    alpha = _parse_alpha(args.alpha, "--alpha")
    af = float(alpha)
    if args.fn == "wilton":
        f = lambda xs: wilton_grid(xs, alpha=af, terms=cfg.terms,
                                   tol=max(cfg.tol, 1e-14))
    elif args.fn == "brjuno":
        f = lambda xs: brjuno_grid(xs, alpha=af, k=args.k, terms=cfg.terms,
                                   tol=max(cfg.tol, 1e-14))
    else:
        raise UsageError(f"--fn: scans support wilton/brjuno, got {args.fn!r}")
    if args.blowup:
        if args.fn != "wilton" or compare(alpha.value, Fraction(1)) != 0:
            raise UsageError("--blowup is the alpha = 1 Wilton experiment")
        try:
            ns = sorted({int(tok) for tok in args.blowup.split(",")})
        except ValueError as exc:
            raise UsageError(f"--blowup expects integers, got {args.blowup!r}") from exc
        def one(n):
            return bmo_lab.wilton_blowup_experiment([n], points=args.points)[0]
        if cfg.jobs > 1:
            with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
                rows = sorted(pool.map(one, ns), key=lambda r: r.n)
        else:
            rows = [one(n) for n in ns]
        text = _csv_text(
            ["n", "mean_plus", "mean_minus", "oscillation", "samples",
             "quad_error", "terms", "tol", "precision_bits"],
            [[r.n, repr(r.mean_plus), repr(r.mean_minus), repr(r.oscillation),
              r.samples, repr(r.quad_error), r.terms, repr(r.tol),
              cfg.precision_bits] for r in rows])
        _emit(text, cfg.out)
        return EXIT_OK
    if args.interval is None or args.depth is None:
        raise UsageError("scan needs either --blowup or --interval with --depth")
    try:
        a_txt, b_txt = args.interval.split(":")
        lo, hi = Fraction(a_txt), Fraction(b_txt)
    except ValueError as exc:
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
        "terms": cfg.terms,
        "tol": repr(cfg.tol),
        "precision_bits": cfg.precision_bits,
        "note": "evidence only for alpha in (g, 1); no verdict",
    }
    _emit(json.dumps(obj, sort_keys=True, indent=1), cfg.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args, cfg: RunConfig) -> int:
    import random as _random

    alpha = _parse_alpha(args.alpha, "--alpha")
    rng = _random.Random(cfg.seed)
    dump_lines = []
    violations = []
    worst_num, worst_den = 1, 1
    for _ in range(args.samples):
        x = random_rational(rng, max_den=2 ** 64, half=True)
        tr = orbit_compare.matched_orbits(x, alpha, args.depth)
        res = orbit_compare.q_difference_classify(tr)
        violations.extend(f"x={x}: {v}" for v in res.violations)
        if res.max_q_ratio_num * worst_den > worst_num * res.max_q_ratio_den:
            worst_num, worst_den = res.max_q_ratio_num, res.max_q_ratio_den
        if args.dump:
            dump_lines.append(tr.dump_jsonl())
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write("\n".join(line for line in dump_lines if line))
    summary = {
        "alpha": str(alpha),
        "samples": args.samples,
        "depth": args.depth,
        "seed": cfg.seed,
        "violations": violations[:20],
        "n_violations": len(violations),
        "max_log_q_gap": math.log(worst_num / worst_den),
        "log2_bound": math.log(2),
    }
    _emit(json.dumps(summary, sort_keys=True, indent=1), cfg.out)
    return EXIT_OK if not violations else EXIT_CRITERION


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # shared options are accepted before or after the subcommand; SUPPRESS
    # keeps a subparser from shadowing a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, dest="precision",
                        default=argparse.SUPPRESS,
                        help="working precision in mantissa bits (>= 64)")
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS,
                        help="series stabilization tolerance")
    common.add_argument("--terms", type=int, default=argparse.SUPPRESS,
                        help="series terms cap")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized audits")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output file (default stdout)")
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="worker pool size for batches")
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value config file")
    parser = argparse.ArgumentParser(
        prog="alphacf",
        description="alpha-continued fractions, Brjuno/Wilton series, and "
                    "their numerical audits",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="alpha-CF expansion as JSON",
                       parents=[common])
    p.add_argument("--x", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--steps", type=int)

    p = sub.add_parser("eval", help="evaluate one of the series/functions",
                       parents=[common])
    p.add_argument("--fn", required=True,
                   choices=["brjuno", "wilton", "brjuno-finite",
                            "wilton-finite", "proxy", "Fk"])
    p.add_argument("--x")
    p.add_argument("--alpha", default="1")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--N", type=int, default=40)
    p.add_argument("--alternating", action="store_true")
    p.add_argument("--grid", help="a:b:n sweep emitted as CSV")

    p = sub.add_parser("verify", help="run acceptance criteria suites",
                       parents=[common])
    p.add_argument("--suite", action="append",
                   help="suite name or 'all' (repeatable)")
    p.add_argument("--fast", action="store_true",
                   help="reduced sample counts for smoke runs")
    p.add_argument("--report", help="write the JSON report to this path")

    p = sub.add_parser("scan", help="blow-up tables and dyadic BMO scans",
                       parents=[common])
    p.add_argument("--fn", default="wilton")
    p.add_argument("--alpha", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--blowup", help="comma-separated n list")
    p.add_argument("--points", type=int, default=100_000)
    p.add_argument("--interval", help="a:b scan window")
    p.add_argument("--depth", type=int)
    p.add_argument("--leaf-samples", type=int, default=16, dest="leaf_samples")

    p = sub.add_parser("compare", help="matched 1/2-vs-alpha orbit audits",
                       parents=[common])
    p.add_argument("--alpha", required=True)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--depth", type=int, default=40)
    p.add_argument("--dump", help="write per-step JSONL traces here")

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
        cfg = build_config(args)
        return _COMMANDS[args.command](args, cfg)
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

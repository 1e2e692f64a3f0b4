"""Benchmark for alphacf: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload exact-audit --seed 1 --seconds 25 --trace 0

Workloads are defined in workloads.py and described in README.md. With
--trace 0 ops run back to back, each the moment the previous one returns,
for --seconds seconds, and the end-to-end metrics are printed. With
--trace 1 a fixed op set runs alternately without and with spans for
--seconds seconds, and the per-layer metrics are printed.

End-to-end times are scaled to a reference host speed: a fixed calibration
mix (stdlib Fraction steps, big-int products and a small numpy pass) runs
between ops about every 0.2 s, and each op's latency is multiplied by
CALIB_REF_S over the mix's mean time in the op's 2 s window (set-up
likewise, with the mix run around each of its stages). On a shared machine
whose speed drifts by a quarter over minutes, this keeps runs of the same
code comparable; the unscaled figures are on the info line.

The last stdout line is the JSON result (correct, attempted, failed,
metrics); the line before it carries the machine fingerprint, source line
counts, input shares, unscaled times and the first failures. alphacf is imported from this
checkout's src/ and nowhere else; without it the run exits 1 and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "alphacf"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
CALIB_REF_S = 12e-3    # calibration time of the reference host times are scaled to
CALIB_EVERY_S = 0.2    # least time between two calibrations in the timed run
SPEED_WINDOW_S = 2.0   # ops are scaled by the calibrations of their own window
CALIB_GRID = np.linspace(0.01, 1, 4096)
IMPORT_CODE = ("import sys, time; sys.path.insert(0, {src!r}); "
               "t = time.perf_counter(); "
               "import alphacf.series_eval, alphacf.bmo_lab, "
               "alphacf.orbit_compare, alphacf.sampling; "
               "print(time.perf_counter() - t)")
END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def load_program():
    """Put this checkout's src/ first on sys.path; refuse any other alphacf."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no alphacf sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import alphacf

    if Path(alphacf.__file__).resolve().parent != PACKAGE.resolve():
        raise SystemExit(f"perfbench: imported alphacf from {alphacf.__file__}")


def import_seconds() -> float:
    """Time `import alphacf` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE.format(src=str(SRC))],
                         capture_output=True, text=True, check=True,
                         timeout=120, cwd=ROOT)
    return float(out.stdout)


def calibrate() -> float:
    """Seconds a fixed calibration mix takes on this host right now.

    The mix stands for the three kinds of work the workloads do: exact
    Fraction orbits, mpmath's pure-Python big-int mantissas and float64
    grids. Neighbours on a shared host slow each kind by a different share,
    and no single kind tracked all four workloads.
    """
    t0 = time.perf_counter()
    x = Fraction(355, 1130)
    for _ in range(60):
        x = 1 / x - int(1 / x) if x else Fraction(7, 19)
        x = (x + Fraction(3, 7)) / 2
    a, m, s = 3 ** 400, 2 ** 255 - 19, 1
    for i in range(3000):
        s = (s * a + i) % m
    for _ in range(20):
        np.sort(np.abs(np.sin(CALIB_GRID * 7.1) / CALIB_GRID) % 1.0).sum()
    return time.perf_counter() - t0


def setup(workloads, name: str, seed: int):
    """Import, generate inputs and warm up once per op kind, several times.

    Returns the median set-up time, scaled to the reference host speed by
    calibrations run before and after each stage, the unscaled median, and
    the generated inputs.
    """
    wl = workloads.WORKLOADS[name]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        calibs = [calibrate() for _ in range(3)]
        t_import = import_seconds()
        calibs += [calibrate() for _ in range(3)]
        t0 = time.perf_counter()
        pool = workloads.make_inputs(name, seed, wl.pool)
        for inp in workloads.make_inputs(name, seed, wl.kinds, "warmup"):
            wl.op(inp, NullTracer())
        raw.append(t_import + time.perf_counter() - t0)
        calibs += [calibrate() for _ in range(3)]
        scaled.append(raw[-1] * CALIB_REF_S / statistics.fmean(calibs))
    return statistics.median(scaled), statistics.median(raw), pool


class Ops:
    """Outcome of running ops: latencies, failures and input shares."""

    def __init__(self):
        self.starts = []
        self.latencies = []
        self.failures = []
        self.props = Counter()
        self.calibs = []  # (time, seconds) of each calibration

    def run(self, op, inputs, tracer, deadline=None, calibrating=False):
        """Run ops one at a time until the inputs end or the deadline passes.

        With ``calibrating``, a calibration runs after an op whenever
        CALIB_EVERY_S has passed since the last one.
        """
        last_calib = -math.inf
        for inp in inputs:
            tracer.op = inp.i
            t0 = time.perf_counter()
            try:
                with tracer.span("op", kind=inp.kind):
                    ok, props = op(inp, tracer)
            except Exception as exc:  # a failing op is counted, not fatal
                if not self.failures:
                    traceback.print_exc()
                ok, props = False, {}
                self.failures.append(f"op {inp.i}: {type(exc).__name__}: {exc}")
            else:
                if not ok:
                    self.failures.append(f"op {inp.i}: gate failed")
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.latencies.append(t1 - t0)
            self.props.update([("kind", inp.kind)]
                              + [("alpha", a) for a in inp.alphas]
                              + [(k, str(v)) for k, v in props.items()])
            if calibrating and t1 - last_calib >= CALIB_EVERY_S:
                self.calibs.append((t1, calibrate()))
                last_calib = time.perf_counter()
            if deadline is not None and t1 >= deadline:
                break
        return self

    def scaled_latencies(self) -> list:
        """Latencies scaled to the reference host speed, window by window.

        An op's window is the SPEED_WINDOW_S slice of the run it started in;
        a window without a calibration takes the mean of the whole run.
        """
        origin = self.starts[0]
        windows = defaultdict(list)
        for t, s in self.calibs:
            windows[(t - origin) // SPEED_WINDOW_S].append(s)
        whole = statistics.fmean(s for _, s in self.calibs)
        return [lat * CALIB_REF_S
                / statistics.fmean(windows.get((t - origin) // SPEED_WINDOW_S,
                                               [whole]))
                for t, lat in zip(self.starts, self.latencies)]

    def shares(self) -> dict:
        """Share of ops with each input property value."""
        out = {}
        for (key, value), n in sorted(self.props.items()):
            out.setdefault(key, {})[value] = n / len(self.latencies)
        return out


def latency_metrics(lat_s: list) -> dict:
    """Throughput over the time spent in ops, and latency quantiles."""
    lat_ms = [1e3 * t for t in lat_s]
    p90 = statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1 else lat_ms[0]
    return {"ops_per_s": len(lat_s) / math.fsum(lat_s),
            "op_ms_p50": statistics.median(lat_ms), "op_ms_p90": p90}


def end_to_end(workloads, name, seed, seconds, pool):
    op = workloads.WORKLOADS[name].op
    t0 = time.perf_counter()
    ops = Ops().run(op, itertools.cycle(pool), NullTracer(), t0 + seconds,
                    calibrating=True)
    scaled = ops.scaled_latencies()
    metrics = latency_metrics(scaled)
    p90 = metrics["op_ms_p90"] * 1e-3
    info = {"unscaled": latency_metrics(ops.latencies),
            "calib_ms": 1e3 * statistics.fmean(s for _, s in ops.calibs),
            "calibrations": len(ops.calibs),
            "latency_samples": len(ops.latencies),
            "beyond_p90": sum(t > p90 for t in scaled)}
    return ops, metrics, info


def per_layer(workloads, name, seed, seconds, pool):
    """Alternate untraced and traced passes over a fixed op set."""
    wl = workloads.WORKLOADS[name]
    fixed = pool[:wl.trace_ops]
    tracer = Tracer()
    ops = Ops()
    plain_s = traced_s = 0.0
    passes, first = 0, None
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        # alternate which side goes first, so drift within the run cancels
        for traced in ((False, True) if passes % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            ops.run(wl.op, fixed, tracer if traced else NullTracer())
            if traced:
                traced_s += time.perf_counter() - t0
                first = first or len(tracer.spans)
            else:
                plain_s += time.perf_counter() - t0
        passes += 1
    metrics = workloads.layer_metrics(tracer.spans, passes * len(fixed),
                                      tracer.spans[:first], len(fixed))
    metrics["trace_overhead_frac"] = 1 - plain_s / traced_s
    metrics.update(workloads.quality_metrics(name, seed, pool))
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{name}-{seed}.jsonl"
    tracer.dump(spans_file)
    info = {"trace_ops": len(fixed), "passes": passes,
            "spans": len(tracer.spans),
            "spans_file": str(spans_file.relative_to(ROOT))}
    return ops, metrics, info


def machine() -> dict:
    import mpmath
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu or platform.machine()}


def design() -> dict:
    """Source lines per module of the package, for simplicity comparisons."""
    lines = {p.name: len(p.read_text(encoding="utf-8").splitlines())
             for p in sorted(PACKAGE.glob("*.py"))}
    return {"lines": lines, "total": sum(lines.values())}


def main(argv=None) -> int:
    load_program()
    import workloads  # imports alphacf, so only after load_program()

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    setup_s, setup_raw_s, pool = setup(workloads, args.workload, args.seed)
    # keep the generated inputs out of the collector's scans while timing
    gc.collect()
    gc.freeze()
    try:
        measure = per_layer if args.trace else end_to_end
        ops, values, info = measure(workloads, args.workload, args.seed,
                                    args.seconds, pool)
    finally:
        gc.unfreeze()
    if args.trace:
        units = workloads.LAYER_UNITS
    else:
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
    attempted, failed = len(ops.latencies), len(ops.failures)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, setup_s=setup_s, setup_unscaled_s=setup_raw_s,
                fail_frac=failed / attempted, failures=ops.failures[:5],
                inputs=ops.shares(), machine=machine(), design=design())
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

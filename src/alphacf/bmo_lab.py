"""Interval means, mean oscillations, dyadic BMO scans, and the blow-up table.

Quadrature is composite two-point Gauss-Legendre on a mesh graded
geometrically toward interval endpoints: the integrands carry integrable log
singularities at rationals, and the irrational GL node offsets double as
protection against sampling the singular points themselves.  Error estimates
come from comparing against a half-resolution mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateInterval, QuadratureFailure
from .fastgrid import DEFAULT_GRID_TERMS, DEFAULT_GRID_TOL, wilton_grid

_TAU_GL = (1.0 - 1.0 / math.sqrt(3.0)) / 2.0  # irrational 2-point GL offset
_GRADING = 0.9
_MAX_LEVELS = 264  # sigma^levels ~ 1e-12 of the half-width


@dataclass
class IntervalStats:
    """Quadrature summary of f over one interval."""

    interval: tuple  # (Fraction, Fraction)
    mean: float
    oscillation: Optional[float]
    samples: int
    quad_error: float
    nonfinite: int  # samples zero-filled, over both quadrature passes


def _gl_cells(u, v, cells: int):
    """Two-point Gauss-Legendre nodes/weights on `cells` uniform cells.

    `u` and `v` are arrays of block ends; the blocks' nodes follow one
    another in the order of the blocks, and within a block left to right.
    """
    h = ((v - u) / cells)[:, None]
    left = u[:, None] + h * np.arange(cells)
    pts = np.empty((len(h), cells, 2))
    pts[:, :, 0] = left + _TAU_GL * h
    pts[:, :, 1] = left + (1.0 - _TAU_GL) * h
    w = np.repeat(h / 2.0, 2 * cells)
    return pts.ravel(), w


def _graded_mesh(a: float, b: float, n: int):
    """Mesh of ~n GL nodes graded toward both endpoints of [a, b]."""
    if not b > a:
        raise DegenerateInterval(f"[{a}, {b}]")
    half = (b - a) / 2.0
    levels = int(max(2, min(_MAX_LEVELS, n // 6)))
    cells_per_block = max(1, n // (4 * (levels + 1)))
    # left half: blocks [a + half*s^{i+1}, a + half*s^i], innermost touches a;
    # each left block is followed by its mirror [b - half*s^i, b - half*s^{i+1}]
    bounds = [half * _GRADING ** i for i in range(levels + 1)]
    hi_off = np.array(bounds[::-1])
    lo_off = np.array([0.0] + bounds[:0:-1])
    u = np.column_stack((a + lo_off, b - hi_off)).ravel()
    v = np.column_stack((a + hi_off, b - lo_off)).ravel()
    return _gl_cells(u, v, cells_per_block)


def _finite_samples(f, pts, w, a: float, b: float):
    """f at the nodes under the one non-finite policy of this module, and
    how many of them it zero-filled.

    Non-finite values are zero-filled while they carry at most 0.5% of the
    quadrature weight; past that the quadrature raises QuadratureFailure.
    """
    vals = np.asarray(f(pts), dtype=np.float64)
    bad = ~np.isfinite(vals)
    nonfinite = int(bad.sum())
    if nonfinite:
        if w[bad].sum() / w.sum() > 0.005:
            raise QuadratureFailure(
                f"{nonfinite} non-finite samples on [{a}, {b}]"
            )
        vals = np.where(bad, 0.0, vals)
    return vals, nonfinite


def _integrate(f, a: float, b: float, n: int):
    """Fine and coarse passes on graded meshes, the integral's error bar, and
    the number of samples zero-filled in both passes.

    Each pass is (integral, n_points, weights, values), its values
    gated and zero-filled by the non-finite policy.
    """
    results = []
    nonfinite = 0
    for budget in (n, max(n // 2, 24)):
        pts, w = _graded_mesh(a, b, budget)
        vals, bad = _finite_samples(f, pts, w, a, b)
        nonfinite += bad
        results.append(((w * vals).sum(), len(pts), w, vals))
    fine, coarse = results
    err = abs(fine[0] - coarse[0]) + 1e-12 * (1 + abs(fine[0]))
    return fine, coarse, err, nonfinite


def _as_fraction_pair(interval) -> tuple:
    a, b = interval
    return (Fraction(a), Fraction(b))


def interval_mean(f: Callable, interval, n_samples: int = 4096) -> IntervalStats:
    """Mean of f over [a, b] on a graded mesh, with a refinement error bar."""
    fa, fb = _as_fraction_pair(interval)
    a, b = float(fa), float(fb)
    (integral, used, _, _), _, err, nonfinite = _integrate(f, a, b, n_samples)
    width = b - a
    return IntervalStats(interval=(fa, fb), mean=float(integral / width),
                         oscillation=None, samples=used,
                         quad_error=float(err / width), nonfinite=nonfinite)


def mean_oscillation(f: Callable, interval, n_samples: int = 4096) -> IntervalStats:
    """Two-pass mean oscillation (1/|I|) int |f - f_I| over the interval.

    The coarse pass that gives the mean its error bar is reused for the
    oscillation's, so f is called twice.
    """
    fa, fb = _as_fraction_pair(interval)
    a, b = float(fa), float(fb)
    width = b - a
    ((integral, used, w, vals), (_, _, w2, vals2), mean_err,
     nonfinite) = _integrate(f, a, b, n_samples)
    mean = integral / width
    osc_fine = (w * np.abs(vals - mean)).sum() / width
    osc_coarse = (w2 * np.abs(vals2 - mean)).sum() / width
    err = abs(osc_fine - osc_coarse) + mean_err / width + 1e-12
    return IntervalStats(interval=(fa, fb), mean=float(mean),
                         oscillation=float(osc_fine), samples=used,
                         quad_error=float(err), nonfinite=nonfinite)


def concat_oscillation(o1: float, o2: float, m1: float, m2: float,
                       len1: float, len2: float) -> float:
    """Oscillation merge formula for two abutting intervals.

    Returns (|I1| O1 + |I2| O2)/(|I1|+|I2|) + 2|I1||I2| |m1-m2| / (|I1|+|I2|)^2.
    This upper-bounds the union oscillation and is exact for functions
    constant on each piece; see also :func:`concat_lower_bound`.
    """
    if len1 <= 0 or len2 <= 0:
        raise DegenerateInterval("interval lengths must be positive")
    if o1 < 0 or o2 < 0:
        raise ValueError("oscillations are nonnegative")
    total = len1 + len2
    return (len1 * o1 + len2 * o2) / total + \
        2.0 * len1 * len2 * abs(m1 - m2) / total ** 2


def concat_lower_bound(m1: float, m2: float, len1: float, len2: float) -> float:
    """Companion lower bound 2|I1||I2||m1-m2|/(|I1|+|I2|)^2 (= |m1-m2|/2 when equal)."""
    if len1 <= 0 or len2 <= 0:
        raise DegenerateInterval("interval lengths must be positive")
    return 2.0 * len1 * len2 * abs(m1 - m2) / (len1 + len2) ** 2


@dataclass
class ScanResult:
    sup_estimate: float
    argmax_interval: tuple  # (Fraction, Fraction)
    depth: int
    leaf_samples: int
    total_samples: int
    per_level_sup: list
    nonfinite: int  # samples zero-filled


def bmo_seminorm_scan(f: Callable, interval, depth: int,
                      n_samples: int = 32) -> ScanResult:
    """Sup of mean oscillation over all dyadic subintervals down to `depth`.

    Every leaf is sampled once (n_samples GL nodes); parents reuse the pooled
    leaf samples, so each level costs one vectorized pass over the full value
    array and parent oscillations are true quadratures, not merge bounds.
    Non-finite samples follow the same policy as the quadratures.
    """
    if depth < 0:
        raise DegenerateInterval("depth must be >= 0")
    fa, fb = _as_fraction_pair(interval)
    a, b = float(fa), float(fb)
    if not b > a:
        raise DegenerateInterval(f"[{a}, {b}]")
    n_leaves = 1 << depth
    cells = max(1, n_samples // 2)
    per_leaf = 2 * cells
    leaf_edges = a + (b - a) * np.arange(n_leaves + 1) / n_leaves
    pts, w = _gl_cells(leaf_edges[:-1], leaf_edges[1:], cells)
    vals, nonfinite = _finite_samples(f, pts, w, a, b)
    best = -1.0
    best_node = (0, 0)
    per_level = []
    for d in range(depth + 1):
        blocks = vals.reshape(1 << d, -1)
        means = blocks.mean(axis=1)
        osc = np.abs(blocks - means[:, None]).mean(axis=1)
        i = int(np.argmax(osc))
        per_level.append(float(osc[i]))
        if osc[i] > best:
            best = float(osc[i])
            best_node = (d, i)
    d, i = best_node
    span = fb - fa
    lo = fa + span * Fraction(i, 1 << d)
    hi = fa + span * Fraction(i + 1, 1 << d)
    return ScanResult(sup_estimate=best, argmax_interval=(lo, hi), depth=depth,
                      leaf_samples=per_leaf, total_samples=len(pts),
                      per_level_sup=per_level, nonfinite=nonfinite)


@dataclass
class BlowupRow:
    n: int
    mean_plus: float
    mean_minus: float
    oscillation: float
    samples: int
    quad_error: float
    terms: int
    tol: float


def wilton_blowup_experiment(n_list: Sequence[int], points: int = 100_000,
                             terms: int = DEFAULT_GRID_TERMS,
                             tol: float = DEFAULT_GRID_TOL) -> list:
    """Means of W over [0, 1/n] and [-1/n, 0] and the oscillation over their union.

    The truncation policy (terms, tol) is part of each output row; the minus
    side uses Z-periodicity through the evaluator's own reduction.
    """
    rows = []
    f = lambda xs: wilton_grid(xs, alpha=1.0, terms=terms, tol=tol)
    for n in n_list:
        if n < 2:
            raise DegenerateInterval("blow-up rows need n >= 2")
        width = 1.0 / n
        (int_p, used_p, w_p, v_p), _, err_p, _ = _integrate(
            f, 0.0, width, points)
        (int_m, used_m, w_m, v_m), _, err_m, _ = _integrate(
            f, -width, 0.0, points)
        mean_p = int_p / width
        mean_m = int_m / width
        mean_union = (int_p + int_m) / (2 * width)
        osc = ((w_p * np.abs(v_p - mean_union)).sum()
               + (w_m * np.abs(v_m - mean_union)).sum()) / (2 * width)
        rows.append(BlowupRow(n=n, mean_plus=float(mean_p),
                              mean_minus=float(mean_m),
                              oscillation=float(osc),
                              samples=used_p + used_m,
                              quad_error=float((err_p + err_m) / width),
                              terms=terms, tol=tol))
    return rows

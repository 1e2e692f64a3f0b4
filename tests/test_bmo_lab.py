import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from alphacf import bmo_lab
from alphacf.bmo_lab import (
    bmo_seminorm_scan,
    concat_lower_bound,
    concat_oscillation,
    interval_mean,
    mean_oscillation,
    wilton_blowup_experiment,
)
from alphacf.errors import DegenerateInterval, OutOfDomain, QuadratureFailure
from alphacf.fastgrid import wilton_grid
from alphacf.sampling import random_piecewise_linear

UNIT = (Fraction(0), Fraction(1))


def test_interval_mean_constant_and_linear():
    c7 = lambda xs: np.full_like(np.asarray(xs, dtype=float), 7.0)
    st = interval_mean(c7, UNIT, 2048)
    assert st.mean == pytest.approx(7.0, abs=1e-12)
    ident = lambda xs: np.asarray(xs, dtype=float)
    st = interval_mean(ident, UNIT, 2048)
    assert st.mean == pytest.approx(0.5, abs=1e-9)
    assert st.quad_error < 1e-6


def test_interval_mean_wilton_blowup_point():
    f = lambda xs: wilton_grid(xs)
    st = interval_mean(f, (Fraction(0), Fraction(1, 16)), 50_000)
    assert st.mean == pytest.approx(math.log(16) + 1, abs=0.2)


def test_mean_oscillation_examples():
    c = lambda xs: np.full_like(np.asarray(xs, dtype=float), 3.25)
    st = mean_oscillation(c, UNIT, 2048)
    assert st.oscillation == pytest.approx(0.0, abs=1e-10)
    ident = lambda xs: np.asarray(xs, dtype=float)
    st = mean_oscillation(ident, UNIT, 4096)
    assert st.oscillation == pytest.approx(0.25, abs=1e-6)
    step = lambda xs: (np.asarray(xs, dtype=float) >= 0.5).astype(float)
    st = mean_oscillation(step, UNIT, 4096)
    assert st.oscillation == pytest.approx(0.5, abs=1e-3)


def test_quadrature_failure_on_nonfinite():
    bad = lambda xs: np.full_like(np.asarray(xs, dtype=float), np.nan)
    with pytest.raises(QuadratureFailure):
        interval_mean(bad, UNIT, 512)


def _ident_with(value, count):
    def f(xs):
        v = np.asarray(xs, dtype=float).copy()
        v[:count] = value
        return v
    return f


def test_scan_nonfinite_policy_matches_quadrature():
    # 8 leaves x 32 nodes: one inf is 0.39% of the weight, two are 0.78%
    with pytest.raises(QuadratureFailure):
        bmo_seminorm_scan(_ident_with(np.inf, 2), UNIT, 3, 32)
    filled = bmo_seminorm_scan(_ident_with(np.inf, 1), UNIT, 3, 32)
    assert replace(filled, nonfinite=0) == \
        bmo_seminorm_scan(_ident_with(0.0, 1), UNIT, 3, 32)


def test_zero_filled_samples_are_counted():
    # one inf node of 256 in the scan; one per pass in the quadratures
    assert bmo_seminorm_scan(_ident_with(np.inf, 1), UNIT, 3, 32).nonfinite == 1
    assert bmo_seminorm_scan(_ident_with(0.0, 1), UNIT, 3, 32).nonfinite == 0
    for quad in (interval_mean, mean_oscillation):
        assert quad(_ident_with(np.inf, 1), UNIT, 2048).nonfinite == 2
        assert quad(_ident_with(0.0, 1), UNIT, 2048).nonfinite == 0


def test_degenerate_interval():
    ident = lambda xs: np.asarray(xs, dtype=float)
    with pytest.raises(DegenerateInterval):
        interval_mean(ident, (Fraction(1), Fraction(1)), 128)
    with pytest.raises(DegenerateInterval):
        concat_oscillation(0.0, 0.0, 0.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("budget", [0, -4])
def test_sample_budget_below_one_is_out_of_domain(budget):
    # a budget below 1 used to be coerced to a small mesh without a word
    ident = lambda xs: np.asarray(xs, dtype=float)
    with pytest.raises(OutOfDomain, match="budget must be >= 1"):
        interval_mean(ident, UNIT, budget)
    with pytest.raises(OutOfDomain, match="budget must be >= 1"):
        mean_oscillation(ident, UNIT, budget)
    with pytest.raises(OutOfDomain, match="budget must be >= 1"):
        wilton_blowup_experiment([16], points=budget)
    with pytest.raises(OutOfDomain, match="budget must be >= 1"):
        bmo_seminorm_scan(ident, UNIT, 3, budget)
    # a budget of 1 has no coarser check pass; the dyadic scan has none
    with pytest.raises(OutOfDomain, match="check pass"):
        interval_mean(ident, UNIT, 1)
    assert bmo_seminorm_scan(ident, UNIT, 3, 1).leaf_samples == 2


def _nodes(n):
    return len(bmo_lab._graded_mesh(0.0, 1.0, n)[0])


def test_every_accepted_budget_has_a_coarser_check_pass():
    # the coarse pass takes max(n // 2, 24); below 30 its mesh is at least
    # as large as the fine one, so the error bar would only be its floor
    ident = lambda xs: np.asarray(xs, dtype=float)
    accepted = []
    for n in range(1, 4097):
        try:
            bmo_lab._integrate(ident, 0.0, 1.0, n)
        except OutOfDomain:
            assert _nodes(max(n // 2, 24)) >= _nodes(n)
            continue
        accepted.append(n)
        assert _nodes(max(n // 2, 24)) < _nodes(n)
    assert accepted == list(range(30, 4097))


@pytest.mark.parametrize("budget", [1, 16, 24, 29])
def test_budget_without_a_coarser_check_pass_is_refused(budget):
    seen = []

    def f(xs):
        seen.append(len(xs))
        return np.asarray(xs, dtype=float)

    for call in (lambda: interval_mean(f, UNIT, budget),
                 lambda: mean_oscillation(f, UNIT, budget),
                 lambda: wilton_blowup_experiment([16], points=budget)):
        with pytest.raises(OutOfDomain, match="too small"):
            call()
    assert seen == []  # refused before f is sampled
    assert interval_mean(f, UNIT, 30).samples == _nodes(30)


def test_concat_oscillation_step_case():
    # O1 = O2 = 0, means 0 and 1, equal halves: formula gives 1/2, and the
    # direct union oscillation of the step function agrees exactly.
    got = concat_oscillation(0.0, 0.0, 0.0, 1.0, 0.5, 0.5)
    assert got == pytest.approx(0.5, abs=1e-15)
    step = lambda xs: (np.asarray(xs, dtype=float) >= 0.5).astype(float)
    direct = mean_oscillation(step, UNIT, 8192).oscillation
    assert direct == pytest.approx(got, abs=1e-3)


def test_concat_oscillation_equal_means():
    got = concat_oscillation(0.3, 0.7, 2.0, 2.0, 1.0, 3.0)
    assert got == pytest.approx((0.3 + 3 * 0.7) / 4, abs=1e-15)


def test_concat_lower_bound_equal_lengths():
    rng = random.Random(3)
    for _ in range(50):
        o1, o2 = rng.uniform(0, 2), rng.uniform(0, 2)
        m1, m2 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        val = concat_oscillation(o1, o2, m1, m2, 2.5, 2.5)
        assert val >= abs(m1 - m2) / 2 - 1e-12
        assert concat_lower_bound(m1, m2, 2.5, 2.5) == pytest.approx(
            abs(m1 - m2) / 2, abs=1e-12)


def test_concat_formula_brackets_direct_union_oscillation():
    # For generic integrands the merge formula is an upper bound and the
    # mean-gap term a lower bound; both must bracket the direct quadrature.
    rng = random.Random(11)
    for _ in range(25):
        f = random_piecewise_linear(rng, 0.0, 1.0)
        split = rng.uniform(0.25, 0.75)
        i1 = (Fraction(0), Fraction(split).limit_denominator(10 ** 6))
        i2 = (i1[1], Fraction(1))
        s1 = mean_oscillation(f, i1, 3000)
        s2 = mean_oscillation(f, i2, 3000)
        direct = mean_oscillation(f, UNIT, 6000)
        l1, l2 = float(i1[1] - i1[0]), float(i2[1] - i2[0])
        upper = concat_oscillation(s1.oscillation, s2.oscillation,
                                   s1.mean, s2.mean, l1, l2)
        lower = concat_lower_bound(s1.mean, s2.mean, l1, l2)
        slack = 2 * (s1.quad_error + s2.quad_error + direct.quad_error) + 1e-6
        assert direct.oscillation <= upper + slack
        assert direct.oscillation >= lower - slack
        merged_mean = (l1 * s1.mean + l2 * s2.mean) / (l1 + l2)
        assert merged_mean == pytest.approx(direct.mean, abs=slack)


def test_linear_rescaling_preserves_oscillation():
    rng = random.Random(23)
    f = random_piecewise_linear(rng, 0.0, 1.0)
    base = mean_oscillation(f, (Fraction(1, 5), Fraction(7, 10)), 4000)
    a = 3.0
    g = lambda t: f(np.asarray(t, dtype=float) / a)
    scaled = mean_oscillation(g, (Fraction(3, 5), Fraction(21, 10)), 4000)
    assert scaled.oscillation == pytest.approx(
        base.oscillation, abs=4 * (base.quad_error + scaled.quad_error) + 1e-9)


def test_scan_constant_and_linear():
    c = lambda xs: np.full_like(np.asarray(xs, dtype=float), 2.0)
    res = bmo_seminorm_scan(c, UNIT, 6, 8)
    assert res.sup_estimate == pytest.approx(0.0, abs=1e-12)
    ident = lambda xs: np.asarray(xs, dtype=float)
    res = bmo_seminorm_scan(ident, UNIT, 8, 8)
    assert res.sup_estimate == pytest.approx(0.25, abs=1e-4)
    assert res.argmax_interval == (Fraction(0), Fraction(1))


def test_scan_wilton_alpha_one_exceeds_log8():
    f = lambda xs: wilton_grid(xs, alpha=1.0)
    res = bmo_seminorm_scan(f, (Fraction(-1, 8), Fraction(1, 8)), 10, 32)
    assert res.sup_estimate >= math.log(8)


def test_blowup_rows_match_asymptotics():
    rows = wilton_blowup_experiment([16, 64, 256], points=20_000)
    for row in rows:
        ideal = math.log(row.n) + 1
        assert row.mean_plus == pytest.approx(ideal, abs=0.2)
        assert row.mean_minus == pytest.approx(-ideal, abs=0.3)
        assert row.oscillation >= math.log(row.n)
        assert row.terms > 0 and row.tol > 0


def test_blowup_difference_is_log2():
    # the O(1/n) corrections at n = 2, 4 contribute ~0.13 on top of -log 2
    rows = wilton_blowup_experiment([2, 4], points=20_000)
    diff = rows[0].mean_plus - rows[1].mean_plus
    assert diff == pytest.approx(-math.log(2), abs=0.2)


def test_blowup_oscillation_growth_per_level():
    # the alpha = 1 scan grows by about log 2 per halving of the interval
    rows = wilton_blowup_experiment([2 ** d for d in (8, 9, 10, 11)],
                                    points=20_000)
    for first, second in zip(rows, rows[1:]):
        assert second.oscillation - first.oscillation == pytest.approx(
            math.log(2), abs=0.02)


def test_blowup_oscillation_lower_bound_from_means():
    rows = wilton_blowup_experiment([32, 128], points=20_000)
    for row in rows:
        assert row.oscillation >= abs(row.mean_plus - row.mean_minus) / 2 - 1e-9


# -- meshes built in one pass equal the block-by-block construction ----------

def _gl_block(u, v, cells):
    """Frozen oracle: nodes/weights of one block of uniform GL cells."""
    h = (v - u) / cells
    left = u + h * np.arange(cells)
    pts = np.empty(2 * cells)
    pts[0::2] = left + bmo_lab._TAU_GL * h
    pts[1::2] = left + (1.0 - bmo_lab._TAU_GL) * h
    return pts, np.full(2 * cells, h / 2.0)


def _graded_mesh_by_blocks(a, b, n):
    half = (b - a) / 2.0
    levels = int(max(2, min(bmo_lab._MAX_LEVELS, n // 6)))
    cells = max(1, n // (4 * (levels + 1)))
    bounds = [half * bmo_lab._GRADING ** i for i in range(levels + 1)]
    parts = []
    for lo_off, hi_off in [(0.0, bounds[-1])] + [
            (bounds[i + 1], bounds[i]) for i in reversed(range(levels))]:
        parts.append(_gl_block(a + lo_off, a + hi_off, cells))
        parts.append(_gl_block(b - hi_off, b - lo_off, cells))
    return (np.concatenate([p for p, _ in parts]),
            np.concatenate([w for _, w in parts]))


@pytest.mark.parametrize("budget", [24, 4096, 100_000])
@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-0.0625, 0.0), (5 / 64, 6 / 64)])
def test_graded_mesh_equals_block_loop(budget, a, b):
    pts, w = bmo_lab._graded_mesh(a, b, budget)
    ref_pts, ref_w = _graded_mesh_by_blocks(a, b, budget)
    assert np.array_equal(pts, ref_pts) and np.array_equal(w, ref_w)


@pytest.mark.parametrize("depth,n_samples", [(0, 32), (5, 16), (8, 5)])
def test_scan_leaf_nodes_equal_block_loop(depth, n_samples):
    seen = []

    def f(xs):
        seen.append(xs.copy())
        return np.sin(xs)

    a, b = 1 / 7, 5 / 7
    bmo_seminorm_scan(f, (Fraction(1, 7), Fraction(5, 7)), depth, n_samples)
    edges = a + (b - a) * np.arange((1 << depth) + 1) / (1 << depth)
    ref = np.concatenate([_gl_block(edges[i], edges[i + 1],
                                    max(1, n_samples // 2))[0]
                          for i in range(1 << depth)])
    assert len(seen) == 1 and np.array_equal(seen[0], ref)


def test_mean_oscillation_reuses_coarse_pass():
    calls = []

    def f(xs):
        calls.append(len(xs))
        return wilton_grid(xs, alpha=0.55)

    st = mean_oscillation(f, (Fraction(5, 64), Fraction(6, 64)), 4096)
    assert len(calls) == 2
    # the values of the three-pass construction, frozen
    assert st.interval == (Fraction(5, 64), Fraction(3, 32))
    assert st.mean == 2.339987060421984
    assert st.oscillation == 0.10527168412513455
    assert st.samples == 3180
    assert st.quad_error == 0.00015681241841036044

import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphacf import fastgrid
from alphacf.bmo_lab import _gl_cells, _graded_mesh
from alphacf.errors import OutOfDomain
from alphacf.fastgrid import (_BLOCK, _TINY, _reduce_mod1, brjuno_grid,
                              series_grid, wilton_grid)


def masked_series_grid(xs, alpha=1.0, k=1, signed=False, terms=72, tol=1e-13):
    """Frozen oracle: the grid loop that masked full-length arrays each step."""
    xs = np.asarray(xs, dtype=np.float64)
    cur = _reduce_mod1(xs.copy(), alpha)
    out = np.zeros_like(cur)
    beta_k = np.ones_like(cur)
    alive = cur > _TINY
    out[~alive] = np.inf
    sign = 1.0
    for _ in range(terms):
        if not alive.any():
            break
        c = cur[alive]
        out[alive] += sign * beta_k[alive] * np.log(1.0 / c)
        if k == 1:
            beta_k[alive] *= c
        else:
            beta_k[alive] *= c ** k
        inv = 1.0 / c
        nxt = np.abs(inv - np.floor(inv - alpha + 1.0))
        cur[alive] = nxt
        still = np.zeros_like(alive)
        still[alive] = (nxt > _TINY) & (beta_k[alive] > tol)
        alive = still
        if signed:
            sign = -sign
    return out


EDGES = [0.0, 1 / 3, 0.5, 1.0, 2.0, -3.0, -0.25, -1 / 3, 1.75, 7.2, 1e-310,
         -1e-310]


def _inputs(n, seed):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-2.0, 3.0, n)
    xs[:len(EDGES)] = EDGES
    xs[len(EDGES):len(EDGES) + 40] = np.arange(40) / 9.0  # rationals
    return xs


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("alpha", [1.0, float(Fraction(11, 20)), 0.5])
@pytest.mark.parametrize("k,signed", [(1, False), (2, False), (1, True),
                                      (2, True)])
@pytest.mark.parametrize("terms,tol", [(72, 1e-13), (1, 1e-13), (3, 1e-13),
                                       (72, 1e-3)])
def test_series_grid_matches_masked_loop(alpha, k, signed, terms, tol):
    xs = _inputs(3000, seed=k + 2 * signed + int(100 * alpha))
    got = series_grid(xs, alpha=alpha, k=k, signed=signed, terms=terms,
                      tol=tol)
    want = masked_series_grid(xs, alpha=alpha, k=k, signed=signed,
                              terms=terms, tol=tol)
    assert_same_bits(got, want)
    assert np.array_equal(np.isinf(got), np.isinf(want))


def test_series_grid_zeros_and_tiny_give_inf():
    got = series_grid(np.array([0.0, 1.0, -2.0, 1e-310, 0.3]))
    assert np.isinf(got[:4]).all() and np.isfinite(got[4])


def test_series_grid_rejects_k_below_one():
    for k in (0, -1):
        with pytest.raises(OutOfDomain):
            brjuno_grid(np.array([0.3]), k=k)
    for terms in (0, -1):
        with pytest.raises(OutOfDomain, match="terms must be >= 1"):
            wilton_grid(np.array([0.3, 0.7]), terms=terms)
    # beta > nan is false, so a NaN tol would end every sum after one term
    for grid in (wilton_grid, brjuno_grid):
        with pytest.raises(OutOfDomain, match="tol must be a number"):
            grid(np.array([0.3, 0.7]), tol=math.nan)


def test_series_grid_rejects_alpha_outside_half_to_one():
    # as Alpha does: alpha = 2 gave values near 3e13, alpha = 0 a negative
    # Wilton value, and NaN ran silently
    for alpha in (-1.0, 0.0, 0.49, 1.01, 2.0, math.nan):
        for grid in (series_grid, wilton_grid, brjuno_grid):
            with pytest.raises(OutOfDomain, match="outside"):
                grid(np.array([0.3, 0.7]), alpha=alpha)
    for alpha in (0.5, 1.0):
        got = series_grid(np.array([0.3, 0.4]), alpha=alpha)
        assert np.isfinite(got).all()


def test_series_grid_empty_and_single():
    assert series_grid(np.array([])).shape == (0,)
    for x in (0.3, 0.0, 1 / 3):
        one = np.array([x])
        assert_same_bits(series_grid(one), masked_series_grid(one))


def test_series_grid_leaves_input_and_shape():
    xs = _inputs(600, seed=4).reshape(20, 30)
    before = xs.copy()
    got = wilton_grid(xs, alpha=0.5)
    assert np.array_equal(xs, before)
    assert_same_bits(got, masked_series_grid(xs, alpha=0.5, signed=True))
    assert_same_bits(brjuno_grid(xs, k=2), masked_series_grid(xs, k=2))


def test_series_grid_non_finite_inputs_give_nan_without_warning():
    xs = np.array([np.nan, np.inf, -np.inf, 0.0, -2.0, 1e-310, 1e-300, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = series_grid(xs)
    assert np.isnan(got[:3]).all()
    assert np.isposinf(got[3:7]).all() and np.isfinite(got[7])


@pytest.mark.parametrize("alpha", [1.0, float(Fraction(11, 20)), 0.5])
def test_series_grid_raises_nothing_and_keeps_fp_state(alpha):
    # these orbits hit an exact zero mid-run, so dead slots step on inf/NaN
    xs = np.concatenate([np.arange(40) / 9.0, [1 / 3, 1 / 2, 0.3, 0.7]])
    want = masked_series_grid(xs, alpha=alpha, signed=True)
    state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            raised = np.geterr()
            got = series_grid(xs, alpha=alpha, signed=True)
            assert np.geterr() == raised
    assert np.geterr() == state
    assert_same_bits(got, want)


@pytest.mark.parametrize("n", [2, 16, 4096])
@pytest.mark.parametrize("side", [1, -1])
def test_series_grid_matches_masked_loop_on_blowup_meshes(n, side):
    a, b = sorted((0.0, side / n))
    pts, _ = _graded_mesh(a, b, 100_000)
    assert_same_bits(wilton_grid(pts), masked_series_grid(pts, signed=True))


def test_series_grid_matches_masked_loop_on_scan_leaf_mesh():
    edges = np.arange(2049) / 2048  # bmo_seminorm_scan of [0, 1], depth 11
    pts, _ = _gl_cells(edges[:-1], edges[1:], 16)
    for alpha in (1.0, float(Fraction(11, 20))):
        assert_same_bits(wilton_grid(pts, alpha=alpha),
                         masked_series_grid(pts, alpha=alpha, signed=True))


def _zero_hit_step(x, cap=10):
    """The step at which x's alpha = 1 orbit hits zero in float64, or None."""
    c = x - math.floor(x)
    for step in range(1, cap + 1):
        inv = 1.0 / c
        c = abs(inv - math.floor(inv))
        if c == 0.0:
            return step
    return None


def test_series_grid_compacts_only_once_half_the_slots_are_dead():
    # step 1 kills 3 of 13 slots, which stay in the arrays; step 2 kills 8
    # of the 10 left, and the 2 survivors are compacted
    first = [0.5, 0.25, 0.125]
    second = [1 / (m + 0.5) for m in range(2, 10)]
    survivors = [2 ** -0.5, math.pi - 3]
    xs = np.array(first + second + survivors)
    assert [_zero_hit_step(x) for x in xs] == [1] * 3 + [2] * 8 + [None] * 2
    for terms in (1, 2, 3, 72):
        for signed in (False, True):
            assert_same_bits(
                series_grid(xs, signed=signed, terms=terms),
                masked_series_grid(xs, signed=signed, terms=terms))


def test_series_grid_same_in_threads_as_serial():
    inputs = [_inputs(5000, seed) for seed in range(4)]
    serial = [wilton_grid(xs, alpha=0.5 + 0.125 * i)
              for i, xs in enumerate(inputs)]

    def run(i):
        # a thread that raises on any floating-point error would see the
        # kernel's dead slots if its errstate leaked across threads
        with np.errstate(all="raise"):
            got = [wilton_grid(inputs[i], alpha=0.5 + 0.125 * i)
                   for _ in range(5)]
            assert np.geterr()["invalid"] == "raise"
        return got

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, range(4)))
    finally:
        sys.setswitchinterval(interval)
    for want, got in zip(serial, results):
        for one in got:
            assert_same_bits(one, want)


# around each block edge: non-finite, tiny, zero, rational and irrational
# inputs, so points that die at once or mid-run sit on both sides of it
EDGE_MIX = [np.nan, 0.3, np.inf, 1e-300, -np.inf, 1 / 3, 1e-310, 2.0, 0.4,
            -0.25, 2 ** -0.5, 5 / 7]


def _blocked_inputs(n, seed):
    xs = _inputs(n, seed)
    for edge in range(_BLOCK, n + 1, _BLOCK):
        around = xs[edge - 6:edge + 6]
        around[:] = EDGE_MIX[:around.size]
    return xs


def _masked_with_nan(xs, **kw):
    """The oracle, with the NaN that series_grid gives non-finite inputs."""
    with np.errstate(invalid="ignore"):  # the oracle reduces inf to NaN
        want = masked_series_grid(xs, **kw)
    want[~np.isfinite(xs)] = np.nan
    return want


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7])
@pytest.mark.parametrize("alpha", [1.0, float(Fraction(11, 20)), 0.5])
@pytest.mark.parametrize("signed", [False, True])
def test_series_grid_blocks_match_masked_loop(n, alpha, signed):
    xs = _blocked_inputs(n, seed=n % 97)
    assert_same_bits(series_grid(xs, alpha=alpha, signed=signed),
                     _masked_with_nan(xs, alpha=alpha, signed=signed))


def test_series_grid_blocks_keep_rows_that_straddle_an_edge():
    xs = _blocked_inputs(3 * (_BLOCK // 2 + 3), seed=8).reshape(3, -1)
    assert xs.shape[1] < _BLOCK < 2 * xs.shape[1]  # row 1 holds an edge
    for alpha, k, signed in ((1.0, 1, True), (0.5, 2, False)):
        got = series_grid(xs, alpha=alpha, k=k, signed=signed)
        assert_same_bits(got, _masked_with_nan(xs, alpha=alpha, k=k,
                                               signed=signed))


def _traced_peak(f, xs):
    tracemalloc.start()
    try:
        f(xs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("which", ["blowup-row", "400k"])
def test_series_grid_peak_memory_stays_near_the_input(which):
    # the working arrays live one block at a time; only out is full-length
    if which == "blowup-row":
        xs, _ = _graded_mesh(0.0, 1 / 1000, 100_000)
    else:
        xs = _inputs(400_000, seed=9)
    wilton_grid(xs[:10])  # warm up numpy's lazily built state
    assert _traced_peak(wilton_grid, xs) <= 2 * xs.nbytes + (2 << 20)


# -- the alpha = 1 step: the digit is floor(1/x) ------------------------------

@settings(max_examples=2000, deadline=None)
@given(st.floats(min_value=1.0, max_value=2.0 ** 53, exclude_max=True))
@example(1.0)
@example(math.nextafter(1.0, 2.0))
@example(2.0 ** 52 + 0.5)
@example(2.0 ** 53 - 1.0)
def test_alpha_one_step_is_exact_below_2_to_53(v):
    # 1/x - 1 and its sum with 1 are exact, so the five-pass step's floor
    # is floor(1/x); the fractional part is exact and in [0, 1], so abs
    # changes nothing
    assert Fraction(v - 1.0) == Fraction(v) - 1
    assert (v - 1.0) + 1.0 == v
    frac = v - math.floor(v)
    assert 0.0 <= frac < 1.0
    assert Fraction(frac) == Fraction(v) - math.floor(v)
    inv = np.array([v])
    assert_same_bits(inv - np.floor(inv),
                     np.abs(inv - np.floor(inv - 1.0 + 1.0)))


def _beyond_2_to_53(n, seed):
    """Seeded x > 0 with 1/x in [2^53, 2^54), and their negations."""
    xs = 1.0 / np.random.default_rng(seed).uniform(2.0 ** 53, 2.0 ** 54, n)
    xs[:3] = 2.0 ** -53, math.nextafter(2.0 ** -53, 0.0), 2.0 ** -54 * 1.5
    inv = 1.0 / xs
    assert ((inv >= 2.0 ** 53) & (inv < 2.0 ** 54)).all()
    return np.concatenate([xs, -xs])


@pytest.mark.parametrize("k,signed", [(1, False), (2, False), (3, False),
                                      (1, True), (2, True), (3, True)])
def test_alpha_one_step_matches_masked_loop_beyond_2_to_53(k, signed):
    # the five-pass step sends these points to 0 or 2, this one to 0
    xs = _beyond_2_to_53(5000, seed=k + 3 * signed)
    assert_same_bits(series_grid(xs, alpha=1, k=k, signed=signed),
                     masked_series_grid(xs, k=k, signed=signed))


def test_alpha_one_brjuno_beyond_2_to_53_is_its_first_term():
    # at alpha < 1 the step sends about a quarter of these points to 2,
    # outside [0, alpha]; at the default tol the weight beta <= x has ended
    # every orbit first, so each value is still its first term, bit for bit
    xs = _beyond_2_to_53(5000, seed=53)[:5000]
    first = np.log(1.0 / xs)
    for alpha in (1.0, 0.5, float(Fraction(11, 20)), 0.9):
        for k in (1, 2, 3):
            assert_same_bits(brjuno_grid(xs, alpha=alpha, k=k), first)
        assert_same_bits(wilton_grid(xs, alpha=alpha), first)


@pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096])
@pytest.mark.parametrize("budget", [100_000, 50_000])
def test_alpha_one_matches_masked_loop_on_ac5_meshes(n, budget):
    for a, b in ((0.0, 1 / n), (-1 / n, 0.0)):
        pts, _ = _graded_mesh(a, b, budget)
        assert_same_bits(wilton_grid(pts, alpha=1),
                         masked_series_grid(pts, signed=True))
        assert_same_bits(brjuno_grid(pts, alpha=1),
                         masked_series_grid(pts))


class _CountingNumpy:
    """numpy, with every call through it counted by name."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def counted(*args, **kw):
            self.calls.append((name, args))
            return attr(*args, **kw)
        return counted


def _step_calls(monkeypatch, alpha):
    proxy = _CountingNumpy()
    monkeypatch.setattr(fastgrid, "np", proxy)
    got = series_grid(np.array([0.3, 2 ** -0.5, math.pi - 3]), alpha=alpha,
                      terms=1)
    monkeypatch.undo()
    return got, proxy.calls


def _scalar_shift(call):
    name, args = call
    return name in ("add", "subtract") and any(np.isscalar(a) for a in args)


def test_alpha_one_step_makes_no_abs_or_shift_pass(monkeypatch):
    got, calls = _step_calls(monkeypatch, 1.0)
    names = [name for name, _ in calls]
    assert "abs" not in names and not any(map(_scalar_shift, calls))
    for alpha in (1, np.float64(1.0)):
        same, same_calls = _step_calls(monkeypatch, alpha)
        assert_same_bits(same, got)
        assert [name for name, _ in same_calls] == names
    # the proxy sees the passes the alpha < 1 step makes, and only they go
    _, calls = _step_calls(monkeypatch, 0.5)
    extra = [c[0] == "abs" or _scalar_shift(c) for c in calls]
    assert [c[0] for c, x in zip(calls, extra) if x] == ["subtract", "abs"]
    assert [c[0] for c, x in zip(calls, extra) if not x] == names

from fractions import Fraction

import numpy as np
import pytest

from alphacf.errors import OutOfDomain
from alphacf.fastgrid import _TINY, _reduce_mod1, brjuno_grid, series_grid, wilton_grid


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

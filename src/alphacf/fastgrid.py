"""Vectorized float64 evaluators for dense scans.

Quadrature and dyadic-scan workloads evaluate the Brjuno/Wilton series at
10^5..10^6 points; the exact kernels are far too slow for that.  These numpy
paths iterate the alpha-CF map on whole arrays in double precision.  They are
*not* certified: orbit digits drift after ~20 steps, but the series weights
those steps by beta ~ g^n.  Against exact surd values the Wilton error at
alpha = 1 has a median of 1.4e-8 and a max of 4.8e-7, far below any
quadrature tolerance used here.  A point dies once its orbit hits zero (a
rational) or its weight beta^k falls below the tolerance, and its partial
sum is written out at that step.  Dead points ride along in the arrays,
stepped under np.errstate so their inf/NaN values warn nothing and are never
read, until half of the slots are dead; only then are the arrays compacted
to the live points.  So only a compacting step gathers, and late steps
cost what their few survivors cost.  Every orbit is independent, so the
loop runs on the flattened input one block of _BLOCK points at a time: a
block's dozen working arrays fit in a 2 MB L2 cache, so no step streams
full-length arrays through memory; only the output is full-length.
Blocking changes no operation or its order, so no value moves by a bit.
Callers avoid sampling rationals by using irrational node offsets.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfDomain

DEFAULT_GRID_TERMS = 72
DEFAULT_GRID_TOL = 1e-13

_TINY = 1e-300
_BLOCK = 16384  # points per pass of the step loop


def _reduce_mod1(xs: np.ndarray, alpha: float) -> np.ndarray:
    t = xs - np.floor(xs)
    refl = t > alpha
    t[refl] = 1.0 - t[refl]
    return t


def series_grid(xs, alpha: float = 1.0, k: int = 1, signed: bool = False,
                terms: int = DEFAULT_GRID_TERMS,
                tol: float = DEFAULT_GRID_TOL) -> np.ndarray:
    """Brjuno (signed=False) or Wilton (signed=True, k=1) values on an array.

    Inputs are reduced by Z-periodicity and the even reflection into
    [0, alpha] first.  Elements whose orbit dies (rational hit) keep their
    partial sum; inputs that reduce to at most 1e-300, integers among them,
    yield +inf like the underlying singularity, and non-finite inputs NaN.
    """
    if k < 1:
        raise OutOfDomain("k must be >= 1")
    if terms < 1:
        raise OutOfDomain("terms must be >= 1")
    if np.isnan(tol):
        raise OutOfDomain("tol must be a number, not nan")
    if not 0.5 <= alpha <= 1.0:  # NaN fails too
        raise OutOfDomain(f"alpha = {alpha} outside [1/2, 1]")
    xs = np.asarray(xs, dtype=np.float64)
    flat = xs.ravel()
    out = np.where(np.isfinite(flat), np.inf, np.nan)
    # dead slots step on until compaction, their inf/NaN values never read
    with np.errstate(all="ignore"):
        for lo in range(0, flat.size, _BLOCK):
            _series_block(flat[lo:lo + _BLOCK], out[lo:lo + _BLOCK], alpha, k,
                          signed, terms, tol)
    return out.reshape(xs.shape)


def _series_block(xs, out, alpha, k, signed, terms, tol) -> None:
    """The step loop of series_grid on one block, writing into its out slice."""
    # the slots: indices into out, the orbit point, beta_{n-1}^k, the sum
    c = _reduce_mod1(xs, alpha)
    idx = np.flatnonzero(c > _TINY)
    c = c[idx]
    beta = np.ones_like(c)
    acc = np.zeros_like(c)
    live = np.ones(c.size, dtype=bool)
    n_live = c.size
    for step in range(terms):
        if not n_live:
            break
        inv = 1.0 / c
        t = np.log(inv)
        t *= beta
        if signed and step % 2:
            acc -= t
        else:
            acc += t
        beta *= c if k == 1 else c ** k
        np.subtract(inv, alpha, out=t)
        t += 1.0
        np.floor(t, out=t)
        np.subtract(inv, t, out=c)
        np.abs(c, out=c)
        # a slot counted dead never comes back
        alive = (c > _TINY) & (beta > tol) & live
        died = np.flatnonzero(live ^ alive)
        if died.size:
            out[idx[died]] = acc[died]
            live, n_live = alive, n_live - died.size
            if 2 * n_live < live.size:
                keep = np.flatnonzero(live)
                idx, c, beta = idx[keep], c[keep], beta[keep]
                acc, live = acc[keep], live[keep]
    out[idx[live]] = acc[live]


def wilton_grid(xs, alpha: float = 1.0, terms: int = DEFAULT_GRID_TERMS,
                tol: float = DEFAULT_GRID_TOL) -> np.ndarray:
    return series_grid(xs, alpha=alpha, k=1, signed=True, terms=terms, tol=tol)


def brjuno_grid(xs, alpha: float = 1.0, k: int = 1,
                terms: int = DEFAULT_GRID_TERMS,
                tol: float = DEFAULT_GRID_TOL) -> np.ndarray:
    return series_grid(xs, alpha=alpha, k=k, signed=False, terms=terms, tol=tol)

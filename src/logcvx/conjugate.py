"""Sampled discrete Legendre conjugates on product grids, one axis at a time.

For f on the lattice box [0, N_1] x ... x [0, N_d] (+inf imposes nothing) and
the same m axis samples x on every axis, the conjugate is A(s) = max_beta
(<s, beta> - f_beta) on x^d, and ``biconjugate`` gives the values max_s
(<alpha, s> - A(s)) at every lattice alpha, not the maximising samples.  It
splits into nested 1-D max-plus passes, O(d m^d max_j (N_j + 1)) for the
whole sample grid (Lucet 1997, "Faster than the fast Legendre transform",
Numer. Algorithms 16:171-185), and never forms the m^d array of A.  The
forward passes add axis by axis, ((-f_beta + beta_1 s_1) + beta_2 s_2) + ...,
the order in which ``assoc`` evaluates omega, so both give the same value of
A at a sample.

Both blocked loops, the last forward pass of ``biconjugate`` fused with its
first reduction, and ``assoc``'s omega kernel, run through ``in_lanes``: one
lane per core, each taking blocks of rows from a shared queue.  Every row's
arithmetic is the same whatever the lane and the block, so the results are
the same bits on any machine.
"""
from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

from .errors import EmptySGrid, OutOfRange

# Most samples one product grid may hold (m**d): the time of ``biconjugate``
# grows as m**d.  The default grids (200**2 and 50**3, at most 45**4 beyond,
# and 600**2 in the benchmark) fit.
MAX_SAMPLES = 2**22

# Entries per block summed over the lanes of ``in_lanes`` (samples of
# ``biconjugate``, scores of ``assoc``'s omega kernel): 512 KiB per float
# array across the lanes, so the few arrays of each lane's block stay in a
# 2 MiB L2 cache, and the memory in flight does not grow with the core count.
_BLOCK_SAMPLES = 2**16


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def in_lanes(rows: int, per_row: int, lane) -> None:
    """Run ``lane(blocks, step)`` once in each of min(cores, ceil(rows *
    per_row / _BLOCK_SAMPLES), rows) lanes, at least one.  The lanes take
    blocks of ``step`` rows (about _BLOCK_SAMPLES // lanes entries) in
    ascending order from one shared queue, so a lane that starts late takes
    fewer; ``blocks`` yields (lo, hi) for each block its lane takes.  The
    caller runs the first lane; each other runs in a thread, in a copy of the
    caller's context (so ``np.errstate`` holds there), joined before this
    returns.  The first error in lane order is raised."""
    lanes = max(1, min(_cores(), -(-rows * per_row // _BLOCK_SAMPLES), rows))
    step = max(1, min(rows, _BLOCK_SAMPLES // lanes // per_row))
    starts = iter(range(0, rows, step))
    taking = threading.Lock()

    def blocks():
        while True:
            with taking:
                lo = next(starts, None)
            if lo is None:
                return
            yield lo, min(lo + step, rows)

    errors: list[BaseException | None] = [None] * lanes

    def run(i: int) -> None:
        try:
            lane(blocks(), step)
        except BaseException as e:  # re-raised in the caller below
            errors[i] = e

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(run, i))
               for i in range(1, lanes)]
    for t in helpers:
        t.start()
    run(0)
    for t in helpers:
        t.join()
    for e in errors:
        if e is not None:
            raise e


def check_samples(per_axis: float, dim: int) -> None:
    if per_axis < 1:
        raise EmptySGrid("need at least one sample per axis")
    if per_axis > MAX_SAMPLES or per_axis ** dim > MAX_SAMPLES:
        raise OutOfRange(f"{per_axis:g}**{dim} samples exceed MAX_SAMPLES = {MAX_SAMPLES}")


class _Multiples:
    """b x for b = 0, ..., n - 1, each made when it is reached, never all at
    once; iterable more than once."""

    def __init__(self, x: np.ndarray, n: int):
        self.x, self.n = x, n

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return (b * self.x for b in range(self.n))


def _max_plus(F: np.ndarray, steps, out=None, tmp=None) -> np.ndarray:
    """max_b (F[b] + b x), broadcast, with b x the b-th item of ``steps`` (a
    table or ``_Multiples``), into ``out`` as a running maximum in ascending
    b, with ``tmp`` of out's shape as scratch.  Each sum is added in place onto
    a copy of b x, which runs about twice as fast as adding into a third
    array; the first sum goes straight into ``out``, as max(-inf, v) = v."""
    pairs = zip(F, steps)
    F0, s0 = next(pairs)
    out = np.empty(np.broadcast_shapes(F0.shape, s0.shape)) if out is None else out
    np.copyto(out, s0)
    out += F0
    tmp = np.empty_like(out) if tmp is None else tmp
    for Fb, sb in pairs:
        np.copyto(tmp, sb)
        tmp += Fb
        np.maximum(out, tmp, out=out)
    return out


def _reduce_last(A: np.ndarray, steps, vals=None, T=None) -> np.ndarray:
    """max over the trailing sample axis of c x - A for each c x of ``steps``
    in turn, as a new trailing axis, into ``vals``, with ``T`` of A's shape as
    scratch."""
    vals = np.empty(A.shape[:-1] + (len(steps),)) if vals is None else vals
    T = np.empty_like(A) if T is None else T
    for c, cx in enumerate(steps):
        np.subtract(cx, A, out=T)
        T.max(axis=-1, out=vals[..., c])
    return vals


def biconjugate(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """max_s (<alpha, s> - A(s)) at every alpha of the box, with A the
    conjugate of f on x^d, of the shape of f.

    Sample axes are reduced last to first.  The last forward pass and the
    reduction over the last sample axis run together, a block of rows of that
    axis at a time, in lanes (``in_lanes``), so the m^d grid of A is never
    formed.
    """
    check_samples(x.size, f.ndim)
    m, n = x.size, f.shape[-1]
    F = -np.asarray(f, dtype=float)
    for _ in range(f.ndim - 1):
        F = _max_plus(F[..., None], _Multiples(x, F.shape[0]))
    F = F.reshape(n, -1, 1)  # (N_d + 1, rows of (s_1, ..., s_{d-1}), 1)
    V = np.empty((F.shape[1], n))
    # b x for b < n: one table shared by the lanes, no larger than F when d > 1;
    # a 1-D box has a single row, which makes each multiple when it needs it
    steps = np.arange(n)[:, None] * x if f.ndim > 1 else _Multiples(x, n)

    def lane(blocks, step: int) -> None:
        A = np.empty((step, m))
        tmp = np.empty_like(A)  # scratch of the forward pass, then of the reduction
        for lo, hi in blocks:
            k = hi - lo
            a = _max_plus(F[:, lo:hi], steps, A[:k], tmp[:k])
            _reduce_last(a, steps, V[lo:hi], tmp[:k])

    in_lanes(F.shape[1], m, lane)
    V = V.reshape((m,) * (f.ndim - 1) + (n,))
    for j in reversed(range(f.ndim - 1)):
        # V has axes (s_1, ..., s_j, alpha_{j+1}, ...); reduce over a trailing s_j
        A = np.negative(np.moveaxis(V, j, -1), order="C")
        V = np.moveaxis(_reduce_last(A, _Multiples(x, f.shape[j])), -1, j)
    return V

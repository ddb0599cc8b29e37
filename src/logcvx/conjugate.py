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
"""
from __future__ import annotations

import numpy as np

from .errors import OutOfRange

# Most samples one product grid may hold (m**d): the time of ``biconjugate``
# grows as m**d.  The default grids (200**2 and 50**3, at most 45**4 beyond,
# and 600**2 in the benchmark) fit.
MAX_SAMPLES = 2**22

# Samples per block of ``biconjugate``, and scores per block of ``assoc``'s
# omega kernel: 512 KiB per float array, so the few arrays of a block stay in
# a 2 MiB L2 cache.
_BLOCK_SAMPLES = 2**16


def check_samples(per_axis: float, dim: int) -> None:
    if per_axis > MAX_SAMPLES or per_axis ** dim > MAX_SAMPLES:
        raise OutOfRange(f"{per_axis:g}**{dim} samples exceed MAX_SAMPLES = {MAX_SAMPLES}")


def _max_plus(F: np.ndarray, xs: np.ndarray, out=None) -> np.ndarray:
    """max_b (F[b] + b xs), broadcast, into ``out`` as a running maximum in
    ascending b.  Each sum is added in place onto a copy of b xs, which runs
    about twice as fast as adding into a third array."""
    out = np.empty(np.broadcast_shapes(F.shape[1:], xs.shape)) if out is None else out
    out.fill(-np.inf)
    tmp = np.empty_like(out)
    for b in range(F.shape[0]):
        np.copyto(tmp, b * xs)
        tmp += F[b]
        np.maximum(out, tmp, out=out)
    return out


def _reduce_last(V: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """max over the trailing sample axis of V + c x for c = 0, ..., n - 1, as
    a new trailing axis."""
    vals = np.empty(V.shape[:-1] + (n,))
    T = np.empty_like(V)
    for c in range(n):
        np.add(V, c * x, out=T)
        T.max(axis=-1, out=vals[..., c])
    return vals


def biconjugate(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """max_s (<alpha, s> - A(s)) at every alpha of the box, with A the
    conjugate of f on x^d, of the shape of f.

    Sample axes are reduced last to first.  The last forward pass and the
    reduction over the last sample axis run together, a block of rows of that
    axis at a time, so the m^d grid of A is never formed.
    """
    check_samples(x.size, f.ndim)
    m, n = x.size, f.shape[-1]
    F = -np.asarray(f, dtype=float)
    for _ in range(f.ndim - 1):
        F = _max_plus(F[..., None], x)
    F = F.reshape(n, -1, 1)  # (N_d + 1, rows of (s_1, ..., s_{d-1}), 1)
    V = np.empty((F.shape[1], n))
    step = max(1, _BLOCK_SAMPLES // m)
    A = np.empty((min(step, F.shape[1]), m))
    for r in range(0, F.shape[1], step):
        blk = F[:, r:r + step]
        a = _max_plus(blk, x, A[:blk.shape[1]])
        V[r:r + step] = _reduce_last(np.negative(a, out=a), x, n)
    V = V.reshape((m,) * (f.ndim - 1) + (n,))
    for j in reversed(range(f.ndim - 1)):
        # V has axes (s_1, ..., s_j, alpha_{j+1}, ...); reduce over a trailing s_j
        V = np.ascontiguousarray(np.moveaxis(V, j, -1))
        V = np.moveaxis(_reduce_last(V, x, f.shape[j]), -1, j)
    return V

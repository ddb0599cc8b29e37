"""Sampled discrete Legendre conjugates on product grids, one axis at a time.

For f on the lattice box [0, N_1] x ... x [0, N_d] (+inf imposes nothing) and
the same m axis samples x on every axis, ``forward`` gives A(s) = max_beta
(<s, beta> - f_beta) at every s in x^d, and ``backward`` max_s (<alpha, s> -
A(s)) at every lattice alpha.  Both split into nested 1-D max-plus passes,
O(d m^d max_j (N_j + 1)) each (Lucet 1997, "Faster than the fast Legendre
transform", Numer. Algorithms 16:171-185).
"""
from __future__ import annotations

import numpy as np

from .errors import OutOfRange

# Most samples one product grid may hold (m**d), 32 MiB per float array; the
# default grids (200**2 and 50**3, and 600**2 in the benchmark) fit.
MAX_SAMPLES = 2**22


def check_samples(per_axis: float, dim: int) -> None:
    if per_axis > MAX_SAMPLES or per_axis ** dim > MAX_SAMPLES:
        raise OutOfRange(f"{per_axis:g}**{dim} samples exceed MAX_SAMPLES = {MAX_SAMPLES}")


def forward(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """A(s) at every s in x^d, of shape (m,) * d; f has the shape of the box."""
    check_samples(x.size, f.ndim)
    F = -np.asarray(f, dtype=float)
    for _ in range(f.ndim):
        # a running maximum over the leading lattice axis makes a trailing sample axis
        out = np.full(F.shape[1:] + (x.size,), -np.inf)
        tmp = np.empty_like(out)
        for b in range(F.shape[0]):
            np.add(F[b][..., None], b * x, out=tmp)
            np.maximum(out, tmp, out=out)
        F = out
    return F


def backward(x: np.ndarray, A: np.ndarray, box) -> tuple[np.ndarray, np.ndarray]:
    """max_s (<alpha, s> - A(s)) at every alpha of the box, and the row-major
    flat index of its maximising sample, both of the shape of the box.

    Sample axes are reduced last to first, each to its first maximum, so the
    lexicographically first of tied samples wins.
    """
    V, P = -A, None
    for j in reversed(range(A.ndim)):
        # V has axes (s_0, ..., s_j, alpha_{j+1}, ...); reduce over a trailing s_j
        V = np.ascontiguousarray(np.moveaxis(V, j, -1))
        P = None if P is None else np.ascontiguousarray(np.moveaxis(P, j, -1))
        vals = np.empty(V.shape[:j] + (box[j] + 1,) + V.shape[j:-1])
        args = np.empty(vals.shape, dtype=np.intp)
        T = np.empty_like(V)
        for c in range(box[j] + 1):
            np.add(V, c * x, out=T)
            i = T.argmax(axis=-1)[..., None]
            at = (slice(None),) * j + (c,)
            vals[at] = np.take_along_axis(T, i, -1)[..., 0]
            args[at] = (i[..., 0] + x.size * np.arange(i.size).reshape(i.shape[:-1])
                        if P is None else np.take_along_axis(P, i, -1)[..., 0])
        V, P = vals, args
    return V, P

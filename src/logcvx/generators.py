"""Deterministic example grids and a tiny seeded PRNG.

Everything here is reproducible from explicit integer seeds so test fixtures
and CLI outputs can be regenerated byte for byte on any platform: every sum
runs elementwise in a fixed order, never in a matrix product, whose order
follows the BLAS kernel.  The PRNG is SplitMix64; the update formula is part
of the public contract:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    z = z XOR (z >> 31)

and a float in [0, 1) is (z >> 11) * 2^-53.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (EXP, LOG, SequenceGrid, index_array, order_array, require_exp_range,
                   to_exp)
from .errors import DimensionMismatch, OutOfRange

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Seeded 64-bit PRNG with the update formula documented above."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def floats(self, n: int) -> np.ndarray:
        return np.array([self.random() for _ in range(n)], dtype=float)


def random_grid(box: tuple[int, ...], seed: int, scale: str = LOG,
                amplitude: float = 4.0, lift: float = 1.0) -> SequenceGrid:
    """Uniform noise on a parabolic ramp: a_alpha = amplitude*u + lift*|alpha|^2,
    shifted so a_0 = 0.  Draws are consumed in row-major index order, one per
    grid point, so output is a pure function of (box, seed)."""
    if not (math.isfinite(amplitude) and math.isfinite(lift)):
        raise OutOfRange(f"amplitude and lift must be finite, got {amplitude!r}, {lift!r}")
    rng = SplitMix64(seed)
    orders = order_array(box).astype(float)
    a = amplitude * rng.floats(orders.size) + lift * orders ** 2
    a -= a[0]
    g = SequenceGrid(box, a, LOG)
    if scale == EXP:
        require_exp_range(float(a.max()), f"box {box}")
        return to_exp(g)
    return g


def notconvex_grid(box: tuple[int, int] = (4, 4), scale: str = EXP) -> SequenceGrid:
    """M_alpha = exp(((alpha_1+1)(alpha_2+1))^2 - 1) on a two-dimensional box.

    Log-convex along every axis yet not jointly log-convex: the log values at
    (2,0) and (0,2) are both 8, so any plane below the sequence is at most 8
    at (1,1), while a_{(1,1)} = 15.
    """
    if len(box) != 2:
        raise DimensionMismatch("this example is two-dimensional")
    idx = index_array(box).astype(float)
    a = ((idx[:, 0] + 1.0) * (idx[:, 1] + 1.0)) ** 2 - 1.0
    g = SequenceGrid(box, a, LOG)
    if scale == EXP:
        require_exp_range(float(a.max()), f"box {box}")
        return to_exp(g)
    return g


def factorial_grid(n: int, scale: str = EXP) -> SequenceGrid:
    """One-dimensional M_p = p! for p = 0..n; on the LOG scale a_p = lgamma(p + 1),
    which has no cap on n.  On the EXP scale n! overflows past n = 170."""
    if n < 0:
        raise OutOfRange("n must be nonnegative")
    if scale != EXP:
        return SequenceGrid((n,), [math.lgamma(p + 1) for p in range(n + 1)], LOG)
    require_exp_range(math.lgamma(n + 1), f"{n}!")
    return SequenceGrid((n,), [float(math.factorial(p)) for p in range(n + 1)], EXP)


def convex_random_grid(box: tuple[int, ...], seed: int) -> SequenceGrid:
    """Sample of a sum of three maxima of four random affine pieces, hence of
    a convex function, so the grid equals its own convex minorant.  Each piece
    draws its d slopes from [-1, 2) and then its offset from [-2, 2), and sums
    its terms axis by axis, then the offset.  LOG scale, a_0 = 0."""
    rng = SplitMix64(seed)
    d = len(box)
    idx = index_array(box).astype(float)
    total = np.zeros(idx.shape[0])
    for _ in range(3):
        slopes = np.array([[rng.uniform(-1.0, 2.0) for _ in range(d)] for _ in range(4)])
        offsets = np.array([rng.uniform(-2.0, 2.0) for _ in range(4)])
        pieces = idx[:, :1] * slopes[:, 0]
        for j in range(1, d):
            pieces += idx[:, j:j + 1] * slopes[:, j]
        total += (pieces + offsets).max(axis=1)
    total -= total[0]
    return SequenceGrid(box, total, LOG)


def log_convex_random_1d(n: int, seed: int) -> SequenceGrid:
    """One-dimensional EXP grid, log-convex by construction: the log values
    are cumulative sums of nondecreasing increments, each increment adding a
    draw from [0, 0.5), with a_0 = 0 (so M_0 = 1 and M_p M_q <= M_{p+q}).
    Both sums run left to right, as np.cumsum adds, and the draws stop at the
    first log value that overflows the EXP scale."""
    if n < 0:
        raise OutOfRange("n must be nonnegative")
    rng = SplitMix64(seed)
    a, step = [0.0], 0.0
    for _ in range(n):
        step += 0.5 * rng.random()
        a.append(a[-1] + step)
        require_exp_range(a[-1], f"n = {n}")
    return SequenceGrid((n,), np.exp(a), EXP)

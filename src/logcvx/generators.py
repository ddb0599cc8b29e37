"""Deterministic example grids and a tiny seeded PRNG.

Everything here is reproducible from explicit integer seeds so test fixtures
and CLI outputs can be regenerated byte for byte on any platform.  The PRNG
is SplitMix64; the update formula is part of the public contract:

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

from .core import EXP, LOG, SequenceGrid, index_array, order_array, to_exp
from .errors import DimensionMismatch, OutOfRange

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# largest log value that still fits a double after exp()
_EXP_LIMIT = 709.0


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
        if float(a.max()) > _EXP_LIMIT:
            raise OverflowError(
                f"log values reach {a.max():.1f}; EXP scale overflows above "
                f"{_EXP_LIMIT:.0f}, request LOG instead")
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
        if float(a.max()) > _EXP_LIMIT:
            raise OverflowError(
                f"box {box} overflows the EXP scale (log max {a.max():.0f}); "
                f"request LOG instead")
        return to_exp(g)
    return g


def factorial_grid(n: int, scale: str = EXP) -> SequenceGrid:
    """One-dimensional M_p = p! for p = 0..n."""
    if n < 0:
        raise OutOfRange("n must be nonnegative")
    if n > 170:
        raise OverflowError("p! exceeds double precision beyond p = 170")
    vals = [float(math.factorial(p)) for p in range(n + 1)]
    g = SequenceGrid((n,), vals, EXP)
    return g if scale == EXP else SequenceGrid((n,), [math.lgamma(p + 1) for p in range(n + 1)], LOG)


def convex_random_grid(box: tuple[int, ...], seed: int, n_terms: int = 3,
                       n_pieces: int = 4, slope_lo: float = -1.0,
                       slope_hi: float = 2.0, offset_scale: float = 2.0) -> SequenceGrid:
    """Sample of a sum of random piecewise-affine maxima, hence of a convex
    function, so the grid equals its own convex minorant.  LOG scale, a_0 = 0."""
    rng = SplitMix64(seed)
    d = len(box)
    idx = index_array(box).astype(float)
    total = np.zeros(idx.shape[0])
    for _ in range(n_terms):
        slopes = np.array([[rng.uniform(slope_lo, slope_hi) for _ in range(d)]
                           for _ in range(n_pieces)])
        offsets = np.array([rng.uniform(-offset_scale, offset_scale)
                            for _ in range(n_pieces)])
        total += (idx @ slopes.T + offsets).max(axis=1)
    total -= total[0]
    return SequenceGrid(box, total, LOG)


def log_convex_random_1d(n: int, seed: int, step_scale: float = 0.5) -> SequenceGrid:
    """One-dimensional EXP grid, log-convex by construction: the log values
    are cumulative sums of nondecreasing increments, with a_0 = 0 (so M_0 = 1
    and M_p M_q <= M_{p+q})."""
    if n < 0:
        raise OutOfRange("n must be nonnegative")
    rng = SplitMix64(seed)
    draws = step_scale * rng.floats(n)
    increments = np.cumsum(draws)
    a = np.concatenate(([0.0], np.cumsum(increments)))
    if float(a[-1]) > _EXP_LIMIT:
        raise OverflowError("log values overflow the EXP scale; shrink n or step_scale")
    return SequenceGrid((n,), np.exp(a), EXP)

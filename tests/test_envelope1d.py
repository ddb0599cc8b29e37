import math

import numpy as np
import pytest

from logcvx.core import EXP, LOG, SequenceGrid
from logcvx.envelope1d import NewtonPolygon, evaluate, sweep
from logcvx.errors import (DimensionMismatch, GridValidationError, OutOfRange,
                           ScaleMismatch)
from logcvx.generators import SplitMix64
from logcvx.lpsolve import brute_force_batch

INF = math.inf


def grid(vals):
    return SequenceGrid((len(vals) - 1,), vals, LOG)


def test_reference_example():
    poly = sweep(grid([0, 2, 1, 6]))
    assert poly.minorant == (0.0, 0.5, 1.0, 6.0)
    assert poly.contacts == (0, 2, 3)
    assert len(poly.segments) == 2
    s0, s1 = poly.segments
    assert (s0.lo, s0.hi, s0.slope, s0.intercept) == (0, 2, 0.5, 0.0)
    assert (s1.lo, s1.hi, s1.slope) == (2, 3, 5.0)
    assert s1.intercept == pytest.approx(-9.0)
    # the contact at the box edge is exactly the value a larger box can lower
    assert poly.boundary_affected == (3,)


def test_interior_infinity_is_skipped():
    poly = sweep(grid([0, INF, 1, 6]))
    assert poly.minorant == (0.0, 0.5, 1.0, 6.0)
    assert poly.contacts == (0, 2, 3)


def test_trailing_infinity():
    poly = sweep(grid([0, 2, INF]))
    assert poly.minorant == (0.0, 2.0, INF)
    assert poly.contacts == (0, 1)
    assert poly.boundary_affected == (2,)


def test_all_segments_on_collinear_data_merge():
    # ties pick the largest minimizer, so one maximal segment covers the line
    poly = sweep(grid([0, 1, 2, 3]))
    assert poly.contacts == (0, 3)
    assert len(poly.segments) == 1
    assert poly.minorant == (0.0, 1.0, 2.0, 3.0)


def test_single_point_box():
    poly = sweep(grid([5.0]))
    assert poly.minorant == (5.0,)
    assert poly.contacts == (0,)
    assert poly.segments == ()
    assert poly.boundary_affected == ()


def test_convex_input_is_fixed_point():
    vals = [0.0, 1.0, 3.0, 6.0, 10.0]
    poly = sweep(grid(vals))
    assert poly.minorant == tuple(vals)
    assert poly.contacts == (0, 1, 2, 3, 4)


def test_minorant_below_data_and_convex():
    rng = SplitMix64(7)
    for trial in range(50):
        n = 2 + rng.next_u64() % 15
        vals = [6.0 * rng.random() for _ in range(n + 1)]
        vals[0] = 0.0
        poly = sweep(grid(vals))
        m = np.array(poly.minorant)
        assert np.all(m <= np.array(vals) + 1e-12)
        inner = m[1:-1]
        assert np.all(2 * inner <= m[:-2] + m[2:] + 1e-9)


def test_slopes_strictly_increase():
    rng = SplitMix64(11)
    for trial in range(30):
        n = 3 + rng.next_u64() % 12
        vals = [5.0 * rng.random() for _ in range(n + 1)]
        poly = sweep(SequenceGrid((n,), vals, LOG))
        slopes = [s.slope for s in poly.segments]
        assert all(b > a for a, b in zip(slopes, slopes[1:]))


def test_agrees_with_brute_force():
    rng = SplitMix64(23)
    for trial in range(60):
        n = 1 + rng.next_u64() % 12
        vals = [8.0 * rng.random() - 2.0 for _ in range(n + 1)]
        if rng.random() < 0.4:
            vals[1 + rng.next_u64() % n] = INF
        g = SequenceGrid((n,), vals, LOG)
        poly = sweep(g)
        P = np.arange(n + 1)[:, None]
        for p, ref in enumerate(brute_force_batch(P, vals, P)):
            assert poly.minorant[p] == pytest.approx(ref, abs=1e-8)


def test_evaluate_interpolates():
    poly = sweep(grid([0, 2, 1, 6]))
    assert evaluate(poly, 0.5) == pytest.approx(0.25)
    assert evaluate(poly, 2.5) == pytest.approx(3.5)
    assert evaluate(poly, 3.0) == pytest.approx(6.0)


def test_evaluate_out_of_range():
    poly = sweep(grid([0, 2, INF]))
    with pytest.raises(OutOfRange):
        evaluate(poly, 1.5)  # beyond the last contact
    with pytest.raises(OutOfRange):
        evaluate(poly, -0.1)


def test_rejects_wrong_shapes():
    with pytest.raises(DimensionMismatch):
        sweep(SequenceGrid((1, 1), [0, 1, 2, 3], LOG))
    with pytest.raises(ScaleMismatch):
        sweep(SequenceGrid((2,), [1, 2, 4], EXP))


def test_rejects_nan_instead_of_reading_it_as_data():
    with pytest.raises(GridValidationError):
        sweep(SequenceGrid((3,), [0, 1, math.nan, 3], LOG))
    with pytest.raises(GridValidationError):
        sweep(grid([INF, 0, 1]))

import math

import numpy as np
import pytest

import logcvx.lpsolve as lps
from logcvx.core import index_array, outer_shell_mask
from logcvx.errors import TargetOutsideHull
from logcvx.generators import SplitMix64, random_grid

INF = math.inf


def on_line(values):
    """Points 0..n-1 of a line carrying ``values``."""
    return np.arange(len(values), dtype=float)[:, None], np.asarray(values, dtype=float)


def test_unbounded():
    # the target lies outside the hull of the finite points: no convex
    # combination reaches it, and the plane LP is unbounded
    P, a = on_line([0.0, 1.0, INF])
    sol = lps.solve(P, a, [2.0])
    assert sol.status == lps.UNBOUNDED
    assert math.isinf(sol.optimum)
    assert sol.point is None
    assert sol.active_rows == ()


def test_infinite_rhs_row_is_dropped():
    # a +inf value is a plane constraint with right-hand side +inf: the point
    # never enters a combination and is never tight
    P, a = on_line([0.0, INF, 1.0])
    sol = lps.solve(P, a, [1.0])
    assert sol.status == lps.OPTIMAL
    assert sol.optimum == pytest.approx(0.5, abs=1e-12)
    assert sol.active_rows == (0, 2)


def test_negative_rhs_needs_phase_one():
    # the plane constraints <k, beta> + h <= a_beta have negative right-hand
    # sides, and the hole target has no finite pair around it: phase 1 runs
    P, a = on_line([-1.0, 3.0, INF, INF, -3.0])
    sol = lps.solve(P, a, [2.0])
    assert sol.status == lps.OPTIMAL
    assert sol.optimum == pytest.approx(-2.0, abs=1e-12)
    assert sol.active_rows == (0, 4)


def test_infeasible_start_falls_back_to_phase_one():
    P, a = on_line([0.0, 2.0, 1.0, 6.0])
    # columns 2 and 3 do not bracket the target 1: negative weights
    cold = lps.solve(P, a, [1.0], start=[2, 3])
    warm = lps.solve(P, a, [1.0], start=[1, 0])
    assert warm.optimum == 0.5
    assert cold.optimum == pytest.approx(0.5, abs=1e-12)
    assert cold.active_rows == warm.active_rows == (0, 2)


def test_degenerate_vertex_terminates():
    # a linear grid with the origin lowered: every point but the origin lies on
    # one plane, so every basis is degenerate and the pivot rules must still
    # terminate
    box = (4, 4)
    P = index_array(box).astype(float)
    a = P.sum(axis=1)
    a[0] = -0.5
    for target, start, want in (([2.0, 2.0], [12, 7, 11], 3.75),
                                ([1.0, 3.0], None, 3.875),
                                ([4.0, 4.0], None, 8.0)):
        sol = lps.solve(P, a, target, start=start)
        assert sol.status == lps.OPTIMAL
        assert sol.optimum == pytest.approx(want, abs=1e-12)
        k, h = sol.point[:2], sol.point[2]
        assert np.all(P @ k + h <= a + 1e-9)
        assert sol.optimum == pytest.approx(k @ np.asarray(target) + h, abs=1e-12)


def test_active_rows_are_tight():
    g = random_grid((4, 3), seed=3)
    P = index_array(g.box).astype(float)
    a = g.flat
    sol = lps.solve(P, a, [2.0, 1.0])
    k, h = sol.point[:2], sol.point[2]
    gap = a - (P @ k + h)
    tight = np.flatnonzero(np.abs(gap) <= lps.FEAS_TOL * np.maximum(1.0, np.abs(a)))
    assert sol.active_rows == tuple(tight.tolist())
    assert np.all(gap >= -1e-12)


def test_contact_value_is_the_data_bit_for_bit():
    # 1 is a contact; the start plane through 1 and 2 rises above the point 3,
    # and the degenerate pivot that fixes it keeps the weight 1 on the target
    P, a = on_line([0.0, 0.1, 5.0, 0.9])
    sol = lps.solve(P, a, [1.0], start=[1, 2])
    assert sol.optimum == a[1]
    assert sol.active_rows == (1, 3)


def test_repeats_are_bit_identical():
    box = (5, 4)
    g = random_grid(box, seed=5)
    P = index_array(box).astype(float)
    a = g.flat.copy()
    a[[7, 13]] = INF
    shell = outer_shell_mask(box)
    for target in P:
        one = lps.solve(P, a, target, shell)
        two = lps.solve(P, a, target, shell)
        assert one.status == two.status
        assert one.point.tobytes() == two.point.tobytes()
        assert np.float64(one.optimum).tobytes() == np.float64(two.optimum).tobytes()
        assert one.active_rows == two.active_rows


def test_shell_is_avoided_when_some_optimal_plane_does():
    # a = [0, 0, 1, 2]: at 1 the slopes 0..1 are all optimal; slope 1 touches
    # the shell point 3, slope 0 does not
    P, a = on_line([0.0, 0.0, 1.0, 2.0])
    shell = np.array([False, False, False, True])
    sol = lps.solve(P, a, [1.0], shell, start=[1, 2])
    assert sol.optimum == 0.0
    assert 3 not in sol.active_rows
    # at 2 every optimal plane has slope 1 and touches 3
    assert 3 in lps.solve(P, a, [2.0], shell).active_rows


def test_validation_rejects_bad_shapes():
    P, a = on_line([0.0, 1.0])
    with pytest.raises(ValueError):
        lps.solve(P, a[:1], [0.0])
    with pytest.raises(ValueError):
        lps.solve(P, a, [0.0, 1.0])
    with pytest.raises(ValueError):
        lps.solve(P, np.array([0.0, np.nan]), [0.0])
    with pytest.raises(ValueError):
        lps.solve(P, np.array([0.0, -INF]), [0.0])


def test_brute_force_1d_example():
    pts = [((0,), 0.0), ((1,), 2.0), ((2,), 1.0), ((3,), 6.0)]
    assert lps.brute_force_envelope(pts, (1,)) == pytest.approx(0.5, abs=1e-12)
    assert lps.brute_force_envelope(pts, (2,)) == pytest.approx(1.0, abs=1e-12)


def test_brute_force_ignores_infinite_points():
    pts = [((0,), 0.0), ((1,), INF), ((2,), 1.0)]
    assert lps.brute_force_envelope(pts, (1,)) == pytest.approx(0.5, abs=1e-12)


def test_brute_force_outside_hull():
    pts = [((0,), 0.0), ((1,), 2.0), ((2,), INF)]
    with pytest.raises(TargetOutsideHull):
        lps.brute_force_envelope(pts, (2,))


def test_brute_force_no_finite_points():
    with pytest.raises(TargetOutsideHull):
        lps.brute_force_envelope([((0,), INF)], (0,))


def test_brute_force_single_point():
    assert lps.brute_force_envelope([((2, 3), 5.0)], (2, 3)) == pytest.approx(5.0)


def test_brute_force_collinear_2d():
    # all abscissae on one line: every 3-point determinant vanishes, the
    # least-squares fallback must still combine endpoints
    pts = [((0, 0), 0.0), ((1, 1), 4.0), ((2, 2), 2.0)]
    v = lps.brute_force_envelope(pts, (1, 1))
    assert v == pytest.approx(1.0, abs=1e-9)


def test_brute_force_2d_square():
    pts = [((0, 0), 0.0), ((2, 0), 8.0), ((0, 2), 8.0), ((1, 1), 15.0),
           ((2, 2), 80.0), ((1, 0), 3.0), ((0, 1), 3.0), ((2, 1), 35.0),
           ((1, 2), 35.0)]
    assert lps.brute_force_envelope(pts, (1, 1)) == pytest.approx(8.0, abs=1e-12)


def test_brute_force_matches_lp_on_random_grids():
    rng = SplitMix64(99)
    for trial in range(25):
        n = 3 + rng.next_u64() % 6
        vals = np.array([4.0 * rng.random() for _ in range(n + 1)])
        vals[0] = 0.0
        pts = [((p,), float(v)) for p, v in enumerate(vals)]
        P = np.arange(n + 1, dtype=float)[:, None]
        for target in range(n + 1):
            sol = lps.solve(P, vals, [float(target)])
            bf = lps.brute_force_envelope(pts, (target,))
            assert sol.status == lps.OPTIMAL
            assert bf == pytest.approx(sol.optimum, abs=1e-8)

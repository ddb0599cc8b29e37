import itertools
import math

import numpy as np
import pytest

import logcvx.lpsolve as lps
from logcvx.core import LOG, SequenceGrid, index_array, outer_shell_mask
from logcvx.envelope import _start_bases, minorant_lp
from logcvx.errors import NumericBreakdown
from logcvx.generators import SplitMix64, convex_random_grid, random_grid

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
    P, a = on_line([0.0, 2.0, 1.0, 6.0])
    assert lps.brute_force_batch(P, a, [[1], [2]]) == pytest.approx([0.5, 1.0], abs=1e-12)


def test_brute_force_ignores_infinite_points():
    P, a = on_line([0.0, INF, 1.0])
    assert lps.brute_force_batch(P, a, [[1]])[0] == pytest.approx(0.5, abs=1e-12)


def test_brute_force_outside_hull():
    P, a = on_line([0.0, 2.0, INF])
    assert lps.brute_force_batch(P, a, [[2]])[0] == INF


def test_brute_force_no_finite_points():
    assert lps.brute_force_batch([[0]], [INF], [[0]])[0] == INF


def test_brute_force_single_point():
    assert lps.brute_force_batch([[2, 3]], [5.0], [[2, 3]])[0] == pytest.approx(5.0)


def test_brute_force_collinear_2d():
    # all abscissae on one line: every 3-point determinant vanishes, the
    # least-squares fallback must still combine endpoints
    v = lps.brute_force_batch([[0, 0], [1, 1], [2, 2]], [0.0, 4.0, 2.0], [[1, 1]])[0]
    assert v == pytest.approx(1.0, abs=1e-9)


def test_brute_force_2d_square():
    P = [[0, 0], [2, 0], [0, 2], [1, 1], [2, 2], [1, 0], [0, 1], [2, 1], [1, 2]]
    a = [0.0, 8.0, 8.0, 15.0, 80.0, 3.0, 3.0, 35.0, 35.0]
    assert lps.brute_force_batch(P, a, [[1, 1]])[0] == pytest.approx(8.0, abs=1e-12)


def test_brute_force_matches_lp_on_random_grids():
    rng = SplitMix64(99)
    for trial in range(25):
        n = 3 + rng.next_u64() % 6
        vals = np.array([4.0 * rng.random() for _ in range(n + 1)])
        vals[0] = 0.0
        P = np.arange(n + 1, dtype=float)[:, None]
        for target in range(n + 1):
            sol = lps.solve(P, vals, [float(target)])
            bf = lps.brute_force_batch(P, vals, [[target]])[0]
            assert sol.status == lps.OPTIMAL
            assert bf == pytest.approx(sol.optimum, abs=1e-8)


# ------------------------------------------------------------ the batch


def holed_lattice(box, seed, share=0.2):
    """Lattice points of ``box`` with random_grid data and a share of the
    entries but the origin, the outer shell included, set to +inf; so is the
    far corner, which leaves it outside the hull of the finite points."""
    P = index_array(box).astype(float)
    a = random_grid(box, seed=seed).flat.copy()
    rng = np.random.default_rng(seed)
    a[rng.choice(np.arange(1, a.size), int(share * a.size), replace=False)] = INF
    a[-1] = INF
    return P, a


def assert_same(one, batch, t):
    """A single solve equals row t of a batch, bit for bit."""
    assert one.status == (lps.UNBOUNDED if batch.unbounded[t] else lps.OPTIMAL)
    assert np.float64(one.optimum).tobytes() == batch.optimum[t].tobytes()
    assert one.active_rows == tuple(np.flatnonzero(batch.tight[t]).tolist())
    if one.point is None:
        assert np.isnan(batch.point[t]).all()
    else:
        assert one.point.tobytes() == batch.point[t].tobytes()


def test_batch_rows_equal_single_solves_bit_for_bit():
    # each target's arithmetic is independent of the others in its batch,
    # whatever their phase: holes give phase-1 targets and unbounded ones,
    # the shell gives tilted certificates
    for seed, box in enumerate([(5, 4), (3, 3, 2), (12,)]):
        P, a = holed_lattice(box, seed + 40)
        shell = outer_shell_mask(box)
        starts = _start_bases(np.isfinite(a), box)
        batch = lps.solve_batch(P, a, P, shell, starts)
        assert batch.unbounded.any() and not batch.unbounded.all()
        assert (starts < 0).any() and (starts >= 0).any()
        for t in range(len(P)):
            start = starts[t] if starts[t, 0] >= 0 else None
            assert_same(lps.solve(P, a, P[t], shell, start), batch, t)


def test_blocks_do_not_change_the_results(monkeypatch):
    P, a = holed_lattice((6, 5), 3)
    shell = outer_shell_mask((6, 5))
    whole = lps.solve_batch(P, a, P, shell)
    # blocks of 2 targets: 2 * (n + d + 1) entries
    monkeypatch.setattr(lps, "BLOCK_ENTRIES", 2 * (len(P) + 3))
    split = lps.solve_batch(P, a, P, shell)
    for f in ("unbounded", "optimum", "point", "tight"):
        assert getattr(whole, f).tobytes() == getattr(split, f).tobytes()


def test_empty_batch():
    P, a = on_line([0.0, 1.0, 3.0])
    out = lps.solve_batch(P, a, np.empty((0, 1)), np.array([True, False, True]))
    assert out.optimum.shape == (0,) and out.point.shape == (0, 2)
    assert out.tight.shape == (0, 3) and out.unbounded.shape == (0,)


def test_singular_and_infeasible_starts_run_phase_one_in_a_batch():
    P, a = on_line([0.0, 2.0, 1.0, 6.0])
    starts = np.array([[1, 0], [2, 2], [2, 3], [-1, -1]])  # fine, singular, infeasible, none
    batch = lps.solve_batch(P, a, np.ones((4, 1)), None, starts)
    assert batch.optimum[0] == 0.5
    assert batch.optimum[1:] == pytest.approx([0.5] * 3, abs=1e-12)
    assert batch.tight.tolist() == [[True, False, True, False]] * 4
    with pytest.raises(ValueError):
        lps.solve_batch(P, a, np.ones((1, 1)), None, np.array([[0, 4]]))
    with pytest.raises(ValueError):
        lps.solve(P, a, [1.0], start=[-1, 0])


def test_bland_rule_ends_a_cycle(monkeypatch):
    # a = floor(4 |beta - (8, 8)|) - 45 on the (16, 16) box: at (9, 9) the plane
    # through the start basis (9, 9), (8, 9), (9, 8) rises above the data,
    # and the most-negative rule pivots in a cycle of degenerate bases, the
    # weight staying on the target; after BLAND_AFTER degenerate pivots
    # Bland's rule takes over and ends it
    box = (16, 16)
    P = index_array(box).astype(float)
    a = np.floor(4.0 * np.linalg.norm(P - 8.0, axis=1))
    a -= a[0]
    shell = outer_shell_mask(box)
    i, start = 9 * 17 + 9, [9 * 17 + 9, 8 * 17 + 9, 9 * 17 + 8]
    sol = lps.solve(P, a, P[i], shell, start=start)
    assert sol.status == lps.OPTIMAL
    assert sol.optimum == a[i]
    k, h = sol.point[:2], sol.point[2]
    assert np.all(P @ k + h <= a + 1e-9)
    assert i in sol.active_rows
    # the same target inside a batch whose other targets never switch
    batch = lps.solve_batch(P, a, P[[0, i, 40]], shell, [[0, 1, 17], start, [40, 39, 23]])
    assert_same(sol, batch, 1)
    monkeypatch.setattr(lps, "BLAND_AFTER", 10**9)
    with pytest.raises(NumericBreakdown, match="no convergence"):
        lps.solve(P, a, P[i], shell, start=start)


def test_a_basic_column_never_reenters():
    # scaled by 1e6, a basic column prices below -RED_TOL * scale by rounding
    # alone; pivoting it in for itself changed nothing, so the targets cycled
    # until NumericBreakdown after 2,950 pivots
    g = convex_random_grid((5, 5), 0)
    big = SequenceGrid(g.box, g.flat * 1e6, LOG)
    res = minorant_lp(big)  # convex data: the minorant is the data
    assert np.allclose(res.minorant.flat, big.flat, rtol=1e-12, atol=1e-7)


def test_brute_force_batch_matches_single_targets():
    # a target's value does not depend on the other targets of its batch
    P, a = holed_lattice((3, 2), 5, share=0.3)
    values = lps.brute_force_batch(P, a, P)
    for p, v in zip(P, values):
        assert v == lps.brute_force_batch(P, a, [p])[0]
    assert np.isinf(values).any()


def reference_fallback(P, a, targets):
    """brute_force_batch's least-squares fallback as one lstsq per subset and
    target: every target at which it finds a convex combination, and its value."""
    keep = np.isfinite(a)
    P, a = P[keep], a[keep]
    n, d = P.shape
    out = np.full(len(targets), INF)
    for t, alpha in enumerate(np.asarray(targets, dtype=float)):
        rhs = np.concatenate([[1.0], alpha])
        for size in range(1, min(n, d + 1) + 1):
            for combo in itertools.combinations(range(n), size):
                Q = np.vstack([np.ones(size), P[list(combo)].T])
                lam, *_ = np.linalg.lstsq(Q, rhs, rcond=None)
                if np.all(lam >= -1e-12) and np.allclose(Q @ lam, rhs, atol=1e-9):
                    out[t] = min(out[t], float(lam @ a[list(combo)]))
    return out


@pytest.mark.parametrize("box", [(4, 0), (0, 3), (3, 0, 2), (2, 2), (2, 1, 1)])
def test_brute_force_fallback_matches_the_per_target_loop(box):
    # zero extents leave every (d+1)-subset degenerate, so every value comes
    # from the fallback; holes put targets outside the hull
    for seed in range(3):
        P, a = holed_lattice(box, seed, share=0.25)
        np.testing.assert_allclose(lps.brute_force_batch(P, a, P), reference_fallback(P, a, P),
                                   rtol=1e-12, atol=1e-12)

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import logcvx.lpsolve as lps
from logcvx.core import LOG, SequenceGrid, index_array, outer_shell_mask
from logcvx.envelope import _start_bases, minorant_lp
from logcvx.errors import NumericBreakdown
from logcvx.generators import SplitMix64, convex_random_grid, random_grid

INF = math.inf


def on_line(values):
    """The box (n-1,), whose lattice is the points 0..n-1 of a line, carrying ``values``."""
    return (len(values) - 1,), np.asarray(values, dtype=float)


def test_unbounded():
    # the target lies outside the hull of the finite points: no convex
    # combination reaches it, and the plane LP is unbounded
    box, a = on_line([0.0, 1.0, INF])
    sol = lps.solve(box, a, [2.0])
    assert sol.status == lps.UNBOUNDED
    assert math.isinf(sol.optimum)
    assert sol.point is None
    assert sol.active_rows == ()


def test_infinite_rhs_row_is_dropped():
    # a +inf value is a plane constraint with right-hand side +inf: the point
    # never enters a combination and is never tight
    box, a = on_line([0.0, INF, 1.0])
    sol = lps.solve(box, a, [1.0])
    assert sol.status == lps.OPTIMAL
    assert sol.optimum == pytest.approx(0.5, abs=1e-12)
    assert sol.active_rows == (0, 2)


def test_negative_rhs_needs_phase_one():
    # the plane constraints <k, beta> + h <= a_beta have negative right-hand
    # sides, and the hole target has no finite pair around it: phase 1 runs
    box, a = on_line([-1.0, 3.0, INF, INF, -3.0])
    sol = lps.solve(box, a, [2.0])
    assert sol.status == lps.OPTIMAL
    assert sol.optimum == pytest.approx(-2.0, abs=1e-12)
    assert sol.active_rows == (0, 4)


def test_infeasible_start_falls_back_to_phase_one():
    box, a = on_line([0.0, 2.0, 1.0, 6.0])
    # columns 2 and 3 do not bracket the target 1: negative weights
    cold = lps.solve(box, a, [1.0], start=[2, 3])
    warm = lps.solve(box, a, [1.0], start=[1, 0])
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
        sol = lps.solve(box, a, target, start=start)
        assert sol.status == lps.OPTIMAL
        assert sol.optimum == pytest.approx(want, abs=1e-12)
        k, h = sol.point[:2], sol.point[2]
        assert np.all(P @ k + h <= a + 1e-9)
        assert sol.optimum == pytest.approx(k @ np.asarray(target) + h, abs=1e-12)


def test_active_rows_are_tight():
    g = random_grid((4, 3), seed=3)
    P = index_array(g.box).astype(float)
    a = g.flat
    sol = lps.solve(g.box, a, [2.0, 1.0])
    k, h = sol.point[:2], sol.point[2]
    gap = a - (P @ k + h)
    tight = np.flatnonzero(np.abs(gap) <= lps.FEAS_TOL * np.maximum(1.0, np.abs(a)))
    assert sol.active_rows == tuple(tight.tolist())
    assert np.all(gap >= -1e-12)


def test_contact_value_is_the_data_bit_for_bit():
    # 1 is a contact; the start plane through 1 and 2 rises above the point 3,
    # and the degenerate pivot that fixes it keeps the weight 1 on the target
    box, a = on_line([0.0, 0.1, 5.0, 0.9])
    sol = lps.solve(box, a, [1.0], start=[1, 2])
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
        one = lps.solve(box, a, target, shell)
        two = lps.solve(box, a, target, shell)
        assert one.status == two.status
        assert one.point.tobytes() == two.point.tobytes()
        assert np.float64(one.optimum).tobytes() == np.float64(two.optimum).tobytes()
        assert one.active_rows == two.active_rows


def test_shell_is_avoided_when_some_optimal_plane_does():
    # a = [0, 0, 1, 2]: at 1 the slopes 0..1 are all optimal; slope 1 touches
    # the shell point 3, slope 0 does not
    box, a = on_line([0.0, 0.0, 1.0, 2.0])
    shell = np.array([False, False, False, True])
    sol = lps.solve(box, a, [1.0], shell, start=[1, 2])
    assert sol.optimum == 0.0
    assert 3 not in sol.active_rows
    # at 2 every optimal plane has slope 1 and touches 3
    assert 3 in lps.solve(box, a, [2.0], shell).active_rows


def test_validation_rejects_bad_shapes():
    box, a = on_line([0.0, 1.0])
    with pytest.raises(ValueError):
        lps.solve(box, a[:1], [0.0])
    with pytest.raises(ValueError):
        lps.solve(box, a, [0.0, 1.0])
    with pytest.raises(ValueError):
        lps.solve(box, np.array([0.0, np.nan]), [0.0])
    with pytest.raises(ValueError):
        lps.solve(box, np.array([0.0, -INF]), [0.0])
    # the values, one per lattice point of the box: 3 * 2 = 6 on (2, 1)
    for values in (np.zeros(5), np.zeros(7), np.zeros((3, 2))):
        with pytest.raises(ValueError, match="shapes"):
            lps.solve_batch((2, 1), values, np.zeros((1, 2)))
    # the extents: integers, none negative
    for bad in ((-1,), (2, -1), (1.0,), (np.float64(2.0), 1), (1.5,), ("1",)):
        with pytest.raises(ValueError, match="extents"):
            lps.solve_batch(bad, np.zeros(2), np.zeros((1, len(bad))))
    assert lps.solve_batch((np.int64(1),), a, np.zeros((1, 1))).optimum.tolist() == [0.0]
    # the targets d wide, the starts d+1
    for targets in (np.zeros((1, 1)), np.zeros((1, 3)), np.zeros(2)):
        with pytest.raises(ValueError, match="shapes"):
            lps.solve_batch((2, 1), np.zeros(6), targets)
    for starts in ([[0, 1]], [[0, 1, 2, 3]], [[0, 1, 2]] * 2, [[0, 1, 6]]):
        with pytest.raises(ValueError, match="starts"):
            lps.solve_batch((2, 1), np.zeros(6), np.zeros((1, 2)), None, starts)


def test_brute_force_1d_example():
    box, a = on_line([0.0, 2.0, 1.0, 6.0])
    assert lps.brute_force_batch(index_array(box), a, [[1], [2]]).tolist() == [0.5, 1.0]


def test_brute_force_ignores_infinite_points():
    box, a = on_line([0.0, INF, 1.0])
    assert lps.brute_force_batch(index_array(box), a, [[1]])[0] == 0.5


def test_brute_force_outside_hull():
    box, a = on_line([0.0, 2.0, INF])
    assert lps.brute_force_batch(index_array(box), a, [[2]])[0] == INF


def test_brute_force_no_finite_points():
    assert lps.brute_force_batch([[0]], [INF], [[0]])[0] == INF


def test_brute_force_single_point():
    assert lps.brute_force_batch([[2, 3]], [5.0], [[2, 3]])[0] == 5.0


def test_brute_force_collinear_2d():
    # all abscissae on one line: every 3-point determinant vanishes, and the
    # endpoints combine through a nonzero 2-row minor that rebuilds every row
    v = lps.brute_force_batch([[0, 0], [1, 1], [2, 2]], [0.0, 4.0, 2.0], [[1, 1]])[0]
    assert v == 1.0


def test_brute_force_2d_square():
    P = [[0, 0], [2, 0], [0, 2], [1, 1], [2, 2], [1, 0], [0, 1], [2, 1], [1, 2]]
    a = [0.0, 8.0, 8.0, 15.0, 80.0, 3.0, 3.0, 35.0, 35.0]
    assert lps.brute_force_batch(P, a, [[1, 1]])[0] == 8.0


def test_brute_force_matches_lp_on_random_grids():
    rng = SplitMix64(99)
    for trial in range(25):
        n = 3 + rng.next_u64() % 6
        vals = np.array([4.0 * rng.random() for _ in range(n + 1)])
        vals[0] = 0.0
        P = np.arange(n + 1, dtype=float)[:, None]
        for target in range(n + 1):
            sol = lps.solve((int(n),), vals, [float(target)])
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
        batch = lps.solve_batch(box, a, P, shell, starts)
        assert batch.unbounded.any() and not batch.unbounded.all()
        assert (starts < 0).any() and (starts >= 0).any()
        for t in range(len(P)):
            start = starts[t] if starts[t, 0] >= 0 else None
            assert_same(lps.solve(box, a, P[t], shell, start), batch, t)


def test_blocks_do_not_change_the_results(monkeypatch):
    box = (6, 5)
    P, a = holed_lattice(box, 3)
    shell = outer_shell_mask(box)
    whole = lps.solve_batch(box, a, P, shell)
    # blocks of 2 targets: 2 * (n + d + 1) entries
    monkeypatch.setattr(lps, "BLOCK_ENTRIES", 2 * (len(P) + 3))
    split = lps.solve_batch(box, a, P, shell)
    for f in ("unbounded", "optimum", "point", "tight"):
        assert getattr(whole, f).tobytes() == getattr(split, f).tobytes()


def test_empty_batch():
    box, a = on_line([0.0, 1.0, 3.0])
    out = lps.solve_batch(box, a, np.empty((0, 1)), np.array([True, False, True]))
    assert out.optimum.shape == (0,) and out.point.shape == (0, 2)
    assert out.tight.shape == (0, 3) and out.unbounded.shape == (0,)


def test_singular_and_infeasible_starts_run_phase_one_in_a_batch():
    box, a = on_line([0.0, 2.0, 1.0, 6.0])
    starts = np.array([[1, 0], [2, 2], [2, 3], [-1, -1]])  # fine, singular, infeasible, none
    batch = lps.solve_batch(box, a, np.ones((4, 1)), None, starts)
    assert batch.optimum[0] == 0.5
    assert batch.optimum[1:] == pytest.approx([0.5] * 3, abs=1e-12)
    assert batch.tight.tolist() == [[True, False, True, False]] * 4
    with pytest.raises(ValueError):
        lps.solve_batch(box, a, np.ones((1, 1)), None, np.array([[0, 4]]))
    with pytest.raises(ValueError):
        lps.solve(box, a, [1.0], start=[-1, 0])


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
    sol = lps.solve(box, a, P[i], shell, start=start)
    assert sol.status == lps.OPTIMAL
    assert sol.optimum == a[i]
    k, h = sol.point[:2], sol.point[2]
    assert np.all(P @ k + h <= a + 1e-9)
    assert i in sol.active_rows
    # the same target inside a batch whose other targets never switch
    batch = lps.solve_batch(box, a, P[[0, i, 40]], shell, [[0, 1, 17], start, [40, 39, 23]])
    assert_same(sol, batch, 1)
    monkeypatch.setattr(lps, "BLAND_AFTER", 10**9)
    with pytest.raises(NumericBreakdown, match="no convergence"):
        lps.solve(box, a, P[i], shell, start=start)


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


def reference_lstsq(P, a, targets):
    """The envelope by least squares, one lstsq per subset of at most d+1
    points and target: every target at which it finds a convex combination,
    and its value."""
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
def test_brute_force_matches_least_squares_on_degenerate_boxes(box):
    # zero extents leave every (d+1)-subset degenerate, so every value comes
    # from a smaller subset and its rebuild check; holes put targets outside
    # the hull
    for seed in range(3):
        P, a = holed_lattice(box, seed, share=0.25)
        np.testing.assert_allclose(lps.brute_force_batch(P, a, P), reference_lstsq(P, a, P),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("points, targets", [
    ([[0.0], [0.5], [2.0]], [[1]]),
    ([[0], [1], [2]], [[1.5]]),
    ([[0], [1], [2]], [[math.nan]]),
    ([[0], [math.inf]], [[0]]),
])
def test_brute_force_takes_only_integer_abscissae_and_targets(points, targets):
    with pytest.raises(ValueError, match="integer"):
        lps.brute_force_batch(points, np.zeros(len(points)), targets)


def test_brute_force_refuses_coordinates_past_the_int64_bound():
    # the Hadamard bound (d+1)^2 (1 + r2)^(d+2) < 2^126 at d = 2: |x| = 2^13
    # passes, 2^20 does not, in the abscissae or in the targets
    P = np.array([[0, 0], [1, 0], [0, 1]])
    assert lps.brute_force_batch(P * 2 ** 13, [0.0, 1.0, 2.0], [[0, 0]])[0] == 0.0
    for points, target in ((P * 2 ** 20, [[0, 0]]), (P, [[2 ** 20, 0]])):
        with pytest.raises(ValueError, match="int64"):
            lps.brute_force_batch(points, [0.0, 1.0, 2.0], target)


# ------------------------------------------------------ the pricing kernel


def reference_relative(P, alpha, y):
    """Values y_0 + y_1 (P_1 - alpha_1) + ... + y_d (P_d - alpha_d) of the
    target-relative planes y at every row of the point array P, summed in
    that order: the simplex's pricing on general points."""
    vals = np.repeat(y[:, :1], P.shape[0], axis=1)
    for l in range(P.shape[1]):
        vals += y[:, l + 1, None] * (P[:, l] - alpha[:, l, None])
    return vals


def reference_certificates(P, alpha, y):
    """Certificate planes (k, h), h = y_0 - <k, alpha>, and their values
    h + k_1 P_1 + ... + k_d P_d at every row of P, summed in that order."""
    h = y[:, 0] - lps._vecmat(y[:, 1:], alpha[:, :, None])[:, 0]
    vals = np.repeat(h[:, None], P.shape[0], axis=1)
    for l in range(P.shape[1]):
        vals += y[:, l + 1, None] * P[:, l]
    return np.column_stack([y[:, 1:], h]), vals


def kernel_cases(box, seed):
    """Planes y (T, d+1) and offsets (T, d): slopes of mixed signs and
    magnitudes up to 1e15, so that a sum taken in another order rounds
    differently; integer offsets on and off the box, then non-integer ones."""
    rng = np.random.default_rng(seed)
    d = len(box)
    for T in (0, 1, 9):
        y = rng.standard_normal((T, d + 1)) * 10.0 ** rng.integers(-3, 16, (T, d + 1))
        lattice = rng.integers(-1, np.array(box) + 2, (T, d)).astype(float)
        yield y, lattice
        yield y, lattice + rng.uniform(-0.5, 0.5, (T, d)) * 10.0 ** rng.integers(-8, 3, (T, d))


def assert_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("box", [(7,), (4, 0), (0, 3), (3, 0, 2), (10, 10), (4, 4, 4),
                                 (2, 1, 1, 3)])
def test_pricing_on_the_axes_equals_the_point_loop_bit_for_bit(box):
    P = index_array(box).astype(float)
    for seed in range(3):
        for y, alpha in kernel_cases(box, seed):
            assert_bits(lps._planes(box, y[:, 0], y[:, 1:], alpha),
                        reference_relative(P, alpha, y))
            point, vals = lps._certificates(box, alpha, y)
            want_point, want_vals = reference_certificates(P, alpha, y)
            assert_bits(point, want_point)
            assert_bits(vals, want_vals)


def test_no_matrix_product_outside_the_oracle():
    # the simplex sums every plane and every row in a fixed order with
    # elementwise operations, so its results do not depend on the BLAS kernel;
    # only the oracle, exact in int64, and its determinants may multiply matrices
    products = {"dot", "matmul", "einsum", "inner", "tensordot"}
    found = set()
    for node in ast.parse(Path(lps.__file__).read_text()).body:
        for inner in ast.walk(node):
            if (isinstance(inner, (ast.BinOp, ast.AugAssign)) and isinstance(inner.op, ast.MatMult)
                    or isinstance(inner, ast.Attribute) and inner.attr in products
                    or isinstance(inner, ast.Name) and inner.id in products):
                found.add(getattr(node, "name", "<module>"))
    assert "brute_force_batch" in found  # the check sees the oracle's einsum
    assert found <= {"brute_force_batch", "_det", "_adjugate"}

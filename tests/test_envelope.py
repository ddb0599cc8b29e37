"""Supporting-hyperplane minorant in d dimensions: LP route, the intercepts
h_k = -A(k) of the lowest planes of slope k, the sampled dual route, slope
ranges, face restriction and the truncation stability probe."""
import math
from dataclasses import replace

import numpy as np
import pytest

from logcvx import (EXP, LOG, AssociatedFunction, DimensionMismatch,
                    EmptyKGrid, GridMismatch, GridValidationError, KGridSpec,
                    OutOfRange, ScaleMismatch, SequenceGrid, as_log_grid,
                    audit_minorant, axis_slope_range, boundary_restriction,
                    convex_random_grid, envelope1d, factorial_grid, minorant_lp,
                    notconvex_grid, random_grid, stability_probe)
from logcvx import conjugate, lpsolve
from logcvx.core import FEAS_TOL, index_array, outer_shell_mask
from logcvx.envelope import _start_bases
from test_cli import certificate_path_grids
from test_conjugate import ref_forward

REF = SequenceGrid((3,), [0.0, 2.0, 1.0, 6.0], LOG)


def lattice(box):
    return [tuple(r.tolist()) for r in index_array(box)]


# ------------------------------------------------------- h_k = -A(k)


def touching(g, k, h):
    """The points where the plane of slope k and intercept h meets the data."""
    gaps = g.flat - index_array(g.box) @ np.asarray(k, dtype=float)
    return [tuple(r.tolist()) for r in index_array(g.box)[gaps == h]]


def test_h_of_k_picks_lowest_gap_and_reports_touching():
    af = AssociatedFunction(REF)
    assert -af.trace([0.5]) == 0.0
    assert touching(REF, [0.5], 0.0) == [(0,), (2,)]
    assert -af.trace([5.0]) == -9.0
    assert touching(REF, [5.0], -9.0) == [(2,), (3,)]


def test_h_of_k_ignores_infinite_entries():
    g = SequenceGrid((2,), [0.0, math.inf, 4.0], LOG)
    assert -AssociatedFunction(g).trace([1.0]) == 0.0
    assert touching(g, [1.0], 0.0) == [(0,)]


def test_h_of_k_input_guards():
    af = AssociatedFunction(REF)
    with pytest.raises(DimensionMismatch):
        af.trace([1.0, 2.0])
    with pytest.raises(OutOfRange):
        af.trace([math.nan])


# ------------------------------------------------------------ slope ranges


def test_axis_slope_range_reference():
    # pairwise quotients include (1-2)/1 = -1 and (6-1)/1 = 5
    assert axis_slope_range(REF) == pytest.approx((-1.0, 5.0))


def test_axis_slope_range_covers_factorial_top_slope():
    g = as_log_grid(factorial_grid(8))
    lo, hi = axis_slope_range(g)
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(math.log(8.0))
    # the origin-anchored quotients (a_alpha - a_0)/alpha miss it
    assert ((g.flat[1:] - g.flat[0]) / np.arange(1, 9)).max() < hi


def test_axis_slope_range_all_infinite_is_degenerate():
    g = SequenceGrid((2,), [0.0, math.inf, math.inf], LOG)
    assert axis_slope_range(g) == (0.0, 0.0)


def test_axis_slope_range_contains_1d_segment_slopes():
    # a segment joins two contacts, so its slope is literally one of the
    # pairwise quotients the range enumerates
    for seed in range(20):
        g = random_grid((8,), seed=seed)
        lo, hi = axis_slope_range(g)
        poly = envelope1d.sweep(g)
        for seg in poly.segments:
            assert lo - 1e-12 <= seg.slope <= hi + 1e-12


def dual_grid(g, spec=None):
    """The sampled dual route's values at every index, as ``minorant --method
    dual-grid`` runs it."""
    spec = KGridSpec.from_grid(g) if spec is None else spec
    return conjugate.biconjugate(spec.axis_samples(), g.values)


def test_dual_on_default_range_is_step_accurate_in_1d():
    # optimal slopes live inside axis_slope_range, so a step-s grid loses at
    # most s * N against the exact minorant
    for seed in range(15):
        g = random_grid((6,), seed=seed + 300)
        res = minorant_lp(g)
        vals = dual_grid(g, KGridSpec.from_grid(g, step=0.25))
        assert np.all(vals >= res.minorant.values - 0.25 * g.box[0] - 1e-9)


# ---------------------------------------------------------------- k grids


def test_kgrid_axis_samples_and_product():
    spec = KGridSpec(0.0, 1.0, 0.25)
    assert np.allclose(spec.axis_samples(), [0.0, 0.25, 0.5, 0.75, 1.0])
    # the product grid lives inside the kernel: A(k) = max(0, k_1, k_2, k_1 + k_2)
    # over the unit square, at every k of the 5 x 5 product
    A = ref_forward(spec.axis_samples(), np.zeros((2, 2)))
    assert (A[0, 0], A[-1, 0], A[-1, -1]) == (0.0, 1.0, 2.0)


def test_kgrid_rejects_bad_ranges():
    with pytest.raises(EmptyKGrid):
        KGridSpec(1.0, 0.0, 0.25).axis_samples()
    with pytest.raises(EmptyKGrid):
        KGridSpec(0.0, 1.0, 0.0).axis_samples()
    for bad in [KGridSpec(0.0, 1.0, math.nan), KGridSpec(math.nan, 1.0, 0.25),
                KGridSpec(0.0, math.inf, 0.25), KGridSpec(0.0, 1.0, math.inf)]:
        with pytest.raises(EmptyKGrid):
            bad.axis_samples()


def test_kgrid_from_grid_uses_axis_slopes():
    spec = KGridSpec.from_grid(REF)
    assert (spec.lo, spec.hi) == pytest.approx((-1.0, 5.0))
    assert spec.step == 0.25


# ------------------------------------------------------------- dual route


def test_dual_value_at_origin_recovers_origin_value():
    for seed in range(10):
        g = random_grid((4,), seed=seed)
        vals = dual_grid(g)
        assert vals[0] == pytest.approx(g.flat[0], abs=1e-12)


def test_dual_value_notconvex_center():
    g = as_log_grid(notconvex_grid((2, 2)))
    spec = KGridSpec(0.0, 8.0, 0.5)
    vals = dual_grid(g, spec)
    assert vals[1, 1] == pytest.approx(8.0, abs=1e-12)


def test_dual_value_never_exceeds_lp_minorant():
    for seed in range(15):
        g = random_grid((3, 3), seed=seed + 100)
        vals = dual_grid(g)
        assert np.all(vals <= minorant_lp(g).minorant.values + 1e-9)


def test_dual_value_input_guards():
    with pytest.raises(ScaleMismatch):
        KGridSpec.from_grid(SequenceGrid((1,), [1.0, 2.0], EXP))
    with pytest.raises(OutOfRange):  # 2049**2 slopes exceed MAX_SAMPLES
        dual_grid(as_log_grid(notconvex_grid((2, 2))), KGridSpec(0.0, 2048.0, 1.0))


# ---------------------------------------------------------------- LP route


def test_minorant_lp_reference_matches_sweep():
    res = minorant_lp(REF)
    assert np.allclose(res.minorant.values, [0.0, 0.5, 1.0, 6.0])
    assert res.contact.tolist() == [True, False, True, True]
    assert res.boundary.tolist() == [False, False, False, True]


def test_minorant_lp_notconvex_drops_only_the_center():
    g = as_log_grid(notconvex_grid((2, 2)))
    res = minorant_lp(g)
    expect = np.array([[0.0, 3.0, 8.0], [3.0, 8.0, 35.0], [8.0, 35.0, 80.0]])
    assert np.allclose(res.minorant.values, expect, atol=1e-8)
    assert not res.contact[4]  # (1, 1)
    assert res.contact.sum() == 8


def test_minorant_lp_fixed_point_on_convex_data():
    for seed in range(10):
        g = convex_random_grid((3, 3), seed=seed)
        res = minorant_lp(g)
        assert np.allclose(res.minorant.values, g.values, atol=1e-8)
        assert res.contact.all()


def test_minorant_lp_certificates_are_valid_planes():
    for seed in range(10):
        g = random_grid((4, 3), seed=seed + 7)
        res = minorant_lp(g)
        a = g.values
        for alpha, plane, touch in zip(lattice(g.box), res.planes, res.touching):
            k, h = plane[:-1], plane[-1]
            val = float(k @ np.asarray(alpha)) + h
            assert val == pytest.approx(res.minorant.value(alpha), abs=1e-8)
            for beta in lattice(g.box):
                bound = float(k @ np.asarray(beta)) + h
                assert bound <= a[beta] + 1e-8
            for beta in np.array(lattice(g.box))[touch]:
                bound = float(k @ beta) + h
                assert bound == pytest.approx(a[tuple(beta)], abs=1e-6)


def test_minorant_lp_unbounded_beyond_finite_hull():
    g = SequenceGrid((2,), [0.0, 5.0, math.inf], LOG)
    res = minorant_lp(g)
    assert math.isinf(res.minorant.value((2,)))
    assert np.isnan(res.planes[2]).all()
    assert res.boundary[2]


def test_minorant_lp_agrees_with_sweep_on_random_lines():
    for seed in range(30):
        g = random_grid((8,), seed=seed)
        res = minorant_lp(g)
        poly = envelope1d.sweep(g)
        assert np.allclose(res.minorant.flat, poly.minorant, atol=1e-8)


def test_boundary_affected_only_where_every_optimal_plane_touches_the_shell():
    # at (1, 1) the only optimal combination is (1, 1) itself, and the plane
    # k = (1/2, 1/2), h = 0 stays off the shell, while k = (1, 1), h = -1,
    # also optimal, touches (2, 1) and (1, 2); the flag must not depend on
    # which of them a solver lands on
    g = SequenceGrid((2, 2), [0, 1, 2, 1, 1, 2, 2, 2, 3], LOG)
    res = minorant_lp(g)
    assert not res.boundary[4]
    assert not (res.touching[4] & outer_shell_mask(g.box)).any()
    # at (0, 1) the optimal combination (0, 0)/2 + (0, 2)/2 weighs the shell
    assert [lattice(g.box)[i] for i in np.flatnonzero(res.boundary)] == [
        (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert audit_minorant(g, res) == ()


def test_hole_on_the_shell_leaves_indices_outside_the_hull():
    g = random_grid((4, 4), seed=1)
    a = g.values.copy()
    a[0, 4] = math.inf
    g = SequenceGrid(g.box, a, LOG)
    res = minorant_lp(g)
    assert np.isnan(res.planes[4]).all()  # (0, 4)
    assert res.boundary[4]
    assert math.isinf(res.minorant.value((0, 4)))
    assert audit_minorant(g, res) == ()


def test_audit_passes_on_holed_grids():
    for seed, box in enumerate([(6, 5), (3, 3, 2), (9,), (4, 0)]):
        g = random_grid(box, seed=seed + 30)
        a = g.flat.copy()
        rng = np.random.default_rng(seed)
        a[rng.choice(np.arange(1, a.size), a.size // 6, replace=False)] = math.inf
        g = SequenceGrid(box, a, LOG)
        res = minorant_lp(g)
        assert audit_minorant(g, res) == ()
        # the same grid stored column-major gives the same result
        fortran = SequenceGrid(box, np.asfortranarray(g.values), LOG)
        assert np.array_equal(minorant_lp(fortran).minorant.values, res.minorant.values)


def test_audit_catches_corrupted_results():
    g = random_grid((3, 3), seed=4)
    res = minorant_lp(g)
    assert audit_minorant(g, res) == ()

    def changed(name, i, value):
        arr = getattr(res, name).copy()
        arr[i] = value
        return replace(res, **{name: arr})

    at = 5  # (1, 1)
    raised = changed("planes", (at, -1), res.planes[at, -1] + 1e-6)
    assert any("rises above" in f for f in audit_minorant(g, raised))
    dropped = changed("touching", (at, np.flatnonzero(res.touching[at])[0]), False)
    assert any("touching" in f for f in audit_minorant(g, dropped))
    assert any("+inf" in f for f in audit_minorant(g, changed("planes", at, math.nan)))
    assert audit_minorant(g, changed("boundary", np.flatnonzero(res.boundary)[0], False)) != ()
    assert audit_minorant(g, changed("contact", np.flatnonzero(res.contact)[0], False)) != ()
    lowered = SequenceGrid(g.box, res.minorant.values - 1e-6, LOG)
    assert any("misses the value" in f for f in audit_minorant(g, replace(res, minorant=lowered)))


SCALED = SequenceGrid((5, 5), convex_random_grid((5, 5), 0).flat * 1e6, LOG)


def test_audit_passes_at_large_scale():
    # h = y_0 - <k, alpha> cancels terms near 2.5e7 at (0, 5), so the plane may
    # stand 7.45e-9 above a_0 = 0 by rounding alone; a tolerance relative to
    # |a_0| only rejected the correct minorant
    res = minorant_lp(SCALED)
    assert np.allclose(res.minorant.flat, SCALED.flat, rtol=1e-12, atol=1e-7)
    assert audit_minorant(SCALED, res) == ()


def test_audit_rejects_a_plane_lifted_by_1e_6_relative_at_large_scale():
    res = minorant_lp(SCALED)
    lift = 1e-6 * np.abs(SCALED.flat).max()
    for alpha in [(0, 5), (2, 3), (5, 5)]:
        planes = res.planes.copy()
        planes[np.ravel_multi_index(alpha, SCALED.values.shape), -1] += lift
        failures = audit_minorant(SCALED, replace(res, planes=planes))
        assert f"the plane rises above the data, at {alpha}" in failures


@pytest.mark.parametrize("m", [1e16, 1e20])
def test_audit_scales_the_at_alpha_check_by_the_plane_terms(m):
    # h = y_0 - <k, alpha> cancels terms near m, so the plane may miss its own
    # value by rounding far beyond FEAS_TOL * max(1, |value|)
    g = SequenceGrid((2, 2), [0.0, 1.0, -m, 2.0, 3.0, 4.0, m, 5.0, 6.0], LOG)
    res = minorant_lp(g)
    assert audit_minorant(g, res) == ()
    idx = index_array(g.box).astype(float)
    K, h = res.planes[:, :-1], res.planes[:, -1]
    terms = np.abs(h) + 2.0 * (np.abs(K) * idx).sum(axis=1)
    bound = FEAS_TOL * np.maximum(1.0, np.maximum(np.abs(res.minorant.flat), terms))
    for i, alpha in enumerate(lattice(g.box)):
        moved = res.minorant.flat.copy()
        moved[i] += 10.0 * bound[i]
        failures = audit_minorant(g, replace(res, minorant=SequenceGrid(g.box, moved, LOG)))
        assert f"the plane misses the value, at {alpha}" in failures


def test_minorant_lp_rejects_invalid_grids():
    bad = SequenceGrid((2,), [0.0, math.nan, 1.0], LOG)
    with pytest.raises(GridValidationError):
        minorant_lp(bad)
    with pytest.raises(ScaleMismatch):
        minorant_lp(SequenceGrid((1,), [1.0, 2.0], EXP))


# ------------------------------------------------------------------ faces


def test_boundary_restriction_extracts_faces():
    g = as_log_grid(notconvex_grid((2, 2)))
    row = boundary_restriction(g, 0)
    col = boundary_restriction(g, 1)
    assert row.box == (2,) and col.box == (2,)
    assert np.allclose(row.values, [0.0, 3.0, 8.0])
    assert np.allclose(col.values, [0.0, 3.0, 8.0])


def test_boundary_restriction_guards():
    with pytest.raises(DimensionMismatch):
        boundary_restriction(REF, 0)
    g = as_log_grid(notconvex_grid((2, 2)))
    with pytest.raises(OutOfRange):
        boundary_restriction(g, 2)


def test_face_minorant_equals_restricted_minorant():
    for seed in range(10):
        g = random_grid((3, 4), seed=seed + 50)
        full = minorant_lp(g)
        for axis in range(2):
            face = boundary_restriction(g, axis)
            face_res = minorant_lp(face)
            restricted = np.take(full.minorant.values, 0, axis=axis)
            assert np.allclose(face_res.minorant.values, restricted, atol=1e-8)


# -------------------------------------------------------------- stability


def test_stability_probe_flags_the_moving_edge_value():
    small = REF
    large = SequenceGrid((4,), [0.0, 2.0, 1.0, 6.0, 2.0], LOG)
    rep = stability_probe(small, large)
    assert np.allclose(rep.diff, [0.0, 0.0, 0.0, 4.5])
    assert rep.unstable == ((3,),)
    assert rep.max_diff == pytest.approx(4.5)


def test_stability_probe_convex_extension_is_quiet():
    small = SequenceGrid((2,), [0.0, 1.0, 2.0], LOG)
    large = SequenceGrid((3,), [0.0, 1.0, 2.0, 3.0], LOG)
    rep = stability_probe(small, large)
    assert rep.unstable == ()
    assert rep.max_diff == pytest.approx(0.0)


def test_stability_probe_mismatch_guards():
    with pytest.raises(GridMismatch):
        stability_probe(REF, as_log_grid(notconvex_grid((2, 2))))
    with pytest.raises(GridMismatch):
        stability_probe(REF, SequenceGrid((3,), np.exp([0.0, 2.0, 1.0, 6.0]), EXP))
    with pytest.raises(GridMismatch):
        stability_probe(REF, SequenceGrid((2,), [0.0, 2.0, 1.0], LOG))
    with pytest.raises(GridMismatch):
        stability_probe(REF, SequenceGrid((4,), [0.0, 2.0, 1.5, 6.0, 2.0], LOG))


# ------------------------------------------------------- the batched LP


def fuzz_grids():
    """Holes anywhere but the origin, the outer shell included; zero extents,
    where no index has a start basis; integer ties on a degenerate linear
    grid; magnitudes from 1e-6 to 1e6."""
    grids = []
    for seed, box in enumerate([(6, 5), (3, 3, 2), (9,), (5, 5)]):
        a = random_grid(box, seed=seed + 50).flat.copy()
        rng = np.random.default_rng(seed)
        a[rng.choice(np.arange(1, a.size), a.size // 5, replace=False)] = math.inf
        grids.append(SequenceGrid(box, a, LOG))
    grids += [random_grid(box, seed=1) for box in [(4, 0), (0, 3), (0,), (3, 0, 2)]]
    a = index_array((4, 4)).sum(axis=1).astype(float)
    a[0] = -0.5
    grids.append(SequenceGrid((4, 4), a, LOG))
    for e in (-6, -3, 3, 6):
        g = random_grid((5, 4), seed=e + 10)
        grids.append(SequenceGrid(g.box, g.flat * 10.0 ** e, LOG))
    return grids


def test_minorant_lp_rows_equal_single_solves_bit_for_bit():
    # minorant_lp solves all indices in one batch; solving any of them alone,
    # from the same start basis, gives the same bits
    for g in fuzz_grids():
        res = minorant_lp(g)
        assert audit_minorant(g, res) == ()
        P, a = index_array(g.box).astype(float), g.flat
        shell = outer_shell_mask(g.box)
        starts = _start_bases(np.isfinite(a), g.box)
        for i in range(len(P)):
            sol = lpsolve.solve(g.box, a, P[i], shell, starts[i] if starts[i, 0] >= 0 else None)
            assert np.float64(sol.optimum).tobytes() == res.minorant.flat[i].tobytes()
            if np.isnan(res.planes[i]).all():
                assert sol.status == lpsolve.UNBOUNDED
                continue
            assert sol.point.tobytes() == res.planes[i].tobytes()
            assert sol.active_rows == tuple(np.flatnonzero(res.touching[i]).tolist())


def test_zero_extent_box_has_no_start_basis():
    g = random_grid((4, 0), seed=2)
    assert (_start_bases(np.isfinite(g.flat), g.box) < 0).all()
    res = minorant_lp(g)
    assert audit_minorant(g, res) == ()
    sweep = envelope1d.sweep(SequenceGrid((4,), g.flat, LOG))
    assert np.allclose(res.minorant.flat, sweep.minorant, atol=1e-12)


def accepts(P, alpha, start):
    """_solve_block's test of a start basis: [1; P_S - alpha] is not
    singular and the first column of its inverse, the weights, is >= 0."""
    M = np.vstack([np.ones(len(start)), (P[start] - alpha).T])
    return np.linalg.det(M) != 0.0 and (np.linalg.inv(M)[:, 0] >= 0.0).all()


def test_start_bases_are_feasible_where_given():
    g = random_grid((5, 4, 3), seed=9)
    a = g.flat.copy()
    a[np.random.default_rng(9).choice(np.arange(1, a.size), 30, replace=False)] = math.inf
    P = index_array(g.box).astype(float)
    starts = _start_bases(np.isfinite(a), g.box)
    given = starts[:, 0] >= 0
    assert given.any() and not given.all()
    # some starts reach past the neighbours to the nearest finite points
    assert (np.abs(P[starts[given]] - P[given, None, :]).max(axis=(1, 2)) > 1).any()
    for target, start in zip(P[given], starts[given]):
        assert np.isfinite(a[start]).all()
        # the target is a convex combination of its start points
        M = np.vstack([np.ones(4), P[start].T])
        lam = np.linalg.solve(M, np.concatenate([[1.0], target]))
        assert (lam >= -1e-12).all()
        assert accepts(P, target, start)


def test_start_bases_take_neighbours_first_then_the_nearest_points():
    # the line 0 . . 3 4 . 6, with holes at 1, 2 and 5
    starts = _start_bases(np.array([1, 0, 0, 1, 1, 0, 1], dtype=bool), (6,))
    assert starts[4].tolist() == [4, 3]  # the neighbour below first
    assert starts[3].tolist() == [3, 4]  # then above, before the far point 0 below
    assert starts[6].tolist() == [6, 4]  # no neighbour: the nearest point below
    assert starts[0].tolist() == [0, 3]  # then the nearest above
    assert starts[5].tolist() == [4, 6]  # a hole between neighbours
    assert starts[1].tolist() == starts[2].tolist() == [0, 3]  # between the nearest points
    P = np.arange(7.0)[:, None]
    assert np.linalg.solve(np.vstack([[1.0, 1.0], P[[0, 3]].T]), [1.0, 1.0]).tolist() == \
        pytest.approx([2 / 3, 1 / 3], abs=1e-15)
    # at a hole in 2-D, the first axis with both neighbours wins, with one
    # neighbour per other axis (flat index 3 alpha_0 + alpha_1 on the (2, 2) box)
    finite = np.ones(9, dtype=bool)
    finite[4] = False
    assert _start_bases(finite, (2, 2))[4].tolist() == [1, 7, 3]
    finite[1] = False  # (0, 1): axis 0 loses its pair, and (2, 1) is the neighbour above
    assert _start_bases(finite, (2, 2))[4].tolist() == [3, 5, 7]
    P = index_array((4, 4)).astype(float)
    finite = np.ones(25, dtype=bool)
    finite[[7, 11, 12, 13, 17]] = False  # (2, 2) and its four neighbours are holes
    start = _start_bases(finite, (4, 4))[12]
    assert start.tolist() == [2, 22, 10]  # (0, 2), (4, 2) and the nearest (2, 0)
    assert accepts(P, P[12], start)


def test_start_bases_are_the_same_in_blocks_of_any_size(monkeypatch):
    masks = [(np.array([1, 0, 0, 1, 1, 0, 1], dtype=bool), (6,))]
    for seed, box in enumerate([(40,), (6, 5), (4, 3, 5), (5, 0, 3)]):
        finite = np.random.default_rng(seed).random(math.prod(n + 1 for n in box)) < 0.4
        finite[0] = True
        masks.append((finite, box))
    whole = [_start_bases(finite, box) for finite, box in masks]
    assert any((s[:, 0] >= 0).sum() > 3 for s in whole)
    for entries in (1, 7, 50):  # one row per block, then a few, with a ragged last block
        monkeypatch.setattr(lpsolve, "BLOCK_ENTRIES", entries)
        for (finite, box), want in zip(masks, whole):
            assert np.array_equal(_start_bases(finite, box), want), (entries, box)


def holed_workload_grids():
    """The benchmark's minorant inputs: random_grid (10, 10) and (4, 4, 4)
    with 8% of the entries off the outer shell, the origin excluded, set to
    +inf."""
    for seed in range(5):
        for box in ((10, 10), (4, 4, 4)):
            a = random_grid(box, seed=seed).flat.copy()
            interior = np.flatnonzero(~outer_shell_mask(box))[1:]
            rng = np.random.default_rng(seed)
            a[rng.choice(interior, round(0.08 * interior.size), replace=False)] = math.inf
            yield SequenceGrid(box, a, LOG)
    yield certificate_path_grids()["holed_3d"]


def test_every_index_of_the_holed_workload_grids_has_a_start_basis():
    for g in holed_workload_grids():
        P = index_array(g.box).astype(float)
        starts = _start_bases(np.isfinite(g.flat), g.box)
        assert (starts >= 0).all()
        assert all(accepts(P, alpha, start) for alpha, start in zip(P, starts))


def test_a_contact_next_to_holes_meets_its_data_bit_for_bit():
    # (0, 2) has no finite neighbour on axis 0; solved through phase 1, its
    # value missed the data by an ulp: 10.000206898911156 against ...154
    g = convex_random_grid((4, 4), 0)
    v = g.values.copy()
    for alpha in ((1, 2), (2, 2), (3, 0), (3, 3)):
        v[alpha] = math.inf
    res = minorant_lp(SequenceGrid((4, 4), v, LOG))
    assert res.contact.reshape(5, 5)[0, 2]
    assert res.minorant.values[0, 2].tobytes() == v[0, 2].tobytes()

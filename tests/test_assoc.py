"""Associated weight function omega, its trace identity, q3 suprema at the
certificate slopes, log-convex regularization and the three convexity
verdicts; the omega kernel against a dense scan of every sample against every
point and against the per-axis forward pass, on random, convex, +inf-holed,
1-D, 3-D and zero-extent boxes; the sample cap; and the lanes the kernel runs
in, which change no bit of any output whatever the core count."""
import math
import os
import threading
import warnings

import numpy as np
import pytest

from logcvx import (EXP, LOG, AssociatedFunction, DimensionMismatch,
                    EmptySGrid, GridValidationError, NotNormalized, OutOfRange,
                    SGridSpec, SequenceGrid, SplitMix64, as_log_grid, check_log_convexity,
                    convex_random_grid, factorial_grid, log_convex_minorant, minorant_lp,
                    notconvex_grid, omega, q3_supremum, q3_supremum_log,
                    random_grid, read_report, to_exp, write_grid)
from logcvx import assoc
from logcvx.assoc import MAX_SAMPLES, check_samples
from logcvx.cli import main
from logcvx.core import (FEAS_TOL, SLACK_TOL, TIE_REL_TOL, index_array, multi_indices,
                         order_array, outer_shell_mask)
from logcvx.envelope import boundary_restriction

FACT = factorial_grid(8)


# ------------------------------------------------------------------ omega


def test_omega_factorial_reference_points():
    ev1 = omega(FACT, [1.0])
    assert ev1.value == pytest.approx(0.0, abs=1e-12)
    assert ev1.argmax == (0,)
    assert not ev1.sup_on_boundary
    ev2 = omega(FACT, [2.0])
    assert ev2.value == pytest.approx(math.log(2.0))
    assert ev2.argmax == (1,)
    assert not ev2.sup_on_boundary


def test_omega_is_nonnegative_and_monotone_on_the_diagonal():
    for seed in range(10):
        g = to_exp(random_grid((3, 3), seed=seed))
        af = AssociatedFunction(g)
        last = -1.0
        for s in [0.25, 0.5, 1.0, 2.0, 4.0, 16.0]:
            v = af([s, s])
            assert v >= -1e-12
            assert v >= last - 1e-12
            last = v


def test_omega_zero_coordinate_restricts_to_the_face():
    g = notconvex_grid((2, 2))
    face = boundary_restriction(g, 0)
    af_full = AssociatedFunction(g)
    af_face = AssociatedFunction(face)
    for s in [0.5, 1.0, 2.0, 7.0]:
        full = af_full.evaluate([0.0, s])
        assert full.value == pytest.approx(af_face([s]), abs=1e-12)
        assert full.argmax[0] == 0
    assert af_full([0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


def test_omega_flags_boundary_only_suprema():
    ev = omega(FACT, [1000.0])
    assert ev.argmax == (8,)
    assert ev.sup_on_boundary


def test_omega_input_guards():
    with pytest.raises(DimensionMismatch):
        omega(FACT, [1.0, 2.0])
    shifted = SequenceGrid((2,), [2.0, 3.0, 9.0], EXP)
    with pytest.raises(NotNormalized):
        AssociatedFunction(shifted)
    bad = SequenceGrid((2,), [1.0, math.nan, 2.0], EXP)
    with pytest.raises(GridValidationError):
        AssociatedFunction(bad)


def test_omega_grid_matches_pointwise_evaluation():
    g = to_exp(random_grid((3, 2), seed=5))
    af = AssociatedFunction(g)
    rng = SplitMix64(42)
    x = np.array([rng.uniform(-2.0, 6.0) for _ in range(8)])
    samples = list(np.ndindex(8, 8))  # omega at every sample of the 8 x 8 grid
    vals, _, flags = af._scan(x[np.array(samples)])
    assert vals.shape == flags.shape == (64,)
    assert flags.any() and not flags.all()
    for s, v, flag in zip(samples, vals, flags):
        ev = af.evaluate(np.exp(x[list(s)]))
        assert v == pytest.approx(ev.value, abs=1e-10)
        assert flag == ev.sup_on_boundary


def test_evaluate_many_is_evaluate_row_by_row(monkeypatch):
    # 2 rows of the 12 points per block, so zero masks cross block edges too
    monkeypatch.setattr(assoc, "_BLOCK_SAMPLES", 24)
    af = AssociatedFunction(to_exp(random_grid((3, 2), seed=6)))
    rng = SplitMix64(7)
    T = [[rng.uniform(-4.0, 9.0) if rng.random() < 0.7 else 0.0 for _ in range(2)]
         for _ in range(25)]
    value, argmax, flag = af.evaluate_many(T)
    for t, v, i, f in zip(T, value, argmax, flag):
        ev = af.evaluate(t)
        assert (v, tuple(af._idx[i]), f) == (ev.value, ev.argmax, ev.sup_on_boundary)
    with pytest.raises(DimensionMismatch):
        af.evaluate_many([[1.0, 2.0], [1.0]])
    with pytest.raises(OutOfRange, match=r"got \(inf, 1.0\)"):
        af.evaluate_many([[1.0, 2.0], [math.inf, 1.0]])


# ------------------------------------------------------------------ trace


def test_trace_equals_omega_of_exponentiated_slopes():
    for seed in range(20):
        g = to_exp(random_grid((3, 3), seed=seed + 40))
        af = AssociatedFunction(g)
        rng = SplitMix64(seed)
        for _ in range(5):
            k = [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)]
            assert abs(af.trace(k) - af(np.exp(k))) <= 1e-10


def test_trace_at_zero_is_zero_for_normalized_grids():
    assert AssociatedFunction(FACT).trace([0.0]) == pytest.approx(0.0, abs=1e-12)


def test_trace_is_convex_along_lines():
    af = AssociatedFunction(FACT)
    rng = SplitMix64(9)
    for _ in range(50):
        x = rng.uniform(-1.0, 3.0)
        y = rng.uniform(-1.0, 3.0)
        mid = af.trace([(x + y) / 2.0])
        assert mid <= (af.trace([x]) + af.trace([y])) / 2.0 + 1e-12


# ---------------------------------------------------------------- s grids


def test_sgrid_samples_shape_and_guards():
    spec = SGridSpec.from_grid(FACT, points=5)
    assert (spec.lo, spec.hi, spec.points) == (0.0, pytest.approx(math.log(8.0)), 5)
    # the sample count check that check --s-points still meets
    check_samples(5, 1)
    with pytest.raises(EmptySGrid):
        check_samples(0, 1)


def test_sgrid_default_density_depends_on_dimension():
    assert SGridSpec.from_grid(FACT).points == 200
    g3 = to_exp(random_grid((1, 1, 1), seed=0))
    assert SGridSpec.from_grid(g3).points == 50


# --------------------------------------------------------------------- q3


def test_q3_recovers_factorial_value_exactly():
    assert q3_supremum(FACT, (2,)) == pytest.approx(2.0, rel=1e-9)


def test_q3_factorial_with_explicit_wide_grid():
    # the slope at (2,) has the same two touching points on any wider box
    assert q3_supremum(factorial_grid(60), (2,)) == pytest.approx(2.0, rel=1e-12)


def test_q3_never_exceeds_the_data():
    grids = [FACT, notconvex_grid((2, 2)), to_exp(random_grid((3, 3), seed=3))]
    for g in grids:
        a = np.log(g.flat)
        shape = tuple(n + 1 for n in g.box)
        for flat_i in range(a.size):
            alpha = tuple(int(c) for c in np.unravel_index(flat_i, shape))
            v = q3_supremum_log(g, alpha)
            assert v <= a[flat_i] + 1e-9


def test_q3_recovers_the_minorant_at_the_notconvex_center():
    g = notconvex_grid((2, 2))
    assert q3_supremum(g, (1, 1)) == pytest.approx(math.exp(8.0), rel=1e-9)


def test_q3_is_inf_where_its_log_overflows_a_double():
    g = SequenceGrid((2,), [0.0, 400.0, 800.0], LOG)
    assert q3_supremum_log(g, (2,)) == pytest.approx(800.0, rel=1e-12)
    assert q3_supremum(g, (1,)) == pytest.approx(math.exp(400.0), rel=1e-9)
    assert q3_supremum(g, (2,)) == math.inf


def holed_outside_the_hull():
    g = random_grid((3, 3), 1)
    a = g.values.copy()
    a[3, 3] = math.inf
    return SequenceGrid(g.box, a.reshape(-1), g.scale)


def test_q3_meets_the_minorant_at_every_certificate_slope():
    # duality: at the slope k of alpha's certificate, <alpha, k> - A(k) = a^c_alpha
    notjoint = notconvex_grid((6, 6), scale="log").flat + convex_random_grid((6, 6), 4).flat
    grids = [notconvex_grid(), FACT, convex_random_grid((6, 6), 3),
             SequenceGrid((6, 6), notjoint, LOG), random_grid((6, 6), seed=7),
             random_grid((30, 30), 3), holed_outside_the_hull()]
    outside = 0
    for g in grids:
        report = check_log_convexity(g)
        planes, ac = report.minorant.planes, report.minorant.minorant.flat
        has = np.isfinite(planes).all(axis=1)
        outside += int((~has).sum())
        q3 = assoc._q3(AssociatedFunction(g), planes)
        # the same, from one matrix of every slope against every finite point
        a = as_log_grid(g).flat
        P, K, fin = index_array(g.box).astype(float), planes[has, :-1], np.isfinite(a)
        dense = (P[has] * K).sum(axis=1) - (K @ P[fin].T - a[fin]).max(axis=1)
        assert np.isposinf(q3[~has]).all()
        assert np.allclose(q3[has], dense, rtol=1e-12, atol=1e-12), g.box
        gap = np.abs(ac[has] - q3[has])
        assert (gap <= FEAS_TOL * np.maximum(1.0, np.abs(ac[has]))).all(), g.box
        assert report.q3_duality_gap == gap.max()
    assert outside == 1  # (3, 3) of the holed grid


def test_q3_index_guards():
    with pytest.raises(DimensionMismatch):
        q3_supremum(FACT, (9,))
    with pytest.raises(DimensionMismatch):
        q3_supremum(FACT, (1, 1))


# ---------------------------------------------------- log-convex minorant


def test_log_convex_minorant_fixes_factorials():
    res = log_convex_minorant(FACT)
    assert np.allclose(res.grid.values, FACT.values, rtol=1e-9)
    assert res.overflowed == ()
    assert res.grid.scale == EXP


def test_log_convex_minorant_drops_the_notconvex_center():
    res = log_convex_minorant(notconvex_grid((2, 2)))
    assert res.grid.value((1, 1)) == pytest.approx(math.exp(8.0), rel=1e-9)
    assert res.lp.minorant.value((1, 1)) == pytest.approx(8.0, abs=1e-8)


def test_omega_is_blind_to_log_convex_regularization():
    # the supremum defining omega only sees supporting planes, and the
    # minorant has the same ones as the data
    for seed in range(10):
        g = to_exp(random_grid((3, 3), seed=seed + 70))
        reg = log_convex_minorant(g).grid
        af = AssociatedFunction(g)
        af_reg = AssociatedFunction(reg)
        rng = SplitMix64(seed)
        for _ in range(10):
            t = [math.exp(rng.uniform(-2.0, 2.0)) for _ in range(2)]
            assert abs(af(t) - af_reg(t)) <= 1e-9


def test_log_convex_minorant_reports_exp_overflow():
    g = SequenceGrid((2,), [0.0, 710.0, 1420.0], LOG)
    res = log_convex_minorant(g)
    assert np.allclose(res.lp.minorant.values, [0.0, 710.0, 1420.0])
    assert math.isinf(res.grid.value((1,)))
    assert res.overflowed == ((1,), (2,))


# ----------------------------------------------------------------- checks


def test_check_flags_the_notconvex_example():
    report = check_log_convexity(notconvex_grid())
    assert report.coordinatewise_ok
    assert not report.globally_convex
    assert not report.q3_holds
    assert report.q3_failures == ((1, 1), (1, 2), (2, 1))
    assert report.max_gap == pytest.approx(56.0, abs=1e-6)
    assert report.interior_max_gap == pytest.approx(20.0, abs=1e-6)
    assert report.q3_worst == (1, 2)
    assert report.q3_max_shortfall == pytest.approx(20.0, rel=1e-6)
    assert report.boundary_caveat


def test_check_accepts_log_convex_data():
    report = check_log_convexity(FACT)
    assert report.coordinatewise_ok
    assert report.coordinatewise_violation is None
    assert report.globally_convex
    assert report.interior_max_gap <= 1e-9
    assert report.q3_holds
    assert abs(report.q3_max_shortfall) <= 1e-9
    assert report.q3_failures == ()


def test_check_reports_first_coordinatewise_violation():
    g = SequenceGrid((3,), np.exp([0.0, 2.0, 1.0, 6.0]), EXP)
    report = check_log_convexity(g)
    assert not report.coordinatewise_ok
    assert report.coordinatewise_violation == ((1,), 0)


def test_check_accepts_explicit_s_grid(tmp_path, capsys):
    # --s-points is range-checked and changes nothing: q3 samples no grid
    path = tmp_path / "fact.json"
    path.write_text(write_grid(FACT))
    outs = []
    for flags in ([], ["--s-points", "50"], ["--s-points", "600"]):
        assert main(["check", str(path), "--json", *flags]) == 0
        outs.append(read_report(capsys.readouterr().out)["results"])
    assert outs[0] == outs[1] == outs[2]
    assert outs[0]["globally_convex"] is True


def test_check_is_quiet_when_a_hole_lies_outside_the_hull():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_log_convexity(holed_outside_the_hull())
    assert math.isfinite(report.max_gap)
    assert report.boundary_caveat


def test_check_rejects_an_oversized_s_grid_before_the_lp(monkeypatch, tmp_path, capsys):
    def no_lp(*args, **kwargs):
        raise AssertionError("the LP ran before the sample cap was checked")

    monkeypatch.setattr(assoc, "minorant_lp", no_lp)
    path = tmp_path / "nc.json"
    path.write_text(write_grid(notconvex_grid((2, 2))))
    for points, message in [("3000", "3000**2 samples exceed MAX_SAMPLES"),
                            ("0", "need at least one sample per axis")]:
        assert main(["check", str(path), "--s-points", points]) == 2
        assert message in capsys.readouterr().err


# ------------------------------------------------- omega kernel, dense scan


def s_samples(g, m):
    """m log-uniform samples per axis over the grid's axis slope range."""
    spec = SGridSpec.from_grid(g, points=m)
    return np.linspace(spec.lo, spec.hi, spec.points)


def product(x, d):
    return np.stack([c.reshape(-1) for c in np.meshgrid(*[x] * d, indexing="ij")], axis=1)


def dense_omega(a, box, x):
    """omega and its boundary flags from one matrix of every sample against
    every point."""
    idx = index_array(box).astype(float)
    with np.errstate(invalid="ignore"):
        W = product(x, len(box)) @ idx.T - a[None, :]
    om = W.max(axis=1)
    interior = ~outer_shell_mask(box)
    if interior.any():
        flags = W[:, interior].max(axis=1) < om - TIE_REL_TOL * np.maximum(1.0, np.abs(om))
    else:
        flags = np.ones(om.size, dtype=bool)
    return om, flags


def holed(box, seed):
    a = random_grid(box, seed=seed).flat.copy()
    rng = SplitMix64(seed)
    for i in range(1, a.size):
        if rng.uniform(0.0, 1.0) < 0.2:
            a[i] = math.inf
    return SequenceGrid(box, a)


def corpus():
    boxes = [(6,), (12,), (3, 3), (6, 4), (2, 2, 2), (3, 2, 3), (0,), (0, 3), (4, 0, 2)]
    for seed, box in enumerate(boxes):
        yield random_grid(box, seed=seed + 10), 40
        yield convex_random_grid(box, seed=seed + 20), 30
        yield holed(box, seed + 30), 25


def close(got, want):
    return np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def every_sample(m, d):
    return np.stack(np.unravel_index(np.arange(m ** d), (m,) * d), axis=1)


def test_kernel_matches_the_dense_scan():
    for g, m in corpus():
        af = AssociatedFunction(g)
        x = s_samples(g, m)
        om, flags = dense_omega(g.flat, g.box, x)
        k_om, _, k_flags = af._scan(x[every_sample(m, g.dim)])
        assert k_om.shape == k_flags.shape == (m ** g.dim,)
        assert close(k_om, om), g.box
        assert np.array_equal(k_flags, flags), g.box


# omega on the m^d samples of the box as per-axis max-plus passes: one over
# the box, and one over the sub-box off the outer shell for the flags.


def ref_forward(x, f):
    F = -np.asarray(f, dtype=float)
    for _ in range(f.ndim):
        out = np.full(F.shape[1:] + (x.size,), -np.inf)
        tmp = np.empty_like(out)
        for b in range(F.shape[0]):
            np.add(F[b][..., None], b * x, out=tmp)
            np.maximum(out, tmp, out=out)
        F = out
    return F


def ref_omega_grid(af, x):
    a = af._a.reshape(tuple(n + 1 for n in af.box))
    om = ref_forward(x, a)
    if 0 in af.box:
        return om, np.ones(om.shape, dtype=bool)
    oi = ref_forward(x, a[tuple(slice(0, n) for n in af.box)])
    return om, oi < om - TIE_REL_TOL * np.maximum(1.0, np.abs(om))


def same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def identity_corpus(wide=True):
    yield from corpus()
    yield holed((3, 3, 3), 2), 50
    yield convex_random_grid((2, 4, 3), seed=3), 50
    yield random_grid((3, 0, 2), seed=4), 50
    if wide:  # the benchmark's sampling, too slow in blocks of one row
        yield random_grid((5,), seed=1), 600
        yield convex_random_grid((6, 6), seed=5), 600


def scanned_corpus(wide=True):
    """The grids of ``identity_corpus`` whose m^d samples omega can scan in a
    test, with those samples."""
    for g, m in identity_corpus(wide):
        if m ** g.dim <= 40_000:
            yield g, m, s_samples(g, m)


def test_omega_kernel_is_the_forward_pass_at_every_sample():
    for g, m, x in scanned_corpus():
        af = AssociatedFunction(g)
        om, _, flags = af._scan(x[every_sample(m, g.dim)])
        want_om, want_flags = ref_omega_grid(af, x)
        # equal values; a maximum over a tie of 0.0 and -0.0 may keep either
        assert np.array_equal(om, want_om.reshape(-1)), g.box
        assert np.array_equal(flags, want_flags.reshape(-1)), g.box


@pytest.mark.parametrize("block", [300, 700])
def test_small_blocks_give_the_same_bits(monkeypatch, block):
    # a few rows to a few dozen per block, most with a ragged last block
    grids = list(scanned_corpus(wide=False))
    want = [AssociatedFunction(g)._scan(x[every_sample(m, g.dim)]) for g, m, x in grids]
    monkeypatch.setattr(assoc, "_BLOCK_SAMPLES", block)
    for (g, m, x), before in zip(grids, want):
        got = AssociatedFunction(g)._scan(x[every_sample(m, g.dim)])
        assert same_bits(got[0], before[0]), g.box
        assert np.array_equal(got[1], before[1]) and np.array_equal(got[2], before[2]), g.box


def guard_corpus():
    yield from identity_corpus()
    yield convex_random_grid((8, 8), seed=7), 200  # tie-heavy
    for seed in range(10):
        yield convex_random_grid((6, 6), seed=seed), 600
    yield SequenceGrid((6, 6), 0.7 * order_array((6, 6)), LOG), 200  # every sample ties
    yield notconvex_grid((4, 4), LOG), 200
    yield random_grid((6, 6), seed=0), 200
    yield random_grid((8,), seed=9), 200
    yield convex_random_grid((4, 4), seed=6), 200
    yield convex_random_grid((3, 3, 3), seed=2), 50


def test_a_q3_flag_off_the_shell_implies_a_shell_certificate():
    # q3 is taken at each certificate slope, where it equals a^c up to
    # rounding, so its failures are exactly the interior gaps above SLACK_TOL,
    # and the boundary caveat comes from the certificates alone
    failing = 0
    for g, _ in guard_corpus():
        res = minorant_lp(g)
        interior = np.isfinite(g.flat) & ~res.boundary
        with np.errstate(invalid="ignore"):
            gap = g.flat - res.minorant.flat
        report = check_log_convexity(g)
        assert report.q3_failures == multi_indices(g.box, interior & (gap > SLACK_TOL)), g.box
        assert report.q3_holds == report.globally_convex, g.box
        assert report.boundary_caveat == (res.boundary.any() or not interior.any()), g.box
        failing += bool(report.q3_failures)
    assert failing >= 4  # the first assertion is not vacuous


def test_forward_with_infinite_data_imposes_nothing():
    x = np.array([-1.0, 0.0, 2.0])
    af = AssociatedFunction(SequenceGrid((2,), [0.0, math.inf, 1.0]))
    assert np.array_equal(af._scan(x[:, None])[0], np.maximum(0.0, 2.0 * x - 1.0))


def test_sample_cap_fits_the_defaults_and_rejects_counts_beyond_it():
    for m, d in [(600, 2), (200, 2), (50, 3), (MAX_SAMPLES, 1)]:
        check_samples(m, d)
    for m, d in [(2049, 2), (1e300, 3), (10**12, 1)]:  # 2049**2 > 2**22
        with pytest.raises(OutOfRange):
            check_samples(m, d)
    with pytest.raises(EmptySGrid):
        check_samples(0, 2)


# ------------------------------------------------------------------ lanes


def set_cores(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)


def spy_lanes(monkeypatch):
    """For each ``in_lanes`` call, a list with one list per lane of the
    (lo, hi) blocks it took."""
    calls = []
    run = assoc.in_lanes

    def in_lanes(rows, per_row, lane):
        lanes = []
        calls.append(lanes)

        def recorded(blocks, step):
            took = []
            lanes.append(took)

            def taken():
                for block in blocks:
                    took.append(block)
                    yield block
            lane(taken(), step)
        run(rows, per_row, recorded)
    monkeypatch.setattr(assoc, "in_lanes", in_lanes)
    return calls


def kernel_outputs():
    out = []
    af = AssociatedFunction(random_grid((3, 2), seed=6))  # 12 points per row
    rng = SplitMix64(7)
    for n in (25, 3):
        T = [[rng.uniform(-4.0, 9.0) if rng.random() < 0.7 else 0.0 for _ in range(2)]
             for _ in range(n)]
        out.extend(af.evaluate_many(T))
    out.append(np.array([af.trace([rng.uniform(-2.0, 2.0), -1.0]) for _ in range(5)]))
    return out


@pytest.mark.parametrize("block", [2, 100])
def test_the_omega_kernel_gives_the_same_bits_on_any_lane_count(monkeypatch, block):
    # 2 entries per block: every row is a block of its own, more blocks than
    # lanes, and more lanes than rows where a batch has 3 rows or one
    monkeypatch.setattr(assoc, "_BLOCK_SAMPLES", block)
    calls = spy_lanes(monkeypatch)
    want = None
    for k in (1, 2, 3, 5):
        set_cores(monkeypatch, k)
        calls.clear()
        got = kernel_outputs()
        lanes = [len(call) for call in calls]
        if block == 2:
            assert lanes == [k, min(k, 3), 1, 1, 1, 1, 1]
        else:  # 3 blocks' worth of 25 rows, then a block of 3 rows and 5 of one
            assert lanes == [min(k, 3), 1, 1, 1, 1, 1, 1]
        for call in calls:  # each block once, in ascending order, whichever lane took it
            taken = sorted(b for took in call for b in took)
            assert [lo for lo, _ in taken] == [0] + [hi for _, hi in taken[:-1]]
        if want is None:
            want = got
            continue
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            bits = [np.ascontiguousarray(v).view(np.uint8) for v in (a, b)]
            assert np.array_equal(*bits), k


def test_check_and_assoc_json_are_the_same_on_any_lane_count(monkeypatch, tmp_path, capsys):
    inputs = []
    for i, g in enumerate([convex_random_grid((6, 6), 3), random_grid((6, 6), 7)]):
        path = tmp_path / f"g{i}.json"
        path.write_text(write_grid(g))
        inputs.append(str(path))
    calls = spy_lanes(monkeypatch)
    outs = {}
    for k in (1, 2, 3, 5):
        set_cores(monkeypatch, k)
        calls.clear()
        for path in inputs:
            assert main(["check", path, "--s-points", "600", "--json"]) == 0
            assert main(["assoc", path, "--t-grid", "0.1,30,4000", "--json"]) == 0
        outs[k] = capsys.readouterr().out
        # check scans omega at 49 slopes, one block; assoc at 4000 points, 3 blocks' worth
        assert [len(call) for call in calls] == [1, min(k, 3)] * 2
    assert outs[1] and all(out == outs[1] for out in outs.values())


def record_threads(monkeypatch):
    """The threads ``in_lanes`` starts, in the order it makes them."""
    made = []

    class Recorded(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)
    monkeypatch.setattr(assoc.threading, "Thread", Recorded)
    return made


def test_lanes_take_every_row_once_and_leave_no_thread(monkeypatch):
    set_cores(monkeypatch, 4)
    monkeypatch.setattr(assoc, "_BLOCK_SAMPLES", 8)
    made = record_threads(monkeypatch)
    before = threading.active_count()
    taken, lanes = [], []

    def lane(blocks, step):
        lanes.append((threading.current_thread(), step))
        taken.extend(blocks)

    assoc.in_lanes(41, 1, lane)  # 41 entries: 6 blocks' worth, so 4 lanes of 2-row blocks
    assert sorted(taken) == [(lo, min(lo + 2, 41)) for lo in range(0, 41, 2)]
    assert len(made) == 3 and len(lanes) == 4
    assert {t for t, _ in lanes} == {threading.current_thread(), *made}
    assert {step for _, step in lanes} == {2}
    assert not any(t.is_alive() for t in made)
    assert threading.active_count() == before


def test_the_first_error_in_lane_order_reaches_the_caller(monkeypatch):
    set_cores(monkeypatch, 4)
    monkeypatch.setattr(assoc, "_BLOCK_SAMPLES", 8)
    made = record_threads(monkeypatch)
    before = threading.active_count()
    ran = []

    def helpers_fail(blocks, step):
        ran.append(threading.current_thread())
        if threading.current_thread() in made:
            raise ValueError(f"lane {made.index(threading.current_thread()) + 1}")

    with pytest.raises(ValueError, match="^lane 1$"):
        assoc.in_lanes(40, 1, helpers_fail)
    assert len(ran) == 4  # every lane ran, and was joined
    assert threading.active_count() == before

    def all_fail(blocks, step):
        raise KeyError(threading.current_thread() in made)

    with pytest.raises(KeyError, match="^False$"):  # the caller's own lane comes first
        assoc.in_lanes(40, 1, all_fail)
    assert threading.active_count() == before


def test_a_callers_errstate_holds_in_helper_lanes(monkeypatch):
    set_cores(monkeypatch, 2)
    monkeypatch.setattr(assoc, "_BLOCK_SAMPLES", 2)
    made = record_threads(monkeypatch)
    samples = np.array([0.9e308, 1.7e308])

    def helper_overflows(blocks, step):
        if threading.current_thread() in made:
            _ = samples[:1] * 2.0  # beyond the double range

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        assoc.in_lanes(2, 2, helper_overflows)
    with np.errstate(over="ignore"):  # no RuntimeWarning, which the tests raise
        assoc.in_lanes(2, 2, helper_overflows)
    assert len(made) == 2
    # through the omega kernel: 1e308 * 2 overflows, in whichever lane takes the row
    af = AssociatedFunction(random_grid((2, 2), seed=1))
    W = np.array([[1e308, 0.0]] * 4)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        af._scan(W)
    with np.errstate(over="ignore", invalid="ignore"):
        assert (af._scan(W)[0] == math.inf).all()


def test_the_core_count_falls_back_to_cpu_count(monkeypatch):
    set_cores(monkeypatch, 3)
    assert assoc._cores() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert assoc._cores() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert assoc._cores() == 1

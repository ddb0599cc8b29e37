"""Associated weight function omega, its trace identity, q3 suprema at the
certificate slopes, log-convex regularization and the three convexity
verdicts."""
import math
import warnings

import numpy as np
import pytest

from logcvx import (EXP, LOG, AssociatedFunction, DimensionMismatch,
                    EmptySGrid, GridValidationError, NotNormalized, OutOfRange,
                    SGridSpec, SequenceGrid, SplitMix64, as_log_grid, check_log_convexity,
                    convex_random_grid, factorial_grid, log_convex_minorant,
                    notconvex_grid, omega, q3_supremum, q3_supremum_log,
                    random_grid, read_report, to_exp, write_grid)
from logcvx import assoc, conjugate
from logcvx.cli import main
from logcvx.core import FEAS_TOL, index_array
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
    monkeypatch.setattr(assoc.conjugate, "_BLOCK_SAMPLES", 24)
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
    conjugate.check_samples(5, 1)
    with pytest.raises(EmptySGrid):
        conjugate.check_samples(0, 1)


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

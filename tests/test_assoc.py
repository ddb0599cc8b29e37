"""Associated weight function omega, its trace identity, sampled q3 suprema,
log-convex regularization and the three convexity verdicts."""
import math
import warnings

import numpy as np
import pytest

from logcvx import (EXP, LOG, AssociatedFunction, DimensionMismatch,
                    EmptySGrid, GridValidationError, NotNormalized, OutOfRange,
                    SGridSpec, SequenceGrid, SplitMix64, check_log_convexity,
                    factorial_grid, log_convex_minorant, notconvex_grid,
                    omega, q3_supremum, q3_supremum_log, random_grid, to_exp)
from logcvx import assoc
from logcvx.assoc import _omega_at
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
    vals, flags = _omega_at(af, x, samples)
    assert vals.shape == flags.shape == (64,)
    assert flags.any() and not flags.all()
    for s, v, flag in zip(samples, vals, flags):
        ev = af.evaluate(np.exp(x[list(s)]))
        assert v == pytest.approx(ev.value, abs=1e-10)
        assert flag == ev.sup_on_boundary


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
    spec = SGridSpec(-1.0, 1.0, 5)
    ax = spec.axis_samples()
    assert ax.shape == (5,)
    assert ax[0] == pytest.approx(-1.0)
    assert ax[-1] == pytest.approx(1.0)
    with pytest.raises(EmptySGrid):
        SGridSpec(0.0, 1.0, 0).axis_samples()


def test_sgrid_default_density_depends_on_dimension():
    assert SGridSpec.from_grid(FACT).points == 200
    g3 = to_exp(random_grid((1, 1, 1), seed=0))
    assert SGridSpec.from_grid(g3).points == 50


# --------------------------------------------------------------------- q3


def test_q3_recovers_factorial_value_exactly():
    assert q3_supremum(FACT, (2,)) == pytest.approx(2.0, rel=1e-9)


def test_q3_factorial_with_explicit_wide_grid():
    spec = SGridSpec(-3.0, 6.0, 400)
    assert q3_supremum(FACT, (2,), spec) == pytest.approx(2.0, rel=0.02)


def test_q3_never_exceeds_the_data():
    grids = [FACT, notconvex_grid((2, 2)), to_exp(random_grid((3, 3), seed=3))]
    for g in grids:
        a = np.log(g.flat)
        shape = tuple(n + 1 for n in g.box)
        for flat_i in range(a.size):
            alpha = tuple(int(c) for c in np.unravel_index(flat_i, shape))
            v, _ = q3_supremum_log(g, alpha)
            assert v <= a[flat_i] + 1e-9


def test_q3_recovers_the_minorant_at_the_notconvex_center():
    g = notconvex_grid((2, 2))
    assert q3_supremum(g, (1, 1)) == pytest.approx(math.exp(8.0), rel=1e-9)


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


def test_check_accepts_explicit_s_grid():
    spec = SGridSpec(0.0, 3.0, 50)
    report = check_log_convexity(FACT, s_grid=spec)
    assert report.globally_convex


def test_check_is_quiet_when_a_hole_lies_outside_the_hull():
    g = random_grid((3, 3), 1)
    a = g.values.copy()
    a[3, 3] = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_log_convexity(SequenceGrid(g.box, a.reshape(-1), g.scale))
    assert math.isfinite(report.max_gap)
    assert report.boundary_caveat


def test_check_rejects_an_oversized_s_grid_before_the_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("the LP ran before the sample cap was checked")

    monkeypatch.setattr(assoc, "minorant_lp", no_lp)
    with pytest.raises(OutOfRange):
        check_log_convexity(notconvex_grid((2, 2)), s_grid=SGridSpec(0.0, 1.0, 3000))

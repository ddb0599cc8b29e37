"""Weight-matrix ladders: construction guards, relation verification and
search, structural conditions, and the sequence that separates the shifted
condition from the pairwise one."""
import math

import numpy as np
import pytest

from logcvx import (BoxTooSmall, ConditionEntry, ConditionWitness,
                    DimensionMismatch, GridValidationError, LevelNotFound,
                    NotNormalized, RelationEntry, RelationWitness,
                    SequenceGrid, WeightMatrix, convex_random_grid, factorial_grid,
                    l37r_counterexample_curve, l37r_counterexample_matrix,
                    search_relation, verify_condition, verify_relation,
                    write_report)
from logcvx.core import EXP, LOG, order_array
from logcvx.matrices import C_GRID, H_GRID, CandidateSlack, _slack


def exp_line(n, f):
    return SequenceGrid.from_function((n,), lambda a: float(f(a[0])), EXP)


FACT = WeightMatrix((1.0,), (factorial_grid(6),))
FACT_SQ = WeightMatrix((1.0,), (exp_line(6, lambda p: math.factorial(p) ** 2),))


def trivial_witness(kind, M, C=1.0, h=None):
    entries = tuple(RelationEntry(l, l, C, h) for l in M.levels)
    return RelationWitness(kind, entries)


# ------------------------------------------------------------ construction


def test_matrix_accepts_a_monotone_ladder():
    W = WeightMatrix((1.0, 2.0),
                     (factorial_grid(5), exp_line(5, lambda p: math.factorial(p) * 2.0 ** p)))
    assert W.box == (5,)
    assert W.dim == 1
    assert W.level_index(2.0) == 1
    assert np.allclose(W.log_flat(1.0), [math.lgamma(p + 1) for p in range(6)])


def test_matrix_construction_guards():
    f5 = factorial_grid(5)
    with pytest.raises(ValueError):
        WeightMatrix((), ())
    with pytest.raises(ValueError):
        WeightMatrix((1.0, 2.0), (f5,))
    with pytest.raises(ValueError):
        WeightMatrix((0.0,), (f5,))
    with pytest.raises(ValueError):
        WeightMatrix((2.0, 1.0), (f5, f5))
    with pytest.raises(DimensionMismatch):
        WeightMatrix((1.0, 2.0), (f5, factorial_grid(4)))
    with pytest.raises(ValueError):
        WeightMatrix((1.0,), (SequenceGrid((2,), [0.0, 1.0, 2.0], LOG),))
    with pytest.raises(NotNormalized):
        WeightMatrix((1.0,), (SequenceGrid((2,), [2.0, 3.0, 9.0], EXP),))
    with pytest.raises(GridValidationError):
        WeightMatrix((1.0,), (SequenceGrid((2,), [1.0, math.nan, 2.0], EXP),))


def test_matrix_rejects_a_descending_ladder():
    up = exp_line(4, lambda p: math.factorial(p) * 2.0 ** p)
    down = factorial_grid(4)
    with pytest.raises(ValueError, match="monotone"):
        WeightMatrix((1.0, 2.0), (up, down))


def test_level_lookup_tolerance_and_failure():
    assert FACT.level_index(1.0 + 1e-13) == 0
    with pytest.raises(LevelNotFound):
        FACT.level_index(3.0)


# ------------------------------------------------------------- log slacks


def test_slack_infinity_conventions():
    lhs = np.array([1.0, math.inf, math.inf, 2.0])
    rhs = np.array([3.0, 5.0, math.inf, math.inf])
    s = _slack(lhs, rhs)
    assert s[0] == pytest.approx(-2.0)
    assert s[1] == math.inf
    assert s[2] == -math.inf
    assert s[3] == -math.inf


# -------------------------------------------------------------- relations


def test_roumieu_self_comparison_with_unit_constant():
    report = verify_relation(FACT, FACT, "roumieu", trivial_witness("roumieu", FACT))
    assert report.holds
    assert report.max_slack == pytest.approx(0.0, abs=1e-12)
    assert report.first_violation is None
    assert report.covers_all_levels
    assert report.checked == 7


def test_roumieu_detects_an_undersized_constant():
    witness = trivial_witness("roumieu", FACT_SQ)
    report = verify_relation(FACT_SQ, FACT, "roumieu", witness)
    assert not report.holds
    assert report.first_violation.alpha == (2,)
    assert report.first_violation.slack == pytest.approx(math.log(2.0))
    assert report.worst.alpha == (6,)
    assert report.max_slack == pytest.approx(math.log(720.0))


def test_beurling_quantifies_over_the_right_hand_levels():
    witness = RelationWitness("beurling", (RelationEntry(1.0, 1.0, 1.0),))
    report = verify_relation(FACT, FACT_SQ, "beurling", witness)
    assert report.holds
    assert report.covers_all_levels


def test_triangle_needs_h_and_scales_with_it():
    witness = RelationWitness("triangle", (RelationEntry(1.0, 1.0, 64.0, 0.5),))
    report = verify_relation(FACT, FACT, "triangle", witness)
    assert report.holds
    assert report.max_slack == pytest.approx(6.0 * math.log(2.0) - math.log(64.0))
    with pytest.raises(ValueError, match="h > 0"):
        verify_relation(FACT, FACT, "triangle",
                        RelationWitness("triangle", (RelationEntry(1.0, 1.0, 1.0),)))


def test_relation_coverage_flags_missing_levels():
    two = WeightMatrix((1.0, 2.0),
                       (factorial_grid(4), exp_line(4, lambda p: math.factorial(p) * 2.0 ** p)))
    partial = RelationWitness("roumieu", (RelationEntry(1.0, 1.0, 1.0),))
    report = verify_relation(two, two, "roumieu", partial)
    assert not report.covers_all_levels


def test_relation_input_guards():
    with pytest.raises(DimensionMismatch):
        verify_relation(FACT, WeightMatrix((1.0,), (factorial_grid(4),)),
                        "roumieu", trivial_witness("roumieu", FACT))
    with pytest.raises(ValueError, match="kind"):
        verify_relation(FACT, FACT, "sideways", trivial_witness("roumieu", FACT))
    with pytest.raises(ValueError, match="positive"):
        verify_relation(FACT, FACT, "roumieu",
                        RelationWitness("roumieu", (RelationEntry(1.0, 1.0, 0.0),)))


# ----------------------------------------------------------------- search


def test_search_finds_the_smallest_grid_constant():
    M = WeightMatrix((1.0,), (exp_line(15, lambda p: math.factorial(p) ** 2),))
    N = WeightMatrix((1.0,), (factorial_grid(15),))
    out = search_relation(M, N, "roumieu")
    assert out.witness is not None
    entry = out.witness.entries[0]
    assert entry.C == pytest.approx(10.0, rel=1e-12)
    assert entry.kappa == 1.0
    assert verify_relation(M, N, "roumieu", out.witness).holds
    assert len(out.table) == len(C_GRID)


def test_search_reports_failure_beyond_the_constant_grid():
    M = WeightMatrix((1.0,), (exp_line(4, lambda p: math.exp(10.0 * p * p)),))
    N = WeightMatrix((1.0,), (exp_line(4, lambda p: 1.0),))
    out = search_relation(M, N, "roumieu")
    assert out.witness is None
    assert out.table
    assert min(c.max_slack for c in out.table) > 0


def test_search_triangle_succeeds_when_the_gap_absorbs_every_h():
    M = WeightMatrix((1.0,), (factorial_grid(3),))
    N = WeightMatrix((1.0,), (exp_line(3, lambda p: math.factorial(p) * math.exp(p * p)),))
    out = search_relation(M, N, "triangle")
    assert out.witness is not None
    assert len(out.witness.entries) == len(H_GRID)
    assert verify_relation(M, N, "triangle", out.witness).holds


def test_search_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        search_relation(FACT, FACT, "diagonal")


def test_search_rejects_matrices_on_different_boxes():
    with pytest.raises(DimensionMismatch):
        search_relation(FACT, WeightMatrix((1.0,), (factorial_grid(4),)), "roumieu")
    point = WeightMatrix((1.0,), (SequenceGrid((0,), [1.0], EXP),))
    for kind in ("roumieu", "beurling", "triangle"):
        with pytest.raises(DimensionMismatch):
            search_relation(FACT, point, kind)


def reference_search(M, N, kind):
    """The per-candidate scan: one slack array and one max per (lam, kappa, h, C),
    with the smallest (C, kappa) per level (roumieu, beurling) or the smallest C
    per (lam, kappa, h) (triangle)."""
    orders = order_array(M.box)
    lams, kappas = (N.levels, M.levels) if kind == "beurling" else (M.levels, N.levels)
    table, entries, found_all = [], [], True
    for lam in lams:
        best = None
        for kappa in kappas:
            for h in (H_GRID if kind == "triangle" else (None,)):
                first = None
                for C in C_GRID:
                    if kind == "roumieu":
                        lhs, rhs = M.log_flat(lam), orders * math.log(C) + N.log_flat(kappa)
                    elif kind == "beurling":
                        lhs, rhs = M.log_flat(kappa), orders * math.log(C) + N.log_flat(lam)
                    else:
                        lhs = M.log_flat(lam)
                        rhs = math.log(C) + orders * math.log(h) + N.log_flat(kappa)
                    s = float(_slack(lhs, rhs).max())
                    table.append(CandidateSlack(lam, kappa, C, h, s))
                    if s <= 1e-9 and first is None:
                        first = RelationEntry(lam, kappa, C, h)
                if kind == "triangle":
                    found_all = found_all and first is not None
                    entries += [first] if first is not None else []
                elif first is not None and (best is None or first.C < best.C):
                    best = first
        if kind != "triangle":
            found_all = found_all and best is not None
            entries += [best] if best is not None else []
    witness = RelationWitness(kind, tuple(entries)) if found_all else None
    return witness, tuple(table)


def ladder(base, slopes, quads=None):
    """Levels 1, 2, ... of exp(base + c|a| + q|a|^2) on the box of base."""
    orders = order_array(base.box)
    quads = quads or (0.0,) * len(slopes)
    return WeightMatrix(tuple(float(i + 1) for i in range(len(slopes))), tuple(
        SequenceGrid(base.box, np.exp(base.flat + c * orders + q * orders ** 2), EXP)
        for c, q in zip(slopes, quads)))


BASE = convex_random_grid((4, 4), 3)
LOW = ladder(BASE, (0.0, 0.3, 0.7))
HIGH = ladder(BASE, (0.1, 0.4, 0.9))
STEEP = ladder(BASE, (0.0, 0.2), (0.0, 5.0))
QUAD = ladder(BASE, (0.0, 0.1), (2.0, 3.0))


@pytest.mark.parametrize("kind, M, N, found", [
    ("roumieu", LOW, LOW, True),       # several kappa pass at C = 1 for lam = 1, 2
    ("roumieu", HIGH, LOW, True),      # lam = 3 needs kappa = 3 or a larger C
    ("roumieu", STEEP, LOW, False),    # no C passes for the steep level
    ("beurling", LOW, LOW, True),
    ("beurling", LOW, STEEP, True),
    ("beurling", QUAD, STEEP, False),  # nothing of QUAD lies below STEEP's lowest level
    ("triangle", LOW, QUAD, True),     # every (lam, kappa, h) passes, at various C
    ("triangle", LOW, HIGH, False),    # small h fails, large h passes at various C
    ("triangle", LOW, STEEP, False),
    ("triangle", FACT, FACT, False),
])
def test_search_matches_the_per_candidate_scan(kind, M, N, found):
    witness, table = reference_search(M, N, kind)
    out = search_relation(M, N, kind)
    assert write_report(out.table) == write_report(table)
    assert write_report(out.witness) == write_report(witness)
    assert (out.witness is not None) == found
    assert any(c.max_slack <= 1e-9 for c in table)


def test_search_takes_the_smallest_kappa_among_ties():
    out = search_relation(LOW, LOW, "roumieu")
    passing_at_1 = {c.kappa for c in out.table if c.lam == 1.0 and c.C == 1.0
                    and c.max_slack <= 1e-9}
    assert passing_at_1 == {1.0, 2.0, 3.0}
    assert [(e.lam, e.kappa, e.C) for e in out.witness.entries][:2] == [
        (1.0, 1.0, 1.0), (2.0, 2.0, 1.0)]
    assert verify_relation(LOW, LOW, "roumieu", out.witness).holds


# ------------------------------------------------------------- conditions


def cond_witness(condition, **kw):
    return ConditionWitness(condition, (ConditionEntry(1.0, 1.0, **kw),))


def test_factorials_satisfy_the_pairwise_conditions_with_unit_constants():
    for condition in ("L37R", "63B"):
        report = verify_condition(FACT, condition, cond_witness(condition, A=1.0))
        assert report.holds
        assert report.max_slack == pytest.approx(0.0, abs=1e-12)
        assert report.covers_all_levels
        assert report.checked > 0


def test_factorials_need_a_constant_for_the_shift_conditions():
    fails = verify_condition(FACT, "L21R", cond_witness("L21R", A=1.0))
    assert not fails.holds
    assert fails.first_violation.alpha == (1,)
    assert fails.first_violation.axis == 0
    assert fails.first_violation.slack == pytest.approx(math.log(2.0))
    holds = verify_condition(FACT, "L21R", cond_witness("L21R", A=2.0))
    assert holds.holds
    assert verify_condition(FACT, "L21B", cond_witness("L21B", A=2.0)).holds


def test_factorials_absorb_the_halfpower_weight():
    r = verify_condition(FACT, "L12R", cond_witness("L12R", B=1.0, C=1.0, H=1.0))
    assert r.holds
    b = verify_condition(FACT, "L12B",
                         cond_witness("L12B", H=1.0, pairs=((1.0, 1.0),)))
    assert b.holds


def test_condition_side_guards():
    two = WeightMatrix((1.0, 2.0),
                       (factorial_grid(4), exp_line(4, lambda p: math.factorial(p) * 2.0 ** p)))
    with pytest.raises(ValueError, match="kappa >= lam"):
        verify_condition(two, "L37R",
                         ConditionWitness("L37R", (ConditionEntry(2.0, 1.0, A=1.0),)))
    with pytest.raises(ValueError, match="kappa <= lam"):
        verify_condition(two, "63B",
                         ConditionWitness("63B", (ConditionEntry(1.0, 2.0, A=1.0),)))
    with pytest.raises(LevelNotFound):
        verify_condition(FACT, "L37R",
                         ConditionWitness("L37R", (ConditionEntry(5.0, 5.0, A=1.0),)))


def test_condition_constant_guards():
    with pytest.raises(ValueError, match="A > 0"):
        verify_condition(FACT, "L37R", cond_witness("L37R"))
    with pytest.raises(ValueError, match="B, C, H"):
        verify_condition(FACT, "L12R", cond_witness("L12R", B=1.0))
    with pytest.raises(ValueError, match="pairs"):
        verify_condition(FACT, "L12B", cond_witness("L12B", H=1.0))
    with pytest.raises(ValueError, match="condition"):
        verify_condition(FACT, "L99X", cond_witness("L99X", A=1.0))
    with pytest.raises(ValueError, match="different condition"):
        verify_condition(FACT, "L37R", cond_witness("63B", A=1.0))


def test_condition_coverage_flags_missing_levels():
    two = WeightMatrix((1.0, 2.0),
                       (factorial_grid(4), exp_line(4, lambda p: math.factorial(p) * 2.0 ** p)))
    report = verify_condition(two, "L37R",
                              ConditionWitness("L37R", (ConditionEntry(1.0, 2.0, A=1.0),)))
    assert report.holds
    assert not report.covers_all_levels


# --------------------------------------------------------- counterexample


def test_counterexample_margins_grow_quadratically():
    for n, margin in l37r_counterexample_curve(20):
        assert margin == pytest.approx(float(n * n), abs=1e-9 * n * n)
    with pytest.raises(ValueError):
        l37r_counterexample_curve(0)
    with pytest.raises(ValueError):
        l37r_counterexample_curve(31)


def test_counterexample_passes_the_shift_but_not_the_pairwise_condition():
    W = l37r_counterexample_matrix()
    A = math.exp(3.0)
    shift = verify_condition(W, "L21R", cond_witness("L21R", A=A))
    assert shift.holds
    assert shift.max_slack == pytest.approx(-2.0, abs=1e-9)
    pairwise = verify_condition(W, "L37R", cond_witness("L37R", A=A))
    assert not pairwise.holds
    assert pairwise.first_violation.alpha == (0, 7)
    assert pairwise.first_violation.beta == (7, 0)
    assert pairwise.first_violation.slack == pytest.approx(7.0, abs=1e-9)
    assert pairwise.worst.slack == pytest.approx(144.0 - 24.0 * 3.0, abs=1e-9)


def test_counterexample_box_guards():
    with pytest.raises(BoxTooSmall):
        l37r_counterexample_matrix((27, 27))
    with pytest.raises(DimensionMismatch):
        l37r_counterexample_matrix((3,))

"""Weight-matrix ladders: construction guards, relation verification and
search, structural conditions, and the sequence that separates the shifted
condition from the pairwise one."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logcvx import matrices
from logcvx import (ConditionEntry, ConditionWitness,
                    DimensionMismatch, GridValidationError, LevelNotFound,
                    NotNormalized, RelationEntry, RelationWitness,
                    SequenceGrid, WeightMatrix, WitnessError, convex_random_grid,
                    factorial_grid, l37r_counterexample_curve,
                    l37r_counterexample_matrix, search_relation,
                    verify_condition, verify_relation, write_report)
from logcvx.core import EXP, LOG, index_array, order_array
from logcvx.matrices import C_GRID, H_GRID, SlackRecord, _halfpower_log, _slack


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


def masked_slack(lhs, rhs):
    """_slack with both +inf masks applied always."""
    with np.errstate(invalid="ignore"):
        s = np.asarray(lhs - rhs, dtype=float)
    s = np.where(np.isposinf(rhs), -math.inf, s)
    return np.where(np.isposinf(lhs) & ~np.isposinf(rhs), math.inf, s)


SPECIALS = np.array([-math.inf, -1.5, -0.0, 0.0, 5e-324, 2.0, math.inf, math.nan])


@pytest.mark.parametrize("lhs, rhs", [
    (SPECIALS[:, None], SPECIALS[None, :]),          # every pair of specials
    (SPECIALS[1:6, None], SPECIALS[None, 1:6]),      # finite: the masks are skipped
    (np.array([0.0, math.inf, 1.0]), np.array([[0.5, 1.0, -math.inf], [2.0, math.inf, 3.0]])),
    (np.array([[math.nan, 1.0], [math.inf, -math.inf]]), np.array([-math.inf, math.inf])),
    (np.array([1.0, 2.0]), np.array([math.inf, 3.0])),  # -inf slack without a NaN
    (np.array([math.inf, 2.0]), np.array([-math.inf, 3.0])),
])
def test_slack_is_bit_identical_to_the_masked_form(lhs, rhs):
    fast, masked = _slack(lhs, rhs), masked_slack(lhs, rhs)
    assert fast.shape == masked.shape
    assert np.array_equal(fast.view(np.int64), masked.view(np.int64))


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


@pytest.mark.parametrize("kind", ["roumieu", "beurling", "triangle"])
def test_relation_coverage_matches_levels_within_the_lookup_tolerance(kind):
    # 1 + 4e-13 is level 1.0 to level_index, so it verifies and covers it
    witness = RelationWitness(kind, (RelationEntry(1.0 + 4e-13, 1.0 + 4e-13, 64.0, 0.5),))
    report = verify_relation(FACT, FACT, kind, witness)
    assert report.holds
    assert report.covers_all_levels


def test_triangle_coverage_needs_every_level_pair():
    two = ladder(BASE, (0.0, 0.3))
    entries = [RelationEntry(l, k, 1e3, 1.0) for l in two.levels for k in two.levels]
    assert verify_relation(two, two, "triangle",
                           RelationWitness("triangle", tuple(entries))).covers_all_levels
    partial = RelationWitness("triangle", tuple(entries[:-1]) + (entries[0],))
    assert not verify_relation(two, two, "triangle", partial).covers_all_levels


def test_relation_input_guards():
    with pytest.raises(DimensionMismatch):
        verify_relation(FACT, WeightMatrix((1.0,), (factorial_grid(4),)),
                        "roumieu", trivial_witness("roumieu", FACT))
    with pytest.raises(ValueError, match="kind"):
        verify_relation(FACT, FACT, "sideways", trivial_witness("roumieu", FACT))
    with pytest.raises(ValueError, match="positive"):
        verify_relation(FACT, FACT, "roumieu",
                        RelationWitness("roumieu", (RelationEntry(1.0, 1.0, 0.0),)))


def test_relation_witness_of_another_kind_is_rejected():
    triangle = RelationWitness("triangle", (RelationEntry(1.0, 1.0, 1.0, 0.5),))
    for kind in ("roumieu", "beurling"):
        with pytest.raises(WitnessError, match="triangle"):
            verify_relation(FACT, FACT, kind, triangle)
    with pytest.raises(WitnessError, match="roumieu"):
        verify_relation(FACT, FACT, "triangle", trivial_witness("roumieu", FACT))


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
    assert len(out.table) == 1


def test_search_reports_failure_beyond_the_constant_grid():
    M = WeightMatrix((1.0,), (exp_line(4, lambda p: math.exp(10.0 * p * p)),))
    N = WeightMatrix((1.0,), (exp_line(4, lambda p: 1.0),))
    out = search_relation(M, N, "roumieu")
    assert out.witness is None
    assert out.table
    assert out.table.columns["max_slack"].min() > 0


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
                    s = float(masked_slack(lhs, rhs).max())
                    table.append({"lam": lam, "kappa": kappa, "C": C, "h": h,
                                  "max_slack": s})
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


def reference_log_min(M, N, kind, lam, kappa, h):
    """log C* of one key, index by index: for triangle the max over alpha of
    m - |alpha| log h - n, otherwise the max over |alpha| > 0 of (m - n)/|alpha|
    (+inf when alpha = 0 fails), each slack under the +inf conventions."""
    lhs, rhs = ((M.log_flat(kappa), N.log_flat(lam)) if kind == "beurling"
                else (M.log_flat(lam), N.log_flat(kappa)))
    out = -math.inf
    for o, m, n in zip(order_array(M.box).tolist(), lhs.tolist(), rhs.tolist()):
        if kind == "triangle":
            out = max(out, float(masked_slack(np.float64(m), o * math.log(h) + n)))
        elif o:
            out = max(out, float(masked_slack(np.float64(m), np.float64(n))) / o)
        elif float(masked_slack(np.float64(m), np.float64(n))) > 1e-9:
            return math.inf
    return out


def cut_to_keys(M, N, kind, table):
    """The reference table with one row per (lam, kappa, h): its first passing
    row, else its last, with the key's C_min = exp(log C*)."""
    rows = {}
    for row in table:
        key = (row["lam"], row["kappa"], row["h"])
        if key not in rows or rows[key]["max_slack"] > 1e-9:
            rows[key] = row
    with np.errstate(over="ignore"):
        return [dict(row, C_min=float(np.exp(reference_log_min(M, N, kind, *key))))
                for key, row in rows.items()]


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
    assert write_report(out.table) == write_report(cut_to_keys(M, N, kind, table))
    assert write_report(out.witness) == write_report(witness)
    assert (out.witness is not None) == found
    assert any(c["max_slack"] <= 1e-9 for c in table)


def with_holes(M, holes):
    """M with +inf from each level up at the flat indices holes[i] of level i."""
    grids, cut = [], []
    for g, extra in zip(M.grids, holes):
        cut += extra
        flat = g.flat.copy()
        flat[cut] = math.inf
        grids.append(SequenceGrid(g.box, flat, EXP))
    return WeightMatrix(M.levels, tuple(grids))


HOLED_LOW = with_holes(LOW, ([24], [7, 18], [23]))
HOLED_HIGH = with_holes(HIGH, ([], [24, 3], [12]))


@pytest.mark.parametrize("kind, M, N", [
    ("roumieu", HOLED_LOW, HOLED_LOW), ("roumieu", HOLED_LOW, HOLED_HIGH),
    ("roumieu", LOW, HOLED_HIGH), ("beurling", HOLED_HIGH, HOLED_LOW),
    ("beurling", HOLED_LOW, LOW), ("triangle", HOLED_LOW, HOLED_HIGH),
    ("triangle", LOW, HOLED_LOW), ("triangle", HOLED_HIGH, QUAD),
])
def test_search_on_ladders_with_holes_matches_the_per_candidate_scan(kind, M, N):
    witness, table = reference_search(M, N, kind)
    out = search_relation(M, N, kind)
    assert write_report(out.table) == write_report(cut_to_keys(M, N, kind, table))
    assert write_report(out.witness) == write_report(witness)


def random_ladder(rng, box, levels, holes):
    """A normalized ladder of 1-3 levels with random log steps, nondecreasing
    from level to level; with holes, +inf from a random level up at a few
    indices off the origin."""
    orders = order_array(box)
    flat = rng.uniform(-1.0, 4.0) * orders + rng.uniform(0.0, 1.0, orders.size) * (orders > 0)
    grids = []
    for i in range(levels):
        flat = flat + rng.uniform(0.0, 0.6) * orders
        if holes and orders.size > 1 and rng.random() < 0.5:
            flat[rng.integers(1, orders.size, 2)] = math.inf
        grids.append(SequenceGrid(box, np.exp(flat), EXP))
    return WeightMatrix(tuple(float(i + 1) for i in range(levels)), tuple(grids))


RANDOM_BOXES = [(0,), (1,), (6,), (0, 2), (2, 3), (3, 1, 0), (3, 3, 3)]


@pytest.mark.parametrize("kind", ["roumieu", "beurling", "triangle"])
def test_search_on_random_ladders_matches_the_per_candidate_scan(kind):
    rng = np.random.default_rng(["roumieu", "beurling", "triangle"].index(kind))
    for case in range(14):
        box = RANDOM_BOXES[case % len(RANDOM_BOXES)]
        holes = case >= len(RANDOM_BOXES)
        M, N = (random_ladder(rng, box, int(rng.integers(1, 4)), holes) for _ in "MN")
        witness, table = reference_search(M, N, kind)
        out = search_relation(M, N, kind)
        assert write_report(out.table) == write_report(cut_to_keys(M, N, kind, table)), box
        assert write_report(out.witness) == write_report(witness), box
        slacks = np.array([row["max_slack"] for row in table]).reshape(-1, len(C_GRID))
        assert (slacks[:, 1:] <= slacks[:, :-1]).all(), box  # never increases along C_GRID
        t = out.table.columns
        with np.errstate(divide="ignore"):
            floor = np.log(t["C_min"]) - 1e-9
        for C, slack, low in zip(t["C"].tolist(), t["max_slack"].tolist(), floor.tolist()):
            if slack <= 1e-9:  # the first grid constant at or past C_min is the row's
                assert C == next(c for c in C_GRID if math.log(c) >= low), box


@pytest.mark.parametrize("kind, m, n, h, shift", [
    # triangle: the slack at C_GRID[k] is 1e-9 plus rounding, so C_GRID[k + 1] is first
    ("triangle", [1.0, 45.3684422180651], [1.0, 1.1477408892748764], H_GRID[7], 1),
    # triangle: the slack at C_GRID[k - 1] is 1e-9 less rounding, so it passes
    ("triangle", [1.0, 0.029778334112148506], [1.0, 8.573740979118583], H_GRID[1], -1),
    # roumieu at |a| = 2: log C* - 1e-9 <= log C_GRID[k] < log C* - 1e-9 / 2 fails
    ("roumieu", [1.0, 1.0, math.exp(2.0 * math.log(C_GRID[9]) + 1.5e-9)], [1.0] * 3, None, 1),
])
def test_search_confirms_the_neighbours_of_the_exact_constant(kind, m, n, h, shift, monkeypatch):
    M, N = (WeightMatrix((1.0,), (SequenceGrid((len(v) - 1,), v, EXP),)) for v in (m, n))
    witness, table = reference_search(M, N, kind)
    out = search_relation(M, N, kind)
    assert write_report(out.table) == write_report(cut_to_keys(M, N, kind, table))
    assert write_report(out.witness) == write_report(witness)
    low = reference_log_min(M, N, kind, 1.0, 1.0, h) - 1e-9
    k = next(i for i, c in enumerate(C_GRID) if math.log(c) >= low)
    assert out.table.columns["C"][H_GRID.index(h) if h else 0] == C_GRID[k + shift]
    # the tied key alone is evaluated over the box at a neighbour of its first entry
    off = WeightMatrix((1.0,), (SequenceGrid(M.box, m[:-1] + [m[-1] * math.exp(0.25)], EXP),))
    assert slack_entries(monkeypatch, M, N, kind) > slack_entries(monkeypatch, off, N, kind)


def slack_entries(monkeypatch, M, N, kind):
    """The number of slack entries search_relation evaluates on M and N."""
    sizes = []

    def counted(lhs, rhs):
        s = _slack(lhs, rhs)
        sizes.append(s.size)
        return s
    with monkeypatch.context() as patch:
        patch.setattr(matrices, "_slack", counted)
        search_relation(M, N, kind)
    return sum(sizes)


def test_search_evaluates_each_key_over_the_box_at_one_constant(monkeypatch):
    # log C* per key, then the box at one C_GRID entry per key and, where that
    # entry passes, its lower neighbour at a_star alone: no key needs the box twice
    base = convex_random_grid((12, 12), 5)
    M, N = ladder(base, (0.1, 0.4, 0.8)), ladder(base, (0.2, 0.5, 0.9))
    keys, points = 3 * 3 * len(H_GRID), 13 * 13
    assert slack_entries(monkeypatch, M, N, "triangle") <= 2 * keys * points + keys


@pytest.mark.parametrize("kind", ["roumieu", "beurling", "triangle"])
def test_search_table_has_one_column_entry_per_candidate(kind):
    M = ladder(BASE, (0.0, 0.3))
    out = search_relation(M, HIGH, kind)
    rows = len(M.levels) * len(HIGH.levels) * (len(H_GRID) if kind == "triangle" else 1)
    assert len(out.table) == rows
    t = out.table.columns
    assert list(t) == ["lam", "kappa", "C", "h", "max_slack", "C_min"]
    for col in (t["lam"], t["kappa"], t["C"], t["max_slack"], t["C_min"]) + (
            (t["h"],) if kind == "triangle" else ()):
        assert isinstance(col, np.ndarray) and col.shape == (rows,) and col.dtype == float
    assert (t["h"] is None) == (kind != "triangle")


def test_search_takes_the_smallest_kappa_among_ties():
    out = search_relation(LOW, LOW, "roumieu")
    t = out.table.columns
    passing_at_1 = set(t["kappa"][(t["lam"] == 1.0) & (t["C"] == 1.0)
                                  & (t["max_slack"] <= 1e-9)].tolist())
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


def test_condition_sides_compare_ladder_positions():
    # 3 - 2e-12 is level 3 to level_index, so it is on the right side of lam = 3
    M = WeightMatrix((1.0, 3.0), ladder(BASE, (0.0, 0.3)).grids)
    near = 3.0 - 2e-12
    for condition, lam, kappa in (("L37R", 3.0, near), ("63B", near, 3.0),
                                  ("L21R", 3.0, near), ("L21B", near, 3.0)):
        report = verify_condition(M, condition, ConditionWitness(
            condition, (ConditionEntry(lam, kappa, A=1e3),)))
        assert report.holds
    with pytest.raises(ValueError, match="kappa >= lam"):
        verify_condition(M, "L37R", ConditionWitness(
            "L37R", (ConditionEntry(near, 1.0, A=1.0),)))


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


_PEAK_RSS = """
import math, resource, sys
import numpy as np
from logcvx import (ConditionEntry, ConditionWitness, SequenceGrid, WeightMatrix,
                    verify_condition)
from logcvx.core import order_array
o = order_array((40, 40))
M = WeightMatrix((1.0,), (SequenceGrid((40, 40), np.exp(0.1 * o + 0.01 * o ** 2), "exp"),))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
witness = ConditionWitness("L37R", (ConditionEntry(1.0, 1.0, A=2.0),))
report = verify_condition(M, "L37R", witness)
print(report.checked, report.holds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_pairwise_condition_memory_does_not_grow_with_the_pairs():
    # 741,321 pairs at (40, 40): the peak must stay below one float64 per
    # pair, so no block or table spans all of them (ru_maxrss is in KiB)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _PEAK_RSS], capture_output=True, text=True,
                         check=True, env=env)
    checked, holds, grown_kib = out.stdout.split()
    assert (int(checked), holds) == (741321, "True")
    assert int(grown_kib) * 1024 < 8 * int(checked)


def test_condition_coverage_flags_missing_levels():
    two = WeightMatrix((1.0, 2.0),
                       (factorial_grid(4), exp_line(4, lambda p: math.factorial(p) * 2.0 ** p)))
    report = verify_condition(two, "L37R",
                              ConditionWitness("L37R", (ConditionEntry(1.0, 2.0, A=1.0),)))
    assert report.holds
    assert not report.covers_all_levels


# ------------------------------------------------- verifiers, pair by pair


def scalar_slack(lhs, rhs):
    """_slack of one inequality: an infinite rhs satisfies anything, an
    infinite lhs against a finite rhs violates everything."""
    if rhs == math.inf:
        return -math.inf
    return math.inf if lhs == math.inf else lhs - rhs


def reference_fold(checks):
    """The report fields of a scan of (slack, record fields) in scan order: the
    first strict maximum and the first slack above 1e-9."""
    top, worst, first, checked = -math.inf, None, None, 0
    for s, fields in checks:
        checked += 1
        s = float(s)
        if s > top:
            top, worst = s, SlackRecord(**fields, slack=s)
        if first is None and s > 1e-9:
            first = SlackRecord(**fields, slack=s)
    return {"holds": checked > 0 and top <= 1e-9, "max_slack": top, "worst": worst,
            "first_violation": first, "checked": checked}


def relation_checks(M, N, kind, witness):
    """One inequality per entry and index, entry by entry, indices row-major."""
    points = [tuple(a) for a in index_array(M.box).tolist()]
    for e in witness.entries:
        m, n = (e.kappa, e.lam) if kind == "beurling" else (e.lam, e.kappa)
        lhs, rhs = M.log_flat(m), N.log_flat(n)
        for i, a in enumerate(points):
            o = float(sum(a))
            scaled = (math.log(e.C) + o * math.log(e.h) if kind == "triangle"
                      else o * math.log(e.C))
            yield (scalar_slack(lhs[i], scaled + rhs[i]),
                   {"lam": e.lam, "kappa": e.kappa, "alpha": a, "C": e.C, "h": e.h})


def condition_checks(M, condition, witness):
    """One inequality per entry, constant and (alpha, beta) pair, alpha-major
    and beta row-major (per axis j and alpha row-major for the shift ones)."""
    points = [tuple(a) for a in index_array(M.box).tolist()]
    flat = {a: i for i, a in enumerate(points)}
    half = _halfpower_log(M.box)
    for e in witness.entries:
        lo, hi = M.log_flat(e.lam), M.log_flat(e.kappa)
        if condition.endswith("B"):
            lo, hi = hi, lo
        base = {"lam": e.lam, "kappa": e.kappa}
        if condition in ("L21R", "L21B"):
            for j, n in enumerate(M.box):
                for a in points:
                    if a[j] < n:
                        up = flat[a[:j] + (a[j] + 1,) + a[j + 1:]]
                        rhs = math.log(e.A) * (float(sum(a)) + 1.0) + hi[flat[a]]
                        yield scalar_slack(lo[up], rhs), dict(base, alpha=a, axis=j)
            continue
        if condition in ("L37R", "63B"):
            terms = [(lo, 0.0, 0.0, math.log(e.A), {})]
        else:
            terms = [(half, math.log(B), math.log(C), math.log(e.H), {"C": C, "h": e.H})
                     for C, B in (e.pairs if condition == "L12B" else [(e.C, e.B)])]
        for left, const, alpha_coef, order_coef, extra in terms:
            for a in points:
                for b in points:
                    s = tuple(x + y for x, y in zip(a, b))
                    if s not in flat:
                        continue
                    oa, ob = float(sum(a)), float(sum(b))
                    rhs = ((const + alpha_coef * oa) + order_coef * (oa + ob)) + hi[flat[s]]
                    yield (scalar_slack(left[flat[a]] + lo[flat[b]], rhs),
                           dict(base, alpha=a, beta=b, **extra))


def report_fields(report):
    return {f: getattr(report, f)
            for f in ("holds", "max_slack", "worst", "first_violation", "checked")}


SCAN_LADDERS = {
    "holed_2d": HOLED_LOW,
    "holed_2d_high": HOLED_HIGH,
    "holed_1d": with_holes(ladder(convex_random_grid((7,), 4), (0.0, 0.5)), ([7], [3])),
    "holed_3d": with_holes(ladder(convex_random_grid((3, 2, 2), 6), (0.0, 0.4, 0.8)),
                           ([35], [20, 9], [14])),
    "zero_extent": with_holes(ladder(convex_random_grid((4, 0), 2), (0.0, 0.3)), ([4], [2])),
    "zero_extent_3d": ladder(convex_random_grid((3, 0, 2), 8), (0.0, 0.6), (0.0, 0.2)),
    "finite_2d": QUAD,
    "counterexample": l37r_counterexample_matrix((6, 6)),
}


def scan_relation_witness(M, N, kind, loose):
    lams, kappas = (N.levels, M.levels) if kind == "beurling" else (M.levels, N.levels)
    cs, hs = ((20.0, 400.0), (2.5, 4.0)) if loose else ((1.0, 2.5), (0.5, 1.5))
    return RelationWitness(kind, tuple(
        RelationEntry(lam, kappa, C, h) for lam in lams for kappa in kappas
        for C in cs for h in (hs if kind == "triangle" else (None,))))


@pytest.mark.parametrize("loose", [False, True])
@pytest.mark.parametrize("kind", ["roumieu", "beurling", "triangle"])
@pytest.mark.parametrize("name", sorted(SCAN_LADDERS))
def test_verify_relation_matches_the_per_index_scan(kind, name, loose):
    M = SCAN_LADDERS[name]
    N = {"holed_2d": HOLED_HIGH, "holed_2d_high": LOW}.get(name, M)
    witness = scan_relation_witness(M, N, kind, loose)
    report = verify_relation(M, N, kind, witness)
    ref = reference_fold(relation_checks(M, N, kind, witness))
    assert report_fields(report) == ref
    assert write_report(report_fields(report)) == write_report(ref)


def scan_condition_witness(M, condition, loose):
    roumieu = condition.endswith("R")
    a = [{"A": 20.0}, {"A": 400.0}] if loose else [{"A": 1.0}, {"A": 1.7}]
    constants = {
        "L37R": a, "63B": a, "L21R": a, "L21B": a,
        "L12R": [{"B": 20.0, "C": 3.0, "H": 20.0}] if loose else
                [{"B": 1.0, "C": 1.0, "H": 1.0}, {"B": 2.0, "C": 0.5, "H": 1.3}],
        "L12B": [{"H": 20.0, "pairs": ((20.0, 20.0), (5.0, 400.0))}] if loose else
                [{"H": 1.2, "pairs": ((1.0, 1.0), (0.7, 2.0), (1.5, 0.5))}],
    }[condition]
    return ConditionWitness(condition, tuple(
        ConditionEntry(lam, kappa, **kw) for lam in M.levels for kappa in M.levels
        if (kappa >= lam if roumieu else kappa <= lam) for kw in constants))


@pytest.mark.parametrize("loose", [False, True])
@pytest.mark.parametrize("condition", ["L12R", "L21R", "L37R", "L12B", "L21B", "63B"])
@pytest.mark.parametrize("name", sorted(SCAN_LADDERS))
def test_verify_condition_matches_the_per_pair_scan(condition, name, loose):
    M = SCAN_LADDERS[name]
    witness = scan_condition_witness(M, condition, loose)
    report = verify_condition(M, condition, witness)
    ref = reference_fold(condition_checks(M, condition, witness))
    assert report_fields(report) == ref
    assert write_report(report_fields(report)) == write_report(ref)


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
    with pytest.raises(OverflowError, match="overflows the EXP scale"):
        l37r_counterexample_matrix((27, 27))
    with pytest.raises(DimensionMismatch):
        l37r_counterexample_matrix((3,))

"""Weight matrices (ordered ladders of sequences) and their comparison tools.

A weight matrix is a finite ladder M^{(lambda_1)} <= ... <= M^{(lambda_m)} of
normalized EXP-scale grids on a common box, standing in for a continuum of
levels.  Relations between two matrices and structural conditions on a single
matrix are universally quantified statements over all indices (and levels);
here they become finite-truncation checks:

* a verifier takes an explicit witness (levels and constants) and confirms
  every stored inequality on the full box within a 1e-9 log-scale slack,
* a search scans fixed constant grids for the smallest workable witness.

A failed search at a truncation is evidence, not proof, that the relation
fails; a verified witness, conversely, certifies the box it was checked on.
All comparisons run in log scale.

Relation kinds
    roumieu    for every level lam of M there are kappa (of N) and C with
               M^{(lam)}_a <= C^{|a|} N^{(kappa)}_a
    beurling   for every level lam of N there are kappa (of M) and C with
               M^{(kappa)}_a <= C^{|a|} N^{(lam)}_a
    triangle   for all lam (of M), kappa (of N) and all h in the h-grid there
               is C with M^{(lam)}_a <= C h^{|a|} N^{(kappa)}_a

Conditions on one matrix (Roumieu side pairs a level with some kappa >= lam,
Beurling side with some kappa <= lam)
    L37R  M^{(lam)}_a M^{(lam)}_b <= A^{|a+b|} M^{(kappa)}_{a+b}
    L21R  M^{(lam)}_{a+e_j}       <= A^{|a|+1}  M^{(kappa)}_a
    L12R  a^{a/2} M^{(lam)}_b     <= B C^{|a|} H^{|a+b|} M^{(kappa)}_{a+b}
    L12B  a^{a/2} M^{(kappa)}_b   <= B C^{|a|} H^{|a+b|} M^{(lam)}_{a+b}
          (for every C in an explicit list of (C, B) pairs)
    L21B  M^{(kappa)}_{a+e_j}     <= A^{|a|+1}  M^{(lam)}_a
    63B   M^{(kappa)}_a M^{(kappa)}_b <= A^{|a+b|} M^{(lam)}_{a+b}
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (EXP, LEVEL_REL_TOL, MultiIndex, SequenceGrid, index_array,
                   order_array, validate_grid)
from .errors import (BoxTooSmall, DimensionMismatch, GridValidationError,
                     LevelNotFound, NotNormalized, WitnessError)

ROUMIEU = "roumieu"
BEURLING = "beurling"
TRIANGLE = "triangle"
RELATION_KINDS = (ROUMIEU, BEURLING, TRIANGLE)

CONDITIONS = ("L12R", "L21R", "L37R", "L12B", "L21B", "63B")
SLACK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Strictly ascending positive levels with pointwise nondecreasing grids."""

    levels: tuple[float, ...]
    grids: tuple[SequenceGrid, ...]

    def __post_init__(self):
        levels = tuple(float(x) for x in self.levels)
        grids = tuple(self.grids)
        if len(levels) == 0 or len(levels) != len(grids):
            raise WitnessError("need one grid per level")
        if any(not math.isfinite(x) or x <= 0 for x in levels):
            raise WitnessError("levels must be positive and finite")
        if any(b >= a for a, b in zip(levels[1:], levels)):
            raise WitnessError("levels must be strictly ascending")
        box = grids[0].box
        logs = []
        for i, g in enumerate(grids):
            if g.box != box:
                raise DimensionMismatch("all grids must share one box")
            if g.scale != EXP:
                raise WitnessError("matrix grids must be EXP scale")
            violations = validate_grid(g)
            if violations:
                raise GridValidationError(violations)
            if not g.is_normalized():
                raise NotNormalized(f"grid at level {levels[i]} is not normalized")
            logs.append(g.log_flat())
        for i in range(len(logs) - 1):
            with np.errstate(invalid="ignore"):
                if np.any(logs[i] > logs[i + 1] + SLACK_TOL):
                    raise WitnessError(
                        f"ladder not pointwise monotone between levels "
                        f"{levels[i]} and {levels[i + 1]}")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "_logs", tuple(logs))

    @property
    def box(self) -> tuple[int, ...]:
        return self.grids[0].box

    @property
    def dim(self) -> int:
        return self.grids[0].dim

    def level_index(self, lam: float) -> int:
        for i, x in enumerate(self.levels):
            if _same_level(x, lam):
                return i
        raise LevelNotFound(f"level {lam!r} not in ladder {self.levels}")

    def log_flat(self, lam: float) -> np.ndarray:
        return self._logs[self.level_index(lam)]


def _same_level(level: float, lam: float) -> bool:
    return abs(level - lam) <= LEVEL_REL_TOL * max(1.0, abs(level))


def _covers(levels, entries) -> bool:
    """Whether every level matches the lam of some witness entry."""
    seen = {e.lam for e in entries}
    return all(any(_same_level(l, s) for s in seen) for l in levels)


def _slack(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs - rhs in log scale with +inf conventions: an infinite rhs satisfies
    anything, an infinite lhs against finite rhs violates everything.  The
    masks change only NaN entries of lhs - rhs (+inf - +inf, a NaN operand), so
    without a NaN, as on finite ladders, lhs - rhs is returned unmasked."""
    with np.errstate(invalid="ignore"):
        s = np.asarray(lhs - rhs, dtype=float)
    if not np.isnan(s).any():
        return s
    s = np.where(np.isposinf(rhs), -math.inf, s)
    s = np.where(np.isposinf(lhs) & ~np.isposinf(rhs), math.inf, s)
    return s


@dataclass(frozen=True)
class RelationEntry:
    lam: float
    kappa: float
    C: float
    h: float | None = None


@dataclass(frozen=True)
class RelationWitness:
    kind: str
    entries: tuple[RelationEntry, ...]


@dataclass(frozen=True)
class SlackRecord:
    """Location and size of the worst (or first) violation found."""

    lam: float
    kappa: float
    alpha: MultiIndex
    beta: MultiIndex | None = None
    axis: int | None = None
    C: float | None = None
    h: float | None = None
    slack: float = 0.0


@dataclass(frozen=True, eq=False)
class RelationReport:
    kind: str
    holds: bool
    max_slack: float
    worst: SlackRecord | None
    first_violation: SlackRecord | None
    covers_all_levels: bool
    checked: int


def _check_pair(M: WeightMatrix, N: WeightMatrix, kind: str) -> None:
    if M.box != N.box:
        raise DimensionMismatch("matrices must share one box")
    if kind not in RELATION_KINDS:
        raise WitnessError(f"unknown relation kind {kind!r}")


def _scaled_orders(box, log_c, log_h=None) -> np.ndarray:
    """The constants' part of N's side of a relation slack: |alpha| log C, or
    log C + |alpha| log h for triangle, along a last axis over the box."""
    orders = order_array(box)
    return orders * log_c if log_h is None else log_c + orders * log_h


def verify_relation(M: WeightMatrix, N: WeightMatrix, kind: str,
                    witness: RelationWitness) -> RelationReport:
    """Check every witness inequality over the full common box."""
    _check_pair(M, N, kind)
    if witness.kind != kind:
        raise WitnessError(f"witness is for a {witness.kind} relation, not {kind}")
    idx = index_array(M.box)
    acc = _PairChecker()
    for entry in witness.entries:
        if entry.C <= 0:
            raise WitnessError("witness constants must be positive")
        if kind == TRIANGLE and (entry.h is None or entry.h <= 0):
            raise WitnessError("triangle entries need h > 0")

        def rec(i, slack, _e=entry):
            return SlackRecord(_e.lam, _e.kappa, tuple(int(c) for c in idx[i]),
                               C=_e.C, h=_e.h, slack=slack)

        # M's level is lam and N's kappa, the other way round for beurling
        m_level, n_level = ((entry.kappa, entry.lam) if kind == BEURLING
                            else (entry.lam, entry.kappa))
        log_h = math.log(entry.h) if kind == TRIANGLE else None
        acc.feed(_slack(M.log_flat(m_level), _scaled_orders(M.box, math.log(entry.C), log_h)
                        + N.log_flat(n_level)), rec)
    covers = _covers(M.levels if kind in (ROUMIEU, TRIANGLE) else N.levels,
                     witness.entries)
    if kind == TRIANGLE:
        pairs = {(e.lam, e.kappa) for e in witness.entries}
        covers = covers and all((l, k) in pairs for l in M.levels for k in N.levels)
    return RelationReport(kind, acc.holds(), acc.max_slack,
                          acc.worst, acc.first, covers, acc.checked)


# The constant grids search_relation scans; logs taken per constant with math.log,
# as verify_relation takes them, so a found witness re-verifies bit for bit.
C_GRID = tuple(np.logspace(0.0, 6.0, 25).tolist())
H_GRID = tuple((2.0 ** -np.arange(10, -1, -1)).tolist())
_LOG_C = np.array([math.log(c) for c in C_GRID])[:, None]
_LOG_H = np.array([math.log(h) for h in H_GRID])[:, None, None]


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Each candidate's max_slack, as float64 columns of one entry per row; rows
    run over lam (outer), kappa, h, C, and h is None for roumieu and beurling."""

    lam: np.ndarray
    kappa: np.ndarray
    C: np.ndarray
    h: np.ndarray | None
    max_slack: np.ndarray

    def __len__(self) -> int:
        return len(self.max_slack)


@dataclass(frozen=True, eq=False)
class SearchOutcome:
    witness: RelationWitness | None
    table: CandidateTable


def search_relation(M: WeightMatrix, N: WeightMatrix, kind: str) -> SearchOutcome:
    """Scan C_GRID (and H_GRID for triangle) for the smallest-C witness, level by level.

    Each (lam, kappa) pair is one slack block over (h,) C and the box.  A
    roumieu or beurling level takes the smallest C at which some kappa passes,
    and the smallest such kappa; a triangle (lam, kappa, h) takes its smallest
    passing C.  Returns witness=None when some required level admits no
    candidate; the table records every candidate's max_slack either way, so
    near-misses are visible.
    """
    _check_pair(M, N, kind)
    lams, kappas = (N.levels, M.levels) if kind == BEURLING else (M.levels, N.levels)
    triangle = kind == TRIANGLE
    # N's side of the slack depends on N's level alone: build it once per level
    scaled = _scaled_orders(M.box, _LOG_C, _LOG_H if triangle else None)
    worst = np.array([[_slack(m, rhs).max(axis=-1) for m in M._logs]
                      for rhs in (scaled + n for n in N._logs)])
    if kind != BEURLING:  # axes (lam, kappa, (h,) C), lam of M
        worst = worst.swapaxes(0, 1)
    axes = [axis.reshape(-1) for axis in np.meshgrid(
        lams, kappas, *([H_GRID] if triangle else []), C_GRID, indexing="ij")]
    table = CandidateTable(*axes[:2], axes[-1], axes[2] if triangle else None,
                           worst.reshape(-1))
    ok = worst <= SLACK_TOL
    if triangle:  # each (lam, kappa, h) at its smallest passing C
        hit, first = ok.any(axis=-1), ok.argmax(axis=-1)
        found_all = bool(hit.all())
        entries = [RelationEntry(lams[l], kappas[k], C_GRID[first[l, k, i]], H_GRID[i])
                   for l, k, i in zip(*np.nonzero(hit))]
    else:  # each lam at its smallest C that some kappa passes, and the smallest such kappa
        hit = ok.any(axis=1)  # (lam, C)
        found_all = bool(hit.any(axis=-1).all())
        entries = [RelationEntry(lams[l], kappas[int(ok[l, :, c].argmax())], C_GRID[c])
                   for l, c in enumerate(hit.argmax(axis=-1)) if hit[l, c]]
    witness = RelationWitness(kind, tuple(entries)) if found_all else None
    return SearchOutcome(witness, table)


@dataclass(frozen=True)
class ConditionEntry:
    """Per-level witness constants; which fields are used depends on the
    condition (A for L37R/L21R/L21B/63B, B/C/H for L12R, H plus (C, B) pairs
    for L12B)."""

    lam: float
    kappa: float
    A: float | None = None
    B: float | None = None
    C: float | None = None
    H: float | None = None
    pairs: tuple[tuple[float, float], ...] | None = None


@dataclass(frozen=True)
class ConditionWitness:
    condition: str
    entries: tuple[ConditionEntry, ...]


@dataclass(frozen=True, eq=False)
class ConditionReport:
    condition: str
    holds: bool
    max_slack: float
    worst: SlackRecord | None
    first_violation: SlackRecord | None
    covers_all_levels: bool
    checked: int


def _halfpower_log(box) -> np.ndarray:
    """log(alpha^{alpha/2}) = sum_j (alpha_j/2) log alpha_j, flat (0 log 0 = 0)."""
    idx = index_array(box).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(idx > 0, 0.5 * idx * np.log(np.maximum(idx, 1.0)), 0.0)
    return terms.sum(axis=1)


class _PairChecker:
    """Tracks worst slack and first violation over (alpha, beta) enumerations."""

    def __init__(self):
        self.max_slack = -math.inf
        self.worst: SlackRecord | None = None
        self.first: SlackRecord | None = None
        self.checked = 0

    def feed(self, slacks: np.ndarray, make_record) -> None:
        self.checked += slacks.size
        i = int(np.argmax(slacks))
        if slacks.flat[i] > self.max_slack:
            self.max_slack = float(slacks.flat[i])
            self.worst = make_record(i, self.max_slack)
        if self.first is None:
            bad = np.flatnonzero(slacks.reshape(-1) > SLACK_TOL)
            if bad.size:
                j = int(bad[0])
                self.first = make_record(j, float(slacks.flat[j]))

    def holds(self) -> bool:
        """Some inequality was checked and none fails beyond SLACK_TOL."""
        return self.checked > 0 and self.max_slack <= SLACK_TOL


def _check_pairwise(acc: _PairChecker, box, a_lhs_alpha: np.ndarray,
                    a_lhs_beta: np.ndarray, a_rhs: np.ndarray,
                    order_coef: float, const: float,
                    alpha_coef: float, record_base: dict) -> None:
    """Check lhs_alpha(a) + lhs_beta(b) <= const + alpha_coef|a| + order_coef|a+b| + rhs(a+b)
    for all a, b with a + b in the box."""
    shape = tuple(n + 1 for n in box)
    A_lhs = a_lhs_alpha.reshape(shape)
    B_lhs = a_lhs_beta.reshape(shape)
    R = a_rhs.reshape(shape)
    orders = order_array(box).reshape(shape)
    idx = index_array(box)
    for i, alpha in enumerate(idx):
        sub = tuple(slice(0, n - int(c) + 1) for n, c in zip(box, alpha))
        shifted = tuple(slice(int(c), n + 1) for n, c in zip(box, alpha))
        o_alpha = float(alpha.sum())
        lhs = A_lhs.flat[i] + B_lhs[sub]
        rhs = const + alpha_coef * o_alpha + order_coef * (o_alpha + orders[sub]) + R[shifted]
        s = _slack(lhs, rhs)

        def rec(flat_j, slack, _a=tuple(int(c) for c in alpha), _shape=s.shape):
            beta = tuple(int(c) for c in np.unravel_index(flat_j, _shape))
            return SlackRecord(record_base["lam"], record_base["kappa"],
                               _a, beta=beta, C=record_base.get("C"),
                               h=record_base.get("H"), slack=slack)

        acc.feed(s, rec)


def _check_shift(acc: _PairChecker, box, a_top: np.ndarray, a_bot: np.ndarray,
                 logA: float, record_base: dict) -> None:
    """Check top(a + e_j) <= A^{|a|+1} bot(a) for every axis j."""
    shape = tuple(n + 1 for n in box)
    T = a_top.reshape(shape)
    B = a_bot.reshape(shape)
    orders = order_array(box).reshape(shape)
    for j, n in enumerate(box):
        if n < 1:
            continue
        top, bot, o = (np.moveaxis(X, j, 0) for X in (T, B, orders))  # axis j first
        s = np.moveaxis(_slack(top[1:], logA * (o[:-1] + 1.0) + bot[:-1]), 0, j)

        def rec(flat_j, slack, _j=j, _shape=s.shape):
            alpha = tuple(int(c) for c in np.unravel_index(flat_j, _shape))
            return SlackRecord(record_base["lam"], record_base["kappa"], alpha,
                               axis=_j, slack=slack)

        acc.feed(s, rec)


def verify_condition(M: WeightMatrix, condition: str,
                     witness: ConditionWitness) -> ConditionReport:
    """Check a structural condition against its explicit witness on the box."""
    if condition not in CONDITIONS:
        raise WitnessError(f"unknown condition {condition!r}")
    if witness.condition != condition:
        raise WitnessError("witness is for a different condition")
    roumieu_side = condition.endswith("R")
    acc = _PairChecker()
    half = _halfpower_log(M.box)

    for e in witness.entries:
        M.level_index(e.lam), M.level_index(e.kappa)  # LevelNotFound early
        if roumieu_side and e.kappa < e.lam - 1e-12:
            raise WitnessError(f"{condition} needs kappa >= lam, got {e.kappa} < {e.lam}")
        if not roumieu_side and e.kappa > e.lam + 1e-12:
            raise WitnessError(f"{condition} needs kappa <= lam, got {e.kappa} > {e.lam}")
        if condition in ("L37R", "63B", "L21R", "L21B"):
            if e.A is None or e.A <= 0:
                raise WitnessError(f"{condition} entries need A > 0")
        elif condition == "L12R":
            if any(x is None or x <= 0 for x in (e.B, e.C, e.H)):
                raise WitnessError("L12R entries need B, C, H > 0")
        else:
            if e.H is None or e.H <= 0:
                raise WitnessError("L12B entries need H > 0")
            if e.pairs and any(C <= 0 or Bc <= 0 for C, Bc in e.pairs):
                raise WitnessError("L12B pairs must be positive")
        # the Beurling side swaps the roles of the two levels
        lo, hi = M.log_flat(e.lam), M.log_flat(e.kappa)
        if not roumieu_side:
            lo, hi = hi, lo
        base = {"lam": e.lam, "kappa": e.kappa}
        if condition in ("L37R", "63B"):
            _check_pairwise(acc, M.box, lo, lo, hi, math.log(e.A), 0.0, 0.0, base)
        elif condition in ("L21R", "L21B"):
            _check_shift(acc, M.box, lo, hi, math.log(e.A), base)
        else:  # L12R with its (C, B), L12B with each of its pairs
            if condition == "L12B" and not e.pairs:
                raise WitnessError("L12B entries need explicit (C, B) pairs")
            for C, Bc in e.pairs if condition == "L12B" else [(e.C, e.B)]:
                _check_pairwise(acc, M.box, half, lo, hi, math.log(e.H), math.log(Bc),
                                math.log(C), dict(base, C=C, H=e.H))

    return ConditionReport(condition, acc.holds(), acc.max_slack, acc.worst,
                           acc.first, _covers(M.levels, witness.entries), acc.checked)


def _log_counterexample(alpha1: int, alpha2: int) -> float:
    """log M for the two-variable sequence alpha^{alpha/2} e^{max(alpha_j^2)}."""
    out = float(max(alpha1, alpha2)) ** 2
    for c in (alpha1, alpha2):
        if c > 0:
            out += 0.5 * c * math.log(c)
    return out


def l37r_counterexample_matrix(box: tuple[int, int] = (12, 12)) -> WeightMatrix:
    """Single-level matrix of the sequence alpha^{alpha/2} e^{max(alpha_j^2)}.

    Log-convex in each variable and jointly, passes L21R with a constant, yet
    fails L37R along the axis pairs (see l37r_counterexample_curve).
    """
    if len(box) != 2:
        raise DimensionMismatch("the counterexample is two-dimensional")
    top = _log_counterexample(box[0], box[1])
    if top > 709.0:
        raise BoxTooSmall(f"box {box} overflows the EXP scale (log max {top:.1f})")
    g = SequenceGrid.from_function(
        box, lambda a: math.exp(_log_counterexample(a[0], a[1])), EXP)
    return WeightMatrix((1.0,), (g,))


def l37r_counterexample_curve(n_max: int) -> tuple[tuple[int, float], ...]:
    """Violation margins of L37R (with A = 1, kappa = lam) along the axis pair
    alpha = (n, 0), beta = (0, n):

        margin(n) = log M_alpha + log M_beta - log M_{alpha+beta} = n^2.

    The margin grows without bound, so no constant A can repair the condition:
    for any fixed A, margin exceeds |alpha+beta| log A = 2n log A once
    n > 2 log A.
    """
    if not (1 <= n_max <= 30):
        raise WitnessError("n_max must be between 1 and 30")
    out = []
    for n in range(1, n_max + 1):
        margin = 2.0 * _log_counterexample(n, 0) - _log_counterexample(n, n)
        out.append((n, float(margin)))
    return tuple(out)

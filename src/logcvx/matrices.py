"""Weight matrices (ordered ladders of sequences) and their comparison tools.

A weight matrix is a finite ladder M^{(lambda_1)} <= ... <= M^{(lambda_m)} of
normalized EXP-scale grids on a common box, standing in for a continuum of
levels.  Relations between two matrices and structural conditions on a single
matrix are universally quantified statements over all indices (and levels);
here they become finite-truncation checks:

* a verifier takes an explicit witness (levels and constants) and confirms
  every stored inequality on the full box within the log-scale slack SLACK_TOL,
* a search takes each relation key's exact minimal constant C* on the box
  and, from it, the smallest workable witness on fixed constant grids.

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

from .core import (EXP, SLACK_TOL, TIE_REL_TOL, Columns, MultiIndex, SequenceGrid, as_log_grid,
                   index_array, multi_indices, order_array, require_exp_range,
                   validate_grid)  # unused: perfbench/tracer.py wraps it here
from .errors import DimensionMismatch, LevelNotFound, NotNormalized, WitnessError

ROUMIEU = "roumieu"
BEURLING = "beurling"
TRIANGLE = "triangle"
RELATION_KINDS = (ROUMIEU, BEURLING, TRIANGLE)

CONDITIONS = ("L12R", "L21R", "L37R", "L12B", "L21B", "63B")


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
            logs.append(as_log_grid(g).flat)  # validates g
            if not g.is_normalized():
                raise NotNormalized(f"grid at level {levels[i]} is not normalized")
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
            if abs(x - lam) <= TIE_REL_TOL * max(1.0, abs(x)):
                return i
        raise LevelNotFound(f"level {lam!r} not in ladder {self.levels}")

    def log_flat(self, lam: float) -> np.ndarray:
        return self._logs[self.level_index(lam)]


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


def _reduce(box, blocks) -> dict:
    """Fold slack blocks, in order and one at a time, into the report fields.

    A block is (slacks, alpha rows, beta rows or None, axis or None, lam,
    kappa, C, h), its 1-D slacks one per row.  In block order and then row
    order, worst is the first strict maximum (None if every slack is -inf) and
    first_violation the first slack above SLACK_TOL; both are kept as row
    indices and become SlackRecords at the end."""
    checked, max_slack, worst, first = 0, -math.inf, None, None
    for s, alphas, betas, *where in blocks:
        checked += s.size
        k = int(np.argmax(s))
        if s[k] > max_slack:
            max_slack = float(s[k])
            worst = (alphas[k], None if betas is None else betas[k], *where, max_slack)
        if first is None:
            bad = np.flatnonzero(s > SLACK_TOL)
            if bad.size:
                k = int(bad[0])
                first = (alphas[k], None if betas is None else betas[k], *where, float(s[k]))
    return {"holds": checked > 0 and max_slack <= SLACK_TOL, "max_slack": max_slack,
            "worst": _record(box, worst), "first_violation": _record(box, first),
            "checked": checked}


def _record(box, at) -> SlackRecord | None:
    """The SlackRecord of (alpha row, beta row or None, axis, lam, kappa, C, h, slack)."""
    if at is None:
        return None
    a, b, axis, lam, kappa, C, h, slack = at
    alpha, *beta = multi_indices(box, [a] if b is None else [a, b])
    return SlackRecord(lam, kappa, alpha, beta[0] if beta else None, axis, C, h, slack)


def _check_pair(M: WeightMatrix, N: WeightMatrix, kind: str) -> None:
    if M.box != N.box:
        raise DimensionMismatch("matrices must share one box")
    if kind not in RELATION_KINDS:
        raise WitnessError(f"unknown relation kind {kind!r}")


def _relation_slack(m, n, tilt, log_c, triangle) -> np.ndarray:
    """The relation slack m - (|alpha| log C + n), or m - ((log C + |alpha| log h)
    + n) for triangle, elementwise under _slack's conventions; tilt is |alpha|,
    or |alpha| log h for triangle."""
    return _slack(m, (log_c + tilt if triangle else tilt * log_c) + n)


def verify_relation(M: WeightMatrix, N: WeightMatrix, kind: str,
                    witness: RelationWitness) -> RelationReport:
    """Check every witness inequality over the full common box: one slack block
    per entry, over the box in row-major order."""
    _check_pair(M, N, kind)
    if witness.kind != kind:
        raise WitnessError(f"witness is for a {witness.kind} relation, not {kind}")
    beurling, triangle = kind == BEURLING, kind == TRIANGLE
    at = []  # each entry's ladder positions: M's level, N's level
    for e in witness.entries:
        if not 0 < e.C < math.inf:
            raise WitnessError("witness constants must be positive and finite")
        if triangle and (e.h is None or not 0 < e.h < math.inf):
            raise WitnessError("triangle entries need a finite h > 0")
        # M's level is lam and N's kappa, the other way round for beurling
        at.append((M.level_index(e.kappa if beurling else e.lam),
                   N.level_index(e.lam if beurling else e.kappa)))
    if triangle:  # every (lam, kappa) pair
        covers = len(set(at)) == len(M.levels) * len(N.levels)
    else:  # every lam: a level of N for beurling, of M otherwise
        covers = len({p[beurling] for p in at}) == len((N if beurling else M).levels)
    orders, rows = order_array(M.box), range(len(M._logs[0]))
    blocks = ((_relation_slack(M._logs[m], N._logs[n], orders * math.log(e.h) if triangle
                               else orders, math.log(e.C), triangle),
               rows, None, None, e.lam, e.kappa, e.C, e.h)
              for e, (m, n) in zip(witness.entries, at))
    return RelationReport(kind, covers_all_levels=covers, **_reduce(M.box, blocks))


# The constant grids search_relation scans; logs taken per constant with math.log,
# as verify_relation takes them, so a found witness re-verifies bit for bit.
C_GRID = tuple(np.logspace(0.0, 6.0, 25).tolist())
H_GRID = tuple((2.0 ** -np.arange(10, -1, -1)).tolist())
_LOG_C = np.array([math.log(c) for c in C_GRID])
_LOG_H = np.array([math.log(h) for h in H_GRID])[:, None]


@dataclass(frozen=True, eq=False)
class SearchOutcome:
    """The smallest-C witness (None when some level has none), and a Columns
    of float64 columns lam, kappa, C, h, max_slack, C_min with one row per
    key, over lam (outer), kappa, h; h is None for roumieu and beurling.  C is
    the key's first passing C_GRID entry (else the last), found from C* with
    no tolerance added (see search_relation), max_slack the box's slack
    there, and C_min the exact minimal constant on the box: maybe below 1,
    +inf when none exists or exp overflows, 0 when no index constrains it."""

    witness: RelationWitness | None
    table: Columns


def search_relation(M: WeightMatrix, N: WeightMatrix, kind: str) -> SearchOutcome:
    """The smallest-C witness on C_GRID (and H_GRID for triangle), level by level.

    Each key, (lam, kappa, h) or (lam, kappa), takes log C* in one reduction
    over the box under _slack's conventions: max_a (m - n - |a| log h) for
    triangle, max_{|a|>0} (m - n)/|a| (+inf if a = 0 fails) otherwise, first
    taken at a_star.  Along C_GRID the slack falls by at least its log step,
    0.576, at every |a| > 0 (at a = 0 too for triangle), far more than rounding;
    so the first passing entry is first, the first with log C >= log C* -
    SLACK_TOL, or a neighbour.  The box is evaluated at first, as
    verify_relation does.  Each IEEE rounding step of a slack term is monotone
    and _slack's masks do not depend on C, so the box max never rises along
    C_GRID and the passing entries are an up-set: where first fails, first + 1
    is taken; where it passes, first - 1 fails if its slack at a_star does.
    Only the keys left are evaluated over the box at that neighbour, by the same
    elementwise expression, so every row is the whole-grid scan's, bit for bit;
    no tolerance is added.  A level of roumieu or beurling takes the smallest C
    at which some kappa passes and the smallest such kappa.  witness=None when
    some required level has none.
    """
    _check_pair(M, N, kind)
    beurling, triangle = kind == BEURLING, kind == TRIANGLE
    lams, kappas = (N.levels, M.levels) if beurling else (M.levels, N.levels)
    # M's and N's log levels on axes (lam, kappa, h, box); lam is N's for beurling
    m, n = np.array(M._logs)[:, None, None], np.array(N._logs)[:, None, None]
    m, n = (m.swapaxes(0, 1), n) if beurling else (m, n.swapaxes(0, 1))
    orders = order_array(M.box)
    tilt = orders * _LOG_H if triangle else orders  # (h, box): |a| log h, or |a|
    if triangle:  # m - n - |a| log h
        q = _slack(m, tilt + n)
    else:  # (m - n)/|a| at |a| > 0; +inf if a = 0 fails
        d = _slack(m, n)
        q = d / np.maximum(orders, 1.0)
        q[..., 0] = np.where(d[..., 0] > SLACK_TOL, math.inf, -math.inf)
    log_min, a_star = q.max(axis=-1), q.argmax(axis=-1)  # log C*, and where it is taken
    last = len(C_GRID) - 1
    r = np.searchsorted(_LOG_C, log_min - SLACK_TOL)
    m, n, tilt = (np.broadcast_to(a, log_min.shape + orders.shape) for a in (m, n, tilt))

    def slack(at, c):  # the slack at the keys (and box points) at, at C_GRID entries c
        return _relation_slack(m[at], n[at], tilt[at], _LOG_C[c], triangle)

    first = np.minimum(r, last)
    slacks = slack(..., first[..., None]).max(axis=-1)
    up = (slacks > SLACK_TOL) & (first < last)  # first fails, so does first - 1: take first + 1
    low = (slacks <= SLACK_TOL) & (0 < r) & (r <= last)  # first passes, and first - 1 may,
    low[low] = slack((low, a_star[low]), r[low] - 1) <= SLACK_TOL  # unless it fails at a_star
    for at, step in ((up, 1), (low, -1)):  # the few keys left, over the box at first + step
        if at.any():
            s = slack(at, first[at][:, None] + step).max(axis=-1)
            take = (s <= SLACK_TOL) | (step > 0)
            at[at] = take
            first[at] += step
            slacks[at] = s[take]
    hit = slacks <= SLACK_TOL
    with np.errstate(over="ignore"):
        c_min = np.exp(log_min).reshape(-1)
    keys = [k.reshape(-1) for k in np.meshgrid(lams, kappas, *([H_GRID] if triangle else []),
                                                indexing="ij")]
    table = Columns({"lam": keys[0], "kappa": keys[1], "C": np.array(C_GRID)[first].reshape(-1),
                     "h": keys[2] if triangle else None,
                     "max_slack": slacks.reshape(-1),
                     "C_min": c_min})
    if triangle:  # each (lam, kappa, h) at its smallest passing C
        found_all = bool(hit.all())
        entries = [RelationEntry(lams[l], kappas[k], C_GRID[first[l, k, i]], H_GRID[i])
                   for l, k, i in zip(*np.nonzero(hit))]
    else:  # each lam at its smallest C that some kappa passes, and the smallest such kappa
        c = np.where(hit, first, last + 1)[..., 0]  # (lam, kappa)
        found_all = bool((c.min(axis=1) <= last).all())
        entries = [RelationEntry(lams[l], kappas[k], C_GRID[c[l, k]])
                   for l, k in enumerate(c.argmin(axis=1)) if c[l, k] <= last]
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


def _condition_blocks(M: WeightMatrix, condition: str, entries, at):
    """The slack blocks of each entry in turn.  A pairwise condition gives one
    block per alpha, in row-major order (per (C, B) pair, then per alpha, for
    L12B), over every beta with alpha + beta in the box, beta in row-major order:
        lhs_alpha(a) + lhs_beta(b) <= const + alpha_coef|a| + order_coef|a+b| + rhs(a+b);
    a shift condition one block per axis j with N_j > 0, checking
        top(a + e_j) <= A^{|a|+1} bot(a) over the rows with a_j < N_j."""
    box, idx, o = M.box, index_array(M.box), order_array(M.box)
    flat = np.arange(len(idx)).reshape([n + 1 for n in box])
    half = _halfpower_log(box)
    for e, (l, k) in zip(entries, at):
        lo, hi = M._logs[l], M._logs[k]
        if condition.endswith("B"):  # the Beurling side swaps the roles of the two levels
            lo, hi = hi, lo
        if condition in ("L21R", "L21B"):
            for j, n in enumerate(box):
                if n:  # flat(a + e_j) is flat(a) plus the stride of axis j
                    rows = np.flatnonzero(idx[:, j] < n)
                    up = rows + math.prod(m + 1 for m in box[j + 1:])
                    yield (_slack(lo[up], math.log(e.A) * (o[rows] + 1.0) + hi[rows]),
                           rows, None, j, e.lam, e.kappa, None, None)
            continue
        if condition in ("L37R", "63B"):
            terms = [(lo, 0.0, 0.0, math.log(e.A), None, None)]
        else:  # L12R with its (C, B), L12B with each of its pairs
            terms = [(half, math.log(B), math.log(C), math.log(e.H), C, e.H)
                     for C, B in (e.pairs if condition == "L12B" else [(e.C, e.B)])]
        for lhs_alpha, const, alpha_coef, order_coef, C, H in terms:
            for a, alpha in enumerate(idx.tolist()):  # betas: the sub-box up to box - alpha
                j = flat[tuple(slice(n - c + 1) for n, c in zip(box, alpha))].ravel()
                rhs = ((const + alpha_coef * o[a]) + order_coef * (o[a] + o[j])) + hi[a + j]
                yield (_slack(lhs_alpha[a] + lo[j], rhs),  # flat(alpha + beta) = a + j
                       np.full(j.size, a), j, None, e.lam, e.kappa, C, H)


def verify_condition(M: WeightMatrix, condition: str,
                     witness: ConditionWitness) -> ConditionReport:
    """Check a structural condition against its explicit witness on the box."""
    if condition not in CONDITIONS:
        raise WitnessError(f"unknown condition {condition!r}")
    if witness.condition != condition:
        raise WitnessError("witness is for a different condition")
    roumieu_side = condition.endswith("R")
    at = []  # each entry's ladder positions: lam's, kappa's
    for e in witness.entries:
        l, k = M.level_index(e.lam), M.level_index(e.kappa)
        if roumieu_side and k < l:
            raise WitnessError(f"{condition} needs kappa >= lam, got {e.kappa} < {e.lam}")
        if not roumieu_side and k > l:
            raise WitnessError(f"{condition} needs kappa <= lam, got {e.kappa} > {e.lam}")
        if condition in ("L37R", "63B", "L21R", "L21B"):
            if e.A is None or not 0 < e.A < math.inf:
                raise WitnessError(f"{condition} entries need a finite A > 0")
        elif condition == "L12R":
            if any(x is None or not 0 < x < math.inf for x in (e.B, e.C, e.H)):
                raise WitnessError("L12R entries need finite B, C, H > 0")
        else:
            if e.H is None or not 0 < e.H < math.inf:
                raise WitnessError("L12B entries need a finite H > 0")
            if not e.pairs:
                raise WitnessError("L12B entries need explicit (C, B) pairs")
            if any(not 0 < x < math.inf for pair in e.pairs for x in pair):
                raise WitnessError("L12B pairs must be positive and finite")
        at.append((l, k))
    covers = len({l for l, _ in at}) == len(M.levels)
    blocks = _condition_blocks(M, condition, witness.entries, at)
    return ConditionReport(condition, covers_all_levels=covers, **_reduce(M.box, blocks))


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
    require_exp_range(_log_counterexample(box[0], box[1]), f"box {box}")
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

"""Lattice sequence containers and validation.

Sequences are indexed by multi-indices alpha in N_0^d and stored densely on a
truncation box 0 <= alpha_j <= N_j (row-major, IEEE doubles).  +inf marks
entries that impose no constraint downstream; NaN marks a missing entry, which
validation reports as an incomplete box.  Every grid carries a scale tag:
LOG-scale grids hold a_alpha, EXP-scale grids hold M_alpha = exp(a_alpha).

The data-model rules enforced by :func:`validate_grid`:

* the value at the origin is finite (so normalization is even meaningful),
* LOG scale admits no -inf and EXP scale no non-positive entries,
* +inf never sits at the origin,
* the box is complete (no NaN).

+inf entries on the outer truncation faces are legal but worth flagging, see
:func:`boundary_infinities`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, EmptyShell, GridValidationError, ScaleMismatch

LOG = "log"
EXP = "exp"

# Every tolerance of the package, each defined once and named for the rule it
# decides (README's tolerance table lists the users of each).
TIE_REL_TOL = 1e-12  # two floats v, w tie when |v - w| <= TIE_REL_TOL * max(1, |v|)
FEAS_TOL = 1e-9  # v meets data a (a point is tight) when |a - v| <= FEAS_TOL * max(1, |a|)
SLACK_TOL = 1e-9  # a log-scale inequality lhs <= rhs holds when lhs <= rhs + SLACK_TOL
Q3_REL_TOL = 0.02  # sampled q3 may fall short of a_alpha by Q3_REL_TOL * max(1, |a_alpha|)
RED_TOL = 1e-9  # a simplex column enters when its reduced cost < -RED_TOL * max(1, |a_beta|)
PIVOT_TOL = 1e-11  # the smallest direction entry the simplex ratio test accepts as a pivot
WEIGHT_TOL = 1e-9  # a simplex weight above this is positive (phase-1 residue, shell weight)

# The largest log value that still fits a double after exp().
EXP_LIMIT = 709.0


def require_exp_range(log_max: float, what: str) -> None:
    """Raise OverflowError when exp(log_max) does not fit a double: the one
    range check of every generator that writes EXP values."""
    if log_max > EXP_LIMIT:
        raise OverflowError(f"{what} overflows the EXP scale (log max {log_max:.1f})")


MultiIndex = tuple[int, ...]


@lru_cache(maxsize=256)
def index_array(box: tuple[int, ...]) -> np.ndarray:
    """All multi-indices of the box as an (n_points, d) int array, row-major.
    Every generator indexes its box through here, so a negative extent stops here."""
    if any(n < 0 for n in box):
        raise DimensionMismatch(f"bad box {box!r}")
    shape = tuple(n + 1 for n in box)
    idx = np.indices(shape).reshape(len(box), -1).T.astype(np.int64)
    idx = np.ascontiguousarray(idx)
    idx.setflags(write=False)
    return idx


def multi_indices(box: tuple[int, ...], rows) -> tuple[MultiIndex, ...]:
    """The multi-indices of the box at some of its row-major flat rows: a bool
    mask over the box, or an array or list of flat indices."""
    return tuple(map(tuple, index_array(box)[rows].tolist()))


@lru_cache(maxsize=256)
def order_array(box: tuple[int, ...]) -> np.ndarray:
    """|alpha| for every index of the box, flat row-major."""
    out = index_array(box).sum(axis=1).astype(float)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=256)
def outer_shell_mask(box: tuple[int, ...]) -> np.ndarray:
    """True where some alpha_j == N_j, i.e. on the truncation faces.

    This is the region where enlarging the box could add information; flags and
    caveats throughout the package refer to it.
    """
    mask = (index_array(box) == np.asarray(box, dtype=np.int64)).any(axis=1)
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True, eq=False)
class Columns:
    """A table of JSON objects held as columns, one entry per row.  Each key,
    in order, holds None (null in every row), a float array (n,) or (n, d) (a
    number or d numbers per row), an int array (n,) (one point per row, by its
    row in points), a bool array (n,) (true or false per row) or a bool array
    (n, len(points)) (the list of the points where true).  io.write_report
    writes the rows with their keys sorted, io.to_jsonable in this order."""

    columns: dict
    points: np.ndarray | None = None

    def __len__(self) -> int:
        """The row count: the length of the first column that is not None."""
        return len(next(col for col in self.columns.values() if col is not None))


@dataclass(frozen=True, eq=False)
class SequenceGrid:
    """Dense truncation of a multi-indexed sequence.

    ``values`` has shape ``(N_1+1, ..., N_d+1)``; the array is stored read-only
    so grids can be shared freely across threads.
    """

    box: tuple[int, ...]
    values: np.ndarray
    scale: str = LOG

    def __post_init__(self):
        box = tuple(int(n) for n in self.box)
        if len(box) < 1 or any(n < 0 for n in box):
            raise DimensionMismatch(f"bad box {self.box!r}")
        if self.scale not in (LOG, EXP):
            raise ScaleMismatch(f"scale must be {LOG!r} or {EXP!r}, got {self.scale!r}")
        shape = tuple(n + 1 for n in box)
        arr = np.array(self.values, dtype=float).reshape(shape)
        arr.setflags(write=False)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def n_points(self) -> int:
        return self.values.size

    @property
    def flat(self) -> np.ndarray:
        """Row-major flat view of the values."""
        return self.values.reshape(-1)

    def value(self, alpha) -> float:
        return float(self.values[tuple(alpha)])

    def is_normalized(self) -> bool:
        origin = self.value((0,) * self.dim)
        target = 0.0 if self.scale == LOG else 1.0
        return abs(origin - target) <= TIE_REL_TOL  # max(1, |target|) = 1

    @classmethod
    def from_function(cls, box, fn: Callable[[MultiIndex], float], scale: str = LOG) -> "SequenceGrid":
        box = tuple(int(n) for n in box)
        vals = [fn(tuple(alpha)) for alpha in index_array(box).tolist()]
        return cls(box, np.array(vals, dtype=float), scale)


@dataclass(frozen=True)
class Violation:
    index: MultiIndex | None
    rule: str
    message: str


def validate_grid(g: SequenceGrid) -> list[Violation]:
    """Check the data-model rules; returns one violation per offending entry.

    A grid is immutable, so the violations are found once and kept on it; each
    call returns a fresh list of them."""
    if "_violations" not in g.__dict__:
        object.__setattr__(g, "_violations", tuple(_violations(g)))
    return list(g._violations)


def require_valid(g: SequenceGrid) -> None:
    """Raise GridValidationError with the violations of g, if it has any."""
    violations = validate_grid(g)
    if violations:
        raise GridValidationError(violations)


def _violations(g: SequenceGrid) -> list[Violation]:
    out: list[Violation] = []
    origin = (0,) * g.dim
    v0 = g.value(origin)
    if not math.isfinite(v0):
        out.append(Violation(origin, "origin_finite",
                             f"value at {origin} must be finite, got {v0!r}"))
    flat = g.flat
    for alpha in multi_indices(g.box, np.isnan(flat)):
        out.append(Violation(alpha, "complete", f"box incomplete at {alpha}"))
    with np.errstate(invalid="ignore"):
        low = np.isneginf(flat) if g.scale == LOG else flat <= 0.0
    low[0] &= math.isfinite(v0)  # a non-finite origin is reported under origin_finite
    for i, alpha in zip(np.flatnonzero(low), multi_indices(g.box, low)):
        what = "-inf not allowed" if g.scale == LOG else f"non-positive entry {flat[i]!r}"
        out.append(Violation(alpha, "lower_bound", f"{what} at {alpha} ({g.scale} scale)"))
    return out


def boundary_infinities(g: SequenceGrid) -> list[MultiIndex]:
    """+inf entries sitting on the truncation faces.

    Legal, but the minorant there is +inf on the truncated problem while the
    untruncated sequence would pin it down, so callers may want to warn.
    """
    return list(multi_indices(g.box, outer_shell_mask(g.box) & np.isposinf(g.flat)))


@dataclass(frozen=True)
class GrowthDiagnostic:
    """Heuristic check that a_alpha/|alpha| grows toward the box boundary.

    ``passes`` is True iff the minimum of a_alpha/|alpha| on the outer shell
    strictly exceeds its maximum over all interior shells (+inf entries are
    excluded from the ratios).
    """

    passes: bool
    min_boundary_ratio: float


def growth_check(g: SequenceGrid) -> GrowthDiagnostic:
    """Superlinear-growth heuristic on a LOG-scale grid.

    Shells are the level sets of |alpha|; the box must have at least three of
    them (EmptyShell otherwise).  Linear data a_alpha = c|alpha| never passes.
    """
    if g.scale != LOG:
        raise ScaleMismatch("growth_check expects a LOG-scale grid")
    total = sum(g.box)
    if total + 1 < 3:
        raise EmptyShell(f"box {g.box} has only {total + 1} shells, need 3")
    flat = g.flat
    orders = order_array(g.box)
    finite = np.isfinite(flat) & (orders > 0)
    ratios = np.where(finite, flat / np.where(orders > 0, orders, 1.0), np.nan)

    outer = finite & (orders == total)
    interior = finite & (orders < total)
    min_boundary = float(ratios[outer].min()) if outer.any() else math.inf
    max_interior = float(ratios[interior].max()) if interior.any() else -math.inf
    return GrowthDiagnostic(passes=bool(min_boundary > max_interior),
                            min_boundary_ratio=min_boundary)


def to_log(g: SequenceGrid) -> SequenceGrid:
    """Entrywise log of an EXP grid, which must pass require_valid; +inf maps to +inf."""
    if g.scale != EXP:
        raise ScaleMismatch("to_log expects an EXP-scale grid")
    require_valid(g)
    return SequenceGrid(g.box, np.log(g.values), LOG)


def to_exp(g: SequenceGrid) -> SequenceGrid:
    """Entrywise exp of a LOG grid; +inf maps to +inf (overflow also lands on +inf)."""
    if g.scale != LOG:
        raise ScaleMismatch("to_exp expects a LOG-scale grid")
    with np.errstate(over="ignore"):
        return SequenceGrid(g.box, np.exp(g.values), EXP)


def as_log_grid(g: SequenceGrid) -> SequenceGrid:
    """The grid itself if LOG-scale, otherwise its entrywise log."""
    return g if g.scale == LOG else to_log(g)

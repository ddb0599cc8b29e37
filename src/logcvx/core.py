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
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import (DimensionMismatch, EmptyShell, GridValidationError, NonPositiveEntry,
                     ScaleMismatch)

LOG = "log"
EXP = "exp"

# Two values v, w tie when |v - w| <= TIE_REL_TOL * max(1, |v|): slopes in
# the 1-D sweep, suprema of omega and q3 over indices and samples.
TIE_REL_TOL = 1e-12
# A weight-matrix level l matches a requested s when |l - s| <= LEVEL_REL_TOL * max(1, |l|).
LEVEL_REL_TOL = 1e-12

MultiIndex = tuple[int, ...]


def order(alpha) -> int:
    """|alpha| = alpha_1 + ... + alpha_d."""
    return int(sum(alpha))


def unit(dim: int, axis: int) -> MultiIndex:
    e = [0] * dim
    e[axis] = 1
    return tuple(e)


@lru_cache(maxsize=256)
def index_array(box: tuple[int, ...]) -> np.ndarray:
    """All multi-indices of the box as an (n_points, d) int array, row-major."""
    shape = tuple(n + 1 for n in box)
    idx = np.indices(shape).reshape(len(box), -1).T.astype(np.int64)
    idx = np.ascontiguousarray(idx)
    idx.setflags(write=False)
    return idx


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

    def indices(self) -> Iterator[MultiIndex]:
        return iter(map(tuple, index_array(self.box).tolist()))

    def is_normalized(self, tol: float = 1e-12) -> bool:
        origin = self.value((0,) * self.dim)
        target = 0.0 if self.scale == LOG else 1.0
        return abs(origin - target) <= tol

    def log_flat(self) -> np.ndarray:
        """a_alpha flat and row-major, whichever scale the grid is stored in."""
        if self.scale == LOG:
            return self.flat
        with np.errstate(divide="ignore"):
            return np.log(self.flat)

    @classmethod
    def from_mapping(cls, box, mapping: Mapping, scale: str = LOG) -> "SequenceGrid":
        """Build a grid from an index -> value map; missing entries become NaN."""
        box = tuple(int(n) for n in box)
        shape = tuple(n + 1 for n in box)
        arr = np.full(shape, np.nan)
        for alpha, v in mapping.items():
            arr[tuple(alpha)] = v
        return cls(box, arr, scale)

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
    idx = index_array(g.box)
    nan_rows = np.flatnonzero(np.isnan(flat))
    for i in nan_rows:
        alpha = tuple(idx[i].tolist())
        out.append(Violation(alpha, "complete", f"box incomplete at {alpha}"))
    if g.scale == LOG:
        bad = np.flatnonzero(np.isneginf(flat))
        for i in bad:
            alpha = tuple(idx[i].tolist())
            if alpha == origin:
                continue  # already reported under origin_finite
            out.append(Violation(alpha, "lower_bound",
                                 f"-inf not allowed at {alpha} (log scale)"))
    else:
        with np.errstate(invalid="ignore"):
            bad = np.flatnonzero(flat <= 0.0)
        for i in bad:
            alpha = tuple(idx[i].tolist())
            if alpha == origin and not math.isfinite(v0):
                continue  # already reported under origin_finite
            out.append(Violation(alpha, "lower_bound",
                                 f"non-positive entry {flat[i]!r} at {alpha} (exp scale)"))
    return out


def boundary_infinities(g: SequenceGrid) -> list[MultiIndex]:
    """+inf entries sitting on the truncation faces.

    Legal, but the minorant there is +inf on the truncated problem while the
    untruncated sequence would pin it down, so callers may want to warn.
    """
    mask = outer_shell_mask(g.box) & np.isposinf(g.flat)
    idx = index_array(g.box)
    return [tuple(r.tolist()) for r in idx[mask]]


@dataclass(frozen=True)
class GrowthDiagnostic:
    """Heuristic check that a_alpha/|alpha| grows toward the box boundary.

    ``ratios`` holds a_alpha/|alpha| on the outermost two order shells;
    ``passes`` is True iff the minimum ratio on the outer shell strictly
    exceeds the maximum ratio over all interior shells (+inf entries are
    excluded from the ratios).
    """

    ratios: dict[MultiIndex, float]
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
    ratios_all = np.where(finite, flat / np.where(orders > 0, orders, 1.0), np.nan)

    outer = finite & (orders == total)
    second = finite & (orders == total - 1)
    interior = finite & (orders < total)

    idx = index_array(g.box)
    ratios = {tuple(idx[i].tolist()): float(ratios_all[i])
              for i in np.flatnonzero(outer | second)}

    min_boundary = float(ratios_all[outer].min()) if outer.any() else math.inf
    max_interior = float(ratios_all[interior].max()) if interior.any() else -math.inf
    return GrowthDiagnostic(ratios=ratios, passes=bool(min_boundary > max_interior),
                            min_boundary_ratio=min_boundary)


def to_log(g: SequenceGrid) -> SequenceGrid:
    """Entrywise log of an EXP grid; +inf maps to +inf."""
    if g.scale != EXP:
        raise ScaleMismatch("to_log expects an EXP-scale grid")
    with np.errstate(invalid="ignore"):
        if np.any(g.flat <= 0.0):
            raise NonPositiveEntry("cannot take log of a non-positive entry")
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

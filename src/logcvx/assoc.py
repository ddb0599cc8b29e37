"""Associated weight function, trace function, and log-convex regularization.

For a normalized sequence M on a box (EXP scale; internally everything runs on
a = log M) the associated function is

    omega(t) = sup_alpha log( |t^alpha| / M_alpha ),

where the sup runs over indices with alpha_j = 0 wherever t_j = 0 (conventions
0^0 = 1, log 0 = -inf).  Normalization M_0 = 1 makes omega >= 0.  The trace
function A(k) = sup_alpha (<k, alpha> - a_alpha) satisfies A(k) = omega(e^k)
identically, which is a cheap cross-check used by the tests.

The log-convex regularization M^lc = exp(a^c) comes from the LP minorant, and
q3 = sup_{s>0} s^alpha / exp(omega(s)), which recovers M_alpha iff a is convex,
is exact: at s = e^k, k the slope of alpha's certificate plane, log q3 =
<alpha, k> - A(k) = a^c_alpha by duality.  Suprema stay in log scale.

omega, A and q3 share one kernel, ``AssociatedFunction._scan``, run in lanes
(``in_lanes``): one lane per core, each taking blocks of rows from a shared
queue.  Every row's arithmetic is the same whatever the lane and the block, so
the results are the same bits on any machine.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import (EXP, SLACK_TOL, TIE_REL_TOL, MultiIndex, SequenceGrid, to_exp,
                   as_log_grid, index_array, multi_indices, outer_shell_mask, require_valid,
                   validate_grid)  # unused: perfbench/tracer.py wraps it here
from .envelope import MinorantResult, axis_slope_range, minorant_lp
from .errors import DimensionMismatch, EmptySGrid, NotNormalized, OutOfRange

# Most samples one product grid may hold (m**d): the cap of ``check
# --s-points`` and of the count of ``assoc --t-grid``.  The default grids of
# ``SGridSpec`` (200**2 and 50**3, at most 45**4 beyond, and 600**2 in the
# benchmark) fit.
MAX_SAMPLES = 2**22

# Scores per block summed over the lanes of ``in_lanes``: 512 KiB per float
# array across the lanes, so the few arrays of each lane's block stay in a
# 2 MiB L2 cache, and the memory in flight does not grow with the core count.
_BLOCK_SAMPLES = 2**16


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def in_lanes(rows: int, per_row: int, lane) -> None:
    """Run ``lane(blocks, step)`` once in each of min(cores, ceil(rows *
    per_row / _BLOCK_SAMPLES), rows) lanes, at least one.  The lanes take
    blocks of ``step`` rows (about _BLOCK_SAMPLES // lanes entries) in
    ascending order from one shared queue, so a lane that starts late takes
    fewer; ``blocks`` yields (lo, hi) for each block its lane takes.  The
    caller runs the first lane; each other runs in a thread, in a copy of the
    caller's context (so ``np.errstate`` holds there), joined before this
    returns.  The first error in lane order is raised."""
    lanes = max(1, min(_cores(), -(-rows * per_row // _BLOCK_SAMPLES), rows))
    step = max(1, min(rows, _BLOCK_SAMPLES // lanes // per_row))
    starts = iter(range(0, rows, step))
    taking = threading.Lock()

    def blocks():
        while True:
            with taking:
                lo = next(starts, None)
            if lo is None:
                return
            yield lo, min(lo + step, rows)

    errors: list[BaseException | None] = [None] * lanes

    def run(i: int) -> None:
        try:
            lane(blocks(), step)
        except BaseException as e:  # re-raised in the caller below
            errors[i] = e

    helpers = [threading.Thread(target=contextvars.copy_context().run, args=(run, i))
               for i in range(1, lanes)]
    for t in helpers:
        t.start()
    run(0)
    for t in helpers:
        t.join()
    for e in errors:
        if e is not None:
            raise e


def check_samples(per_axis: float, dim: int) -> None:
    if per_axis < 1:
        raise EmptySGrid("need at least one sample per axis")
    if per_axis > MAX_SAMPLES or per_axis ** dim > MAX_SAMPLES:
        raise OutOfRange(f"{per_axis:g}**{dim} samples exceed MAX_SAMPLES = {MAX_SAMPLES}")


@dataclass(frozen=True)
class OmegaEval:
    """A single evaluation: the value, one attaining index, and whether every
    attaining index sits on the truncation faces (then the true sup may be
    larger than the truncated one)."""

    value: float
    argmax: MultiIndex
    sup_on_boundary: bool


class AssociatedFunction:
    """omega_M of a validated, normalized grid (EXP or LOG scale accepted)."""

    def __init__(self, g: SequenceGrid):
        require_valid(g)
        if not g.is_normalized():
            want = "M_0 = 1" if g.scale == EXP else "a_0 = 0"
            raise NotNormalized(f"grid must be normalized ({want})")
        self.box = g.box
        self.dim = g.dim
        self._a = as_log_grid(g).flat
        self._idx = index_array(g.box).astype(float)
        self._shell = outer_shell_mask(g.box)

    def _scan(self, W: np.ndarray, zero: np.ndarray | None = None):
        """The sup over the box of ((-a_alpha + alpha_1 w_1) + alpha_2 w_2) + ...
        at each row w of W, summed in that order, in blocks of rows taken by
        lanes (``in_lanes``).
        A true zero[r, j] leaves out of row r every index with alpha_j > 0.
        Per row: the value, the row-major flat index of its first maximiser, and
        the boundary flag (see OmegaEval)."""
        value, argmax, flag = np.empty(len(W)), np.empty(len(W), int), np.empty(len(W), bool)
        idx, a, inner_only = self._idx, self._a, ~self._shell

        def lane(blocks, step: int) -> None:
            S = np.empty((step, a.size))
            tmp = np.empty_like(S)
            for lo, hi in blocks:
                w, s, t = W[lo:hi], S[:hi - lo], tmp[:hi - lo]
                np.multiply(w[:, :1], idx[:, 0], out=s)
                s -= a
                for j in range(1, self.dim):
                    s += np.multiply(w[:, j:j + 1], idx[:, j], out=t)
                if zero is not None:
                    s[(zero[lo:hi, None, :] & (idx > 0)).any(axis=2)] = -math.inf
                v = s.max(axis=1, out=value[lo:hi])
                s.argmax(axis=1, out=argmax[lo:hi])
                inner = s.max(axis=1, where=inner_only, initial=-math.inf)
                np.less(inner, v - TIE_REL_TOL * np.maximum(1.0, np.abs(v)), out=flag[lo:hi])

        in_lanes(len(W), a.size, lane)
        return value, argmax, flag

    def rows(self, T, name: str = "t") -> np.ndarray:
        """T as a float (N, d) array of finite rows; DimensionMismatch or
        OutOfRange, naming ``name``, otherwise."""
        try:
            T = np.asarray(T, dtype=float)
        except ValueError:  # rows of unequal length
            T = np.empty(0)
        if T.ndim != 2 or T.shape[1] != self.dim:
            raise DimensionMismatch(f"{name} must have length {self.dim}")
        bad = ~np.isfinite(T).all(axis=1)
        if bad.any():
            raise OutOfRange(f"{name} must be finite, got {tuple(T[bad][0].tolist())}")
        return T

    def evaluate_many(self, T) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """omega at each row t of T, (N, d): its values, the row-major flat
        index into the box of an attaining index, and the boundary flags (see
        OmegaEval).  A zero t_j leaves out every index with alpha_j > 0."""
        T = self.rows(T, "t")
        zero = T == 0.0
        with np.errstate(divide="ignore"):
            W = np.where(zero, 0.0, np.log(np.abs(T)))
        return self._scan(W, zero if zero.any() else None)

    def evaluate(self, t) -> OmegaEval:
        value, argmax, flag = self.evaluate_many([t])
        return OmegaEval(float(value[0]), multi_indices(self.box, argmax)[0], bool(flag[0]))

    def __call__(self, t) -> float:
        return self.evaluate(t).value

    def trace(self, k) -> float:
        """A(k) = sup_alpha (<k, alpha> - a_alpha)."""
        return float(self._scan(self.rows([k], "k"))[0][0])


def omega(g: SequenceGrid, t) -> OmegaEval:
    return AssociatedFunction(g).evaluate(t)


@dataclass(frozen=True)
class SGridSpec:
    """Log-uniform sampling grid for s > 0, read only by perfbench/tracer.py:
    ``points`` samples per axis with log s in [lo, hi] on every axis.

    By default ``points`` is 200 for d <= 2 and 50 beyond, lowered to the
    largest count whose product grid fits ``MAX_SAMPLES`` (45 for
    d = 4, 21 for d = 5)."""

    lo: float
    hi: float
    points: int

    @classmethod
    def from_grid(cls, g: SequenceGrid, points: int | None = None) -> "SGridSpec":
        lo, hi = axis_slope_range(as_log_grid(g))
        if points is None:
            points = 200 if g.dim <= 2 else 50
            while points ** g.dim > MAX_SAMPLES:
                points -= 1
        return cls(lo, hi, points)


def _q3(af: AssociatedFunction, planes: np.ndarray) -> np.ndarray:
    """log q3 at every box index: <alpha, k> - A(k) at the slope k of the row
    of ``planes``, +inf at a NaN row (outside the hull: unbounded)."""
    has = np.isfinite(planes).all(axis=1)
    k = planes[has, :-1]
    q3 = np.full(len(planes), math.inf)
    q3[has] = (af._idx[has] * k).sum(axis=1) - af._scan(k)[0]
    return q3


def q3_supremum_log(g: SequenceGrid, alpha) -> float:
    """log of sup_s s^alpha / exp(omega(s)) at one index, a float, taken at
    the slope of its certificate plane (as ``check_log_convexity`` does)."""
    af = AssociatedFunction(g)
    alpha = tuple(int(c) for c in alpha)
    if len(alpha) != af.dim or any(c < 0 or c > n for c, n in zip(alpha, af.box)):
        raise DimensionMismatch(f"alpha {alpha} not in box {af.box}")
    vals = _q3(af, minorant_lp(as_log_grid(g)).planes)
    return float(vals[np.ravel_multi_index(alpha, tuple(n + 1 for n in af.box))])


def q3_supremum(g: SequenceGrid, alpha) -> float:
    try:
        return math.exp(q3_supremum_log(g, alpha))
    except OverflowError:
        return math.inf


@dataclass(frozen=True, eq=False)
class LogConvexMinorant:
    """exp of the LP minorant of log M, with the LP result attached.

    ``overflowed`` lists indices whose finite log value exceeds the double
    range once exponentiated (the EXP grid shows +inf there).
    """

    grid: SequenceGrid
    lp: MinorantResult
    overflowed: tuple[MultiIndex, ...]


def log_convex_minorant(g: SequenceGrid) -> LogConvexMinorant:
    """Largest log-convex sequence below a validated EXP-scale grid."""
    lg = as_log_grid(g)
    lp = minorant_lp(lg)
    out = to_exp(lp.minorant)
    blew = np.isposinf(out.flat) & np.isfinite(lp.minorant.flat)
    return LogConvexMinorant(out, lp, multi_indices(g.box, blew))


@dataclass(frozen=True, eq=False)
class LogConvexityReport:
    """Outcome of the three convexity checks.

    ``max_gap`` is max(a - a^c) over finite entries; ``interior_max_gap``
    restricts to indices whose certificate stays off the truncation faces and
    is what ``globally_convex`` is decided on; ``q3_holds`` compares q3 with
    the data there within SLACK_TOL.  ``q3_duality_gap``, max |a^c - q3| where
    a plane exists, is rounding when every certificate is optimal.
    ``boundary_caveat`` is decided by the LP certificates alone: it is set
    when some certificate touches the outer shell (``minorant.boundary.any()``),
    or when nothing is interior and the convexity verdicts are vacuous.
    """

    coordinatewise_ok: bool
    coordinatewise_violation: tuple[MultiIndex, int] | None
    globally_convex: bool
    max_gap: float
    interior_max_gap: float
    q3_holds: bool
    q3_max_shortfall: float
    q3_worst: MultiIndex | None
    q3_failures: tuple[MultiIndex, ...]
    q3_duality_gap: float
    boundary_caveat: bool
    minorant: MinorantResult


def _coordinatewise(a: np.ndarray, box) -> tuple[MultiIndex, int] | None:
    """First index/axis (row-major, then axis) violating the line condition
    2 a_alpha <= a_{alpha-e_j} + a_{alpha+e_j}."""
    shape = tuple(n + 1 for n in box)
    best: tuple[int, int] | None = None
    for j, n in enumerate(box):
        if n < 2:
            continue
        aj = np.moveaxis(a, j, 0)  # axis j first
        with np.errstate(invalid="ignore"):
            bad = 2.0 * aj[1:n] > aj[:n - 1] + aj[2:] + SLACK_TOL
        if not bad.any():
            continue
        full = np.zeros(shape, dtype=bool)
        np.moveaxis(full, j, 0)[1:n] = bad
        first = int(np.flatnonzero(full.reshape(-1))[0])
        if best is None or (first, j) < best:
            best = (first, j)
    if best is None:
        return None
    return multi_indices(box, [best[0]])[0], best[1]


def check_log_convexity(g: SequenceGrid) -> LogConvexityReport:
    """Coordinatewise, global (LP-exact), and supremum convexity checks.

    The grid must be normalized; EXP input is logged internally.  q3 is taken
    at the certificate slopes of the LP, so it agrees with the LP up to rounding.
    """
    af = AssociatedFunction(g)  # validation + normalization
    lg = as_log_grid(g)
    cw = _coordinatewise(lg.values, lg.box)

    result = minorant_lp(lg)
    flat_a = lg.flat
    ac = result.minorant.flat
    finite = np.isfinite(flat_a)
    gaps = np.subtract(flat_a, ac, out=np.full(flat_a.size, -math.inf), where=finite)
    max_gap = float(gaps[finite].max()) if finite.any() else 0.0

    interior = finite & ~result.boundary
    interior_max_gap = float(gaps[interior].max()) if interior.any() else 0.0
    globally_convex = bool(interior_max_gap <= SLACK_TOL)

    q3_log = _q3(af, result.planes)  # +inf only outside the hull, where a is +inf too
    has = np.isfinite(q3_log)
    shortfall = np.subtract(flat_a, q3_log, out=np.full(flat_a.size, -math.inf), where=finite)
    q3_bad = interior & (shortfall > SLACK_TOL)
    q3_holds = not bool(q3_bad.any())
    q3_failures = multi_indices(lg.box, q3_bad)
    if interior.any():
        worst_flat = int(np.argmax(np.where(interior, shortfall, -math.inf)))
        q3_max_shortfall = float(shortfall[worst_flat])
        q3_worst = multi_indices(lg.box, [worst_flat])[0]
    else:
        q3_max_shortfall = 0.0
        q3_worst = None

    return LogConvexityReport(
        coordinatewise_ok=cw is None,
        coordinatewise_violation=cw,
        globally_convex=globally_convex,
        max_gap=max_gap,
        interior_max_gap=interior_max_gap,
        q3_holds=q3_holds,
        q3_max_shortfall=q3_max_shortfall,
        q3_worst=q3_worst,
        q3_failures=q3_failures,
        q3_duality_gap=float(np.abs(ac[has] - q3_log[has]).max(initial=0.0)),
        boundary_caveat=bool(result.boundary.any()) or not interior.any(),
        minorant=result,
    )

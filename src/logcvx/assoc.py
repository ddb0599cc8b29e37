"""Associated weight function, trace function, and log-convex regularization.

For a normalized sequence M on a box (EXP scale; internally everything runs on
a = log M) the associated function is

    omega(t) = sup_alpha log( |t^alpha| / M_alpha ),

where the sup runs over indices with alpha_j = 0 wherever t_j = 0 (conventions
0^0 = 1, log 0 = -inf).  Normalization M_0 = 1 makes omega >= 0.  The trace
function A(k) = sup_alpha (<k, alpha> - a_alpha) satisfies A(k) = omega(e^k)
identically, which is a cheap cross-check used by the tests.

The log-convex regularization M^lc = exp(a^c) comes from the LP minorant, and
q3_supremum samples sup_{s>0} s^alpha / exp(omega(s)), which never exceeds
M_alpha and recovers it exactly iff a is convex (up to truncation caveats).
Suprema are computed in log scale and only exponentiated for presentation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import conjugate
from .core import (EXP, LOG, Q3_REL_TOL, SLACK_TOL, TIE_REL_TOL, MultiIndex, SequenceGrid,
                   as_log_grid, index_array, outer_shell_mask, require_valid, to_exp,
                   validate_grid)  # unused: perfbench/tracer.py wraps it here
from .envelope import MinorantResult, axis_slope_range, minorant_lp
from .errors import DimensionMismatch, EmptySGrid, NotNormalized, OutOfRange


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
        self._a = g.log_flat()
        self._idx = index_array(g.box).astype(float)
        self._shell = outer_shell_mask(g.box)

    def _sup(self, weights: np.ndarray, excluded: np.ndarray | None) -> OmegaEval:
        with np.errstate(invalid="ignore"):
            score = self._idx @ weights - self._a
        if excluded is not None:
            score = np.where(excluded, -math.inf, score)
        val = float(score.max())
        tol = TIE_REL_TOL * max(1.0, abs(val))
        ties = score >= val - tol
        argmax = tuple(int(c) for c in self._idx[int(np.argmax(score))])
        on_boundary = not bool((ties & ~self._shell).any())
        return OmegaEval(val, argmax, on_boundary)

    def evaluate(self, t) -> OmegaEval:
        t = np.asarray(t, dtype=float)
        if t.shape != (self.dim,):
            raise DimensionMismatch(f"t must have length {self.dim}")
        if not np.isfinite(t).all():
            raise OutOfRange(f"t must be finite, got {tuple(t.tolist())}")
        zero = t == 0.0
        with np.errstate(divide="ignore"):
            lt = np.where(zero, 0.0, np.log(np.abs(np.where(zero, 1.0, t))))
        excluded = None
        if zero.any():
            # only indices supported off the zero coordinates participate
            excluded = (self._idx[:, zero] > 0).any(axis=1)
        weights = np.where(zero, 0.0, lt)
        return self._sup(weights, excluded)

    def __call__(self, t) -> float:
        return self.evaluate(t).value

    def trace(self, k) -> float:
        """A(k) = sup_alpha (<k, alpha> - a_alpha)."""
        k = np.asarray(k, dtype=float)
        if k.shape != (self.dim,):
            raise DimensionMismatch(f"k must have length {self.dim}")
        if not np.isfinite(k).all():
            raise OutOfRange(f"k must be finite, got {tuple(k.tolist())}")
        return self._sup(k, None).value


def omega(g: SequenceGrid, t) -> OmegaEval:
    return AssociatedFunction(g).evaluate(t)


@dataclass(frozen=True)
class SGridSpec:
    """Log-uniform sampling grid for s > 0: ``points`` samples per axis with
    log s ranging over [lo, hi] (the same range on every axis).

    By default ``points`` is 200 for d <= 2 and 50 beyond, lowered to the
    largest count whose product grid fits ``conjugate.MAX_SAMPLES`` (45 for
    d = 4, 21 for d = 5)."""

    lo: float
    hi: float
    points: int

    @classmethod
    def from_grid(cls, g: SequenceGrid, points: int | None = None) -> "SGridSpec":
        lo, hi = axis_slope_range(as_log_grid(g))
        if points is None:
            points = 200 if g.dim <= 2 else 50
            while points ** g.dim > conjugate.MAX_SAMPLES:
                points -= 1
        return cls(lo, hi, points)

    def axis_samples(self) -> np.ndarray:
        if self.points < 1:
            raise EmptySGrid("need at least one sample per axis")
        conjugate.check_samples(self.points, 1)
        return np.linspace(self.lo, self.hi, self.points)


def _omega_at(af: AssociatedFunction, x: np.ndarray, samples) -> tuple[np.ndarray, np.ndarray]:
    """omega(e^s) at the rows of ``samples``, a (k, d) array of indices into
    x, and its boundary flags (see OmegaEval): off the outer shell (some
    alpha_j = N_j) lies the sub-box [0, N_j - 1]^d, and a box with a zero
    extent has none, so it is flagged everywhere."""
    a = af._a.reshape(tuple(n + 1 for n in af.box))
    om = conjugate.forward_at(x, a, samples)
    if 0 in af.box:
        return om, np.ones(om.shape, dtype=bool)
    oi = conjugate.forward_at(x, a[tuple(slice(0, n) for n in af.box)], samples)
    return om, oi < om - TIE_REL_TOL * np.maximum(1.0, np.abs(om))


def _q3_all(af: AssociatedFunction, spec: SGridSpec) -> tuple[np.ndarray, np.ndarray]:
    """log q3 supremum for every box index at once, plus boundary flags.

    The flag of an index is the omega boundary flag at its first maximising
    sample: if set, omega there is possibly underestimated by the truncation,
    so the sampled supremum is not certified from above by the box alone.
    Omega is evaluated again at those samples only.
    """
    x = spec.axis_samples()
    vals, arg = conjugate.biconjugate(x, af._a.reshape(tuple(n + 1 for n in af.box)))
    samples = np.stack(np.unravel_index(arg.reshape(-1), (x.size,) * af.dim), axis=1)
    return vals.reshape(-1), _omega_at(af, x, samples)[1]


def q3_supremum_log(g: SequenceGrid, alpha, s_grid: SGridSpec | None = None) -> tuple[float, bool]:
    """log of the sampled supremum sup_s s^alpha / exp(omega(s)) at one index."""
    af = AssociatedFunction(g)
    alpha = tuple(int(c) for c in alpha)
    if len(alpha) != af.dim or any(c < 0 or c > n for c, n in zip(alpha, af.box)):
        raise DimensionMismatch(f"alpha {alpha} not in box {af.box}")
    spec = s_grid if s_grid is not None else SGridSpec.from_grid(g)
    vals, flags = _q3_all(af, spec)
    flat = int(np.ravel_multi_index(alpha, tuple(n + 1 for n in af.box)))
    return float(vals[flat]), bool(flags[flat])


def q3_supremum(g: SequenceGrid, alpha, s_grid: SGridSpec | None = None) -> float:
    v, _ = q3_supremum_log(g, alpha, s_grid)
    try:
        return math.exp(v)
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
    idx = index_array(g.box)
    overflowed = tuple(tuple(r.tolist()) for r in idx[blew])
    return LogConvexMinorant(out, lp, overflowed)


@dataclass(frozen=True, eq=False)
class LogConvexityReport:
    """Outcome of the three convexity checks.

    ``max_gap`` is max(a - a^c) over finite entries; ``interior_max_gap``
    restricts to indices whose certificate stays off the truncation faces and
    is what ``globally_convex`` is decided on.  ``q3_holds`` compares the
    sampled supremum against the data on the same interior indices within
    Q3_REL_TOL * max(1, |a_alpha|).  When nothing is interior the convexity
    verdicts are vacuous and ``boundary_caveat`` is set.
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
    alpha = tuple(int(c) for c in np.unravel_index(best[0], shape))
    return alpha, best[1]


def check_log_convexity(g: SequenceGrid,
                        s_grid: SGridSpec | None = None) -> LogConvexityReport:
    """Coordinatewise, global (LP-exact), and sampled-supremum convexity checks.

    The grid must be normalized; EXP input is logged internally.  The three
    verdicts agree on log-convex data; the sampled one carries the relative
    slack Q3_REL_TOL because its supremum over continuous s is only sampled.
    """
    af = AssociatedFunction(g)  # validation + normalization
    lg = as_log_grid(g)
    a = lg.values

    cw = _coordinatewise(a, lg.box)
    spec = s_grid if s_grid is not None else SGridSpec.from_grid(g)
    conjugate.check_samples(spec.points, g.dim)  # fail fast, before the LP

    result = minorant_lp(lg)
    flat_a = lg.flat
    ac = result.minorant.flat
    finite = np.isfinite(flat_a)
    gaps = np.subtract(flat_a, ac, out=np.full(flat_a.size, -math.inf), where=finite)
    max_gap = float(gaps[finite].max()) if finite.any() else 0.0

    shape = tuple(n + 1 for n in lg.box)
    interior = finite & ~result.boundary
    interior_max_gap = float(gaps[interior].max()) if interior.any() else 0.0
    globally_convex = bool(interior_max_gap <= SLACK_TOL)

    q3_log, q3_flags = _q3_all(af, spec)
    shortfall = flat_a - q3_log
    slack = Q3_REL_TOL * np.maximum(1.0, np.abs(flat_a))
    q3_bad = interior & (shortfall > slack)
    q3_holds = not bool(q3_bad.any())
    q3_failures = tuple(tuple(int(c) for c in np.unravel_index(i, shape))
                        for i in np.flatnonzero(q3_bad))
    if interior.any():
        worst_flat = int(np.argmax(np.where(interior, shortfall, -math.inf)))
        q3_max_shortfall = float(shortfall[worst_flat])
        q3_worst = tuple(int(c) for c in np.unravel_index(worst_flat, shape))
    else:
        q3_max_shortfall = 0.0
        q3_worst = None

    caveat = bool(result.boundary.any()) or bool(q3_flags[interior].any()) \
        or not interior.any()
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
        boundary_caveat=caveat,
        minorant=result,
    )

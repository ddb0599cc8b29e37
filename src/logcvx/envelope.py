"""Convex minorant on a lattice box via supporting hyperplanes.

For a LOG-scale grid a the minorant at alpha is

    a^c_alpha = sup { <k, alpha> + c : <k, beta> + c <= a_beta for all beta }

i.e. the highest supporting hyperplane below the data, evaluated at alpha.
``minorant_lp`` solves the exact LP at every index, one batch (the reference
route, certified); the 1-D sweep is in :mod:`logcvx.envelope1d`.

A +inf data entry imposes no constraint.  Values are exact for the truncated
point set; they upper-bound the untruncated minorant, and indices where every
optimal certificate touches the truncation faces are flagged in
``MinorantResult.boundary``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lpsolve
from .core import (FEAS_TOL, LOG, SLACK_TOL, MultiIndex, SequenceGrid, index_array,
                   multi_indices, outer_shell_mask, require_valid,
                   validate_grid)  # unused: perfbench/tracer.py wraps it here
from .errors import DimensionMismatch, GridMismatch, OutOfRange, ScaleMismatch


def _require_log(g: SequenceGrid, who: str) -> None:
    if g.scale != LOG:
        raise ScaleMismatch(f"{who} expects a LOG-scale grid")


def axis_slope_range(g: SequenceGrid) -> tuple[float, float]:
    """Extreme axis-aligned difference quotients (a_{alpha+m e_j} - a_alpha)/m
    over finite pairs and all axes j.

    Every supporting slope of the convex minorant lies in this interval (a
    hull slope along an axis is a mean of data quotients along that axis), so
    it is the right default range for slope sampling; the origin-anchored
    quotients (a_alpha - a_0)/|alpha| are strictly narrower whenever the data
    accelerates.
    """
    _require_log(g, "axis_slope_range")
    A = np.asarray(g.values, dtype=float)
    lo, hi = math.inf, -math.inf
    for j, n in enumerate(g.box):
        Aj = np.moveaxis(A, j, 0)
        for m in range(1, n + 1):
            with np.errstate(invalid="ignore"):
                q = (Aj[m:] - Aj[:-m]) / m
            q = q[np.isfinite(q)]
            if q.size:
                lo = min(lo, float(q.min()))
                hi = max(hi, float(q.max()))
    if not math.isfinite(lo):
        return (0.0, 0.0)
    return (lo, hi)


@dataclass(frozen=True, eq=False)
class MinorantResult:
    """LP minorant with per-index certificates, as arrays over the box's
    indices in row-major order (the rows of :func:`core.index_array`).

    ``planes[i]`` is an optimal supporting plane (k_1, ..., k_d, h) at index
    i, a NaN row where +inf entries leave i outside the hull of the finite
    abscissae (the minorant is +inf there).  ``touching[i]`` marks the finite
    points tight at that plane within ``core.FEAS_TOL`` * max(1, |a_beta|).
    ``contact`` marks the indices where the
    minorant meets the data within FEAS_TOL.  ``boundary`` marks the
    indices where every optimal plane touches the truncation faces
    (equivalently, some optimal convex combination weighs a face point), i.e.
    whose value could move if the box grew; exactly their planes touch the
    faces, and every index outside the hull is marked.
    """

    minorant: SequenceGrid
    planes: np.ndarray    # (n, d+1) float
    touching: np.ndarray  # (n, n) bool
    contact: np.ndarray   # (n,) bool
    boundary: np.ndarray  # (n,) bool


def _pick_starts(rows, finite, nbr, lo, hi):
    """Start bases at ``rows`` from one finite point per axis, ``nbr``, and the
    finite points below and above on each axis, ``lo`` and ``hi`` (-1: none)."""
    starts = np.full((len(rows), nbr.shape[1] + 1), -1)
    has = nbr >= 0
    pick = finite & has.all(axis=1)
    starts[pick] = np.column_stack([rows, nbr])[pick]
    pair = ~finite[:, None] & (lo >= 0) & (hi >= 0)
    for j in np.flatnonzero(pair.any(axis=0)):
        rest = np.arange(nbr.shape[1]) != j
        pick = (starts[:, 0] < 0) & pair[:, j] & has[:, rest].all(axis=1)
        starts[pick] = np.column_stack([lo[:, j], hi[:, j], nbr[:, rest]])[pick]
    return starts


def _start_bases(finite: np.ndarray, box: MultiIndex) -> np.ndarray:
    """Flat indices of a feasible start basis at every index of the box,
    shape (n, d+1), with a row of -1 where phase 1 runs.

    From the neighbours alpha -/+ e_j, else from the nearest finite points
    on each axis line, below first: a finite alpha (weight 1) with one point
    per axis; a hole with alpha - p e_j, alpha + q e_j on the first axis
    that has both (weights q/(p+q), p/(p+q)) and one point per other axis.
    Phase 1 runs only where an axis line through alpha has no other finite
    point (a zero extent, say) or, at a hole, no axis has finite points on
    both sides (outside the hull, say).
    """
    idx = index_array(box)
    flat = np.arange(idx.shape[0])[:, None]
    step = np.array([math.prod(n + 1 for n in box[j + 1:]) for j in range(len(box))])
    lo = np.where((idx > 0) & finite[np.maximum(flat - step, 0)], flat - step, -1)
    hi = np.where((idx < box) & finite[np.minimum(flat + step, flat.size - 1)], flat + step, -1)
    nbr = np.where(lo >= 0, lo, hi)
    starts = _pick_starts(flat[:, 0], finite, nbr, lo, hi)
    left = np.flatnonzero(starts[:, 0] < 0)
    k = np.minimum(np.arange(max(box) + 1), np.array(box)[:, None])  # ends repeat
    size = max(1, lpsolve.BLOCK_ENTRIES // k.size)  # rows per block, as for LP targets
    for rows in (left[i:i + size] for i in range(0, left.size, size)):
        # every point of each axis line through the rows, by flat index
        line = rows[:, None, None] + (k - idx[rows, :, None]) * step[:, None]
        on = finite[line]
        lo = np.where(on & (line < rows[:, None, None]), line, -1).max(axis=2)
        hi = np.where(on & (line > rows[:, None, None]), line, flat.size).min(axis=2)
        hi[hi == flat.size] = -1
        near = np.where(nbr[rows] >= 0, nbr[rows], np.where(lo >= 0, lo, hi))
        starts[rows] = _pick_starts(rows, finite[rows], near, lo, hi)
    return starts


def minorant_lp(g: SequenceGrid) -> MinorantResult:
    """Exact convex minorant of a validated LOG-scale grid: the
    convex-combination LP at every index, solved in one batch
    (:func:`lpsolve.solve_batch`)."""
    _require_log(g, "minorant_lp")
    require_valid(g)
    a = g.flat
    P = index_array(g.box).astype(float)
    finite = np.isfinite(a)
    shell = outer_shell_mask(g.box)
    lp = lpsolve.solve_batch(g.box, a, P, shell, _start_bases(finite, g.box))
    with np.errstate(invalid="ignore"):
        meets = finite & (np.abs(a - lp.optimum) <= FEAS_TOL * np.maximum(1.0, np.abs(a)))
    return MinorantResult(SequenceGrid(g.box, lp.optimum, LOG), lp.point, lp.tight, meets,
                          lp.unbounded | (lp.tight & shell).any(axis=1))


def audit_minorant(g: SequenceGrid, result: MinorantResult) -> tuple[str, ...]:
    """Re-check a minorant result against the data alone; returns the failures,
    an empty tuple when it passes.

    Nothing from the solver is trusted.  With the tolerance FEAS_TOL
    relative to max(1, |a_beta|), for all planes at once:
    the value is +inf exactly where the plane row is not finite; each plane
    lies under every finite data point and meets the value at its own alpha,
    both relative also to the plane's terms |h| + sum_j |k_j| (alpha_j + beta_j)
    at that point (terms that overflow to +inf never flag their row);
    ``touching`` is exactly the set of finite points tight at the plane;
    ``contact`` is the finite indices whose value meets the data within
    FEAS_TOL; ``boundary`` is the indices without a plane or whose plane
    touches the outer shell.
    """
    _require_log(g, "audit_minorant")
    idx = index_array(g.box)
    n, m = idx.shape[0], g.dim + 1
    if (result.minorant.box != g.box or np.shape(result.planes) != (n, m)
            or np.shape(result.touching) != (n, n)
            or np.shape(result.contact) != (n,) or np.shape(result.boundary) != (n,)):
        return ("the result does not cover the box of the data",)
    a, values, P = g.flat, result.minorant.flat, idx.astype(float)
    finite = np.isfinite(a)
    has = np.isfinite(result.planes).all(axis=1)
    planes = np.where(has[:, None], result.planes, 0.0)
    K, h = planes[:, :-1], planes[:, -1]
    V = np.repeat(h[:, None], n, axis=1)
    for j in range(g.dim):
        V += K[:, j, None] * P[None, :, j]
    gap = a[None, :] - V
    size = np.maximum(1.0, np.abs(np.where(finite, a, 0.0)))
    tol = FEAS_TOL * size
    # the plane's value at beta is h + <k, beta> with h = y_0 - <k, alpha>, whose
    # rounding grows with |h| + sum_j |k_j| (alpha_j + beta_j), not with |a_beta|
    with np.errstate(over="ignore"):
        terms = (np.abs(h) + (np.abs(K) * P).sum(axis=1))[:, None] + np.abs(K) @ P.T
    above = gap < -FEAS_TOL * np.maximum(size, terms)
    with np.errstate(invalid="ignore"):
        meets = finite & (np.abs(a - values) <= FEAS_TOL * np.maximum(1.0, np.abs(a)))
        at_alpha = (np.abs(np.diagonal(V) - values)
                    <= FEAS_TOL * np.maximum(1.0, np.maximum(np.abs(values),
                                                             np.diagonal(terms))))
    checks = [
        (has != np.isposinf(values), "the value is +inf with a plane, or finite without"),
        (~has | ~above.any(axis=1), "the plane rises above the data"),
        (~has | at_alpha, "the plane misses the value"),
        ((result.touching == ((np.abs(gap) <= tol) & finite & has[:, None])).all(axis=1),
         "the touching set is not the tight set"),
        (result.contact == meets, "contact is not where the value meets the data"),
        (result.boundary == (~has | (result.touching & outer_shell_mask(g.box)).any(axis=1)),
         "boundary is not where a plane is missing or touches the outer shell"),
    ]
    return tuple(f"{what}, at {multi_indices(g.box, ~ok)[0]}"
                 for ok, what in checks if not ok.all())


def boundary_restriction(g: SequenceGrid, axis: int) -> SequenceGrid:
    """The face alpha_axis = 0 as a (d-1)-dimensional grid."""
    if g.dim < 2:
        raise DimensionMismatch("boundary_restriction needs dim >= 2")
    if not (0 <= axis < g.dim):
        raise OutOfRange(f"axis {axis} out of range for dim {g.dim}")
    box = tuple(n for j, n in enumerate(g.box) if j != axis)
    return SequenceGrid(box, np.take(g.values, 0, axis=axis), g.scale)


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Minorant of the small box vs. the same box inside an enlarged grid.

    The enlarged minorant can only be lower (more supporting-plane
    constraints); ``unstable`` lists small-box indices whose value moved by
    more than SLACK_TOL, i.e. values the truncation did not certify.
    """

    diff: np.ndarray
    unstable: tuple[MultiIndex, ...]
    max_diff: float


def stability_probe(g_small: SequenceGrid, g_large: SequenceGrid) -> StabilityReport:
    if g_small.dim != g_large.dim:
        raise GridMismatch("dimension mismatch between the two grids")
    if g_small.scale != g_large.scale:
        raise GridMismatch("scale mismatch between the two grids")
    if any(nl < ns for ns, nl in zip(g_small.box, g_large.box)):
        raise GridMismatch(f"{g_large.box} does not enclose {g_small.box}")
    window = tuple(slice(0, n + 1) for n in g_small.box)
    if not np.array_equal(g_large.values[window], g_small.values):
        raise GridMismatch("values disagree on the common box")
    vs = minorant_lp(g_small).minorant.values
    vl = minorant_lp(g_large).minorant.values[window]
    both_inf = np.isposinf(vs) & np.isposinf(vl)
    diff = np.where(both_inf, 0.0, np.abs(vs - vl))
    unstable = multi_indices(g_small.box, diff.reshape(-1) > SLACK_TOL)
    return StabilityReport(diff, unstable, float(np.nanmax(diff)))

"""Convex-combination simplex for envelope values, and a brute-force oracle.

``solve`` computes the lower convex envelope of data (beta, a_beta) at a
target alpha as the best convex combination of data points,

    minimize  sum lam_beta a_beta   s.t.  sum lam_beta [1; beta] = [1; alpha],  lam >= 0,

by a revised simplex with d+1 rows and an explicit basis inverse, so a pivot
costs O(d n).  Columns are stored as [1; beta - alpha]: the right-hand side
is e_0 and the basic weights are the first column of the inverse.  The dual
is the supporting-plane LP  max <k, alpha> + h  s.t.  <k, beta> + h <= a_beta,
and the final basis gives its solution (h, k) = c_B B^-1, the certificate.
The pivot rules are deterministic, so identical inputs give bit-identical
output.

``brute_force_envelope`` is an independent cross-check for lower convex
envelope values: it enumerates small point subsets and minimizes over convex
combinations hitting the target (any envelope value is attained by at most
d+1 points).  It shares no code with the simplex path on purpose.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericBreakdown, TargetOutsideHull

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"  # target outside the hull: the plane LP is unbounded

# Tolerances of the solver.  The scale of a point is max(1, |a_beta|).
FEAS_TOL = 1e-9    # a point is tight when |a_beta - plane(beta)| <= FEAS_TOL * scale
RED_TOL = 1e-9     # a column enters only when its reduced cost is below -RED_TOL * scale
PIVOT_TOL = 1e-11  # smallest direction entry the ratio test accepts as a pivot
TIE_TOL = 1e-12    # step lengths within TIE_TOL * max(1, step) of the shortest tie
WEIGHT_TOL = 1e-9  # a weight above this is positive (phase-1 residue, shell weight)
BLAND_AFTER = 50     # degenerate pivots in a row before Bland's rule takes over


@dataclass(frozen=True, eq=False)
class LPSolution:
    """Solver result.

    ``optimum`` is the envelope value sum lam_B a_B, +inf when UNBOUNDED.
    ``point`` is the certificate plane (k_1, ..., k_d, h), None when
    UNBOUNDED.  ``active_rows`` lists, in ascending order, every point tight
    within FEAS_TOL at that plane.
    """

    status: str
    optimum: float
    point: np.ndarray | None
    active_rows: tuple[int, ...]


def _ratio_test(x, u, basis, n) -> tuple[int, float]:
    """Leaving row and step: the shortest step x_i / u_i over u_i > PIVOT_TOL,
    ties broken by the smallest basic column (Bland).  An artificial column
    (index >= n) at weight zero leaves at step 0 whenever u_i != 0, so it never
    turns positive.  (-1, inf) if no row blocks."""
    steps = [0.0 if b >= n and xi <= WEIGHT_TOL and ui < -PIVOT_TOL
             else xi / ui if ui > PIVOT_TOL else math.inf
             for xi, ui, b in zip(x, u, basis)]
    step = min(steps)
    if step == math.inf:
        return -1, step
    cutoff = step + TIE_TOL * max(1.0, step)
    return min((b, i) for i, (s, b) in enumerate(zip(steps, basis)) if s <= cutoff)[1], step


def _simplex(D, cost, tol, basis, Binv, limit) -> None:
    """Pivots in place until no column prices out.

    Column j is row j of ``D`` with cost ``cost[j]``; it enters only when its
    reduced cost is below -``tol[j]`` (+inf costs and tolerances never do).
    The entering column has the most negative reduced cost relative to tol;
    after BLAND_AFTER degenerate pivots in a row, Bland's smallest-index rule
    takes over for good, so the loop cannot cycle.
    """
    n = D.shape[0] - D.shape[1]
    degenerate = 0
    for _ in range(limit):
        score = (cost - D @ (cost[basis] @ Binv)) / tol
        j = int(np.argmax(score < -1.0) if degenerate >= BLAND_AFTER else np.argmin(score))
        if not score[j] < -1.0:
            return
        u = Binv @ D[j]
        r, step = _ratio_test(Binv[:, 0].tolist(), u.tolist(), basis.tolist(), n)
        if r < 0:
            raise NumericBreakdown(f"no pivot row for column {j}")
        degenerate = degenerate + 1 if step <= 0.0 else 0
        Binv[r] /= u[r]
        u[r] = 0.0
        Binv -= u[:, None] * Binv[r]
        basis[r] = j
    raise NumericBreakdown(f"no convergence within {limit} pivots")


def solve(points, values, target, shell=None, start=None) -> LPSolution:
    """Envelope value and certificate plane at ``target``.

    ``points`` is an (n, d) array of abscissae, ``values`` their data (+inf
    means no constraint), ``target`` a length-d point.  ``start`` optionally
    names d+1 columns forming a feasible basis; without one, or if it is not
    feasible, phase 1 runs from d+1 artificial columns.  With a boolean
    ``shell`` mask, the returned plane touches a shell point only if every
    optimal plane does, that is, if some optimal convex combination puts
    weight on the shell.
    """
    P = np.asarray(points, dtype=float)
    a = np.asarray(values, dtype=float)
    alpha = np.asarray(target, dtype=float)
    if P.ndim != 2 or a.shape != (P.shape[0],) or alpha.shape != (P.shape[1],):
        raise ValueError("inconsistent LP shapes")
    if not (a > -math.inf).all():
        raise ValueError("values must not be NaN or -inf")
    n, m = P.shape[0], P.shape[1] + 1
    finite = np.isfinite(a)
    scale = np.maximum(1.0, np.abs(np.where(finite, a, 0.0)))
    tol_a = FEAS_TOL * scale
    limit = 1000 + 50 * (n + m)
    # columns [1; beta - alpha], then the artificial columns e_i
    D = np.zeros((n + m, m))
    D[:n, 0] = 1.0
    D[:n, 1:] = P - alpha
    D[n:] = np.eye(m)
    art = np.zeros(m)
    never = np.full(m, math.inf)

    warm = False
    if start is not None:
        basis = np.array(start, dtype=np.int64)
        try:
            Binv = np.linalg.inv(D[basis].T)
            warm = bool(finite[basis].all() and (Binv[:, 0] >= 0.0).all())
        except np.linalg.LinAlgError:
            pass
    if not warm:
        basis, Binv = n + np.arange(m), np.eye(m)
        _simplex(D, np.concatenate([np.where(finite, 0.0, math.inf), art + 1.0]),
                 np.full(n + m, FEAS_TOL), basis, Binv, limit)
        if Binv[basis >= n, 0].sum() > WEIGHT_TOL:
            return LPSolution(UNBOUNDED, math.inf, None, ())
    cost = np.concatenate([a, art])
    _simplex(D, cost, np.concatenate([RED_TOL * scale, never]), basis, Binv, limit)
    y = cost[basis] @ Binv
    plane, active = _certificate(P, a, tol_a, alpha, y)
    real = basis < n
    if (shell is not None and shell[active].any()
            and not (Binv[real, 0][shell[basis[real]]] > WEIGHT_TOL).any()):
        # the plane touches the shell but the weights do not: over the tight
        # points, min -(shell weight) from the optimal basis.  Below zero,
        # every optimal plane touches the shell; else its dual plane delta has
        # delta(alpha) = 0, delta <= 0 on the tight points and <= -1 on the
        # tight shell points, and y + eps delta is an optimal plane for small eps.
        tight = np.zeros(n, dtype=bool)
        tight[active] = True
        tight[basis[real]] = True
        lift = np.concatenate([np.where(tight, np.where(shell, -1.0, 0.0), math.inf), art])
        _simplex(D, lift, np.concatenate([np.full(n, FEAS_TOL), never]), basis, Binv, limit)
        if lift[basis] @ Binv[:, 0] >= -WEIGHT_TOL:
            tilt = lift[basis] @ Binv
            delta = D[:n] @ tilt
            gap = a - D[:n] @ y
            # half the largest step keeping every point under the data and every
            # other shell point off the tight band, at most 1; a step too short
            # to clear the tight shell points (delta <= -1) is dropped below
            rise = delta > 0.0
            room = np.where(shell, gap - tol_a, gap + tol_a)[rise] / delta[rise]
            eps = min(0.5 * room.min(initial=math.inf), 1.0)
            tilted = _certificate(P, a, tol_a, alpha, y + eps * tilt)
            if not shell[tilted[1]].any():
                plane, active = tilted
    return LPSolution(OPTIMAL, float(y[0]), plane, tuple(active.tolist()))


def _certificate(P, a, tol_a, alpha, y):
    """(k, h) from the target-relative plane y, and the points tight at it.
    The plane is evaluated as h + k_1 beta_1 + ... + k_d beta_d, in that order."""
    k = y[1:]
    h = float(y[0] - k @ alpha)
    plane = np.full(P.shape[0], h)
    for j, kj in enumerate(k.tolist()):
        plane += kj * P[:, j]
    return np.append(k, h), np.flatnonzero(np.abs(a - plane) <= tol_a)


def brute_force_envelope(points, target) -> float:
    """Lower convex envelope value at ``target`` by subset enumeration.

    ``points`` is a list of (multi-index, value) pairs; entries with value
    +inf impose no constraint and are ignored.  The value at a target inside
    the hull of the finite abscissae is the minimum of sum(lam_i * v_i) over
    convex combinations of at most d+1 points whose abscissae combine to the
    target; TargetOutsideHull if no combination exists.

    Meant for small instances (roughly <= 25 finite points) as an independent
    oracle for the LP route.
    """
    target = tuple(target)
    d = len(target)
    finite = [(tuple(int(c) for c in a), float(v)) for a, v in points
              if math.isfinite(float(v))]
    if not finite:
        raise TargetOutsideHull("no finite points given")
    P = np.array([a for a, _ in finite], dtype=float)
    vals = np.array([v for _, v in finite])
    n = len(finite)
    rhs = np.array([1.0, *map(float, target)])

    best = math.inf
    if n >= d + 1:
        combos = np.array(list(itertools.combinations(range(n), d + 1)))
        M = np.empty((combos.shape[0], d + 1, d + 1))
        M[:, 0, :] = 1.0
        M[:, 1:, :] = P[combos].transpose(0, 2, 1)
        dets = np.linalg.det(M)
        good = np.abs(dets) > 1e-8
        if good.any():
            B = np.broadcast_to(rhs[:, None], (int(good.sum()), d + 1, 1))
            lam = np.linalg.solve(M[good], np.ascontiguousarray(B))[:, :, 0]
            feasible = (lam >= -1e-12).all(axis=1)
            if feasible.any():
                cand = (lam[feasible] * vals[combos[good][feasible]]).sum(axis=1)
                best = float(cand.min())
    if math.isinf(best):
        # degenerate point sets: fall back to smaller subsets via least squares
        for size in range(1, min(n, d + 1) + 1):
            for combo in itertools.combinations(range(n), size):
                Q = np.vstack([np.ones(size), P[list(combo)].T])
                lam, *_ = np.linalg.lstsq(Q, rhs, rcond=None)
                if np.all(lam >= -1e-12) and np.allclose(Q @ lam, rhs, atol=1e-9):
                    best = min(best, float(lam @ vals[list(combo)]))
    if math.isinf(best):
        raise TargetOutsideHull(f"{target} outside the hull of the finite abscissae")
    return best

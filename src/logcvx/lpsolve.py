"""Convex-combination simplex for envelope values, and a brute-force oracle.

``solve_batch`` computes the lower convex envelope of data (beta, a_beta) at
each of T targets alpha as the best convex combination of data points,

    minimize  sum lam_beta a_beta   s.t.  sum lam_beta [1; beta] = [1; alpha],  lam >= 0,

by a revised simplex with d+1 rows and an explicit basis inverse per target,
so a pivot costs O(d n).  The targets pivot in lockstep: each step prices
every live target against every point, then pivots them all together, and a
target leaves the batch once nothing prices out.  Columns are stored as
[1; beta - alpha]: the right-hand side is e_0 and the basic weights are the
first column of the inverse.  The dual is the supporting-plane LP
max <k, alpha> + h  s.t.  <k, beta> + h <= a_beta, and the final basis gives
its solution (h, k) = c_B B^-1, the certificate.  In pricing and pivoting,
every sum over the d+1 rows and every plane h + k_1 beta_1 + ... + k_d beta_d
is taken in a fixed order with elementwise operations, never a matrix
product, so a target's arithmetic does not depend on the other targets of
its batch or on the number of BLAS threads; only the start inverses come from
LAPACK, one matrix at a time.  ``solve`` is the batch of one.  The pivot
rules are deterministic, so identical inputs give bit-identical output.

``brute_force_batch`` is an independent cross-check for lower convex
envelope values: it enumerates small point subsets and minimizes over convex
combinations hitting each target (any envelope value is attained by at most
d+1 points).  It shares no code with the simplex path on purpose.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericBreakdown

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"  # target outside the hull: the plane LP is unbounded

# Tolerances of the solver.  The scale of a point is max(1, |a_beta|).
FEAS_TOL = 1e-9    # a point is tight when |a_beta - plane(beta)| <= FEAS_TOL * scale
RED_TOL = 1e-9     # a column enters only when its reduced cost is below -RED_TOL * scale
PIVOT_TOL = 1e-11  # smallest direction entry the ratio test accepts as a pivot
TIE_TOL = 1e-12    # step lengths within TIE_TOL * max(1, step) of the shortest tie
WEIGHT_TOL = 1e-9  # a weight above this is positive (phase-1 residue, shell weight)
BLAND_AFTER = 50     # degenerate pivots in a row before Bland's rule takes over
# Largest (targets x columns) working array: solve_batch works through the
# targets in blocks of at most this many entries, as does the oracle.
BLOCK_ENTRIES = 1 << 22


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


@dataclass(frozen=True, eq=False)
class LPBatch:
    """Results of :func:`solve_batch`, one row per target.

    ``unbounded`` marks the targets outside the hull of the finite points;
    there ``optimum`` is +inf, ``point`` is NaN and ``tight`` is all False.
    Elsewhere ``optimum`` is the envelope value, ``point`` the certificate
    plane (k_1, ..., k_d, h) and ``tight`` marks every point tight within
    FEAS_TOL at that plane.
    """

    unbounded: np.ndarray  # (T,) bool
    optimum: np.ndarray    # (T,)
    point: np.ndarray      # (T, d+1)
    tight: np.ndarray      # (T, n) bool


def _vecmat(c, B):
    """Rows c_t B_t, summed in ascending row order."""
    if not c.shape[1]:
        return np.zeros((len(B),) + B.shape[2:])
    y = c[:, 0, None] * B[:, 0]
    for i in range(1, c.shape[1]):
        y += c[:, i, None] * B[:, i]
    return y


def _relative(P, alpha, y):
    """Values y_0 + y_1 (P_1 - alpha_1) + ... + y_d (P_d - alpha_d) of the
    target-relative planes y at every point, summed in that order."""
    vals = np.repeat(y[:, :1], P.shape[0], axis=1)
    for l in range(P.shape[1]):
        vals += y[:, l + 1, None] * (P[:, l] - alpha[:, l, None])
    return vals


def _certificates(P, alpha, y):
    """Certificate planes (k, h) of the target-relative planes y = (y_0, k),
    with h = y_0 - <k, alpha>, and their values h + k_1 P_1 + ... + k_d P_d
    at every point, summed in that order."""
    h = y[:, 0] - _vecmat(y[:, 1:], alpha[:, :, None])[:, 0]
    vals = np.repeat(h[:, None], P.shape[0], axis=1)
    for l in range(P.shape[1]):
        vals += y[:, l + 1, None] * P[:, l]
    return np.column_stack([y[:, 1:], h]), vals


def _basic(cost, basis):
    """Entries of ``cost`` (shared, or one row per target) at the basic columns."""
    return cost[basis] if cost.ndim == 1 else cost[np.arange(len(basis))[:, None], basis]


def _simplex(P, alpha, basis, Binv, cost, tol, phase_one, limit) -> None:
    """Pivots every target in lockstep, in place, until none prices out.

    Target t has the point columns [1; P_j - alpha_t], with costs ``cost``
    (shape (n,) shared, or (T, n)), and the artificial columns e_i.  A point
    enters only when its reduced cost is below -``tol``; +inf costs never do.
    In phase 1 an artificial costs 1 and may enter, with tolerance FEAS_TOL;
    otherwise it costs 0 and never enters.  A basic column never re-enters.
    Each target takes the column with the most negative reduced cost relative
    to tol; after BLAND_AFTER degenerate pivots in a row, Bland's
    smallest-index rule takes over for that target for good, so no target
    can cycle.
    """
    n, m = P.shape[0], basis.shape[1]
    if not len(basis):
        return
    art = np.full(cost.shape[:-1] + (m,), 1.0 if phase_one else 0.0)
    cost = np.concatenate([cost, art], axis=-1)
    live = np.arange(len(basis))
    B, bas, degenerate = Binv.copy(), basis.copy(), np.zeros(len(basis), dtype=np.int64)
    for _ in range(limit):
        y = _vecmat(_basic(cost, bas), B)
        score = (cost[..., :n] - _relative(P, alpha, y)) / tol
        if phase_one:
            score = np.concatenate([score, (1.0 - y) / FEAS_TOL], axis=1)
        # a basic column prices at zero only up to rounding
        rows, cols = np.nonzero(bas < score.shape[1])
        score[rows, bas[rows, cols]] = math.inf
        j = score.argmin(axis=1)
        if degenerate.max(initial=0) >= BLAND_AFTER:
            bland = degenerate >= BLAND_AFTER
            j[bland] = (score[bland] < -1.0).argmax(axis=1)
        enter = score[np.arange(len(live)), j] < -1.0
        if not enter.all():  # converged targets leave the batch
            basis[live[~enter]], Binv[live[~enter]] = bas[~enter], B[~enter]
            live, B, bas, degenerate, j, alpha = (
                v[enter] for v in (live, B, bas, degenerate, j, alpha))
            if cost.ndim == 2:
                cost = cost[enter]
        if not live.size:
            return
        # the entering column: [1; P_j - alpha] for a point, e_{j-n} for an artificial
        col = np.ones((len(live), m))
        col[:, 1:] = P[np.minimum(j, n - 1)] - alpha
        if phase_one:
            col = np.where((j >= n)[:, None], np.eye(m)[np.maximum(j - n, 0)], col)
        u = _vecmat(col, B.transpose(0, 2, 1))
        # ratio test: the shortest step x_i / u_i over u_i > PIVOT_TOL, ties
        # broken by the smallest basic column (Bland).  An artificial column
        # at weight zero leaves at step 0 whenever u_i < 0, so it never turns
        # positive.
        x = B[:, :, 0]
        steps = np.full(x.shape, math.inf)
        np.divide(x, u, out=steps, where=u > PIVOT_TOL)
        steps[(bas >= n) & (x <= WEIGHT_TOL) & (u < -PIVOT_TOL)] = 0.0
        step = steps.min(axis=1)
        if np.isinf(step).any():
            raise NumericBreakdown(f"no pivot row for column {j[np.isinf(step)][0]}")
        cutoff = step + TIE_TOL * np.maximum(1.0, step)
        r = np.where(steps <= cutoff[:, None], bas, n + m).argmin(axis=1)
        t = np.arange(len(live))
        degenerate = np.where(step <= 0.0, degenerate + 1, 0)
        B[t, r] /= u[t, r][:, None]
        u[t, r] = 0.0
        B -= u[:, :, None] * B[t, r][:, None, :]
        bas[t, r] = j
    raise NumericBreakdown(f"no convergence within {limit} pivots")


def _tilt(P, a, tol_a, shell, alpha, basis, Binv, y, tight, limit):
    """Certificates for targets whose optimal plane y touches the shell while
    their weights do not; ``basis`` is phase 2's optimal one and ``tight``
    marks the points tight at y.

    Over the tight points, min -(shell weight) from that basis.  Below zero,
    every optimal plane touches the shell; else its dual plane delta has
    delta(alpha) = 0, delta <= 0 on the tight points and <= -1 on the tight
    shell points, and y + eps delta is an optimal plane for small eps.
    Returns, per target, whether the tilted plane clears the shell, with its
    certificate and the points tight at it.
    """
    n = P.shape[0]
    band = tight.copy()
    rows, cols = np.nonzero(basis < n)
    band[rows, basis[rows, cols]] = True
    lift = np.where(band, np.where(shell, -1.0, 0.0), math.inf)
    _simplex(P, alpha, basis, Binv, lift, FEAS_TOL, False, limit)
    c = np.where(basis < n, _basic(lift, np.minimum(basis, n - 1)), 0.0)
    go = _vecmat(c, Binv[:, :, :1])[:, 0] >= -WEIGHT_TOL
    tilt = _vecmat(c, Binv)
    delta = _relative(P, alpha, tilt)
    gap = a - _relative(P, alpha, y)
    # half the largest step keeping every point under the data and every
    # other shell point off the tight band, at most 1; a step too short
    # to clear the tight shell points (delta <= -1) is dropped below
    room = np.full(delta.shape, math.inf)
    np.divide(np.where(shell, gap - tol_a, gap + tol_a), delta, out=room, where=delta > 0.0)
    eps = np.minimum(0.5 * room.min(axis=1), 1.0)
    point, vals = _certificates(P, alpha, y + eps[:, None] * tilt)
    tight = np.abs(a - vals) <= tol_a
    return go & ~(tight & shell).any(axis=1), point, tight


def _solve_block(P, a, alpha, shell, starts) -> LPBatch:
    T, (n, d) = len(alpha), P.shape
    m = d + 1
    finite = np.isfinite(a)
    scale = np.maximum(1.0, np.abs(np.where(finite, a, 0.0)))
    tol_a = FEAS_TOL * scale
    limit = 1000 + 50 * (n + m)
    basis = np.tile(n + np.arange(m), (T, 1))
    Binv = np.tile(np.eye(m), (T, 1, 1))

    given = np.flatnonzero((starts >= 0).all(axis=1))
    S = starts[given]
    M = np.ones((len(given), m, m))
    M[:, 1:] = (P[S] - alpha[given, None, :]).transpose(0, 2, 1)
    ok = np.linalg.det(M) != 0.0  # a zero pivot of the LU factors, where inv would raise
    inv = np.linalg.inv(np.where(ok[:, None, None], M, np.eye(m)))
    ok &= finite[S].all(axis=1) & (inv[:, :, 0] >= 0.0).all(axis=1)
    basis[given[ok]], Binv[given[ok]] = S[ok], inv[ok]

    # phase 1 where no start basis is feasible
    cold = np.ones(T, dtype=bool)
    cold[given[ok]] = False
    cold = np.flatnonzero(cold)
    b, Bi = basis[cold], Binv[cold]
    _simplex(P, alpha[cold], b, Bi, np.where(finite, 0.0, math.inf), FEAS_TOL, True, limit)
    residue = np.zeros(len(cold))
    for i in range(m):
        residue += np.where(b[:, i] >= n, Bi[:, i, 0], 0.0)
    unbounded = np.zeros(T, dtype=bool)
    unbounded[cold] = residue > WEIGHT_TOL
    basis[cold], Binv[cold] = b, Bi

    live = np.flatnonzero(~unbounded)
    b, Bi, al = basis[live], Binv[live], alpha[live]
    _simplex(P, al, b, Bi, a, RED_TOL * scale, False, limit)
    y = _vecmat(np.where(b < n, a[np.minimum(b, n - 1)], 0.0), Bi)
    point, vals = _certificates(P, al, y)
    tight = np.abs(a - vals) <= tol_a
    if shell is not None:
        real = b < n
        weighs = (real & shell[np.minimum(b, n - 1)] & (Bi[:, :, 0] > WEIGHT_TOL)).any(axis=1)
        t = np.flatnonzero((tight & shell).any(axis=1) & ~weighs)
        clear, tilted, tilted_tight = _tilt(P, a, tol_a, shell, al[t], b[t], Bi[t], y[t],
                                            tight[t], limit)
        point[t[clear]], tight[t[clear]] = tilted[clear], tilted_tight[clear]

    optimum = np.full(T, math.inf)
    optimum[live] = y[:, 0]
    planes = np.full((T, m), math.nan)
    planes[live] = point
    touching = np.zeros((T, n), dtype=bool)
    touching[live] = tight
    return LPBatch(unbounded, optimum, planes, touching)


def solve_batch(points, values, targets, shell=None, starts=None) -> LPBatch:
    """Envelope values and certificate planes at every row of ``targets``.

    ``points`` is an (n, d) array of abscissae, ``values`` their data (+inf
    means no constraint), ``targets`` a (T, d) array.  ``starts``, a
    (T, d+1) integer array, optionally names for each target d+1 points
    forming a feasible basis; a row with a negative entry names none.  Where
    there is none, or it is singular or infeasible, phase 1 runs from d+1
    artificial columns.  With a boolean ``shell`` mask, a returned plane
    touches a shell point only if every optimal plane does, that is, if some
    optimal convex combination puts weight on the shell.  The targets are
    solved in blocks of at most BLOCK_ENTRIES // (n + d + 1).
    """
    P = np.asarray(points, dtype=float)
    a = np.asarray(values, dtype=float)
    A = np.asarray(targets, dtype=float)
    if (P.ndim != 2 or a.shape != (P.shape[0],) or A.ndim != 2
            or A.shape[1] != P.shape[1]):
        raise ValueError("inconsistent LP shapes")
    if not (a > -math.inf).all():
        raise ValueError("values must not be NaN or -inf")
    n, m = P.shape[0], P.shape[1] + 1
    S = (np.full((len(A), m), -1, dtype=np.int64) if starts is None
         else np.asarray(starts, dtype=np.int64))
    if S.shape != (len(A), m) or (S >= n).any():
        raise ValueError("starts must name d+1 of the points for every target")
    if shell is not None:
        shell = np.asarray(shell, dtype=bool)
        if shell.shape != (n,):
            raise ValueError("inconsistent LP shapes")
    size = max(1, BLOCK_ENTRIES // (n + m))
    blocks = [_solve_block(P, a, A[s:s + size], shell, S[s:s + size])
              for s in range(0, max(len(A), 1), size)]
    if len(blocks) == 1:
        return blocks[0]
    return LPBatch(*(np.concatenate([getattr(b, f.name) for b in blocks])
                     for f in dataclasses.fields(LPBatch)))


def solve(points, values, target, shell=None, start=None) -> LPSolution:
    """Envelope value and certificate plane at ``target``, a length-d point:
    :func:`solve_batch` on a batch of one.

    ``start`` optionally names d+1 points forming a feasible basis.
    """
    alpha = np.asarray(target, dtype=float)
    starts = None if start is None else np.asarray(start, dtype=np.int64)[None]
    if alpha.ndim != 1 or (starts is not None and (starts < 0).any()):
        raise ValueError("inconsistent LP shapes")
    out = solve_batch(points, values, alpha[None], shell, starts)
    if out.unbounded[0]:
        return LPSolution(UNBOUNDED, math.inf, None, ())
    return LPSolution(OPTIMAL, float(out.optimum[0]), out.point[0],
                      tuple(np.flatnonzero(out.tight[0]).tolist()))


def _subsets(P: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every k-subset of the rows of P, and the (d+1) x k matrix [1; P_S^T] of each."""
    combos = np.array(list(itertools.combinations(range(len(P)), k)))
    Q = np.empty((len(combos), P.shape[1] + 1, k))
    Q[:, 0, :] = 1.0
    Q[:, 1:, :] = P[combos].transpose(0, 2, 1)
    return combos, Q


def brute_force_batch(points, values, targets) -> np.ndarray:
    """Lower convex envelope values at every row of ``targets`` by subset
    enumeration, +inf where a target lies outside the hull of the finite
    abscissae.

    ``points`` is an (n, d) array of abscissae and ``values`` their data;
    +inf entries impose no constraint and are ignored.  The value at a target
    inside the hull is the minimum of sum(lam_i * v_i) over convex
    combinations of at most d+1 points whose abscissae combine to the target.
    The (d+1)-point subsets and their determinants are computed once, and the
    barycentric coordinates of every target are solved together.  Targets no
    nondegenerate subset reaches fall back to subsets of 1..d+1 points and
    their minimum-norm least-squares coordinates, again all targets at once.

    Meant for small instances (roughly <= 25 finite points) as an independent
    oracle for the LP route.
    """
    P = np.asarray(points, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = np.isfinite(v)
    P, v = P[keep], v[keep]
    n, d = P.shape
    rhs = np.vstack([np.ones(len(targets)), np.asarray(targets, dtype=float).reshape(-1, d).T])
    best = np.full(rhs.shape[1], math.inf)
    if n >= d + 1:
        combos, M = _subsets(P, d + 1)
        good = np.abs(np.linalg.det(M)) > 1e-8
        M, combos = M[good], combos[good]
        size = max(1, BLOCK_ENTRIES // ((d + 1) * max(len(best), 1)))
        for s in range(0, len(combos), size):
            lam = np.linalg.solve(M[s:s + size], rhs)
            cand = np.where((lam >= -1e-12).all(axis=1),
                            (lam * v[combos[s:s + size], None]).sum(axis=1), math.inf)
            best = np.minimum(best, cand.min(axis=0))
    miss = np.flatnonzero(np.isinf(best))
    if miss.size:
        R = rhs[:, miss]
        for k in range(1, min(n, d + 1) + 1):
            combos, Q = _subsets(P, k)
            # the minimum-norm solution, singular values cut as lstsq's rcond=None does
            Qinv = np.linalg.pinv(Q, rcond=np.finfo(float).eps * (d + 1))
            size = max(1, BLOCK_ENTRIES // (k * miss.size))
            for s in range(0, len(combos), size):
                lam = Qinv[s:s + size] @ R
                ok = ((lam >= -1e-12).all(axis=1)
                      & np.isclose(Q[s:s + size] @ lam, R, atol=1e-9).all(axis=1))
                cand = np.where(ok, (lam * v[combos[s:s + size], None]).sum(axis=1), math.inf)
                best[miss] = np.minimum(best[miss], cand.min(axis=0))
    return best


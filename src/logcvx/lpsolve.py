"""Convex-combination simplex for envelope values, and a brute-force oracle.

``solve_batch`` computes the lower convex envelope of data (beta, a_beta) on
the lattice of a box, in row-major order, at each of T targets alpha as the
best convex combination of data points,

    minimize  sum lam_beta a_beta   s.t.  sum lam_beta [1; beta] = [1; alpha],  lam >= 0,

by a revised simplex with d+1 rows and an explicit basis inverse per target.
The targets pivot in lockstep: each step prices every live target against
every lattice point, then pivots them all together, and a target leaves the
batch once nothing prices out.  Columns are stored as [1; beta - alpha]: the
right-hand side is e_0 and the basic weights are the first column of the
inverse.  The dual is the supporting-plane LP
max <k, alpha> + h  s.t.  <k, beta> + h <= a_beta, and the final basis gives
its solution (h, k) = c_B B^-1, the certificate.  A plane is priced one axis
at a time, k_l (beta_l - alpha_l) on the N_l + 1 values of axis l and one
broadcast add per axis: about one pass over the n points, whatever d.  Every
sum over the d+1 rows and every plane h + k_1 beta_1 + ... + k_d beta_d is
taken in that fixed order with elementwise operations, never a matrix
product, so a target's arithmetic does not depend on the other targets of
its batch or on the BLAS kernel and threads; only the start inverses come
from LAPACK, one matrix at a time.  ``solve`` is the batch of one.  The
pivot rules are deterministic, so identical inputs give bit-identical output.

``brute_force_batch`` is an independent cross-check on integer abscissae: it
enumerates the subsets of at most d+1 points with their exact barycentric
weights, integer numerators over an integer determinant, free of tolerances
and of LAPACK.  It shares no code with the simplex path on purpose.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import FEAS_TOL, PIVOT_TOL, RED_TOL, TIE_REL_TOL, WEIGHT_TOL, index_array
from .errors import NumericBreakdown

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"  # target outside the hull: the plane LP is unbounded

BLAND_AFTER = 50  # degenerate pivots in a row before Bland's rule takes over
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


def _planes(box, first, slopes, offsets):
    """Values first + s_1 (x_1 - o_1) + ... + s_d (x_d - o_d) of T planes at
    every point x of the lattice of ``box``, row-major: a (T, n) array.

    Each axis term s_l (x_l - o_l) is formed on that axis's N_l + 1 values
    alone, and the sum grows one axis at a time by a broadcast add, so every
    entry gets the products and the left-to-right sums of the formula."""
    T, vals = len(first), first
    for l, N in enumerate(box):
        term = slopes[:, l, None] * (np.arange(N + 1.0) - offsets[:, l, None])
        vals = vals[..., None] + term.reshape((T,) + (1,) * l + (N + 1,))
    return vals.reshape(T, math.prod(vals.shape[1:]))


def _certificates(box, alpha, y):
    """Certificate planes (k, h) of the target-relative planes y = (y_0, k),
    with h = y_0 - <k, alpha>, and their values at every lattice point."""
    h = y[:, 0] - _vecmat(y[:, 1:], alpha[:, :, None])[:, 0]
    return np.column_stack([y[:, 1:], h]), _planes(box, h, y[:, 1:], np.zeros_like(alpha))


def _basic(cost, basis):
    """Entries of ``cost`` (shared, or one row per target) at the basic columns."""
    return cost[basis] if cost.ndim == 1 else cost[np.arange(len(basis))[:, None], basis]


def _simplex(box, alpha, basis, Binv, cost, tol, phase_one, limit) -> None:
    """Pivots every target in lockstep, in place, until none prices out.

    Target t has a column [1; P_j - alpha_t] per point P_j of the lattice of
    ``box``, with costs ``cost`` (shape (n,) shared, or (T, n)), and the
    artificial columns e_i.  A point enters only when its reduced cost is
    below -``tol``; +inf costs never do.  In phase 1 an artificial costs 1
    and may enter, with tolerance FEAS_TOL; otherwise it costs 0 and never
    enters.  A basic column never re-enters.  Each target takes the column
    with the most negative reduced cost relative to tol; after BLAND_AFTER
    degenerate pivots in a row, Bland's smallest-index rule takes over for
    that target for good, so no target can cycle.
    """
    P, n, m = index_array(box), cost.shape[-1], basis.shape[1]
    if not len(basis):
        return
    art = np.full(cost.shape[:-1] + (m,), 1.0 if phase_one else 0.0)
    cost = np.concatenate([cost, art], axis=-1)
    live = np.arange(len(basis))
    B, bas, degenerate = Binv.copy(), basis.copy(), np.zeros(len(basis), dtype=np.int64)
    for _ in range(limit):
        y = _vecmat(_basic(cost, bas), B)
        score = (cost[..., :n] - _planes(box, y[:, 0], y[:, 1:], alpha)) / tol
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
        cutoff = step + TIE_REL_TOL * np.maximum(1.0, step)
        r = np.where(steps <= cutoff[:, None], bas, n + m).argmin(axis=1)
        t = np.arange(len(live))
        degenerate = np.where(step <= 0.0, degenerate + 1, 0)
        B[t, r] /= u[t, r][:, None]
        u[t, r] = 0.0
        B -= u[:, :, None] * B[t, r][:, None, :]
        bas[t, r] = j
    raise NumericBreakdown(f"no convergence within {limit} pivots")


def _tilt(box, a, tol_a, shell, alpha, basis, Binv, y, tight, limit):
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
    n = len(a)
    band = tight.copy()
    rows, cols = np.nonzero(basis < n)
    band[rows, basis[rows, cols]] = True
    lift = np.where(band, np.where(shell, -1.0, 0.0), math.inf)
    _simplex(box, alpha, basis, Binv, lift, FEAS_TOL, False, limit)
    c = np.where(basis < n, _basic(lift, np.minimum(basis, n - 1)), 0.0)
    go = _vecmat(c, Binv[:, :, :1])[:, 0] >= -WEIGHT_TOL
    tilt = _vecmat(c, Binv)
    delta = _planes(box, tilt[:, 0], tilt[:, 1:], alpha)
    gap = a - _planes(box, y[:, 0], y[:, 1:], alpha)
    # half the largest step keeping every point under the data and every
    # other shell point off the tight band, at most 1; a step too short
    # to clear the tight shell points (delta <= -1) is dropped below
    room = np.full(delta.shape, math.inf)
    np.divide(np.where(shell, gap - tol_a, gap + tol_a), delta, out=room, where=delta > 0.0)
    eps = np.minimum(0.5 * room.min(axis=1), 1.0)
    point, vals = _certificates(box, alpha, y + eps[:, None] * tilt)
    tight = np.abs(a - vals) <= tol_a
    return go & ~(tight & shell).any(axis=1), point, tight


def _solve_block(box, a, alpha, shell, starts) -> LPBatch:
    T, n, m = len(alpha), len(a), len(box) + 1
    finite = np.isfinite(a)
    scale = np.maximum(1.0, np.abs(np.where(finite, a, 0.0)))
    tol_a = FEAS_TOL * scale
    limit = 1000 + 50 * (n + m)
    basis = np.tile(n + np.arange(m), (T, 1))
    Binv = np.tile(np.eye(m), (T, 1, 1))

    given = np.flatnonzero((starts >= 0).all(axis=1))
    S = starts[given]
    M = np.ones((len(given), m, m))
    M[:, 1:] = (index_array(box)[S] - alpha[given, None, :]).transpose(0, 2, 1)
    ok = np.linalg.det(M) != 0.0  # a zero pivot of the LU factors, where inv would raise
    inv = np.linalg.inv(np.where(ok[:, None, None], M, np.eye(m)))
    ok &= finite[S].all(axis=1) & (inv[:, :, 0] >= 0.0).all(axis=1)
    basis[given[ok]], Binv[given[ok]] = S[ok], inv[ok]

    # phase 1 where no start basis is feasible
    cold = np.ones(T, dtype=bool)
    cold[given[ok]] = False
    cold = np.flatnonzero(cold)
    b, Bi = basis[cold], Binv[cold]
    _simplex(box, alpha[cold], b, Bi, np.where(finite, 0.0, math.inf), FEAS_TOL, True, limit)
    residue = np.zeros(len(cold))
    for i in range(m):
        residue += np.where(b[:, i] >= n, Bi[:, i, 0], 0.0)
    unbounded = np.zeros(T, dtype=bool)
    unbounded[cold] = residue > WEIGHT_TOL
    basis[cold], Binv[cold] = b, Bi

    live = np.flatnonzero(~unbounded)
    b, Bi, al = basis[live], Binv[live], alpha[live]
    _simplex(box, al, b, Bi, a, RED_TOL * scale, False, limit)
    y = _vecmat(np.where(b < n, a[np.minimum(b, n - 1)], 0.0), Bi)
    point, vals = _certificates(box, al, y)
    tight = np.abs(a - vals) <= tol_a
    if shell is not None:
        real = b < n
        weighs = (real & shell[np.minimum(b, n - 1)] & (Bi[:, :, 0] > WEIGHT_TOL)).any(axis=1)
        t = np.flatnonzero((tight & shell).any(axis=1) & ~weighs)
        clear, tilted, tilted_tight = _tilt(box, a, tol_a, shell, al[t], b[t], Bi[t], y[t],
                                            tight[t], limit)
        point[t[clear]], tight[t[clear]] = tilted[clear], tilted_tight[clear]

    optimum = np.full(T, math.inf)
    optimum[live] = y[:, 0]
    planes = np.full((T, m), math.nan)
    planes[live] = point
    touching = np.zeros((T, n), dtype=bool)
    touching[live] = tight
    return LPBatch(unbounded, optimum, planes, touching)


def solve_batch(box, values, targets, shell=None, starts=None) -> LPBatch:
    """Envelope values and certificate planes at every row of ``targets``.

    The points are the lattice of ``box`` = (N_1, ..., N_d) in row-major
    order (the rows of :func:`core.index_array`), ``values`` their data (+inf
    means no constraint), ``targets`` a (T, d) array.  ``starts``, a (T, d+1)
    integer array, optionally names for each target d+1 points forming a
    feasible basis; a row with a negative entry names none.  Where there is
    none, or it is singular or infeasible, phase 1 runs from d+1 artificial
    columns.  With a boolean ``shell`` mask, a returned plane touches a shell
    point only if every optimal plane does, that is, if some optimal convex
    combination puts weight on the shell.  Each step prices the live targets
    one lattice axis at a time, with the sums of a loop over the points.  The
    targets are solved in blocks of at most BLOCK_ENTRIES // (n + d + 1).
    Raises ValueError on a negative or non-integer extent and on arrays of
    the wrong shape.
    """
    try:
        box = tuple(operator.index(N) for N in box)
    except TypeError:
        raise ValueError(f"the extents of the box must be integers: {box!r}") from None
    if any(N < 0 for N in box):
        raise ValueError(f"the extents of the box must not be negative: {box!r}")
    a = np.asarray(values, dtype=float)
    A = np.asarray(targets, dtype=float)
    n, m = math.prod(N + 1 for N in box), len(box) + 1
    if a.shape != (n,) or A.ndim != 2 or A.shape[1] != m - 1:
        raise ValueError("inconsistent LP shapes")
    if not (a > -math.inf).all():
        raise ValueError("values must not be NaN or -inf")
    S = (np.full((len(A), m), -1, dtype=np.int64) if starts is None
         else np.asarray(starts, dtype=np.int64))
    if S.shape != (len(A), m) or (S >= n).any():
        raise ValueError("starts must name d+1 of the points for every target")
    if shell is not None:
        shell = np.asarray(shell, dtype=bool)
        if shell.shape != (n,):
            raise ValueError("inconsistent LP shapes")
    size = max(1, BLOCK_ENTRIES // (n + m))
    blocks = [_solve_block(box, a, A[s:s + size], shell, S[s:s + size])
              for s in range(0, max(len(A), 1), size)]
    if len(blocks) == 1:
        return blocks[0]
    return LPBatch(*(np.concatenate([getattr(b, f.name) for b in blocks])
                     for f in dataclasses.fields(LPBatch)))


def solve(box, values, target, shell=None, start=None) -> LPSolution:
    """Envelope value and certificate plane at ``target``, a length-d point,
    over the lattice of ``box``: :func:`solve_batch` on a batch of one.

    ``start`` optionally names d+1 points forming a feasible basis.
    """
    alpha = np.asarray(target, dtype=float)
    starts = None if start is None else np.asarray(start, dtype=np.int64)[None]
    if alpha.ndim != 1 or (starts is not None and (starts < 0).any()):
        raise ValueError("inconsistent LP shapes")
    out = solve_batch(box, values, alpha[None], shell, starts)
    if out.unbounded[0]:
        return LPSolution(UNBOUNDED, math.inf, None, ())
    return LPSolution(OPTIMAL, float(out.optimum[0]), out.point[0],
                      tuple(np.flatnonzero(out.tight[0]).tolist()))


def _det(M: np.ndarray) -> np.ndarray:
    """Determinants of a stack of k x k int64 matrices, k >= 0, by Laplace expansion."""
    k = M.shape[-1]
    if k <= 1:
        return M[..., 0, 0] if k else np.ones(M.shape[:-2], np.int64)
    return sum((-1) ** j * M[..., 0, j] * _det(M[..., 1:, np.arange(k) != j]) for j in range(k))


def _adjugate(M: np.ndarray) -> np.ndarray:
    """Adjugates of a stack of square int64 matrices: entry (j, i) is the (i, j) cofactor."""
    k, adj = M.shape[-1], np.empty_like(M)
    for i, j in itertools.product(range(k), repeat=2):
        rest = M[..., np.arange(k) != i, :][..., np.arange(k) != j]
        adj[..., j, i] = (-1) ** (i + j) * _det(rest)
    return adj


def brute_force_batch(points, values, targets) -> np.ndarray:
    """Lower convex envelope values at every row of ``targets`` by subset
    enumeration, +inf where a target lies outside the hull of the finite
    abscissae; ``points`` holds n integer abscissae, +inf ``values`` are ignored.

    The value at alpha is the least sum(lam_i v_i) over affinely independent
    subsets S of at most d+1 points with lam >= 0, [1; P_S^T] lam = [1; alpha].
    lam = num / det exactly, in int64: det is the first nonzero |S|-row minor of
    [1; P_S^T], num its adjugate times those rows of [1; alpha].  Raises
    ValueError on non-integer abscissae or targets, or coordinates whose minors
    could pass int64.  An oracle for the LP route on roughly <= 25 finite points.
    """
    v = np.asarray(values, dtype=float)
    P, v = np.asarray(points, dtype=float)[np.isfinite(v)], v[np.isfinite(v)]
    n, d = P.shape
    Z = np.vstack([P, np.asarray(targets, dtype=float).reshape(-1, d)])
    if not (np.isfinite(Z).all() and (Z == np.round(Z)).all()):
        raise ValueError("the oracle takes integer abscissae and targets")
    # Hadamard: a j x j minor of [1; P_S^T], a column perhaps replaced by [1; alpha],
    # is at most (1 + r2)^(j/2), so no sum below passes (d+1) (1 + r2)^((d+2)/2)
    r2 = max((sum(int(c) ** 2 for c in row) for row in Z), default=0)
    if (d + 1) ** 2 * (1 + r2) ** (d + 2) >= 1 << 126:
        raise ValueError("the oracle's minors could overflow int64 at these coordinates")
    A, rhs = np.split(np.vstack([np.ones(len(Z)), Z.T]).astype(np.int64), [n], axis=1)
    best = np.full(rhs.shape[1], math.inf)
    # a row constant over the points is a multiple of row 0: no first nonzero minor holds it
    rows = [0, *np.flatnonzero((A != A[:, :1]).any(axis=1)).tolist()]
    size = max(1, BLOCK_ENTRIES // ((d + 1) * max(len(best), 1)))
    for k in range(1, min(n, len(rows)) + 1):
        every = np.array(list(itertools.combinations(range(n), k)))
        for combos in np.split(every, range(size, len(every), size)):
            Q = A[:, combos].transpose(1, 0, 2)  # [1; P_S^T] of every subset S
            for R in map(list, itertools.combinations(rows, k)):
                adj = _adjugate(Q[:, R])
                det = np.einsum("ci,ci->c", Q[:, R[0]], adj[:, :, 0])
                hit = det != 0  # times sign(det): then det > 0, and lam >= 0 is num >= 0
                adj, det = adj[hit] * np.sign(det[hit])[:, None, None], np.abs(det[hit])[:, None]
                num = np.einsum("cij,jt->cit", adj, rhs[R])
                ok = (num >= 0).all(axis=1)
                if k < d + 1:
                    ok &= (np.einsum("cri,cit->crt", Q[hit], num) == det[:, None] * rhs).all(1)
                total = sum(v[combos[hit, i], None] * num[:, i] for i in range(k))
                cand = np.where(ok, total / det, math.inf)
                best = np.minimum(best, cand.min(axis=0, initial=math.inf))
                combos, Q = combos[~hit], Q[~hit]
    return best

"""Checks of the CLI outputs made apart from the program.

Input files are parsed with ``json`` alone, convex minorants are recomputed
with scipy's HiGHS, and the line condition and relation slacks with numpy.
Nothing here calls into ``logcvx``.  Each check raises ``Mismatch`` on the
first disagreement.
"""
from __future__ import annotations

import json
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

VALUE_RTOL = 1e-8       # minorant values against HiGHS, relative to max(1, |value|)
PLANE_RTOL = 1e-8       # certificate feasibility and tightness, same scale
GAP_TOL = 1e-9          # the program's convexity tolerance
Q3_SLACK = 0.02         # the program's relative slack for the sampled supremum
SLACK_RTOL = 1e-12      # recomputed relation slacks
SLACK_TOL = 1e-9        # the program's tolerance for a passing relation candidate


class Mismatch(Exception):
    """An output disagrees with the independent computation."""


def _num(v) -> float:
    return {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}[v] if isinstance(v, str) else float(v)


def read_grid(path: str) -> tuple[tuple[int, ...], np.ndarray]:
    """(box, flat values) of a LOG-scale grid file."""
    with open(path, encoding="utf-8") as f:
        obj = json.load(f)
    return tuple(obj["box"]), np.array([_num(v) for v in obj["values"]])


def _indices(box) -> np.ndarray:
    return np.indices(tuple(n + 1 for n in box)).reshape(len(box), -1).T.astype(float)


def _shell(box) -> np.ndarray:
    return (_indices(box) == np.asarray(box, dtype=float)).any(axis=1)


def _scale(x) -> np.ndarray:
    return np.maximum(1.0, np.abs(x))


def _results(text: str) -> dict:
    return json.loads(text)["results"]


def _grid_values(obj: dict) -> np.ndarray:
    return np.array([_num(v) for v in obj["values"]])


def highs_minorant(box, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-index LPs max <k,alpha> + h s.t. <k,beta> + h <= a_beta over finite beta.

    The LPs are stacked as independent blocks of one HiGHS problem; the
    benchmark's holes never leave an index outside the hull of the finite
    points, so every block is bounded.  Returns the values and the dual
    weights, one row of convex-combination weights over the finite points per
    index.
    """
    P = _indices(box)
    fin = np.isfinite(a)
    A = np.hstack([P[fin], np.ones((int(fin.sum()), 1))])
    n, m = P.shape[0], A.shape[1]
    obj = np.hstack([P, np.ones((n, 1))])
    res = linprog(-obj.reshape(-1), A_ub=sparse.block_diag([sparse.csr_matrix(A)] * n),
                  b_ub=np.tile(a[fin], n), bounds=(None, None), method="highs")
    if res.status != 0:
        raise Mismatch(f"HiGHS: {res.message}")
    return (res.x.reshape(n, m) * obj).sum(axis=1), -res.ineqlin.marginals.reshape(n, -1)


def _same_values(got: np.ndarray, ref: np.ndarray, what: str) -> None:
    if not np.array_equal(np.isposinf(got), np.isposinf(ref)):
        raise Mismatch(f"{what}: +inf pattern differs from HiGHS")
    fin = np.isfinite(ref)
    err = np.abs(got[fin] - ref[fin]) / _scale(ref[fin])
    if err.size and err.max() > VALUE_RTOL:
        raise Mismatch(f"{what}: relative error {err.max():.3g} against HiGHS")


def minorant(files, text: str) -> None:
    box, a = read_grid(files[0])
    res = _results(text)
    P = _indices(box)
    shell = _shell(box)
    fin = np.isfinite(a)
    ref, _ = highs_minorant(box, a)
    values = _grid_values(res["minorant"])
    _same_values(values, ref, "minorant")

    flat = {tuple(map(int, p)): i for i, p in enumerate(P)}
    certs = {tuple(c["alpha"]): c for c in res["certificates"]}
    boundary = set()
    for i, alpha in enumerate(flat):
        cert = certs.get(alpha)
        if cert is None:
            if math.isfinite(values[i]):
                raise Mismatch(f"no certificate at {alpha} but a finite value")
            boundary.add(alpha)
            continue
        if not math.isfinite(values[i]):
            raise Mismatch(f"certificate at {alpha} but value +inf")
        plane = P @ np.array(cert["k"]) + cert["h"]
        if (plane[fin] > a[fin] + PLANE_RTOL * _scale(a[fin])).any():
            raise Mismatch(f"certificate plane at {alpha} rises above the data")
        if abs(plane[i] - values[i]) > PLANE_RTOL * max(1.0, abs(values[i])):
            raise Mismatch(f"certificate plane at {alpha} misses the value there")
        touch = [flat[tuple(b)] for b in cert["touching"]]
        if not touch or (np.abs(plane[touch] - a[touch]) > PLANE_RTOL * _scale(a[touch])).any():
            raise Mismatch(f"certificate at {alpha} lists a point that is not tight")
        if shell[touch].any():
            boundary.add(alpha)
    if boundary != {tuple(b) for b in res["boundary_affected"]}:
        raise Mismatch("boundary_affected differs from the certificates' shell contacts")
    for c in res["contacts"]:
        i = flat[tuple(c)]
        if abs(a[i] - values[i]) > PLANE_RTOL * max(1.0, abs(a[i])):
            raise Mismatch(f"contact {c} is not on the data")


def first_line_break(a: np.ndarray) -> tuple[tuple[int, ...], int] | None:
    """First (index, axis) in row-major order, then axis, where
    2 a_alpha > a_{alpha-e_j} + a_{alpha+e_j} + GAP_TOL."""
    hits = []
    for j in range(a.ndim):
        lo = [slice(None)] * a.ndim
        mid = [slice(None)] * a.ndim
        hi = [slice(None)] * a.ndim
        lo[j], mid[j], hi[j] = slice(0, -2), slice(1, -1), slice(2, None)
        with np.errstate(invalid="ignore"):
            bad = 2.0 * a[tuple(mid)] > a[tuple(lo)] + a[tuple(hi)] + GAP_TOL
        for pos in np.argwhere(bad):
            pos[j] += 1
            hits.append((int(np.ravel_multi_index(tuple(pos), a.shape)), j))
    if not hits:
        return None
    i, j = min(hits)
    return tuple(int(c) for c in np.unravel_index(i, a.shape)), j


def _ints(obj) -> list[int]:
    """The integers of a JSON value in reading order (object keys sorted), so the
    (alpha, axis) of a line violation compares whatever shape it is printed in."""
    if isinstance(obj, dict):
        return [x for k in sorted(obj) for x in _ints(obj[k])]
    if isinstance(obj, list):
        return [x for v in obj for x in _ints(v)]
    return [obj] if isinstance(obj, int) and not isinstance(obj, bool) else []


def _plane_can_touch_shell(P, a, i, value, shell) -> bool:
    """Whether some optimal plane at index i is tight at a point of the outer shell."""
    fin = np.isfinite(a)
    A = np.hstack([P[fin], np.ones((int(fin.sum()), 1))])
    at_i = -np.append(P[i], 1.0)
    tol = PLANE_RTOL * max(1.0, abs(value))
    for b in np.flatnonzero(shell & fin):
        r = linprog(-np.append(P[b], 1.0), A_ub=np.vstack([A, at_i]),
                    b_ub=np.append(a[fin], -(value - tol)), bounds=(None, None), method="highs")
        if r.status == 0 and -r.fun >= a[b] - PLANE_RTOL * max(1.0, abs(a[b])):
            return True
    return False


def check(files, text: str, family: str) -> None:
    box, a = read_grid(files[0])
    res = _results(text)
    P = _indices(box)
    shell = _shell(box)
    shape = tuple(n + 1 for n in box)
    ref, weights = highs_minorant(box, a)
    _same_values(_grid_values(res["minorant"]), ref, "check minorant")
    fin = np.isfinite(a)
    gap = np.where(fin, a - ref, -math.inf)
    if abs(res["max_gap"] - gap.max()) > VALUE_RTOL * max(1.0, np.abs(a[fin]).max()):
        raise Mismatch(f"max_gap {res['max_gap']} but HiGHS gap {gap.max()}")

    line = first_line_break(a.reshape(shape))
    if res["coordinatewise_ok"] != (line is None):
        raise Mismatch(f"coordinatewise_ok {res['coordinatewise_ok']}, line check finds {line}")
    if line is not None and _ints(res["coordinatewise_violation"]) != [*line[0], line[1]]:
        raise Mismatch(f"coordinatewise_violation {res['coordinatewise_violation']}, expected {line}")
    if family == "convex" and not (res["globally_convex"] and res["q3_holds"]
                                   and res["max_gap"] <= GAP_TOL):
        raise Mismatch("convex input not reported convex")
    if family == "notjoint" and (line is not None or res["globally_convex"]):
        raise Mismatch("line-convex, jointly non-convex input misreported")
    if family == "linebreak" and line is None:
        raise Mismatch("line-breaking input passes the line check")

    if res["q3_max_shortfall"] < -GAP_TOL:
        raise Mismatch(f"sampled supremum exceeds the data by {-res['q3_max_shortfall']}")
    # the sampled supremum is at most a^c, so every interior gap above the slack fails q3
    failures = {tuple(f) for f in res["q3_failures"]}
    fin_idx = np.flatnonzero(fin)
    for i in np.flatnonzero(gap > (Q3_SLACK + GAP_TOL) * _scale(a)):
        alpha = tuple(int(c) for c in P[i])
        if alpha in failures:
            continue
        # left out only if the program's certificate, one optimal plane, may touch
        # the outer shell: every optimal plane does when the dual weights use a
        # shell point, else ask an LP whether some optimal plane does
        if shell[fin_idx[weights[i] > GAP_TOL]].any():
            continue
        if not _plane_can_touch_shell(P, a, i, ref[i], shell):
            raise Mismatch(f"interior gap {gap[i]:.6g} at {alpha} missing from q3_failures")


def _read_matrix(path: str) -> tuple[list[float], list[np.ndarray], tuple[int, ...]]:
    with open(path, encoding="utf-8") as f:
        obj = json.load(f)
    grids = []
    for g in obj["grids"]:
        vals = np.array([_num(v) for v in g["values"]])
        with np.errstate(divide="ignore"):
            grids.append(np.log(vals) if g["scale"] == "exp" else vals)
    return [float(x) for x in obj["levels"]], grids, tuple(obj["grids"][0]["box"])


def _max_slack(lhs: np.ndarray, rhs: np.ndarray) -> float:
    with np.errstate(invalid="ignore"):
        s = lhs - rhs
    s = np.where(np.isposinf(rhs), -math.inf, s)
    s = np.where(np.isposinf(lhs) & ~np.isposinf(rhs), math.inf, s)
    return float(s.max())


def relation(files, text: str) -> None:
    """Triangle relation: M^(lam) <= C h^|alpha| N^(kappa)."""
    m_levels, m_logs, box = _read_matrix(files[0])
    n_levels, n_logs, _ = _read_matrix(files[1])
    res = _results(text)
    orders = _indices(box).sum(axis=1)
    smallest: dict[tuple[float, float, float], float] = {}
    for row in res["table"]:
        lam, kappa, C, h = row["lam"], row["kappa"], row["C"], row["h"]
        lhs = m_logs[m_levels.index(lam)]
        rhs = math.log(C) + orders * math.log(h) + n_logs[n_levels.index(kappa)]
        want = _max_slack(lhs, rhs)
        got = _num(row["max_slack"])
        if not (got == want or abs(got - want) <= SLACK_RTOL * max(1.0, abs(want))):
            raise Mismatch(f"max_slack {got} at {(lam, kappa, C, h)}, recomputed {want}")
        key = (lam, kappa, h)
        smallest.setdefault(key, math.inf)
        if want <= SLACK_TOL:
            smallest[key] = min(smallest[key], C)
    if {(k[0], k[1]) for k in smallest} != {(l, k) for l in m_levels for k in n_levels}:
        raise Mismatch("candidate table does not cover every level pair")
    found = all(math.isfinite(c) for c in smallest.values())
    if res["found"] != found:
        raise Mismatch(f"found {res['found']}, recomputed {found}")
    want_entries = sorted((l, k, h, c) for (l, k, h), c in smallest.items()) if found else None
    witness = res["witness"]
    got_entries = None if witness is None else sorted(
        (e["lambda"], e["kappa"], e["h"], e["C"]) for e in witness["entries"])
    if got_entries != want_entries:
        raise Mismatch("witness is not the smallest passing C per (lambda, kappa, h)")


def output(workload: str, files, text: str, family: str) -> None:
    """Check one op's output; raises Mismatch."""
    if workload == "minorant":
        minorant(files, text)
    elif workload == "check":
        check(files, text, family)
    else:
        relation(files, text)

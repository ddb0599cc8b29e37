"""Lower convex envelope of a one-dimensional sequence by slope sweep.

Starting at p = 0, each step picks the smallest difference quotient
(a_q - a_p)/(q - p) over q > p and jumps to the largest q attaining it
(ties within relative 1e-12 are deemed equal, so collinear runs collapse
into one maximal segment).  The chosen q's are the contacts; consecutive
contacts span the polygon segments and the minorant interpolates along them.

+inf entries are skipped as candidates.  If the trailing entries are all
+inf the sweep stops early and the minorant is +inf beyond the last contact
(on the truncated problem no finite point bounds those slopes).
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .core import LOG, TIE_REL_TOL, SequenceGrid, require_valid
from .errors import DimensionMismatch, OutOfRange, ScaleMismatch


@dataclass(frozen=True)
class PolygonSegment:
    """Segment between consecutive contacts; y = slope * p + intercept on it."""

    lo: int
    hi: int
    slope: float
    intercept: float


@dataclass(frozen=True, eq=False)
class NewtonPolygon:
    contacts: tuple[int, ...]
    segments: tuple[PolygonSegment, ...]
    minorant: tuple[float, ...]
    boundary_affected: tuple[int, ...]


def sweep(g: SequenceGrid) -> NewtonPolygon:
    """Compute the polygon of a 1-D LOG-scale grid.

    Slopes are nondecreasing by construction; minorant values at contacts
    equal the data exactly.  An invalid grid (NaN, -inf, or a non-finite
    origin) raises GridValidationError.
    """
    if g.dim != 1:
        raise DimensionMismatch("sweep expects a 1-D grid")
    if g.scale != LOG:
        raise ScaleMismatch("sweep expects a LOG-scale grid")
    require_valid(g)
    a = g.flat
    n_last = g.box[0]
    contacts = [0]
    segments: list[PolygonSegment] = []
    p = 0
    while p < n_last:
        qs = np.arange(p + 1, n_last + 1)
        finite = np.isfinite(a[qs])
        qs = qs[finite]
        if qs.size == 0:
            break  # only +inf remains to the right
        quot = (a[qs] - a[p]) / (qs - p)
        kmin = quot.min()
        tied = qs[quot <= kmin + TIE_REL_TOL * max(1.0, abs(kmin))]
        q = int(tied[-1])
        slope = (a[q] - a[p]) / (q - p)
        intercept = (q * a[p] - p * a[q]) / (q - p)
        segments.append(PolygonSegment(p, q, slope, intercept))
        contacts.append(q)
        p = q

    minorant = np.full(n_last + 1, math.inf)
    minorant[0] = a[0]
    for seg in segments:
        minorant[seg.lo] = a[seg.lo]
        minorant[seg.hi] = a[seg.hi]
        inner = np.arange(seg.lo + 1, seg.hi)
        minorant[inner] = seg.slope * inner + seg.intercept

    last = contacts[-1]
    if segments and last == n_last:
        # indices of the final segment touching the truncation end
        affected = tuple(range(segments[-1].lo + 1, n_last + 1))
    elif last < n_last:
        affected = tuple(range(last + 1, n_last + 1))
    else:  # single-point box
        affected = ()
    return NewtonPolygon(tuple(contacts), tuple(segments),
                         tuple(float(v) for v in minorant), affected)


def evaluate(poly: NewtonPolygon, x: float) -> float:
    """Piecewise-linear envelope value at a real abscissa.

    Defined on [0, last contact]; OutOfRange outside.
    """
    last = poly.contacts[-1]
    if not (0.0 <= x <= last):
        raise OutOfRange(f"x={x!r} outside [0, {last}]")
    if not poly.segments:
        return poly.minorant[0]
    i = bisect.bisect_right([s.lo for s in poly.segments], x) - 1
    i = max(i, 0)
    seg = poly.segments[i]
    return seg.slope * x + seg.intercept

"""Finite dimension diagnostics: covers, box counts, and exponent estimates.

Nothing here takes a limit.  Each function evaluates one finite quantity that
a dimension argument would push to infinity — minimal interval covers at a
scale, dyadic box counts at a level, ratios log(l_1...l_j)/(-log d_j) along a
weight sequence, finite-difference slopes of log-size against log-size — and
leaves the extrapolation to the caller (or the reader).

Conventions.  A closed interval of length L covers the L+1 lattice points it
touches.  A dyadic cell at level m has side 2**-m and is half-open, so integer
points at level m <= 0 fall into cell (x >> -m, y >> -m); for m > 0 distinct
integer points are in distinct sub-unit cells and the count is just |P|.
Levels are capped at |m| <= 40 to keep every index inside int64.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core_sets import (
    COORD_LIMIT,
    IntSet1D,
    ParameterError,
    PointSet2D,
    RangeError,
    _as_fraction,
    _int_param,
)

__all__ = [
    "covering_count_1d", "dyadic_box_count_2d", "snap_to_grid",
    "RatioPoint", "falconer_ratios",
    "SlopeStep", "exponent_finite_diff",
]

_LEVEL_CAP = 40


def _check_length(length: int) -> int:
    return _int_param(length, "interval length must be an integer >= 1", lo=1)


def _check_level(m: int) -> int:
    return _int_param(m, f"dyadic level must be an integer with |m| <= {_LEVEL_CAP}",
                      -_LEVEL_CAP, _LEVEL_CAP, RangeError)


def covering_count_1d(a: IntSet1D, length: int) -> int:
    """Minimal number of closed length-`length` intervals covering A.

    Left-to-right greedy — start each interval at the leftmost uncovered
    element — which is optimal in one dimension: any cover must contain an
    interval reaching that element, and sliding it right to start there only
    ever covers more.  An interval of length L covers L+1 lattice points.
    Each interval costs one binary search: O(count * log |A|) in all, each
    through the array's own `searchsorted`, which skips the dispatch that
    `np.searchsorted` adds to every jump.
    """
    length = _check_length(length)
    arr = a.as_array()
    if not arr.size:
        warnings.warn("covering an empty set needs 0 intervals", RuntimeWarning,
                      stacklevel=2)
        return 0
    find = arr.searchsorted
    count, i = 0, 0
    while i < arr.size:
        count += 1
        # no element exceeds COORD_LIMIT, so clamping keeps the search in int64
        i = int(find(min(int(arr[i]) + length, COORD_LIMIT), "right"))
    return count


def dyadic_box_count_2d(points: PointSet2D | Iterable[tuple[int, int]],
                        m: int) -> int:
    """Number of level-m dyadic cells (side 2**-m, half-open) meeting P."""
    m = _check_level(m)
    if not isinstance(points, PointSet2D):
        points = PointSet2D(points)
    if m > 0:
        return len(points)
    return len(PointSet2D(points.as_array() >> -m))


def snap_to_grid(points: PointSet2D, m: int) -> PointSet2D:
    """Snap doubled-coordinate points to the centers of their level-m cells.

    Input and output are in doubled coordinates.  A level-m cell
    [j*2**-m, (j+1)*2**-m) has doubled width 2**(t+1) with t = -m and doubled
    center j*2**(t+1) + 2**t, so snapping is a shift-and-offset and is exactly
    idempotent.  A lattice point x (doubled 2x) at m = 0 snaps to 2x + 1, the
    center of its own unit cell.  Levels m >= 1 would need quarter-integers
    and are refused.
    """
    m = _int_param(m, "dyadic level must be an integer")
    if m > 0:
        raise ParameterError("cells finer than the unit lattice (m >= 1) have "
                             "no doubled-integer centers")
    if -m > _LEVEL_CAP:
        raise RangeError(f"dyadic level must satisfy |m| <= {_LEVEL_CAP}, got {m}")
    t = -m
    width = 1 << (t + 1)
    half = 1 << t
    # |x| <= 2**62 and t <= 40 keep every value inside int64; the constructor
    # refuses the ones past 2**62
    return PointSet2D((points.as_array() >> (t + 1)) * width + half)


class RatioPoint(NamedTuple):
    """One row of a dimension-ratio table."""

    j: int
    value: float
    target: float


def falconer_ratios(s: object, j_max: int, which: str,
                    sequence: str = "t") -> list[RatioPoint]:
    """Finite upper/lower dimension ratios along the level-weight sequences.

    With beta_j = ((j-1)!)**(-8/s), two nested sequences of level sets are in
    play: the full digit boxes ('t': l_j = j**4 cells of diameter
    d_j = beta_j/j**4 * (j**4-1)) and the sparse digit sets ('a': cubic growth
    law l_j = j**3 — the bounded constant in |D_j| <= C*j**3 drops out of every
    ratio in the limit and is omitted — of diameter d_j = 3*beta_j).

    which='upper' evaluates log(l_1...l_j) / (-log d_j), the upper box-type
    estimate; which='lower' evaluates log(l_1...l_j) / (-log(l_{j+1} d'...)),
    the gap-driven lower estimate with the next level's cell size
    l_{j+1}*delta_{j+1} in the denominator.  Targets: s/2 for 't' (both
    directions; the lower ratio equals s/2 identically) and 3s/8 for 'a'.

    Rows run from j = 2 (j = 1 is degenerate: empty numerator) to j_max;
    rows whose denominator is not positive are skipped — for the 'a' upper
    ratio that drops j = 2, where d_2 = 3 > 1.  Everything is evaluated with
    accumulated log-factorials, so j_max up to 10**4 is exact-enough and fast.
    """
    if which not in ("upper", "lower"):
        raise ParameterError(f"which must be 'upper' or 'lower', got {which!r}")
    if sequence not in ("t", "a"):
        raise ParameterError(f"sequence must be 't' or 'a', got {sequence!r}")
    j_max = _int_param(j_max, "j_max must be an integer in 2..10000", 2, 10_000)
    s_frac = _as_fraction(s)
    if not 0 < s_frac <= 2:
        raise ParameterError(f"dimension parameter must lie in (0, 2], got {s_frac}")
    e = float(8 / s_frac)

    # lf[j] = log(j!), one shot for the whole table.
    lf = np.zeros(j_max + 2)
    lf[1:] = np.cumsum(np.log(np.arange(1, j_max + 2, dtype=np.float64)))

    if sequence == "t":
        target = float(s_frac / 2)
    else:
        target = float(3 * s_frac / 8)

    out: list[RatioPoint] = []
    for j in range(2, j_max + 1):
        if sequence == "t":
            numer = 4.0 * lf[j]
            if which == "upper":
                denom = e * lf[j - 1] + 4.0 * math.log(j) - math.log(j**4 - 1)
            else:
                denom = e * lf[j]
        else:
            numer = 3.0 * lf[j]
            if which == "upper":
                denom = e * lf[j - 1] - math.log(3.0)
            else:
                denom = e * lf[j] + math.log(j + 1.0)
        if denom <= 0:
            continue
        out.append(RatioPoint(j, float(numer / denom), target))
    return out


class SlopeStep(NamedTuple):
    """Finite-difference slope between two consecutive size samples.

    ok is False when the step had to be skipped (equal first sizes make the
    log-quotient denominator zero); the slope is NaN in that case.
    """

    lo: int
    hi: int
    slope: float
    ok: bool


def exponent_finite_diff(series: Sequence[tuple[int, int, int]]) -> list[SlopeStep]:
    """Slopes of log(n2) against log(n1) between consecutive (param, n1, n2) rows.

    If n2 grows like n1**e, these slopes estimate e.  Sizes must be positive;
    a zero denominator (repeated n1) yields a flagged, NaN-slope entry rather
    than an exception.
    """
    rows = list(series)
    if len(rows) < 2:
        raise ParameterError(f"need at least two samples, got {len(rows)}")
    for param, n1, n2 in rows:
        if n1 < 1 or n2 < 1:
            raise ParameterError(f"sizes must be >= 1, got ({param}, {n1}, {n2})")
    out: list[SlopeStep] = []
    for (p0, a0, b0), (p1, a1, b1) in zip(rows, rows[1:]):
        d = math.log(a1) - math.log(a0)
        if d == 0.0:
            out.append(SlopeStep(p0, p1, math.nan, False))
        else:
            out.append(SlopeStep(p0, p1, (math.log(b1) - math.log(b0)) / d, True))
    return out

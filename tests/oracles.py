"""Deliberately naive reference implementations.

Everything in here trades speed for obviousness: quadruple loops, literal
membership walks, exhaustive minimisation, Fraction arithmetic.  The point is
that none of it shares a line of reasoning with the production finders, so
agreement on random instances is meaningful evidence.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


def oracle_centers_1d(elems) -> set[tuple[int, int]]:
    """All doubled centers (a+b, c+d) with b-a == d-c > 0, by quadruple loop.

    Vectorised over the full (i,j,k,l) index hypercube, so keep |A| <= ~40.
    """
    a = np.asarray(sorted(elems), dtype=np.int64)
    if a.size == 0:
        return set()
    diff = a[None, :] - a[:, None]  # diff[i, j] = a[j] - a[i]
    hits = (diff[:, :, None, None] == diff[None, None, :, :]) & (
        diff[:, :, None, None] > 0
    )
    sums = a[None, :] + a[:, None]  # sums[i, j] = a[i] + a[j]
    ii, jj, kk, ll = np.nonzero(hits)
    return set(zip(sums[ii, jj].tolist(), sums[kk, ll].tolist()))


def oracle_vertex_centers_2d(points) -> set[tuple[int, int]]:
    """Doubled centers of axis-parallel squares with all four corners present.

    Brute force over ordered corner quadruples (bottom-left, bottom-right,
    top-left, top-right); memory is Theta(|B|^4) booleans, so |B| <= ~50.
    """
    pts = sorted(set(points))
    if not pts:
        return set()
    xs = np.asarray([p[0] for p in pts], dtype=np.int64)
    ys = np.asarray([p[1] for p in pts], dtype=np.int64)
    bl_x = xs[:, None, None, None]
    bl_y = ys[:, None, None, None]
    br_x = xs[None, :, None, None]
    br_y = ys[None, :, None, None]
    tl_x = xs[None, None, :, None]
    tl_y = ys[None, None, :, None]
    tr_x = xs[None, None, None, :]
    tr_y = ys[None, None, None, :]

    hits = np.ones((xs.size,) * 4, dtype=bool)
    hits &= bl_y == br_y
    hits &= br_x > bl_x
    hits &= tl_x == bl_x
    hits &= tr_x == br_x
    hits &= tl_y == tr_y
    hits &= (tl_y - bl_y) == (br_x - bl_x)

    ii, jj, kk, _ = np.nonzero(hits)
    cx = xs[ii] + xs[jj]
    cy = ys[ii] + ys[kk]
    return set(zip(cx.tolist(), cy.tolist()))


def _boundary_in(member, sx: int, sy: int, r: int) -> bool:
    """Walk all 8r boundary points of the square of radius r around (sx, sy)
    and test membership one by one."""
    return (all((x, sy - r) in member and (x, sy + r) in member
                for x in range(sx - r, sx + r + 1))
            and all((sx - r, y) in member and (sx + r, y) in member
                    for y in range(sy - r + 1, sy + r)))


def oracle_boundary_pairs(points, r_max: int) -> set[tuple[int, int, int]]:
    """All (2*sx, 2*sy, 2*r) whose full square boundary lies in the set.

    Literal definition: for every lattice center in the bounding box and every
    radius, walk all 8r boundary points and test membership one by one.
    """
    member = set(points)
    if not member:
        return set()
    xmin = min(x for x, _ in member)
    xmax = max(x for x, _ in member)
    ymin = min(y for _, y in member)
    ymax = max(y for _, y in member)
    return {(2 * sx, 2 * sy, 2 * r)
            for sx in range(xmin, xmax + 1)
            for sy in range(ymin, ymax + 1)
            for r in range(1, r_max + 1)
            if _boundary_in(member, sx, sy, r)}


def oracle_boundary_radius(member: set, sx: int, sy: int, r_max: int) -> int | None:
    """Smallest r in 1..r_max whose full square boundary around the lattice
    center (sx, sy) lies in the set `member`, or None, by the same walk."""
    return next((r for r in range(1, r_max + 1) if _boundary_in(member, sx, sy, r)), None)


def oracle_covering_min(elems, length: int) -> int:
    """Minimum number of closed intervals of the given length covering elems.

    Exhaustive over all useful interval placements; exponential in principle,
    fine for the tiny instances the tests feed it.
    """
    pts = tuple(sorted(set(elems)))
    if not pts:
        return 0

    @lru_cache(maxsize=None)
    def best(i: int) -> int:
        if i >= len(pts):
            return 0
        lo = pts[i]
        out = math.inf
        for start in range(lo - length, lo + 1):
            j = i
            while j < len(pts) and pts[j] <= start + length:
                j += 1
            out = min(out, 1 + best(j))
        return out

    return int(best(0))


def oracle_box_count(points, m: int) -> int:
    """Dyadic cell count via exact Fraction floors (no shifts, no numpy)."""
    if m > 0:
        return len(set(points))
    side = Fraction(2) ** (-m)
    cells = {
        (math.floor(Fraction(x) / side), math.floor(Fraction(y) / side))
        for x, y in points
    }
    return len(cells)


def oracle_segment_full(points, axis: str, line: int, lo: int, hi: int) -> bool:
    """Membership walk along one axis-parallel segment."""
    member = set(points)
    if axis == "horizontal":
        return all((x, line) in member for x in range(lo, hi + 1))
    if axis == "vertical":
        return all((line, y) in member for y in range(lo, hi + 1))
    raise ValueError(axis)


def oracle_make_intset(values):
    """Sorted distinct values as a tuple, or (error class name, message) of the
    first value that is not an integer or exceeds 2**62 in magnitude."""
    out = set()
    for v in values:
        if not isinstance(v, (int, np.integer)):
            return ("ParameterError", f"expected an integer coordinate, got {type(v).__name__}")
        if abs(int(v)) > 2**62:
            return ("RangeError", f"coordinate {int(v)} exceeds the supported magnitude 2**62")
        out.add(int(v))
    return tuple(sorted(out))


def oracle_parse_intset(text: str, source: str):
    """Line-by-line reading of a 1D set file.

    Returns the sorted distinct values, or (message, lineno) of the format
    error the file must raise: the first line that is not one integer token
    (after cutting a '#' comment), else the first value past 2**62 (no line).
    """
    values = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        data = raw.split("#", 1)[0]
        tokens = data.split()
        if not tokens:
            continue
        if len(tokens) != 1:
            return f"{source}:{lineno}: expected one integer, got {data.strip()!r}", lineno
        try:
            values.append(int(tokens[0]))
        except ValueError:
            return f"{source}:{lineno}: not an integer: {tokens[0]!r}", lineno
    for v in values:
        if abs(v) > 2**62:
            return f"{source}: coordinate {v} exceeds the supported magnitude 2**62", None
    return tuple(sorted(set(values)))


def oracle_sumset(levels) -> tuple[int, ...]:
    """Every sum of one element per (multiplier, elements) level, each element
    times its level's multiplier, collected in a Python set; sorted."""
    sums = {0}
    for mult, elems in levels:
        sums = {acc + mult * v for acc in sums for v in elems}
    return tuple(sorted(sums))


def oracle_dk(k: int) -> tuple[int, ...]:
    """D_k as four unions, one per vanishing digit, each enumerating the
    other three digits in {-k+1..2k-2} into a Python set; sorted."""
    digits = range(-k + 1, 2 * k - 1)
    out = set()
    for places in ((k, k**2, k**3), (1, k**2, k**3), (1, k, k**3), (1, k, k**2)):
        out |= {b * places[0] + c * places[1] + d * places[2]
                for b in digits for c in digits for d in digits}
    return tuple(sorted(out))


def oracle_witness_r(x: int, y: int, k: int) -> int:
    """The D_k witness radius from base-k digits, one center at a time."""
    x0, x1 = x % k, x // k % k
    y2, y3 = y // k**2 % k, y // k**3
    r0 = x0 - x1 * k + y2 * k**2 - y3 * k**3
    return abs(r0) if r0 else 1


def oracle_dk_replay(elems, k: int) -> tuple[int, int]:
    """(misses, radii over k**4) of the D_k witness replay over `elems`, one
    center of {0..k**4-1}**2 at a time: a miss has one of x-r, x+r, y-r, y+r
    outside the set."""
    member = set(elems)
    n = k**4
    misses = over = 0
    for x in range(n):
        for y in range(n):
            r = oracle_witness_r(x, y, k)
            if not (x - r in member and x + r in member
                    and y - r in member and y + r in member):
                misses += 1
            if r > n:
                over += 1
    return misses, over


def oracle_witness_r_AN(x: int, y: int, p: int) -> int:
    """The depth-p tower witness radius: mixed-radix digits (p!/k!)**4, one
    level radius per digit pair, summed back with the same multipliers."""
    r = 0
    for k in range(2, p + 1):
        mult = (math.factorial(p) // math.factorial(k)) ** 4
        u, x = divmod(x, mult)
        v, y = divmod(y, mult)
        r += mult * oracle_witness_r(u, v, k)
    return r


def oracle_covering_greedy(elems, length: int) -> int:
    """Left-to-right greedy interval cover, one element step at a time."""
    elems = sorted(elems)
    count, i = 0, 0
    while i < len(elems):
        count += 1
        limit = elems[i] + length
        while i < len(elems) and elems[i] <= limit:
            i += 1
    return count


def oracle_make_pointset(points):
    """Sorted distinct points as a tuple, or (error class name, message) of the
    first coordinate, x before y, that is not an integer or exceeds 2**62."""
    out = set()
    for x, y in points:
        for v in (x, y):
            if not isinstance(v, (int, np.integer)):
                return ("ParameterError", f"expected an integer coordinate, got {type(v).__name__}")
            if abs(int(v)) > 2**62:
                return ("RangeError", f"coordinate {int(v)} exceeds the supported magnitude 2**62")
        out.add((int(x), int(y)))
    return tuple(sorted(out))


def oracle_parse_pointset(text: str, source: str):
    """Line-by-line reading of a 2D set file.

    Returns the sorted distinct points, or (message, lineno) of the format
    error the file must raise: the first line that is not two integer tokens
    (after cutting a '#' comment), else the first coordinate past 2**62 in
    file order, x before y (no line).
    """
    points = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        data = raw.split("#", 1)[0]
        tokens = data.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            return f"{source}:{lineno}: expected 'x y', got {data.strip()!r}", lineno
        try:
            points.append((int(tokens[0]), int(tokens[1])))
        except ValueError:
            return f"{source}:{lineno}: not an integer pair: {data.strip()!r}", lineno
    for p in points:
        for v in p:
            if abs(v) > 2**62:
                return f"{source}: coordinate {v} exceeds the supported magnitude 2**62", None
    return tuple(sorted(set(points)))

"""Exhaustive center finders for axis-parallel squares in finite sets.

Three problems, one coordinate convention.  Centers and radii are *doubled*
(2x, 2y, 2r) so the half-integer centers that arise from odd vertex spacings
stay exact integers:

* 1D: centers (x, y) such that some r > 0 puts x-r, x+r, y-r, y+r in A.
* 2D vertices: centers of squares with all four corners in B.
* 2D boundaries: lattice centers s and integer radii r >= 1 whose full
  discrete square boundary (the Chebyshev sphere of radius r, 8r points)
  lies in B.

1D and vertex search each pick a dense or a sparse kernel from cost estimates
made before either allocates: a float32 product of a 0/1 midpoint-by-radius
matrix or a sort-and-group of pairs by radius for 1D, a per-width raster sweep
or a same-row pair scan for vertices; boundaries use per-radius raster sweeps.
Budget guards refuse pathological inputs instead of hanging.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from .core_sets import (
    DEFAULT_ELEMENT_BUDGET,
    DEFAULT_FINDER_BUDGET,
    DEFAULT_GRID_CELLS,
    DEFAULT_PAIR_BUDGET,
    DoubledPoint,
    IntSet1D,
    OccupancyGrid,
    ParameterError,
    PointSet2D,
    effective_budget,
    require_budget,
    unique_ints,
    _lex_contains,
    _lex_unique_rows,
)

__all__ = [
    "CenterRows", "CenterWitness",
    "find_centers_1d", "find_vertex_centers_2d", "find_boundary_centers_2d",
]


class CenterWitness(NamedTuple):
    """A center together with one doubled radius that certifies it."""

    center: DoubledPoint
    radius: int  # doubled: the square has half-side radius/2


class CenterRows:
    """What a finder enumerates: one read-only int64 array of distinct rows in
    lexicographic order, (X, Y) per center or (X, Y, R) per boundary witness.

    Built from its columns.  Iteration yields :class:`DoubledPoint` or
    :class:`CenterWitness` values one at a time, in ascending order.
    """

    __slots__ = ("_rows",)

    def __init__(self, *columns):
        rows = _lex_unique_rows(np.column_stack(columns).astype(np.int64, copy=False))
        rows.flags.writeable = False
        self._rows = rows

    def as_array(self) -> np.ndarray:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[DoubledPoint] | Iterator[CenterWitness]:
        cols = [col.tolist() for col in self._rows.T]
        centers = map(DoubledPoint, cols[0], cols[1])
        return centers if len(cols) == 2 else map(CenterWitness, centers, cols[2])

    def __contains__(self, item: object) -> bool:
        if isinstance(item, CenterWitness):
            item = (*item.center, item.radius)
        return _lex_contains(self._rows, item)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CenterRows):
            return np.array_equal(self._rows, other._rows)
        return NotImplemented

    def __repr__(self) -> str:
        return f"CenterRows(<{len(self)} rows of {self._rows.shape[1]}>)"


# A finder takes its dense kernel when the dense cost estimate is below RATIO
# times the sparse one.  Measured (2-core x86-64, numpy 2.4.6) on random
# subsets of [0, 3000), 1D dense still wins at a ratio of 1,000 (0.29 s against
# 0.62 s) and loses at 3,800 (0.27 s against 0.14 s); D_3..D_5 give 3.5-5.5.
# On 4,500 random points of a square box, dense vertices win at a ratio of 10
# and lose from 50 on; D_k x D_k gives 0.35 (k = 3: 0.029 s against 5.8 s).
DENSE_1D_RATIO = 1_000
DENSE_VERTEX_RATIO = 30


def _runs(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run of equal keys in a sorted array."""
    starts = np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))
    return starts, np.diff(np.append(starts, len(sorted_keys)))


def _pairs_1d(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Doubled midpoints a_i + a_j and doubled radii a_j - a_i of all i < j,
    ordered by i, so by ascending midpoint within one radius."""
    mid = np.empty(len(a) * (len(a) - 1) // 2, dtype=np.int64)
    rad = np.empty_like(mid)
    end = 0
    for i in range(len(a) - 1):
        start, end = end, end + len(a) - 1 - i
        np.add(a[i + 1:], a[i], out=mid[start:end])
        np.subtract(a[i + 1:], a[i], out=rad[start:end])
    return mid, rad


def _centers_1d_dense(a: np.ndarray, mode: str) -> CenterRows | int:
    """Nonzeros of M @ M.T for the 0/1 matrix M[midpoint, radius], split into
    its even and odd block (a center and its radius share a parity)."""
    mid, rad = _pairs_1d(a - a[0])
    rows, cols = int(a[-1] - a[0]), int(a[-1] - a[0]) // 2 + 1  # one parity block
    assert cols < 2**24  # so float32 holds every sum of `cols` 0/1 products exactly
    count, xs, ys = 0, [], []
    for parity in (0, 1):
        m = np.zeros((rows, cols), dtype=np.float32)
        sel = rad % 2 == parity
        m[mid[sel] // 2, rad[sel] // 2] = 1
        product = m @ m.T
        if mode == "count":
            count += int(np.count_nonzero(product))
        else:
            u, v = np.nonzero(product)
            xs.append(2 * u + parity)
            ys.append(2 * v + parity)
    if mode == "count":
        return count
    shift = 2 * int(a[0])
    return CenterRows(np.concatenate(xs) + shift, np.concatenate(ys) + shift)


def _centers_1d_sparse(a: np.ndarray, mode: str) -> CenterRows | int:
    """Sort the pairs by radius and join the midpoints of each radius.

    Every midpoint X is the center (X, X); midpoints X < Y sharing a radius
    give (X, Y) and (Y, X).  Radii with equally many pairs are joined at once.
    """
    # Arrays of all pairs dominate the memory held: reorder them one at a
    # time and drop each as soon as it is used up.
    mid, rad = _pairs_1d(a)
    order = np.argsort(rad, kind="stable")
    mid = mid[order]
    rad = rad[order]
    del order
    starts, sizes = _runs(rad)
    del rad
    shared = sizes > 1
    starts, sizes = starts[shared], sizes[shared]
    # Rank the midpoints among the distinct ones by a sort: searchsorted on
    # needles in radius order is ~10x slower once they outgrow the cache.
    by_mid = np.argsort(mid)
    mid = mid[by_mid]
    first = np.concatenate(([True], mid[1:] != mid[:-1]))
    mids = mid[first]
    del mid
    rank = np.empty_like(by_mid)
    rank[by_mid] = np.cumsum(first)
    rank -= 1
    keys = [np.zeros(0, dtype=np.int64)]
    for size in unique_ints(sizes).tolist():
        group = rank[starts[sizes == size, None] + np.arange(size)]
        i, j = np.triu_indices(size, 1)
        keys.append((group[:, i] * len(mids) + group[:, j]).ravel())
    pairs = unique_ints(np.concatenate(keys))
    if mode == "count":
        return len(mids) + 2 * len(pairs)
    lo, hi = mids[pairs // len(mids)], mids[pairs % len(mids)]
    return CenterRows(np.concatenate((mids, lo, hi)), np.concatenate((mids, hi, lo)))


def find_centers_1d(a: IntSet1D, mode: str = "enumerate") -> CenterRows | int:
    """All doubled centers (X, Y) admitting a common positive radius in A.

    mode='enumerate' returns the center set; mode='count' returns its size
    without building center objects.
    """
    if mode not in ("enumerate", "count"):
        raise ParameterError(f"mode must be 'enumerate' or 'count', got {mode!r}")
    n = len(a)
    require_budget(n, DEFAULT_FINDER_BUDGET, "the pair arrays of the set")
    # The pair count is a lower bound of the sweep estimate below.
    require_budget(n * (n - 1) // 2, DEFAULT_PAIR_BUDGET, "the common-radius pair sweep")
    if n < 2:
        return 0 if mode == "count" else CenterRows([], [])
    arr = a.as_array()
    rad = _pairs_1d(arr)[1]
    rad.sort()
    sizes = _runs(rad)[1]
    sweep = int(np.dot(sizes, sizes))
    del rad, sizes
    rows, cols = a.max() - a.min(), (a.max() - a.min()) // 2 + 1  # as in the dense kernel
    if (rows * rows <= effective_budget(DEFAULT_GRID_CELLS)
            and 2 * rows * rows * cols < DENSE_1D_RATIO * sweep):
        return _centers_1d_dense(arr, mode)
    require_budget(sweep, DEFAULT_PAIR_BUDGET, "the common-radius pair sweep")
    return _centers_1d_sparse(arr, mode)


def _vertex_centers_dense(b: PointSet2D, mode: str) -> CenterRows | int:
    """Per-width raster sweep: mark the doubled center of every square whose
    four corners are occupied grid cells."""
    grid = OccupancyGrid.from_points(b)
    cells = grid.cells.astype(bool)
    w, h = cells.shape
    marks = np.zeros((2 * w - 1, 2 * h - 1), dtype=bool)
    for s in range(1, min(w, h)):
        marks[s:2 * w - s:2, s:2 * h - s:2] |= (cells[:w - s, :h - s] & cells[s:, :h - s]
                                                & cells[:w - s, s:] & cells[s:, s:])
    if mode == "count":
        return int(np.count_nonzero(marks))
    u, v = np.nonzero(marks)
    return CenterRows(u + 2 * grid.x0, v + 2 * grid.y0)


def _vertex_centers_sparse(b: PointSet2D, mode: str) -> CenterRows | int:
    """Same-row pair scan.

    Points (a, y) and (c, y) with a < c are the bottom edge of exactly one
    square, whose top corners (a, y + (c-a)) and (c, y + (c-a)) are two
    membership probes; every square is discovered once, through its bottom
    edge.  Doubled center: (a+c, 2y + (c-a)).
    """
    pts = b.as_array()
    members = set(b)
    by_row = pts[np.lexsort((pts[:, 0], pts[:, 1]))]
    starts, sizes = _runs(by_row[:, 1])
    xs_all, ys_all = by_row[:, 0].tolist(), by_row[:, 1].tolist()
    ymax = b.bbox()[3]
    cx: list[int] = []
    cy: list[int] = []
    for start, size in zip(starts.tolist(), sizes.tolist()):
        y, xs = ys_all[start], xs_all[start:start + size]
        reach = ymax - y  # tallest square whose top row is still in the box
        for i, a in enumerate(xs):
            for c in xs[i + 1:]:
                w = c - a
                if w > reach:
                    break
                if (a, y + w) in members and (c, y + w) in members:
                    cx.append(a + c)
                    cy.append(2 * y + w)
    # nested squares share a center, each found through its own bottom edge
    rows = CenterRows(cx, cy)
    return len(rows) if mode == "count" else rows


def find_vertex_centers_2d(b: PointSet2D, mode: str = "enumerate") -> CenterRows | int:
    """Centers of axis-parallel squares with all four vertices in B."""
    if mode not in ("enumerate", "count"):
        raise ParameterError(f"mode must be 'enumerate' or 'count', got {mode!r}")
    if not len(b):
        return 0 if mode == "count" else CenterRows([], [])
    xmin, ymin, xmax, ymax = b.bbox()
    w, h, m = xmax - xmin + 1, ymax - ymin + 1, min(xmax - xmin, ymax - ymin)
    # sweep = sum of (w - s) * (h - s) over the widths s = 1..m
    sweep = m * w * h - (w + h) * m * (m + 1) // 2 + m * (m + 1) * (2 * m + 1) // 6
    row_sizes = _runs(np.sort(b.as_array()[:, 1]))[1]
    scan = int(np.dot(row_sizes, row_sizes))
    if w * h <= effective_budget(DEFAULT_GRID_CELLS) and sweep < DENSE_VERTEX_RATIO * scan:
        return _vertex_centers_dense(b, mode)
    require_budget(scan, DEFAULT_PAIR_BUDGET, "the same-row pair scan")
    # the scan's membership set holds every point
    require_budget(len(b), DEFAULT_ELEMENT_BUDGET, "a vertex-center scan")
    return _vertex_centers_sparse(b, mode)


def find_boundary_centers_2d(b: PointSet2D, r_max: int,
                             mode: str = "enumerate") -> CenterRows | int:
    """All (lattice center, radius) pairs whose full square boundary lies in B.

    One vectorized pass per radius: four run-length lookups in the occupancy
    grid decide "row/column segment completely occupied" for every in-range
    center simultaneously.
    """
    if mode not in ("enumerate", "count"):
        raise ParameterError(f"mode must be 'enumerate' or 'count', got {mode!r}")
    if not isinstance(r_max, int) or r_max < 1:
        raise ParameterError(f"r_max must be an integer >= 1, got {r_max!r}")
    if not len(b):
        return 0 if mode == "count" else CenterRows([], [], [])
    grid = OccupancyGrid.from_points(b)
    w, h = grid.width, grid.height
    r_eff = min(r_max, (w - 1) // 2, (h - 1) // 2)
    require_budget(w * h * max(r_eff, 0), DEFAULT_PAIR_BUDGET, "the per-radius boundary sweep")
    count, found = 0, [np.zeros((0, 3), dtype=np.int64)]
    for r in range(1, r_eff + 1):
        full = grid.boundary_full(np.arange(grid.x0 + r, grid.x0 + w - r)[:, None],
                                  np.arange(grid.y0 + r, grid.y0 + h - r), r)
        if mode == "count":
            count += int(np.count_nonzero(full))
            continue
        u, v = np.nonzero(full)
        found.append(np.column_stack((u + grid.x0 + r, v + grid.y0 + r, np.full(len(u), r))))
    if mode == "count":
        return count
    return CenterRows(*(2 * np.concatenate(found)).T)


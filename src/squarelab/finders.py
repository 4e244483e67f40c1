"""Exhaustive center finders for axis-parallel squares in finite sets.

Three problems, one coordinate convention.  Centers and radii are *doubled*
(2x, 2y, 2r) so the half-integer centers that arise from odd vertex spacings
stay exact integers:

* 1D: centers (x, y) such that some r > 0 puts x-r, x+r, y-r, y+r in A.
* 2D vertices: centers of squares with all four corners in B.
* 2D boundaries: lattice centers s and integer radii r >= 1 whose full
  discrete square boundary (the Chebyshev sphere of radius r, 8r points)
  lies in B.

1D and vertex search rest on one identity: a square with its four vertices in
X x Y is a pair of X and a pair of Y that share a radius, and its doubled
center is their two doubled midpoints; a 1D set A is the case X = Y = A.  One
function owns that join: a dense kernel of float32 midpoint-by-radius matrix
products over 0/1 occupancy vectors, one strip of rows at a time, and for
X = Y a sort-and-group of all pairs by radius.  Only sets that are not
products reach the per-width raster sweep or the same-row pair scan, and
boundaries are swept once per radius; enumeration marks one (x, y, r)
raster.  Each pick is made from cost estimates, and each guard refuses in
front of the kernel it prices.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core_sets import (
    DEFAULT_BYTE_LIMIT,
    DEFAULT_WORK_LIMIT,
    DoubledPoint,
    IntSet1D,
    OccupancyGrid,
    ParameterError,
    PointSet2D,
    effective_budget,
    require_budget,
    unique_ints,
    _GRID_CELL_BYTES,
    _RASTER_BYTES,
    _grid_box,
    _int_param,
    _raster,
    _RowSet,
)

__all__ = [
    "CenterRows", "CenterWitness",
    "find_centers_1d", "find_vertex_centers_2d", "find_boundary_centers_2d",
]


class CenterWitness(NamedTuple):
    """A center together with one doubled radius that certifies it."""

    center: DoubledPoint
    radius: int  # doubled: the square has half-side radius/2


class CenterRows(_RowSet):
    """What a finder enumerates: one read-only int64 array of distinct rows in
    lexicographic order, (X, Y) per center or (X, Y, R) per boundary witness.

    Built from one (N, k) int64 array of rows, which the finders hand over in
    order.  Iteration yields :class:`DoubledPoint` or :class:`CenterWitness`
    values one at a time, in ascending order.  Not hashable.
    """

    __slots__ = ()
    __hash__ = None

    @staticmethod
    def _row(item: object) -> object:
        return (*item.center, item.radius) if isinstance(item, CenterWitness) else item

    def __iter__(self) -> Iterator[DoubledPoint] | Iterator[CenterWitness]:
        cols = [col.tolist() for col in self._arr.T]
        centers = map(DoubledPoint, cols[0], cols[1])
        return centers if len(cols) == 2 else map(CenterWitness, centers, cols[2])

    def __repr__(self) -> str:
        return f"CenterRows(<{len(self)} rows of {self._arr.shape[1]}>)"


# A finder takes its dense kernel when the dense cost estimate is below RATIO
# times the sparse one.  Measured (2-core x86-64, numpy 2.4.6) on random
# subsets of [0, 3000), 1D dense still wins at a ratio of 1,000 (0.29 s against
# 0.62 s) and loses at 3,800 (0.27 s against 0.14 s); D_3..D_5 give 3.5-5.5.
# On 4,500 random points of a square box, dense vertices win at a ratio of 10
# and lose from 50 on; D_k x D_k gives 0.35 (k = 3: 0.029 s against 5.8 s).
DENSE_1D_RATIO = 1_000
DENSE_VERTEX_RATIO = 30

# Multiply-adds of the dense join's float32 products per unit of work.  On the
# same box they run at 23-34 G a CPU second (D_5..D_7) and the sparse join at
# 7.6 M pairs (5,000 random values of [0, 10**12)): 3,000-4,500 multiply-adds
# to a pair.  1,250 leaves room for slower BLAS builds; under it D_6 needs a
# budget scale of 1.16 and D_8 one of 36.9.
_DENSE_MADDS_PER_WORK = 1_250


def _check_mode(mode: str) -> None:
    if mode not in ("enumerate", "count"):
        raise ParameterError(f"mode must be 'enumerate' or 'count', got {mode!r}")


def _check_r_max(r_max: int) -> int:
    return _int_param(r_max, "r_max must be an integer >= 1", lo=1)


def _runs(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run of equal keys in a sorted array."""
    new = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return starts, np.diff(np.append(starts, len(sorted_keys)))


def _pairs_1d(a: np.ndarray, op) -> np.ndarray:
    """The ufunc op(a_j, a_i) over all i < j, ordered by i: with np.add and
    np.subtract, the doubled midpoints and doubled radii of the pairs, by
    ascending midpoint within one radius."""
    out = np.empty(len(a) * (len(a) - 1) // 2, dtype=np.int64)
    end = 0
    for i in range(len(a) - 1):
        start, end = end, end + len(a) - 1 - i
        op(a[i + 1:], a[i], out=out[start:end])
    return out


def _radius_counts(a: np.ndarray, lags: int) -> np.ndarray:
    """c[d] = the number of pairs of A at distance d, for d = 0 .. lags, by one
    exact integer correlation of the occupancy vector with its first lags + 1
    shifts: (lags + 1) * (max A - min A + 1) multiply-adds."""
    n = int(a[-1] - a[0]) + 1
    f = np.zeros(n + lags, dtype=np.int64)
    f[a - a[0]] = 1
    return np.correlate(f, f[:n], "valid")


# cells of one strip of the dense join's float32 product, or of a raster or
# key array read into rows
_STRIP_CELLS = 2**18
_READOUT_BYTES = 16 * _STRIP_CELLS  # a read-out's strip of cell indices, beside its rows


def _radius_matrix(a: np.ndarray, parity: int, cols: int) -> np.ndarray:
    """M[u, c] = f[u - c] & f[u + c + parity] over the occupancy vector f of
    A - min A, as float32: the pair at doubled midpoint 2u + parity and doubled
    radius 2c + parity.  One row per u in 0 .. max A - min A."""
    rows = int(a[-1] - a[0]) + 1
    f = np.zeros(rows + 2 * cols, dtype=bool)  # cols empty cells either side
    f[a - a[0] + cols] = True
    win = sliding_window_view(f, cols)  # win[s, j] = f[s + j - cols]
    m = np.logical_and(win[1:rows + 1, ::-1], win[cols + parity:cols + parity + rows],
                       out=np.empty((rows, cols), dtype=np.float32))
    if parity == 0:
        m[:, 0] = 0  # radius 0 is no square
    return m


def _join_dense(xs: np.ndarray, ys: np.ndarray, mode: str) -> CenterRows | int:
    """Doubled centers (X, Y) with a radius shared by a pair of X with midpoint
    X and a pair of Y with midpoint Y: the nonzeros of M_X @ M_Y.T per parity
    (a center and its radius share one), one strip of rows at a time.

    With X = Y (the 1D finder) a count needs only the strips on and right of
    the diagonal.  Enumerated centers are marked in one bool raster whose
    nonzeros come out in lexicographic order.
    """
    rows_x, rows_y = int(xs[-1] - xs[0]) + 1, int(ys[-1] - ys[0]) + 1
    cols = (min(rows_x, rows_y) - 1) // 2 + 1  # the radii both sets can have
    assert cols < 2**24  # so float32 holds every sum of `cols` 0/1 products exactly
    same = np.array_equal(xs, ys)
    marks = None if mode == "count" else np.zeros((2 * rows_x, 2 * rows_y), dtype=bool)
    count = 0
    for parity in (0, 1):
        mx = _radius_matrix(xs, parity, cols)
        my = mx if same else _radius_matrix(ys, parity, cols)
        step = max(1, _STRIP_CELLS // rows_y)
        for i0 in range(0, rows_x, step):
            strip = mx[i0:i0 + step]
            if marks is not None:
                marks[2 * i0 + parity:2 * (i0 + step):2, parity::2] = strip @ my.T
            elif same:  # the block left of the diagonal mirrors one above it
                block = strip @ my[i0:].T
                count += (2 * int(np.count_nonzero(block))
                          - int(np.count_nonzero(block[:, :step])))
            else:
                count += int(np.count_nonzero(strip @ my.T))
        del mx, my, strip  # one parity's matrices alive at a time: no view left
    return count if marks is None else _marked_rows(marks, (2 * int(xs[0]), 2 * int(ys[0])))


def _marked_rows(marks: np.ndarray, origin: tuple[int, ...], scale: int = 1) -> CenterRows:
    """The rows origin + scale * (i, j, ...) of the marked cells ``marks[i, j, ...]``
    of a bool raster, read a strip at a time into one array, in order as they come."""
    found = np.empty((int(np.count_nonzero(marks)), marks.ndim), dtype=np.int64)
    end, step = 0, max(1, _STRIP_CELLS // max(1, marks[:1].size))
    for i0 in range(0, len(marks), step):
        flat = np.flatnonzero(marks[i0:i0 + step])
        start, end = end, end + len(flat)
        for axis in range(marks.ndim - 1, 0, -1):
            np.divmod(flat, marks.shape[axis], out=(flat, found[start:end, axis]))
        np.add(flat, i0, out=found[start:end, 0])
    found *= scale
    found += origin
    return CenterRows._adopt(found)


def _centers_1d_sparse(a: np.ndarray, mode: str, sweep: int = 0) -> CenterRows | int:
    """Sort the pairs by radius and join the midpoints of each radius.

    Every midpoint X is the center (X, X); midpoints X < Y sharing a radius
    give (X, Y) and (Y, X).  Radii with equally many pairs are joined at once.
    Priced from the sweep its caller knows or bounds before anything is made,
    then from the sizes of its radius groups once the radii are sorted.
    """
    all_pairs = len(a) * (len(a) - 1) // 2
    sweep = max(sweep, all_pairs)

    def price(work: int, grouped: int, joins: int) -> None:
        # int64 arrays of all, grouped and joined pairs; enumerating, midpoints, row keys, rows
        require_budget("the common-radius pair sweep", work=work, nbytes=(
            24 * all_pairs + 32 * grouped + 48 * joins
            + (12 * all_pairs + 8 * joins + 2 * _READOUT_BYTES if mode == "enumerate" else 0)))

    price(sweep, min(all_pairs, sweep - all_pairs), (sweep - all_pairs) // 2)
    rad = _pairs_1d(a, np.subtract)
    order = np.argsort(rad, kind="stable")
    rad.sort()
    # the runs of two or more equal radii, as [start, end] in radius order
    tied = np.zeros(len(rad) + 1, dtype=bool)
    np.equal(rad[1:], rad[:-1], out=tied[1:-1])
    edges = np.flatnonzero(tied[1:] != tied[:-1])
    del rad, tied
    starts, sizes = edges[0::2], edges[1::2] - edges[0::2] + 1
    grouped, joins = int(sizes.sum()), int(np.dot(sizes, sizes - 1)) // 2
    price(all_pairs + 2 * joins, grouped, joins)
    # the midpoints of each group's pairs, in radius order and ascending
    first = np.cumsum(sizes) - sizes
    mid = _pairs_1d(a, np.add)
    near = mid[order[np.repeat(starts - first, sizes) + np.arange(grouped)]]
    del order
    mid.sort()
    mids = mid[np.concatenate(([True], mid[1:] != mid[:-1]))]
    del mid
    n = len(mids)
    # their ranks among the distinct midpoints, searched for in sorted order (~10x faster)
    by_mid = np.argsort(near)
    rank = np.empty_like(near)
    rank[by_mid] = np.searchsorted(mids, near[by_mid])
    del near, by_mid
    keys = [np.zeros(0, dtype=np.int64)]
    for size in unique_ints(sizes).tolist():
        group = rank[first[sizes == size, None] + np.arange(size)]
        i, j = np.triu_indices(size, 1)
        keys.append((group[:, i] * n + group[:, j]).ravel())
    pairs = unique_ints(np.concatenate(keys))
    if mode == "count":
        return n + 2 * len(pairs)
    # The rows (X, X), (X, Y) and (Y, X) as rank keys i * n + j: distinct,
    # so one sort in place orders them, and a divmod a strip at a time turns
    # them into the rows of one array.
    keys = np.concatenate((np.arange(0, n * n, n + 1), pairs, pairs % n * n + pairs // n))
    del pairs
    keys.sort()
    rows = np.empty((len(keys), 2), dtype=np.int64)
    for lo in range(0, len(keys), _STRIP_CELLS):
        i, j = np.divmod(keys[lo:lo + _STRIP_CELLS], n)
        rows[lo:lo + len(i), 0], rows[lo:lo + len(i), 1] = mids[i], mids[j]
    return CenterRows._adopt(rows)


def _join(xs: np.ndarray, ys: np.ndarray, mode: str) -> CenterRows | int | None:
    """Doubled centers of the squares with vertices in X x Y (sorted X, Y): the
    dense join if its bytes fit and it costs under DENSE_1D_RATIO times the
    sparse sweep (the sum over r > 0 of c_X(r) * c_Y(r)), else for X = Y the
    sparse join, else None.  The sweep is bounded from |X|, |Y| and the spans
    first, and read off occupancy vectors only if the bounds leave the pick
    open and the correlation fits the work limit; the kernel picked is
    priced before it runs."""
    if len(xs) < 2 or len(ys) < 2:
        return 0 if mode == "count" else CenterRows._adopt(np.zeros((0, 2), dtype=np.int64))
    same = np.array_equal(xs, ys)
    spans = int(xs[-1] - xs[0]), int(ys[-1] - ys[0])
    cols = min(spans) // 2 + 1  # as in the dense join
    dense = 2 * spans[0] * spans[1] * cols
    # one parity's float32 rows x radii matrices (one if X = Y), two product strips;
    # enumerating, a (2 span)**2 marks raster and up to 16 + 3 bytes a mark read out
    rx, ry = spans[0] + 1, spans[1] + 1
    dense_bytes = 4 * cols * (rx if same else rx + ry) + 8 * max(_STRIP_CELLS, ry) + (
        80 * rx * ry + _READOUT_BYTES if mode == "enumerate" else 0)
    pairs = len(xs) * (len(xs) - 1) // 2
    most = pairs * (len(ys) - 1)  # no radius has more than |Y| - 1 pairs in Y
    # pairs over at most min(pairs, span) radii: Cauchy-Schwarz bounds the sweep
    sweep = least = -(-pairs * pairs // min(pairs, spans[0])) if same else 0
    # the correlations that read c(r) off the occupancy vectors, for the radii both can have
    lags = min(spans)
    counting = (lags + 1) * (rx if same else rx + ry)
    if dense_bytes <= effective_budget(DEFAULT_BYTE_LIMIT) and dense < DENSE_1D_RATIO * most:
        # the bounds leave the pick open and the counts cost at most the work limit
        if dense >= DENSE_1D_RATIO * least and counting <= effective_budget(DEFAULT_WORK_LIMIT):
            cx = _radius_counts(xs, lags)[1:]
            sweep = int(np.dot(cx, cx if same else _radius_counts(ys, lags)[1:]))
        if dense < DENSE_1D_RATIO * sweep:
            # a count of X = Y multiplies only the strips on and right of the diagonal
            halves = 2 if same and mode == "count" else 1
            require_budget("the dense common-radius join", nbytes=dense_bytes,
                           work=dense // (_DENSE_MADDS_PER_WORK * halves))
            return _join_dense(xs, ys, mode)
    return _centers_1d_sparse(xs, mode, sweep) if same else None


def find_centers_1d(a: IntSet1D, mode: str = "enumerate") -> CenterRows | int:
    """All doubled centers (X, Y) admitting a common positive radius in A.

    mode='enumerate' returns the center set; mode='count' returns its size
    without building center objects.
    """
    _check_mode(mode)
    return _join(a.as_array(), a.as_array(), mode)


def _vertex_centers_dense(b: PointSet2D, mode: str) -> CenterRows | int:
    """Per-width raster sweep: mark the doubled center of every square whose
    four corners are occupied grid cells."""
    x0, y0, cells = _raster(b)
    w, h = cells.shape
    marks = np.zeros((2 * w - 1, 2 * h - 1), dtype=bool)
    for s in range(1, min(w, h)):
        marks[s:2 * w - s:2, s:2 * h - s:2] |= (cells[:w - s, :h - s] & cells[s:, :h - s]
                                                & cells[:w - s, s:] & cells[s:, s:])
    return (int(np.count_nonzero(marks)) if mode == "count"
            else _marked_rows(marks, (2 * x0, 2 * y0)))


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
    found: list[tuple[int, int]] = []
    for start, size in zip(starts.tolist(), sizes.tolist()):
        y, xs = ys_all[start], xs_all[start:start + size]
        reach = ymax - y  # tallest square whose top row is still in the box
        for i, a in enumerate(xs):
            for c in xs[i + 1:]:
                w = c - a
                if w > reach:
                    break
                if (a, y + w) in members and (c, y + w) in members:
                    found.append((a + c, 2 * y + w))
    # nested squares share a center, each found through its own bottom edge
    rows = CenterRows._adopt(np.array(found, dtype=np.int64).reshape(-1, 2))
    return len(rows) if mode == "count" else rows


# bytes the same-row pair scan holds per point (measured): its membership set
# of (x, y) tuples, the coordinate lists it walks and its sorted rows
_SCAN_POINT_BYTES = 352


def find_vertex_centers_2d(b: PointSet2D, mode: str = "enumerate") -> CenterRows | int:
    """Centers of axis-parallel squares with all four vertices in B."""
    _check_mode(mode)
    pts = b.as_array()
    ys = np.sort(pts[:, 1])
    row_starts, row_sizes = _runs(ys)
    # B = X x Y (the empty set too) exactly when |B| = |X| * |Y|: the join's case
    x_starts = _runs(pts[:, 0])[0]
    if len(x_starts) * len(row_starts) == len(b):
        found = _join(pts[x_starts, 0], ys[row_starts], mode)
        if found is not None:
            return found
    xmin, ymin, xmax, ymax = b.bbox()
    w, h, m = xmax - xmin + 1, ymax - ymin + 1, min(xmax - xmin, ymax - ymin)
    # sweep = sum of (w - s) * (h - s) over the widths s = 1..m
    sweep = m * w * h - (w + h) * m * (m + 1) // 2 + m * (m + 1) * (2 * m + 1) // 6
    scan = int(np.dot(row_sizes, row_sizes))
    # the cells, a (2w - 1) x (2h - 1) marks raster and two temporaries; an
    # enumeration reads out up to 16 + 3 bytes a mark, as the dense join does
    raster = 7 * w * h + _RASTER_BYTES + (76 * w * h + _READOUT_BYTES
                                          if mode == "enumerate" else 0)
    if raster <= effective_budget(DEFAULT_BYTE_LIMIT) and sweep < DENSE_VERTEX_RATIO * scan:
        require_budget(f"the per-width raster sweep of a {w} x {h} grid", nbytes=raster,
                       work=sweep // DENSE_VERTEX_RATIO)
        return _vertex_centers_dense(b, mode)
    require_budget("the same-row pair scan", nbytes=_SCAN_POINT_BYTES * len(b), work=scan)
    return _vertex_centers_sparse(b, mode)


def find_boundary_centers_2d(b: PointSet2D, r_max: int,
                             mode: str = "enumerate") -> CenterRows | int:
    """All (lattice center, radius) pairs whose full square boundary lies in B.

    One vectorized pass per radius: four run-length lookups in the occupancy
    grid decide "row/column segment completely occupied" for every in-range
    center at once, marked in one (x, y, r) raster read out in order.
    """
    _check_mode(mode)
    r_max = _check_r_max(r_max)
    if not len(b):
        return 0 if mode == "count" else CenterRows._adopt(np.zeros((0, 3), dtype=np.int64))
    x0, y0, w, h = _grid_box(b)
    r_eff = min(r_max, (w - 1) // 2, (h - 1) // 2)
    # the grid, per radius a bool, an int32 lookup and a comparison a center;
    # an enumeration marks a w x h x r raster and reads out 24 + 3 bytes a mark
    swept = w * h * r_eff
    require_budget(f"the per-radius boundary sweep of a {w} x {h} occupancy grid", work=swept,
                   nbytes=(_GRID_CELL_BYTES + 6) * w * h + _RASTER_BYTES
                   + (28 * swept + _READOUT_BYTES if mode == "enumerate" else 0))
    grid = OccupancyGrid.from_points(b)
    marks = None if mode == "count" else np.zeros((w, h, r_eff), dtype=bool)
    count = 0
    for r in range(1, r_eff + 1):
        full = grid.boundary_full(np.arange(x0 + r, x0 + w - r)[:, None],
                                  np.arange(y0 + r, y0 + h - r), r)
        if marks is None:
            count += int(np.count_nonzero(full))
        else:
            marks[r:w - r, r:h - r, r - 1] = full
    return count if marks is None else _marked_rows(marks, (2 * x0, 2 * y0, 2), 2)

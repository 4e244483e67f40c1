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
function owns that join and its two kernels: the offset join, which reads
the centers of each offset d = x - y off the pairwise sums of one row of
occupancy cells, X & (Y + d), by a float64 FFT that rounds exactly, a strip
of rows at a time; and for X = Y a sort-and-group of all pairs by radius.
Sets that are not products take the per-width raster sweep or the same-row
pair scan, and boundaries are swept once per radius; enumeration marks one
(x, y, r) raster, and every kernel makes its rows in order.  A finder prices
its kernels before any runs, ranks them by their work, the least first (the
sparse sweep counted exactly where the pick is open), and runs the first
that fits both limits.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core_sets import (
    DEFAULT_BYTE_LIMIT,
    DEFAULT_WORK_LIMIT,
    BudgetError,
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
    _READOUT_BYTES,
    _STRIP_CELLS,
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

    Built from one (N, k) int64 array of rows, sorted unless a kernel made them
    in order.  Iteration yields :class:`DoubledPoint` or :class:`CenterWitness`
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


# The per-width raster sweep's work is its cell steps over RATIO.  Measured
# (2-core x86-64, numpy 2.4.6) on 4,500 random points of a square box, the
# sweep beats the same-row pair scan at a ratio of 10 and loses from 50 on.
DENSE_VERTEX_RATIO = 30

# The offset join's cells, each weighed by its FFT length's bit length, per
# unit of work.  On the same box D_4..D_8, D_6 x D_5 and random subsets of
# [0, 800) and [0, 3000) ran 31-41 of them in the time the sparse join takes
# for a pair (8.6 M pairs a CPU second, 5,000 random values of [0, 10**12));
# 300 values of [0, 10**6) by 0..19, whose rows mostly hold under two cells,
# ran ~180.  Under 30, D_7 fits the default budget and D_8 needs a scale of 1.88.
_FFT_CELLS_PER_WORK = 30


def _check_mode(mode: str) -> None:
    if mode not in ("enumerate", "count"):
        raise ParameterError(f"mode must be 'enumerate' or 'count', got {mode!r}")


def _no_centers(mode: str) -> CenterRows | int:
    return 0 if mode == "count" else CenterRows._in_order(np.zeros((0, 2), dtype=np.int64))


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


def _radius_counts(a: np.ndarray) -> np.ndarray:
    """c[d] = the number of pairs of A at distance d, for d = 0 .. max A - min A
    (c[0] = 0), from the differences a[i + t] - a[i], t = 1 .. |A| - 1."""
    c = np.zeros(int(a[-1] - a[0]) + 1, dtype=np.int64)
    for t in range(1, len(a)):
        np.add.at(c, a[t:] - a[:-t], 1)
    return c


def _fft_len(m: int) -> int:
    """The least 2**a * 3**b >= m: a length numpy's FFT transforms fast."""
    return min(t << (-(-m // t) - 1).bit_length() for t in (3**b for b in range(m.bit_length())))


def _join_offsets(xs: np.ndarray, ys: np.ndarray, mode: str) -> CenterRows | int:
    """Doubled centers (X, Y) of the squares with vertices in X x Y, one
    offset d of their corners at a time.

    A square's corners x1 < x2 in X and y1 < y2 in Y have x2 - x1 = y2 - y1,
    so d = x1 - y1 = x2 - y2: x1 and x2 lie in A_d = X & (Y + d), and the
    center is (x1 + x2, x1 + x2 - 2d).  Every a < b in A_d makes such a
    square, and each center has one d, so the centers of offset d are the
    distinct sums a + b, a < b in A_d.  They are the entries >= 2 of the
    autoconvolution of A_d's occupancy row: an entry counts the ordered
    pairs (a, b) with its sum, two for each a < b and one for a = b.

    The rows, framed on the set of the shorter span, are convolved by float64
    FFT a strip at a time, cropped to where they can hold cells; with X = Y,
    only d >= 0 (-d mirrors d).  Enumerated centers are marked in one bool
    raster whose nonzeros come out in lexicographic order.
    """
    lx, ly = int(xs[-1] - xs[0]) + 1, int(ys[-1] - ys[0]) + 1
    same, swap = np.array_equal(xs, ys), ly < lx
    fs, gs = (ys, xs) if swap else (xs, ys)
    lf, lg = min(lx, ly), max(lx, ly)
    assert lf < 2**32  # entries <= lf: the FFT's error, ~lf log(lf) 2**-53, stays < 2**-16
    f = np.zeros(lf, dtype=bool)
    f[fs - fs[0]] = True
    g = np.zeros(lg + 2 * lf - 2, dtype=bool)  # lf - 1 empty cells either side
    g[gs - gs[0] + lf - 1] = True
    win = sliding_window_view(g, lf)  # row w: G shifted by lf - 1 - w, on F's cells
    rows = lf if same else lf + lg - 1
    step = max(1, _STRIP_CELLS // 8 // _fft_len(2 * lf - 1))  # float64 strips of 256 KiB
    marks = None if mode == "count" else np.zeros((2 * lx - 1, 2 * ly - 1), dtype=bool)
    count = 0
    for w0 in range(0, rows, step):
        w1 = min(w0 + step, rows)
        lo, hi = max(0, lf - w1), min(lf, lf + lg - 1 - w0)  # where rows w0..w1 hold cells
        h = f[lo:hi] & win[w0:w1, lo:hi]
        keep = np.flatnonzero(np.count_nonzero(h, axis=1) > 1)  # rows with a pair
        n = _fft_len(2 * (hi - lo) - 1)
        conv = np.fft.irfft(np.square(np.fft.rfft(h[keep], n)), n)[:, :2 * (hi - lo) - 1]
        sums = np.rint(conv)
        assert np.abs(conv - sums).max(initial=0) < 0.25
        r, s = np.nonzero(sums >= 2)
        s += 2 * lo  # doubled coordinates on F, and on G, less twice their minima
        t = s + 2 * (keep[r] + w0 - lf + 1)
        if marks is None:
            count += len(s) + (int(np.count_nonzero(s != t)) if same else 0)
        else:
            marks[(t, s) if swap else (s, t)] = True
            if same:
                marks[t, s] = True
    return count if marks is None else CenterRows._marked_rows(
        marks, (2 * int(xs[0]), 2 * int(ys[0])))


def _sparse_bytes(all_pairs: int, grouped: int, joins: int, mode: str) -> int:
    """Peak bytes of the sparse join: int64 arrays of all, grouped and joined
    pairs; enumerating, midpoints, row keys and rows too."""
    return 24 * all_pairs + 32 * grouped + 48 * joins + (
        12 * all_pairs + 8 * joins + 2 * _READOUT_BYTES if mode == "enumerate" else 0)


def _centers_1d_sparse(a: np.ndarray, mode: str) -> CenterRows | int:
    """Sort the pairs by radius and join the midpoints of each radius.

    Every midpoint X is the center (X, X); midpoints X < Y sharing a radius
    give (X, Y) and (Y, X).  Radii with equally many pairs are joined at once.
    Its finder prices it from the sweep, exact or its floor, before anything
    is made; once its radii are sorted it prices itself from its radius groups.
    """
    all_pairs = len(a) * (len(a) - 1) // 2
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
    require_budget(_SPARSE_JOIN, work=all_pairs + 2 * joins,
                   nbytes=_sparse_bytes(all_pairs, grouped, joins, mode))
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
    return CenterRows._in_order(rows)


class _Kernel(NamedTuple):
    """A kernel a finder can run, priced before it runs: what it makes, its
    peak bytes and its work, and the call that runs it."""

    what: str
    nbytes: int
    work: int
    run: Callable[[], CenterRows | int]


def _fits(nbytes: int, work: int) -> bool:
    return (nbytes <= effective_budget(DEFAULT_BYTE_LIMIT)
            and work <= effective_budget(DEFAULT_WORK_LIMIT))


def _run_first_fitting(kernels: list[_Kernel]) -> CenterRows | int:
    """Run the first of `kernels`, in the finder's order of preference, whose
    estimates fit both limits, and the next that fits if it refuses on pricing
    itself again (the sparse join, priced on its floor); when none fits,
    refuse with the first's estimate."""
    fitting = [k for k in kernels if _fits(k.nbytes, k.work)] or kernels[:1]
    for k in fitting:
        require_budget(k.what, nbytes=k.nbytes, work=k.work)
        try:
            return k.run()
        except BudgetError:
            if k is fitting[-1]:
                raise


_SPARSE_JOIN = "the common-radius pair sweep"


def _join_kernels(xs: np.ndarray, ys: np.ndarray, mode: str) -> list[_Kernel]:
    """The kernels that find the doubled centers of the squares with vertices
    in X x Y (sorted X, Y of two elements or more), priced, the one of less
    work first: the offset join, and for X = Y the sparse join.

    The offset join's work is the cells its rows overlap, weighed by the bit
    length of its FFT.  The sparse join's is the sweep, the sum over r > 0 of
    c(r)**2: its Cauchy-Schwarz floor pairs**2 / min(pairs, span), or its exact
    count when the offset join fits both limits and costs more than the floor.
    """
    lx, ly = int(xs[-1] - xs[0]) + 1, int(ys[-1] - ys[0]) + 1
    same = np.array_equal(xs, ys)
    lf, lg = min(lx, ly), max(lx, ly)
    n = _fft_len(2 * lf - 1)
    cells = lf * (lf + 1) // 2 if same else lf * lg
    # the occupancy vectors, and a strip's float64 rows, spectra and sums and
    # the sums' indices; enumerating, a (2 lx) x (2 ly) marks raster and up to
    # 16 + 3 bytes a mark read out
    nbytes = 3 * lf + lg + 56 * max(_STRIP_CELLS // 8, n) + (
        80 * lx * ly + _READOUT_BYTES if mode == "enumerate" else 0)
    offsets = _Kernel("the common-radius offset join", nbytes,
                      cells * n.bit_length() // _FFT_CELLS_PER_WORK,
                      partial(_join_offsets, xs, ys, mode))
    if not same:
        return [offsets]
    pairs = len(xs) * (len(xs) - 1) // 2
    sweep = -(-pairs * pairs // min(pairs, lx - 1))
    if _fits(nbytes, offsets.work) and sweep < offsets.work:
        c = _radius_counts(xs)
        sweep = int(np.dot(c, c))
    sparse = _Kernel(_SPARSE_JOIN, _sparse_bytes(pairs, min(pairs, sweep - pairs),
                                                 (sweep - pairs) // 2, mode),
                     sweep, partial(_centers_1d_sparse, xs, mode))
    return [offsets, sparse] if offsets.work <= sweep else [sparse, offsets]


def find_centers_1d(a: IntSet1D, mode: str = "enumerate") -> CenterRows | int:
    """All doubled centers (X, Y) admitting a common positive radius in A.

    mode='enumerate' returns the center set; mode='count' returns its size
    without building center objects.
    """
    _check_mode(mode)
    if len(a) < 2:
        return _no_centers(mode)
    return _run_first_fitting(_join_kernels(a.as_array(), a.as_array(), mode))


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
            else CenterRows._marked_rows(marks, (2 * x0, 2 * y0)))


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
    # nested squares share a center, found once per bottom edge: _adopt sorts them out
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
    x_starts = _runs(pts[:, 0])[0]
    if min(len(x_starts), len(row_starts)) < 2:  # a square needs two of each
        return _no_centers(mode)
    # B = X x Y exactly when |B| = |X| * |Y|: the join's case
    join = (_join_kernels(pts[x_starts, 0], ys[row_starts], mode)
            if len(x_starts) * len(row_starts) == len(b) else [])
    xmin, ymin, xmax, ymax = b.bbox()
    w, h, m = xmax - xmin + 1, ymax - ymin + 1, min(xmax - xmin, ymax - ymin)
    # sweep = sum of (w - s) * (h - s) over the widths s = 1..m
    sweep = m * w * h - (w + h) * m * (m + 1) // 2 + m * (m + 1) * (2 * m + 1) // 6
    scan = int(np.dot(row_sizes, row_sizes))
    # the cells, a (2w - 1) x (2h - 1) marks raster and two temporaries; an
    # enumeration reads out up to 16 + 3 bytes a mark
    raster = 7 * w * h + _RASTER_BYTES + (76 * w * h + _READOUT_BYTES
                                          if mode == "enumerate" else 0)
    own = [_Kernel(f"the per-width raster sweep of a {w} x {h} grid", raster,
                   sweep // DENSE_VERTEX_RATIO, partial(_vertex_centers_dense, b, mode)),
           _Kernel("the same-row pair scan", _SCAN_POINT_BYTES * len(b), scan,
                   partial(_vertex_centers_sparse, b, mode))]
    return _run_first_fitting(sorted(join + own, key=lambda k: k.work))


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
        return 0 if mode == "count" else CenterRows._in_order(np.zeros((0, 3), dtype=np.int64))
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
    return count if marks is None else CenterRows._marked_rows(marks, (2 * x0, 2 * y0, 2), 2)

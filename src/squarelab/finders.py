"""Exhaustive center finders for axis-parallel squares in finite sets.

Three problems, one coordinate convention.  Centers and radii are *doubled*
(2x, 2y, 2r) so the half-integer centers that arise from odd vertex spacings
stay exact integers:

* 1D: centers (x, y) such that some r > 0 puts x-r, x+r, y-r, y+r in A.
* 2D vertices: centers of squares with all four corners in B.
* 2D boundaries: lattice centers s and integer radii r >= 1 whose full
  discrete square boundary (the Chebyshev sphere of radius r, 8r points)
  lies in B.

1D and vertex search rest on one identity: a square with its vertices in X x Y
has corners x1 < x2 in X and y1 < y2 in Y of one offset d = x1 - y1 = x2 - y2,
so x1 and x2 lie in the row A_d = X & (Y + d) and its doubled center is
(s, s - 2d), s = x1 + x2.  A center has one offset, so the centers of d are
the distinct sums of two elements of A_d, deduplicated within the row only;
a 1D set A is X = Y = A.  The offset join convolves the rows' occupancy cells
by a float64 FFT that rounds exactly, a strip at a time; for X = Y the sparse
join reads the rows off all pairs sorted by difference.  Other sets take the
per-width raster sweep or the same-row pair scan, and boundaries are swept
once per radius; every kernel makes its rows in order.  A finder prices its
kernels before any runs, some on a floor that only their own first phase
prices exactly, and runs the one of least exact work that fits both limits.
"""

from __future__ import annotations

from bisect import insort
from functools import partial
from typing import Callable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core_sets import (
    COORD_LIMIT,
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


# The per-width raster sweep's work is its cell steps over RATIO; the pair
# scan's is its same-row pairs within reach.  Measured (2-core x86-64, numpy
# 2.4.6) in steps a pair, the sweep won at 27 (`gen countable --alpha 1 --K 4`
# block 2: 0.15 s against 0.41 s) and at 44-78 (random points of a square box:
# 6,000 of 200**2, 3.9 ms against 13 ms) and lost at 85 (`--K 3` block 1:
# 0.16 s against 0.11 s) and from 403 on (4,500 of 300**2).  Against the offset
# join it lost from 80 steps a unit of work on (a 20 x 25 product over 60 x 80:
# 0.87 ms against 0.48 ms).
DENSE_VERTEX_RATIO = 70

# The offset join's cells, each weighed by its FFT length's bit length, per
# unit of work.  On the same box D_4..D_8, D_6 x D_5 and random subsets of
# [0, 800) and [0, 3000) ran 31-41 of them in the time the sparse join takes
# for a pair (8.6 M pairs a CPU second, 5,000 random values of [0, 10**12));
# 300 values of [0, 10**6) by 0..19, whose rows mostly hold under two cells,
# ran ~180.  Under 30, D_7 fits the default budget and D_8 needs a scale of 1.88.
_FFT_CELLS_PER_WORK = 30

# The boundary sweep's cells read (each radius's slices, summed over the
# radii) per unit of work.  Counting on the same box, the boundary examples
# read k = 4 at all radii (75,497,344 cells) in 0.14-0.23 s, 1.9-3.0 ns a
# cell, and k = 5 and k = 6 to r = 20 (68,823,160 and 299,231,140 cells) in
# 0.35-0.37 s and 1.6 s, ~5.4 ns a cell: 19-53 cells to the ~100 ns of a unit
# of the joins.  Under 20, those three fit the default budget and k = 5 at
# all radii (1.1 G cells, 3.5-3.9 s) does not.
_SWEEP_CELLS_PER_WORK = 20


def _check_mode(mode: str) -> None:
    if mode not in ("enumerate", "count"):
        raise ParameterError(f"mode must be 'enumerate' or 'count', got {mode!r}")


def _no_centers(mode: str) -> CenterRows | int:
    return 0 if mode == "count" else CenterRows._in_order(np.zeros((0, 2), dtype=np.int64))


def _check_r_max(r_max: int) -> int:
    return _int_param(r_max, "r_max must be an integer >= 1", lo=1)


def _pairs_1d(a: np.ndarray, op) -> np.ndarray:
    """The ufunc op(a_j, a_i) over all i < j, ordered by i, then j: with np.add
    and np.subtract, the doubled midpoints and the differences of the pairs."""
    out = np.empty(len(a) * (len(a) - 1) // 2, dtype=np.int64)
    end = 0
    for i in range(len(a) - 1):
        start, end = end, end + len(a) - 1 - i
        op(a[i + 1:], a[i], out=out[start:end])
    return out


def _fft_len(m: int) -> int:
    """The least 2**a * 3**b >= m: a length numpy's FFT transforms fast."""
    return min(t << (-(-m // t) - 1).bit_length() for t in (3**b for b in range(m.bit_length())))


def _join_offsets(xs: np.ndarray, ys: np.ndarray, mode: str) -> CenterRows | int:
    """Doubled centers (X, Y) of the squares with vertices in X x Y, one
    offset d of their corners at a time.

    The distinct sums a + b, a < b in A_d, are the entries >= 2 of the
    autoconvolution of A_d's occupancy row, which counts ordered pairs.
    The rows, framed on the set of the shorter span, are convolved by float64
    FFT a strip at a time, cropped to where they can hold cells; with X = Y,
    only d >= 0 (-d mirrors d).  Enumerated centers are marked in one bool
    raster whose nonzeros come out in lexicographic order.
    """
    lx, ly = int(xs[-1]) - int(xs[0]) + 1, int(ys[-1]) - int(ys[0]) + 1
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


def _sparse_bytes(pairs: int, joins: int, widest: int, mode: str) -> int:
    """Peak bytes of the sparse join: int64 arrays of all pairs and a strip of
    rows' elements and sums (<= 3 a join), the widest row's at least; enumerating,
    the midpoints, a rank a pair, a key and a row for up to two centers a join."""
    return 24 * pairs + 48 * max(widest * (widest + 1) // 2, min(3 * joins, _STRIP_CELLS)) + (
        12 * pairs + 48 * joins + 2 * _READOUT_BYTES if mode == "enumerate" else 0)


def _sparse_join(a: np.ndarray, mode: str) -> _Kernel:
    """The offset join of A with itself, its rows A_d the upper ends of the
    pairs of difference d > 0, which a stable sort keeps ascending; the
    distinct midpoints are the centers of d = 0.  This first phase sorts the
    differences and finds their runs of ties, the rows, which price the join
    exactly; it peaks at 17 bytes a pair, under the 24 of the floor it passed,
    and returns the kernel that goes on from the 9 it keeps."""
    diff = _pairs_1d(a, np.subtract)  # only the pair 2**63 apart wraps: a run of one
    order = np.argsort(diff, kind="stable")
    diff.sort()
    # the runs of two or more equal differences, as [start, end] in sorted order
    tied = np.zeros(len(diff) + 1, dtype=bool)
    np.equal(diff[1:], diff[:-1], out=tied[1:-1])
    del diff
    edges = np.flatnonzero(tied[1:] != tied[:-1])
    starts, sizes = edges[0::2], edges[1::2] - edges[0::2] + 1
    joins = int(np.dot(sizes, sizes - 1)) // 2
    return _Kernel(_SPARSE_JOIN, _sparse_bytes(len(order), joins, int(sizes.max(initial=0)), mode),
                   len(order) + 2 * joins,
                   partial(_sparse_rows, a, mode, [order, tied, starts, sizes]))


def _sparse_rows(a: np.ndarray, mode: str, arrays: list[np.ndarray]) -> CenterRows | int:
    """The rest of the sparse join, from the first phase's `arrays`, taken out
    of the list so that each is freed once read.  Rows of one size are sorted
    along their sums at once, rows of three or fewer not at all."""
    order, tied, starts, sizes = arrays
    arrays.clear()
    # enumerating, the rows' sums: ranks of the tied pairs' midpoints, searched in order
    enum = mode == "enumerate"
    tied = order[np.flatnonzero(tied[1:] | tied[:-1]) if enum else slice(0)]
    mid = _pairs_1d(a, np.add)
    near = mid[tied]
    mid.sort()
    new = np.concatenate(([True], mid[1:] != mid[:-1]))
    count, mids = int(np.count_nonzero(new)), mid[new] if enum else mid[:0]
    del mid, new
    tied = tied[np.argsort(near)]
    near.sort()
    rank = np.empty(len(order) if enum else 0, dtype=np.int64)
    rank[tied] = np.searchsorted(mids, near)
    del tied, near
    base = np.cumsum(np.arange(len(a) - 1, 0, -1)) - len(a)  # pair (i, j) at base[i] + j
    b = (len(mids) - 1).bit_length()
    assert 2 * b <= 63  # under 2**31 midpoints: over 48 GiB of pairs
    keys = [np.arange(len(mids)) * ((1 << b) + 1)]
    for m in unique_ints(sizes).tolist():
        at = starts[sizes == m]
        u, v = np.triu_indices(m, 1)
        step = max(1, _STRIP_CELLS // (m + len(u)))
        for lo in range(0, len(at), step):
            pair = order[at[lo:lo + step, None] + np.arange(m)]
            # the lower ends i: k = n - 1 - i has k(k - 1)/2 <= q < k(k + 1)/2, q pairs after
            i = len(a) - 1 - ((np.sqrt(8 * (len(order) - 1 - pair) + 1) + 1) // 2).astype(np.int64)
            j = pair - base[i]  # and the upper ends, a[j] = a[i] + d: centers (s, s - 2d)
            s = (rank[base[j[:, u]] + j[:, v]] << b | rank[base[i[:, u]] + i[:, v]] if enum
                 else a[i[:, u]] + a[i[:, v]])  # keyed by the sums' ranks, or counted by s - 2d
            new = np.ones(s.shape, dtype=bool)
            if m > 3:
                s.sort(axis=1)
                np.not_equal(s[:, 1:], s[:, :-1], out=new[:, 1:])
            s = s[new]
            count += 2 * len(s)
            keys += [s, (s & ((1 << b) - 1)) << b | s >> b] if enum else []
    if not enum:
        return count
    del order, rank, base
    keys = np.concatenate(keys)  # the rows (X, X), (s, t) and (t, s): distinct, sorted once
    keys.sort()
    rows = np.empty((len(keys), 2), dtype=np.int64)
    for lo in range(0, len(keys), _STRIP_CELLS):
        i, j = keys[lo:lo + _STRIP_CELLS] >> b, keys[lo:lo + _STRIP_CELLS] & ((1 << b) - 1)
        rows[lo:lo + len(i), 0], rows[lo:lo + len(i), 1] = mids[i], mids[j]
    return CenterRows._in_order(rows)


class _Kernel(NamedTuple):
    """A kernel a finder can run, priced before it runs: what it makes, its
    peak bytes and its work, and the call that runs it; or, priced on a floor,
    its first phase, which prices it exactly and returns the rest as a kernel."""

    what: str
    nbytes: int
    work: int
    run: Callable[[], CenterRows | int] | None
    exact: Callable[[], _Kernel] | None = None


def _fits(nbytes: int, work: int) -> bool:
    return (nbytes <= effective_budget(DEFAULT_BYTE_LIMIT)
            and work <= effective_budget(DEFAULT_WORK_LIMIT))


def _run_first_fitting(kernels: list[_Kernel]) -> CenterRows | int:
    """Run the kernel of least exact work that fits both limits, the order of
    `kernels` breaking ties.  Kernels are taken by least work: one that does
    not fit is kept for the refusal, one priced on a floor is priced exactly
    and put back after those of equal work, and the first priced exactly that
    fits runs, every other kernel released first.  When none fits, refuse
    with the one of least work, at the most exact price taken."""
    queue, refused = sorted(kernels, key=lambda k: k.work), []
    while queue:
        k = queue.pop(0)
        if not _fits(k.nbytes, k.work):
            refused.append(k)
        elif k.exact:
            insort(queue, k.exact(), key=lambda k: k.work)
        else:
            del queue, refused
            break
    else:
        k = min(refused, key=lambda k: k.work)
    require_budget(k.what, nbytes=k.nbytes, work=k.work)
    return k.run()


_SPARSE_JOIN = "the common-radius pair sweep"


def _join_kernels(xs: np.ndarray, ys: np.ndarray, mode: str) -> list[_Kernel]:
    """The kernels that find the doubled centers of the squares with vertices
    in X x Y (sorted X, Y of two elements or more), priced: the offset join,
    and for X = Y the sparse join.  The offset join's work is the cells its
    rows overlap, weighed by the bit length of its FFT.  The sparse join's is
    the sweep, the sum over r > 0 of c(r)**2, listed on its Cauchy-Schwarz
    floor pairs**2 / min(pairs, span) and priced exactly by its first phase."""
    lx, ly = int(xs[-1]) - int(xs[0]) + 1, int(ys[-1]) - int(ys[0]) + 1
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
    return [offsets, _Kernel(_SPARSE_JOIN, _sparse_bytes(pairs, (sweep - pairs) // 2, 0, mode),
                             sweep, None, partial(_sparse_join, xs, mode))]


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
    x0, y0, w, h = box = _grid_box(b)
    cells = _raster(b, box)
    marks = np.zeros((2 * w - 1, 2 * h - 1), dtype=bool)
    for s in range(1, min(w, h)):
        marks[s:2 * w - s:2, s:2 * h - s:2] |= (cells[:w - s, :h - s] & cells[s:, :h - s]
                                                & cells[:w - s, s:] & cells[s:, s:])
    return (int(np.count_nonzero(marks)) if mode == "count"
            else CenterRows._marked_rows(marks, (2 * x0, 2 * y0)))


def _line_ends(keys: np.ndarray, rank: np.ndarray, along: np.ndarray, values: np.ndarray,
               reach: np.ndarray) -> np.ndarray:
    """For points sorted by their rank keys line * |values| + rank, rank the
    rank of `along` in `values`, the index past the last point of each one's
    line at most `reach` beyond it.  `reach` is a difference of two
    coordinates, exact read as uint64, and along + reach is clamped at
    COORD_LIMIT, so no sum leaves int64."""
    room = np.minimum(reach.view(np.uint64), (COORD_LIMIT - along).view(np.uint64))
    last = np.searchsorted(values, (along.view(np.uint64) + room).view(np.int64), "right")
    return np.searchsorted(keys, keys - rank + last)


_PAIR_SCAN = "the same-row pair scan"


def _pair_scan(b: PointSet2D, xs: np.ndarray, ys: np.ndarray, mode: str) -> _Kernel:
    """Same-row pair scan, on B's rows sorted by (y, x): points (a, y) and
    (c, y) with a < c are the bottom edge of exactly one square, whose top
    corners (a, y + w) and (c, y + w), w = c - a, are looked up in B's sorted
    rank keys rank(y) * |X| + rank(x), exact for any coordinates, both ranks
    being below |B|.  A point pairs with those after it in its row within the
    reach max Y - y, the tallest square whose top row is in B.  This first
    phase sorts B by row once, builds the keys, x and y in that order and each
    point's row end within reach, and returns the kernel that scans from them.

    Its work is the same-row pairs within reach.  Its bytes are its keys,
    sorted coordinates, pair ends and one offset's probes, and a row a square
    found, their concatenation and its sort: measured up to 110 a point and 54
    a square of a bound on those it finds, priced at 128 and 64.  A square's
    bottom-left corner p pairs with its bottom-right corner in p's row, within
    reach, and with its top-left corner in p's column, within the room max X - x
    to the right, so p is the bottom-left corner of at most the fewer of those
    partners' squares."""
    pts = b.as_array()
    rx, ry = np.searchsorted(xs, pts[:, 0]), np.searchsorted(ys, pts[:, 1])
    up = _line_ends(rx * len(ys) + ry, ry, pts[:, 1], ys, xs[-1] - pts[:, 0])  # B's order
    up -= np.arange(1, len(pts) + 1)
    order = np.argsort(ry, kind="stable")  # B is sorted by x, then y
    up, rank, x, y = up[order], rx[order], pts[order, 0], pts[order, 1]
    keys = ry[order] * len(xs) + rank
    del order, rx, ry
    end = _line_ends(keys, rank, x, xs, ys[-1] - y)
    right = end - np.arange(1, len(pts) + 1)
    squares = int(np.minimum(right, up, out=up).sum())
    return _Kernel(_PAIR_SCAN, 128 * len(b) + 64 * squares, int(right.sum()),
                   partial(_pair_scan_rows, ys, len(xs), mode, [keys, rank, x, y, end]))


def _pair_scan_rows(ys: np.ndarray, nx: int, mode: str, arrays: list) -> CenterRows | int:
    """The rest of the pair scan, from the first phase's `arrays`, taken out of
    the list so that each is freed once read.  Every square is found once,
    through its bottom edge, at doubled center (a + c, 2y + w).  The bottom
    pairs (i, i + t) run one offset t at a time: a pair that leaves its row or
    its reach at t stays out at t + 1, so the active pairs only shrink."""
    keys, rank, x, y, end = arrays
    arrays.clear()
    found, act, t = [np.zeros((0, 2), dtype=np.int64)], np.arange(len(keys)), 1
    while len(act := act[act + t < end[act]]):
        w = x[act + t] - x[act]  # int64 may wrap here: only the results need fit
        top = y[act] + w
        line = np.searchsorted(ys, top)  # top <= max Y
        on = ys[line] == top
        i, w = act[on], w[on]
        corners = line[on] * nx + rank[np.stack((i, i + t))]  # the top corners' keys
        hit = np.all(keys.take(np.searchsorted(keys, corners), mode="clip") == corners, axis=0)
        if hit.any():
            found.append(np.column_stack((x[i[hit]] + x[i[hit] + t], 2 * y[i[hit]] + w[hit])))
        t += 1
    del keys, rank, x, y, end
    # nested squares share a center, found once per bottom edge: _adopt sorts them out
    found = np.concatenate(found)
    rows = CenterRows._adopt(found)
    return len(rows) if mode == "count" else rows


def find_vertex_centers_2d(b: PointSet2D, mode: str = "enumerate") -> CenterRows | int:
    """Centers of axis-parallel squares with all four vertices in B."""
    _check_mode(mode)
    pts = b.as_array()
    xs, ys = unique_ints(pts[:, 0]), unique_ints(pts[:, 1])
    if min(len(xs), len(ys)) < 2:  # a square needs two of each
        return _no_centers(mode)
    # B = X x Y exactly when |B| = |X| * |Y|: the join's case
    product = len(xs) * len(ys) == len(b)
    w, h = int(xs[-1]) - int(xs[0]) + 1, int(ys[-1]) - int(ys[0]) + 1
    m = min(w, h) - 1
    # sweep = sum of (w - s) * (h - s) over the widths s = 1..m
    sweep = m * w * h - (w + h) * m * (m + 1) // 2 + m * (m + 1) * (2 * m + 1) // 6
    # the cells, a (2w - 1) x (2h - 1) marks raster and two temporaries; an
    # enumeration reads out up to 16 + 3 bytes a mark
    raster = 7 * w * h + _RASTER_BYTES + (76 * w * h + _READOUT_BYTES
                                          if mode == "enumerate" else 0)
    joins = _join_kernels(xs, ys, mode) if product else []
    # the pair scan's floor: 128 bytes a point, and a product's rows whose reach
    # spans X, all |X|(|X| - 1)/2 pairs each; for A x A, its squares, one such
    # pair and 64 bytes each, which number at least the sparse join's floor
    full = int(np.count_nonzero((ys[-1] - ys).view(np.uint64) >= w - 1))
    squares = joins[1].work if len(joins) > 1 else 0
    return _run_first_fitting(joins + [
        _Kernel(f"the per-width raster sweep of a {w} x {h} grid", raster,
                sweep // DENSE_VERTEX_RATIO, partial(_vertex_centers_dense, b, mode)),
        _Kernel(_PAIR_SCAN, 128 * len(b) + 64 * squares,
                max(squares, full * len(xs) * (len(xs) - 1) // 2 if product else 0),
                None, partial(_pair_scan, b, xs, ys, mode))])


def find_boundary_centers_2d(b: PointSet2D, r_max: int,
                             mode: str = "enumerate") -> CenterRows | int:
    """All (lattice center, radius) pairs whose full square boundary lies in B.

    One vectorized pass per radius: four strided slices of the grid's run
    tables decide "row/column segment completely occupied" for every in-range
    center at once, marked in one (x, y, r) raster read out in order.
    """
    _check_mode(mode)
    r_max = _check_r_max(r_max)
    if not len(b):
        return 0 if mode == "count" else CenterRows._in_order(np.zeros((0, 3), dtype=np.int64))
    x0, y0, w, h = _grid_box(b)
    r_eff = min(r_max, (w - 1) // 2, (h - 1) // 2)
    # the cells its four slices read, sum of (w - 2r)(h - 2r) over r = 1..R;
    # the grid, and 2 bytes a cell of a radius's read (a bool and a
    # comparison); an enumeration marks a w x h x R raster and reads out
    # 24 + 3 bytes a mark
    read = (r_eff * (w * h - (w + h) * (r_eff + 1))
            + 4 * (r_eff * (r_eff + 1) * (2 * r_eff + 1) // 6))
    require_budget(f"the per-radius boundary sweep of a {w} x {h} occupancy grid",
                   work=read // _SWEEP_CELLS_PER_WORK,
                   nbytes=(_GRID_CELL_BYTES + 2) * w * h + _RASTER_BYTES
                   + (28 * w * h * r_eff + _READOUT_BYTES if mode == "enumerate" else 0))
    grid = OccupancyGrid.from_points(b)
    if mode == "count":
        return sum(int(np.count_nonzero(grid.full_at_radius(r))) for r in range(1, r_eff + 1))
    marks = np.zeros((w, h, r_eff), dtype=bool)
    for r in range(1, r_eff + 1):
        marks[r:w - r, r:h - r, r - 1] = grid.full_at_radius(r)
    return CenterRows._marked_rows(marks, (2 * x0, 2 * y0, 2), 2)

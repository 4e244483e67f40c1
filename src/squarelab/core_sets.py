"""Exact integer ground types for finite lattice sets.

Everything downstream (constructions, finders, dimension estimates) works over
plain integers: 1D sets are strictly increasing int64 arrays, 2D sets are
(N, 2) int64 arrays of distinct points in (x, y) order, and square centers and
radii travel in *doubled* coordinates (2x, 2y, 2r) so half-integer centers stay
exact.  Real-valued constructions are scaled into integers before they reach
this layer.

Both set types and the finders' results share one core (:class:`_RowSet`)
and so one rule for outside input: one coordinate check (:func:`_coord_array`),
a sort and deduplication unless it is canonical already, and a frozen array
copied only when it shares memory with the caller's array.  Rows made in
order (a generator's, a finder's, a raster's read by :meth:`_marked_rows`)
are kept unchecked.  Membership is one binary search over the rows, a 1D set
being the one-column case.

The :class:`OccupancyGrid` holds the run lengths of a dense 0/1 raster along
both axes, so "is the whole boundary of this square occupied" is four
lookups and four comparisons: at any centers and radii, broadcast (the
replays), or at one radius for every center, as four strided slices (the
boundary sweep).  That test is the inner loop of boundary-square detection,
which is why it earns the memory it spends.
"""

from __future__ import annotations

import io
import math
import operator
import os
import re
import stat
import warnings
from functools import partial
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from fractions import Fraction

# Coordinates are capped well inside int64 so doubling, prefix sums, and numpy
# fast paths can never overflow.  Anything bigger is a usage error at the scales
# this library targets.
COORD_LIMIT = 2**62

# The two limits every guard checks, each scaled by SQUARELAB_BUDGET: the peak
# bytes a kernel holds, output included, and its work in elementary steps (a
# swept pair, a boundary-sweep cell, a value formed or looked up).
DEFAULT_BYTE_LIMIT = 2**29
DEFAULT_WORK_LIMIT = 20_000_000

_BUDGET_ENV = "SQUARELAB_BUDGET"


class SquareLabError(Exception):
    """Base class for every error this package raises on purpose."""


class ParameterError(SquareLabError, ValueError):
    """A parameter is outside the supported domain (bad k, p, mode string, ...)."""


class RangeError(SquareLabError, ValueError):
    """A coordinate or index falls outside the representable / declared range."""


class ModeError(SquareLabError, ValueError):
    """The requested operation is incompatible with the object's mode."""


class BudgetError(SquareLabError):
    """A guard refused to run a kernel.  Carries the estimate, the limit it
    tripped and their unit, bytes or work, as its message states them."""

    def __init__(self, message: str, *, estimate: int, limit: int, unit: str):
        super().__init__(f"{message} (estimated {estimate:,} {unit}, budget {limit:,}; "
                         f"raise via {_BUDGET_ENV})")
        self.estimate = estimate
        self.limit = limit
        self.unit = unit


class FormatError(SquareLabError, ValueError):
    """A text file violated the set-file format.  Knows where."""

    def __init__(self, message: str, *, source: str = "<string>", lineno: int | None = None):
        where = source if lineno is None else f"{source}:{lineno}"
        super().__init__(f"{where}: {message}")
        self.source = source
        self.lineno = lineno


def budget_scale() -> float:
    """Scale factor applied to every default guard (SQUARELAB_BUDGET, default 1)."""
    raw = os.environ.get(_BUDGET_ENV)
    if raw is None:
        return 1.0
    try:
        scale = float(raw)
    except ValueError:
        raise ParameterError(f"{_BUDGET_ENV} must be a positive number, got {raw!r}") from None
    if not (math.isfinite(scale) and scale > 0):
        raise ParameterError(f"{_BUDGET_ENV} must be a positive number, got {raw!r}")
    return scale


def effective_budget(default: int) -> int:
    """A guard's limit: its default times the SQUARELAB_BUDGET scale."""
    return int(default * budget_scale())


def require_budget(what: str, *, nbytes: int = 0, work: int = 0) -> None:
    """Raise BudgetError unless the kernel that makes `what` fits both limits:
    its peak `nbytes` and its `work`, each priced before it allocates."""
    for estimate, default, unit in ((nbytes, DEFAULT_BYTE_LIMIT, "bytes"),
                                    (work, DEFAULT_WORK_LIMIT, "work")):
        limit = effective_budget(default)
        if estimate > limit:
            raise BudgetError(f"refusing to materialize {what}", estimate=estimate,
                              limit=limit, unit=unit)


def _check_coord(v: int) -> int:
    if not isinstance(v, (int, np.integer)):
        raise ParameterError(f"expected an integer coordinate, got {type(v).__name__}")
    v = int(v)
    if abs(v) > COORD_LIMIT:
        raise RangeError(f"coordinate {v} exceeds the supported magnitude 2**62")
    return v


def _int_param(v: object, what: str, lo: int | None = None, hi: int | None = None,
               error: type[SquareLabError] = ParameterError) -> int:
    """`v` as an int when it is an integer (a numpy integer too, never a bool)
    in lo..hi; otherwise `error` says `what`, and what `v` was."""
    try:
        n = None if isinstance(v, bool) else operator.index(v)
    except TypeError:
        n = None
    if n is None or (lo is not None and n < lo) or (hi is not None and n > hi):
        raise error(f"{what}, got {v!r}")
    return n


def _as_fraction(s: object) -> Fraction:
    """`s` as an exact fraction: a Fraction, its text, or an integer taken as
    :func:`_int_param` takes one (a numpy integer too, never a bool)."""
    from fractions import Fraction  # loads decimal too: imported only where one is built
    if isinstance(s, Fraction):
        return s
    if isinstance(s, str):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise ParameterError(f"cannot parse {s!r} as an exact fraction") from None
    return Fraction(_int_param(s, "expected an integer, a Fraction or its text"))


def _check_pair(row: object, i: int) -> tuple[int, int]:
    """Row `i` of a point input as an (x, y) pair of checked coordinates."""
    try:
        x, y = row
    except (TypeError, ValueError):
        raise ParameterError(f"row {i} is not an (x, y) pair: {row!r}") from None
    return _check_coord(x), _check_coord(y)


def _coord_array(values: Iterable, width: int) -> np.ndarray:
    """Integers (width 1) or (x, y) pairs (width 2) as an int64 array of shape
    (N,) or (N, 2), refused as :func:`_check_coord` refuses the first bad
    coordinate in iteration order (x before y)."""
    values = values if isinstance(values, np.ndarray) else list(values)
    shape = (-1,) if width == 1 else (-1, width)
    try:
        arr = np.asarray(values)
    except (OverflowError, ValueError):
        arr = None
    if (arr is None or arr.ndim != len(shape) or arr.shape[1:] != shape[1:]
            or arr.dtype.kind not in "iu"
            or arr.size and (arr.max() > COORD_LIMIT or arr.min() < -COORD_LIMIT)):
        # only the scalar check names the first culprit
        checked = ([_check_coord(v) for v in values] if width == 1
                   else [_check_pair(row, i) for i, row in enumerate(values)])
        return np.array(checked, dtype=np.int64).reshape(len(checked), *shape[1:])
    return arr.astype(np.int64, copy=False)


def _int_array(v: object, what: str) -> np.ndarray:
    """`v` as an int64 array if its dtype is an integer one (never bool)."""
    if (arr := np.asarray(v)).dtype.kind not in "iu":
        raise ParameterError(f"{what} must be integers, got {arr.dtype} values")
    return arr.astype(np.int64, copy=False)


def _frozen(arr: np.ndarray, given: object = None) -> np.ndarray:
    """`arr` read-only, copied first if it shares memory with the caller's `given`."""
    if isinstance(given, np.ndarray) and np.may_share_memory(arr, given):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def unique_ints(values: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending, by a neighbour mask on
    non-decreasing 1D input (itself if strictly increasing) or else on a sort:
    on numpy 2.4 ~100x faster than ``np.unique`` for millions of int64 keys."""
    out = (values if values.ndim == 1 and np.all(values[1:] >= values[:-1])
           else np.sort(values, axis=None))
    new = out[1:] != out[:-1]
    return out if new.all() else out[np.concatenate(([True], new))]


def _lex_unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an (N, k) int64 array in lexicographic order, or
    the distinct values of an (N,) one ascending.

    Input that is already strictly increasing comes back as is.
    """
    if rows.ndim == 1:
        return unique_ints(rows)
    if len(rows) < 2:
        return rows
    later = np.zeros(len(rows) - 1, dtype=bool)
    tied = np.ones(len(rows) - 1, dtype=bool)
    for col in rows.T:
        later |= tied & (col[1:] > col[:-1])
        tied &= col[1:] == col[:-1]
    if later.all():
        return rows
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.concatenate(([True], np.any(rows[1:] != rows[:-1], axis=1)))]


_STRIP_CELLS = 2**18  # cells of a raster read into rows at a time, or of a join strip
_READOUT_BYTES = 16 * _STRIP_CELLS  # a read-out's strip of cell indices, beside its rows


class _RowSet:
    """Distinct rows in lexicographic order, held as one read-only int64
    array: (N,) for a set of integers, the one-column case, else (N, k).

    A subclass says how outside input is checked (:func:`_coord_array` at its
    ``_width``, or not at all for the rows a finder makes) and how an item
    reads as a row (:meth:`_row`).  Outside input is sorted and deduplicated
    only if it is not in order yet, and copied only if it shares memory with
    the caller's array; rows made in order go to :meth:`_in_order` unchecked.
    Sets compare and hash by their rows, within one type.
    """

    __slots__ = ("_arr",)
    _width: int | None = None

    def __init__(self, rows: Iterable | np.ndarray):
        self._arr = self._adopt(rows, rows)._arr

    @classmethod
    def _adopt(cls, rows: Iterable | np.ndarray, given: object = None):
        """The set of outside `rows`, checked, and sorted and deduplicated unless
        in order already; its array is copied only if it shares `given`'s."""
        if cls._width is not None:
            rows = _coord_array(rows, cls._width)
        return cls._in_order(_lex_unique_rows(rows), given)

    @classmethod
    def _in_order(cls, rows: np.ndarray, given: object = None):
        """The set of `rows`, distinct and in order already: kept unchecked."""
        out = cls.__new__(cls)
        out._arr = _frozen(rows, given)
        return out

    @classmethod
    def _marked_rows(cls, marks: np.ndarray, origin: tuple[int, ...], scale: int = 1):
        """The set of rows origin + scale * (i, j, ...) of the cells marked in a
        bool raster ``marks``, read a strip at a time into one array, in order."""
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
        return cls._in_order(found)

    def as_array(self) -> np.ndarray:
        return self._arr

    def __len__(self) -> int:
        return len(self._arr)

    @staticmethod
    def _row(item: object) -> object:
        """The tuple of integers that `item` is as a row."""
        return item

    def __contains__(self, item: object) -> bool:
        """A binary search per column within the rows that match the earlier
        columns; only a tuple of int64 values of the set's width can match."""
        key = self._row(item)
        rows = self._arr[:, None] if self._arr.ndim == 1 else self._arr
        if (not isinstance(key, tuple) or len(key) != rows.shape[1]
                or not all(isinstance(v, (int, np.integer)) and -2**63 <= v < 2**63
                           for v in key)):
            return False
        lo, hi = 0, len(rows)
        for col, v in zip(rows.T, map(int, key)):  # int: a uint64 would search as a float
            part = col[lo:hi]
            lo, hi = (lo + int(np.searchsorted(part, v, "left")),
                      lo + int(np.searchsorted(part, v, "right")))
            if lo == hi:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return np.array_equal(self._arr, other._arr)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._arr.tobytes())


class IntSet1D(_RowSet):
    """A finite set of integers: one read-only, strictly increasing int64 array.

    Construct through :func:`make_intset` (which sorts and deduplicates) or the
    strict constructor, which :meth:`from_sorted_array` calls under its own name.
    """

    __slots__ = ()
    _width = 1

    def __init__(self, elems: Iterable[int]):
        arr = _coord_array(elems, 1)
        if not np.all(arr[1:] > arr[:-1]):
            raise ParameterError("IntSet1D requires strictly increasing elements; "
                                 "use make_intset() to sort and deduplicate")
        self._arr = _frozen(arr, elems)

    @classmethod
    def from_sorted_array(cls, arr: np.ndarray) -> "IntSet1D":
        """The set of a strictly increasing integer array, checked as the constructor checks."""
        return cls(arr)

    @staticmethod
    def _row(v: object) -> tuple:
        return (v,)

    @property
    def elems(self) -> tuple[int, ...]:
        return tuple(self._arr.tolist())

    def min(self) -> int:
        if not self._arr.size:
            raise RangeError("empty set has no minimum")
        return int(self._arr[0])

    def max(self) -> int:
        if not self._arr.size:
            raise RangeError("empty set has no maximum")
        return int(self._arr[-1])

    def translate(self, offset: int) -> "IntSet1D":
        offset = _check_coord(offset)
        return IntSet1D([v + offset for v in self])

    def __iter__(self) -> Iterator[int]:
        return iter(self._arr.tolist())

    def __repr__(self) -> str:
        if len(self) <= 8:
            return f"IntSet1D({self._arr.tolist()})"
        return f"IntSet1D(<{len(self)} elements, {self.min()}..{self.max()}>)"


def make_intset(values: Iterable[int]) -> IntSet1D:
    """Sort, deduplicate, and validate integers into an :class:`IntSet1D`."""
    return IntSet1D._adopt(values, values)


class PointSet2D(_RowSet):
    """A finite set of lattice points: one read-only (N, 2) int64 array of
    distinct (x, y) rows in lexicographic order.

    Duplicates in the input collapse silently; emptiness is legal.
    """

    __slots__ = ()
    _width = 2
    # an entry of this class's own, so that bench/tracing.py can wrap it alone
    __init__ = _RowSet.__init__

    @classmethod
    def product(cls, xs: IntSet1D, ys: IntSet1D) -> "PointSet2D":
        xa, ya = xs.as_array(), ys.as_array()
        rows = np.empty((len(xa), len(ya), 2), dtype=np.int64)
        rows[..., 0], rows[..., 1] = xa[:, None], ya  # broadcast, born in order
        return cls._in_order(rows.reshape(-1, 2))

    @property
    def points(self) -> frozenset[tuple[int, int]]:
        return frozenset(self)

    def bbox(self) -> tuple[int, int, int, int] | None:
        """(xmin, ymin, xmax, ymax), or None for the empty set."""
        if not len(self._arr):
            return None
        ys = self._arr[:, 1]
        return int(self._arr[0, 0]), int(ys.min()), int(self._arr[-1, 0]), int(ys.max())

    def translate(self, dx: int, dy: int) -> "PointSet2D":
        dx, dy = _check_coord(dx), _check_coord(dy)
        return PointSet2D((x + dx, y + dy) for x, y in self)

    def transpose(self) -> "PointSet2D":
        return PointSet2D(self._arr[:, ::-1])

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self._arr[:, 0].tolist(), self._arr[:, 1].tolist())

    def __repr__(self) -> str:
        return f"PointSet2D(<{len(self)} points>)"


class DoubledPoint(NamedTuple):
    """A point in doubled coordinates: (X, Y) encodes (X/2, Y/2)."""

    X: int
    Y: int


def _grid_box(points: PointSet2D) -> tuple[int, int, int, int]:
    """(x0, y0, width, height) of a non-empty point set's bounding box."""
    bbox = points.bbox()
    if bbox is None:
        raise ParameterError("cannot build a grid from an empty point set")
    xmin, ymin, xmax, ymax = bbox
    return xmin, ymin, xmax - xmin + 1, ymax - ymin + 1


_RASTER_BLOCK = 2**16  # points marked per block: 1 MiB of cell indices
_RASTER_BYTES = 16 * _RASTER_BLOCK
_GRID_CELL_BYTES = 9  # a bool cell, one int32 run table and the next one's build


def _raster(points: PointSet2D, box: tuple[int, int, int, int]) -> np.ndarray:
    """Bool cells over a non-empty point set's box (x0, y0, width, height),
    ``cells[i, j]`` for the lattice point ``(x0 + i, y0 + j)``, marked a block
    of points at a time; the caller has priced them."""
    x0, y0, width, height = box
    cells = np.zeros((width, height), dtype=bool)
    arr = points.as_array()
    for lo in range(0, len(arr), _RASTER_BLOCK):
        block = arr[lo:lo + _RASTER_BLOCK]
        cells[block[:, 0] - x0, block[:, 1] - y0] = True
    return cells


class OccupancyGrid:
    """Run lengths along both axes of a bool raster over a bounding box, with
    a four-sides test of whole square boundaries at any centers
    (:meth:`boundary_full`) or at all centers of one radius (:meth:`full_at_radius`).

    ``cells[i, j]`` covers the lattice point ``(x0 + i, y0 + j)``.  Two run
    tables hold the number of consecutive occupied cells that end at each
    cell, counting toward -x and toward -y, so "is every point of this side
    occupied" is one lookup at the side's far end and a comparison.  A square
    that leaves the stored box is simply not full — never an error.
    """

    __slots__ = ("x0", "y0", "width", "height", "_runs")

    def __init__(self, x0: int, y0: int, cells: np.ndarray):
        if cells.ndim != 2 or cells.dtype != bool:
            raise ParameterError("cells must be a 2D bool array")
        self.x0, self.y0 = x0, y0
        self.width, self.height = cells.shape
        # The run ending at index i of an axis is i minus the last empty index
        # at or before i (-1 if none); int32 holds it on any side under 2**31
        # cells, which the byte limit prices at 18 GiB of grid or more.
        self._runs = []
        for axis, idx in enumerate((np.arange(self.width, dtype=np.int32)[:, None],
                                    np.arange(self.height, dtype=np.int32))):
            run = np.where(cells, np.int32(-1), idx)
            np.maximum.accumulate(run, axis=axis, out=run)
            self._runs.append(np.subtract(idx, run, out=run))

    @staticmethod
    def price(width: int, height: int) -> None:
        """Refuse a width x height grid whose bytes do not fit the byte limit."""
        require_budget(f"a {width} x {height} occupancy grid",
                       nbytes=_GRID_CELL_BYTES * width * height + _RASTER_BYTES)

    @classmethod
    def from_points(cls, points: PointSet2D) -> "OccupancyGrid":
        """The grid over the bounding box of a non-empty point set, priced first."""
        box = _grid_box(points)
        cls.price(*box[2:])
        return cls(*box[:2], _raster(points, box))

    def boundary_full(self, sx, sy, r) -> np.ndarray:
        """Whether every one of the 8r points on the boundary of the square of
        radius r >= 1 around the lattice center (sx, sy) is occupied,
        broadcast over integer arrays.

        Each side is one run-length lookup at its far end; a square leaving
        the stored box is not full (out of the box is empty space).
        """
        i, j, r = (_int_array(v, "centers and radii") for v in (sx, sy, r))
        if r.size and r.min() < 1:
            raise ParameterError(f"radii must be >= 1, got {r.min()}")
        i, j = i - self.x0, j - self.y0
        full = ((i - r >= 0) & (i + r < self.width) & (j - r >= 0) & (j + r < self.height))
        if not full.all():
            i, j, r = (np.where(full, v, 0) for v in (i, j, r))
        n = 2 * r + 1
        along_x, along_y = self._runs
        full &= along_x[i + r, j + r] >= n  # top
        full &= along_x[i + r, j - r] >= n  # bottom
        full &= along_y[i - r, j + r] >= n  # left
        full &= along_y[i + r, j + r] >= n  # right
        return full

    def full_at_radius(self, r: int) -> np.ndarray:
        """:meth:`boundary_full` at one radius 1 <= r <= (min(width, height) - 1) // 2
        of every center whose square fits the box, entry [a, b] for the center
        (x0 + r + a, y0 + r + b): each side is one strided slice of its table."""
        n, d, (along_x, along_y) = 2 * r + 1, 2 * r, self._runs
        full = along_x[d:, d:] >= n  # top
        full &= along_x[d:, :self.height - d] >= n  # bottom
        full &= along_y[:self.width - d, d:] >= n  # left
        full &= along_y[d:, d:] >= n  # right
        return full


# ---------------------------------------------------------------------------
# Plain-text set files: one decimal integer per line (1D) or "x y" (2D),
# '#' starts a comment, blank lines ignored, LF newlines, ascending output.

# a leading '#' line of a file, ended by LF (a CR is data, so a header with
# CR line ends leaves the rest to the line walk)
_HEADER_LINE = re.compile(rb"#[^\r\n]*\n")
# the bytes numpy's C parser reads exactly as int() reads them, token by token
_PLAIN_BYTES = b"0123456789- \n"
_CHECK_BLOCK = 2**20  # bytes read per check, so no check holds the file
# suffixes numpy opens as compressed archives when it is given a path
_COMPRESSED = (".bz2", ".gz", ".xz", ".lzma")


def _decode_text(data: bytes, source: str) -> str:
    """A UTF-8 file's text with universal newlines, as text mode reads it;
    bytes that are not UTF-8 are a FormatError naming the line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[:exc.start] + b".").splitlines())
        raise FormatError(f"not UTF-8 text: byte {data[exc.start]:#04x}",
                          source=source, lineno=lineno) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _seekable(data: str | bytes | BinaryIO) -> BinaryIO:
    """A set file's text, bytes or open binary file as a seekable binary
    stream: a file that can seek as it stands, anything else in a BytesIO."""
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    if isinstance(data, bytes):
        return io.BytesIO(data)  # shares the bytes object's buffer
    return data if data.seekable() else io.BytesIO(data.read())


def _int_columns(data: str | bytes | BinaryIO, k: int,
                 path: os.PathLike | None = None) -> np.ndarray | None:
    """The data lines of a set file, from where its stream stands, as an
    (n, k) int64 array read by numpy's C parser, or None when the file needs
    the line walk.

    Past the leading '#' lines, which must be UTF-8, the file must hold only
    digits, '-', spaces and LF, each token one that int() takes and that
    fits int64, k per line.  The header is read a line and the data a 1 MiB
    block at a time.  numpy then reads the data from the stream itself, or,
    given the path of the regular file the stream reads from its start,
    from that path past the header lines: numpy reads a path a chunk at a
    time, any other file a line at a time.
    """
    stream = _seekable(data)
    start = stream.tell()
    header = 0
    while _HEADER_LINE.fullmatch(line := stream.readline(_CHECK_BLOCK)):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return None
        start += len(line)
        header += 1
    stream.seek(start)
    if any(block.translate(None, _PLAIN_BYTES)
           for block in iter(partial(stream.read, _CHECK_BLOCK), b"")):
        return None
    if path is None:
        stream.seek(start)
        load = partial(np.loadtxt, stream)
    else:
        load = partial(np.loadtxt, path, skiprows=header, encoding="utf-8")
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads a token past int64 as a float, with a
            # DeprecationWarning; an input with no data warns too
            warnings.simplefilter("error")
            rows = load(dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError, Warning):
        return None
    return rows if rows.shape[1] == k else None


# per column count: what a data line must hold, and what a bad one is not
_LINE_FORMS = {1: ("one integer", "an integer"), 2: ("'x y'", "an integer pair")}


def _parse_set(data: str | bytes | BinaryIO | os.PathLike, source: str, k: int, build,
               path: os.PathLike | None = None):
    """The set `build` makes of a file's data lines of k integers each.

    A path is opened; numpy is handed the path of a regular file, which it
    reads in chunks, and reads anything else (a pipe, a terminal) from the
    open file.  numpy's parser reads the file when it reads it as int()
    would.  Bytes it does not read are decoded (CRLF becomes LF, a byte that
    is not UTF-8 is refused) and the text tried again.  Anything else ('+5',
    '1_000', tabs, comments, values past int64, bad lines) takes the line
    walk, which names the first bad line; the constructor names the first
    value past 2**62.
    """
    if isinstance(data, os.PathLike):
        with open(data, "rb") as f:
            regular = (stat.S_ISREG(os.fstat(f.fileno()).st_mode)
                       and os.path.splitext(data)[1] not in _COMPRESSED)
            return _parse_set(f, source, k, build, data if regular else None)
    stream = _seekable(data)
    origin = stream.tell()
    rows = _int_columns(stream, k, path)
    if rows is None and not isinstance(data, str):
        stream.seek(origin)
        return _parse_set(_decode_text(stream.read(), source), source, k, build)
    if rows is None:
        form, noun = _LINE_FORMS[k]
        rows = []
        for lineno, raw in enumerate(data.split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != k:
                raise FormatError(f"expected {form}, got {line!r}",
                                  source=source, lineno=lineno)
            try:
                rows.append([int(part) for part in parts])
            except ValueError:
                raise FormatError(f"not {noun}: {line!r}",
                                  source=source, lineno=lineno) from None
    try:
        return build(rows)
    except RangeError as exc:
        raise FormatError(str(exc), source=source) from None


def parse_intset_text(text: str | bytes | BinaryIO | os.PathLike, *,
                      source: str = "<string>") -> IntSet1D:
    """The set of a 1D set file's text, or of its bytes, open binary file or
    path read as UTF-8 with universal newlines."""
    return _parse_set(text, source, 1, lambda rows: IntSet1D._adopt(
        rows[:, 0] if isinstance(rows, np.ndarray) else [v for v, in rows]))


def parse_pointset_text(text: str | bytes | BinaryIO | os.PathLike, *,
                        source: str = "<string>") -> PointSet2D:
    """The set of a 2D set file's text, or of its bytes, open binary file or
    path read as UTF-8 with universal newlines."""
    return _parse_set(text, source, 2, PointSet2D._adopt)


_FORMAT_BLOCK = 2**14                                  # values per output buffer
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)      # 10 .. 10**19


def _format_blocks(rows: np.ndarray, header: str | None = None) -> Iterator[str]:
    """Each row of an (N, k) int64 array as one line of space-separated
    decimals, LF-terminated, after a '# header' line when one is given,
    yielded a block of about 2**14 values at a time.

    Each block is written into one uint8 buffer: the digit count of every
    value comes from a search over the powers of ten, then each pass writes
    one digit position of the values that have it.
    """
    if header:
        yield f"# {header}\n"
    k = rows.shape[1]
    flat = rows.reshape(-1)
    step = max(1, _FORMAT_BLOCK // k) * k
    for start in range(0, flat.size, step):
        v = flat[start:start + step]
        neg = v < 0
        mag = np.abs(v).view(np.uint64)  # the bits of -2**63 read as 2**63
        width = np.searchsorted(_POW10, mag, "right") + neg + 2  # digits, sign, separator
        ends = np.cumsum(width)
        buf = np.full(int(ends[-1]), ord(" "), dtype=np.uint8)
        buf[ends[k - 1::k] - 1] = ord("\n")
        buf[(ends - width)[neg]] = ord("-")
        pos = ends - 2
        while mag.size:
            q = mag // 10  # and mag - 10 q the digit: ~9x faster than np.divmod on uint64
            buf[pos] = mag - q * 10 + ord("0")
            left = q > 0
            mag, pos = q[left], pos[left] - 1
        yield buf.tobytes().decode("ascii")


def _format_rows(rows: np.ndarray, header: str | None = None) -> str:
    """The blocks of :func:`_format_blocks` joined into one string."""
    return "".join(_format_blocks(rows, header))


def format_intset_text(s: IntSet1D, *, header: str | None = None) -> str:
    return _format_rows(s.as_array()[:, None], header) or "\n"


def format_pointset_text(ps: PointSet2D, *, header: str | None = None) -> str:
    return _format_rows(ps.as_array(), header) or "\n"

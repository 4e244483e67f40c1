"""Extremal set constructions for discrete axis-parallel square problems.

The root object is a family of integer sets D_k built from base-k expansions
a + b*k + c*k**2 + d*k**3 with digits in {-k+1, ..., 2k-2} and at least one
digit zero.  D_k sits inside [-k**4, 2*k**4], has size Theta(k**3), and absorbs
every base-k digit pattern in the following sense: for any x, y in [0, k**4)
there is a radius r >= 1 with x-r, x+r, y-r, y+r all in D_k.  Products and
strips of D_k then give point sets where *every* center in a huge grid spans an
axis-parallel square (all four vertices, or the entire discrete boundary),
while the point set itself stays small — the sharpness side of the counting
bounds checked in :mod:`squarelab.bounds_report`.

Summing scaled copies of the D_k across levels produces one-dimensional sets
(`gen_AN`, `gen_cantor_truncation`) with the same radius-absorption property at
every scale, and `gen_countable_truncation` stacks scaled blocks of those into
a single planar configuration.  `splice_En` is the generic dyadic-cell
concatenation those limit constructions quotient through.

Everything here is exact integer arithmetic; the only floats are the optional
float mode of the Cantor-type truncation, which reports its own error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING, Collection, Sequence

import numpy as np

from .core_sets import (
    COORD_LIMIT,
    IntSet1D,
    ModeError,
    ParameterError,
    PointSet2D,
    RangeError,
    _READOUT_BYTES,
    _as_fraction,
    _int_array,
    _int_param,
    require_budget,
    unique_ints,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "gen_Dk", "dk_size", "dk_size_cap", "witness_radii",
    "gen_vertex_example", "vertex_example_sizes",
    "gen_boundary_example", "boundary_example_sizes",
    "gen_AN", "an_modulus", "witness_radii_AN",
    "interpolation_level",
    "CantorTruncation", "gen_cantor_truncation",
    "CountableBlock", "CountableTruncation", "gen_countable_truncation",
    "splice_En", "default_a_sequence",
]


# ---------------------------------------------------------------------------
# The digit sets D_k

def dk_size_cap(k: int) -> int:
    """Upper bound (3k-2)**4 - (3k-3)**4 on |D_k| (digit tuples minus the
    all-nonzero ones, before collisions)."""
    return (3 * k - 2) ** 4 - (3 * k - 3) ** 4


def _check_level(k: int) -> int:
    """Validate a digit-set level; returns it as an int."""
    return _int_param(k, "digit-set level must be an integer >= 2", lo=2)


def _dk_occupancy(k: int) -> np.ndarray:
    """D_k as a bool vector over [-k**4, 2k**4]: cell v + k**4 holds v.

    Marked as four unions (one per vanishing digit), each a (3k-2)**2 plane
    of the two lower remaining digits shifted by every value of the third,
    so no more than one plane of sums is held at a time.  Priced with the
    int64 values that :func:`gen_Dk` reads off it, at most dk_size_cap(k).
    """
    k = _check_level(k)
    n = k**4
    side = 3 * k - 2
    require_budget(f"digit set at level {k}", work=4 * side**3,
                   nbytes=3 * n + 1 + 32 * side**2 + 8 * dk_size_cap(k))
    dig = np.arange(-k + 1, 2 * k - 1, dtype=np.int64)
    occupied = np.zeros(3 * n + 1, dtype=bool)
    for lo, mid, hi in ((k, k**2, k**3), (1, k**2, k**3), (1, k, k**3), (1, k, k**2)):
        plane = (lo * dig[:, None] + mid * dig).ravel() + n
        # Containment in the ambient interval is a theorem; cheap to keep honest.
        assert 0 <= plane[0] + hi * dig[0] and plane[-1] + hi * dig[-1] <= 3 * n
        for d in hi * dig:
            occupied[plane + d] = True
    return occupied


def gen_Dk(k: int) -> IntSet1D:
    """All values a + b*k + c*k**2 + d*k**3 with digits in {-k+1..2k-2}, abcd = 0,
    read off the occupancy vector of :func:`_dk_occupancy` in ascending order."""
    vals = np.flatnonzero(_dk_occupancy(k))
    vals -= k**4
    return IntSet1D._in_order(vals)


def dk_size(k: int) -> int:
    """|D_k|, counted on its occupancy vector without materializing D_k."""
    return int(np.count_nonzero(_dk_occupancy(k)))


def witness_radii(x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Witness radii r(x, y) with x-r, x+r, y-r, y+r all in D_k, for x, y in
    [0, k**4), broadcast over integer arrays.

    Writing x and y in base k, r0 = x0 - x1*k + y2*k**2 - y3*k**3 works because
    each of the four shifted values expands with one digit forced to zero
    (e.g. x - r0 = x1*(k+1)*k + x2*k**2 + x3*k**3 re-digits with a = 0), and
    digits stay in {-k+1..2k-2}.  The sign of r0 is irrelevant: the four
    membership conditions only see {x-r, x+r} and {y-r, y+r} as pairs.  When
    r0 = 0 (all four contributing digits zero) r = 1 works directly.
    """
    k = _check_level(k)
    n = k**4
    x, y = (_int_array(v, "centers") for v in (x, y))
    for v in (x, y):
        if v.size and (v.min() < 0 or v.max() >= n):
            raise RangeError(f"centers outside [0, {n})**2 at level {k}")
    return np.maximum(np.abs((x % k - x // k % k * k)
                             + (y // k**2 % k * k**2 - y // k**3 * k**3)), 1)


# ---------------------------------------------------------------------------
# Planar examples built from D_k

def vertex_example_sizes(k: int) -> tuple[int, int]:
    """Exact (|B|, |S|) for the vertex example, without materializing it."""
    d = dk_size(k)
    return d * d, (k**4 - 1) ** 2


def gen_vertex_example(k: int) -> tuple[PointSet2D, PointSet2D]:
    """B = D_k x D_k together with its center grid S = {1..k**4-1}**2.

    Every (x, y) in S is the center of an axis-parallel square with all four
    vertices in B (radius from :func:`witness_radii`), so |S| grows like |B|**(4/3)
    while B stays a product set.
    """
    b_size, s_size = vertex_example_sizes(k)
    require_budget(f"vertex example at level {k}", work=b_size + s_size,
                   nbytes=16 * (b_size + s_size))  # the two products' rows
    dset = gen_Dk(k)
    grid = IntSet1D._in_order(np.arange(1, k**4))
    return PointSet2D.product(dset, dset), PointSet2D.product(grid, grid)


def boundary_example_sizes(k: int) -> tuple[int, int]:
    """Exact (|B|, |S|) for the boundary example.

    B is the union of vertical strips over D_k and horizontal strips over D_k
    inside the box [-k**4, 2*k**4]**2; since D_k lies inside that interval the
    two strip families overlap in exactly D_k x D_k, so inclusion-exclusion
    gives |B| = 2|D_k|(3k**4+1) - |D_k|**2 exactly.
    """
    d = dk_size(k)
    width = 3 * k**4 + 1
    return 2 * d * width - d * d, (k**4 - 1) ** 2


def _boundary_cells(k: int) -> np.ndarray:
    """B's bool raster over [-k**4, 2k**4]**2, cell (i, j) for the point
    (i - k**4, j - k**4): the strips over D_k along both axes."""
    on_strip = _dk_occupancy(k)
    return on_strip[:, None] | on_strip[None, :]


def gen_boundary_example(k: int) -> tuple[PointSet2D, PointSet2D]:
    """B = (D_k x I) ∪ (I x D_k) with I = [-k**4, 2k**4], S = {1..k**4-1}**2.

    Every center in S carries a full discrete square boundary inside B: the
    witness radius puts the two vertical sides on lines of D_k x I and the two
    horizontal sides on lines of I x D_k, and the sides stay inside the box.
    """
    b_size, s_size = boundary_example_sizes(k)
    # the raster over the box and one read-out strip; B's and S's rows
    require_budget(f"boundary example at level {k}", work=b_size + s_size,
                   nbytes=(3 * k**4 + 1) ** 2 + _READOUT_BYTES + 16 * (b_size + s_size))
    b = PointSet2D._marked_rows(_boundary_cells(k), (-k**4, -k**4))
    assert len(b) == b_size
    grid = IntSet1D._in_order(np.arange(1, k**4))
    return b, PointSet2D.product(grid, grid)


# ---------------------------------------------------------------------------
# Multi-level 1D sums of D_k

_MARK_BLOCK = 2**18   # sums marked on the occupancy vector per block
_SORT_BLOCK = 2**20   # sums sorted and deduplicated per block


def _sumset_levels(levels: Sequence[tuple[int, IntSet1D]], what: str) -> IntSet1D:
    """Exact sumset sum_k mult_k * S_k over the given (multiplier, set) levels.

    Each level adds mult * S to the running sum B, marked on a bool vector
    over the new span when span + 1 <= |B| * |S|, else sorted and
    deduplicated.  Sums are formed in blocks of 2**18 (2 MiB) to mark or
    2**20 (8 MiB) to sort, one row of S if S is longer.  No running sum has
    more than m = min(prod |S_k|, span + 1) values, which prices the sums
    formed and the bytes held (the vector or a sorted level's deduplicated
    blocks, their concatenation and its sort; a block) before any is made.
    """
    reach = 1  # the most values a running sum can have
    span = peak = work = 0
    for mult, s in levels:
        work += reach * len(s)
        span += mult * (s.max() - s.min())
        reach = min(reach * len(s), span + 1)
        peak += mult * max(abs(s.min()), abs(s.max()))
    if peak > COORD_LIMIT:
        raise RangeError(f"{what}: values would exceed the supported magnitude 2**62")
    block = min(work, max([_SORT_BLOCK, *(len(s) for _, s in levels)]))  # sums formed at once
    require_budget(what, work=work, nbytes=33 * reach + 25 * block)

    acc = np.zeros(1, dtype=np.int64)
    for mult, s in levels:
        vals = mult * s.as_array()
        lo = int(acc[0] + vals[0])
        width = int(acc[-1] + vals[-1]) - lo + 1
        if width <= acc.size * vals.size:
            occupied = np.zeros(width, dtype=bool)
            vals -= lo
            rows = max(1, _MARK_BLOCK // vals.size)
            for i in range(0, acc.size, rows):
                occupied[(acc[i:i + rows, None] + vals).ravel()] = True
            acc = np.flatnonzero(occupied)
            acc += lo
        else:
            rows = max(1, _SORT_BLOCK // vals.size)
            acc = unique_ints(np.concatenate([unique_ints(acc[i:i + rows, None] + vals)
                                              for i in range(0, acc.size, rows)]))
    return IntSet1D._in_order(acc)


def an_modulus(p: int) -> int:
    """The period N = (p!)**4 of the depth-p interpolating set."""
    return math.factorial(p) ** 4


def _an_scales(p: int) -> dict[int, int]:
    """Level multipliers (p!/k!)**4 for k = 2..p (the k = 1 level is {0})."""
    pf = math.factorial(p)
    return {k: (pf // math.factorial(k)) ** 4 for k in range(2, p + 1)}


def gen_AN(p: int) -> IntSet1D:
    """The depth-p set A = sum over k<=p of (p!/k!)**4 * D_k.

    Element counts grow fast: p = 2, 3, 4 give 42, 3,627 and 916,716
    elements, while p = 5 would exceed 5e8 — so 5 and 6 are refused under the
    default limits (raise SQUARELAB_BUDGET to insist).
    """
    p = _int_param(p, "depth must be an integer in 2..6", 2, 6)
    levels = [(mult, gen_Dk(k)) for k, mult in _an_scales(p).items()]
    return _sumset_levels(levels, f"depth-{p} interpolating set")


def witness_radii_AN(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Radii r in [1, 3*(p!)**4] with x-r, x+r, y-r, y+r all in gen_AN(p), for
    x, y in [0, (p!)**4), broadcast over integer arrays.

    Decomposes x and y in the mixed radix (p!/k!)**4 (digit at level k ranges
    over [0, k**4)) and sums the per-level witness radii back with the same
    multipliers.  The level radii are at most k**4 with the r = 1 fallback, so
    r <= (p!)**4 * sum of 1/(m!)**4 over m < p, which is < 1.07 * (p!)**4.
    A center outside [0, (p!)**4) has a level-2 digit outside [0, 16), which
    :func:`witness_radii` refuses.
    """
    p = _int_param(p, "depth must be an integer in 2..6", 2, 6)
    x, y = (_int_array(v, "centers") for v in (x, y))
    r = 0
    for k, mult in _an_scales(p).items():
        u, x = np.divmod(x, mult)
        v, y = np.divmod(y, mult)
        r = r + mult * witness_radii(u, v, k)
    assert not (np.any(x) or np.any(y))  # the level-p multiplier is 1, digits exhaust
    return r


def interpolation_level(n: int) -> int:
    """Smallest p with (p!)**4 >= n, the depth used for a count-n request."""
    n = _int_param(n, "count must be an integer >= 2", lo=2)
    p = 2
    while an_modulus(p) < n:
        p += 1
    return p


# ---------------------------------------------------------------------------
# Cantor-type truncations

@dataclass(frozen=True)
class CantorTruncation:
    """Depth-p truncation of the Cantor-type pair (A, T) at dimension s.

    The level weights are w_k = ((k-1)!)**(-8/s) / k**4; level k contributes
    w_k * D_k to A and w_k * {0..k**4-1} to T.  When 8/s is an integer every
    weight is rational and both sets are materialized exactly on a common
    integer scale (`scale`, the lcm of the weight denominators); otherwise
    float mode stores double-precision elements, ascending in read-only float64
    arrays, plus a per-element absolute error bound.  The arrays are a function
    of `s` and `depth`, so equality and hashing leave them out.
    """

    s: Fraction
    depth: int
    mode: str                       # "exact" | "float"
    scale: int | None = None
    a_set: IntSet1D | None = None
    t_set: IntSet1D | None = None
    a_floats: np.ndarray | None = field(default=None, compare=False)
    t_floats: np.ndarray | None = field(default=None, compare=False)
    error_bound: float | None = None

    def level_multipliers(self) -> tuple[int, ...]:
        """Exact integer weights scale * w_k for k = 1..depth (exact mode only)."""
        if self.mode != "exact":
            raise ModeError("level multipliers are exact-mode only")
        m = 8 / self.s
        assert m.denominator == 1
        return tuple(self.scale // (math.factorial(k - 1) ** int(m) * k**4)
                     for k in range(1, self.depth + 1))


def gen_cantor_truncation(s: object, p: int) -> CantorTruncation:
    """Build the depth-p truncation at dimension parameter s in (0, 2].

    Exact mode needs 8/s to be a positive integer (s = 2 gives exponent 4,
    s = 8/5 gives 5, ...); anything else falls back to float mode.
    """
    s = _as_fraction(s)
    if not 0 < s <= 2:
        raise ParameterError(f"dimension parameter must lie in (0, 2], got {s}")
    p = _int_param(p, "depth must be an integer in 1..8", 1, 8)
    m8 = 8 / s

    if m8.denominator == 1:
        m = int(m8)
        # level k weighs 1/d_k, so the scale is the lcm of the d_k
        dens = {k: math.factorial(k - 1) ** m * k**4 for k in range(1, p + 1)}
        scale = math.lcm(*dens.values())
        mults = {k: scale // d for k, d in dens.items()}
        # Level 1 is {0} on both sides; it only matters through the lcm above.
        a_levels = [(mults[k], gen_Dk(k)) for k in range(2, p + 1)]
        t_levels = [(mults[k], IntSet1D._in_order(np.arange(k**4))) for k in range(2, p + 1)]
        a_set = _sumset_levels(a_levels, f"depth-{p} scaled Cantor A side")
        t_set = _sumset_levels(t_levels, f"depth-{p} scaled Cantor T side")
        return CantorTruncation(s=s, depth=p, mode="exact", scale=scale,
                                a_set=a_set, t_set=t_set)

    # Float mode: weights are irrational; materialize double-precision sums.
    exp = float(8 / s)
    levels = range(2, p + 1)
    sizes = math.prod(dk_size(k) for k in levels) + math.prod(k**4 for k in levels)
    # a level's float64 sums, np.unique's sorted copy, mask and values: 25 bytes
    # a value of the last, largest level, beside the other side's values
    require_budget(f"depth-{p} float Cantor truncation", nbytes=25 * sizes, work=sizes)
    a_vals = t_vals = np.zeros(1)
    weight_reach = 0.0
    for k in range(2, p + 1):
        w = math.exp(-exp * math.lgamma(k)) / k**4
        dk = gen_Dk(k).as_array().astype(np.float64)
        ek = np.arange(k**4, dtype=np.float64)
        a_vals = np.unique(a_vals[:, None] + (w * dk)[None, :])
        t_vals = np.unique(t_vals[:, None] + (w * ek)[None, :])
        weight_reach += w * max(abs(int(dk[0])), abs(int(dk[-1])))
    # Each element is a p-term dot product of values carrying a few ulp of
    # relative error; (p + 3) rounding steps against the largest reachable
    # magnitude is a conservative absolute bound.
    err = (p + 3) * np.finfo(np.float64).eps * max(weight_reach, 1.0)
    a_vals.flags.writeable = t_vals.flags.writeable = False
    return CantorTruncation(s=s, depth=p, mode="float", a_floats=a_vals, t_floats=t_vals,
                            error_bound=float(err))


# ---------------------------------------------------------------------------
# Countable union of scaled blocks

@dataclass(frozen=True)
class CountableBlock:
    """One scaled block: a center grid and the strip set that serves it.

    Coordinates are integers in the global frame (everything multiplied by
    2**((1+alpha)*K)); `factor` is this block's unit, `offset` its translation.
    """

    k: int
    n: int
    factor: int
    offset: tuple[int, int]
    centers: PointSet2D
    boundary_set: PointSet2D


@dataclass(frozen=True)
class CountableTruncation:
    alpha: int
    K: int
    scale: int
    blocks: tuple[CountableBlock, ...]


def _countable_levels(alpha: int, K: int) -> tuple[int, int, list[tuple[int, ...]]]:
    """alpha and K checked, alpha * K up to 37 so that A's depth is at most 6,
    and (k, n, factor, x offset, depth of A) of each of the first K blocks."""
    alpha = _int_param(alpha, "alpha must be an integer >= 1", lo=1)
    K = _int_param(K, "block count must be an integer in 1..12", 1, 12)
    if alpha * K > 37:  # 2**37 <= (6!)**4 < 2**38: depth 6 is A's deepest
        raise ParameterError(f"alpha * K must be at most 37, got alpha={alpha}, K={K}")
    levels = []
    for k in range(1, K + 1):
        n = 2 ** (alpha * k)
        p = interpolation_level(n)
        levels.append((k, n, 2 ** ((1 + alpha) * (K - k)), 2 ** ((1 + alpha) * K - k), p))
    return alpha, K, levels


def _countable_boxes(alpha: int, K: int) -> list[tuple[int, int, int, int]]:
    """(x0, y0, width, height) of each block's strip set, as
    :func:`gen_countable_truncation` builds it, from n, the factor and A's
    span alone: no block and no A is made.  The segments span [-3n, 4n]
    units, and A's lines the sum over its levels of (p!/j!)**4 times D_j's
    span, w * [-1, 2] with w = (j - 1)(j + j**2 + j**3)."""
    boxes = []
    for _, n, factor, off_x, p in _countable_levels(alpha, K)[2]:
        w = sum(mult * (j - 1) * (j + j**2 + j**3) for j, mult in _an_scales(p).items())
        lo, hi = factor * min(-3 * n, -w), factor * max(4 * n, 2 * w)
        boxes.append((off_x + lo, lo, hi - lo + 1, hi - lo + 1))
    return boxes


def gen_countable_truncation(alpha: int, K: int) -> CountableTruncation:
    """First K blocks of the countable square-boundary configuration.

    Block k holds the center grid {0..N_k-1}**2 with N_k = 2**(alpha*k),
    shrunk by eps_k = 2**(-(1+alpha)*k) and shifted to x = 2**(-k); its strip
    set is A x [-3N_k, 4N_k] union [-3N_k, 4N_k] x A for the interpolating set
    A of count N_k.  Scaling the whole picture by 2**((1+alpha)*K) clears every
    denominator, so block k lives at integer unit factor 2**((1+alpha)*(K-k)).
    The interval factors of the strips materialize as full integer segments in
    the global frame.
    """
    alpha, K, levels = _countable_levels(alpha, K)
    depth_set = cache(gen_AN)  # blocks of one depth share its set
    points = sum(2 * len(depth_set(p)) * (7 * n * factor + 1)
                 for _, n, factor, _, p in levels)
    centers = sum(n * n for _, n, _, _, _ in levels)
    # strips stacked, concatenated and sorted (52 bytes a point), kept (16); centers (16)
    require_budget(f"countable truncation with {K} blocks", work=points + centers,
                   nbytes=68 * points + 16 * centers)

    blocks = []
    for k, n, factor, off_x, p in levels:
        # the depth is at most 6, so n <= (6!)**4 < 2**38 and every
        # coordinate below stays far inside int64
        seg = np.arange(-3 * n * factor, 4 * n * factor + 1)
        lines = factor * depth_set(p).as_array()
        pts = np.concatenate((
            np.column_stack((np.repeat(off_x + lines, len(seg)), np.tile(seg, len(lines)))),
            np.column_stack((np.tile(off_x + seg, len(lines)), np.repeat(lines, len(seg))))))
        steps = factor * np.arange(n)
        centers = PointSet2D.product(IntSet1D._in_order(off_x + steps), IntSet1D._in_order(steps))
        blocks.append(CountableBlock(k=k, n=n, factor=factor, offset=(off_x, 0),
                                     centers=centers, boundary_set=PointSet2D._adopt(pts)))
    return CountableTruncation(alpha=alpha, K=K, scale=2 ** ((1 + alpha) * K),
                               blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# Dyadic splicing

def default_a_sequence(n: int) -> tuple[int, ...]:
    """The doubly exponential depth sequence 0, 3, 15, 255, ... (2**2**j - 1).

    Only the first couple of levels fit under the 40-bit index guard; deeper
    splices want a custom (slower-growing) sequence.
    """
    n = _int_param(n, "level count must be an integer in 0..5", 0, 5)
    return (0,) + tuple(2 ** (2**j) - 1 for j in range(1, n + 1))


def splice_En(patterns: Sequence[Collection], a: Sequence[int], d: int = 1) -> frozenset:
    """Concatenate per-level dyadic cell patterns into depth-a_n cell indices.

    Level j (1-based) contributes a set of cells at depth a_j - a_{j-1}: plain
    ints for d = 1, (ix, iy) pairs for d = 2, each coordinate in
    [0, 2**(a_j - a_{j-1})).  A choice of one cell per level concatenates to
    the depth-a_n cell whose per-axis index is sum_j idx_j * 2**(a_n - a_j);
    the result is the set of all such choices.  Cartesian products pass
    through exactly: splicing the per-axis pairing of two d = 1 pattern
    sequences yields the product of their splices.
    """
    d = _int_param(d, "dimension must be 1 or 2", 1, 2)
    n = len(patterns)
    a = tuple(_int_param(v, "depth checkpoints must be integers") for v in a)
    if len(a) < n + 1:
        raise ParameterError(f"need {n + 1} depth checkpoints, got {len(a)}")
    a = a[:n + 1]
    if a[0] != 0 or any(u >= v for u, v in zip(a, a[1:])):
        raise ParameterError(f"depth checkpoints must increase strictly from 0, got {a}")
    if a[-1] > 40:
        raise RangeError(f"total depth {a[-1]} exceeds the 40-bit index guard")

    size = math.prod(len(level) for level in patterns)
    # a set of tuples of Python ints, then a frozenset: 256 bytes a cell (measured)
    require_budget("spliced cell set", nbytes=256 * size, work=size)

    def cell_axes(cell, width: int, j: int) -> tuple[int, ...]:
        axes = tuple(cell) if d == 2 and np.iterable(cell) else (cell,)
        if len(axes) != d:
            raise ParameterError(f"level {j}: cell {cell!r} is not {d}-dimensional")
        axes = tuple(_int_param(v, f"level {j}: cell index {cell!r} must be an integer")
                     for v in axes)
        if not all(0 <= v < width for v in axes):
            raise RangeError(f"level {j}: cell index {cell!r} outside [0, {width})")
        return axes

    current: set[tuple[int, ...]] = {(0,) * d}
    for j, level in enumerate(patterns, start=1):
        t = a[j] - a[j - 1]
        width = 2**t
        checked = [cell_axes(cell, width, j) for cell in level]
        current = {tuple((prev << t) | ax for prev, ax in zip(acc, axes))
                   for acc in current for axes in checked}
    return frozenset(v[0] for v in current) if d == 1 else frozenset(current)

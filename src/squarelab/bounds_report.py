"""Exact bound checks, size-law scans, and construction verification.

The counting theorems this package exercises are all of the shape
"center count is polynomially bounded by point count".  Both directions are
kept exact: upper bounds are compared as cross-multiplied integers (never
floats — |S|^3 <= 16|B|^4 rather than |S| <= (2|B|)^(4/3)), and sharpness is
probed by finite-difference slopes of log-size against log-size across the
generated families.

`verify_construction` replays the defining property of each generator over
its full advertised center range (or a seeded sample where the range is
astronomically large) and returns machine-checkable :class:`BoundCheck`
records; `build_report` wraps any collection of those into the JSON report
shape shared by the command-line tools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

# Of this package's modules only core_sets is imported here (the tables the
# CLI parser shares come from the package itself): each function imports the
# other modules it calls, so a command loads only the modules its work reaches.
from . import DEFAULT_SEED, _FAMILIES, _VERIFY_PARAMS, _main_lemma
from .core_sets import (
    IntSet1D,
    OccupancyGrid,
    ParameterError,
    PointSet2D,
    require_budget,
)

if TYPE_CHECKING:
    from .dimension_lab import SlopeStep

__all__ = [
    "DEFAULT_SEED", "BoundCheck", "ExponentReport",
    "check_main_lemma_2d", "check_main_lemma_1d",
    "family_scan", "verify_construction", "build_report",
]


@dataclass(frozen=True)
class BoundCheck:
    """One exact comparison: ok if and only if lhs <= rhs."""

    name: str
    lhs: int
    rhs: int
    ok: bool
    sizes: dict[str, int] = field(default_factory=dict)

    @classmethod
    def compare(cls, name: str, lhs: int, rhs: int, **sizes: int) -> "BoundCheck":
        return cls(name=name, lhs=lhs, rhs=rhs, ok=lhs <= rhs, sizes=dict(sizes))

    def as_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "ok": self.ok, "sizes": dict(self.sizes)}


@dataclass(frozen=True)
class ExponentReport:
    """Size-law samples for one family plus their finite-difference slopes."""

    family: str
    rows: tuple[tuple[int, int, int], ...]   # (param, n1, n2)
    slopes: tuple[SlopeStep, ...]
    target: float

    def as_dicts(self) -> list[dict]:
        return [{"family": self.family, "lo": s.lo, "hi": s.hi,
                 "slope": None if not s.ok or math.isnan(s.slope) else s.slope,
                 "target": self.target}
                for s in self.slopes]


def check_main_lemma_2d(b: PointSet2D, *, s_count: int | None = None) -> BoundCheck:
    """Exact form of the planar bound: |S|^3 <= 16 |B|^4.

    S is the set of centers of axis-parallel squares with all four vertices
    in B; pass s_count if it is already known to skip the finder run.
    """
    if s_count is None:
        from .finders import find_vertex_centers_2d
        s_count = find_vertex_centers_2d(b, mode="count")
    return BoundCheck.compare("vertex_centers_cubed_vs_16_points_fourth",
                              *_main_lemma(s_count, len(b)),
                              points=len(b), centers=s_count)


def check_main_lemma_1d(a: IntSet1D, *, s_count: int | None = None) -> BoundCheck:
    """Exact form of the two-interval bound: |S|^3 <= 16 |A|^8."""
    if s_count is None:
        from .finders import find_centers_1d
        s_count = find_centers_1d(a, mode="count")
    return BoundCheck.compare("common_radius_pairs_cubed_vs_16_elems_eighth",
                              *_main_lemma(s_count, len(a) ** 2),
                              elems=len(a), centers=s_count)


# ---------------------------------------------------------------------------
# Size-law scans

def _cover_length(p: int, j: int) -> int:
    """The cover length 200*(p!/j!)**4 of the depth-p set at scale j."""
    return 200 * (math.factorial(p) // math.factorial(j)) ** 4


def family_scan(family: str, k_range: Iterable[int]) -> ExponentReport:
    """Exact sizes and log-log slopes across one generated family.

    dk_vertex:   (k, |B|, |S|) of the vertex example, slope of log|S| against
                 log|B|, target 4/3.
    dk_boundary: (k, |S|, |B|) of the boundary example, target 7/8.
    dk_size:     (k, k, |D_k|), target 3.
    an_cover:    (j, R_j, covering count of the depth-max(k_range) set at
                 scale R_j = 200*(p!/j!)**4); counts shrink as the scale
                 grows, so the slope targets -3/4.

    Sizes come from the exact closed forms / digit-set enumeration — nothing
    planar is materialized — so slopes are bit-reproducible for a given range.
    """
    from . import constructions as cons
    from .dimension_lab import covering_count_1d, exponent_finite_diff
    if family not in _FAMILIES:
        raise ParameterError(f"unknown family {family!r}; choose from {_FAMILIES}")
    ks = sorted(set(k_range))
    if len(ks) < 2:
        raise ParameterError("a scan needs at least two parameter values")
    lo_k, hi_cap = (1, 6) if family == "an_cover" else (2, 16)
    if ks[0] < lo_k or ks[-1] > hi_cap:
        raise ParameterError(f"{family} scan supports parameters in "
                             f"{lo_k}..{hi_cap}, got {ks[0]}..{ks[-1]}")

    if family == "dk_size":
        target = 3.0
        def row(k: int) -> tuple[int, int, int]:
            return k, k, cons.dk_size(k)
    elif family == "dk_vertex":
        target = 4.0 / 3.0
        def row(k: int) -> tuple[int, int, int]:
            b_size, s_size = cons.vertex_example_sizes(k)
            return k, b_size, s_size
    elif family == "dk_boundary":
        target = 7.0 / 8.0
        def row(k: int) -> tuple[int, int, int]:
            b_size, s_size = cons.boundary_example_sizes(k)
            return k, s_size, b_size
    else:  # an_cover
        target = -0.75
        p = ks[-1]
        a = cons.gen_AN(p)
        def row(j: int) -> tuple[int, int, int]:
            r_j = _cover_length(p, j)
            return j, r_j, covering_count_1d(a, r_j)

    rows = [row(k) for k in ks]
    return ExponentReport(family=family, rows=tuple(rows),
                          slopes=tuple(exponent_finite_diff(rows)), target=target)


# ---------------------------------------------------------------------------
# Construction verification (replay of the defining properties)

_CHUNK_CELLS = 2**14  # radius-table cells per block: the replay's memory bound


def _lookup(s: IntSet1D) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """Membership in a non-empty set as `hit(cells)` over the cells of a
    boolean table over [min - 1, max + 1], and the offset o that puts a value
    v at cell v - o.  A cell outside the table reads the False cell past
    that end: a miss."""
    arr = s.as_array()
    o = int(arr[0]) - 1
    table = np.zeros(int(arr[-1]) - o + 2, dtype=bool)
    for i in range(0, arr.size, _CHUNK_CELLS):
        table[arr[i:i + _CHUNK_CELLS] - o] = True
    return partial(table.take, mode="clip"), o


def _verify_dk(k: int) -> list[BoundCheck]:
    """Exhaustive witness replay over all of {0..k**4-1}**2, a block of
    centers at a time.

    The witness radius reads only x mod k**2 and y div k**2, so it is one r
    on each of the k**4 blocks {x = a (mod k**2)} x {y div k**2 = b} of k**4
    centers; there x -+ r in D_k and y -+ r in D_k are independent, and the
    block's good centers number Cx * Cy, each count a boolean lookup of D_k
    over the block's k**2 values of x or of y.  Its 4 * k**6 lookups and the
    bytes of its table and of one block of centers are priced first.
    """
    from . import constructions as cons
    n, m = k**4, k**2
    require_budget(f"the witness replay at level {k}", work=4 * m**3,
                   nbytes=3 * n + 8 * m * m + 48 * _CHUNK_CELLS)
    dset = cons.gen_Dk(k)
    hit, o = _lookup(dset)
    digits = np.arange(m, dtype=np.int64)
    blocks = np.arange(m * m, dtype=np.int64)
    misses = radius_misses = 0
    rows = max(1, _CHUNK_CELLS // m)
    for lo in range(0, m * m, rows):
        a, b = np.divmod(blocks[lo:lo + rows, None], m)
        r = cons.witness_radii(a, b * m, k)
        xat, yat = a + m * digits - o, b * m + digits - o  # the block's lookup cells
        cx = np.count_nonzero(hit(xat - r) & hit(xat + r), axis=1)
        cy = np.count_nonzero(hit(yat - r) & hit(yat + r), axis=1)
        misses += cx.size * n - int(cx @ cy)
        radius_misses += n * int(np.count_nonzero(r > n))
    sizes = {"k": k, "elems": len(dset), "centers": n * n}
    return [
        BoundCheck.compare(f"dk{k}_witness_misses", misses, 0, **sizes),
        BoundCheck.compare(f"dk{k}_radius_over_cap", radius_misses, 0, **sizes),
        BoundCheck.compare(f"dk{k}_size_cap", len(dset), cons.dk_size_cap(k), **sizes),
        BoundCheck.compare(f"dk{k}_range_lo", -n, dset.min(), **sizes),
        BoundCheck.compare(f"dk{k}_range_hi", dset.max(), 2 * n, **sizes),
    ]


def _verify_an(p: int, seed: int | None, samples: int) -> list[BoundCheck]:
    if seed is not None and seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    from . import constructions as cons
    from .dimension_lab import covering_count_1d
    a = cons.gen_AN(p)
    elems = len(a)
    covers, cap = [], 1
    for j in range(1, p + 1):
        if j > 1:
            cap *= cons.dk_size(j)
        r_j = _cover_length(p, j)
        covers.append(BoundCheck.compare(
            f"an{p}_cover_scale{j}", covering_count_1d(a, r_j), cap,
            p=p, elems=elems, length=r_j))
    # the replay needs only the covers, |A| and this table of A: A is released
    # before numpy.random loads, so the replay peaks within what A's build did
    hit, o = _lookup(a)
    del a
    n = cons.an_modulus(p)
    exhaustive = n * n <= samples
    if exhaustive:
        xs, ys = np.divmod(np.arange(n * n), n)
    else:
        rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
        xs = rng.integers(0, n, size=samples)
        ys = rng.integers(0, n, size=samples)

    misses = r_misses = 0
    for i in range(0, xs.size, _CHUNK_CELLS):  # a block of samples at a time
        x, y = xs[i:i + _CHUNK_CELLS], ys[i:i + _CHUNK_CELLS]
        r = cons.witness_radii_AN(x, y, p)
        r_misses += int(np.count_nonzero((r < 1) | (r > 3 * n)))
        xat, yat = x - o, y - o
        good = hit(xat - r) & hit(xat + r) & hit(yat - r) & hit(yat + r)
        misses += good.size - int(np.count_nonzero(good))
    sizes = {"p": p, "elems": elems, "tested": xs.size, "exhaustive": int(exhaustive)}
    return [
        BoundCheck.compare(f"an{p}_witness_misses", misses, 0, **sizes),
        BoundCheck.compare(f"an{p}_radius_out_of_band", r_misses, 0, **sizes),
    ] + covers


def _verify_boundary(k: int) -> list[BoundCheck]:
    """Vectorized witness replay for the strip example: every center of the
    open grid carries a full square boundary, sides landing on strip lines."""
    from . import constructions as cons
    b, s = cons.gen_boundary_example(k)
    grid = OccupancyGrid.from_points(b)
    n = k**4

    v = np.arange(1, n, dtype=np.int64)
    r = cons.witness_radii(v[:, None], v, k)

    good = grid.boundary_full(v[:, None], v, r)
    misses = int(good.size - np.count_nonzero(good))

    b_formula, s_formula = cons.boundary_example_sizes(k)
    sizes = {"k": k, "points": len(b), "centers": len(s)}
    return [
        BoundCheck.compare(f"boundary{k}_witness_misses", misses, 0, **sizes),
        BoundCheck.compare(f"boundary{k}_size_formula_gap",
                           abs(len(b) - b_formula) + abs(len(s) - s_formula), 0,
                           **sizes),
    ]


def _verify_countable(alpha: int, big_k: int) -> list[BoundCheck]:
    from . import constructions as cons
    trunc = cons.gen_countable_truncation(alpha, big_k)
    checks = []
    for block in trunc.blocks:
        grid = OccupancyGrid.from_points(block.boundary_set)
        r_cap = 3 * block.n * block.factor
        centers, radii = block.centers.as_array(), np.arange(1, r_cap + 1)
        # every radius up to the cap at once, a block of centers at a time
        rows = max(1, _CHUNK_CELLS // r_cap)
        misses = len(centers)
        for c in (centers[lo:lo + rows] for lo in range(0, len(centers), rows)):
            full = grid.boundary_full(c[:, :1], c[:, 1:], radii)
            misses -= int(np.count_nonzero(full.any(axis=1)))
        checks.append(BoundCheck.compare(
            f"countable_block{block.k}_missing_boundaries", misses, 0,
            alpha=alpha, K=big_k, block=block.k, n=block.n,
            centers=len(block.centers), points=len(block.boundary_set)))
    return checks


# verify target -> its replay of the parameters _VERIFY_PARAMS names; only `an` samples
_VERIFY = {
    "dk": lambda kw: _verify_dk(kw["k"]),
    "an": lambda kw: _verify_an(kw["p"], kw["seed"], kw["samples"]),
    "boundary": lambda kw: _verify_boundary(kw["k"]),
    "countable": lambda kw: _verify_countable(kw["alpha"], kw["K"]),
}


def verify_construction(name: str, *, k: int | None = None, p: int | None = None,
                        alpha: int | None = None, K: int | None = None,
                        seed: int | None = None, samples: int = 100_000) -> list[BoundCheck]:
    """Replay the defining property of a generated construction.

    name='dk'        needs k: exhaustive witness check over {0..k**4-1}**2.
    name='an'        needs p: witness + radius band + covering caps
                     (exhaustive when (p!)**8 <= samples, else seeded sample).
    name='boundary'  needs k: full-boundary witness replay on the strip example.
    name='countable' needs alpha, K: per-block boundary search for every
                     scaled center, radius capped at 3*N_k in block units.
    """
    if name not in _VERIFY:
        *rest, last = _VERIFY
        raise ParameterError(f"unknown construction {name!r}; "
                             f"choose {', '.join(rest)}, or {last}")
    needs, replay = _VERIFY_PARAMS[name], _VERIFY[name]
    given = {"k": k, "p": p, "alpha": alpha, "K": K, "seed": seed, "samples": samples}
    if any(given[param] is None for param in needs):
        raise ParameterError(f"verify {name} needs {' and '.join(needs)}")
    return replay(given)


def build_report(suite: str, checks: Sequence[BoundCheck],
                 reports: Sequence[ExponentReport] = (),
                 seed: int | None = None) -> dict:
    """The shared JSON report object for the command-line tools."""
    from datetime import datetime, timezone
    slopes: list[dict] = []
    for rep in reports:
        slopes.extend(rep.as_dicts())
    return {
        "suite": suite,
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "seed": seed,
        "checks": [c.as_dict() for c in checks],
        "slopes": slopes,
    }

import math
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squarelab import (
    BudgetError,
    CenterWitness,
    DoubledPoint,
    IntSet1D,
    ParameterError,
    PointSet2D,
    find_boundary_centers_2d,
    find_centers_1d,
    find_vertex_centers_2d,
    gen_boundary_example,
    gen_countable_truncation,
    gen_Dk,
    gen_vertex_example,
    make_intset,
)
from squarelab import core_sets, finders
from squarelab.core_sets import unique_ints
from squarelab.finders import (
    CenterRows,
    _centers_1d_sparse,
    _join_offsets,
    _vertex_centers_dense,
    _vertex_centers_sparse,
)

from oracles import (
    oracle_boundary_pairs,
    oracle_centers_1d,
    oracle_vertex_centers_2d,
)


def random_intset(rng, max_size=30, lo=-40, hi=40):
    n = int(rng.integers(2, max_size + 1))
    vals = rng.choice(np.arange(lo, hi + 1), size=n, replace=False)
    return make_intset(vals.tolist())


def random_pointset(rng, max_size=40, coord=12):
    n = int(rng.integers(1, max_size + 1))
    xs = rng.integers(0, coord + 1, size=n)
    ys = rng.integers(0, coord + 1, size=n)
    return PointSet2D(list(zip(xs.tolist(), ys.tolist())))


class TestCenters1D:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_quadruple_loop(self, seed):
        rng = np.random.default_rng(seed)
        a = random_intset(rng)
        fast = {(p.X, p.Y) for p in find_centers_1d(a)}
        assert fast == oracle_centers_1d(a.elems)

    def test_count_mode_agrees(self):
        a = gen_Dk(2)
        centers = find_centers_1d(a)
        assert find_centers_1d(a, "count") == len(centers)

    def test_arithmetic_progression(self):
        # 0..n-1: every doubled midpoint pair (X, Y) of equal parity with a
        # common radius; small enough to state exactly
        a = make_intset(range(4))
        got = {(p.X, p.Y) for p in find_centers_1d(a)}
        expected = oracle_centers_1d(range(4))
        assert got == expected
        assert (3, 3) in got and (1, 5) in got

    def test_trivial_sets(self):
        assert set(find_centers_1d(make_intset([]))) == set()
        assert set(find_centers_1d(make_intset([7]))) == set()
        two = find_centers_1d(make_intset([0, 2]))
        assert set(two) == {DoubledPoint(2, 2)}

    def test_budget_override(self, monkeypatch):
        monkeypatch.setenv("SQUARELAB_BUDGET", "0.001")  # 536,870 bytes
        # spread wide, so the offset join costs more than the sparse kernel,
        # whose guard is reached: its 44,850 pairs' arrays do not fit
        with pytest.raises(BudgetError, match="common-radius pair sweep") as exc:
            find_centers_1d(make_intset(range(0, 300_000, 1_000)))
        assert exc.value.unit == "bytes"

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            find_centers_1d(make_intset([0, 1]), "list")

    @given(st.sets(st.integers(-25, 25), min_size=2, max_size=14))
    @settings(max_examples=60, deadline=None)
    def test_oracle_property(self, vals):
        a = make_intset(vals)
        fast = {(p.X, p.Y) for p in find_centers_1d(a)}
        assert fast == oracle_centers_1d(vals)


class TestVertexCenters2D:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_corner_quadruples(self, seed):
        rng = np.random.default_rng(100 + seed)
        b = random_pointset(rng)
        fast = {(p.X, p.Y) for p in find_vertex_centers_2d(b)}
        assert fast == oracle_vertex_centers_2d(b.points)

    def test_single_square(self):
        b = PointSet2D([(0, 0), (3, 0), (0, 3), (3, 3)])
        assert set(find_vertex_centers_2d(b)) == {DoubledPoint(3, 3)}

    def test_count_mode_agrees(self):
        rng = np.random.default_rng(42)
        b = random_pointset(rng, max_size=60, coord=9)
        assert find_vertex_centers_2d(b, "count") == len(find_vertex_centers_2d(b))

    def test_product_set_matches_1d_finder(self):
        # For B = D x D the squares with vertices in B biject with the
        # common-radius pairs of D itself: two fully independent pipelines
        # must produce the same count.
        for d in (gen_Dk(2), make_intset([0, 1, 3, 7, 12, 20])):
            b = PointSet2D.product(d, d)
            n_2d = find_vertex_centers_2d(b, "count")
            n_1d = find_centers_1d(d, "count")
            assert n_2d == n_1d

    def test_translation_equivariance(self):
        rng = np.random.default_rng(5)
        b = random_pointset(rng)
        base = find_vertex_centers_2d(b)
        moved = find_vertex_centers_2d(b.translate(7, -9))
        assert set(moved) == {DoubledPoint(p.X + 14, p.Y - 18) for p in base}

    def test_transpose_equivariance(self):
        rng = np.random.default_rng(6)
        b = random_pointset(rng)
        base = find_vertex_centers_2d(b)
        flipped = find_vertex_centers_2d(b.transpose())
        assert set(flipped) == {DoubledPoint(p.Y, p.X) for p in base}

    def test_empty(self):
        assert set(find_vertex_centers_2d(PointSet2D([]))) == set()


class TestBoundaryCenters2D:
    @pytest.mark.parametrize("density", [0.4, 0.6, 0.8, 0.95])
    def test_matches_membership_walk(self, density):
        rng = np.random.default_rng(int(density * 100))
        mask = rng.random((16, 16)) < density
        pts = [(int(x), int(y)) for x, y in np.argwhere(mask)]
        b = PointSet2D(pts)
        fast = {(w.center.X, w.center.Y, w.radius)
                for w in find_boundary_centers_2d(b, 8)}
        assert fast == oracle_boundary_pairs(pts, 8)

    def test_full_grid_counts(self):
        # a full (2m+1)-square grid: center (i, j) supports radii up to its
        # Chebyshev distance from the border
        side = 9
        b = PointSet2D([(x, y) for x in range(side) for y in range(side)])
        found = find_boundary_centers_2d(b, 10)
        expected = sum((side - 2 * r) ** 2 for r in range(1, side // 2 + 1))
        assert len(found) == expected

    def test_count_mode_agrees(self):
        rng = np.random.default_rng(9)
        mask = rng.random((12, 12)) < 0.7
        b = PointSet2D([(int(x), int(y)) for x, y in np.argwhere(mask)])
        assert find_boundary_centers_2d(b, 5, "count") == \
            len(find_boundary_centers_2d(b, 5))

    def test_r_max_truncates(self):
        side = 11
        b = PointSet2D([(x, y) for x in range(side) for y in range(side)])
        small = find_boundary_centers_2d(b, 2)
        assert {w.radius for w in small} == {2, 4}

    def test_r_max_validation(self):
        b = PointSet2D([(0, 0)])
        with pytest.raises(ParameterError):
            find_boundary_centers_2d(b, 0)

    def test_empty(self):
        assert set(find_boundary_centers_2d(PointSet2D([]), 3)) == set()


def _join_1d(a, mode):
    return _join_offsets(a, a, mode)


# strip sizes: one offset row per FFT strip, a few rows (a strip's float64
# cells are an eighth of these), the default
STRIPS = st.one_of(st.just(1), st.integers(2, 2**12), st.just(2**18))


@st.composite
def boxes_with_holes(draw):
    """The cells of a w x h box (1 <= w, h <= 10) at an offset, less a few
    holes: dense enough that full square boundaries of several radii occur."""
    w, h = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    x0, y0 = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    holes = draw(st.sets(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
                         max_size=w * h // 4))
    return [(x0 + x, y0 + y) for x in range(w) for y in range(h) if (x, y) not in holes]


class TestBackendsAgree:
    """Dense and sparse kernels against each other and the naive oracles."""

    @given(st.sets(st.integers(-30, 30), min_size=2, max_size=16), STRIPS)
    # the row of offset 10, {10, 11, 12, 13}, repeats a sum: 11 + 12 = 10 + 13
    @example({0, 1, 2, 3, 10, 11, 12, 13}, 2**18)
    @example({x << 40 for x in (0, 1, 2, 3, 10, 11, 12, 13)}, 2**18)  # the same, ranked
    @example({0, 1, 2, 3, 7}, 1)  # rows of three and of two elements, one a strip
    # a pair 2**63 apart, which wraps in int64: no offset join frames that span
    @example({-2**62, 0, 2**62}, 2**18)
    @settings(max_examples=80, deadline=None)
    def test_centers_1d(self, vals, strip):
        a = make_intset(vals).as_array()
        expected = oracle_centers_1d(vals)
        kernels = (_join_1d,) * (max(vals) - min(vals) < 2**12) + (_centers_1d_sparse,)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(finders, "_STRIP_CELLS", strip)
            mp.setattr(core_sets, "_STRIP_CELLS", strip)  # the raster read-out's strips
            for kernel in kernels:
                found = kernel(a, "enumerate")
                assert {(p.X, p.Y) for p in found} == expected
                assert list(found) == sorted(found)
                assert kernel(a, "count") == len(expected)

    @given(st.sets(st.integers(-12, 9), min_size=1, max_size=6),
           st.sets(st.integers(-3, 25), min_size=1, max_size=6), STRIPS)
    @example({0, 1}, {4, 5}, 1)  # spans 1-3, one offset row a strip
    @example({0, 2}, {7, 8, 9}, 1)
    @example({-1, 0, 2}, {3, 4, 5, 6}, 2**18)
    @example({0, 5, 9}, {0, 1}, 2**18)  # one-element overlaps at most: no row convolves
    @example({-12, 0}, {3, 5, 6, 25}, 100)  # the same, one row a strip, most overlaps empty
    @example(set(range(-12, 10, 3)), set(range(-3, 26, 2)), 2**11)  # 5 rows a strip
    @settings(max_examples=80, deadline=None)
    def test_join_of_a_product(self, xs, ys, strip):
        # X != Y in general, with unequal spans and a common radius range
        # set by the shorter one; the rows are framed on either set
        x, y = make_intset(xs), make_intset(ys)
        expected = oracle_vertex_centers_2d(PointSet2D.product(x, y).points)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(finders, "_STRIP_CELLS", strip)
            mp.setattr(core_sets, "_STRIP_CELLS", strip)  # the raster read-out's strips
            for xs, ys, swap in ((x, y, False), (y, x, True)):
                found = _join_offsets(xs.as_array(), ys.as_array(), "enumerate")
                assert {(q, p) if swap else (p, q) for p, q in found} == expected
                assert list(found) == sorted(found)
                assert _join_offsets(xs.as_array(), ys.as_array(), "count") == len(expected)

    @given(st.sets(st.tuples(st.integers(-6, 8), st.integers(-4, 10)),
                   min_size=1, max_size=45))
    # two nested squares around one center, each found through its own bottom edge
    @example({(0, 0), (4, 0), (0, 4), (4, 4), (1, 1), (3, 1), (1, 3), (3, 3)})
    @settings(max_examples=80, deadline=None)
    def test_vertex_centers(self, pts):
        b = PointSet2D(pts)
        expected = oracle_vertex_centers_2d(pts)
        for kernel in (_vertex_centers_dense, _vertex_centers_sparse):
            assert {(p.X, p.Y) for p in kernel(b, "enumerate")} == expected
            assert kernel(b, "count") == len(expected)

    @given(st.sets(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=40),
           st.sampled_from([(1, 0), (2**60, 0), (2**59, 2**61), (2**59, -2**61)]),
           st.sampled_from(["count", "enumerate"]))
    # the widest square within +-2**62: a + c = 0 and a width of 2**63, whose
    # top row is B's top row; a lone point between its two rows
    @example({(-4, -4), (4, -4), (-4, 4), (4, 4), (0, 1)}, (2**60, 0), "enumerate")
    # nested squares around one center, each found through its own bottom edge
    @example({(x, y) for x in (-2, -1, 1, 2) for y in (-2, -1, 1, 2) if abs(x) == abs(y)},
             (2**60, 0), "count")
    @settings(max_examples=150, deadline=None)
    def test_pair_scan_on_scaled_sets(self, pts, scale_shift, mode):
        # squares stay squares under x -> scale * x + shift on both axes; the
        # scaled sets reach +-2**62, where a + c and 2y + w only just fit int64
        scale, shift = scale_shift
        b = PointSet2D(pts)
        expected = {(x * scale + 2 * shift, y * scale + 2 * shift)
                    for x, y in oracle_vertex_centers_2d(pts)}
        scaled = PointSet2D([(x * scale + shift, y * scale + shift) for x, y in pts])
        found = _vertex_centers_sparse(scaled, mode)
        assert (found if mode == "count" else {(p.X, p.Y) for p in found}) == (
            len(expected) if mode == "count" else expected)
        assert _vertex_centers_sparse(b, mode) == _vertex_centers_dense(b, mode)

    @given(boxes_with_holes(), st.integers(1, 8), STRIPS)
    # r_eff = 0: a grid 1 or 2 cells wide marks a raster of shape (w, h, 0)
    @example([(x, y) for x in range(2) for y in range(9)], 3, 1)
    @example([(0, y) for y in range(5)], 1, 2**18)
    # r_max past the grid, which allows radii up to 3
    @example([(x, y) for x in range(7) for y in range(12)], 8, 5)
    @settings(max_examples=80, deadline=None)
    def test_boundary_centers(self, pts, r_max, strip):
        b = PointSet2D(pts)
        expected = oracle_boundary_pairs(pts, r_max)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(finders, "_STRIP_CELLS", strip)
            mp.setattr(core_sets, "_STRIP_CELLS", strip)  # the raster read-out's strips
            found = find_boundary_centers_2d(b, r_max)
        assert {(*w.center, w.radius) for w in found} == expected
        assert list(found) == sorted(found)
        assert find_boundary_centers_2d(b, r_max, "count") == len(expected)

    def test_paper_examples(self):
        d3 = gen_Dk(3).as_array()
        assert _join_1d(d3, "count") == _centers_1d_sparse(d3, "count") == 105_542
        assert _join_1d(d3, "enumerate") == _centers_1d_sparse(d3, "enumerate")
        b, _ = gen_vertex_example(2)
        assert _vertex_centers_dense(b, "enumerate") == _vertex_centers_sparse(b, "enumerate")


def _spy_join(monkeypatch):
    """Record each call of the offset join that find_vertex_centers_2d makes."""
    calls = []

    def spy(xs, ys, mode):
        calls.append(mode)
        return _join_offsets(xs, ys, mode)

    monkeypatch.setattr(finders, "_join_offsets", spy)
    return calls


class TestProductDispatch:
    """Product sets X x Y can take the common-radius join; every other set
    keeps the raster sweep or the pair scan."""

    @pytest.mark.parametrize("seed", range(6))
    def test_products_take_the_join(self, monkeypatch, seed):
        # 30 x 30 points, X != Y, spans up to 90 and 120: wide enough that the
        # join is priced under the raster sweep, and dense enough that it is
        # priced under the pair scan; an oracle-sized product, 8 x 10 points,
        # is priced under the join by one or the other.  Checked against the
        # raster sweep, which test_vertex_centers checks against the oracle
        rng = np.random.default_rng(300 + seed)
        x = make_intset(rng.choice(91, size=30, replace=False) - 30)
        y = make_intset(rng.choice(121, size=30, replace=False) + 3)
        b = PointSet2D.product(x, y)
        calls = _spy_join(monkeypatch)
        expected = {(p.X, p.Y) for p in _vertex_centers_dense(b, "enumerate")}
        assert {(p.X, p.Y) for p in find_vertex_centers_2d(b)} == expected
        assert find_vertex_centers_2d(b, "count") == len(expected)
        assert calls == ["enumerate", "count"]

    @given(st.sets(st.integers(-8, 8), min_size=2, max_size=5),
           st.sets(st.integers(0, 20), min_size=2, max_size=5), st.integers(0, 24))
    @settings(max_examples=60, deadline=None)
    def test_near_products_keep_the_old_kernels(self, xs, ys, drop):
        # one point removed: no longer a product, so no join
        pts = sorted(PointSet2D.product(make_intset(xs), make_intset(ys)))
        del pts[drop % len(pts)]
        b = PointSet2D(pts)
        expected = oracle_vertex_centers_2d(pts)
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_join(mp)
            assert {(p.X, p.Y) for p in find_vertex_centers_2d(b)} == expected
            assert find_vertex_centers_2d(b, "count") == len(expected)
        assert calls == []

    def test_vertex_example_k4_is_counted_by_the_join(self, monkeypatch):
        # its bottom row alone holds 237,705 pairs within reach, over the
        # offset join's 105,197 work: the pair scan is not priced
        b, _ = gen_vertex_example(4)
        calls = _spy_join(monkeypatch)
        monkeypatch.setattr(finders, "_pair_scan_price",
                            lambda *args: pytest.fail("the pair scan priced"))
        assert find_vertex_centers_2d(b, "count") == 1_109_548
        assert calls == ["count"]


def _spread_set(seed, size, span):
    rng = np.random.default_rng(seed)
    return make_intset(rng.choice(span, size=size, replace=False).tolist())


class TestSquareProducts:
    """A x A takes the 1D finder's path: the offset join or the sparse join of
    A with itself, whichever costs less, once A is past the few elements over
    a short span whose raster sweep costs less still."""

    @pytest.fixture
    def no_corner_kernels(self, monkeypatch):
        for name in ("_vertex_centers_dense", "_vertex_centers_sparse"):
            monkeypatch.setattr(finders, name, lambda b, mode, name=name:
                                pytest.fail(f"{name} ran on a square product"))

    # the offset join takes the first two, the sparse join the last; the pair
    # scan's 2,629,757, 21,039,531 and 8,383,294 same-row pairs within reach
    # are 18 to 187 times their work, and the last's raster cannot fit
    @pytest.mark.parametrize("size, span", [(200, 909), (400, 2_000), (300, 10**6)])
    def test_wide_square_products_equal_the_1d_finder(self, no_corner_kernels, size, span):
        a = _spread_set(0, size, span)
        b = PointSet2D.product(a, a)
        assert find_vertex_centers_2d(b, "count") == find_centers_1d(a, "count")
        assert find_vertex_centers_2d(b) == find_centers_1d(a)

    @pytest.mark.parametrize("seed", range(4))
    def test_square_products_match_the_oracle(self, no_corner_kernels, seed):
        # a dense box and a sparse spread: the offset and the sparse join; the
        # box, 30 of [0, 60), is past the oracle, so the raster sweep checks it
        for a in (_spread_set(seed, 30, 60), _spread_set(seed, 7, 10**6)):
            b = PointSet2D.product(a, a)
            expected = ({(p.X, p.Y) for p in _vertex_centers_dense(b, "enumerate")}
                        if len(a) > 7 else oracle_vertex_centers_2d(b.points))
            assert {(p.X, p.Y) for p in find_vertex_centers_2d(b)} == expected
            assert find_vertex_centers_2d(b, "count") == len(expected)

    def test_unequal_wide_products_keep_the_corner_kernels(self, monkeypatch):
        # X != Y and the offset join's 10**12 cells cannot fit: the pair scan
        x, y = _spread_set(0, 6, 10**6), _spread_set(1, 7, 10**6)
        b = PointSet2D.product(x, y)
        calls = []
        monkeypatch.setattr(finders, "_vertex_centers_sparse",
                            lambda b, mode: calls.append(mode) or _vertex_centers_sparse(b, mode))
        assert find_vertex_centers_2d(b, "count") == len(oracle_vertex_centers_2d(b.points))
        assert calls == ["count"]


class TestBudgets:
    def test_spread_1d_refuses_before_work(self):
        # 2,000 elements of [0, 10**5): 1,999,000 pairs over at most 10**5
        # radii sweep at least 4e7 pairs, over both limits; the bound alone
        # must decide
        rng = np.random.default_rng(0)
        a = make_intset(rng.choice(10**5, size=2_000, replace=False).tolist())
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="common-radius pair sweep"):
            find_centers_1d(a, "count")
        assert time.perf_counter() - start < 1.0

    def test_dense_1d_memory_is_set_by_the_strip(self):
        # the join holds its occupancy vectors and one FFT strip (1.8 MiB),
        # enumerating its marks raster and read-out too: no pair arrays and no
        # rows x rows product, which peaked at 9.3 MiB for the D_4 count and
        # 10.7 MiB for D_3's rows
        for k, mode, limit in ((4, "count", 3), (3, "enumerate", 5)):
            d = gen_Dk(k)
            tracemalloc.start()
            try:
                found = find_centers_1d(d, mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (found if mode == "count" else len(found)) == (1_109_548, 105_542)[k - 4]
            assert peak < limit * 2**20, f"D_{k} {mode}: peak {peak / 2**20:.1f} MiB"

    def test_wide_sparse_1d_skips_the_occupancy_counts(self, monkeypatch):
        # 300 elements over a span of ~100,000: the offset join's 2,944,845,855
        # work is over even this work limit, so it cannot run and no radius
        # counts are read; the sparse join is priced on its floor
        monkeypatch.setenv("SQUARELAB_BUDGET", "100")
        rng = np.random.default_rng(1)
        a = make_intset(rng.choice(100_001, size=300, replace=False).tolist())
        expected = _centers_1d_sparse(a.as_array(), "count")
        monkeypatch.setattr(finders, "_radius_counts",
                            lambda arr: pytest.fail("radius counts of a sparse set"))
        assert find_centers_1d(a, "count") == expected

    @pytest.mark.parametrize("width", [10**5, 10**6, 10**7])
    def test_wide_by_narrow_product_is_priced_from_its_spans(self, width):
        # 300 values over [0, width) by 0..19: the offset join frames its rows
        # on the 20 cells of Y, and no kernel is priced from X's occupancy
        xs = np.random.default_rng(2).choice(width, size=300, replace=False)
        b = PointSet2D.product(make_intset(xs.tolist()), make_intset(range(20)))
        expected = _vertex_centers_sparse(b, "count")
        start = time.perf_counter()
        assert find_vertex_centers_2d(b, "count") == expected
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("values, scale", [
        # 400 values of [0, 2900): the offset join is preferred by its
        # 1,816,516 work, but its marks raster and read-out, 676,522,892 bytes,
        # are over the limit; the sparse join fits both (2,200,429 work, 75 MB)
        (np.random.default_rng(5).choice(2900, 400, replace=False), "1"),
        # a byte limit of 6,710,886: the sparse join is preferred by its sweep
        # (14 against 15 work), but its two read-out strips are over it
        ([0, 5, 7, 8, 12], "0.0125"),
    ], ids=["offset-bytes-over", "sparse-bytes-over"])
    def test_a_kernel_that_fits_runs_when_the_preferred_one_does_not(
            self, monkeypatch, values, scale):
        a = make_intset(values)
        monkeypatch.setenv("SQUARELAB_BUDGET", "100")
        expected = find_centers_1d(a)
        monkeypatch.setenv("SQUARELAB_BUDGET", scale)
        assert find_centers_1d(a) == expected

    def test_dense_1d_runs_past_the_pair_budget(self):
        # D_4's sparse sweep has 104,464,421 pairs, five times the work limit;
        # its offset join fits both limits
        assert find_centers_1d(gen_Dk(4), "count") == 1_109_548

    def test_vertex_example_k3_under_the_default_budget(self):
        # 50,625 points on a 244 x 244 grid: a product, counted by the offset join
        b, _ = gen_vertex_example(3)
        assert find_vertex_centers_2d(b, "count") == 105_542

    def test_spread_vertices_over_the_point_guard_refuse_before_the_scan(self, monkeypatch):
        # one point per row and a box far over the byte limit: the pair scan
        # has no pair to scan, but its 128 bytes a point of 12,001 points are
        # over the 1,342,177 bytes the scale leaves
        monkeypatch.setenv("SQUARELAB_BUDGET", "0.0025")
        b = PointSet2D([(1000 * i, i) for i in range(12_001)])
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="same-row pair scan") as exc:
            find_vertex_centers_2d(b, "count")
        assert exc.value.unit == "bytes"
        assert time.perf_counter() - start < 1.0

    def test_countable_block_is_priced_at_its_pairs_within_reach(self, monkeypatch):
        # `gen countable --alpha 1 --K 4` block 1: 75,123 points whose row sizes
        # square to 36,086,931, the scan's price before, and whose rows hold
        # 16,131,660 pairs within reach; 1,481,043 squares bounded, 429,261
        # found about 130,175 centers
        b = gen_countable_truncation(1, 4).blocks[0].boundary_set
        picks = _first_fitting(monkeypatch)
        find_vertex_centers_2d(b, "count")
        pts = b.as_array()
        assert finders._pair_scan_price(pts, unique_ints(pts[:, 0]), unique_ints(pts[:, 1])) == (
            16_131_660, 1_481_043)
        assert picks == ["the same-row pair scan"]

    def test_spread_vertices_take_the_pair_scan(self, monkeypatch):
        # a bounding box far over the byte limit: no grid is built
        b = PointSet2D([(0, 0), (10**7, 0), (0, 10**7), (10**7, 10**7), (5, 9)])
        assert set(find_vertex_centers_2d(b)) == {DoubledPoint(10**7, 10**7)}
        monkeypatch.setenv("SQUARELAB_BUDGET", "1e-7")  # 53 bytes: not 5 points
        with pytest.raises(BudgetError, match="same-row pair scan"):
            find_vertex_centers_2d(b)

    def test_boundary_example_k3_under_the_default_budget(self):
        # 59,175 points: a 244 x 244 grid and 20 sweeps of it
        b, _ = gen_boundary_example(3)
        assert find_boundary_centers_2d(b, 20, "count") == 969_226

    def test_sparse_guards_only_price_the_sparse_kernel(self, monkeypatch):
        # the scale leaves a work limit of 1,000,000: D_3's sparse sweep is
        # over it, the offset join that D_3 takes is not
        monkeypatch.setenv("SQUARELAB_BUDGET", "0.05")
        d = gen_Dk(3)
        assert find_centers_1d(d, "count") == 105_542
        assert find_vertex_centers_2d(PointSet2D.product(d, d), "count") == 105_542
        with pytest.raises(BudgetError, match="common-radius pair sweep"):
            _centers_1d_sparse(d.as_array(), "count")

    def test_raster_sweep_marks_one_bool_raster(self):
        # 700 x 700 cells at density 1/2: a bool raster, one center raster and
        # the points' cell indices take ~4.2 MiB; an occupancy grid's two int32
        # run tables would take 3.7 MiB more
        rng = np.random.default_rng(0)
        b = PointSet2D(np.argwhere(rng.random((700, 700)) < 0.5))
        tracemalloc.start()
        try:
            count = _vertex_centers_dense(b, "count")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 895_753
        assert peak < 5 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_raster_sweep_enumerates_into_one_rows_array(self, monkeypatch):
        # 895,753 centers (13.7 MiB of rows) read from the marks raster a strip
        # at a time into one array: np.nonzero, two offset copies and a
        # column_stack took the peak to 3.5x the rows
        rng = np.random.default_rng(0)
        b = PointSet2D(np.argwhere(rng.random((700, 700)) < 0.5))
        swept, sweep = [], finders._vertex_centers_dense
        monkeypatch.setattr(finders, "_vertex_centers_dense",
                            lambda *args: swept.append(True) or sweep(*args))
        tracemalloc.start()
        try:
            rows = find_vertex_centers_2d(b).as_array()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert swept and len(rows) == 895_753
        assert peak <= 2 * rows.nbytes, f"peak {peak / rows.nbytes:.2f}x the rows"

    def test_boundary_sweep_enumerates_into_one_rows_array(self):
        # 969,226 pairs (22.2 MiB of rows) marked in one 244 x 244 x 20 bool
        # raster and read from it a strip at a time into one array: per-radius
        # row lists, their concatenation, its doubled copy and a lexsort took
        # the peak to 4.5x the rows
        b, _ = gen_boundary_example(3)
        tracemalloc.start()
        try:
            rows = find_boundary_centers_2d(b, 20).as_array()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 969_226
        assert peak <= 1.5 * rows.nbytes, f"peak {peak / rows.nbytes:.2f}x the rows"

    def test_sparse_join_counts_a_strip_of_rows_at_a_time(self, monkeypatch):
        # D_4 forced onto the sparse join: its 237,705 pairs and one strip
        # of rows; a global key set of its pairs of pairs took 1,297 MiB
        monkeypatch.setenv("SQUARELAB_BUDGET", "100")
        d4 = gen_Dk(4).as_array()
        tracemalloc.start()
        try:
            count = _centers_1d_sparse(d4, "count")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 1_109_548
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_sparse_join_enumerates_into_one_rows_array(self):
        # 2,956,022 centers (45.1 MiB of rows) as rank keys sorted in place
        # and split into one array: three concatenated center columns, their
        # column_stack and its lexsort took the peak to 5.8x the rows
        a = make_intset(np.random.default_rng(400).choice(2000, 400, replace=False)).as_array()
        tracemalloc.start()
        try:
            rows = _centers_1d_sparse(a, "enumerate").as_array()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 2_956_022
        assert peak <= 2.5 * rows.nbytes, f"peak {peak / rows.nbytes:.2f}x the rows"

    def test_boundary_sweep_is_priced_before_its_grid(self):
        # 1000 x 1000 cells and 21 radii: over the work limit, refused before
        # the 1 MB of cells and 8 MB of run tables are allocated
        b = PointSet2D([(0, 0), (999, 999)])
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="per-radius boundary sweep"):
                find_boundary_centers_2d(b, 21, "count")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16, f"peak {peak / 2**20:.1f} MiB"

    def test_boundary_guards_refuse_before_work(self):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="3001 x 3001 occupancy grid"):
            find_boundary_centers_2d(PointSet2D([(0, 0), (3_000, 3_000)]), 5)
        # 1000 x 1000 cells swept once per radius: 20 radii fill the work limit
        with pytest.raises(BudgetError, match="per-radius boundary sweep"):
            find_boundary_centers_2d(PointSet2D([(0, 0), (999, 999)]), 21, "count")
        assert time.perf_counter() - start < 1.0


def _brute_radius_counts(a):
    """c[d] for d = 0 .. span from all pair differences at once."""
    d = (a[None, :] - a[:, None]).ravel()
    return np.bincount(d[d > 0], minlength=int(a[-1] - a[0]) + 1)


def _exact_estimate(kernel, a, mode):
    """(bytes, work) of a kernel at its exact price: the sparse join of A from
    its true radius counts, as it prices itself from its sorted differences;
    every other kernel as its finder priced it."""
    if kernel.what != finders._SPARSE_JOIN:
        return kernel.nbytes, kernel.work
    c = _brute_radius_counts(a)
    pairs, sweep, widest = int(c.sum()), int(np.dot(c, c)), int(c.max())
    return finders._sparse_bytes(pairs, (sweep - pairs) // 2, widest, mode), sweep


def _first_fitting(monkeypatch):
    """Record the kernel each finder call runs, running none."""
    picks, run = [], finders._run_first_fitting
    monkeypatch.setattr(finders, "_run_first_fitting", lambda kernels: run(
        [k._replace(run=partial(picks.append, k.what)) for k in kernels]))
    return picks


class TestPricingRule:
    """The join's pick rests on the sparse sweep, counted exactly from the
    pair differences wherever the offset join fits and the Cauchy-Schwarz
    floor leaves the pick open; a finder refuses only when nothing fits."""

    @given(st.one_of(st.sets(st.integers(-50, 50), min_size=2, max_size=40),
                     st.sets(st.integers(0, 3_000), min_size=2, max_size=40)))
    @example({3, 10})  # two elements
    @settings(max_examples=150, deadline=None)
    def test_radius_counts_are_the_pair_differences(self, vals):
        a = make_intset(vals).as_array()
        assert finders._radius_counts(a).tolist() == _brute_radius_counts(a).tolist()

    @given(st.sets(st.integers(0, 60), min_size=2, max_size=20),
           st.sets(st.integers(-20, 40), min_size=2, max_size=6),
           st.sampled_from(["1d", "XxX", "XxY"]), st.floats(-4, 0),
           st.sampled_from(["count", "enumerate"]))
    # 0..54 squared: the offset join's strips cannot fit, the sparse join fits
    # on its floor and refuses on its sorted differences, and the raster sweep fits
    @example(set(range(55)), {0, 1}, "XxX", math.log10(0.00225), "count")
    @settings(max_examples=150, deadline=None)
    def test_a_finder_answers_or_no_kernel_fits(self, xs, ys, kind, log_scale, mode):
        x = make_intset(sorted(xs)[:7] if kind == "XxY" else xs)
        y = make_intset(ys) if kind == "XxY" else x
        kernels, run = [], finders._run_first_fitting
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("SQUARELAB_BUDGET", repr(10**log_scale))
            mp.setattr(finders, "_run_first_fitting", lambda ks: kernels.extend(ks) or run(ks))
            try:
                found = (find_centers_1d(x, mode) if kind == "1d"
                         else find_vertex_centers_2d(PointSet2D.product(x, y), mode))
            except BudgetError:
                assert not any(finders._fits(*_exact_estimate(k, x.as_array(), mode))
                               for k in kernels)
                return
        expected = len(oracle_centers_1d(x) if kind != "XxY"
                       else oracle_vertex_centers_2d(PointSet2D.product(x, y)))
        assert (found if mode == "count" else len(found)) == expected

    @pytest.mark.parametrize("scale, make, pick", [
        *[("1", lambda k=k: gen_Dk(k), "offset join") for k in (2, 3, 4, 5, 6, 7)],
        *[("1", lambda k=k: PointSet2D.product(gen_Dk(k), gen_Dk(k)), "offset join")
          for k in (2, 3)],
        ("1", lambda: PointSet2D(np.argwhere(np.random.default_rng(0).random((120, 120)) < 0.3)),
         "per-width raster sweep"),
        ("1", lambda: PointSet2D(np.random.default_rng(0).integers(0, 10**6, (4_000, 2))),
         "same-row pair scan"),
        ("0.05", lambda: make_intset(range(0, 1200, 6)), "offset join"),
        ("1", lambda: make_intset(np.random.default_rng(5).choice(3000, 700, replace=False)),
         "offset join"),
        ("1", lambda: make_intset(np.random.default_rng(5).choice(3000, 200, replace=False)),
         "common-radius pair sweep"),
        *[("1", lambda w=w: PointSet2D.product(
            make_intset(np.random.default_rng(2).choice(w, 300, replace=False)),
            make_intset(range(20))), pick)
          for w, pick in ((10**5, "same-row pair scan"), (10**6, "same-row pair scan"),
                          (10**7, "same-row pair scan"))],
    ], ids=["d2", "d3", "d4", "d5", "d6", "d7", "d2xd2", "d3xd3", "box", "spread", "step6",
            "700-of-3000", "200-of-3000", "300x20-1e5", "300x20-1e6", "300x20-1e7"])
    def test_picks(self, monkeypatch, scale, make, pick):
        s = make()
        monkeypatch.setenv("SQUARELAB_BUDGET", scale)
        picks = _first_fitting(monkeypatch)
        (find_centers_1d if isinstance(s, IntSet1D) else find_vertex_centers_2d)(s, "count")
        assert len(picks) == 1 and pick in picks[0]


class TestCenterRows:
    """Enumerated results: rows in ascending order, one value type per finder."""

    def _results(self):
        rng = np.random.default_rng(21)
        a = random_intset(rng)
        b = random_pointset(rng, max_size=60, coord=9)
        mask = rng.random((12, 12)) < 0.8
        strips = PointSet2D([(int(x), int(y)) for x, y in np.argwhere(mask)])
        return [
            (find_centers_1d(a), find_centers_1d(a, "count"), DoubledPoint),
            (find_vertex_centers_2d(b), find_vertex_centers_2d(b, "count"), DoubledPoint),
            (_vertex_centers_sparse(b, "enumerate"), _vertex_centers_sparse(b, "count"),
             DoubledPoint),
            (find_boundary_centers_2d(strips, 5), find_boundary_centers_2d(strips, 5, "count"),
             CenterWitness),
        ]

    def test_iterates_ascending_and_len_is_the_count(self):
        for found, count, kind in self._results():
            items = list(found)
            assert items and all(type(v) is kind for v in items)
            assert items == sorted(set(items))
            assert len(found) == len(items) == count
            assert [tuple(row) for row in found.as_array().tolist()] == [
                (*v.center, v.radius) if kind is CenterWitness else tuple(v) for v in items]

    def test_membership(self):
        for found, _, kind in self._results():
            items = list(found)
            for v in items[::7]:
                assert v in found
            if kind is CenterWitness:
                assert CenterWitness(items[0].center, 10**6) not in found
                assert items[0].center not in found
            else:
                assert DoubledPoint(10**6, 10**6) not in found
                assert (*items[0], 0) not in found
            assert None not in found and "x" not in found

    @given(st.sets(st.integers(-20, 20), min_size=2, max_size=14),
           st.sets(st.integers(-5, 30), min_size=2, max_size=8), boxes_with_holes())
    @settings(max_examples=60, deadline=None)
    def test_every_kernel_enumerates_strictly_increasing_rows(self, xs, ys, pts):
        # the kernels' rows are kept unchecked; the pair scan sorts its own
        x, y, b = make_intset(xs).as_array(), make_intset(ys).as_array(), PointSet2D(pts)
        for found in (_join_offsets(x, x, "enumerate"), _join_offsets(x, y, "enumerate"),
                      _centers_1d_sparse(x, "enumerate"), _vertex_centers_dense(b, "enumerate"),
                      _vertex_centers_sparse(b, "enumerate"), find_boundary_centers_2d(b, 4)):
            rows = found.as_array().tolist()
            assert all(p < q for p, q in zip(rows, rows[1:]))

    def test_rows_are_read_only(self):
        found = find_vertex_centers_2d(PointSet2D([(0, 0), (2, 0), (0, 2), (2, 2)]))
        assert found.as_array().tolist() == [[2, 2]]
        with pytest.raises(ValueError):
            found.as_array()[0, 0] = 0

    def test_empty_results_keep_their_width(self):
        assert find_centers_1d(make_intset([3])).as_array().shape == (0, 2)
        assert find_vertex_centers_2d(PointSet2D([])).as_array().shape == (0, 2)
        assert find_boundary_centers_2d(PointSet2D([(0, 0)]), 3).as_array().shape == (0, 3)
        assert CenterRows(np.zeros((0, 2), dtype=np.int64)) == \
            find_vertex_centers_2d(PointSet2D([(0, 0)]))

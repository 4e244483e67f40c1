import os
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squarelab import (
    BudgetError,
    FormatError,
    IntSet1D,
    OccupancyGrid,
    ParameterError,
    PointSet2D,
    RangeError,
    format_intset_text,
    format_pointset_text,
    gen_AN,
    gen_boundary_example,
    make_intset,
    parse_intset_text,
    parse_pointset_text,
)
from squarelab import constructions as cons, dimension_lab, finders
from squarelab.finders import CenterRows, CenterWitness, DoubledPoint
from squarelab.core_sets import (
    COORD_LIMIT,
    DEFAULT_BYTE_LIMIT,
    DEFAULT_WORK_LIMIT,
    _FORMAT_BLOCK,
    _RASTER_BLOCK,
    _format_rows,
    _int_columns,
    budget_scale,
    unique_ints,
    effective_budget,
    require_budget,
)

from oracles import (
    oracle_make_intset,
    oracle_make_pointset,
    oracle_parse_intset,
    oracle_parse_pointset,
    oracle_segment_full,
)

# coordinates that stress the int64 fast paths: the limit, just past it, past int64
EDGE_INTS = [2**62, -2**62, 2**62 + 1, -2**62 - 1, 2**63 - 1, 2**63, -2**63 - 1, 2**64]
# 0, +-1, +-2**62, and +-(10**j - 1), +-10**j where the digit count changes
DIGIT_EDGES = [0, 1, -1, 2**62, -2**62] + [
    sign * (10**j + d) for j in range(1, 19) for d in (-1, 0) for sign in (1, -1)]
# tokens of digits and '-' only, which reach numpy's parser: it must refuse
# exactly the ones int() refuses
PLAIN_TOKENS = ["5-3", "--5", "-", "-0", "007", 10**18 - 1, 10**18, -2**63]


def _set_file_text(plain, other):
    """Set-file texts: lines all drawn from `plain` (digits, '-', spaces and
    '#' lines), or from both strategies, any line then ending in CR."""
    mixed = st.tuples(st.one_of(plain, other), st.booleans()).map(
        lambda p: p[0] + "\r" * p[1])
    return st.tuples(st.one_of(st.lists(plain, max_size=12), st.lists(mixed, max_size=12)),
                     st.booleans()).map(lambda p: "\n".join(p[0]) + "\n" * p[1])


def _examples(*texts):
    """Apply ``hypothesis.example(text=...)`` once per text."""
    def apply(test):
        for text in texts:
            test = example(text=text)(test)
        return test
    return apply


class TestIntSet1D:
    def test_strictly_increasing_required(self):
        with pytest.raises(ParameterError):
            IntSet1D([1, 1, 2])
        with pytest.raises(ParameterError):
            IntSet1D([3, 2])

    def test_make_intset_sorts_and_dedups(self):
        s = make_intset([5, -1, 5, 0, -1])
        assert s.elems == (-1, 0, 5)

    def test_basic_accessors(self):
        s = make_intset([4, -7, 2])
        assert (s.min(), s.max(), len(s)) == (-7, 4, 3)
        assert 2 in s and 3 not in s
        assert list(s) == [-7, 2, 4]
        assert s.translate(10).elems == (3, 12, 14)

    def test_coordinate_limit(self):
        with pytest.raises(RangeError):
            make_intset([0, COORD_LIMIT + 1])
        # the limit itself is allowed
        make_intset([-COORD_LIMIT, COORD_LIMIT])

    def test_equality_and_hash(self):
        assert make_intset([1, 2]) == make_intset([2, 1])
        assert hash(make_intset([1, 2])) == hash(IntSet1D([1, 2]))
        assert make_intset([1, 2]) != make_intset([1, 3])

    def test_from_sorted_array_matches_constructor(self):
        arr = np.array([-3, 0, 9], dtype=np.int64)
        assert IntSet1D.from_sorted_array(arr) == make_intset([9, -3, 0])

    @pytest.mark.parametrize("floats", [[0.5, 1.9], np.array([0.5, 1.9])])
    def test_from_sorted_array_refuses_floats_as_the_constructor(self, floats):
        with pytest.raises(ParameterError, match="got float"):
            IntSet1D.from_sorted_array(floats)

    def test_as_array_roundtrip(self):
        s = make_intset(range(-5, 6))
        assert IntSet1D.from_sorted_array(s.as_array()) == s

    @given(st.lists(st.integers(-10**6, 10**6)))
    def test_make_intset_is_sorted_set(self, xs):
        s = make_intset(xs)
        assert s.elems == tuple(sorted(set(xs)))

    def test_empty_set(self):
        s = make_intset([])
        assert len(s) == 0 and list(s) == []
        assert 0 not in s and np.int64(0) not in s
        with pytest.raises(RangeError):
            s.min()
        with pytest.raises(RangeError):
            s.max()

    @pytest.mark.parametrize("build, src", [
        (IntSet1D, [1, 4, 9]), (IntSet1D.from_sorted_array, [1, 4, 9]),
        (make_intset, [1, 4, 9]), (make_intset, [9, 1, 4, 1])])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_never_freezes_or_aliases_a_callers_array(self, build, src, dtype):
        arr = np.array(src, dtype=dtype)
        s = build(arr)
        assert arr.flags.writeable and not np.may_share_memory(s.as_array(), arr)
        arr[:] = 100
        assert s.elems == (1, 4, 9) and not s.as_array().flags.writeable

    def test_unique_ints_keeps_canonical_input(self):
        arr = np.array([-3, 0, 9], dtype=np.int64)
        assert unique_ints(arr) is arr
        for arr in (np.array([], dtype=np.int64), np.array([5], dtype=np.int64)):
            assert unique_ints(arr) is arr
        assert unique_ints(np.array([9, 0, 0, -3])).tolist() == [-3, 0, 9]
        assert unique_ints(np.array([[2, 1], [1, 0]])).tolist() == [0, 1, 2]

    @given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_unique_ints_matches_np_unique(self, values):
        # unsorted input, non-decreasing input (as a point set's x column, a
        # strided view, is) and strictly increasing input, which comes back itself
        arr = np.array(values, dtype=np.int64)
        ref = np.unique(arr)
        for given_ in (arr, np.sort(arr), np.column_stack((np.sort(arr), arr))[:, 0]):
            out = unique_ints(given_)
            assert out.dtype == np.int64 and out.tolist() == ref.tolist()
        view = np.column_stack((ref, ref))[:, 0]
        assert unique_ints(ref) is ref and unique_ints(view) is view

    def test_array_is_a_read_only_copy(self):
        src = np.array([1, 4, 9], dtype=np.int64)
        s = IntSet1D.from_sorted_array(src)
        src[0] = 100
        assert s.elems == (1, 4, 9)
        with pytest.raises(ValueError):
            s.as_array()[0] = 0

    def test_membership(self):
        s = make_intset([-3, 2, 2**62])
        assert -3 in s and np.int64(2) in s and 2**62 in s
        for v in (-4, 0, 3, 2**62 - 1, 2**70, -2**70, 2.5, "2", None, (2,)):
            assert v not in s

    @given(st.lists(st.one_of(
        st.integers(-2**65, 2**65),
        st.sampled_from([2**62, 2**62 + 1, -2**62 - 1, 2**63, -2**63 - 1,
                         np.int64(-2**62 - 1), np.uint64(2**63), 1.0, "3", None]),
        st.integers(-50, 50)), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_validation_matches_scalar_oracle(self, xs):
        expected = oracle_make_intset(xs)
        try:
            got = make_intset(xs).elems
        except (ParameterError, RangeError) as exc:
            got = (type(exc).__name__, str(exc))
        assert got == expected
        if isinstance(expected, tuple) and all(isinstance(v, int) for v in expected):
            # the constructor checks coordinates first, then the order
            ordered = sorted(set(int(v) for v in xs))
            assert IntSet1D(ordered).elems == expected

    def test_constructor_checks_coordinates_then_order(self):
        with pytest.raises(RangeError, match="coordinate 4611686018427387905"):
            IntSet1D([5, 1, 2**62 + 1])
        with pytest.raises(ParameterError, match="got float"):
            IntSet1D([2, 1, 0.5])
        with pytest.raises(ParameterError, match="strictly increasing"):
            IntSet1D(np.array([2, 1]))

    def test_translate_names_the_first_coordinate_out_of_range(self):
        s = make_intset([0, 2**62 - 5, 2**62 - 2, 2**62])
        with pytest.raises(RangeError, match=f"coordinate {2**62 + 1} "):
            s.translate(3)
        with pytest.raises(RangeError, match=f"coordinate {2**63} "):
            make_intset([2**62]).translate(2**62)
        with pytest.raises(RangeError, match=f"coordinate {-2**62 - 2} "):
            make_intset([-2**62, -2**62 + 1, 7]).translate(-2)
        assert make_intset([2**62]).translate(-2**62).elems == (0,)


class TestPointSet2D:
    def test_dedup_and_order(self):
        ps = PointSet2D([(1, 2), (0, 0), (1, 2)])
        assert len(ps) == 2
        assert tuple(ps) == ((0, 0), (1, 2))

    def test_bbox(self):
        ps = PointSet2D([(3, -1), (-2, 7)])
        assert ps.bbox() == (-2, -1, 3, 7)
        assert PointSet2D([]).bbox() is None

    def test_translate_and_transpose(self):
        ps = PointSet2D([(1, 2), (3, 4)])
        assert tuple(ps.translate(10, -10)) == ((11, -8), (13, -6))
        assert tuple(ps.transpose()) == ((2, 1), (4, 3))
        assert ps.transpose().transpose() == ps

    def test_product(self):
        xs = make_intset([0, 1])
        ys = make_intset([5, 6, 7])
        ps = PointSet2D.product(xs, ys)
        assert len(ps) == 6
        assert (1, 7) in ps.points and (2, 5) not in ps.points
        # born in order, as outside input of the same points sorts into
        assert ps == PointSet2D([(x, y) for y in ys for x in xs])
        assert len(PointSet2D.product(xs, make_intset([]))) == 0

    def test_coordinate_limit(self):
        with pytest.raises(RangeError):
            PointSet2D([(0, COORD_LIMIT + 1)])

    @given(st.lists(st.tuples(*[st.one_of(
        st.integers(-40, 40), st.integers(-2**65, 2**65), st.sampled_from(EDGE_INTS),
        st.sampled_from([np.int64(-2**62 - 1), np.uint64(2**63), 1.0, "3", None]))] * 2),
        max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_validation_matches_scalar_oracle(self, pts):
        expected = oracle_make_pointset(pts)
        try:
            got = tuple(PointSet2D(pts))
        except (ParameterError, RangeError) as exc:
            got = (type(exc).__name__, str(exc))
        assert got == expected

    def test_constructor_names_x_before_y(self):
        with pytest.raises(RangeError, match=f"coordinate {2**62 + 1} "):
            PointSet2D([(0, 0), (2**62 + 1, 2**63), (2**64, 0)])
        with pytest.raises(RangeError, match=f"coordinate {-2**63} "):
            PointSet2D([(1, -2**63), (2**62 + 1, 0)])
        with pytest.raises(ParameterError, match="got float"):
            PointSet2D([(1, 2), (0.5, 2**70)])
        with pytest.raises(RangeError, match=f"coordinate {2**62 + 1} "):
            PointSet2D(np.array([[5, 1], [0, 2**62 + 1], [2**62 + 2, 0]]))

    @pytest.mark.parametrize("rows, message", [
        ([(1, 2), (3,)], "row 1 is not an (x, y) pair: (3,)"),
        ([(1, 2, 3)], "row 0 is not an (x, y) pair: (1, 2, 3)"),
        ([(1, 2), 5, (0.5, 0)], "row 1 is not an (x, y) pair: 5"),
    ])
    def test_rows_that_are_not_pairs_are_named(self, rows, message):
        with pytest.raises(ParameterError) as exc:
            PointSet2D(rows)
        assert str(exc.value) == message

    def test_translate_names_the_first_coordinate_out_of_range(self):
        # int64 would wrap 2**62 + 2**62 to -2**63
        with pytest.raises(RangeError, match=f"coordinate {2**63} "):
            PointSet2D([(2**62, 0)]).translate(2**62, 0)
        with pytest.raises(RangeError, match=f"coordinate {2**62 + 2} "):
            PointSet2D([(0, 2**62 - 5), (1, 2**62), (2, 2**62 - 1)]).translate(0, 2)
        assert tuple(PointSet2D([(2**62, -2**62)]).translate(-2**62, 2**62)) == ((0, 0),)

    def test_array_is_a_read_only_copy(self):
        src = np.array([[3, 4], [1, 2]], dtype=np.int64)
        ps = PointSet2D(src)
        src[0, 0] = 100
        assert tuple(ps) == ((1, 2), (3, 4))
        with pytest.raises(ValueError):
            ps.as_array()[0, 0] = 0
        src = np.array([[1, 2], [3, 4]])  # sorted input is kept, but as a copy
        ps = PointSet2D(src)
        src[0, 0] = 100
        assert tuple(ps) == ((1, 2), (3, 4))
        assert PointSet2D(ps.as_array()) == ps

    def test_membership(self):
        ps = PointSet2D([(-3, 2), (2**62, -2**62), (0, 0), (0, 5)])
        assert (-3, 2) in ps and (np.int64(0), 5) in ps and (2**62, -2**62) in ps
        for p in ((0, 1), (2, -3), (2**64, 0), (0.0, 0), [0, 0], (0, 0, 0), 0, None):
            assert p not in ps

    @given(st.lists(st.tuples(st.integers(-2**62, 2**62), st.integers(-2**62, 2**62)),
                    max_size=12),
           st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), max_size=30),
           st.integers(-2**62, 2**62), st.integers(-40, 40))
    @settings(max_examples=150, deadline=None)
    def test_operations_match_tuple_sets(self, wide, narrow, big, small):
        for pts in (wide, narrow, wide + narrow):
            ps = PointSet2D(pts)
            ref = set(pts)
            assert ps.points == ref and tuple(ps) == tuple(sorted(ref))
            assert list(ps) == sorted(ref) and len(ps) == len(ref)
            assert ps.bbox() == (None if not ref else (
                min(x for x, _ in ref), min(y for _, y in ref),
                max(x for x, _ in ref), max(y for _, y in ref)))
            assert ps.transpose().points == {(y, x) for x, y in ref}
            for dx, dy in ((small, -small), (big, small), (small, big)):
                moved = [(x + dx, y + dy) for x, y in sorted(ref)]
                expected = oracle_make_pointset(moved)
                try:
                    got = tuple(ps.translate(dx, dy))
                except RangeError as exc:
                    got = ("RangeError", str(exc))
                assert got == expected
        xs, ys = make_intset(x for x, _ in narrow), make_intset(y for _, y in narrow)
        assert PointSet2D.product(xs, ys).points == {(x, y) for x in xs for y in ys}


# unsorted, with a duplicate; the first column alone is a set of four integers
ROWS = np.array([(4, 0), (-3, 2), (2**62, -2**62), (0, 5), (-3, 2)], dtype=np.int64)
# (build from (N, 2) rows, a row as the type's item)
ROW_SETS = {
    IntSet1D: (lambda rows: make_intset(rows[:, 0]), lambda row: row[0]),
    PointSet2D: (PointSet2D, tuple),
    CenterRows: (CenterRows, tuple),
}


class TestRowSets:
    """The invariants of the one frozen-rows core that the three types share."""

    @pytest.mark.parametrize("kind", ROW_SETS)
    def test_rows_are_frozen_ordered_and_distinct(self, kind):
        build, item = ROW_SETS[kind]
        s = build(ROWS)
        arr = s.as_array()
        assert type(s) is kind and arr.dtype == np.int64 and not arr.flags.writeable
        distinct = sorted({item(row) for row in ROWS.tolist()})
        assert [item(row) for row in arr.reshape(len(arr), -1).tolist()] == distinct
        assert len(s) == len(distinct) == 4
        # sorted input is kept, as a copy: the caller's array stays its own
        src = np.array(sorted(set(map(tuple, ROWS.tolist()))), dtype=np.int64)
        assert build(src) == s
        assert src.flags.writeable and not np.may_share_memory(build(src).as_array(), src)

    @pytest.mark.parametrize("kind", ROW_SETS)
    def test_equality_and_hash(self, kind):
        build, _ = ROW_SETS[kind]
        s, same, other = build(ROWS), build(ROWS[::-1]), build(ROWS[1:3])
        assert s == same and s != other and not s != same
        if kind is CenterRows:
            with pytest.raises(TypeError):
                hash(s)
        else:
            assert hash(s) == hash(same)

    def test_equality_stays_within_one_type(self):
        # the same int64 bytes, and for the 2D types the same array
        one, two = np.array([1, 2]), np.array([[1, 2]])
        assert make_intset(one) != PointSet2D(two) and PointSet2D(two) != make_intset(one)
        assert hash(make_intset(one)) == hash(PointSet2D(two))
        assert PointSet2D(two) != CenterRows(two) and CenterRows(two) != PointSet2D(two)

    @pytest.mark.parametrize("kind", ROW_SETS)
    def test_membership(self, kind):
        build, item = ROW_SETS[kind]
        s, empty = build(ROWS), build(ROWS[:0])
        for row in ROWS.tolist():
            assert item(row) in s and item(row) not in empty
        # the second row's key with its first value replaced; a uint64 near
        # 2**62 would match 2**62 if the search compared it as a float
        for bad in (2.5, "4", None, 2**62 - 1, 2**62 + 1, 2**63, 2**64, -2**63 - 1,
                    np.uint64(2**62 - 1)):
            assert item([bad, -2**62]) not in s
        for key in ((4,), (4, 0, 0), [4, 0]):  # wrong width, or not a tuple
            assert key not in s

    def test_a_witness_is_a_member_of_its_rows(self):
        rows = CenterRows(np.array([[2, 4, 6], [0, 0, 2]]))
        assert CenterWitness(DoubledPoint(2, 4), 6) in rows and (0, 0, 2) in rows
        assert CenterWitness(DoubledPoint(2, 4), 2) not in rows
        assert DoubledPoint(2, 4) not in rows


class TestOccupancyGrid:
    def _grid_and_points(self, seed, w=9, h=7, density=0.5):
        rng = np.random.default_rng(seed)
        mask = rng.random((w, h)) < density
        pts = [(int(x) - 3, int(y) - 2) for x, y in np.argwhere(mask)]
        return OccupancyGrid.from_points(PointSet2D(pts)), pts

    def test_out_of_bounds_is_not_full(self):
        grid = OccupancyGrid.from_points(PointSet2D([(x, y) for x in range(3) for y in range(3)]))
        assert grid.boundary_full(1, 1, 1)
        assert not grid.boundary_full(1, 1, 2)  # leaves the box on every side
        assert not grid.boundary_full(np.array([0, 2, 100]), 1, 1).any()

    @pytest.mark.parametrize("seed", range(4))
    def test_boundary_full_matches_membership_walk(self, seed):
        grid, pts = self._grid_and_points(seed, w=9, h=8, density=0.85)
        sx, sy, r = np.meshgrid(np.arange(-5, 8), np.arange(-4, 7), np.arange(1, 6),
                                indexing="ij")
        full = grid.boundary_full(sx, sy, r)
        assert full.shape == sx.shape
        for x, y, rr, got in zip(sx.ravel(), sy.ravel(), r.ravel(), full.ravel()):
            x, y, rr = int(x), int(y), int(rr)
            expected = (oracle_segment_full(pts, "horizontal", y - rr, x - rr, x + rr)
                        and oracle_segment_full(pts, "horizontal", y + rr, x - rr, x + rr)
                        and oracle_segment_full(pts, "vertical", x - rr, y - rr, y + rr)
                        and oracle_segment_full(pts, "vertical", x + rr, y - rr, y + rr))
            assert bool(got) == expected

    def test_boundary_full_broadcasts_scalars(self):
        grid = OccupancyGrid.from_points(PointSet2D([(x, y) for x in range(5) for y in range(5)]))
        assert grid.boundary_full(2, 2, 2) and not grid.boundary_full(2, 2, 3)
        assert grid.boundary_full(2, 2, np.arange(1, 4)).tolist() == [True, True, False]
        assert grid.boundary_full(np.arange(5)[:, None], np.arange(5), 1).sum() == 9

    @pytest.mark.parametrize("args", [(1, 1, 0), (1, 1, -1), (1, 1, np.array([1, 0])),
                                      (1.9, 1.9, 1.9), (1, 1, 1.0), (True, 1, 1), (1, "1", 1)])
    def test_boundary_full_refuses_non_integers_and_radii_below_one(self, args):
        grid = OccupancyGrid.from_points(PointSet2D([(x, y) for x in range(3) for y in range(3)]))
        with pytest.raises(ParameterError):
            grid.boundary_full(*args)

    def test_cell_budget(self):
        with pytest.raises(BudgetError) as exc:
            OccupancyGrid.from_points(PointSet2D([(0, 0), (10**6, 10**6)]))
        assert exc.value.estimate > exc.value.limit

    def test_empty_sets_and_non_bool_cells_are_refused(self):
        with pytest.raises(ParameterError, match="empty point set"):
            OccupancyGrid.from_points(PointSet2D([]))
        for cells in (np.ones((2, 2), dtype=np.int64), np.ones(4, dtype=bool)):
            with pytest.raises(ParameterError, match="cells must be a 2D bool array"):
                OccupancyGrid(0, 0, cells)

    def test_grid_build_holds_one_block_of_indices(self):
        # two int64 index arrays of all 585,120 points took the build of the
        # k = 4 boundary example's grid to 9.5 MiB beside its 4.5 MiB of run
        # tables; a block of points at a time, it peaks within one block
        b, _ = gen_boundary_example(4)
        tracemalloc.start()
        try:
            grid = OccupancyGrid.from_points(b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(run.nbytes for run in grid._runs)
        assert peak <= held + 16 * _RASTER_BLOCK, f"peak {peak / 2**20:.2f} MiB"


class TestBudgets:
    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("SQUARELAB_BUDGET", "2.5")
        assert budget_scale() == 2.5
        assert effective_budget(100) == 250

    def test_env_scale_rejects_garbage(self, monkeypatch):
        for bad in ("zero", "-1", "0", "nan", "inf", "-inf", "1e400"):
            monkeypatch.setenv("SQUARELAB_BUDGET", bad)
            with pytest.raises(ParameterError):
                budget_scale()

    def test_require_budget_boundary(self):
        # each limit passes at equality and refuses one past it, in its unit
        require_budget("exact fit", nbytes=DEFAULT_BYTE_LIMIT, work=DEFAULT_WORK_LIMIT)
        for key, unit, limit in (("nbytes", "bytes", DEFAULT_BYTE_LIMIT),
                                 ("work", "work", DEFAULT_WORK_LIMIT)):
            with pytest.raises(BudgetError) as exc:
                require_budget("one over", **{key: limit + 1})
            assert (exc.value.estimate, exc.value.limit, exc.value.unit) == (limit + 1, limit, unit)
            assert str(exc.value) == (f"refusing to materialize one over (estimated "
                                      f"{limit + 1:,} {unit}, budget {limit:,}; "
                                      f"raise via SQUARELAB_BUDGET)")



# Each integer parameter, as a call of one argument, with a value it accepts
# and the error it raises: an int or numpy integer passes, a bool or a float
# is refused with the message an out-of-range int gets.
_D2 = make_intset([0, 1, 3, 4])
_B = PointSet2D([(x, y) for x in range(3) for y in range(3)])
INT_PARAMS = {
    "gen_Dk": (cons.gen_Dk, 2, ParameterError),
    "gen_AN": (cons.gen_AN, 2, ParameterError),
    "interpolation_level": (cons.interpolation_level, 2, ParameterError),
    "gen_cantor_truncation": (partial(cons.gen_cantor_truncation, 2), 1, ParameterError),
    "gen_countable_truncation alpha": (partial(cons.gen_countable_truncation, K=1), 1,
                                       ParameterError),
    "gen_countable_truncation K": (partial(cons.gen_countable_truncation, 1), 1,
                                   ParameterError),
    "default_a_sequence": (cons.default_a_sequence, 2, ParameterError),
    "covering_count_1d": (partial(dimension_lab.covering_count_1d, _D2), 1, ParameterError),
    "dyadic_box_count_2d": (partial(dimension_lab.dyadic_box_count_2d, _B), 1, RangeError),
    "snap_to_grid": (partial(dimension_lab.snap_to_grid, _B), -1, ParameterError),
    "falconer_ratios": (partial(dimension_lab.falconer_ratios, 2, which="upper"), 2,
                        ParameterError),
    "falconer_ratios s": (partial(dimension_lab.falconer_ratios, j_max=5, which="upper"), 2,
                          ParameterError),
    "gen_cantor_truncation s": (partial(cons.gen_cantor_truncation, p=2), 2, ParameterError),
    "find_boundary_centers_2d": (partial(finders.find_boundary_centers_2d, _B), 1,
                                 ParameterError),
    "splice_En checkpoint": (lambda v: cons.splice_En([[0, 1], [1, 2]], [0, v, 3]), 1,
                             ParameterError),
    "splice_En d": (partial(cons.splice_En, [[0, 1], [1, 2]], [0, 1, 3]), 1, ParameterError),
}


@pytest.mark.parametrize("bad", [True, False, 2.0], ids=repr)
@pytest.mark.parametrize("name", INT_PARAMS)
def test_integer_parameters_take_numpy_integers_and_refuse_bools(name, bad):
    call, good, error = INT_PARAMS[name]
    assert call(np.int64(good)) == call(good)
    with pytest.raises(error) as exc:
        call(bad)
    assert str(exc.value).endswith(f", got {bad!r}")

class TestTextFormats:
    def test_intset_roundtrip(self):
        s = make_intset([-14, 0, 28])
        assert parse_intset_text(format_intset_text(s)) == s

    def test_pointset_roundtrip(self):
        ps = PointSet2D([(0, -1), (5, 5)])
        assert parse_pointset_text(format_pointset_text(ps)) == ps

    def test_comments_and_blanks_skipped(self):
        text = "# a comment\n\n3\n  # indented comment\n-2\n"
        assert parse_intset_text(text).elems == (-2, 3)

    def test_header_comment_emitted(self):
        text = format_intset_text(make_intset([1]), header="one element")
        assert text.startswith("# one element\n")

    def test_output_is_ascending(self):
        lines = format_intset_text(make_intset([5, -5, 0])).strip().splitlines()
        assert lines == ["-5", "0", "5"]

    def test_intset_bad_token_reports_line(self):
        with pytest.raises(FormatError) as exc:
            parse_intset_text("1\nbogus\n3\n", source="input.txt")
        assert exc.value.lineno == 2
        assert "input.txt" in str(exc.value)

    def test_pointset_wrong_arity_reports_line(self):
        with pytest.raises(FormatError) as exc:
            parse_pointset_text("0 0\n1 2 3\n")
        assert exc.value.lineno == 2

    def test_pointset_accepts_whitespace_separation(self):
        ps = parse_pointset_text("  1   2\n-3\t4\n")
        assert tuple(ps) == ((-3, 4), (1, 2))

    @given(_set_file_text(
        st.one_of(
            st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)).map(
                lambda p: f"{p[0]} {p[1]}"),
            st.tuples(st.sampled_from(EDGE_INTS + PLAIN_TOKENS), st.integers(-3, 3)).map(
                lambda p: f"{p[1]} {p[0]}" if p[1] % 2 else f"{p[0]} {p[1]}"),
            st.sampled_from(["# comment", "", "  ", "  -8   9  ", "3", "3 4 5", "-0 007"])),
        st.one_of(
            st.integers(0, 10**6).map(lambda v: f"+{v}\t-{v}"),
            st.integers(1, 999).map(lambda v: f"{v}_000 {v}"),
            st.sampled_from(["#", "\t", "5 6 # inline", "7 8#x", "1__0 2", "foo 1",
                             "1.0 2", "# 1 2", "1 2 #", " # 1 2", "1 ;", "; 2",
                             "1 2 ; 3 4", ";", "1;2 3", "1\x0b2", "\x1c1 2", "1\r2",
                             "1 2\x0b"]))))
    @_examples("0 0\n5-3 1\n", "1 --5\n", "- 2\n", f"-0 007\n{10**18 - 1} {10**18}\n",
               "1\r2\n3 4\n", "1\x0b2\n", "\x1c1 2\n", "1 2\n# after data\n3 4")
    @settings(max_examples=300, deadline=None)
    def test_parse_pointset_matches_line_by_line_oracle(self, text):
        expected = oracle_parse_pointset(text, "f.txt")
        try:
            got = tuple(parse_pointset_text(text, source="f.txt"))
        except FormatError as exc:
            got = (str(exc), exc.lineno)
        assert got == expected

    def test_format_pointset_text(self):
        assert format_pointset_text(PointSet2D([])) == "\n"
        assert format_pointset_text(PointSet2D([]), header="h") == "# h\n"
        ps = PointSet2D([(2**62, -2**62), (-1, 0)])
        assert format_pointset_text(ps, header="h") == f"# h\n-1 0\n{2**62} {-2**62}\n"

    @given(st.integers(1, 3), st.integers(-2, 2), st.booleans(), st.lists(
        st.one_of(st.integers(-2**62, 2**62), st.sampled_from([0, 1, -1])), max_size=40))
    @example(k=1, shift=1, across_blocks=True, values=[])
    @example(k=2, shift=1, across_blocks=True, values=[])
    @example(k=3, shift=1, across_blocks=True, values=[])
    @settings(max_examples=40, deadline=None)
    def test_format_rows_matches_percent_d(self, k, shift, across_blocks, values):
        pool = np.array(values + DIGIT_EDGES, dtype=np.int64)
        # short arrays, or lengths that straddle the formatter's output block
        n = max(0, (_FORMAT_BLOCK // k if across_blocks else len(pool) // k) + shift)
        rows = np.resize(pool, (n, k))
        text = _format_rows(rows)
        assert text == "" if n == 0 else text.endswith("\n")
        # compared as lines: a failing diff of one long string takes minutes
        assert text.split("\n")[:-1] == [" ".join("%d" % v for v in row) for row in rows.tolist()]

    def test_format_memory_is_bounded(self):
        # one str per value peaked at 90.3 MiB for A_4's 916,716 elements;
        # the formatter holds one block's buffers beside the text it returns
        s = gen_AN(4)
        tracemalloc.start()
        try:
            text = format_intset_text(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == len(s) == 916_716
        assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_parse_intset_keeps_the_parsed_column(self, tmp_path):
        # the set takes numpy's fresh column as it is: parsing A_4's file
        # peaks within 10% of numpy's parse alone, where sorting, masking
        # and copying the column again took it to 1.45x.  The file goes by
        # path, which numpy reads a chunk at a time; a stream it reads (and
        # tracemalloc traces) a line at a time
        s = gen_AN(4)
        path = tmp_path / "a4.txt"
        path.write_text(format_intset_text(s))

        def numpy_alone():
            with open(path, "rb") as f:
                return _int_columns(f, 1, path)

        peaks = []
        for parse in (numpy_alone, lambda: parse_intset_text(path)):
            tracemalloc.start()
            try:
                out = parse()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert out == s and not out.as_array().flags.writeable
        assert peaks[1] < 1.1 * peaks[0], peaks

    def test_parse_pointset_keeps_the_parsed_array(self):
        # the set takes numpy's fresh rows as they are: building it adds less
        # than a quarter of their bytes to the parser's own peak, where a
        # second copy of the rows added all of them
        xs = np.arange(300, dtype=np.int64)
        rows = np.column_stack((np.repeat(xs, 300), np.tile(xs, 300)))
        text = format_pointset_text(PointSet2D(rows))
        peaks = []
        for parse in (lambda: _int_columns(text, 2), lambda: parse_pointset_text(text)):
            tracemalloc.start()
            try:
                out = parse()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert np.array_equal(out.as_array(), rows) and not out.as_array().flags.writeable
        assert peaks[1] < peaks[0] + rows.nbytes // 4, peaks

    @pytest.mark.parametrize("parse, data", [
        (parse_intset_text, b"# header\n# second header\n3\n-1\n2\n"),
        (parse_intset_text, b"1\r\n2\r\n"),                 # CRLF
        (parse_intset_text, b"# caf\xe9\n1\n"),              # a header that is not UTF-8
        (parse_intset_text, b"# header\n1\ntwo\n3\n"),       # a malformed line
        (parse_intset_text, b"# only a header\n"),
        (parse_pointset_text, b"# points\n1 2\n-3 4\n1 2\n"),
        (parse_pointset_text, b"1 2\r\n3 4\r\n"),
        (parse_pointset_text, b"# h\xc3\n1 2\n"),
        (parse_pointset_text, b"# header\n1 2\n3\n"),
    ])
    def test_every_input_form_reads_alike(self, tmp_path, parse, data):
        # text, bytes, an open file, the path of a regular file and the path
        # of a FIFO give one set, or one FormatError on one line
        f = tmp_path / "set.txt"
        f.write_bytes(data)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))

        def read(form):
            try:
                return tuple(parse(form, source="set.txt"))
            except FormatError as exc:
                return str(exc), exc.lineno

        with open(f, "rb") as opened:
            got = [read(data), read(opened), read(f)]
        writer.start()
        got.append(read(fifo))
        writer.join()
        try:
            got.append(read(data.decode("utf-8")))
        except UnicodeDecodeError:
            pass
        assert all(g == got[0] for g in got), got

    def test_regular_files_reach_numpy_by_path(self, tmp_path, monkeypatch):
        # numpy reads a path a chunk at a time and any other file a line at
        # a time; a plain file named like an archive stays on the stream,
        # since numpy would open its path as one
        seen = []
        load = np.loadtxt

        def spy(fname, *args, **kwargs):
            seen.append((fname, kwargs.get("skiprows", 0)))
            return load(fname, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        plain, archive = tmp_path / "a.txt", tmp_path / "a.gz"
        for f in (plain, archive):
            f.write_bytes(b"# header\n# second header\n1\n2\n")
        assert parse_intset_text(plain).elems == parse_intset_text(archive).elems == (1, 2)
        assert seen[0] == (plain, 2)
        assert not isinstance(seen[1][0], os.PathLike) and seen[1][1] == 0

    @given(st.sets(st.integers(-10**9, 10**9), max_size=40))
    @settings(max_examples=50)
    def test_intset_roundtrip_property(self, xs):
        s = make_intset(xs)
        assert parse_intset_text(format_intset_text(s)) == s

    @given(_set_file_text(
        st.one_of(
            st.integers(-10**6, 10**6).map(str),
            st.sampled_from(EDGE_INTS + PLAIN_TOKENS).map(str),
            st.sampled_from(["# comment", "", "  ", "  -8  ", "3 4"])),
        st.one_of(
            st.integers(0, 10**6).map(lambda v: f"+{v}"),
            st.integers(1, 999).map(lambda v: f"{v}_000"),
            st.sampled_from(["#", "\t", "5 # inline", "7#x", "1__0", "foo", "1.0", "# 1 2",
                             "\x0b5", "1\x0b2", "\x1c", "1\x1c2", "1\r2"]))))
    @_examples("1\n5-3\n", "--5\n", "-\n", f"-0\n007\n{10**18 - 1}\n{10**18}\n",
               "1\r2\n", "1\x0b2\n", "\x0b5\n\x1c\n", "1\n# after data\n2")
    @settings(max_examples=300, deadline=None)
    def test_parse_matches_line_by_line_oracle(self, text):
        expected = oracle_parse_intset(text, "f.txt")
        try:
            got = parse_intset_text(text, source="f.txt").elems
        except FormatError as exc:
            got = (str(exc), exc.lineno)
        assert got == expected

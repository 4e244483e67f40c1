import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squarelab import (
    ParameterError,
    PointSet2D,
    RangeError,
    covering_count_1d,
    dyadic_box_count_2d,
    exponent_finite_diff,
    falconer_ratios,
    gen_AN,
    gen_Dk,
    make_intset,
    snap_to_grid,
)

from oracles import oracle_box_count, oracle_covering_greedy, oracle_covering_min


class TestCovering:
    def test_hand_cases(self):
        assert covering_count_1d(make_intset([0, 1, 2, 3]), 3) == 1
        assert covering_count_1d(make_intset([0, 4]), 3) == 2
        assert covering_count_1d(make_intset([0, 3, 4]), 3) == 2
        assert covering_count_1d(make_intset([5]), 1) == 1

    def test_greedy_is_optimal_small(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            vals = rng.choice(np.arange(0, 25), size=n, replace=False)
            length = int(rng.integers(1, 7))
            a = make_intset(vals.tolist())
            assert covering_count_1d(a, length) == \
                oracle_covering_min(a.elems, length)

    @given(st.sets(st.integers(-50, 50), min_size=1, max_size=10),
           st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_greedy_matches_exhaustive_property(self, vals, length):
        assert covering_count_1d(make_intset(vals), length) == \
            oracle_covering_min(vals, length)

    def test_matches_stepwise_greedy_on_depth3_tower(self):
        # the four cover scales of the depth-4 replay, 200*(4!/j!)**4, then
        # short intervals that take one binary search per few elements
        a = gen_AN(3)
        lengths = [200 * (24 // math.factorial(j)) ** 4 for j in range(1, 5)]
        for length in lengths + [1, 2, 7, 10**30]:
            assert covering_count_1d(a, length) == \
                oracle_covering_greedy(a.as_array().tolist(), length)

    def test_dk_cover_at_unit_scale_is_size(self):
        d = gen_Dk(2)
        # length-1 intervals: consecutive pairs merge; spot-check exact value
        assert covering_count_1d(d, 1) == 22
        assert covering_count_1d(d, 3 * 2**4) == 1

    def test_empty_warns(self):
        with pytest.warns(RuntimeWarning):
            assert covering_count_1d(make_intset([]), 5) == 0

    def test_length_validation(self):
        with pytest.raises(ParameterError):
            covering_count_1d(make_intset([0]), 0)


class TestBoxCount:
    def test_levels_above_zero_count_points(self):
        ps = PointSet2D([(0, 0), (1, 1), (1, 0)])
        assert dyadic_box_count_2d(ps, 3) == 3

    def test_level_zero_counts_distinct_points(self):
        ps = PointSet2D([(0, 0), (1, 1)])
        assert dyadic_box_count_2d(ps, 0) == 2

    def test_negative_levels_merge_cells(self):
        ps = PointSet2D([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert dyadic_box_count_2d(ps, -1) == 2
        assert dyadic_box_count_2d(ps, -2) == 1

    def test_negative_coordinates_floor(self):
        # cell at level -1 is [2j, 2j+2): -1 falls in cell -1, not 0
        assert dyadic_box_count_2d([(-1, 0), (0, 0)], -1) == 2
        assert dyadic_box_count_2d([(-2, 0), (-1, 0)], -1) == 1

    def test_matches_fraction_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 50))
            pts = list(zip(rng.integers(-60, 60, n).tolist(),
                           rng.integers(-60, 60, n).tolist()))
            m = int(rng.integers(-6, 4))
            assert dyadic_box_count_2d(PointSet2D(pts), m) == \
                oracle_box_count(pts, m)

    def test_coarsening_shrinks_by_at_most_four(self):
        rng = np.random.default_rng(18)
        pts = PointSet2D(list(zip(rng.integers(0, 64, 80).tolist(),
                                  rng.integers(0, 64, 80).tolist())))
        for m in range(0, -6, -1):
            fine = dyadic_box_count_2d(pts, m)
            coarse = dyadic_box_count_2d(pts, m - 1)
            assert coarse <= fine <= 4 * coarse

    def test_level_cap(self):
        with pytest.raises(RangeError):
            dyadic_box_count_2d([(0, 0)], -41)
        with pytest.raises(RangeError):
            dyadic_box_count_2d([(0, 0)], 41)

    def test_accepts_iterables(self):
        assert dyadic_box_count_2d([(0, 0), (0, 0), (5, 5)], 0) == 2


class TestSnapToGrid:
    def test_unit_cells_snap_to_half_centers(self):
        # doubled (2x, 2y) at m=0 snaps to the doubled cell center (2x+1, 2y+1)
        ps = PointSet2D([(0, 0), (2, 4)])
        snapped = snap_to_grid(ps, 0)
        assert snapped.points == {(1, 1), (3, 5)}

    def test_idempotent(self):
        rng = np.random.default_rng(19)
        ps = PointSet2D(list(zip(rng.integers(-100, 100, 60).tolist(),
                                 rng.integers(-100, 100, 60).tolist())))
        for m in (0, -1, -3):
            once = snap_to_grid(ps, m)
            assert snap_to_grid(once, m) == once

    def test_snap_count_equals_box_count(self):
        # each occupied cell contributes exactly one snapped center
        rng = np.random.default_rng(20)
        plain = list(zip(rng.integers(-50, 50, 70).tolist(),
                         rng.integers(-50, 50, 70).tolist()))
        doubled = PointSet2D([(2 * x, 2 * y) for x, y in plain])
        for m in (0, -1, -2, -4):
            assert len(snap_to_grid(doubled, m)) == \
                dyadic_box_count_2d(plain, m)

    def test_fine_levels_refused(self):
        with pytest.raises(ParameterError):
            snap_to_grid(PointSet2D([(0, 0)]), 1)

    def test_level_cap(self):
        with pytest.raises(RangeError):
            snap_to_grid(PointSet2D([(0, 0)]), -41)


class TestFalconerRatios:
    def test_box_sequence_upper_frozen_values(self):
        rows = falconer_ratios(2, 50, "upper", "t")
        by_j = {r.j: r for r in rows}
        assert rows[0].j == 2
        assert by_j[2].value == pytest.approx(42.960214665125314, rel=1e-12)
        assert by_j[12].value == pytest.approx(1.1419751556944375, rel=1e-12)
        assert by_j[50].value == pytest.approx(1.0270605114154683, rel=1e-12)
        assert all(r.target == 1.0 for r in rows)

    def test_box_sequence_lower_is_exactly_half_s(self):
        for s, half in ((2, 1.0), (1, 0.5), (Fraction(8, 5), 0.8)):
            rows = falconer_ratios(s, 40, "lower", "t")
            assert all(r.value == pytest.approx(half, rel=1e-12) for r in rows)
            assert all(r.target == half for r in rows)

    def test_box_sequence_upper_decreasing(self):
        rows = falconer_ratios(2, 200, "upper", "t")
        vals = [r.value for r in rows if r.j >= 3]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_sparse_sequence_upper_frozen_values(self):
        rows = falconer_ratios(2, 50, "upper", "a")
        assert rows[0].j == 3  # j = 2 has a nonpositive denominator
        assert rows[0].value == pytest.approx(3.2110836806795597, rel=1e-12)
        assert rows[-1].value == pytest.approx(0.7717616142422438, rel=1e-12)
        assert rows[0].target == 0.75

    def test_sparse_sequence_lower_frozen_values(self):
        rows = falconer_ratios(2, 50, "lower", "a")
        assert rows[0].j == 2
        assert rows[-1].value == pytest.approx(0.7450674846905408, rel=1e-12)

    def test_sparse_ratios_approach_three_quarters(self):
        upper = falconer_ratios(2, 400, "upper", "a")[-1]
        lower = falconer_ratios(2, 400, "lower", "a")[-1]
        assert abs(upper.value - 0.75) < 0.02
        assert abs(lower.value - 0.75) < 0.02

    def test_values_are_plain_floats(self):
        r = falconer_ratios(2, 5, "upper", "t")[0]
        assert type(r.value) is float and type(r.target) is float

    def test_validation(self):
        with pytest.raises(ParameterError):
            falconer_ratios(2, 5, "sideways")
        with pytest.raises(ParameterError):
            falconer_ratios(2, 5, "upper", "b")
        with pytest.raises(ParameterError):
            falconer_ratios(0, 5, "upper")
        with pytest.raises(ParameterError):
            falconer_ratios(Fraction(5, 2), 5, "upper")
        with pytest.raises(ParameterError):
            falconer_ratios(2, 1, "upper")


class TestExponentFiniteDiff:
    def test_exact_powers(self):
        steps = exponent_finite_diff([(1, 2, 8), (2, 4, 64), (3, 8, 512)])
        assert [s.slope for s in steps] == pytest.approx([3.0, 3.0])
        assert all(s.ok for s in steps)
        assert steps[0].lo == 1 and steps[0].hi == 2

    def test_flat_first_size_is_flagged(self):
        steps = exponent_finite_diff([(1, 5, 10), (2, 5, 20)])
        assert not steps[0].ok
        assert math.isnan(steps[0].slope)

    def test_needs_two_rows(self):
        with pytest.raises(ParameterError):
            exponent_finite_diff([(1, 2, 3)])

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ParameterError):
            exponent_finite_diff([(1, 0, 3), (2, 2, 3)])

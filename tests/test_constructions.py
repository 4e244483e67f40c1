import math
import tracemalloc
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squarelab import (
    BudgetError,
    ModeError,
    ParameterError,
    RangeError,
    default_a_sequence,
    gen_AN,
    gen_boundary_example,
    gen_cantor_truncation,
    gen_countable_truncation,
    gen_Dk,
    gen_vertex_example,
    make_intset,
    splice_En,
    witness_radii,
    witness_radii_AN,
)
from squarelab import constructions
from squarelab.constructions import (
    _sumset_levels,
    an_modulus,
    boundary_example_sizes,
    dk_size,
    dk_size_cap,
    interpolation_level,
    vertex_example_sizes,
)

from oracles import oracle_dk, oracle_sumset, oracle_witness_r, oracle_witness_r_AN

# Exact cardinalities and spans of the digit sets, frozen from an
# independent nested-loop enumeration (re-derived from scratch below
# for k <= 4).
DK_SIZE = {2: 42, 3: 225, 4: 690, 5: 1581, 6: 3042}
DK_MIN = {2: -14, 3: -78, 4: -252, 5: -620, 6: -1290}
DK_MAX = {2: 28, 3: 156, 4: 504, 5: 1240, 6: 2580}


def brute_dk(k: int) -> set[int]:
    """Four nested digit loops, one digit forced to zero."""
    digits = range(-k + 1, 2 * k - 1)
    out = set()
    for a, b, c, d in product(digits, repeat=4):
        if a == 0 or b == 0 or c == 0 or d == 0:
            out.add(a + b * k + c * k**2 + d * k**3)
    return out


class TestDigitSets:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_frozen_size_and_span(self, k):
        d = gen_Dk(k)
        assert len(d) == DK_SIZE[k]
        assert d.min() == DK_MIN[k]
        assert d.max() == DK_MAX[k]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_nested_loop_enumeration(self, k):
        assert set(gen_Dk(k)) == brute_dk(k)

    def test_k2_explicit_structure(self):
        # D_2 is the full run -13..26 plus the two extreme points,
        # with 27 the unique interior gap.
        expected = set(range(-13, 27)) | {-14, 28}
        assert set(gen_Dk(2)) == expected

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_size_cap_and_containment(self, k):
        d = gen_Dk(k)
        assert len(d) <= dk_size_cap(k)
        assert -(k**4) <= d.min() and d.max() <= 2 * k**4

    def test_size_cap_value(self):
        assert dk_size_cap(2) == 4**4 - 3**4

    @pytest.mark.parametrize("bad", [0, 1, -2])
    def test_small_k_rejected(self, bad):
        with pytest.raises(ParameterError):
            gen_Dk(bad)

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("SQUARELAB_BUDGET", "0.00005")  # 26,843 bytes and 1,000 work
        with pytest.raises(BudgetError):
            gen_Dk(50)

    @pytest.mark.parametrize("k", range(2, 17))
    def test_occupancy_matches_four_union_oracle(self, k):
        expected = oracle_dk(k)
        assert gen_Dk(k).elems == expected
        assert dk_size(k) == len(expected)

    @pytest.mark.parametrize("count", [dk_size, gen_Dk])
    def test_guard_refuses_before_allocating(self, count, monkeypatch):
        # D_60's occupancy vector would be 38.9 MB; the guard prices it, the
        # 4 * (3k-2)**3 digit sums marked on it and the values read off it first
        monkeypatch.setenv("SQUARELAB_BUDGET", "0.00005")  # 26,843 bytes and 1,000 work
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="digit set at level 60"):
                count(60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, f"peak {peak / 2**10:.1f} KiB"

    def test_d16_memory_is_its_occupancy(self):
        # four unions of 97,336 sums, concatenated and sorted, peaked at
        # 12.1 MiB; the 197 KB vector, one 2,116-sum plane and the
        # 0.6 MiB of D_16 itself stay under 1.5 MiB
        tracemalloc.start()
        try:
            d = gen_Dk(16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (d.min(), d.max()) == (-15 * (16 + 16**2 + 16**3), 2 * 16**4 - 32)
        assert peak < 1.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


class TestWitness:
    @pytest.mark.parametrize("k", [2, 3])
    def test_exhaustive_membership(self, k):
        d = set(gen_Dk(k))
        cap = k**4
        v = np.arange(cap)
        table = witness_radii(v[:, None], v, k).tolist()
        for x in range(cap):
            for y in range(cap):
                r = table[x][y]
                assert 1 <= r <= cap
                assert {x - r, x + r} <= d and {y - r, y + r} <= d

    def test_exhaustive_membership_k4(self):
        # k = 4 is the first level with a nonzero fourth digit below k**4, so
        # it is the first that reads all four digits of x and y
        d = gen_Dk(4).as_array()
        cap = 4**4
        xs, ys = (v.ravel() for v in np.meshgrid(np.arange(cap), np.arange(cap)))
        r = witness_radii(xs, ys, 4)
        assert np.all((1 <= r) & (r <= cap))
        for probe in (xs - r, xs + r, ys - r, ys + r):
            assert np.isin(probe, d).all()

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_radii_table_matches_scalar_forms(self, k):
        n = k**4
        v = np.arange(n)
        table = witness_radii(v[:, None], v, k)
        assert table.shape == (n, n) and table.dtype == np.int64
        assert table.tolist() == [[oracle_witness_r(x, y, k) for y in range(n)]
                                  for x in range(n)]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_radius_reads_x_mod_k2_and_y_div_k2(self, k):
        # the dk replay prices one radius per block {x = a (mod k**2)} x
        # {y div k**2 = b}, so no other digit of x or y may move it
        m = k * k
        v = np.arange(k**4)
        assert np.array_equal(witness_radii(v[:, None], v, k),
                              witness_radii(v[:, None] % m, v // m * m, k))

    def test_radii_domain_checks(self):
        with pytest.raises(RangeError):
            witness_radii(np.array([0, 16]), np.array([0, 0]), 2)
        with pytest.raises(RangeError):
            witness_radii(np.array([0]), np.array([-1]), 2)
        with pytest.raises(ParameterError):
            witness_radii(np.array([0]), np.array([0]), 1)

    def test_domain_checks(self):
        # plain integers broadcast as 0-d arrays and are checked the same way
        assert witness_radii(3, 5, 2) == oracle_witness_r(3, 5, 2)
        with pytest.raises(RangeError):
            witness_radii(-1, 0, 2)
        with pytest.raises(RangeError):
            witness_radii(0, 16, 2)
        with pytest.raises(ParameterError):
            witness_radii(0, 0, 1)


class TestExamples:
    @pytest.mark.parametrize("k", [2, 3])
    def test_vertex_example_shapes(self, k):
        b, s = gen_vertex_example(k)
        assert (len(b), len(s)) == vertex_example_sizes(k)
        assert len(b) == DK_SIZE[k] ** 2
        assert len(s) == (k**4 - 1) ** 2
        d = set(gen_Dk(k))
        assert all(x in d and y in d for x, y in b.points)

    @pytest.mark.parametrize("k", [2, 3])
    def test_boundary_example_matches_strip_union(self, k):
        b, s = gen_boundary_example(k)
        d = set(gen_Dk(k))
        interval = range(-(k**4), 2 * k**4 + 1)
        expected = {(x, y) for x in d for y in interval}
        expected |= {(x, y) for x in interval for y in d}
        assert b.points == expected
        assert (len(b), len(s)) == boundary_example_sizes(k)
        assert len(s) == (k**4 - 1) ** 2

    def test_boundary_size_formula(self):
        # inclusion-exclusion: two strips of |D|*(3k^4+1) overlapping in |D|^2
        for k in (2, 3):
            nd, width = DK_SIZE[k], 3 * k**4 + 1
            assert boundary_example_sizes(k)[0] == 2 * nd * width - nd * nd

    def test_budget_refusals(self):
        # 27,216,089 + 5,762,400 rows: over the work limit and the byte limit
        with pytest.raises(BudgetError, match="vertex example at level 7"):
            gen_vertex_example(7)
        # 14,406,912 + 1,677,025 rows at 36 bytes each and a 3889**2 raster
        with pytest.raises(BudgetError, match="boundary example at level 6") as exc:
            gen_boundary_example(6)
        assert exc.value.unit == "bytes"


class TestAdditiveTowers:
    def test_an_modulus(self):
        assert an_modulus(2) == 16
        assert an_modulus(3) == 1296
        assert an_modulus(4) == 24**4

    def test_p2_equals_d2(self):
        assert gen_AN(2) == gen_Dk(2)

    def test_p3_matches_direct_sumset(self):
        scaled = {81 * a + b for a in gen_Dk(2) for b in gen_Dk(3)}
        assert set(gen_AN(3)) == scaled

    def test_p3_frozen_stats(self):
        a = gen_AN(3)
        assert len(a) == 3627
        assert (a.min(), a.max()) == (-1212, 2424)

    def test_refuses_deep_towers(self):
        with pytest.raises(BudgetError) as exc:
            gen_AN(5)
        assert exc.value.estimate > exc.value.limit

    @pytest.mark.parametrize("bad", [1, 7, 0])
    def test_depth_range(self, bad):
        with pytest.raises(ParameterError):
            gen_AN(bad)

    def test_witness_p2_exhaustive(self):
        a = set(gen_AN(2))
        v = np.arange(16)
        table = witness_radii_AN(v[:, None], v, 2).tolist()
        for x in range(16):
            for y in range(16):
                r = table[x][y]
                assert 1 <= r <= 3 * 16
                assert {x - r, x + r} <= a and {y - r, y + r} <= a

    def test_witness_p3_sampled(self):
        a = set(gen_AN(3))
        rng = np.random.default_rng(20260816)
        n = 1296
        xs, ys = rng.integers(0, n, 400), rng.integers(0, n, 400)
        for x, y, r in zip(xs.tolist(), ys.tolist(), witness_radii_AN(xs, ys, 3).tolist()):
            assert 1 <= r <= 3 * n
            assert {x - r, x + r} <= a and {y - r, y + r} <= a

    def test_witness_array_p4_sampled(self):
        a = gen_AN(4)
        n = an_modulus(4)
        rng = np.random.default_rng(20261018)
        xs, ys = rng.integers(0, n, 10_000), rng.integers(0, n, 10_000)
        r = witness_radii_AN(xs, ys, 4)
        assert np.all((1 <= r) & (r <= 3 * n))
        for probe in (xs - r, xs + r, ys - r, ys + r):
            assert np.isin(probe, a.as_array()).all()
        pairs = list(zip(xs.tolist(), ys.tolist()))
        assert r.tolist() == [oracle_witness_r_AN(x, y, 4) for x, y in pairs]

    def test_witness_domain(self):
        with pytest.raises(RangeError):
            witness_radii_AN(np.array([0, 16]), np.array([0, 0]), 2)
        with pytest.raises(RangeError):
            witness_radii_AN(16, 0, 2)
        with pytest.raises(RangeError):
            witness_radii_AN(0, -1, 2)

    def test_interpolation_level(self):
        assert interpolation_level(2) == 2
        assert interpolation_level(16) == 2
        assert interpolation_level(17) == 3
        assert interpolation_level(1296) == 3
        assert interpolation_level(1297) == 4
        with pytest.raises(ParameterError):
            interpolation_level(1)


# one level of a sumset: a multiplier and a set that is either scattered
# (sparse sums) or an interval (dense sums); single elements included
_LEVEL = st.tuples(
    st.integers(1, 50),
    st.one_of(st.sets(st.integers(-40, 40), min_size=1, max_size=12),
              st.builds(lambda lo, n: set(range(lo, lo + n)),
                        st.integers(-40, 40), st.integers(1, 30))))

# fixed inputs: every level dense, every level sparse, one of each
_DENSE = [(1, set(range(10))), (10, set(range(10))), (1, set(range(-5, 5)))]
_SPARSE = [(1, {0, 7}), (50, {0, 3}), (3, {-4})]
_MIXED = [(7, {-2, 0, 5}), (1, set(range(-20, 20)))]


class TestSumsetLevels:
    @given(st.lists(_LEVEL, min_size=1, max_size=4), st.integers(1, 64), st.integers(1, 64))
    @example(_DENSE, 2**18, 2**20)
    @example(_SPARSE, 2**18, 2**20)
    @example(_MIXED, 1, 1)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_oracle(self, levels, mark_block, sort_block):
        # small blocks split every level across many of them
        sets = [(mult, make_intset(elems)) for mult, elems in levels]
        with mock.patch.object(constructions, "_MARK_BLOCK", mark_block), \
                mock.patch.object(constructions, "_SORT_BLOCK", sort_block):
            out = _sumset_levels(sets, "a test sumset")
        assert out.elems == oracle_sumset(levels)
        assert not out.as_array().flags.writeable

    @pytest.mark.parametrize("levels, marks, sorts", [
        (_DENSE, True, False), (_SPARSE, False, True), (_MIXED, True, True)])
    def test_each_kernel_runs(self, levels, marks, sorts):
        # span + 1 <= |B| * |S| marks the occupancy vector, else the sort runs
        sets = [(mult, make_intset(elems)) for mult, elems in levels]
        with mock.patch.object(constructions.np, "flatnonzero",
                               wraps=np.flatnonzero) as marked, \
                mock.patch.object(constructions, "unique_ints",
                                  wraps=constructions.unique_ints) as sorted_:
            out = _sumset_levels(sets, "a test sumset")
        assert out.elems == oracle_sumset(levels)
        assert (marked.called, sorted_.called) == (marks, sorts)

    @pytest.mark.parametrize("levels, error", [
        ([(1, range(5000)), (10**6, range(5000))], BudgetError),  # 2.5e7 sums over 5e9
        ([(1, range(3000)), (2**51, range(3000))], RangeError),  # 9e6 sums past 2**62
    ])
    def test_guard_refuses_before_allocating(self, levels, error):
        sets = [(mult, make_intset(elems)) for mult, elems in levels]
        tracemalloc.start()
        try:
            with pytest.raises(error):
                _sumset_levels(sets, "a test sumset")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10, f"peak {peak / 2**10:.1f} KiB"

    def test_an4_memory_is_its_output(self):
        # the whole 3,627 x 690 outer sum and its sorted copy peaked at
        # 47.6 MiB; the occupancy vector and one block of marks sit beside
        # the 7.0 MiB of A_4 itself
        tracemalloc.start()
        try:
            a = gen_AN(4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(a) == 916_716 and (a.min(), a.max()) == (-310_524, 621_048)
        assert peak < 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestCantorTruncation:
    @pytest.mark.parametrize("p", [2, 3])
    def test_exact_identity_at_s2(self, p):
        tr = gen_cantor_truncation(2, p)
        assert tr.mode == "exact"
        assert tr.scale == math.factorial(p) ** 4
        assert tr.a_set == gen_AN(p)
        assert tr.t_set == make_intset(range(tr.scale))

    def test_exact_mode_iff_integer_exponent(self):
        # 8/s integral: s in {8/4, 8/5, 8/6, ...} capped at 2
        assert gen_cantor_truncation(Fraction(8, 5), 2).mode == "exact"
        assert gen_cantor_truncation("8/5", 2).mode == "exact"
        assert gen_cantor_truncation(Fraction(3, 2), 2).mode == "float"

    def test_exact_s85_is_scaled_d2(self):
        tr = gen_cantor_truncation("8/5", 2)
        assert tr.scale == 16
        assert tr.a_set == gen_Dk(2)

    def test_level_multipliers_s2(self):
        tr = gen_cantor_truncation(2, 3)
        assert tr.level_multipliers() == (1296, 81, 1)

    def test_gap_condition(self):
        # the level-k multiplier, spread over k^4 digit values, must fit
        # inside one level-(k-1) cell; equality holds throughout at s=2
        tr = gen_cantor_truncation(2, 4)
        mult = tr.level_multipliers()
        for k in range(2, 5):
            assert mult[k - 1] * k**4 == mult[k - 2]
        # away from s=2 the packing goes strict beyond the first level
        tr = gen_cantor_truncation(Fraction(8, 5), 3)
        mult = tr.level_multipliers()
        assert mult[1] * 2**4 == mult[0]
        assert mult[2] * 3**4 < mult[1]

    def test_depth_one_is_origin(self):
        tr = gen_cantor_truncation(2, 1)
        assert tr.a_set == make_intset([0])
        assert tr.t_set == make_intset([0])

    def test_float_mode_values(self):
        tr = gen_cantor_truncation(Fraction(3, 2), 2)
        assert tr.a_set is None and tr.t_set is None
        with pytest.raises(ModeError):
            tr.level_multipliers()
        # independent recomputation: at depth 2 only the level-2 weight
        # 1/(1!**(8/s) * 2**4) contributes, scaling a copy of the digit set
        w2 = 1.0 / (math.factorial(1) ** (8 / 1.5) * 2**4)
        expected = sorted(v * w2 for v in gen_Dk(2))
        assert tr.a_floats is not None
        assert np.allclose(tr.a_floats, expected, rtol=0,
                           atol=max(tr.error_bound, 1e-15))

    def test_float_error_bound_is_tiny(self):
        tr = gen_cantor_truncation(Fraction(3, 2), 3)
        assert 0 < tr.error_bound < 1e-12
        assert len(tr.a_floats) == 42 * 225
        assert len(tr.t_floats) == 16 * 81  # digit grids collide nowhere

    def test_floats_are_sorted(self):
        tr = gen_cantor_truncation(Fraction(3, 2), 3)
        arr = np.asarray(tr.a_floats)
        assert (np.diff(arr) > 0).all()

    @pytest.mark.parametrize("bad", [0, -1, Fraction(5, 2), 2.5, "0"])
    def test_s_validation(self, bad):
        with pytest.raises(ParameterError):
            gen_cantor_truncation(bad, 2)

    def test_depth_range(self):
        with pytest.raises(ParameterError):
            gen_cantor_truncation(2, 0)
        with pytest.raises(ParameterError):
            gen_cantor_truncation(2, 9)


class TestCountableTruncation:
    def test_alpha1_K3_block_geometry(self):
        tr = gen_countable_truncation(1, 3)
        assert tr.scale == 2**6
        assert [b.k for b in tr.blocks] == [1, 2, 3]
        assert [(b.n, b.factor, b.offset) for b in tr.blocks] == [
            (2, 16, (32, 0)),
            (4, 4, (16, 0)),
            (8, 1, (8, 0)),
        ]
        assert [len(b.centers) for b in tr.blocks] == [4, 16, 64]
        assert [len(b.boundary_set) for b in tr.blocks] == [18675, 8651, 3024]

    def test_K2_block_pointset_from_scratch(self):
        tr = gen_countable_truncation(1, 2)
        blk = tr.blocks[1]  # k = 2: unit factor 1, 4x4 center grid
        assert (blk.n, blk.factor, blk.offset) == (4, 1, (4, 0))
        a = gen_AN(interpolation_level(4))
        span = range(-3 * 4, 4 * 4 + 1)
        expected = {(4 + u, t) for u in a for t in span}
        expected |= {(4 + t, v) for t in span for v in a}
        assert blk.boundary_set.points == expected

    def test_center_grids(self):
        tr = gen_countable_truncation(1, 2)
        for blk in tr.blocks:
            off_x, off_y = blk.offset
            expected = {(off_x + blk.factor * i, off_y + blk.factor * j)
                        for i in range(blk.n) for j in range(blk.n)}
            assert blk.centers.points == expected

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            gen_countable_truncation(0, 2)
        with pytest.raises(ParameterError):
            gen_countable_truncation(1, 0)
        with pytest.raises(ParameterError):
            gen_countable_truncation(1, 13)

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("SQUARELAB_BUDGET", "0.0005")  # 268,435 bytes and 10,000 work
        with pytest.raises(BudgetError):
            gen_countable_truncation(1, 3)

    @pytest.mark.parametrize("K, scale, depths", [(5, "0.05", [2, 3]),
                                                  (12, "0.5", [2, 3, 4])])
    def test_each_depth_is_built_once(self, K, scale, depths, monkeypatch):
        # blocks 1-4 interpolate at depth 2, 5-10 at depth 3 and 11-12 at
        # depth 4; every block of a depth shares its one set
        monkeypatch.setenv("SQUARELAB_BUDGET", scale)  # the sets fit, the blocks do not
        with mock.patch.object(constructions, "gen_AN",
                               wraps=constructions.gen_AN) as built:
            with pytest.raises(BudgetError, match=f"countable truncation with {K} blocks"):
                gen_countable_truncation(1, K)
        assert [c.args[0] for c in built.call_args_list] == depths


class TestSplicing:
    def test_hand_worked_example(self):
        # depth-2 pattern {0,3} then depth-2 pattern {1}:
        # 0 -> 00, 3 -> 11; appending 01 gives 0001 = 1 and 1101 = 13
        out = splice_En([{0, 3}, {1}], (0, 2, 4))
        assert out == frozenset({1, 13})

    def test_single_level_identity(self):
        assert splice_En([{0, 1, 2}], (0, 2)) == frozenset({0, 1, 2})

    def test_empty_level_gives_empty_set(self):
        assert splice_En([{0, 1}, set()], (0, 1, 2)) == frozenset()

    def test_2d_cells(self):
        out = splice_En([{(0, 1)}, {(1, 0)}], (0, 1, 2), d=2)
        assert out == frozenset({(1, 2)})

    def test_default_a_sequence(self):
        assert default_a_sequence(0) == (0,)
        assert default_a_sequence(3) == (0, 3, 15, 255)
        with pytest.raises(ParameterError):
            default_a_sequence(6)
        with pytest.raises(ParameterError):
            default_a_sequence(-1)

    def test_a_sequence_validation(self):
        with pytest.raises(ParameterError):
            splice_En([{0}], (1, 2))  # must start at 0
        with pytest.raises(ParameterError):
            splice_En([{0}, {0}], (0, 2, 2))  # strictly increasing
        with pytest.raises(RangeError):
            splice_En([{0}], (0, 41))  # depth guard

    def test_cell_index_validation(self):
        with pytest.raises(RangeError):
            splice_En([{4}], (0, 2))  # 4 >= 2**2
        with pytest.raises(RangeError):
            splice_En([{-1}], (0, 2))

    def test_bool_cells_are_refused(self):
        # a bool is no cell index: True once spliced as 1, giving {3} and {(1, 0)}
        with pytest.raises(ParameterError, match="cell index True must be an integer"):
            splice_En([[True], [1]], [0, 1, 2])
        with pytest.raises(ParameterError, match=r"cell index \(True, 0\) must be an integer"):
            splice_En([[(True, 0)]], [0, 1], d=2)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_product_preservation_property(self, data):
        steps = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        a = [0]
        xs, ys = [], []
        for t in steps:
            a.append(a[-1] + t)
            cells = st.sets(st.integers(0, 2**t - 1), min_size=1)
            xs.append(data.draw(cells))
            ys.append(data.draw(cells))
        ex = splice_En(xs, a)
        ey = splice_En(ys, a)
        pair_patterns = [
            {(u, v) for u in xl for v in yl} for xl, yl in zip(xs, ys)
        ]
        exy = splice_En(pair_patterns, a, d=2)
        assert exy == frozenset((u, v) for u in ex for v in ey)
        assert len(exy) == len(ex) * len(ey)

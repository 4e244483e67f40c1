"""The guard contract, checked under tracemalloc.

A refused call raises BudgetError having allocated next to nothing beyond
its input: every guard prices its kernel from closed forms and the counts it
already holds.  An admitted call of each kernel keeps its traced peak within
the largest byte estimate its guards priced, times one slack.
"""
import time
import tracemalloc
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from squarelab import (
    BudgetError,
    IntSet1D,
    OccupancyGrid,
    PointSet2D,
    find_boundary_centers_2d,
    find_centers_1d,
    find_vertex_centers_2d,
    gen_AN,
    gen_boundary_example,
    gen_cantor_truncation,
    gen_countable_truncation,
    gen_Dk,
    gen_vertex_example,
    make_intset,
    splice_En,
    verify_construction,
)
from squarelab import bounds_report, constructions, core_sets, finders

from oracles import oracle_boundary_pairs, oracle_centers_1d, oracle_vertex_centers_2d

# Traced peak over byte estimate: the largest ratio measured on the calls
# below was 1.02 (gen_AN(3), whose estimate is all fixed blocks).
SLACK = 1.25
REFUSAL_BYTES = 2 * 2**20


def traced(call):
    """(what the call returned or raised, its traced peak in bytes, seconds)."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        try:
            out = call()
        except BudgetError as exc:
            out = exc
        return out, tracemalloc.get_traced_memory()[1], time.perf_counter() - start
    finally:
        tracemalloc.stop()


def random_set(n: int, hi: int):
    return make_intset(np.unique(np.random.default_rng(3).integers(0, hi, n)))


class TestRefusalsSpendNothing:
    @pytest.fixture
    def no_sparse_pricing(self, monkeypatch):
        monkeypatch.setattr(finders, "_sparse_join",
                            lambda a, mode: pytest.fail("the sparse join priced"))

    def test_d10_span_at_a_scaled_budget(self, monkeypatch, no_sparse_pricing):
        # the offset join's 239,544,216 work is over twice this limit, and the
        # sweep's Cauchy-Schwarz floor is higher still: no pair arrays are
        # made to say so
        d10 = gen_Dk(10)
        monkeypatch.setenv("SQUARELAB_BUDGET", "5")
        out, peak, seconds = traced(lambda: find_centers_1d(d10, "count"))
        assert isinstance(out, BudgetError) and out.unit == "work"
        assert "common-radius offset join" in str(out) and out.estimate == 239_544_216
        assert peak <= REFUSAL_BYTES and seconds < 1.0

    def test_d8_at_the_default_budget(self, no_sparse_pricing):
        # 37,610,622 work: D_7 is the largest digit set the default admits
        d8 = gen_Dk(8)
        out, peak, seconds = traced(lambda: find_centers_1d(d8, "count"))
        assert isinstance(out, BudgetError) and out.unit == "work"
        assert "common-radius offset join" in str(out) and out.estimate == 37_610_622
        assert peak <= REFUSAL_BYTES and seconds < 1.0

    def test_wide_random_set_at_a_scaled_budget(self, monkeypatch):
        # 5,000 random values of [0, 10**12): the sparse join's 12,497,500
        # pairs take 24 bytes each, over half the byte limit
        a = random_set(5_000, 10**12)
        monkeypatch.setenv("SQUARELAB_BUDGET", "0.5")
        out, peak, seconds = traced(lambda: find_centers_1d(a, "count"))
        assert isinstance(out, BudgetError) and out.unit == "bytes"
        assert "common-radius pair sweep" in str(out)
        assert peak <= REFUSAL_BYTES and seconds < 1.0

    def test_span_past_int64_at_the_default_budget(self):
        # 8,000 random values of [0, 10**12) and -2**62 and 2**62: their span,
        # 2**63, wrapped in int64 and priced the sparse join at -1,024,384,056
        # bytes, so it ran 4.3 s before refusing itself; its 32,012,001 pairs
        # take 24 bytes each, over the limit
        a = make_intset(np.append(random_set(8_000, 10**12).as_array(), [-2**62, 2**62]))
        out, peak, seconds = traced(lambda: find_centers_1d(a, "count"))
        assert isinstance(out, BudgetError) and out.unit == "bytes"
        assert "common-radius pair sweep" in str(out) and out.estimate == 768_288_024
        assert peak <= REFUSAL_BYTES and seconds < 1.0

    def test_countable_replay_prices_every_grid_first(self):
        # block 1's 10753 x 10753 grid is over the byte limit: no block is built
        out, peak, seconds = traced(lambda: verify_construction("countable", alpha=1, K=5))
        assert isinstance(out, BudgetError) and "10753 x 10753 occupancy grid" in str(out)
        assert peak <= REFUSAL_BYTES and seconds < 1.0

    def test_sparse_join_refusing_on_its_radius_groups(self):
        # 1,000 values 10**6 apart: the offset join's span is far over the work
        # limit, so the sparse join, listed on its floor, is the one kernel
        # that fits; its radius groups, the runs of its sorted differences,
        # price its sweep exactly past the limit, and it is refused at that
        # price, having held 16 bytes of each of the 499,500 pairs
        a = IntSet1D(range(0, 10**9, 10**6))
        out, peak, seconds = traced(lambda: find_centers_1d(a, "count"))
        assert isinstance(out, BudgetError) and out.unit == "work"
        assert "common-radius pair sweep" in str(out) and out.estimate == 332_833_500
        assert peak <= 16 * 499_500 + REFUSAL_BYTES and seconds < 1.0

    def test_boundary_replay_prices_its_raster_grid_and_centers_first(self):
        # level 7: a 7204**2 raster and its grid and one block of centers fit
        # the byte limit, but those cells and 2400**2 replayed centers do not
        # fit the work limit
        out, peak, seconds = traced(lambda: verify_construction("boundary", k=7))
        assert isinstance(out, BudgetError) and out.unit == "work"
        assert "boundary replay at level 7" in str(out) and out.estimate == 57_657_616
        assert peak <= REFUSAL_BYTES and seconds < 1.0

    def test_pair_scan_over_its_floor_at_a_scaled_budget(self, monkeypatch):
        # 200,000 random points of [0, 10**6)**2: the pair scan's floor of 128
        # bytes a point is over the byte limit, so no row pass prices its pairs
        # (19.6 MiB traced when one did, for the same refusal)
        pts = np.unique(np.random.default_rng(0).integers(0, 10**6, (200_000, 2)), axis=0)
        b = PointSet2D(pts)
        monkeypatch.setenv("SQUARELAB_BUDGET", "0.01")
        out, peak, seconds = traced(lambda: find_vertex_centers_2d(b, "count"))
        assert isinstance(out, BudgetError) and out.unit == "bytes"
        assert "same-row pair scan" in str(out) and out.estimate == 128 * len(b)
        assert peak <= 2 * b.as_array().nbytes and seconds < 1.0

    def test_square_product_scan_is_floored_at_the_sparse_sweep(self, monkeypatch):
        # D_3 x D_3 (50,625 points) enumerated at a byte limit of 9,547,064: the
        # offset join's 10,448,252 bytes do not fit, and the pair scan's 128
        # bytes a point would; its squares, at least the sparse join's sweep
        # floor of 2,713,847, put it over before its first phase runs, which
        # took 4.1 MiB traced (its exact price: 247,862,400 bytes)
        b = PointSet2D.product(gen_Dk(3), gen_Dk(3))
        monkeypatch.setenv("SQUARELAB_BUDGET", repr(10**-1.75))
        monkeypatch.setattr(finders, "_pair_scan",
                            lambda *args: pytest.fail("the pair scan priced"))
        out, peak, _ = traced(lambda: find_vertex_centers_2d(b, "enumerate"))
        assert isinstance(out, BudgetError) and "offset join" in str(out)
        assert out.estimate == 10_448_252 and peak <= REFUSAL_BYTES

    def test_wide_boundary_box(self):
        b = PointSet2D([(0, 0), (10**6, 10**6)])
        out, peak, _ = traced(lambda: find_boundary_centers_2d(b, 5, "count"))
        assert isinstance(out, BudgetError) and "occupancy grid" in str(out)
        assert peak <= REFUSAL_BYTES


def box(n: int, side: int) -> PointSet2D:
    """n random distinct points of [0, side)**2."""
    cells = np.random.default_rng(5).choice(side * side, n, replace=False)
    return PointSet2D(np.column_stack((cells // side, cells % side)))


def boundary_b3() -> PointSet2D:
    return gen_boundary_example(3)[0]


KERNELS = {  # name: (the call, made of inputs built before tracing; the guard that prices it)
    "offset join count": (lambda: partial(find_centers_1d, gen_Dk(4), "count"),
                          "common-radius offset join"),
    "offset join enumerate": (lambda: partial(find_centers_1d, gen_Dk(3)),
                              "common-radius offset join"),
    "offset product join": (lambda: partial(find_vertex_centers_2d, PointSet2D.product(
        gen_Dk(3), make_intset(range(0, 240, 3)))), "common-radius offset join"),
    # the wide random set the default budget admits: 12,497,707 centers
    "sparse join count": (lambda: partial(find_centers_1d, random_set(5_000, 10**12), "count"),
                          "common-radius pair sweep"),
    "sparse join enumerate": (lambda: partial(find_centers_1d, random_set(800, 10**9)),
                              "common-radius pair sweep"),
    # a middle density the default budget sends to the sparse join: one strip
    # of rows beside the pairs
    "sparse join rows count": (lambda: partial(find_centers_1d, make_intset(
        np.random.default_rng(5).choice(3000, 200, replace=False)), "count"),
        "common-radius pair sweep"),
    "raster sweep count": (lambda: partial(find_vertex_centers_2d, box(6_000, 200), "count"),
                           "raster sweep"),
    "raster sweep enumerate": (lambda: partial(find_vertex_centers_2d, box(6_000, 200)),
                               "raster sweep"),
    "pair scan": (lambda: partial(find_vertex_centers_2d, box(3_000, 10**6), "count"),
                  "same-row pair scan"),
    "boundary sweep count": (lambda: partial(find_boundary_centers_2d, boundary_b3(), 20,
                                             "count"), "boundary sweep"),
    "boundary sweep enumerate": (lambda: partial(find_boundary_centers_2d, boundary_b3(), 20),
                                 "boundary sweep"),
    "occupancy grid": (lambda: partial(OccupancyGrid.from_points, boundary_b3()),
                       "occupancy grid"),
    "digit set": (lambda: partial(gen_Dk, 20), "digit set"),
    "vertex example": (lambda: partial(gen_vertex_example, 3), "vertex example"),
    "boundary example": (lambda: partial(gen_boundary_example, 3), "boundary example"),
    "sumset": (lambda: partial(gen_AN, 4), "interpolating set"),
    "float Cantor": (lambda: partial(gen_cantor_truncation, "3/2", 3), "float Cantor"),
    "countable": (lambda: partial(gen_countable_truncation, 1, 3), "countable truncation"),
    "splice": (lambda: partial(splice_En, [range(16)] * 3 + [range(8)], [0, 4, 8, 12, 15]),
               "spliced cell set"),
    "witness replay": (lambda: partial(verify_construction, "dk", k=8), "witness replay"),
    "boundary replay": (lambda: partial(verify_construction, "boundary", k=4),
                        "boundary replay"),
}


GUARD = core_sets.require_budget


def record_guards(monkeypatch) -> list[tuple[str, int]]:
    """Record (what, bytes) of every guard priced from here on."""
    priced = []

    def recorded(what, *, nbytes=0, work=0):
        priced.append((what, nbytes))
        GUARD(what, nbytes=nbytes, work=work)

    for module in (core_sets, finders, constructions, bounds_report):
        monkeypatch.setattr(module, "require_budget", recorded)
    return priced


@pytest.mark.parametrize("name", KERNELS)
def test_admitted_peak_within_its_byte_estimate(name, monkeypatch):
    make, guard = KERNELS[name]
    call = make()
    priced = record_guards(monkeypatch)
    out, peak, _ = traced(call)
    assert not isinstance(out, BudgetError), out
    assert any(guard in what for what, _ in priced), priced
    estimate = max(nbytes for _, nbytes in priced)
    assert peak <= SLACK * estimate, f"peak {peak:,} against {estimate:,} priced"


def test_a_join_priced_exactly_and_passed_over_is_released(monkeypatch):
    # 300 values of [0, 400) and 2500: the sparse join's floor, 815,409 work,
    # is under the offset join's 1,355,792, so it is priced exactly, at
    # 6,672,920, and the offset join runs with none of its pair arrays held
    a = make_intset(np.append(np.random.default_rng(5).choice(400, 300, replace=False), 2500))
    offsets, sparse = finders._join_kernels(a.as_array(), a.as_array(), "count")
    assert (offsets.work, sparse.work, sparse.exact().work) == (1_355_792, 815_409, 6_672_920)
    expected = len(find_centers_1d(a))
    priced = record_guards(monkeypatch)
    out, peak, _ = traced(lambda: find_centers_1d(a, "count"))
    assert out == expected and priced == [(offsets.what, offsets.nbytes)]
    assert peak <= SLACK * offsets.nbytes, f"peak {peak:,} against {offsets.nbytes:,} priced"


@lru_cache(maxsize=None)
def paper_input(name: str, k: int):
    """The paper's sets, built once: D_k, D_k x D_k or the boundary example's B."""
    return {"dk": lambda: gen_Dk(k), "dk2": lambda: PointSet2D.product(gen_Dk(k), gen_Dk(k)),
            "boundary": lambda: gen_boundary_example(k)[0]}[name]()


@st.composite
def finder_calls(draw, kind: str):
    """(the call of a public finder, its oracle's answer or None) on `kind`
    of input: small sets the oracles check (1d, product, grid); digit sets
    and their products; wide sparse sets; spread points; the boundary
    example, with r_max up to past the grid."""
    if kind == "1d":
        vals = draw(st.sets(st.integers(-25, 25), min_size=2, max_size=14))
        return partial(find_centers_1d, make_intset(vals)), len(oracle_centers_1d(vals))
    if kind == "wide":
        vals = np.random.default_rng(draw(st.integers(0, 99))).integers(
            0, 10**9, draw(st.integers(41, 300)))
        return partial(find_centers_1d, make_intset(np.unique(vals))), None
    if kind == "product":
        b = PointSet2D.product(*(make_intset(draw(st.sets(st.integers(lo, lo + 30), min_size=1,
                                                          max_size=7))) for lo in (-10, 0)))
        return partial(find_vertex_centers_2d, b), len(oracle_vertex_centers_2d(b.points))
    if kind == "spread":
        n, seed = draw(st.integers(2_000, 4_000)), draw(st.integers(0, 99))
        pts = np.random.default_rng(seed).integers(0, 10**6, (n, 2))
        return partial(find_vertex_centers_2d, PointSet2D(pts)), None
    if kind == "grid":
        w, h = draw(st.integers(1, 10)), draw(st.integers(1, 10))
        holes = draw(st.sets(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
                             max_size=w * h // 4))
        pts = [(x, y) for x in range(w) for y in range(h) if (x, y) not in holes]
        r_max = draw(st.integers(1, 8))
        return (partial(find_boundary_centers_2d, PointSet2D(pts), r_max),
                len(oracle_boundary_pairs(pts, r_max)))
    if kind == "boundary":
        r_max = draw(st.sampled_from([1, 20, 200, 10**6]))
        return partial(find_boundary_centers_2d, paper_input(kind, draw(st.integers(2, 3))),
                       r_max), None
    k = draw(st.integers(2, 4 if kind == "dk" else 3))
    return partial(find_centers_1d if kind == "dk" else find_vertex_centers_2d,
                   paper_input(kind, k)), None


@pytest.mark.parametrize("kind", ["1d", "dk", "wide", "product", "dk2", "spread", "grid",
                                  "boundary"])
@given(st.data(), st.sampled_from(["count", "enumerate"]), st.floats(-3, 2))
@settings(max_examples=25, deadline=None)
def test_a_finder_answers_or_refuses_cheaply(kind, data, mode, log_scale):
    # each call returns its oracle's answer, or an answer within the slack of
    # the largest byte estimate it priced, or refuses having spent next to nothing
    call, answer = data.draw(finder_calls(kind))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SQUARELAB_BUDGET", repr(10**log_scale))
        priced = record_guards(mp)
        out, peak, _ = traced(partial(call, mode=mode))
    event(type(out).__name__)
    if isinstance(out, BudgetError):
        assert peak <= REFUSAL_BYTES, f"refused at a peak of {peak:,}"
    elif answer is not None:
        assert (out if mode == "count" else len(out)) == answer
    else:
        estimate = max(nbytes for _, nbytes in priced)
        assert peak <= SLACK * estimate, f"peak {peak:,} against {estimate:,} priced"

"""The guard contract, checked under tracemalloc.

A refused call raises BudgetError having allocated next to nothing beyond
its input: every guard prices its kernel from closed forms and the counts it
already holds.  An admitted call of each kernel keeps its traced peak within
the largest byte estimate its guards priced, times one slack.
"""
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

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
    def no_radius_counts(self, monkeypatch):
        monkeypatch.setattr(finders, "_radius_counts",
                            lambda a: pytest.fail("radius counts read"))

    def test_d10_span_at_a_scaled_budget(self, monkeypatch, no_radius_counts):
        # the offset join's 239,544,216 work is over twice this limit, so the
        # sweep stays at its Cauchy-Schwarz floor, higher still: no radius
        # counts and no pair arrays are made to say so
        d10 = gen_Dk(10)
        monkeypatch.setenv("SQUARELAB_BUDGET", "5")
        out, peak, seconds = traced(lambda: find_centers_1d(d10, "count"))
        assert isinstance(out, BudgetError) and out.unit == "work"
        assert "common-radius offset join" in str(out) and out.estimate == 239_544_216
        assert peak <= REFUSAL_BYTES and seconds < 1.0

    def test_d8_at_the_default_budget(self, no_radius_counts):
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

    def test_countable_replay_prices_every_grid_first(self):
        # block 1's 10753 x 10753 grid is over the byte limit: no block is built
        out, peak, seconds = traced(lambda: verify_construction("countable", alpha=1, K=5))
        assert isinstance(out, BudgetError) and "10753 x 10753 occupancy grid" in str(out)
        assert peak <= REFUSAL_BYTES and seconds < 1.0

    def test_sparse_join_refusing_on_its_radius_groups(self):
        # 1,000 values 10**6 apart: the offset join's span is far over the work
        # limit, so the sparse join, priced on its floor, is the one kernel
        # that fits; its radius groups price it again past the limit, and that
        # refusal stands, having held 16 bytes of each of the 499,500 pairs
        a = IntSet1D(range(0, 10**9, 10**6))
        out, peak, seconds = traced(lambda: find_centers_1d(a, "count"))
        assert isinstance(out, BudgetError) and out.unit == "bytes"
        assert "common-radius pair sweep" in str(out) and out.estimate == 8_003_987_968
        assert peak <= 16 * 499_500 + REFUSAL_BYTES and seconds < 1.0

    def test_boundary_replay_prices_its_raster_grid_and_centers_first(self):
        # level 7: a 7204**2 raster and its grid and one block of centers fit
        # the byte limit, but those cells and 2400**2 replayed centers do not
        # fit the work limit
        out, peak, seconds = traced(lambda: verify_construction("boundary", k=7))
        assert isinstance(out, BudgetError) and out.unit == "work"
        assert "boundary replay at level 7" in str(out) and out.estimate == 57_657_616
        assert peak <= REFUSAL_BYTES and seconds < 1.0

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


@pytest.mark.parametrize("name", KERNELS)
def test_admitted_peak_within_its_byte_estimate(name, monkeypatch):
    make, guard = KERNELS[name]
    call = make()
    priced = []

    def recorded(what, *, nbytes=0, work=0):
        priced.append((what, nbytes))
        GUARD(what, nbytes=nbytes, work=work)

    for module in (core_sets, finders, constructions, bounds_report):
        monkeypatch.setattr(module, "require_budget", recorded)
    out, peak, _ = traced(call)
    assert not isinstance(out, BudgetError), out
    assert any(guard in what for what, _ in priced), priced
    estimate = max(nbytes for _, nbytes in priced)
    assert peak <= SLACK * estimate, f"peak {peak:,} against {estimate:,} priced"

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from squarelab import (
    BoundCheck,
    BudgetError,
    ParameterError,
    PointSet2D,
    build_report,
    check_main_lemma_1d,
    check_main_lemma_2d,
    family_scan,
    find_centers_1d,
    find_vertex_centers_2d,
    gen_AN,
    gen_Dk,
    gen_vertex_example,
    make_intset,
    verify_construction,
)
from squarelab import bounds_report, constructions

from oracles import oracle_boundary_radius, oracle_dk_replay


class TestBoundCheck:
    def test_compare_semantics(self):
        good = BoundCheck.compare("x", 5, 5, n=2)
        bad = BoundCheck.compare("y", 6, 5)
        assert good.ok and not bad.ok
        assert good.sizes == {"n": 2}

    def test_as_dict(self):
        d = BoundCheck.compare("x", 1, 2, m=3).as_dict()
        assert d == {"name": "x", "lhs": 1, "rhs": 2, "ok": True,
                     "sizes": {"m": 3}}

    def test_exact_integers_no_floats(self):
        # 3**51 + 1 vs 3**51: a float comparison would tie
        big = 3**51
        assert not BoundCheck.compare("tight", big + 1, big).ok
        assert BoundCheck.compare("tight", big, big).ok


class TestMainLemmaChecks:
    def test_vertex_example_k2(self):
        b, s = gen_vertex_example(2)
        chk = check_main_lemma_2d(b)
        assert chk.ok
        assert chk.sizes == {"points": 1764, "centers": 3352}
        assert chk.lhs == 3352**3
        assert chk.rhs == 16 * 1764**4

    def test_s_count_shortcut(self):
        b, s = gen_vertex_example(2)
        chk = check_main_lemma_2d(b, s_count=len(s))
        assert chk.ok and chk.lhs == len(s) ** 3

    def test_1d_on_digit_set(self):
        d = gen_Dk(2)
        chk = check_main_lemma_1d(d)
        assert chk.ok
        assert chk.sizes["elems"] == 42
        assert chk.rhs == 16 * 42**8
        assert chk.lhs == find_centers_1d(d, "count") ** 3

    def test_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            vals = rng.choice(np.arange(-30, 31),
                              size=int(rng.integers(2, 25)), replace=False)
            assert check_main_lemma_1d(make_intset(vals.tolist())).ok
        for _ in range(25):
            n = int(rng.integers(1, 40))
            pts = list(zip(rng.integers(0, 13, n).tolist(),
                           rng.integers(0, 13, n).tolist()))
            assert check_main_lemma_2d(PointSet2D(pts)).ok


class TestVerifyConstruction:
    def test_dk_all_green(self):
        checks = verify_construction("dk", k=3)
        assert [c.name for c in checks] == [
            "dk3_witness_misses", "dk3_radius_over_cap", "dk3_size_cap",
            "dk3_range_lo", "dk3_range_hi",
        ]
        assert all(c.ok for c in checks)
        misses = checks[0]
        assert (misses.lhs, misses.rhs) == (0, 0)

    def test_dk8_replay_memory_is_bounded(self):
        # the whole 4096 x 4096 radius table and its temporaries peaked at
        # ~290 MiB, blocks of 2**20 cells at 25.1 MiB; the replay holds one
        # block of 2**14 cells at a time
        tracemalloc.start()
        try:
            checks = verify_construction("dk", k=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(c.ok for c in checks)
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_dk_replay_counts_misses_across_row_blocks(self, monkeypatch):
        # a digit set with holes, replayed a few center blocks at a time,
        # must miss exactly the centers a scalar walk finds
        holed = make_intset(v for i, v in enumerate(gen_Dk(3)) if i % 5)
        monkeypatch.setattr(bounds_report, "_CHUNK_CELLS", 50)
        monkeypatch.setattr(constructions, "gen_Dk", lambda k: holed)
        misses = verify_construction("dk", k=3)[0]
        assert misses.lhs == oracle_dk_replay(holed, 3)[0] > 0

    @pytest.mark.parametrize("k", range(2, 7))
    def test_dk_block_counts_match_the_per_center_replay(self, k, monkeypatch):
        # Cx * Cy per block against one center at a time, on D_k and on D_k
        # without 1, a probe of the radius-1 center (0, 0) among others
        dk = gen_Dk(k)
        for dset in (dk, make_intset(set(dk) - {1})):
            monkeypatch.setattr(constructions, "gen_Dk", lambda k: dset)
            misses, over_cap = verify_construction("dk", k=k)[:2]
            assert (misses.lhs, over_cap.lhs) == oracle_dk_replay(dset, k)
        assert misses.lhs > 0

    def test_dk_replay_counts_probes_past_the_range_as_misses(self, monkeypatch):
        # radii bent by 40 send probes past [-81, 162]: each is a miss, and
        # the replay counts exactly the centers a scalar walk finds
        d3 = set(gen_Dk(3))
        true = constructions.witness_radii
        def bent(x, y, k):
            return true(x, y, k) + 40
        expected = sum(
            1 for x in range(81) for y in range(81)
            if not {x - (r := int(bent(x, y, 3))), x + r, y - r, y + r} <= d3)
        monkeypatch.setattr(constructions, "witness_radii", bent)
        misses, over_cap = verify_construction("dk", k=3)[:2]
        assert misses.lhs == expected == 1791
        assert not over_cap.ok

    def test_an_replay_counts_every_failed_probe(self, monkeypatch):
        # radii bent on every third column must miss exactly the centers a
        # scalar walk finds with one of its four probes outside A (53 of 256)
        a = set(gen_AN(2))
        true = constructions.witness_radii_AN
        def bent(x, y, p):
            return true(x, y, p) + 11 * (y % 3 == 0)
        expected = sum(
            1 for x in range(16) for y in range(16)
            if not {x - (r := int(bent(x, y, 2))), x + r, y - r, y + r} <= a)
        monkeypatch.setattr(constructions, "witness_radii_AN", bent)
        assert verify_construction("an", p=2)[0].lhs == expected > 0

    def test_an_exhaustive_and_sampled(self):
        exhaustive = verify_construction("an", p=2)
        assert all(c.ok for c in exhaustive)
        sampled = verify_construction("an", p=3, samples=2000, seed=7)
        assert all(c.ok for c in sampled)
        names = [c.name for c in sampled]
        assert "an3_witness_misses" in names
        assert "an3_cover_scale3" in names

    @pytest.mark.parametrize("p", [2, 3])
    def test_an_refuses_a_negative_seed_before_any_work(self, p, monkeypatch):
        # the exhaustive p = 2 draws nothing, yet the seed is refused as well
        def no_work(p):
            raise AssertionError("gen_AN ran")
        monkeypatch.setattr(constructions, "gen_AN", no_work)
        with pytest.raises(ParameterError, match="seed must be a non-negative integer, got -1"):
            verify_construction("an", p=p, seed=-1)

    def test_an4_replay_peaks_where_building_a4_does(self):
        # A_4, the samples, the lookup table and blocks of 2**16 samples
        # held together peaked at 14.1 MiB; A_4 is released after its
        # covers and the table, so the replay stays under gen_AN(4)'s peak
        peaks = []
        for build in (lambda: gen_AN(4), lambda: verify_construction("an", p=4)):
            tracemalloc.start()
            try:
                out = build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert [c.lhs for c in out] == [0, 0, 1, 1, 19, 4632]
        assert peaks[1] < peaks[0] + 2**20, [f"{v / 2**20:.1f} MiB" for v in peaks]

    def test_an_sampling_is_seeded(self):
        a = verify_construction("an", p=3, samples=500, seed=1)
        b = verify_construction("an", p=3, samples=500, seed=1)
        assert [(c.name, c.lhs, c.rhs) for c in a] == \
            [(c.name, c.lhs, c.rhs) for c in b]

    def test_boundary_replay(self):
        checks = verify_construction("boundary", k=2)
        assert [c.name for c in checks] == [
            "boundary2_witness_misses", "boundary2_size_formula_gap",
        ]
        assert all(c.ok for c in checks)

    def test_countable_replay(self):
        checks = verify_construction("countable", alpha=1, K=2)
        assert [c.name for c in checks] == [
            "countable_block1_missing_boundaries",
            "countable_block2_missing_boundaries",
        ]
        assert all(c.ok for c in checks)

    def test_countable_replay_counts_misses_across_center_blocks(self, monkeypatch):
        # strips with holes, replayed a few centers per block, must miss
        # exactly the centers a per-center boundary search misses
        real = constructions.gen_countable_truncation(1, 3)
        rng = np.random.default_rng(3)
        blocks = []
        for blk in real.blocks:
            pts = blk.boundary_set.as_array()
            holed = PointSet2D(pts[rng.random(len(pts)) > 0.1])
            blocks.append(dataclasses.replace(blk, boundary_set=holed))
        trunc = dataclasses.replace(real, blocks=tuple(blocks))
        expected = []
        for blk in blocks:
            member, r_cap = set(blk.boundary_set), 3 * blk.n * blk.factor
            expected.append(sum(1 for x, y in blk.centers
                                if oracle_boundary_radius(member, x, y, r_cap) is None))
        monkeypatch.setattr(constructions, "gen_countable_truncation",
                            lambda alpha, K: trunc)
        monkeypatch.setattr(bounds_report, "_CHUNK_CELLS", 100)
        got = [c.lhs for c in verify_construction("countable", alpha=1, K=3)]
        assert got == expected and 0 < sum(expected) < sum(len(b.centers) for b in blocks)

    def test_dk_guard_counts_centers_before_work(self, monkeypatch):
        # the replay prices its 4 * k**6 lookups of D_k, not the k**8 centers:
        # k = 13 (19,307,236) is the last level the default budget admits
        assert all(c.ok for c in verify_construction("dk", k=9))

        def no_work(k):
            raise AssertionError("gen_Dk ran")
        with monkeypatch.context() as m:
            m.setattr(constructions, "gen_Dk", no_work)
            with pytest.raises(BudgetError, match="witness replay at level 14") as exc:
                verify_construction("dk", k=14)
        assert (exc.value.estimate, exc.value.unit) == (4 * 14**6, "work")
        # at this scale the replay's ~0.8 MB fit the byte limit, and its
        # 4 * 5**6 lookups are over the work limit of 40,000
        monkeypatch.setenv("SQUARELAB_BUDGET", "0.002")
        with pytest.raises(BudgetError, match="witness replay at level 5") as exc:
            verify_construction("dk", k=5)
        assert (exc.value.estimate, exc.value.limit, exc.value.unit) == (4 * 5**6, 40_000, "work")
        # at exactly 4 * 5**6 lookups the replay runs
        monkeypatch.setenv("SQUARELAB_BUDGET", "0.003125")
        assert all(c.ok for c in verify_construction("dk", k=5))

    def test_unknown_name(self):
        with pytest.raises(ParameterError, match="unknown construction 'pentagon'; "
                                                 "choose dk, an, boundary, or countable"):
            verify_construction("pentagon", k=2)

    def test_missing_parameters(self):
        # every target of the verify table, with each needed parameter absent
        for name, given, needs in [("dk", {"p": 2}, "k"), ("an", {"k": 2}, "p"),
                                   ("boundary", {}, "k"),
                                   ("countable", {}, "alpha and K"),
                                   ("countable", {"alpha": 1}, "alpha and K"),
                                   ("countable", {"K": 2}, "alpha and K")]:
            with pytest.raises(ParameterError, match=f"^verify {name} needs {needs}$"):
                verify_construction(name, **given)


class TestFamilyScan:
    def test_dk_size_rows_and_slopes(self):
        rep = family_scan("dk_size", range(2, 7))
        assert rep.family == "dk_size"
        assert rep.rows == (
            (2, 2, 42), (3, 3, 225), (4, 4, 690), (5, 5, 1581), (6, 6, 3042),
        )
        assert rep.target == 3.0
        slopes = {(s.lo, s.hi): s.slope for s in rep.slopes}
        assert slopes[(5, 6)] == pytest.approx(3.5895790225, abs=1e-9)

    def test_dk_vertex_rows(self):
        rep = family_scan("dk_vertex", range(2, 4))
        assert rep.rows == ((2, 1764, 225), (3, 50625, 6400))
        assert rep.target == pytest.approx(4 / 3)

    def test_dk_boundary_rows(self):
        rep = family_scan("dk_boundary", range(2, 4))
        # (|S|, |B|): boundary-rich sets are scanned size-of-S first
        assert rep.rows == ((2, 225, 2352), (3, 6400, 59175))
        assert rep.target == pytest.approx(7 / 8)

    def test_an_cover_rows(self):
        rep = family_scan("an_cover", range(1, 4))
        assert rep.rows == ((1, 259200, 1), (2, 16200, 1), (3, 200, 19))
        assert rep.target == -0.75

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            family_scan("dk_area", range(2, 4))

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            family_scan("dk_size", range(2, 3))  # one point, no slope
        with pytest.raises(ParameterError):
            family_scan("dk_size", range(1, 4))  # k = 1 undefined


class TestBuildReport:
    def test_schema(self):
        checks = verify_construction("dk", k=2)
        scan = family_scan("dk_size", range(2, 4))
        rep = build_report("smoke", checks, [scan], seed=99)
        assert set(rep) == {"suite", "timestamp", "seed", "checks", "slopes"}
        assert rep["suite"] == "smoke" and rep["seed"] == 99
        assert re.fullmatch(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z",
                            rep["timestamp"])
        assert all(set(c) == {"name", "lhs", "rhs", "ok", "sizes"}
                   for c in rep["checks"])
        json.dumps(rep)  # everything must be plain JSON types

    def test_slope_rows_flatten(self):
        scan = family_scan("dk_size", range(2, 5))
        rep = build_report("smoke", [], [scan])
        assert rep["seed"] is None
        for row in rep["slopes"]:
            assert set(row) == {"family", "lo", "hi", "slope", "target"}
            assert row["family"] == "dk_size"
            assert isinstance(row["slope"], float)

    def test_nan_slope_serializes_as_none(self):
        from squarelab import ExponentReport, SlopeStep

        rep = ExponentReport(
            family="stub",
            rows=((1, 5, 7), (2, 5, 9)),
            slopes=(SlopeStep(1, 2, math.nan, False),),
            target=1.0,
        )
        out = build_report("stub", [], [rep])
        assert out["slopes"][0]["slope"] is None

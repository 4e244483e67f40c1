"""Tests of the benchmark itself: metric names, checks, inputs, oracles, trace.

    python3 -m pytest -q -p no:cacheprovider bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing as tr  # noqa: E402
import workloads as wl  # noqa: E402


def spec() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    s = spec()
    assert [m["name"] for m in s["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert [m["name"] for m in s["per_layer"]] == list(run.PER_LAYER)
    produced = set(tr.layer_metrics([], {})) | {"trace.pass_s", "trace.harness_s",
                                             "trace.overhead_s"}
    assert set(run.PER_LAYER) <= produced
    for m in s["per_layer"]:
        assert m["unit"] == ("s" if m["name"].endswith("_s") else "count")
    assert {w["name"] for w in s["workloads"]} <= set(wl.WORKLOADS)


def _result(tmp_path: Path, code: int = 0, stdout: bytes = b"", stderr: str = "") -> wl.Result:
    return wl.Result(code, stdout, stderr, tmp_path)


def test_checker_flags_an_altered_answer(tmp_path):
    job = next(j for j in wl.find_paper().jobs if j.name == "centers1d_d4_count")
    good = _result(tmp_path, 0, b"1109548\n")
    assert job.check(good) is None
    assert job.check(_result(tmp_path, 0, b"1109547\n")) is not None
    assert job.check(_result(tmp_path, 2, b"1109548\n")) is not None
    assert job.check(_result(tmp_path, None, b"1109548\n")) == "timed out"
    altered = wl.expect(stdout=b"1109549\n")
    assert altered(good) is not None


def test_checker_flags_an_altered_file_digest(tmp_path):
    (tmp_path / "d3.txt").write_bytes(b"# stand-in\n1\n")
    digest = wl.sha256(b"# stand-in\n1\n")
    assert wl.expect(files={"d3.txt": digest})(_result(tmp_path)) is None
    assert wl.expect(files={"d3.txt": "0" * 64})(_result(tmp_path)) is not None
    assert wl.expect(files={"other.txt": digest})(_result(tmp_path)) is not None


def test_report_check_and_known_defect(tmp_path):
    def report(ok: bool) -> bytes:
        return json.dumps({"checks": [
            {"name": "an4_witness_misses", "lhs": 0 if ok else 1980, "rhs": 0, "ok": ok,
             "sizes": {}}]}).encode()

    w = wl.replay_paper()
    job = next(j for j in w.jobs if j.name == "verify_an_p4")
    assert run.judge(w.name, job, _result(tmp_path, 0, report(True))) == {
        "ok": True, "problem": None, "known": False}
    verdict = run.judge(w.name, job, _result(tmp_path, 1, report(False)))
    assert not verdict["ok"] and verdict["known"]
    # Failing in another way than documented is not the known defect.
    verdict = run.judge(w.name, job, _result(tmp_path, 2, b"usage"))
    assert not verdict["ok"] and not verdict["known"]
    other = next(j for j in w.jobs if j.name == "verify_boundary_k3")
    verdict = run.judge(w.name, other, _result(tmp_path, 1, report(False)))
    assert not verdict["ok"] and not verdict["known"]


def test_random_inputs_depend_only_on_the_seed():
    a, b, c = wl.random_inputs(5), wl.random_inputs(5), wl.random_inputs(6)
    assert a == b
    assert a.keys() == c.keys()
    assert all(a[k] != c[k] for k in a)


def _brute_centers_1d(a: list[int]) -> int:
    by_rad: dict[int, set[int]] = {}
    for x, y in itertools.combinations(sorted(a), 2):
        by_rad.setdefault(y - x, set()).add(x + y)
    return len({(p, q) for mids in by_rad.values() for p in mids for q in mids})


def _brute_vertices(pts: set[tuple[int, int]]) -> list[tuple[int, int]]:
    return sorted({(x + x2, y + y + (x2 - x)) for (x, y) in pts for (x2, y2) in pts
                   if y2 == y and x2 > x and (x, y + x2 - x) in pts
                   and (x2, y + x2 - x) in pts})


def _brute_boundaries(pts: set[tuple[int, int]], r_max: int) -> list[tuple[int, int, int]]:
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    out = []
    for cx in range(min(xs), max(xs) + 1):
        for cy in range(min(ys), max(ys) + 1):
            for r in range(1, r_max + 1):
                ring = ({(cx + d, cy + s * r) for d in range(-r, r + 1) for s in (-1, 1)}
                        | {(cx + s * r, cy + d) for d in range(-r, r + 1) for s in (-1, 1)})
                if ring <= pts:
                    out.append((2 * cx, 2 * cy, 2 * r))
    return sorted(out)


@pytest.mark.parametrize("seed", range(6))
def test_oracles_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    a = sorted(rng.choice(60, size=int(rng.integers(2, 25)), replace=False).tolist())
    assert wl.oracle_centers_1d(np.array(a)) == _brute_centers_1d(a)
    cells = rng.choice(144, size=int(rng.integers(60, 130)), replace=False)
    pts = {(int(v) // 12, int(v) % 12) for v in cells}
    assert wl.oracle_vertex_centers(sorted(pts)) == _brute_vertices(pts)
    assert wl.oracle_boundaries(sorted(pts), 5) == _brute_boundaries(pts, 5)


def test_self_times_share_the_wall_clock():
    # (id, name, start, end, parent, ...): a parent with one child, then a
    # parent whose two children overlap on worker threads.
    spans = [(0, "a", 0.0, 10.0, None), (1, "b", 2.0, 5.0, 0),
             (2, "c", 20.0, 25.0, None), (3, "d", 21.0, 23.0, 2), (4, "e", 22.0, 24.0, 2)]
    own = tr.self_times(spans)
    assert own == pytest.approx({0: 7.0, 1: 3.0, 2: 2.0, 3: 1.5, 4: 1.5})
    assert sum(own.values()) == pytest.approx(15.0)


def test_traced_pass_accounts_for_its_wall_time(tmp_path):
    jobs = [{"name": "gen", "argv": ["gen", "dk", "--k", "2", "--out", "d2.txt"], "env": []},
            {"name": "find", "argv": ["find", "centers1d", "--in", "d2.txt"], "env": []},
            {"name": "refuse", "argv": ["gen", "dk", "--k", "60"], "env": []}]
    (tmp_path / "jobs.json").write_text(json.dumps(jobs))
    out = tmp_path / "pass.json"
    subprocess.run([sys.executable, str(BENCH / "tracing.py"), "--src", str(run.SRC),
                    "--workdir", str(tmp_path), "--jobs", str(tmp_path / "jobs.json"),
                    "--out", str(out), "--traced"], check=True, timeout=120)
    record = json.loads(out.read_text())
    assert [j["returncode"] for j in record["jobs"]] == [0, 0, 2]
    m = record["metrics"]
    layers = sum(m[f"{layer}.self_s"] for layer in tr.LAYERS)
    assert layers + m["trace.harness_s"] == pytest.approx(m["trace.pass_s"], rel=1e-6)
    assert m["finders.centers_1d_s"] > 0 and m["constructions.gen_Dk_s"] > 0
    # The CLI runs the 1D finder twice to enumerate: once to count, once to list.
    assert m["finders.centers_out"] == 2 * (tmp_path / "job1.out").read_text().count("\n")
    assert m["core_sets.guard_refusals"] == 1
    assert {row["job"] for row in record["spans"]} == {"gen", "find", "refuse"}

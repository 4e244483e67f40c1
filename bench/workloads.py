"""The benchmark's three CLI sessions, their inputs and their pinned answers.

A workload is an ordered list of :class:`Job` s.  Each job is one
``squarelab`` command line run in the workload's scratch directory; later jobs
read the files earlier jobs wrote.  Every job carries a check that turns its
exit code, stdout, stderr and files into ``None`` (correct) or a one-line
description of what is wrong.

``find_paper`` and ``replay_paper`` are fixed: their answers are the values
the paper's constructions must give, pinned here as numbers and SHA-256
digests.  ``random_sparse`` is drawn from the seed; :func:`prepare` writes its
input files and derives the expected answers with the plain oracles below,
which share no code with ``squarelab.finders``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

RAISED = (("SQUARELAB_BUDGET", "100"),)
NL = b"\n"


@dataclass
class Result:
    """What one finished job left behind."""

    returncode: int | None  # None: killed at its timeout
    stdout: bytes
    stderr: str
    workdir: Path


Check = Callable[[Result], "str | None"]


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    check: Check
    env: tuple[tuple[str, str], ...] = ()


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    inputs: dict[str, bytes] = field(default_factory=dict)


# Jobs that fail at the pinned commit for a documented program defect.  Such a
# job still counts as failed; the run stays `correct` only while it fails in
# exactly the documented way (see README.md, "Known failure").
KNOWN_DEFECTS = {
    "replay_paper/verify_an_p4": "an4_witness_misses",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Checks

def expect(code: int = 0, *, stdout: bytes | None = None, stdout_sha: str | None = None,
           lines: int | None = None, stderr_has: tuple[str, ...] = (),
           files: dict[str, str] | None = None) -> Check:
    """Check the exit code and whichever of the outputs are pinned."""
    def check(r: Result) -> str | None:
        if r.returncode is None:
            return "timed out"
        if r.returncode != code:
            return f"exit {r.returncode}, expected {code}: {r.stderr.strip()[-200:]}"
        if stdout is not None and r.stdout != stdout:
            return f"stdout {r.stdout[:60]!r}, expected {stdout[:60]!r}"
        if lines is not None and r.stdout.count(b"\n") != lines:
            return f"stdout has {r.stdout.count(NL)} lines, expected {lines}"
        if stdout_sha is not None and sha256(r.stdout) != stdout_sha:
            return "stdout digest differs from the pinned one"
        for text in stderr_has:
            if text not in r.stderr:
                return f"stderr lacks {text!r}: {r.stderr.strip()[-200:]}"
        for name, digest in (files or {}).items():
            path = r.workdir / name
            if not path.is_file():
                return f"{name} was not written"
            if sha256(path.read_bytes()) != digest:
                return f"{name} digest differs from the pinned one"
        return None
    return check


def checks_digest(report: dict) -> str:
    """Digest of a verify report's checks, leaving out the timestamp."""
    return sha256(json.dumps(report["checks"], sort_keys=True).encode())


def report_ok(digest: str | None = None) -> Check:
    """A verify report: exit 0, every check ok, and the checks as pinned."""
    def check(r: Result) -> str | None:
        if r.returncode is None:
            return "timed out"
        try:
            report = json.loads(r.stdout)
        except ValueError:
            return f"exit {r.returncode}, stdout is not a JSON report"
        bad = [f"{c['name']} lhs={c['lhs']} rhs={c['rhs']}"
               for c in report["checks"] if not c["ok"]]
        if r.returncode != 0 or bad:
            return f"exit {r.returncode}, expected 0; failed checks: {'; '.join(bad)}"
        if digest is not None and checks_digest(report) != digest:
            return "report checks differ from the pinned ones"
        return None
    return check


def refuses(*what: str) -> Check:
    """A budget refusal: exit 2 and the guard's message on stderr."""
    return expect(2, stdout=b"", stderr_has=("refusing to materialize",) + what)


# ---------------------------------------------------------------------------
# find_paper: the paper's constructions fed back into the finders

def find_paper() -> Workload:
    return Workload("find_paper", [
        Job("gen_d3", ("gen", "dk", "--k", "3", "--out", "d3.txt"), expect(files={
            "d3.txt": "455c1a853c470cb6f392c6534ec633e82257a32fc9b29dc829a9b674737576b1"})),
        Job("centers1d_d3", ("find", "centers1d", "--in", "d3.txt"), expect(
            lines=105_542,
            stdout_sha="5869a73a25e4db8189be75cbc20f42513452b42351e027faaece13b873efa094")),
        Job("gen_d4", ("gen", "dk", "--k", "4", "--out", "d4.txt"), expect(files={
            "d4.txt": "52681d0498d0c215a1e68daf5a5a1e82f69b87e942cccf068df19f42297fdebe"})),
        Job("centers1d_d4_count", ("find", "centers1d", "--in", "d4.txt", "--count"),
            expect(stdout=b"1109548\n"), env=RAISED),
        Job("gen_vertex_k2", ("gen", "vertex-example", "--k", "2",
                              "--out-b", "v2_b.txt", "--out-s", "v2_s.txt"),
            expect(files={
                "v2_b.txt": "5163cdf3b5318fb072711dea7d2b09c4b8061ed2941074173283369ed130522d",
                "v2_s.txt": "4e2d6c4604332415a4149f516458e626582d11e364243fa7de3f4ed9149dd3fc"})),
        Job("vertices_k2", ("find", "vertices", "--in", "v2_b.txt"),
            expect(
            lines=3_352,
            stdout_sha="d46cfefc956d214bd6d5232b752f8fe21213ba5dc246370efdc0541bdfc871a7")),
        Job("gen_vertex_k3", ("gen", "vertex-example", "--k", "3",
                              "--out-b", "v3_b.txt", "--out-s", "v3_s.txt"),
            expect(files={
                "v3_b.txt": "0b5f072d424ccd4d4b330c90b5f3df4bd065dbb40970918cd4626afeaf9d79c4",
                "v3_s.txt": "68d0cf1748ab364f5f107f2650f87f779c7d0cb80b6114df57bf2d125dc1b53e"})),
        Job("vertices_k3_count", ("find", "vertices", "--in", "v3_b.txt", "--count"),
            expect(stdout=b"105542\n"), env=RAISED),
        Job("gen_boundary_k2", ("gen", "boundary-example", "--k", "2",
                                "--out-b", "b2_b.txt", "--out-s", "b2_s.txt"),
            expect(files={
                "b2_b.txt": "fb67036752c4dafeaa674d98f94932d34b17dbbc055119ad255b592fe06b06d6",
                "b2_s.txt": "627850ec010c6d610529c3fca029077f251d1f52a1cedbc80833aaccab4326f3"})),
        Job("boundaries_k2", ("find", "boundaries", "--in", "b2_b.txt", "--rmax", "20"),
            expect(
            lines=17_080,
            stdout_sha="4864d9a5af8d9619dd0f129b30658ae9293b151a3968b7ca4ec972007cc94d8c")),
        Job("gen_boundary_k3", ("gen", "boundary-example", "--k", "3",
                                "--out-b", "b3_b.txt", "--out-s", "b3_s.txt"),
            expect(files={
                "b3_b.txt": "9f26557e3851c3b0aafe3864bf3a807691e01ea1d204577bd80411e7d3036e95",
                "b3_s.txt": "a4eb19783031de30f02b002dc37d5d237a5a9168c241c451929ad409124f88e4"})),
        Job("boundaries_k3_count", ("find", "boundaries", "--in", "b3_b.txt",
                                    "--rmax", "20", "--count"),
            expect(stdout=b"969226\n"), env=RAISED),
    ])


# ---------------------------------------------------------------------------
# replay_paper: generate, replay and measure without searching

def replay_paper() -> Workload:
    return Workload("replay_paper", [
        Job("gen_an_p4", ("gen", "an", "--p", "4", "--out", "a4.txt"),
            expect(files={
                "a4.txt": "902a9aff617d9ab900083e7020208e5d520f22c90b96bb0cb323ed5224e14936"})),
        Job("cover_a4", ("cover", "--in", "a4.txt", "--len", "200"),
            expect(stdout=b"4632\n")),
        Job("verify_dk_k8", ("verify", "dk", "--k", "8"), report_ok(
            "e7f2b81c8d6520a0961137960d7da15da8f21fb2c05f101732aafbdee015f232")),
        Job("verify_an_p4", ("verify", "an", "--p", "4"), report_ok()),
        Job("verify_boundary_k3", ("verify", "boundary", "--k", "3"), report_ok(
            "b88371a2f5f6348741091cb348dc02d9e81886aeb46485e44463b7b648f58035")),
        Job("verify_countable", ("verify", "countable", "--alpha", "1", "--K", "3"),
            report_ok("3bd85541ef5c3c600224513b50fa8ac1eaab5e141f6f0fefae518314be661381")),
        Job("scan_an_cover", ("scan", "--family", "an_cover", "--kmin", "1", "--kmax", "4"),
            expect(stdout_sha="2fcb413cff357c722f63c5a181173c06f7aadc96f0e8e831c218436e02de5a5c")),
        Job("scan_dk_size", ("scan", "--family", "dk_size", "--kmin", "2", "--kmax", "16"),
            expect(stdout_sha="e22b832050f241931a1b4ccabeb2cffac6af6091b5a863f42f221e536e5d2676")),
        Job("gen_countable", ("gen", "countable", "--alpha", "1", "--K", "3",
                              "--out-dir", "cnt"),
            expect(files={
                "cnt/manifest.json": "97bf291f440b1d1fae13dc581cd133a5c72eb330be86ea1efca44eb099aa732e",
                "cnt/block2_b.txt": "47a8ce02483ffa399369effe8235f15b4f2cead89bd1ecf90dac2a7aa300db6d"})),
        Job("boxcount_block2", ("boxcount", "--in", "cnt/block2_b.txt", "--m=-2,-4"),
            expect(stdout=b"scale,count\n-2,1595\n-4,128\n")),
        Job("ratios_s2", ("ratios", "--s", "2", "--jmax", "5000", "--which", "upper"),
            expect(stdout_sha="80921e78058d2024db2c17bdf13154e3506f25b214ead1a3314d9ba0693a4119")),
    ])


# ---------------------------------------------------------------------------
# random_sparse: seeded random inputs, answers from independent oracles

def _distinct(rng: np.random.Generator, n: int, hi: int) -> np.ndarray:
    """n distinct integers of [0, hi), sorted."""
    return np.sort(rng.choice(hi, size=n, replace=False))


def _intset_text(values: np.ndarray, header: str) -> bytes:
    return ("".join([f"# {header}\n"] + [f"{v}\n" for v in values.tolist()])).encode()


def _pointset_text(xs: np.ndarray, ys: np.ndarray, header: str) -> bytes:
    return ("".join([f"# {header}\n"] + [f"{x} {y}\n" for x, y in
                                          zip(xs.tolist(), ys.tolist())])).encode()


def random_inputs(seed: int) -> dict[str, bytes]:
    """The random_sparse input files; the same seed gives the same bytes."""
    rng = np.random.default_rng(seed)
    files = {
        "sparse1d.txt": _intset_text(_distinct(rng, 1_500, 10**6),
                                     "1500 random elements of [0, 10^6)"),
        "dense1d.txt": _intset_text(_distinct(rng, 400, 800),
                                    "400 random elements of [0, 800)"),
    }
    cells = _distinct(rng, 4_500, 120 * 120)
    files["box2d.txt"] = _pointset_text(cells // 120, cells % 120,
                                        "4500 random points of [0, 120)^2")
    pts = np.unique(rng.integers(0, 10**6, size=(4_200, 2)), axis=0)
    pts = pts[np.sort(rng.permutation(len(pts))[:4_000])]
    files["spread2d.txt"] = _pointset_text(pts[:, 0], pts[:, 1],
                                           "4000 random points of [0, 10^6)^2")
    files["over1d.txt"] = _intset_text(_distinct(rng, 2_000, 10**5),
                                       "2000 random elements of [0, 10^5)")
    lines = files["dense1d.txt"].decode().splitlines(keepends=True)
    at = int(rng.integers(1, len(lines)))
    lines.insert(at, f"{lines[at].strip()} 7\n")  # two integers on a 1D line
    files["malformed1d.txt"] = "".join(lines).encode()
    return files


def _ints(text: bytes) -> np.ndarray:
    return np.array([int(t) for t in text.decode().split("\n")
                     if t and not t.startswith("#")], dtype=np.int64)


def _points(text: bytes) -> list[tuple[int, int]]:
    out = []
    for t in text.decode().split("\n"):
        if t and not t.startswith("#"):
            x, y = t.split()
            out.append((int(x), int(y)))
    return out


def oracle_centers_1d(a: np.ndarray) -> int:
    """Number of doubled centers (X, Y): midpoints of two pairs of A that
    share a radius.  Emits every same-radius midpoint pair, then dedupes."""
    i, j = np.triu_indices(len(a), k=1)
    mid, rad = a[i] + a[j], a[j] - a[i]
    order = np.argsort(rad, kind="stable")
    mid, rad = mid[order], rad[order]
    starts = np.flatnonzero(np.r_[True, rad[1:] != rad[:-1]])
    sizes = np.diff(np.r_[starts, len(rad)])
    size_of = np.repeat(sizes, sizes)  # per pair: the size of its radius group
    # Pair p is emitted size_of[p] times, once with each pair q of its group.
    first = np.repeat(np.arange(len(mid)), size_of)
    shift = np.cumsum(size_of) - size_of - np.repeat(starts, sizes)
    second = np.arange(len(first)) - np.repeat(shift, size_of)
    keys = mid[first] * (int(mid.max()) + 1) + mid[second]
    keys.sort()
    return int(np.count_nonzero(keys[1:] != keys[:-1])) + 1


def oracle_vertex_centers(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Doubled centers of squares with four corners in the set, sorted."""
    members = set(points)
    rows: dict[int, list[int]] = {}
    for x, y in points:
        rows.setdefault(y, []).append(x)
    centers = set()
    for y, xs in rows.items():
        xs.sort()
        for n, a in enumerate(xs):
            for c in xs[n + 1:]:
                w = c - a
                if (a, y + w) in members and (c, y + w) in members:
                    centers.add((a + c, 2 * y + w))
    return sorted(centers)


def oracle_boundaries(points: list[tuple[int, int]], r_max: int) -> list[tuple[int, int, int]]:
    """(2x, 2y, 2r) for every lattice center whose whole radius-r square
    boundary lies in the set, sorted.  Runs of occupied cells along each axis
    decide whether a side is full."""
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    x0, y0 = int(xs.min()), int(ys.min())
    occ = np.zeros((int(xs.max()) - x0 + 1, int(ys.max()) - y0 + 1), dtype=bool)
    occ[xs - x0, ys - y0] = True
    w, h = occ.shape
    # run_x[i, j]: occupied cells ending at (i, j) going left; run_y likewise down.
    run_x = np.zeros(occ.shape, dtype=np.int64)
    run_y = np.zeros(occ.shape, dtype=np.int64)
    for i in range(w):
        run_x[i] = (run_x[i - 1] + 1) * occ[i] if i else occ[i]
    for j in range(h):
        run_y[:, j] = (run_y[:, j - 1] + 1) * occ[:, j] if j else occ[:, j]
    rows = []
    for r in range(1, r_max + 1):
        n = 2 * r + 1
        if w < n or h < n:
            break
        # A center (cx, cy) with corner (cx+r, cy+r): sides end at the right/top.
        top = run_x[2 * r:, 2 * r:] >= n
        bottom = run_x[2 * r:, :h - 2 * r] >= n
        right = run_y[2 * r:, 2 * r:] >= n
        left = run_y[:w - 2 * r, 2 * r:] >= n
        for u, v in zip(*np.nonzero(top & bottom & right & left)):
            rows.append((2 * (x0 + int(u) + r), 2 * (y0 + int(v) + r), 2 * r))
    return sorted(rows)


def _lines_of(rows: list[tuple[int, ...]]) -> bytes:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows).encode()


def random_sparse(seed: int) -> Workload:
    files = random_inputs(seed)
    box = _points(files["box2d.txt"])
    spread = _points(files["spread2d.txt"])
    bad_line = next(n for n, t in enumerate(files["malformed1d.txt"].decode().split("\n"), 1)
                    if not t.startswith("#") and len(t.split()) == 2)
    return Workload("random_sparse", [
        Job("centers1d_sparse", ("find", "centers1d", "--in", "sparse1d.txt", "--count"),
            expect(stdout=f"{oracle_centers_1d(_ints(files['sparse1d.txt']))}\n".encode())),
        Job("centers1d_dense", ("find", "centers1d", "--in", "dense1d.txt", "--count"),
            expect(stdout=f"{oracle_centers_1d(_ints(files['dense1d.txt']))}\n".encode())),
        Job("vertices_box", ("find", "vertices", "--in", "box2d.txt"),
            expect(stdout=_lines_of(oracle_vertex_centers(box)))),
        Job("boundaries_box", ("find", "boundaries", "--in", "box2d.txt", "--rmax", "30"),
            expect(stdout=_lines_of(oracle_boundaries(box, 30)))),
        Job("vertices_spread", ("find", "vertices", "--in", "spread2d.txt"),
            expect(stdout=_lines_of(oracle_vertex_centers(spread)))),
        Job("boundaries_spread_refused", ("find", "boundaries", "--in", "spread2d.txt",
                                          "--rmax", "30"), refuses("occupancy grid")),
        Job("centers1d_over_refused", ("find", "centers1d", "--in", "over1d.txt", "--count"),
            refuses("common-radius pair sweep")),
        Job("gen_dk_k60_refused", ("gen", "dk", "--k", "60"),
            refuses("digit set at level 60")),
        Job("gen_an_p5_refused", ("gen", "an", "--p", "5"),
            refuses("depth-5 interpolating set")),
        Job("malformed_refused", ("find", "centers1d", "--in", "malformed1d.txt", "--count"),
            expect(2, stdout=b"", stderr_has=(f"malformed1d.txt:{bad_line}:",))),
    ], inputs=files)


WORKLOADS = {"find_paper": find_paper, "replay_paper": replay_paper,
             "random_sparse": random_sparse}


def build(name: str, seed: int) -> Workload:
    """The named workload; only random_sparse depends on the seed."""
    make = WORKLOADS[name]
    return make(seed) if name == "random_sparse" else make()


def prepare(workload: Workload, workdir: Path) -> None:
    """Write the workload's input files into its scratch directory."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name, data in workload.inputs.items():
        (workdir / name).write_bytes(data)

"""One in-process pass over a workload's jobs, through ``squarelab.cli.main``.

Run as a child of ``run.py --trace 1``::

    python3 bench/tracing.py --src SRC --workdir DIR --jobs JOBS.json --out OUT.json [--traced]

With ``--traced`` every public function of the six modules (and the set and
grid constructors of ``core_sets``) is wrapped from outside, in every
``squarelab`` namespace that holds it, before the pass starts.  Each call
records a span: name, start, end, parent span, job, the exception it ended
with and the size of its result.  Spans of a worker thread with no open span
of its own take the innermost open span of the main thread as parent, which
is the call that started the pool.

Self time shares the wall clock between the open spans that have no open
children (the leaves), so the six modules' self times add up to the wall time
spent inside ``cli.main``, threads included, without counting an interval
twice.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
import traceback
from pathlib import Path

LAYERS = ("cli", "core_sets", "constructions", "finders", "dimension_lab", "bounds_report")

# Class methods that build sets and grids; module-level functions are found.
METHODS = {
    "core_sets": (("IntSet1D", "__init__"), ("IntSet1D", "from_sorted_array"),
                  ("PointSet2D", "__init__"), ("PointSet2D", "product"),
                  ("OccupancyGrid", "from_points")),
}

FINDERS = ("finders.find_centers_1d", "finders.find_vertex_centers_2d",
           "finders.find_boundary_centers_2d")

# Per-layer time metrics: the summed self time of the named spans.
SELF_TIME = {
    "core_sets.parse_s": ("core_sets.parse_intset_text", "core_sets.parse_pointset_text"),
    "core_sets.format_s": ("core_sets.format_intset_text", "core_sets.format_pointset_text"),
    "core_sets.set_build_s": ("core_sets.IntSet1D.__init__", "core_sets.IntSet1D.from_sorted_array",
                              "core_sets.make_intset", "core_sets.PointSet2D.__init__",
                              "core_sets.PointSet2D.product"),
    "core_sets.grid_s": ("core_sets.OccupancyGrid.from_points",),
    "constructions.gen_Dk_s": ("constructions.gen_Dk",),
    "constructions.gen_AN_s": ("constructions.gen_AN",),
    "constructions.gen_example_s": ("constructions.gen_vertex_example",
                                    "constructions.gen_boundary_example"),
    "constructions.gen_countable_s": ("constructions.gen_countable_truncation",),
    "constructions.witness_s": ("constructions.witness_r", "constructions.witness_r_AN"),
    "finders.centers_1d_s": ("finders.find_centers_1d",),
    "finders.vertex_s": ("finders.find_vertex_centers_2d",),
    "finders.boundary_s": ("finders.find_boundary_centers_2d",),
    "finders.has_square_at_s": ("finders.has_square_at",),
    "dimension_lab.cover_s": ("dimension_lab.covering_count_1d",),
    "dimension_lab.boxcount_s": ("dimension_lab.dyadic_box_count_2d",),
    "dimension_lab.ratios_s": ("dimension_lab.falconer_ratios",),
    "bounds_report.scan_s": ("bounds_report.family_scan",),
}

# Per-layer counts: the summed result sizes of the named spans.
SIZES = {
    "core_sets.lines": ("core_sets.parse_intset_text", "core_sets.parse_pointset_text",
                        "core_sets.format_intset_text", "core_sets.format_pointset_text"),
    "constructions.elements_out": ("constructions.gen_Dk", "constructions.gen_AN",
                                   "constructions.gen_vertex_example",
                                   "constructions.gen_boundary_example",
                                   "constructions.gen_countable_truncation"),
    "finders.centers_out": FINDERS,
    "bounds_report.checks": ("bounds_report.verify_construction",),
}


def _size(name: str, args: tuple, result: object) -> int:
    """The work a call produced, as a count (0 where none is defined)."""
    if name.startswith("core_sets.format_"):
        return len(args[0])
    if name == "constructions.gen_countable_truncation":
        return sum(len(b.centers) + len(b.boundary_set) for b in result.blocks)
    if isinstance(result, int):  # a finder's count; other ints are radii or sizes
        return result if name in FINDERS else 0
    if isinstance(result, tuple) and all(hasattr(r, "__len__") for r in result):
        return sum(len(r) for r in result)
    if hasattr(result, "__len__") and not isinstance(result, (str, dict)):
        return len(result)
    return 0


class Tracer:
    """Holds the spans of one traced pass in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, job, error, size, failed)
        self.job = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            sid = next(tracer._ids)
            stack.append(sid)
            error, size, failed = None, 0, 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                size = _size(name, args, result)
                if name == "bounds_report.verify_construction":
                    failed = sum(1 for c in result if not c.ok)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.job,
                                     error, size, failed))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of the six layers wherever it is bound."""
        modules = {m: importlib.import_module(f"squarelab.{m}") for m in LAYERS}
        namespaces = [mod for key, mod in sys.modules.items()
                      if key == "squarelab" or key.startswith("squarelab.")]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapped)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                name = f"{layer}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(name, raw))


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time of each span: between consecutive span boundaries, the
    elapsed time is split evenly between the open spans with no open child."""
    events = sorted([(s[2], 1, s[0]) for s in spans] + [(s[3], 0, s[0]) for s in spans])
    parent = {s[0]: s[4] for s in spans}
    open_children: dict[int, int] = {}
    leaves: set[int] = set()
    out = {s[0]: 0.0 for s in spans}
    last = events[0][0] if events else 0.0
    for t, starting, sid in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                out[leaf] += share
        last = t
        p = parent[sid]
        if starting:
            open_children[sid] = 0
            leaves.add(sid)
            if p in open_children:
                open_children[p] += 1
                leaves.discard(p)
        else:
            open_children.pop(sid, None)
            leaves.discard(sid)
            if p in open_children:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return out


def layer_metrics(spans: list[tuple], own: dict[int, float]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from its spans and their
    self times."""
    by_name: dict[str, float] = {}
    for s in spans:
        by_name[s[1]] = by_name.get(s[1], 0.0) + own[s[0]]
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((v for k, v in by_name.items() if k.startswith(layer + ".")),
                                   0.0)
    for metric, names in SELF_TIME.items():
        m[metric] = sum(by_name.get(n, 0.0) for n in names)
    for metric, names in SIZES.items():
        m[metric] = sum(s[7] for s in spans if s[1] in names)
    guards = [s for s in spans if s[1] == "core_sets.require_budget"]
    m["core_sets.guard_calls"] = len(guards)
    m["core_sets.guard_refusals"] = sum(1 for s in guards if s[6] == "BudgetError")
    m["finders.has_square_at_calls"] = sum(1 for s in spans if s[1] == "finders.has_square_at")
    # Inclusive: the whole time spent in finder calls that were then refused.
    m["finders.refuse_s"] = sum((s[3] - s[2] for s in spans
                                 if s[1] in FINDERS and s[6] == "BudgetError"), 0.0)
    m["bounds_report.checks_failed"] = sum(s[8] for s in spans)
    return m


def span_table(spans: list[tuple], own: dict[int, float]) -> list[dict]:
    """Spans summed per job and name: calls, inclusive and self seconds,
    calls that raised, and result sizes."""
    rows: dict[tuple[str, str], dict] = {}
    for s in spans:
        row = rows.setdefault((s[5], s[1]), {"job": s[5], "span": s[1], "calls": 0,
                                             "total_s": 0.0, "self_s": 0.0,
                                             "raised": 0, "size": 0})
        row["calls"] += 1
        row["total_s"] += s[3] - s[2]
        row["self_s"] += own[s[0]]
        row["raised"] += s[6] is not None
        row["size"] += s[7]
    return list(rows.values())


def run_pass(jobs: list[dict], workdir: Path, tracer: Tracer | None) -> list[dict]:
    """Run each job through cli.main as the subprocess would, one at a time."""
    from squarelab import cli

    os.chdir(workdir)
    out = []
    for n, job in enumerate(jobs):
        saved = {k: os.environ.get(k) for k, _ in job["env"]}
        os.environ.update(dict(job["env"]))
        stdout, stderr = workdir / f"job{n}.out", workdir / f"job{n}.err"
        with open(stdout, "w") as fo, open(stderr, "w") as fe, \
                contextlib.redirect_stdout(fo), contextlib.redirect_stderr(fe):
            if tracer is not None:
                tracer.job = job["name"]
            start = time.perf_counter()
            try:
                code = cli.main(list(job["argv"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error exits 1, as the CLI process would
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - start
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        out.append({"job": job["name"], "returncode": code, "wall_s": wall,
                    "stdout": str(stdout), "stderr": str(stderr)})
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--jobs", required=True, help="JSON list of {name, argv, env}")
    ap.add_argument("--out", required=True, help="write the pass record here")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import squarelab
    if not Path(squarelab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"squarelab imported from {squarelab.__file__}, not {src}")

    jobs = json.loads(Path(args.jobs).read_text())
    tracer = Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    results = run_pass(jobs, Path(args.workdir).resolve(), tracer)
    pass_s = time.perf_counter() - start
    record: dict = {"pass_s": pass_s, "jobs": results}
    if tracer is not None:
        spans = tracer.spans
        own = self_times(spans)
        metrics = layer_metrics(spans, own)
        in_main = sum(s[3] - s[2] for s in spans if s[1] == "cli.main")
        metrics["trace.pass_s"] = pass_s
        metrics["trace.harness_s"] = pass_s - in_main
        record["metrics"] = metrics
        record["spans"] = span_table(spans, own)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the squarelab command line, end to end and per layer.

    python3 bench/run.py --workload find_paper --seed 1 --seconds 50 --trace 0

Each workload is a serial, closed-loop session: one client runs the
workload's jobs one at a time, each as ``python3 -m squarelab.cli ...``
against this checkout's ``src/``, and checks every exit code and answer.
``--trace 0`` repeats whole passes over the job list for ``--seconds`` and
reports the end-to-end metrics; ``--trace 1`` runs the same jobs in-process
through ``squarelab.cli.main`` three times, plain, traced and plain, and reports the
per-layer metrics (see bench/tracing.py).  ``--workload all`` runs every
workload in turn.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record of the run (machine, commit, seed, every
pass and job) is written under bench/out/records/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

DEADLINE_S = 150.0  # no pass starts after this much of a workload's run has gone
RUN_LIMIT_S = 170.0  # in-process passes still running then are killed
MIN_PASSES = 2  # a median of one pass would carry all of the machine's drift
JOB_TIMEOUT_S = 60.0  # a job still running then is killed and counts as failed

END_TO_END = {  # name: (unit, description)
    "session_s": ("s", "wall time of one pass over the job list"),
    "session_cpu_s": ("s", "user+sys CPU of the pass's jobs"),
    "setup_s": ("s", "cold start: import squarelab.cli and exit"),
    "peak_rss_mb": ("MB", "largest peak RSS of one job in the pass"),
}

# The per-layer metrics of the JSON result: every count, and the times that
# are non-zero on both workloads of BENCHMARK.json.  A time of a layer that a
# workload never calls reads 0.0 on every run; it is printed and recorded, not
# reported.  The full list is in bench/README.md.
PER_LAYER = (
    "cli.self_s", "core_sets.self_s", "core_sets.parse_s", "core_sets.format_s",
    "core_sets.set_build_s", "core_sets.grid_s", "core_sets.lines", "core_sets.guard_calls",
    "core_sets.guard_refusals", "constructions.self_s", "constructions.gen_Dk_s",
    "constructions.gen_example_s", "constructions.elements_out", "finders.self_s",
    "finders.centers_out",
    "finders.has_square_at_calls", "bounds_report.checks", "bounds_report.checks_failed",
    "trace.pass_s", "trace.harness_s", "trace.overhead_s",
)


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def child_env() -> dict[str, str]:
    """The environment every job starts from: this checkout's src/ on the
    path, and no inherited budget scale."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("SQUARELAB_BUDGET", "PYTHONPATH", "PYTHONHOME")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict[str, str], cwd: Path, stdout: Path, stderr: Path,
          timeout_s: float) -> dict:
    """Run one child to exit; wall time from spawn to reaping, and its own
    CPU time and peak RSS from wait4."""
    with open(stdout, "wb") as fo, open(stderr, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=fo, stderr=fe)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    timed_out = proc.returncode < 0 and wall >= timeout_s
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "returncode": None if timed_out else proc.returncode}


def cold_start(workdir: Path) -> float:
    """Wall time of one child that imports squarelab.cli and exits.  It must
    import the package from this checkout's src/."""
    argv = [sys.executable, "-c",
            "import squarelab.cli, squarelab, sys; sys.stdout.write(squarelab.__file__)"]
    out, err = workdir / "setup.out", workdir / "setup.err"
    r = spawn(argv, child_env(), workdir, out, err, 60.0)
    where = Path(out.read_text() or ".").resolve()
    if r["returncode"] != 0 or not where.is_relative_to(SRC):
        raise SetupError(f"squarelab does not import from {SRC}: "
                         f"{err.read_text()[-300:] or where}")
    return r["wall_s"]


def judge(workload: str, job: wl.Job, result: wl.Result) -> dict:
    """Check one job; a failure is 'known' when it is the documented defect."""
    problem = job.check(result)
    signature = wl.KNOWN_DEFECTS.get(f"{workload}/{job.name}")
    known = problem is not None and signature is not None and signature in problem
    return {"ok": problem is None, "problem": problem, "known": known}


def read_result(returncode: int | None, stdout: Path, stderr: Path, workdir: Path) -> wl.Result:
    return wl.Result(returncode, stdout.read_bytes(),
                     stderr.read_text(errors="replace"), workdir)


def run_pass(w: wl.Workload, workdir: Path, setup: list[float] | None) -> list[dict]:
    """One pass: every job as a subprocess, in order, then checked.  Given a
    `setup` list, a cold start before each job adds a sample to it, so set-up
    is sampled across a pass rather than in one burst."""
    rows = []
    env0 = child_env()
    for n, job in enumerate(w.jobs):
        if setup is not None:
            setup.append(cold_start(workdir))
        stdout, stderr = workdir / f"job{n}.out", workdir / f"job{n}.err"
        r = spawn([sys.executable, "-m", "squarelab.cli", *job.argv],
                  {**env0, **dict(job.env)}, workdir, stdout, stderr, JOB_TIMEOUT_S)
        verdict = judge(w.name, job, read_result(r["returncode"], stdout, stderr, workdir))
        rows.append({"job": job.name, **r, **verdict})
    return rows


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples above it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def git_state() -> dict:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              check=True, timeout=30).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            raise ValueError("not this checkout's repository")
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, ValueError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def machine(args: argparse.Namespace) -> dict:
    return {"time_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            **git_state(), "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def end_to_end(w: wl.Workload, workdir: Path, seconds: float, started: float) -> dict:
    """Whole passes over the job list, as many as come closest to `seconds`
    but at least MIN_PASSES."""
    setup: list[float] = []
    passes: list[list[dict]] = []
    began = time.perf_counter()
    while True:
        passes.append(run_pass(w, workdir, None if passes else setup))
        used = time.perf_counter() - began
        typical = used / len(passes)
        if time.perf_counter() - started + typical > DEADLINE_S:
            break
        if len(passes) >= MIN_PASSES and used + typical / 2 >= seconds:
            break
    per_pass = {
        "session_s": [sum(j["wall_s"] for j in p) for p in passes],
        "session_cpu_s": [sum(j["cpu_s"] for j in p) for p in passes],
        "peak_rss_mb": [max(j["rss_mb"] for j in p) for p in passes],
    }
    jobs = [j for p in passes for j in p]
    metrics = {k: statistics.median(v) for k, v in per_pass.items()}
    metrics["setup_s"] = statistics.median(setup)
    samples = {k: len(v) for k, v in per_pass.items()} | {"setup_s": len(setup)}
    tails = {k: tail_percentile(v) for k, v in per_pass.items()} | {
        "setup_s": tail_percentile(setup)}
    return {"metrics": {k: metrics[k] for k in END_TO_END}, "samples": samples,
            "tails": tails, "jobs": jobs,
            "record": {"setup_s": setup, "passes": passes, "per_pass": per_pass}}


def in_process(w: wl.Workload, workdir: Path, traced: bool, deadline: float) -> dict:
    """One in-process pass in a fresh interpreter (bench/tracing.py), killed
    if it runs past `deadline` (a perf_counter value)."""
    spec, out = workdir / "jobs.json", workdir / f"pass-traced{int(traced)}.json"
    spec.write_text(json.dumps([{"name": j.name, "argv": j.argv, "env": j.env}
                                for j in w.jobs]))
    argv = [sys.executable, str(BENCH / "tracing.py"), "--src", str(SRC),
            "--workdir", str(workdir), "--jobs", str(spec), "--out", str(out)]
    r = spawn(argv + (["--traced"] if traced else []), child_env(), workdir,
              workdir / "trace.out", workdir / "trace.err",
              max(deadline - time.perf_counter(), 1.0))
    if r["returncode"] != 0:
        raise SetupError(f"in-process pass failed: "
                         f"{(workdir / 'trace.err').read_text()[-500:]}")
    record = json.loads(out.read_text())
    for job, row in zip(w.jobs, record["jobs"]):
        result = read_result(row["returncode"], Path(row["stdout"]), Path(row["stderr"]),
                             workdir)
        row.update(judge(w.name, job, result))
    return record


def per_layer(w: wl.Workload, workdir: Path, started: float) -> dict:
    """A traced pass between two plain ones; the overhead is measured against
    their mean, so a drift or a first-pass penalty does not land on it."""
    deadline = started + RUN_LIMIT_S
    before = in_process(w, workdir, False, deadline)
    traced = in_process(w, workdir, True, deadline)
    after = in_process(w, workdir, False, deadline)
    metrics = traced.pop("metrics")
    metrics["trace.overhead_s"] = traced["pass_s"] - (before["pass_s"] + after["pass_s"]) / 2
    return {"metrics": metrics, "jobs": before["jobs"] + traced["jobs"] + after["jobs"],
            "record": {"plain_before": before, "traced": traced, "plain_after": after}}


def report(name: str, res: dict, trace: int) -> None:
    """Human-readable summary of one workload, before the JSON line."""
    jobs = res["jobs"]
    failed = [j for j in jobs if not j["ok"]]
    print(f"== {name}: {len(jobs)} jobs attempted, {len(failed)} failed "
          f"(fail_ratio {len(failed) / len(jobs):.4f})")
    for j in failed:
        print(f"   FAILED {j['job']}"
              f"{' (known defect)' if j['known'] else ''}: {j['problem']}")
    if trace:
        m = res["metrics"]
        layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        print(f"   traced pass {m['trace.pass_s']:.3f} s = layers {layers:.3f} s "
              f"+ harness {m['trace.harness_s']:.3f} s; overhead {m['trace.overhead_s']:.3f} s")
        for k, v in sorted(m.items()):
            print(f"   {k:34s} {v:14.6f}" if isinstance(v, float) else f"   {k:34s} {v:14d}")
        return
    for k, (unit, what) in END_TO_END.items():
        tail = res["tails"][k]
        tail_txt = f", p{tail[0]} {tail[1]:.4f}" if tail else ""
        print(f"   {k:14s} median {res['metrics'][k]:10.4f} {unit:2s} "
              f"(n={res['samples'][k]}{tail_txt})  {what}")
    print(f"   {'fail_ratio':14s} {len(failed) / len(jobs):17.4f} 1  "
          f"(n={len(jobs)})  jobs with a wrong answer or exit code, or timed out")


def run_workload(name: str, args: argparse.Namespace) -> dict:
    started = time.perf_counter()
    w = wl.build(name, args.seed)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    wl.prepare(w, workdir)
    try:
        res = per_layer(w, workdir, started) if args.trace else end_to_end(
            w, workdir, args.seconds, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(name, res, args.trace)
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = (f"{datetime.now(timezone.utc):%Y%m%dT%H%M%S}-{name}"
            f"-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    record = {"machine": machine(args), "workload": name,
              "jobs": [j.name for j in w.jobs], "metrics": res["metrics"],
              **{k: res[k] for k in ("samples", "tails") if k in res},
              **res["record"]}
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    units = {k: u for k, (u, _) in END_TO_END.items()} if not args.trace else {
        k: "s" if k.endswith("_s") else "count" for k in PER_LAYER}
    return {
        "correct": all(j["ok"] or j["known"] for j in res["jobs"]),
        "attempted": len(res["jobs"]),
        "failed": sum(1 for j in res["jobs"] if not j["ok"]),
        "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, killing the child
    if not (SRC / "squarelab" / "cli.py").is_file():
        print(f"error: no squarelab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args) for n in names}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The process environment `import squarelab` and the CLI's process entry
set up, checked in fresh interpreters: numpy and each module are imported
once per process, so an in-process test would only see the state the first
import left behind."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import squarelab
from squarelab.cli import main

SRC = str(Path(squarelab.__file__).resolve().parents[1])

# Records OPENBLAS_THREAD_TIMEOUT at the moment numpy is first requested,
# then imports squarelab, loads numpy through the package's lazy names, and
# prints that value and the final one.
CHILD = """
import os, sys
assert "numpy" not in sys.modules
seen = []

class Hook:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

sys.meta_path.insert(0, Hook())
import squarelab
from squarelab import IntSet1D
assert "numpy" in sys.modules
print(seen[0], os.environ["OPENBLAS_THREAD_TIMEOUT"])
"""


# The same, through the process entry `python -m squarelab.cli` runs; its
# os._exit raises SystemExit here, so the child goes on to print.
ENTRY_CHILD = CHILD.replace("import squarelab\n", """import runpy
os._exit = sys.exit
sys.argv = ["squarelab", "gen", "dk", "--k", "2"]
try:
    runpy.run_module("squarelab.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0
""")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_THREAD_TIMEOUT", "SQUARELAB_BUDGET")}
    env["PYTHONPATH"] = SRC
    return env


def timeout_seen(child: str, preset: str | None) -> list[str]:
    """OPENBLAS_THREAD_TIMEOUT when numpy was requested, and at the end."""
    env = child_env()
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()[-2:]


@pytest.mark.parametrize("preset, expected", [(None, "4"), ("12", "12")])
def test_openblas_thread_timeout_is_set_before_numpy_loads(preset, expected):
    assert timeout_seen(CHILD, preset) == [expected, expected]


@pytest.mark.parametrize("preset, expected", [(None, "4"), ("12", "12")])
def test_openblas_thread_timeout_is_set_before_numpy_loads_on_the_entry(preset, expected):
    assert timeout_seen(ENTRY_CHILD, preset) == [expected, expected]


# Runs `python -m squarelab.cli ARGV...` as runpy does, or calls the
# "module:function" in SQUARELAB_TEST_SCRIPT as a console script does, after
# the code in SQUARELAB_TEST_PATCH.  At exit it writes the modules the process
# loaded, whether numpy was among them, and whether the process left through
# os._exit, skipping the interpreter's teardown, as the last line of stderr.
PROBE = """
import atexit, importlib, json, os, runpy, sys
def probe(skipped=False):
    loaded = sorted(m for m in sys.modules
                    if m.startswith("squarelab") or m in ("fractions", "dataclasses"))
    print(json.dumps({"loaded": loaded, "numpy": "numpy" in sys.modules,
                      "skipped_teardown": skipped}), file=sys.stderr, flush=True)
atexit.register(probe)
exit_now = os._exit
def probed_exit(code):
    probe(skipped=True)
    exit_now(code)
os._exit = probed_exit
exec(os.environ.get("SQUARELAB_TEST_PATCH", ""))
sys.argv = ["squarelab", *sys.argv[1:]]
if os.environ.get("SQUARELAB_TEST_SCRIPT"):
    module, func = os.environ["SQUARELAB_TEST_SCRIPT"].split(":")
    sys.exit(getattr(importlib.import_module(module), func)())
runpy.run_module("squarelab.cli", run_name="__main__")
"""

# the target of the `squarelab` console script, as pyproject.toml declares it
SCRIPT = re.search(r'^squarelab = "(.+)"$',
                   (Path(SRC).parent / "pyproject.toml").read_text(), re.M).group(1)


def probe(*argv: str, cwd: Path | None = None, **env: str) -> tuple[int, dict]:
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=child_env() | env,
                         cwd=cwd, capture_output=True, text=True, timeout=120)
    return out.returncode, json.loads(out.stderr.splitlines()[-1])


@pytest.fixture(scope="module")
def set_files(tmp_path_factory) -> Path:
    where = tmp_path_factory.mktemp("sets")
    (where / "a.txt").write_text("0\n1\n2\n4\n")
    (where / "b.txt").write_text("".join(f"{x} {y}\n" for x in range(3) for y in range(3)))
    return where


# the find commands decide their bound with the package's own comparison
FINDS_ONLY = {"constructions", "dimension_lab", "bounds_report", "fractions", "dataclasses"}
COMMANDS = {  # command: (modules it loads, modules it must not load)
    ("gen", "dk", "--k", "3"): (
        {"constructions"}, {"finders", "dimension_lab", "bounds_report", "fractions"}),
    ("find", "centers1d", "--in", "a.txt"): ({"finders"}, FINDS_ONLY),
    ("find", "vertices", "--in", "b.txt", "--count"): ({"finders"}, FINDS_ONLY),
    ("find", "boundaries", "--in", "b.txt", "--rmax", "2"): ({"finders"}, FINDS_ONLY),
}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_each_command_loads_only_the_modules_it_runs(argv, set_files):
    code, seen = probe(*argv, cwd=set_files)
    assert code == 0
    loaded = {m.removeprefix("squarelab.") for m in seen["loaded"]}
    needed, unused = COMMANDS[argv]
    assert needed <= loaded and not unused & loaded, loaded


FRONT_END = {  # argv: exit status; argparse answers each before a handler runs
    ("--help",): 0,
    ("gen", "--help"): 0,
    ("find", "vertices", "--help"): 0,
    ("verify", "an", "--help"): 0,
    ("scan", "--help"): 0,
    ("gen", "dk", "--kk", "2"): 2,   # a usage error
    (): 2,                           # no command
}


@pytest.mark.parametrize("script", ["", SCRIPT], ids=["module", "script"])
@pytest.mark.parametrize("argv", FRONT_END, ids=lambda argv: " ".join(argv) or "no-command")
def test_the_front_end_loads_no_numpy(argv, script):
    code, seen = probe(*argv, SQUARELAB_TEST_SCRIPT=script)
    assert code == FRONT_END[argv]
    assert not seen["numpy"]
    # `python -m` runs the cli module as __main__, not as squarelab.cli
    assert seen["loaded"] == (["squarelab", "squarelab.cli"] if script else ["squarelab"])


def test_import_loads_no_numpy_and_no_submodule():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, squarelab; print('numpy' in sys.modules, "
         "sorted(m for m in sys.modules if m.startswith('squarelab') or m == 'fractions'))"],
        env=child_env(), capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False ['squarelab']"


FORCED_FAILURE = """
from squarelab import bounds_report
bounds_report.verify_construction = lambda name, **kw: [
    bounds_report.BoundCheck.compare("forced", 2, 1)]
"""


@pytest.mark.parametrize("script", ["", SCRIPT], ids=["module", "script"])
@pytest.mark.parametrize("argv, patch, expected, skipped", [
    (("gen", "dk", "--k", "2"), "", 0, True),
    (("verify", "dk", "--k", "2"), FORCED_FAILURE, 1, True),
    (("gen", "dk", "--k", "60"), "", 2, True),      # a budget refusal
    (("gen", "dk", "--kk", "2"), "", 2, False),     # a usage error, raised by argparse
    ((), "", 2, True),                              # no command
], ids=["ok", "check-failed", "refused", "usage", "no-command"])
def test_process_entry_skips_teardown_and_passes_the_exit_status(argv, patch, expected,
                                                                 skipped, script):
    code, seen = probe(*argv, SQUARELAB_TEST_PATCH=patch, SQUARELAB_TEST_SCRIPT=script)
    assert (code, seen["skipped_teardown"]) == (expected, skipped)


def test_main_in_process_returns_its_status(capsys):
    assert main(["gen", "dk", "--k", "2"]) == 0
    assert main(["gen", "dk", "--k", "60"]) == 2
    assert capsys.readouterr().out.startswith("# digit set, level 2, 42 elements\n")


def test_a_closed_pipe_exits_2_with_one_error_line():
    # D_20's ~1 MB of lines outrun the pipe's buffer, so once the reader has
    # left after one line, a later write fails: exit 2 and the error line,
    # with nothing from a flush at exit
    proc = subprocess.Popen([sys.executable, "-m", "squarelab.cli", "gen", "dk", "--k", "20"],
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"# digit set, level 20, ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err.splitlines() == ["error: [Errno 32] Broken pipe"]

"""The process environment `import squarelab` sets up, checked in fresh
interpreters: numpy is imported once per process, so an in-process test
would only see the state the first import left behind."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import squarelab

SRC = str(Path(squarelab.__file__).resolve().parents[1])

# Records OPENBLAS_THREAD_TIMEOUT at the moment numpy is first requested,
# then imports squarelab and prints that value and the final one.
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
assert "numpy" in sys.modules
print(seen[0], os.environ["OPENBLAS_THREAD_TIMEOUT"])
"""


@pytest.mark.parametrize("preset, expected", [(None, "4"), ("12", "12")])
def test_openblas_thread_timeout_is_set_before_numpy_loads(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = SRC
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [expected, expected]

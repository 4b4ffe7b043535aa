"""The repository's pytest configuration: a failing Hypothesis test is one failure, and `src` is importable.

`filterwarnings = ["error"]` turns every warning into an error.  When a
Hypothesis test fails, Hypothesis's pytest plugin imports libcst, which warns
that mypy_extensions.TypedDict is deprecated; as an error that warning became
an INTERNALERROR, pytest exited 3 and no later test ran.

`pythonpath = ["src"]` lets a bare `pytest` import this checkout's package,
with no install and no PYTHONPATH.
"""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = PYPROJECT.parent / "src"

FAILING_THEN_PASSING = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_THEN_PASSING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert run.returncode == 1, output
    assert "1 failed, 1 passed" in run.stdout, output


def test_a_bare_run_imports_this_checkouts_package(tmp_path):
    (tmp_path / "test_sample.py").write_text(
        f"import zenosim\n\ndef test_source():\n    assert zenosim.__file__.startswith({str(SRC)!r})\n",
        encoding="utf-8",
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(PYPROJECT.parent), str(tmp_path / "test_sample.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr

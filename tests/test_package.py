"""The top-level `zenosim` namespace: the names its callers import from it, and nothing heavier.

The README quickstart, the benchmark's scaling report and its set-up timing
read these names from `zenosim`; every other entry point is imported from
its own module (`zenosim.protocol`, `zenosim.heisenberg`, `zenosim.noise`, ...).
"""

import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import zenosim

EXPORTS = {"build_code", "random_model", "basis_state", "random_state", "single_cycle", "zeno_run", "__version__"}


def test_the_namespace_holds_only_the_names_its_callers_import():
    public = {name for name, value in vars(zenosim).items()
              if not isinstance(value, ModuleType) and (not name.startswith("_") or name == "__version__")}
    assert public == EXPORTS


def test_importing_the_package_leaves_out_the_verifier_and_the_cli():
    probe = "import sys, zenosim; print(*sorted(m for m in sys.modules if m.startswith('zenosim')))"
    src = str(Path(zenosim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded = set(run.stdout.split())
    assert "zenosim.protocol" in loaded
    assert not loaded & {"zenosim.heisenberg", "zenosim.cli"}

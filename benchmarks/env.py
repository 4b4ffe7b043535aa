"""Process set-up shared by the benchmark scripts: BLAS threads, import path, machine record.

`configure()` must run before numpy is imported, because OpenBLAS reads its
thread count once, when it loads.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_count() -> int:
    """What `nproc` reports: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


class MissingProgram(RuntimeError):
    """The checkout holds no zenosim sources to benchmark."""


def configure() -> None:
    """Pin BLAS threads and make `import zenosim` load this checkout's sources.

    BLAS threads are set to one per CPU, the default users get, in this
    process's environment, so subprocesses inherit the setting too.
    """
    os.environ.update({var: str(cpu_count()) for var in BLAS_THREAD_VARS})
    if not (SRC / "zenosim" / "__init__.py").is_file():
        raise MissingProgram(f"no zenosim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import zenosim

    if Path(zenosim.__file__).resolve().parent != SRC / "zenosim":
        raise MissingProgram(f"imported zenosim from {zenosim.__file__}, not from {SRC}")


def describe() -> dict:
    """Machine and library versions, recorded next to every result."""
    import numpy as np
    import zenosim

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "zenosim": zenosim.__version__,
        "machine": platform.machine(),
    }

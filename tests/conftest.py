"""Fixtures shared by the test modules."""

import os

import pytest

import zenosim.cli

#: The variables that set numpy's BLAS thread count; the n = 4 golden sweep rows depend on it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pytest_report_header(config):
    """The BLAS thread settings and CPU count, so that a golden-row failure can be traced to its environment."""
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS)
    return f"blas threads: {threads}; os.cpu_count()={os.cpu_count()}"


@pytest.fixture
def fresh_models():
    """No seeded model kept by the CLI before the test and after it, so each run builds its own."""
    zenosim.cli._kept_model.cache_clear()
    yield
    zenosim.cli._kept_model.cache_clear()

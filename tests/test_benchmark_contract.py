"""What the benchmark's outside tracing and its scaling report need from the package.

`benchmarks/tracing.py` wraps zenosim functions by module and name, and its
per-cycle metrics count one `single_cycle` span per sweep point; its
`protocol.twotime` metric reads one `two_time_protocol` span per strength.
`benchmarks/scaling.py` and the harness's set-up timing call the package
directly.  A refactor that renames one of those functions, changes a
signature they call, or folds the per-point call away breaks the benchmark
silently; these checks make it fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import zenosim
import zenosim.cli
import zenosim.protocol
from zenosim.noise import random_model
from zenosim.protocol import epsilon_sweep
from zenosim.zeno_code import build_code

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"zenosim_benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    traced = _load("tracing").TRACED
    assert traced
    for _, module_name, attr in traced:
        assert module_name.startswith("zenosim.")
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)


def test_sweep_runs_one_single_cycle_per_point(monkeypatch):
    calls = []
    real = zenosim.protocol.single_cycle

    def spy(*args, **kwargs):
        calls.append(kwargs.get("epsilon"))
        return real(*args, **kwargs)

    monkeypatch.setattr(zenosim.protocol, "single_cycle", spy)
    grid = np.geomspace(1e-3, 1e-1, 5)
    epsilon_sweep(build_code(2), random_model(2, seed=3), grid)
    assert calls == [float(e) for e in grid]


def test_twotime_runs_one_two_time_protocol_per_strength(monkeypatch, tmp_path):
    # the benchmark's twotime invocation: n = 2 and an 8-point range
    calls = []
    real = zenosim.cli.two_time_protocol

    def spy(model, eps, *args, **kwargs):
        calls.append(eps)
        return real(model, eps, *args, **kwargs)

    monkeypatch.setattr(zenosim.cli, "two_time_protocol", spy)
    out = tmp_path / "twotime.csv"
    argv = ["twotime", "--n", "2", "--eps", "1e-3..3e-2", "--points", "8", "--out", str(out)]
    assert zenosim.cli.main(argv) == 0
    assert calls == [float(e) for e in np.geomspace(1e-3, 3e-2, 8)]


@pytest.mark.parametrize("n", [1, 2])
def test_scaling_report_and_setup_calls_run(monkeypatch, n):
    monkeypatch.syspath_prepend(str(BENCHMARKS))  # scaling.py imports its sibling env.py
    scaling = _load("scaling")
    # the harness times these two calls in a fresh interpreter
    assert zenosim.build_code(n).n == n
    assert zenosim.random_model(n, 0).n == n
    cases = scaling.cases(0)
    assert [name for name, _ in cases] == ["single_cycle", "zeno_reset_k8", "zeno_persist_k8"]
    for name, make in cases:
        assert make(n)() is not None, name

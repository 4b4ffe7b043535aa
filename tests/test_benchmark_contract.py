"""What the benchmark's outside tracing needs from the package.

`benchmarks/tracing.py` wraps zenosim functions by module and name, and its
per-cycle metrics count one `single_cycle` span per sweep point; its
`protocol.twotime` metric reads one `two_time_protocol` span per strength.
A refactor that renames one of those functions or folds the per-point call
away breaks the benchmark silently; these checks make it fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import zenosim.cli
import zenosim.protocol
from zenosim.noise import random_model
from zenosim.protocol import epsilon_sweep
from zenosim.zeno_code import build_code

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("zenosim_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    traced = _load_tracing().TRACED
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

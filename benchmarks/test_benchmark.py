"""The benchmark's own tests: failures are counted, counts repeat, tracing is transparent.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import env

env.configure()

import zenosim.cli  # noqa: E402
import zenosim.noise  # noqa: E402
import zenosim.protocol  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _by_kind(workload: str, seed: int = checks.DEFAULT_SEED) -> dict:
    return {inv.kind: inv for inv in harness.invocations(workload, seed)}


@pytest.fixture
def client(tmp_path):
    return harness.Client(tmp_path, checks.load_reference())


def _corrupting_writer(monkeypatch, corrupt):
    """Make the CLI write outputs whose data part `corrupt` has altered in place."""
    real = zenosim.cli.write_json

    def write_json(path, payload):
        payload = copy.deepcopy(payload)
        corrupt(payload)
        real(path, payload)

    monkeypatch.setattr(zenosim.cli, "write_json", write_json)


def test_reference_outputs_pass(client):
    distinct = {inv.key: inv for w in harness.WORKLOADS for inv in harness.invocations(w, checks.DEFAULT_SEED)}
    assert len(distinct) == len(checks.load_reference()) == 8
    for inv in distinct.values():
        if inv.n == 2 or inv.kind == "sweep":  # the n=4 zeno runs are checked below
            assert client.run(inv).problems == []
    assert (client.attempted, client.failed) == (6, 0)


def test_row_off_by_more_than_tolerance_fails_at_default_seed(client, monkeypatch):
    def nudge(payload):
        payload["rows"][3]["failure_probability"] += 1e-9

    _corrupting_writer(monkeypatch, nudge)
    outcome = client.run(_by_kind("small-n")["sweep"])
    assert any("rows[3].failure_probability" in p for p in outcome.problems)
    assert (client.attempted, client.failed) == (1, 1)


@pytest.mark.parametrize(
    "kind, corrupt, message",
    [
        ("sweep", lambda p: p["rows"][0].update(infidelity=-1e-3), "outside [0, 1]"),
        ("sweep", lambda p: p["fit"].update(slope=2.2), "failure slope"),
        ("zeno_reset", lambda p: p["rows"][-1].update(cumulative_failure=0.9), "does not fall"),
        ("twotime", lambda p: p["rows"][2].update(p_00_00=p["rows"][2]["p_00_00"] + 1e-9), "sums to"),
        ("verify", lambda p: p["reports"][0].update(status="fail"), "does not hold"),
    ],
)
def test_corrupted_output_fails_at_any_seed(tmp_path, monkeypatch, kind, corrupt, message):
    client = harness.Client(tmp_path, None)
    _corrupting_writer(monkeypatch, corrupt)
    outcome = client.run(_by_kind("small-n", seed=5)[kind])
    assert any(message in p for p in outcome.problems), outcome.problems
    assert client.failed == 1


def test_invocation_that_writes_nothing_fails(client, monkeypatch):
    inv = _by_kind("small-n")["sweep"]
    assert client.run(inv).problems == []
    monkeypatch.setattr(zenosim.cli, "write_json", lambda path, payload: None)
    outcome = client.run(inv)
    assert any("unreadable output" in p for p in outcome.problems), outcome.problems
    assert (client.attempted, client.failed) == (2, 1)


def test_wrong_exit_code_fails(client):
    bad = harness.Invocation("sweep", ("sweep", "--n", "2", "--eps", "nope"), 0, 2)
    outcome = client.run(bad)
    assert "exit code 2" in outcome.problems[0]
    assert client.failed == 1


def _traced_layers(client, inv):
    tracer = tracing.Tracer()
    with tracer.installed():
        assert client.run(inv, tracer).problems == []
    return tracing.layer_metrics(tracer.take())


EXACT = ("noise.unitary.calls", "noise.unitary.per_cycle", "noise.dense_dim_max",
         "statevec.apply.bytes", "protocol.cycles", "zeno_code.encode.calls")


@pytest.mark.parametrize(
    "workload, kind, calls",
    [("zeno-n4", "zeno_reset", 67), ("zeno-n4", "zeno_persist", 7), ("sweep-n4", "sweep", 16)],
)
def test_exact_counts_repeat(client, workload, kind, calls):
    inv = _by_kind(workload)[kind]
    first, second = (_traced_layers(client, inv) for _ in range(2))
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["noise.unitary.calls"] == calls
    assert first["noise.unitary.per_cycle"] == calls / inv.cycles
    assert first["protocol.cycles"] == inv.cycles
    assert first["noise.dense_dim_max"] == 256


def test_reset_rebuilds_do_not_depend_on_the_seed(tmp_path):
    inv = _by_kind("zeno-n4", seed=1)["zeno_reset"]
    assert _traced_layers(harness.Client(tmp_path, None), inv)["noise.unitary.calls"] == 67


def test_sweep_time_is_mostly_noise(client):
    layers = _traced_layers(client, _by_kind("sweep-n4")["sweep"])
    assert layers["noise.sweep_share"] >= 0.8


def test_tracer_restores_every_name():
    before = (zenosim.protocol.noise_unitary, zenosim.noise.noise_unitary, zenosim.noise.hermitian_exp)
    with tracing.Tracer().installed():
        assert zenosim.protocol.noise_unitary is not before[0]
        assert zenosim.noise.hermitian_exp is not before[2]
    assert (zenosim.protocol.noise_unitary, zenosim.noise.noise_unitary, zenosim.noise.hermitian_exp) == before


def test_self_time_excludes_children():
    spans = [
        [tracing.INVOKE, None, 0.0, 10.0, {"kind": "sweep"}],
        ["protocol.zeno_run", 0, 1.0, 9.0, {"cycles": 2, "policy": "reset"}],
        ["noise.unitary", 1, 2.0, 5.0, {}],
        ["noise.exp", 2, 3.0, 5.0, {"dim": 16}],
        ["noise.unitary", 1, 6.0, 7.0, {}],
    ]
    layers = tracing.layer_metrics(spans)
    assert layers["protocol.reset_step.self_s"] == pytest.approx(4.0)
    assert layers["cli.self_s"] == pytest.approx(2.0)
    assert layers["noise.unitary.busy_s"] == pytest.approx(4.0)
    assert layers["noise.unitary.per_cycle_reset"] == 1.0
    assert layers["noise.sweep_share"] == pytest.approx(0.4)


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(env.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "small-n", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_benchmark_json_names_every_metric():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert set(spec["paths"]) == {"benchmarks"}
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS) == list(run.WORKLOAD_NAMES)
    fake = [[tracing.INVOKE, None, 0.0, 1.0, {"kind": "sweep"}]]
    per_layer = {(name, harness._unit(name)) for name in tracing.layer_metrics(fake)}
    per_layer.add(("trace.overhead", "ratio"))
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == per_layer
    end_to_end = {(f"{kind}_s.p50", "s") for kind in harness.KINDS}
    end_to_end |= {("setup_s", "s"), ("cycles_per_s", "1/s"), ("peak_rss_mb", "MB")}
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == end_to_end

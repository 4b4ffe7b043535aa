import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zenosim
import zenosim.cli
from zenosim.cli import FIELDS, ExperimentConfig, _build_parser, main, parse_epsilons
from zenosim.errors import ConfigError
from zenosim.heisenberg import run_verification
from zenosim.noise import load_model, model_to_dict, random_model, save_model, zero_model
from zenosim.output import data_lines
from zenosim.zeno_code import MAX_SYSTEM_QUBITS


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def test_parse_epsilons_list_and_range():
    assert parse_epsilons("1e-3,2e-3", 8) == [1e-3, 2e-3]
    grid = parse_epsilons("1e-3..1e-1", 5)
    assert len(grid) == 5
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(1e-1)
    with pytest.raises(ConfigError):
        parse_epsilons("abc", 8)


def test_config_validation_messages():
    with pytest.raises(ConfigError, match="n:"):
        ExperimentConfig("sweep", n=0, epsilons=[1e-3]).validate()
    with pytest.raises(ConfigError, match=f"n: must be an integer in 1..{MAX_SYSTEM_QUBITS}"):
        ExperimentConfig("sweep", n=MAX_SYSTEM_QUBITS + 1, epsilons=[1e-3]).validate()
    with pytest.raises(ConfigError, match="epsilons:"):
        ExperimentConfig("sweep", n=1).validate()
    with pytest.raises(ConfigError, match="total_epsilon:"):
        ExperimentConfig("zeno", n=1, k_values=[1]).validate()
    with pytest.raises(ConfigError, match="k_values:"):
        ExperimentConfig("zeno", n=1, total_epsilon=0.1, k_values=[0]).validate()
    with pytest.raises(ConfigError, match="output_path:"):
        ExperimentConfig("sweep", n=1, epsilons=[1e-3], output_path=5).validate()
    with pytest.raises(ConfigError, match="seed:"):
        ExperimentConfig("sweep", n=1, epsilons=[1e-3], seed=-1).validate()


def test_verify_subcommand_passes(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out), "--format", "json"]) == 0
    captured = capsys.readouterr().out
    assert "identities hold" in captured
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is True
    assert {r["status"] for r in payload["reports"]} == {"pass"}


def test_verify_csv_is_a_csv_table(tmp_path):
    out = tmp_path / "v.csv"
    assert main(["verify", "--format", "csv", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("# config: ")
    records = list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")))
    reports = run_verification()
    assert records[0] == ["identity", "status", "max_defect", "note"]
    assert len(records) == 1 + len(reports)
    assert [r[1] for r in records[1:]] == ["pass"] * len(reports)
    # notes hold commas; quoting keeps each one a single cell
    assert [(r[0], r[3]) for r in records[1:]] == [(r.identity, r.note) for r in reports]


def test_sweep_writes_csv_with_config_and_fit(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--n", "1", "--seed", "7",
        "--eps", "1e-3..3e-2", "--points", "8", "--out", str(out),
    ])
    assert code == 0
    lines = read_lines(out)
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    assert config["seed"] == 7 and config["n"] == 1
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "epsilon,failure_probability,infidelity"
    assert len(lines) == header_idx + 8 + 2  # 8 rows plus trailing fit comment
    fit = json.loads(lines[-1][len("# fit: "):])
    assert 1.95 <= fit["slope"] <= 2.05


def test_sweep_reruns_are_byte_identical(tmp_path):
    args = ["sweep", "--n", "1", "--seed", "7", "--eps", "1e-3..3e-2", "--points", "6"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    lines1 = [ln.replace(str(out1), "OUT") for ln in data_lines(read_lines(out1))]
    lines2 = [ln.replace(str(out2), "OUT") for ln in data_lines(read_lines(out2))]
    assert lines1 == lines2


def test_a_repeated_sweep_reuses_the_model_and_its_eigenbasis(monkeypatch, fresh_models, tmp_path):
    out = tmp_path / "sweep.csv"  # one path, since the config line records it

    def sweep_lines():
        assert main(["sweep", "--n", "3", "--eps", "1e-3..3e-2", "--points", "8", "--out", str(out)]) == 0
        return data_lines(read_lines(out))

    first = sweep_lines()
    calls = []
    for holder, name in ((np.linalg, "eigh"), (zenosim.noise, "build_hamiltonian")):
        def spy(*args, name=name, real=getattr(holder, name), **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(holder, name, spy)
    assert sweep_lines() == first
    assert calls == []
    zenosim.cli._kept_model.cache_clear()
    assert sweep_lines() == first
    assert calls == ["build_hamiltonian", "eigh"]


def test_only_small_seeded_models_are_kept(fresh_models, tmp_path):
    def model(**fields):
        return zenosim.cli._noise_model(ExperimentConfig("sweep", **fields))

    kept = [model(n=2, seed=s) for s in range(3)] + [model(n=3)]
    assert all(model(n=2, seed=s) is kept[s] for s in range(3)) and model(n=3) is kept[3]
    assert model(n=5) is not model(n=5)  # too large to hold
    path = tmp_path / "model.json"
    save_model(random_model(2, 0), path)
    assert model(n=2, model_file=str(path)) is not model(n=2, model_file=str(path))
    model(n=1)  # a fifth (n, seed) evicts the one asked for longest ago
    assert zenosim.cli._kept_model.cache_info().currsize == 4
    again = model(n=2, seed=0)
    assert again is not kept[0] and np.array_equal(again.couplings, kept[0].couplings)


def test_sweep_floor_exit_code(tmp_path):
    model_path = tmp_path / "silent.json"
    save_model(zero_model(1), model_path)
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--n", "1", "--eps", "1e-3..3e-2", "--points", "6",
        "--model-file", str(model_path), "--out", str(out),
    ])
    assert code == 3


def test_zeno_failure_column_is_monotone(tmp_path):
    out = tmp_path / "zeno.csv"
    code = main([
        "zeno", "--n", "1", "--seed", "7", "--total-eps", "0.05",
        "--k", "1,2,4,8,16", "--out", str(out),
    ])
    assert code == 0
    lines = read_lines(out)
    rows = [ln.split(",") for ln in lines if ln and not ln.startswith("#")][1:]
    failures = [float(r[3]) for r in rows]
    assert failures == sorted(failures, reverse=True)


def test_zeno_json_contains_per_cycle_details(tmp_path):
    out = tmp_path / "zeno.json"
    assert main([
        "zeno", "--n", "1", "--seed", "3", "--total-eps", "0.04",
        "--k", "2", "--format", "json", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text())
    assert payload["rows"][0]["k"] == 2
    assert len(payload["rows"][0]["per_cycle"]) == 2


def test_twotime_two_systems(tmp_path):
    out = tmp_path / "tt.csv"
    assert main([
        "twotime", "--n", "2", "--seed", "5", "--eps", "1e-2", "--out", str(out),
    ]) == 0
    lines = read_lines(out)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert len(header.split(",")) == 1 + 16 + 1


def test_twotime_six_systems(tmp_path):
    out = tmp_path / "tt.csv"
    assert main(["twotime", "--n", "6", "--seed", "5", "--eps", "1e-2,3e-2", "--out", str(out)]) == 0
    rows = list(csv.reader(ln for ln in read_lines(out) if not ln.startswith("#")))
    assert rows[0][0] == "epsilon" and rows[0][-1] == "other_outcome_mass"
    assert [len(row) for row in rows] == [1 + 4**6 + 1] * 3
    assert rows[0][1] == "p_" + "_".join(["00"] * 6)


@pytest.mark.parametrize("flag", [["--psi", "random-seeded"], ["--psi-seed", "3"]], ids=["psi", "psi-seed"])
def test_twotime_takes_no_state(tmp_path, capsys, flag):
    # the two-time readout depends only on the noise, so it has no state to choose
    with pytest.raises(SystemExit) as exc:
        main(["twotime", "--n", "2", "--eps", "1e-2", *flag, "--out", str(tmp_path / "tt.csv")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "tt.csv").exists()


def test_invalid_configs_exit_2(tmp_path, capsys):
    assert main(["sweep", "--n", "0", "--eps", "1e-3..3e-2"]) == 2
    assert "n:" in capsys.readouterr().err
    assert main(["zeno", "--n", "1", "--total-eps", "0.05", "--k", "0,2"]) == 2
    assert main(["sweep", "--n", "1", "--eps", "1e-3,2e-3,3e-3,4e-3"]) == 2  # < one decade


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": 1, "seed": 7, "epsilons": [1e-3, 3e-3, 1e-2, 3e-2, 1e-1],
        "output_format": "json",
    }))
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", str(cfg), "--seed", "8", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["seed"] == 8        # flag wins
    assert payload["config"]["n"] == 1           # file value used
    assert len(payload["rows"]) == 5


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ZENOSIM_OUTDIR", str(tmp_path))
    assert main(["sweep", "--n", "1", "--seed", "7", "--eps", "1e-3..3e-2"]) == 0
    assert (tmp_path / "sweep.csv").exists()


def _model_file(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    return str(path)


def _model_file_with_block(tmp_path, block):
    """A valid n = 2 model file whose coupling (1, 2) is replaced by `block`."""
    data = model_to_dict(random_model(2, seed=0))
    data["couplings"][1][2] = block
    return _model_file(tmp_path, json.dumps(data))


def _model_file_with(tmp_path, **fields):
    """A valid n = 1 model file with `fields` written over its own."""
    return _model_file(tmp_path, json.dumps({**model_to_dict(random_model(1, seed=0)), **fields}))


NAN_BLOCK = [[[math.nan, math.nan]] * 2] * 2  # json writes and reads NaN


def _config(tmp_path, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    return ["--config", str(path)]


SWEEP = ["sweep", "--eps", "1e-3..1e-1"]
ZENO = ["zeno", "--total-eps", "0.1", "--k", "1"]
OVERFLOW = "strength 1e+308 overflows the phases"  # eps * w is inf, and exp would give NaN
POINTS_WITHOUT_RANGE = "points: only a lo..hi strength range reads it"
TOO_FEW_POINTS = "points: a strength range needs at least two points"
PSI_SEED_WITHOUT_RANDOM = "psi_seed: only --psi random-seeded reads it"
# fields verify never reads: each must keep its default
UNREAD_BY_VERIFY = {"n": 3, "env_policy": "persist", "observable": "infidelity", "epsilons": [5],
                    "psi_kind": "random-seeded"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda tmp: ["sweep", "--n", "1", "--eps", "1e-3..inf"], "epsilons:"),
        (lambda tmp: ["twotime", "--n", "1", "--eps", "nan,1e-2"], "epsilons:"),
        (lambda tmp: ["twotime", "--n", "7", "--eps", "1e-2"], "n:"),
        (lambda tmp: ["zeno", "--n", "1", "--total-eps", "nan", "--k", "1,2"], "total_epsilon:"),
        (lambda tmp: ["zeno", "--n", "1", "--total-eps", "0.05", "--k", "1",
                      "--model-file", str(tmp / "missing.json")], "model_file:"),
        (lambda tmp: ["zeno", "--n", "2", "--total-eps", "0.05", "--k", "1",
                      "--model-file", _model_file(tmp, '{"n": 2}')], "model_file:"),
        (lambda tmp: ["sweep", "--n", "2", "--eps", "1e-3..1e-1",
                      "--model-file", _model_file(tmp, '{"n": 2, "epsilon": 0.01, "couplings": []}')], "model_file:"),
        (lambda tmp: ["sweep", "--n", "1", "--eps", "1e-3..1e-1",
                      "--model-file", _model_file(tmp, '{"n": null}')], "model_file:"),
        (lambda tmp: ["sweep", "--n", "1", "--eps", "1e-3..1e-1",
                      "--model-file", _model_file(tmp, "not json")], "model_file:"),
        (lambda tmp: [*SWEEP[:1], *_config(tmp, '{"epsilons": ["abc"]}')], "epsilons:"),
        (lambda tmp: [*ZENO, *_config(tmp, '{"epsilons": ["abc"]}')], "epsilons:"),
        (lambda tmp: [*SWEEP[:1], *_config(tmp, '{"epsilons": 5}')], "epsilons:"),
        (lambda tmp: [*SWEEP, *_config(tmp, '{"k_values": ["x"], "total_epsilon": 0.1}')], "k_values:"),
        (lambda tmp: [*ZENO[:1], *_config(tmp, '{"k_values": ["x"], "total_epsilon": 0.1}')], "k_values:"),
        (lambda tmp: [*SWEEP, *_config(tmp, '{"k_values": [1.5, 2]}')], "k_values:"),
        (lambda tmp: [*ZENO[:1], *_config(tmp, '{"k_values": [1.5, 2], "total_epsilon": 0.1}')], "k_values:"),
        (lambda tmp: [*ZENO[:1], "--k", "1.5,2", "--total-eps", "0.1"], "k_values:"),
        (lambda tmp: [*SWEEP, *_config(tmp, '{"n": "two"}')], "n:"),
        (lambda tmp: [*ZENO, *_config(tmp, '{"n": "two"}')], "n:"),
        (lambda tmp: [*ZENO, *_config(tmp, '{"n": 1.5}')], "n:"),
        (lambda tmp: [*SWEEP, *_config(tmp, "[1, 2]")], "config:"),
        (lambda tmp: [*ZENO, *_config(tmp, "[1, 2]")], "config:"),
        (lambda tmp: [*ZENO[:1], "--k", "1", *_config(tmp, '{"total_epsilon": "abc"}')], "total_epsilon:"),
        (lambda tmp: [*SWEEP, *_config(tmp, '{"seed": -1}')], "seed:"),
        (lambda tmp: [*ZENO, "--psi", "random-seeded", "--psi-seed", "-1"], "psi_seed:"),
        (lambda tmp: ["twotime", "--eps", "1e-2", *_config(tmp, '{"psi_kind": "random-seeded"}')], "psi_kind:"),
        (lambda tmp: ["twotime", "--eps", "1e-2", *_config(tmp, '{"psi_seed": 3}')], "psi_seed:"),
        (lambda tmp: ["sweep", "--n", "2", "--eps", "1e-3..1e-1", "--psi-seed", "3"], PSI_SEED_WITHOUT_RANDOM),
        (lambda tmp: [*ZENO, *_config(tmp, '{"psi_kind": "basis", "psi_seed": 3}')], PSI_SEED_WITHOUT_RANDOM),
        (lambda tmp: [*SWEEP, *_config(tmp, '{"env_policy": "persist"}')], "env_policy: only zeno"),
        (lambda tmp: ["twotime", "--eps", "1e-2", *_config(tmp, '{"env_policy": "persist"}')], "env_policy: only zeno"),
        (lambda tmp: [*ZENO, *_config(tmp, '{"observable": "infidelity"}')], "observable: only sweep"),
        (lambda tmp: ["twotime", "--eps", "1e-2", *_config(tmp, '{"observable": "infidelity"}')], "observable: only sweep"),
        (lambda tmp: [*SWEEP, *_config(tmp, b'{"n": "\xff"}')], "config:"),
        (lambda tmp: [*SWEEP, "--n", "2", "--model-file", _model_file_with_block(tmp, NAN_BLOCK)], "model_file:"),
        (lambda tmp: ["zeno", "--n", "2", "--total-eps", "0.1", "--k", "1,2",
                      "--model-file", _model_file_with_block(tmp, NAN_BLOCK)], "model_file:"),
        (lambda tmp: [*SWEEP, "--n", "2", "--model-file",
                      _model_file_with_block(tmp, [[[0.0, 0.0]] * 2, [[0.0, 0.0]]])], "model_file:"),
        (lambda tmp: [*SWEEP, "--n", "2", "--model-file",
                      _model_file_with_block(tmp, [[["0.5", 0.0]] * 2] * 2)], "model_file:"),
        (lambda tmp: ["zeno", "--n", "2", "--total-eps", "1e308", "--k", "1"], OVERFLOW),
        (lambda tmp: ["zeno", "--n", "2", "--total-eps", "1e308", "--k", "1", "--env-policy", "persist"], OVERFLOW),
        (lambda tmp: ["twotime", "--n", "2", "--eps", "1e308"], OVERFLOW),
        (lambda tmp: ["sweep", "--n", "2", "--eps", "1e306..1e308", "--points", "4"], OVERFLOW),
        (lambda tmp: [*SWEEP, "--n", "2", "--points", "4", *_config(tmp, '{"psi": "random-seeded", "psi_seed": 3}')],
         "config: unknown field 'psi'"),
        (lambda tmp: [*SWEEP, *_config(tmp, '{"noise_kind": "fixed-from-file"}')], "noise_kind:"),
        (lambda tmp: [*SWEEP, "--model-file", _model_file_with(tmp), *_config(tmp, '{"noise_kind": "random"}')],
         "noise_kind:"),
        (lambda tmp: [*SWEEP, "--out", str(tmp / "missing" / "out.csv")], "output_path: cannot write"),
        (lambda tmp: [*SWEEP, "--out", str(tmp)], "output_path: cannot write"),
        (lambda tmp: ["verify", "--out", str(tmp / "missing" / "out.csv")], "output_path: cannot write"),
        (lambda tmp: [*SWEEP, "--model-file", _model_file_with(tmp, n=1.9)], "model_file:"),
        (lambda tmp: [*SWEEP, "--model-file", _model_file_with(tmp, n=True)], "model_file:"),
        (lambda tmp: [*SWEEP, "--model-file", _model_file_with(tmp, seed=2.7)], "model_file:"),
        (lambda tmp: ["verify", *_config(tmp, json.dumps(UNREAD_BY_VERIFY))], "n:"),
        (lambda tmp: ["verify", *_config(tmp, '{"env_policy": "persist"}')], "env_policy: only zeno"),
        (lambda tmp: ["verify", *_config(tmp, json.dumps({"model_file": _model_file_with(tmp)}))], "model_file:"),
        (lambda tmp: ["twotime", "--eps", "1e-2", *_config(tmp, '{"k_values": [3]}')], "k_values:"),
        (lambda tmp: [*ZENO, *_config(tmp, '{"epsilons": [0.1, 0.2]}')], "epsilons:"),
        (lambda tmp: [*SWEEP, *_config(tmp, '{"total_epsilon": 0.1}')], "total_epsilon:"),
        (lambda tmp: ["sweep", "--eps", "1e-3,1e-2,1e-1,3e-1", "--points", "2"], POINTS_WITHOUT_RANGE),
        (lambda tmp: ["sweep", "--points", "2", *_config(tmp, '{"epsilons": [1e-3, 1e-2, 1e-1]}')],
         POINTS_WITHOUT_RANGE),
        (lambda tmp: [*SWEEP, "--points", "two"], "points: expected an integer"),
        (lambda tmp: [*SWEEP, "--points", "1"], TOO_FEW_POINTS),
        (lambda tmp: [*SWEEP, "--points", "0"], TOO_FEW_POINTS),
        (lambda tmp: [*SWEEP, "--points", "-3"], TOO_FEW_POINTS),
    ],
    ids=["range-to-inf", "nan-in-list", "twotime-n7", "nan-total", "missing-model", "model-without-couplings",
         "model-short-couplings", "model-null-n", "model-not-json",
         "sweep-config-eps-not-number", "zeno-config-eps-not-number", "sweep-config-eps-not-list",
         "sweep-config-k-not-number", "zeno-config-k-not-number", "sweep-config-k-fraction",
         "zeno-config-k-fraction", "zeno-flag-k-fraction", "sweep-config-n-word", "zeno-config-n-word",
         "zeno-config-n-fraction", "sweep-config-list", "zeno-config-list", "zeno-config-total-word",
         "sweep-config-negative-seed", "zeno-negative-psi-seed", "twotime-config-psi", "twotime-config-psi-seed",
         "sweep-psi-seed-without-random", "zeno-config-psi-seed-without-random",
         "sweep-config-env-policy", "twotime-config-env-policy", "zeno-config-observable",
         "twotime-config-observable",
         "sweep-config-not-utf8",
         "sweep-nan-couplings", "zeno-nan-couplings", "sweep-ragged-couplings", "sweep-text-couplings",
         "zeno-reset-phase-overflow",
         "zeno-persist-phase-overflow", "twotime-phase-overflow", "sweep-phase-overflow",
         "sweep-config-unknown-key", "sweep-config-noise-kind-without-model", "sweep-config-noise-kind-with-model",
         "sweep-out-missing-dir", "sweep-out-is-directory", "verify-out-missing-dir",
         "model-fractional-n", "model-boolean-n", "model-fractional-seed",
         "verify-config-unread-fields", "verify-config-env-policy", "verify-config-model-file",
         "twotime-config-k", "zeno-config-eps", "sweep-config-total",
         "sweep-points-with-list", "sweep-points-with-config-list", "sweep-points-word",
         "sweep-points-one", "sweep-points-zero", "sweep-points-negative"],
)
@pytest.mark.filterwarnings("error")  # a warning would print a second stderr line
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    argv = argv(tmp_path)
    if "--out" not in argv:  # a case that names its own output keeps it
        argv += ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, problem",
    [('{"couplings": []}', "needs the key 'n'"), ('{"n": 2}', "needs the key 'couplings'"),
     ('[{"n": 2}]', "must be a JSON object, got list"),
     (json.dumps({**model_to_dict(random_model(2, seed=0)), "sed": 5}), "unknown key 'sed'"),
     (json.dumps({**model_to_dict(random_model(2, seed=0)), "seed": -3}), "seed must be nonnegative, got -3")],
    ids=["without-n", "without-couplings", "list", "misspelt-key", "negative-seed"],
)
def test_a_model_file_error_names_the_problem(tmp_path, capsys, text, problem):
    out = tmp_path / "out.csv"
    assert main([*SWEEP, "--n", "2", "--model-file", _model_file(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: model_file: cannot load") and err[0].endswith(problem), err
    assert not out.exists()


def test_a_model_file_needs_no_strength_and_ignores_a_legacy_one(tmp_path):
    # a run's strengths come from --eps or --total-eps alone
    data = model_to_dict(random_model(2, seed=5))
    assert "epsilon" not in data
    runs = {
        "sweep": ["sweep", "--eps", "1e-3..1e-1", "--points", "6"],
        "zeno": ["zeno", "--total-eps", "0.2", "--k", "1,2,4"],
        "twotime": ["twotime", "--eps", "1e-3..3e-2", "--points", "4"],
    }
    for name, argv in runs.items():
        tables = []
        for label, legacy in (("plain", {}), ("legacy", {"epsilon": 0.5})):
            out = tmp_path / f"{name}-{label}.csv"
            model = _model_file(tmp_path, json.dumps({**data, **legacy}))
            assert main([*argv, "--n", "2", "--model-file", model, "--out", str(out)]) == 0, (name, label)
            tables.append([ln for ln in data_lines(read_lines(out)) if not ln.startswith("# config:")])
        assert len(tables[0]) > 2 and tables[0] == tables[1], name


def test_an_old_layout_model_file_loads_and_sweeps_as_one_saved_now(tmp_path):
    # model files written before the one-line writer hold two-space-indented JSON
    model = random_model(2, seed=9)
    rows = {}
    for layout in ("old", "now"):
        folder = tmp_path / layout
        folder.mkdir()
        path = folder / "model.json"
        if layout == "old":
            path.write_text(json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        else:
            save_model(model, path)
        assert np.array_equal(load_model(path).couplings.view(np.uint64), model.couplings.view(np.uint64))
        out = folder / "sweep.csv"
        assert main(["sweep", "--n", "2", "--eps", "1e-3..1e-1", "--model-file", str(path), "--out", str(out)]) == 0
        rows[layout] = [ln.replace(str(folder), "DIR") for ln in data_lines(read_lines(out))]
    assert len(rows["now"]) > 2 and rows["old"] == rows["now"]


def test_config_fields_the_subcommand_reads_are_recorded(tmp_path):
    runs = {
        "zeno": (["zeno", "--n", "1", "--total-eps", "0.1", "--k", "1"], {"env_policy": "persist"}),
        "sweep": (["sweep", "--n", "2", "--eps", "1e-3..1e-1"], {"observable": "infidelity"}),
    }
    for name, (argv, fields) in runs.items():
        out = tmp_path / f"{name}.json"
        assert main([*argv, *_config(tmp_path, json.dumps(fields)), "--format", "json", "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert {key: config[key] for key in fields} == fields


ONE_PROCESS_RUNS = {
    "sweep": ["sweep", "--n", "2", "--seed", "7", "--eps", "1e-3..1e-1", "--format", "json"],
    "zeno": ["zeno", "--n", "2", "--total-eps", "0.1", "--k", "1,2", "--env-policy", "persist"],
    "verify": ["verify", "--format", "json"],
}


def _data_lines_of(out) -> list[str]:
    return [ln.replace(str(out), "OUT") for ln in data_lines(read_lines(out))]


def test_one_parser_serves_a_sequence_of_calls(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    in_process = {}
    for name in ("sweep", "rejected", "zeno", "verify"):
        if name == "rejected":
            with pytest.raises(SystemExit) as exc:
                main(["zeno", "--n", "3", "--total-eps", "0.5", "--env-policy", "bounce"])
            assert exc.value.code == 2
            continue
        out = tmp_path / f"{name}.out"
        assert main([*ONE_PROCESS_RUNS[name], "--out", str(out)]) == 0
        in_process[name] = _data_lines_of(out)
    src = Path(zenosim.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    for name, argv in ONE_PROCESS_RUNS.items():
        out = tmp_path / f"{name}-alone.out"
        subprocess.run([sys.executable, "-m", "zenosim.cli", *argv, "--out", str(out)],
                       check=True, env=env, capture_output=True)
        assert _data_lines_of(out) == in_process[name], name


def test_an_unwritable_output_directory_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ZENOSIM_OUTDIR", str(tmp_path / "missing"))
    assert main(["sweep", "--n", "1", "--eps", "1e-3..3e-2"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: output_path: cannot write"), err


REPLAYS = {
    "sweep": ["sweep", "--n", "2", "--seed", "7", "--eps", "1e-3..1e-1", "--points", "5",
              "--psi", "random-seeded", "--psi-seed", "3"],
    "zeno-reset": ["zeno", "--n", "2", "--seed", "3", "--total-eps", "0.2", "--k", "1,2,4"],
    "zeno-persist": ["zeno", "--n", "2", "--seed", "3", "--total-eps", "0.2", "--k", "1,2,4",
                     "--env-policy", "persist", "--format", "json"],
    "twotime": ["twotime", "--n", "2", "--seed", "5", "--eps", "1e-3..1e-1", "--points", "3"],
    "zeno-model-file": ["zeno", "--n", "2", "--total-eps", "0.2", "--k", "1,3", "--model-file", "MODEL"],
    "verify": ["verify", "--seed", "7", "--format", "json"],
}


@pytest.mark.parametrize("name", REPLAYS)
def test_a_recorded_config_replays_its_output(tmp_path, name):
    model = tmp_path / "model.json"
    save_model(random_model(2, seed=11), model)
    argv = [str(model) if arg == "MODEL" else arg for arg in REPLAYS[name]]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    first = data_lines(read_lines(out))
    text = out.read_text(encoding="utf-8")
    config = json.loads(text)["config"] if text.startswith("{") else json.loads(first[0].removeprefix("# config: "))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out.unlink()
    # the recorded output_path sends the replay to the same file
    assert main([argv[0], "--config", str(cfg)]) == 0
    assert data_lines(read_lines(out)) == first


def test_main_validates_a_config_once(tmp_path, monkeypatch):
    calls = []
    validate = ExperimentConfig.validate
    monkeypatch.setattr(ExperimentConfig, "validate", lambda self: calls.append(self) or validate(self))
    assert main(["sweep", "--n", "1", "--eps", "1e-3..3e-2", "--out", str(tmp_path / "s.csv")]) == 0
    assert len(calls) == 1


def test_every_flag_sets_a_config_field_and_restates_no_default():
    # a flag's absence leaves the config file's value or the dataclass default in place
    common = {"--config", "--seed", "--out", "--format"}
    options = {
        "verify": common,
        "sweep": common | {"--n", "--eps", "--points", "--model-file", "--psi", "--psi-seed", "--observable"},
        "twotime": common | {"--n", "--eps", "--points", "--model-file"},
        "zeno": common | {"--n", "--total-eps", "--k", "--env-policy", "--model-file", "--psi", "--psi-seed"},
    }
    parser = _build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert subparsers.choices.keys() == options.keys()
    dests = {subparsers.dest}
    for name, sub in subparsers.choices.items():
        actions = [action for action in sub._actions if action.dest != "help"]
        assert {option for action in actions for option in action.option_strings} == options[name], name
        for action in actions:
            assert action.default is None, (name, action.option_strings)
            if action.dest in ("config", "points"):
                continue
            assert action.dest in FIELDS, (name, action.option_strings)
            dests.add(action.dest)
    assert dests == FIELDS  # and every field has a flag


def test_a_grid_numpy_refuses_names_points_not_the_strengths(capsys):
    # 10^20 points: numpy raises ValueError before it allocates anything
    assert main(["sweep", "--eps", "1e-3..1e-1", "--points", "100000000000000000000"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: points:"), err


def test_an_unparsable_range_end_still_names_the_strengths(capsys):
    assert main(["sweep", "--eps", "1e-3..abc", "--points", "5"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: epsilons: could not parse '1e-3..abc'"], err


def test_a_grid_too_large_to_allocate_exits_2(monkeypatch, capsys):
    # stands in for numpy refusing a huge grid, without allocating one
    def refuse(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(zenosim.cli.np, "geomspace", refuse)
    assert main(["sweep", "--n", "1", "--eps", "1e-3..1e-1", "--points", "100000000000"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: points:"), err

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zenosim
from zenosim.cli import ExperimentConfig, _build_parser, main, parse_epsilons
from zenosim.errors import ConfigError
from zenosim.heisenberg import run_verification
from zenosim.noise import model_to_dict, random_model, save_model, zero_model
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
    with pytest.raises(ConfigError, match="model_file:"):
        ExperimentConfig("sweep", n=1, epsilons=[1e-3], noise_kind="fixed-from-file").validate()
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


def _nan_model_file(tmp_path):
    data = model_to_dict(random_model(2, seed=0))
    data["couplings"][1][2] = [[[math.nan, math.nan]] * 2] * 2  # json writes and reads NaN
    return _model_file(tmp_path, json.dumps(data))


def _config(tmp_path, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    return ["--config", str(path)]


SWEEP = ["sweep", "--eps", "1e-3..1e-1"]
ZENO = ["zeno", "--total-eps", "0.1", "--k", "1"]
OVERFLOW = "strength 1e+308 overflows the phases"  # eps * w is inf, and exp would give NaN


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
        (lambda tmp: ["twotime", "--eps", "1e-2", *_config(tmp, '{"psi_kind": "random-seeded"}')], "psi:"),
        (lambda tmp: ["twotime", "--eps", "1e-2", *_config(tmp, '{"psi_seed": 3}')], "psi:"),
        (lambda tmp: [*SWEEP, *_config(tmp, b'{"n": "\xff"}')], "config:"),
        (lambda tmp: [*SWEEP, "--n", "2", "--model-file", _nan_model_file(tmp)], "model_file:"),
        (lambda tmp: ["zeno", "--n", "2", "--total-eps", "0.1", "--k", "1,2",
                      "--model-file", _nan_model_file(tmp)], "model_file:"),
        (lambda tmp: ["zeno", "--n", "2", "--total-eps", "1e308", "--k", "1"], OVERFLOW),
        (lambda tmp: ["zeno", "--n", "2", "--total-eps", "1e308", "--k", "1", "--env-policy", "persist"], OVERFLOW),
        (lambda tmp: ["twotime", "--n", "2", "--eps", "1e308"], OVERFLOW),
        (lambda tmp: ["sweep", "--n", "2", "--eps", "1e306..1e308", "--points", "4"], OVERFLOW),
    ],
    ids=["range-to-inf", "nan-in-list", "twotime-n7", "nan-total", "missing-model", "model-without-couplings",
         "model-short-couplings", "model-null-n", "model-not-json",
         "sweep-config-eps-not-number", "zeno-config-eps-not-number", "sweep-config-eps-not-list",
         "sweep-config-k-not-number", "zeno-config-k-not-number", "sweep-config-k-fraction",
         "zeno-config-k-fraction", "zeno-flag-k-fraction", "sweep-config-n-word", "zeno-config-n-word",
         "zeno-config-n-fraction", "sweep-config-list", "zeno-config-list", "zeno-config-total-word",
         "sweep-config-negative-seed", "zeno-negative-psi-seed", "twotime-config-psi", "twotime-config-psi-seed",
         "sweep-config-not-utf8",
         "sweep-nan-couplings", "zeno-nan-couplings", "zeno-reset-phase-overflow",
         "zeno-persist-phase-overflow", "twotime-phase-overflow", "sweep-phase-overflow"],
)
@pytest.mark.filterwarnings("error")  # a warning would print a second stderr line
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert main([*argv(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}"), err
    assert not out.exists()


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

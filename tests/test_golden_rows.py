"""CLI data rows pinned byte for byte.

`golden_rows.json` holds, per invocation, every line the CLI writes except the
CSV `# generated:` timestamp, with the output path replaced by OUT.  A kernel
change that moves any printed digit of a sweep row, its fit, or a two-time
distribution fails here.  `verify` reports, the dense control, and `zeno` rows
under both environment policies are pinned the same way.

The entries were recorded at 2 BLAS threads on a 2-core machine (numpy's
default there).  The n = 4 sweep rows come from dense 256 x 256 products whose
rounding depends on the BLAS thread count: with OPENBLAS_NUM_THREADS=1 the
eight `sweep-n4-*` entries fail (at eps = 1e-3 `sweep-n4-s0-csv` reads failure
7.56526061296e-06 and infidelity 4.17510470641e-12 against the pinned
7.56526061252e-06 and 4.17532675101e-12), and every other entry passes; the
`verify` control is pinned at one BLAS thread below.  The test session header prints the thread settings and CPU count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zenosim
from zenosim.cli import main
from zenosim.output import data_lines

GOLDEN = Path(__file__).with_name("golden_rows.json")
SWEEP_EPS = "1e-3..1e-1"
TWOTIME_EPS = "1e-3,1e-2,1e-1"
ZENO_ARGS = ["--total-eps", "0.2", "--k", "1,2,4", "--psi", "random-seeded"]


def _invocations() -> dict:
    runs = {}
    for fmt in ("csv", "json"):
        for seed in (0, 7):
            for n in (1, 2, 3, 4):
                runs[f"sweep-n{n}-s{seed}-{fmt}"] = [
                    "sweep", "--n", str(n), "--seed", str(seed), "--eps", SWEEP_EPS, "--format", fmt,
                ]
            for n in (2, 4):
                runs[f"sweep-n{n}-random-s{seed}-{fmt}"] = [
                    "sweep", "--n", str(n), "--seed", str(seed), "--psi", "random-seeded", "--psi-seed", str(seed),
                    "--eps", SWEEP_EPS, "--format", fmt,
                ]
            for n in (1, 2, 3):
                runs[f"twotime-n{n}-s{seed}-{fmt}"] = [
                    "twotime", "--n", str(n), "--seed", str(seed), "--eps", TWOTIME_EPS, "--format", fmt,
                ]
    for seed in (0, 7):
        runs[f"verify-s{seed}-json"] = ["verify", "--seed", str(seed), "--format", "json"]
    for fmt in ("csv", "json"):
        for seed in (0, 7):
            for n in (1, 2, 4):
                for policy in ("reset", "persist"):
                    runs[f"zeno-n{n}-{policy}-s{seed}-{fmt}"] = [
                        "zeno", "--n", str(n), "--seed", str(seed), "--psi-seed", str(seed),
                        "--env-policy", policy, *ZENO_ARGS, "--format", fmt,
                    ]
    return runs


INVOCATIONS = _invocations()


def cli_data_lines(argv, tmp_path) -> list[str]:
    out = tmp_path / f"out.{argv[argv.index('--format') + 1]}"
    assert main([*argv, "--out", str(out)]) == 0
    lines = data_lines(out.read_text(encoding="utf-8").splitlines())
    return [ln.replace(str(out), "OUT") for ln in lines]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_invocation(golden):
    assert set(golden) == set(INVOCATIONS)


@pytest.mark.parametrize("label", list(INVOCATIONS))
def test_cli_data_rows_are_byte_identical(label, golden, tmp_path):
    assert cli_data_lines(INVOCATIONS[label], tmp_path) == golden[label]


def test_verify_rows_do_not_depend_on_the_blas_thread_count(golden, tmp_path):
    out = tmp_path / "out.json"
    src = str(Path(zenosim.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "zenosim.cli", *INVOCATIONS["verify-s0-json"], "--out", str(out)],
                   check=True, env=env, capture_output=True)
    lines = data_lines(out.read_text(encoding="utf-8").splitlines())
    assert [ln.replace(str(out), "OUT") for ln in lines] == golden["verify-s0-json"]

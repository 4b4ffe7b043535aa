"""Correctness checks on each invocation's JSON output.

Every run checks invariants that hold at any seed; at the default seed the
data rows are also compared with reference values recorded when the
benchmark was added, within REFERENCE_TOL absolute, so that a faster kernel
must reproduce the dense one's numbers.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference_seed0.json"
REFERENCE_TOL = 1e-12
TWOTIME_SUM_TOL = 1e-12
SLOPE_WINDOW = (1.95, 2.05)  # acceptance criterion 2a


def _probability_problems(where: str, record: dict, keys) -> list[str]:
    return [
        f"{where}: {key}={record[key]!r} outside [0, 1]"
        for key in keys
        if not (isinstance(record[key], (int, float)) and 0.0 <= record[key] <= 1.0)
    ]


def _sweep(payload: dict) -> list[str]:
    problems = []
    for i, row in enumerate(payload["rows"]):
        problems += _probability_problems(f"row {i}", row, ("failure_probability", "infidelity"))
    fit = payload.get("fit")
    lo, hi = SLOPE_WINDOW
    if payload.get("status") != "ok" or fit is None:
        problems.append(f"sweep status {payload.get('status')!r}: no fit")
    elif not lo <= fit["slope"] <= hi:
        problems.append(f"failure slope {fit['slope']!r} outside [{lo}, {hi}]")
    return problems


def _zeno(payload: dict) -> list[str]:
    problems = []
    rows = payload["rows"]
    for i, row in enumerate(rows):
        problems += _probability_problems(
            f"row {i}", row, ("cumulative_success", "cumulative_failure", "final_conditional_fidelity")
        )
        for j, cycle in enumerate(row["per_cycle"]):
            problems += _probability_problems(
                f"row {i} cycle {j}", cycle, ("success_probability", "conditional_fidelity")
            )
    by_k = sorted(rows, key=lambda r: r["k"])
    for lower, higher in zip(by_k, by_k[1:]):
        if not higher["cumulative_failure"] < lower["cumulative_failure"]:
            problems.append(
                f"cumulative_failure does not fall from k={lower['k']} to k={higher['k']}"
            )
    return problems


def _twotime(payload: dict) -> list[str]:
    problems = []
    for i, row in enumerate(payload["rows"]):
        outcome_keys = [key for key in row if key.startswith("p_")]
        problems += _probability_problems(f"row {i}", row, [*outcome_keys, "other_outcome_mass"])
        total = math.fsum(row[key] for key in outcome_keys)
        if not abs(total - 1.0) <= TWOTIME_SUM_TOL:
            problems.append(f"row {i}: distribution sums to {total!r}")
    return problems


def _verify(payload: dict) -> list[str]:
    failing = [r["identity"] for r in payload["reports"] if r["status"] != "pass"]
    problems = [f"identity {name} does not hold" for name in failing]
    if payload.get("all_pass") is not True:
        problems.append("verify reports all_pass != true")
    return problems


INVARIANTS = {
    "sweep": _sweep,
    "zeno_reset": _zeno,
    "zeno_persist": _zeno,
    "twotime": _twotime,
    "verify": _verify,
}


def data_part(payload: dict) -> dict:
    """The payload without its config, which names the run's own output path."""
    return {key: value for key, value in payload.items() if key != "config"}


def differences(expected, actual, tol: float = REFERENCE_TOL, where: str = "") -> list[str]:
    """Paths at which `actual` departs from `expected`; numbers may differ by `tol`."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return [] if expected is actual else [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        if abs(actual - expected) <= tol:
            return []
        return [f"{where}: {actual!r} differs from {expected!r} by {abs(actual - expected):.3e}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for key in expected for d in differences(expected[key], actual[key], tol, f"{where}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: {len(actual)} entries != {len(expected)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual)) for d in differences(e, a, tol, f"{where}[{i}]")]
    return [] if expected == actual else [f"{where}: {actual!r} != {expected!r}"]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def output_problems(kind: str, payload: dict, reference: dict | None = None) -> list[str]:
    """Everything wrong with one invocation's output; empty when it is correct.

    `reference` is the recorded data part for this invocation, given only at
    the default seed.
    """
    try:
        problems = INVARIANTS[kind](payload)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed {kind} output: {type(exc).__name__}: {exc}"]
    if reference is not None:
        problems += differences(reference, data_part(payload))
    return problems

"""CSV and JSON emission for experiment tables.

CSV files carry the resolved configuration as a leading comment so every
artifact is self-describing; numbers use 12 significant digits so reruns
with the same seed are byte-identical (the generation timestamp lives in
its own comment line and is the only thing allowed to differ).
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone


def format_float(x: float) -> str:
    return f"{float(x):.11e}"


def csv_lines(config: dict, columns: list[str], rows: list[tuple], fit: dict | None = None) -> list[str]:
    lines = [
        "# config: " + json.dumps(config, sort_keys=True),
        "# generated: " + datetime.now(timezone.utc).isoformat(),
    ]
    # the csv module quotes a text cell holding a comma; numeric cells never need it
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([format_float(v) if isinstance(v, float) else str(v) for v in row] for row in rows)
    lines.extend(table.getvalue().removesuffix("\n").split("\n"))
    if fit is not None:
        lines.append("# fit: " + json.dumps(fit, sort_keys=True))
    return lines


def write_csv(path, config, columns, rows, fit=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(csv_lines(config, columns, rows, fit)) + "\n")


def write_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def data_lines(lines: list[str]) -> list[str]:
    """Everything except the timestamp comment: the byte-stable part of a CSV."""
    return [ln for ln in lines if not ln.startswith("# generated:")]

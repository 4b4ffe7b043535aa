"""Command-line interface: identity verification, strength sweeps, repeated
measurement runs, and the two-time comparison protocol.

`SUBCOMMANDS` names the fields each subcommand reads and `FLAGS` each field's
flag; the parser, validation and dispatch all read these two tables.  A field
a subcommand does not read keeps its default, so every run is fully determined
by its resolved configuration (printed into each output file), and identical
invocations reproduce identical data rows.
Exit codes: 0 success, 1 failed verification, 2 invalid configuration,
3 sweep observable at the numerical floor (no fit possible).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation
from .heisenberg import run_verification
from .noise import load_model, random_model
from .output import write_csv, write_json
from .protocol import epsilon_sweep, two_time_columns, two_time_protocol, zeno_run
from .statevec import basis_state, random_state
from .zeno_code import build_code, check_system_count

OUTDIR_ENV_VAR = "ZENOSIM_OUTDIR"
RANGE_POINTS = 8  # strengths in a lo..hi range unless --points says otherwise
COMMON = ("seed", "output_path", "output_format")  # the fields every subcommand reads

# `choices`, where given, are the values the field may take, for validation and the parser alike
Flag = namedtuple("Flag", "option help choices", defaults=(None,))
# each settable field's flag, in the dataclass's field order
FLAGS = {
    "n": Flag("--n", "number of protected qubits"),
    "epsilons": Flag("--eps", "comma list or lo..hi geometric range"),
    "total_epsilon": Flag("--total-eps", "total strength split across cycles"),
    "k_values": Flag("--k", "comma list of cycle counts"),
    "seed": Flag("--seed", "master seed"),
    "model_file": Flag("--model-file", "JSON noise model (sets noise kind)"),
    "env_policy": Flag("--env-policy", "environment between cycles", ("reset", "persist")),
    "psi_kind": Flag("--psi", "system state", ("basis", "random-seeded")),
    "psi_seed": Flag("--psi-seed", "seed of a random system state"),
    "observable": Flag("--observable", "swept and fitted observable", ("failure", "infidelity")),
    "output_format": Flag("--format", "output format", ("csv", "json")),
    "output_path": Flag("--out", "output file path"),
}


@dataclass
class ExperimentConfig:
    subcommand: str
    n: int = 1
    epsilons: list | None = None
    total_epsilon: float | None = None
    k_values: list | None = None
    seed: int = 0
    model_file: str | None = None
    env_policy: str = "reset"
    psi_kind: str = "basis"
    psi_seed: int = 0
    observable: str = "failure"
    output_format: str = "csv"
    output_path: str | None = None

    def validate(self) -> None:
        if self.subcommand not in SUBCOMMANDS:
            raise ConfigError(f"unknown subcommand {self.subcommand!r}")
        reads = COMMON + SUBCOMMANDS[self.subcommand].reads
        defaults = ExperimentConfig(self.subcommand)
        for field, flag in FLAGS.items():
            value, default = getattr(self, field), getattr(defaults, field)
            if field not in reads and value != default:
                readers = [name for name, sub in SUBCOMMANDS.items() if field in sub.reads]
                verb = "reads" if len(readers) == 1 else "read"
                raise ConfigError(f"{field}: only {', '.join(readers)} {verb} it, "
                                  f"so {self.subcommand} keeps the default {default!r}")
            if flag.choices and value not in flag.choices:
                raise ConfigError(f"{field}: must be {' or '.join(map(repr, flag.choices))}, got {value!r}")
        try:
            check_system_count(self.n)
        except ContractViolation as exc:
            raise ConfigError(str(exc)) from None
        if "epsilons" in reads:
            if not self.epsilons:
                raise ConfigError("epsilons: at least one noise strength is required")
            if not all(math.isfinite(e) for e in self.epsilons):
                raise ConfigError("epsilons: all strengths must be finite")
            if any(e <= 0 for e in self.epsilons):
                raise ConfigError("epsilons: all strengths must be positive")
        for field in ("seed", "psi_seed"):
            value = getattr(self, field)
            if not isinstance(value, int) or value < 0:
                raise ConfigError(f"{field}: must be a nonnegative integer, got {value!r}")
        if self.psi_seed != 0 and self.psi_kind != "random-seeded":
            raise ConfigError("psi_seed: only --psi random-seeded reads it")
        for field in ("model_file", "output_path"):
            value = getattr(self, field)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{field}: must be a path, got {value!r}")
        total, ks = self.total_epsilon, self.k_values
        if "total_epsilon" in reads and (total is None or not math.isfinite(total) or total < 0):
            raise ConfigError("total_epsilon: a finite nonnegative total strength is required")
        if "k_values" in reads and (not ks or any(not isinstance(k, int) or k < 1 for k in ks)):
            raise ConfigError("k_values: need positive integer cycle counts")

    @property
    def noise_kind(self) -> str:
        return "fixed-from-file" if self.model_file else "random"

    def as_dict(self) -> dict:
        """The fields and the derived `noise_kind`: what every output records."""
        return {**vars(self), "noise_kind": self.noise_kind}


FIELDS = frozenset(field.name for field in dataclasses.fields(ExperimentConfig))


def parse_epsilons(text: str, points: int) -> list:
    """Either an explicit comma list or 'lo..hi' expanded to a geometric grid.

    The range ends are parsed first, so a grid numpy cannot build names
    `points`, not the strengths.
    """
    text = text.strip()
    if ".." in text and points < 2:
        raise ConfigError("points: a strength range needs at least two points")
    try:
        if ".." not in text:
            return [float(tok) for tok in text.split(",") if tok]
        lo, hi = (float(part) for part in text.split("..", 1))
    except ValueError as exc:
        raise ConfigError(f"epsilons: could not parse {text!r}") from exc
    try:
        with np.errstate(all="ignore"):  # a non-finite end fails validation, without a warning
            return [float(e) for e in np.geomspace(lo, hi, points)]
    except (ValueError, MemoryError):
        raise ConfigError(f"points: cannot build a grid of {points} strengths") from None


def _as_float(value, field: str) -> float:
    if isinstance(value, (str, int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ConfigError(f"{field}: expected a number, got {value!r}")


def _as_int(value, field: str) -> int:
    """An int, an integral float or a decimal string; a fraction is an error, never truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ConfigError(f"{field}: expected an integer, got {value!r}")


def _as_list(raw, convert, field: str) -> list:
    """A JSON list, or a flag's comma list, with every item read by `convert`."""
    if isinstance(raw, str):
        raw = [tok for tok in raw.split(",") if tok]
    if not isinstance(raw, list):
        raise ConfigError(f"{field}: expected a list, got {raw!r}")
    return [convert(v, field) for v in raw]


def _coercions(points: int | None) -> dict:
    """Each typed field's one reader, for a flag's text and a config file's JSON value alike."""
    def epsilons(raw, field):
        if points is not None and not (isinstance(raw, str) and ".." in raw):
            raise ConfigError("points: only a lo..hi strength range reads it")
        if isinstance(raw, str):
            return parse_epsilons(raw, RANGE_POINTS if points is None else points)
        return _as_list(raw, _as_float, field)

    return {"n": _as_int, "seed": _as_int, "psi_seed": _as_int, "total_epsilon": _as_float,
            "k_values": lambda raw, field: _as_list(raw, _as_int, field), "epsilons": epsilons}


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    """Every flag but --config and --points sets the field its dest names; no flag has a default."""
    parser = argparse.ArgumentParser(
        prog="zenosim",
        description="Exact simulator for a two-ancilla measurement-based error-prevention code.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, subcommand in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=subcommand.help)
        p.add_argument("--config", help="JSON file with configuration defaults")
        for field in COMMON + subcommand.reads:
            flag = FLAGS[field]
            p.add_argument(flag.option, dest=field, choices=flag.choices, help=flag.help)
            if field == "epsilons":
                p.add_argument("--points", help=f"points for a lo..hi range (default {RANGE_POINTS})")
    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    """The ExperimentConfig defaults, under the --config file's values, under every flag given.

    A config file holds keys an output records, so a recorded config replays;
    a recorded `noise_kind` must agree with the one `model_file` gives.
    """
    file_values: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
            raise ConfigError(f"config: cannot read {args.config!r}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError(f"config: {args.config!r} must hold a JSON object")
        unknown = sorted(file_values.keys() - FIELDS - {"noise_kind"})
        if unknown:
            raise ConfigError(f"config: unknown field {unknown[0]!r}")
    flags = {key: value for key, value in vars(args).items() if key in FIELDS and value is not None}
    values = {key: value for key, value in file_values.items() if key in FIELDS} | flags
    points = None if getattr(args, "points", None) is None else _as_int(args.points, "points")
    for field, convert in _coercions(points).items():
        if values.get(field) is not None:
            values[field] = convert(values[field], field)
    config = ExperimentConfig(**values)
    recorded = file_values.get("noise_kind", config.noise_kind)
    if recorded != config.noise_kind:
        raise ConfigError(f"noise_kind: model_file {config.model_file!r} makes it {config.noise_kind!r}, got {recorded!r}")
    return config


def _system_state(config: ExperimentConfig):
    if config.psi_kind == "random-seeded":
        return random_state(config.n, config.psi_seed)
    return basis_state(config.n)


# Seeded models up to this n are kept for reuse: with its dense H and eigenbasis
# cached an n = 4 model holds about 2 MB, an n = 6 one about 0.54 GB.
KEPT_MAX_N = 4


@functools.lru_cache(maxsize=4)
def _kept_model(n: int, seed: int):
    """random_model(n, seed), the same object again while (n, seed) is among the last four asked for.

    A model cannot change (frozen, read-only couplings and caches), so a run
    in the same process reads the H, eigenbasis and pair bases an earlier run
    with the same (n, seed) cached, and skips the 4^n x 4^n eigh.
    """
    return random_model(n, seed)


def _noise_model(config: ExperimentConfig):
    if not config.model_file:  # a model file is read afresh, since it may change between runs
        seeded = _kept_model if config.n <= KEPT_MAX_N else random_model
        return seeded(config.n, config.seed)
    try:
        model = load_model(config.model_file)
    except (OSError, IndexError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
        raise ConfigError(f"model_file: cannot load {config.model_file!r}: {exc}") from exc
    if model.n != config.n:
        raise ConfigError(f"model_file: model has n={model.n}, expected {config.n}")
    return model


def _write_output(config: ExperimentConfig, columns, body: dict, records: str = "rows") -> str:
    """Write a result in the configured format; returns the path written.

    JSON holds {"config": ..., **body}.  CSV holds the config comment, the
    header `columns`, one row per record of body[records] read column by
    column, and the body's fit, if any, as a comment.
    """
    default_name = f"{config.subcommand}.{config.output_format}"
    path = config.output_path or os.path.join(os.environ.get(OUTDIR_ENV_VAR, "."), default_name)
    try:
        if config.output_format == "csv":
            rows = [[record[column] for column in columns] for record in body[records]]
            write_csv(path, config.as_dict(), columns, rows, body.get("fit"))
        else:
            write_json(path, {"config": config.as_dict(), **body})
    except OSError as exc:
        raise ConfigError(f"output_path: cannot write {path!r}: {exc.strerror or exc}") from exc
    return path


def _run_verify(config: ExperimentConfig) -> int:
    reports = run_verification()
    for r in reports:
        line = f"[{r.status.upper():4s}] {r.identity}  (max defect {r.max_defect:.3e})"
        if r.note:
            line += f"  -- {r.note}"
        print(line)
    all_pass = all(r.status == "pass" for r in reports)
    if config.output_path or config.output_format == "json":
        _write_output(
            config,
            ["identity", "status", "max_defect", "note"],
            {"reports": [dataclasses.asdict(r) for r in reports], "all_pass": all_pass},
            records="reports",
        )
    print(f"{sum(r.status == 'pass' for r in reports)}/{len(reports)} identities hold")
    return 0 if all_pass else 1


def _run_sweep(config: ExperimentConfig) -> int:
    code = build_code(config.n)
    model = _noise_model(config)
    psi = _system_state(config)
    table = epsilon_sweep(code, model, config.epsilons, psi, config.observable)
    records = [
        {"epsilon": r.x, "failure_probability": r.failure_probability, "infidelity": r.infidelity}
        for r in table.rows
    ]
    fit = None if table.fit is None else {"observable": table.observable, **dataclasses.asdict(table.fit)}
    path = _write_output(
        config, ["epsilon", "failure_probability", "infidelity"],
        {"rows": records, "fit": fit, "status": table.status},
    )
    print(f"wrote {path} ({table.status})")
    if table.status == "floor":
        print("observable sits at the numerical floor; no fit", file=sys.stderr)
        return 3
    print(f"fitted slope {table.fit.slope:.4f}")
    return 0


def _run_zeno(config: ExperimentConfig) -> int:
    code = build_code(config.n)
    model = _noise_model(config)
    psi = _system_state(config)
    records = []
    for k in config.k_values:
        result = zeno_run(code, model, config.total_epsilon, k, config.env_policy, config.seed, psi)
        records.append({
            "k": k,
            "epsilon_per_cycle": result.epsilon_per_cycle,
            "cumulative_success": result.cumulative_success,
            "cumulative_failure": result.cumulative_failure,
            "final_conditional_fidelity": result.final_conditional_fidelity,
            "per_cycle": [
                {
                    "success_probability": c.success_probability,
                    "conditional_fidelity": c.conditional_fidelity,
                    "sampled_syndrome": c.sampled_syndrome,
                }
                for c in result.per_cycle
            ],
        })
    columns = [
        "k", "epsilon_per_cycle", "cumulative_success", "cumulative_failure",
        "final_conditional_fidelity",
    ]
    path = _write_output(config, columns, {"rows": records, "fit": None})
    print(f"wrote {path}")
    return 0


def _run_twotime(config: ExperimentConfig) -> int:
    model = _noise_model(config)
    results = [two_time_protocol(model, eps) for eps in config.epsilons]
    columns = ["epsilon", *two_time_columns(config.n), "other_outcome_mass"]
    records = [
        dict(zip(columns, (eps, *result.probabilities.tolist(), result.other_outcome_mass)))
        for eps, result in zip(config.epsilons, results)
    ]
    path = _write_output(config, columns, {"rows": records, "fit": None})
    print(f"wrote {path}")
    return 0


# a subcommand's handler, its help text and the config fields it reads beyond COMMON
Subcommand = namedtuple("Subcommand", "run help reads", defaults=((),))
SUBCOMMANDS = {
    "verify": Subcommand(_run_verify, "run every algebraic identity check"),
    "sweep": Subcommand(_run_sweep, "single-cycle statistics over a noise-strength grid",
                        ("n", "epsilons", "model_file", "psi_kind", "psi_seed", "observable")),
    "twotime": Subcommand(_run_twotime, "two-time comparison protocol outcome distribution",
                          ("n", "epsilons", "model_file")),
    "zeno": Subcommand(_run_zeno, "repeated-measurement suppression runs",
                       ("n", "total_epsilon", "k_values", "env_policy", "model_file", "psi_kind", "psi_seed")),
}


def run(config: ExperimentConfig) -> int:
    """Validate a configuration and execute it; returns the process exit status."""
    config.validate()
    return SUBCOMMANDS[config.subcommand].run(config)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run(_merge_config(args))
    except (ConfigError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

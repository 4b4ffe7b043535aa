"""Command-line interface: identity verification, strength sweeps, repeated
measurement runs, and the two-time comparison protocol.

Every run is fully determined by its resolved configuration (printed into
each output file), so identical invocations reproduce identical data rows.
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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation
from .heisenberg import run_verification
from .noise import load_model, random_model
from .output import write_csv, write_json
from .protocol import epsilon_sweep, two_time_protocol, zeno_run
from .statevec import basis_state, random_state
from .zeno_code import build_code, check_system_count

OUTDIR_ENV_VAR = "ZENOSIM_OUTDIR"


@dataclass
class ExperimentConfig:
    subcommand: str
    n: int = 1
    epsilons: list | None = None
    total_epsilon: float | None = None
    k_values: list | None = None
    seed: int = 0
    noise_kind: str = "random"
    model_file: str | None = None
    env_policy: str = "reset"
    psi_kind: str = "basis"
    psi_seed: int = 0
    observable: str = "failure"
    output_format: str = "csv"
    output_path: str | None = None

    def validate(self) -> None:
        if self.subcommand not in ("verify", "sweep", "zeno", "twotime"):
            raise ConfigError(f"unknown subcommand {self.subcommand!r}")
        try:
            check_system_count(self.n)
        except ContractViolation as exc:
            raise ConfigError(str(exc)) from None
        if self.noise_kind not in ("random", "fixed-from-file"):
            raise ConfigError(f"noise_kind: must be 'random' or 'fixed-from-file', got {self.noise_kind!r}")
        if self.noise_kind == "fixed-from-file" and not self.model_file:
            raise ConfigError("model_file: required when noise_kind is 'fixed-from-file'")
        if self.env_policy not in ("reset", "persist"):
            raise ConfigError(f"env_policy: must be 'reset' or 'persist', got {self.env_policy!r}")
        if self.psi_kind not in ("basis", "random-seeded"):
            raise ConfigError(f"psi_kind: must be 'basis' or 'random-seeded', got {self.psi_kind!r}")
        if self.subcommand == "twotime" and (self.psi_kind, self.psi_seed) != ("basis", 0):
            raise ConfigError("psi: twotime takes no state, so psi_kind and psi_seed keep their defaults")
        if self.observable not in ("failure", "infidelity"):
            raise ConfigError(f"observable: must be 'failure' or 'infidelity', got {self.observable!r}")
        if self.subcommand in ("sweep", "twotime") and self.env_policy != "reset":
            raise ConfigError(f"env_policy: only zeno reads it, so {self.subcommand} keeps the default 'reset'")
        if self.subcommand in ("zeno", "twotime") and self.observable != "failure":
            raise ConfigError(f"observable: only sweep reads it, so {self.subcommand} keeps the default 'failure'")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output_format: must be 'csv' or 'json', got {self.output_format!r}")
        if self.subcommand in ("sweep", "twotime"):
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
        for field in ("model_file", "output_path"):
            value = getattr(self, field)
            if value is not None and not isinstance(value, str):
                raise ConfigError(f"{field}: must be a path, got {value!r}")
        if self.subcommand == "zeno":
            if self.total_epsilon is None or not math.isfinite(self.total_epsilon) or self.total_epsilon < 0:
                raise ConfigError("total_epsilon: a finite nonnegative total strength is required")
            if not self.k_values or any((not isinstance(k, int)) or k < 1 for k in self.k_values):
                raise ConfigError("k_values: need positive integer cycle counts")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def parse_epsilons(text: str, points: int) -> list:
    """Either an explicit comma list or 'lo..hi' expanded to a geometric grid."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = (float(part) for part in text.split("..", 1))
            if points < 2:
                raise ConfigError("points: a strength range needs at least two points")
            with np.errstate(all="ignore"):  # a non-finite end fails validation, without a warning
                return [float(e) for e in np.geomspace(lo, hi, points)]
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"epsilons: could not parse {text!r}") from exc


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
    if not isinstance(raw, list):
        raise ConfigError(f"{field}: expected a list, got {raw!r}")
    return [convert(v, field) for v in raw]


def _parse_int_list(text: str, field: str) -> list:
    return [_as_int(tok, field) for tok in text.split(",") if tok]


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenosim",
        description="Exact simulator for a two-ancilla measurement-based error-prevention code.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with configuration defaults")
        p.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default=None, help="output format")

    p_verify = sub.add_parser("verify", help="run every algebraic identity check")
    common(p_verify)

    for name, helptext in (
        ("sweep", "single-cycle statistics over a noise-strength grid"),
        ("twotime", "two-time comparison protocol outcome distribution"),
    ):
        p = sub.add_parser(name, help=helptext)
        common(p)
        p.add_argument("--n", type=int, default=None, help="number of protected qubits")
        p.add_argument("--eps", default=None, help="comma list or lo..hi geometric range")
        p.add_argument("--points", type=int, default=8, help="points for a lo..hi range")
        p.add_argument("--model-file", default=None, help="JSON noise model (sets noise kind)")
        if name == "sweep":  # the two-time readout does not depend on the state
            p.add_argument("--psi", choices=("basis", "random-seeded"), default=None)
            p.add_argument("--psi-seed", type=int, default=None)
            p.add_argument("--observable", choices=("failure", "infidelity"), default=None)

    p_zeno = sub.add_parser("zeno", help="repeated-measurement suppression runs")
    common(p_zeno)
    p_zeno.add_argument("--n", type=int, default=None)
    p_zeno.add_argument("--total-eps", type=float, default=None, help="total strength split across cycles")
    p_zeno.add_argument("--k", default=None, help="comma list of cycle counts")
    p_zeno.add_argument("--env-policy", choices=("reset", "persist"), default=None)
    p_zeno.add_argument("--model-file", default=None)
    p_zeno.add_argument("--psi", choices=("basis", "random-seeded"), default=None)
    p_zeno.add_argument("--psi-seed", type=int, default=None)
    return parser


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    file_values: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
            raise ConfigError(f"config: cannot read {args.config!r}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError(f"config: {args.config!r} must hold a JSON object")

    def pick(cli_value, key, default):
        if cli_value is not None:
            return cli_value
        return file_values.get(key, default)

    epsilons = None
    eps_raw = pick(getattr(args, "eps", None), "epsilons", None)
    if eps_raw is not None:
        if isinstance(eps_raw, str):
            epsilons = parse_epsilons(eps_raw, getattr(args, "points", 8))
        else:
            epsilons = _as_list(eps_raw, _as_float, "epsilons")

    k_values = None
    k_raw = pick(getattr(args, "k", None), "k_values", None)
    if k_raw is not None:
        k_values = _parse_int_list(k_raw, "k_values") if isinstance(k_raw, str) else _as_list(k_raw, _as_int, "k_values")

    total_raw = pick(getattr(args, "total_eps", None), "total_epsilon", None)
    model_file = pick(getattr(args, "model_file", None), "model_file", None)
    config = ExperimentConfig(
        subcommand=args.subcommand,
        n=_as_int(pick(getattr(args, "n", None), "n", 1), "n"),
        epsilons=epsilons,
        total_epsilon=None if total_raw is None else _as_float(total_raw, "total_epsilon"),
        k_values=k_values,
        seed=_as_int(pick(args.seed, "seed", 0), "seed"),
        noise_kind="fixed-from-file" if model_file else pick(None, "noise_kind", "random"),
        model_file=model_file,
        env_policy=pick(getattr(args, "env_policy", None), "env_policy", "reset"),
        psi_kind=pick(getattr(args, "psi", None), "psi_kind", "basis"),
        psi_seed=_as_int(pick(getattr(args, "psi_seed", None), "psi_seed", 0), "psi_seed"),
        observable=pick(getattr(args, "observable", None), "observable", "failure"),
        output_format=pick(getattr(args, "format", None), "output_format", "csv"),
        output_path=pick(getattr(args, "out", None), "output_path", None),
    )
    config.validate()
    return config


def _resolve_output_path(config: ExperimentConfig) -> str:
    if config.output_path:
        return config.output_path
    outdir = os.environ.get(OUTDIR_ENV_VAR, ".")
    return os.path.join(outdir, f"{config.subcommand}.{config.output_format}")


def _system_state(config: ExperimentConfig, n: int):
    if config.psi_kind == "random-seeded":
        return random_state(n, config.psi_seed)
    return basis_state(n)


def _noise_model(config: ExperimentConfig, n: int):
    if config.noise_kind == "fixed-from-file":
        try:
            model = load_model(config.model_file)
        except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
            raise ConfigError(f"model_file: cannot load {config.model_file!r}: {exc}") from exc
        if model.n != n:
            raise ConfigError(f"model_file: model has n={model.n}, expected {n}")
        return model
    return random_model(n, config.seed)


def _write_output(config: ExperimentConfig, columns, rows, fit=None, body=None) -> str:
    """Write a result table in the configured format; returns the path written.

    CSV holds the config comment, the header and rows, and the fit comment.
    JSON holds {"config": ..., **body}, with `body` by default the rows as
    objects keyed by column and the fit.
    """
    path = _resolve_output_path(config)
    if config.output_format == "csv":
        write_csv(path, config.as_dict(), columns, rows, fit)
    else:
        if body is None:
            body = {"rows": [dict(zip(columns, row)) for row in rows], "fit": fit}
        write_json(path, {"config": config.as_dict(), **body})
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
            [(r.identity, r.status, r.max_defect, r.note) for r in reports],
            body={"reports": [r.as_dict() for r in reports], "all_pass": all_pass},
        )
    print(f"{sum(r.status == 'pass' for r in reports)}/{len(reports)} identities hold")
    return 0 if all_pass else 1


def _run_sweep(config: ExperimentConfig) -> int:
    code = build_code(config.n)
    model = _noise_model(config, config.n)
    psi = _system_state(config, config.n)
    table = epsilon_sweep(code, model, config.epsilons, psi, config.observable, config.seed)
    columns = ["epsilon", "failure_probability", "infidelity"]
    rows = [(r.x, r.failure_probability, r.infidelity) for r in table.rows]
    fit = None
    if table.fit is not None:
        fit = {
            "observable": table.observable,
            "slope": table.fit.slope,
            "intercept": table.fit.intercept,
            "max_residual": table.fit.max_residual,
        }
    body = {"rows": [dict(zip(columns, row)) for row in rows], "fit": fit, "status": table.status}
    path = _write_output(config, columns, rows, fit, body)
    print(f"wrote {path} ({table.status})")
    if table.status == "floor":
        print("observable sits at the numerical floor; no fit", file=sys.stderr)
        return 3
    print(f"fitted slope {table.fit.slope:.4f}")
    return 0


def _run_zeno(config: ExperimentConfig) -> int:
    code = build_code(config.n)
    model = _noise_model(config, config.n)
    psi = _system_state(config, config.n)
    columns = [
        "k", "epsilon_per_cycle", "cumulative_success", "cumulative_failure",
        "final_conditional_fidelity",
    ]
    rows = []
    detailed = []
    for k in config.k_values:
        result = zeno_run(code, model, config.total_epsilon, k, config.env_policy, config.seed, psi)
        rows.append((
            k, result.epsilon_per_cycle, result.cumulative_success,
            result.cumulative_failure, result.final_conditional_fidelity,
        ))
        detailed.append({
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
    path = _write_output(config, columns, rows, body={"rows": detailed, "fit": None})
    print(f"wrote {path}")
    return 0


def _run_twotime(config: ExperimentConfig) -> int:
    model = _noise_model(config, config.n)
    label_names = None
    rows = []
    for eps in config.epsilons:
        result = two_time_protocol(model, eps, config.seed)
        if label_names is None:
            label_names = [
                "p_" + "_".join(f"{vx}{vy}" for vx, vy in label) for label in result.labels
            ]
        rows.append((eps, *[float(p) for p in result.probabilities], result.other_outcome_mass))
    columns = ["epsilon", *label_names, "other_outcome_mass"]
    path = _write_output(config, columns, rows)
    print(f"wrote {path}")
    return 0


def run(config: ExperimentConfig) -> int:
    """Execute a validated configuration; returns the process exit status."""
    config.validate()
    handlers = {
        "verify": _run_verify,
        "sweep": _run_sweep,
        "zeno": _run_zeno,
        "twotime": _run_twotime,
    }
    return handlers[config.subcommand](config)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        return run(config)
    except (ConfigError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

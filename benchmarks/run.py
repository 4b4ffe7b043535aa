"""Benchmark entry point: run one workload and print its metrics as the last line.

    python3 benchmarks/run.py --workload sweep-n4 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; zenosim is imported from its `src/`.  With
`--trace 0` the last line carries the end-to-end metrics, with `--trace 1`
the per-layer ones; its `correct` field says whether every invocation
exited with 0 and passed its output checks.  A full record, and with
`--trace 1` every span, goes to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import sys

import env

WORKLOAD_NAMES = ("sweep-n4", "zeno-n4", "small-n")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (nonnegative)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time; whole rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        env.configure()
    except env.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import harness
    import tracing

    machine = env.describe()
    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.details.pop("spans", None)
    env.OUT_DIR.mkdir(exist_ok=True)
    with open(env.OUT_DIR / f"BENCH_{label}.json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "machine": machine, "attempted": record.attempted, "failed": record.failed,
            "metrics": {k: {"value": v, "unit": u, "samples": record.samples[k]} for k, (v, u) in record.metrics.items()},
            "details": record.details,
        }, fh, indent=1)
    if spans is not None:
        with open(env.OUT_DIR / f"spans_{label}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": tracing.SPAN_FIELDS, "rounds": spans}, fh)

    print("machine: " + json.dumps(machine, sort_keys=True))
    for name, (value, unit) in record.metrics.items():
        print(f"{name:32s} {value:14.6g} {unit:6s} samples={record.samples[name]}")
    print(json.dumps({
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in record.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

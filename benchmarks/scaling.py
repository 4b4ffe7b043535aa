"""Ungated size-scaling report: protection-cycle cost per layer at n = 1..MAX_SYSTEM_QUBITS.

    python3 benchmarks/scaling.py [--budget-s 30] [--seed 0]

Times `single_cycle` and `zeno_run` (reset and persist, k=8) REPEATS times
per size, traced, and writes the median call with its per-layer times to
`.bench_out/BENCH_scaling.json`.  Before each size the cost of one call is
predicted from the previous size times GROWTH (dense `eigh` on a 4^n x 4^n
matrix costs 64x more per added qubit); a size predicted to exceed the
budget is recorded as skipped, with that reason, and so is every larger
size.  The benchmark's workloads do not run this report.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import env

GROWTH = 64.0
REPEATS = 3
ZENO_CYCLES = 8
TOTAL_EPSILON = 0.05
CYCLE_EPSILON = 1e-2
LAYER_METRICS = (
    "noise.unitary.calls", "noise.unitary.busy_s", "noise.exp.busy_s", "noise.dense_dim_max",
    "zeno_code.encode.busy_s", "statevec.apply.busy_s", "statevec.apply.bytes",
    "statevec.probabilities.busy_s", "statevec.postselect.busy_s",
    "protocol.reset_step.self_s", "protocol.persist_step.self_s",
)


def cases(seed: int):
    """(name, make) pairs; make(n) builds the inputs and returns the call to time."""
    from zenosim import basis_state, build_code, random_model, random_state
    from zenosim.protocol import single_cycle, zeno_run

    def cycle(n):
        code, model, psi = build_code(n), random_model(n, seed), basis_state(n)
        return lambda: single_cycle(code, model, psi, seed, CYCLE_EPSILON)

    def zeno(policy):
        def make(n):
            code, model, psi = build_code(n), random_model(n, seed), random_state(n, seed)
            return lambda: zeno_run(code, model, TOTAL_EPSILON, ZENO_CYCLES, policy, seed, psi)
        return make

    return [("single_cycle", cycle), ("zeno_reset_k8", zeno("reset")), ("zeno_persist_k8", zeno("persist"))]


def measure(make, n: int) -> dict:
    """REPEATS traced calls; the median one's wall time and per-layer times."""
    import tracing

    call = make(n)
    tracer = tracing.Tracer()
    calls = []
    for _ in range(REPEATS):
        with tracer.installed():
            start = perf_counter()
            call()
            seconds = perf_counter() - start
        calls.append((seconds, tracing.layer_metrics(tracer.take())))
    seconds, layers = sorted(calls, key=lambda c: c[0])[REPEATS // 2]
    return {
        "status": "measured", "seconds": seconds, "all_seconds": [c[0] for c in calls],
        "layers": {k: layers[k] for k in LAYER_METRICS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget-s", type=float, default=30.0, help="largest predicted time of one call")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        env.configure()
    except env.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from zenosim.zeno_code import MAX_SYSTEM_QUBITS

    report = {"machine": env.describe(), "budget_s": args.budget_s, "growth": GROWTH, "cases": {}}
    for name, make in cases(args.seed):
        rows = report["cases"][name] = {}
        previous = None
        for n in range(1, MAX_SYSTEM_QUBITS + 1):
            if previous is not None and previous["status"] == "skipped":
                row = {"status": "skipped", "reason": f"n={n - 1} was skipped"}
            elif previous is not None and previous["seconds"] * GROWTH > args.budget_s:
                predicted = previous["seconds"] * GROWTH
                row = {
                    "status": "skipped",
                    "reason": f"predicted {predicted:.3g} s ({GROWTH:g} x n={n - 1}) exceeds the {args.budget_s:g} s budget",
                }
            else:
                row = measure(make, n)
            rows[str(n)] = previous = row
            shown = f"{row['seconds']:.4g} s" if row["status"] == "measured" else "skipped: " + row["reason"]
            print(f"{name:16s} n={n}  {shown}", flush=True)
    env.OUT_DIR.mkdir(exist_ok=True)
    path = env.OUT_DIR / "BENCH_scaling.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

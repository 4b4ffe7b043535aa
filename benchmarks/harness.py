"""Workloads and the closed loop that runs them through `zenosim.cli.main`.

Every workload is a round of the five invocation kinds, repeated back to back
by one client until the run's time is up.  A kind runs at n=2 unless the
workload promotes it to n=4, so each round exercises every measured layer
and each end-to-end timing exists on each workload.  The n=2 kinds run
several times per round where the n=4 ones dominate, so that their medians
rest on enough samples.  Why each workload exists is in WORKLOADS.md.
"""

from __future__ import annotations

import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import zenosim.cli

import checks
import tracing
from env import OUT_DIR, SRC

KINDS = ("sweep", "zeno_reset", "zeno_persist", "twotime", "verify")
EPS_GRID = ("--eps", "1e-3..3e-2")
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60

# workload -> (kinds run once per round at n=4, rounds' repeats of each other kind at n=2)
WORKLOADS = {
    "sweep-n4": (("sweep",), 2),
    "zeno-n4": (("zeno_reset", "zeno_persist"), 4),
    "small-n": ((), 1),
}


@dataclass(frozen=True)
class Invocation:
    kind: str
    argv: tuple[str, ...]
    cycles: int  # protection cycles it completes: sweep points or zeno cycles
    n: int

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _zeno_argv(n: int, total_eps: str, k: str, policy: str) -> tuple[str, ...]:
    return ("zeno", "--n", str(n), "--total-eps", total_eps, "--k", k, "--env-policy", policy)


def invocations(workload: str, seed: int) -> list[Invocation]:
    """One round of `workload`: the n=4 kinds, then the n=2 kinds repeated."""
    s = str(seed)
    tail = ("--seed", s, "--format", "json")
    small = {
        "sweep": Invocation("sweep", ("sweep", "--n", "2", *EPS_GRID, "--points", "8", *tail), 8, 2),
        "zeno_reset": Invocation("zeno_reset", (*_zeno_argv(2, "0.05", "1,2,4,8,16", "reset"), *tail), 31, 2),
        "zeno_persist": Invocation("zeno_persist", (*_zeno_argv(2, "0.05", "1,2,4,8,16", "persist"), *tail), 31, 2),
        "twotime": Invocation("twotime", ("twotime", "--n", "2", *EPS_GRID, "--points", "8", *tail), 0, 2),
        "verify": Invocation("verify", ("verify", *tail), 0, 2),
    }
    psi = ("--psi", "random-seeded", "--psi-seed", s)
    large = {
        "sweep": Invocation("sweep", ("sweep", "--n", "4", *EPS_GRID, "--points", "16", *tail), 16, 4),
        # total strength 0.2 keeps every eigenvalue of rho above the reset policy's
        # 1e-14 cut-off, so the work per invocation does not depend on the seed
        "zeno_reset": Invocation("zeno_reset", (*_zeno_argv(4, "0.2", "1,2,4", "reset"), *psi, *tail), 7, 4),
        "zeno_persist": Invocation("zeno_persist", (*_zeno_argv(4, "0.2", "1,2,4", "persist"), *psi, *tail), 7, 4),
    }
    promoted, repeats = WORKLOADS[workload]
    rest = [small[kind] for kind in KINDS if kind not in promoted]
    return [large[kind] for kind in promoted] + rest * repeats


@dataclass
class Outcome:
    seconds: float
    problems: list[str]


class Client:
    """Runs invocations in this process and checks each one's output."""

    def __init__(self, out_dir: Path, reference: dict | None):
        """`reference` maps invocation keys to recorded data; None skips that comparison."""
        self.out_dir = out_dir
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self, inv: Invocation, tracer: tracing.Tracer | None = None) -> Outcome:
        path = self.out_dir / f"{inv.kind}.json"
        path.unlink(missing_ok=True)  # so an invocation that writes nothing is not checked on an earlier output
        argv = [*inv.argv, "--out", str(path)]
        captured = io.StringIO()
        problems = []
        start = perf_counter()
        try:
            with redirect_stdout(captured), redirect_stderr(captured):
                if tracer is None:
                    code = zenosim.cli.main(argv)
                else:
                    with tracer.span(tracing.INVOKE, kind=inv.kind):
                        code = zenosim.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            code = None
            problems.append(traceback.format_exc())
        seconds = perf_counter() - start
        if code != 0:
            problems.append(f"exit code {code!r}, expected 0; output: {captured.getvalue()[-500:]!r}")
        else:
            problems += self._output_problems(inv, path)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {inv.key}:", *problems, sep="\n  ", file=sys.stderr)
        return Outcome(seconds, problems)

    def _output_problems(self, inv: Invocation, path) -> list[str]:
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"unreadable output {path}: {exc}"]
        reference = None
        if self.reference is not None:
            if inv.key not in self.reference:
                return [f"no reference recorded for {inv.key!r}"]
            reference = self.reference[inv.key]
        return checks.output_problems(inv.kind, payload, reference)


@contextmanager
def scratch_dir():
    """A fresh directory for invocation outputs, inside the checkout; removed afterwards."""
    OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def setup_seconds(n: int, seed: int) -> list[float]:
    """Fresh-interpreter time to import zenosim, build the code and draw a noise model."""
    code = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import zenosim\n"
        f"zenosim.build_code({n})\n"
        f"zenosim.random_model({n}, {seed})\n"
        "print(repr(time.perf_counter() - start))\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code],
            capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


@dataclass
class RunRecord:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    samples: dict = field(default_factory=dict)  # name -> number of samples behind it
    details: dict = field(default_factory=dict)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def run(workload: str, seed: int, seconds: float, trace: bool) -> RunRecord:
    """Measure `workload` for `seconds` (whole rounds); traced runs report layers."""
    round_ = invocations(workload, seed)
    record = RunRecord()
    if not trace:
        largest_n = max(inv.n for inv in round_)
        setup = setup_seconds(largest_n, seed)
        record.metrics["setup_s"] = (statistics.median(setup), "s")
        record.samples["setup_s"] = len(setup)
        record.details["setup_s"] = setup
    reference = checks.load_reference() if seed == checks.DEFAULT_SEED else None
    with scratch_dir() as out_dir:
        client = Client(out_dir, reference)
        # lazy first-call work (imports inside numpy, BLAS buffers) is paid here, untimed
        for inv in invocations("small-n", seed):
            client.run(inv)
        if trace:
            _traced_rounds(client, round_, seconds, record)
        else:
            _timed_rounds(client, round_, seconds, record)
        record.attempted, record.failed = client.attempted, client.failed
    return record


def _timed_rounds(client: Client, round_, seconds: float, record: RunRecord) -> None:
    times = {kind: [] for kind in KINDS}
    rates = []
    deadline = perf_counter() + seconds
    while True:
        cycles, busy = 0, 0.0
        for inv in round_:
            outcome = client.run(inv)
            times[inv.kind].append(outcome.seconds)
            busy += outcome.seconds
            if not outcome.problems:
                cycles += inv.cycles
        rates.append(cycles / busy)
        if perf_counter() >= deadline:
            break
    for kind, values in times.items():
        name = f"{kind}_s.p50"
        record.metrics[name] = (statistics.median(values), "s")
        record.samples[name] = len(values)
    record.metrics["cycles_per_s"] = (statistics.median(rates), "1/s")
    record.samples["cycles_per_s"] = len(rates)
    record.metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    record.samples["peak_rss_mb"] = 1
    record.details["invocation_s"] = times


def _traced_rounds(client: Client, round_, seconds: float, record: RunRecord) -> None:
    """Alternate plain and traced rounds; the ratio of their invocation times is the tracing overhead."""
    tracer = tracing.Tracer()
    plain, traced, batches, spans = [], [], [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not traced:
        if len(plain) > len(traced):
            with tracer.installed():
                traced.append(sum(client.run(inv, tracer).seconds for inv in round_))
            round_spans = tracer.take()
            batches.append(tracing.layer_metrics(round_spans))
            spans.append(round_spans)
        else:
            plain.append(sum(client.run(inv).seconds for inv in round_))
    units = {name: _unit(name) for name in batches[0]}
    for name, value in tracing.median_metrics(batches).items():
        record.metrics[name] = (value, units[name])
        record.samples[name] = len(batches)
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    record.metrics["trace.overhead"] = (overhead, "ratio")
    record.samples["trace.overhead"] = min(len(plain), len(traced))
    record.details["round_s"] = {"plain": plain, "traced": traced}
    record.details["spans"] = spans


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith(("per_cycle", "per_cycle_reset", "share")):
        return "ratio"
    return "count"

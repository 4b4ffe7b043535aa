"""Spans around zenosim's public functions, recorded from outside the package.

While `Tracer.installed()` is active, each function in TRACED is replaced at
every name under which a zenosim module holds it: the defining module and each
module that imported it by name.  `protocol` binds `noise_unitary`, `encode`,
`apply` and others at import time, so wrapping `zenosim.noise.noise_unitary`
alone would miss its calls.  Spans stay in memory as
[name, parent index, start, end, attrs] and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# (span name, defining module, function); the span name's prefix is the layer
TRACED = (
    ("noise.unitary", "zenosim.noise", "noise_unitary"),
    ("noise.hamiltonian", "zenosim.noise", "build_hamiltonian"),
    ("noise.exp", "zenosim.statevec", "hermitian_exp"),
    ("noise.model", "zenosim.noise", "random_model"),
    ("zeno_code.build", "zenosim.zeno_code", "build_code"),
    ("zeno_code.prepare", "zenosim.zeno_code", "prepare"),
    ("zeno_code.encode", "zenosim.zeno_code", "encode"),
    ("zeno_code.decode", "zenosim.zeno_code", "decode"),
    ("statevec.apply", "zenosim.statevec", "apply"),
    ("statevec.product", "zenosim.statevec", "product_state"),
    ("statevec.random_state", "zenosim.statevec", "random_state"),
    ("statevec.probabilities", "zenosim.statevec", "projection_probabilities"),
    ("statevec.postselect", "zenosim.statevec", "postselect"),
    ("statevec.branch", "zenosim.statevec", "branch_vector"),
    ("statevec.overlap", "zenosim.statevec", "overlap_probability"),
    ("protocol.sweep", "zenosim.protocol", "epsilon_sweep"),
    ("protocol.single_cycle", "zenosim.protocol", "single_cycle"),
    ("protocol.zeno_run", "zenosim.protocol", "zeno_run"),
    ("protocol.twotime", "zenosim.protocol", "two_time_protocol"),
    ("heisenberg.verify", "zenosim.heisenberg", "run_verification"),
    ("output.write", "zenosim.output", "write_csv"),
    ("output.write", "zenosim.output", "write_json"),
)

# verify is the dense reference: its inner calls are its own work, not the layers'
OPAQUE = frozenset({"heisenberg.verify"})

# counters taken at the boundary where the work happens: f(args, kwargs, result) -> attrs
ATTRS = {
    # the state is read once and a state of the same size written once
    "statevec.apply": lambda args, kwargs, result: {"bytes": 2 * result.amplitudes.nbytes},
    "noise.exp": lambda args, kwargs, result: {"dim": result.dim},
    "protocol.zeno_run": lambda args, kwargs, result: {
        "cycles": result.cycles, "policy": result.env_policy,
    },
    "output.write": lambda args, kwargs, result: {
        "bytes": os.path.getsize(args[0] if args else kwargs["path"]),
    },
}

INVOKE = "cli.invoke"
NAME, PARENT, START, END, SPAN_ATTRS = range(5)
SPAN_FIELDS = ("name", "parent", "start", "end", "attrs")


class Tracer:
    """Collects nested spans; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._opaque_depth = 0

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        """A span recorded by the benchmark itself, such as one CLI invocation."""
        span = self._open(name)
        span[SPAN_ATTRS] = attrs
        span[START] = perf_counter()
        try:
            yield span
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        opaque = name in OPAQUE

        @wraps(fn)
        def traced(*args, **kwargs):
            if self._opaque_depth:
                return fn(*args, **kwargs)
            span = self._open(name)
            self._opaque_depth += opaque
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
                self._opaque_depth -= opaque
            if attrs_of is not None:
                span[SPAN_ATTRS] = attrs_of(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every TRACED function wherever zenosim holds it; restore on exit."""
        modules = [m for key, m in list(sys.modules.items()) if key == "zenosim" or key.startswith("zenosim.")]
        replaced = []
        try:
            for name, module_name, attr in TRACED:
                fn = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(name, fn)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapper)
                            replaced.append((module, key, fn))
            yield self
        finally:
            for module, key, fn in reversed(replaced):
                setattr(module, key, fn)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def _duration(span) -> float:
    return span[END] - span[START]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer busy time, self time and counts over one batch of spans.

    A span's self time is its duration minus the time its child spans cover;
    busy time is the summed duration of a function's spans, children included.
    """
    child_time = [0.0] * len(spans)
    root = list(range(len(spans)))        # enclosing invocation span
    cycle_owner = [None] * len(spans)     # enclosing single_cycle or zeno_run span
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent is not None:
            child_time[parent] += _duration(span)
            root[i] = root[parent]
            cycle_owner[i] = cycle_owner[parent]
        if span[NAME] in ("protocol.single_cycle", "protocol.zeno_run"):
            cycle_owner[i] = i

    def select(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def busy(name):
        return sum(_duration(spans[i]) for i in select(name))

    def self_time(indices):
        return sum(_duration(spans[i]) - child_time[i] for i in indices)

    def cycles_of(i):
        return 1 if spans[i][NAME] == "protocol.single_cycle" else spans[i][SPAN_ATTRS].get("cycles", 0)

    def policy(policy_name):
        return [i for i in select("protocol.zeno_run") if spans[i][SPAN_ATTRS].get("policy") == policy_name]

    owners = select("protocol.single_cycle") + select("protocol.zeno_run")
    cycles = sum(cycles_of(i) for i in owners)
    reset_runs = set(policy("reset"))
    unitary = select("noise.unitary")
    in_cycle = [i for i in unitary if cycle_owner[i] is not None]
    in_reset = [i for i in unitary if cycle_owner[i] in reset_runs]
    reset_cycles = sum(cycles_of(i) for i in reset_runs)
    sweeps = {i for i in select(INVOKE) if spans[i][SPAN_ATTRS].get("kind") == "sweep"}
    sweep_time = sum(_duration(spans[i]) for i in sweeps)
    sweep_noise = sum(_duration(spans[i]) for i in unitary if root[i] in sweeps)
    applies = select("statevec.apply")
    return {
        "noise.unitary.calls": len(unitary),
        "noise.unitary.busy_s": busy("noise.unitary"),
        "noise.hamiltonian.busy_s": busy("noise.hamiltonian"),
        "noise.exp.busy_s": busy("noise.exp"),
        "noise.unitary.per_cycle": len(in_cycle) / cycles if cycles else 0.0,
        "noise.unitary.per_cycle_reset": len(in_reset) / reset_cycles if reset_cycles else 0.0,
        "noise.dense_dim_max": max((s[SPAN_ATTRS].get("dim", 0) for s in spans if s[NAME] == "noise.exp"), default=0),
        "noise.sweep_share": sweep_noise / sweep_time if sweep_time else 0.0,
        "zeno_code.build.busy_s": busy("zeno_code.build"),
        "zeno_code.encode.calls": len(select("zeno_code.encode")),
        "zeno_code.encode.busy_s": busy("zeno_code.encode"),
        "statevec.apply.calls": len(applies),
        "statevec.apply.busy_s": busy("statevec.apply"),
        "statevec.apply.bytes": sum(spans[i][SPAN_ATTRS].get("bytes", 0) for i in applies),
        "statevec.probabilities.busy_s": busy("statevec.probabilities"),
        "statevec.postselect.busy_s": busy("statevec.postselect"),
        "statevec.overlap.busy_s": busy("statevec.overlap"),
        "protocol.cycles": cycles,
        "protocol.reset_step.self_s": self_time(reset_runs),
        "protocol.persist_step.self_s": self_time(policy("persist")),
        "protocol.twotime.busy_s": busy("protocol.twotime"),
        "heisenberg.verify.busy_s": busy("heisenberg.verify"),
        "output.write.busy_s": busy("output.write"),
        "output.bytes": sum(s[SPAN_ATTRS].get("bytes", 0) for s in spans if s[NAME] == "output.write"),
        "cli.self_s": self_time(select(INVOKE)),
    }


def median_metrics(batches: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over batches (rounds) of spans; counts stay whole numbers."""
    medians = {}
    for key in batches[0]:
        values = [b[key] for b in batches]
        exact = all(isinstance(v, int) for v in values)
        medians[key] = statistics.median_low(values) if exact else statistics.median(values)
    return medians

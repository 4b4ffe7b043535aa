"""Dense reference for `zeno_run`: the full ancilla|system|environment register.

Each cycle applies the 2^(n+2) encoder, the 4^n noise exponential and the
encoder again to the whole register, then reads the ancilla.  The reset
policy reruns every eigenvector of the system's density matrix as a pure
state with a fresh environment; persist carries one pure state.  The noise
exponential is built once per run, since the strength per cycle is fixed.
The production kernel in `zenosim.protocol` must agree with this to 1e-12.
"""

from __future__ import annotations

import numpy as np

from zenosim.noise import noise_unitary
from zenosim.protocol import CycleResult, RunResult
from zenosim.statevec import (
    apply,
    basis_state,
    branch_vector,
    overlap_probability,
    postselect,
    product_state,
    projection_probabilities,
    sample_outcome,
)
from zenosim.zeno_code import decode, encode, prepare


def _cycle_state(code, state, unitary):
    return decode(code, apply(unitary, encode(code, state)))


def _cycle_result(probs, fidelity, rng) -> CycleResult:
    p0 = float(probs[0])
    return CycleResult(p0, float(fidelity), float(1.0 - p0), tuple(float(p) for p in probs), sample_outcome(rng, probs))


def _reset_run(code, unitary, cycles, psi, rng):
    n = code.n
    dim = 2**n
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    results = []
    for _ in range(cycles):
        weights, vectors = np.linalg.eigh(rho)
        probs = np.zeros(4)
        rho_next = np.zeros((dim, dim), dtype=complex)
        for w, v in zip(weights, vectors.T):
            if w < 1e-14:
                continue
            pure = product_state(code.in_state, v, basis_state(n).amplitudes)
            out = _cycle_state(code, pure, unitary)
            probs += w * projection_probabilities(out, (0, 1), code.syndrome_basis)
            rest = branch_vector(out, (0, 1), code.in_state).amplitudes
            block = rest.reshape(dim, dim)  # environment index above system index
            rho_next += w * (block.T @ block.conj())
        rho = rho_next / float(probs[0])
        fidelity = (psi.amplitudes.conj() @ rho @ psi.amplitudes).real
        results.append(_cycle_result(probs, fidelity, rng))
    return results


def _persist_run(code, unitary, cycles, psi, rng):
    reference = prepare(code, psi)
    state = product_state(reference, basis_state(code.n))
    results = []
    for _ in range(cycles):
        state = _cycle_state(code, state, unitary)
        probs = projection_probabilities(state, (0, 1), code.syndrome_basis)
        _, state = postselect(state, (0, 1), code.in_state)
        results.append(_cycle_result(probs, overlap_probability(state, reference), rng))
    return results


def dense_zeno_run(code, model, total_epsilon, cycles, env_policy="reset", rng_seed=0, psi=None):
    """`zeno_run` computed on the full register."""
    if psi is None:
        psi = basis_state(code.n)
    eps_c = total_epsilon / cycles
    unitary = noise_unitary(model, eps_c)
    rng = np.random.default_rng(rng_seed)
    runner = _reset_run if env_policy == "reset" else _persist_run
    per_cycle = runner(code, unitary, cycles, psi, rng)
    cumulative = float(np.prod([c.success_probability for c in per_cycle]))
    return RunResult(
        cycles=cycles,
        epsilon_per_cycle=eps_c,
        env_policy=env_policy,
        per_cycle=tuple(per_cycle),
        cumulative_success=cumulative,
        cumulative_failure=float(1.0 - cumulative),
        final_conditional_fidelity=per_cycle[-1].conditional_fidelity,
    )

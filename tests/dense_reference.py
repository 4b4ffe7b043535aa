"""Dense references: the noise Hamiltonian built from full-register krons,
`zeno_run` and the two-time protocol on their full registers, and dense
evolution of the noise.

`dense_build_hamiltonian` is the kron builder `noise.build_hamiltonian`
replaced; the production builder must reproduce it bit for bit.

In `dense_zeno_run` each cycle applies the dense 2^(n+2) encoder
(`heisenberg.encoder_matrix`, not production's branch words), the 4^n
noise exponential and the encoder again to the whole register, then reads
the ancilla.  The reset
policy reruns every eigenvector of the system's density matrix as a pure
state with a fresh environment; persist carries one pure state.  The noise
exponential is built once per run, since the strength per cycle is fixed.
The production kernel in `zenosim.protocol` must agree with this to 1e-12.

`dense_two_time_probabilities` runs the two-time protocol on the whole
4n-qubit register of test, system and environment qubits, holding a system
state psi, applying each controlled flip and the 4^n noise one by one;
`two_time_protocol` takes no state and must agree with it to 1e-12 for
every psi.

`evolve_exact`, `evolve_first_order` and `reduced_density_matrix` are the
dense evolution and partial trace the noise tests and acceptance criterion 4
check the noise model with.
"""

from __future__ import annotations

import numpy as np

from zenosim.errors import ContractViolation
from zenosim.heisenberg import controlled_flip, encoder_matrix
from zenosim.noise import noise_unitary
from zenosim.pauli import PAULI_MATRICES
from zenosim.protocol import CycleResult, RunResult
from zenosim.statevec import (
    DenseOperator,
    StateVector,
    _split_targets,
    apply,
    basis_state,
    branch_vector,
    kron_all,
    operator_on_register,
    overlap_probability,
    postselect,
    product_state,
    projection_probabilities,
    sample_outcome,
)
from zenosim.zeno_code import prepare


def dense_build_hamiltonian(model) -> DenseOperator:
    """Sum over (i, b) of the 4^n matrix of letter b on system i times its coupling on environment i."""
    n = model.n
    dim = 2 ** (2 * n)
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        for b in range(4):
            a = model.couplings[i, b]
            if not a.any():
                continue
            term = np.kron(a, PAULI_MATRICES[b])  # env above system
            h += operator_on_register(term, (i, n + i), 2 * n)
    return DenseOperator(h, tuple(range(2, 2 * n + 2)), hermitian=True)


def _cycle_state(encoder, state, unitary):
    return apply(encoder, apply(unitary, apply(encoder, state)))


def _cycle_result(probs, fidelity, rng) -> CycleResult:
    p0 = float(probs[0])
    return CycleResult(p0, float(fidelity), float(1.0 - p0), tuple(float(p) for p in probs), sample_outcome(rng, probs))


def _reset_run(code, encoder, unitary, cycles, psi, rng):
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
            out = _cycle_state(encoder, pure, unitary)
            probs += w * projection_probabilities(out, (0, 1), code.syndrome_basis)
            rest = branch_vector(out, (0, 1), code.in_state).amplitudes
            block = rest.reshape(dim, dim)  # environment index above system index
            rho_next += w * (block.T @ block.conj())
        rho = rho_next / float(probs[0])
        fidelity = (psi.amplitudes.conj() @ rho @ psi.amplitudes).real
        results.append(_cycle_result(probs, fidelity, rng))
    return results


def _persist_run(code, encoder, unitary, cycles, psi, rng):
    reference = prepare(code, psi)
    state = product_state(reference, basis_state(code.n))
    results = []
    for _ in range(cycles):
        state = _cycle_state(encoder, state, unitary)
        probs = projection_probabilities(state, (0, 1), code.syndrome_basis)
        _, state = postselect(state, (0, 1), code.in_state)
        results.append(_cycle_result(probs, overlap_probability(state, reference), rng))
    return results


def dense_zeno_run(code, model, total_epsilon, cycles, env_policy="reset", rng_seed=0, psi=None):
    """`zeno_run` computed on the full register."""
    if psi is None:
        psi = basis_state(code.n)
    eps_c = total_epsilon / cycles
    encoder = DenseOperator(encoder_matrix(code.n), tuple(range(code.n + 2)))
    unitary = noise_unitary(model, eps_c)
    rng = np.random.default_rng(rng_seed)
    runner = _reset_run if env_policy == "reset" else _persist_run
    per_cycle = runner(code, encoder, unitary, cycles, psi, rng)
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


def dense_two_time_probabilities(model, epsilon, psi) -> np.ndarray:
    """`two_time_protocol`'s outcome probabilities on the whole register, gates applied one by one.

    Qubits: the x test of system p at 2p and its y test at 2p + 1, then the
    n systems, then their environments.
    """
    n = model.n
    tests = 2 * n
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    state = product_state(*([plus] * tests), psi, basis_state(n).amplitudes)

    def flip(letter, p):
        return controlled_flip(letter).retargeted((2 * p + (letter == "y"), tests + p))

    # ascending time: outer pair (highest index) couples first and last
    pre = [flip("x", p) for p in reversed(range(n))] + [flip("y", p) for p in reversed(range(n))]
    post = [flip("y", p) for p in range(n)] + [flip("x", p) for p in range(n)]
    noise = noise_unitary(model, epsilon).retargeted(range(tests, tests + 2 * n))
    for gate in [*pre, noise, *post]:
        state = apply(gate, state)
    single = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    return projection_probabilities(state, range(tests), kron_all([single] * tests))


def _sys_env_offset(state, n: int) -> int:
    if state.num_qubits == 2 * n + 2:
        return 2
    if state.num_qubits == 2 * n:
        return 0
    raise ContractViolation(f"state has {state.num_qubits} qubits; expected {2 * n} or {2 * n + 2}")


def evolve_exact(state, model, epsilon=None) -> StateVector:
    """Unitary evolution of the system+environment block; the ancilla is untouched."""
    offset = _sys_env_offset(state, model.n)
    u = noise_unitary(model, epsilon)
    return apply(u.retargeted(tuple(q + offset - 2 for q in u.target_qubits)), state)


def evolve_first_order(state, model, renormalize=False, epsilon=None) -> StateVector:
    """Truncated evolution (1 + i eps H); unnormalized unless `renormalize`.

    The output norm differs from 1 at second order in eps.
    """
    eps = model.epsilon if epsilon is None else epsilon
    offset = _sys_env_offset(state, model.n)
    h = model.hamiltonian
    h = h.retargeted(tuple(q + offset - 2 for q in h.target_qubits))
    out = StateVector(state.amplitudes + 1j * eps * apply(h, state).amplitudes)
    return out.normalized() if renormalize else out


def reduced_density_matrix(state, keep) -> np.ndarray:
    """Density matrix of the `keep` qubits, indexed little-endian over `keep`."""
    block = _split_targets(state, keep)
    return block.T @ block.conj()

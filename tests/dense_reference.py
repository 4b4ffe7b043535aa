"""Dense references: register operators and the noise Hamiltonian built from
full-register krons,
`zeno_run` and the two-time protocol on their full registers, and dense
evolution of the noise.

`kron_operator_on_register` is the np.kron-and-gather body that
`statevec.operator_on_register` replaced with a once-built layout; the
production helper must reproduce it bit for bit, signed zeros included.

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

`register_single_cycle` is `protocol.single_cycle`'s register-state-vector
body fed the whole U's first c columns; any kernel that replaces it must
reproduce it bit for bit.

`dense_two_time_probabilities` runs the two-time protocol on the whole
4n-qubit register of test, system and environment qubits, holding a system
state psi, applying each controlled flip and the 4^n noise one by one;
`two_time_protocol` takes no state and must agree with it to 1e-12 for
every psi.

`pair_unitaries` forms the per-pair factors V_i = exp(+i eps H_i) of the
noise from the model's pair eigenbases, one unitary per (system, environment)
pair.  `product_input_first_cycle` is one cycle from psi = |0...0> with a fresh
environment, computed from them in O(16 n) with no state vector: a reference
for the fast kernels past the dense reach.

`evolve_exact`, `evolve_first_order` and `reduced_density_matrix` are the
dense evolution and partial trace the noise tests and acceptance criterion 4
check the noise model with.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from zenosim.errors import ContractViolation
from zenosim.heisenberg import controlled_flip, encoder_matrix
from zenosim.noise import _strength
from zenosim.pauli import PAULI_MATRICES, SYNDROME_BASIS, conjugation_sign
from zenosim.protocol import CycleResult, RunResult
from zenosim.statevec import (
    DenseOperator,
    StateVector,
    _split_targets,
    apply,
    basis_state,
    branch_vector,
    hermitian_exp,
    kron_all,
    operator_on_register,
    overlap_probability,
    postselect,
    product_state,
    projection_probabilities,
    sample_outcomes,
    unit_phases,
)
from zenosim.zeno_code import decode, encode, prepare


def kron_operator_on_register(matrix, targets, num_qubits: int) -> np.ndarray:
    """np.kron(1, matrix) with the rest qubits above the targets, rows and columns gathered into register order."""
    targets = tuple(targets)
    k = len(targets)
    mat = np.asarray(matrix, dtype=complex)
    rest = [q for q in range(num_qubits) if q not in targets]
    big = np.kron(np.eye(2 ** len(rest), dtype=complex), mat)
    # big index = (rest bits high | target bits low); map global index into it
    idx = np.arange(2**num_qubits)
    j = np.zeros_like(idx)
    for t, q in enumerate(targets):
        j |= ((idx >> q) & 1) << t
    for u, q in enumerate(rest):
        j |= ((idx >> q) & 1) << (k + u)
    return big[np.ix_(j, j)]


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
    sampled = int(sample_outcomes(rng, probs[None])[0])
    return CycleResult(p0, float(fidelity), float(1.0 - p0), tuple(float(p) for p in probs), sampled)


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
            pure = product_state(SYNDROME_BASIS[:, 0], v, basis_state(n).amplitudes)
            out = _cycle_state(encoder, pure, unitary)
            probs += w * projection_probabilities(out, (0, 1), SYNDROME_BASIS)
            rest = branch_vector(out, (0, 1), SYNDROME_BASIS[:, 0]).amplitudes
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
        probs = projection_probabilities(state, (0, 1), SYNDROME_BASIS)
        _, state = postselect(state, (0, 1), SYNDROME_BASIS[:, 0])
        results.append(_cycle_result(probs, overlap_probability(state, reference), rng))
    return results


def dense_zeno_run(code, model, total_epsilon, cycles, env_policy="reset", rng_seed=0, psi=None):
    """`zeno_run` computed on the full register."""
    if psi is None:
        psi = basis_state(code.n)
    eps_c = total_epsilon / cycles
    encoder = DenseOperator(encoder_matrix(code.n), tuple(range(code.n + 2)))
    unitary = hermitian_exp(model.hamiltonian, eps_c)
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


def register_single_cycle(code, psi, columns, rng_seed) -> CycleResult:
    """`single_cycle` through whole-register state vectors, fed the first c columns of the whole U.

    Encode the prepared state, evolve its [system, ancilla] rows as one
    (4^n, c) by (c, 4) product with `columns`, decode the register, then
    `projection_probabilities`, `postselect` and `overlap_probability`.
    """
    reference = prepare(code, psi)
    rows = np.zeros((columns.shape[1], 4), dtype=complex)
    rows[: 2**code.n] = encode(code, reference).amplitudes.reshape(-1, 4)
    state = decode(code, StateVector(columns @ rows))
    probs = projection_probabilities(state, (0, 1), SYNDROME_BASIS)
    _, post = postselect(state, (0, 1), SYNDROME_BASIS[:, 0])
    return _cycle_result(probs, overlap_probability(post, reference), np.random.default_rng(rng_seed))


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
        return replace(controlled_flip(letter), target_qubits=(2 * p + (letter == "y"), tests + p))

    # ascending time: outer pair (highest index) couples first and last
    pre = [flip("x", p) for p in reversed(range(n))] + [flip("y", p) for p in reversed(range(n))]
    post = [flip("y", p) for p in range(n)] + [flip("x", p) for p in range(n)]
    noise = replace(hermitian_exp(model.hamiltonian, epsilon), target_qubits=tuple(range(tests, tests + 2 * n)))
    for gate in [*pre, noise, *post]:
        state = apply(gate, state)
    single = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    return projection_probabilities(state, range(tests), kron_all([single] * tests))


def pair_unitaries(model, epsilon) -> np.ndarray:
    """The factors V_i = exp(+i eps H_i) of the noise, one per (system i, environment i) pair.

    H is a sum of commuting terms on disjoint pairs, so exp(i eps H) is the
    tensor product of the returned 4x4 blocks.  Shape (n, 4, 4); the local
    index is sys + 2 * env, as in `noise.pair_deviations`.
    """
    eps = _strength(epsilon)
    w, v = model.pair_eigh
    return (v * unit_phases(eps, w)[:, None, :]) @ v.conj().swapaxes(-1, -2)


def product_input_first_cycle(model, epsilon) -> tuple[np.ndarray, float]:
    """Syndrome probabilities and postselected infidelity of one cycle from |0...0>, fresh environment.

    Branch b is sum_a S[b, a] (x)_i w[a, i], with S[b, a] = chi_b(a) / 4 and
    w[a, i] = sigma_a V_i sigma_a |0, 0> a 4-vector of pair i (local index
    sys + 2 * env, sigma_a on the system bit): a sum of four product states.
    So ||B_b||^2 = sum_{a, a'} S[b, a] S[b, a'] prod_i <w[a', i]|w[a, i]>,
    and the fidelity is the same sum over each pair's system-|0> entries,
    divided by ||B_0||^2.
    """
    signs = np.array([[conjugation_sign(a, b) for a in range(4)] for b in range(4)]) / 4
    flips = np.stack([np.kron(np.eye(2), PAULI_MATRICES[a]) for a in range(4)])[:, None]
    w = (flips @ pair_unitaries(model, epsilon)[None] @ flips)[..., 0]  # [a, i, local index]

    def weights(entries):
        gram = np.prod(np.einsum("cik,aik->cai", w[..., entries].conj(), w[..., entries]), axis=-1)
        return np.einsum("bc,ca,ba->b", signs, gram, signs).real

    probs = weights([0, 1, 2, 3])
    return probs, 1.0 - weights([0, 2])[0] / probs[0]


def _sys_env_offset(state, n: int) -> int:
    if state.num_qubits == 2 * n + 2:
        return 2
    if state.num_qubits == 2 * n:
        return 0
    raise ContractViolation(f"state has {state.num_qubits} qubits; expected {2 * n} or {2 * n + 2}")


def evolve_exact(state, model, epsilon) -> StateVector:
    """Unitary evolution of the system+environment block; the ancilla is untouched."""
    offset = _sys_env_offset(state, model.n)
    u = hermitian_exp(model.hamiltonian, epsilon)
    return apply(replace(u, target_qubits=tuple(q + offset - 2 for q in u.target_qubits)), state)


def evolve_first_order(state, model, epsilon, renormalize=False) -> StateVector:
    """Truncated evolution (1 + i eps H); unnormalized unless `renormalize`.

    The output norm differs from 1 at second order in eps.
    """
    offset = _sys_env_offset(state, model.n)
    h = model.hamiltonian
    h = replace(h, target_qubits=tuple(q + offset - 2 for q in h.target_qubits))
    out = state.amplitudes + 1j * epsilon * apply(h, state).amplitudes
    return StateVector(out / np.linalg.norm(out) if renormalize else out)


def reduced_density_matrix(state, keep) -> np.ndarray:
    """Density matrix of the `keep` qubits, indexed little-endian over `keep`."""
    block = _split_targets(state, keep)
    return block.T @ block.conj()

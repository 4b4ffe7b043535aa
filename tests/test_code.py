import dataclasses
import tracemalloc

import numpy as np
import pytest

import zenosim.zeno_code
from zenosim.errors import ContractViolation
from zenosim.heisenberg import branch_operator, encoder_matrix
from zenosim.pauli import PAULI_MATRICES, SYNDROME_BASIS, PauliString, conjugate_by_encoder, syndrome_state
from zenosim.statevec import (
    DenseOperator,
    apply,
    basis_state,
    operator_on_register,
    product_state,
    projection_probabilities,
    random_state,
    sample_outcomes,
)
from zenosim.zeno_code import build_code, decode, encode, prepare


def measure_syndrome(code, state, rng_seed):
    """The ancilla read in the syndrome basis: a sampled letter and every letter's probability."""
    probs = projection_probabilities(state, (0, 1), SYNDROME_BASIS)
    return sample_outcomes(np.random.default_rng(rng_seed), probs[None])[0], probs


def _bits(state):
    return state.amplitudes.view(np.uint64)


def assemble_encoder_independently(n):
    """Branch-by-branch construction through the generic embedding helper."""
    dim = 2 ** (n + 2)
    out = np.zeros((dim, dim), dtype=complex)
    for a in range(4):
        proj = np.zeros((4, 4))
        proj[a, a] = 1.0
        branch = operator_on_register(proj, (0, 1), n + 2)
        for j in range(n):
            branch = branch @ operator_on_register(PAULI_MATRICES[a], (2 + j,), n + 2)
        out += branch
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_encoder_matches_independent_assembly(n):
    assert np.abs(encoder_matrix(n) - assemble_encoder_independently(n)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_encoder_is_hermitian_unitary_involution(n):
    c = encoder_matrix(n)
    dim = c.shape[0]
    assert np.abs(c - c.conj().T).max() < 1e-12
    assert np.abs(c.conj().T @ c - np.eye(dim)).max() < 1e-12
    assert np.abs(c @ c - np.eye(dim)).max() < 1e-12


def test_encoder_entries_for_two_qubits():
    # <a, s'|C|a, s> reduces to the doubled single-letter matrix element
    cmat = encoder_matrix(2)
    rng = np.random.default_rng(6)
    for a in range(4):
        doubled = np.kron(PAULI_MATRICES[a], PAULI_MATRICES[a])
        for _ in range(5):
            s, sp = rng.integers(0, 4, size=2)
            entry = cmat[a + 4 * sp, a + 4 * s]
            assert entry == pytest.approx(doubled[sp, s])


def test_build_code_range_guard():
    for bad in (0, 7, -1, 2.5):
        with pytest.raises(ContractViolation):
            build_code(bad)


def test_prepare_zero_state_amplitudes():
    code = build_code(2)
    state = prepare(code, basis_state(2))
    expected = np.zeros(16, dtype=complex)
    expected[:4] = 0.5
    assert np.allclose(state.amplitudes, expected)
    assert abs(state.norm() - 1.0) < 1e-12


def test_prepare_rejects_bad_system_state():
    code = build_code(2)
    with pytest.raises(ContractViolation):
        prepare(code, basis_state(1))
    with pytest.raises(ContractViolation):
        prepare(code, type(basis_state(2))(2 * basis_state(2).amplitudes))


@pytest.mark.parametrize("n", [1, 2])
def test_encoded_state_expansion(n):
    # encoding spreads the state over the four branches with weight 1/2 each
    code = build_code(n)
    psi = random_state(n, seed=n + 40)
    enc = encode(code, prepare(code, psi))
    expected = np.zeros(2 ** (n + 2), dtype=complex)
    for a in range(4):
        expected[a::4] = 0.5 * branch_operator(a, n) @ psi.amplitudes
    assert np.abs(enc.amplitudes - expected).max() < 1e-12
    weights = [np.sum(np.abs(enc.amplitudes[a::4]) ** 2) for a in range(4)]
    assert np.allclose(weights, 0.25)


@pytest.mark.parametrize("n", range(1, 7))
def test_decode_inverts_encode(n):
    # bit for bit: each word is an involution with phases * phases[sources] = 1 exactly
    code = build_code(n)
    for seed in range(3):
        for m in (n + 2, 2 * n + 2):
            state = random_state(m, seed)
            roundtrip = decode(code, encode(code, state))
            assert np.array_equal(_bits(roundtrip), _bits(state))


def test_encode_passes_environment_through():
    code = build_code(2)
    env = random_state(2, 55)
    state = product_state(prepare(code, basis_state(2)), env)
    enc = encode(code, state)
    # the environment factor (the two high qubits) is untouched: overlap with it stays 1
    overlap = env.amplitudes.conj() @ enc.amplitudes.reshape(4, 16)
    assert np.sum(np.abs(overlap) ** 2) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("b", [1, 2, 3])
def test_single_error_rotates_ancilla_to_its_syndrome_state(n, b):
    code = build_code(n)
    psi = random_state(n, seed=7 * n + b)
    for j in range(n):
        state = encode(code, prepare(code, psi))
        err = operator_on_register(PAULI_MATRICES[b], (2 + j,), n + 2)
        state = decode(code, type(state)(err @ state.amplitudes))
        # ancilla lands exactly on the letter-b syndrome vector...
        expected_sys = PauliString.single(n, j, b).matrix() @ psi.amplitudes
        expected = product_state(syndrome_state(b), expected_sys)
        fidelity = abs(np.vdot(expected.amplitudes, state.amplitudes)) ** 2
        assert fidelity == pytest.approx(1.0, abs=1e-12)
        # ...so the measured syndrome is b with certainty, independent of j
        outcome, probs = measure_syndrome(code, state, rng_seed=1)
        assert outcome == b
        assert probs[b] == pytest.approx(1.0, abs=1e-12)


def test_syndrome_of_undisturbed_state_is_zero():
    code = build_code(2)
    state = decode(code, encode(code, prepare(code, random_state(2, 3))))
    outcome, probs = measure_syndrome(code, state, rng_seed=9)
    assert outcome == 0
    assert probs[0] == pytest.approx(1.0)


def test_distinct_letters_give_orthogonal_outcomes_regardless_of_position():
    # the code identifies the error letter, not where it struck
    n = 3
    code = build_code(n)
    psi = random_state(n, seed=2)
    seen = {}
    for b in (1, 2, 3):
        for j in range(n):
            state = encode(code, prepare(code, psi))
            err = operator_on_register(PAULI_MATRICES[b], (2 + j,), n + 2)
            state = decode(code, type(state)(err @ state.amplitudes))
            outcome, _ = measure_syndrome(code, state, rng_seed=0)
            seen.setdefault(b, set()).add(outcome)
    assert seen == {1: {1}, 2: {2}, 3: {3}}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symbolic_conjugation_matches_dense_everywhere(n):
    cmat = encoder_matrix(n)
    m = n + 2
    for b in range(4):
        for j in range(n):
            dense = cmat @ operator_on_register(PAULI_MATRICES[b], (2 + j,), m) @ cmat
            sym = conjugate_by_encoder(n, PauliString.single(n, j, b))
            diag = operator_on_register(np.diag(np.array(sym, dtype=complex)), (0, 1), m)
            rhs = diag @ operator_on_register(PAULI_MATRICES[b], (2 + j,), m)
            assert np.abs(dense - rhs).max() < 1e-12


def test_symbolic_conjugation_matches_dense_for_multi_letter_words():
    n = 2
    cmat = encoder_matrix(n)
    m = n + 2
    rng = np.random.default_rng(14)
    for _ in range(10):
        labels = tuple(rng.integers(0, 4, size=n))
        word = PauliString(labels)
        full_word = operator_on_register(word.matrix(), (2, 3), m)
        dense = cmat @ full_word @ cmat
        sym = conjugate_by_encoder(n, word)
        diag = operator_on_register(np.diag(np.array(sym, dtype=complex)), (0, 1), m)
        assert np.abs(dense - diag @ full_word).max() < 1e-12


def test_code_in_state_is_syndrome_zero():
    in_state = prepare(build_code(1), basis_state(1)).amplitudes.reshape(-1, 4)[0]  # the ancilla next to |0>
    assert np.allclose(in_state, syndrome_state(0))
    assert np.allclose(SYNDROME_BASIS[:, 0], in_state)


def _dense_encode(n, state):
    return apply(DenseOperator(encoder_matrix(n), tuple(range(n + 2))), state)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("extra", ["none", "n"])
def test_encode_is_bitwise_the_dense_encoder(n, extra):
    # every row of the dense encoder has one nonzero entry, +-1 or +-i, so each
    # amplitude of the dense product is one exact product plus exact zeros
    code = build_code(n)
    m = n + 2 + (n if extra == "n" else 0)
    for seed in range(3):
        state = random_state(m, seed=100 * n + seed)
        assert np.array_equal(_bits(encode(code, state)), _bits(_dense_encode(n, state)))


@pytest.mark.parametrize("n", range(1, 7))
def test_encode_of_the_sweep_start_state_is_bitwise_the_dense_encoder(n):
    # the start state |ancilla>|psi>|0...0> has exact zeros; the sign of a zero
    # sum depends on the BLAS kernel, so both sides map -0.0 to +0.0 first
    code = build_code(n)
    for psi in (basis_state(n), random_state(n, seed=n)):
        start = product_state(prepare(code, psi), basis_state(n))
        fast, dense = encode(code, start), _dense_encode(n, start)
        assert np.array_equal((fast.amplitudes + 0.0).view(np.uint64), (dense.amplitudes + 0.0).view(np.uint64))


@pytest.mark.parametrize(
    "word",
    [
        (1, 1j * PAULI_MATRICES[1]),  # i X squares to -1
        (3, np.exp(0.3j) * PAULI_MATRICES[3]),  # squares to exp(0.6i)
        (1, np.array([[0, 0.5], [2, 0]], dtype=complex)),  # an involution, but phases of modulus 1/2 and 2
        (2, PAULI_MATRICES[2] + np.eye(2)),  # two entries per row
        (3, PAULI_MATRICES[1]),  # a flip where the letter flips nothing: the phase row reads zeros
    ],
)
def test_build_code_rejects_a_bad_branch_word(monkeypatch, word):
    # build_code reads the one-qubit table, so a bad letter there must not reach the
    # branch tables; three qubits, since (i X)^(x)2 = -XX is an involution again
    letter, matrix = word
    table = list(PAULI_MATRICES)
    table[letter] = matrix
    monkeypatch.setattr(zenosim.zeno_code, "PAULI_MATRICES", tuple(table))
    with pytest.raises(ContractViolation, match="branch"):
        build_code(3)


def _read_back(word):
    """(sources, phases) of a dense word with one nonzero entry per row."""
    sources = np.argmax(np.abs(word), axis=-1)
    return sources, np.take_along_axis(word, sources[:, None], axis=-1)[:, 0]


@pytest.mark.parametrize("n", range(1, 7))
def test_branch_tables_are_bitwise_the_dense_words(n):
    code = build_code(n)
    for a in range(4):
        sources, phases = _read_back(branch_operator(a, n))
        assert np.array_equal(code.sources[a].view(np.uint64), sources.view(np.uint64))
        assert np.array_equal(code.phases[a].view(np.uint64), phases.view(np.uint64))


def test_build_code_past_the_cap_allocates_no_dense_word(monkeypatch):
    # four dense 2^10 x 2^10 words would be 64 MiB; the tables are 4 x 2^10
    monkeypatch.setattr(zenosim.zeno_code, "MAX_SYSTEM_QUBITS", 10)
    tracemalloc.start()
    try:
        code = build_code(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert code.sources.shape == code.phases.shape == (4, 2**10)


@pytest.mark.parametrize("n", range(1, 7))
def test_code_holds_no_full_register_array(n):
    # the branch words are 4 x 2^n; the ancilla data is at most 4 x 4
    code = build_code(n)
    arrays = [f.name for f in dataclasses.fields(code) if isinstance(getattr(code, f.name), np.ndarray)]
    assert arrays
    for name in arrays:
        assert getattr(code, name).size <= max(4 * 2**n, 16), name
    assert code.sources.shape == code.phases.shape == (4, 2**n)

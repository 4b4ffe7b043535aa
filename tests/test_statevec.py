import itertools

import numpy as np
import pytest

import zenosim.heisenberg
from dense_reference import kron_operator_on_register, reduced_density_matrix
from zenosim.errors import ContractViolation
from zenosim.pauli import PAULI_MATRICES
from zenosim.statevec import (
    DenseOperator,
    StateVector,
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
    random_state,
    sample_outcomes,
)
from zenosim.statevec import _register_layout


def random_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_unitary(dim, seed):
    q, _ = np.linalg.qr(random_matrix(dim, seed))
    return q


@pytest.mark.parametrize("n", range(1, 6))
def test_kron_all_puts_each_block_above_the_blocks_before_it(n):
    start = 0.5 - 2j
    matrices = [random_matrix(2, 10 * n + j) for j in range(n)]
    vectors = [random_matrix(2, 20 * n + j)[0] for j in range(n)]
    mat = kron_all(matrices, start=[[start]])
    vec = kron_all(vectors, start=[start])
    assert mat.shape == (2**n, 2**n) and vec.shape == (2**n,)
    expected_mat = np.empty_like(mat)
    expected_vec = np.empty_like(vec)
    for r in range(2**n):  # block j reads bit j of the index
        expected_vec[r] = start * np.prod([v[(r >> j) & 1] for j, v in enumerate(vectors)])
        for c in range(2**n):
            expected_mat[r, c] = start * np.prod(
                [m[(r >> j) & 1, (c >> j) & 1] for j, m in enumerate(matrices)]
            )
    np.testing.assert_allclose(mat, expected_mat, rtol=1e-14, atol=0)
    np.testing.assert_allclose(vec, expected_vec, rtol=1e-14, atol=0)
    # the default start is a complex 1, which leaves every product bit unchanged
    assert np.array_equal(kron_all(matrices), kron_all(matrices, start=[[1.0 + 0j]]))
    assert kron_all([]).dtype == complex and kron_all([]).tolist() == [[1.0]]


def _bits(array):
    """uint64 words of the real and imaginary parts, with -0.0 folded into +0.0."""
    return (np.asarray(array, dtype=complex) + 0.0).view(np.uint64)


def _kron_loop(blocks, start):
    out = np.asarray(start, dtype=complex)
    for block in blocks:
        out = np.kron(block, out)
    return out


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("kind", ["real", "complex", "pauli"])
def test_kron_all_matches_the_np_kron_loop_bit_for_bit(n, kind):
    rng = np.random.default_rng(n)
    if kind == "pauli":  # PauliString.matrix and branch_operator
        matrices = [PAULI_MATRICES[a] for a in rng.integers(0, 4, size=n)]
        vectors = [np.array([1.0, 1.0j]) / np.sqrt(2.0)] * n
    elif kind == "real":
        matrices = [rng.normal(size=(2, 2)) for _ in range(n)]
        vectors = [rng.normal(size=2) for _ in range(n)]
    else:
        matrices = [random_matrix(2, 30 * n + j) for j in range(n)]
        vectors = [random_matrix(2, 40 * n + j)[0] for j in range(n)]
    # PauliString.matrix starts from [[phase]]; product_state from (1+0j,)
    for start in ([[1.0 + 0j]], [[1j]], [[-1.0 + 0j]], [[-1j]], [[0.5 - 2j]]):
        assert np.array_equal(_bits(kron_all(matrices, start)), _bits(_kron_loop(matrices, start)))
    assert np.array_equal(_bits(kron_all(matrices)), _bits(_kron_loop(matrices, ((1.0 + 0j,),))))
    for start in ((1.0 + 0j,), (0.5 - 2j,)):
        assert np.array_equal(_bits(kron_all(vectors, start)), _bits(_kron_loop(vectors, start)))
    # a mixed chain: a vector onto a vector of two qubits, a 4 x 4 onto a 2 x 2
    wide = [vectors[0], np.kron(vectors[-1], vectors[0])]
    assert np.array_equal(_bits(kron_all(wide, (1.0 + 0j,))), _bits(_kron_loop(wide, (1.0 + 0j,))))
    wide = [matrices[0], np.kron(matrices[-1], matrices[0])]
    assert np.array_equal(_bits(kron_all(wide, [[1j]])), _bits(_kron_loop(wide, [[1j]])))


def test_kron_all_rejects_blocks_of_another_rank():
    with pytest.raises(ContractViolation, match="2-d block onto a 1-d"):
        kron_all([np.eye(2)], start=(1.0 + 0j,))


def test_statevector_rejects_bad_length():
    with pytest.raises(ContractViolation):
        StateVector(np.ones(3))


def test_product_state_orders_blocks_low_to_high():
    low = np.array([0.0, 1.0])   # qubit 0 in |1>
    high = np.array([1.0, 0.0])  # qubit 1 in |0>
    state = product_state(low, high)
    assert np.allclose(state.amplitudes, [0, 1, 0, 0])


def test_apply_identity_is_noop():
    state = random_state(4, 1)
    op = DenseOperator(np.eye(4), (1, 3))
    assert np.allclose(apply(op, state).amplitudes, state.amplitudes)


def test_apply_bit_flip_moves_basis_index():
    state = basis_state(3, 0)
    op = DenseOperator(PAULI_MATRICES[1], (0,))
    flipped = apply(op, state)
    assert flipped.amplitudes[1] == 1.0
    op2 = DenseOperator(PAULI_MATRICES[1], (2,))
    assert apply(op2, state).amplitudes[4] == 1.0


@pytest.mark.parametrize("targets", [(0,), (2,), (0, 2), (2, 0), (3, 1, 4), (1, 0, 2)])
def test_apply_matches_full_matrix_oracle(targets):
    m = 5
    mat = random_matrix(2 ** len(targets), seed=sum(targets) + 9)
    op = DenseOperator(mat, targets)
    full = operator_on_register(mat, targets, m)
    state = random_state(m, 33)
    fast = apply(op, state).amplitudes
    slow = full @ state.amplitudes
    assert np.abs(fast - slow).max() < 1e-12


def test_apply_preserves_norm_for_unitaries():
    for m in (3, 6, 10):
        state = random_state(m, m)
        u = random_unitary(8, m + 1)
        out = apply(DenseOperator(u, (0, m - 2, m - 1), unitary=True), state)
        assert abs(out.norm() - 1.0) < 1e-12


def test_operator_on_register_kron_consistency():
    # contiguous ascending targets reduce to a plain kron sandwich
    mat = random_matrix(4, 3)
    full = operator_on_register(mat, (1, 2), 4)
    expected = np.kron(np.eye(2), np.kron(mat, np.eye(2)))
    assert np.abs(full - expected).max() == 0.0


def _assert_same_bits(fast, reference):
    assert fast.dtype == reference.dtype == complex and fast.shape == reference.shape
    assert np.array_equal(fast.view(float), reference.view(float))
    assert np.array_equal(np.signbit(fast.view(float)), np.signbit(reference.view(float)))


def _signed_zero_matrix(dim, seed):
    """A random complex matrix with zeros of both signs in its real and imaginary parts."""
    rng = np.random.default_rng(seed)
    mat = random_matrix(dim, seed)
    mat.real[rng.random(mat.shape) < 0.25] = -0.0
    mat.imag[rng.random(mat.shape) < 0.25] = -0.0
    mat.real[rng.random(mat.shape) < 0.25] = 0.0
    mat.imag[rng.random(mat.shape) < 0.25] = 0.0
    return mat


@pytest.mark.parametrize("num_qubits", range(1, 7))
def test_operator_on_register_reproduces_the_kron_reference_bit_for_bit(num_qubits):
    for k in range(1, min(3, num_qubits) + 1):
        for targets in itertools.permutations(range(num_qubits), k):
            mat = _signed_zero_matrix(2**k, seed=hash(targets) % 2**32)
            _assert_same_bits(operator_on_register(mat, targets, num_qubits),
                              kron_operator_on_register(mat, targets, num_qubits))


def test_operator_on_register_matches_the_kron_reference_on_every_verify_call(monkeypatch):
    calls = []
    real = zenosim.heisenberg.operator_on_register

    def spy(matrix, targets, num_qubits):
        out = real(matrix, targets, num_qubits)
        calls.append((np.array(matrix, dtype=complex), tuple(targets), num_qubits, out))
        return out

    monkeypatch.setattr(zenosim.heisenberg, "operator_on_register", spy)
    zenosim.heisenberg._encoder_register.cache_clear()  # so its one register call is seen too
    zenosim.heisenberg.run_verification()
    layouts = {(targets, m) for _, targets, m, _ in calls}
    assert ((0, 1, 2), 4) in layouts and ((2 + 3,), 6) in layouts
    for matrix, targets, m, out in calls:
        _assert_same_bits(out, kron_operator_on_register(matrix, targets, m))


@pytest.mark.parametrize(
    "matrix, targets, num_qubits",
    [
        (PAULI_MATRICES[1], (3,), 2),
        (np.kron(PAULI_MATRICES[1], PAULI_MATRICES[1]), (0, 0), 2),
        (PAULI_MATRICES[1], (-1,), 2),
    ],
    ids=["out-of-range", "duplicate", "negative"],
)
def test_operator_on_register_rejects_bad_targets(matrix, targets, num_qubits):
    with pytest.raises(ContractViolation):
        operator_on_register(matrix, targets, num_qubits)


def test_register_layout_is_built_once_and_read_only():
    gather, same_rest = _register_layout((2, 0), 3)
    assert _register_layout((2, 0), 3)[0] is gather
    for arr in (gather, same_rest):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 0


def test_dense_operator_flag_validation():
    with pytest.raises(ContractViolation):
        DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), (0,), hermitian=True)
    with pytest.raises(ContractViolation):
        DenseOperator(2 * np.eye(2), (0,), unitary=True)
    with pytest.raises(ContractViolation):
        DenseOperator(np.eye(4), (1, 1))


def test_hermitian_exp_of_zero_is_identity():
    op = DenseOperator(np.zeros((4, 4)), (0, 1), hermitian=True)
    u = hermitian_exp(op, 1.3)
    assert np.abs(u.matrix - np.eye(4)).max() < 1e-15


def test_hermitian_exp_pauli_x_quarter_turn():
    op = DenseOperator(PAULI_MATRICES[1], (0,), hermitian=True)
    u = hermitian_exp(op, np.pi / 2)
    assert np.abs(u.matrix - 1j * PAULI_MATRICES[1]).max() < 1e-12


def test_hermitian_exp_inverse_property():
    h = random_matrix(8, 5)
    h = (h + h.conj().T) / 2
    op = DenseOperator(h, (0, 1, 2), hermitian=True)
    forward = hermitian_exp(op, 0.7).matrix
    backward = hermitian_exp(op, -0.7).matrix
    assert np.abs(forward @ backward - np.eye(8)).max() < 1e-12


def _series_exp(mat, terms=80):
    out = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ mat / k
        out += term
    return out


def test_hermitian_exp_matches_series_and_remainder_bound():
    h = random_matrix(8, 12)
    h = (h + h.conj().T) / 2
    t = 0.1
    u = hermitian_exp(DenseOperator(h, (0, 1, 2), hermitian=True), t).matrix
    series = _series_exp(1j * t * h)
    assert np.abs(u - series).max() < 1e-13
    ht_norm = np.linalg.norm(t * h, 2)
    linear = np.eye(8) + 1j * t * h
    remainder = np.linalg.norm(u - linear, 2)
    assert remainder <= ht_norm**2 * np.exp(ht_norm) / 2


def test_hermitian_exp_rejects_non_hermitian():
    with pytest.raises(ContractViolation):
        hermitian_exp(DenseOperator(random_matrix(2, 1), (0,)), 0.1)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_hermitian_exp_rejects_non_finite_time(t):
    with pytest.raises(ContractViolation, match="finite"):
        hermitian_exp(DenseOperator(PAULI_MATRICES[1], (0,), hermitian=True), t)


def test_hermitian_exp_rejects_a_non_orthonormal_eigenbasis(monkeypatch):
    real = np.linalg.eigh

    def skewed(matrix):
        w, v = real(matrix)
        return w, v + 1e-9 * v[:, ::-1]

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    h = random_matrix(8, 4)
    op = DenseOperator(h + h.conj().T, (0, 1, 2), hermitian=True)
    for _ in range(2):  # a rejected decomposition is not cached
        with pytest.raises(ContractViolation, match="eigenbasis is not orthonormal"):
            hermitian_exp(op, 0.1)


def test_contract_checks_reject_nan():
    nan = np.full((2, 2), np.nan)
    for flags in ({"hermitian": True}, {"unitary": True}, {"hermitian": True, "unitary": True}):
        with pytest.raises(ContractViolation):
            DenseOperator(nan, (0,), **flags)
    with pytest.raises(ContractViolation, match="not hermitian"):
        hermitian_exp(DenseOperator(nan, (0,)), 0.1)
    with pytest.raises(ContractViolation, match="not orthonormal"):
        projection_probabilities(random_state(2, 1), (0,), nan)
    with pytest.raises(ContractViolation, match="normalized"):
        overlap_probability(random_state(2, 1), StateVector(np.array([np.nan, 0.0])))


def test_projection_probabilities_on_an_eigenstate():
    state = product_state([1, 0], [0, 1], [1, 0])  # qubits 0,1 in |0>,|1>
    probs = projection_probabilities(state, (0, 1), np.eye(4))
    assert np.allclose(probs, [0, 0, 1, 0])  # qubit 1 set -> block index 2
    assert sample_outcomes(np.random.default_rng(0), probs[None]).tolist() == [2]
    p, post = postselect(state, (0, 1), np.eye(4)[:, 2])
    assert p == pytest.approx(1.0)
    assert np.allclose(post.amplitudes, state.amplitudes)


def test_projection_probabilities_uniform_two_qubits():
    state = product_state([1, 1], [1, 1], [1, 0])
    state = StateVector(state.amplitudes / state.norm())
    probs = projection_probabilities(state, (0, 1), np.eye(4))
    assert np.allclose(probs, 0.25)
    assert abs(probs.sum() - 1.0) < 1e-12
    _, post = postselect(state, (0, 1), np.eye(4)[:, 3])
    assert abs(post.norm() - 1.0) < 1e-12


def test_sample_outcome_is_deterministic_given_seed():
    probs = projection_probabilities(random_state(4, 8), (1, 2), np.eye(4))
    draws = [sample_outcomes(np.random.default_rng(42), probs[None])[0] for _ in range(2)]
    assert draws[0] == draws[1]


@pytest.mark.parametrize("size", [4, 64])
def test_sample_outcomes_draws_what_rng_choice_draws_row_by_row(size):
    # one rng.random double per row, in row order, as one rng.choice call per row would take
    for seed in range(50):
        rows = np.random.default_rng(1000 + seed).random((20, size)) ** 3
        rows[::7, seed % size] = 0.0
        rows[::5] *= 1e-9
        rng = np.random.default_rng(seed)
        expected = [rng.choice(size, p=row / row.sum()) for row in rows]
        assert sample_outcomes(np.random.default_rng(seed), rows).tolist() == expected


@pytest.mark.parametrize("bad", [np.nan, -1e-18, np.inf])
def test_sample_outcomes_rejects_a_nan_negative_or_infinite_probability(bad):
    probs = np.full((3, 4), 0.25)
    probs[1, 2] = bad
    with pytest.raises(ContractViolation, match="nonnegative"):
        sample_outcomes(np.random.default_rng(0), probs)
    with pytest.raises(ContractViolation, match="positive sum"):
        sample_outcomes(np.random.default_rng(0), np.zeros((1, 4)))


def test_projection_probabilities_rejects_skew_basis():
    skew = np.array([[1, 0], [1, 1]], dtype=float)
    with pytest.raises(ContractViolation, match="not orthonormal"):
        projection_probabilities(random_state(2, 1), (0,), skew)


def test_projection_probabilities_complete():
    state = random_state(5, 17)
    probs = projection_probabilities(state, (1, 3), np.eye(4))
    assert abs(probs.sum() - 1.0) < 1e-12


def test_projection_probabilities_read_a_generator_of_targets_once():
    # the targets used to be read twice, so a generator arrived empty the second time
    state = random_state(3, 1)
    expected = projection_probabilities(state, (0, 1), np.eye(4))
    probs = projection_probabilities(state, (t for t in (0, 1)), np.eye(4))
    assert np.array_equal(probs, expected)


def test_postselect_and_branch_vector_agree():
    state = random_state(4, 21)
    vec = np.array([1, 1j]) / np.sqrt(2)
    p, post = postselect(state, (2,), vec)
    branch = branch_vector(state, (2,), vec)
    assert p == pytest.approx(branch.norm() ** 2)
    assert abs(post.norm() - 1.0) < 1e-12
    # the postselected state factorizes: measuring again gives probability 1
    p2, _ = postselect(post, (2,), vec)
    assert p2 == pytest.approx(1.0)


def test_overlap_probability_product_and_orthogonal():
    ref = random_state(2, 2)
    rest = random_state(2, 3)
    state = product_state(ref, rest)
    assert overlap_probability(state, ref) == pytest.approx(1.0)
    flipped = apply(DenseOperator(PAULI_MATRICES[1], (0,)), ref)
    orth = StateVector(flipped.amplitudes - (ref.amplitudes.conj() @ flipped.amplitudes) * ref.amplitudes)
    orth = StateVector(orth.amplitudes / orth.norm())
    assert overlap_probability(product_state(orth, rest), ref) < 1e-12


def test_overlap_probability_contract_checks():
    with pytest.raises(ContractViolation):
        overlap_probability(random_state(2, 1), random_state(3, 1))
    unnormalized = StateVector(np.array([1.0, 1.0]))
    with pytest.raises(ContractViolation):
        overlap_probability(random_state(2, 1), unnormalized)


def test_reduced_density_matrix_of_product():
    a = random_state(1, 9)
    b = random_state(2, 10)
    state = product_state(a, b)
    rho = reduced_density_matrix(state, (0,))
    expected = np.outer(a.amplitudes, a.amplitudes.conj())
    assert np.abs(rho - expected).max() < 1e-12
    assert abs(np.trace(rho) - 1.0) < 1e-12

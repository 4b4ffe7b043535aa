import itertools

import numpy as np
import pytest

from zenosim.errors import ContractViolation
from zenosim.pauli import (
    PAULI_MATRICES,
    PauliString,
    conjugate_by_encoder,
    conjugation_sign,
    pauli_multiply,
    syndrome_state,
)


def test_multiplication_matches_dense_for_all_pairs():
    for a in range(4):
        for b in range(4):
            prod = pauli_multiply(PauliString((a,)), PauliString((b,)))
            dense = PAULI_MATRICES[a] @ PAULI_MATRICES[b]
            assert np.abs(prod.matrix() - dense).max() == 0.0


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_matrix_is_bitwise_the_explicit_kron_loop(num_qubits):
    for labels in itertools.product(range(4), repeat=num_qubits):
        for k in range(4):
            word = PauliString(labels, k)
            expected = np.array([[word.phase]], dtype=complex)
            for a in labels:
                expected = np.kron(PAULI_MATRICES[a], expected)
            assert np.array_equal(word.matrix().view(np.uint64), expected.view(np.uint64))


def test_x_times_x_is_identity():
    p = pauli_multiply(PauliString((1,)), PauliString((1,)))
    assert p.labels == (0,)
    assert p.phase == 1


def test_x_times_y_is_i_z():
    p = pauli_multiply(PauliString((1,)), PauliString((2,)))
    assert p.labels == (3,)
    assert p.phase == 1j


def test_every_square_is_plus_or_minus_identity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        labels = tuple(rng.integers(0, 4, size=5))
        word = PauliString(labels, int(rng.integers(0, 4)))
        sq = pauli_multiply(word, word)
        assert sq.labels == (0,) * 5
        assert sq.phase in (1, -1)


def test_associative_phases_against_dense():
    rng = np.random.default_rng(11)
    for _ in range(30):
        words = [PauliString(tuple(rng.integers(0, 4, size=3))) for _ in range(3)]
        left = pauli_multiply(pauli_multiply(words[0], words[1]), words[2])
        right = pauli_multiply(words[0], pauli_multiply(words[1], words[2]))
        assert left == right
        dense = words[0].matrix() @ words[1].matrix() @ words[2].matrix()
        assert np.abs(left.matrix() - dense).max() < 1e-12


def test_length_mismatch_rejected():
    with pytest.raises(ContractViolation):
        pauli_multiply(PauliString((1,)), PauliString((1, 2)))


def test_bad_label_rejected():
    with pytest.raises(ContractViolation):
        PauliString((5,))
    with pytest.raises(ContractViolation):
        conjugation_sign(1, 4)


@pytest.mark.parametrize(
    "a,b,expected",
    [(0, 2, 1), (3, 0, 1), (2, 1, -1), (1, 3, -1), (2, 2, 1), (0, 0, 1)],
)
def test_conjugation_sign_values(a, b, expected):
    assert conjugation_sign(a, b) == expected


def test_conjugation_sign_matches_triple_product():
    for a in range(4):
        for b in range(4):
            triple = pauli_multiply(
                PauliString((a,)), pauli_multiply(PauliString((b,)), PauliString((a,)))
            )
            assert triple.labels == (b,)
            assert triple.phase == conjugation_sign(a, b)


def test_conjugation_sign_matches_dense_triple():
    # independent 2x2 oracle for the sign
    for a in range(4):
        for b in range(4):
            dense = PAULI_MATRICES[a] @ PAULI_MATRICES[b] @ PAULI_MATRICES[a]
            assert np.abs(dense - conjugation_sign(a, b) * PAULI_MATRICES[b]).max() == 0.0


def test_sandwich_x_by_z_flips_sign():
    inner = pauli_multiply(PauliString((3,)), PauliString((1,)))
    outer = pauli_multiply(PauliString((1,)), inner)
    # sigma_x sigma_z sigma_x... regression of the a=1, b=3 case
    assert outer.labels == (3,)
    assert outer.phase == -1


def sign_column(b):
    return np.array([conjugation_sign(a, b) for a in range(4)], dtype=float)


def test_coefficient_columns_are_orthogonal():
    cols = np.column_stack([sign_column(b) for b in range(4)])
    assert np.abs(cols.T @ cols - 4 * np.eye(4)).max() == 0.0


def test_coefficient_columns_close_under_entrywise_product():
    # the sign columns multiply like the letters themselves (XOR of labels)
    for b in range(4):
        for c in range(4):
            prod = sign_column(b) * sign_column(c)
            assert np.array_equal(prod, sign_column(b ^ c))


def test_syndrome_states_are_half_the_sign_columns():
    for b in range(4):
        assert np.array_equal(syndrome_state(b), 0.5 * sign_column(b))


def test_syndrome_states():
    assert np.allclose(syndrome_state(0), [0.5, 0.5, 0.5, 0.5])
    assert np.allclose(syndrome_state(2), [0.5, -0.5, 0.5, -0.5])
    for b in range(4):
        for c in range(4):
            inner = syndrome_state(b) @ syndrome_state(c)
            assert abs(inner - (1.0 if b == c else 0.0)) < 1e-15


def test_syndrome_basis_diagonalizes_both_ancilla_x_operators():
    x_high = np.kron(PAULI_MATRICES[1], np.eye(2))
    x_low = np.kron(np.eye(2), PAULI_MATRICES[1])
    for b in range(4):
        v = syndrome_state(b)
        for op in (x_high, x_low):
            ev = v @ op @ v
            assert abs(abs(ev) - 1.0) < 1e-15
            assert np.abs(op @ v - ev * v).max() < 1e-15


def test_conjugate_identity_word():
    assert conjugate_by_encoder(3, PauliString.identity(3)) == (1, 1, 1, 1)


@pytest.mark.parametrize("n,j", [(1, 0), (2, 0), (2, 1), (4, 3)])
def test_conjugate_single_x_gives_column_one(n, j):
    assert conjugate_by_encoder(n, PauliString.single(n, j, 1)) == (1, 1, -1, -1)


def test_conjugate_two_letter_word_multiplies_columns():
    res = conjugate_by_encoder(2, PauliString((1, 3)))
    expected = tuple(conjugation_sign(a, 1) * conjugation_sign(a, 3) for a in range(4))
    assert res == expected == (1, -1, 1, -1)


def test_conjugate_rejects_wrong_length():
    with pytest.raises(ContractViolation):
        conjugate_by_encoder(2, PauliString((1,)))

"""The two-ancilla error-prevention code.

The encoder entangles a 2-qubit ancilla with n system qubits: on ancilla
branch a it applies the letter-a Pauli to every system qubit.  It is a
Hermitian unitary involution, so decoding reuses the same operator.  A
single-letter error rotates the uniformly prepared ancilla into one of
four orthogonal syndrome states, which a projective ancilla measurement
then distinguishes; outcome 0 means "no error detected".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .pauli import PAULI_MATRICES, CoefficientTable, coefficient_table, syndrome_state
from .statevec import (
    DenseOperator,
    MeasurementResult,
    StateVector,
    apply,
    product_state,
    project_measure,
    protected_register,
)

MAX_SYSTEM_QUBITS = 6


@dataclass(frozen=True)
class ZenoCode:
    """Everything fixed by the choice of system size n."""

    n: int
    encoder: DenseOperator          # acts on qubits 0..n+1 (ancilla | system)
    in_state: np.ndarray            # uniform ancilla 4-vector
    syndrome_basis: np.ndarray      # column b flags a letter-b error
    coefficients: CoefficientTable


def branch_operator(letter: int, n: int) -> np.ndarray:
    """The letter applied to each of n qubits, as a dense 2^n matrix."""
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = np.kron(PAULI_MATRICES[letter], out)
    return out


def build_code(n: int) -> ZenoCode:
    """Construct the encoder and ancilla data for n system qubits."""
    if not isinstance(n, int) or not 1 <= n <= MAX_SYSTEM_QUBITS:
        raise ContractViolation(
            f"system size must be an integer in 1..{MAX_SYSTEM_QUBITS}, got {n!r}"
        )
    dim = 2 ** (n + 2)
    mat = np.zeros((dim, dim), dtype=complex)
    for a in range(4):
        # ancilla value a occupies the two low bits of the register index
        mat[a::4, a::4] = branch_operator(a, n)
    encoder = DenseOperator(mat, tuple(range(n + 2)), hermitian=True, unitary=True)
    basis = np.column_stack([syndrome_state(b) for b in range(4)])
    return ZenoCode(n, encoder, syndrome_state(0), basis, coefficient_table())


def check_system_state(code: ZenoCode, psi: StateVector) -> None:
    """Reject a system state of the wrong size or norm."""
    if psi.num_qubits != code.n:
        raise ContractViolation(
            f"system state has {psi.num_qubits} qubits, code expects {code.n}"
        )
    if abs(psi.norm() - 1.0) > 1e-9:
        raise ContractViolation("system state must be normalized")


def prepare(code: ZenoCode, psi: StateVector) -> StateVector:
    """Place the ancilla in its uniform start state next to the system state."""
    check_system_state(code, psi)
    return product_state(
        code.in_state, psi, layout=protected_register(code.n, environment=False)
    )


def encode(code: ZenoCode, state: StateVector) -> StateVector:
    """Apply the encoder on the ancilla+system block; extra qubits pass through."""
    if state.num_qubits < code.n + 2:
        raise ContractViolation(
            f"state has {state.num_qubits} qubits; need at least {code.n + 2}"
        )
    return apply(code.encoder, state)


def decode(code: ZenoCode, state: StateVector) -> StateVector:
    """The encoder is an involution, so decoding is a second application."""
    return encode(code, state)


def syndrome_measure(code: ZenoCode, state: StateVector, rng_seed: int) -> MeasurementResult:
    """Measure the ancilla in the syndrome basis.

    The sampled outcome is the detected error letter (0 = none); the full
    probability vector is reported alongside it.
    """
    return project_measure(state, (0, 1), code.syndrome_basis, rng_seed)

"""The two-ancilla error-prevention code.

The encoder entangles a 2-qubit ancilla with n system qubits: on ancilla
branch a it applies the letter-a Pauli to every system qubit.  That word
is a signed permutation of the system index, built from the one-qubit
Paulis as a source table (every bit flipped for X and Y, none for I and Z)
and a phase table (the product of one-qubit phases), so each branch is
applied as a gather plus a phase multiply; the dense 2^(n+2) matrix is a
reference value in `heisenberg`.  Each word is an involution, so decoding
reuses the encoder.  A single-letter error rotates the uniformly prepared
ancilla into one of four orthogonal syndrome states, which a projective
ancilla measurement then distinguishes; outcome 0 means "no error detected".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .pauli import PAULI_MATRICES, SYNDROME_BASIS
from .statevec import StateVector, product_state

MAX_SYSTEM_QUBITS = 6


@dataclass(frozen=True)
class ZenoCode:
    """Everything fixed by the choice of system size n."""

    n: int
    sources: np.ndarray             # (4, 2^n): branch a sends input sources[a, s] to output s...
    phases: np.ndarray              # (4, 2^n): ...times phases[a, s]


#: Whether letter a flips a qubit's bit: X and Y do, I and Z do not.
_FLIPS = np.array([0, 1, 1, 0])
_FLIPS.flags.writeable = False


def build_code(n: int) -> ZenoCode:
    """The encoder's branch tables for n system qubits, in O(n 2^n).

    Branch a reads input sources[a, s] = s ^ mask_a, with mask_a every bit
    for X and Y and none for I and Z, times phases[a, s], the Kronecker power
    of the one-qubit phase row sigma_a[j, j ^ flip]: the same product, in the
    same order, as the one nonzero entry in row s of the dense word
    kron_all([sigma_a] * n).  Checked exactly, with no tolerance: each
    one-qubit matrix is its phase row and zeros, with phases of modulus 1,
    and each branch is an involution, sources[sources] = s and
    phases * phases[sources] = 1.  So each branch is unitary and
    self-inverse, and `decode` may reuse `encode`.
    """
    check_system_count(n)
    letters = np.stack(PAULI_MATRICES)
    rows = letters[np.arange(4)[:, None], np.arange(2), _FLIPS[:, None] ^ np.arange(2)]
    if not ((np.count_nonzero(letters, axis=(1, 2)) == 2).all() and (np.abs(rows) == 1).all()):
        raise ContractViolation("an encoder branch letter is not a unit-phase signed permutation")
    index = np.arange(2**n)
    sources = index ^ _FLIPS[:, None] * (index.size - 1)
    phases = np.ones((4, 1), dtype=complex)
    for _ in range(n):  # the next qubit's phase row on the left of each product, as in kron_all
        phases = (rows[:, :, None] * phases[:, None, :]).reshape(4, -1)
    if not (
        (np.take_along_axis(sources, sources, axis=1) == index).all()
        and (phases * np.take_along_axis(phases, sources, axis=1) == 1).all()
    ):
        raise ContractViolation("an encoder branch is not an involution")
    sources.flags.writeable = phases.flags.writeable = False
    return ZenoCode(n, sources, phases)


def check_system_count(n: int) -> None:
    """Reject a system size outside 1..MAX_SYSTEM_QUBITS."""
    if not isinstance(n, int) or not 1 <= n <= MAX_SYSTEM_QUBITS:
        raise ContractViolation(f"n: must be an integer in 1..{MAX_SYSTEM_QUBITS}, got {n!r}")


def check_system_state(n: int, psi: StateVector) -> None:
    """Reject a system state that is not a normalized state of n qubits."""
    if psi.num_qubits != n:
        raise ContractViolation(
            f"system state has {psi.num_qubits} qubits, expected {n}"
        )
    if not abs(psi.norm() - 1.0) <= 1e-9:
        raise ContractViolation("system state must be normalized")


def prepare(code: ZenoCode, psi: StateVector) -> StateVector:
    """Place the ancilla in its uniform start state, syndrome basis column 0, next to the system state."""
    check_system_state(code.n, psi)
    return product_state(SYNDROME_BASIS[:, 0], psi)


def encode(code: ZenoCode, state: StateVector) -> StateVector:
    """Apply the encoder on the ancilla+system block; extra qubits pass through.

    Output amplitude [rest, s, a] is input [rest, sources[a, s], a] times
    phases[a, s]: one exact product, as in the dense encoder's single
    nonzero entry per row, so every nonzero amplitude keeps its bits.
    """
    if state.num_qubits < code.n + 2:
        raise ContractViolation(
            f"state has {state.num_qubits} qubits; need at least {code.n + 2}"
        )
    blocks = state.amplitudes.reshape(-1, 2**code.n, 4)  # the ancilla is on the two low bits
    return StateVector(blocks[:, code.sources.T, np.arange(4)] * code.phases.T)


def decode(code: ZenoCode, state: StateVector) -> StateVector:
    """Each branch word is an involution (checked in build_code), so decoding is a second application."""
    return encode(code, state)

"""Exact Pauli-word algebra with integer phase tracking.

A word is one label per qubit (0=I, 1=X, 2=Y, 3=Z) plus a global phase
i**k with k kept modulo 4, so products and conjugations never touch
floating point.  Labels multiply by XOR; the phase increments come from a
fixed 4x4 table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .statevec import kron_all

#: Single-qubit matrices indexed by label 0..3.
PAULI_MATRICES = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# sigma_a . sigma_b = i**_PHASE_EXP[a][b] . sigma_(a XOR b)
_PHASE_EXP = (
    (0, 0, 0, 0),
    (0, 0, 1, 3),
    (0, 3, 0, 1),
    (0, 1, 3, 0),
)

_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


def _check_label(a: int) -> None:
    if a not in (0, 1, 2, 3):
        raise ContractViolation(f"Pauli label must be in 0..3, got {a!r}")


@dataclass(frozen=True)
class PauliString:
    """A Pauli word with labels[q] acting on qubit q, times i**phase_exponent."""

    labels: tuple[int, ...]
    phase_exponent: int = 0

    def __post_init__(self):
        for a in self.labels:
            _check_label(a)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "phase_exponent", self.phase_exponent % 4)

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        return cls((0,) * num_qubits)

    @classmethod
    def single(cls, num_qubits: int, position: int, letter: int) -> "PauliString":
        """The word with `letter` at `position` and identity elsewhere."""
        _check_label(letter)
        labels = [0] * num_qubits
        labels[position] = letter
        return cls(tuple(labels))

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    @property
    def phase(self) -> complex:
        return _PHASES[self.phase_exponent]

    def matrix(self) -> np.ndarray:
        """Dense matrix; labels[0] sits on the least significant (lowest) qubit."""
        return kron_all((PAULI_MATRICES[a] for a in self.labels), start=[[self.phase]])


def pauli_multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact product p.q, including the accumulated power of i."""
    if p.num_qubits != q.num_qubits:
        raise ContractViolation(
            f"cannot multiply words on {p.num_qubits} and {q.num_qubits} qubits"
        )
    k = p.phase_exponent + q.phase_exponent
    labels = []
    for a, b in zip(p.labels, q.labels):
        k += _PHASE_EXP[a][b]
        labels.append(a ^ b)
    return PauliString(tuple(labels), k % 4)


def conjugation_sign(a: int, b: int) -> int:
    """Sign s in sigma_a sigma_b sigma_a = s . sigma_b.

    +1 when either letter is the identity or the letters match, -1 when two
    distinct non-identity letters anticommute.
    """
    _check_label(a)
    _check_label(b)
    return 1 if a == 0 or b == 0 or a == b else -1


def syndrome_state(b: int) -> np.ndarray:
    """Unit ancilla 4-vector flagged by a letter-b error: entry a is conjugation_sign(a, b) / 2.

    b=0 gives the uniform vector the ancilla is prepared in; the four
    vectors form an orthonormal basis of the ancilla space.
    """
    return 0.5 * np.array([conjugation_sign(a, b) for a in range(4)], dtype=float)


#: The ancilla measurement basis, read-only: column b is syndrome_state(b).
SYNDROME_BASIS = np.column_stack([syndrome_state(b) for b in range(4)])
SYNDROME_BASIS.flags.writeable = False


def conjugate_by_encoder(n: int, p: PauliString) -> tuple[int, int, int, int]:
    """Sandwich a system Pauli word between two copies of the encoder.

    The word itself is unchanged; each ancilla branch a picks up the
    product of the conjugation signs of the word's letters, so the result
    is the word times this +-1 ancilla diagonal.
    """
    if p.num_qubits != n:
        raise ContractViolation(
            f"word acts on {p.num_qubits} qubits but the code has {n} system qubits"
        )
    return tuple(
        math.prod(conjugation_sign(a, b) for b in p.labels if b != 0)
        for a in range(4)
    )

"""Independent per-qubit environment couplings and their time evolution.

Each system qubit i gets its own environment qubit and four Hermitian
2x2 coupling operators, one per Pauli letter (letter 0 couples the
identity, i.e. dresses the environment without touching the system).
The interaction generator is the sum of letter-times-coupling terms and
the dimensionless strength multiplies it in the exponent, so evolution
is exp(+i * eps * H).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .pauli import PAULI_MATRICES
from .statevec import DenseOperator, StateVector, apply, hermitian_exp, operator_on_register

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class NoiseModel:
    """Couplings[i, b] acts on environment qubit i alongside letter b on system qubit i."""

    n: int
    couplings: np.ndarray  # shape (n, 4, 2, 2), each slice Hermitian with spectral norm <= 1
    epsilon: float
    seed: int | None = None

    def __post_init__(self):
        arr = np.asarray(self.couplings, dtype=complex)
        if arr.shape != (self.n, 4, 2, 2):
            raise ContractViolation(
                f"couplings must have shape ({self.n}, 4, 2, 2), got {arr.shape}"
            )
        for i in range(self.n):
            for b in range(4):
                a = arr[i, b]
                if np.abs(a - a.conj().T).max() > HERMITICITY_TOL:
                    raise ContractViolation(f"coupling ({i}, {b}) is not hermitian")
                if np.abs(np.linalg.eigvalsh(a)).max() > 1.0 + 1e-9:
                    raise ContractViolation(
                        f"coupling ({i}, {b}) has spectral norm > 1"
                    )
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise ContractViolation("noise strength must be finite and nonnegative")
        object.__setattr__(self, "couplings", arr)

    def with_epsilon(self, epsilon: float) -> "NoiseModel":
        return dataclasses.replace(self, epsilon=epsilon)

    def scaled(self, factor: float) -> "NoiseModel":
        """Multiply every coupling by `factor` (result must stay within norm 1)."""
        return dataclasses.replace(self, couplings=self.couplings * factor)


def random_model(n: int, seed: int, epsilon: float = 1e-2) -> NoiseModel:
    """Seeded random Hermitian couplings, each normalized to spectral norm 1."""
    if n < 1:
        raise ContractViolation("need at least one system qubit")
    rng = np.random.default_rng(seed)
    couplings = np.zeros((n, 4, 2, 2), dtype=complex)
    for i in range(n):
        for b in range(4):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a = (g + g.conj().T) / 2
            couplings[i, b] = a / np.abs(np.linalg.eigvalsh(a)).max()
    return NoiseModel(n, couplings, epsilon, seed)


def zero_model(n: int, epsilon: float = 0.0) -> NoiseModel:
    return NoiseModel(n, np.zeros((n, 4, 2, 2), dtype=complex), epsilon)


def build_hamiltonian(model: NoiseModel) -> DenseOperator:
    """Sum of letter (x) coupling terms on the system|environment block.

    Local qubit order is system 0..n-1 then environment 0..n-1; the
    returned target list places the block at qubits 2..2n+1, i.e. just
    above the ancilla of the standard register.
    """
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


def noise_unitary(model: NoiseModel, epsilon: float | None = None) -> DenseOperator:
    """exp(+i eps H) on the system|environment block (standard targets)."""
    eps = model.epsilon if epsilon is None else epsilon
    return hermitian_exp(build_hamiltonian(model), eps)


def pair_unitaries(model: NoiseModel, epsilon: float | None = None) -> np.ndarray:
    """The factors V_i = exp(+i eps H_i) of noise_unitary, one per (system i, environment i) pair.

    H is a sum of commuting terms on disjoint pairs, so exp(i eps H) is the
    tensor product of the returned 4x4 blocks.  Shape (n, 4, 4); the local
    index is sys + 2 * env, and terms are summed in build_hamiltonian's order.
    """
    eps = model.epsilon if epsilon is None else epsilon
    h = np.zeros((model.n, 4, 4), dtype=complex)
    for b in range(4):
        h += np.einsum("ixy,uv->ixuyv", model.couplings[:, b], PAULI_MATRICES[b]).reshape(model.n, 4, 4)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * eps * w)[:, None, :]) @ v.conj().swapaxes(-1, -2)


def _sys_env_offset(state: StateVector, n: int) -> int:
    if state.num_qubits == 2 * n + 2:
        return 2
    if state.num_qubits == 2 * n:
        return 0
    raise ContractViolation(
        f"state has {state.num_qubits} qubits; expected {2 * n} or {2 * n + 2}"
    )


def evolve_exact(state: StateVector, model: NoiseModel, epsilon: float | None = None) -> StateVector:
    """Unitary evolution of the system+environment block; the ancilla is untouched."""
    offset = _sys_env_offset(state, model.n)
    u = noise_unitary(model, epsilon)
    return apply(u.retargeted(tuple(q + offset - 2 for q in u.target_qubits)), state)


def evolve_first_order(
    state: StateVector,
    model: NoiseModel,
    renormalize: bool = False,
    epsilon: float | None = None,
) -> StateVector:
    """Truncated evolution (1 + i eps H); unnormalized unless `renormalize`.

    Meant for analytic cross-checks: the output norm differs from 1 at
    second order in eps.
    """
    eps = model.epsilon if epsilon is None else epsilon
    offset = _sys_env_offset(state, model.n)
    h = build_hamiltonian(model)
    h = h.retargeted(tuple(q + offset - 2 for q in h.target_qubits))
    out = StateVector(state.amplitudes + 1j * eps * apply(h, state).amplitudes, state.layout)
    return out.normalized() if renormalize else out


def model_to_dict(model: NoiseModel) -> dict:
    return {
        "n": model.n,
        "epsilon": model.epsilon,
        "seed": model.seed,
        "couplings": [
            [
                [[[float(z.real), float(z.imag)] for z in row] for row in model.couplings[i, b]]
                for b in range(4)
            ]
            for i in range(model.n)
        ],
    }


def model_from_dict(data: dict) -> NoiseModel:
    n = int(data["n"])
    couplings = np.zeros((n, 4, 2, 2), dtype=complex)
    for i in range(n):
        for b in range(4):
            for r in range(2):
                for c in range(2):
                    re, im = data["couplings"][i][b][r][c]
                    couplings[i, b, r, c] = re + 1j * im
    seed = data.get("seed")
    return NoiseModel(n, couplings, float(data["epsilon"]), None if seed is None else int(seed))


def save_model(model: NoiseModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)


def load_model(path) -> NoiseModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))

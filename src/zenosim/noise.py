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
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolation
from .pauli import PAULI_MATRICES
from .statevec import DenseOperator, check_phases, hermitian_exp, unit_phases

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class NoiseModel:
    """Couplings[i, b] acts on environment qubit i alongside letter b on system qubit i.

    The model takes its couplings array over and makes it read-only, so the
    Hamiltonian (and its eigendecomposition) and the pair eigenbases cached on
    first use stay valid; `with_epsilon` and `scaled` build new models with
    empty caches.
    """

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
        if not np.isfinite(arr).all():
            raise ContractViolation("couplings must be finite")
        for i in range(self.n):
            for b in range(4):
                a = arr[i, b]
                if not np.abs(a - a.conj().T).max() <= HERMITICITY_TOL:
                    raise ContractViolation(f"coupling ({i}, {b}) is not hermitian")
                if not np.abs(np.linalg.eigvalsh(a)).max() <= 1.0 + 1e-9:
                    raise ContractViolation(
                        f"coupling ({i}, {b}) has spectral norm > 1"
                    )
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise ContractViolation("noise strength must be finite and nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "couplings", arr)

    @cached_property
    def hamiltonian(self) -> DenseOperator:
        """build_hamiltonian(self), built on first use."""
        return build_hamiltonian(self)

    @cached_property
    def pair_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (w, v) with H_i = v[i] diag(w[i]) v[i]^dagger for every pair, built on first use.

        H_i is pair i's 4x4 term of build_hamiltonian, local index sys + 2 * env,
        summed in its order; shapes (n, 4) and (n, 4, 4).
        """
        h = np.zeros((self.n, 4, 4), dtype=complex)
        for b in range(4):
            h += np.einsum("ixy,uv->ixuyv", self.couplings[:, b], PAULI_MATRICES[b]).reshape(self.n, 4, 4)
        w, v = np.linalg.eigh(h)
        w.flags.writeable = v.flags.writeable = False
        return w, v

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

    Each 4x4 term is added into its 4^(n-1) diagonal blocks only, where the
    other qubits agree; everywhere else the identity on them is zero.
    """
    n = model.n
    dim = 2 ** (2 * n)
    h = np.zeros((dim, dim), dtype=complex)
    index = np.arange(dim)
    for i in range(n):
        local = np.array([0, 1 << i, 1 << (n + i), (1 << i) | (1 << (n + i))])  # sys + 2 * env
        block = index[(index & local[3]) == 0][:, None] + local  # one row per setting of the rest
        rows, cols = block[:, :, None], block[:, None, :]
        for b in range(4):
            a = model.couplings[i, b]
            if not a.any():
                continue
            h[rows, cols] += np.kron(a, PAULI_MATRICES[b])  # env above system
    return DenseOperator(h, tuple(range(2, 2 * n + 2)), hermitian=True)


def _strength(model: NoiseModel, epsilon: float | None) -> float:
    """The explicit strength, or the model's own; either must be finite."""
    eps = model.epsilon if epsilon is None else epsilon
    if not math.isfinite(eps):
        raise ContractViolation(f"noise strength must be finite, got {eps!r}")
    return eps


def noise_unitary(
    model: NoiseModel, epsilon: float | None = None, *, fresh_environment: bool = False
) -> DenseOperator:
    """exp(+i eps H) on the system|environment block (standard targets).

    H is diagonalized once per model; each call only redoes the phases.
    With `fresh_environment`, only the columns where the environment is in
    |0...0> are formed, U (1 (x) |0...0><0...0|_env): the environment bits
    are the high bits of the block index, so these are the first 2^n
    columns, and the rest of the matrix is zero.  Applied to a state whose
    environment is |0...0>, the result is bit for bit that of the whole U.
    """
    # A product with fewer than four columns does not round like the first
    # columns of the whole product on every BLAS, so n = 1 forms all of U.
    columns = max(2**model.n, 4) if fresh_environment else None
    return hermitian_exp(model.hamiltonian, _strength(model, epsilon), columns)


def pair_unitaries(model: NoiseModel, epsilon: float | None = None) -> np.ndarray:
    """The factors V_i = exp(+i eps H_i) of noise_unitary, one per (system i, environment i) pair.

    H is a sum of commuting terms on disjoint pairs, so exp(i eps H) is the
    tensor product of the returned 4x4 blocks.  Shape (n, 4, 4); the local
    index is sys + 2 * env, and each H_i is diagonalized once per model.
    """
    eps = _strength(model, epsilon)
    w, v = model.pair_eigh
    return (v * unit_phases(eps, w)[:, None, :]) @ v.conj().swapaxes(-1, -2)


def pair_deviations(model: NoiseModel, epsilon: float | None = None) -> np.ndarray:
    """V_i - 1 for the factors of pair_unitaries, shape (n, 4, 4), without forming V_i.

    e^{i eps w} - 1 = -2 sin^2(eps w / 2) + i sin(eps w) keeps every digit
    where eps w is small, so entries of order eps come out to relative
    rounding instead of to rounding relative to the 1 they would be taken from.
    """
    eps = _strength(model, epsilon)
    w, v = model.pair_eigh
    check_phases(eps, w)
    phases = -2.0 * np.sin(eps * w / 2) ** 2 + 1j * np.sin(eps * w)
    return (v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2)


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

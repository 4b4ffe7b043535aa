"""Independent per-qubit environment couplings and their time evolution.

Each system qubit i gets its own environment qubit and four Hermitian
2x2 coupling operators, one per Pauli letter (letter 0 couples the
identity, i.e. dresses the environment without touching the system).
The interaction generator is the sum of letter-times-coupling terms and
the dimensionless strength multiplies it in the exponent, so evolution
is exp(+i * eps * H).  The strength is the experiment's control knob, not
part of the model: every evolution takes it as an argument.
`noise_unitary` forms only the (4^n, c) columns of it that a fresh
environment reads, and `pair_deviations` each pair's factor minus one.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractViolation
from .output import write_json
from .pauli import PAULI_MATRICES
from .statevec import DenseOperator, check_phases, hermitian_exp

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class NoiseModel:
    """Couplings[i, b] acts on environment qubit i alongside letter b on system qubit i.

    The model holds no strength.  It takes its couplings array over and makes
    it read-only, so the Hamiltonian (and its eigendecomposition) and the pair
    eigenbases cached on first use stay valid; `scaled` builds a new model
    with empty caches.  `seed` records where random couplings came from.
    """

    n: int
    couplings: np.ndarray  # shape (n, 4, 2, 2), each slice Hermitian with spectral norm <= 1
    seed: int | None = dataclasses.field(default=None, kw_only=True)

    def __post_init__(self):
        if self.n < 1:
            raise ContractViolation("need at least one system qubit")
        arr = np.asarray(self.couplings, dtype=complex)
        if arr.shape != (self.n, 4, 2, 2):
            raise ContractViolation(
                f"couplings must have shape ({self.n}, 4, 2, 2), got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ContractViolation("couplings must be finite")
        hermitian = np.abs(arr - arr.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) <= HERMITICITY_TOL
        bounded = np.abs(np.linalg.eigvalsh(arr)).max(axis=-1) <= 1.0 + 1e-9
        failing = np.argwhere(~(hermitian & bounded))
        if failing.size:
            i, b = failing[0]
            problem = "is not hermitian" if not hermitian[i, b] else "has spectral norm > 1"
            raise ContractViolation(f"coupling ({i}, {b}) {problem}")
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

    def scaled(self, factor: float) -> "NoiseModel":
        """Multiply every coupling by `factor` (result must stay within norm 1)."""
        return dataclasses.replace(self, couplings=self.couplings * factor)


def random_model(n: int, seed: int) -> NoiseModel:
    """Seeded random Hermitian couplings, each normalized to spectral norm 1."""
    draws = np.random.default_rng(seed).normal(size=(n, 4, 2, 2, 2))  # per block: real parts, then imaginary
    g = draws[:, :, 0] + 1j * draws[:, :, 1]
    a = (g + g.conj().swapaxes(-1, -2)) / 2
    couplings = a / np.abs(np.linalg.eigvalsh(a)).max(axis=-1)[..., None, None]
    return NoiseModel(n, couplings, seed=seed)


def zero_model(n: int) -> NoiseModel:
    return NoiseModel(n, np.zeros((n, 4, 2, 2), dtype=complex))


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


def _strength(epsilon: float) -> float:
    if not math.isfinite(epsilon):
        raise ContractViolation(f"noise strength must be finite, got {epsilon!r}")
    return epsilon


def fresh_columns(n: int) -> int:
    """How many leading columns of exp(+i eps H) `noise_unitary` forms: the 2^n of a fresh environment, at least 4.

    A product with fewer than four columns does not round like the first
    columns of the whole product on every BLAS, so n = 1 forms all of U.
    """
    return max(2**n, 4)


def noise_unitary(model: NoiseModel, epsilon: float) -> np.ndarray:
    """The fresh-environment columns of exp(+i eps H) on the system|environment block: read-only, shape (4^n, c).

    These are U (1 (x) |0...0><0...0|_env) without its zero columns: the
    environment bits are the high bits of the block index, so they are the
    first c = `fresh_columns(n)` columns, bit for bit those columns of the
    whole U, `hermitian_exp(model.hamiltonian, eps)`, which a state with any
    other environment needs.  At n = 1, c = 4 is the whole U.  H is
    diagonalized once per model; each call only redoes the phases, and the
    columns are orthonormal by the bound of `hermitian_exp`, not by a
    per-call check.
    """
    return hermitian_exp(model.hamiltonian, _strength(epsilon), fresh_columns(model.n)).matrix


def pair_deviations(model: NoiseModel, epsilon: float) -> np.ndarray:
    """V_i - 1 for the factors V_i = exp(+i eps H_i) of noise_unitary, shape (n, 4, 4), without forming V_i.

    H is a sum of commuting terms on disjoint (system i, environment i) pairs,
    so exp(i eps H) is the tensor product of the V_i; the local index is
    sys + 2 * env, and each H_i is diagonalized once per model.

    e^{i eps w} - 1 = -2 sin^2(eps w / 2) + i sin(eps w) keeps every digit
    where eps w is small, so entries of order eps come out to relative
    rounding instead of to rounding relative to the 1 they would be taken from.
    """
    eps = _strength(epsilon)
    w, v = model.pair_eigh
    check_phases(eps, w)
    phases = -2.0 * np.sin(eps * w / 2) ** 2 + 1j * np.sin(eps * w)
    return (v * phases[:, None, :]) @ v.conj().swapaxes(-1, -2)


def model_to_dict(model: NoiseModel) -> dict:
    """n, seed, and the couplings as [real, imaginary] pairs, shape (n, 4, 2, 2, 2)."""
    pairs = np.stack([model.couplings.real, model.couplings.imag], axis=-1)
    return {"n": model.n, "seed": model.seed, "couplings": pairs.tolist()}


def _integer(value, key: str) -> int:
    """An int or an integral float; a bool, a fraction or a string is an error, never truncated."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ContractViolation(f"{key} must be an integer, got {value!r}")


def model_from_dict(data: dict) -> NoiseModel:
    """The model of `model_to_dict`'s layout; a legacy "epsilon" key is ignored, any other unknown key is an error."""
    if not isinstance(data, dict):
        raise ContractViolation(f"a model must be a JSON object, got {type(data).__name__}")
    for key in ("n", "couplings"):
        if key not in data:
            raise ContractViolation(f"a model needs the key {key!r}")
    for key in data:
        if key not in ("n", "seed", "couplings", "epsilon"):
            raise ContractViolation(f"a model has an unknown key {key!r}")
    pairs = np.asarray(data["couplings"])  # ValueError when ragged
    if pairs.dtype.kind not in "iuf" or pairs.shape[-1:] != (2,):
        raise ContractViolation("couplings must be [real, imaginary] pairs of numbers")
    seed = data.get("seed")
    if seed is not None:
        seed = _integer(seed, "seed")
        if seed < 0:
            raise ContractViolation(f"seed must be nonnegative, got {seed}")
    couplings = np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]  # signed zeros kept
    return NoiseModel(_integer(data["n"], "n"), couplings, seed=seed)


def save_model(model: NoiseModel, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> NoiseModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))

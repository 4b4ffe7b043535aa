"""Dense complex state vectors and operators on little-endian qubit registers.

Conventions used everywhere in this package:

* basis index I of an m-qubit register has bit q equal to the state of
  qubit q, so qubit 0 is the least significant bit;
* an operator's matrix uses the same rule over its target list: the first
  listed target is the least significant bit of the matrix index.  Listing
  a block's qubits in ascending order therefore keeps the block matrix in
  register order, and ``np.kron(high, low)`` composes blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ContractViolation

NORM_TOL = 1e-12


@dataclass
class StateVector:
    """Complex amplitudes over a little-endian qubit register."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size == 0 or amps.size & (amps.size - 1):
            raise ContractViolation(
                f"amplitude array length must be a power of two, got {amps.size}"
            )
        self.amplitudes = amps

    @property
    def num_qubits(self) -> int:
        return int(self.amplitudes.size).bit_length() - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def kron_all(blocks, start=((1.0 + 0j,),)) -> np.ndarray:
    """np.kron(block, acc) over `blocks`, from `start`.

    Block j sits on the index bits above those of blocks 0..j-1, so the first
    block is on the lowest qubits.  Each step is one outer product with the
    axes interleaved, block axis above accumulator axis: every entry is the
    one product np.kron forms, without its per-call setup.  The product is
    complex unless `start` and every block are real.
    """
    out = np.asarray(start)
    for block in blocks:
        block = np.asarray(block)
        if block.ndim != out.ndim:
            raise ContractViolation(f"cannot kron a {block.ndim}-d block onto a {out.ndim}-d product")
        nd = out.ndim
        interleaved = [ax for pair in zip(range(nd), range(nd, 2 * nd)) for ax in pair]
        shape = tuple(b * a for b, a in zip(block.shape, out.shape))
        out = np.multiply.outer(block, out).transpose(interleaved).reshape(shape)
    return out


def basis_state(num_qubits: int, index: int = 0) -> StateVector:
    amps = np.zeros(2**num_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def product_state(*parts) -> StateVector:
    """Tensor product of amplitude blocks, first part on the lowest qubits."""
    blocks = [
        part.amplitudes if isinstance(part, StateVector) else np.asarray(part, dtype=complex)
        for part in parts
    ]
    return StateVector(kron_all(blocks, start=(1.0 + 0j,)))


def random_state(num_qubits: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
    return StateVector(amps / np.linalg.norm(amps))


@dataclass(frozen=True)
class DenseOperator:
    """Square complex matrix acting on an ordered list of target qubits.

    The operator takes its matrix over and makes it read-only, so the
    eigendecomposition it caches can never disagree with it.  The `hermitian`
    and `unitary` flags ask for that property to be checked on construction.
    """

    matrix: np.ndarray
    target_qubits: tuple[int, ...]
    hermitian: bool = False
    unitary: bool = False

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        targets = tuple(self.target_qubits)
        k = len(targets)
        if len(set(targets)) != k:
            raise ContractViolation(f"duplicate target qubits in {targets}")
        if mat.shape != (2**k, 2**k):
            raise ContractViolation(
                f"matrix shape {mat.shape} does not match {k} target qubits"
            )
        if self.hermitian and not _hermiticity_defect(mat) <= NORM_TOL:
            raise ContractViolation("hermitian flag set on a non-hermitian matrix")
        if self.unitary:
            _check_orthonormal(mat, "unitary flag set but the matrix")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "target_qubits", targets)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (w, v) with matrix = v diag(w) v^dagger, computed and checked on first use.

        Both checks run once per operator: the matrix is Hermitian, and the
        eigenvectors are orthonormal, max |v^dagger v - 1| <= NORM_TOL.
        """
        defect = _hermiticity_defect(self.matrix)
        if not defect <= NORM_TOL:
            raise ContractViolation(f"matrix is not hermitian (defect {defect:.3e})")
        w, v = np.linalg.eigh(self.matrix)
        _check_orthonormal(v, "eigenbasis")
        w.flags.writeable = v.flags.writeable = False
        return w, v


@dataclass(frozen=True)
class LeadingColumns:
    """The first c columns of a d x d operator, as a read-only (d, c) matrix."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def apply(op: DenseOperator, state: StateVector) -> StateVector:
    """Apply `op` on its target qubits, identity on the rest."""
    m = state.num_qubits
    k = len(op.target_qubits)
    if any(q < 0 or q >= m for q in op.target_qubits):
        raise ContractViolation(
            f"targets {op.target_qubits} out of range for a {m}-qubit register"
        )
    psi = state.amplitudes.reshape([2] * m)  # axis j <-> qubit m-1-j
    tens = op.matrix.reshape([2] * (2 * k))
    in_axes = [2 * k - 1 - t for t in range(k)]
    state_axes = [m - 1 - q for q in op.target_qubits]
    out = np.tensordot(tens, psi, axes=(in_axes, state_axes))
    # tensordot leaves the op's output axes first: axis u <-> target k-1-u
    dest = [m - 1 - op.target_qubits[k - 1 - u] for u in range(k)]
    out = np.moveaxis(out, range(k), dest)
    return StateVector(out.reshape(-1))


def operator_on_register(matrix, targets, num_qubits: int) -> np.ndarray:
    """Full 2^m matrix acting as `matrix` on `targets` and identity elsewhere.

    Entry (I, J) is [I, J agree off `targets`] * matrix[t(I), t(J)], with t
    the index bits on `targets`: the one complex product np.kron(1, matrix)
    forms there, signed zeros included.
    """
    targets = tuple(targets)
    k = len(targets)
    if len(set(targets)) != k:
        raise ContractViolation(f"duplicate target qubits in {targets}")
    if any(q < 0 or q >= num_qubits for q in targets):
        raise ContractViolation(f"targets {targets} out of range for a {num_qubits}-qubit register")
    mat = np.asarray(matrix, dtype=complex)
    if mat.shape != (2**k, 2**k):
        raise ContractViolation(f"matrix shape {mat.shape} does not match targets {targets}")
    gather, same_rest = _register_layout(targets, num_qubits)
    return same_rest * mat.reshape(-1)[gather]


@lru_cache(maxsize=32)
def _register_layout(targets: tuple[int, ...], num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (gather, same_rest) of `operator_on_register`, built once per layout.

    gather[I, J] is the flat index of entry (t(I), t(J)) of a 2^k matrix on
    `targets`; same_rest[I, J] is 1+0j where I and J agree on every other
    qubit, else 0j.
    """
    idx = np.arange(2**num_qubits)
    t = np.zeros_like(idx)
    for u, q in enumerate(targets):
        t |= ((idx >> q) & 1) << u
    rest = idx & ~sum(1 << q for q in targets)
    gather = (t[:, None] << len(targets)) | t[None, :]
    same_rest = (rest[:, None] == rest[None, :]).astype(complex)
    gather.flags.writeable = same_rest.flags.writeable = False
    return gather, same_rest


def check_phases(t: float, w: np.ndarray) -> None:
    """Every phase t w is finite; an infinite one would give NaN in exp or sin."""
    if not math.isfinite(t * float(np.abs(w).max(initial=0.0))):
        raise ContractViolation(f"strength {t!r} overflows the phases of exp(itH)")


def unit_phases(t: float, w: np.ndarray) -> np.ndarray:
    """e^{itw}, once every phase is known to be finite."""
    check_phases(t, w)
    return np.exp(1j * t * w)


def hermitian_exp(op: DenseOperator, t: float, columns: int | None = None) -> DenseOperator | LeadingColumns:
    """exp(+i t H) for Hermitian H, from the operator's cached eigendecomposition.

    u = v e^{itw} v^dagger is unitary by construction, so it is not checked
    per call; `op.eigh` checked once that v^dagger v = 1 + E with
    max |E| <= NORM_TOL.  Then v v^dagger - 1 has E's spectrum and
    u^dagger u - 1 = (v v^dagger - 1) + v e^{-itw} E e^{itw} v^dagger, so
    max |u^dagger u - 1| <= ||E||_2 (2 + ||E||_2) with ||E||_2 <= d NORM_TOL,
    plus the rounding of the two d x d products, O(d) units of 2^-53 per
    entry.  Measured at d = 256 (n = 4): about 3e-15.

    With `columns`, only the first `columns` columns are formed, by the same
    product on v's first `columns` rows, a d x d x columns product; they
    come back as `LeadingColumns`, with no d x d matrix around them.
    """
    if not math.isfinite(t):
        raise ContractViolation(f"evolution time must be finite, got {t!r}")
    w, v = op.eigh
    formed = (v * unit_phases(t, w)) @ v[:columns].conj().T
    if columns is None:
        return DenseOperator(formed, op.target_qubits)
    formed.flags.writeable = False
    return LeadingColumns(formed)


def _target_permutation(num_qubits: int, targets) -> list[int]:
    """Axis order that moves `targets` to the end of the amplitude tensor, last target first.

    Flattening the moved axes then gives a block index little-endian over `targets`.
    """
    target_axes = [num_qubits - 1 - q for q in targets]
    rest_axes = [ax for ax in range(num_qubits) if ax not in target_axes]
    return rest_axes + target_axes[::-1]


def _split_targets(state: StateVector, targets) -> np.ndarray:
    """Reshape to (rest, block) with the block index little-endian over `targets`."""
    m = state.num_qubits
    targets = tuple(targets)
    k = len(targets)
    psi = state.amplitudes.reshape([2] * m)
    return np.transpose(psi, _target_permutation(m, targets)).reshape(2 ** (m - k), 2**k)


def _merge_targets(mat: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """Inverse of _split_targets: back to flat little-endian amplitudes."""
    inv = np.argsort(_target_permutation(num_qubits, targets))
    return np.transpose(mat.reshape([2] * num_qubits), inv).reshape(-1)


def _hermiticity_defect(mat: np.ndarray) -> float:
    return np.abs(mat - mat.conj().T).max()


def _check_orthonormal(vectors: np.ndarray, what: str) -> None:
    """Reject columns with max |V^dagger V - 1| above NORM_TOL (or NaN): an O(d^3) product."""
    defect = np.abs(vectors.conj().T @ vectors - np.eye(vectors.shape[1])).max()
    if not defect <= NORM_TOL:
        raise ContractViolation(f"{what} is not orthonormal (defect {defect:.3e})")


def _check_basis(basis: np.ndarray, k: int) -> np.ndarray:
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (2**k, 2**k):
        raise ContractViolation(
            f"need {2**k} basis vectors of length {2**k}, got shape {basis.shape}"
        )
    _check_orthonormal(basis, "basis")
    return basis


def projection_probabilities(state: StateVector, targets, basis) -> np.ndarray:
    """Born probabilities of each basis outcome on `targets` (columns of `basis`)."""
    targets = tuple(targets)
    basis = _check_basis(basis, len(targets))
    block = _split_targets(state, targets)
    amps = block @ basis.conj()
    return (np.abs(amps) ** 2).sum(axis=0)


def sample_outcomes(rng: np.random.Generator, probs) -> np.ndarray:
    """One Born-rule draw per row of `probs`, each row renormalized to sum 1, from one rng double per row.

    Row by row this is rng.choice(row.size, p=row / row.sum()), draw for draw:
    the cumulative sum, divided by its last entry, counted where it is <= u.
    """
    probs = np.asarray(probs, dtype=float)
    sums = probs.sum(axis=1, keepdims=True)
    if not (probs.min() >= 0 and 0 < sums.min() <= sums.max() < math.inf):  # NaN fails each comparison
        raise ContractViolation("probabilities must be finite and nonnegative, with a positive sum")
    cdf = np.cumsum(probs / sums, axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= rng.random(len(probs))[:, None]).sum(axis=1)


def branch_vector(state: StateVector, targets, vector) -> StateVector:
    """Contract <vector| on `targets`; unnormalized state of the other qubits."""
    vec = np.asarray(vector, dtype=complex)
    block = _split_targets(state, targets)
    return StateVector(block @ vec.conj())


def postselect(state: StateVector, targets, vector) -> tuple[float, StateVector]:
    """Probability of finding `targets` in `vector`, and the normalized post-state."""
    targets = tuple(targets)
    vec = np.asarray(vector, dtype=complex)
    block = _split_targets(state, targets)
    rest = block @ vec.conj()
    p = float(np.vdot(rest, rest).real)
    if not p > 1e-300:
        raise ContractViolation("postselection branch has zero weight")
    post = np.outer(rest, vec) / np.sqrt(p)
    return p, StateVector(_merge_targets(post, targets, state.num_qubits))


def overlap_probability(state: StateVector, reference: StateVector) -> float:
    """Probability of finding the lowest `reference.num_qubits` qubits of `state` in `reference`."""
    k = reference.num_qubits
    m = state.num_qubits
    if k > m:
        raise ContractViolation(f"reference of {k} qubits exceeds a {m}-qubit register")
    if not abs(reference.norm() - 1.0) <= 1e-9:
        raise ContractViolation("reference state must be normalized")
    arr = state.amplitudes.reshape(2 ** (m - k), 2**k)
    contracted = np.tensordot(reference.amplitudes.conj(), arr, axes=([0], [1]))
    return float(np.sum(np.abs(contracted) ** 2))

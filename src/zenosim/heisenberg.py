"""Operator-picture verification of the code's conjugation identities.

Instead of following states, these checks push Pauli operators through the
controlled-flip gates and the encoder and compare the results against
their closed forms; every check, the n = 1 cycles included, is a product
of dense matrices on one register (`operator_on_register`).  One textbook
relation is known to disagree with its usual printed form; the check
asserts the computed value and flags the difference rather than silently
picking a side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ContractViolation
from .fitting import fit_power_law
from .noise import NoiseModel, noise_unitary, random_model
from .pauli import (
    PAULI_MATRICES,
    SYNDROME_BASIS,
    PauliString,
    conjugate_by_encoder,
    conjugation_sign,
    pauli_multiply,
)
from .statevec import DenseOperator, kron_all, operator_on_register, random_state

LETTERS = {"x": 1, "y": 2, "z": 3}
_I2 = np.eye(2, dtype=complex)
_Z = PAULI_MATRICES[3]
#: Largest defect a passing identity may show.
_TOL = 1e-12
#: Model seeds of the n = 1 noise checks.
_FLIP_PRODUCT_SEED = 11
_EFFECTIVE_NOISE_SEED = 23
#: The encoder's conjugation table is checked for system sizes 1.._ENCODER_MAX_N.
_ENCODER_MAX_N = 4


def _letter(a) -> int:
    if isinstance(a, str):
        try:
            return LETTERS[a.lower()]
        except KeyError:
            raise ContractViolation(f"flip letter must be one of x, y, z, got {a!r}") from None
    if a in (1, 2, 3):
        return a
    raise ContractViolation(f"flip letter must be one of x, y, z, got {a!r}")


def branch_operator(letter: int, n: int) -> np.ndarray:
    """The letter applied to each of n qubits, as a dense 2^n matrix: a reference value."""
    return kron_all([PAULI_MATRICES[letter]] * n)


def encoder_matrix(n: int) -> np.ndarray:
    """The encoder as a dense 2^(n+2) matrix on [ancilla | n system qubits], a reference value.

    Production applies it as four branch words (`zeno_code.encode`).
    """
    mat = np.zeros((2 ** (n + 2), 2 ** (n + 2)), dtype=complex)
    for a in range(4):
        # ancilla value a occupies the two low bits of the register index
        mat[a::4, a::4] = branch_operator(a, n)
    return mat


def controlled_flip(letter) -> DenseOperator:
    """|0><0| x 1 + |1><1| x sigma_letter, control on local qubit 0, flip on qubit 1.

    One read-only gate per letter, built and checked on first use.
    """
    return _controlled_flip(_letter(letter))


@cache
def _controlled_flip(letter: int) -> DenseOperator:
    sig = PAULI_MATRICES[letter]
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    mat = np.kron(_I2, p0) + np.kron(sig, p1)
    return DenseOperator(mat, (0, 1), hermitian=True, unitary=True)


@dataclass
class IdentityReport:
    identity: str
    status: str  # "pass" | "fail"
    max_defect: float
    note: str = ""


def _report(identity: str, defect: float, note: str = "") -> IdentityReport:
    status = "pass" if defect <= _TOL else "fail"
    return IdentityReport(identity, status, float(defect), note)


def verify_flip_conjugation(a, b) -> IdentityReport:
    """Sandwich sigma_b (on the flip target) between two copies of a letter-a flip.

    Matching letters leave the operator alone; distinct letters attach a
    sigma_z to the control qubit.
    """
    la, lb = _letter(a), _letter(b)
    gate = controlled_flip(la).matrix
    measured = gate @ np.kron(PAULI_MATRICES[lb], _I2) @ gate
    control_factor = _I2 if la == lb else _Z
    expected = np.kron(PAULI_MATRICES[lb], control_factor)
    defect = np.abs(measured - expected).max()
    return _report(f"flip-conjugation[{a},{b}]", defect)


def flip_product_encoder() -> np.ndarray:
    """Product of a y-flip controlled on ancilla qubit 1 and a z-flip on qubit 0.

    Dense 8x8 matrix on the register [ancilla 0, ancilla 1, system]; the
    y-flip is applied second.
    """
    flip_y = operator_on_register(controlled_flip("y").matrix, (1, 2), 3)
    flip_z = operator_on_register(controlled_flip("z").matrix, (0, 2), 3)
    return flip_y @ flip_z


def ancilla_factor(letter) -> np.ndarray:
    """Ancilla operator attached when the flip-product encoder conjugates a letter.

    x maps to z(x)z, y to 1(x)z, z to z(x)1, in (high qubit 1, low qubit 0)
    order; the identity letter maps to the identity.
    """
    return _ancilla_factors()[0 if letter in (0, "i", "I") else _letter(letter)]


@cache
def _ancilla_factors() -> tuple[np.ndarray, ...]:
    """Read-only ancilla factors of the letters 0..3, built on first use."""
    table = (np.eye(4, dtype=complex), np.kron(_Z, _Z), np.kron(_I2, _Z), np.kron(_Z, _I2))
    for fac in table:
        fac.flags.writeable = False
    return table


def _flip_product_conjugations() -> dict[str, tuple[np.ndarray, float]]:
    """Per letter: enc sigma enc^dagger under the flip-product encoder, and its defect from ancilla_factor x sigma."""
    enc = flip_product_encoder()
    conjugations = {}
    for name, lb in LETTERS.items():
        sigma = operator_on_register(PAULI_MATRICES[lb], (2,), 3)
        lhs = enc @ sigma @ enc.conj().T
        rhs = operator_on_register(ancilla_factor(name), (0, 1), 3) @ sigma
        conjugations[name] = lhs, np.abs(lhs - rhs).max()
    return conjugations


def verify_encoder_conjugations(conjugations) -> list[IdentityReport]:
    """Push each system letter through the flip-product encoder.

    The x and y lines are checked against their usual printed forms, which
    are ancilla_factor x letter.  The z line is asserted from the dense
    computation, whose system factor comes out sigma_z; the often-quoted
    sigma_x form fails, and the report says so instead of asserting it.
    `conjugations` is `_flip_product_conjugations()`.
    """
    reports = [_report(f"encoder-conjugation[{name}]", conjugations[name][1]) for name in ("x", "y")]
    lhs, defect = conjugations["z"]
    printed_z = operator_on_register(kron_all([np.kron(_Z, _I2), PAULI_MATRICES[1]]), (0, 1, 2), 3)
    printed_defect = np.abs(lhs - printed_z).max()
    reports.append(
        _report(
            "encoder-conjugation[z]",
            defect,
            note=(
                "system factor measured as sigma_z; the commonly printed sigma_x "
                f"form misses by {printed_defect:.3e}"
            ),
        )
    )
    return reports


def verify_compact_form(conjugations) -> list[IdentityReport]:
    """Check that conjugating each letter equals ancilla_factor(letter) x letter.

    `conjugations` is `_flip_product_conjugations()`.
    """
    reports = []
    for name, (_, defect) in conjugations.items():
        fac = ancilla_factor(name)
        structural = max(
            np.abs(fac - np.diag(np.diag(fac))).max(),  # diagonal in the ancilla basis
            np.abs(fac @ fac - np.eye(4)).max(),        # involution
        )
        reports.append(_report(f"compact-form[{name}]", max(defect, structural)))
    return reports


def ancilla_factor_expectation(a) -> float:
    """Expectation of the letter-a ancilla factor in the uniform start state.

    1 for the identity letter, exactly 0 otherwise: every non-identity
    factor contains a sigma_z acting on a spin-up-along-x qubit.
    """
    fac = ancilla_factor(a)
    start = SYNDROME_BASIS[:, 0]
    return float((start.conj() @ fac @ start).real)


def conditioned_cycle_operator(model: NoiseModel, epsilon: float) -> np.ndarray:
    """<start| encode . evolve . decode |start> as an operator on system|environment.

    Single system qubit; the 4x4 result tells what the noise looks like to
    the system once the ancilla is prepared and postselected in its start
    state.
    """
    if model.n != 1:
        raise ContractViolation("the conditioned-operator check is defined for n = 1")
    enc = _encoder_register()
    noi = operator_on_register(noise_unitary(model, epsilon), (2, 3), 4)
    full = enc @ noi @ enc
    blocks = full.reshape(4, 4, 4, 4)  # [rest', anc', rest, anc]
    start = SYNDROME_BASIS[:, 0]
    return np.einsum("a,xayb,b->xy", start.conj(), blocks, start)


@cache
def _encoder_register() -> np.ndarray:
    """Read-only n = 1 encoder on the register [ancilla | system | environment], built on first use."""
    enc = operator_on_register(encoder_matrix(1), (0, 1, 2), 4)
    enc.flags.writeable = False
    return enc


def effective_noise_check(model: NoiseModel, epsilon: float) -> float:
    """Distance of the conditioned cycle from a pure environment rotation.

    Conditioning on the undisturbed ancilla cancels every first-order
    system term, leaving exp(i eps A_0) on the environment alone; the
    returned spectral-norm defect measures the residual, which shrinks
    quadratically in eps (and vanishes outright when only identity-letter
    couplings are present).
    """
    cond = conditioned_cycle_operator(model, epsilon)
    a0 = model.couplings[0, 0]
    w, v = np.linalg.eigh(a0)
    env_rot = (v * np.exp(1j * epsilon * w)) @ v.conj().T
    reference = np.kron(env_rot, _I2)  # env above system
    return float(np.linalg.norm(cond - reference, 2))


def _syndrome_distribution(encoder, decoder, noise, psi) -> np.ndarray:
    """Syndrome probabilities of one n = 1 cycle from |start, psi, 0>, each step a 4-qubit register matrix.

    `noise` is the 4 x 4 noise unitary on [system | environment].
    """
    state = np.kron([1.0, 0.0], np.kron(psi, SYNDROME_BASIS[:, 0]))  # environment, system, ancilla
    for mat, targets in ((encoder, (0, 1, 2)), (noise, (2, 3)), (decoder, (0, 1, 2))):
        state = operator_on_register(mat, targets, 4) @ state
    return (np.abs(state.reshape(-1, 4) @ SYNDROME_BASIS) ** 2).sum(axis=0)


def verify_flip_product_equivalence() -> IdentityReport:
    """Physical agreement of the flip-product and canonical encoders (n = 1).

    The two constructions wire the x and z error letters to swapped
    ancilla branches and differ by a phase on one branch, so the checks
    are: identical no-error probability, and identical syndrome
    distributions once outcomes 1 and 3 are swapped.
    """
    canonical = encoder_matrix(1)
    flips = flip_product_encoder()
    noise = noise_unitary(random_model(1, _FLIP_PRODUCT_SEED), 2e-2)
    worst = 0.0
    for trial in range(3):
        psi = random_state(1, _FLIP_PRODUCT_SEED + 17 * trial)
        p_canonical = _syndrome_distribution(canonical, canonical, noise, psi.amplitudes)
        p_flips = _syndrome_distribution(flips, flips.conj().T, noise, psi.amplitudes)
        relabeled = p_flips[[0, 3, 2, 1]]
        worst = max(worst, float(np.abs(p_canonical - relabeled).max()))
    return _report(
        "flip-product-equivalence",
        worst,
        note="syndrome outcomes of the flip-product encoder match after swapping letters x and z",
    )


def _pauli_table_report() -> IdentityReport:
    worst = 0.0
    for a in range(4):
        for b in range(4):
            prod = pauli_multiply(PauliString((a,)), PauliString((b,)))
            dense = PAULI_MATRICES[a] @ PAULI_MATRICES[b]
            worst = max(worst, float(np.abs(prod.matrix() - dense).max()))
    return _report("pauli-multiplication-table", worst)


def _conjugation_sign_report() -> IdentityReport:
    worst = 0.0
    for a in range(4):
        for b in range(4):
            triple = pauli_multiply(
                PauliString((a,)), pauli_multiply(PauliString((b,)), PauliString((a,)))
            )
            expected = conjugation_sign(a, b)
            defect = abs(triple.phase - expected) + (triple.labels[0] != b)
            worst = max(worst, float(defect))
    return _report("conjugation-sign-table", worst)


def _syndrome_basis_report() -> IdentityReport:
    basis = SYNDROME_BASIS
    gram = np.abs(basis.conj().T @ basis - np.eye(4)).max()
    start = np.abs(basis[:, 0] - 0.5).max()  # the uniform vector
    x_high = np.kron(PAULI_MATRICES[1], _I2)
    x_low = np.kron(_I2, PAULI_MATRICES[1])
    eig = 0.0
    for b in range(4):
        v = basis[:, b]
        for op in (x_high, x_low):
            ev = v @ op @ v
            eig = max(eig, float(np.abs(op @ v - ev * v).max()))
    return _report(
        "syndrome-basis",
        max(float(gram), float(start), eig),
        note="orthonormal, starts at the uniform vector, and diagonalizes both ancilla x flips",
    )


def _encoder_conjugation_report() -> IdentityReport:
    worst = 0.0
    for n in range(1, _ENCODER_MAX_N + 1):
        cmat = encoder_matrix(n)
        m = n + 2
        inv = np.abs(cmat @ cmat - np.eye(2**m)).max()
        worst = max(worst, float(inv))
        for b in range(4):
            for j in range(n):
                word = PauliString.single(n, j, b)
                diagonal = conjugate_by_encoder(n, word)
                sigma = operator_on_register(PAULI_MATRICES[b], (2 + j,), m)
                dense = cmat @ sigma @ cmat
                rhs = operator_on_register(np.diag(np.array(diagonal, dtype=complex)), (0, 1), m) @ sigma
                worst = max(worst, float(np.abs(dense - rhs).max()))
    return _report("encoder-conjugation", worst, note=f"system sizes 1..{_ENCODER_MAX_N}, all letters and positions")


def _expectation_report() -> IdentityReport:
    worst = 0.0
    for a in range(4):
        expected = 1.0 if a == 0 else 0.0
        worst = max(worst, abs(ancilla_factor_expectation(a) - expected))
    return _report("ancilla-factor-expectation", worst)


def _effective_noise_reports() -> list[IdentityReport]:
    model = random_model(1, _EFFECTIVE_NOISE_SEED)
    couplings = np.zeros((1, 4, 2, 2), dtype=complex)
    couplings[0, 0] = model.couplings[0, 0]
    identity_only = NoiseModel(1, couplings)
    exact = effective_noise_check(identity_only, 0.1)
    reports = [
        _report(
            "effective-noise[identity-couplings]",
            exact,
            note="conditioning is exact when only identity-letter couplings act",
        )
    ]
    eps = np.geomspace(1e-3, 3e-2, 8)
    defects = [effective_noise_check(model, e) for e in eps]
    fit = fit_power_law(eps, defects)
    ok = fit is not None and abs(fit.slope - 2.0) <= 0.05
    reports.append(
        IdentityReport(
            "effective-noise[scaling]",
            "pass" if ok else "fail",
            float(abs(fit.slope - 2.0)) if fit else float("nan"),
            note=f"defect falls off with exponent {fit.slope:.4f}" if fit else "fit failed",
        )
    )
    return reports


def run_verification() -> list[IdentityReport]:
    """Every identity check in one deterministic pass."""
    reports = [
        _pauli_table_report(),
        _conjugation_sign_report(),
        _syndrome_basis_report(),
        _encoder_conjugation_report(),
    ]
    for a in LETTERS:
        for b in LETTERS:
            reports.append(verify_flip_conjugation(a, b))
    conjugations = _flip_product_conjugations()
    reports.extend(verify_encoder_conjugations(conjugations))
    reports.extend(verify_compact_form(conjugations))
    reports.append(_expectation_report())
    reports.append(verify_flip_product_equivalence())
    reports.extend(_effective_noise_reports())
    return reports
